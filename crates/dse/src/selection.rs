//! Best-architecture selection with the paper's 10% tie rule (Table V).

use mccm_arch::templates::Architecture;
use mccm_core::Metric;

use crate::explorer::BaselinePoint;

/// A Table V cell: for one metric, which architectures achieve the best
/// result (ties within `tie_frac`) and with which CE count.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionCell {
    /// The metric selected on.
    pub metric: Metric,
    /// Winning `(architecture, CE count, value)` triples; multiple entries
    /// indicate a tie, as in the paper's multi-colored cells.
    pub winners: Vec<(Architecture, usize, f64)>,
}

/// The paper's tie tolerance: "We consider results within a 10% difference
/// as a tie to account for estimation errors."
pub const PAPER_TIE_FRAC: f64 = 0.10;

/// Selects the best architectures for one metric over a baseline sweep.
///
/// Per architecture, the best instance (over CE counts) is found first;
/// architectures whose best lies within `tie_frac` of the overall best are
/// winners, reported with their best instance's CE count.
///
/// **Tie-breaking is explicit and deterministic:** when two instances of
/// the same architecture achieve the exact same value, the one with fewer
/// CEs wins (fewer engines at equal quality is the cheaper design); among
/// equal CE counts, the earlier point in `points` wins. The old `reduce`
/// silently kept whichever instance happened to iterate first, so callers
/// that reordered or deduplicated a sweep got different winning CE counts
/// for the same data.
pub fn select_best(points: &[BaselinePoint], metric: Metric, tie_frac: f64) -> SelectionCell {
    let mut per_arch: Vec<(Architecture, usize, f64)> = Vec::new();
    for arch in Architecture::ALL {
        let best = points
            .iter()
            .filter(|p| p.architecture == arch)
            .map(|p| (p.ces, metric.value(&p.eval.summary)))
            .reduce(|a, b| {
                if metric.better(b.1, a.1) || (b.1 == a.1 && b.0 < a.0) {
                    b
                } else {
                    a
                }
            });
        if let Some((ces, value)) = best {
            per_arch.push((arch, ces, value));
        }
    }
    let winners = match metric.best(per_arch.iter().map(|&(_, _, v)| v)) {
        None => Vec::new(),
        Some(best) => per_arch
            .into_iter()
            .filter(|&(_, _, v)| metric.within_tie(v, best, tie_frac))
            .collect(),
    };
    SelectionCell { metric, winners }
}

/// Selects all four metrics (one Table V column).
pub fn select_all_metrics(points: &[BaselinePoint], tie_frac: f64) -> Vec<SelectionCell> {
    Metric::ALL
        .iter()
        .map(|&m| select_best(points, m, tie_frac))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::Explorer;
    use mccm_cnn::zoo;
    use mccm_fpga::FpgaBoard;

    fn sweep() -> Vec<BaselinePoint> {
        let m = zoo::resnet50();
        Explorer::new(&m, &FpgaBoard::zc706())
            .par_sweep_baselines(2..=11, 1)
            .unwrap()
    }

    #[test]
    fn every_metric_has_winners() {
        let points = sweep();
        for cell in select_all_metrics(&points, PAPER_TIE_FRAC) {
            assert!(!cell.winners.is_empty(), "{:?}", cell.metric);
            assert!(cell.winners.len() <= 3);
            for &(_, ces, _) in &cell.winners {
                assert!((2..=11).contains(&ces));
            }
        }
    }

    #[test]
    fn winners_are_within_tie_of_each_other() {
        let points = sweep();
        for metric in Metric::ALL {
            let cell = select_best(&points, metric, PAPER_TIE_FRAC);
            let best = metric
                .best(cell.winners.iter().map(|&(_, _, v)| v))
                .unwrap();
            for &(_, _, v) in &cell.winners {
                assert!(metric.within_tie(v, best, PAPER_TIE_FRAC));
            }
        }
    }

    #[test]
    fn zero_tolerance_gives_single_winner() {
        let points = sweep();
        let cell = select_best(&points, Metric::Latency, 0.0);
        assert_eq!(cell.winners.len(), 1);
    }

    #[test]
    fn empty_sweep_gives_empty_cell() {
        let cell = select_best(&[], Metric::Latency, PAPER_TIE_FRAC);
        assert!(cell.winners.is_empty());
    }

    #[test]
    fn exact_value_ties_prefer_fewer_ces_regardless_of_order() {
        // Constructed tie: the same architecture hits the identical best
        // value at 7 and at 3 CEs. The explicit tie-break must report the
        // 3-CE instance whichever order the points arrive in.
        let m = zoo::resnet50();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        let base = e.par_sweep_baselines(2..=2, 1).unwrap();
        let mk = |ces: usize, latency: f64| {
            let mut p = base[0].clone();
            p.ces = ces;
            p.eval.summary.latency_s = latency;
            p
        };
        let forward = vec![mk(7, 0.5), mk(3, 0.5), mk(5, 0.9)];
        let backward = vec![mk(3, 0.5), mk(7, 0.5), mk(5, 0.9)];
        for points in [forward, backward] {
            let cell = select_best(&points, Metric::Latency, 0.0);
            assert_eq!(cell.winners.len(), 1);
            let (_, ces, value) = cell.winners[0];
            assert_eq!(ces, 3, "exact tie must resolve to the fewer-CE instance");
            assert_eq!(value, 0.5);
        }
    }
}
