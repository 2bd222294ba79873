//! Shared experiment setups: the paper's boards, CNNs, CE range, and
//! instance-selection helpers.

use mccm_arch::templates::Architecture;
use mccm_cnn::{zoo, CnnModel};
use mccm_core::Metric;
use mccm_dse::{BaselinePoint, Explorer};
use mccm_fpga::FpgaBoard;

/// The paper's CE-count sweep (§V-A3): 2 through 11 CEs.
pub const CE_RANGE: std::ops::RangeInclusive<usize> = 2..=11;

/// The five evaluation CNNs in Table III order.
pub fn models() -> Vec<CnnModel> {
    zoo::all_models()
}

/// The four evaluation boards in Table II order.
pub fn boards() -> Vec<FpgaBoard> {
    FpgaBoard::evaluation_boards()
}

/// Sweeps the three baselines over the CE range for one (CNN, board) pair.
///
/// # Panics
///
/// On real builder faults (anything other than infeasible instances);
/// the experiment harness treats those as bugs, not data.
pub fn baseline_sweep(model: &CnnModel, board: &FpgaBoard) -> Vec<BaselinePoint> {
    Explorer::new(model, board)
        .par_sweep_baselines(CE_RANGE, 1)
        .expect("baseline sweep hit a builder fault")
}

/// The best instance of one architecture under a metric: `(ces, point)`.
pub fn best_instance(
    sweep: &[BaselinePoint],
    arch: Architecture,
    metric: Metric,
) -> Option<&BaselinePoint> {
    sweep
        .iter()
        .filter(|p| p.architecture == arch)
        .reduce(|a, b| {
            if metric.better(metric.value(&b.eval.summary), metric.value(&a.eval.summary)) {
                b
            } else {
                a
            }
        })
}

/// Architecture initial used in compact grids (`S` / `R` / `H`).
pub fn arch_initial(arch: Architecture) -> &'static str {
    match arch {
        Architecture::Segmented => "S",
        Architecture::SegmentedRr => "R",
        Architecture::Hybrid => "H",
    }
}

/// Bytes → MiB.
pub fn mib(bytes: mccm_core::Bytes) -> f64 {
    bytes.mib()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_and_best_instance() {
        let m = zoo::mobilenet_v2();
        let sweep = baseline_sweep(&m, &FpgaBoard::zc706());
        assert_eq!(sweep.len(), 30);
        let best = best_instance(&sweep, Architecture::Hybrid, Metric::Throughput).unwrap();
        assert_eq!(best.architecture, Architecture::Hybrid);
        // It really is the max-throughput hybrid.
        for p in sweep
            .iter()
            .filter(|p| p.architecture == Architecture::Hybrid)
        {
            assert!(best.eval.throughput_fps >= p.eval.throughput_fps);
        }
    }

    #[test]
    fn initials_unique() {
        let set: std::collections::HashSet<_> =
            Architecture::ALL.iter().map(|&a| arch_initial(a)).collect();
        assert_eq!(set.len(), 3);
    }
}
