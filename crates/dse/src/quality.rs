//! Front-quality measures for comparing design-space searches:
//! hypervolume and coverage (the two standard multi-objective indicators),
//! plus a convenience comparison of two fronts at equal budget.
//!
//! Hypervolume is computed **exactly** (recursive dimension sweep) in a
//! normalized space: every metric is oriented to minimization and scaled
//! by shared [`MetricBounds`] so heterogeneous units (seconds × FPS ×
//! bytes × joules) cannot distort the volume. The reference corner sits at
//! 1.1 per dimension — slightly beyond the shared nadir, so nadir-touching
//! points still contribute — and the result is reported as the fraction of
//! the reference box that the front dominates (in `[0, 1]`).

use mccm_core::{Metric, MetricSource};

/// Shared per-metric scaling bounds, in raw metric units: `ideal` is the
/// best observed value, `nadir` the worst (direction per
/// [`Metric::higher_is_better`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricBounds {
    /// Best observed value of the metric.
    pub ideal: f64,
    /// Worst observed value of the metric.
    pub nadir: f64,
}

/// The reference corner of the normalized hypervolume box, per dimension.
const REFERENCE: f64 = 1.1;

/// Shared bounds over the union of several point sets — the scaling both
/// fronts must use for their hypervolumes to be comparable.
///
/// # Panics
///
/// If the union is empty or `metrics` is empty.
pub fn union_bounds<S: MetricSource>(sets: &[&[S]], metrics: &[Metric]) -> Vec<MetricBounds> {
    assert!(!metrics.is_empty(), "bounds need at least one metric");
    assert!(
        sets.iter().any(|s| !s.is_empty()),
        "bounds need at least one point"
    );
    metrics
        .iter()
        .map(|m| {
            let mut ideal = f64::INFINITY;
            let mut nadir = f64::NEG_INFINITY;
            for s in sets {
                for item in *s {
                    let v = oriented(*m, m.value(item));
                    ideal = ideal.min(v);
                    nadir = nadir.max(v);
                }
            }
            MetricBounds {
                ideal: unoriented(*m, ideal),
                nadir: unoriented(*m, nadir),
            }
        })
        .collect()
}

/// Exact hypervolume of `items` under shared `bounds`, as the dominated
/// fraction of the normalized reference box (in `[0, 1]`).
///
/// # Panics
///
/// If `bounds.len() != metrics.len()` or `metrics` is empty.
pub fn hypervolume<S: MetricSource>(
    items: &[S],
    metrics: &[Metric],
    bounds: &[MetricBounds],
) -> f64 {
    assert!(!metrics.is_empty(), "hypervolume needs at least one metric");
    assert_eq!(bounds.len(), metrics.len(), "one bound per metric");
    if items.is_empty() {
        return 0.0;
    }
    let mut points: Vec<Vec<f64>> = items
        .iter()
        .map(|item| {
            metrics
                .iter()
                .zip(bounds)
                .map(|(m, b)| normalized(*m, *b, m.value(item)))
                .collect()
        })
        .collect();
    prune_min(&mut points);
    let dims = i32::try_from(metrics.len()).expect("metric sets are tiny");
    hv_min(&mut points) / REFERENCE.powi(dims)
}

/// The coverage indicator `C(a, b)`: the fraction of `b`'s points that
/// some point of `a` weakly dominates (at least as good on every metric).
/// `C(a, b) = 1` means `a` covers all of `b`; the indicator is not
/// symmetric, so report both directions. Empty `b` yields 1.0 (vacuously
/// covered).
pub fn coverage<S: MetricSource>(a: &[S], b: &[S], metrics: &[Metric]) -> f64 {
    if b.is_empty() {
        return 1.0;
    }
    let covered = b
        .iter()
        .filter(|q| {
            a.iter()
                .any(|p| metrics.iter().all(|m| !m.better(m.value(*q), m.value(p))))
        })
        .count();
    // Front sizes stay far below 2^53, so the f64 ratio is exact.
    #[allow(clippy::cast_precision_loss)]
    let frac = covered as f64 / b.len() as f64;
    frac
}

/// Side-by-side quality comparison of two fronts over the same metric set
/// (shared normalization bounds from their union).
#[derive(Debug, Clone)]
pub struct FrontComparison {
    /// Normalized hypervolume of front `a`.
    pub hypervolume_a: f64,
    /// Normalized hypervolume of front `b`.
    pub hypervolume_b: f64,
    /// Fraction of `b` weakly dominated by `a`.
    pub coverage_a_over_b: f64,
    /// Fraction of `a` weakly dominated by `b`.
    pub coverage_b_over_a: f64,
    /// Best raw value per metric on front `a`.
    pub best_a: Vec<f64>,
    /// Best raw value per metric on front `b`.
    pub best_b: Vec<f64>,
    /// Number of metrics where `a`'s best matches or beats `b`'s best.
    pub a_best_or_tied: usize,
}

/// Compares two fronts over `metrics` with shared union bounds.
///
/// # Panics
///
/// If both fronts are empty or `metrics` is empty.
pub fn compare_fronts<S: MetricSource>(a: &[S], b: &[S], metrics: &[Metric]) -> FrontComparison {
    let bounds = union_bounds(&[a, b], metrics);
    let best = |set: &[S], m: Metric| m.best(set.iter().map(|p| m.value(p))).unwrap_or(f64::NAN);
    let best_a: Vec<f64> = metrics.iter().map(|&m| best(a, m)).collect();
    let best_b: Vec<f64> = metrics.iter().map(|&m| best(b, m)).collect();
    // An empty front wins nothing (its bests are NaN, and NaN comparisons
    // would otherwise count as vacuous ties).
    let a_best_or_tied = if a.is_empty() {
        0
    } else {
        metrics
            .iter()
            .enumerate()
            .filter(|&(i, m)| b.is_empty() || !m.better(best_b[i], best_a[i]))
            .count()
    };
    FrontComparison {
        hypervolume_a: hypervolume(a, metrics, &bounds),
        hypervolume_b: hypervolume(b, metrics, &bounds),
        coverage_a_over_b: coverage(a, b, metrics),
        coverage_b_over_a: coverage(b, a, metrics),
        best_a,
        best_b,
        a_best_or_tied,
    }
}

/// Orients a raw metric value to minimization.
fn oriented(metric: Metric, v: f64) -> f64 {
    if metric.higher_is_better() {
        -v
    } else {
        v
    }
}

/// Maps an oriented (minimization) value back to raw metric units.
fn unoriented(metric: Metric, v: f64) -> f64 {
    oriented(metric, v) // negation is its own inverse
}

/// Scales a raw value into `[0, 1]` minimization space under `bounds`
/// (0 = shared ideal, 1 = shared nadir; degenerate bounds collapse to 0).
fn normalized(metric: Metric, bounds: MetricBounds, v: f64) -> f64 {
    let lo = oriented(metric, bounds.ideal);
    let hi = oriented(metric, bounds.nadir);
    if hi <= lo {
        return 0.0;
    }
    ((oriented(metric, v) - lo) / (hi - lo)).clamp(0.0, 1.0)
}

/// Drops every point weakly dominated by another (minimization; one copy
/// of exact duplicates survives). Pruning before each recursion level
/// keeps the dimension-sweep polynomial on real fronts — without it,
/// dominated interior points multiply the slice count at every level.
fn prune_min(points: &mut Vec<Vec<f64>>) {
    let n = points.len();
    let mut keep = vec![true; n];
    for i in 0..n {
        if !keep[i] {
            continue;
        }
        for j in 0..n {
            if i == j || !keep[j] {
                continue;
            }
            let weakly = points[j].iter().zip(&points[i]).all(|(a, b)| a <= b);
            let strictly = points[j].iter().zip(&points[i]).any(|(a, b)| a < b);
            if weakly && (strictly || j < i) {
                keep[i] = false;
                break;
            }
        }
    }
    let mut it = keep.iter();
    points.retain(|_| *it.next().expect("one flag per point"));
}

/// Exact hypervolume of mutually non-dominated minimization points against
/// the `REFERENCE` corner — recursive dimension sweep: slice on the first
/// coordinate, recurse on the rest, pruning each slice's projection to its
/// own front first. Fronts of a few hundred points in ≤ 5 dimensions
/// evaluate in milliseconds.
fn hv_min(points: &mut [Vec<f64>]) -> f64 {
    debug_assert!(!points.is_empty());
    let d = points[0].len();
    if d == 1 {
        let best = points.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
        return (REFERENCE - best).max(0.0);
    }
    points.sort_by(|a, b| a[0].total_cmp(&b[0]));
    let mut volume = 0.0;
    let mut active: Vec<Vec<f64>> = Vec::new();
    let mut i = 0;
    while i < points.len() {
        let z = points[i][0];
        while i < points.len() && points[i][0] == z {
            active.push(points[i][1..].to_vec());
            i += 1;
        }
        let next = if i < points.len() {
            points[i][0].min(REFERENCE)
        } else {
            REFERENCE
        };
        let width = next - z.min(REFERENCE);
        if width > 0.0 {
            let mut slice = active.clone();
            prune_min(&mut slice);
            volume += width * hv_min(&mut slice);
        }
    }
    volume
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccm_core::{Bytes, EvalSummary, Macs};

    /// Stub summary with controllable latency (s) and buffers (bytes).
    fn point(latency_s: f64, buffers: u64) -> EvalSummary {
        EvalSummary {
            notation: String::new(),
            ce_count: 2,
            total_macs: Macs::ZERO,
            latency_s,
            throughput_fps: 1.0,
            buffer_req_bytes: Bytes::new(buffers),
            buffer_alloc_bytes: Bytes::new(buffers),
            offchip_bytes: Bytes::ZERO,
            offchip_weight_bytes: Bytes::ZERO,
            offchip_fm_bytes: Bytes::ZERO,
            memory_stall_fraction: 0.0,
        }
    }

    const LB: [Metric; 2] = [Metric::Latency, Metric::OnChipBuffers];

    #[test]
    fn ideal_point_dominates_the_whole_box() {
        // Bounds [0,1] on both metrics; a point at the shared ideal
        // dominates the entire 1.1 x 1.1 reference box.
        let bounds = [
            MetricBounds {
                ideal: 0.0,
                nadir: 1.0,
            },
            MetricBounds {
                ideal: 0.0,
                nadir: 1.0,
            },
        ];
        let hv = hypervolume(&[point(0.0, 0)], &LB, &bounds);
        assert!((hv - 1.0).abs() < 1e-12, "{hv}");
        // A nadir point still dominates the 0.1-wide margin strip.
        let hv = hypervolume(&[point(1.0, 1)], &LB, &bounds);
        assert!((hv - 0.01 / 1.21).abs() < 1e-12, "{hv}");
    }

    #[test]
    fn two_point_front_volume_is_the_union_of_boxes() {
        let bounds = [
            MetricBounds {
                ideal: 0.0,
                nadir: 1.0,
            },
            MetricBounds {
                ideal: 0.0,
                nadir: 1_000_000_000.0,
            },
        ];
        // Scaled points (0, 0.5) and (0.5, 0):
        // union = 1.1*0.6 + 0.6*1.1 - 0.6*0.6 = 0.96, box = 1.21.
        let front = [point(0.0, 500_000_000), point(0.5, 0)];
        let hv = hypervolume(&front, &LB, &bounds);
        assert!((hv - 0.96 / 1.21).abs() < 1e-12, "{hv}");
        // Duplicates and dominated points change nothing.
        let with_noise = [
            point(0.0, 500_000_000),
            point(0.5, 0),
            point(0.5, 0),
            point(0.75, 750_000_000),
        ];
        let hv2 = hypervolume(&with_noise, &LB, &bounds);
        assert!((hv2 - hv).abs() < 1e-12);
    }

    #[test]
    fn throughput_orientation_is_respected() {
        // Higher throughput = better; the best point must yield the larger
        // single-metric hypervolume.
        let metrics = [Metric::Throughput];
        let mut fast = point(1.0, 1);
        fast.throughput_fps = 100.0;
        let mut slow = point(1.0, 1);
        slow.throughput_fps = 10.0;
        let all = [fast.clone(), slow.clone()];
        let bounds = union_bounds(&[&all], &metrics);
        assert_eq!(bounds[0].ideal, 100.0);
        assert_eq!(bounds[0].nadir, 10.0);
        let hv_fast = hypervolume(&[fast], &metrics, &bounds);
        let hv_slow = hypervolume(&[slow], &metrics, &bounds);
        assert!(hv_fast > hv_slow);
        assert!((hv_fast - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_counts_weak_domination() {
        let a = [point(0.1, 100), point(0.5, 10)];
        let b = [point(0.2, 200), point(0.5, 10), point(0.05, 1000)];
        // (0.2,200) dominated by (0.1,100); (0.5,10) equals a member
        // (weakly covered); (0.05,1000) uncovered.
        let c = coverage(&a, &b, &LB);
        assert!((c - 2.0 / 3.0).abs() < 1e-12, "{c}");
        assert_eq!(coverage(&a, &[], &LB), 1.0);
        // Self-coverage of a non-dominated set is 1.
        assert_eq!(coverage(&a, &a, &LB), 1.0);
    }

    #[test]
    fn empty_front_wins_nothing() {
        // Regression: NaN bests of an empty front used to count as
        // vacuous ties on every metric.
        let b = [point(0.2, 150)];
        let cmp = compare_fronts(&[] as &[EvalSummary], &b, &LB);
        assert_eq!(cmp.a_best_or_tied, 0);
        assert_eq!(cmp.hypervolume_a, 0.0);
        assert!(cmp.best_a.iter().all(|v| v.is_nan()));
        // The non-empty side wins everything against an empty front.
        let cmp = compare_fronts(&b, &[] as &[EvalSummary], &LB);
        assert_eq!(cmp.a_best_or_tied, 2);
    }

    #[test]
    fn compare_fronts_reports_both_directions() {
        let a = [point(0.1, 100), point(0.4, 20)];
        let b = [point(0.2, 150), point(0.6, 40)];
        let cmp = compare_fronts(&a, &b, &LB);
        assert!(cmp.hypervolume_a > cmp.hypervolume_b);
        assert_eq!(cmp.coverage_a_over_b, 1.0);
        assert_eq!(cmp.coverage_b_over_a, 0.0);
        assert_eq!(cmp.a_best_or_tied, 2);
        assert_eq!(cmp.best_a, vec![0.1, 20.0]);
        assert_eq!(cmp.best_b, vec![0.2, 40.0]);
    }
}
