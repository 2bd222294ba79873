//! Pareto-front extraction over evaluation metrics: an incremental
//! [`ParetoFront`] with O(front) online insertion. The batch pass over a
//! slice is [`crate::par_pareto_indices`].

use mccm_core::{Metric, MetricSource};

/// An incrementally maintained Pareto front over a fixed metric set.
///
/// Each insertion costs O(current front size) — for the big sweeps of
/// Use Case 3 the front stays tiny (tens of points for 100k designs), so
/// streaming insertion replaces the old all-pairs O(n²) batch pass.
/// Worker threads keep a local front each and [`merge`](Self::merge) them
/// at the end: the front of a union is the merge of the parts' fronts.
///
/// Point `a` dominates `b` when `a` is at least as good on every metric
/// and strictly better on at least one (direction per
/// [`Metric::higher_is_better`]). Mutually equal points do not dominate
/// each other, so exact duplicates coexist on the front — the same
/// semantics as the batch pass.
#[derive(Debug, Clone)]
pub struct ParetoFront<T> {
    metrics: Vec<Metric>,
    entries: Vec<(Vec<f64>, T)>,
}

impl<T> ParetoFront<T> {
    /// Creates an empty front over `metrics`.
    ///
    /// # Panics
    ///
    /// If `metrics` is empty — a front over zero metrics is meaningless.
    pub fn new(metrics: &[Metric]) -> Self {
        assert!(
            !metrics.is_empty(),
            "a Pareto front needs at least one metric"
        );
        Self {
            metrics: metrics.to_vec(),
            entries: Vec::new(),
        }
    }

    /// The metric set the front is defined over.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Number of points currently on the front.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Offers `item` with precomputed metric `values` (same order as
    /// [`Self::metrics`]). Returns `true` if the item joined the front
    /// (evicting any newly dominated members), `false` if it was
    /// dominated by an existing member.
    ///
    /// # Panics
    ///
    /// If `values.len()` differs from the metric count.
    pub fn offer_with_values(&mut self, item: T, values: Vec<f64>) -> bool {
        assert_eq!(values.len(), self.metrics.len(), "one value per metric");
        if self
            .entries
            .iter()
            .any(|(v, _)| dominates(&self.metrics, v, &values))
        {
            return false;
        }
        self.entries
            .retain(|(v, _)| !dominates(&self.metrics, &values, v));
        self.entries.push((values, item));
        true
    }

    /// Offers `item`, reading its metric values via [`MetricSource`].
    pub fn offer(&mut self, item: T) -> bool
    where
        T: MetricSource,
    {
        let values = self.metrics.iter().map(|m| m.value(&item)).collect();
        self.offer_with_values(item, values)
    }

    /// Merges another front (over the same metrics) into this one.
    ///
    /// # Panics
    ///
    /// If the two fronts were built over different metric sets.
    pub fn merge(&mut self, other: ParetoFront<T>) {
        assert_eq!(
            self.metrics, other.metrics,
            "fronts must share a metric set"
        );
        for (values, item) in other.entries {
            self.offer_with_values(item, values);
        }
    }

    /// Iterates the front's items (insertion order of the survivors).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|(_, item)| item)
    }

    /// Consumes the front, yielding its items.
    pub fn into_items(self) -> Vec<T> {
        self.entries.into_iter().map(|(_, item)| item).collect()
    }
}

/// Whether `a` dominates `b` under `metrics`.
pub(crate) fn dominates(metrics: &[Metric], a: &[f64], b: &[f64]) -> bool {
    let mut strictly = false;
    for (i, m) in metrics.iter().enumerate() {
        if m.better(b[i], a[i]) {
            return false;
        }
        if m.better(a[i], b[i]) {
            strictly = true;
        }
    }
    strictly
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par_pareto_indices;
    use mccm_core::{Bytes, EvalSummary, Macs};

    fn eval(throughput: f64, buffer: u64) -> EvalSummary {
        EvalSummary {
            notation: String::new(),
            ce_count: 2,
            total_macs: Macs::ZERO,
            latency_s: 1.0,
            throughput_fps: throughput,
            buffer_req_bytes: Bytes::new(buffer),
            buffer_alloc_bytes: Bytes::new(buffer),
            offchip_bytes: Bytes::ZERO,
            offchip_weight_bytes: Bytes::ZERO,
            offchip_fm_bytes: Bytes::ZERO,
            memory_stall_fraction: 0.0,
        }
    }

    const TB: [Metric; 2] = [Metric::Throughput, Metric::OnChipBuffers];

    #[test]
    fn extracts_non_dominated_points() {
        // (throughput up, buffer down): (10, 100) and (20, 200) trade off;
        // (5, 300) is dominated by both.
        let evals = vec![eval(10.0, 100), eval(20.0, 200), eval(5.0, 300)];
        let front = par_pareto_indices(&evals, &TB, 1);
        assert_eq!(front, vec![0, 1]);
    }

    #[test]
    fn identical_points_all_survive() {
        let evals = vec![eval(10.0, 100), eval(10.0, 100)];
        let front = par_pareto_indices(&evals, &TB, 1);
        assert_eq!(front, vec![0, 1]);
    }

    #[test]
    fn single_metric_front_is_the_best() {
        let evals = vec![eval(10.0, 100), eval(20.0, 200), eval(15.0, 50)];
        let front = par_pareto_indices(&evals, &[Metric::Throughput], 1);
        assert_eq!(front, vec![1]);
    }

    #[test]
    fn empty_input() {
        let none: [EvalSummary; 0] = [];
        assert!(par_pareto_indices(&none, &[Metric::Throughput], 1).is_empty());
    }

    #[test]
    fn insertion_evicts_dominated_members() {
        let mut front = ParetoFront::new(&TB);
        assert!(front.offer(eval(10.0, 100)));
        assert!(front.offer(eval(5.0, 50))); // trades off, evicted later
        assert_eq!(front.len(), 2);
        // Dominates (5, 50), trades off with (10, 100).
        assert!(front.offer(eval(6.0, 40)));
        assert_eq!(front.len(), 2);
        // Dominated by (10, 100): rejected without insertion.
        assert!(!front.offer(eval(9.0, 150)));
        assert_eq!(front.len(), 2);
    }

    #[test]
    fn merge_equals_front_of_union() {
        let points = vec![
            eval(10.0, 100),
            eval(20.0, 200),
            eval(5.0, 300),
            eval(15.0, 50),
            eval(20.0, 200), // duplicate of a front member
        ];
        let whole = par_pareto_indices(&points, &TB, 1);
        let mut left = ParetoFront::new(&TB);
        let mut right = ParetoFront::new(&TB);
        for (i, e) in points.iter().enumerate() {
            let values = TB.iter().map(|m| m.value(e)).collect();
            if i < 2 {
                left.offer_with_values(i, values);
            } else {
                right.offer_with_values(i, values);
            }
        }
        left.merge(right);
        let mut merged = left.into_items();
        merged.sort_unstable();
        assert_eq!(merged, whole);
    }

    #[test]
    #[should_panic(expected = "at least one metric")]
    fn empty_metric_set_rejected() {
        let _ = ParetoFront::<usize>::new(&[]);
    }
}
