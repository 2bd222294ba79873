//! Model-accuracy bookkeeping against a reference evaluator (Eq. 10).
//!
//! The paper validates MCCM against Vitis HLS synthesis; this reproduction
//! validates against the event-driven simulator in `mccm-sim`. The
//! accuracy definition is identical:
//!
//! ```text
//! Accuracy = 100 × (1 − |reference − estimated| / reference) %
//! ```

use crate::metrics::Metric;

/// Eq. (10): percentage accuracy of an estimate against a reference.
///
/// Values below 0 (estimates off by more than 2×) are clamped to 0 so that
/// aggregates stay meaningful. The reference must be a non-negative
/// measurement (times, bytes, rates) — a negative reference flips the
/// relative-error sign convention and is a caller bug, rejected in release
/// builds too (same policy as the [`crate::quantity`] constructors: a
/// poisoned aggregate is worse than a panic).
///
/// # Panics
///
/// If `reference` is negative (NaN passes through and yields NaN).
pub fn accuracy_pct(reference: f64, estimated: f64) -> f64 {
    assert!(
        reference >= 0.0 || reference.is_nan(),
        "accuracy_pct reference must be non-negative, got {reference}"
    );
    if reference == 0.0 {
        return if estimated == 0.0 { 100.0 } else { 0.0 };
    }
    (100.0 * (1.0 - ((reference - estimated) / reference).abs())).max(0.0)
}

/// One validation record: a metric estimated by the model and measured by
/// the reference evaluator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyRecord {
    /// Which metric.
    pub metric: Metric,
    /// Reference (simulator) value.
    pub reference: f64,
    /// Model estimate.
    pub estimated: f64,
}

impl AccuracyRecord {
    /// Eq. (10) accuracy of this record.
    pub fn accuracy(&self) -> f64 {
        accuracy_pct(self.reference, self.estimated)
    }
}

/// Max/min/average aggregation of accuracies (Table IV's columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracySummary {
    /// Highest accuracy in the set.
    pub max: f64,
    /// Lowest accuracy in the set.
    pub min: f64,
    /// Mean accuracy.
    pub average: f64,
    /// Number of (finite) records aggregated.
    pub count: usize,
    /// NaN inputs that were skipped instead of aggregated — a non-zero
    /// value flags a broken upstream record without corrupting max/min/
    /// average (NaN used to poison all three silently: `f64::max`/`min`
    /// drop NaN but the sum does not).
    pub skipped_nan: usize,
}

impl AccuracySummary {
    /// Aggregates an iterator of accuracy percentages.
    ///
    /// NaN values are skipped and counted in [`Self::skipped_nan`];
    /// returns `None` when no non-NaN value remains.
    pub fn from_accuracies(values: impl IntoIterator<Item = f64>) -> Option<Self> {
        let mut max = f64::MIN;
        let mut min = f64::MAX;
        let mut sum = 0.0;
        let mut count = 0usize;
        let mut skipped_nan = 0usize;
        for v in values {
            if v.is_nan() {
                skipped_nan += 1;
                continue;
            }
            max = max.max(v);
            min = min.min(v);
            sum += v;
            count += 1;
        }
        // Record counts stay far below 2^53, so the f64 mean is exact.
        #[allow(clippy::cast_precision_loss)]
        let average = sum / count as f64;
        (count > 0).then_some(Self {
            max,
            min,
            average,
            count,
            skipped_nan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_10_examples() {
        assert!((accuracy_pct(100.0, 100.0) - 100.0).abs() < 1e-12);
        assert!((accuracy_pct(100.0, 90.0) - 90.0).abs() < 1e-12);
        assert!((accuracy_pct(100.0, 110.0) - 90.0).abs() < 1e-12);
        assert!((accuracy_pct(100.0, 300.0) - 0.0).abs() < 1e-12); // clamped
    }

    #[test]
    fn zero_reference() {
        assert_eq!(accuracy_pct(0.0, 0.0), 100.0);
        assert_eq!(accuracy_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn summary_aggregates() {
        let records = [
            AccuracyRecord {
                metric: Metric::Latency,
                reference: 10.0,
                estimated: 9.0,
            },
            AccuracyRecord {
                metric: Metric::Latency,
                reference: 10.0,
                estimated: 10.0,
            },
            AccuracyRecord {
                metric: Metric::Latency,
                reference: 10.0,
                estimated: 8.0,
            },
        ];
        let s =
            AccuracySummary::from_accuracies(records.iter().map(AccuracyRecord::accuracy)).unwrap();
        assert!((s.max - 100.0).abs() < 1e-12);
        assert!((s.min - 80.0).abs() < 1e-12);
        assert!((s.average - 90.0).abs() < 1e-12);
        assert_eq!(s.count, 3);
    }

    #[test]
    fn empty_summary_is_none() {
        assert!(AccuracySummary::from_accuracies(std::iter::empty()).is_none());
    }

    #[test]
    fn nan_inputs_are_skipped_with_count() {
        // Regression: a single NaN used to corrupt the average (and leave
        // max/min whatever f64::max's NaN-dropping happened to produce)
        // while reporting a full count.
        let s = AccuracySummary::from_accuracies([90.0, f64::NAN, 80.0, f64::NAN]).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.skipped_nan, 2);
        assert!((s.max - 90.0).abs() < 1e-12);
        assert!((s.min - 80.0).abs() < 1e-12);
        assert!((s.average - 85.0).abs() < 1e-12);
        // All-NaN input aggregates nothing.
        assert!(AccuracySummary::from_accuracies([f64::NAN, f64::NAN]).is_none());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_reference_is_a_caller_bug() {
        // `assert!`, not `debug_assert!`: this must fire in release too.
        accuracy_pct(-1.0, 1.0);
    }
}
