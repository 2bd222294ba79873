//! The four evaluation metrics and their comparison semantics, including
//! Table V's 10%-tie rule — plus the energy extension ([`Metric::Energy`])
//! that makes whole-cost selection possible in big sweeps.

use std::fmt;

use crate::energy::EnergyModel;
use crate::report::EvalSummary;

/// Anything the four paper metrics can be read from. [`EvalSummary`] is
/// the one production record; an [`Evaluation`](crate::Evaluation)
/// passes its `summary` field.
pub trait MetricSource {
    /// Raw value of `metric` on this record.
    fn metric_value(&self, metric: Metric) -> f64;
}

impl MetricSource for EvalSummary {
    fn metric_value(&self, metric: Metric) -> f64 {
        match metric {
            Metric::Latency => self.latency_s,
            Metric::Throughput => self.throughput_fps,
            Metric::OnChipBuffers => self.buffer_req_bytes.as_f64(),
            Metric::OffChipAccesses => self.offchip_bytes.as_f64(),
            Metric::Energy => EnergyModel::default()
                .estimate_summary(self)
                .total_j()
                .get(),
        }
    }
}

/// A paper metric (Table I / Table V rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// End-to-end single-input latency (lower is better).
    Latency,
    /// Steady-state throughput (higher is better).
    Throughput,
    /// On-chip buffer requirement (lower is better).
    OnChipBuffers,
    /// Off-chip accesses per inference (lower is better).
    OffChipAccesses,
    /// Estimated energy per inference in joules under the default
    /// [`EnergyModel`] coefficients (lower is better) — the whole-cost
    /// extension beyond the paper's four metrics.
    Energy,
}

impl Metric {
    /// All four metrics in the paper's row order (Table V).
    pub const ALL: [Self; 4] = [
        Self::Latency,
        Self::Throughput,
        Self::OffChipAccesses,
        Self::OnChipBuffers,
    ];

    /// The paper's four metrics plus [`Metric::Energy`] — the objective
    /// set energy-aware sweeps and the guided optimizer rank on.
    pub const WITH_ENERGY: [Self; 5] = [
        Self::Latency,
        Self::Throughput,
        Self::OffChipAccesses,
        Self::OnChipBuffers,
        Self::Energy,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Latency => "Latency",
            Self::Throughput => "Throughput",
            Self::OnChipBuffers => "Buffers",
            Self::OffChipAccesses => "Access",
            Self::Energy => "Energy",
        }
    }

    /// Raw metric value from an evaluation or summary.
    pub fn value<S: MetricSource>(&self, e: &S) -> f64 {
        e.metric_value(*self)
    }

    /// Parses a metric from its (case-insensitive) CLI name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "latency" => Some(Self::Latency),
            "throughput" | "fps" => Some(Self::Throughput),
            "buffers" | "onchipbuffers" => Some(Self::OnChipBuffers),
            "access" | "accesses" | "offchipaccesses" => Some(Self::OffChipAccesses),
            "energy" => Some(Self::Energy),
            _ => None,
        }
    }

    /// Whether higher values are better.
    pub fn higher_is_better(&self) -> bool {
        matches!(self, Self::Throughput)
    }

    /// Whether `a` is strictly better than `b`.
    pub fn better(&self, a: f64, b: f64) -> bool {
        if self.higher_is_better() {
            a > b
        } else {
            a < b
        }
    }

    /// The best of `values` (the first one on exact ties); `None` when
    /// `values` is empty.
    pub fn best(&self, values: impl IntoIterator<Item = f64>) -> Option<f64> {
        values
            .into_iter()
            .reduce(|a, b| if self.better(b, a) { b } else { a })
    }

    /// Index of the best value in `values` (first on exact ties).
    pub fn best_index(&self, values: &[f64]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, &v) in values.iter().enumerate() {
            match best {
                None => best = Some(i),
                Some(b) if self.better(v, values[b]) => best = Some(i),
                _ => {}
            }
        }
        best
    }

    /// Whether `value` ties the best within `frac` relative difference —
    /// the paper treats results within 10% as a tie "to account for
    /// estimation errors" (Table V).
    pub fn within_tie(&self, value: f64, best: f64, frac: f64) -> bool {
        if best == 0.0 {
            return value == 0.0;
        }
        ((value - best) / best).abs() <= frac + 1e-9
    }

    /// Normalizes `values` to the best one (Table I's presentation): the
    /// best becomes 1.0, others ≥ 1.0 (or ≤ 1.0 for throughput).
    pub fn normalize_to_best(&self, values: &[f64]) -> Vec<f64> {
        match self.best_index(values) {
            Some(b) if values[b] != 0.0 => values.iter().map(|&v| v / values[b]).collect(),
            _ => values.to_vec(),
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_per_metric() {
        assert!(Metric::Latency.better(1.0, 2.0));
        assert!(Metric::Throughput.better(2.0, 1.0));
        assert!(Metric::OnChipBuffers.better(1.0, 2.0));
        assert!(Metric::OffChipAccesses.better(1.0, 2.0));
    }

    #[test]
    fn best_index_finds_extremum() {
        assert_eq!(Metric::Latency.best_index(&[3.0, 1.0, 2.0]), Some(1));
        assert_eq!(Metric::Throughput.best_index(&[3.0, 1.0, 2.0]), Some(0));
        assert_eq!(Metric::Latency.best_index(&[]), None);
        // First wins exact ties.
        assert_eq!(Metric::Latency.best_index(&[1.0, 1.0]), Some(0));
    }

    #[test]
    fn best_finds_extremum_and_keeps_the_first_tie() {
        assert_eq!(Metric::Latency.best([3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(Metric::Throughput.best([3.0, 1.0, 2.0]), Some(3.0));
        assert_eq!(Metric::Latency.best([]), None);
        // 0.0 and -0.0 compare equal, so the sign shows which one won.
        let first = Metric::Latency.best([0.0, -0.0]).unwrap();
        assert!(first.is_sign_positive());
    }

    #[test]
    fn ten_percent_tie_rule() {
        let m = Metric::Latency;
        assert!(m.within_tie(1.05, 1.0, 0.10));
        assert!(m.within_tie(1.10, 1.0, 0.10));
        assert!(!m.within_tie(1.11, 1.0, 0.10));
        let t = Metric::Throughput;
        assert!(t.within_tie(0.95, 1.0, 0.10));
        assert!(!t.within_tie(0.85, 1.0, 0.10));
    }

    #[test]
    fn normalization_like_table_i() {
        let v = Metric::OffChipAccesses.normalize_to_best(&[179.0, 199.0, 100.0]);
        assert!((v[2] - 1.0).abs() < 1e-12);
        assert!((v[0] - 1.79).abs() < 1e-12);
    }

    #[test]
    fn metric_names() {
        assert_eq!(Metric::OnChipBuffers.to_string(), "Buffers");
        assert_eq!(Metric::ALL.len(), 4);
        assert_eq!(Metric::WITH_ENERGY.len(), 5);
        assert_eq!(Metric::Energy.to_string(), "Energy");
        assert!(!Metric::Energy.higher_is_better());
        // WITH_ENERGY extends ALL in order.
        assert_eq!(&Metric::WITH_ENERGY[..4], &Metric::ALL[..]);
    }

    #[test]
    fn by_name_round_trips_and_rejects_unknowns() {
        for m in Metric::WITH_ENERGY {
            assert_eq!(Metric::by_name(m.name()), Some(m));
            assert_eq!(Metric::by_name(&m.name().to_ascii_uppercase()), Some(m));
        }
        assert_eq!(Metric::by_name("fps"), Some(Metric::Throughput));
        assert_eq!(Metric::by_name("accesses"), Some(Metric::OffChipAccesses));
        assert_eq!(Metric::by_name("power"), None);
        assert_eq!(Metric::by_name(""), None);
    }

    #[test]
    fn within_tie_zero_best_requires_exact_zero() {
        // A zero best makes the relative difference undefined; only an
        // exact zero ties it, for either metric direction.
        for m in [Metric::Latency, Metric::Throughput] {
            assert!(m.within_tie(0.0, 0.0, 0.10));
            assert!(!m.within_tie(1e-300, 0.0, 0.10));
            assert!(!m.within_tie(-1e-300, 0.0, 0.10));
        }
    }

    #[test]
    fn within_tie_boundary_absorbs_rounding_noise() {
        let m = Metric::Latency;
        // The +1e-9 slack admits values an ulp past the exact 10% edge...
        assert!(m.within_tie(1.1 + 1e-10, 1.0, 0.10));
        assert!(m.within_tie(1.0 + (0.10 + 1e-9), 1.0, 0.10));
        // ...but nothing materially beyond it.
        assert!(!m.within_tie(1.0 + (0.10 + 3e-9), 1.0, 0.10));
        // Direction-symmetric: throughput ties from below.
        let t = Metric::Throughput;
        assert!(t.within_tie(0.9 - 1e-10, 1.0, 0.10));
        assert!(!t.within_tie(0.9 - 3e-9, 1.0, 0.10));
    }

    #[test]
    fn normalize_to_best_zero_best_and_direction() {
        // A zero best would divide by zero: the values come back verbatim.
        let z = Metric::Latency.normalize_to_best(&[0.0, 2.0, 3.0]);
        assert_eq!(z, vec![0.0, 2.0, 3.0]);
        // Empty input stays empty.
        assert!(Metric::Latency.normalize_to_best(&[]).is_empty());
        // Throughput normalizes against its maximum: best = 1.0, rest ≤ 1.
        let t = Metric::Throughput.normalize_to_best(&[50.0, 100.0, 25.0]);
        assert!((t[1] - 1.0).abs() < 1e-12);
        assert!((t[0] - 0.5).abs() < 1e-12);
        assert!((t[2] - 0.25).abs() < 1e-12);
        // Lower-is-better metrics normalize against their minimum: rest ≥ 1.
        let l = Metric::Latency.normalize_to_best(&[4.0, 2.0, 8.0]);
        assert!((l[1] - 1.0).abs() < 1e-12);
        assert!((l[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn energy_metric_reads_identically_from_both_record_kinds() {
        use crate::quantity::{Bytes, Macs};
        use crate::report::Evaluation;
        let eval = Evaluation {
            summary: EvalSummary {
                notation: String::new(),
                ce_count: 2,
                total_macs: Macs::new(3_000_000_000),
                latency_s: 0.02,
                throughput_fps: 50.0,
                buffer_req_bytes: Bytes::new(1),
                buffer_alloc_bytes: Bytes::new(1),
                offchip_bytes: Bytes::new(40_000_000),
                offchip_weight_bytes: Bytes::ZERO,
                offchip_fm_bytes: Bytes::ZERO,
                memory_stall_fraction: 0.0,
            },
            model_name: String::new(),
            board_name: String::new(),
            segments: vec![],
            ces: vec![],
            layers: vec![],
        };
        let a = Metric::Energy.value(&eval.summary);
        assert!(a > 0.0 && a.is_finite());
        // The rich-lane energy estimate reads the same three scalars.
        let rich = EnergyModel::default()
            .estimate(&eval, eval.total_macs)
            .total_j();
        assert_eq!(a.to_bits(), rich.get().to_bits());
    }
}
