//! Evaluation outputs: end-to-end metrics plus the fine-grained breakdowns
//! behind the paper's Use Case 2 (Figs. 6, 7, 9).
//!
//! Every discrete quantity in these records is a typed
//! [`quantity`](crate::quantity) newtype — [`Bytes`], [`Macs`],
//! [`Cycles`], [`Pes`] — so a traffic volume cannot silently add to a
//! cycle count anywhere downstream. Continuous measurements (seconds,
//! frames/s, fractions) stay `f64`: their unit is part of the field name
//! and they participate in genuinely mixed floating-point expressions.

use std::fmt;
use std::ops::Deref;

use crate::quantity::{Bytes, Cycles, Macs, Pes, Throughput};

/// Off-chip spill policy chosen for a layer by Eq. (6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillPolicy {
    /// Everything needed stays on-chip; weights stream once.
    #[default]
    None,
    /// OFMs don't fit: streamed out once; IFMs/weights read once.
    OutputSpill,
    /// Output-stationary, locally input-stationary: each IFM element
    /// loaded once, weights re-loaded per IFM-buffer pass.
    LocalInputStationary,
    /// Output-stationary, locally weight-stationary: each weight loaded
    /// once, IFMs re-loaded per weight-buffer pass.
    LocalWeightStationary,
    /// Depth-first fused group member: intermediate FMs between the
    /// group's layers stay in on-chip line buffers, so the layer pays no
    /// FM traffic except a possible IFM load at the group's entry (first
    /// layer) or OFM store at its exit (last layer).
    Fused,
}

impl fmt::Display for SpillPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::None => "on-chip",
            Self::OutputSpill => "OFM-spill",
            Self::LocalInputStationary => "OS-IS",
            Self::LocalWeightStationary => "OS-WS",
            Self::Fused => "fused",
        };
        f.write_str(s)
    }
}

/// Per-layer evaluation record.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Conv-layer index.
    pub layer: usize,
    /// CE that processed it.
    pub ce: usize,
    /// Eq. (1) compute cycles.
    pub compute_cycles: Cycles,
    /// Off-chip weight traffic (loads only; weights are never written
    /// back).
    pub weight_traffic: Bytes,
    /// Off-chip feature-map loads.
    pub fm_load_traffic: Bytes,
    /// Off-chip feature-map stores.
    pub fm_store_traffic: Bytes,
    /// Spill policy chosen by Eq. (6) (single-CE layers) or `None`.
    pub policy: SpillPolicy,
    /// PE utilization on this layer.
    pub utilization: f64,
}

impl LayerReport {
    /// Off-chip feature-map traffic (loads + stores).
    pub fn fm_traffic(&self) -> Bytes {
        self.fm_load_traffic + self.fm_store_traffic
    }

    /// Total off-chip traffic of the layer.
    pub fn traffic(&self) -> Bytes {
        self.weight_traffic + self.fm_traffic()
    }
}

/// Per-segment evaluation record (the unit of Figs. 6 and 9).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentReport {
    /// Segment index in execution order.
    pub index: usize,
    /// First conv-layer index (zero-based, inclusive).
    pub first: usize,
    /// Last conv-layer index (zero-based, inclusive).
    pub last: usize,
    /// CEs executing this segment.
    pub ces: Vec<usize>,
    /// Pure compute time (seconds), memory stalls excluded.
    pub compute_s: f64,
    /// Off-chip memory access time (seconds).
    pub memory_s: f64,
    /// Contribution to end-to-end latency (seconds): per-tile/per-layer
    /// `max(compute, memory)` accumulated.
    pub time_s: f64,
    /// Off-chip weight traffic.
    pub weight_traffic: Bytes,
    /// Off-chip feature-map traffic.
    pub fm_traffic: Bytes,
    /// On-chip buffer requirement attributed to this segment: its
    /// executor's Eq. (4)/(5) term plus its outgoing handoff buffer.
    pub buffer_req_bytes: Bytes,
    /// MAC-weighted PE utilization of the segment's engines over the
    /// segment's runtime.
    pub utilization: f64,
}

impl SegmentReport {
    /// Total off-chip traffic of the segment.
    pub fn traffic(&self) -> Bytes {
        self.weight_traffic + self.fm_traffic
    }

    /// PE underutilization (1 − utilization), the quantity of Fig. 9b.
    pub fn underutilization(&self) -> f64 {
        1.0 - self.utilization
    }

    /// Fraction of segment time spent stalled on memory.
    pub fn memory_stall_fraction(&self) -> f64 {
        if self.time_s <= 0.0 {
            0.0
        } else {
            ((self.time_s - self.compute_s) / self.time_s).max(0.0)
        }
    }
}

/// Per-engine evaluation record.
#[derive(Debug, Clone, PartialEq)]
pub struct CeReport {
    /// CE id.
    pub ce: usize,
    /// Allocated PEs.
    pub pes: Pes,
    /// Busy time over one inference (seconds).
    pub busy_s: f64,
    /// MAC-weighted utilization while busy.
    pub utilization: f64,
}

/// Complete evaluation of one accelerator design: the four paper metrics
/// plus fine-grained breakdowns.
///
/// The scalar metrics live in the embedded [`EvalSummary`] — the same
/// record the fast lane returns — and [`Deref`] exposes its fields and
/// methods directly (`eval.latency_s`, `eval.latency_ms()`).
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The scalar end-to-end metrics, exactly as
    /// `CostModel::recombine` composed them.
    pub summary: EvalSummary,
    /// CNN name.
    pub model_name: String,
    /// Board name.
    pub board_name: String,
    /// Per-segment breakdown.
    pub segments: Vec<SegmentReport>,
    /// Per-engine breakdown.
    pub ces: Vec<CeReport>,
    /// Per-layer breakdown.
    pub layers: Vec<LayerReport>,
}

/// A design's notation plus its scalar end-to-end metrics, without the
/// per-segment / per-engine / per-layer breakdown vectors: the fast
/// lane's output, and the `summary` field of the rich lane's
/// [`Evaluation`].
///
/// Big design-space sweeps accumulate one record per evaluated design;
/// carrying full [`Evaluation`]s means cloning (and keeping alive) three
/// heap vectors per design. A 100k-design sweep only needs the scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSummary {
    /// Accelerator notation (`{L1-L4: CE1, …}`) identifying the design.
    pub notation: String,
    /// Number of CEs.
    pub ce_count: usize,
    /// Total convolution MACs of the CNN per inference — the compute-side
    /// input of the energy model (identical for every design of the same
    /// CNN).
    pub total_macs: Macs,
    /// End-to-end single-input latency in seconds.
    pub latency_s: f64,
    /// Steady-state throughput in frames per second.
    pub throughput_fps: f64,
    /// On-chip buffer requirement to guarantee the design's minimum
    /// off-chip accesses (Eqs. 4/5/8) — may exceed the board's BRAM,
    /// exactly as in the paper's Fig. 8.
    pub buffer_req_bytes: Bytes,
    /// On-chip bytes actually granted by the builder's plan (≤ BRAM).
    pub buffer_alloc_bytes: Bytes,
    /// Off-chip traffic per inference (with the granted buffers).
    pub offchip_bytes: Bytes,
    /// Weight portion of `offchip_bytes`.
    pub offchip_weight_bytes: Bytes,
    /// Feature-map portion of `offchip_bytes`.
    pub offchip_fm_bytes: Bytes,
    /// Fraction of end-to-end time the engines stall on memory (§V-D's
    /// "29% of the overall execution time, CEs are idle").
    pub memory_stall_fraction: f64,
}

impl EvalSummary {
    /// Latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.latency_s * 1e3
    }

    /// Steady-state throughput as a typed rate.
    pub fn throughput(&self) -> Throughput {
        Throughput::new(self.throughput_fps)
    }

    /// Off-chip traffic in MiB.
    pub fn offchip_mib(&self) -> f64 {
        self.offchip_bytes.mib()
    }

    /// Buffer requirement in MiB.
    pub fn buffer_mib(&self) -> f64 {
        self.buffer_req_bytes.mib()
    }

    /// Latency of processing a batch of `batch` inputs: the first input's
    /// end-to-end latency plus one steady-state initiation interval per
    /// further input — the paper's second latency definition (§IV-A1),
    /// which it sets aside because batching is not always an option.
    pub fn batch_latency_s(&self, batch: usize) -> f64 {
        if batch == 0 {
            return 0.0;
        }
        let extra = to_f64_lossless(batch) - 1.0;
        self.latency_s + extra / self.throughput_fps.max(1e-12)
    }

    /// Amortized per-input latency at batch size `batch`.
    pub fn amortized_latency_s(&self, batch: usize) -> f64 {
        if batch == 0 {
            0.0
        } else {
            self.batch_latency_s(batch) / to_f64_lossless(batch)
        }
    }

    /// Weight share of off-chip traffic in `[0, 1]` (Fig. 7).
    pub fn weight_traffic_share(&self) -> f64 {
        if self.offchip_bytes.is_zero() {
            0.0
        } else {
            self.offchip_weight_bytes.as_f64() / self.offchip_bytes.as_f64()
        }
    }
}

impl fmt::Display for EvalSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} CEs]: latency {:.2} ms, {:.1} FPS, buffers {:.2} MiB, off-chip {:.1} MiB",
            self.notation,
            self.ce_count,
            self.latency_ms(),
            self.throughput_fps,
            self.buffer_mib(),
            self.offchip_mib()
        )
    }
}

impl Evaluation {
    /// The metrics-only view of this evaluation: a clone of its `summary`
    /// field.
    pub fn summary(&self) -> EvalSummary {
        self.summary.clone()
    }
}

impl Deref for Evaluation {
    type Target = EvalSummary;

    fn deref(&self) -> &EvalSummary {
        &self.summary
    }
}

/// Batch sizes as `f64` — batch counts are small (≤ 2⁵³), so this is
/// exact; centralized so the cast-lint allow has a single audited site.
#[allow(clippy::cast_precision_loss)]
fn to_f64_lossless(batch: usize) -> f64 {
    batch as f64
}

impl fmt::Display for Evaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {} [{} CEs]: latency {:.2} ms, {:.1} FPS, buffers {:.2} MiB, \
             off-chip {:.1} MiB",
            self.model_name,
            self.board_name,
            self.ce_count,
            self.latency_ms(),
            self.throughput_fps,
            self.buffer_mib(),
            self.offchip_mib()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_stub() -> Evaluation {
        Evaluation {
            summary: EvalSummary {
                notation: "{L1-Last: CE1}".into(),
                ce_count: 1,
                total_macs: Macs::new(1_000_000),
                latency_s: 0.010,
                throughput_fps: 100.0,
                buffer_req_bytes: Bytes::new(2 * 1024 * 1024),
                buffer_alloc_bytes: Bytes::new(1024 * 1024),
                offchip_bytes: Bytes::new(100),
                offchip_weight_bytes: Bytes::new(75),
                offchip_fm_bytes: Bytes::new(25),
                memory_stall_fraction: 0.1,
            },
            model_name: "m".into(),
            board_name: "b".into(),
            segments: vec![],
            ces: vec![],
            layers: vec![],
        }
    }

    #[test]
    fn unit_conversions() {
        let e = eval_stub();
        assert!((e.latency_ms() - 10.0).abs() < 1e-12);
        assert!((e.buffer_mib() - 2.0).abs() < 1e-12);
        assert!((e.weight_traffic_share() - 0.75).abs() < 1e-12);
        assert!((e.throughput().get() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn batch_latency_amortizes_toward_initiation_interval() {
        let e = eval_stub(); // 10 ms latency, 100 FPS -> II = 10 ms
        assert!((e.batch_latency_s(1) - 0.010).abs() < 1e-12);
        assert!((e.batch_latency_s(11) - 0.110).abs() < 1e-12);
        // Amortized latency approaches 1/throughput for large batches.
        assert!((e.amortized_latency_s(1000) - 0.01).abs() < 1e-4);
        assert_eq!(e.batch_latency_s(0), 0.0);
    }

    #[test]
    fn segment_derived_quantities() {
        let s = SegmentReport {
            index: 0,
            first: 0,
            last: 3,
            ces: vec![0],
            compute_s: 0.6,
            memory_s: 0.9,
            time_s: 1.0,
            weight_traffic: Bytes::new(10),
            fm_traffic: Bytes::new(30),
            buffer_req_bytes: Bytes::ZERO,
            utilization: 0.7,
        };
        assert_eq!(s.traffic(), Bytes::new(40));
        assert!((s.underutilization() - 0.3).abs() < 1e-12);
        assert!((s.memory_stall_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn layer_traffic_sums_typed_components() {
        let l = LayerReport {
            layer: 0,
            ce: 0,
            compute_cycles: Cycles::new(1000),
            weight_traffic: Bytes::new(7),
            fm_load_traffic: Bytes::new(5),
            fm_store_traffic: Bytes::new(3),
            policy: SpillPolicy::OutputSpill,
            utilization: 1.0,
        };
        assert_eq!(l.fm_traffic(), Bytes::new(8));
        assert_eq!(l.traffic(), Bytes::new(15));
    }

    #[test]
    fn display_contains_metrics() {
        let text = eval_stub().to_string();
        assert!(text.contains("100.0 FPS"));
        assert!(text.contains("10.00 ms"));
    }

    #[test]
    fn summary_keeps_scalars_and_drops_breakdowns() {
        let e = eval_stub();
        let s = e.summary();
        assert_eq!(s.notation, e.notation);
        assert_eq!(s.ce_count, e.ce_count);
        assert_eq!(s.buffer_req_bytes, e.buffer_req_bytes);
        assert!((s.latency_ms() - e.latency_ms()).abs() < 1e-12);
        assert!(s.to_string().contains("100.0 FPS"));
    }

    #[test]
    fn spill_policy_display() {
        assert_eq!(SpillPolicy::LocalWeightStationary.to_string(), "OS-WS");
        assert_eq!(SpillPolicy::default(), SpillPolicy::None);
    }
}
