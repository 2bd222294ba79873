//! The fully built accelerator: the "generic multiple-CE accelerator
//! representation" fed into the analytical cost model (§III-B).

use std::sync::Arc;

use mccm_cnn::ConvInfo;
use mccm_fpga::{FpgaBoard, Precision};

use crate::builder::BufferPlan;
use crate::engine::ComputeEngine;
use crate::notation;
use crate::spec::{AcceleratorSpec, Segment};

/// A multiple-CE accelerator with all implementation details decided:
/// segments, engines (PEs + parallelism), and buffer plan. Produced by
/// [`MultipleCeBuilder`](crate::MultipleCeBuilder); consumed by the cost
/// model (`mccm-core`) and the reference simulator (`mccm-sim`).
///
/// The sweep-invariant inputs (layer records, board, model name) are
/// shared with the originating builder behind [`Arc`]s: a built design is
/// a borrowed view of its builder's context plus the per-design decisions
/// (spec, segments, engines, buffer plan). Cloning a `BuiltAccelerator`
/// — and building one — therefore never deep-copies the CNN or board.
#[derive(Debug, Clone)]
pub struct BuiltAccelerator {
    /// Name of the CNN this accelerator was built for (shared with the
    /// builder).
    pub model_name: Arc<str>,
    /// Per-conv-layer records of the CNN (in execution order; shared with
    /// the builder).
    pub convs: Arc<[ConvInfo]>,
    /// Target platform (shared with the builder).
    pub board: Arc<FpgaBoard>,
    /// Data-type widths.
    pub precision: Precision,
    /// The originating specification.
    pub spec: AcceleratorSpec,
    /// Execution segments in order.
    pub segments: Vec<Segment>,
    /// Configured engines, indexed by CE id.
    pub ces: Vec<ComputeEngine>,
    /// On-chip buffer plan.
    pub buffers: BufferPlan,
    /// Per-conv-layer off-chip weight compression ratio in `(0, 1]`
    /// (1.0 = uncompressed). Weights are stored compressed off-chip and
    /// decompressed on the fly into the (unchanged) on-chip buffers, so
    /// compression scales traffic and transfer time only — the selective
    /// optimization the paper's Use Case 2 guides (§V-D). Empty means all
    /// layers uncompressed.
    pub weight_compression: Vec<f64>,
}

impl BuiltAccelerator {
    /// Whether coarse-grained (whole-image) pipelining applies across
    /// distinct blocks.
    pub fn coarse_pipeline(&self) -> bool {
        self.spec.coarse_pipeline
    }

    /// Number of compute engines.
    pub fn ce_count(&self) -> usize {
        self.ces.len()
    }

    /// The paper-notation string for this accelerator.
    pub fn notation(&self) -> String {
        notation::format(&self.spec)
    }

    /// Off-chip weight bytes of a conv layer (compression applied).
    pub fn weight_bytes(&self, layer: usize) -> u64 {
        let raw = self.precision.weight_size(self.convs[layer].weights);
        match self.weight_compression.get(layer) {
            // The compressed size is `ceil(raw × ratio)` with ratio in
            // (0, 1]: non-negative and no larger than `raw`, so the round
            // trip through f64 is lossless for any realistic layer.
            #[allow(clippy::cast_precision_loss)]
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some(&ratio) if ratio < 1.0 => (raw as f64 * ratio).ceil() as u64,
            _ => raw,
        }
    }

    /// On-chip (decompressed) weight bytes of a conv layer — the size its
    /// buffer must hold regardless of off-chip compression.
    pub fn weight_buffer_bytes(&self, layer: usize) -> u64 {
        self.precision.weight_size(self.convs[layer].weights)
    }

    /// Returns a copy with the given layers' off-chip weights compressed
    /// by `ratio` (compressed size = `ratio ×` raw size).
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not in `(0, 1]` or a layer index is out of
    /// range.
    #[must_use]
    pub fn with_weight_compression(mut self, layers: &[usize], ratio: f64) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "ratio must be in (0, 1], got {ratio}"
        );
        if self.weight_compression.is_empty() {
            self.weight_compression = vec![1.0; self.convs.len()];
        }
        for &l in layers {
            self.weight_compression[l] = ratio;
        }
        self
    }

    /// IFM bytes of a conv layer.
    pub fn ifm_bytes(&self, layer: usize) -> u64 {
        self.precision
            .activation_size(self.convs[layer].ifm.elements())
    }

    /// OFM bytes of a conv layer.
    pub fn ofm_bytes(&self, layer: usize) -> u64 {
        self.precision
            .activation_size(self.convs[layer].ofm.elements())
    }

    /// Total off-chip weight bytes of the CNN (the minimum off-chip weight
    /// traffic; compression applied).
    pub fn total_weight_bytes(&self) -> u64 {
        (0..self.convs.len()).map(|l| self.weight_bytes(l)).sum()
    }
}
