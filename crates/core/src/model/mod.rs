//! MCCM: bottom-up composition of the block models into full-accelerator
//! estimates (§IV-B).
//!
//! Per segment, the single-CE or pipelined-CEs block model produces a time
//! contribution and traffic; segments compose as follows:
//!
//! * **Latency** = Σ segment times (handoff loads/stores are already
//!   charged inside the boundary segments' layer/stage models).
//! * **Throughput** with coarse (whole-image) pipelining = 1 / the largest
//!   *block occupancy*: a block's occupancy is the sum of its segments'
//!   times, except a single-round pipelined block whose occupancy is its
//!   bottleneck CE's busy time (Eq. 3) — consecutive images overlap inside
//!   the pipeline. Without coarse pipelining, throughput = 1 / latency.
//! * **Buffers** (requirement, Eqs. 4/5/8) = Σ per-CE ideals + distinct-
//!   block handoff buffers; round-robin handoffs stream off-chip by design
//!   and add no requirement.
//! * **Accesses** = Σ segment traffic (Eqs. 6/7/9), including the model
//!   input load and output store.
//!
//! # One composition path, two outputs
//!
//! Every evaluation runs each segment through its block-model core into a
//! [`SegmentCost`], then composes the design with [`CostModel::recombine`].
//! [`CostModel::evaluate_summary`] (and `evaluate_summary_with`) stops
//! there: the scalar [`EvalSummary`] for design-space sweeps, reusing the
//! caller's [`EvalScratch`] so the steady state allocates nothing beyond
//! the summary's notation string. [`CostModel::evaluate`] (and
//! `evaluate_with`) additionally records the cores' per-layer steps and
//! returns an [`Evaluation`] that *holds* the same summary next to the
//! per-segment, per-engine and per-layer breakdowns — the right output
//! for bottleneck analysis (Use Case 2). The summary lane is therefore
//! bit-identical to `evaluate(...).summary` by construction.

pub(crate) mod pipeline;
pub(crate) mod single_ce;

use mccm_arch::{BuiltAccelerator, CeRole, Executor};

use crate::config::ModelConfig;
use crate::quantity::{Bandwidth, Bytes, Cycles, Macs, Pes};
use crate::report::{CeReport, EvalSummary, Evaluation, SegmentReport};
use pipeline::{eval_pipelined_round, PipeScratch};
use single_ce::{eval_single_ce, BlockTotals, LayerStep};

/// The analytical cost model. Stateless: all inputs live in the
/// [`BuiltAccelerator`].
///
/// # Examples
///
/// ```
/// use mccm_arch::{templates, MultipleCeBuilder};
/// use mccm_cnn::zoo;
/// use mccm_core::{CostModel, EvalScratch};
/// use mccm_fpga::FpgaBoard;
///
/// # fn main() -> Result<(), mccm_arch::ArchError> {
/// let model = zoo::resnet50();
/// let board = FpgaBoard::zc706();
/// let builder = MultipleCeBuilder::new(&model, &board);
/// let acc = builder.build(&templates::segmented(&model, 4)?)?;
/// let eval = CostModel::evaluate(&acc);
/// assert!(eval.throughput_fps > 0.0);
/// assert!(eval.latency_s > 0.0);
///
/// // The sweep-friendly fast lane produces the identical summary.
/// let mut scratch = EvalScratch::new();
/// assert_eq!(CostModel::evaluate_summary(&acc, &mut scratch), eval.summary);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel;

/// Reusable scratch buffers for the summary fast lane
/// ([`CostModel::evaluate_summary`]).
///
/// Holds the pipelined-block work arrays, the dense block-occupancy table
/// of [`CostModel::recombine`] and the per-segment cost staging. Create
/// one per sweep worker and pass it to every evaluation: after the first
/// few designs the buffers reach steady-state capacity and the fast lane
/// stops allocating entirely (the returned summary's notation string is
/// the only remaining allocation).
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Dense per-block occupancy accumulators, one per distinct executor
    /// CE set. Executor CE sets are always contiguous ranges, so
    /// `(first_ce, len)` identifies a block exactly.
    blocks: Vec<BlockSlot>,
    /// Pipelined-block per-layer work arrays.
    pipe: PipeScratch,
    /// Per-segment cost staging for [`CostModel::evaluate_summary_with`]
    /// (taken out of the scratch while the slice is recombined).
    costs: Vec<SegmentCost>,
}

#[derive(Debug, Clone, Copy)]
struct BlockSlot {
    first_ce: usize,
    len: usize,
    occupancy: Cycles,
    segments: usize,
    max_busy: Cycles,
    pipelined: bool,
}

impl EvalScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The cost of **one segment** — a contiguous run of layers on one
/// executor — as produced by the block-model cores, independent of every
/// other segment of the design.
///
/// A design's [`EvalSummary`] is a pure composition of its segments'
/// `SegmentCost`s plus the design-level [`DesignCoupling`] terms
/// ([`CostModel::recombine`]). The value is `Copy` and depends only on
/// the segment's layer range, executor shape (PEs, role, schedule), the
/// granted buffer bytes, and the in/out boundary placement — which is
/// what makes it cacheable across designs that share a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentCost {
    /// First CE of the executing block (CE ids are contiguous).
    pub first_ce: usize,
    /// CEs in the executing block (`1` for a single-CE segment).
    pub ce_len: usize,
    /// Whether the block carries pipelined-role CEs (drives the
    /// single-round initiation-interval rule, Eq. 3).
    pub pipelined: bool,
    /// The segment's wall time contribution to latency.
    pub time_cycles: Cycles,
    /// The compute-only portion of that time.
    pub compute_cycles: Cycles,
    /// Off-chip weight traffic the segment generates.
    pub weight_traffic: Bytes,
    /// Off-chip feature-map traffic the segment generates.
    pub fm_traffic: Bytes,
    /// The busiest CE's busy time within the segment's round.
    pub max_busy_cycles: Cycles,
}

/// The design-level coupling terms [`CostModel::recombine`] applies to a
/// slice of [`SegmentCost`]s: everything in an [`EvalSummary`] that is
/// *not* a per-segment quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignCoupling {
    /// The design's notation string.
    pub notation: String,
    /// Compute engines in the design.
    pub ce_count: usize,
    /// Total convolution MACs of the CNN.
    pub total_macs: Macs,
    /// Whether segments overlap across images (coarse pipelining).
    pub coarse_pipeline: bool,
    /// Board cycle time in seconds.
    pub cycle_time_s: f64,
    /// Derated off-chip bandwidth (shared-channel throughput bound).
    pub bandwidth: Bandwidth,
    /// Σ per-CE ideals + distinct-block handoffs (Eqs. 4/5/8).
    pub buffer_req_bytes: Bytes,
    /// Total granted on-chip buffer bytes.
    pub buffer_alloc_bytes: Bytes,
}

impl CostModel {
    /// Evaluates a built accelerator: latency, throughput, buffer
    /// requirement, off-chip accesses, and fine-grained breakdowns.
    pub fn evaluate(acc: &BuiltAccelerator) -> Evaluation {
        Self::evaluate_with(acc, &ModelConfig::default())
    }

    /// Evaluates under a non-default configuration (ablation modes,
    /// bandwidth derating).
    ///
    /// The evaluation's `summary` is [`Self::recombine`]'s output over the
    /// segments' [`SegmentCost`]s, exactly as on the summary lane; this
    /// function only records the cores' per-layer steps and adds the
    /// per-segment, per-engine and per-layer breakdowns.
    pub fn evaluate_with(acc: &BuiltAccelerator, config: &ModelConfig) -> Evaluation {
        let cyc = acc.board.cycle_time_s();
        let mut scratch = EvalScratch::new();
        let mut costs = Vec::with_capacity(acc.segments.len());
        let mut segments = Vec::with_capacity(acc.segments.len());
        let mut layers = Vec::with_capacity(acc.convs.len());
        let mut busy_cycles = vec![Cycles::ZERO; acc.ces.len()];
        let mut ce_macs = vec![Macs::ZERO; acc.ces.len()];

        for seg in &acc.segments {
            let (cost, totals) = run_segment(acc, seg.index, config, &mut scratch.pipe, |step| {
                busy_cycles[step.ce] += step.busy_cycles;
                ce_macs[step.ce] += Macs::new(acc.convs[step.layer].macs);
                layers.push(step.report(acc));
            });
            let ces = seg.executor.ces();
            let block_pes: Pes = ces.iter().map(|&c| Pes::new(acc.ces[c].pes)).sum();
            let utilization = if cost.time_cycles.is_zero() {
                0.0
            } else {
                totals.useful_macs.as_f64() / (block_pes.as_f64() * cost.time_cycles.as_f64())
            };
            segments.push(SegmentReport {
                index: seg.index,
                first: seg.first,
                last: seg.last,
                ces,
                compute_s: cost.compute_cycles.to_seconds(cyc),
                memory_s: totals.memory_cycles.to_seconds(cyc),
                time_s: cost.time_cycles.to_seconds(cyc),
                weight_traffic: cost.weight_traffic,
                fm_traffic: cost.fm_traffic,
                buffer_req_bytes: segment_buffer_req(acc, seg.index),
                utilization,
            });
            costs.push(cost);
        }

        let ces = acc
            .ces
            .iter()
            .map(|ce| {
                let busy = busy_cycles[ce.id];
                CeReport {
                    ce: ce.id,
                    pes: Pes::new(ce.pes),
                    busy_s: busy.to_seconds(cyc),
                    utilization: if busy.is_zero() {
                        0.0
                    } else {
                        ce_macs[ce.id].as_f64() / (busy.as_f64() * f64::from(ce.pes))
                    },
                }
            })
            .collect();

        let summary = Self::recombine(Self::design_coupling(acc, config), &costs, &mut scratch);
        Evaluation {
            summary,
            model_name: acc.model_name.to_string(),
            board_name: acc.board.name.clone(),
            segments,
            ces,
            layers,
        }
    }

    /// Summary-only fast lane: the design's [`EvalSummary`] without any
    /// per-segment/per-engine/per-layer report construction, reusing the
    /// caller's scratch buffers across calls.
    ///
    /// Bit-identical to `evaluate(acc).summary` — both lanes compose
    /// through [`Self::recombine`] — but roughly an order of magnitude
    /// cheaper per design, which is what large sweeps pay per candidate.
    pub fn evaluate_summary(acc: &BuiltAccelerator, scratch: &mut EvalScratch) -> EvalSummary {
        Self::evaluate_summary_with(acc, &ModelConfig::default(), scratch)
    }

    /// [`Self::evaluate_summary`] under a non-default configuration;
    /// bit-identical to `evaluate_with(acc, config).summary`.
    ///
    /// The fast lane is an explicit decomposition: each segment's
    /// [`SegmentCost`] is computed by the shared block-model cores, then
    /// [`Self::recombine`] applies the design-level [`DesignCoupling`]
    /// terms. Incremental evaluators reuse exactly this split, swapping
    /// cached `SegmentCost`s in for the fresh ones.
    pub fn evaluate_summary_with(
        acc: &BuiltAccelerator,
        config: &ModelConfig,
        scratch: &mut EvalScratch,
    ) -> EvalSummary {
        let mut costs = std::mem::take(&mut scratch.costs);
        costs.clear();
        for index in 0..acc.segments.len() {
            costs.push(Self::segment_cost(acc, index, config, scratch));
        }
        let summary = Self::recombine(Self::design_coupling(acc, config), &costs, scratch);
        scratch.costs = costs;
        summary
    }

    /// The [`SegmentCost`] of segment `index` of a built accelerator,
    /// through the same block-model cores both evaluation lanes run.
    pub fn segment_cost(
        acc: &BuiltAccelerator,
        index: usize,
        config: &ModelConfig,
        scratch: &mut EvalScratch,
    ) -> SegmentCost {
        run_segment(acc, index, config, &mut scratch.pipe, |_| {}).0
    }

    /// The design-level [`DesignCoupling`] terms of a built accelerator —
    /// the non-segment half of the decomposition behind
    /// [`Self::evaluate_summary_with`].
    pub fn design_coupling(acc: &BuiltAccelerator, config: &ModelConfig) -> DesignCoupling {
        DesignCoupling {
            notation: acc.notation(),
            ce_count: acc.ce_count(),
            total_macs: total_macs(acc),
            coarse_pipeline: acc.coarse_pipeline(),
            cycle_time_s: acc.board.cycle_time_s(),
            bandwidth: Bandwidth::new(acc.board.bytes_per_cycle() * config.bandwidth_derate),
            buffer_req_bytes: buffer_requirement(acc),
            buffer_alloc_bytes: Bytes::new(acc.buffers.total_bytes()),
        }
    }

    /// Recombines per-segment costs under the design-level coupling terms
    /// into the design's [`EvalSummary`].
    ///
    /// **Invariant (delta ≡ full ≡ rich):** for any built accelerator,
    /// `recombine(design_coupling(acc, cfg), &costs, scratch)` over the
    /// freshly computed `costs[i] = segment_cost(acc, i, cfg, scratch)`
    /// is bit-identical to `evaluate_summary_with(acc, cfg, scratch)` and
    /// to the summary fields of the rich lane, which composes through this
    /// same function. Enforced by `tests/fastlane_equivalence.rs`.
    pub fn recombine(
        coupling: DesignCoupling,
        costs: &[SegmentCost],
        scratch: &mut EvalScratch,
    ) -> EvalSummary {
        let mut latency_cycles = Cycles::ZERO;
        let mut compute_cycles_total = Cycles::ZERO;
        let mut total_w = Bytes::ZERO;
        let mut total_fm = Bytes::ZERO;
        scratch.blocks.clear();

        for cost in costs {
            // Dense occupancy accumulation: executor CE sets are contiguous
            // ranges, so (first_ce, len) identifies a block exactly.
            let slot = match scratch
                .blocks
                .iter_mut()
                .find(|b| b.first_ce == cost.first_ce && b.len == cost.ce_len)
            {
                Some(slot) => slot,
                None => {
                    scratch.blocks.push(BlockSlot {
                        first_ce: cost.first_ce,
                        len: cost.ce_len,
                        occupancy: Cycles::ZERO,
                        segments: 0,
                        max_busy: Cycles::ZERO,
                        pipelined: false,
                    });
                    scratch.blocks.last_mut().expect("just pushed")
                }
            };
            slot.occupancy += cost.time_cycles;
            slot.segments += 1;
            slot.max_busy = slot.max_busy.max(cost.max_busy_cycles);
            slot.pipelined |= cost.pipelined;

            latency_cycles += cost.time_cycles;
            compute_cycles_total += cost.compute_cycles;
            total_w += cost.weight_traffic;
            total_fm += cost.fm_traffic;
        }

        // Throughput (§IV-B1): 1 / the largest block occupancy, bounded
        // by the shared off-chip channel.
        let bottleneck_cycles = if coupling.coarse_pipeline {
            let block_bound = scratch
                .blocks
                .iter()
                .map(|b| {
                    // A single-segment pipelined block overlaps consecutive
                    // images: its initiation interval is its bottleneck CE
                    // busy time (Eq. 3), not the stage sum.
                    if b.segments == 1 && b.pipelined {
                        b.max_busy.max(Cycles::new(1))
                    } else {
                        b.occupancy
                    }
                })
                .max()
                .unwrap_or(latency_cycles);
            let mem_bound = coupling.bandwidth.cycles_for(total_w + total_fm);
            block_bound.max(mem_bound)
        } else {
            latency_cycles
        };

        let cyc = coupling.cycle_time_s;
        let latency_s = latency_cycles.to_seconds(cyc);
        let throughput_fps = if bottleneck_cycles.is_zero() {
            0.0
        } else {
            1.0 / bottleneck_cycles.to_seconds(cyc)
        };

        let memory_stall_fraction = if latency_cycles.is_zero() {
            0.0
        } else {
            (latency_cycles - compute_cycles_total.min(latency_cycles)).as_f64()
                / latency_cycles.as_f64()
        };

        EvalSummary {
            notation: coupling.notation,
            ce_count: coupling.ce_count,
            total_macs: coupling.total_macs,
            latency_s,
            throughput_fps,
            buffer_req_bytes: coupling.buffer_req_bytes,
            buffer_alloc_bytes: coupling.buffer_alloc_bytes,
            offchip_bytes: total_w + total_fm,
            offchip_weight_bytes: total_w,
            offchip_fm_bytes: total_fm,
            memory_stall_fraction,
        }
    }

    /// The deterministic minimum off-chip traffic for this accelerator's
    /// CNN: every weight once plus the model input and output (§IV-A2).
    pub fn minimum_offchip_bytes(acc: &BuiltAccelerator) -> Bytes {
        let n = acc.convs.len();
        Bytes::new(acc.total_weight_bytes() + acc.ifm_bytes(0) + acc.ofm_bytes(n - 1))
    }
}

/// Runs segment `index` through its block-model core: the per-segment
/// dispatch both lanes share. Computes the in/out off-chip boundary flags,
/// dispatches on the executor and returns the segment's [`SegmentCost`]
/// plus the core's [`BlockTotals`] (which also carry the memory cycles
/// and useful MACs the rich lane reports). `on_layer` receives every
/// layer's [`LayerStep`].
fn run_segment(
    acc: &BuiltAccelerator,
    index: usize,
    config: &ModelConfig,
    pipe: &mut PipeScratch,
    on_layer: impl FnMut(LayerStep),
) -> (SegmentCost, BlockTotals) {
    let bw = Bandwidth::new(acc.board.bytes_per_cycle() * config.bandwidth_derate);
    let seg = &acc.segments[index];
    let input_off = index == 0 || !acc.buffers.inter_segment[index - 1].on_chip;
    let output_off = index + 1 == acc.segments.len() || !acc.buffers.inter_segment[index].on_chip;

    let (first_ce, ce_len, totals) = match &seg.executor {
        Executor::SingleCe(ce) => (
            *ce,
            1,
            eval_single_ce(
                acc,
                *ce,
                seg.schedule,
                seg.first,
                seg.last,
                input_off,
                output_off,
                bw,
                on_layer,
            ),
        ),
        Executor::PipelinedCes(ces) => (
            ces[0],
            ces.len(),
            eval_pipelined_round(
                acc,
                ces,
                seg.first,
                seg.last,
                input_off,
                output_off,
                bw,
                config.pipeline_latency,
                pipe,
                on_layer,
            ),
        ),
    };
    let pipelined = acc.ces[first_ce..first_ce + ce_len]
        .iter()
        .any(|ce| ce.role == CeRole::Pipelined);
    let cost = SegmentCost {
        first_ce,
        ce_len,
        pipelined,
        time_cycles: totals.time_cycles,
        compute_cycles: totals.compute_cycles,
        weight_traffic: totals.weight_traffic,
        fm_traffic: totals.fm_traffic,
        max_busy_cycles: totals.max_busy_cycles,
    };
    (cost, totals)
}

/// Total convolution MACs of the accelerator's CNN — the compute-side
/// energy input every summary carries (identical to
/// `CnnModel::conv_macs` of the originating model).
fn total_macs(acc: &BuiltAccelerator) -> Macs {
    acc.convs.iter().map(|c| Macs::new(c.macs)).sum()
}

/// On-chip buffer requirement guaranteeing the design's minimum accesses:
/// Σ per-CE ideals (Eq. 4 / Eq. 5) plus distinct-block handoff buffers
/// (Eq. 8). Round-robin (same-block) handoffs stream off-chip by design.
fn buffer_requirement(acc: &BuiltAccelerator) -> Bytes {
    let ce_sum: Bytes = acc
        .buffers
        .ce
        .iter()
        .map(|a| Bytes::new(a.ideal_bytes))
        .sum();
    let handoffs: Bytes = acc
        .buffers
        .inter_segment
        .iter()
        .filter(|b| !b.same_block)
        .map(|b| Bytes::new(b.bytes_needed))
        .sum();
    ce_sum + handoffs
}

/// Buffer requirement attributed to one segment (Fig. 9a): its layers'
/// weight-residency share plus its engines' tile/FM buffers (shared CE
/// buffers split evenly across the CE's segments) and its outgoing
/// handoff.
fn segment_buffer_req(acc: &BuiltAccelerator, index: usize) -> Bytes {
    let seg = &acc.segments[index];
    let mut req = Bytes::ZERO;
    match &seg.executor {
        Executor::SingleCe(ce) => {
            let segments_of_ce = acc
                .segments
                .iter()
                .filter(|s| matches!(&s.executor, Executor::SingleCe(c) if c == ce))
                .count() as u64;
            req += Bytes::new(acc.buffers.ce[*ce].ideal_bytes) / segments_of_ce.max(1);
        }
        Executor::PipelinedCes(ces) => {
            for (offset, &ce) in ces.iter().enumerate() {
                let rounds = acc.ces[ce].layers.len() as u64;
                req += Bytes::new(acc.buffers.ce[ce].fm_tile_bytes) / rounds.max(1);
                req += Bytes::new(acc.weight_bytes(seg.first + offset));
            }
        }
    }
    if let Some(b) = acc.buffers.inter_segment.get(index) {
        if !b.same_block {
            req += Bytes::new(b.bytes_needed);
        }
    }
    req
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccm_arch::{templates, MultipleCeBuilder};
    use mccm_cnn::zoo;
    use mccm_fpga::FpgaBoard;

    fn eval(
        model: &mccm_cnn::CnnModel,
        board: &FpgaBoard,
        arch: templates::Architecture,
        k: usize,
    ) -> Evaluation {
        let spec = arch.instantiate(model, k).unwrap();
        let acc = MultipleCeBuilder::new(model, board).build(&spec).unwrap();
        CostModel::evaluate(&acc)
    }

    #[test]
    fn all_architectures_produce_sane_metrics() {
        let m = zoo::resnet50();
        let board = FpgaBoard::vcu108();
        for arch in templates::Architecture::ALL {
            for k in [2, 5, 11] {
                let e = eval(&m, &board, arch, k);
                assert!(e.latency_s > 0.0, "{arch} {k}");
                assert!(e.throughput_fps > 0.0, "{arch} {k}");
                assert!(!e.buffer_req_bytes.is_zero(), "{arch} {k}");
                assert!(
                    e.offchip_bytes
                        >= CostModel::minimum_offchip_bytes(
                            &MultipleCeBuilder::new(&m, &board)
                                .build(&arch.instantiate(&m, k).unwrap())
                                .unwrap()
                        ),
                    "{arch} {k}: accesses below deterministic minimum"
                );
                // Throughput can't beat the compute bound by more than the
                // pipelining overlap allows; sanity: fps < 10000.
                assert!(e.throughput_fps < 10_000.0, "{arch} {k}");
                // Coarse pipelining: throughput >= 1/latency.
                assert!(
                    e.throughput_fps * e.latency_s >= 0.999,
                    "{arch} {k}: throughput below 1/latency"
                );
            }
        }
    }

    #[test]
    fn fast_lane_matches_rich_lane_exactly() {
        // The core equivalence invariant: evaluate_summary must be
        // bit-identical to evaluate().summary with one scratch reused
        // across every design (warm-buffer path included).
        let mut scratch = EvalScratch::new();
        for m in [zoo::resnet50(), zoo::mobilenet_v2(), zoo::xception()] {
            let board = FpgaBoard::zcu102();
            let builder = MultipleCeBuilder::new(&m, &board);
            for arch in templates::Architecture::ALL {
                for k in [2usize, 5, 11] {
                    let acc = builder.build(&arch.instantiate(&m, k).unwrap()).unwrap();
                    let rich = CostModel::evaluate(&acc).summary;
                    let fast = CostModel::evaluate_summary(&acc, &mut scratch);
                    assert_eq!(fast, rich, "{} {arch} {k}", m.name());
                }
            }
        }
    }

    #[test]
    fn fast_lane_matches_rich_lane_under_ablation_configs() {
        use crate::config::PipelineLatencyMode;
        let m = zoo::resnet50();
        let builder = MultipleCeBuilder::new(&m, &FpgaBoard::zc706());
        let mut scratch = EvalScratch::new();
        for config in [
            ModelConfig::default(),
            ModelConfig::new().with_pipeline_latency(PipelineLatencyMode::LockstepStages),
            ModelConfig::new().with_bandwidth_derate(0.6),
        ] {
            for arch in templates::Architecture::ALL {
                let acc = builder.build(&arch.instantiate(&m, 5).unwrap()).unwrap();
                let rich = CostModel::evaluate_with(&acc, &config).summary;
                let fast = CostModel::evaluate_summary_with(&acc, &config, &mut scratch);
                assert_eq!(fast, rich, "{arch} {config:?}");
            }
        }
    }

    #[test]
    fn coarse_pipeline_throughput_exceeds_inverse_latency() {
        let m = zoo::resnet50();
        let e = eval(
            &m,
            &FpgaBoard::zcu102(),
            templates::Architecture::Segmented,
            4,
        );
        // Four balanced coarse-pipelined segments: throughput should be
        // well above 1/latency (ideally ~4x).
        assert!(e.throughput_fps * e.latency_s > 1.5);
    }

    #[test]
    fn segmented_rr_throughput_is_inverse_latency() {
        let m = zoo::resnet50();
        let e = eval(
            &m,
            &FpgaBoard::zcu102(),
            templates::Architecture::SegmentedRr,
            4,
        );
        assert!((e.throughput_fps * e.latency_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn segment_reports_cover_all_layers() {
        let m = zoo::xception();
        let e = eval(
            &m,
            &FpgaBoard::vcu110(),
            templates::Architecture::SegmentedRr,
            3,
        );
        let total: usize = e.segments.iter().map(|s| s.last - s.first + 1).sum();
        assert_eq!(total, 74);
        assert_eq!(e.layers.len(), 74);
        assert_eq!(e.segments.len(), 25); // ceil(74/3)
    }

    #[test]
    fn traffic_split_sums() {
        let m = zoo::mobilenet_v2();
        let e = eval(&m, &FpgaBoard::zc706(), templates::Architecture::Hybrid, 5);
        assert_eq!(e.offchip_bytes, e.offchip_weight_bytes + e.offchip_fm_bytes);
        let seg_sum: Bytes = e.segments.iter().map(|s| s.traffic()).sum();
        assert_eq!(seg_sum, e.offchip_bytes);
    }

    #[test]
    fn throughput_fps_in_plausible_range() {
        // ResNet-50 on ZC706 @200 MHz: paper's Fig. 5 spans ~10-30 FPS.
        let m = zoo::resnet50();
        let mut best = 0.0f64;
        for arch in templates::Architecture::ALL {
            for k in 2..=11 {
                let e = eval(&m, &FpgaBoard::zc706(), arch, k);
                best = best.max(e.throughput_fps);
                assert!(
                    e.throughput_fps > 1.0 && e.throughput_fps < 200.0,
                    "{arch} {k}: {} FPS",
                    e.throughput_fps
                );
            }
        }
        assert!(best > 8.0, "best throughput {best} FPS too low");
    }

    #[test]
    fn hybrid_minimizes_offchip_accesses() {
        // Paper §V-C: Hybrid always achieves the minimum off-chip accesses
        // (its design objective). With generous per-CE weight buffers its
        // traffic should sit at/near the deterministic minimum on a large
        // board.
        let m = zoo::resnet50();
        let board = FpgaBoard::zcu102();
        let spec = templates::hybrid(&m, 4).unwrap();
        let acc = MultipleCeBuilder::new(&m, &board).build(&spec).unwrap();
        let e = CostModel::evaluate(&acc);
        let min = CostModel::minimum_offchip_bytes(&acc);
        assert!(
            e.offchip_bytes.as_f64() < 1.6 * min.as_f64(),
            "hybrid traffic {} vs min {min}",
            e.offchip_bytes
        );
    }

    #[test]
    fn segmented_rr_buffer_requirement_dominated_by_weights() {
        // Eq. 5: pipelined blocks require all weights on-chip; for
        // ResNet-50 that is ~22.4 MiB of 8-bit weights.
        let m = zoo::resnet50();
        let e = eval(
            &m,
            &FpgaBoard::zcu102(),
            templates::Architecture::SegmentedRr,
            4,
        );
        let w = Bytes::new(m.conv_weights());
        assert!(e.buffer_req_bytes.as_f64() > 0.95 * w.as_f64());
    }

    #[test]
    fn memory_stall_fraction_bounded() {
        let m = zoo::resnet50();
        for arch in templates::Architecture::ALL {
            let e = eval(&m, &FpgaBoard::zc706(), arch, 2);
            assert!((0.0..=1.0).contains(&e.memory_stall_fraction), "{arch}");
        }
    }

    #[test]
    fn more_pes_never_hurt_single_ce_compute() {
        let m = zoo::resnet50();
        let spec = templates::segmented_rr(&m, 2).unwrap();
        let small = MultipleCeBuilder::new(&m, &FpgaBoard::vcu108())
            .build(&spec)
            .unwrap();
        let big = MultipleCeBuilder::new(&m, &FpgaBoard::zcu102())
            .build(&spec)
            .unwrap();
        let es = CostModel::evaluate(&small);
        let eb = CostModel::evaluate(&big);
        // 2520 DSPs vs 768 DSPs: more compute resources must not slow the
        // compute-bound part down.
        let cs: f64 = es.segments.iter().map(|s| s.compute_s).sum();
        let cb: f64 = eb.segments.iter().map(|s| s.compute_s).sum();
        assert!(cb <= cs * 1.01, "compute time grew with PEs: {cb} vs {cs}");
    }
}
