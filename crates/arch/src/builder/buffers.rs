//! On-chip buffer distribution (the Multiple-CE Builder's "PE & Buffer
//! Distribution" stage, §III-A).
//!
//! The planner computes, per CE, the *minimum* buffering the design needs
//! to function (double-buffered row tiles and a weight stream buffer) and
//! the *ideal* buffering that guarantees the paper's minimum off-chip
//! accesses (Eq. 4 for single-CE blocks, Eq. 5 for pipelined blocks), plus
//! the inter-segment buffers of Eq. 8. When the board's BRAM cannot hold
//! the ideal, capacity is granted in a fixed priority order reflecting the
//! traffic saved per buffer byte:
//!
//! 1. mandatory tile minimums for every CE;
//! 2. per-round weight residency for pipelined CEs (avoids re-streaming
//!    weights on every pipeline stage — the dominant traffic term);
//! 3. full weight residency for pipelined CEs (avoids per-round reloads);
//! 4. inter-segment handoff buffers, smallest first (avoids spilling whole
//!    intermediate images, Eq. 9);
//! 5. single-CE feature-map buffers, proportional to residual demand
//!    (reduces Eq. 6 spills).
//!
//! The resulting [`BufferPlan`] records needs and grants; the cost model
//! (`mccm-core`) derives weight-residency classes and spill policies from
//! it.

use mccm_cnn::ConvInfo;
use mccm_fpga::Precision;

use crate::engine::{CeRole, ComputeEngine};
use crate::spec::{Executor, Segment};

/// On-chip bytes a depth-first fuse group `first..=last` needs to execute
/// without spilling intermediates: every fused layer's (decompressed)
/// weights resident simultaneously, a line buffer of `K` input rows per
/// fused layer, and a double-buffered output row for the group's last
/// layer.
///
/// This is the single definition of the fused working set — the buffer
/// planner sizes depth-first CEs by it and the cost model checks fusion
/// feasibility against it, so the two can never disagree.
pub fn fused_group_bytes(
    convs: &[ConvInfo],
    first: usize,
    last: usize,
    precision: Precision,
) -> u64 {
    let weights: u64 = convs[first..=last]
        .iter()
        .map(|l| precision.weight_size(l.weights))
        .sum();
    let line_elements: u64 = convs[first..=last]
        .iter()
        .map(|l| u64::from(l.spec.kernel.0) * l.ifm.row_elements())
        .sum();
    let out_elements = 2 * convs[last].ofm.row_elements();
    weights + precision.activation_size(line_elements + out_elements)
}

/// The consecutive fuse groups a depth-first segment `first..=last` splits
/// into: chunks of `fuse_depth` layers, the last possibly shorter.
pub fn fuse_groups(
    first: usize,
    last: usize,
    fuse_depth: usize,
) -> impl Iterator<Item = (usize, usize)> {
    let depth = fuse_depth.max(1);
    (first..=last)
        .step_by(depth)
        .map(move |lo| (lo, (lo + depth - 1).min(last)))
}

/// Buffer allocation for one compute engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CeBufferAlloc {
    /// Granted on-chip capacity in bytes.
    pub bytes: u64,
    /// Mandatory minimum (`fm_tile_bytes + weight_stream_bytes`).
    pub min_bytes: u64,
    /// Capacity that guarantees minimum off-chip accesses for this CE.
    pub ideal_bytes: u64,
    /// Double-buffered feature-map row tiles (input rows + output row).
    pub fm_tile_bytes: u64,
    /// Double-buffered weight streaming tile.
    pub weight_stream_bytes: u64,
    /// Total weight bytes over all layers this CE processes.
    pub weights_total_bytes: u64,
    /// Largest single-layer weight bytes among its layers.
    pub weights_max_layer_bytes: u64,
    /// Largest feature-map working set (IFM + OFM + residual copies) among
    /// its layers, in bytes — Eq. (4)'s first term.
    pub fm_working_set_bytes: u64,
}

impl CeBufferAlloc {
    /// Capacity available for weights beyond the FM tiles.
    pub fn weight_capacity(&self) -> u64 {
        self.bytes.saturating_sub(self.fm_tile_bytes)
    }
}

/// Inter-segment interface buffer (Eq. 8's `interSegBufferSz`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterSegmentBuffer {
    /// Bytes needed to keep the handoff on-chip (doubled when the handoff
    /// is pipelined).
    pub bytes_needed: u64,
    /// Whether the planner could grant it on-chip.
    pub on_chip: bool,
    /// Whether the two segments overlap different inputs (coarse
    /// pipelining between distinct blocks), requiring double buffering.
    pub pipelined_handoff: bool,
    /// Whether both segments run on the same block (consecutive rounds of
    /// a round-robin pipelined block). Such handoffs stream through
    /// off-chip memory by design (TGPA \[41\]) and are never granted BRAM.
    pub same_block: bool,
}

/// Complete buffer plan for a built accelerator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferPlan {
    /// Per-CE allocations, indexed by CE id.
    pub ce: Vec<CeBufferAlloc>,
    /// Handoff buffers between consecutive segments (`len = segments - 1`).
    pub inter_segment: Vec<InterSegmentBuffer>,
    /// Board BRAM capacity the plan was fitted to.
    pub bram_bytes: u64,
    /// Whether even the mandatory minimums fit.
    pub fits_minimums: bool,
}

impl BufferPlan {
    /// Total granted on-chip bytes (CE buffers + on-chip handoffs).
    pub fn total_bytes(&self) -> u64 {
        let ce: u64 = self.ce.iter().map(|c| c.bytes).sum();
        let seg: u64 = self
            .inter_segment
            .iter()
            .filter(|b| b.on_chip)
            .map(|b| b.bytes_needed)
            .sum();
        ce + seg
    }
}

/// The buffer *needs* of one CE processing `layers` (global layer
/// indices into `convs`) in `role` with input-channel parallelism `pf`:
/// mandatory minimums, the ideal that guarantees minimum accesses, and
/// the weight/FM statistics the cost model reads. The grant starts at
/// the minimum; [`distribute_slack`] raises it.
///
/// This is the single definition of per-CE buffer demand — both the full
/// `plan_buffers` pass and the per-segment builder hook
/// (`MultipleCeBuilder::ce_context`) call it, so a segment planned alone
/// is byte-identical to the same segment inside a whole-design plan.
pub fn ce_needs(
    convs: &[ConvInfo],
    layers: &[usize],
    role: CeRole,
    pf: u64,
    precision: Precision,
) -> CeBufferAlloc {
    let wb = |l: &ConvInfo| precision.weight_size(l.weights);
    let ab = u64::from(precision.activation_bytes);
    // Consumer kernel height per layer: rows of a layer's OFM the next
    // layer needs before producing one row (1 for the final layer).
    let next_k =
        |idx: usize| -> u64 { convs.get(idx + 1).map_or(1, |n| u64::from(n.spec.kernel.0)) };
    let layers: Vec<&ConvInfo> = layers.iter().map(|&l| &convs[l]).collect();

    let weight_stream = 2
        * layers
            .iter()
            .map(|l| {
                pf.min(u64::from(l.dims[0]))
                    * u64::from(l.dims[1])
                    * (u64::from(l.dims[4]) * u64::from(l.dims[5]))
            })
            .max()
            .unwrap_or(0)
        * u64::from(precision.weight_bytes);

    let fm_tile = match role {
        // Streaming spill tiles: K input rows + 1 output row, double
        // buffered.
        CeRole::Single => {
            2 * layers
                .iter()
                .map(|l| u64::from(l.spec.kernel.0) * l.ifm.row_elements() + l.ofm.row_elements())
                .max()
                .unwrap_or(0)
                * ab
        }
        // Pipeline row tiles: enough producer rows for one output
        // row on the input side, one row on the output side, double
        // buffered.
        CeRole::Pipelined => {
            2 * layers
                .iter()
                .map(|l| {
                    u64::from(l.spec.kernel.0) * l.ifm.row_elements()
                        + next_k(l.index) * l.ofm.row_elements()
                })
                .max()
                .unwrap_or(0)
                * ab
        }
    };

    let weights_total: u64 = layers.iter().map(|l| wb(l)).sum();
    let weights_max = layers.iter().map(|l| wb(l)).max().unwrap_or(0);
    let fm_ws = layers
        .iter()
        .map(|l| l.fm_working_set * ab)
        .max()
        .unwrap_or(0);

    let min_bytes = fm_tile + weight_stream;
    let ideal_bytes = match role {
        CeRole::Single => weight_stream + fm_tile.max(fm_ws),
        CeRole::Pipelined => fm_tile + weights_total,
    };
    CeBufferAlloc {
        bytes: min_bytes,
        min_bytes,
        ideal_bytes,
        fm_tile_bytes: fm_tile,
        weight_stream_bytes: weight_stream,
        weights_total_bytes: weights_total,
        weights_max_layer_bytes: weights_max,
        fm_working_set_bytes: fm_ws,
    }
}

/// The largest fuse-group working set of a depth-first segment
/// `first..=last` at `fuse_depth` — the amount a depth-first CE's ideal
/// is raised to so generous BRAM lets every group fuse (`0` for
/// layer-by-layer depth 1).
pub fn depth_first_ideal(
    convs: &[ConvInfo],
    first: usize,
    last: usize,
    fuse_depth: usize,
    precision: Precision,
) -> u64 {
    if fuse_depth <= 1 {
        return 0;
    }
    fuse_groups(first, last, fuse_depth)
        .map(|(lo, hi)| fused_group_bytes(convs, lo, hi, precision))
        .max()
        .unwrap_or(0)
}

/// The inter-segment handoff buffer after the segment whose last layer is
/// `producer_last`: the producer's full OFM, doubled when the handoff is
/// pipelined (coarse pipelining between disjoint blocks). Starts
/// off-chip; [`distribute_slack`] grants BRAM.
pub fn handoff_need(
    convs: &[ConvInfo],
    producer_last: usize,
    precision: Precision,
    pipelined_handoff: bool,
    same_block: bool,
) -> InterSegmentBuffer {
    let fm_bytes = convs[producer_last].ofm.elements() * u64::from(precision.activation_bytes);
    InterSegmentBuffer {
        bytes_needed: if pipelined_handoff {
            2 * fm_bytes
        } else {
            fm_bytes
        },
        on_chip: false,
        pipelined_handoff,
        same_block,
    }
}

/// Distributes the BRAM slack above the mandatory minimums across CE
/// grants and handoff buffers in the fixed priority order (2–5 of the
/// module docs). Returns whether even the minimums fit; when they do
/// not, every grant stays at its minimum and every handoff off-chip —
/// exactly the plan the cost model then degrades around.
///
/// `role_of(i)` is CE `i`'s role — a closure so callers without built
/// [`ComputeEngine`]s (the per-segment delta path) can use it too.
pub fn distribute_slack(
    allocs: &mut [CeBufferAlloc],
    role_of: impl Fn(usize) -> CeRole,
    inter: &mut [InterSegmentBuffer],
    bram_bytes: u64,
) -> bool {
    let spent: u64 = allocs.iter().map(|a| a.bytes).sum();
    let fits_minimums = spent <= bram_bytes;
    if !fits_minimums {
        return fits_minimums;
    }
    let mut slack = bram_bytes - spent;

    // Priority 2: per-round weight residency for pipelined CEs.
    let mut upgrades: Vec<(usize, u64)> = allocs
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            matches!(role_of(*i), CeRole::Pipelined)
                && a.fm_tile_bytes + a.weights_max_layer_bytes > a.bytes
        })
        .map(|(i, a)| (i, a.fm_tile_bytes + a.weights_max_layer_bytes - a.bytes))
        .collect();
    upgrades.sort_by_key(|&(i, cost)| (cost, i));
    for (i, cost) in upgrades {
        if cost <= slack {
            allocs[i].bytes += cost;
            slack -= cost;
        }
    }

    // Priority 3: full weight residency for pipelined CEs.
    let mut upgrades: Vec<(usize, u64)> = allocs
        .iter()
        .enumerate()
        .filter(|(i, a)| matches!(role_of(*i), CeRole::Pipelined) && a.ideal_bytes > a.bytes)
        .map(|(i, a)| (i, a.ideal_bytes - a.bytes))
        .collect();
    upgrades.sort_by_key(|&(i, cost)| (cost, i));
    for (i, cost) in upgrades {
        if cost <= slack {
            allocs[i].bytes += cost;
            slack -= cost;
        }
    }

    // Priority 4: inter-segment buffers between distinct blocks, smallest
    // first. Same-block (round-robin) handoffs always stream off-chip.
    let mut order: Vec<usize> = (0..inter.len()).filter(|&i| !inter[i].same_block).collect();
    order.sort_by_key(|&i| (inter[i].bytes_needed, i));
    for i in order {
        if inter[i].bytes_needed <= slack {
            inter[i].on_chip = true;
            slack -= inter[i].bytes_needed;
        }
    }

    // Priority 5: single-CE FM buffers, proportional to residual demand.
    for _pass in 0..2 {
        let residuals: Vec<(usize, u64)> = allocs
            .iter()
            .enumerate()
            .filter(|(i, a)| matches!(role_of(*i), CeRole::Single) && a.ideal_bytes > a.bytes)
            .map(|(i, a)| (i, a.ideal_bytes - a.bytes))
            .collect();
        let total_res: u64 = residuals.iter().map(|&(_, r)| r).sum();
        if total_res == 0 || slack == 0 {
            break;
        }
        if total_res <= slack {
            for (i, r) in residuals {
                allocs[i].bytes += r;
            }
            break;
        }
        for (i, r) in residuals {
            // The quotient of (slack × r) / total_res is ≤ slack, a u64.
            #[allow(clippy::cast_possible_truncation)]
            let grant = ((u128::from(slack) * u128::from(r)) / u128::from(total_res)) as u64;
            let grant = grant.min(allocs[i].ideal_bytes - allocs[i].bytes);
            allocs[i].bytes += grant;
            slack -= grant;
        }
    }
    fits_minimums
}

/// Plans buffers for a set of engines and segments against a BRAM budget.
pub fn plan_buffers(
    convs: &[ConvInfo],
    segments: &[Segment],
    ces: &[ComputeEngine],
    coarse_pipeline: bool,
    precision: Precision,
    bram_bytes: u64,
) -> BufferPlan {
    // Per-CE needs.
    let mut allocs: Vec<CeBufferAlloc> = ces
        .iter()
        .map(|ce| {
            ce_needs(
                convs,
                &ce.layers,
                ce.role,
                u64::from(ce.parallelism.dims[0]),
                precision,
            )
        })
        .collect();

    // Depth-first CEs additionally want every fuse group's working set
    // (group weights + line buffers) resident; raise their ideal so
    // generous BRAM lets every group fuse. The layer-by-layer ideal stays
    // the floor — infeasible groups fall back to per-layer execution with
    // streaming tiles. Fuse depth 1 is layer-by-layer and changes nothing.
    for seg in segments {
        let Executor::SingleCe(ce) = &seg.executor else {
            continue;
        };
        let ce = *ce;
        let fused_need = depth_first_ideal(
            convs,
            seg.first,
            seg.last,
            seg.schedule.fuse_depth(),
            precision,
        );
        allocs[ce].ideal_bytes = allocs[ce].ideal_bytes.max(fused_need);
    }

    // Inter-segment handoffs.
    let mut inter: Vec<InterSegmentBuffer> = segments
        .windows(2)
        .map(|w| {
            let disjoint = {
                let a = w[0].executor.ces();
                let b = w[1].executor.ces();
                !a.iter().any(|ce| b.contains(ce))
            };
            handoff_need(
                convs,
                w[0].last,
                precision,
                coarse_pipeline && disjoint,
                !disjoint,
            )
        })
        .collect();

    let fits_minimums = distribute_slack(&mut allocs, |i| ces[i].role, &mut inter, bram_bytes);
    BufferPlan {
        ce: allocs,
        inter_segment: inter,
        bram_bytes,
        fits_minimums,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Parallelism;
    use crate::spec::{Executor, Schedule};
    use mccm_cnn::zoo;

    fn single_ce(id: usize, layers: Vec<usize>) -> ComputeEngine {
        ComputeEngine {
            id,
            pes: 64,
            parallelism: Parallelism::spatial(8, 2, 4),
            role: CeRole::Single,
            schedule: Schedule::LayerByLayer,
            layers,
        }
    }

    fn pipe_ce(id: usize, layers: Vec<usize>) -> ComputeEngine {
        ComputeEngine {
            id,
            pes: 64,
            parallelism: Parallelism::spatial(8, 2, 4),
            role: CeRole::Pipelined,
            schedule: Schedule::LayerByLayer,
            layers,
        }
    }

    fn two_segment_fixture() -> (Vec<ConvInfo>, Vec<Segment>, Vec<ComputeEngine>) {
        let m = zoo::mobilenet_v2();
        let convs = m.conv_view();
        let n = convs.len();
        let segments = vec![
            Segment {
                schedule: Schedule::LayerByLayer,
                index: 0,
                first: 0,
                last: 9,
                executor: Executor::SingleCe(0),
            },
            Segment {
                schedule: Schedule::LayerByLayer,
                index: 1,
                first: 10,
                last: n - 1,
                executor: Executor::SingleCe(1),
            },
        ];
        let ces = vec![
            single_ce(0, (0..10).collect()),
            single_ce(1, (10..n).collect()),
        ];
        (convs, segments, ces)
    }

    #[test]
    fn generous_bram_grants_ideals() {
        let (convs, segments, ces) = two_segment_fixture();
        let plan = plan_buffers(
            &convs,
            &segments,
            &ces,
            true,
            Precision::INT8,
            1 << 30, // 1 GiB
        );
        assert!(plan.fits_minimums);
        for a in &plan.ce {
            assert_eq!(a.bytes, a.ideal_bytes);
        }
        assert!(plan.inter_segment.iter().all(|b| b.on_chip));
        assert!(plan.total_bytes() <= 1 << 30);
    }

    #[test]
    fn tiny_bram_reports_unfit_minimums() {
        let (convs, segments, ces) = two_segment_fixture();
        let plan = plan_buffers(&convs, &segments, &ces, true, Precision::INT8, 1024);
        assert!(!plan.fits_minimums);
        assert!(plan.inter_segment.iter().all(|b| !b.on_chip));
    }

    #[test]
    fn allocation_never_exceeds_bram_when_feasible() {
        let (convs, segments, ces) = two_segment_fixture();
        for budget in [200_000u64, 500_000, 2_000_000, 8_000_000] {
            let plan = plan_buffers(&convs, &segments, &ces, true, Precision::INT8, budget);
            if plan.fits_minimums {
                assert!(plan.total_bytes() <= budget, "budget {budget}");
            }
        }
    }

    #[test]
    fn pipelined_weight_residency_prioritized() {
        let m = zoo::mobilenet_v2();
        let convs = m.conv_view();
        let segments = vec![Segment {
            schedule: Schedule::LayerByLayer,
            index: 0,
            first: 0,
            last: 1,
            executor: Executor::PipelinedCes(vec![0, 1]),
        }];
        let ces = vec![pipe_ce(0, vec![0]), pipe_ce(1, vec![1])];
        // Enough for minimums + weights but not much more.
        let min_plan = plan_buffers(&convs, &segments, &ces, false, Precision::INT8, 0);
        let need: u64 = min_plan.ce.iter().map(|a| a.ideal_bytes).sum();
        let plan = plan_buffers(&convs, &segments, &ces, false, Precision::INT8, need);
        assert!(plan.fits_minimums);
        for a in &plan.ce {
            assert!(a.weight_capacity() >= a.weights_total_bytes);
        }
    }

    #[test]
    fn pipelined_handoff_doubles_buffer() {
        let m = zoo::mobilenet_v2();
        let convs = m.conv_view();
        let n = convs.len();
        let segments = vec![
            Segment {
                schedule: Schedule::LayerByLayer,
                index: 0,
                first: 0,
                last: 9,
                executor: Executor::SingleCe(0),
            },
            Segment {
                schedule: Schedule::LayerByLayer,
                index: 1,
                first: 10,
                last: n - 1,
                executor: Executor::SingleCe(1),
            },
        ];
        let ces = vec![
            single_ce(0, (0..10).collect()),
            single_ce(1, (10..n).collect()),
        ];
        let coarse = plan_buffers(&convs, &segments, &ces, true, Precision::INT8, 1 << 30);
        let seq = plan_buffers(&convs, &segments, &ces, false, Precision::INT8, 1 << 30);
        assert_eq!(
            coarse.inter_segment[0].bytes_needed,
            2 * seq.inter_segment[0].bytes_needed
        );
        assert!(coarse.inter_segment[0].pipelined_handoff);
        assert!(!seq.inter_segment[0].pipelined_handoff);
    }

    #[test]
    fn shared_block_handoff_is_single_buffered() {
        // Consecutive rounds of the same pipelined block share CEs -> no
        // pipelined handoff even under coarse_pipeline = true.
        let m = zoo::mobilenet_v2();
        let convs = m.conv_view();
        let segments = vec![
            Segment {
                schedule: Schedule::LayerByLayer,
                index: 0,
                first: 0,
                last: 1,
                executor: Executor::PipelinedCes(vec![0, 1]),
            },
            Segment {
                schedule: Schedule::LayerByLayer,
                index: 1,
                first: 2,
                last: 3,
                executor: Executor::PipelinedCes(vec![0, 1]),
            },
        ];
        let ces = vec![pipe_ce(0, vec![0, 2]), pipe_ce(1, vec![1, 3])];
        let plan = plan_buffers(&convs, &segments, &ces, true, Precision::INT8, 1 << 30);
        assert!(!plan.inter_segment[0].pipelined_handoff);
        assert!(plan.inter_segment[0].same_block);
        // Round-robin handoffs stream off-chip regardless of BRAM budget.
        assert!(!plan.inter_segment[0].on_chip);
    }
}
