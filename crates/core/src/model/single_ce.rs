//! Single-CE block model: Eq. (1) latency, Eq. (6) off-chip accesses with
//! spill-policy selection, and memory-access time.
//!
//! A single-CE block processes its layers one by one to completion
//! (Fig. 4a). Per layer, compute cycles follow Eq. (1); off-chip traffic
//! follows Eq. (6): if the layer's feature-map working set fits in the
//! engine's FM budget, weights stream once and the OFMs stay on-chip for
//! the next layer; otherwise the model picks the cheaper of
//! output-stationary local-input-stationary (IFMs once, weights re-read
//! per IFM-buffer pass) and local-weight-stationary (weights once, IFMs
//! re-read per weight-buffer pass). Layer time is `max(compute, memory)` —
//! double buffering overlaps transfers with computation, so whichever
//! dominates sets the pace.

use mccm_arch::{
    fuse_groups, fused_group_bytes, BuiltAccelerator, CeBufferAlloc, ComputeEngine, Schedule,
};

use crate::quantity::{Bandwidth, Bytes, Cycles, Macs};
use crate::report::{LayerReport, SpillPolicy};

/// The scalar totals of one block evaluation, produced without any heap
/// allocation. Per-layer detail goes to the cores' `on_layer` callbacks
/// as [`LayerStep`]s; the summary lane passes a no-op, the rich lane
/// records reports, so both lanes run the same arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct BlockTotals {
    /// Contribution to latency (stalls included).
    pub time_cycles: Cycles,
    /// Pure compute cycles.
    pub compute_cycles: Cycles,
    /// Memory access cycles (as if serialized; overlap decided by `time`).
    pub memory_cycles: Cycles,
    /// Off-chip weight traffic.
    pub weight_traffic: Bytes,
    /// Off-chip feature-map traffic.
    pub fm_traffic: Bytes,
    /// Useful MACs performed.
    pub useful_macs: Macs,
    /// Largest per-CE busy time within the block (the Eq. 3 bottleneck
    /// used for single-round pipelined throughput).
    pub max_busy_cycles: Cycles,
}

/// One layer's share of a block evaluation, as handed to the cores'
/// `on_layer` callbacks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LayerStep {
    /// Conv-layer index.
    pub layer: usize,
    /// CE that processed it.
    pub ce: usize,
    /// Eq. (1) compute cycles (a pipelined stage's unpaced busy time).
    pub compute_cycles: Cycles,
    /// Cycles the layer keeps its CE busy, memory pacing included. A
    /// fused group's paced time lands on its last layer, so a CE's steps
    /// always sum to its busy time.
    pub busy_cycles: Cycles,
    /// Off-chip weight traffic.
    pub weight_traffic: Bytes,
    /// Off-chip feature-map loads.
    pub fm_load_traffic: Bytes,
    /// Off-chip feature-map stores.
    pub fm_store_traffic: Bytes,
    /// Spill policy chosen by Eq. (6) (single-CE layers) or `None`.
    pub policy: SpillPolicy,
}

impl LayerStep {
    /// The rich lane's per-layer record of this step.
    pub fn report(self, acc: &BuiltAccelerator) -> LayerReport {
        LayerReport {
            layer: self.layer,
            ce: self.ce,
            compute_cycles: self.compute_cycles,
            weight_traffic: self.weight_traffic,
            fm_load_traffic: self.fm_load_traffic,
            fm_store_traffic: self.fm_store_traffic,
            policy: self.policy,
            utilization: acc.ces[self.ce].utilization(acc.convs[self.layer].dims),
        }
    }
}

/// Evaluates a single-CE block over layers `first..=last` (Eq. 1, 4, 6)
/// without allocating; `on_layer` receives every layer's [`LayerStep`].
///
/// `schedule` selects the block's execution order: layer-by-layer runs
/// each layer to completion; depth-first fuses runs of `fuse_depth`
/// consecutive layers, tiling over the fused stack's output rows so
/// intermediate FMs stay in on-chip line buffers. `input_off_chip`: the
/// segment's input FMs come from off-chip (model input or a spilled
/// handoff). `output_off_chip`: the segment's final OFMs must be stored
/// off-chip (model output or a spilled/double-buffered handoff).
///
/// This is the single schedule-dispatch point of the cost model: layers
/// are walked in fuse groups of `schedule.fuse_depth()` (layer-by-layer
/// is the degenerate depth-1 case), and each group runs either the fused
/// depth-first step or the per-layer Eq. (6) step. A fuse group of one
/// layer, or one whose fused working set exceeds the CE's buffer, takes
/// the exact per-layer path — so `DepthFirst { fuse_depth: 1 }` is
/// bit-identical to `LayerByLayer` by construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_single_ce(
    acc: &BuiltAccelerator,
    ce_id: usize,
    schedule: Schedule,
    first: usize,
    last: usize,
    input_off_chip: bool,
    output_off_chip: bool,
    bw: Bandwidth,
    mut on_layer: impl FnMut(LayerStep),
) -> BlockTotals {
    let ctx = StepCtx {
        acc,
        ce: &acc.ces[ce_id],
        alloc: &acc.buffers.ce[ce_id],
        act: u64::from(acc.precision.activation_bytes),
        // Capacity available for feature maps once the weight stream
        // buffer is reserved (Eq. 6's constraint re-arranged).
        fm_budget: Bytes::new(
            acc.buffers.ce[ce_id]
                .bytes
                .saturating_sub(acc.buffers.ce[ce_id].weight_stream_bytes),
        ),
        bw,
        last,
        output_off_chip,
    };

    let mut out = BlockTotals::default();
    let mut ifm_on_chip = !input_off_chip;
    for (lo, hi) in fuse_groups(first, last, schedule.fuse_depth()) {
        // A fused group is only worth (and only valid) fusing when it has
        // at least two layers and its whole working set — group weights,
        // line buffers, double-buffered output row — fits the CE's actual
        // allocation. Otherwise fall back to the per-layer step, which is
        // always feasible (it degrades through Eq. 6's spill policies).
        let fusible =
            hi > lo && fused_group_bytes(&acc.convs, lo, hi, acc.precision) <= ctx.alloc.bytes;
        if fusible {
            ifm_on_chip = fused_step(&ctx, lo, hi, ifm_on_chip, &mut out, &mut on_layer);
        } else {
            for l in lo..=hi {
                ifm_on_chip = layer_step(&ctx, l, ifm_on_chip, &mut out, &mut on_layer);
            }
        }
    }
    out.max_busy_cycles = out.time_cycles;
    out
}

/// Per-block invariants threaded through the per-layer / per-group steps.
struct StepCtx<'a> {
    acc: &'a BuiltAccelerator,
    ce: &'a ComputeEngine,
    alloc: &'a CeBufferAlloc,
    /// Bytes per activation element.
    act: u64,
    /// FM capacity once the weight stream buffer is reserved.
    fm_budget: Bytes,
    bw: Bandwidth,
    /// The segment's last layer (boundary-store detection).
    last: usize,
    /// The segment's final OFMs must go off-chip.
    output_off_chip: bool,
}

/// One layer-by-layer step: Eq. (1) compute, Eq. (6) spill-policy argmin,
/// `max(compute, memory)` pacing. Returns whether the layer's OFMs stay
/// on-chip for the next step.
fn layer_step(
    ctx: &StepCtx<'_>,
    l: usize,
    ifm_on_chip: bool,
    out: &mut BlockTotals,
    on_layer: &mut impl FnMut(LayerStep),
) -> bool {
    let acc = ctx.acc;
    let conv = &acc.convs[l];
    let w_bytes = Bytes::new(acc.weight_bytes(l));
    let ifm_bytes = Bytes::new(acc.ifm_bytes(l));
    let ofm_bytes = Bytes::new(acc.ofm_bytes(l));
    let extra_bytes = Bytes::new(
        acc.precision
            .activation_size(conv.fm_working_set - conv.ifm.elements() - conv.ofm.elements()),
    );
    let working_set = ifm_bytes + ofm_bytes + extra_bytes;
    let must_store = l == ctx.last && ctx.output_off_chip;

    let compute = Cycles::new(ctx.ce.parallelism.latency_cycles(conv.dims));
    let (policy, w_traffic, fm_load, fm_store, ofm_stays) = if ifm_on_chip {
        if working_set <= ctx.fm_budget && !must_store {
            (SpillPolicy::None, w_bytes, Bytes::ZERO, Bytes::ZERO, true)
        } else {
            // OFMs streamed out (boundary store or capacity); IFMs are
            // already resident, weights stream once.
            (
                SpillPolicy::OutputSpill,
                w_bytes,
                Bytes::ZERO,
                ofm_bytes,
                false,
            )
        }
    } else if working_set <= ctx.fm_budget && !must_store {
        // Load IFMs once, keep OFMs for the next layer.
        (SpillPolicy::None, w_bytes, ifm_bytes, Bytes::ZERO, true)
    } else if ifm_bytes + extra_bytes <= ctx.fm_budget {
        // IFMs fit; OFMs streamed out.
        (
            SpillPolicy::OutputSpill,
            w_bytes,
            ifm_bytes,
            ofm_bytes,
            false,
        )
    } else {
        // Nothing fits: Eq. (6)'s argmin over the two locally
        // stationary options and the IFM/weight buffer split.
        let min_ifm_buf =
            Bytes::new((u64::from(conv.spec.kernel.0) * conv.ifm.row_elements() * ctx.act).max(1));
        let min_w_buf = Bytes::new(ctx.alloc.weight_stream_bytes.max(1));
        let budget = ctx.fm_budget.max(min_ifm_buf + min_w_buf);
        let mut best = (
            Bytes::MAX,
            SpillPolicy::LocalInputStationary,
            Bytes::ZERO,
            Bytes::ZERO,
        );
        for i in 1..16u64 {
            let ifm_buf = (budget * i / 16).max(min_ifm_buf);
            let w_buf = budget.saturating_sub(ifm_buf).max(min_w_buf);
            // OS local-IS: IFMs once, weights per IFM-buffer pass.
            let is_passes = ifm_bytes.div_ceil(ifm_buf);
            let is_cost = w_bytes * is_passes + ifm_bytes;
            if is_cost < best.0 {
                best = (
                    is_cost,
                    SpillPolicy::LocalInputStationary,
                    w_bytes * is_passes,
                    ifm_bytes,
                );
            }
            // OS local-WS: weights once, IFMs per weight-buffer pass.
            let ws_passes = w_bytes.div_ceil(w_buf);
            let ws_cost = ifm_bytes * ws_passes + w_bytes;
            if ws_cost < best.0 {
                best = (
                    ws_cost,
                    SpillPolicy::LocalWeightStationary,
                    w_bytes,
                    ifm_bytes * ws_passes,
                );
            }
        }
        (best.1, best.2, best.3, ofm_bytes, false)
    };

    let mem_bytes = w_traffic + fm_load + fm_store;
    let memory = ctx.bw.cycles_for(mem_bytes);
    let time = compute.max(memory);

    out.time_cycles += time;
    out.compute_cycles += compute;
    out.memory_cycles += memory;
    out.weight_traffic += w_traffic;
    out.fm_traffic += fm_load + fm_store;
    out.useful_macs += Macs::new(conv.macs);
    on_layer(LayerStep {
        layer: l,
        ce: ctx.ce.id,
        compute_cycles: compute,
        busy_cycles: time,
        weight_traffic: w_traffic,
        fm_load_traffic: fm_load,
        fm_store_traffic: fm_store,
        policy,
    });
    ofm_stays
}

/// One depth-first fused-group step over layers `lo..=hi` (all resident
/// per the caller's feasibility check): the group tiles over its final
/// layer's output rows, propagating each tile through the whole stack
/// while intermediate FMs stay in on-chip line buffers. Off-chip traffic
/// is therefore only the group's weights (streamed once), an IFM load at
/// the group entry if the previous step spilled, and an OFM store at the
/// group exit if the result cannot stay on-chip. Compute is the plain
/// Eq. (1) sum — the CE runs the same MACs, just reordered — and the
/// group paces at `max(compute, memory)` like any double-buffered step.
/// Returns whether the group's final OFMs stay on-chip.
fn fused_step(
    ctx: &StepCtx<'_>,
    lo: usize,
    hi: usize,
    ifm_on_chip: bool,
    out: &mut BlockTotals,
    on_layer: &mut impl FnMut(LayerStep),
) -> bool {
    let acc = ctx.acc;
    let ifm_bytes = Bytes::new(acc.ifm_bytes(lo));
    let ofm_bytes = Bytes::new(acc.ofm_bytes(hi));
    let fm_load = if ifm_on_chip { Bytes::ZERO } else { ifm_bytes };
    let must_store = hi == ctx.last && ctx.output_off_chip;
    // After the group retires, its weights and line buffers are dead; the
    // final OFM survives for the next step iff it fits the FM budget.
    let ofm_stays = ofm_bytes <= ctx.fm_budget && !must_store;
    let fm_store = if ofm_stays { Bytes::ZERO } else { ofm_bytes };

    let mut group_compute = Cycles::ZERO;
    let mut group_w = Bytes::ZERO;
    for l in lo..=hi {
        group_compute += Cycles::new(ctx.ce.parallelism.latency_cycles(acc.convs[l].dims));
        group_w += Bytes::new(acc.weight_bytes(l));
        out.useful_macs += Macs::new(acc.convs[l].macs);
    }
    let memory = ctx.bw.cycles_for(group_w + fm_load + fm_store);
    let time = group_compute.max(memory);

    out.time_cycles += time;
    out.compute_cycles += group_compute;
    out.memory_cycles += memory;
    out.weight_traffic += group_w;
    out.fm_traffic += fm_load + fm_store;
    for l in lo..=hi {
        // Per-layer attribution: own compute and weights; the group's FM
        // loads/stores land on its boundary layers, its paced time on
        // its last layer.
        on_layer(LayerStep {
            layer: l,
            ce: ctx.ce.id,
            compute_cycles: Cycles::new(ctx.ce.parallelism.latency_cycles(acc.convs[l].dims)),
            busy_cycles: if l == hi { time } else { Cycles::ZERO },
            weight_traffic: Bytes::new(acc.weight_bytes(l)),
            fm_load_traffic: if l == lo { fm_load } else { Bytes::ZERO },
            fm_store_traffic: if l == hi { fm_store } else { Bytes::ZERO },
            policy: SpillPolicy::Fused,
        });
    }
    ofm_stays
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccm_arch::{notation, MultipleCeBuilder};
    use mccm_cnn::zoo;
    use mccm_fpga::FpgaBoard;

    fn single_ce_acc(board: FpgaBoard) -> BuiltAccelerator {
        let m = zoo::mobilenet_v2();
        let spec = notation::parse("{L1-Last: CE1}").unwrap();
        MultipleCeBuilder::new(&m, &board).build(&spec).unwrap()
    }

    /// Runs the core on CE 0 at the board's full bandwidth, collecting
    /// its per-layer records.
    fn run(
        acc: &BuiltAccelerator,
        schedule: Schedule,
        first: usize,
        last: usize,
        input_off_chip: bool,
        output_off_chip: bool,
    ) -> (BlockTotals, Vec<LayerReport>) {
        let bw = Bandwidth::new(acc.board.bytes_per_cycle());
        let mut layers = Vec::new();
        let totals = eval_single_ce(
            acc,
            0,
            schedule,
            first,
            last,
            input_off_chip,
            output_off_chip,
            bw,
            |step| layers.push(step.report(acc)),
        );
        (totals, layers)
    }

    #[test]
    fn depth_first_fuse1_is_bit_identical_to_layer_by_layer() {
        // fuse_depth = 1 must route through the exact per-layer path.
        for mib in [0.2, 0.5, 4.0, 64.0] {
            let acc = single_ce_acc(FpgaBoard::new("b", 900, mccm_fpga::MiB(mib), 19.2));
            let n = acc.convs.len();
            let lbl = run(&acc, Schedule::LayerByLayer, 0, n - 1, true, true);
            let df1 = run(
                &acc,
                Schedule::DepthFirst { fuse_depth: 1 },
                0,
                n - 1,
                true,
                true,
            );
            assert_eq!(lbl, df1, "{mib} MiB");
        }
    }

    #[test]
    fn depth_first_fusion_cuts_fm_traffic_when_layers_spill() {
        // On a small board MobileNetV2's early FMs exceed the budget and
        // layer-by-layer spills; pairwise fusion keeps intermediates in
        // line buffers and must strictly reduce traffic without touching
        // compute cycles.
        let acc = single_ce_acc(FpgaBoard::new("small", 900, mccm_fpga::MiB(0.5), 19.2));
        let n = acc.convs.len();
        let (lbl, _) = run(&acc, Schedule::LayerByLayer, 0, n - 1, true, true);
        let (df, df_layers) = run(
            &acc,
            Schedule::DepthFirst { fuse_depth: 2 },
            0,
            n - 1,
            true,
            true,
        );
        assert_eq!(df.compute_cycles, lbl.compute_cycles);
        assert!(
            df_layers.iter().any(|l| l.policy == SpillPolicy::Fused),
            "no group fused on the small board"
        );
        assert!(
            df.weight_traffic + df.fm_traffic < lbl.weight_traffic + lbl.fm_traffic,
            "fusion did not reduce traffic: df {} vs lbl {}",
            df.weight_traffic + df.fm_traffic,
            lbl.weight_traffic + lbl.fm_traffic
        );
        // Fused groups stream weights exactly once.
        assert!(df.weight_traffic <= lbl.weight_traffic);
    }

    #[test]
    fn fused_groups_pay_traffic_only_at_boundaries() {
        let acc = single_ce_acc(FpgaBoard::new("small", 900, mccm_fpga::MiB(0.5), 19.2));
        let n = acc.convs.len();
        let (_, layers) = run(
            &acc,
            Schedule::DepthFirst { fuse_depth: 3 },
            0,
            n - 1,
            true,
            true,
        );
        for group in layers.chunks(3) {
            if group.iter().all(|l| l.policy == SpillPolicy::Fused) {
                // Interior layers of a fused group move no FMs off-chip.
                for l in &group[1..group.len() - 1] {
                    assert!(
                        l.fm_traffic().is_zero(),
                        "layer {} leaked FM traffic",
                        l.layer
                    );
                }
                assert!(group.last().unwrap().fm_load_traffic.is_zero());
                assert!(group[0].fm_store_traffic.is_zero());
            }
        }
    }

    #[test]
    fn compute_cycles_match_eq1() {
        let acc = single_ce_acc(FpgaBoard::zcu102());
        let (o, _) = run(
            &acc,
            Schedule::LayerByLayer,
            0,
            acc.convs.len() - 1,
            true,
            true,
        );
        let expect: Cycles = acc
            .convs
            .iter()
            .map(|c| Cycles::new(acc.ces[0].parallelism.latency_cycles(c.dims)))
            .sum();
        assert_eq!(o.compute_cycles, expect);
        assert!(o.time_cycles >= o.compute_cycles);
    }

    #[test]
    fn generous_buffers_reach_minimum_accesses() {
        // A board with huge BRAM keeps all FMs on-chip: traffic = all
        // weights + model input + model output.
        let board = FpgaBoard::new("big", 900, mccm_fpga::MiB(64.0), 19.2);
        let acc = single_ce_acc(board);
        let n = acc.convs.len();
        let (o, layers) = run(&acc, Schedule::LayerByLayer, 0, n - 1, true, true);
        let min = Bytes::new(acc.total_weight_bytes() + acc.ifm_bytes(0) + acc.ofm_bytes(n - 1));
        assert_eq!(o.weight_traffic + o.fm_traffic, min);
        // All mid layers keep FMs on chip.
        assert!(layers[1..n - 1]
            .iter()
            .all(|l| l.policy == SpillPolicy::None && l.fm_traffic().is_zero()));
    }

    #[test]
    fn tiny_buffers_spill_and_grow_traffic() {
        let tiny = FpgaBoard::new("tiny", 900, mccm_fpga::MiB(0.2), 19.2);
        let acc = single_ce_acc(tiny);
        let n = acc.convs.len();
        let (o, layers) = run(&acc, Schedule::LayerByLayer, 0, n - 1, true, true);
        let min = Bytes::new(acc.total_weight_bytes() + acc.ifm_bytes(0) + acc.ofm_bytes(n - 1));
        assert!(o.weight_traffic + o.fm_traffic > min);
        assert!(layers.iter().any(|l| l.policy != SpillPolicy::None));
    }

    #[test]
    fn traffic_monotone_in_bram() {
        let mut last_traffic = Bytes::MAX;
        for mib in [0.2, 0.5, 1.0, 4.0, 16.0, 64.0] {
            let board = FpgaBoard::new("b", 900, mccm_fpga::MiB(mib), 19.2);
            let acc = single_ce_acc(board);
            let (o, _) = run(
                &acc,
                Schedule::LayerByLayer,
                0,
                acc.convs.len() - 1,
                true,
                true,
            );
            let t = o.weight_traffic + o.fm_traffic;
            assert!(
                t <= last_traffic,
                "traffic must not grow with BRAM ({mib} MiB)"
            );
            last_traffic = t;
        }
    }

    #[test]
    fn boundary_store_forced() {
        let board = FpgaBoard::new("big", 900, mccm_fpga::MiB(64.0), 19.2);
        let acc = single_ce_acc(board);
        let (_, layers) = run(&acc, Schedule::LayerByLayer, 0, 5, false, true);
        // Last layer must store its OFM.
        assert_eq!(
            layers.last().unwrap().fm_store_traffic,
            Bytes::new(acc.ofm_bytes(5))
        );
        // On-chip input: no IFM load for the first layer.
        assert!(layers[0].fm_traffic().is_zero());
    }

    #[test]
    fn low_bandwidth_makes_memory_bound_layers() {
        let slow = FpgaBoard::new("slow", 900, mccm_fpga::MiB(0.5), 0.4);
        let acc = single_ce_acc(slow);
        let (o, _) = run(
            &acc,
            Schedule::LayerByLayer,
            0,
            acc.convs.len() - 1,
            true,
            true,
        );
        assert!(o.time_cycles > o.compute_cycles);
        assert!(o.memory_cycles > o.compute_cycles);
    }

    #[test]
    fn spill_split_prefers_cheaper_option() {
        // With spills, chosen policy cost must be <= the other option's
        // cost under the same budget (sanity of the argmin).
        let tiny = FpgaBoard::new("tiny", 900, mccm_fpga::MiB(0.2), 19.2);
        let m = zoo::resnet50();
        let spec = notation::parse("{L1-Last: CE1}").unwrap();
        let acc = MultipleCeBuilder::new(&m, &tiny).build(&spec).unwrap();
        let (_, layers) = run(
            &acc,
            Schedule::LayerByLayer,
            0,
            acc.convs.len() - 1,
            true,
            true,
        );
        // Late ResNet layers have big weights and small FMs: local-WS wins;
        // early layers the reverse. Both policies should appear.
        let has_ws = layers
            .iter()
            .any(|l| l.policy == SpillPolicy::LocalWeightStationary);
        let spills = layers
            .iter()
            .filter(|l| l.policy != SpillPolicy::None)
            .count();
        assert!(spills > 0);
        assert!(has_ws || spills > 0);
    }
}
