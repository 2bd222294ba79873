//! Pipelined-CEs block model: Eqs. (2), (3), (5), (7) with memory-access
//! time.
//!
//! The block processes its layers concurrently at tile granularity, one
//! OFM row per tile (Fig. 4b). Eq. (2) sums per-stage latencies; this
//! implementation evaluates the equivalent *asynchronous critical path*
//! of the row-dependency graph instead of a lockstep stage sum: FIFO-
//! connected engines do not barrier between tiles, so a layer's finish
//! time is bounded by (a) its own start plus its paced busy time and
//! (b) its producers' finish plus a trailing tile (see "Design-choice
//! ablations" in `docs/design.md` for the equivalence discussion). Per Eq. (7), weights of layers whose
//! engine cannot hold them are re-streamed on every row tile; those
//! transfer times pace the rows, and the shared DMA channel lower-bounds
//! the round time by the total transferred bytes.

use mccm_arch::{BuiltAccelerator, CeRole};

use crate::config::PipelineLatencyMode;
use crate::model::single_ce::{BlockTotals, LayerStep};
use crate::quantity::{Bandwidth, Bytes, Cycles, Macs};
use crate::report::SpillPolicy;

/// Reusable per-layer work arrays for [`eval_pipelined_round`]: one
/// slot per layer of the round being evaluated, grown on demand and kept
/// alive across rounds (and across designs, via
/// [`EvalScratch`](crate::EvalScratch)) so the steady-state pipelined
/// block model allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct PipeScratch {
    tile_lat: Vec<u64>,
    n_tiles: Vec<u64>,
    resident: Vec<bool>,
    w_bytes: Vec<u64>,
    mem_bytes: Vec<u64>,
    eff_tile_lat: Vec<u64>,
    start: Vec<u64>,
    finish_eff: Vec<u64>,
    finish_pure: Vec<u64>,
    produced: Vec<u64>,
    active: Vec<usize>,
}

/// Evaluates one pipelined round over layers `first..=last` running on
/// `ces[j] = ces[layer - first]`, without allocating: per-layer work
/// arrays live in `scratch`, and `on_layer` receives every stage's
/// [`LayerStep`].
///
/// The returned `time_cycles` is the critical-path round time,
/// lower-bounded by the round's total DMA time and the (double-buffered,
/// TGPA-style) resident-weight prefetch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_pipelined_round(
    acc: &BuiltAccelerator,
    ces: &[usize],
    first: usize,
    last: usize,
    input_off_chip: bool,
    output_off_chip: bool,
    bw: Bandwidth,
    mode: PipelineLatencyMode,
    scratch: &mut PipeScratch,
    mut on_layer: impl FnMut(LayerStep),
) -> BlockTotals {
    let n = last - first + 1;
    debug_assert_eq!(ces.len(), n, "one CE per layer in a round");

    // Per-layer static data (scratch-resident).
    scratch.tile_lat.clear();
    scratch.tile_lat.resize(n, 0); // compute cycles per row tile
    scratch.n_tiles.clear();
    scratch.n_tiles.resize(n, 0);
    scratch.resident.clear();
    scratch.resident.resize(n, false);
    scratch.w_bytes.clear();
    scratch.w_bytes.resize(n, 0);
    scratch.mem_bytes.clear();
    scratch.mem_bytes.resize(n, 0); // off-chip bytes streamed by the layer
    let tile_lat = &mut scratch.tile_lat;
    let n_tiles = &mut scratch.n_tiles;
    let resident = &mut scratch.resident;
    let w_bytes = &mut scratch.w_bytes;
    let mem_bytes = &mut scratch.mem_bytes;
    for j in 0..n {
        let l = first + j;
        let conv = &acc.convs[l];
        let ce = &acc.ces[ces[j]];
        debug_assert_eq!(ce.role, CeRole::Pipelined);
        let poh = ce.parallelism.dims[2].max(1).min(conv.ofm.height);
        n_tiles[j] = u64::from(conv.ofm.height).div_ceil(u64::from(poh));
        tile_lat[j] = ce.parallelism.tile_latency_cycles(conv.dims, poh);
        w_bytes[j] = acc.weight_bytes(l);
        // Eq. (7): weights stay on-chip across the round's tiles iff the
        // engine's buffer (beyond its FM tiles) can hold them decompressed.
        resident[j] = acc.buffers.ce[ces[j]].weight_capacity() >= acc.weight_buffer_bytes(l);
        let mut bytes = if resident[j] {
            0
        } else {
            w_bytes[j] * n_tiles[j]
        };
        if j == 0 && input_off_chip {
            bytes += acc.ifm_bytes(l);
        }
        if j == n - 1 && output_off_chip {
            bytes += acc.ofm_bytes(l);
        }
        mem_bytes[j] = bytes;
    }

    // Per-row pacing including the layer's own streaming (weights per
    // tile, boundary rows).
    let (tile_lat, n_tiles, resident, w_bytes, mem_bytes) =
        (&*tile_lat, &*n_tiles, &*resident, &*w_bytes, &*mem_bytes);
    let eff_tile_lat = &mut scratch.eff_tile_lat;
    eff_tile_lat.clear();
    eff_tile_lat.extend((0..n).map(|j| {
        let per_tile = Bytes::new(mem_bytes[j] / n_tiles[j].max(1));
        tile_lat[j].max(bw.cycles_for(per_tile).get())
    }));
    let eff_tile_lat = &*eff_tile_lat;

    // In-round producers (DAG edges resolved through pools/adds/concats by
    // `mccm-cnn`; producers before `first` sit in the segment's input
    // buffer and are always available). Iterated inline — collecting them
    // into a nested `Vec<Vec<usize>>` used to be a per-round allocation.
    let producers = |j: usize| {
        acc.convs[first + j]
            .producers
            .iter()
            .filter(move |&&p| p >= first && p < first + j)
            .map(move |&p| p - first)
    };

    // Producer tiles layer j needs before its first tile: IFM rows for row
    // `poh-1` scaled to producer rows through any intermediate pooling.
    let first_need_tiles = |j: usize, p: usize| -> u64 {
        let conv = &acc.convs[first + j];
        let through = acc.ces[ces[j]].parallelism.dims[2]
            .max(1)
            .min(conv.ofm.height)
            - 1;
        let need = (u64::from(through) * u64::from(conv.spec.stride.0)
            + u64::from(conv.spec.kernel.0))
        .saturating_sub(u64::from(conv.spec.padding.h))
        .clamp(1, u64::from(conv.ifm.height));
        let prod_h = u64::from(acc.convs[first + p].ofm.height);
        let ifm_h = u64::from(conv.ifm.height.max(1));
        let rows = ((need * prod_h).div_ceil(ifm_h)).min(prod_h);
        let p_poh = u64::from(acc.ces[ces[p]].parallelism.dims[2].max(1));
        rows.div_ceil(p_poh).min(n_tiles[p])
    };

    // Critical path, computed twice: with memory pacing (timing) and
    // without (the pure-compute baseline reported for Fig. 6).
    let critical_path = |rate: &[u64], start: &mut Vec<u64>, finish: &mut Vec<u64>| {
        start.clear();
        start.resize(n, 0);
        finish.clear();
        finish.resize(n, 0);
        for j in 0..n {
            for p in producers(j) {
                start[j] = start[j].max(start[p] + first_need_tiles(j, p) * rate[p]);
            }
            finish[j] = start[j] + n_tiles[j] * rate[j];
            for p in producers(j) {
                // Trailing tile: the last rows wait for the producer's
                // final output.
                finish[j] = finish[j].max(finish[p] + rate[j]);
            }
        }
    };
    {
        let PipeScratch {
            start,
            finish_eff,
            finish_pure,
            produced,
            active,
            ..
        } = scratch;
        match mode {
            PipelineLatencyMode::CriticalPath => {
                critical_path(eff_tile_lat, start, finish_eff);
                critical_path(tile_lat, start, finish_pure);
            }
            PipelineLatencyMode::LockstepStages => {
                lockstep_stages(
                    eff_tile_lat,
                    n_tiles,
                    &producers,
                    &first_need_tiles,
                    produced,
                    active,
                    finish_eff,
                );
                lockstep_stages(
                    tile_lat,
                    n_tiles,
                    &producers,
                    &first_need_tiles,
                    produced,
                    active,
                    finish_pure,
                );
            }
        }
    }
    let (finish_eff, finish_pure) = (&scratch.finish_eff, &scratch.finish_pure);

    // Round weight load for resident layers: double-buffered against the
    // previous round, so only the excess beyond the round time is exposed.
    let resident_load_bytes = Bytes::new((0..n).filter(|&j| resident[j]).map(|j| w_bytes[j]).sum());
    let w_load_cycles = bw.cycles_for(resident_load_bytes);

    // The shared DMA channel serializes every stream in the round.
    let total_mem_cycles = bw.cycles_for(Bytes::new(mem_bytes.iter().sum())) + w_load_cycles;

    let path = Cycles::new(finish_eff.iter().copied().max().unwrap_or(0));
    let compute_cycles = Cycles::new(finish_pure.iter().copied().max().unwrap_or(0));
    let time_cycles = path.max(total_mem_cycles).max(w_load_cycles);

    let mut out = BlockTotals {
        time_cycles,
        compute_cycles,
        memory_cycles: total_mem_cycles,
        ..BlockTotals::default()
    };
    for j in 0..n {
        let l = first + j;
        out.useful_macs += Macs::new(acc.convs[l].macs);
        let busy_pure = Cycles::new(n_tiles[j] * tile_lat[j]);
        let busy_eff = Cycles::new(n_tiles[j] * eff_tile_lat[j]);
        out.max_busy_cycles = out.max_busy_cycles.max(busy_eff);
        let lw = Bytes::new(if resident[j] {
            w_bytes[j]
        } else {
            w_bytes[j] * n_tiles[j]
        });
        let fm_load = if j == 0 && input_off_chip {
            Bytes::new(acc.ifm_bytes(l))
        } else {
            Bytes::ZERO
        };
        let fm_store = if j == n - 1 && output_off_chip {
            Bytes::new(acc.ofm_bytes(last))
        } else {
            Bytes::ZERO
        };
        out.weight_traffic += lw;
        out.fm_traffic += fm_load + fm_store;
        on_layer(LayerStep {
            layer: l,
            ce: ces[j],
            compute_cycles: busy_pure,
            busy_cycles: busy_eff,
            weight_traffic: lw,
            fm_load_traffic: fm_load,
            fm_store_traffic: fm_store,
            policy: SpillPolicy::None,
        });
    }
    out
}

/// Literal Eq. (2) evaluation: a global stage barrier per tile, each stage
/// as slow as its slowest active engine. A layer activates once its
/// producers have emitted its first-tile requirement and then produces one
/// tile per stage in which it is active. Kept for the ablation study.
fn lockstep_stages<P, I>(
    rate: &[u64],
    n_tiles: &[u64],
    producers: &P,
    first_need_tiles: &dyn Fn(usize, usize) -> u64,
    produced: &mut Vec<u64>,
    active: &mut Vec<usize>,
    finish: &mut Vec<u64>,
) where
    P: Fn(usize) -> I,
    I: Iterator<Item = usize>,
{
    let n = rate.len();
    produced.clear();
    produced.resize(n, 0);
    finish.clear();
    finish.resize(n, 0);
    let mut elapsed = 0u64;
    let total: u64 = n_tiles.iter().sum();
    let mut guard = 0u64;
    while produced.iter().zip(n_tiles).any(|(&p, &t)| p < t) {
        guard += 1;
        if guard > 2 * total + 2 * n as u64 {
            break; // defensive; dependencies are acyclic so this is unreachable
        }
        let mut stage = 0u64;
        active.clear();
        for j in 0..n {
            if produced[j] >= n_tiles[j] {
                continue;
            }
            // Scale the first-tile requirement with progress: tile t needs
            // roughly first_need + t producer tiles.
            let ready = producers(j).all(|p| {
                let need = (first_need_tiles(j, p) + produced[j]).min(n_tiles[p]);
                produced[p] >= need
            });
            if ready {
                active.push(j);
                stage = stage.max(rate[j]);
            }
        }
        if active.is_empty() {
            break; // unreachable: the lowest unfinished layer is always ready
        }
        elapsed += stage;
        for &j in active.iter() {
            produced[j] += 1;
            if produced[j] == n_tiles[j] {
                finish[j] = elapsed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccm_arch::{templates, MultipleCeBuilder};
    use mccm_cnn::zoo;
    use mccm_fpga::{FpgaBoard, MiB};

    fn head_acc(board: FpgaBoard, k: usize) -> BuiltAccelerator {
        let m = zoo::resnet50();
        let spec = templates::hybrid(&m, k).unwrap();
        MultipleCeBuilder::new(&m, &board).build(&spec).unwrap()
    }

    /// Runs the core at the board's full bandwidth, collecting its
    /// per-stage steps.
    fn run(
        acc: &BuiltAccelerator,
        ces: &[usize],
        first: usize,
        last: usize,
        input_off_chip: bool,
        output_off_chip: bool,
        mode: PipelineLatencyMode,
    ) -> (BlockTotals, Vec<LayerStep>) {
        let bw = Bandwidth::new(acc.board.bytes_per_cycle());
        let mut steps = Vec::new();
        let totals = eval_pipelined_round(
            acc,
            ces,
            first,
            last,
            input_off_chip,
            output_off_chip,
            bw,
            mode,
            &mut PipeScratch::default(),
            |step| steps.push(step),
        );
        (totals, steps)
    }

    #[test]
    fn round_time_bounded_by_bottleneck_busy() {
        let acc = head_acc(FpgaBoard::zcu102(), 5);
        let ces = vec![0, 1, 2, 3];
        let (o, steps) = run(
            &acc,
            &ces,
            0,
            3,
            true,
            true,
            PipelineLatencyMode::CriticalPath,
        );
        // Latency at least the slowest CE's total busy time (Eq. 3 bound).
        let max_busy = steps.iter().map(|s| s.busy_cycles).max().unwrap();
        assert!(o.time_cycles >= max_busy);
        // And the pure-compute path cannot exceed sequential execution.
        let sum_busy: Cycles = steps.iter().map(|l| l.compute_cycles).sum();
        assert!(o.compute_cycles <= sum_busy);
    }

    #[test]
    fn pipeline_faster_than_sequential_execution() {
        // Row overlap: the critical path must beat executing the layers
        // back to back on their own engines.
        let acc = head_acc(FpgaBoard::zcu102(), 7);
        let ces: Vec<usize> = (0..6).collect();
        let (o, steps) = run(
            &acc,
            &ces,
            0,
            5,
            true,
            true,
            PipelineLatencyMode::CriticalPath,
        );
        let sequential: Cycles = steps.iter().map(|l| l.compute_cycles).sum();
        assert!(
            o.compute_cycles < sequential,
            "pipelined {} vs sequential {sequential}",
            o.compute_cycles
        );
    }

    #[test]
    fn busy_counts_rows_times_tile_latency() {
        let acc = head_acc(FpgaBoard::zcu102(), 4);
        let ces = vec![0, 1, 2];
        let (_, steps) = run(
            &acc,
            &ces,
            0,
            2,
            true,
            true,
            PipelineLatencyMode::CriticalPath,
        );
        for (j, l) in steps.iter().enumerate() {
            let conv = &acc.convs[j];
            let poh = acc.ces[l.ce].parallelism.dims[2]
                .max(1)
                .min(conv.ofm.height);
            let tiles = u64::from(conv.ofm.height).div_ceil(u64::from(poh));
            let lat = acc.ces[l.ce]
                .parallelism
                .tile_latency_cycles(conv.dims, poh);
            assert_eq!(l.compute_cycles, Cycles::new(tiles * lat), "layer {j}");
        }
    }

    #[test]
    fn weight_residency_controls_traffic() {
        // Generous BRAM: weights resident, each loaded once.
        let acc = head_acc(FpgaBoard::zcu102(), 5);
        let ces = vec![0, 1, 2, 3];
        let (o, _) = run(
            &acc,
            &ces,
            0,
            3,
            true,
            true,
            PipelineLatencyMode::CriticalPath,
        );
        let w_once = Bytes::new((0..4).map(|l| acc.weight_bytes(l)).sum());
        assert_eq!(o.weight_traffic, w_once);

        // Tiny BRAM: weights streamed per row tile -> far more traffic.
        let tiny = FpgaBoard::new("tiny", 2520, MiB(0.05), 19.2);
        let acc = head_acc(tiny, 5);
        let (o2, _) = run(
            &acc,
            &ces,
            0,
            3,
            true,
            true,
            PipelineLatencyMode::CriticalPath,
        );
        assert!(
            o2.weight_traffic > w_once,
            "{} vs {w_once}",
            o2.weight_traffic
        );
    }

    #[test]
    fn io_traffic_charged_at_boundaries() {
        let acc = head_acc(FpgaBoard::zcu102(), 5);
        let ces = vec![0, 1, 2, 3];
        let (both, _) = run(
            &acc,
            &ces,
            0,
            3,
            true,
            true,
            PipelineLatencyMode::CriticalPath,
        );
        let (neither, _) = run(
            &acc,
            &ces,
            0,
            3,
            false,
            false,
            PipelineLatencyMode::CriticalPath,
        );
        assert_eq!(
            both.fm_traffic - neither.fm_traffic,
            Bytes::new(acc.ifm_bytes(0) + acc.ofm_bytes(3))
        );
    }

    #[test]
    fn low_bandwidth_stalls_pipeline() {
        let slow = FpgaBoard::new("slow", 2520, MiB(0.05), 0.02);
        let acc = head_acc(slow, 5);
        let ces = vec![0, 1, 2, 3];
        let (o, _) = run(
            &acc,
            &ces,
            0,
            3,
            true,
            true,
            PipelineLatencyMode::CriticalPath,
        );
        assert!(o.time_cycles > o.compute_cycles);
    }

    #[test]
    fn single_layer_round_works() {
        let acc = head_acc(FpgaBoard::zcu102(), 5);
        let (o, steps) = run(
            &acc,
            &[0],
            0,
            0,
            true,
            true,
            PipelineLatencyMode::CriticalPath,
        );
        assert_eq!(steps.len(), 1);
        assert!(!o.time_cycles.is_zero());
    }

    #[test]
    fn strided_consumers_respect_dependencies() {
        // SegmentedRR on MobileNetV2 exercises stride-2 depthwise layers.
        let m = zoo::mobilenet_v2();
        let spec = templates::segmented_rr(&m, 4).unwrap();
        let acc = MultipleCeBuilder::new(&m, &FpgaBoard::zcu102())
            .build(&spec)
            .unwrap();
        let (o, steps) = run(
            &acc,
            &[0, 1, 2, 3],
            0,
            3,
            true,
            true,
            PipelineLatencyMode::CriticalPath,
        );
        assert!(!o.useful_macs.is_zero());
        assert!(o.time_cycles >= steps.iter().map(|s| s.busy_cycles).max().unwrap());
    }

    #[test]
    fn lockstep_mode_never_faster_than_critical_path() {
        // The lockstep stage barrier can only add serialization.
        let acc = head_acc(FpgaBoard::zcu102(), 7);
        let ces: Vec<usize> = (0..6).collect();
        let (cp, _) = run(
            &acc,
            &ces,
            0,
            5,
            true,
            true,
            PipelineLatencyMode::CriticalPath,
        );
        let (ls, _) = run(
            &acc,
            &ces,
            0,
            5,
            true,
            true,
            PipelineLatencyMode::LockstepStages,
        );
        assert!(
            ls.time_cycles >= cp.time_cycles,
            "{} vs {}",
            ls.time_cycles,
            cp.time_cycles
        );
        // Traffic is mode-independent.
        assert_eq!(ls.weight_traffic, cp.weight_traffic);
        assert_eq!(ls.fm_traffic, cp.fm_traffic);
    }

    #[test]
    fn residual_branch_rounds_use_dag_producers() {
        // Rounds spanning a ResNet block boundary include a projection conv
        // whose producer is the earlier block input, not the previous conv.
        let m = zoo::resnet50();
        let spec = templates::segmented_rr(&m, 8).unwrap();
        let acc = MultipleCeBuilder::new(&m, &FpgaBoard::zcu102())
            .build(&spec)
            .unwrap();
        // Evaluate every round; the critical-path must stay finite and
        // bounded by the sequential sum.
        for seg in acc.segments.clone() {
            if let mccm_arch::Executor::PipelinedCes(ces) = &seg.executor {
                let (o, steps) = run(
                    &acc,
                    ces,
                    seg.first,
                    seg.last,
                    true,
                    true,
                    PipelineLatencyMode::CriticalPath,
                );
                let seq: Cycles = steps.iter().map(|l| l.compute_cycles).sum();
                assert!(o.compute_cycles <= seq + Cycles::new(1));
            }
        }
    }
}
