//! The simulator proper: replicates a tile graph over a stream of images
//! and executes it event by event against the shared DMA channel and the
//! in-order compute engines.

use mccm_arch::BuiltAccelerator;
use mccm_core::{CancelToken, Evaluation};

use crate::config::SimConfig;
use crate::engine::{Cycles, DmaChannel, Event, Events};
use crate::workload::{build_tile_graph, graph_traffic, TileGraph};

/// Internal per-tile dynamic state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TileState {
    /// Waiting for dependencies.
    Blocked,
    /// Load queued or in flight.
    Loading,
    /// Load complete (or not needed); eligible for its engine.
    Ready,
    /// Executing on its engine.
    Computing,
    /// Store in flight.
    Storing,
    /// Fully complete.
    Done,
}

/// Event-driven reference simulator for multiple-CE accelerators.
///
/// The simulator executes the same design-time decisions as the analytical
/// model (buffer plan, spill policies, weight residency) but measures
/// timing mechanistically: every off-chip transfer is serialized through a
/// FIFO DMA channel with per-transfer latency and burst-rounded occupancy,
/// every tile pays a control overhead, engines execute their tiles
/// strictly in order, and images stream through the accelerator back to
/// back, contending for the same resources.
///
/// # Examples
///
/// ```
/// use mccm_arch::{templates, MultipleCeBuilder};
/// use mccm_cnn::zoo;
/// use mccm_core::CostModel;
/// use mccm_sim::{SimConfig, Simulator};
/// use mccm_fpga::FpgaBoard;
///
/// # fn main() -> Result<(), mccm_arch::ArchError> {
/// let model = zoo::mobilenet_v2();
/// let builder = MultipleCeBuilder::new(&model, &FpgaBoard::zc706());
/// let acc = builder.build(&templates::hybrid(&model, 3)?)?;
/// let eval = CostModel::evaluate(&acc);
/// let result = Simulator::new(SimConfig::default()).run_with_eval(&acc, &eval);
/// assert!(result.latency_s > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator with the given overhead configuration.
    pub fn new(config: SimConfig) -> Self {
        Self { config }
    }

    /// Simulates `config.images` back-to-back inferences of `acc`, taking
    /// the tile graph's design-time decisions from `eval`, the model's
    /// evaluation of `acc` (`CostModel::evaluate(acc)`).
    pub fn run_with_eval(&self, acc: &BuiltAccelerator, eval: &Evaluation) -> crate::SimResult {
        // A fresh token never fires, so the full run always completes —
        // and takes exactly the code path a cancellable run takes, which
        // keeps the two entry points bit-identical by construction.
        self.run_with_eval_cancellable(acc, eval, &CancelToken::new())
            .expect("fresh token never cancels")
    }

    /// [`Self::run_with_eval`] polling `cancel` cooperatively between
    /// event-loop slices, so a serve deadline interrupting a calibration
    /// promotion degrades honestly instead of blocking until the
    /// simulation drains. A completed run is bit-identical to the
    /// uncancellable one; a cancelled run returns `None` — partial
    /// timings would not be honest measurements.
    pub fn run_with_eval_cancellable(
        &self,
        acc: &BuiltAccelerator,
        eval: &Evaluation,
        cancel: &CancelToken,
    ) -> Option<crate::SimResult> {
        let graph = build_tile_graph(acc, eval);
        self.execute(acc, &graph, cancel)
    }

    fn execute(
        &self,
        acc: &BuiltAccelerator,
        graph: &TileGraph,
        cancel: &CancelToken,
    ) -> Option<crate::SimResult> {
        let cfg = &self.config;
        let images = cfg.images.max(3);
        let per_image = graph.tiles.len();
        let total = per_image * images;
        let n_ces = acc.ces.len();

        // Flatten deps across images.
        let mut deps_remaining: Vec<u32> = vec![0; total];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); total];
        let serialize_images = !acc.coarse_pipeline();
        for img in 0..images {
            let base = img * per_image;
            for t in &graph.tiles {
                let gid = base + t.id;
                for &d in &t.deps {
                    dependents[base + d].push(gid);
                    deps_remaining[gid] += 1;
                }
                // Weight prefetches serialize across images (the block's
                // weight buffers recycle per image).
                if img > 0 && t.ce.is_none() {
                    dependents[base - per_image + t.id].push(gid);
                    deps_remaining[gid] += 1;
                }
            }
            if serialize_images && img > 0 {
                let gid = base; // first tile of this image
                dependents[base - 1].push(gid);
                deps_remaining[gid] += 1;
            }
        }

        // Per-CE global execution order: images concatenated.
        let mut ce_order: Vec<Vec<usize>> = vec![Vec::new(); n_ces];
        for (ce, order) in graph.ce_order.iter().enumerate() {
            for img in 0..images {
                let base = img * per_image;
                ce_order[ce].extend(order.iter().map(|&t| base + t));
            }
        }
        let mut ce_next: Vec<usize> = vec![0; n_ces];
        let mut ce_busy: Vec<bool> = vec![false; n_ces];

        let mut state: Vec<TileState> = vec![TileState::Blocked; total];
        let mut complete_time: Vec<Cycles> = vec![0; total];
        let mut compute_start: Vec<Cycles> = vec![0; total];

        let mut events = Events::new();
        let mut dma = DmaChannel::new(acc.board.bytes_per_cycle(), cfg.dma_latency_cycles);
        let mut event_count = 0u64;

        // Tile readiness transition: deps met -> issue load or mark ready.
        // Returns true if the tile's CE should be prodded.
        fn on_deps_met(
            gid: usize,
            now: Cycles,
            graph_tile: &crate::workload::TileSpec,
            state: &mut [TileState],
            dma: &mut DmaChannel,
            events: &mut Events,
            cfg: &SimConfig,
        ) -> bool {
            if graph_tile.load_bytes > 0 {
                state[gid] = TileState::Loading;
                dma.request(
                    now,
                    gid,
                    false,
                    cfg.burst_rounded(graph_tile.load_bytes),
                    events,
                );
                false
            } else {
                state[gid] = TileState::Ready;
                true
            }
        }

        // Seed: all dep-free tiles at t = 0. (DMA-only tiles always carry a
        // load, so readiness here means either a queued transfer or an
        // engine-eligible tile.)
        let mut prod_ces: Vec<usize> = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for gid in 0..total {
            if deps_remaining[gid] == 0 {
                let t = &graph.tiles[gid % per_image];
                debug_assert!(t.ce.is_some() || t.load_bytes > 0);
                if on_deps_met(gid, 0, t, &mut state, &mut dma, &mut events, cfg) {
                    if let Some(ce) = t.ce {
                        prod_ces.push(ce);
                    }
                }
            }
        }

        // Engine dispatch: start the head tile if it is ready.
        let try_start = |ce: usize,
                         now: Cycles,
                         ce_next: &[usize],
                         ce_busy: &mut [bool],
                         state: &mut [TileState],
                         compute_start: &mut [Cycles],
                         events: &mut Events| {
            if ce_busy[ce] {
                return;
            }
            let Some(&gid) = ce_order[ce].get(ce_next[ce]) else {
                return;
            };
            if state[gid] != TileState::Ready {
                return;
            }
            let t = &graph.tiles[gid % per_image];
            ce_busy[ce] = true;
            state[gid] = TileState::Computing;
            compute_start[gid] = now;
            events.push(
                now + t.compute_cycles + cfg.tile_overhead_cycles,
                Event::CeDone { ce, tile: gid },
            );
        };

        for ce in prod_ces {
            try_start(
                ce,
                0,
                &ce_next,
                &mut ce_busy,
                &mut state,
                &mut compute_start,
                &mut events,
            );
        }

        // Completion: notify dependents, cascade readiness.
        #[allow(clippy::too_many_arguments)]
        fn complete(
            gid: usize,
            now: Cycles,
            per_image: usize,
            graph: &TileGraph,
            deps_remaining: &mut [u32],
            dependents: &[Vec<usize>],
            state: &mut [TileState],
            complete_time: &mut [Cycles],
            dma: &mut DmaChannel,
            events: &mut Events,
            cfg: &SimConfig,
            wake_ces: &mut Vec<usize>,
        ) {
            state[gid] = TileState::Done;
            complete_time[gid] = now;
            for &dep in &dependents[gid] {
                deps_remaining[dep] -= 1;
                if deps_remaining[dep] == 0 {
                    let t = &graph.tiles[dep % per_image];
                    if on_deps_met(dep, now, t, state, dma, events, cfg) {
                        match t.ce {
                            Some(ce) => wake_ces.push(ce),
                            None => {
                                // Zero-load prefetch: completes immediately.
                                complete(
                                    dep,
                                    now,
                                    per_image,
                                    graph,
                                    deps_remaining,
                                    dependents,
                                    state,
                                    complete_time,
                                    dma,
                                    events,
                                    cfg,
                                    wake_ces,
                                );
                            }
                        }
                    }
                }
            }
        }

        // Cooperative cancellation checkpoint: one relaxed flag load per
        // slice of events, cheap enough to leave the hot loop's timing
        // behavior (and thus every completed result byte) untouched.
        const CANCEL_SLICE: u64 = 1024;

        let mut last_time = 0;
        while let Some((now, event)) = events.pop() {
            if event_count.is_multiple_of(CANCEL_SLICE) && cancel.is_cancelled() {
                return None;
            }
            event_count += 1;
            last_time = now;
            let mut wake: Vec<usize> = Vec::new();
            match event {
                Event::DmaDone { tile: gid, store } => {
                    dma.on_done(now, &mut events);
                    let t = &graph.tiles[gid % per_image];
                    if store {
                        complete(
                            gid,
                            now,
                            per_image,
                            graph,
                            &mut deps_remaining,
                            &dependents,
                            &mut state,
                            &mut complete_time,
                            &mut dma,
                            &mut events,
                            cfg,
                            &mut wake,
                        );
                        if let Some(ce) = t.ce {
                            wake.push(ce);
                        }
                    } else {
                        match t.ce {
                            Some(ce) => {
                                state[gid] = TileState::Ready;
                                wake.push(ce);
                            }
                            None => {
                                // Prefetch transfer done.
                                complete(
                                    gid,
                                    now,
                                    per_image,
                                    graph,
                                    &mut deps_remaining,
                                    &dependents,
                                    &mut state,
                                    &mut complete_time,
                                    &mut dma,
                                    &mut events,
                                    cfg,
                                    &mut wake,
                                );
                            }
                        }
                    }
                }
                Event::CeDone { ce, tile: gid } => {
                    ce_busy[ce] = false;
                    ce_next[ce] += 1;
                    let t = &graph.tiles[gid % per_image];
                    if t.store_bytes > 0 {
                        state[gid] = TileState::Storing;
                        dma.request(
                            now,
                            gid,
                            true,
                            cfg.burst_rounded(t.store_bytes),
                            &mut events,
                        );
                    } else {
                        complete(
                            gid,
                            now,
                            per_image,
                            graph,
                            &mut deps_remaining,
                            &dependents,
                            &mut state,
                            &mut complete_time,
                            &mut dma,
                            &mut events,
                            cfg,
                            &mut wake,
                        );
                    }
                    wake.push(ce);
                }
            }
            wake.sort_unstable();
            wake.dedup();
            for ce in wake {
                try_start(
                    ce,
                    now,
                    &ce_next,
                    &mut ce_busy,
                    &mut state,
                    &mut compute_start,
                    &mut events,
                );
            }
        }

        debug_assert!(
            state.iter().all(|&s| s == TileState::Done),
            "simulation drained with unfinished tiles"
        );

        // Results.
        let cyc = acc.board.cycle_time_s();
        let image_done = |img: usize| -> Cycles {
            let base = img * per_image;
            (base..base + per_image)
                .map(|g| complete_time[g])
                .max()
                .unwrap_or(0)
        };
        let latency_s = image_done(0) as f64 * cyc;
        let first_steady = 1usize;
        let steady_span = image_done(images - 1) - image_done(first_steady);
        let ii = steady_span as f64 / (images - 1 - first_steady) as f64;
        let throughput_fps = if ii > 0.0 {
            1.0 / (ii * cyc)
        } else {
            1.0 / latency_s.max(1e-12)
        };

        let (w, fl, fs) = graph_traffic(graph);

        // Segment windows of the first image.
        let n_segments = acc.segments.len();
        let mut windows = vec![(Cycles::MAX, 0 as Cycles); n_segments];
        for t in &graph.tiles {
            if t.ce.is_none() {
                continue;
            }
            let w = &mut windows[t.segment];
            w.0 = w.0.min(compute_start[t.id]);
            w.1 = w.1.max(complete_time[t.id]);
        }
        let segment_windows = windows
            .into_iter()
            .map(|(a, b)| (a.min(b) as f64 * cyc, b as f64 * cyc))
            .collect();

        Some(crate::SimResult {
            latency_s,
            throughput_fps,
            offchip_bytes: w + fl + fs,
            offchip_weight_bytes: w,
            offchip_fm_bytes: fl + fs,
            implemented_buffer_bytes: self.implemented_buffers(acc),
            segment_windows,
            dma_utilization: if last_time == 0 {
                0.0
            } else {
                dma.busy_cycles as f64 / last_time as f64
            },
            events: event_count,
            images,
        })
    }

    /// Bank-quantized implementation of the builder's buffer plan: each
    /// engine's buffer and each on-chip handoff rounds up to whole BRAM
    /// banks, plus fixed per-engine control banks — what post-synthesis
    /// utilization reports show.
    fn implemented_buffers(&self, acc: &BuiltAccelerator) -> u64 {
        let bank = self.config.bram_bank_bytes.max(1);
        let round = |bytes: u64| bytes.div_ceil(bank) * bank;
        let mut total = 0u64;
        for a in &acc.buffers.ce {
            // FM tiles and weight storage partition into separate banks.
            total += round(a.fm_tile_bytes);
            total += round(a.bytes.saturating_sub(a.fm_tile_bytes));
            total += self.config.control_banks_per_ce * bank;
        }
        for b in &acc.buffers.inter_segment {
            if b.on_chip {
                total += round(b.bytes_needed);
            }
        }
        total
    }
}
