//! The simulator proper: replicates a tile graph over a stream of images
//! and executes it event by event against the shared DMA channel and the
//! in-order compute engines.

use mccm_arch::BuiltAccelerator;
use mccm_core::{CancelToken, Evaluation};

use crate::config::SimConfig;
use crate::engine::{Cycles, DmaChannel, Event, Events, Tile};
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
        let mut run = Run::new(acc, graph, cfg, images);

        // Cooperative cancellation checkpoint: one relaxed flag load per
        // slice of events, cheap enough to leave the hot loop's timing
        // behavior (and thus every completed result byte) untouched.
        const CANCEL_SLICE: u64 = 1024;

        let mut event_count = 0u64;
        let mut last_time = 0;
        while let Some((now, event)) = run.events.pop() {
            if event_count.is_multiple_of(CANCEL_SLICE) && cancel.is_cancelled() {
                return None;
            }
            event_count += 1;
            last_time = now;
            run.step(now, event);
        }

        debug_assert!(
            run.state.iter().all(|&s| s == TileState::Done),
            "simulation drained with unfinished tiles"
        );

        // Results.
        let cyc = acc.board.cycle_time_s();
        let image_done = |img: usize| -> Cycles {
            let base = img * per_image;
            run.complete_time[base..base + per_image]
                .iter()
                .copied()
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
        for (id, t) in graph.tiles.iter().enumerate() {
            if t.ce.is_none() {
                continue;
            }
            let w = &mut windows[t.segment];
            w.0 = w.0.min(run.compute_start[id]);
            w.1 = w.1.max(run.complete_time[id]);
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
                run.dma.busy_cycles as f64 / last_time as f64
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

/// The state of one simulation run over `images` copies of a tile graph,
/// owned by the call that simulates: nothing is shared between runs.
///
/// Tiles are numbered image after image (see [`Tile`]). Besides the
/// graph's within-image edges, two kinds of edge cross into the next
/// image, derived on the fly rather than stored:
/// - a weight prefetch waits for the same prefetch of the previous image
///   (the block's weight buffers recycle per image);
/// - without coarse pipelining, an image's first tile waits for the
///   previous image's last.
///
/// No tile is the source of both. A completed tile releases its
/// within-image dependents first, then its cross-edge target. That order
/// decides which of several released loads an idle DMA channel starts
/// first, so results depend on it (`tests/digest.rs` pins them).
struct Run<'a> {
    graph: &'a TileGraph,
    cfg: &'a SimConfig,
    per_image: usize,
    images: usize,
    serialize_images: bool,
    /// Unfinished dependencies per global tile.
    deps_remaining: Vec<u32>,
    state: Vec<TileState>,
    complete_time: Vec<Cycles>,
    /// Compute start times of the first image's tiles.
    compute_start: Vec<Cycles>,
    /// Per engine, `(image, index into its ce_order)` of its next tile.
    ce_next: Vec<(usize, usize)>,
    ce_busy: Vec<bool>,
    events: Events,
    dma: DmaChannel,
    /// Engines to prod after the current event.
    wake: Vec<usize>,
}

impl<'a> Run<'a> {
    /// Lays out the run and issues every dependency-free tile at t = 0.
    fn new(
        acc: &BuiltAccelerator,
        graph: &'a TileGraph,
        cfg: &'a SimConfig,
        images: usize,
    ) -> Self {
        let per_image = graph.tiles.len();
        let total = per_image * images;
        let n_ces = acc.ces.len();
        let serialize_images = !acc.coarse_pipeline();
        let mut deps_remaining = Vec::with_capacity(total);
        for img in 0..images {
            for (id, t) in graph.tiles.iter().enumerate() {
                let mut n = graph.deps.row(id).len();
                if img > 0 {
                    // A first-tile prefetch waits on both cross edges.
                    n += usize::from(t.ce.is_none()) + usize::from(serialize_images && id == 0);
                }
                deps_remaining.push(n as u32);
            }
        }
        let mut run = Self {
            graph,
            cfg,
            per_image,
            images,
            serialize_images,
            deps_remaining,
            state: vec![TileState::Blocked; total],
            complete_time: vec![0; total],
            compute_start: vec![0; per_image],
            ce_next: vec![(0, 0); n_ces],
            ce_busy: vec![false; n_ces],
            events: Events::new(n_ces),
            dma: DmaChannel::new(acc.board.bytes_per_cycle(), cfg.dma_latency_cycles),
            wake: Vec::with_capacity(n_ces),
        };

        // Seed: all dep-free tiles at t = 0, then prod their engines in
        // tile order. (DMA-only tiles always carry a load, so readiness
        // here means either a queued transfer or an engine-eligible tile.)
        for img in 0..images {
            let base = img * per_image;
            for (id, t) in graph.tiles.iter().enumerate() {
                let tile = Tile { gid: base + id, id };
                if run.deps_remaining[tile.gid] == 0 {
                    debug_assert!(t.ce.is_some() || t.load_bytes > 0);
                    if run.deps_met(tile, 0) {
                        if let Some(ce) = t.ce {
                            run.wake.push(ce);
                        }
                    }
                }
            }
        }
        for i in 0..run.wake.len() {
            run.try_start(run.wake[i], 0);
        }
        run
    }

    /// Handles one popped event, then prods every woken engine in
    /// ascending id order.
    fn step(&mut self, now: Cycles, event: Event) {
        let graph = self.graph;
        self.wake.clear();
        match event {
            Event::DmaDone { tile, store } => {
                self.dma.on_done(now, &mut self.events);
                let t = &graph.tiles[tile.id];
                if store {
                    self.complete(tile, now);
                    if let Some(ce) = t.ce {
                        self.wake.push(ce);
                    }
                } else {
                    match t.ce {
                        Some(ce) => {
                            self.state[tile.gid] = TileState::Ready;
                            self.wake.push(ce);
                        }
                        // Prefetch transfer done.
                        None => self.complete(tile, now),
                    }
                }
            }
            Event::CeDone { ce, tile } => {
                self.ce_busy[ce] = false;
                let next = &mut self.ce_next[ce];
                next.1 += 1;
                if next.1 == graph.ce_order[ce].len() {
                    *next = (next.0 + 1, 0);
                }
                let t = &graph.tiles[tile.id];
                if t.store_bytes > 0 {
                    self.state[tile.gid] = TileState::Storing;
                    let bytes = self.cfg.burst_rounded(t.store_bytes);
                    self.dma.request(now, tile, true, bytes, &mut self.events);
                } else {
                    self.complete(tile, now);
                }
                self.wake.push(ce);
            }
        }
        self.wake.sort_unstable();
        self.wake.dedup();
        for i in 0..self.wake.len() {
            self.try_start(self.wake[i], now);
        }
    }

    /// Tile readiness transition: deps met -> issue load or mark ready.
    /// Returns true if the tile needs no load (its engine should be
    /// prodded).
    fn deps_met(&mut self, tile: Tile, now: Cycles) -> bool {
        let load = self.graph.tiles[tile.id].load_bytes;
        if load > 0 {
            self.state[tile.gid] = TileState::Loading;
            let bytes = self.cfg.burst_rounded(load);
            self.dma.request(now, tile, false, bytes, &mut self.events);
            false
        } else {
            self.state[tile.gid] = TileState::Ready;
            true
        }
    }

    /// Completion: notify dependents, cascade readiness.
    fn complete(&mut self, tile: Tile, now: Cycles) {
        let Tile { gid, id } = tile;
        self.state[gid] = TileState::Done;
        self.complete_time[gid] = now;
        let graph = self.graph;
        let base = gid - id;
        for &dep in graph.dependents.row(id) {
            self.release(
                Tile {
                    gid: base + dep,
                    id: dep,
                },
                now,
            );
        }
        let next_image = base + self.per_image;
        if next_image < self.state.len() {
            if graph.tiles[id].ce.is_none() {
                self.release(
                    Tile {
                        gid: next_image + id,
                        id,
                    },
                    now,
                );
            }
            if self.serialize_images && gid + 1 == next_image {
                self.release(
                    Tile {
                        gid: next_image,
                        id: 0,
                    },
                    now,
                );
            }
        }
    }

    /// One of `tile`'s dependencies completed.
    fn release(&mut self, tile: Tile, now: Cycles) {
        self.deps_remaining[tile.gid] -= 1;
        if self.deps_remaining[tile.gid] == 0 && self.deps_met(tile, now) {
            match self.graph.tiles[tile.id].ce {
                Some(ce) => self.wake.push(ce),
                // Zero-load prefetch: completes immediately.
                None => self.complete(tile, now),
            }
        }
    }

    /// Engine dispatch: start the head tile if it is ready.
    fn try_start(&mut self, ce: usize, now: Cycles) {
        let (img, pos) = self.ce_next[ce];
        if self.ce_busy[ce] || img == self.images {
            return;
        }
        let Some(&id) = self.graph.ce_order[ce].get(pos) else {
            return;
        };
        let tile = Tile {
            gid: img * self.per_image + id,
            id,
        };
        if self.state[tile.gid] != TileState::Ready {
            return;
        }
        self.ce_busy[ce] = true;
        self.state[tile.gid] = TileState::Computing;
        if img == 0 {
            self.compute_start[id] = now;
        }
        let done = now + self.graph.tiles[id].compute_cycles + self.cfg.tile_overhead_cycles;
        self.events.push(done, Event::CeDone { ce, tile });
    }
}
