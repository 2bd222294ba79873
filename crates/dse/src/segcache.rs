//! Per-segment cost caching and **delta evaluation** of custom designs.
//!
//! NSGA-II variation is local — a head shift, one boundary move, or a
//! schedule flip touches at most two CEs — yet full evaluation pays a
//! whole-accelerator build plus both block-model cores per offspring.
//! This module exploits the fast lane's explicit decomposition
//! (`CostModel::segment_cost` + `CostModel::recombine`): a design's
//! segments are keyed by everything their cost depends on, cached across
//! designs, and a warm design is recombined from cached [`SegmentCost`]s
//! without building an accelerator at all.
//!
//! **Invariant (delta ≡ full ≡ rich):** [`Explorer::custom_summary_delta`]
//! is bit-identical to `Explorer::custom_summary_cell` for every design —
//! including the infeasible (`Ok(None)`) cases — for any cache state.
//! Cache contents only decide *how* a cost is obtained (cached copy vs
//! fresh core run), never its value, which is what keeps delta-evaluated
//! optimizer fronts worker-invariant and identical to full-evaluation
//! fronts. Enforced by `tests/fastlane_equivalence.rs` and
//! `tests/guided_dse.rs`.
//!
//! This module is the **only** place segment-cache and design-memo keys
//! are constructed (the `segment-cache-key` conformance rule) — key
//! construction encodes exactly which inputs a cached cost depends on,
//! and scattering that knowledge would let a new dependency silently
//! alias cache entries.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use mccm_arch::builder::distribute_pes;
use mccm_arch::{
    distribute_slack, notation, ArchError, CeBufferAlloc, CeContext, CeRole, InterSegmentBuffer,
    PeAllocation, Schedule,
};
use mccm_core::{
    Bandwidth, Bytes, CostModel, DesignCoupling, EvalScratch, Macs, ModelConfig, SegmentCost,
};

use crate::explorer::{CustomPoint, Explorer};
use crate::space::CustomDesign;

/// Largest pipelined head the packed segment key covers (the paper space
/// caps designs at 11 CEs, so heads at 10). Larger heads fall back to
/// full evaluation rather than widening every key.
pub const MAX_HEAD_CES: usize = 10;

/// Bound on cached segment costs per [`SegCache`] (FIFO eviction past
/// it). At ~120 bytes/entry this is a few MB per island; optimizer runs
/// mint a handful of fresh segments per design and revisit heavily, so
/// the cap only bites far past the 100k-design scale.
const SEG_CACHE_CAP: usize = 1 << 16;

/// Bound on memoized design outcomes per island. Inserts past the cap
/// are dropped (lookups stay correct; a re-visit of a dropped design
/// costs budget again, exactly as if it were new) — within every test
/// and bench budget the cap never binds, so bounded and unbounded memos
/// produce identical trajectories.
const DESIGN_MEMO_CAP: usize = 1 << 17;

/// Bound on locally mirrored `ce_context` results (insert-drop past it,
/// as with the design memo — lookups stay correct either way). Matches
/// the builder's own memo cap.
const CTX_CACHE_CAP: usize = 1 << 18;

/// Multiply-rotate hasher (the FxHash construction) for the hot cache
/// maps. Segment keys are probed a dozen times per delta evaluation and
/// `SegKey::Pipe` spans ~120 bytes, where the default SipHash costs more
/// than the recombination it guards; these maps never face untrusted
/// keys, so HashDoS resistance buys nothing here.
#[derive(Debug, Default)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        // Mixing a u128 as two words is the hash, not a narrowing — both
        // halves enter the state.
        #[allow(clippy::cast_possible_truncation)]
        {
            self.add(i as u64);
            self.add((i >> 64) as u64);
        }
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        // usize is at most 64 bits on every supported target.
        #[allow(clippy::cast_possible_truncation)]
        self.add(i as u64);
    }
}

type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Everything one segment's [`SegmentCost`] depends on, given a fixed
/// (CNN, board, precision, model config): the layer range, the executor
/// shape, the granted buffer bytes, and the boundary placement. Two
/// designs sharing a key share the cost bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SegKey {
    /// A single-CE tail segment. `pes` determines the memoized
    /// parallelism (and with it the tile/stream minimums); `bytes` is the
    /// granted capacity after slack distribution.
    Single {
        first: usize,
        len: usize,
        pes: u32,
        schedule: Schedule,
        bytes: u64,
        input_off: bool,
        output_off: bool,
    },
    /// The pipelined head block (always segment 0 over layers
    /// `0..len`, one CE per layer, so `input_off` is always true and the
    /// layer range is implied by `len`). Unused stages stay zeroed.
    Pipe {
        len: usize,
        stages: [(u32, u64); MAX_HEAD_CES],
        output_off: bool,
    },
}

/// Compact interned form of a [`CustomDesign`] for the per-island design
/// memo — replaces cloning whole designs (head + boundary `Vec` +
/// schedule) into `HashMap` keys. Paper-space designs pack into one
/// `u128`: head in bits 0..8, schedule (0 = layer-by-layer, else the
/// fuse depth ≥ 2) in 8..16, tail-segment count in 16..20, then up to
/// ten interior boundaries at 10 bits each from bit 20. The terminal
/// boundary is always the layer count — constant within one search — so
/// it is not packed. Designs outside those ranges keep the boxed form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum DesignKey {
    Packed(u128),
    Big(Box<CustomDesign>),
}

impl DesignKey {
    pub(crate) fn of(design: &CustomDesign) -> Self {
        let big = || DesignKey::Big(Box::new(design.clone()));
        // `fuse_depth()` is injective over space members: layer-by-layer
        // is depth 1 and every depth-first member has depth ≥ 2 (depth-1
        // depth-first is excluded from the space as a duplicate).
        let schedule = design.schedule.fuse_depth();
        let schedule = if matches!(design.schedule, Schedule::LayerByLayer) {
            0
        } else {
            schedule
        };
        let tails = design.tail_ends.len();
        if design.head_layers > 0xFF || schedule > 0xFF || tails == 0 || tails > 11 {
            return big();
        }
        let mut packed =
            design.head_layers as u128 | (schedule as u128) << 8 | (tails as u128) << 16;
        for (i, &end) in design.tail_ends[..tails - 1].iter().enumerate() {
            if end > 0x3FF {
                return big();
            }
            packed |= (end as u128) << (20 + 10 * i);
        }
        DesignKey::Packed(packed)
    }
}

/// Per-island memo of design outcomes (`None` = infeasible), keyed by
/// [`DesignKey`], bounded by [`DESIGN_MEMO_CAP`] with insert-drop
/// semantics and an eviction counter.
#[derive(Debug, Default)]
pub(crate) struct DesignMemo {
    map: HashMap<DesignKey, Option<Vec<f64>>, FxBuildHasher>,
    hits: u64,
    evictions: u64,
}

impl DesignMemo {
    pub(crate) fn get(&mut self, key: &DesignKey) -> Option<&Option<Vec<f64>>> {
        let hit = self.map.get(key);
        if hit.is_some() {
            self.hits += 1;
        }
        hit
    }

    pub(crate) fn insert(&mut self, key: DesignKey, values: Option<Vec<f64>>) {
        if self.map.len() < DESIGN_MEMO_CAP {
            self.map.insert(key, values);
        } else {
            self.evictions += 1;
        }
    }

    /// This memo's counters as a [`CacheStats`] record (segment counters
    /// zero — the segment cache is tracked separately).
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            memo_hits: self.hits,
            memo_evictions: self.evictions,
            ..CacheStats::default()
        }
    }
}

/// Segment-cache and design-memo statistics of one optimizer run (or one
/// island), summed island-wise into [`crate::GuidedFront`] and surfaced
/// through the facade's Outcome JSON and `mccm serve stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Segment costs served from cache.
    pub seg_hits: u64,
    /// Segment costs computed fresh (and inserted).
    pub seg_misses: u64,
    /// Segment entries evicted (FIFO) past the cache bound.
    pub seg_evictions: u64,
    /// Designs recombined entirely from cached segments — no
    /// accelerator build, no block-model core runs.
    pub delta_recombines: u64,
    /// Designs that paid a full accelerator build (≥ 1 segment miss).
    pub full_builds: u64,
    /// Design outcomes served from the per-island memo (budget-free).
    pub memo_hits: u64,
    /// Design-memo inserts dropped past the memo bound.
    pub memo_evictions: u64,
}

impl CacheStats {
    /// Accumulates another stats record into this one.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.seg_hits += other.seg_hits;
        self.seg_misses += other.seg_misses;
        self.seg_evictions += other.seg_evictions;
        self.delta_recombines += other.delta_recombines;
        self.full_builds += other.full_builds;
        self.memo_hits += other.memo_hits;
        self.memo_evictions += other.memo_evictions;
    }

    /// Fraction of segment lookups served from cache (0 when none).
    pub fn seg_hit_rate(&self) -> f64 {
        let total = self.seg_hits + self.seg_misses;
        if total == 0 {
            return 0.0;
        }
        // Counters sit far below 2^53; the ratio is exact enough for a
        // diagnostic rate.
        #[allow(clippy::cast_precision_loss)]
        let rate = self.seg_hits as f64 / total as f64;
        rate
    }
}

/// Bounded per-island cache of [`SegmentCost`]s keyed by `SegKey`,
/// plus the explorer's sweep-invariant terms and the reusable staging
/// buffers of the delta path (one `SegCache` per island/worker — it is
/// not shared across threads, which keeps eviction order deterministic
/// per island).
#[derive(Debug)]
pub struct SegCache {
    /// Sweep-invariant inputs of the explorer this cache was built for.
    ctx: DeltaContext,
    map: HashMap<SegKey, SegmentCost, FxBuildHasher>,
    fifo: VecDeque<SegKey>,
    /// Rendered notation strings per design — `notation::format` costs
    /// more than the whole recombination on the warm path, and the string
    /// is a pure function of the design under this cache's explorer.
    notations: HashMap<DesignKey, String, FxBuildHasher>,
    /// Lock-free front for the builder's `ce_context` memo. The builder
    /// memo is shared behind an `RwLock` and hashes with SipHash; a dozen
    /// probes per delta evaluation make that the dominant warm-path cost.
    /// Precision and options are fixed per explorer (and a cache must not
    /// be shared across explorers), so the key needs no precision field.
    ctxs: HashMap<(u32, usize, usize, CeRole, Schedule), CeContext, FxBuildHasher>,
    hits: u64,
    misses: u64,
    evictions: u64,
    delta_recombines: u64,
    full_builds: u64,
    // Reusable per-design staging (cleared per evaluation).
    workloads: Vec<u64>,
    allocs: Vec<CeBufferAlloc>,
    inter: Vec<InterSegmentBuffer>,
    keys: Vec<SegKey>,
    staged: Vec<Option<SegmentCost>>,
    costs: Vec<SegmentCost>,
}

impl SegCache {
    /// Creates an empty cache for `explorer`'s model, board, and builder
    /// options (buffers grow on first use). The cache serves
    /// [`Explorer::custom_summary_delta`] calls on that explorer only.
    pub fn new(explorer: &Explorer) -> Self {
        Self {
            ctx: DeltaContext::new(explorer),
            map: HashMap::default(),
            fifo: VecDeque::new(),
            notations: HashMap::default(),
            ctxs: HashMap::default(),
            hits: 0,
            misses: 0,
            evictions: 0,
            delta_recombines: 0,
            full_builds: 0,
            workloads: Vec::new(),
            allocs: Vec::new(),
            inter: Vec::new(),
            keys: Vec::new(),
            staged: Vec::new(),
            costs: Vec::new(),
        }
    }

    /// Cached segment entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// This cache's counters as a [`CacheStats`] record (memo counters
    /// zero — the design memo is tracked separately).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            seg_hits: self.hits,
            seg_misses: self.misses,
            seg_evictions: self.evictions,
            delta_recombines: self.delta_recombines,
            full_builds: self.full_builds,
            memo_hits: 0,
            memo_evictions: 0,
        }
    }

    fn insert(&mut self, key: SegKey, cost: SegmentCost) {
        if self.map.len() >= SEG_CACHE_CAP {
            if let Some(oldest) = self.fifo.pop_front() {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        if self.map.insert(key, cost).is_none() {
            self.fifo.push_back(key);
        }
    }
}

/// Sweep-invariant inputs of the delta path for one `(CNN, board)` pair,
/// precomputed once per [`SegCache`]: MAC prefix sums for the PE split,
/// per-layer handoff sizes, and the board/config terms of
/// [`DesignCoupling`]. Uses the default [`ModelConfig`] — the same
/// configuration `Explorer::custom_summary_cell` evaluates under.
#[derive(Debug)]
struct DeltaContext {
    /// `mac_prefix[i]` = Σ MACs of layers `0..i` (length `n + 1`).
    mac_prefix: Vec<u64>,
    /// Handoff buffer need after layer `l`: 2 × its OFM bytes (custom
    /// designs coarse-pipeline disjoint blocks, so every handoff is
    /// double-buffered).
    handoff_bytes: Vec<u64>,
    total_macs: Macs,
    dsps: u32,
    uniform_pes: bool,
    bram_bytes: u64,
    cycle_time_s: f64,
    bandwidth: Bandwidth,
}

impl DeltaContext {
    /// Precomputes the context for `explorer`'s model, board, and builder
    /// options.
    fn new(explorer: &Explorer) -> Self {
        let config = ModelConfig::default();
        let convs = explorer.model().conv_view();
        let board = explorer.builder().board();
        let precision = explorer.builder().precision();
        let mut mac_prefix = Vec::with_capacity(convs.len() + 1);
        mac_prefix.push(0u64);
        for c in &convs {
            mac_prefix.push(mac_prefix.last().expect("non-empty") + c.macs);
        }
        let handoff_bytes = convs
            .iter()
            .map(|c| 2 * c.ofm.elements() * u64::from(precision.activation_bytes))
            .collect();
        Self {
            mac_prefix,
            handoff_bytes,
            total_macs: convs.iter().map(|c| Macs::new(c.macs)).sum(),
            dsps: board.dsps,
            uniform_pes: matches!(
                explorer.builder().options().pe_allocation,
                PeAllocation::Uniform
            ),
            bram_bytes: board.bram_bytes(),
            cycle_time_s: board.cycle_time_s(),
            bandwidth: Bandwidth::new(board.bytes_per_cycle() * config.bandwidth_derate),
        }
    }

    fn macs(&self, first: usize, end: usize) -> u64 {
        self.mac_prefix[end] - self.mac_prefix[first]
    }
}

impl Explorer {
    /// Delta twin of `custom_summary_cell`: evaluates a custom design by
    /// recombining cached per-segment costs, falling back to one full
    /// build (which populates the cache) when any segment misses.
    /// `Ok(None)` when infeasible, `Err` on real faults — **bit-identical
    /// to the full path in all three cases, for any cache state**.
    ///
    /// `cache` must have been built from this explorer (same model,
    /// board, precision, builder options) by [`SegCache::new`].
    ///
    /// # Errors
    ///
    /// Propagates real builder faults, exactly as `custom_summary_cell`.
    pub fn custom_summary_delta(
        &self,
        design: &CustomDesign,
        cache: &mut SegCache,
        scratch: &mut EvalScratch,
    ) -> Result<Option<CustomPoint>, ArchError> {
        let ctx = &cache.ctx;
        let spec = match design.to_spec(self.model()) {
            Ok(spec) => spec,
            Err(ArchError::Infeasible { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        let n_ces = spec.ce_count();
        // Mirror of the builder's platform check — the only way a
        // to_spec-valid custom design fails to build.
        if usize::try_from(ctx.dsps).expect("u32 fits usize") < n_ces {
            return Ok(None);
        }
        let h = design.head_layers;
        if h > MAX_HEAD_CES {
            // Key would not pack the head; pay the full path.
            cache.full_builds += 1;
            return self.custom_summary_cell(design, scratch);
        }

        // PE split from per-CE workloads, exactly as the full build.
        cache.workloads.clear();
        for l in 0..h {
            cache.workloads.push(ctx.macs(l, l + 1));
        }
        let mut first = h;
        for &end in &design.tail_ends {
            cache.workloads.push(ctx.macs(first, end));
            first = end;
        }
        if ctx.uniform_pes {
            cache.workloads.clear();
            cache.workloads.resize(n_ces, 1);
        }
        let pes = distribute_pes(ctx.dsps, &cache.workloads);

        // Per-CE contexts through the builder's memoized hook, then the
        // whole-design slack distribution over their needs.
        cache.allocs.clear();
        for (i, &p) in pes.iter().enumerate().take(h) {
            let key = (p, i, 1usize, CeRole::Pipelined, Schedule::LayerByLayer);
            let c = match cache.ctxs.get(&key) {
                Some(c) => *c,
                None => {
                    let c = self.builder().ce_context(
                        p,
                        i,
                        1,
                        CeRole::Pipelined,
                        Schedule::LayerByLayer,
                    );
                    if cache.ctxs.len() < CTX_CACHE_CAP {
                        cache.ctxs.insert(key, c);
                    }
                    c
                }
            };
            cache.allocs.push(c.needs);
        }
        let mut first = h;
        for (j, &end) in design.tail_ends.iter().enumerate() {
            let key = (
                pes[h + j],
                first,
                end - first,
                CeRole::Single,
                design.schedule,
            );
            let c = match cache.ctxs.get(&key) {
                Some(c) => *c,
                None => {
                    let c = self.builder().ce_context(
                        pes[h + j],
                        first,
                        end - first,
                        CeRole::Single,
                        design.schedule,
                    );
                    if cache.ctxs.len() < CTX_CACHE_CAP {
                        cache.ctxs.insert(key, c);
                    }
                    c
                }
            };
            cache.allocs.push(c.needs);
            first = end;
        }
        cache.inter.clear();
        cache.inter.push(InterSegmentBuffer {
            bytes_needed: ctx.handoff_bytes[h - 1],
            on_chip: false,
            pipelined_handoff: true,
            same_block: false,
        });
        for &end in &design.tail_ends[..design.tail_ends.len() - 1] {
            cache.inter.push(InterSegmentBuffer {
                bytes_needed: ctx.handoff_bytes[end - 1],
                on_chip: false,
                pipelined_handoff: true,
                same_block: false,
            });
        }
        // Never errors: an unfit plan degrades to minimum grants with
        // off-chip handoffs, exactly as `plan_buffers`.
        distribute_slack(
            &mut cache.allocs,
            |i| {
                if i < h {
                    CeRole::Pipelined
                } else {
                    CeRole::Single
                }
            },
            &mut cache.inter,
            ctx.bram_bytes,
        );

        // Segment keys: head block, then one single-CE segment per tail.
        cache.keys.clear();
        let mut stages = [(0u32, 0u64); MAX_HEAD_CES];
        for i in 0..h {
            stages[i] = (pes[i], cache.allocs[i].bytes);
        }
        cache.keys.push(SegKey::Pipe {
            len: h,
            stages,
            output_off: !cache.inter[0].on_chip,
        });
        let mut first = h;
        for (j, &end) in design.tail_ends.iter().enumerate() {
            let input_off = !cache.inter[j].on_chip;
            let output_off = j + 1 == design.tail_ends.len() || !cache.inter[j + 1].on_chip;
            cache.keys.push(SegKey::Single {
                first,
                len: end - first,
                pes: pes[h + j],
                schedule: design.schedule,
                bytes: cache.allocs[h + j].bytes,
                input_off,
                output_off,
            });
            first = end;
        }

        // Probe. Cached costs carry the block identity of the design they
        // were computed in; re-stamp it for this design's CE numbering
        // (the cost fields themselves are identity-independent).
        cache.staged.clear();
        let mut all_hit = true;
        for (idx, key) in cache.keys.iter().enumerate() {
            cache.staged.push(cache.map.get(key).map(|&c| {
                let (first_ce, ce_len) = if idx == 0 { (0, h) } else { (h + idx - 1, 1) };
                SegmentCost {
                    first_ce,
                    ce_len,
                    ..c
                }
            }));
            all_hit &= cache.staged[idx].is_some();
        }

        let config = ModelConfig::default();
        if all_hit {
            cache.hits += cache.keys.len() as u64;
            cache.delta_recombines += 1;
            let req: u64 = cache.allocs.iter().map(|a| a.ideal_bytes).sum::<u64>()
                + cache.inter.iter().map(|b| b.bytes_needed).sum::<u64>();
            let granted: u64 = cache.allocs.iter().map(|a| a.bytes).sum::<u64>()
                + cache
                    .inter
                    .iter()
                    .filter(|b| b.on_chip)
                    .map(|b| b.bytes_needed)
                    .sum::<u64>();
            let dkey = DesignKey::of(design);
            let notation = match cache.notations.get(&dkey) {
                Some(s) => s.clone(),
                None => {
                    let s = notation::format(&spec);
                    if cache.notations.len() < DESIGN_MEMO_CAP {
                        cache.notations.insert(dkey, s.clone());
                    }
                    s
                }
            };
            let coupling = DesignCoupling {
                notation,
                ce_count: n_ces,
                total_macs: ctx.total_macs,
                coarse_pipeline: spec.coarse_pipeline,
                cycle_time_s: ctx.cycle_time_s,
                bandwidth: ctx.bandwidth,
                buffer_req_bytes: Bytes::new(req),
                buffer_alloc_bytes: Bytes::new(granted),
            };
            cache.costs.clear();
            cache
                .costs
                .extend(cache.staged.iter().map(|c| c.expect("all hit")));
            let costs = std::mem::take(&mut cache.costs);
            let summary = CostModel::recombine(coupling, &costs, scratch);
            cache.costs = costs;
            return Ok(Some(CustomPoint {
                design: design.clone(),
                summary,
            }));
        }

        // ≥ 1 segment missed: one full build, fresh cores only for the
        // missing segments, cache them, recombine.
        let acc = match self.builder().build(&spec) {
            Ok(acc) => acc,
            Err(ArchError::Infeasible { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        cache.full_builds += 1;
        #[cfg(debug_assertions)]
        {
            // The hook-planned contexts must be the built plan, byte for
            // byte — the property every cached cost's validity rests on.
            for (i, a) in cache.allocs.iter().enumerate() {
                debug_assert_eq!(a, &acc.buffers.ce[i], "CE {i} alloc diverged");
                debug_assert_eq!(pes[i], acc.ces[i].pes, "CE {i} PE split diverged");
            }
            for (i, b) in cache.inter.iter().enumerate() {
                debug_assert_eq!(b, &acc.buffers.inter_segment[i], "handoff {i} diverged");
            }
        }
        let mut staged = std::mem::take(&mut cache.staged);
        for (idx, slot) in staged.iter_mut().enumerate() {
            if let Some(_cost) = slot {
                cache.hits += 1;
                #[cfg(debug_assertions)]
                debug_assert_eq!(
                    *_cost,
                    CostModel::segment_cost(&acc, idx, &config, scratch),
                    "cached segment {idx} diverged from a fresh core run"
                );
            } else {
                let cost = CostModel::segment_cost(&acc, idx, &config, scratch);
                cache.insert(cache.keys[idx], cost);
                cache.misses += 1;
                *slot = Some(cost);
            }
        }
        cache.costs.clear();
        cache
            .costs
            .extend(staged.iter().map(|c| c.expect("all staged")));
        cache.staged = staged;
        let costs = std::mem::take(&mut cache.costs);
        let summary =
            CostModel::recombine(CostModel::design_coupling(&acc, &config), &costs, scratch);
        cache.costs = costs;
        // Seed the notation memo so this design's first all-hit revisit
        // skips the formatter along with the build.
        if cache.notations.len() < DESIGN_MEMO_CAP {
            cache
                .notations
                .insert(DesignKey::of(design), summary.notation.clone());
        }
        Ok(Some(CustomPoint {
            design: design.clone(),
            summary,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccm_fpga::FpgaBoard;

    use crate::sampler::CustomSampler;
    use mccm_cnn::zoo;

    #[test]
    fn design_key_packs_paper_space_designs() {
        let d = CustomDesign {
            head_layers: 3,
            tail_ends: vec![20, 52, 74],
            schedule: Schedule::LayerByLayer,
        };
        assert!(matches!(DesignKey::of(&d), DesignKey::Packed(_)));
        let df = CustomDesign {
            schedule: Schedule::DepthFirst { fuse_depth: 3 },
            ..d.clone()
        };
        assert!(matches!(DesignKey::of(&df), DesignKey::Packed(_)));
        assert_ne!(DesignKey::of(&d), DesignKey::of(&df));
        // Out-of-range designs take the honest boxed fallback.
        let huge = CustomDesign {
            head_layers: 300,
            tail_ends: vec![301, 2000],
            schedule: Schedule::LayerByLayer,
        };
        assert!(matches!(DesignKey::of(&huge), DesignKey::Big(_)));
    }

    #[test]
    fn design_keys_are_injective_over_sampled_designs() {
        let space = crate::space::CustomSpace::paper_range(74).with_max_fuse_depth(3);
        let mut sampler = CustomSampler::new(space, 21);
        let mut seen: HashMap<DesignKey, CustomDesign> = HashMap::new();
        for _ in 0..2000 {
            let d = sampler.sample();
            if let Some(prev) = seen.insert(DesignKey::of(&d), d.clone()) {
                assert_eq!(prev, d, "two designs collided on one key");
            }
        }
    }

    #[test]
    fn delta_matches_full_on_sampled_designs_bit_for_bit() {
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        let mut cache = SegCache::new(&e);
        let mut scratch = EvalScratch::new();
        let mut scratch_full = EvalScratch::new();
        let space = e.paper_space().with_max_fuse_depth(3);
        let mut sampler = CustomSampler::new(space, 5);
        for _ in 0..200 {
            let d = sampler.sample();
            let delta = e
                .custom_summary_delta(&d, &mut cache, &mut scratch)
                .unwrap();
            let full = e.custom_summary_cell(&d, &mut scratch_full).unwrap();
            assert_eq!(
                delta.map(|p| p.summary),
                full.map(|p| p.summary),
                "delta diverged on {d:?}"
            );
        }
        let stats = cache.stats();
        assert!(stats.seg_hits > 0, "repeat sampling must warm the cache");
        assert!(stats.seg_misses > 0);
    }

    #[test]
    fn warm_cache_recombines_without_building() {
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        let mut cache = SegCache::new(&e);
        let mut scratch = EvalScratch::new();
        let d = CustomDesign {
            head_layers: 3,
            tail_ends: vec![20, 52],
            schedule: Schedule::LayerByLayer,
        };
        let cold = e
            .custom_summary_delta(&d, &mut cache, &mut scratch)
            .unwrap()
            .unwrap();
        assert_eq!(cache.stats().full_builds, 1);
        assert_eq!(cache.stats().delta_recombines, 0);
        let warm = e
            .custom_summary_delta(&d, &mut cache, &mut scratch)
            .unwrap()
            .unwrap();
        assert_eq!(cache.stats().full_builds, 1, "warm revisit must not build");
        assert_eq!(cache.stats().delta_recombines, 1);
        assert_eq!(cold.summary, warm.summary);
    }

    #[test]
    fn infeasible_designs_agree_with_the_full_path() {
        // A board with fewer DSPs than CEs: both paths must say None.
        let m = zoo::mobilenet_v2();
        let tiny = FpgaBoard::new("tiny", 3, mccm_fpga::MiB(0.5), 1.0);
        let e = Explorer::new(&m, &tiny);
        let mut cache = SegCache::new(&e);
        let mut scratch = EvalScratch::new();
        let d = CustomDesign {
            head_layers: 3,
            tail_ends: vec![20, 52],
            schedule: Schedule::LayerByLayer,
        };
        assert_eq!(
            e.custom_summary_delta(&d, &mut cache, &mut scratch)
                .unwrap(),
            None
        );
        assert_eq!(e.custom_summary_cell(&d, &mut scratch).unwrap(), None);
    }
}
