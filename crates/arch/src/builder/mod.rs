//! The Multiple-CE Builder (§III-A): turns a specification, a CNN, and a
//! platform into a [`BuiltAccelerator`] with all implementation details
//! decided — segment expansion, PE distribution, per-CE parallelism, and
//! the on-chip buffer plan.

mod buffers;
mod parallelism;
mod pe_alloc;

pub use buffers::{
    ce_needs, depth_first_ideal, distribute_slack, fuse_groups, fused_group_bytes, handoff_need,
    BufferPlan, CeBufferAlloc, InterSegmentBuffer,
};
pub use parallelism::{select_parallelism, select_row_parallelism};
pub use pe_alloc::distribute_pes;

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use mccm_cnn::{CnnModel, ConvInfo};
use mccm_fpga::{FpgaBoard, Precision};

use crate::accelerator::BuiltAccelerator;
use crate::engine::{CeRole, ComputeEngine, Parallelism};
use crate::error::ArchError;
use crate::spec::{AcceleratorSpec, BlockSpec, Schedule};

/// How the DSP budget is split across engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeAllocation {
    /// Proportional to each engine's workload in MACs (the paper's
    /// heuristic, §II-C/§IV-A1).
    #[default]
    Proportional,
    /// Equal share per engine. Kept for the ablation study: it unbalances
    /// pipelines and inflates single-CE segment latencies.
    Uniform,
}

/// Non-default builder heuristics, used by the ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuilderOptions {
    /// PE distribution policy.
    pub pe_allocation: PeAllocation,
    /// Allow pipelined engines to parallelize across OFM rows (3-D search)
    /// instead of the row-pipelined default (`p_oh = 1`). Row parallelism
    /// collapses tile counts and hides the per-row weight re-streaming that
    /// real tile-grained pipelines pay.
    pub pipelined_row_parallelism: bool,
}

/// Memo key of one parallelism search: PE budget, whether OFM-row
/// parallelism is allowed, the CE's schedule, and the exact layer set the
/// CE processes. The CNN itself is fixed per [`BuildContext`], so this key
/// captures every input of the search. (The search itself is
/// schedule-independent today — fused groups run the same loop nest — but
/// the schedule is part of the key so a future schedule-aware search
/// cannot silently alias cache entries across schedules.)
type ParKey = (u32, bool, Schedule, Vec<usize>);

/// Memo key of one per-CE context: PE budget, contiguous layer range
/// (`first`, `len`), role, schedule, whether OFM-row parallelism is
/// allowed, and the data-type widths. Unlike [`ParKey`] this includes the
/// precision because buffer needs scale with it, while the parallelism
/// search does not — and cloned builders reconfigured via
/// `with_precision` share one build context.
type CtxKey = (u32, usize, usize, CeRole, Schedule, bool, Precision);

/// One CE's implementation context, planned in isolation from the rest of
/// the design: the parallelism the search selects for a contiguous layer
/// range and the buffer *needs* that parallelism implies (grants start at
/// the minimum; callers run [`distribute_slack`] across a whole design).
///
/// [`MultipleCeBuilder::ce_context`] memoizes these per
/// (pes, range, role, schedule) — the delta-evaluation path in `mccm-dse`
/// assembles whole designs from cached contexts without paying a full
/// [`MultipleCeBuilder::build`], and the invariant is that a context
/// planned alone is identical to the same CE inside a full build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CeContext {
    /// Selected parallelism — identical to the full build's choice for a
    /// CE with the same budget, range, role, and schedule.
    pub parallelism: Parallelism,
    /// Buffer needs at that parallelism, with the depth-first ideal raise
    /// already applied for single-CE ranges (a single-CE range is its own
    /// segment in the designs this hook serves).
    pub needs: CeBufferAlloc,
}

/// Upper bound on memoized search results per build context. The PE
/// budget in the key depends on the whole design's workload split, so a
/// very long sweep can keep minting fresh `(pes, layers)` pairs; past
/// this cap new results are simply not inserted (lookups stay correct,
/// memory stays bounded — results never depend on cache contents). At
/// ~100 bytes/entry the cap bounds the cache at tens of MB; sweeps mint
/// well under two entries per fresh design and revisit keys heavily, so
/// the cap only bites on sweeps far past the 100k-design scale.
const MEMO_CAP: usize = 1 << 18;

/// Sweep-invariant state shared by every build of one `(CNN, board)`
/// pair: the candidate factor table for the board's full DSP budget
/// (per-CE budgets use prefixes of it) and the memoized results of
/// [`select_parallelism`] — in design-space sweeps the same segment
/// boundaries recur constantly, and the cubic factor search is the
/// dominant per-design cost.
///
/// The context sits behind an [`Arc`] so cloned builders (and the
/// sharded `par_*` sweeps, which share one builder across worker
/// threads) all feed the same cache.
#[derive(Debug, Default)]
struct BuildContext {
    /// Ascending candidate factors for the board's full DSP budget.
    candidates: Vec<u32>,
    /// Memoized search results.
    memo: RwLock<HashMap<ParKey, Parallelism>>,
    /// Memoized per-CE contexts (delta-evaluation hook).
    ce_ctx: RwLock<HashMap<CtxKey, CeContext>>,
}

/// Builds accelerators for one (CNN, board) pair.
///
/// The builder owns a long-lived build context: the CNN's convolution
/// view, the board, and the model name live behind [`Arc`]s that every
/// built design shares (a build bumps three reference counts instead of
/// deep-cloning layer records and board strings), and per-CE parallelism
/// searches are memoized across builds — the properties that make
/// 100k-design sweeps cheap.
///
/// # Examples
///
/// ```
/// use mccm_arch::{templates, MultipleCeBuilder};
/// use mccm_cnn::zoo;
/// use mccm_fpga::FpgaBoard;
///
/// # fn main() -> Result<(), mccm_arch::ArchError> {
/// let model = zoo::resnet50();
/// let board = FpgaBoard::zcu102();
/// let builder = MultipleCeBuilder::new(&model, &board);
/// let spec = templates::segmented_rr(&model, 4)?;
/// let acc = builder.build(&spec)?;
/// assert_eq!(acc.ce_count(), 4);
/// assert_eq!(acc.notation(), "{L1-Last: CE1-CE4}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultipleCeBuilder {
    model_name: Arc<str>,
    convs: Arc<[ConvInfo]>,
    board: Arc<FpgaBoard>,
    precision: Precision,
    options: BuilderOptions,
    memoize: bool,
    ctx: Arc<BuildContext>,
}

impl MultipleCeBuilder {
    /// Creates a builder with default (8-bit) precision and heuristics.
    pub fn new(model: &CnnModel, board: &FpgaBoard) -> Self {
        let candidates = parallelism::candidates(board.dsps);
        Self {
            model_name: model.name().into(),
            convs: model.conv_view().into(),
            board: Arc::new(board.clone()),
            precision: Precision::default(),
            options: BuilderOptions::default(),
            memoize: true,
            ctx: Arc::new(BuildContext {
                candidates,
                memo: RwLock::new(HashMap::new()),
                ce_ctx: RwLock::new(HashMap::new()),
            }),
        }
    }

    /// Overrides the data-type widths.
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Overrides builder heuristics (ablation studies).
    #[must_use]
    pub fn with_options(mut self, options: BuilderOptions) -> Self {
        self.options = options;
        self
    }

    /// Enables or disables the shared parallelism memo cache (on by
    /// default). Build results are identical either way — the switch
    /// exists so benches can measure the unmemoized per-design baseline.
    #[must_use]
    pub fn with_memoization(mut self, on: bool) -> Self {
        self.memoize = on;
        self
    }

    /// Number of convolution layers of the underlying model.
    pub fn layer_count(&self) -> usize {
        self.convs.len()
    }

    /// The board this builder targets.
    pub fn board(&self) -> &FpgaBoard {
        &self.board
    }

    /// The data-type widths builds use.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The builder heuristics in effect (PE allocation policy, row
    /// parallelism) — read by the delta-evaluation path so its PE split
    /// mirrors [`Self::build`]'s exactly.
    pub fn options(&self) -> BuilderOptions {
        self.options
    }

    /// An opaque token identifying this builder's shared build context.
    /// Builders cloned from one another share one context (and thus one
    /// memo cache) and report the same token; independently constructed
    /// builders report different tokens while both are alive. Session
    /// caches use this hook to assert that a warmed builder really is
    /// being reused rather than reconstructed.
    pub fn context_token(&self) -> usize {
        Arc::as_ptr(&self.ctx) as usize
    }

    /// Number of memoized parallelism-search results held by the shared
    /// build context — a warmth indicator for session caches (zero on a
    /// freshly constructed builder, growing as designs are built).
    pub fn memo_len(&self) -> usize {
        self.ctx.memo.read().expect("memo poisoned").len()
    }

    /// Number of memoized per-CE contexts held by the shared build
    /// context (the [`Self::ce_context`] memo) — the delta-evaluation
    /// analogue of [`Self::memo_len`].
    pub fn ce_context_memo_len(&self) -> usize {
        self.ctx.ce_ctx.read().expect("ce-ctx memo poisoned").len()
    }

    /// Plans one CE's context — parallelism plus buffer needs — for the
    /// contiguous layer range `first..first + len` with `pes` PEs in
    /// `role` under `schedule`, without building a whole accelerator.
    /// Results are memoized in the shared build context alongside the
    /// parallelism memo (and covered by [`Self::context_token`]).
    ///
    /// The context is bit-identical to the corresponding CE of a full
    /// [`Self::build`] whose workload split grants the same `pes` to the
    /// same range — the property the delta evaluation path in `mccm-dse`
    /// relies on to recombine cached segment costs.
    ///
    /// # Panics
    ///
    /// Debug-asserts the range is non-empty and within the model.
    pub fn ce_context(
        &self,
        pes: u32,
        first: usize,
        len: usize,
        role: CeRole,
        schedule: Schedule,
    ) -> CeContext {
        debug_assert!(len > 0 && first + len <= self.convs.len());
        let allow_rows = match role {
            CeRole::Single => true,
            CeRole::Pipelined => self.options.pipelined_row_parallelism,
        };
        if !self.memoize {
            return self.plan_ce_context(pes, first, len, role, schedule, allow_rows);
        }
        let key: CtxKey = (pes, first, len, role, schedule, allow_rows, self.precision);
        if let Some(c) = self
            .ctx
            .ce_ctx
            .read()
            .expect("ce-ctx memo poisoned")
            .get(&key)
        {
            return *c;
        }
        let c = self.plan_ce_context(pes, first, len, role, schedule, allow_rows);
        let mut memo = self.ctx.ce_ctx.write().expect("ce-ctx memo poisoned");
        if memo.len() < MEMO_CAP {
            memo.insert(key, c);
        }
        c
    }

    fn plan_ce_context(
        &self,
        pes: u32,
        first: usize,
        len: usize,
        role: CeRole,
        schedule: Schedule,
        allow_rows: bool,
    ) -> CeContext {
        let layers: Vec<usize> = (first..first + len).collect();
        let parallelism = self.parallelism_for(pes, &layers, allow_rows, schedule);
        let mut needs = buffers::ce_needs(
            &self.convs,
            &layers,
            role,
            u64::from(parallelism.dims[0]),
            self.precision,
        );
        // Single-CE ranges are their own segment in the designs this hook
        // serves: apply the depth-first ideal raise the full planner
        // applies per single-CE segment.
        if matches!(role, CeRole::Single) {
            let fused = buffers::depth_first_ideal(
                &self.convs,
                first,
                first + len - 1,
                schedule.fuse_depth(),
                self.precision,
            );
            needs.ideal_bytes = needs.ideal_bytes.max(fused);
        }
        CeContext { parallelism, needs }
    }

    /// Memoized per-CE parallelism selection: cache hit for layer sets
    /// (and PE budgets) seen in any earlier build of this builder or its
    /// clones; otherwise the precomputed-grid search.
    fn parallelism_for(
        &self,
        pes: u32,
        layers: &[usize],
        allow_rows: bool,
        schedule: Schedule,
    ) -> Parallelism {
        if layers.is_empty() || pes <= 1 {
            return Parallelism::scalar();
        }
        if !self.memoize {
            return self.search_parallelism(pes, layers, allow_rows);
        }
        let key: ParKey = (pes, allow_rows, schedule, layers.to_vec());
        if let Some(p) = self.ctx.memo.read().expect("memo poisoned").get(&key) {
            return *p;
        }
        let p = self.search_parallelism(pes, layers, allow_rows);
        let mut memo = self.ctx.memo.write().expect("memo poisoned");
        if memo.len() < MEMO_CAP {
            memo.insert(key, p);
        }
        p
    }

    fn search_parallelism(&self, pes: u32, layers: &[usize], allow_rows: bool) -> Parallelism {
        let cand = parallelism::candidate_prefix(&self.ctx.candidates, pes);
        let dims: Vec<[u32; 6]> = layers.iter().map(|&l| self.convs[l].dims).collect();
        parallelism::search_parallelism(cand, pes, allow_rows, &dims)
    }

    /// Builds a specification into a complete accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError`] when the spec fails validation (coverage, CE
    /// roles) or the platform cannot host it (fewer DSPs than CEs).
    pub fn build(&self, spec: &AcceleratorSpec) -> Result<BuiltAccelerator, ArchError> {
        let segments = spec.segments(self.convs.len())?;
        let n_ces = spec.ce_count();
        if (self.board.dsps as usize) < n_ces {
            return Err(ArchError::Infeasible {
                detail: format!("{n_ces} CEs exceed {} DSPs", self.board.dsps),
            });
        }

        // Roles and schedules from the spec (validated consistent by
        // `segments`).
        let mut roles = vec![CeRole::Single; n_ces];
        let mut schedules = vec![Schedule::LayerByLayer; n_ces];
        for a in &spec.assignments {
            match a.block {
                BlockSpec::Pipelined { first_ce, last_ce } => {
                    for r in roles.iter_mut().take(last_ce + 1).skip(first_ce) {
                        *r = CeRole::Pipelined;
                    }
                }
                BlockSpec::Single(ce) => schedules[ce] = a.schedule,
            }
        }

        // PE distribution proportional to per-CE workload.
        let ce_layers = spec.ce_layers(&segments);
        let workloads: Vec<u64> = ce_layers
            .iter()
            .map(|layers| layers.iter().map(|&l| self.convs[l].macs).sum())
            .collect();
        let pes = match self.options.pe_allocation {
            PeAllocation::Proportional => distribute_pes(self.board.dsps, &workloads),
            PeAllocation::Uniform => distribute_pes(self.board.dsps, &vec![1u64; n_ces]),
        };

        // Parallelism per CE, minimizing Eq. (1) latency over its layers.
        // Pipelined engines are row-pipelined: they parallelize filters and
        // columns only (one OFM row per pipeline stage).
        let ces: Vec<ComputeEngine> = ce_layers
            .into_iter()
            .enumerate()
            .map(|(id, layers)| {
                let allow_rows = match roles[id] {
                    CeRole::Single => true,
                    CeRole::Pipelined => self.options.pipelined_row_parallelism,
                };
                let parallelism = self.parallelism_for(pes[id], &layers, allow_rows, schedules[id]);
                ComputeEngine {
                    id,
                    pes: pes[id],
                    parallelism,
                    role: roles[id],
                    schedule: schedules[id],
                    layers,
                }
            })
            .collect();

        let buffers = buffers::plan_buffers(
            &self.convs,
            &segments,
            &ces,
            spec.coarse_pipeline,
            self.precision,
            self.board.bram_bytes(),
        );

        Ok(BuiltAccelerator {
            model_name: Arc::clone(&self.model_name),
            convs: Arc::clone(&self.convs),
            board: Arc::clone(&self.board),
            precision: self.precision,
            spec: spec.clone(),
            segments,
            ces,
            buffers,
            weight_compression: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Segment;
    use crate::templates;
    use mccm_cnn::zoo;

    /// Whether a segment list tiles `0..num_layers` in order.
    fn check_segments(segments: &[Segment], num_layers: usize) -> bool {
        let mut next = 0usize;
        for s in segments {
            if s.first != next || s.last < s.first {
                return false;
            }
            next = s.last + 1;
        }
        next == num_layers
    }

    #[test]
    fn builds_all_templates_for_resnet50() {
        let m = zoo::resnet50();
        let board = FpgaBoard::vcu108();
        let b = MultipleCeBuilder::new(&m, &board);
        for arch in templates::Architecture::ALL {
            for k in 2..=11 {
                let spec = arch.instantiate(&m, k).unwrap();
                let acc = b.build(&spec).unwrap();
                assert_eq!(acc.ce_count(), k, "{arch} {k}");
                let total_pes: u32 = acc.ces.iter().map(|c| c.pes).sum();
                assert_eq!(total_pes, board.dsps, "{arch} {k}");
                assert!(check_segments(&acc.segments, 53));
                for ce in &acc.ces {
                    assert!(ce.parallelism.total() <= u64::from(ce.pes));
                    assert!(!ce.layers.is_empty());
                }
            }
        }
    }

    #[test]
    fn memoized_builds_match_unmemoized() {
        // The memo cache must be behaviorally invisible: repeated builds
        // (warm cache) and a cache-disabled builder all agree exactly.
        let m = zoo::xception();
        let board = FpgaBoard::vcu110();
        let warm = MultipleCeBuilder::new(&m, &board);
        let cold = MultipleCeBuilder::new(&m, &board).with_memoization(false);
        for arch in templates::Architecture::ALL {
            for k in [2usize, 5, 9] {
                let spec = arch.instantiate(&m, k).unwrap();
                let first = warm.build(&spec).unwrap();
                let again = warm.build(&spec).unwrap();
                let reference = cold.build(&spec).unwrap();
                for (a, b) in first.ces.iter().zip(&reference.ces) {
                    assert_eq!(a, b, "{arch} {k}");
                }
                for (a, b) in first.ces.iter().zip(&again.ces) {
                    assert_eq!(a, b, "{arch} {k} (warm)");
                }
                assert_eq!(first.buffers, reference.buffers, "{arch} {k}");
            }
        }
    }

    #[test]
    fn clones_share_the_memo_cache() {
        let m = zoo::mobilenet_v2();
        let b = MultipleCeBuilder::new(&m, &FpgaBoard::zc706());
        let clone = b.clone();
        let spec = templates::segmented(&m, 4).unwrap();
        let a = b.build(&spec).unwrap();
        // The clone's build hits the cache populated by `b` and must be
        // identical.
        let c = clone.build(&spec).unwrap();
        assert_eq!(a.ces, c.ces);
        assert!(!clone.ctx.memo.read().unwrap().is_empty());
        assert_eq!(
            Arc::as_ptr(&b.ctx),
            Arc::as_ptr(&clone.ctx),
            "clones must share one build context"
        );
    }

    #[test]
    fn context_token_tracks_sharing_and_memo_len_tracks_warmth() {
        let m = zoo::mobilenet_v2();
        let board = FpgaBoard::zc706();
        let a = MultipleCeBuilder::new(&m, &board);
        let clone = a.clone();
        let fresh = MultipleCeBuilder::new(&m, &board);
        assert_eq!(a.context_token(), clone.context_token());
        assert_ne!(a.context_token(), fresh.context_token());
        assert_eq!(a.memo_len(), 0);
        a.build(&templates::segmented(&m, 4).unwrap()).unwrap();
        assert!(a.memo_len() > 0);
        assert_eq!(a.memo_len(), clone.memo_len(), "clones share the memo");
        assert_eq!(fresh.memo_len(), 0);
        assert_eq!(a.precision(), Precision::default());
        assert_eq!(a.board().name, board.name);
    }

    #[test]
    fn ce_context_matches_full_build() {
        // A context planned in isolation must be bit-identical to the
        // same CE inside a full build: same parallelism, same buffer
        // needs (grants aside — the full plan distributes slack).
        let m = zoo::mobilenet_v2();
        let board = FpgaBoard::zc706();
        let b = MultipleCeBuilder::new(&m, &board);
        for spec in [
            templates::hybrid(&m, 5).unwrap(),
            templates::segmented(&m, 4).unwrap(),
        ] {
            let acc = b.build(&spec).unwrap();
            for (ce, alloc) in acc.ces.iter().zip(&acc.buffers.ce) {
                let first = ce.layers[0];
                let len = ce.layers.len();
                if !ce.layers.iter().enumerate().all(|(i, &l)| l == first + i) {
                    continue; // hook serves contiguous ranges only
                }
                let ctx = b.ce_context(ce.pes, first, len, ce.role, ce.schedule);
                assert_eq!(ctx.parallelism, ce.parallelism);
                assert_eq!(ctx.needs.min_bytes, alloc.min_bytes);
                assert_eq!(ctx.needs.ideal_bytes, alloc.ideal_bytes);
                assert_eq!(ctx.needs.fm_tile_bytes, alloc.fm_tile_bytes);
                assert_eq!(ctx.needs.weight_stream_bytes, alloc.weight_stream_bytes);
                assert_eq!(ctx.needs.weights_total_bytes, alloc.weights_total_bytes);
            }
        }
        assert!(b.ce_context_memo_len() > 0);
        assert_eq!(b.clone().ce_context_memo_len(), b.ce_context_memo_len());
    }

    #[test]
    fn ce_context_memo_is_behaviorally_invisible() {
        let m = zoo::xception();
        let board = FpgaBoard::vcu108();
        let warm = MultipleCeBuilder::new(&m, &board);
        let cold = MultipleCeBuilder::new(&m, &board).with_memoization(false);
        let n = m.conv_view().len();
        for (first, len, role) in [
            (0usize, 1usize, CeRole::Pipelined),
            (0, 4, CeRole::Single),
            (4, n - 4, CeRole::Single),
        ] {
            let a = warm.ce_context(256, first, len, role, Schedule::LayerByLayer);
            let again = warm.ce_context(256, first, len, role, Schedule::LayerByLayer);
            let reference = cold.ce_context(256, first, len, role, Schedule::LayerByLayer);
            assert_eq!(a, reference);
            assert_eq!(a, again);
        }
        assert_eq!(cold.ce_context_memo_len(), 0);
    }

    #[test]
    fn pe_distribution_tracks_workload() {
        let m = zoo::resnet50();
        let b = MultipleCeBuilder::new(&m, &FpgaBoard::zcu102());
        let spec = templates::segmented(&m, 4).unwrap();
        let acc = b.build(&spec).unwrap();
        // MAC-balanced segments should give roughly equal PEs.
        let pes: Vec<u32> = acc.ces.iter().map(|c| c.pes).collect();
        let max = f64::from(*pes.iter().max().unwrap());
        let min = f64::from(*pes.iter().min().unwrap());
        assert!(max / min < 2.0, "pes {pes:?}");
    }

    #[test]
    fn hybrid_roles() {
        let m = zoo::mobilenet_v2();
        let b = MultipleCeBuilder::new(&m, &FpgaBoard::zc706());
        let acc = b.build(&templates::hybrid(&m, 5).unwrap()).unwrap();
        for ce in &acc.ces[..4] {
            assert_eq!(ce.role, CeRole::Pipelined);
            assert_eq!(ce.layers.len(), 1);
        }
        assert_eq!(acc.ces[4].role, CeRole::Single);
        assert_eq!(acc.ces[4].layers.len(), 52 - 4);
    }

    #[test]
    fn infeasible_when_more_ces_than_dsps() {
        let m = zoo::mobilenet_v2();
        let tiny = FpgaBoard::new("tiny", 3, mccm_fpga::MiB(0.1), 1.0);
        let b = MultipleCeBuilder::new(&m, &tiny);
        let spec = templates::segmented(&m, 5).unwrap();
        assert!(matches!(b.build(&spec), Err(ArchError::Infeasible { .. })));
    }

    #[test]
    fn precision_scales_buffer_needs() {
        let m = zoo::resnet50();
        let board = FpgaBoard::zcu102();
        let spec = templates::segmented_rr(&m, 4).unwrap();
        let acc8 = MultipleCeBuilder::new(&m, &board).build(&spec).unwrap();
        let acc16 = MultipleCeBuilder::new(&m, &board)
            .with_precision(Precision::INT16)
            .build(&spec)
            .unwrap();
        assert_eq!(acc16.total_weight_bytes(), 2 * acc8.total_weight_bytes());
        for (a8, a16) in acc8.buffers.ce.iter().zip(&acc16.buffers.ce) {
            assert!(a16.min_bytes >= a8.min_bytes);
        }
    }

    #[test]
    fn notation_round_trip_through_build() {
        let m = zoo::resnet50();
        let b = MultipleCeBuilder::new(&m, &FpgaBoard::vcu108());
        let spec = crate::notation::parse("{L1-L10: CE1, L11-Last: CE2}").unwrap();
        let acc = b.build(&spec).unwrap();
        assert_eq!(acc.notation(), "{L1-L10: CE1, L11-Last: CE2}");
        assert_eq!(acc.segments.len(), 2);
    }
}
