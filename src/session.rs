//! The execution engine of the scenario API: a [`Session`] runs
//! [`Scenario`]s against an LRU cache of warmed builder contexts, so
//! repeated requests for the same (model, board, precision, batch) pair
//! skip all sweep-invariant build work — CNN reconstruction, the
//! candidate factor table, and the memoized parallelism searches the
//! builder accumulates (PR 3's shared build context).
//!
//! Every action returns one typed [`Outcome`] that serializes to
//! deterministic JSON — the contract an HTTP serving layer, batch runner,
//! or calibration harness programs against.
//!
//! # Examples
//!
//! ```
//! use mccm::scenario::{Action, BoardSpec, DesignSpec, ModelSpec, Scenario};
//! use mccm::session::Session;
//!
//! let mut session = Session::new();
//! let scenario = Scenario::new(
//!     ModelSpec::Zoo("mobilenetv2".into()),
//!     BoardSpec::Builtin("zc706".into()),
//!     Action::Evaluate {
//!         design: DesignSpec::Notation("{L1-Last: CE1-CE4}".into()),
//!     },
//! );
//! let first = session.run(&scenario).unwrap();
//! let second = session.run(&scenario).unwrap();
//! // The second run hit the warmed context and produced identical JSON.
//! assert_eq!(session.stats().hits, 1);
//! assert_eq!(first.to_json_string(), second.to_json_string());
//! ```

use crate::calib::{Correction, CALIBRATED_METRICS};
use crate::core::{EnergyEstimate, EnergyModel, EvalSummary, Evaluation, Metric};
use crate::dse::{
    hypervolume, par_pareto_indices, select_all_metrics, union_bounds, BaselinePoint, CacheStats,
    CancelToken, Explorer, GuidedFront, SelectionCell, PAPER_TIE_FRAC,
};
use crate::error::Error;
use crate::json::Json;
use crate::scenario::{metric_list, Action, Scenario};

/// Cache accounting of a [`Session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Requests served from a warmed context (no builder reconstruction).
    pub hits: u64,
    /// Requests that had to construct a fresh context.
    pub misses: u64,
    /// Contexts dropped to respect the capacity bound.
    pub evictions: u64,
}

struct CacheEntry {
    key: String,
    explorer: Explorer,
}

/// Executes scenarios against an LRU cache of warmed builder contexts.
///
/// The cache key is the scenario's `(model, board, precision, batch)`
/// quadruple; entries hold an [`Explorer`] whose
/// [`MultipleCeBuilder`](crate::arch::MultipleCeBuilder) keeps its shared
/// build context (and parallelism memo) alive between requests. Capacity
/// is bounded ([`Session::with_capacity`]); the least recently used
/// context is evicted first.
pub struct Session {
    capacity: usize,
    entries: Vec<CacheEntry>,
    stats: SessionStats,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// Default context capacity: enough for the full zoo × one board.
    pub const DEFAULT_CAPACITY: usize = 8;

    /// A session with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A session holding at most `capacity` warmed contexts.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity >= 1,
            "session cache needs capacity for at least one context"
        );
        Self {
            capacity,
            entries: Vec::new(),
            stats: SessionStats::default(),
        }
    }

    /// Cache accounting so far.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Number of warmed contexts currently cached.
    pub fn cached_contexts(&self) -> usize {
        self.entries.len()
    }

    /// The build-context token
    /// ([`MultipleCeBuilder::context_token`](crate::arch::MultipleCeBuilder::context_token))
    /// of the cached context this scenario would use, without touching
    /// LRU order — `None` when the context is not cached. Tests assert
    /// warm reuse through this hook.
    pub fn cached_context_token(&self, scenario: &Scenario) -> Option<usize> {
        let key = cache_key(scenario);
        self.entries
            .iter()
            .find(|e| e.key == key)
            .map(|e| e.explorer.builder().context_token())
    }

    /// Runs one scenario: resolves (or reuses) its context, executes the
    /// action, and returns the typed outcome.
    ///
    /// # Errors
    ///
    /// Any crate error, converged into [`enum@Error`]: unknown names,
    /// infeasible designs, exhausted sampling budgets, degenerate
    /// optimizer configs.
    pub fn run(&mut self, scenario: &Scenario) -> Result<Outcome, Error> {
        self.run_cancellable(scenario, &CancelToken::new())
            .map(|(outcome, _degraded)| outcome)
    }

    /// [`Self::run`] with a cooperative [`CancelToken`] threaded into the
    /// long-running actions (sweep shards, sampler attempts, optimizer
    /// generations). Returns the outcome plus a `degraded` flag: `true`
    /// means the token fired mid-run and the outcome holds the honest
    /// partial result gathered so far (a shorter sweep, a smaller front,
    /// fewer attempts) rather than an error.
    ///
    /// An un-fired token takes exactly the [`Self::run`] code path, so
    /// outcomes stay byte-identical to a token-less run — the serving
    /// layer relies on this to keep warm responses deterministic.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`]; cancellation itself is never an error.
    pub fn run_cancellable(
        &mut self,
        scenario: &Scenario,
        cancel: &CancelToken,
    ) -> Result<(Outcome, bool), Error> {
        let explorer = self.context_for(scenario)?;
        let workers = scenario.workers;
        let precision = scenario
            .precision
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("{:?}", scenario.precision));
        match &scenario.action {
            Action::Evaluate { design } => {
                let mut spec = design.instantiate(explorer.model())?;
                apply_schedule_overrides(&mut spec, scenario)?;
                let eval = explorer.evaluate(&spec)?;
                let total_macs = eval.total_macs;
                let energy = EnergyModel::default();
                let estimate = energy.estimate(&eval, total_macs);
                let gops_per_w = energy.efficiency_gops_per_w(&eval, total_macs);
                // A single evaluation is microseconds of work — not worth
                // a cancellation checkpoint, never degraded.
                Ok((
                    Outcome::Evaluation(Box::new(EvaluationOutcome {
                        board: explorer.builder().board().to_string(),
                        precision,
                        batch: scenario.batch,
                        energy: estimate,
                        gops_per_w,
                        eval,
                    })),
                    false,
                ))
            }
            Action::Sweep { min_ces, max_ces } => {
                let (points, cancelled) = explorer.par_sweep_baselines_cancellable(
                    *min_ces..=*max_ces,
                    workers,
                    cancel,
                )?;
                let selection = select_all_metrics(&points, PAPER_TIE_FRAC);
                Ok((
                    Outcome::Sweep(SweepOutcome {
                        model: explorer.model().name().to_string(),
                        board: explorer.builder().board().name.clone(),
                        min_ces: *min_ces,
                        max_ces: *max_ces,
                        points,
                        selection,
                    }),
                    cancelled,
                ))
            }
            Action::Sample { count, metrics } => {
                // JSON parsing rejects empty metric lists; guard the
                // direct library path the same way instead of panicking
                // downstream.
                if metrics.is_empty() {
                    return Err(Error::scenario(
                        "action.sample.metrics",
                        "metric list must not be empty",
                    ));
                }
                let run = explorer.par_sample_custom_summaries_cancellable(
                    *count,
                    scenario.seed,
                    workers,
                    cancel,
                )?;
                let summaries: Vec<EvalSummary> =
                    run.points.into_iter().map(|p| p.summary).collect();
                let front_indices = par_pareto_indices(&summaries, metrics, workers);
                let mut front: Vec<EvalSummary> = front_indices
                    .iter()
                    .map(|&i| summaries[i].clone())
                    .collect();
                sort_front(&mut front, metrics);
                // Quality stats: the front's dominated fraction of the
                // box spanned by *everything* evaluated, plus per-metric
                // bests — deterministic for (count, seed).
                let bounds = union_bounds(&[summaries.as_slice()], metrics);
                let hv = hypervolume(&front, metrics, &bounds);
                // `evaluated` reports what was actually gathered: exactly
                // `count` on a full run, the honest partial tally when
                // the token fired mid-sample.
                let evaluated = if run.cancelled {
                    summaries.len()
                } else {
                    *count
                };
                Ok((
                    Outcome::Front(SampleOutcome {
                        model: explorer.model().name().to_string(),
                        board: explorer.builder().board().name.clone(),
                        evaluated,
                        seed: scenario.seed,
                        metrics: metrics.clone(),
                        hypervolume: hv,
                        front,
                    }),
                    run.cancelled,
                ))
            }
            Action::Optimize { .. } => {
                let config = scenario.optimizer_config().expect("optimize action");
                config.validate()?;
                let guided: GuidedFront =
                    explorer.optimize_par_cancellable(&config, workers, cancel)?;
                let cancelled = guided.cancelled;
                Ok((
                    Outcome::Optimized(OptimizeOutcome {
                        model: explorer.model().name().to_string(),
                        board: explorer.builder().board().name.clone(),
                        seed: scenario.seed,
                        budget: config.budget,
                        evaluations: guided.evaluations,
                        feasible: guided.feasible,
                        cache: guided.cache,
                        metrics: guided.metrics.clone(),
                        front: guided.points.into_iter().map(|p| p.summary).collect(),
                    }),
                    cancelled,
                ))
            }
            Action::Calibrate {
                metrics: action_metrics,
                top_k,
                store,
                ..
            } => {
                let config = scenario.optimizer_config().expect("calibrate action");
                config.validate()?;
                let guided: GuidedFront =
                    explorer.optimize_par_cancellable(&config, workers, cancel)?;
                let mut degraded = guided.cancelled;
                let front: Vec<EvalSummary> =
                    guided.points.iter().map(|p| p.summary.clone()).collect();
                // Promotion is a pure function of the front, so the
                // promoted set — and with it the store's eventual bytes —
                // is identical across runs and worker counts.
                let promoted_indices = crate::calib::promote_top_k(&front, &guided.metrics, *top_k);
                let model_name = explorer.model().name().to_string();
                let board_name = explorer.builder().board().name.clone();
                let sim_config = crate::sim::SimConfig::default();
                let mut fresh = crate::calib::CalibStore::new();
                let mut promoted = Vec::new();
                for &front_index in &promoted_indices {
                    if cancel.is_cancelled() {
                        degraded = true;
                        break;
                    }
                    let spec = guided.points[front_index]
                        .design
                        .to_spec(explorer.model())?;
                    let acc = explorer.builder().build(&spec)?;
                    let eval = crate::core::CostModel::evaluate(&acc);
                    let Some(sim) = crate::calib::simulate(&acc, &eval, sim_config, cancel) else {
                        // Deadline fired mid-simulation: keep the pairs
                        // already banked, drop the half-measured design.
                        degraded = true;
                        break;
                    };
                    let pairs = crate::calib::metric_pairs(&eval, &sim);
                    fresh.record(
                        &board_name,
                        &precision,
                        &model_name,
                        scenario.batch,
                        &eval.notation,
                        &pairs,
                    );
                    promoted.push(PromotedMember {
                        front_index,
                        notation: eval.notation.clone(),
                        pairs,
                    });
                }
                // Corrections fit against the *merged* evidence: this
                // run's pairs plus whatever the persistent store already
                // held for this (board, precision).
                let new_pairs;
                let merged = match store {
                    Some(path) => {
                        let path = std::path::Path::new(path);
                        let mut persistent = crate::calib::CalibStore::load_or_empty(path)?;
                        new_pairs = persistent.merge(&fresh);
                        persistent.save(path)?;
                        persistent
                    }
                    None => {
                        new_pairs = fresh.pair_count();
                        fresh
                    }
                };
                let cal_metrics: Vec<Metric> = action_metrics
                    .iter()
                    .copied()
                    .filter(|m| CALIBRATED_METRICS.contains(m))
                    .collect();
                let corrections =
                    crate::calib::fit_corrections(&merged, &board_name, &precision, &cal_metrics);
                Ok((
                    Outcome::Calibrated(Box::new(CalibrateOutcome {
                        model: model_name,
                        board: board_name,
                        precision,
                        seed: scenario.seed,
                        budget: config.budget,
                        evaluations: guided.evaluations,
                        feasible: guided.feasible,
                        metrics: guided.metrics.clone(),
                        top_k: *top_k,
                        front,
                        promoted,
                        corrections,
                        store_path: store.clone(),
                        store_pairs: merged.pair_count(),
                        new_pairs,
                    })),
                    degraded,
                ))
            }
        }
    }

    /// Drops every warmed context, counting each as an eviction. The
    /// fault-injection harness uses this to model cold-cache restarts;
    /// it is also the recovery step after a request panics while a
    /// context is warm (the context may hold arbitrary partial state).
    pub fn evict_all(&mut self) {
        self.stats.evictions += self.entries.len() as u64;
        self.entries.clear();
    }

    /// Looks up (or constructs) the warmed context for a scenario and
    /// returns a borrow of its explorer, updating LRU order and stats.
    fn context_for(&mut self, scenario: &Scenario) -> Result<&Explorer, Error> {
        let key = cache_key(scenario);
        if let Some(i) = self.entries.iter().position(|e| e.key == key) {
            self.stats.hits += 1;
            let entry = self.entries.remove(i);
            self.entries.insert(0, entry);
        } else {
            self.stats.misses += 1;
            let model = scenario.model.build()?;
            let board = scenario.board.build()?;
            let builder = crate::arch::MultipleCeBuilder::new(&model, &board)
                .with_precision(scenario.precision);
            let explorer = Explorer::from_parts(model, builder);
            self.entries.insert(0, CacheEntry { key, explorer });
            if self.entries.len() > self.capacity {
                self.entries.pop();
                self.stats.evictions += 1;
            }
        }
        Ok(&self.entries[0].explorer)
    }
}

/// Rewrites the instantiated design's per-assignment schedules from the
/// scenario's `schedule` (design-wide default) and `ces` (per-CE)
/// overrides. The default touches single-CE assignments only — a
/// depth-first schedule is meaningless on a pipelined block — while an
/// explicit `ces[i].schedule` is applied verbatim and left to the
/// architecture validator to reject if the block cannot carry it.
fn apply_schedule_overrides(
    spec: &mut crate::arch::AcceleratorSpec,
    scenario: &Scenario,
) -> Result<(), Error> {
    use crate::arch::BlockSpec;
    if let Some(default) = scenario.schedule {
        for a in &mut spec.assignments {
            if matches!(a.block, BlockSpec::Single(_)) {
                a.schedule = default;
            }
        }
    }
    for (i, over) in scenario.ces.iter().enumerate() {
        let Some(schedule) = over.schedule else {
            continue;
        };
        let count = spec.assignments.len();
        let Some(a) = spec.assignments.get_mut(i) else {
            return Err(Error::scenario(
                format!("ces.{i}"),
                format!("design has only {count} CE assignments"),
            ));
        };
        a.schedule = schedule;
    }
    Ok(())
}

/// The cache key: the API contract's (model, board, precision, batch)
/// quadruple. `batch` only affects outcome reporting, not the builder —
/// it is in the key so two scenarios with equal keys are guaranteed to
/// produce identical outcomes, at the cost of one context per batch
/// size when a client varies it.
fn cache_key(scenario: &Scenario) -> String {
    format!(
        "{}|{}|w{}a{}|b{}",
        scenario.model.cache_token(),
        scenario.board.cache_token(),
        scenario.precision.weight_bytes,
        scenario.precision.activation_bytes,
        scenario.batch
    )
}

/// Deterministic front presentation: best-first on the first metric,
/// notation as the tie-break (the same convention [`GuidedFront`] uses).
fn sort_front(front: &mut [EvalSummary], metrics: &[Metric]) {
    let primary = metrics[0];
    front.sort_by(|a, b| {
        let (va, vb) = (primary.value(a), primary.value(b));
        let ord = if primary.higher_is_better() {
            vb.total_cmp(&va)
        } else {
            va.total_cmp(&vb)
        };
        ord.then_with(|| a.notation.cmp(&b.notation))
    });
}

/// Result of an evaluate action.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationOutcome {
    /// Full board description (`name (dsps, bram, bw, clock)`).
    pub board: String,
    /// Precision name (`int8` / `int16`).
    pub precision: String,
    /// Batch size the batch-latency figures use.
    pub batch: usize,
    /// Energy estimate under the default model.
    pub energy: EnergyEstimate,
    /// Steady-state energy efficiency.
    pub gops_per_w: f64,
    /// The full evaluation (metrics + per-segment/engine/layer reports).
    pub eval: Evaluation,
}

/// Result of a sweep action.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// CNN name.
    pub model: String,
    /// Board name.
    pub board: String,
    /// Swept CE range (inclusive).
    pub min_ces: usize,
    /// Swept CE range (inclusive).
    pub max_ces: usize,
    /// Every feasible (architecture, CE count) instance.
    pub points: Vec<BaselinePoint>,
    /// Per-metric winners under the paper's 10% tie rule.
    pub selection: Vec<SelectionCell>,
}

/// Result of a sample action.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleOutcome {
    /// CNN name.
    pub model: String,
    /// Board name.
    pub board: String,
    /// Feasible designs evaluated.
    pub evaluated: usize,
    /// Sampling seed.
    pub seed: u64,
    /// Front objectives.
    pub metrics: Vec<Metric>,
    /// Normalized hypervolume of the front against the bounds of
    /// everything evaluated.
    pub hypervolume: f64,
    /// The non-dominated designs, best-first on the first metric.
    pub front: Vec<EvalSummary>,
}

/// Result of an optimize action.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeOutcome {
    /// CNN name.
    pub model: String,
    /// Board name.
    pub board: String,
    /// Search seed.
    pub seed: u64,
    /// Configured evaluation-attempt budget.
    pub budget: u64,
    /// Attempts actually spent.
    pub evaluations: u64,
    /// Feasible designs among them.
    pub feasible: u64,
    /// Segment-cache and design-memo counters of the delta-evaluation
    /// path, summed across islands.
    pub cache: CacheStats,
    /// Objectives.
    pub metrics: Vec<Metric>,
    /// The final merged front, in the optimizer's deterministic order.
    pub front: Vec<EvalSummary>,
}

/// One Pareto-front member promoted to a simulator run during a
/// calibrate action.
#[derive(Debug, Clone, PartialEq)]
pub struct PromotedMember {
    /// Index into the calibrate outcome's `front`.
    pub front_index: usize,
    /// The design's accelerator notation.
    pub notation: String,
    /// `(metric, analytical, simulated)` measurement triples.
    pub pairs: Vec<(Metric, f64, f64)>,
}

/// Result of a calibrate action: an optimized front plus the simulator
/// evidence and fitted corrections layered on top of it.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrateOutcome {
    /// CNN name.
    pub model: String,
    /// Board name.
    pub board: String,
    /// Precision token (store key component).
    pub precision: String,
    /// Search seed.
    pub seed: u64,
    /// Configured evaluation-attempt budget.
    pub budget: u64,
    /// Attempts actually spent.
    pub evaluations: u64,
    /// Feasible designs among them.
    pub feasible: u64,
    /// Objectives.
    pub metrics: Vec<Metric>,
    /// Requested promotion width.
    pub top_k: usize,
    /// The final merged front, in the optimizer's deterministic order.
    pub front: Vec<EvalSummary>,
    /// Front members that earned simulator runs, in promotion order.
    pub promoted: Vec<PromotedMember>,
    /// Fitted corrections for the calibratable objectives, in the
    /// action's metric order.
    pub corrections: Vec<(Metric, Correction)>,
    /// Persistent store path, if one was configured.
    pub store_path: Option<String>,
    /// Pairs in the store the corrections were fitted against.
    pub store_pairs: usize,
    /// Pairs this run added to that store.
    pub new_pairs: usize,
}

/// The typed result of [`Session::run`]: one variant per action, each
/// serializing to deterministic JSON ([`Outcome::to_json`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// From [`Action::Evaluate`].
    Evaluation(Box<EvaluationOutcome>),
    /// From [`Action::Sweep`].
    Sweep(SweepOutcome),
    /// From [`Action::Sample`].
    Front(SampleOutcome),
    /// From [`Action::Optimize`].
    Optimized(OptimizeOutcome),
    /// From [`Action::Calibrate`].
    Calibrated(Box<CalibrateOutcome>),
}

impl Outcome {
    /// The action key this outcome came from (matches
    /// [`Action::name`](crate::scenario::Action::name)).
    pub fn action(&self) -> &'static str {
        match self {
            Self::Evaluation(_) => "evaluate",
            Self::Sweep(_) => "sweep",
            Self::Front(_) => "sample",
            Self::Optimized(_) => "optimize",
            Self::Calibrated(_) => "calibrate",
        }
    }

    /// Deterministic JSON rendering: no wall-clock times, fixed key
    /// order, shortest-round-trip numbers — two runs of the same scenario
    /// serialize byte-identically.
    pub fn to_json(&self) -> Json {
        match self {
            Self::Evaluation(o) => evaluation_json(o),
            Self::Sweep(o) => sweep_json(o),
            Self::Front(o) => sample_json(o),
            Self::Optimized(o) => optimize_json(o),
            Self::Calibrated(o) => calibrate_json(o),
        }
    }

    /// Pretty-printed [`Self::to_json`] (the CLI's `run` output).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

fn summary_json(s: &EvalSummary) -> Json {
    let mut row = Json::object();
    row.push("notation", s.notation.as_str());
    row.push("ce_count", s.ce_count);
    row.push("latency_ms", s.latency_ms());
    row.push("throughput_fps", s.throughput_fps);
    row.push("buffer_req_mib", s.buffer_mib());
    row.push("offchip_mib", s.offchip_mib());
    row.push(
        "energy_mj",
        EnergyModel::default().estimate_summary(s).total_mj(),
    );
    row
}

fn evaluation_json(o: &EvaluationOutcome) -> Json {
    let e = &o.eval;
    let mut root = Json::object();
    root.push("action", "evaluate");
    root.push("model", e.model_name.as_str());
    root.push("board", o.board.as_str());
    root.push("precision", o.precision.as_str());
    root.push("notation", e.notation.as_str());
    root.push("ce_count", e.ce_count);
    let mut metrics = Json::object();
    metrics.push("latency_ms", e.latency_ms());
    metrics.push("throughput_fps", e.throughput_fps);
    metrics.push("buffer_req_mib", e.buffer_mib());
    metrics.push("buffer_alloc_mib", e.buffer_alloc_bytes.mib());
    metrics.push("offchip_mib", e.offchip_mib());
    metrics.push("offchip_weight_share", e.weight_traffic_share());
    metrics.push("memory_stall_fraction", e.memory_stall_fraction);
    metrics.push("total_macs", e.total_macs);
    root.push("metrics", metrics);
    let mut energy = Json::object();
    energy.push("total_mj", o.energy.total_mj());
    energy.push("dram_share", o.energy.dram_share());
    energy.push("gops_per_w", o.gops_per_w);
    root.push("energy", energy);
    let mut batch = Json::object();
    batch.push("size", o.batch);
    batch.push("total_ms", e.batch_latency_s(o.batch) * 1e3);
    batch.push("amortized_ms", e.amortized_latency_s(o.batch) * 1e3);
    root.push("batch", batch);
    let segments: Vec<Json> = e
        .segments
        .iter()
        .map(|s| {
            let mut seg = Json::object();
            seg.push("index", s.index);
            seg.push("first_layer", s.first + 1);
            seg.push("last_layer", s.last + 1);
            seg.push("time_ms", s.time_s * 1e3);
            seg.push("utilization", s.utilization);
            seg.push("traffic_mib", s.traffic().mib());
            seg.push("memory_bound", s.memory_s > s.compute_s);
            seg
        })
        .collect();
    root.push("segments", segments);
    let engines: Vec<Json> = e
        .ces
        .iter()
        .map(|c| {
            let mut ce = Json::object();
            ce.push("ce", c.ce + 1);
            ce.push("pes", c.pes);
            ce.push("busy_ms", c.busy_s * 1e3);
            ce.push("utilization", c.utilization);
            ce
        })
        .collect();
    root.push("engines", engines);
    root
}

fn sweep_json(o: &SweepOutcome) -> Json {
    let mut root = Json::object();
    root.push("action", "sweep");
    root.push("model", o.model.as_str());
    root.push("board", o.board.as_str());
    root.push("min_ces", o.min_ces);
    root.push("max_ces", o.max_ces);
    let points: Vec<Json> = o
        .points
        .iter()
        .map(|p| {
            let mut row = Json::object();
            row.push("architecture", p.architecture.name().to_ascii_lowercase());
            row.push("ces", p.ces);
            row.push("latency_ms", p.eval.latency_ms());
            row.push("throughput_fps", p.eval.throughput_fps);
            row.push("buffer_req_mib", p.eval.buffer_mib());
            row.push("offchip_mib", p.eval.offchip_mib());
            row
        })
        .collect();
    root.push("points", points);
    let selection: Vec<Json> = o
        .selection
        .iter()
        .map(|cell| {
            let mut row = Json::object();
            row.push("metric", cell.metric.name().to_ascii_lowercase());
            let winners: Vec<Json> = cell
                .winners
                .iter()
                .map(|(arch, ces, value)| {
                    let mut w = Json::object();
                    w.push("architecture", arch.name().to_ascii_lowercase());
                    w.push("ces", *ces);
                    w.push("value", *value);
                    w
                })
                .collect();
            row.push("winners", winners);
            row
        })
        .collect();
    root.push("selection", selection);
    root
}

fn sample_json(o: &SampleOutcome) -> Json {
    let mut root = Json::object();
    root.push("action", "sample");
    root.push("model", o.model.as_str());
    root.push("board", o.board.as_str());
    root.push("evaluated", o.evaluated);
    root.push("seed", o.seed);
    root.push("metrics", metric_list(&o.metrics));
    root.push("hypervolume", o.hypervolume);
    root.push("front_size", o.front.len());
    root.push(
        "front",
        o.front.iter().map(summary_json).collect::<Vec<_>>(),
    );
    root
}

fn optimize_json(o: &OptimizeOutcome) -> Json {
    let mut root = Json::object();
    root.push("action", "optimize");
    root.push("model", o.model.as_str());
    root.push("board", o.board.as_str());
    root.push("seed", o.seed);
    root.push("budget", o.budget);
    root.push("evaluations", o.evaluations);
    root.push("feasible", o.feasible);
    let mut cache = Json::object();
    cache.push("seg_hits", o.cache.seg_hits);
    cache.push("seg_misses", o.cache.seg_misses);
    cache.push("seg_evictions", o.cache.seg_evictions);
    cache.push("delta_recombines", o.cache.delta_recombines);
    cache.push("full_builds", o.cache.full_builds);
    cache.push("memo_hits", o.cache.memo_hits);
    cache.push("memo_evictions", o.cache.memo_evictions);
    root.push("cache", cache);
    root.push("metrics", metric_list(&o.metrics));
    let mut best = Json::object();
    for &m in &o.metrics {
        if let Some(v) = m.best(o.front.iter().map(|s| m.value(s))) {
            best.push(&m.name().to_ascii_lowercase(), v);
        }
    }
    root.push("best", best);
    root.push("front_size", o.front.len());
    root.push(
        "front",
        o.front.iter().map(summary_json).collect::<Vec<_>>(),
    );
    root
}

/// The analytical quantity a fitted correction applies to, per front
/// member. Must match the `estimated` side of the calibration pairs:
/// for buffers that is the builder's granted allocation
/// (`buffer_alloc_bytes`), not the unclamped requirement the plain
/// `Metric::value` accessor returns.
fn calibration_input(s: &EvalSummary, metric: Metric) -> f64 {
    match metric {
        Metric::OnChipBuffers => s.buffer_alloc_bytes.as_f64(),
        m => m.value(s),
    }
}

/// Display key and unit scale of each calibrated metric's envelope
/// entry, chosen to sit next to the raw `summary_json` fields.
fn calibration_display(metric: Metric) -> (&'static str, f64) {
    match metric {
        Metric::Latency => ("latency_ms", 1e3),
        Metric::Throughput => ("throughput_fps", 1.0),
        Metric::OnChipBuffers => ("buffer_impl_mib", 1.0 / 1_048_576.0),
        Metric::OffChipAccesses => ("offchip_mib", 1.0 / 1_048_576.0),
        Metric::Energy => ("energy_mj", 1e3),
    }
}

fn correction_json(metric: Metric, c: &Correction) -> Json {
    let mut j = Json::object();
    j.push("metric", crate::calib::metric_token(metric));
    j.push("pairs", c.pairs);
    j.push("slope", c.slope);
    j.push("intercept", c.intercept);
    j.push("mean_abs_residual", c.mean_abs_residual);
    j.push("max_abs_residual", c.max_abs_residual);
    j.push("raw_mean_abs_error", c.raw_mean_abs_error);
    j.push("improvement", c.improvement());
    j
}

fn calibrate_json(o: &CalibrateOutcome) -> Json {
    let mut root = Json::object();
    root.push("action", "calibrate");
    root.push("model", o.model.as_str());
    root.push("board", o.board.as_str());
    root.push("precision", o.precision.as_str());
    root.push("seed", o.seed);
    root.push("budget", o.budget);
    root.push("evaluations", o.evaluations);
    root.push("feasible", o.feasible);
    root.push("metrics", metric_list(&o.metrics));
    root.push("top_k", o.top_k);
    root.push("front_size", o.front.len());
    let fitted: Vec<(Metric, &Correction)> = o
        .corrections
        .iter()
        .filter(|(_, c)| c.pairs > 0)
        .map(|(m, c)| (*m, c))
        .collect();
    let front: Vec<Json> = o
        .front
        .iter()
        .map(|s| {
            let mut row = summary_json(s);
            if !fitted.is_empty() {
                let mut envelope = Json::object();
                for &(metric, c) in &fitted {
                    let (key, scale) = calibration_display(metric);
                    let mut entry = Json::object();
                    entry.push("value", c.apply(calibration_input(s, metric)) * scale);
                    entry.push("error_bar", c.error_bar() * scale);
                    envelope.push(key, entry);
                }
                row.push("calibration", envelope);
            }
            row
        })
        .collect();
    root.push("front", front);
    let mut calibration = Json::object();
    let mut store = Json::object();
    if let Some(path) = &o.store_path {
        store.push("path", path.as_str());
    }
    store.push("pairs", o.store_pairs);
    store.push("new_pairs", o.new_pairs);
    calibration.push("store", store);
    calibration.push(
        "corrections",
        o.corrections
            .iter()
            .map(|(m, c)| correction_json(*m, c))
            .collect::<Vec<_>>(),
    );
    let promoted: Vec<Json> = o
        .promoted
        .iter()
        .map(|p| {
            let mut j = Json::object();
            j.push("front_index", p.front_index);
            j.push("notation", p.notation.as_str());
            let measurements: Vec<Json> = p
                .pairs
                .iter()
                .map(|&(metric, analytical, simulated)| {
                    let mut m = Json::object();
                    m.push("metric", crate::calib::metric_token(metric));
                    m.push("analytical", analytical);
                    m.push("simulated", simulated);
                    m
                })
                .collect();
            j.push("measurements", measurements);
            j
        })
        .collect();
    calibration.push("promoted", promoted);
    root.push("calibration", calibration);
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{BoardSpec, DesignSpec, ModelSpec, SAMPLE_DEFAULT_METRICS};

    fn evaluate_scenario(model: &str, board: &str) -> Scenario {
        Scenario::new(
            ModelSpec::Zoo(model.into()),
            BoardSpec::Builtin(board.into()),
            Action::Evaluate {
                design: DesignSpec::Template {
                    architecture: crate::arch::templates::Architecture::Hybrid,
                    ces: 4,
                },
            },
        )
    }

    #[test]
    fn warm_context_serves_repeat_requests_without_rebuilding() {
        let mut session = Session::new();
        let scenario = evaluate_scenario("mobilenetv2", "zc706");
        assert_eq!(session.cached_context_token(&scenario), None);
        let a = session.run(&scenario).unwrap();
        let token = session
            .cached_context_token(&scenario)
            .expect("context cached");
        let warm_memo = {
            // The parallelism memo was populated by the first run.
            let entry = &session.entries[0];
            assert!(entry.explorer.builder().memo_len() > 0);
            entry.explorer.builder().memo_len()
        };
        let b = session.run(&scenario).unwrap();
        assert_eq!(session.stats().hits, 1);
        assert_eq!(session.stats().misses, 1);
        assert_eq!(
            session.cached_context_token(&scenario),
            Some(token),
            "second run must reuse the same build context"
        );
        assert_eq!(session.entries[0].explorer.builder().memo_len(), warm_memo);
        assert_eq!(a, b);
        assert_eq!(a.to_json_string(), b.to_json_string());
    }

    #[test]
    fn distinct_contexts_do_not_collide() {
        let mut session = Session::new();
        session
            .run(&evaluate_scenario("mobilenetv2", "zc706"))
            .unwrap();
        session
            .run(&evaluate_scenario("mobilenetv2", "vcu108"))
            .unwrap();
        let mut int16 = evaluate_scenario("mobilenetv2", "zc706");
        int16.precision = crate::fpga::Precision::INT16;
        session.run(&int16).unwrap();
        assert_eq!(session.stats().misses, 3);
        assert_eq!(session.stats().hits, 0);
        assert_eq!(session.cached_contexts(), 3);
    }

    #[test]
    fn lru_evicts_the_oldest_context() {
        let mut session = Session::with_capacity(2);
        let a = evaluate_scenario("mobilenetv2", "zc706");
        let b = evaluate_scenario("mobilenetv2", "vcu108");
        let c = evaluate_scenario("mobilenetv2", "vcu110");
        session.run(&a).unwrap();
        session.run(&b).unwrap();
        session.run(&a).unwrap(); // refresh a; b is now LRU
        session.run(&c).unwrap(); // evicts b
        assert_eq!(session.stats().evictions, 1);
        assert!(session.cached_context_token(&a).is_some());
        assert!(session.cached_context_token(&b).is_none());
        assert!(session.cached_context_token(&c).is_some());
    }

    #[test]
    fn sample_outcome_is_deterministic_and_sorted() {
        let mut session = Session::new();
        let scenario = Scenario::new(
            ModelSpec::Zoo("mobilenetv2".into()),
            BoardSpec::Builtin("zc706".into()),
            Action::Sample {
                count: 40,
                metrics: SAMPLE_DEFAULT_METRICS.to_vec(),
            },
        );
        let Outcome::Front(a) = session.run(&scenario).unwrap() else {
            panic!()
        };
        let Outcome::Front(b) = session.run(&scenario).unwrap() else {
            panic!()
        };
        assert_eq!(a, b);
        assert!(a.hypervolume > 0.0 && a.hypervolume <= 1.0);
        assert!(!a.front.is_empty());
        // Best-first on throughput (the first default metric).
        for pair in a.front.windows(2) {
            assert!(pair[0].throughput_fps >= pair[1].throughput_fps);
        }
    }

    #[test]
    fn every_action_round_trips_through_json_rendering() {
        let mut session = Session::new();
        let model = ModelSpec::Zoo("mobilenetv2".into());
        let board = BoardSpec::Builtin("zc706".into());
        let actions = [
            Action::Evaluate {
                design: DesignSpec::Notation("{L1-Last: CE1-CE3}".into()),
            },
            Action::Sweep {
                min_ces: 2,
                max_ces: 4,
            },
            Action::Sample {
                count: 20,
                metrics: SAMPLE_DEFAULT_METRICS.to_vec(),
            },
            Action::Optimize {
                metrics: vec![Metric::Throughput, Metric::OnChipBuffers],
                budget: 200,
                population: 8,
                islands: 2,
                migration_interval: 4,
                migrants: 2,
                crossover_prob: 0.9,
                max_fuse_depth: 2,
            },
        ];
        for action in actions {
            let scenario = Scenario::new(model.clone(), board.clone(), action);
            let outcome = session.run(&scenario).unwrap();
            let text = outcome.to_json_string();
            let parsed = Json::parse(&text).expect("outcome JSON is valid");
            assert_eq!(
                parsed.get("action").and_then(Json::as_str),
                Some(outcome.action()),
                "{text}"
            );
            assert_eq!(outcome.action(), scenario.action.name());
        }
        // All four actions share one warmed context.
        assert_eq!(session.stats().misses, 1);
        assert_eq!(session.stats().hits, 3);
    }

    #[test]
    fn empty_sample_metrics_error_instead_of_panicking() {
        // The JSON parser rejects empty metric lists; the direct library
        // path must produce the same typed error, not an index panic.
        let mut session = Session::new();
        let scenario = Scenario::new(
            crate::scenario::ModelSpec::Zoo("mobilenetv2".into()),
            crate::scenario::BoardSpec::Builtin("zc706".into()),
            Action::Sample {
                count: 5,
                metrics: vec![],
            },
        );
        match session.run(&scenario) {
            Err(Error::Scenario { field, .. }) => {
                assert_eq!(field, "action.sample.metrics");
            }
            other => panic!("expected a scenario error, got {other:?}"),
        }
    }

    #[test]
    fn schedule_overrides_rewrite_the_evaluated_design() {
        use crate::arch::Schedule;
        let mut session = Session::new();
        // A small-BRAM board where per-layer FM spills are common, so a
        // depth-first default measurably cuts off-chip traffic.
        let base = Scenario::new(
            ModelSpec::Zoo("mobilenetv2".into()),
            BoardSpec::Custom(crate::fpga::FpgaBoard::new(
                "small-bram",
                900,
                crate::fpga::MiB(0.5),
                4.0,
            )),
            Action::Evaluate {
                design: DesignSpec::Notation("{L1-L17: CE1, L18-Last: CE2}".into()),
            },
        );
        let Outcome::Evaluation(lbl) = session.run(&base).unwrap() else {
            panic!()
        };
        let mut fused = base.clone();
        fused.schedule = Some(Schedule::DepthFirst { fuse_depth: 4 });
        let Outcome::Evaluation(df) = session.run(&fused).unwrap() else {
            panic!()
        };
        assert!(
            df.eval.offchip_bytes < lbl.eval.offchip_bytes,
            "depth-first {} should beat layer-by-layer {}",
            df.eval.offchip_bytes,
            lbl.eval.offchip_bytes
        );
        // The degenerate depth is bit-identical to the unscheduled run —
        // everything except the notation, which faithfully records @df1.
        let mut degenerate = base.clone();
        degenerate.schedule = Some(Schedule::DepthFirst { fuse_depth: 1 });
        let Outcome::Evaluation(mut same) = session.run(&degenerate).unwrap() else {
            panic!()
        };
        assert!(
            same.eval.notation.contains("@df1"),
            "{}",
            same.eval.notation
        );
        same.eval.summary.notation = lbl.eval.notation.clone();
        assert_eq!(same.eval, lbl.eval);
        // A per-CE override beats the design-wide default on its CE.
        let mut per_ce = fused.clone();
        per_ce.ces = vec![crate::scenario::CeOverride {
            schedule: Some(Schedule::LayerByLayer),
        }];
        let Outcome::Evaluation(mixed) = session.run(&per_ce).unwrap() else {
            panic!()
        };
        assert!(mixed.eval.offchip_bytes > df.eval.offchip_bytes);
        assert!(mixed.eval.offchip_bytes < lbl.eval.offchip_bytes);
        // Overrides past the design's assignment list name their path.
        let mut bad = base.clone();
        bad.ces = vec![crate::scenario::CeOverride::default(); 5];
        bad.ces[4].schedule = Some(Schedule::LayerByLayer);
        match session.run(&bad) {
            Err(Error::Scenario { field, .. }) => assert_eq!(field, "ces.4"),
            other => panic!("expected a scenario error, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_design_surfaces_as_arch_error() {
        let mut session = Session::new();
        let scenario = Scenario::new(
            ModelSpec::Zoo("mobilenetv2".into()),
            BoardSpec::Custom(crate::fpga::FpgaBoard::new(
                "tiny",
                3,
                crate::fpga::MiB(0.05),
                0.5,
            )),
            Action::Evaluate {
                design: DesignSpec::Template {
                    architecture: crate::arch::templates::Architecture::Segmented,
                    ces: 5,
                },
            },
        );
        match session.run(&scenario) {
            Err(Error::Arch(crate::arch::ArchError::Infeasible { .. })) => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }
}
