//! The layer entry points `Session::run` calls, invoked one by one from
//! the benchmark so each call can carry a span, plus the post-loop
//! referee that checks analytical results against `mccm-sim`.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use mccm::arch::{Architecture, BlockSpec, BuiltAccelerator, CeRole};
use mccm::calib::{metric_pairs, promote_top_k};
use mccm::core::{
    accuracy_pct, CostModel, EnergyModel, EvalScratch, EvalSummary, Evaluation, Metric,
};
use mccm::dse::{
    hypervolume, par_pareto_indices, select_all_metrics, union_bounds, Explorer, PAPER_TIE_FRAC,
};
use mccm::json::Json;
use mccm::scenario::{Action, BoardSpec, ModelSpec, Scenario};
use mccm::session::{EvaluationOutcome, OptimizeOutcome, SampleOutcome, SweepOutcome};
use mccm::sim::{SimConfig, SimResult, Simulator};
use mccm::{Error, Outcome};

use crate::trace::Tracer;

/// Size and seed of the fixed reference sample per (model, board) that
/// normalizes hypervolumes.
pub const REFERENCE_COUNT: usize = 1000;
pub const REFERENCE_SEED: u64 = 7;
/// Host time of one slice of the simulator-rate measurement. Slices
/// follow set-up repeats and, on `optimize`, timed passes (on `serve`,
/// stretches of the post-loop replay), so the
/// samples spread over the run instead of sitting in one window that a
/// dip in host speed, which can last seconds, covers whole.
pub const SIM_RATE_SLICE: Duration = Duration::from_millis(600);
/// Simulating threads of a rate slice: one per host CPU.
const SIM_RATE_THREADS: usize = 2;

/// Stable hash of an outcome text (std's SipHash with fixed keys).
pub fn text_hash(text: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// The benchmark's mirror of the session's LRU context cache, counting
/// hits, misses and evictions the same way.
pub struct Contexts {
    capacity: usize,
    entries: Vec<(String, Explorer)>,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

fn cache_key(s: &Scenario) -> String {
    format!(
        "{}|{}|w{}a{}|b{}",
        s.model.cache_token(),
        s.board.cache_token(),
        s.precision.weight_bytes,
        s.precision.activation_bytes,
        s.batch
    )
}

impl Contexts {
    pub fn new() -> Self {
        Self {
            capacity: mccm::Session::DEFAULT_CAPACITY,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The warmed explorer for `scenario`'s (model, board, precision,
    /// batch) key. A miss builds the context inside a `session.context`
    /// span (model build, then builder and explorer).
    pub fn get(&mut self, t: &mut Tracer, scenario: &Scenario) -> Result<&Explorer, Error> {
        let key = cache_key(scenario);
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.hits += 1;
            let entry = self.entries.remove(i);
            self.entries.insert(0, entry);
            return Ok(&self.entries[0].1);
        }
        self.misses += 1;
        t.open("session.context");
        let model = t.span("cnn.model_build", || scenario.model.build());
        let built = model.and_then(|model| {
            let board = scenario.board.build()?;
            let builder = mccm::arch::MultipleCeBuilder::new(&model, &board)
                .with_precision(scenario.precision);
            Ok(Explorer::from_parts(model, builder))
        });
        t.close();
        self.entries.insert(0, (key, built?));
        if self.entries.len() > self.capacity {
            self.entries.pop();
            self.evictions += 1;
        }
        Ok(&self.entries[0].1)
    }

    /// [`Self::get`] for a zoo model on a builtin board.
    pub fn zoo(&mut self, t: &mut Tracer, model: &str, board: &str) -> &Explorer {
        let scenario = zoo_scenario(model, board);
        self.get(t, &scenario).expect("zoo model and builtin board")
    }

    /// Parallelism-memo entries held across every cached context.
    pub fn memo_len(&self) -> usize {
        self.entries
            .iter()
            .map(|(_, e)| e.builder().memo_len())
            .sum()
    }
}

pub fn zoo_scenario(model: &str, board: &str) -> Scenario {
    Scenario::new(
        ModelSpec::Zoo(model.into()),
        BoardSpec::Builtin(board.into()),
        Action::Sweep {
            min_ces: 2,
            max_ces: 2,
        },
    )
}

/// The fixed seeded reference sample of one (model, board).
pub fn reference_sample(t: &mut Tracer, explorer: &Explorer) -> Vec<EvalSummary> {
    let (points, _) = t
        .span("dse.reference_sample", || {
            explorer.par_sample_custom_summaries(REFERENCE_COUNT, REFERENCE_SEED, 2)
        })
        .expect("reference sample");
    points.into_iter().map(|p| p.summary).collect()
}

/// The fixed design the simulator's rate is measured on for one key:
/// the hybrid template at 4 CEs, the workloads' warm-up design.
pub fn rate_design(explorer: &Explorer) -> (BuiltAccelerator, Evaluation) {
    let spec = Architecture::Hybrid
        .instantiate(explorer.model(), 4)
        .expect("hybrid template at 4 CEs");
    let acc = explorer
        .builder()
        .build(&spec)
        .expect("hybrid at 4 CEs builds");
    let eval = CostModel::evaluate(&acc);
    (acc, eval)
}

/// Normalized hypervolume of `front` against the bounds of its union
/// with the reference sample.
pub fn front_hv(front: &[EvalSummary], reference: &[EvalSummary], metrics: &[Metric]) -> f64 {
    let bounds = union_bounds(&[front, reference], metrics);
    hypervolume(front, metrics, &bounds)
}

/// One replayed request.
pub struct Replayed {
    pub outcome: Outcome,
    pub text: String,
}

fn precision_name(s: &Scenario) -> String {
    s.precision
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("{:?}", s.precision))
}

/// Runs one scenario text through the same entry points as
/// `Session::run` (parse, validate, context, action, render), one span
/// per layer call.
pub fn replay(t: &mut Tracer, ctxs: &mut Contexts, text: &str) -> Result<Replayed, Error> {
    let json = t.span("json.parse", || Json::parse(text))?;
    let scenario = t.span("scenario.validate", || Scenario::from_json(&json))?;
    let explorer = ctxs.get(t, &scenario)?;
    let workers = scenario.workers;
    let model_name = explorer.model().name().to_string();
    let board_name = explorer.builder().board().name.clone();
    let outcome = match &scenario.action {
        Action::Evaluate { design } => {
            let acc = t.span("arch.build", || build_design(explorer, &scenario, design))?;
            let eval = t.span("core.evaluate", || CostModel::evaluate(&acc));
            t.open("core.energy");
            let energy = EnergyModel::default();
            let estimate = energy.estimate(&eval, eval.total_macs);
            let gops_per_w = energy.efficiency_gops_per_w(&eval, eval.total_macs);
            t.close();
            let o = EvaluationOutcome {
                board: explorer.builder().board().to_string(),
                precision: precision_name(&scenario),
                batch: scenario.batch,
                energy: estimate,
                gops_per_w,
                eval,
            };
            Outcome::Evaluation(Box::new(o))
        }
        Action::Sweep { min_ces, max_ces } => {
            t.open("dse.sweep");
            let points = explorer.par_sweep_baselines(*min_ces..=*max_ces, workers);
            let points = points.map(|p| {
                let selection = select_all_metrics(&p, PAPER_TIE_FRAC);
                (p, selection)
            });
            t.close();
            let (points, selection) = points?;
            let o = SweepOutcome {
                model: model_name,
                board: board_name,
                min_ces: *min_ces,
                max_ces: *max_ces,
                points,
                selection,
            };
            Outcome::Sweep(o)
        }
        Action::Sample { count, metrics } => {
            let run = t.span("dse.sample", || {
                explorer.par_sample_custom_summaries(*count, scenario.seed, workers)
            })?;
            let summaries: Vec<EvalSummary> = run.0.into_iter().map(|p| p.summary).collect();
            let front_indices = t.span("dse.pareto", || {
                par_pareto_indices(&summaries, metrics, workers)
            });
            let mut front: Vec<EvalSummary> = front_indices
                .iter()
                .map(|&i| summaries[i].clone())
                .collect();
            sort_front(&mut front, metrics);
            let hv = t.span("dse.hypervolume", || {
                let bounds = union_bounds(&[summaries.as_slice()], metrics);
                hypervolume(&front, metrics, &bounds)
            });
            let o = SampleOutcome {
                model: model_name,
                board: board_name,
                evaluated: *count,
                seed: scenario.seed,
                metrics: metrics.clone(),
                hypervolume: hv,
                front,
            };
            Outcome::Front(o)
        }
        Action::Optimize { .. } => {
            let config = scenario.optimizer_config().expect("optimize action");
            t.open("dse.optimize");
            let guided = config
                .validate()
                .and_then(|()| explorer.optimize_par(&config, workers));
            t.close();
            let guided = guided?;
            let o = OptimizeOutcome {
                model: model_name,
                board: board_name,
                seed: scenario.seed,
                budget: config.budget,
                evaluations: guided.evaluations,
                feasible: guided.feasible,
                cache: guided.cache,
                metrics: guided.metrics.clone(),
                front: guided.points.into_iter().map(|p| p.summary).collect(),
            };
            Outcome::Optimized(o)
        }
        Action::Calibrate { .. } => {
            return Err(Error::scenario("action", "not part of any workload"));
        }
    };
    let text = t.span("json.render", || outcome.to_json_string());
    Ok(Replayed { outcome, text })
}

/// Instantiates and builds an evaluate scenario's design, with the
/// scenario's schedule overrides applied as the session applies them.
pub fn build_design(
    explorer: &Explorer,
    scenario: &Scenario,
    design: &mccm::scenario::DesignSpec,
) -> Result<BuiltAccelerator, Error> {
    let mut spec = design.instantiate(explorer.model())?;
    apply_schedules(&mut spec, scenario);
    Ok(explorer.builder().build(&spec)?)
}

/// The scenario's design-wide and per-CE schedule overrides (the
/// generator only emits in-range overrides).
fn apply_schedules(spec: &mut mccm::arch::AcceleratorSpec, scenario: &Scenario) {
    if let Some(default) = scenario.schedule {
        for a in &mut spec.assignments {
            if matches!(a.block, BlockSpec::Single(_)) {
                a.schedule = default;
            }
        }
    }
    for (a, over) in spec.assignments.iter_mut().zip(&scenario.ces) {
        if let Some(schedule) = over.schedule {
            a.schedule = schedule;
        }
    }
}

/// Best-first on the first metric, notation as the tie-break — the
/// session's front order.
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

/// Rebuilds front members from their notation and runs them through the
/// arch and core entry points one by one: build, per-CE planning, the
/// summary lane, its segment-cost/recombine split, and energy. Returns
/// how many members failed to reproduce their summary bit for bit.
pub fn probe_front(t: &mut Tracer, explorer: &Explorer, front: &[EvalSummary]) -> u64 {
    let mut scratch = EvalScratch::default();
    let mut mismatches = 0;
    for member in front {
        let built = mccm::arch::notation::parse(&member.notation)
            .map_err(Error::from)
            .and_then(|spec| {
                t.span("arch.build", || explorer.builder().build(&spec))
                    .map_err(Error::from)
            });
        let Ok(acc) = built else {
            mismatches += 1;
            continue;
        };
        for ce in acc.ces.iter().filter(|c| c.role == CeRole::Single) {
            let ctx = t.span("arch.ce_context", || {
                explorer.builder().ce_context(
                    ce.pes,
                    ce.layers[0],
                    ce.layers.len(),
                    ce.role,
                    ce.schedule,
                )
            });
            if ctx.parallelism != ce.parallelism {
                mismatches += 1;
            }
        }
        let summary = t.span("core.evaluate_summary", || {
            CostModel::evaluate_summary(&acc, &mut scratch)
        });
        let config = mccm::core::ModelConfig::default();
        let mut costs = Vec::with_capacity(acc.segments.len());
        for i in 0..acc.segments.len() {
            costs.push(t.span("core.segment_cost", || {
                CostModel::segment_cost(&acc, i, &config, &mut scratch)
            }));
        }
        let recombined = t.span("core.recombine", || {
            CostModel::recombine(
                CostModel::design_coupling(&acc, &config),
                &costs,
                &mut scratch,
            )
        });
        t.span("core.energy", || {
            EnergyModel::default().estimate_summary(&summary)
        });
        if summary != *member || recombined != *member {
            mismatches += 1;
        }
    }
    mismatches
}

/// Post-loop check of analytical results against the simulator: Eq. 10
/// accuracies, event counts, and the exactness rules (off-chip accesses
/// agree to the byte; every run simulates at least one event).
#[derive(Default)]
pub struct Referee {
    pub accuracies: Vec<f64>,
    pub events: u64,
    pub sims: u64,
    pub sim_ns: u64,
    /// Simulated events per run and host ns of every run, per design
    /// (model, board, notation).
    per_design: BTreeMap<String, (u64, Vec<u64>)>,
    pub failures: u64,
}

impl Referee {
    /// Simulates one design; returns the result and its host ns.
    fn simulate(
        &mut self,
        t: &mut Tracer,
        acc: &BuiltAccelerator,
        eval: &Evaluation,
    ) -> (SimResult, u64) {
        let start = Instant::now();
        let sim = t.span("sim.run", || {
            Simulator::new(SimConfig::default()).run_with_eval(acc, eval)
        });
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let key = format!("{}|{}|{}", eval.model_name, acc.board.name, eval.notation);
        self.record(key, sim.events, ns);
        (sim, ns)
    }

    /// Records one run of design `key`: its events and host ns.
    fn record(&mut self, key: String, events: u64, ns: u64) {
        self.sim_ns += ns;
        self.sims += 1;
        self.events += events;
        let entry = self.per_design.entry(key).or_default();
        entry.0 = events;
        entry.1.push(ns);
    }

    /// Simulates one built design and records its accuracies.
    pub fn check(
        &mut self,
        t: &mut Tracer,
        acc: &BuiltAccelerator,
        eval: &Evaluation,
    ) -> SimResult {
        let (sim, _) = self.simulate(t, acc, eval);
        for (metric, analytical, simulated) in metric_pairs(eval, &sim) {
            let a = accuracy_pct(simulated, analytical);
            if metric == Metric::OffChipAccesses && a != 100.0 {
                self.failures += 1;
            }
            self.accuracies.push(a);
        }
        if sim.events == 0 {
            self.failures += 1;
        }
        sim
    }

    /// Simulated events per host second: the median over simulated
    /// designs of each design's events over its fastest run. Rates
    /// differ several-fold between designs, so a total over all runs
    /// would follow whichever few designs simulate longest. Host noise
    /// only ever slows a run, and on a shared host it slows a share of
    /// runs by a third, a share that changes from run to run, so any
    /// quantile short of the fastest flips with that share.
    pub fn events_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .per_design
            .values()
            .map(|(events, runs)| {
                let fastest = runs.iter().copied().min().unwrap_or(1).max(1);
                *events as f64 / (fastest as f64 / 1e9)
            })
            .collect();
        if rates.is_empty() {
            return 0.0;
        }
        crate::median(&rates)
    }

    /// Rebuilds the top `k` promoted members of a front and referees
    /// them; a member whose rich-lane evaluation differs from its front
    /// summary counts as a failure.
    pub fn check_front(
        &mut self,
        t: &mut Tracer,
        explorer: &Explorer,
        front: &[EvalSummary],
        metrics: &[Metric],
        k: usize,
    ) {
        for i in promote_top_k(front, metrics, k) {
            let member = &front[i];
            let built = mccm::arch::notation::parse(&member.notation)
                .map_err(Error::from)
                .and_then(|spec| Ok(explorer.builder().build(&spec)?));
            match built {
                Ok(acc) => {
                    let eval = CostModel::evaluate(&acc);
                    if eval.summary() != *member {
                        self.failures += 1;
                    }
                    self.check(t, &acc, &eval);
                }
                Err(_) => self.failures += 1,
            }
        }
    }

    /// Adds another referee's runs, counters and failures (not its
    /// accuracies).
    pub fn absorb(&mut self, other: &Referee) {
        self.events += other.events;
        self.sims += other.sims;
        self.sim_ns += other.sim_ns;
        self.failures += other.failures;
        for (key, (events, runs)) in &other.per_design {
            let entry = self.per_design.entry(key.clone()).or_default();
            entry.0 = *events;
            entry.1.extend(runs);
        }
    }

    /// Eq. 10 average over every recorded metric accuracy.
    pub fn accuracy_avg_pct(&self) -> f64 {
        self.accuracies.iter().sum::<f64>() / self.accuracies.len().max(1) as f64
    }
}

/// The simulator's rate on each key's [`rate_design`], sampled in
/// slices, each run by a fresh child process (`simrate`). A workload's
/// own heap, such as a warm optimizer session's caches, slows the
/// simulator by up to a third, by an amount that changes from run to
/// run; a fresh process measures the simulator alone.
pub struct SimRate {
    workload: &'static str,
    /// Run times, counters and exactness failures of every slice.
    pub referee: Referee,
}

impl SimRate {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            referee: Referee::default(),
        }
    }

    /// Runs one slice in a child process and records its runs; a child
    /// that fails its checks counts as one failure.
    pub fn slice(&mut self) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let out = std::process::Command::new(exe)
            .args(["simrate", self.workload])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning simrate: {e}"))?;
        if !out.status.success() {
            self.referee.failures += 1;
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let mut fields = line.split_whitespace();
            let (Some(key), Some(events)) = (fields.next(), fields.next()) else {
                return Err(format!("bad simrate line {line:?}"));
            };
            let events: u64 = events
                .parse()
                .map_err(|_| format!("bad events in {line:?}"))?;
            for ns in fields {
                let ns = ns.parse().map_err(|_| format!("bad ns in {line:?}"))?;
                self.referee.record(key.to_string(), events, ns);
            }
        }
        Ok(())
    }
}

/// Entry point of a `simrate` child: checks each of the workload's rate
/// designs against the model once, simulates them round-robin for one
/// [`SIM_RATE_SLICE`], and prints one line per design: key, events per
/// run, and the host ns of every rerun. Exits 1 when a run fails the
/// referee's checks or a rerun's event count differs from the first.
pub fn simrate_main(args: &[String]) -> std::process::ExitCode {
    let Some(keys) = args.first().and_then(|w| crate::gen::rate_keys(w)) else {
        eprintln!("error: simrate needs a workload (optimize | serve)");
        return std::process::ExitCode::from(2);
    };
    let mut t = Tracer::new(false, Instant::now());
    let mut ctxs = Contexts::new();
    let mut referee = Referee::default();
    let designs: Vec<_> = keys
        .iter()
        .map(|(model, board)| rate_design(ctxs.zoo(&mut t, model, board)))
        .collect();
    let events: Vec<u64> = designs
        .iter()
        .map(|(acc, eval)| referee.check(&mut t, acc, eval).events)
        .collect();
    // One simulating thread per host CPU, for the reason `validate` runs
    // two clients.
    let threads: Vec<(u64, Vec<Vec<u64>>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SIM_RATE_THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut t = Tracer::new(false, Instant::now());
                    let mut referee = Referee::default();
                    let mut runs_ns = vec![Vec::new(); designs.len()];
                    let start = Instant::now();
                    while start.elapsed() < SIM_RATE_SLICE {
                        for (i, (acc, eval)) in designs.iter().enumerate() {
                            let (sim, ns) = referee.simulate(&mut t, acc, eval);
                            if sim.events != events[i] {
                                referee.failures += 1;
                            }
                            runs_ns[i].push(ns);
                        }
                    }
                    (referee.failures, runs_ns)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("simrate thread"))
            .collect()
    });
    for (i, ((model, board), events)) in keys.iter().zip(&events).enumerate() {
        let runs: Vec<String> = threads
            .iter()
            .flat_map(|(_, runs)| runs[i].iter().map(u64::to_string))
            .collect();
        println!("{model}|{board} {events} {}", runs.join(" "));
    }
    referee.failures += threads.iter().map(|(f, _)| f).sum::<u64>();
    if referee.failures == 0 {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::from(1)
    }
}

/// Pareto front (over `metrics`) of a point set.
pub fn front_of(points: &[EvalSummary], metrics: &[Metric]) -> Vec<EvalSummary> {
    par_pareto_indices(points, metrics, 1)
        .into_iter()
        .map(|i| points[i].clone())
        .collect()
}
