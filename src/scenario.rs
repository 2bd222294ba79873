//! The declarative request format of the scenario API: one serializable
//! [`Scenario`] describes *what* to run — which CNN, which board, which
//! action — and [`Session::run`](crate::session::Session::run) decides
//! *how*, reusing warmed builder contexts across requests.
//!
//! A scenario is plain data. It parses from (and serializes back to) the
//! JSON documented in `docs/scenario_file.md`; unknown or mistyped fields
//! are rejected with the offending dotted path named, and every name
//! (model, board, architecture, precision, metric) is validated against
//! its crate registry at parse time so errors surface before any work
//! runs.
//!
//! # Examples
//!
//! ```
//! use mccm::scenario::Scenario;
//!
//! let text = r#"{
//!     "model": {"zoo": "mobilenetv2"},
//!     "board": {"builtin": "zc706"},
//!     "action": {"evaluate": {"template": "hybrid", "ces": 4}}
//! }"#;
//! let scenario = Scenario::from_json_str(text).unwrap();
//! // Serialization is canonical: defaults are materialized, and the
//! // result re-parses to an equal scenario.
//! let back = Scenario::from_json_str(&scenario.to_json_string()).unwrap();
//! assert_eq!(scenario, back);
//! ```

use crate::arch::templates::Architecture;
use crate::arch::Schedule;
use crate::cnn::synthetic::SyntheticConfig;
use crate::cnn::{zoo, CnnModel};
use crate::core::Metric;
use crate::dse::OptimizerConfig;
use crate::error::Error;
use crate::fpga::{FpgaBoard, MiB, Precision};
use crate::json::Json;

/// Which CNN a scenario runs against.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// A zoo model by canonical name ([`zoo::names`]).
    Zoo(String),
    /// A seeded synthetic CNN ([`crate::cnn::synthetic::random_cnn`]).
    Synthetic {
        /// Generator seed.
        seed: u64,
        /// Generator configuration.
        config: SyntheticConfig,
    },
}

impl ModelSpec {
    /// Builds the CNN this spec describes.
    ///
    /// # Errors
    ///
    /// [`Error::Scenario`] for unknown zoo names (parse-time validation
    /// normally catches this first).
    pub fn build(&self) -> Result<CnnModel, Error> {
        match self {
            Self::Zoo(name) => zoo::by_name(name)
                .ok_or_else(|| unknown_name_error("model.zoo", name, zoo::names())),
            Self::Synthetic { seed, config } => {
                Ok(crate::cnn::synthetic::random_cnn(*seed, config))
            }
        }
    }

    /// Deterministic cache-key token: two specs with equal tokens build
    /// identical CNNs.
    pub fn cache_token(&self) -> String {
        match self {
            Self::Zoo(name) => format!("zoo:{name}"),
            Self::Synthetic { seed, config } => format!(
                "synthetic:seed={seed},layers={},size={},base={},res={},dw={}",
                config.conv_layers,
                config.input_size,
                config.base_channels,
                config.residual_prob,
                config.depthwise_prob
            ),
        }
    }
}

/// Which FPGA platform a scenario targets.
#[derive(Debug, Clone, PartialEq)]
pub enum BoardSpec {
    /// An evaluation board by name ([`FpgaBoard::names`]).
    Builtin(String),
    /// A custom platform with explicit resources.
    Custom(FpgaBoard),
}

impl BoardSpec {
    /// Builds the board this spec describes.
    ///
    /// # Errors
    ///
    /// [`Error::Scenario`] for unknown builtin names.
    pub fn build(&self) -> Result<FpgaBoard, Error> {
        match self {
            Self::Builtin(name) => FpgaBoard::by_name(name)
                .ok_or_else(|| unknown_name_error("board.builtin", name, FpgaBoard::names())),
            Self::Custom(board) => Ok(board.clone()),
        }
    }

    /// Deterministic cache-key token: two specs with equal tokens build
    /// identical boards.
    pub fn cache_token(&self) -> String {
        match self {
            Self::Builtin(name) => format!("builtin:{}", name.to_ascii_lowercase()),
            Self::Custom(b) => format!(
                "custom:{},dsps={},bram={},bw={},clk={}",
                b.name, b.dsps, b.bram.0, b.bandwidth_gbps, b.clock_mhz
            ),
        }
    }
}

/// Which accelerator design an evaluate action targets.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignSpec {
    /// The paper's textual notation (`{L1-L4: CE1, …}`).
    Notation(String),
    /// A baseline template instantiated at a CE count.
    Template {
        /// Which of the three architectures.
        architecture: Architecture,
        /// CE count.
        ces: usize,
    },
}

impl DesignSpec {
    /// Materializes the design as an accelerator spec for `model` — the
    /// one resolution path the session and the `validate` command share.
    ///
    /// # Errors
    ///
    /// [`Error::Arch`] for notation parse faults or invalid template
    /// instantiations.
    pub fn instantiate(&self, model: &CnnModel) -> Result<crate::arch::AcceleratorSpec, Error> {
        match self {
            Self::Notation(text) => Ok(crate::arch::notation::parse(text)?),
            Self::Template { architecture, ces } => Ok(architecture.instantiate(model, *ces)?),
        }
    }
}

/// What a scenario does once its (model, board) context is warmed.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Evaluate one design through the full cost model (plus energy).
    Evaluate {
        /// The design to evaluate.
        design: DesignSpec,
    },
    /// Sweep the three baseline architectures over a CE-count range and
    /// pick winners per metric with the paper's 10% tie rule.
    Sweep {
        /// Smallest CE count (inclusive).
        min_ces: usize,
        /// Largest CE count (inclusive).
        max_ces: usize,
    },
    /// Sample the custom design space and report the Pareto front over
    /// `metrics`.
    Sample {
        /// Feasible designs to evaluate.
        count: usize,
        /// Front objectives.
        metrics: Vec<Metric>,
    },
    /// Guided multi-objective optimization over the custom space.
    Optimize {
        /// Objectives.
        metrics: Vec<Metric>,
        /// Total evaluation-attempt budget.
        budget: u64,
        /// Population per island.
        population: usize,
        /// Island count.
        islands: usize,
        /// Generations between migration epochs.
        migration_interval: usize,
        /// Elite migrants per epoch.
        migrants: usize,
        /// Crossover probability.
        crossover_prob: f64,
        /// Largest depth-first fuse depth in the schedule axis (1 =
        /// layer-by-layer only, the pre-schedule search space).
        max_fuse_depth: usize,
    },
    /// Guided optimization followed by simulator-in-the-loop calibration:
    /// the top-K front members are promoted to the reference simulator,
    /// the (analytical, simulated) pairs accumulate in a persistent
    /// store, and the front is annotated with calibrated predictions and
    /// ± residual error bars (see `docs/calibration.md`).
    Calibrate {
        /// Objectives of the underlying optimization.
        metrics: Vec<Metric>,
        /// Total evaluation-attempt budget of the optimization.
        budget: u64,
        /// Population per island.
        population: usize,
        /// Island count.
        islands: usize,
        /// Front members promoted to the simulator (per-metric extremes
        /// plus crowding-spread fill).
        top_k: usize,
        /// Calibration-store file accumulating pairs across runs; `None`
        /// calibrates from this run's pairs only, persisting nothing.
        store: Option<String>,
    },
}

/// Per-CE overrides of an evaluate scenario (`ces[i]` addresses the
/// design's assignment `i`, in notation order).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CeOverride {
    /// Replaces the assignment's schedule when set.
    pub schedule: Option<Schedule>,
}

impl Action {
    /// The action's JSON key (`evaluate` / `sweep` / `sample` /
    /// `optimize` / `calibrate`).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Evaluate { .. } => "evaluate",
            Self::Sweep { .. } => "sweep",
            Self::Sample { .. } => "sample",
            Self::Optimize { .. } => "optimize",
            Self::Calibrate { .. } => "calibrate",
        }
    }
}

/// Default front objectives of the sample action (the paper's Use Case 3
/// plot: throughput vs on-chip buffers).
pub const SAMPLE_DEFAULT_METRICS: [Metric; 2] = [Metric::Throughput, Metric::OnChipBuffers];

/// Default number of front members a calibrate action promotes to the
/// simulator: one extreme per objective plus a few spread samples, small
/// enough that promotion stays a fraction of the search budget's cost.
pub const CALIBRATE_DEFAULT_TOP_K: usize = 8;

/// A complete, self-contained request: model + board context, execution
/// knobs, and one action. See the module docs for the JSON form.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Which CNN.
    pub model: ModelSpec,
    /// Which platform.
    pub board: BoardSpec,
    /// Data-type widths (default 8-bit).
    pub precision: Precision,
    /// Batch size for batch-latency reporting (≥ 1, default 1).
    pub batch: usize,
    /// RNG seed for sampling/optimization (default 1).
    pub seed: u64,
    /// Worker threads (`0` = one per core, the default). Results are
    /// worker-count invariant throughout.
    pub workers: usize,
    /// Design-wide schedule applied to every single-CE assignment of an
    /// evaluate design (pipelined blocks keep layer-by-layer — they
    /// already overlap layers at tile granularity). `None` keeps
    /// whatever the design specifies. Evaluate-only.
    pub schedule: Option<Schedule>,
    /// Per-CE overrides (`ces[i]` addresses assignment `i`); may be
    /// shorter than the design's assignment list. Evaluate-only.
    pub ces: Vec<CeOverride>,
    /// What to run.
    pub action: Action,
}

impl Scenario {
    /// A scenario with default knobs (8-bit, batch 1, seed 1, auto
    /// workers).
    pub fn new(model: ModelSpec, board: BoardSpec, action: Action) -> Self {
        Self {
            model,
            board,
            precision: Precision::default(),
            batch: 1,
            seed: 1,
            workers: 0,
            schedule: None,
            ces: Vec::new(),
            action,
        }
    }

    /// Parses a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// [`Error::Json`] for syntax faults, [`Error::Scenario`] for
    /// unknown/mistyped/missing fields (with the dotted field path
    /// named).
    pub fn from_json_str(text: &str) -> Result<Self, Error> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Parses a scenario from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// As [`Self::from_json_str`], minus the syntax cases.
    pub fn from_json(root: &Json) -> Result<Self, Error> {
        let obj = expect_object(root, "(root)")?;
        check_keys(
            obj,
            "(root)",
            &[
                "model",
                "board",
                "precision",
                "batch",
                "seed",
                "workers",
                "schedule",
                "ces",
                "action",
            ],
        )?;
        let model = parse_model(require(root, "model", "(root)")?)?;
        let board = parse_board(require(root, "board", "(root)")?)?;
        let precision = match root.get("precision") {
            None => Precision::default(),
            Some(v) => {
                let name = expect_str(v, "precision")?;
                Precision::by_name(name)
                    .ok_or_else(|| unknown_name_error("precision", name, Precision::names()))?
            }
        };
        let batch = opt_usize(root, "batch", 1)?;
        if batch == 0 {
            return Err(Error::scenario("batch", "must be at least 1"));
        }
        let seed = opt_u64(root, "seed", 1)?;
        let workers = opt_usize(root, "workers", 0)?;
        let schedule = match root.get("schedule") {
            None => None,
            Some(v) => Some(parse_schedule(v, "schedule")?),
        };
        let ces = match root.get("ces") {
            None => Vec::new(),
            Some(v) => parse_ce_overrides(v)?,
        };
        let action = parse_action(require(root, "action", "(root)")?)?;
        if !matches!(action, Action::Evaluate { .. }) {
            // Schedule overrides rewrite one concrete design; the search
            // actions carry the axis inside their own configuration
            // (`action.optimize.max_fuse_depth`) instead.
            if schedule.is_some() {
                return Err(Error::scenario(
                    "schedule",
                    format!(
                        "only applies to the evaluate action, not `{}`",
                        action.name()
                    ),
                ));
            }
            if !ces.is_empty() {
                return Err(Error::scenario(
                    "ces",
                    format!(
                        "only applies to the evaluate action, not `{}`",
                        action.name()
                    ),
                ));
            }
        }
        Ok(Self {
            model,
            board,
            precision,
            batch,
            seed,
            workers,
            schedule,
            ces,
            action,
        })
    }

    /// The canonical JSON form: every field materialized (defaults
    /// included), keys in a fixed order. `to_json` ∘ [`Self::from_json`]
    /// is the identity on scenarios.
    pub fn to_json(&self) -> Json {
        let mut root = Json::object();
        let mut model = Json::object();
        match &self.model {
            ModelSpec::Zoo(name) => model.push("zoo", name.as_str()),
            ModelSpec::Synthetic { seed, config } => {
                let mut synth = Json::object();
                synth.push("seed", *seed);
                synth.push("conv_layers", config.conv_layers);
                synth.push("input_size", config.input_size);
                synth.push("base_channels", config.base_channels);
                synth.push("residual_prob", config.residual_prob);
                synth.push("depthwise_prob", config.depthwise_prob);
                model.push("synthetic", synth);
            }
        }
        root.push("model", model);
        let mut board = Json::object();
        match &self.board {
            BoardSpec::Builtin(name) => board.push("builtin", name.as_str()),
            BoardSpec::Custom(b) => {
                let mut custom = Json::object();
                custom.push("name", b.name.as_str());
                custom.push("dsps", b.dsps);
                custom.push("bram_mib", b.bram.0);
                custom.push("bandwidth_gbps", b.bandwidth_gbps);
                custom.push("clock_mhz", b.clock_mhz);
                board.push("custom", custom);
            }
        }
        root.push("board", board);
        root.push("precision", self.precision.name().unwrap_or("int8"));
        root.push("batch", self.batch);
        root.push("seed", self.seed);
        root.push("workers", self.workers);
        // Optional overrides stay absent when unset, so unset → absent →
        // unset round-trips and the canonical form is a fixed point.
        if let Some(schedule) = self.schedule {
            root.push("schedule", schedule_json(schedule));
        }
        if !self.ces.is_empty() {
            let entries: Vec<Json> = self
                .ces
                .iter()
                .map(|c| {
                    let mut entry = Json::object();
                    if let Some(s) = c.schedule {
                        entry.push("schedule", schedule_json(s));
                    }
                    entry
                })
                .collect();
            root.push("ces", entries);
        }
        let mut action = Json::object();
        match &self.action {
            Action::Evaluate { design } => {
                let mut body = Json::object();
                match design {
                    DesignSpec::Notation(text) => body.push("notation", text.as_str()),
                    DesignSpec::Template { architecture, ces } => {
                        body.push("template", architecture.name().to_ascii_lowercase());
                        body.push("ces", *ces);
                    }
                }
                action.push("evaluate", body);
            }
            Action::Sweep { min_ces, max_ces } => {
                let mut body = Json::object();
                body.push("min_ces", *min_ces);
                body.push("max_ces", *max_ces);
                action.push("sweep", body);
            }
            Action::Sample { count, metrics } => {
                let mut body = Json::object();
                body.push("count", *count);
                body.push("metrics", metric_list(metrics));
                action.push("sample", body);
            }
            Action::Optimize {
                metrics,
                budget,
                population,
                islands,
                migration_interval,
                migrants,
                crossover_prob,
                max_fuse_depth,
            } => {
                let mut body = Json::object();
                body.push("metrics", metric_list(metrics));
                body.push("budget", *budget);
                body.push("population", *population);
                body.push("islands", *islands);
                body.push("migration_interval", *migration_interval);
                body.push("migrants", *migrants);
                body.push("crossover_prob", *crossover_prob);
                body.push("max_fuse_depth", *max_fuse_depth);
                action.push("optimize", body);
            }
            Action::Calibrate {
                metrics,
                budget,
                population,
                islands,
                top_k,
                store,
            } => {
                let mut body = Json::object();
                body.push("metrics", metric_list(metrics));
                body.push("budget", *budget);
                body.push("population", *population);
                body.push("islands", *islands);
                body.push("top_k", *top_k);
                if let Some(store) = store {
                    body.push("store", store.as_str());
                }
                action.push("calibrate", body);
            }
        }
        root.push("action", action);
        root
    }

    /// Canonical pretty-printed JSON text ([`Self::to_json`]).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// The optimizer configuration an optimize- or calibrate-action
    /// scenario denotes. `None` for other actions.
    pub fn optimizer_config(&self) -> Option<OptimizerConfig> {
        match &self.action {
            Action::Calibrate {
                metrics,
                budget,
                population,
                islands,
                ..
            } => Some(
                OptimizerConfig::default()
                    .with_metrics(metrics)
                    .with_budget(*budget)
                    .with_population(*population)
                    .with_islands(*islands)
                    .with_seed(self.seed),
            ),
            Action::Optimize {
                metrics,
                budget,
                population,
                islands,
                migration_interval,
                migrants,
                crossover_prob,
                max_fuse_depth,
            } => Some(
                OptimizerConfig::default()
                    .with_metrics(metrics)
                    .with_budget(*budget)
                    .with_population(*population)
                    .with_islands(*islands)
                    .with_seed(self.seed)
                    .with_migration_interval(*migration_interval)
                    .with_migrants(*migrants)
                    .with_crossover_prob(*crossover_prob)
                    .with_max_fuse_depth(*max_fuse_depth),
            ),
            _ => None,
        }
    }
}

/// Applies one `--set key=value` override to a parsed scenario document:
/// `path` is a dotted key chain (e.g. `action.sample.count`), descending
/// through objects (creating missing leaves) and — via numeric segments —
/// into array elements (e.g. `ces.1.schedule.fuse_depth`); `raw` is
/// parsed as JSON when it is valid JSON, and treated as a bare string
/// otherwise (so `--set model.zoo=resnet50` and `--set batch=4` both do
/// what they look like).
///
/// # Errors
///
/// [`Error::Scenario`] when the path crosses a scalar, indexes an array
/// with a non-numeric or out-of-range segment (arrays are addressed, not
/// grown), every error naming the full dotted path.
pub fn apply_override(root: &mut Json, path: &str, raw: &str) -> Result<(), Error> {
    let value = Json::parse(raw).unwrap_or_else(|_| Json::Str(raw.to_string()));
    set_path(root, path, value)
}

/// The path walk of [`apply_override`]: writes an already-typed `value`
/// at the dotted `path`, with the same descent rules and errors.
pub(crate) fn set_path(root: &mut Json, path: &str, value: Json) -> Result<(), Error> {
    let segments: Vec<&str> = path.split('.').collect();
    if segments.iter().any(|s| s.is_empty()) {
        return Err(Error::scenario(path, "override path has an empty segment"));
    }
    let mut cursor = root;
    for (i, segment) in segments.iter().enumerate() {
        let last = i + 1 == segments.len();
        match cursor {
            Json::Object(pairs) => {
                let position = pairs.iter().position(|(k, _)| k == segment);
                match position {
                    Some(p) if last => {
                        pairs[p].1 = value;
                        return Ok(());
                    }
                    Some(p) => cursor = &mut pairs[p].1,
                    None => {
                        let fresh = if last { value.clone() } else { Json::object() };
                        pairs.push((segment.to_string(), fresh));
                        if last {
                            return Ok(());
                        }
                        cursor = &mut pairs.last_mut().expect("just pushed").1;
                    }
                }
            }
            Json::Array(items) => {
                let parent = segments[..i].join(".");
                let index: usize = segment.parse().map_err(|_| {
                    Error::scenario(
                        path,
                        format!("`{parent}` is an array; `{segment}` is not a numeric index"),
                    )
                })?;
                let len = items.len();
                let Some(slot) = items.get_mut(index) else {
                    return Err(Error::scenario(
                        path,
                        format!("index {index} is out of range for `{parent}` (length {len})"),
                    ));
                };
                if last {
                    *slot = value;
                    return Ok(());
                }
                cursor = slot;
            }
            _ => {
                let parent = segments[..i].join(".");
                return Err(Error::scenario(
                    path,
                    format!("cannot descend into `{parent}`: not an object or array"),
                ));
            }
        }
    }
    Ok(())
}

/// Parses a schedule object: `{"mode": "layer_by_layer"}` or
/// `{"mode": "depth_first", "fuse_depth": N}` (N ≥ 1; `fuse_depth: 1`
/// is the degenerate depth-first schedule, equivalent to
/// layer-by-layer).
fn parse_schedule(v: &Json, path: &str) -> Result<Schedule, Error> {
    let pairs = expect_object(v, path)?;
    check_keys(pairs, path, &["mode", "fuse_depth"])?;
    let mode_path = join_path(path, "mode");
    let mode = expect_str(require(v, "mode", path)?, &mode_path)?;
    let depth_path = join_path(path, "fuse_depth");
    match mode {
        "layer_by_layer" => {
            if v.get("fuse_depth").is_some() {
                return Err(Error::scenario(
                    depth_path,
                    "`fuse_depth` only applies to `depth_first` schedules",
                ));
            }
            Ok(Schedule::LayerByLayer)
        }
        "depth_first" => {
            let fuse_depth = field_usize(require(v, "fuse_depth", path)?, &depth_path)?;
            if fuse_depth == 0 {
                return Err(Error::scenario(depth_path, "must be at least 1"));
            }
            Ok(Schedule::DepthFirst { fuse_depth })
        }
        other => Err(Error::scenario(
            mode_path,
            format!("unknown schedule mode `{other}` (valid: layer_by_layer, depth_first)"),
        )),
    }
}

/// The canonical JSON form of a schedule ([`parse_schedule`]'s inverse).
fn schedule_json(schedule: Schedule) -> Json {
    let mut obj = Json::object();
    match schedule {
        Schedule::LayerByLayer => obj.push("mode", "layer_by_layer"),
        Schedule::DepthFirst { fuse_depth } => {
            obj.push("mode", "depth_first");
            obj.push("fuse_depth", fuse_depth);
        }
    }
    obj
}

fn parse_ce_overrides(v: &Json) -> Result<Vec<CeOverride>, Error> {
    let items = v
        .as_array()
        .ok_or_else(|| Error::scenario("ces", "expected an array of per-CE override objects"))?;
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let path = format!("ces.{i}");
        let pairs = expect_object(item, &path)?;
        check_keys(pairs, &path, &["schedule"])?;
        let schedule = match item.get("schedule") {
            None => None,
            Some(s) => Some(parse_schedule(s, &join_path(&path, "schedule"))?),
        };
        out.push(CeOverride { schedule });
    }
    Ok(out)
}

/// A metric list as the lower-case names scenario and outcome JSON use.
pub(crate) fn metric_list(metrics: &[Metric]) -> Json {
    Json::Array(
        metrics
            .iter()
            .map(|m| Json::from(m.name().to_ascii_lowercase()))
            .collect(),
    )
}

fn unknown_name_error(field: &str, name: &str, valid: &[&str]) -> Error {
    Error::scenario(
        field,
        format!("unknown name `{name}` (valid: {})", valid.join(", ")),
    )
}

fn expect_object<'a>(v: &'a Json, path: &str) -> Result<&'a [(String, Json)], Error> {
    v.entries()
        .ok_or_else(|| Error::scenario(path, "expected a JSON object"))
}

fn expect_str<'a>(v: &'a Json, path: &str) -> Result<&'a str, Error> {
    v.as_str()
        .ok_or_else(|| Error::scenario(path, "expected a string"))
}

fn require<'a>(v: &'a Json, key: &str, path: &str) -> Result<&'a Json, Error> {
    v.get(key)
        .ok_or_else(|| Error::scenario(join_path(path, key), "required field is missing"))
}

fn join_path(path: &str, key: &str) -> String {
    if path == "(root)" {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn check_keys(pairs: &[(String, Json)], path: &str, allowed: &[&str]) -> Result<(), Error> {
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) {
            return Err(Error::scenario(
                join_path(path, key),
                format!("unknown field (expected one of: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn field_usize(v: &Json, path: &str) -> Result<usize, Error> {
    v.as_usize()
        .ok_or_else(|| Error::scenario(path, "expected a non-negative integer"))
}

fn field_u64(v: &Json, path: &str) -> Result<u64, Error> {
    v.as_u64()
        .ok_or_else(|| Error::scenario(path, "expected a non-negative integer"))
}

fn field_f64(v: &Json, path: &str) -> Result<f64, Error> {
    v.as_f64()
        .ok_or_else(|| Error::scenario(path, "expected a number"))
}

fn field_u32(v: &Json, path: &str) -> Result<u32, Error> {
    let n = field_u64(v, path)?;
    u32::try_from(n).map_err(|_| Error::scenario(path, "value does not fit in 32 bits"))
}

fn opt_usize(root: &Json, key: &str, default: usize) -> Result<usize, Error> {
    match root.get(key) {
        None => Ok(default),
        Some(v) => field_usize(v, key),
    }
}

fn opt_u64(root: &Json, key: &str, default: u64) -> Result<u64, Error> {
    match root.get(key) {
        None => Ok(default),
        Some(v) => field_u64(v, key),
    }
}

fn parse_model(v: &Json) -> Result<ModelSpec, Error> {
    let obj = expect_object(v, "model")?;
    check_keys(obj, "model", &["zoo", "synthetic"])?;
    match (v.get("zoo"), v.get("synthetic")) {
        (Some(name), None) => {
            let name = expect_str(name, "model.zoo")?;
            if zoo::by_name(name).is_none() {
                return Err(unknown_name_error("model.zoo", name, zoo::names()));
            }
            // Canonicalize abbreviations so equal models share cache keys.
            let canonical = zoo::by_name(name).expect("checked").name().to_string();
            Ok(ModelSpec::Zoo(canonical))
        }
        (None, Some(synth)) => {
            let path = "model.synthetic";
            let pairs = expect_object(synth, path)?;
            check_keys(
                pairs,
                path,
                &[
                    "seed",
                    "conv_layers",
                    "input_size",
                    "base_channels",
                    "residual_prob",
                    "depthwise_prob",
                ],
            )?;
            let defaults = SyntheticConfig::default();
            let seed = opt_u64(synth, "seed", 1)?;
            let config = SyntheticConfig {
                conv_layers: match synth.get("conv_layers") {
                    None => defaults.conv_layers,
                    Some(v) => field_usize(v, "model.synthetic.conv_layers")?,
                },
                input_size: match synth.get("input_size") {
                    None => defaults.input_size,
                    Some(v) => field_u32(v, "model.synthetic.input_size")?,
                },
                base_channels: match synth.get("base_channels") {
                    None => defaults.base_channels,
                    Some(v) => field_u32(v, "model.synthetic.base_channels")?,
                },
                residual_prob: match synth.get("residual_prob") {
                    None => defaults.residual_prob,
                    Some(v) => field_f64(v, "model.synthetic.residual_prob")?,
                },
                depthwise_prob: match synth.get("depthwise_prob") {
                    None => defaults.depthwise_prob,
                    Some(v) => field_f64(v, "model.synthetic.depthwise_prob")?,
                },
            };
            if config.conv_layers < 2 {
                return Err(Error::scenario(
                    "model.synthetic.conv_layers",
                    "must be at least 2 (one head layer plus one tail layer)",
                ));
            }
            if config.input_size < 4 {
                return Err(Error::scenario(
                    "model.synthetic.input_size",
                    "must be at least 4",
                ));
            }
            if config.base_channels == 0 {
                return Err(Error::scenario(
                    "model.synthetic.base_channels",
                    "must be positive",
                ));
            }
            for (field, p) in [
                ("model.synthetic.residual_prob", config.residual_prob),
                ("model.synthetic.depthwise_prob", config.depthwise_prob),
            ] {
                if !(0.0..=1.0).contains(&p) {
                    return Err(Error::scenario(
                        field,
                        format!("must be in [0, 1], got {p}"),
                    ));
                }
            }
            Ok(ModelSpec::Synthetic { seed, config })
        }
        _ => Err(Error::scenario(
            "model",
            "expected exactly one of `zoo` or `synthetic`",
        )),
    }
}

fn parse_board(v: &Json) -> Result<BoardSpec, Error> {
    let obj = expect_object(v, "board")?;
    check_keys(obj, "board", &["builtin", "custom"])?;
    match (v.get("builtin"), v.get("custom")) {
        (Some(name), None) => {
            let name = expect_str(name, "board.builtin")?;
            if FpgaBoard::by_name(name).is_none() {
                return Err(unknown_name_error(
                    "board.builtin",
                    name,
                    FpgaBoard::names(),
                ));
            }
            Ok(BoardSpec::Builtin(name.to_ascii_lowercase()))
        }
        (None, Some(custom)) => {
            let path = "board.custom";
            let pairs = expect_object(custom, path)?;
            check_keys(
                pairs,
                path,
                &["name", "dsps", "bram_mib", "bandwidth_gbps", "clock_mhz"],
            )?;
            let name = expect_str(require(custom, "name", "board")?, "board.custom.name")?;
            let dsps = field_u32(require(custom, "dsps", "board")?, "board.custom.dsps")?;
            let bram_mib = field_f64(
                require(custom, "bram_mib", "board")?,
                "board.custom.bram_mib",
            )?;
            let bandwidth = field_f64(
                require(custom, "bandwidth_gbps", "board")?,
                "board.custom.bandwidth_gbps",
            )?;
            let clock = match custom.get("clock_mhz") {
                None => FpgaBoard::DEFAULT_CLOCK_MHZ,
                Some(v) => field_f64(v, "board.custom.clock_mhz")?,
            };
            if dsps == 0 {
                return Err(Error::scenario("board.custom.dsps", "must be positive"));
            }
            for (field, value) in [
                ("board.custom.bram_mib", bram_mib),
                ("board.custom.bandwidth_gbps", bandwidth),
                ("board.custom.clock_mhz", clock),
            ] {
                if !(value.is_finite() && value > 0.0) {
                    return Err(Error::scenario(
                        field,
                        format!("must be positive, got {value}"),
                    ));
                }
            }
            Ok(BoardSpec::Custom(
                FpgaBoard::new(name, dsps, MiB(bram_mib), bandwidth).with_clock_mhz(clock),
            ))
        }
        _ => Err(Error::scenario(
            "board",
            "expected exactly one of `builtin` or `custom`",
        )),
    }
}

fn parse_metrics(v: Option<&Json>, path: &str, default: &[Metric]) -> Result<Vec<Metric>, Error> {
    let Some(v) = v else {
        return Ok(default.to_vec());
    };
    let items = v
        .as_array()
        .ok_or_else(|| Error::scenario(path, "expected an array of metric names"))?;
    if items.is_empty() {
        return Err(Error::scenario(path, "metric list must not be empty"));
    }
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let name = expect_str(item, path)?;
        let metric = Metric::by_name(name).ok_or_else(|| {
            Error::scenario(
                path,
                format!(
                    "unknown metric `{name}` (valid: latency, throughput, access, buffers, \
                     energy)"
                ),
            )
        })?;
        if out.contains(&metric) {
            return Err(Error::scenario(path, format!("duplicate metric `{name}`")));
        }
        out.push(metric);
    }
    Ok(out)
}

fn parse_action(v: &Json) -> Result<Action, Error> {
    let pairs = expect_object(v, "action")?;
    check_keys(
        pairs,
        "action",
        &["evaluate", "sweep", "sample", "optimize", "calibrate"],
    )?;
    if pairs.len() != 1 {
        return Err(Error::scenario(
            "action",
            "expected exactly one of `evaluate`, `sweep`, `sample`, `optimize`, `calibrate`",
        ));
    }
    let (kind, body) = &pairs[0];
    match kind.as_str() {
        "evaluate" => {
            let path = "action.evaluate";
            let obj = expect_object(body, path)?;
            check_keys(obj, path, &["notation", "template", "ces"])?;
            match (body.get("notation"), body.get("template")) {
                (Some(text), None) => {
                    if body.get("ces").is_some() {
                        return Err(Error::scenario(
                            "action.evaluate.ces",
                            "`ces` only applies to `template` designs",
                        ));
                    }
                    let text = expect_str(text, "action.evaluate.notation")?;
                    // Validate the notation eagerly: parse errors carry
                    // the byte offset into the notation string.
                    crate::arch::notation::parse(text)
                        .map_err(|e| Error::scenario("action.evaluate.notation", e.to_string()))?;
                    Ok(Action::Evaluate {
                        design: DesignSpec::Notation(text.to_string()),
                    })
                }
                (None, Some(template)) => {
                    let name = expect_str(template, "action.evaluate.template")?;
                    let architecture = Architecture::by_name(name).ok_or_else(|| {
                        unknown_name_error("action.evaluate.template", name, Architecture::names())
                    })?;
                    let ces = field_usize(
                        require(body, "ces", "action.evaluate")?,
                        "action.evaluate.ces",
                    )?;
                    if ces == 0 {
                        return Err(Error::scenario("action.evaluate.ces", "must be positive"));
                    }
                    Ok(Action::Evaluate {
                        design: DesignSpec::Template { architecture, ces },
                    })
                }
                _ => Err(Error::scenario(
                    path,
                    "expected exactly one of `notation` or `template`",
                )),
            }
        }
        "sweep" => {
            let path = "action.sweep";
            let obj = expect_object(body, path)?;
            check_keys(obj, path, &["min_ces", "max_ces"])?;
            let min_ces = opt_usize(body, "min_ces", 2)?;
            let max_ces = opt_usize(body, "max_ces", 11)?;
            if min_ces == 0 {
                return Err(Error::scenario("action.sweep.min_ces", "must be positive"));
            }
            if max_ces < min_ces {
                return Err(Error::scenario(
                    "action.sweep.max_ces",
                    format!("must be at least min_ces ({min_ces}), got {max_ces}"),
                ));
            }
            Ok(Action::Sweep { min_ces, max_ces })
        }
        "sample" => {
            let path = "action.sample";
            let obj = expect_object(body, path)?;
            check_keys(obj, path, &["count", "metrics"])?;
            let count = field_usize(require(body, "count", path)?, "action.sample.count")?;
            if count == 0 {
                return Err(Error::scenario("action.sample.count", "must be positive"));
            }
            let metrics = parse_metrics(
                body.get("metrics"),
                "action.sample.metrics",
                &SAMPLE_DEFAULT_METRICS,
            )?;
            Ok(Action::Sample { count, metrics })
        }
        "optimize" => {
            let path = "action.optimize";
            let obj = expect_object(body, path)?;
            check_keys(
                obj,
                path,
                &[
                    "metrics",
                    "budget",
                    "population",
                    "islands",
                    "migration_interval",
                    "migrants",
                    "crossover_prob",
                    "max_fuse_depth",
                ],
            )?;
            let defaults = OptimizerConfig::default();
            let metrics = parse_metrics(
                body.get("metrics"),
                "action.optimize.metrics",
                &defaults.metrics,
            )?;
            let budget = opt_u64(body, "budget", defaults.budget)?;
            let population = opt_usize(body, "population", defaults.population)?;
            let islands = opt_usize(body, "islands", defaults.islands)?;
            let migration_interval =
                opt_usize(body, "migration_interval", defaults.migration_interval)?;
            let migrants = opt_usize(body, "migrants", defaults.migrants)?;
            let crossover_prob = match body.get("crossover_prob") {
                None => defaults.crossover_prob,
                Some(v) => field_f64(v, "action.optimize.crossover_prob")?,
            };
            let max_fuse_depth = opt_usize(body, "max_fuse_depth", defaults.max_fuse_depth)?;
            // Reuse the optimizer's own validation so scenario files and
            // library callers reject exactly the same configs.
            OptimizerConfig::default()
                .with_metrics(&metrics)
                .with_population(population)
                .with_islands(islands)
                .with_crossover_prob(crossover_prob)
                .with_max_fuse_depth(max_fuse_depth)
                .validate()
                .map_err(|e| Error::scenario(path, e.to_string()))?;
            Ok(Action::Optimize {
                metrics,
                budget,
                population,
                islands,
                migration_interval,
                migrants,
                crossover_prob,
                max_fuse_depth,
            })
        }
        "calibrate" => {
            let path = "action.calibrate";
            let obj = expect_object(body, path)?;
            check_keys(
                obj,
                path,
                &[
                    "metrics",
                    "budget",
                    "population",
                    "islands",
                    "top_k",
                    "store",
                ],
            )?;
            let defaults = OptimizerConfig::default();
            let metrics = parse_metrics(
                body.get("metrics"),
                "action.calibrate.metrics",
                &defaults.metrics,
            )?;
            let budget = opt_u64(body, "budget", defaults.budget)?;
            let population = opt_usize(body, "population", defaults.population)?;
            let islands = opt_usize(body, "islands", defaults.islands)?;
            let top_k = opt_usize(body, "top_k", CALIBRATE_DEFAULT_TOP_K)?;
            if top_k == 0 {
                return Err(Error::scenario(
                    "action.calibrate.top_k",
                    "must be positive",
                ));
            }
            let store = match body.get("store") {
                None => None,
                Some(v) => {
                    let text = expect_str(v, "action.calibrate.store")?;
                    if text.is_empty() {
                        return Err(Error::scenario(
                            "action.calibrate.store",
                            "store path must not be empty",
                        ));
                    }
                    Some(text.to_string())
                }
            };
            // The embedded search validates like an optimize action.
            OptimizerConfig::default()
                .with_metrics(&metrics)
                .with_population(population)
                .with_islands(islands)
                .validate()
                .map_err(|e| Error::scenario(path, e.to_string()))?;
            Ok(Action::Calibrate {
                metrics,
                budget,
                population,
                islands,
                top_k,
                store,
            })
        }
        _ => unreachable!("check_keys limits the key set"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scenario() -> Scenario {
        Scenario::new(
            ModelSpec::Zoo("xception".into()),
            BoardSpec::Builtin("vcu110".into()),
            Action::Sample {
                count: 50,
                metrics: SAMPLE_DEFAULT_METRICS.to_vec(),
            },
        )
    }

    #[test]
    fn minimal_scenario_fills_defaults() {
        let s = Scenario::from_json_str(
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "vcu110"},
                "action": {"sample": {"count": 50}}}"#,
        )
        .unwrap();
        assert_eq!(s, sample_scenario());
        assert_eq!(s.precision, Precision::INT8);
        assert_eq!(s.batch, 1);
        assert_eq!(s.seed, 1);
        assert_eq!(s.workers, 0);
    }

    #[test]
    fn canonical_json_round_trips_every_action() {
        let actions = [
            Action::Evaluate {
                design: DesignSpec::Notation("{L1-Last: CE1-CE4}".into()),
            },
            Action::Evaluate {
                design: DesignSpec::Template {
                    architecture: Architecture::Hybrid,
                    ces: 7,
                },
            },
            Action::Sweep {
                min_ces: 2,
                max_ces: 6,
            },
            Action::Sample {
                count: 123,
                metrics: vec![Metric::Latency, Metric::Energy],
            },
            Action::Optimize {
                metrics: Metric::WITH_ENERGY.to_vec(),
                budget: 4000,
                population: 32,
                islands: 4,
                migration_interval: 8,
                migrants: 4,
                crossover_prob: 0.9,
                max_fuse_depth: 3,
            },
            Action::Calibrate {
                metrics: vec![Metric::Latency, Metric::Throughput],
                budget: 2000,
                population: 24,
                islands: 2,
                top_k: 5,
                store: Some("stores/zc706.json".into()),
            },
            Action::Calibrate {
                metrics: Metric::WITH_ENERGY.to_vec(),
                budget: 1000,
                population: 16,
                islands: 1,
                top_k: CALIBRATE_DEFAULT_TOP_K,
                store: None,
            },
        ];
        for action in actions {
            let mut s = Scenario::new(
                ModelSpec::Zoo("resnet50".into()),
                BoardSpec::Custom(FpgaBoard::new("lab1", 1234, MiB(3.25), 12.5)),
                action,
            );
            s.batch = 4;
            s.seed = 9;
            s.workers = 2;
            s.precision = Precision::INT16;
            let text = s.to_json_string();
            let back = Scenario::from_json_str(&text).unwrap();
            assert_eq!(back, s, "{text}");
        }
    }

    #[test]
    fn synthetic_model_round_trips_and_builds() {
        let s = Scenario::from_json_str(
            r#"{"model": {"synthetic": {"seed": 7, "conv_layers": 9}},
                "board": {"builtin": "zc706"},
                "action": {"sweep": {}}}"#,
        )
        .unwrap();
        let ModelSpec::Synthetic { seed, ref config } = s.model else {
            panic!("expected synthetic")
        };
        assert_eq!(seed, 7);
        assert_eq!(config.conv_layers, 9);
        assert_eq!(config.input_size, SyntheticConfig::default().input_size);
        let model = s.model.build().unwrap();
        assert!(model.conv_layer_count() >= 9);
        let back = Scenario::from_json_str(&s.to_json_string()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn unknown_names_list_the_valid_ones() {
        let err = Scenario::from_json_str(
            r#"{"model": {"zoo": "alexnet"}, "board": {"builtin": "zc706"},
                "action": {"sweep": {}}}"#,
        )
        .unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("model.zoo") && text.contains("alexnet"),
            "{text}"
        );
        assert!(text.contains("xception"), "valid names listed: {text}");
    }

    #[test]
    fn unknown_fields_are_rejected_with_their_path() {
        let err = Scenario::from_json_str(
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "vcu110"},
                "action": {"sample": {"count": 5, "samples": 5}}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("action.sample.samples"), "{err}");
        let err = Scenario::from_json_str(
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "vcu110"},
                "verbose": true, "action": {"sweep": {}}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("verbose"), "{err}");
    }

    #[test]
    fn zoo_abbreviations_canonicalize() {
        let s = Scenario::from_json_str(
            r#"{"model": {"zoo": "XCp"}, "board": {"builtin": "VCU110"},
                "action": {"sample": {"count": 1}}}"#,
        )
        .unwrap();
        assert_eq!(s.model, ModelSpec::Zoo("xception".into()));
        assert_eq!(s.board, BoardSpec::Builtin("vcu110".into()));
        assert_eq!(s.model.cache_token(), "zoo:xception");
    }

    #[test]
    fn bad_notation_fails_at_parse_time() {
        let err = Scenario::from_json_str(
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "vcu110"},
                "action": {"evaluate": {"notation": "{L1: CE"}}}"#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("action.evaluate.notation"),
            "{err}"
        );
    }

    #[test]
    fn degenerate_optimize_configs_are_rejected() {
        let err = Scenario::from_json_str(
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "vcu110"},
                "action": {"optimize": {"population": 2}}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("population"), "{err}");
    }

    #[test]
    fn overrides_replace_and_create_fields() {
        let mut root = sample_scenario().to_json();
        apply_override(&mut root, "action.sample.count", "200").unwrap();
        apply_override(&mut root, "model.zoo", "resnet50").unwrap();
        apply_override(&mut root, "workers", "3").unwrap();
        let s = Scenario::from_json(&root).unwrap();
        assert_eq!(s.model, ModelSpec::Zoo("resnet50".into()));
        assert_eq!(s.workers, 3);
        match s.action {
            Action::Sample { count, .. } => assert_eq!(count, 200),
            other => panic!("{other:?}"),
        }
        // Creating a previously missing leaf works too.
        let mut minimal = Json::parse(
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "vcu110"},
                "action": {"sample": {"count": 5}}}"#,
        )
        .unwrap();
        apply_override(&mut minimal, "batch", "8").unwrap();
        assert_eq!(Scenario::from_json(&minimal).unwrap().batch, 8);
        // Descending into a scalar is an error.
        let err = apply_override(&mut minimal, "batch.size", "1").unwrap_err();
        assert!(err.to_string().contains("not an object"), "{err}");
    }

    #[test]
    fn overrides_reach_calibrate_fields() {
        let mut root = Json::parse(
            r#"{"model": {"zoo": "mobilenetv2"}, "board": {"builtin": "zc706"},
                "action": {"calibrate": {}}}"#,
        )
        .unwrap();
        apply_override(&mut root, "action.calibrate.top_k", "3").unwrap();
        apply_override(&mut root, "action.calibrate.budget", "500").unwrap();
        apply_override(&mut root, "action.calibrate.store", "run/store.json").unwrap();
        let s = Scenario::from_json(&root).unwrap();
        let Action::Calibrate {
            top_k,
            budget,
            store,
            ..
        } = &s.action
        else {
            panic!("expected calibrate, got {:?}", s.action)
        };
        assert_eq!(*top_k, 3);
        assert_eq!(*budget, 500);
        assert_eq!(store.as_deref(), Some("run/store.json"));
    }

    #[test]
    fn calibrate_field_errors_name_the_full_path() {
        // Out-of-range: a zero promotion width can calibrate nothing.
        let mut root = Json::parse(
            r#"{"model": {"zoo": "mobilenetv2"}, "board": {"builtin": "zc706"},
                "action": {"calibrate": {}}}"#,
        )
        .unwrap();
        apply_override(&mut root, "action.calibrate.top_k", "0").unwrap();
        let err = Scenario::from_json(&root).unwrap_err();
        assert!(err.to_string().contains("action.calibrate.top_k"), "{err}");

        // Empty store path.
        let err = Scenario::from_json_str(
            r#"{"model": {"zoo": "mobilenetv2"}, "board": {"builtin": "zc706"},
                "action": {"calibrate": {"store": ""}}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("action.calibrate.store"), "{err}");

        // Unknown field, created by an override, rejected with its path.
        let mut root = Json::parse(
            r#"{"model": {"zoo": "mobilenetv2"}, "board": {"builtin": "zc706"},
                "action": {"calibrate": {}}}"#,
        )
        .unwrap();
        apply_override(&mut root, "action.calibrate.topk", "4").unwrap();
        let err = Scenario::from_json(&root).unwrap_err();
        assert!(err.to_string().contains("action.calibrate.topk"), "{err}");
    }

    #[test]
    fn schedule_fields_parse_serialize_and_are_evaluate_only() {
        let s = Scenario::from_json_str(
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "vcu110"},
                "schedule": {"mode": "depth_first", "fuse_depth": 3},
                "ces": [{}, {"schedule": {"mode": "layer_by_layer"}}],
                "action": {"evaluate": {"template": "hybrid", "ces": 4}}}"#,
        )
        .unwrap();
        assert_eq!(s.schedule, Some(Schedule::DepthFirst { fuse_depth: 3 }));
        assert_eq!(
            s.ces,
            vec![
                CeOverride { schedule: None },
                CeOverride {
                    schedule: Some(Schedule::LayerByLayer)
                },
            ]
        );
        let back = Scenario::from_json_str(&s.to_json_string()).unwrap();
        assert_eq!(back, s);
        // Both override surfaces are rejected on non-evaluate actions.
        for (field, body) in [
            ("schedule", r#""schedule": {"mode": "layer_by_layer"}"#),
            ("ces", r#""ces": [{}]"#),
        ] {
            let err = Scenario::from_json_str(&format!(
                r#"{{"model": {{"zoo": "xception"}}, "board": {{"builtin": "vcu110"}},
                    {body}, "action": {{"sweep": {{}}}}}}"#
            ))
            .unwrap_err()
            .to_string();
            assert!(err.contains(field) && err.contains("evaluate"), "{err}");
        }
    }

    #[test]
    fn malformed_schedules_name_the_offending_path() {
        let cases = [
            (r#"{"mode": "row_major"}"#, "schedule.mode"),
            (r#"{"mode": "depth_first"}"#, "schedule.fuse_depth"),
            (r#"{"mode": "depth_first", "fuse_depth": 0}"#, "at least 1"),
            (
                r#"{"mode": "layer_by_layer", "fuse_depth": 2}"#,
                "depth_first",
            ),
            (r#"{"fuse_depth": 2}"#, "schedule.mode"),
        ];
        for (schedule, needle) in cases {
            let err = Scenario::from_json_str(&format!(
                r#"{{"model": {{"zoo": "xception"}}, "board": {{"builtin": "vcu110"}},
                    "schedule": {schedule},
                    "action": {{"evaluate": {{"template": "hybrid", "ces": 4}}}}}}"#
            ))
            .unwrap_err()
            .to_string();
            assert!(err.contains(needle), "`{err}` should contain `{needle}`");
        }
    }

    #[test]
    fn optimize_max_fuse_depth_parses_and_reaches_the_config() {
        let s = Scenario::from_json_str(
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "vcu110"},
                "action": {"optimize": {"max_fuse_depth": 4}}}"#,
        )
        .unwrap();
        assert_eq!(s.optimizer_config().unwrap().max_fuse_depth, 4);
        // Defaults to 1 (layer-by-layer only) when absent.
        let s = Scenario::from_json_str(
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "vcu110"},
                "action": {"optimize": {}}}"#,
        )
        .unwrap();
        assert_eq!(s.optimizer_config().unwrap().max_fuse_depth, 1);
        // Zero is rejected through the optimizer's own validation.
        let err = Scenario::from_json_str(
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "vcu110"},
                "action": {"optimize": {"max_fuse_depth": 0}}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("max_fuse_depth"), "{err}");
    }

    #[test]
    fn overrides_descend_into_arrays_by_numeric_index() {
        let mut root = Json::parse(
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "vcu110"},
                "ces": [{}, {"schedule": {"mode": "depth_first", "fuse_depth": 2}}],
                "action": {"evaluate": {"template": "hybrid", "ces": 4}}}"#,
        )
        .unwrap();
        apply_override(&mut root, "ces.1.schedule.fuse_depth", "3").unwrap();
        let s = Scenario::from_json(&root).unwrap();
        assert_eq!(
            s.ces[1].schedule,
            Some(Schedule::DepthFirst { fuse_depth: 3 })
        );
        // Replacing a whole element works too.
        apply_override(
            &mut root,
            "ces.0",
            r#"{"schedule": {"mode": "layer_by_layer"}}"#,
        )
        .unwrap();
        let s = Scenario::from_json(&root).unwrap();
        assert_eq!(s.ces[0].schedule, Some(Schedule::LayerByLayer));
        // Out-of-range indices are an error naming the full dotted path,
        // not a silent append.
        let err = apply_override(&mut root, "ces.7.schedule.fuse_depth", "3").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("ces.7.schedule.fuse_depth"), "{text}");
        assert!(
            text.contains("out of range") && text.contains("length 2"),
            "{text}"
        );
        // Non-numeric segments against an array name the path as well.
        let err = apply_override(&mut root, "ces.first.schedule", "1").unwrap_err();
        assert!(err.to_string().contains("numeric index"), "{err}");
    }

    #[test]
    fn cache_tokens_distinguish_contexts() {
        let a = sample_scenario();
        assert_eq!(a.model.cache_token(), "zoo:xception");
        assert_eq!(a.board.cache_token(), "builtin:vcu110");
        let custom = BoardSpec::Custom(FpgaBoard::new("x", 100, MiB(1.0), 2.0));
        assert_ne!(custom.cache_token(), a.board.cache_token());
        let synth = ModelSpec::Synthetic {
            seed: 3,
            config: SyntheticConfig::default(),
        };
        assert!(synth.cache_token().contains("seed=3"));
    }
}
