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
                .ok_or_else(|| Error::scenario("model.zoo", unknown_name(name, zoo::names()))),
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
            Self::Builtin(name) => FpgaBoard::by_name(name).ok_or_else(|| {
                Error::scenario("board.builtin", unknown_name(name, FpgaBoard::names()))
            }),
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
        let root = Fields::new(
            root,
            String::new(),
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
        let model = parse_model(&root.object("model", &["zoo", "synthetic"])?)?;
        let board = parse_board(&root.object("board", &["builtin", "custom"])?)?;
        let precision = match root.opt::<&str>("precision")? {
            None => Precision::default(),
            Some(name) => Precision::by_name(name)
                .ok_or_else(|| root.err("precision", unknown_name(name, Precision::names())))?,
        };
        let batch = root.or("batch", 1)?;
        if batch == 0 {
            return Err(root.err("batch", "must be at least 1"));
        }
        let seed = root.or("seed", 1)?;
        let workers = root.or("workers", 0)?;
        let schedule = parse_schedule(&root)?;
        let ces = root
            .objects(
                "ces",
                "expected an array of per-CE override objects",
                &["schedule"],
            )?
            .map(|ce| {
                let schedule = parse_schedule(&ce?)?;
                Ok(CeOverride { schedule })
            })
            .collect::<Result<Vec<_>, Error>>()?;
        let action = parse_action(&root.object(
            "action",
            &["evaluate", "sweep", "sample", "optimize", "calibrate"],
        )?)?;
        if !matches!(action, Action::Evaluate { .. }) {
            // Schedule overrides rewrite one concrete design; the search
            // actions carry the axis inside their own configuration
            // (`action.optimize.max_fuse_depth`) instead.
            for (key, set) in [("schedule", schedule.is_some()), ("ces", !ces.is_empty())] {
                if set {
                    return Err(root.err(
                        key,
                        format!(
                            "only applies to the evaluate action, not `{}`",
                            action.name()
                        ),
                    ));
                }
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

/// Parses the optional `schedule` object of `parent`:
/// `{"mode": "layer_by_layer"}` or `{"mode": "depth_first", "fuse_depth":
/// N}` (N ≥ 1; `fuse_depth: 1` is the degenerate depth-first schedule,
/// equivalent to layer-by-layer).
fn parse_schedule(parent: &Fields) -> Result<Option<Schedule>, Error> {
    let Some(s) = parent.opt_object("schedule", &["mode", "fuse_depth"])? else {
        return Ok(None);
    };
    match s.req("mode")? {
        "layer_by_layer" => {
            if s.get("fuse_depth").is_some() {
                return Err(s.err(
                    "fuse_depth",
                    "`fuse_depth` only applies to `depth_first` schedules",
                ));
            }
            Ok(Some(Schedule::LayerByLayer))
        }
        "depth_first" => {
            let fuse_depth = s.req("fuse_depth")?;
            if fuse_depth == 0 {
                return Err(s.err("fuse_depth", "must be at least 1"));
            }
            Ok(Some(Schedule::DepthFirst { fuse_depth }))
        }
        other => Err(s.err(
            "mode",
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

/// A metric list as the lower-case names scenario and outcome JSON use.
pub(crate) fn metric_list(metrics: &[Metric]) -> Json {
    Json::Array(
        metrics
            .iter()
            .map(|m| Json::from(m.name().to_ascii_lowercase()))
            .collect(),
    )
}

fn unknown_name(name: &str, valid: &[&str]) -> String {
    format!("unknown name `{name}` (valid: {})", valid.join(", "))
}

/// One JSON object of a scenario document together with its dotted path
/// (empty at the root). Every field of the parse half is read through
/// one of these, so every type, missing-field, unknown-field and range
/// error names the full path of the offending field.
struct Fields<'a> {
    entries: &'a [(String, Json)],
    path: String,
}

impl<'a> Fields<'a> {
    /// Reads `v` as the object at `path`, rejecting any key outside
    /// `allowed`.
    fn new(v: &'a Json, path: String, allowed: &[&str]) -> Result<Self, Error> {
        let Some(entries) = v.entries() else {
            return Err(Self { entries: &[], path }.err_here("expected a JSON object"));
        };
        let fields = Self { entries, path };
        if let Some((key, _)) = entries.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            return Err(fields.err(
                key,
                format!("unknown field (expected one of: {})", allowed.join(", ")),
            ));
        }
        Ok(fields)
    }

    fn child(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// An error about the field at `key`.
    fn err(&self, key: &str, detail: impl Into<String>) -> Error {
        Error::scenario(self.child(key), detail)
    }

    /// An error about this object as a whole.
    fn err_here(&self, detail: impl Into<String>) -> Error {
        let path = if self.path.is_empty() {
            "(root)"
        } else {
            &self.path
        };
        Error::scenario(path, detail)
    }

    fn get(&self, key: &str) -> Option<&'a Json> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The field at `key` as a `T`; `None` when absent.
    fn opt<T: Field<'a>>(&self, key: &str) -> Result<Option<T>, Error> {
        self.get(key)
            .map(|v| T::read(v).map_err(|detail| self.err(key, detail)))
            .transpose()
    }

    /// The field at `key` as a `T`, which must be present.
    fn req<T: Field<'a>>(&self, key: &str) -> Result<T, Error> {
        self.opt(key)?
            .ok_or_else(|| self.err(key, "required field is missing"))
    }

    /// The field at `key` as a `T`; `default` when absent.
    fn or<T: Field<'a>>(&self, key: &str, default: T) -> Result<T, Error> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// The nested object at `key` (keys limited to `allowed`); `None`
    /// when absent.
    fn opt_object(&self, key: &str, allowed: &[&str]) -> Result<Option<Fields<'a>>, Error> {
        self.get(key)
            .map(|v| Fields::new(v, self.child(key), allowed))
            .transpose()
    }

    /// The nested object at `key`, which must be present.
    fn object(&self, key: &str, allowed: &[&str]) -> Result<Fields<'a>, Error> {
        self.opt_object(key, allowed)?
            .ok_or_else(|| self.err(key, "required field is missing"))
    }

    /// The objects of the array at `key` (none when absent), read in
    /// order at paths `key.0`, `key.1`, …; `expected` describes the
    /// array when the field is something else.
    fn objects<'s>(
        &'s self,
        key: &str,
        expected: &str,
        allowed: &'s [&'s str],
    ) -> Result<impl Iterator<Item = Result<Fields<'a>, Error>> + 's, Error> {
        let items = match self.get(key) {
            None => &[][..],
            Some(v) => v.as_array().ok_or_else(|| self.err(key, expected))?,
        };
        let path = self.child(key);
        Ok(items
            .iter()
            .enumerate()
            .map(move |(i, item)| Fields::new(item, format!("{path}.{i}"), allowed)))
    }
}

/// A leaf value [`Fields`] can read; `read` returns the error detail of
/// a mistyped value.
trait Field<'a>: Sized {
    fn read(v: &'a Json) -> Result<Self, String>;
}

impl<'a> Field<'a> for &'a str {
    fn read(v: &'a Json) -> Result<Self, String> {
        v.as_str().ok_or_else(|| "expected a string".into())
    }
}

impl Field<'_> for u64 {
    fn read(v: &Json) -> Result<Self, String> {
        v.as_u64()
            .ok_or_else(|| "expected a non-negative integer".into())
    }
}

impl Field<'_> for usize {
    fn read(v: &Json) -> Result<Self, String> {
        v.as_usize()
            .ok_or_else(|| "expected a non-negative integer".into())
    }
}

impl Field<'_> for u32 {
    fn read(v: &Json) -> Result<Self, String> {
        u32::try_from(u64::read(v)?).map_err(|_| "value does not fit in 32 bits".into())
    }
}

impl Field<'_> for f64 {
    fn read(v: &Json) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "expected a number".into())
    }
}

/// A non-empty, duplicate-free list of metric names.
impl Field<'_> for Vec<Metric> {
    fn read(v: &Json) -> Result<Self, String> {
        let items = v.as_array().ok_or("expected an array of metric names")?;
        if items.is_empty() {
            return Err("metric list must not be empty".into());
        }
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let name = <&str>::read(item)?;
            let metric = Metric::by_name(name).ok_or_else(|| {
                format!(
                    "unknown metric `{name}` (valid: latency, throughput, access, buffers, \
                     energy)"
                )
            })?;
            if out.contains(&metric) {
                return Err(format!("duplicate metric `{name}`"));
            }
            out.push(metric);
        }
        Ok(out)
    }
}

fn parse_model(model: &Fields) -> Result<ModelSpec, Error> {
    match (model.get("zoo"), model.get("synthetic")) {
        (Some(_), None) => {
            let name = model.req("zoo")?;
            let cnn = zoo::by_name(name)
                .ok_or_else(|| model.err("zoo", unknown_name(name, zoo::names())))?;
            // Canonicalize abbreviations so equal models share cache keys.
            Ok(ModelSpec::Zoo(cnn.name().to_string()))
        }
        (None, Some(_)) => {
            let synth = model.object(
                "synthetic",
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
            let seed = synth.or("seed", 1)?;
            let config = SyntheticConfig {
                conv_layers: synth.or("conv_layers", defaults.conv_layers)?,
                input_size: synth.or("input_size", defaults.input_size)?,
                base_channels: synth.or("base_channels", defaults.base_channels)?,
                residual_prob: synth.or("residual_prob", defaults.residual_prob)?,
                depthwise_prob: synth.or("depthwise_prob", defaults.depthwise_prob)?,
            };
            if config.conv_layers < 2 {
                return Err(synth.err(
                    "conv_layers",
                    "must be at least 2 (one head layer plus one tail layer)",
                ));
            }
            if config.input_size < 4 {
                return Err(synth.err("input_size", "must be at least 4"));
            }
            if config.base_channels == 0 {
                return Err(synth.err("base_channels", "must be positive"));
            }
            for (key, p) in [
                ("residual_prob", config.residual_prob),
                ("depthwise_prob", config.depthwise_prob),
            ] {
                if !(0.0..=1.0).contains(&p) {
                    return Err(synth.err(key, format!("must be in [0, 1], got {p}")));
                }
            }
            Ok(ModelSpec::Synthetic { seed, config })
        }
        _ => Err(model.err_here("expected exactly one of `zoo` or `synthetic`")),
    }
}

fn parse_board(board: &Fields) -> Result<BoardSpec, Error> {
    match (board.get("builtin"), board.get("custom")) {
        (Some(_), None) => {
            let name: &str = board.req("builtin")?;
            if FpgaBoard::by_name(name).is_none() {
                return Err(board.err("builtin", unknown_name(name, FpgaBoard::names())));
            }
            Ok(BoardSpec::Builtin(name.to_ascii_lowercase()))
        }
        (None, Some(_)) => {
            let custom = board.object(
                "custom",
                &["name", "dsps", "bram_mib", "bandwidth_gbps", "clock_mhz"],
            )?;
            let name: &str = custom.req("name")?;
            let dsps: u32 = custom.req("dsps")?;
            let bram_mib = custom.req("bram_mib")?;
            let bandwidth = custom.req("bandwidth_gbps")?;
            let clock = custom.or("clock_mhz", FpgaBoard::DEFAULT_CLOCK_MHZ)?;
            if dsps == 0 {
                return Err(custom.err("dsps", "must be positive"));
            }
            for (key, value) in [
                ("bram_mib", bram_mib),
                ("bandwidth_gbps", bandwidth),
                ("clock_mhz", clock),
            ] {
                if !(value.is_finite() && value > 0.0) {
                    return Err(custom.err(key, format!("must be positive, got {value}")));
                }
            }
            Ok(BoardSpec::Custom(
                FpgaBoard::new(name, dsps, MiB(bram_mib), bandwidth).with_clock_mhz(clock),
            ))
        }
        _ => Err(board.err_here("expected exactly one of `builtin` or `custom`")),
    }
}

/// Reads the search fields optimize and calibrate share (`metrics`,
/// `budget`, `population`, `islands`), then the action's own fields
/// through `rest`, and validates the result with the optimizer's own
/// check, so scenario files and library callers reject exactly the same
/// configs. `rest` runs before validation, so a mistyped field is
/// reported ahead of an invalid combination.
fn search_config<T>(
    body: &Fields,
    rest: impl FnOnce(&mut OptimizerConfig) -> Result<T, Error>,
) -> Result<(OptimizerConfig, T), Error> {
    let defaults = OptimizerConfig::default();
    let mut config = OptimizerConfig {
        metrics: body.or("metrics", defaults.metrics.clone())?,
        budget: body.or("budget", defaults.budget)?,
        population: body.or("population", defaults.population)?,
        islands: body.or("islands", defaults.islands)?,
        ..defaults
    };
    let extra = rest(&mut config)?;
    config
        .validate()
        .map_err(|e| body.err_here(e.to_string()))?;
    Ok((config, extra))
}

fn parse_action(action: &Fields) -> Result<Action, Error> {
    let [(kind, _)] = action.entries else {
        return Err(action.err_here(
            "expected exactly one of `evaluate`, `sweep`, `sample`, `optimize`, `calibrate`",
        ));
    };
    match kind.as_str() {
        "evaluate" => {
            let body = action.object("evaluate", &["notation", "template", "ces"])?;
            match (body.get("notation"), body.get("template")) {
                (Some(_), None) => {
                    if body.get("ces").is_some() {
                        return Err(body.err("ces", "`ces` only applies to `template` designs"));
                    }
                    let text: &str = body.req("notation")?;
                    // Validate the notation eagerly: parse errors carry
                    // the byte offset into the notation string.
                    crate::arch::notation::parse(text)
                        .map_err(|e| body.err("notation", e.to_string()))?;
                    Ok(Action::Evaluate {
                        design: DesignSpec::Notation(text.to_string()),
                    })
                }
                (None, Some(_)) => {
                    let name = body.req("template")?;
                    let architecture = Architecture::by_name(name).ok_or_else(|| {
                        body.err("template", unknown_name(name, Architecture::names()))
                    })?;
                    let ces = body.req("ces")?;
                    if ces == 0 {
                        return Err(body.err("ces", "must be positive"));
                    }
                    Ok(Action::Evaluate {
                        design: DesignSpec::Template { architecture, ces },
                    })
                }
                _ => Err(body.err_here("expected exactly one of `notation` or `template`")),
            }
        }
        "sweep" => {
            let body = action.object("sweep", &["min_ces", "max_ces"])?;
            let min_ces = body.or("min_ces", 2)?;
            let max_ces = body.or("max_ces", 11)?;
            if min_ces == 0 {
                return Err(body.err("min_ces", "must be positive"));
            }
            if max_ces < min_ces {
                return Err(body.err(
                    "max_ces",
                    format!("must be at least min_ces ({min_ces}), got {max_ces}"),
                ));
            }
            Ok(Action::Sweep { min_ces, max_ces })
        }
        "sample" => {
            let body = action.object("sample", &["count", "metrics"])?;
            let count = body.req("count")?;
            if count == 0 {
                return Err(body.err("count", "must be positive"));
            }
            let metrics = body.or("metrics", SAMPLE_DEFAULT_METRICS.to_vec())?;
            Ok(Action::Sample { count, metrics })
        }
        "optimize" => {
            let body = action.object(
                "optimize",
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
            let (config, ()) = search_config(&body, |c| {
                c.migration_interval = body.or("migration_interval", c.migration_interval)?;
                c.migrants = body.or("migrants", c.migrants)?;
                c.crossover_prob = body.or("crossover_prob", c.crossover_prob)?;
                c.max_fuse_depth = body.or("max_fuse_depth", c.max_fuse_depth)?;
                Ok(())
            })?;
            Ok(Action::Optimize {
                metrics: config.metrics,
                budget: config.budget,
                population: config.population,
                islands: config.islands,
                migration_interval: config.migration_interval,
                migrants: config.migrants,
                crossover_prob: config.crossover_prob,
                max_fuse_depth: config.max_fuse_depth,
            })
        }
        "calibrate" => {
            let body = action.object(
                "calibrate",
                &[
                    "metrics",
                    "budget",
                    "population",
                    "islands",
                    "top_k",
                    "store",
                ],
            )?;
            let (config, (top_k, store)) = search_config(&body, |_| {
                let top_k = body.or("top_k", CALIBRATE_DEFAULT_TOP_K)?;
                if top_k == 0 {
                    return Err(body.err("top_k", "must be positive"));
                }
                let store: Option<&str> = body.opt("store")?;
                if store == Some("") {
                    return Err(body.err("store", "store path must not be empty"));
                }
                Ok((top_k, store.map(str::to_string)))
            })?;
            Ok(Action::Calibrate {
                metrics: config.metrics,
                budget: config.budget,
                population: config.population,
                islands: config.islands,
                top_k,
                store,
            })
        }
        _ => unreachable!("the action reader limits the key set"),
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
