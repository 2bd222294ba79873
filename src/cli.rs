//! The `mccm` command-line front end, as a library so tests drive it
//! in-process.
//!
//! `mccm run scenario.json` is the canonical path: it parses a
//! [`Scenario`], applies `--set key=value` overrides, executes it through
//! a [`Session`], and prints the outcome's deterministic JSON. The six
//! legacy subcommands are rows of one flag table over the scenario
//! document, each writing its flag's value at a dotted path as `--set`
//! does: with `--json` they print exactly the bytes `mccm run` prints for
//! the equivalent scenario file (`validate` instead referees the design
//! against the simulator).
//!
//! Flag parsing is strict: unknown and duplicate flags are rejected with
//! the offending flag named (the old parser silently ignored both).

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::cnn::zoo;
use crate::core::CostModel;
use crate::error::{panic_text, Error};
use crate::fpga::FpgaBoard;
use crate::json::Json;
use crate::scenario::{apply_override, set_path, Scenario};
use crate::serve::Client;
use crate::session::{Outcome, Session};
use crate::sim::{SimConfig, Simulator};

/// CLI usage text.
pub const USAGE: &str = "\
mccm — analytical cost model for multiple compute-engine CNN accelerators

USAGE:
  mccm run SCENARIO.json [--set key=value]...   execute a scenario file
  mccm run SCENARIO.json --connect HOST:PORT [--deadline-ms N] [--retries N]
                                      execute on an `mccm serve` daemon
  mccm run --batch DIR [--workers N]            execute every scenario in DIR
  mccm serve [--addr HOST:PORT] [--workers N] [--queue N]
             [--retry-after-ms N]     run the evaluation daemon
  mccm stats --connect HOST:PORT      query a daemon's request accounting
  mccm shutdown --connect HOST:PORT   drain a daemon and print final stats
  mccm models                         list available CNNs
  mccm boards                         list evaluation FPGA boards
  mccm evaluate --model M --board B (--notation S | --arch A --ces K)
                [--fuse-depth N] [--precision int8|int16] [--batch N]
                [--verbose] [--json]
  mccm validate --model M --board B (--notation S | --arch A --ces K)
                [--precision int8|int16]
  mccm sweep    --model M --board B [--min-ces N] [--max-ces N]
                [--workers N] [--json]
  mccm explore  --model M --board B [--samples N] [--seed N] [--workers N]
                [--json]
  mccm optimize --model M --board B [--budget N] [--population N] [--islands N]
                [--max-fuse-depth N] [--seed N] [--workers N]
                [--metrics latency,throughput,...] [--json]
  mccm calibrate --model M --board B [--budget N] [--population N] [--islands N]
                [--top-k N] [--store FILE] [--seed N] [--workers N]
                [--metrics latency,throughput,...] [--json]
                                      optimize, then referee the top-K front
                                      members with the simulator and fit
                                      error-bar corrections

ARCHITECTURES: segmented | segmentedrr | hybrid
METRICS:       latency | throughput | access | buffers | energy (default: all five)
SCENARIOS:     see docs/scenario_file.md for the JSON format
SERVING:       see docs/serving.md for the daemon protocol and exit codes";

/// Entry point: parses `args` (without the program name) and writes
/// command output to `out`.
///
/// # Errors
///
/// [`Error::Usage`] for CLI misuse (with the offending flag or command
/// named), any other [`enum@Error`] from scenario execution.
pub fn main_with_args(args: &[String], out: &mut dyn Write) -> Result<(), Error> {
    let Some(command) = args.first() else {
        return Err(Error::Usage(format!("missing command\n{USAGE}")));
    };
    let rest = &args[1..];
    match command.as_str() {
        "run" => cmd_run(rest, out),
        "serve" => cmd_serve(rest, out),
        "stats" => cmd_control("stats", Client::stats, rest, out),
        "shutdown" => cmd_control("shutdown", Client::shutdown, rest, out),
        "models" => cmd_models(rest, out),
        "boards" => cmd_boards(rest, out),
        "help" | "--help" | "-h" => {
            emit(out, format_args!("{USAGE}\n"))?;
            Ok(())
        }
        other => match LEGACY.iter().find(|legacy| legacy.command == other) {
            Some(legacy) => cmd_legacy(legacy, rest, out),
            None => Err(Error::Usage(format!("unknown command `{other}`\n{USAGE}"))),
        },
    }
}

fn emit(out: &mut dyn Write, args: std::fmt::Arguments<'_>) -> Result<(), Error> {
    out.write_fmt(args)
        .map_err(|e| Error::io("writing output", e))
}

/// How a flag consumes arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlagKind {
    /// `--flag value`, at most once.
    Value,
    /// `--flag value`, repeatable (`--set`).
    Repeatable,
    /// Bare `--flag`, at most once.
    Switch,
}

/// Strictly parsed flags: every `--name` must be declared in `spec`,
/// non-repeatable flags must appear at most once, and value flags must
/// have a value. Anything not starting with `--` is a positional.
struct Flags {
    command: &'static str,
    seen: Vec<(String, Option<String>)>,
    positionals: Vec<String>,
}

impl Flags {
    fn parse(
        command: &'static str,
        args: &[String],
        spec: &[(&str, FlagKind)],
    ) -> Result<Self, Error> {
        let mut seen: Vec<(String, Option<String>)> = Vec::new();
        let mut positionals = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                positionals.push(arg.clone());
                continue;
            }
            let Some(&(name, kind)) = spec.iter().find(|(n, _)| n == arg) else {
                let known: Vec<&str> = spec.iter().map(|(n, _)| *n).collect();
                return Err(Error::Usage(format!(
                    "unknown flag `{arg}` for `mccm {command}` (expected {})",
                    known.join(", ")
                )));
            };
            if kind != FlagKind::Repeatable && seen.iter().any(|(n, _)| n == name) {
                return Err(Error::Usage(format!(
                    "duplicate flag `{name}` for `mccm {command}`"
                )));
            }
            let value = match kind {
                FlagKind::Switch => None,
                FlagKind::Value | FlagKind::Repeatable => Some(
                    args.next()
                        .ok_or_else(|| Error::Usage(format!("flag `{name}` needs a value")))?
                        .clone(),
                ),
            };
            seen.push((name.to_string(), value));
        }
        Ok(Self {
            command,
            seen,
            positionals,
        })
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.seen
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn values(&self, name: &str) -> Vec<&str> {
        self.seen
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    fn switch(&self, name: &str) -> bool {
        self.seen.iter().any(|(n, _)| n == name)
    }

    fn require(&self, name: &str) -> Result<&str, Error> {
        self.value(name).ok_or_else(|| {
            Error::Usage(format!("`mccm {}` requires `{name} <value>`", self.command))
        })
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, Error> {
        self.value(name).map(|text| number(name, text)).transpose()
    }

    fn no_positionals(&self) -> Result<(), Error> {
        if let Some(extra) = self.positionals.first() {
            return Err(Error::Usage(format!(
                "unexpected argument `{extra}` for `mccm {}`",
                self.command
            )));
        }
        Ok(())
    }
}

/// Parses the value `text` of number flag `name`.
fn number<T: std::str::FromStr>(name: &str, text: &str) -> Result<T, Error> {
    text.parse()
        .map_err(|_| Error::Usage(format!("flag `{name}` expects a number, got `{text}`")))
}

fn cmd_models(args: &[String], out: &mut dyn Write) -> Result<(), Error> {
    Flags::parse("models", args, &[])?.no_positionals()?;
    emit(
        out,
        format_args!(
            "{:<14} {:<8} {:>11} {:>12} {:>11}\n",
            "model", "abbrev", "weights (M)", "conv layers", "GMACs"
        ),
    )?;
    for name in zoo::names() {
        let m = zoo::by_name(name).expect("registry names resolve");
        emit(
            out,
            format_args!(
                "{:<14} {:<8} {:>11.1} {:>12} {:>11.2}\n",
                m.name(),
                zoo::abbreviation(m.name()),
                m.total_params() as f64 / 1e6,
                m.conv_layer_count(),
                m.conv_macs() as f64 / 1e9
            ),
        )?;
    }
    Ok(())
}

fn cmd_boards(args: &[String], out: &mut dyn Write) -> Result<(), Error> {
    Flags::parse("boards", args, &[])?.no_positionals()?;
    for b in FpgaBoard::evaluation_boards() {
        emit(out, format_args!("{b}\n"))?;
    }
    Ok(())
}

/// How a legacy flag's value enters the scenario document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A JSON string, never JSON-parsed (`--store 42` stays a path).
    Str,
    /// A `u64`.
    Num,
    /// Comma-split and trimmed strings.
    List,
    /// A `u64` that also sets `schedule.mode = "depth_first"`.
    DepthFirst,
    /// A bare switch read by the printer (`--json`, `--verbose`).
    Switch,
}
use Kind::{DepthFirst, List, Num, Str, Switch};

/// One flag: its name, the dotted document path it writes, its kind.
type Row = (&'static str, &'static str, Kind);

/// One legacy subcommand: the document its rows write into (the `action`
/// key it fills, with any fixed defaults), and its own rows after the
/// shared [`CONTEXT`] ones.
struct Legacy {
    command: &'static str,
    base: &'static str,
    rows: &'static [Row],
}

/// The rows every legacy subcommand shares; both flags are required.
#[rustfmt::skip]
const CONTEXT: [Row; 2] = [("--model", "model.zoo", Str), ("--board", "board.builtin", Str)];

/// The legacy subcommands as rows over the scenario document: each runs
/// the document its flags assemble, as `mccm run` would (`validate`
/// instead referees that document's design against the simulator).
#[rustfmt::skip]
const LEGACY: [Legacy; 6] = [
    Legacy { command: "evaluate", base: r#"{"action": {"evaluate": {}}}"#, rows: &[
        ("--json",       "",                         Switch),
        ("--notation",   "action.evaluate.notation", Str),
        ("--arch",       "action.evaluate.template", Str),
        ("--ces",        "action.evaluate.ces",      Num),
        ("--fuse-depth", "schedule.fuse_depth",      DepthFirst),
        ("--precision",  "precision",                Str),
        ("--batch",      "batch",                    Num),
        ("--verbose",    "",                         Switch),
    ] },
    Legacy { command: "validate", base: r#"{"action": {"evaluate": {}}}"#, rows: &[
        ("--notation",  "action.evaluate.notation", Str),
        ("--arch",      "action.evaluate.template", Str),
        ("--ces",       "action.evaluate.ces",      Num),
        ("--precision", "precision",                Str),
    ] },
    Legacy { command: "sweep", base: r#"{"action": {"sweep": {}}}"#, rows: &[
        ("--json",    "",                     Switch),
        ("--min-ces", "action.sweep.min_ces", Num),
        ("--max-ces", "action.sweep.max_ces", Num),
        ("--workers", "workers",              Num),
    ] },
    Legacy { command: "explore", base: r#"{"action": {"sample": {"count": 2000}}}"#, rows: &[
        ("--json",    "",                    Switch),
        ("--samples", "action.sample.count", Num),
        ("--seed",    "seed",                Num),
        ("--workers", "workers",             Num),
    ] },
    Legacy { command: "optimize", base: r#"{"action": {"optimize": {}}}"#, rows: &[
        ("--json",           "",                              Switch),
        ("--budget",         "action.optimize.budget",         Num),
        ("--population",     "action.optimize.population",     Num),
        ("--islands",        "action.optimize.islands",        Num),
        ("--max-fuse-depth", "action.optimize.max_fuse_depth", Num),
        ("--seed",           "seed",                           Num),
        ("--workers",        "workers",                        Num),
        ("--metrics",        "action.optimize.metrics",        List),
    ] },
    Legacy { command: "calibrate", base: r#"{"action": {"calibrate": {}}}"#, rows: &[
        ("--json",       "",                            Switch),
        ("--budget",     "action.calibrate.budget",     Num),
        ("--population", "action.calibrate.population", Num),
        ("--islands",    "action.calibrate.islands",    Num),
        ("--top-k",      "action.calibrate.top_k",      Num),
        ("--store",      "action.calibrate.store",      Str),
        ("--seed",       "seed",                        Num),
        ("--workers",    "workers",                     Num),
        ("--metrics",    "action.calibrate.metrics",    List),
    ] },
];

/// Writes every flag of a legacy subcommand into its document and runs
/// it: canonical JSON with `--json`, human text otherwise.
fn cmd_legacy(legacy: &Legacy, args: &[String], out: &mut dyn Write) -> Result<(), Error> {
    let rows: Vec<Row> = CONTEXT.iter().chain(legacy.rows).copied().collect();
    let spec: Vec<(&str, FlagKind)> = rows
        .iter()
        .map(|&(flag, _, kind)| match kind {
            Switch => (flag, FlagKind::Switch),
            _ => (flag, FlagKind::Value),
        })
        .collect();
    let flags = Flags::parse(legacy.command, args, &spec)?;
    flags.no_positionals()?;
    for (flag, _, _) in CONTEXT {
        flags.require(flag)?;
    }
    if matches!(legacy.command, "evaluate" | "validate") {
        check_design(legacy.command, &flags)?;
    }
    let mut root = Json::parse(legacy.base)?;
    for (flag, path, kind) in rows {
        let Some(text) = flags.value(flag) else {
            continue;
        };
        let value = match kind {
            Str => text.into(),
            List => Json::Array(text.split(',').map(|m| m.trim().into()).collect()),
            Num | DepthFirst => number::<u64>(flag, text)?.into(),
            Switch => continue,
        };
        if kind == DepthFirst {
            set_path(&mut root, "schedule.mode", "depth_first".into())?;
        }
        set_path(&mut root, path, value)?;
    }
    let scenario = Scenario::from_json(&root)?;
    if legacy.command == "validate" {
        return validate_report(&scenario, out);
    }
    let outcome = Session::new().run(&scenario)?;
    if flags.switch("--json") {
        emit(out, format_args!("{}", outcome.to_json_string()))
    } else {
        render_human(&outcome, flags.switch("--verbose"), out)
    }
}

/// The one hand-written usage check, of the `evaluate` and `validate` rows:
/// exactly one of `--notation` or `--arch --ces` (`--ces` alongside
/// `--notation` is an error, as in the scenario parser, not dropped).
fn check_design(command: &str, flags: &Flags) -> Result<(), Error> {
    let given = |flag: &str| flags.value(flag).is_some();
    let problem = match (given("--notation"), given("--arch"), given("--ces")) {
        (true, false, true) => "`--ces` only applies to `--arch` designs, not `--notation`".into(),
        (false, true, false) => "`--arch` requires `--ces <count>`".into(),
        (true, false, _) | (false, true, _) => return Ok(()),
        _ => format!("`mccm {command}` needs exactly one of `--notation` or `--arch`"),
    };
    Err(Error::Usage(problem))
}

/// `mccm validate`: the document's design as the model estimates it and
/// the simulator measures it (a check, not a scenario action).
fn validate_report(scenario: &Scenario, out: &mut dyn Write) -> Result<(), Error> {
    let model = scenario.model.build()?;
    let board = scenario.board.build()?;
    let crate::scenario::Action::Evaluate { design } = &scenario.action else {
        unreachable!("the validate rows fill `action.evaluate`");
    };
    let acc = crate::arch::MultipleCeBuilder::new(&model, &board)
        .with_precision(scenario.precision)
        .build(&design.instantiate(&model)?)?;
    let eval = CostModel::evaluate(&acc);
    let sim = Simulator::new(SimConfig::default()).run_with_eval(&acc, &eval);
    emit(out, format_args!("design: {}\n", eval.notation))?;
    emit(
        out,
        format_args!(
            "{:<12} {:>14} {:>14} {:>9}\n",
            "metric", "model", "simulator", "accuracy"
        ),
    )?;
    for rec in sim.accuracy_records(&eval) {
        emit(
            out,
            format_args!(
                "{:<12} {:>14.4} {:>14.4} {:>8.1}%\n",
                rec.metric.name(),
                rec.estimated,
                rec.reference,
                rec.accuracy()
            ),
        )?;
    }
    Ok(())
}

fn cmd_run(args: &[String], out: &mut dyn Write) -> Result<(), Error> {
    let flags = Flags::parse(
        "run",
        args,
        &[
            ("--set", FlagKind::Repeatable),
            ("--batch", FlagKind::Value),
            ("--workers", FlagKind::Value),
            ("--connect", FlagKind::Value),
            ("--deadline-ms", FlagKind::Value),
            ("--retries", FlagKind::Value),
        ],
    )?;
    if flags.value("--connect").is_none()
        && (flags.value("--deadline-ms").is_some() || flags.value("--retries").is_some())
    {
        return Err(Error::Usage(
            "`--deadline-ms` and `--retries` apply to `--connect` runs".into(),
        ));
    }
    if let Some(dir) = flags.value("--batch") {
        if !flags.positionals.is_empty() {
            return Err(Error::Usage(
                "`mccm run --batch DIR` takes no scenario-file argument".into(),
            ));
        }
        if !flags.values("--set").is_empty() {
            return Err(Error::Usage(
                "`--set` applies to single scenario files, not `--batch` directories".into(),
            ));
        }
        if flags.value("--connect").is_some() {
            return Err(Error::Usage(
                "`--batch` runs locally; `--connect` takes a single scenario file".into(),
            ));
        }
        let workers = flags.parsed::<usize>("--workers")?.unwrap_or(0);
        return run_batch(Path::new(dir), workers, out);
    }
    if flags.value("--workers").is_some() {
        return Err(Error::Usage(
            "`--workers` shards `--batch` runs; set `workers` in the scenario file (or \
             `--set workers=N`) for a single run"
                .into(),
        ));
    }
    let [path] = flags.positionals.as_slice() else {
        return Err(Error::Usage(
            "`mccm run` needs exactly one scenario file (or `--batch DIR`)".into(),
        ));
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::io(format!("reading scenario `{path}`"), e))?;
    let mut root = Json::parse(&text)?;
    for setting in flags.values("--set") {
        let Some((key, value)) = setting.split_once('=') else {
            return Err(Error::Usage(format!(
                "`--set` expects `key=value`, got `{setting}`"
            )));
        };
        apply_override(&mut root, key, value)?;
    }
    let scenario = Scenario::from_json(&root)?;
    if let Some(addr) = flags.value("--connect") {
        let policy = crate::serve::RetryPolicy {
            retries: flags.parsed::<u32>("--retries")?.unwrap_or(5),
            ..crate::serve::RetryPolicy::default()
        };
        let deadline_ms = flags.parsed::<u64>("--deadline-ms")?;
        let reply = crate::serve::run_with_retry(addr, &scenario, deadline_ms, &policy)?;
        if reply.degraded {
            // A degraded outcome is not the scenario's full result; wrap
            // it so nothing downstream mistakes the partial bytes for the
            // deterministic local ones.
            let mut envelope = Json::object();
            envelope.push("degraded", true);
            envelope.push("outcome", reply.outcome);
            return emit(out, format_args!("{}", envelope.to_string_pretty()));
        }
        // Not degraded: byte-identical to a local `mccm run`.
        return emit(out, format_args!("{}", reply.outcome.to_string_pretty()));
    }
    let outcome = Session::new().run(&scenario)?;
    emit(out, format_args!("{}", outcome.to_json_string()))
}

fn cmd_serve(args: &[String], out: &mut dyn Write) -> Result<(), Error> {
    let flags = Flags::parse(
        "serve",
        args,
        &[
            ("--addr", FlagKind::Value),
            ("--workers", FlagKind::Value),
            ("--queue", FlagKind::Value),
            ("--retry-after-ms", FlagKind::Value),
        ],
    )?;
    flags.no_positionals()?;
    let mut config = crate::serve::ServeConfig::default();
    if let Some(w) = flags.parsed::<usize>("--workers")? {
        if w == 0 {
            return Err(Error::Usage("`--workers` must be at least 1".into()));
        }
        config.workers = w;
    }
    if let Some(q) = flags.parsed::<usize>("--queue")? {
        if q == 0 {
            return Err(Error::Usage("`--queue` must be at least 1".into()));
        }
        config.queue_capacity = q;
    }
    if let Some(ms) = flags.parsed::<u64>("--retry-after-ms")? {
        config.retry_after_ms = ms;
    }
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:7070");
    let server = crate::serve::Server::bind(addr, config)?;
    // Announce the resolved address (port 0 resolves to an ephemeral
    // port) before blocking, so scripts can connect.
    emit(out, format_args!("listening on {}\n", server.addr()))?;
    out.flush().map_err(|e| Error::io("flushing output", e))?;
    let stats = server.run()?;
    emit(out, format_args!("{}", stats.to_json().to_string_pretty()))
}

/// `mccm stats` and `mccm shutdown`: one control request to a daemon.
fn cmd_control(
    command: &'static str,
    request: fn(&mut Client) -> Result<Json, Error>,
    args: &[String],
    out: &mut dyn Write,
) -> Result<(), Error> {
    let flags = Flags::parse(command, args, &[("--connect", FlagKind::Value)])?;
    flags.no_positionals()?;
    let response = request(&mut Client::connect(flags.require("--connect")?)?)?;
    emit(out, format_args!("{}", response.to_string_pretty()))
}

/// Executes every `*.json` scenario in `dir` (sorted by file name),
/// sharded across `workers` threads, each with its own [`Session`].
/// Output is one JSON document listing each file's outcome or error in
/// name order; the command fails (after printing) when any scenario
/// failed.
fn run_batch(dir: &Path, workers: usize, out: &mut dyn Write) -> Result<(), Error> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| Error::io(format!("reading scenario directory `{}`", dir.display()), e))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(Error::Usage(format!(
            "no `*.json` scenario files in `{}`",
            dir.display()
        )));
    }
    let workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1)
    } else {
        workers
    }
    .min(files.len())
    .max(1);

    // One result slot per file; contiguous shards, one session per
    // worker so scenarios sharing a (model, board) context within a
    // shard reuse its warmed builder. One poisoned file must not take
    // down its shard-mates: each scenario runs under `catch_unwind`,
    // and a panic discards the (possibly inconsistent) session and
    // rebuilds a fresh one before the next file.
    let results: Vec<Result<Outcome, Error>> = {
        let run_shard = |shard: &[PathBuf]| -> Vec<Result<Outcome, Error>> {
            let mut session = Session::new();
            shard
                .iter()
                .map(|path| {
                    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let text = std::fs::read_to_string(path).map_err(|e| {
                            Error::io(format!("reading scenario `{}`", path.display()), e)
                        })?;
                        let scenario = Scenario::from_json_str(&text)?;
                        session.run(&scenario)
                    }));
                    attempt.unwrap_or_else(|payload| {
                        session = Session::new();
                        Err(Error::internal(format!(
                            "panic: {}",
                            panic_text(&payload).unwrap_or("non-string panic payload")
                        )))
                    })
                })
                .collect()
        };
        if workers <= 1 {
            run_shard(&files)
        } else {
            let chunk = files.len().div_ceil(workers);
            let shards: Vec<&[PathBuf]> = files.chunks(chunk).collect();
            std::thread::scope(|s| {
                let handles: Vec<_> = shards
                    .iter()
                    .map(|shard| s.spawn(move || run_shard(shard)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("batch worker panicked"))
                    .collect()
            })
        }
    };

    let mut failures = 0usize;
    let mut entries: Vec<Json> = Vec::with_capacity(files.len());
    for (path, result) in files.iter().zip(results) {
        let mut entry = Json::object();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        entry.push("file", name);
        match result {
            Ok(outcome) => entry.push("outcome", outcome.to_json()),
            Err(e) => {
                failures += 1;
                entry.push("error", e.to_wire());
            }
        }
        entries.push(entry);
    }
    let mut root = Json::object();
    root.push("batch", entries);
    root.push("scenarios", files.len());
    root.push("failures", failures);
    emit(out, format_args!("{}", root.to_string_pretty()))?;
    if failures > 0 {
        return Err(Error::BatchPartial {
            failed: failures,
            total: files.len(),
        });
    }
    Ok(())
}

/// Human rendering of an outcome — the presentation layer of the legacy
/// subcommands. The JSON form ([`Outcome::to_json`]) is the stable
/// machine interface; this text is free to evolve.
fn render_human(outcome: &Outcome, verbose: bool, out: &mut dyn Write) -> Result<(), Error> {
    match outcome {
        Outcome::Evaluation(o) => {
            let e = &o.eval;
            emit(out, format_args!("design:     {}\n", e.notation))?;
            emit(
                out,
                format_args!(
                    "workload:   {} on {} ({})\n",
                    e.model_name, o.board, o.precision
                ),
            )?;
            emit(out, format_args!("latency:    {:.3} ms\n", e.latency_ms()))?;
            emit(
                out,
                format_args!("throughput: {:.1} FPS\n", e.throughput_fps),
            )?;
            emit(
                out,
                format_args!(
                    "buffers:    {:.2} MiB required ({:.2} MiB granted on-chip)\n",
                    e.buffer_mib(),
                    e.buffer_alloc_bytes.mib()
                ),
            )?;
            emit(
                out,
                format_args!(
                    "accesses:   {:.1} MiB/inference ({:.0}% weights)\n",
                    e.offchip_mib(),
                    100.0 * e.weight_traffic_share()
                ),
            )?;
            emit(
                out,
                format_args!(
                    "stalls:     {:.0}% of time waiting on memory\n",
                    100.0 * e.memory_stall_fraction
                ),
            )?;
            emit(
                out,
                format_args!(
                    "energy:     {:.1} mJ/inference ({:.0}% of dynamic energy in DRAM), \
                     {:.0} GOPS/W\n",
                    o.energy.total_mj(),
                    100.0 * o.energy.dram_share(),
                    o.gops_per_w
                ),
            )?;
            if o.batch > 1 {
                emit(
                    out,
                    format_args!(
                        "batch({}): {:.3} ms total, {:.3} ms amortized per input\n",
                        o.batch,
                        e.batch_latency_s(o.batch) * 1e3,
                        e.amortized_latency_s(o.batch) * 1e3
                    ),
                )?;
            }
            if verbose {
                emit(out, format_args!("\nengines:\n"))?;
                for c in &e.ces {
                    emit(
                        out,
                        format_args!(
                            "  CE{:<3} {:>5} PEs  busy {:>8.3} ms  util {:>3.0}%\n",
                            c.ce + 1,
                            c.pes,
                            c.busy_s * 1e3,
                            100.0 * c.utilization
                        ),
                    )?;
                }
                emit(out, format_args!("\nsegments:\n"))?;
                for s in &e.segments {
                    emit(
                        out,
                        format_args!(
                            "  seg {:>2}  L{:>3}-L{:<3}  {:>8.3} ms  util {:>3.0}%  traffic \
                             {:>7.2} MiB{}\n",
                            s.index + 1,
                            s.first + 1,
                            s.last + 1,
                            s.time_s * 1e3,
                            100.0 * s.utilization,
                            s.traffic().mib(),
                            if s.memory_s > s.compute_s {
                                "  [memory-bound]"
                            } else {
                                ""
                            }
                        ),
                    )?;
                }
            }
            Ok(())
        }
        Outcome::Sweep(o) => {
            emit(
                out,
                format_args!(
                    "{:<12} {:>3} {:>12} {:>9} {:>13} {:>13}\n",
                    "architecture", "CEs", "latency(ms)", "FPS", "buffers(MiB)", "access(MiB)"
                ),
            )?;
            for p in &o.points {
                emit(
                    out,
                    format_args!(
                        "{:<12} {:>3} {:>12.2} {:>9.1} {:>13.2} {:>13.1}\n",
                        p.architecture.name(),
                        p.ces,
                        p.eval.latency_ms(),
                        p.eval.throughput_fps,
                        p.eval.buffer_mib(),
                        p.eval.offchip_mib()
                    ),
                )?;
            }
            emit(out, format_args!("\nbest (10% tie rule):\n"))?;
            for cell in &o.selection {
                let winners: Vec<String> = cell
                    .winners
                    .iter()
                    .map(|(a, c, _)| format!("{}-{}", a.name(), c))
                    .collect();
                emit(
                    out,
                    format_args!("  {:<11} {}\n", cell.metric.name(), winners.join(", ")),
                )?;
            }
            Ok(())
        }
        Outcome::Front(o) => {
            emit(
                out,
                format_args!(
                    "evaluated {} custom designs (seed {}) on {} / {}\n",
                    o.evaluated, o.seed, o.model, o.board
                ),
            )?;
            emit(
                out,
                format_args!(
                    "Pareto front over [{}]: {} designs, hypervolume {:.3}\n",
                    o.metrics
                        .iter()
                        .map(|m| m.name())
                        .collect::<Vec<_>>()
                        .join(", "),
                    o.front.len(),
                    o.hypervolume
                ),
            )?;
            for s in o.front.iter().take(12) {
                emit(
                    out,
                    format_args!(
                        "  {:>7.1} FPS  {:>7.2} MiB  {}\n",
                        s.throughput_fps,
                        s.buffer_mib(),
                        s.notation
                    ),
                )?;
            }
            if o.front.len() > 12 {
                emit(out, format_args!("  ... and {} more\n", o.front.len() - 12))?;
            }
            Ok(())
        }
        Outcome::Optimized(o) => {
            emit(
                out,
                format_args!(
                    "guided search: {} evaluations ({} feasible) of budget {} — front of {} \
                     designs over [{}]\n",
                    o.evaluations,
                    o.feasible,
                    o.budget,
                    o.front.len(),
                    o.metrics
                        .iter()
                        .map(|m| m.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )?;
            emit(out, format_args!("\nbest per metric:\n"))?;
            for &m in &o.metrics {
                if let Some(v) = m.best(o.front.iter().map(|s| m.value(s))) {
                    emit(out, format_args!("  {:<11} {v:.4e}\n", m.name()))?;
                }
            }
            let energy = crate::core::EnergyModel::default();
            emit(
                out,
                format_args!("\nfront (best-first on {}):\n", o.metrics[0].name()),
            )?;
            for s in o.front.iter().take(12) {
                emit(
                    out,
                    format_args!(
                        "  {:>7.1} FPS  {:>7.2} ms  {:>7.2} MiB buf  {:>6.1} MiB acc  {:>6.1} \
                         mJ  {}\n",
                        s.throughput_fps,
                        s.latency_ms(),
                        s.buffer_mib(),
                        s.offchip_mib(),
                        energy.estimate_summary(s).total_mj(),
                        s.notation
                    ),
                )?;
            }
            if o.front.len() > 12 {
                emit(out, format_args!("  ... and {} more\n", o.front.len() - 12))?;
            }
            Ok(())
        }
        Outcome::Calibrated(o) => {
            emit(
                out,
                format_args!(
                    "calibration: {} evaluations ({} feasible) of budget {} — front of {} \
                     designs, {} promoted to the simulator\n",
                    o.evaluations,
                    o.feasible,
                    o.budget,
                    o.front.len(),
                    o.promoted.len()
                ),
            )?;
            emit(
                out,
                format_args!(
                    "store: {} pairs ({} new) for ({}, {})\n",
                    o.store_pairs, o.new_pairs, o.board, o.precision
                ),
            )?;
            emit(
                out,
                format_args!(
                    "\ncorrections (calibrated = slope·analytical + intercept ± error bar):\n"
                ),
            )?;
            for (m, c) in &o.corrections {
                if c.pairs == 0 {
                    emit(
                        out,
                        format_args!("  {:<11} no evidence yet (identity)\n", m.name()),
                    )?;
                } else {
                    // A line through two points has no residual, so its
                    // improvement ratio is only the residual floor.
                    let gain = if c.pairs <= 2 || c.mean_abs_residual == 0.0 {
                        "exact fit".to_string()
                    } else {
                        format!("{:.1}x tighter than raw", c.improvement())
                    };
                    emit(
                        out,
                        format_args!(
                            "  {:<11} slope {:.4}  intercept {:+.4e}  ± {:.4e}  ({} pairs, \
                             {gain})\n",
                            m.name(),
                            c.slope,
                            c.intercept,
                            c.error_bar(),
                            c.pairs,
                        ),
                    )?;
                }
            }
            emit(out, format_args!("\npromoted designs:\n"))?;
            for p in &o.promoted {
                emit(
                    out,
                    format_args!("  front[{}] {}\n", p.front_index, p.notation),
                )?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(args: &[&str]) -> Result<String, Error> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        main_with_args(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("CLI output is UTF-8"))
    }

    #[test]
    fn unknown_flag_is_rejected_with_its_name() {
        let err = run_cli(&["evaluate", "--model", "resnet50", "--bored", "zc706"]).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("--bored"), "{text}");
        assert!(text.contains("evaluate"), "{text}");
    }

    #[test]
    fn duplicate_flag_is_rejected_with_its_name() {
        let err = run_cli(&[
            "evaluate", "--model", "resnet50", "--model", "vgg16", "--board", "zc706", "--arch",
            "hybrid", "--ces", "4",
        ])
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("duplicate flag `--model`"), "{text}");
    }

    #[test]
    fn valueless_value_flag_is_rejected() {
        let err = run_cli(&["evaluate", "--model"]).unwrap_err();
        assert!(err.to_string().contains("`--model` needs a value"), "{err}");
    }

    #[test]
    fn fuse_depth_flag_schedules_the_evaluated_design() {
        let text = run_cli(&[
            "evaluate",
            "--model",
            "mobilenetv2",
            "--board",
            "zc706",
            "--arch",
            "segmented",
            "--ces",
            "3",
            "--fuse-depth",
            "2",
            "--json",
        ])
        .unwrap();
        assert!(text.contains("@df2"), "{text}");
    }

    #[test]
    fn max_fuse_depth_flag_reaches_the_optimizer_and_rejects_zero() {
        let ok = run_cli(&[
            "optimize",
            "--model",
            "mobilenetv2",
            "--board",
            "zc706",
            "--budget",
            "80",
            "--population",
            "8",
            "--islands",
            "2",
            "--max-fuse-depth",
            "2",
            "--json",
        ])
        .unwrap();
        assert!(ok.contains("\"front\""), "{ok}");
        let err = run_cli(&[
            "optimize",
            "--model",
            "mobilenetv2",
            "--board",
            "zc706",
            "--max-fuse-depth",
            "0",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("max_fuse_depth"), "{err}");
    }

    #[test]
    fn notation_with_ces_is_rejected_not_dropped() {
        // Regression: the old shim silently ignored `--ces` next to
        // `--notation`, diverging from the scenario parser's rejection.
        for command in ["evaluate", "validate"] {
            let err = run_cli(&[
                command,
                "--model",
                "resnet50",
                "--board",
                "zc706",
                "--notation",
                "{L1-Last: CE1-CE4}",
                "--ces",
                "9",
            ])
            .unwrap_err();
            assert!(err.to_string().contains("--ces"), "{command}: {err}");
        }
    }

    #[test]
    fn verbose_evaluate_lists_engines_and_segments() {
        let text = run_cli(&[
            "evaluate",
            "--model",
            "mobilenetv2",
            "--board",
            "zc706",
            "--arch",
            "segmented",
            "--ces",
            "3",
            "--verbose",
        ])
        .unwrap();
        assert!(text.contains("engines:"), "{text}");
        assert!(text.contains("CE1"), "{text}");
        assert!(text.contains("segments:"), "{text}");
    }

    #[test]
    fn models_and_boards_list() {
        let models = run_cli(&["models"]).unwrap();
        assert!(models.contains("resnet50") && models.contains("vgg16"));
        let boards = run_cli(&["boards"]).unwrap();
        assert!(boards.contains("ZC706") && boards.contains("ZCU102"));
    }

    #[test]
    fn evaluate_json_and_human_forms_work() {
        let json = run_cli(&[
            "evaluate",
            "--model",
            "mobilenetv2",
            "--board",
            "zc706",
            "--arch",
            "hybrid",
            "--ces",
            "4",
            "--json",
        ])
        .unwrap();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("action").and_then(Json::as_str),
            Some("evaluate")
        );
        let human = run_cli(&[
            "evaluate",
            "--model",
            "mobilenetv2",
            "--board",
            "zc706",
            "--arch",
            "hybrid",
            "--ces",
            "4",
        ])
        .unwrap();
        assert!(human.contains("latency:"), "{human}");
    }

    #[test]
    fn calibrate_human_output_marks_exact_fits() {
        // Two-pair fits have no residual: their ratio is only the
        // residual floor and must not be printed as a huge number.
        let text = run_cli(&[
            "calibrate",
            "--model",
            "mobilenetv2",
            "--board",
            "zc706",
            "--budget",
            "120",
            "--population",
            "8",
            "--islands",
            "2",
            "--top-k",
            "2",
        ])
        .unwrap();
        assert!(text.contains("exact fit"), "{text}");
        for line in text.lines() {
            assert!(line.len() <= 200, "{} chars: {line}", line.len());
        }
    }

    #[test]
    fn help_shows_usage_and_unknown_command_errors() {
        let help = run_cli(&["help"]).unwrap();
        assert!(help.contains("mccm run"));
        let err = run_cli(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }
}
