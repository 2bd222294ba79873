//! Runs one experiment of the evaluation, named by the first argument:
//!
//! ```text
//! cargo run --release -p mccm-bench -- <experiment> [--flag N]...
//! ```
//!
//! - `table1`–`table5`, `fig5`–`fig10`, `ablation`, `compression` and
//!   `speed` print their tables and write CSVs under `results/`. `fig10`
//!   accepts `--samples N` (default 20000; the paper uses 100000),
//!   `--seed N` (default 1) and `--workers N` (default 0 = one per core);
//!   `speed` accepts `--reps N` (default 200).
//! - `all` runs every one of those in order, with the same flags.
//! - `eval_speed` measures DSE sweep throughput on both evaluation lanes
//!   and records the perf trajectory in `BENCH_eval.json` (path override:
//!   `MCCM_BENCH_JSON`). Accepts `--designs N` (default 2000) and
//!   `--seed N` (default 42).
//! - `guided` compares guided (NSGA-II island) and random exploration at
//!   equal evaluation budget on Xception/VCU110 and records the
//!   front-quality trajectory in `BENCH_guided.json` (path override:
//!   `MCCM_BENCH_GUIDED_JSON`). Accepts `--budget N` (default 4000),
//!   `--seed N` (default 42) and `--workers N` (default 0).

use std::path::PathBuf;

use mccm_bench::experiments as e;
use mccm_bench::{arg_value, emit, Report};

/// A report experiment: its name and how to run it.
type Experiment = (&'static str, fn() -> Report);

/// The report experiments, in the order `all` runs them.
const REPORTS: [Experiment; 14] = [
    ("table2", e::table2::run),
    ("table3", e::table3::run),
    ("table1", e::table1::run),
    ("table4", e::table4::run),
    ("table5", e::table5::run),
    ("fig5", e::fig5::run),
    ("fig6", e::fig6::run),
    ("fig7", e::fig7::run),
    ("fig8", e::fig8::run),
    ("fig9", e::fig9::run),
    ("fig10", || {
        e::fig10::run(
            arg_value("--samples", 20_000) as usize,
            arg_value("--seed", 1),
            arg_value("--workers", 0) as usize,
        )
    }),
    ("speed", || e::speed::run(arg_value("--reps", 200) as usize)),
    ("ablation", e::ablation::run),
    ("compression", e::compression::run),
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    match name.as_str() {
        "all" => REPORTS.iter().for_each(|(_, run)| emit(&run())),
        "eval_speed" => {
            let designs = arg_value("--designs", 2000) as usize;
            let measured = e::eval_speed::measure(designs, arg_value("--seed", 42));
            emit(&measured.report());
            record("MCCM_BENCH_JSON", "BENCH_eval.json", &measured.to_json());
        }
        "guided" => {
            let measured = e::guided::measure(
                arg_value("--budget", 4000),
                arg_value("--seed", 42),
                arg_value("--workers", 0) as usize,
            );
            emit(&measured.report());
            record(
                "MCCM_BENCH_GUIDED_JSON",
                "BENCH_guided.json",
                &measured.to_json(),
            );
        }
        _ => match REPORTS.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => emit(&run()),
            None => {
                let names: Vec<&str> = REPORTS.iter().map(|(n, _)| *n).collect();
                eprintln!(
                    "error: unknown experiment `{name}` (expected one of: all, eval_speed, \
                     guided, {})",
                    names.join(", ")
                );
                std::process::exit(2);
            }
        },
    }
}

/// Writes a `BENCH_*.json` trajectory to the path in `$var` (default:
/// `file` in the working directory); exits 1 when it cannot.
fn record(var: &str, file: &str, json: &str) {
    let path = std::env::var_os(var).map_or_else(|| PathBuf::from(file), PathBuf::from);
    match std::fs::write(&path, json) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
