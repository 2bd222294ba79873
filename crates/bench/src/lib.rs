//! Experiment harness of the MCCM reproduction: regenerates every table
//! and figure of the paper's evaluation (§V) and measures the speed
//! claims.
//!
//! Each experiment lives in [`experiments`] and runs by name through the
//! `mccm-bench` binary (`cargo run --release -p mccm-bench -- table4`);
//! `-- all` runs the full evaluation and writes CSVs under `results/`.

pub mod experiments;
mod output;
pub mod setups;

pub use output::{emit, results_dir, Report, Table};

/// Parses `--samples N` / `--seed N` style flags from `std::env::args`.
pub fn arg_value(name: &str, default: u64) -> u64 {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        }
    }
    default
}
