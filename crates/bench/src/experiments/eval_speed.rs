//! Sweep-throughput measurement of the evaluation fast lane: the
//! designs/second a DSE loop actually gets, before vs after the shared
//! build context + summary lane (the perf trajectory behind the repo's
//! `BENCH_eval.json`).
//!
//! Two lanes over the *same* seeded design stream (Xception / VCU110,
//! the paper's Use Case 3 setup):
//!
//! * **baseline** — the pre-fast-lane per-design path, reconstructed:
//!   parallelism memoization disabled, full [`CostModel::evaluate`] with
//!   all report vectors, then `Evaluation::summary()`;
//! * **fastlane** — [`Explorer::par_sample_custom_summaries`] inline
//!   (`workers = 1`): memoized builds against the shared context plus
//!   the allocation-free [`CostModel::evaluate_summary`].
//!
//! Both lanes produce bit-identical summaries (asserted here), so the
//! ratio is pure overhead removed, not model drift.

use std::hint::black_box;
use std::time::Instant;

use mccm_arch::{ArchError, MultipleCeBuilder};
use mccm_cnn::zoo;
use mccm_core::{CostModel, EvalScratch};
use mccm_dse::{default_max_attempts, sample_attempt, CustomSpace, Explorer};
use mccm_fpga::FpgaBoard;

use crate::output::{Report, Table};

/// The measured quantities, renderable as a [`Report`] (stdout/CSV) or as
/// the `BENCH_eval.json` perf-trajectory record.
#[derive(Debug, Clone)]
pub struct EvalSpeed {
    /// CPU the numbers were taken on.
    pub machine: String,
    /// Designs per lane.
    pub designs: usize,
    /// Baseline-lane sweep wall time in seconds.
    pub baseline_s: f64,
    /// Fast-lane sweep wall time in seconds (cold memo cache).
    pub fastlane_s: f64,
    /// Fast-lane sweep wall time in seconds with the memo cache warm
    /// (same sweep re-run — the steady state of a long sweep).
    pub fastlane_warm_s: f64,
    /// Full-lane `evaluate` microseconds per design (prebuilt designs).
    pub eval_full_us: f64,
    /// Fast-lane `evaluate_summary` microseconds per design (prebuilt).
    pub eval_summary_us: f64,
}

impl EvalSpeed {
    /// Baseline sweep throughput in designs/second.
    pub fn baseline_dps(&self) -> f64 {
        self.designs as f64 / self.baseline_s
    }

    /// Fast-lane sweep throughput in designs/second (cold cache).
    pub fn fastlane_dps(&self) -> f64 {
        self.designs as f64 / self.fastlane_s
    }

    /// Fast-lane sweep throughput in designs/second (warm cache).
    pub fn fastlane_warm_dps(&self) -> f64 {
        self.designs as f64 / self.fastlane_warm_s
    }

    /// Sweep speedup of the fast lane over the baseline lane.
    pub fn sweep_speedup(&self) -> f64 {
        self.baseline_s / self.fastlane_s
    }

    /// Printable report.
    pub fn report(&self) -> Report {
        let mut report = Report::new(
            "eval_speed",
            "Sweep-throughput lanes (Xception on VCU110, identical design stream)",
        );
        let mut t = Table::new(
            "lanes",
            &["lane", "designs", "wall time", "designs/sec", "ms/design"],
        );
        for (name, secs) in [
            ("baseline (unmemoized + full evaluate)", self.baseline_s),
            ("fast lane, cold memo cache", self.fastlane_s),
            ("fast lane, warm memo cache", self.fastlane_warm_s),
        ] {
            t.row(vec![
                name.into(),
                self.designs.to_string(),
                format!("{secs:.3} s"),
                format!("{:.0}", self.designs as f64 / secs),
                format!("{:.3}", secs * 1e3 / self.designs as f64),
            ]);
        }
        report.tables.push(t);
        let mut e = Table::new("evaluate_only", &["lane", "µs/design"]);
        e.row(vec![
            "CostModel::evaluate (rich reports)".into(),
            format!("{:.1}", self.eval_full_us),
        ]);
        e.row(vec![
            "CostModel::evaluate_summary (fast)".into(),
            format!("{:.1}", self.eval_summary_us),
        ]);
        report.tables.push(e);
        report.note(format!(
            "Sweep speedup {:.1}x on {} ({} designs; paper headline: 6.3 ms/design, \
             100000 designs in 10.5 min).",
            self.sweep_speedup(),
            self.machine,
            self.designs
        ));
        report
    }

    /// The `BENCH_eval.json` record (hand-rendered; the workspace carries
    /// no JSON dependency).
    ///
    /// The `history` block pins the perf trajectory's fixed reference
    /// point: the summary-sweep throughput measured on the **pre-fast-lane
    /// tree** (PR 2 head) with this same 2000-design Xception/VCU110
    /// probe. The `baseline` lane measured live below reconstructs that
    /// path's *shape* (no parallelism memo, rich-report evaluate) but
    /// still runs the optimized search kernel, so it lands above the
    /// historical number — compare `fastlane` against `history` for the
    /// true before/after.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": \"eval_speed\",\n  \"machine\": \"{}\",\n  \
             \"model\": \"Xception\",\n  \"board\": \"VCU110\",\n  \"designs\": {},\n  \
             \"history\": [\n    {{\n      \"commit\": \"pre-fast-lane (PR 2, 398fe97)\",\n      \
             \"machine\": \"Intel(R) Xeon(R) Processor @ 2.10GHz\",\n      \
             \"lane\": \"sample_custom_summaries (clone-per-build, unmemoized cubic search, full evaluate)\",\n      \
             \"designs_per_sec\": 452.0,\n      \"ms_per_design\": 2.212\n    }}\n  ],\n  \
             \"baseline\": {{\n    \"lane\": \"unmemoized build + CostModel::evaluate + summary()\",\n    \
             \"seconds\": {:.4},\n    \"designs_per_sec\": {:.1},\n    \"ms_per_design\": {:.4}\n  }},\n  \
             \"fastlane\": {{\n    \"lane\": \"shared build context + CostModel::evaluate_summary\",\n    \
             \"seconds\": {:.4},\n    \"designs_per_sec\": {:.1},\n    \"ms_per_design\": {:.4}\n  }},\n  \
             \"fastlane_warm\": {{\n    \"lane\": \"same sweep, memo cache warm\",\n    \
             \"seconds\": {:.4},\n    \"designs_per_sec\": {:.1},\n    \"ms_per_design\": {:.4}\n  }},\n  \
             \"sweep_speedup_vs_baseline\": {:.2},\n  \
             \"evaluate_only\": {{\n    \"full_us_per_design\": {:.2},\n    \
             \"summary_us_per_design\": {:.2},\n    \"speedup\": {:.2}\n  }}\n}}\n",
            self.machine.replace('"', "'"),
            self.designs,
            self.baseline_s,
            self.baseline_dps(),
            self.baseline_s * 1e3 / self.designs as f64,
            self.fastlane_s,
            self.fastlane_dps(),
            self.fastlane_s * 1e3 / self.designs as f64,
            self.fastlane_warm_s,
            self.fastlane_warm_dps(),
            self.fastlane_warm_s * 1e3 / self.designs as f64,
            self.sweep_speedup(),
            self.eval_full_us,
            self.eval_summary_us,
            self.eval_full_us / self.eval_summary_us.max(1e-9),
        )
    }
}

/// Best-effort CPU identification for the JSON record.
pub fn machine_name() -> String {
    if let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") {
        for line in cpuinfo.lines() {
            if let Some(rest) = line.strip_prefix("model name") {
                if let Some((_, name)) = rest.split_once(':') {
                    return name.trim().to_string();
                }
            }
        }
    }
    format!("{}-{}", std::env::consts::OS, std::env::consts::ARCH)
}

/// Measures both lanes over `count` designs of the `seed` stream.
///
/// # Panics
///
/// Panics if the two lanes disagree on any design's summary — the whole
/// point of the fast lane is that they cannot.
pub fn measure(count: usize, seed: u64) -> EvalSpeed {
    let model = zoo::xception();
    let board = FpgaBoard::vcu110();
    let space = CustomSpace::paper_range(model.conv_layer_count());

    // Baseline lane: the pre-fast-lane per-design path — no parallelism
    // memo, rich-report evaluate, summary extracted afterwards. Walks the
    // identical attempt stream the Explorer sweep walks, under the same
    // attempt budget and fault discipline (skip `Infeasible` only; a real
    // builder fault or an exhausted budget must abort the measurement,
    // not spin or get silently misreported).
    let baseline_builder = MultipleCeBuilder::new(&model, &board).with_memoization(false);
    let max_attempts = default_max_attempts(count);
    let mut baseline_summaries = Vec::with_capacity(count);
    let start = Instant::now();
    let mut attempt = 0u64;
    while baseline_summaries.len() < count {
        assert!(
            attempt < max_attempts,
            "attempt budget {max_attempts} exhausted after {} feasible designs",
            baseline_summaries.len()
        );
        let design = sample_attempt(&space, seed, attempt);
        attempt += 1;
        let spec = match design.to_spec(&model) {
            Ok(spec) => spec,
            Err(ArchError::Infeasible { .. }) => continue,
            Err(e) => panic!("builder fault in baseline lane: {e}"),
        };
        match baseline_builder.build(&spec) {
            Ok(acc) => baseline_summaries.push(CostModel::evaluate(&acc).summary()),
            Err(ArchError::Infeasible { .. }) => continue,
            Err(e) => panic!("builder fault in baseline lane: {e}"),
        }
    }
    let baseline_s = start.elapsed().as_secs_f64();

    // Fast lane: the production sweep path, cold memo cache.
    let explorer = Explorer::new(&model, &board);
    let (points, elapsed) = explorer
        .par_sample_custom_summaries(count, seed, 1)
        .expect("xception custom space must yield enough feasible designs");
    let fastlane_s = elapsed.as_secs_f64();

    // Same sweep again on the now-warm memo cache: the steady-state
    // throughput a long-running sweep converges to.
    let (warm_points, warm_elapsed) = explorer
        .par_sample_custom_summaries(count, seed, 1)
        .expect("warm re-run samples the identical stream");
    let fastlane_warm_s = warm_elapsed.as_secs_f64();
    assert_eq!(
        warm_points, points,
        "warm cache changed results — memo cache is broken"
    );

    assert_eq!(points.len(), baseline_summaries.len());
    for (fast, slow) in points.iter().zip(&baseline_summaries) {
        assert_eq!(fast.summary, *slow, "lanes diverged — fast lane is broken");
    }

    // Evaluation-only split on prebuilt designs (build cost excluded).
    let accs: Vec<_> = points
        .iter()
        .take(32)
        .map(|p| {
            let spec = p
                .design
                .to_spec(&model)
                .expect("sampled design re-materializes");
            baseline_builder
                .build(&spec)
                .expect("sampled design rebuilds")
        })
        .collect();
    let reps = (count / accs.len().max(1)).max(8);
    let start = Instant::now();
    for i in 0..reps * accs.len() {
        black_box(CostModel::evaluate(&accs[i % accs.len()]));
    }
    let eval_full_us = start.elapsed().as_secs_f64() * 1e6 / (reps * accs.len()) as f64;
    let mut scratch = EvalScratch::new();
    let start = Instant::now();
    for i in 0..reps * accs.len() {
        black_box(CostModel::evaluate_summary(
            &accs[i % accs.len()],
            &mut scratch,
        ));
    }
    let eval_summary_us = start.elapsed().as_secs_f64() * 1e6 / (reps * accs.len()) as f64;

    EvalSpeed {
        machine: machine_name(),
        designs: count,
        baseline_s,
        fastlane_s,
        fastlane_warm_s,
        eval_full_us,
        eval_summary_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_agree_and_json_renders() {
        let m = measure(24, 3);
        assert_eq!(m.designs, 24);
        assert!(m.baseline_s > 0.0 && m.fastlane_s > 0.0);
        let json = m.to_json();
        assert!(json.contains("\"sweep_speedup_vs_baseline\""));
        assert!(json.contains("\"history\""));
        assert!(json.contains("\"designs\": 24"));
        assert_eq!(m.report().tables.len(), 2);
    }
}
