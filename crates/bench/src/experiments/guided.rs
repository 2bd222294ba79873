//! Guided-vs-random front quality at equal evaluation budget — the
//! experiment behind `BENCH_guided.json`.
//!
//! The paper's Use Case 3 explores the custom Xception/VCU110 space by
//! random sampling. This experiment gives both search strategies the
//! *same* number of fast-lane evaluation attempts and compares the Pareto
//! fronts they produce over the five-metric objective set (the paper's
//! four plus energy):
//!
//! * **random** — the counter-based sampling stream, every attempt
//!   evaluated, front extracted incrementally;
//! * **guided** — [`Explorer::optimize_par`], the NSGA-II island model
//!   seeded from the same kind of stream.
//!
//! Front quality is scored by normalized hypervolume (shared union
//! bounds), the coverage indicator in both directions, and the per-metric
//! best values. Both lanes are deterministic, so the comparison is
//! reproducible run to run.
//!
//! A third section measures the **schedule axis**: the same guided
//! search on a BRAM-starved board, once restricted to layer-by-layer
//! and once with the depth-first axis open, recording how far the best
//! fused design cuts off-chip traffic below the best layer-by-layer one.
//!
//! A fourth section measures **delta-evaluation throughput**: with the
//! segment cache warm, re-evaluating a fixed design set by recombining
//! cached per-CE costs against re-evaluating it through the whole-design
//! path — the speedup the optimizer's memoized fast lane is built on.
//!
//! A fifth section measures **calibration quality**: on two zoo model ×
//! board pairs, Pareto-front members are promoted to simulator runs,
//! corrections are fitted on half of them, and the held-out half scores
//! raw-analytical against calibrated predictions — the mean-absolute
//! -error cut the `mccm calibrate` loop buys.

use std::time::Instant;

use mccm_arch::{ArchError, Schedule};
use mccm_calib::{fit_corrections, metric_pairs, simulate, CalibStore, CALIBRATED_METRICS};
use mccm_core::{CancelToken, CostModel, EvalScratch, EvalSummary, Metric};
use mccm_dse::{
    compare_fronts, sample_attempt, CustomSampler, CustomSpace, Explorer, FrontComparison,
    OptimizerConfig, ParetoFront, SegCache,
};
use mccm_fpga::{FpgaBoard, MiB};
use mccm_sim::SimConfig;

use crate::experiments::eval_speed::machine_name;
use crate::output::{Report, Table};

/// Per-lane outcome: the front plus its cost accounting.
#[derive(Debug, Clone)]
pub struct LaneStats {
    /// Evaluation attempts the lane spent (feasible + infeasible).
    pub evaluations: u64,
    /// Feasible designs among them.
    pub feasible: u64,
    /// Points on the lane's Pareto front.
    pub front: Vec<EvalSummary>,
    /// Wall time in seconds.
    pub seconds: f64,
}

/// Schedule-axis outcome: the guided search rerun with the depth-first
/// axis enabled on a BRAM-starved board, against an equal-budget
/// layer-by-layer-only run.
#[derive(Debug, Clone)]
pub struct ScheduleAxis {
    /// Model the axis was measured on.
    pub model: String,
    /// The BRAM-starved board (layer-by-layer spills feature maps here).
    pub board: String,
    /// Points on the schedule-extended front.
    pub front_size: usize,
    /// Depth-first designs among them.
    pub depth_first_points: usize,
    /// Best off-chip traffic on the layer-by-layer-only front, bytes.
    pub best_lbl_offchip_bytes: u64,
    /// Best off-chip traffic among depth-first front members, bytes.
    pub best_df_offchip_bytes: u64,
}

/// Warm-cache delta-evaluation throughput against whole-design
/// re-evaluation of the same design set — the payoff of the segment
/// cache when every per-CE cost is already resident.
#[derive(Debug, Clone)]
pub struct DeltaThroughput {
    /// Distinct designs in the measured set.
    pub designs: usize,
    /// Whole-design evaluations per second (build + summarize each).
    pub full_evals_per_s: f64,
    /// Warm delta evaluations per second (recombine cached segments).
    pub warm_evals_per_s: f64,
    /// Segment-cache hits during the whole run.
    pub seg_hits: u64,
    /// Designs served entirely from cached segments.
    pub delta_recombines: u64,
    /// Segment-cost entries resident at the end.
    pub cached_segments: usize,
}

impl DeltaThroughput {
    /// Warm-over-full throughput ratio (the headline speedup).
    pub fn speedup(&self) -> f64 {
        if self.full_evals_per_s == 0.0 {
            return 0.0;
        }
        self.warm_evals_per_s / self.full_evals_per_s
    }
}

impl ScheduleAxis {
    /// Fractional traffic cut of the best depth-first design vs the best
    /// layer-by-layer design (positive = depth-first is better).
    pub fn traffic_reduction(&self) -> f64 {
        if self.best_lbl_offchip_bytes == 0 {
            return 0.0;
        }
        1.0 - self.best_df_offchip_bytes as f64 / self.best_lbl_offchip_bytes as f64
    }
}

/// Per-metric calibration quality on one model × board pair: relative
/// mean absolute error of raw and calibrated predictions against the
/// simulator, over held-out designs the fit never saw.
#[derive(Debug, Clone)]
pub struct CalibrationMetricQuality {
    /// The calibrated metric.
    pub metric: Metric,
    /// Mean |analytical − simulated| / |simulated| over the holdout.
    pub raw_rel_mae: f64,
    /// Mean |calibrated − simulated| / |simulated| over the holdout.
    pub cal_rel_mae: f64,
}

impl CalibrationMetricQuality {
    /// Whether the raw analytical prediction is already (numerically)
    /// exact — nothing left for a correction to cut.
    pub fn exact(&self) -> bool {
        self.raw_rel_mae < 1e-12
    }
}

/// Calibration quality on one zoo model × board pair.
#[derive(Debug, Clone)]
pub struct CalibrationQuality {
    /// CNN name.
    pub model: String,
    /// Board name.
    pub board: String,
    /// Promoted designs the corrections were fitted on.
    pub train_designs: usize,
    /// Held-out promoted designs the errors were scored on.
    pub holdout_designs: usize,
    /// Per-metric raw-vs-calibrated errors.
    pub metrics: Vec<CalibrationMetricQuality>,
}

impl CalibrationQuality {
    /// Raw-over-calibrated MAE ratio across the non-exact metrics (the
    /// headline: how many times tighter calibrated predictions are).
    pub fn improvement(&self) -> f64 {
        let (mut raw, mut cal, mut n) = (0.0, 0.0, 0u32);
        for m in &self.metrics {
            if m.exact() {
                continue;
            }
            raw += m.raw_rel_mae;
            cal += m.cal_rel_mae;
            n += 1;
        }
        if n == 0 || cal <= 0.0 {
            return 1.0;
        }
        raw / cal
    }
}

/// The measured experiment: both lanes plus their quality comparison
/// (`a` = guided, `b` = random throughout).
#[derive(Debug, Clone)]
pub struct GuidedQuality {
    /// CPU the numbers were taken on.
    pub machine: String,
    /// Evaluation-attempt budget given to each lane.
    pub budget: u64,
    /// The objective set.
    pub metrics: Vec<Metric>,
    /// Guided-lane outcome.
    pub guided: LaneStats,
    /// Random-lane outcome.
    pub random: LaneStats,
    /// Front-quality comparison (guided = `a`, random = `b`).
    pub comparison: FrontComparison,
    /// The depth-first schedule axis measured on a BRAM-starved board.
    pub schedule_axis: ScheduleAxis,
    /// Warm segment-cache throughput vs whole-design re-evaluation.
    pub delta: DeltaThroughput,
    /// Simulator-in-the-loop calibration quality, one entry per zoo
    /// model × board pair.
    pub calibration: Vec<CalibrationQuality>,
}

/// Runs both lanes on the paper's Use Case 3 setup (Xception / VCU110)
/// at `budget` evaluation attempts each.
///
/// # Panics
///
/// On real builder faults — the space must only ever produce clean
/// feasible/infeasible outcomes here.
pub fn measure(budget: u64, seed: u64, workers: usize) -> GuidedQuality {
    let model = mccm_cnn::zoo::xception();
    let board = FpgaBoard::vcu110();
    let explorer = Explorer::new(&model, &board);
    let space = CustomSpace::paper_range(model.conv_layer_count());
    let metrics = Metric::WITH_ENERGY.to_vec();

    // Random lane: exactly `budget` attempts of the counter-based stream.
    let start = Instant::now();
    let mut scratch = EvalScratch::new();
    let mut front = ParetoFront::new(&metrics);
    let mut feasible = 0u64;
    for attempt in 0..budget {
        let design = sample_attempt(&space, seed, attempt);
        let spec = match design.to_spec(&model) {
            Ok(spec) => spec,
            Err(ArchError::Infeasible { .. }) => continue,
            Err(e) => panic!("builder fault in random lane: {e}"),
        };
        match explorer.evaluate_summary(&spec, &mut scratch) {
            Ok(summary) => {
                feasible += 1;
                front.offer(summary);
            }
            Err(ArchError::Infeasible { .. }) => continue,
            Err(e) => panic!("builder fault in random lane: {e}"),
        }
    }
    let random = LaneStats {
        evaluations: budget,
        feasible,
        front: front.into_items(),
        seconds: start.elapsed().as_secs_f64(),
    };

    // Guided lane: the NSGA-II island model at the same attempt budget.
    // Population scales with the budget so tiny smoke runs still breed.
    let population = (budget / 40).clamp(8, 48) as usize;
    let config = OptimizerConfig::default()
        .with_metrics(&metrics)
        .with_budget(budget)
        .with_population(population)
        .with_islands(4)
        .with_seed(seed);
    let start = Instant::now();
    let outcome = explorer
        .optimize_par(&config, workers)
        .expect("guided search must not hit real builder faults");
    let guided = LaneStats {
        evaluations: outcome.evaluations,
        feasible: outcome.feasible,
        front: outcome.points.iter().map(|p| p.summary.clone()).collect(),
        seconds: start.elapsed().as_secs_f64(),
    };

    let comparison = compare_fronts(&guided.front, &random.front, &metrics);

    // Schedule axis: the same kind of guided search on a BRAM-starved
    // board where layer-by-layer execution spills feature maps, once
    // with the depth-first axis open (fuse depths up to 4) and once
    // restricted to layer-by-layer, at equal budget and seed.
    let sa_model = mccm_cnn::zoo::mobilenet_v2();
    let sa_board = FpgaBoard::new("small-bram", 900, MiB(0.5), 4.0);
    let sa_explorer = Explorer::new(&sa_model, &sa_board);
    let sa_config = OptimizerConfig::default()
        .with_metrics(&metrics)
        .with_budget(budget)
        .with_population(population)
        .with_islands(3)
        .with_seed(seed);
    let lbl_front = sa_explorer
        .optimize_par(&sa_config, workers)
        .expect("schedule-axis baseline must not hit real builder faults");
    let df_front = sa_explorer
        .optimize_par(&sa_config.clone().with_max_fuse_depth(4), workers)
        .expect("schedule-axis search must not hit real builder faults");
    let df_points: Vec<_> = df_front
        .points
        .iter()
        .filter(|p| matches!(p.design.schedule, Schedule::DepthFirst { .. }))
        .collect();
    let schedule_axis = ScheduleAxis {
        model: sa_model.name().to_string(),
        board: sa_board.name.clone(),
        front_size: df_front.points.len(),
        depth_first_points: df_points.len(),
        best_lbl_offchip_bytes: lbl_front
            .points
            .iter()
            .map(|p| p.summary.offchip_bytes.get())
            .min()
            .unwrap_or(0),
        best_df_offchip_bytes: df_points
            .iter()
            .map(|p| p.summary.offchip_bytes.get())
            .min()
            .unwrap_or(0),
    };

    // Delta throughput: re-evaluate a fixed distinct design set once to
    // warm the segment cache, then time whole-design evaluation against
    // warm all-hit recombination over the exact same list. Both passes
    // share the builder memos, so the ratio isolates what the segment
    // cache saves: the per-design CE build and core cost runs.
    let space = explorer.paper_space();
    let mut designs =
        CustomSampler::new(space, seed ^ 0xD17A).sample_many((budget as usize).clamp(200, 2_000));
    designs.sort_by_key(|d| (d.head_layers, d.tail_ends.clone()));
    designs.dedup();
    let mut cache = SegCache::new(&explorer);
    for d in &designs {
        explorer
            .custom_summary_delta(d, &mut cache, &mut scratch)
            .expect("paper-space designs must not hit real builder faults");
    }
    let start = Instant::now();
    let mut full_acc = 0u64;
    for d in &designs {
        let spec = d
            .to_spec(&model)
            .expect("warmed designs are feasible by construction");
        let s = explorer
            .evaluate_summary(&spec, &mut scratch)
            .expect("warmed designs are feasible by construction");
        full_acc = full_acc.wrapping_add(s.total_macs.get());
    }
    let full_time = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut warm_acc = 0u64;
    for d in &designs {
        let p = explorer
            .custom_summary_delta(d, &mut cache, &mut scratch)
            .expect("paper-space designs must not hit real builder faults")
            .expect("warmed designs are feasible by construction");
        warm_acc = warm_acc.wrapping_add(p.summary.total_macs.get());
    }
    let warm_time = start.elapsed().as_secs_f64();
    assert_eq!(full_acc, warm_acc, "delta lane diverged from the full lane");
    let stats = cache.stats();
    let delta = DeltaThroughput {
        designs: designs.len(),
        full_evals_per_s: designs.len() as f64 / full_time,
        warm_evals_per_s: designs.len() as f64 / warm_time,
        seg_hits: stats.seg_hits,
        delta_recombines: stats.delta_recombines,
        cached_segments: cache.len(),
    };

    let calibration = vec![
        measure_calibration(
            &mccm_cnn::zoo::mobilenet_v2(),
            &FpgaBoard::zc706(),
            budget,
            seed,
            workers,
        ),
        measure_calibration(
            &mccm_cnn::zoo::resnet50(),
            &FpgaBoard::vcu108(),
            budget,
            seed,
            workers,
        ),
    ];

    GuidedQuality {
        machine: machine_name(),
        budget,
        metrics,
        guided,
        random,
        comparison,
        schedule_axis,
        delta,
        calibration,
    }
}

/// One promoted design's (metric, analytical, simulated) measurements.
type MeasuredPairs = Vec<(Metric, f64, f64)>;

/// Scores the calibration loop on one model × board pair: optimize,
/// promote a deterministic top-10 slice of the front to simulator runs,
/// fit corrections on the even-indexed promoted designs, and score raw
/// vs calibrated relative MAE on the odd-indexed holdout. The split
/// alternates along the promotion order (extremes first, then crowding
/// fill), so train and holdout both mix extreme and interior designs.
///
/// # Panics
///
/// On real builder faults, like the lanes above.
fn measure_calibration(
    model: &mccm_cnn::CnnModel,
    board: &FpgaBoard,
    budget: u64,
    seed: u64,
    workers: usize,
) -> CalibrationQuality {
    let explorer = Explorer::new(model, board);
    let metrics = Metric::WITH_ENERGY.to_vec();
    let population = (budget / 40).clamp(8, 48) as usize;
    let config = OptimizerConfig::default()
        .with_metrics(&metrics)
        .with_budget(budget)
        .with_population(population)
        .with_islands(2)
        .with_seed(seed);
    let outcome = explorer
        .optimize_par(&config, workers)
        .expect("calibration search must not hit real builder faults");
    let front: Vec<EvalSummary> = outcome.points.iter().map(|p| p.summary.clone()).collect();
    let promoted = mccm_calib::promote_top_k(&front, &metrics, 10);

    let cancel = CancelToken::new();
    let measured: Vec<(String, MeasuredPairs)> = promoted
        .iter()
        .map(|&idx| {
            let spec = outcome.points[idx]
                .design
                .to_spec(model)
                .expect("front members are feasible by construction");
            let acc = explorer
                .builder()
                .build(&spec)
                .expect("front members are feasible by construction");
            let eval = CostModel::evaluate(&acc);
            let sim = simulate(&acc, &eval, SimConfig::default(), &cancel)
                .expect("a fresh token never cancels");
            (eval.notation.clone(), metric_pairs(&eval, &sim))
        })
        .collect();

    let mut store = CalibStore::new();
    let mut train = 0usize;
    for (notation, pairs) in measured.iter().step_by(2) {
        store.record(&board.name, "int8", model.name(), 1, notation, pairs);
        train += 1;
    }
    let corrections = fit_corrections(&store, &board.name, "int8", &CALIBRATED_METRICS);
    let holdout: Vec<&MeasuredPairs> = measured.iter().skip(1).step_by(2).map(|(_, p)| p).collect();

    let metrics = corrections
        .iter()
        .map(|(metric, correction)| {
            let (mut raw, mut cal, mut n) = (0.0, 0.0, 0u32);
            for pairs in &holdout {
                for &(m, analytical, simulated) in pairs.iter() {
                    if m != *metric || simulated == 0.0 {
                        continue;
                    }
                    raw += (analytical - simulated).abs() / simulated.abs();
                    cal += (correction.apply(analytical) - simulated).abs() / simulated.abs();
                    n += 1;
                }
            }
            let n = f64::from(n.max(1));
            CalibrationMetricQuality {
                metric: *metric,
                raw_rel_mae: raw / n,
                cal_rel_mae: cal / n,
            }
        })
        .collect();

    CalibrationQuality {
        model: model.name().to_string(),
        board: board.name.clone(),
        train_designs: train,
        holdout_designs: holdout.len(),
        metrics,
    }
}

impl GuidedQuality {
    /// Printable report.
    pub fn report(&self) -> Report {
        let mut report = Report::new(
            "guided",
            "Guided vs random front quality at equal budget (Xception on VCU110)",
        );
        let mut lanes = Table::new(
            "lanes",
            &[
                "lane",
                "attempts",
                "feasible",
                "front size",
                "hypervolume",
                "covers other",
                "seconds",
            ],
        );
        for (name, lane, hv, cov) in [
            (
                "guided (NSGA-II islands)",
                &self.guided,
                self.comparison.hypervolume_a,
                self.comparison.coverage_a_over_b,
            ),
            (
                "random (seeded stream)",
                &self.random,
                self.comparison.hypervolume_b,
                self.comparison.coverage_b_over_a,
            ),
        ] {
            lanes.row(vec![
                name.into(),
                lane.evaluations.to_string(),
                lane.feasible.to_string(),
                lane.front.len().to_string(),
                format!("{hv:.4}"),
                format!("{:.0}%", 100.0 * cov),
                format!("{:.2}", lane.seconds),
            ]);
        }
        report.tables.push(lanes);

        let mut best = Table::new(
            "best_per_metric",
            &["metric", "guided best", "random best", "winner"],
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let (g, r) = (self.comparison.best_a[i], self.comparison.best_b[i]);
            let winner = if m.better(g, r) {
                "guided"
            } else if m.better(r, g) {
                "random"
            } else {
                "tie"
            };
            best.row(vec![
                m.name().to_string(),
                format!("{g:.6e}"),
                format!("{r:.6e}"),
                winner.to_string(),
            ]);
        }
        report.tables.push(best);

        let sa = &self.schedule_axis;
        let mut axis = Table::new(
            "schedule_axis",
            &[
                "setup",
                "front size",
                "depth-first points",
                "best LbL traffic (B)",
                "best DF traffic (B)",
                "traffic cut",
            ],
        );
        axis.row(vec![
            format!("{} on {}", sa.model, sa.board),
            sa.front_size.to_string(),
            sa.depth_first_points.to_string(),
            sa.best_lbl_offchip_bytes.to_string(),
            sa.best_df_offchip_bytes.to_string(),
            format!("{:.1}%", 100.0 * sa.traffic_reduction()),
        ]);
        report.tables.push(axis);

        let d = &self.delta;
        let mut delta = Table::new(
            "delta_eval",
            &[
                "designs",
                "full evals/s",
                "warm delta evals/s",
                "speedup",
                "recombines",
                "cached segments",
            ],
        );
        delta.row(vec![
            d.designs.to_string(),
            format!("{:.0}", d.full_evals_per_s),
            format!("{:.0}", d.warm_evals_per_s),
            format!("{:.1}x", d.speedup()),
            d.delta_recombines.to_string(),
            d.cached_segments.to_string(),
        ]);
        report.tables.push(delta);

        let mut cal = Table::new(
            "calibration",
            &[
                "pair",
                "train",
                "holdout",
                "metric",
                "raw rel MAE",
                "calibrated rel MAE",
            ],
        );
        for c in &self.calibration {
            for m in &c.metrics {
                cal.row(vec![
                    format!("{} on {}", c.model, c.board),
                    c.train_designs.to_string(),
                    c.holdout_designs.to_string(),
                    m.metric.name().to_string(),
                    format!("{:.4e}", m.raw_rel_mae),
                    if m.exact() {
                        "exact".to_string()
                    } else {
                        format!("{:.4e}", m.cal_rel_mae)
                    },
                ]);
            }
        }
        report.tables.push(cal);

        report.note(format!(
            "Warm segment-cache re-evaluation runs {:.1}x faster than \
             whole-design evaluation over {} distinct designs.",
            d.speedup(),
            d.designs
        ));
        for c in &self.calibration {
            report.note(format!(
                "Calibrated predictions are {:.1}x tighter than raw analytical \
                 output against the simulator on {} / {} (held-out designs).",
                c.improvement(),
                c.model,
                c.board
            ));
        }
        report.note(format!(
            "Guided matches or beats random on {}/{} metrics at {} attempts each \
             (hypervolume {:.4} vs {:.4}) on {}.",
            self.comparison.a_best_or_tied,
            self.metrics.len(),
            self.budget,
            self.comparison.hypervolume_a,
            self.comparison.hypervolume_b,
            self.machine
        ));
        report
    }

    /// The `BENCH_guided.json` record (hand-rendered; the workspace
    /// carries no JSON dependency) — lives alongside `BENCH_eval.json` in
    /// the repo's perf/quality trajectory.
    pub fn to_json(&self) -> String {
        let calibration = self
            .calibration
            .iter()
            .map(|c| {
                let metrics = c
                    .metrics
                    .iter()
                    .map(|m| {
                        format!(
                            "{{\"metric\": \"{}\", \"raw_rel_mae\": {:.6e}, \
                             \"cal_rel_mae\": {:.6e}}}",
                            m.metric.name(),
                            m.raw_rel_mae,
                            m.cal_rel_mae
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "{{\n    \"model\": \"{}\",\n    \"board\": \"{}\",\n    \
                     \"train_designs\": {},\n    \"holdout_designs\": {},\n    \
                     \"improvement\": {:.2},\n    \"metrics\": [{}]\n  }}",
                    c.model.replace('"', "'"),
                    c.board.replace('"', "'"),
                    c.train_designs,
                    c.holdout_designs,
                    c.improvement(),
                    metrics
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        // Non-finite bests (an empty front) must stay valid JSON.
        let best = |v: &[f64]| -> String {
            v.iter()
                .map(|x| {
                    if x.is_finite() {
                        format!("{x:.6e}")
                    } else {
                        "null".to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\n  \"experiment\": \"guided\",\n  \"machine\": \"{}\",\n  \
             \"model\": \"Xception\",\n  \"board\": \"VCU110\",\n  \"budget\": {},\n  \
             \"metrics\": [{}],\n  \
             \"guided\": {{\n    \"evaluations\": {},\n    \"feasible\": {},\n    \
             \"front_size\": {},\n    \"hypervolume\": {:.6},\n    \
             \"coverage_of_random\": {:.4},\n    \"best\": [{}],\n    \"seconds\": {:.3}\n  }},\n  \
             \"random\": {{\n    \"evaluations\": {},\n    \"feasible\": {},\n    \
             \"front_size\": {},\n    \"hypervolume\": {:.6},\n    \
             \"coverage_of_guided\": {:.4},\n    \"best\": [{}],\n    \"seconds\": {:.3}\n  }},\n  \
             \"guided_best_or_tied_metrics\": {},\n  \
             \"schedule_axis\": {{\n    \"model\": \"{}\",\n    \"board\": \"{}\",\n    \
             \"front_size\": {},\n    \"depth_first_points\": {},\n    \
             \"best_layer_by_layer_offchip_bytes\": {},\n    \
             \"best_depth_first_offchip_bytes\": {},\n    \
             \"traffic_reduction\": {:.4}\n  }},\n  \
             \"delta_eval\": {{\n    \"designs\": {},\n    \
             \"full_evals_per_s\": {:.0},\n    \"warm_evals_per_s\": {:.0},\n    \
             \"speedup\": {:.2},\n    \"seg_hits\": {},\n    \
             \"delta_recombines\": {},\n    \"cached_segments\": {}\n  }},\n  \
             \"calibration\": [{}]\n}}\n",
            self.machine.replace('"', "'"),
            self.budget,
            self.metrics
                .iter()
                .map(|m| format!("\"{}\"", m.name()))
                .collect::<Vec<_>>()
                .join(", "),
            self.guided.evaluations,
            self.guided.feasible,
            self.guided.front.len(),
            self.comparison.hypervolume_a,
            self.comparison.coverage_a_over_b,
            best(&self.comparison.best_a),
            self.guided.seconds,
            self.random.evaluations,
            self.random.feasible,
            self.random.front.len(),
            self.comparison.hypervolume_b,
            self.comparison.coverage_b_over_a,
            best(&self.comparison.best_b),
            self.random.seconds,
            self.comparison.a_best_or_tied,
            self.schedule_axis.model.replace('"', "'"),
            self.schedule_axis.board.replace('"', "'"),
            self.schedule_axis.front_size,
            self.schedule_axis.depth_first_points,
            self.schedule_axis.best_lbl_offchip_bytes,
            self.schedule_axis.best_df_offchip_bytes,
            self.schedule_axis.traffic_reduction(),
            self.delta.designs,
            self.delta.full_evals_per_s,
            self.delta.warm_evals_per_s,
            self.delta.speedup(),
            self.delta.seg_hits,
            self.delta.delta_recombines,
            self.delta.cached_segments,
            calibration,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guided_front_matches_or_beats_random_at_equal_budget() {
        // The acceptance bar of the guided optimizer: at the same attempt
        // budget on the paper's Use Case 3 setup, the guided front must
        // dominate or match the random front's best on at least 3 of the
        // 5 metrics.
        let q = measure(600, 7, 1);
        assert_eq!(q.random.evaluations, 600);
        assert!(q.guided.evaluations <= 600);
        assert!(!q.guided.front.is_empty() && !q.random.front.is_empty());
        assert!(
            q.comparison.a_best_or_tied >= 3,
            "guided only best/tied on {}/5 metrics: guided {:?} vs random {:?}",
            q.comparison.a_best_or_tied,
            q.comparison.best_a,
            q.comparison.best_b
        );
        // The quality measures and JSON must render sanely.
        assert!(q.comparison.hypervolume_a > 0.0 && q.comparison.hypervolume_a <= 1.0);
        assert!(q.comparison.hypervolume_b > 0.0 && q.comparison.hypervolume_b <= 1.0);
        let json = q.to_json();
        assert!(json.contains("\"guided_best_or_tied_metrics\""));
        assert!(json.contains("\"budget\": 600"));
        assert!(json.contains("\"schedule_axis\""));
        assert!(json.contains("\"delta_eval\""));
        assert!(json.contains("\"calibration\""));
        assert_eq!(q.report().tables.len(), 5);
        // The calibration acceptance bar: on both zoo model × board
        // pairs, calibrated predictions must cut held-out MAE against the
        // simulator by at least 2x versus raw analytical output.
        assert_eq!(q.calibration.len(), 2);
        for c in &q.calibration {
            assert!(c.train_designs >= 3 && c.holdout_designs >= 3, "{c:?}");
            assert!(
                c.improvement() >= 2.0,
                "{} on {} only improved {:.2}x: {:?}",
                c.model,
                c.board,
                c.improvement(),
                c.metrics
            );
            // Off-chip traffic is architecturally deterministic: the
            // simulator agrees exactly, and calibration leaves it alone.
            let access = c
                .metrics
                .iter()
                .find(|m| m.metric == Metric::OffChipAccesses)
                .unwrap();
            assert!(access.exact(), "{access:?}");
        }
        // Warm all-hit recombination must beat whole-design evaluation
        // even at smoke-test scale (release runs record ~5x or better).
        assert!(
            q.delta.speedup() > 1.0,
            "warm delta is not faster than full evaluation: {:?}",
            q.delta
        );
        // The timed pass is all-hit by construction (the warm-up pass may
        // add more recombines of its own on first-visit segment reuse).
        assert!(q.delta.delta_recombines as usize >= q.delta.designs);
        // The schedule axis must actually pay off on the starved board:
        // depth-first designs on the front, cutting traffic strictly
        // below the layer-by-layer-only search.
        let sa = &q.schedule_axis;
        assert!(sa.depth_first_points > 0);
        assert!(
            sa.best_df_offchip_bytes < sa.best_lbl_offchip_bytes,
            "depth-first {} vs layer-by-layer {}",
            sa.best_df_offchip_bytes,
            sa.best_lbl_offchip_bytes
        );
        assert!(sa.traffic_reduction() > 0.0);
    }
}
