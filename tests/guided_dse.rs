//! Integration tests for the guided multi-objective optimizer and the
//! energy-aware fast lane: worker-invariant fronts, budget accounting,
//! front validity over the energy-extended metric set, and the
//! fast-lane/full-lane energy equivalence across the zoo × templates grid.

use mccm::arch::{templates, MultipleCeBuilder, Schedule};
use mccm::cnn::zoo;
use mccm::core::{CostModel, EnergyModel, EvalScratch, Macs, Metric};
use mccm::dse::{Explorer, GuidedFront, OptimizerConfig};
use mccm::fpga::{FpgaBoard, MiB};

fn front_fingerprint(f: &GuidedFront) -> Vec<(String, Vec<u64>)> {
    f.points
        .iter()
        .map(|p| {
            (
                p.summary.notation.clone(),
                f.metrics
                    .iter()
                    .map(|m| m.value(&p.summary).to_bits())
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn guided_fronts_are_bit_identical_for_any_worker_count() {
    let model = zoo::xception();
    let explorer = Explorer::new(&model, &FpgaBoard::vcu110());
    let config = OptimizerConfig::default()
        .with_budget(500)
        .with_population(12)
        .with_islands(3)
        .with_seed(21);
    let serial = explorer.optimize_par(&config, 1).unwrap();
    assert!(!serial.points.is_empty());
    assert!(serial.evaluations <= config.budget);
    for workers in [2usize, 3, 8] {
        let par = explorer.optimize_par(&config, workers).unwrap();
        assert_eq!(
            front_fingerprint(&par),
            front_fingerprint(&serial),
            "workers={workers}"
        );
        assert_eq!(par.evaluations, serial.evaluations, "workers={workers}");
        assert_eq!(par.feasible, serial.feasible, "workers={workers}");
    }
}

#[test]
fn guided_front_designs_rebuild_to_their_reported_metrics() {
    // Every design on the front must re-materialize through the rich lane
    // to exactly the summary the optimizer recorded — including the energy
    // metric, which the fast lane computes from its own MAC count.
    let model = zoo::mobilenet_v2();
    let board = FpgaBoard::zc706();
    let explorer = Explorer::new(&model, &board);
    let config = OptimizerConfig::default()
        .with_budget(400)
        .with_population(12)
        .with_islands(2)
        .with_seed(5);
    let front = explorer.optimize_par(&config, 1).unwrap();
    assert!(!front.points.is_empty());
    let builder = MultipleCeBuilder::new(&model, &board);
    for p in &front.points {
        let spec = p.design.to_spec(&model).unwrap();
        let rich = CostModel::evaluate(&builder.build(&spec).unwrap());
        assert_eq!(rich.summary, p.summary, "{}", p.summary.notation);
        for m in Metric::WITH_ENERGY {
            assert_eq!(
                m.value(&rich.summary).to_bits(),
                m.value(&p.summary).to_bits(),
                "{} on {}",
                m.name(),
                p.summary.notation
            );
        }
    }
}

#[test]
fn delta_fronts_are_bit_identical_to_full_fronts_for_any_worker_count() {
    // The acceptance bar of the segment-cache refactor: switching the
    // optimizer between delta evaluation (default) and whole-design
    // evaluation must not move a single bit of the front, the budget
    // accounting, or the worker-invariance guarantee — on both the
    // layer-by-layer and the schedule-extended space.
    let model = zoo::xception();
    let explorer = Explorer::new(&model, &FpgaBoard::vcu110());
    for max_fuse_depth in [1usize, 3] {
        let config = OptimizerConfig::default()
            .with_budget(500)
            .with_population(12)
            .with_islands(3)
            .with_seed(21)
            .with_max_fuse_depth(max_fuse_depth);
        let full = explorer
            .optimize_par(&config.clone().with_delta_eval(false), 1)
            .unwrap();
        let delta = explorer.optimize_par(&config, 1).unwrap();
        assert!(!delta.points.is_empty());
        assert_eq!(front_fingerprint(&delta), front_fingerprint(&full));
        assert_eq!(delta.evaluations, full.evaluations);
        assert_eq!(delta.feasible, full.feasible);
        for workers in [2usize, 3, 8] {
            let par = explorer.optimize_par(&config, workers).unwrap();
            assert_eq!(
                front_fingerprint(&par),
                front_fingerprint(&full),
                "delta front diverged at workers={workers}, depth={max_fuse_depth}"
            );
            assert_eq!(par.evaluations, full.evaluations);
        }
        // The cache counters are live on the delta run and silent on the
        // full run — and they balance: every evaluated design either
        // recombined from cache or paid a build.
        assert!(delta.cache.seg_hits > 0, "{:?}", delta.cache);
        assert_eq!(
            delta.cache.delta_recombines + delta.cache.full_builds,
            delta.feasible,
            "{:?}",
            delta.cache
        );
        assert_eq!(full.cache.seg_hits + full.cache.seg_misses, 0);
    }
}

#[test]
fn energy_fast_lane_matches_full_lane_on_the_zoo_templates_grid() {
    // Acceptance bar: EnergyModel::estimate_summary is bit-identical to
    // the full-Evaluation energy path on every zoo model × template × CE
    // count cell.
    let energy = EnergyModel::default();
    let mut scratch = EvalScratch::new();
    for model in mccm::cnn::zoo::all_models() {
        let board = FpgaBoard::zc706();
        let builder = MultipleCeBuilder::new(&model, &board);
        for arch in templates::Architecture::ALL {
            for ces in [2usize, 5] {
                let Ok(spec) = arch.instantiate(&model, ces) else {
                    continue;
                };
                let Ok(acc) = builder.build(&spec) else {
                    continue;
                };
                let rich = CostModel::evaluate(&acc);
                let fast = CostModel::evaluate_summary(&acc, &mut scratch);
                let full_estimate = energy.estimate(&rich, Macs::new(model.conv_macs()));
                let fast_estimate = energy.estimate_summary(&fast);
                assert_eq!(
                    full_estimate,
                    fast_estimate,
                    "{} {arch} {ces}",
                    model.name()
                );
                assert_eq!(
                    full_estimate.total_j().get().to_bits(),
                    fast_estimate.total_j().get().to_bits(),
                    "{} {arch} {ces}",
                    model.name()
                );
                // And the Metric::Energy read agrees across lanes too.
                assert_eq!(
                    Metric::Energy.value(&rich.summary).to_bits(),
                    Metric::Energy.value(&fast).to_bits(),
                    "{} {arch} {ces}",
                    model.name()
                );
            }
        }
    }
}

#[test]
fn schedule_axis_front_cuts_offchip_traffic_below_layer_by_layer() {
    // Acceptance bar for the schedule axis: on a BRAM-starved board where
    // layer-by-layer execution spills feature maps, the optimizer's front
    // over the schedule-extended space must contain a depth-first design
    // whose off-chip traffic is strictly below layer-by-layer — both
    // against its own layer-by-layer twin (same segmentation, hence the
    // same per-CE PE allocation) and against the best design an equal
    // search restricted to layer-by-layer finds.
    let model = zoo::mobilenet_v2();
    let board = FpgaBoard::new("small-bram", 900, MiB(0.5), 4.0);
    let explorer = Explorer::new(&model, &board);
    let base = OptimizerConfig::default()
        .with_budget(600)
        .with_population(16)
        .with_islands(3)
        .with_seed(13);
    let front = explorer
        .optimize_par(&base.clone().with_max_fuse_depth(4), 1)
        .unwrap();
    let df_points: Vec<_> = front
        .points
        .iter()
        .filter(|p| matches!(p.design.schedule, Schedule::DepthFirst { .. }))
        .collect();
    assert!(
        !df_points.is_empty(),
        "no depth-first design survived onto the front"
    );

    // Equal-PE comparison: flip only the schedule of each depth-first
    // front member and re-evaluate.
    let mut beats_own_twin = false;
    for p in &df_points {
        let mut twin = p.design.clone();
        twin.schedule = Schedule::LayerByLayer;
        let spec = twin.to_spec(&model).unwrap();
        let lbl = explorer.evaluate(&spec).unwrap().summary;
        assert_eq!(lbl.ce_count, p.summary.ce_count, "{}", p.summary.notation);
        if p.summary.offchip_bytes.get() < lbl.offchip_bytes.get() {
            beats_own_twin = true;
        }
    }
    assert!(
        beats_own_twin,
        "no depth-first front member strictly beat its layer-by-layer twin"
    );

    // And the fused lane must beat the best traffic a layer-by-layer-only
    // search of the same budget/seed can reach at all.
    let lbl_front = explorer.optimize_par(&base, 1).unwrap();
    let best_lbl = lbl_front
        .points
        .iter()
        .map(|p| p.summary.offchip_bytes.get())
        .min()
        .unwrap();
    let best_df = df_points
        .iter()
        .map(|p| p.summary.offchip_bytes.get())
        .min()
        .unwrap();
    assert!(
        best_df < best_lbl,
        "best depth-first traffic {best_df} is not below best layer-by-layer {best_lbl}"
    );
}

#[test]
fn energy_orders_designs_consistently_with_its_inputs() {
    // Energy is monotone in off-chip traffic and latency at fixed MACs:
    // of two designs of the same CNN, one dominating on both inputs must
    // not cost more energy.
    let model = zoo::resnet50();
    let explorer = Explorer::new(&model, &FpgaBoard::zc706());
    let points = explorer.par_sweep_baselines(2..=6, 1).unwrap();
    for a in &points {
        for b in &points {
            let (ea, eb) = (&a.eval.summary, &b.eval.summary);
            if ea.offchip_bytes <= eb.offchip_bytes && ea.latency_s <= eb.latency_s {
                assert!(
                    Metric::Energy.value(ea) <= Metric::Energy.value(eb),
                    "{} vs {}",
                    ea.notation,
                    eb.notation
                );
            }
        }
    }
}
