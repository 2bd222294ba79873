//! Guided-exploration smoke run: optimizes MobileNetV2 on ZC706 over the
//! five-metric objective set (the paper's four plus energy) with a small
//! budget, asserts the island model is worker-invariant, and compares the
//! guided front against random sampling at the same budget. CI runs this
//! on every push so the optimizer is exercised end to end.
//!
//! Run with: `cargo run --release --example guided_exploration`

use mccm::core::{EnergyModel, Metric};
use mccm::dse::{
    compare_fronts, sample_attempt, CustomSpace, Explorer, OptimizerConfig, ParetoFront,
};
use mccm::fpga::FpgaBoard;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = mccm::cnn::zoo::mobilenet_v2();
    let board = FpgaBoard::zc706();
    let explorer = Explorer::new(&model, &board);
    let metrics = Metric::WITH_ENERGY;
    let config = OptimizerConfig::default()
        .with_metrics(&metrics)
        .with_budget(1_000)
        .with_population(16)
        .with_islands(3)
        .with_seed(4);

    println!(
        "guided exploration: {} on {} — budget {} over [{}]",
        model.name(),
        board.name,
        config.budget,
        metrics
            .iter()
            .map(Metric::name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let serial = explorer.optimize_par(&config, 1)?;
    let parallel = explorer.optimize_par(&config, 2)?;
    let key = |f: &mccm::dse::GuidedFront| -> Vec<String> {
        f.points
            .iter()
            .map(|p| p.summary.notation.clone())
            .collect()
    };
    assert_eq!(
        key(&serial),
        key(&parallel),
        "island model diverged across worker counts"
    );
    println!(
        "  front of {} designs from {} evaluations, parallel == serial",
        serial.points.len(),
        serial.evaluations
    );

    // Random sampling at the same attempt budget, for comparison (only
    // its Pareto front matters for front quality).
    let space = CustomSpace::paper_range(model.conv_layer_count());
    let mut scratch = mccm::core::EvalScratch::new();
    let mut random_front = ParetoFront::new(&metrics);
    for attempt in 0..config.budget {
        let design = sample_attempt(&space, config.seed, attempt);
        // Skip only genuinely infeasible designs; a real builder fault
        // must fail this smoke run, never shrink the front silently.
        let spec = match design.to_spec(&model) {
            Ok(spec) => spec,
            Err(mccm::arch::ArchError::Infeasible { .. }) => continue,
            Err(e) => return Err(format!("builder fault in random lane: {e}").into()),
        };
        match explorer.evaluate_summary(&spec, &mut scratch) {
            Ok(summary) => {
                random_front.offer(summary);
            }
            Err(mccm::arch::ArchError::Infeasible { .. }) => continue,
            Err(e) => return Err(format!("builder fault in random lane: {e}").into()),
        }
    }
    let random = random_front.into_items();
    let guided: Vec<_> = serial.points.iter().map(|p| p.summary.clone()).collect();
    let cmp = compare_fronts(&guided, &random, &metrics);
    println!(
        "  guided best-or-tied on {}/{} metrics vs random at equal budget \
         (hypervolume {:.4} vs {:.4})",
        cmp.a_best_or_tied,
        metrics.len(),
        cmp.hypervolume_a,
        cmp.hypervolume_b
    );

    let energy = EnergyModel::default();
    println!("  energy-aware picks (lowest energy first):");
    let mut by_energy = serial.points.clone();
    by_energy.sort_by(|a, b| {
        Metric::Energy
            .value(&a.summary)
            .total_cmp(&Metric::Energy.value(&b.summary))
    });
    for p in by_energy.iter().take(3) {
        println!(
            "    {:>6.1} mJ  {:>6.1} FPS  {}",
            energy.estimate_summary(&p.summary).total_mj(),
            p.summary.throughput_fps,
            p.summary.notation
        );
    }
    println!("guided exploration smoke: OK");
    Ok(())
}
