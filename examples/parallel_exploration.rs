//! Parallel-DSE smoke run: samples a batch of custom designs
//! (MobileNetV2 on the ZC706) with 2 workers and extracts their Pareto
//! front from per-worker local fronts, asserting that both sharded paths
//! reproduce the inline `workers = 1` results exactly. CI runs this on
//! every push so the threaded code is exercised end to end.
//!
//! Run with: `cargo run --release --example parallel_exploration`

use mccm::cnn::zoo;
use mccm::core::Metric;
use mccm::dse::{par_pareto_indices, Explorer};
use mccm::fpga::FpgaBoard;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const WORKERS: usize = 2;
    const SAMPLES: usize = 256;
    let model = zoo::mobilenet_v2();
    let board = FpgaBoard::zc706();
    let explorer = Explorer::new(&model, &board);

    // Sharded sampling: same seed, same point set as the inline path.
    println!(
        "sampled sweep: {} on {} — {SAMPLES} of {} designs, {WORKERS} workers",
        model.name(),
        board.name,
        explorer.paper_space().size()
    );
    let (serial, _) = explorer.par_sample_custom_summaries(SAMPLES, 1, 1)?;
    let (parallel, elapsed) = explorer.par_sample_custom_summaries(SAMPLES, 1, WORKERS)?;
    assert_eq!(serial, parallel, "sharded sampling diverged from serial");
    println!(
        "  sampled {SAMPLES} designs in {:.0} ms, parallel == serial",
        elapsed.as_secs_f64() * 1e3
    );

    // Pareto front via per-worker local fronts merged at the end.
    let summaries: Vec<_> = parallel.into_iter().map(|p| p.summary).collect();
    let metrics = [Metric::Throughput, Metric::OnChipBuffers];
    let front = par_pareto_indices(&summaries, &metrics, WORKERS);
    assert_eq!(front, par_pareto_indices(&summaries, &metrics, 1));
    println!(
        "pareto front (throughput vs buffers): {} designs",
        front.len()
    );
    for &i in front.iter().take(5) {
        let s = &summaries[i];
        println!(
            "  {:>7.1} FPS  {:>6.2} MiB  {}",
            s.throughput_fps,
            s.buffer_mib(),
            s.notation
        );
    }
    println!("parallel DSE smoke: OK");
    Ok(())
}
