//! Parallel-DSE smoke run: exhaustively evaluates a tiny custom space
//! (MobileNetV2 with 2–3 CEs) and samples a small batch of designs with
//! 2 workers, asserting that the sharded paths reproduce the serial
//! results exactly. CI runs this on every push so the threaded code is
//! exercised end to end.
//!
//! Run with: `cargo run --release --example parallel_exploration`

use mccm::cnn::zoo;
use mccm::core::Metric;
use mccm::dse::{par_pareto_indices, CustomSpace, Explorer};
use mccm::fpga::FpgaBoard;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const WORKERS: usize = 2;
    let model = zoo::mobilenet_v2();
    let board = FpgaBoard::zc706();
    let explorer = Explorer::new(&model, &board);

    // Exhaustive sweep of a space small enough to walk completely.
    let space = CustomSpace {
        layers: model.conv_layer_count(),
        min_ces: 2,
        max_ces: 3,
        max_fuse_depth: 1,
    };
    println!(
        "exhaustive sweep: {} on {} — {} designs, {WORKERS} workers",
        model.name(),
        board.name,
        space.size()
    );
    let serial = explorer.par_evaluate_space(&space, 1)?;
    let parallel = explorer.par_evaluate_space(&space, WORKERS)?;
    assert_eq!(
        serial, parallel,
        "sharded exhaustive sweep diverged from serial"
    );
    println!("  {} feasible designs, parallel == serial", parallel.len());

    // Sharded sampling: same seed, same point set as the serial path.
    let (serial_pts, _) = explorer.par_sample_custom_summaries(64, 1, 1)?;
    let (par_pts, elapsed) = explorer.par_sample_custom_summaries(64, 1, WORKERS)?;
    assert_eq!(serial_pts, par_pts, "sharded sampling diverged from serial");
    println!(
        "  sampled 64 designs in {:.0} ms, parallel == serial",
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
