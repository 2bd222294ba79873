//! Use Case 3 — MCCM-driven design-space exploration.
//!
//! Sweeps the three state-of-the-art architectures, then samples the
//! custom Hybrid-head/Segmented-tail space and extracts the Pareto front
//! over (throughput, on-chip buffers) — finding designs that beat the
//! strongest baseline, exactly as the paper's Fig. 10.
//!
//! Run with: `cargo run --release --example design_space_exploration -- [samples]`

use mccm::cnn::zoo;
use mccm::core::Metric;
use mccm::dse::{par_pareto_indices, select_all_metrics, Explorer, PAPER_TIE_FRAC};
use mccm::fpga::FpgaBoard;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let samples: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);

    let model = zoo::xception();
    let board = FpgaBoard::vcu110();
    println!(
        "exploring {} on {board} ({samples} custom samples)\n",
        model.name()
    );

    let explorer = Explorer::new(&model, &board);

    // Baseline sweep (Use Case 1): who wins each metric?
    let sweep = explorer.par_sweep_baselines(2..=11, 1)?;
    println!("baseline winners (10% tie rule):");
    for cell in select_all_metrics(&sweep, PAPER_TIE_FRAC) {
        let winners: Vec<String> = cell
            .winners
            .iter()
            .map(|(a, ces, _)| format!("{}-{}", a.name(), ces))
            .collect();
        println!("  {:<11} {}", cell.metric.name(), winners.join(", "));
    }

    let best_fps = sweep
        .iter()
        .map(|p| p.eval.throughput_fps)
        .fold(0.0f64, f64::max);
    let base = sweep
        .iter()
        .find(|p| p.eval.throughput_fps == best_fps)
        .expect("non-empty sweep");
    println!(
        "\nstrongest baseline: {}-{} at {:.1} FPS / {:.2} MiB buffers",
        base.architecture.name(),
        base.ces,
        base.eval.throughput_fps,
        base.eval.buffer_mib()
    );

    // Custom-space sampling.
    let (points, elapsed) = explorer.par_sample_custom_summaries(samples, 1, 1)?;
    println!(
        "evaluated {samples} custom designs in {:.2} s ({:.2} ms/design)",
        elapsed.as_secs_f64(),
        1e3 * elapsed.as_secs_f64() / samples as f64
    );

    let evals: Vec<_> = points.into_iter().map(|p| p.summary).collect();
    let front = par_pareto_indices(&evals, &[Metric::Throughput, Metric::OnChipBuffers], 1);
    println!(
        "\nPareto front ({} designs), throughput vs buffers:",
        front.len()
    );
    let mut shown = 0;
    for &i in front.iter().rev() {
        let e = &evals[i];
        if e.throughput_fps >= 0.8 * base.eval.throughput_fps {
            println!(
                "  {:>6.1} FPS  {:>6.2} MiB  {}",
                e.throughput_fps,
                e.buffer_mib(),
                e.notation
            );
            shown += 1;
            if shown == 10 {
                break;
            }
        }
    }

    // The paper's summary comparison.
    let matching_buf = evals
        .iter()
        .filter(|e| e.throughput_fps >= base.eval.throughput_fps)
        .map(|e| e.buffer_req_bytes)
        .min();
    if let Some(buf) = matching_buf {
        println!(
            "\ncustom designs reach the baseline's throughput with {:.0}% smaller buffers \
             (paper: up to 48%).",
            100.0 * (1.0 - buf.as_f64() / base.eval.buffer_req_bytes.as_f64())
        );
    }
    Ok(())
}
