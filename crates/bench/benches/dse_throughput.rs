//! Design-space exploration throughput: sampled designs evaluated per
//! second (Fig. 10's enabling quantity), plus the selection and Pareto
//! machinery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use mccm_cnn::zoo;
use mccm_core::{EvalScratch, Metric};
use mccm_dse::{par_pareto_indices, select_all_metrics, Explorer, PAPER_TIE_FRAC};
use mccm_fpga::FpgaBoard;

fn bench_custom_sampling(c: &mut Criterion) {
    let model = zoo::xception();
    let board = FpgaBoard::vcu110();
    let explorer = Explorer::new(&model, &board);
    let mut g = c.benchmark_group("dse_sample_custom");
    g.sample_size(10);
    for count in [10usize, 50] {
        g.throughput(Throughput::Elements(count as u64));
        g.bench_function(BenchmarkId::from_parameter(count), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(
                    explorer
                        .par_sample_custom_summaries(count, seed, 1)
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

fn bench_lane_comparison(c: &mut Criterion) {
    // Full rich-report lane vs the summary fast lane over the same
    // sampled designs: the per-candidate cost a sweep actually pays.
    let model = zoo::xception();
    let board = FpgaBoard::vcu110();
    let explorer = Explorer::new(&model, &board);
    let mut g = c.benchmark_group("dse_eval_lanes");
    g.sample_size(10);
    let count = 200usize;
    let (points, _) = explorer.par_sample_custom_summaries(count, 1, 1).unwrap();
    let specs: Vec<_> = points
        .iter()
        .map(|p| p.design.to_spec(&model).unwrap())
        .collect();
    g.throughput(Throughput::Elements(count as u64));
    g.bench_function("full_lane", |b| {
        b.iter(|| {
            for spec in &specs {
                black_box(explorer.evaluate(spec).unwrap());
            }
        })
    });
    g.bench_function("summary_fast_lane", |b| {
        let mut scratch = EvalScratch::new();
        b.iter(|| {
            for spec in &specs {
                black_box(explorer.evaluate_summary(spec, &mut scratch).unwrap());
            }
        })
    });
    g.finish();
}

fn bench_baseline_sweep(c: &mut Criterion) {
    let model = zoo::mobilenet_v2();
    let board = FpgaBoard::zc706();
    let explorer = Explorer::new(&model, &board);
    let mut g = c.benchmark_group("dse_baseline_sweep");
    g.sample_size(10);
    g.bench_function("mobilenetv2_2to11", |b| {
        b.iter(|| black_box(explorer.par_sweep_baselines(2..=11, 1).unwrap()))
    });
    g.finish();
}

fn bench_selection_and_pareto(c: &mut Criterion) {
    let model = zoo::resnet50();
    let board = FpgaBoard::zcu102();
    let explorer = Explorer::new(&model, &board);
    let sweep = explorer.par_sweep_baselines(2..=11, 1).unwrap();
    let evals: Vec<_> = sweep.iter().map(|p| p.eval.clone()).collect();
    c.bench_function("table5_selection", |b| {
        b.iter(|| black_box(select_all_metrics(black_box(&sweep), PAPER_TIE_FRAC)))
    });
    c.bench_function("pareto_front_30pts", |b| {
        b.iter(|| {
            black_box(par_pareto_indices(
                black_box(&evals),
                &[Metric::Throughput, Metric::OnChipBuffers],
                1,
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_custom_sampling,
    bench_lane_comparison,
    bench_baseline_sweep,
    bench_selection_and_pareto
);
criterion_main!(benches);
