//! Serial vs parallel sweep throughput: the acceptance benchmark for the
//! sharded exploration subsystem. Worker counts share one seed, so every
//! configuration evaluates the identical design set — the measured gap is
//! pure parallel speedup, not workload drift.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use mccm_cnn::zoo;
use mccm_core::Metric;
use mccm_dse::{par_pareto_indices, CustomSpace, Explorer};
use mccm_fpga::FpgaBoard;

/// Sampled custom sweep on ResNet-50: `par_sample_custom_summaries`
/// inline (`workers = 1`) vs sharded at increasing worker counts.
fn bench_sampled_sweep(c: &mut Criterion) {
    let model = zoo::resnet50();
    let board = FpgaBoard::vcu108();
    let explorer = Explorer::new(&model, &board);
    const COUNT: usize = 96;
    let mut g = c.benchmark_group("par_sample_resnet50");
    g.sample_size(10);
    g.throughput(Throughput::Elements(COUNT as u64));
    g.bench_function("serial", |b| {
        b.iter(|| black_box(explorer.par_sample_custom_summaries(COUNT, 5, 1).unwrap()))
    });
    for workers in [2usize, 4] {
        g.bench_function(BenchmarkId::new("workers", workers), |b| {
            b.iter(|| {
                black_box(
                    explorer
                        .par_sample_custom_summaries(COUNT, 5, workers)
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

/// Exhaustive sweep of the 3-CE ResNet-50 space (every head length and
/// tail boundary with 2–3 CEs), serial vs sharded.
fn bench_exhaustive_3ce(c: &mut Criterion) {
    let model = zoo::resnet50();
    let board = FpgaBoard::vcu108();
    let explorer = Explorer::new(&model, &board);
    let space = CustomSpace {
        max_fuse_depth: 1,
        layers: model.conv_layer_count(),
        min_ces: 2,
        max_ces: 3,
    };
    let size = space.size() as u64;
    let mut g = c.benchmark_group("par_exhaustive_resnet50_3ce");
    g.sample_size(10);
    g.throughput(Throughput::Elements(size));
    for workers in [1usize, 2, 4] {
        g.bench_function(BenchmarkId::from_parameter(workers), |b| {
            b.iter(|| black_box(explorer.par_evaluate_space(&space, workers).unwrap()))
        });
    }
    g.finish();
}

/// Incremental (sharded) Pareto extraction vs point count.
fn bench_pareto_merge(c: &mut Criterion) {
    let model = zoo::resnet50();
    let board = FpgaBoard::vcu108();
    let explorer = Explorer::new(&model, &board);
    let (points, _) = explorer.par_sample_custom_summaries(512, 3, 0).unwrap();
    let summaries: Vec<_> = points.into_iter().map(|p| p.summary).collect();
    let metrics = [Metric::Throughput, Metric::OnChipBuffers];
    let mut g = c.benchmark_group("par_pareto_512pts");
    for workers in [1usize, 4] {
        g.bench_function(BenchmarkId::from_parameter(workers), |b| {
            b.iter(|| black_box(par_pareto_indices(black_box(&summaries), &metrics, workers)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_sampled_sweep,
    bench_exhaustive_3ce,
    bench_pareto_merge
);
criterion_main!(benches);
