//! Cheap tier-1 performance guard for the DSE fast lane.
//!
//! A mid-size summary sweep must finish far inside a generous wall-clock
//! ceiling even in debug builds. The point is not to benchmark
//! (`mccm-bench speed` and `perfbench/` do that) but to fail loudly if a
//! change re-introduces per-design work that the shared build context is
//! supposed to amortize — e.g. busting the parallelism memo cache,
//! deep-cloning the conv view per design, or an accidental O(n²) in the
//! sweep loop. At the time of
//! writing the sweep below runs in ~2.5 s unoptimized (~25x headroom);
//! the pre-fast-lane code took ~40 s, well over the ceiling.

use std::time::{Duration, Instant};

use mccm::cnn::zoo;
use mccm::core::EvalScratch;
use mccm::dse::{CustomSampler, Explorer, SegCache};
use mccm::fpga::FpgaBoard;

const DESIGNS: usize = 2_000;
const CEILING: Duration = Duration::from_secs(60);

#[test]
fn midsize_summary_sweep_stays_under_wall_clock_ceiling() {
    let model = zoo::xception();
    let explorer = Explorer::new(&model, &FpgaBoard::vcu110());
    let start = Instant::now();
    let (points, _) = explorer
        .par_sample_custom_summaries(DESIGNS, 99, 1)
        .expect("mid-size xception sweep must be feasible");
    let elapsed = start.elapsed();
    assert_eq!(points.len(), DESIGNS);
    assert!(
        elapsed < CEILING,
        "summary sweep of {DESIGNS} designs took {elapsed:?} (ceiling {CEILING:?}): \
         the evaluation fast lane has regressed — check the parallelism memo \
         cache, the Arc-shared build context, and EvalScratch reuse"
    );
}

#[test]
fn warm_delta_evaluation_outruns_full_evaluation() {
    // Relative guard for the segment cache: re-evaluating a fixed design
    // set with every segment cached must beat re-evaluating it through
    // the whole-design path by a comfortable factor. Measured warm ratios
    // are ~5-8x even in debug builds (debug_asserts that re-run the cores
    // on hits are compiled out of the all-hit recombine path); 2x leaves
    // room for noisy CI machines while still catching a cache that has
    // silently stopped hitting. Wall-clock is compared *relatively*, on
    // the same machine, in the same process — no absolute ceiling.
    let model = zoo::xception();
    let explorer = Explorer::new(&model, &FpgaBoard::vcu110());
    let mut cache = SegCache::new(&explorer);
    let mut scratch = EvalScratch::new();
    let space = explorer.paper_space();
    let mut designs = CustomSampler::new(space, 31).sample_many(400);
    // Distinct designs only, so the warm-up pass alone builds and the
    // timed delta pass is all-hit by construction.
    designs.sort_by_key(|d| (d.head_layers, d.tail_ends.clone()));
    designs.dedup();

    // Warm every segment (and the builder's parallelism/context memos,
    // which both paths share).
    for d in &designs {
        explorer
            .custom_summary_delta(d, &mut cache, &mut scratch)
            .unwrap();
    }
    let full_start = Instant::now();
    let mut full_acc = 0u64;
    for d in &designs {
        let spec = d.to_spec(explorer.model()).unwrap();
        let s = explorer.evaluate_summary(&spec, &mut scratch).unwrap();
        full_acc = full_acc.wrapping_add(s.total_macs.get());
    }
    let full_time = full_start.elapsed();
    let warm_start = Instant::now();
    let mut delta_acc = 0u64;
    for d in &designs {
        let p = explorer
            .custom_summary_delta(d, &mut cache, &mut scratch)
            .unwrap()
            .unwrap();
        delta_acc = delta_acc.wrapping_add(p.summary.total_macs.get());
    }
    let warm_time = warm_start.elapsed();
    assert_eq!(full_acc, delta_acc);
    let stats = cache.stats();
    assert!(
        stats.full_builds as usize <= designs.len(),
        "only the warm-up pass may build: {stats:?}"
    );
    assert!(
        stats.delta_recombines as usize >= designs.len(),
        "the timed pass must be all-hit: {stats:?}"
    );
    assert!(
        warm_time.as_secs_f64() * 2.0 < full_time.as_secs_f64(),
        "warm delta pass ({warm_time:?}) is not 2x faster than the full pass \
         ({full_time:?}) over {} designs — the segment cache has stopped \
         paying for itself: {stats:?}",
        designs.len()
    );
}
