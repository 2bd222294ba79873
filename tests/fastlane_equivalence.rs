//! Fast-lane equivalence: `CostModel::evaluate_summary` must be
//! **bit-identical** to `CostModel::evaluate(..).summary` for every
//! design — the invariant that lets the DSE sweeps run on the
//! allocation-free summary lane while keeping every determinism and
//! worker-invariance guarantee of the rich lane.
//!
//! Coverage: every zoo model × every template × several CE counts, seeded
//! batches of custom designs per model, and a property test over random
//! `CustomDesign`s drawn from the counter-based attempt stream.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use mccm::arch::{templates, AcceleratorSpec, BlockSpec, MultipleCeBuilder, Schedule};
use mccm::cnn::{zoo, CnnModel};
use mccm::core::{
    CeReport, CostModel, EvalScratch, EvalSummary, Evaluation, LayerReport, ModelConfig,
    PipelineLatencyMode, SegmentCost, SegmentReport,
};
use mccm::dse::{sample_attempt, CustomDesign, CustomSampler, CustomSpace, Explorer, SegCache};
use mccm::fpga::FpgaBoard;

fn every_zoo_model() -> Vec<CnnModel> {
    let mut models = zoo::all_models();
    models.extend(zoo::extended_models());
    models
}

#[test]
fn summary_lane_matches_rich_lane_across_the_zoo() {
    // One scratch reused across all models/templates: steady-state buffer
    // reuse must not leak state between designs.
    let mut scratch = EvalScratch::new();
    for board in [FpgaBoard::zc706(), FpgaBoard::vcu110()] {
        for model in every_zoo_model() {
            let builder = MultipleCeBuilder::new(&model, &board);
            for arch in templates::Architecture::ALL {
                for ces in [2usize, 4, 7, 11] {
                    let ctx = format!(
                        "{} / {} / {ces} CEs / {}",
                        model.name(),
                        arch.name(),
                        board.name
                    );
                    let Ok(spec) = arch.instantiate(&model, ces) else {
                        continue;
                    };
                    let Ok(acc) = builder.build(&spec) else {
                        continue;
                    };
                    let rich = CostModel::evaluate(&acc).summary;
                    let fast = CostModel::evaluate_summary(&acc, &mut scratch);
                    assert_eq!(fast, rich, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn summary_lane_matches_rich_lane_on_seeded_custom_batches() {
    for (model, board) in [
        (zoo::xception(), FpgaBoard::vcu110()),
        (zoo::mobilenet_v2(), FpgaBoard::zc706()),
        (zoo::resnet50(), FpgaBoard::zcu102()),
    ] {
        let builder = MultipleCeBuilder::new(&model, &board);
        let mut scratch = EvalScratch::new();
        let space = CustomSpace::paper_range(model.conv_layer_count());
        for design in CustomSampler::new(space, 2024).sample_many(50) {
            let Ok(spec) = design.to_spec(&model) else {
                continue;
            };
            let Ok(acc) = builder.build(&spec) else {
                continue;
            };
            let rich = CostModel::evaluate(&acc).summary;
            let fast = CostModel::evaluate_summary(&acc, &mut scratch);
            assert_eq!(fast, rich, "{} {design:?}", model.name());
        }
    }
}

#[test]
fn typed_fields_are_bit_identical_across_lanes() {
    // `EvalSummary: PartialEq` would accept `-0.0 == 0.0` on the float
    // fields; the invariant is stronger — after the typed-quantity
    // refactor the two lanes must still agree to the *bit* on every
    // field, integer and float alike.
    let mut scratch = EvalScratch::new();
    for (model, board) in [
        (zoo::xception(), FpgaBoard::vcu110()),
        (zoo::mobilenet_v2(), FpgaBoard::zc706()),
    ] {
        let builder = MultipleCeBuilder::new(&model, &board);
        for arch in templates::Architecture::ALL {
            for ces in [2usize, 5, 9] {
                let ctx = format!("{} / {} / {ces} CEs", model.name(), arch.name());
                let Ok(spec) = arch.instantiate(&model, ces) else {
                    continue;
                };
                let Ok(acc) = builder.build(&spec) else {
                    continue;
                };
                let rich = CostModel::evaluate(&acc).summary;
                let fast = CostModel::evaluate_summary(&acc, &mut scratch);
                // Typed counting quantities: exact integer equality.
                assert_eq!(fast.total_macs.get(), rich.total_macs.get(), "{ctx}");
                assert_eq!(
                    fast.buffer_req_bytes.get(),
                    rich.buffer_req_bytes.get(),
                    "{ctx}"
                );
                assert_eq!(
                    fast.buffer_alloc_bytes.get(),
                    rich.buffer_alloc_bytes.get(),
                    "{ctx}"
                );
                assert_eq!(fast.offchip_bytes.get(), rich.offchip_bytes.get(), "{ctx}");
                assert_eq!(
                    fast.offchip_weight_bytes.get(),
                    rich.offchip_weight_bytes.get(),
                    "{ctx}"
                );
                assert_eq!(
                    fast.offchip_fm_bytes.get(),
                    rich.offchip_fm_bytes.get(),
                    "{ctx}"
                );
                // Continuous quantities: identical down to the bit.
                assert_eq!(fast.latency_s.to_bits(), rich.latency_s.to_bits(), "{ctx}");
                assert_eq!(
                    fast.throughput_fps.to_bits(),
                    rich.throughput_fps.to_bits(),
                    "{ctx}"
                );
                assert_eq!(
                    fast.memory_stall_fraction.to_bits(),
                    rich.memory_stall_fraction.to_bits(),
                    "{ctx}"
                );
            }
        }
    }
}

/// Returns the spec with every single-CE assignment switched to
/// `schedule` (pipelined blocks keep layer-by-layer — the only schedule
/// they may carry).
fn with_schedule(spec: &AcceleratorSpec, schedule: Schedule) -> AcceleratorSpec {
    let mut out = spec.clone();
    for a in &mut out.assignments {
        if matches!(a.block, BlockSpec::Single(_)) {
            a.schedule = schedule;
        }
    }
    out
}

/// Per-field bit identity between two summaries, ignoring the notation
/// (which faithfully records the schedule suffix and so may differ).
fn assert_numerically_bit_identical(a: &EvalSummary, b: &EvalSummary, ctx: &str) {
    assert_eq!(a.ce_count, b.ce_count, "{ctx}");
    assert_eq!(a.total_macs.get(), b.total_macs.get(), "{ctx}");
    assert_eq!(a.buffer_req_bytes.get(), b.buffer_req_bytes.get(), "{ctx}");
    assert_eq!(
        a.buffer_alloc_bytes.get(),
        b.buffer_alloc_bytes.get(),
        "{ctx}"
    );
    assert_eq!(a.offchip_bytes.get(), b.offchip_bytes.get(), "{ctx}");
    assert_eq!(
        a.offchip_weight_bytes.get(),
        b.offchip_weight_bytes.get(),
        "{ctx}"
    );
    assert_eq!(a.offchip_fm_bytes.get(), b.offchip_fm_bytes.get(), "{ctx}");
    assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits(), "{ctx}");
    assert_eq!(
        a.throughput_fps.to_bits(),
        b.throughput_fps.to_bits(),
        "{ctx}"
    );
    assert_eq!(
        a.memory_stall_fraction.to_bits(),
        b.memory_stall_fraction.to_bits(),
        "{ctx}"
    );
}

#[test]
fn degenerate_depth_first_is_bit_identical_to_layer_by_layer() {
    // `DepthFirst { fuse_depth: 1 }` must be indistinguishable from
    // `LayerByLayer` — to the bit, on every field, on both lanes —
    // across the full zoo × template × CE-count grid.
    let mut scratch = EvalScratch::new();
    for board in [FpgaBoard::zc706(), FpgaBoard::vcu110()] {
        for model in every_zoo_model() {
            let builder = MultipleCeBuilder::new(&model, &board);
            for arch in templates::Architecture::ALL {
                for ces in [2usize, 4, 7, 11] {
                    let ctx = format!(
                        "{} / {} / {ces} CEs / {}",
                        model.name(),
                        arch.name(),
                        board.name
                    );
                    let Ok(spec) = arch.instantiate(&model, ces) else {
                        continue;
                    };
                    let df1 = with_schedule(&spec, Schedule::DepthFirst { fuse_depth: 1 });
                    let (Ok(lbl), Ok(df)) = (builder.build(&spec), builder.build(&df1)) else {
                        continue;
                    };
                    let rich_lbl = CostModel::evaluate(&lbl).summary;
                    let rich_df = CostModel::evaluate(&df).summary;
                    assert_numerically_bit_identical(&rich_df, &rich_lbl, &ctx);
                    let fast_df = CostModel::evaluate_summary(&df, &mut scratch);
                    assert_eq!(fast_df, rich_df, "{ctx}");
                    let fast_lbl = CostModel::evaluate_summary(&lbl, &mut scratch);
                    assert_numerically_bit_identical(&fast_df, &fast_lbl, &ctx);
                }
            }
        }
    }
}

#[test]
fn depth_first_designs_evaluate_identically_on_both_lanes() {
    // Fused evaluation runs through the same schedule-dispatched core on
    // both lanes; the bit-identity contract extends to every fuse depth.
    let mut scratch = EvalScratch::new();
    for (model, board) in [
        (zoo::mobilenet_v2(), FpgaBoard::zc706()),
        (zoo::xception(), FpgaBoard::vcu110()),
    ] {
        let builder = MultipleCeBuilder::new(&model, &board);
        for arch in templates::Architecture::ALL {
            for ces in [2usize, 5, 9] {
                for depth in [2usize, 3, 6] {
                    let ctx = format!("{} / {} / {ces} CEs / df{depth}", model.name(), arch.name());
                    let Ok(spec) = arch.instantiate(&model, ces) else {
                        continue;
                    };
                    let df = with_schedule(&spec, Schedule::DepthFirst { fuse_depth: depth });
                    let Ok(acc) = builder.build(&df) else {
                        continue;
                    };
                    let rich = CostModel::evaluate(&acc).summary;
                    let fast = CostModel::evaluate_summary(&acc, &mut scratch);
                    assert_eq!(fast, rich, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn segment_recombination_matches_the_summary_lane_across_the_zoo() {
    // The fast lane's explicit decomposition: computing every SegmentCost
    // independently and recombining under the design coupling must equal
    // `evaluate_summary` — which itself equals the rich lane — across the
    // zoo × template × CE-count × schedule grid. This is the base of the
    // `delta ≡ full ≡ rich` invariant the segment cache rests on.
    let mut scratch = EvalScratch::new();
    let config = ModelConfig::default();
    for board in [FpgaBoard::zc706(), FpgaBoard::vcu110()] {
        for model in every_zoo_model() {
            let builder = MultipleCeBuilder::new(&model, &board);
            for arch in templates::Architecture::ALL {
                for ces in [2usize, 4, 7, 11] {
                    for schedule in [
                        Schedule::LayerByLayer,
                        Schedule::DepthFirst { fuse_depth: 3 },
                    ] {
                        let ctx = format!(
                            "{} / {} / {ces} CEs / {schedule:?} / {}",
                            model.name(),
                            arch.name(),
                            board.name
                        );
                        let Ok(spec) = arch.instantiate(&model, ces) else {
                            continue;
                        };
                        let spec = with_schedule(&spec, schedule);
                        let Ok(acc) = builder.build(&spec) else {
                            continue;
                        };
                        let costs: Vec<SegmentCost> = (0..acc.segments.len())
                            .map(|i| CostModel::segment_cost(&acc, i, &config, &mut scratch))
                            .collect();
                        let recombined = CostModel::recombine(
                            CostModel::design_coupling(&acc, &config),
                            &costs,
                            &mut scratch,
                        );
                        let fast = CostModel::evaluate_summary(&acc, &mut scratch);
                        assert_eq!(recombined, fast, "{ctx}");
                        // Per-segment contract: each rich SegmentReport is
                        // its segment's SegmentCost at the board cycle time.
                        let rich = CostModel::evaluate_with(&acc, &config);
                        let cyc = acc.board.cycle_time_s();
                        assert_eq!(rich.segments.len(), costs.len(), "{ctx}");
                        for (report, cost) in rich.segments.iter().zip(&costs) {
                            let ctx = format!("{ctx} / segment {}", report.index);
                            assert_eq!(
                                report.time_s.to_bits(),
                                cost.time_cycles.to_seconds(cyc).to_bits(),
                                "{ctx}"
                            );
                            assert_eq!(
                                report.compute_s.to_bits(),
                                cost.compute_cycles.to_seconds(cyc).to_bits(),
                                "{ctx}"
                            );
                            assert_eq!(report.weight_traffic, cost.weight_traffic, "{ctx}");
                            assert_eq!(report.fm_traffic, cost.fm_traffic, "{ctx}");
                        }
                    }
                }
            }
        }
    }
}

/// 64-bit FNV-1a over every field of a rich [`Evaluation`]: scalar
/// summary fields (`f64`s by their bits) plus every segment, engine and
/// layer record. Exhaustive destructuring makes a new report field a
/// compile error here instead of a silent gap in the digest.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn evaluation(&mut self, e: &Evaluation) {
        let Evaluation {
            summary:
                EvalSummary {
                    notation,
                    ce_count,
                    total_macs,
                    latency_s,
                    throughput_fps,
                    buffer_req_bytes,
                    buffer_alloc_bytes,
                    offchip_bytes,
                    offchip_weight_bytes,
                    offchip_fm_bytes,
                    memory_stall_fraction,
                },
            model_name,
            board_name,
            segments,
            ces,
            layers,
        } = e;
        self.str(notation);
        self.str(model_name);
        self.str(board_name);
        self.u64(*ce_count as u64);
        self.u64(total_macs.get());
        self.f64(*latency_s);
        self.f64(*throughput_fps);
        self.u64(buffer_req_bytes.get());
        self.u64(buffer_alloc_bytes.get());
        self.u64(offchip_bytes.get());
        self.u64(offchip_weight_bytes.get());
        self.u64(offchip_fm_bytes.get());
        self.f64(*memory_stall_fraction);
        self.u64(segments.len() as u64);
        for s in segments {
            let SegmentReport {
                index,
                first,
                last,
                ces,
                compute_s,
                memory_s,
                time_s,
                weight_traffic,
                fm_traffic,
                buffer_req_bytes,
                utilization,
            } = s;
            self.u64(*index as u64);
            self.u64(*first as u64);
            self.u64(*last as u64);
            self.u64(ces.len() as u64);
            for &ce in ces {
                self.u64(ce as u64);
            }
            self.f64(*compute_s);
            self.f64(*memory_s);
            self.f64(*time_s);
            self.u64(weight_traffic.get());
            self.u64(fm_traffic.get());
            self.u64(buffer_req_bytes.get());
            self.f64(*utilization);
        }
        self.u64(ces.len() as u64);
        for c in ces {
            let CeReport {
                ce,
                pes,
                busy_s,
                utilization,
            } = c;
            self.u64(*ce as u64);
            self.u64(u64::from(pes.get()));
            self.f64(*busy_s);
            self.f64(*utilization);
        }
        self.u64(layers.len() as u64);
        for l in layers {
            let LayerReport {
                layer,
                ce,
                compute_cycles,
                weight_traffic,
                fm_load_traffic,
                fm_store_traffic,
                policy,
                utilization,
            } = l;
            self.u64(*layer as u64);
            self.u64(*ce as u64);
            self.u64(compute_cycles.get());
            self.u64(weight_traffic.get());
            self.u64(fm_load_traffic.get());
            self.u64(fm_store_traffic.get());
            self.str(&format!("{policy:?}"));
            self.f64(*utilization);
        }
    }
}

#[test]
fn rich_lane_evaluations_match_the_pinned_digest() {
    // Pins every field of the rich `Evaluation` — per-segment, per-engine
    // and per-layer records included — over zoo × template × CE count ×
    // schedule × ablation config. The lane-equality tests above compare
    // two lanes that share one composition path; this digest is what
    // catches a change in the values that path produces.
    let configs = [
        ModelConfig::default(),
        ModelConfig::new().with_pipeline_latency(PipelineLatencyMode::LockstepStages),
        ModelConfig::new().with_bandwidth_derate(0.6),
    ];
    let mut digest = Fnv::new();
    let mut evaluated = 0usize;
    for board in [FpgaBoard::zc706(), FpgaBoard::vcu110()] {
        for model in every_zoo_model() {
            let builder = MultipleCeBuilder::new(&model, &board);
            for arch in templates::Architecture::ALL {
                for ces in [2usize, 4, 7, 11] {
                    for schedule in [
                        Schedule::LayerByLayer,
                        Schedule::DepthFirst { fuse_depth: 3 },
                    ] {
                        let Ok(spec) = arch.instantiate(&model, ces) else {
                            continue;
                        };
                        let Ok(acc) = builder.build(&with_schedule(&spec, schedule)) else {
                            continue;
                        };
                        for config in &configs {
                            digest.evaluation(&CostModel::evaluate_with(&acc, config));
                            evaluated += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(evaluated, 1008, "grid size changed");
    assert_eq!(
        digest.0, 0xf64b_45b3_6768_74fc,
        "rich-lane digest moved: {:#018x}",
        digest.0
    );
}

/// The whole-design fast-lane outcome of a custom design (`None` =
/// infeasible) — the reference the delta path must match bit-for-bit.
fn full_summary(
    explorer: &Explorer,
    design: &CustomDesign,
    scratch: &mut EvalScratch,
) -> Option<EvalSummary> {
    let spec = design.to_spec(explorer.model()).ok()?;
    explorer.evaluate_summary(&spec, scratch).ok()
}

#[test]
fn delta_evaluation_matches_full_over_seeded_mutation_chains() {
    // Walk mutation chains — the optimizer's actual workload — evaluating
    // every design twice through the delta path (the second visit is
    // served entirely from cached segments) and once through the full
    // path. All three must agree to the bit.
    for (model, board) in [
        (zoo::mobilenet_v2(), FpgaBoard::zc706()),
        (zoo::xception(), FpgaBoard::vcu110()),
    ] {
        let explorer = Explorer::new(&model, &board);
        let mut cache = SegCache::new(&explorer);
        let mut scratch = EvalScratch::new();
        let mut scratch_full = EvalScratch::new();
        let space = explorer.paper_space().with_max_fuse_depth(3);
        let mut sampler = CustomSampler::new(space, 11);
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..8 {
            let mut design = sampler.sample();
            for _ in 0..10 {
                for pass in 0..2 {
                    let delta = explorer
                        .custom_summary_delta(&design, &mut cache, &mut scratch)
                        .unwrap();
                    let full = full_summary(&explorer, &design, &mut scratch_full);
                    assert_eq!(
                        delta.map(|p| p.summary),
                        full,
                        "{} pass {pass} on {design:?}",
                        model.name()
                    );
                }
                design = space.mutate(&design, &mut rng);
            }
        }
        let stats = cache.stats();
        assert!(
            stats.delta_recombines > 0,
            "repeat visits must recombine from cache: {stats:?}"
        );
        assert!(stats.seg_hits > 0 && stats.seg_misses > 0, "{stats:?}");
    }
}

#[test]
fn summary_sweep_equals_full_sweep_summaries() {
    // The sweep entry point itself: every sampled design's fast-lane
    // summary must equal the full lane's summary of the same design.
    let model = zoo::xception();
    let explorer = Explorer::new(&model, &FpgaBoard::vcu110());
    let (lean, _) = explorer.par_sample_custom_summaries(120, 7, 1).unwrap();
    assert_eq!(lean.len(), 120);
    for l in &lean {
        let full = explorer
            .evaluate(&l.design.to_spec(&model).unwrap())
            .unwrap();
        assert_eq!(full.summary, l.summary);
    }
    // And sharded runs agree for several worker counts.
    for workers in [2usize, 5] {
        let (par, _) = explorer
            .par_sample_custom_summaries(120, 7, workers)
            .unwrap();
        assert_eq!(par, lean, "workers = {workers}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_custom_designs_evaluate_identically_on_both_lanes(
        seed in 0u64..1_000_000,
        attempt in 0u64..10_000,
        model_pick in 0usize..3,
    ) {
        let (model, board) = match model_pick {
            0 => (zoo::xception(), FpgaBoard::vcu110()),
            1 => (zoo::mobilenet_v2(), FpgaBoard::zc706()),
            _ => (zoo::densenet121(), FpgaBoard::vcu108()),
        };
        let space = CustomSpace::paper_range(model.conv_layer_count());
        let design = sample_attempt(&space, seed, attempt);
        let builder = MultipleCeBuilder::new(&model, &board);
        let mut scratch = EvalScratch::new();
        if let Ok(spec) = design.to_spec(&model) {
            if let Ok(acc) = builder.build(&spec) {
                let rich = CostModel::evaluate(&acc).summary;
                let fast = CostModel::evaluate_summary(&acc, &mut scratch);
                prop_assert_eq!(fast, rich);
            }
        }
    }

    #[test]
    fn delta_equals_full_along_random_mutation_chains(
        seed in 0u64..1_000_000,
        chain in 2usize..8,
    ) {
        // Property form of the chain test: arbitrary seed, arbitrary chain
        // length, schedule axis on — the delta path must agree with the
        // full path at every step, whatever the cache holds.
        let model = zoo::mobilenet_v2();
        let explorer = Explorer::new(&model, &FpgaBoard::zc706());
        let mut cache = SegCache::new(&explorer);
        let mut scratch = EvalScratch::new();
        let mut scratch_full = EvalScratch::new();
        let space = explorer.paper_space().with_max_fuse_depth(4);
        let mut design = CustomSampler::new(space, seed).sample();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        for _ in 0..chain {
            let delta = explorer
                .custom_summary_delta(&design, &mut cache, &mut scratch)
                .unwrap();
            let full = full_summary(&explorer, &design, &mut scratch_full);
            prop_assert_eq!(delta.map(|p| p.summary), full);
            design = space.mutate(&design, &mut rng);
        }
    }
}
