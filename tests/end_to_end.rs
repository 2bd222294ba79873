//! End-to-end integration: notation → builder → cost model → simulator,
//! across the zoo and the evaluation boards.

use mccm::arch::{notation, templates, MultipleCeBuilder};
use mccm::cnn::zoo;
use mccm::core::{Bytes, CostModel, Metric};
use mccm::fpga::FpgaBoard;
use mccm::sim::{SimConfig, Simulator};

#[test]
fn full_pipeline_for_every_model_and_board() {
    for model in zoo::all_models() {
        for board in FpgaBoard::evaluation_boards() {
            let builder = MultipleCeBuilder::new(&model, &board);
            for arch in templates::Architecture::ALL {
                let spec = arch.instantiate(&model, 4).unwrap();
                let acc = builder.build(&spec).unwrap();
                let eval = CostModel::evaluate(&acc);
                let ctx = format!("{} on {} ({arch})", model.name(), board.name);
                assert!(eval.latency_s > 0.0, "{ctx}");
                assert!(eval.throughput_fps > 0.0, "{ctx}");
                assert!(eval.throughput_fps * eval.latency_s >= 0.999, "{ctx}");
                assert!(
                    eval.offchip_bytes >= CostModel::minimum_offchip_bytes(&acc),
                    "{ctx}: below the deterministic traffic minimum"
                );
                assert_eq!(eval.layers.len(), model.conv_layer_count(), "{ctx}");
                // Traffic decomposition is consistent at every level.
                let seg: Bytes = eval.segments.iter().map(|s| s.traffic()).sum();
                let lay: Bytes = eval.layers.iter().map(|l| l.traffic()).sum();
                assert_eq!(seg, eval.offchip_bytes, "{ctx}");
                assert_eq!(lay, eval.offchip_bytes, "{ctx}");
            }
        }
    }
}

#[test]
fn notation_round_trips_through_the_whole_stack() {
    let model = zoo::resnet50();
    let board = FpgaBoard::vcu108();
    let builder = MultipleCeBuilder::new(&model, &board);
    for text in [
        "{L1-Last: CE1}",
        "{L1-Last: CE1-CE4}",
        "{L1-L26: CE1, L27-Last: CE2}",
        "{L1: CE1, L2-L10: CE2-CE4, L11-Last: CE5}",
        "{L1-L4: CE1-CE4, L5-L20: CE5, L21-L40: CE6, L41-Last: CE7}",
    ] {
        let spec = notation::parse(text).unwrap();
        let acc = builder.build(&spec).unwrap();
        assert_eq!(acc.notation(), text);
        let eval = CostModel::evaluate(&acc);
        assert_eq!(eval.notation, text);
        assert!(eval.latency_s > 0.0, "{text}");
    }
}

#[test]
fn simulator_validates_model_on_mixed_designs() {
    let model = zoo::densenet121();
    let board = FpgaBoard::zcu102();
    let builder = MultipleCeBuilder::new(&model, &board);
    let sim = Simulator::new(SimConfig::default());
    for text in [
        "{L1-L6: CE1-CE6, L7-Last: CE7}",
        "{L1-Last: CE1-CE3}",
        "{L1-L60: CE1, L61-Last: CE2}",
    ] {
        let spec = notation::parse(text).unwrap();
        let acc = builder.build(&spec).unwrap();
        let eval = CostModel::evaluate(&acc);
        let r = sim.run_with_eval(&acc, &eval);
        assert_eq!(r.offchip_bytes, eval.offchip_bytes.get(), "{text}");
        for rec in r.accuracy_records(&eval) {
            assert!(
                rec.accuracy() >= 75.0,
                "{text} {}: accuracy {:.1}%",
                rec.metric,
                rec.accuracy()
            );
        }
    }
}

#[test]
fn single_ce_baseline_is_expressible() {
    // The degenerate one-engine accelerator works across every model —
    // the "reusable CE" extreme the paper contrasts against (§II-C).
    for model in zoo::all_models() {
        let board = FpgaBoard::zcu102();
        let builder = MultipleCeBuilder::new(&model, &board);
        let spec = notation::parse("{L1-Last: CE1}").unwrap();
        let acc = builder.build(&spec).unwrap();
        assert_eq!(acc.ce_count(), 1);
        let eval = CostModel::evaluate(&acc);
        // Without coarse pipelining, throughput = 1/latency.
        assert!(
            (eval.throughput_fps * eval.latency_s - 1.0).abs() < 1e-9,
            "{}",
            model.name()
        );
    }
}

#[test]
fn per_layer_engine_extreme_is_expressible() {
    // The other extreme: one CE per layer (FINN/DNNBuilder style), which
    // the paper calls resource-demanding but expressible.
    let model = zoo::mobilenet_v2();
    let n = model.conv_layer_count();
    let board = FpgaBoard::zcu102();
    let builder = MultipleCeBuilder::new(&model, &board);
    let spec = notation::parse(&format!("{{L1-Last: CE1-CE{n}}}")).unwrap();
    let acc = builder.build(&spec).unwrap();
    assert_eq!(acc.ce_count(), n);
    assert_eq!(acc.segments.len(), 1);
    let eval = CostModel::evaluate(&acc);
    assert!(eval.latency_s > 0.0);
}

#[test]
fn metrics_trade_off_across_architectures() {
    // Table I's premise on our stack: on ZCU102/ResNet-50, no architecture
    // dominates every metric across best-throughput instances.
    let model = zoo::resnet50();
    let board = FpgaBoard::zcu102();
    let builder = MultipleCeBuilder::new(&model, &board);
    let mut evals = Vec::new();
    for arch in templates::Architecture::ALL {
        let best = (2..=11)
            .map(|k| {
                let acc = builder
                    .build(&arch.instantiate(&model, k).unwrap())
                    .unwrap();
                CostModel::evaluate(&acc)
            })
            .reduce(|a, b| {
                if b.throughput_fps > a.throughput_fps {
                    b
                } else {
                    a
                }
            })
            .unwrap();
        evals.push(best);
    }
    for metric in [
        Metric::Latency,
        Metric::OnChipBuffers,
        Metric::OffChipAccesses,
    ] {
        let vals: Vec<f64> = evals.iter().map(|e| metric.value(&e.summary)).collect();
        assert!(metric.best_index(&vals).is_some());
    }
    // At least two different architectures win at least one metric each.
    let winners: std::collections::HashSet<usize> = [
        Metric::Latency,
        Metric::OnChipBuffers,
        Metric::OffChipAccesses,
    ]
    .iter()
    .map(|m| {
        let vals: Vec<f64> = evals.iter().map(|e| m.value(&e.summary)).collect();
        m.best_index(&vals).unwrap()
    })
    .collect();
    assert!(winners.len() >= 2, "one architecture dominated everything");
}
