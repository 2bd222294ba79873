//! Model-vs-simulator agreement across the validation grid: the
//! reproduction's counterpart of the paper's Table IV claims (accuracy in
//! the 80-100% band, off-chip accesses exactly deterministic).

use mccm_arch::{templates, MultipleCeBuilder};
use mccm_cnn::synthetic::{random_cnn, SyntheticConfig};
use mccm_cnn::zoo;
use mccm_core::{CostModel, Metric};
use mccm_fpga::FpgaBoard;
use mccm_sim::{SimConfig, Simulator};

#[test]
fn accuracy_grid_within_paper_band() {
    let board = FpgaBoard::vcu108();
    let sim = Simulator::new(SimConfig::default());
    let mut all = Vec::new();
    for model in [zoo::resnet50(), zoo::mobilenet_v2()] {
        let b = MultipleCeBuilder::new(&model, &board);
        for arch in templates::Architecture::ALL {
            for k in [2usize, 5, 8, 11] {
                let acc = b.build(&arch.instantiate(&model, k).unwrap()).unwrap();
                let eval = CostModel::evaluate(&acc);
                let r = sim.run_with_eval(&acc, &eval);
                for rec in r.accuracy_records(&eval) {
                    let pct = rec.accuracy();
                    // Accesses are deterministic -> exactly 100%.
                    if rec.metric == Metric::OffChipAccesses {
                        assert!(
                            (pct - 100.0).abs() < 1e-9,
                            "{} {arch} k={k}: access accuracy {pct}",
                            model.name()
                        );
                    }
                    assert!(
                        pct >= 80.0,
                        "{} {arch} k={k} {}: accuracy {pct:.1}% below the band",
                        model.name(),
                        rec.metric
                    );
                    all.push(pct);
                }
            }
        }
    }
    let avg = all.iter().sum::<f64>() / all.len() as f64;
    assert!(
        avg > 90.0,
        "average accuracy {avg:.1}% (paper reports > 90%)"
    );
}

#[test]
fn simulator_is_deterministic() {
    let model = zoo::xception();
    let board = FpgaBoard::vcu110();
    let b = MultipleCeBuilder::new(&model, &board);
    let acc = b.build(&templates::hybrid(&model, 6).unwrap()).unwrap();
    let sim = Simulator::new(SimConfig::default());
    let a = sim.run_with_eval(&acc, &CostModel::evaluate(&acc));
    let b2 = sim.run_with_eval(&acc, &CostModel::evaluate(&acc));
    assert_eq!(a, b2);
}

#[test]
fn overheads_only_slow_things_down() {
    let model = zoo::mobilenet_v2();
    let board = FpgaBoard::zc706();
    let b = MultipleCeBuilder::new(&model, &board);
    let acc = b.build(&templates::segmented(&model, 3).unwrap()).unwrap();
    let eval = CostModel::evaluate(&acc);
    let ideal = Simulator::new(SimConfig::ideal()).run_with_eval(&acc, &eval);
    let real = Simulator::new(SimConfig::default()).run_with_eval(&acc, &eval);
    assert!(real.latency_s >= ideal.latency_s);
    assert!(real.throughput_fps <= ideal.throughput_fps * 1.0001);
    // Useful traffic is identical regardless of overheads.
    assert_eq!(real.offchip_bytes, ideal.offchip_bytes);
}

#[test]
fn steady_state_throughput_at_least_inverse_latency() {
    let model = zoo::resnet50();
    let board = FpgaBoard::zcu102();
    let b = MultipleCeBuilder::new(&model, &board);
    for arch in templates::Architecture::ALL {
        let acc = b.build(&arch.instantiate(&model, 4).unwrap()).unwrap();
        let eval = CostModel::evaluate(&acc);
        let r = Simulator::new(SimConfig::default()).run_with_eval(&acc, &eval);
        // Pipelining can only help: II <= first-image latency (small
        // tolerance for measurement granularity).
        assert!(
            r.throughput_fps * r.latency_s >= 0.95,
            "{arch}: {} fps x {} s",
            r.throughput_fps,
            r.latency_s
        );
    }
}

#[test]
fn synthetic_cnns_simulate_and_match_traffic() {
    let board = FpgaBoard::vcu108();
    let sim = Simulator::new(SimConfig::default());
    for seed in 0..8u64 {
        let cfg = SyntheticConfig {
            conv_layers: 8 + (seed as usize % 10),
            ..Default::default()
        };
        let model = random_cnn(seed, &cfg);
        let b = MultipleCeBuilder::new(&model, &board);
        let n = model.conv_layer_count();
        for arch in templates::Architecture::ALL {
            let k = 2 + (seed as usize % 3).min(n.saturating_sub(2));
            let Ok(spec) = arch.instantiate(&model, k) else {
                continue;
            };
            let acc = b.build(&spec).unwrap();
            let eval = CostModel::evaluate(&acc);
            let r = sim.run_with_eval(&acc, &eval);
            assert_eq!(
                r.offchip_bytes,
                eval.offchip_bytes.get(),
                "seed {seed} {arch}: deterministic traffic must match"
            );
            assert!(r.latency_s > 0.0);
        }
    }
}
