//! Integration tests for the parallel exploration subsystem: the
//! incremental Pareto front must agree with a brute-force batch pass on
//! arbitrary point clouds (property test), and every sweep must
//! reproduce its inline `workers = 1` run point-for-point at any worker
//! count (determinism tests).

use proptest::prelude::*;

use mccm::cnn::zoo;
use mccm::core::{Bytes, EvalSummary, Macs, Metric};
use mccm::dse::{default_max_attempts, par_pareto_indices, ExploreError, Explorer, ParetoFront};
use mccm::fpga::{FpgaBoard, MiB};

fn summary(latency_ms: u64, fps: u64, buf: u64, traffic: u64) -> EvalSummary {
    EvalSummary {
        notation: String::new(),
        ce_count: 2,
        total_macs: Macs::ZERO,
        latency_s: latency_ms as f64 / 1e3,
        throughput_fps: fps as f64,
        buffer_req_bytes: Bytes::new(buf),
        buffer_alloc_bytes: Bytes::new(buf),
        offchip_bytes: Bytes::new(traffic),
        offchip_weight_bytes: Bytes::ZERO,
        offchip_fm_bytes: Bytes::ZERO,
        memory_stall_fraction: 0.0,
    }
}

/// Brute-force all-pairs Pareto front — the reference the incremental
/// implementation must match exactly.
fn brute_force_front(points: &[EvalSummary], metrics: &[Metric]) -> Vec<usize> {
    let dominates = |a: &EvalSummary, b: &EvalSummary| -> bool {
        let mut strictly = false;
        for m in metrics {
            if m.better(m.value(b), m.value(a)) {
                return false;
            }
            if m.better(m.value(a), m.value(b)) {
                strictly = true;
            }
        }
        strictly
    };
    (0..points.len())
        .filter(|&i| !(0..points.len()).any(|j| j != i && dominates(&points[j], &points[i])))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_front_matches_batch_front(
        seed in 0u64..1 << 32,
        n in 1usize..60,
        metric_mask in 1usize..16,
    ) {
        // Small value ranges on purpose: ties and duplicates must appear.
        let mut pts = Vec::with_capacity(n);
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % 6
        };
        for _ in 0..n {
            pts.push(summary(1 + next(), 1 + next(), 1 + next(), 1 + next()));
        }
        let metrics: Vec<Metric> = Metric::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| metric_mask & (1 << i) != 0)
            .map(|(_, m)| m)
            .collect();

        let expected = brute_force_front(&pts, &metrics);

        // Incremental insertion.
        let mut front = ParetoFront::new(&metrics);
        for (i, p) in pts.iter().enumerate() {
            let values = metrics.iter().map(|m| m.value(p)).collect();
            front.offer_with_values(i, values);
        }
        let mut incremental = front.into_items();
        incremental.sort_unstable();
        prop_assert_eq!(&incremental, &expected);

        // Sharded local fronts merged at the end.
        for workers in [1usize, 2, 5] {
            prop_assert_eq!(&par_pareto_indices(&pts, &metrics, workers), &expected);
        }
    }
}

#[test]
fn parallel_sampling_matches_serial_point_for_point() {
    let model = zoo::mobilenet_v2();
    let explorer = Explorer::new(&model, &FpgaBoard::zc706());
    let (serial, _) = explorer.par_sample_custom_summaries(40, 11, 1).unwrap();
    let serial_notations: Vec<_> = serial.iter().map(|p| p.summary.notation.clone()).collect();
    for workers in [1usize, 2, 3, 8] {
        let (par, _) = explorer
            .par_sample_custom_summaries(40, 11, workers)
            .unwrap();
        let par_notations: Vec<_> = par.iter().map(|p| p.summary.notation.clone()).collect();
        assert_eq!(par_notations, serial_notations, "workers={workers}");
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a, b, "workers={workers}");
        }
    }
}

#[test]
fn parallel_baseline_sweep_matches_serial() {
    let model = zoo::resnet50();
    let explorer = Explorer::new(&model, &FpgaBoard::vcu108());
    let serial = explorer.par_sweep_baselines(2..=11, 1).unwrap();
    for workers in [2usize, 4, 32] {
        let par = explorer.par_sweep_baselines(2..=11, workers).unwrap();
        assert_eq!(par.len(), serial.len());
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!((a.architecture, a.ces), (b.architecture, b.ces));
            assert_eq!(a.eval, b.eval);
        }
    }
}

#[test]
fn infeasible_heavy_spaces_error_instead_of_hanging() {
    // A 1-DSP board cannot host two CEs: every draw is infeasible, so the
    // default attempt budget runs out instead of the sweep spinning.
    let model = zoo::mobilenet_v2();
    let explorer = Explorer::new(&model, &FpgaBoard::new("tiny", 1, MiB(0.5), 1.0));
    for workers in [1usize, 4] {
        match explorer
            .par_sample_custom_summaries(100, 2, workers)
            .map(|(p, _)| p)
        {
            Err(ExploreError::AttemptsExhausted {
                wanted,
                got,
                attempts,
            }) => {
                assert_eq!(wanted, 100);
                assert_eq!(got, 0);
                assert_eq!(attempts, default_max_attempts(100));
            }
            other => panic!(
                "expected AttemptsExhausted at workers={workers}, got {:?}",
                other.map(|p| p.len())
            ),
        }
    }
}
