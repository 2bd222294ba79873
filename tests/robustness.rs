//! Failure injection and boundary conditions: the stack must degrade
//! gracefully — clean errors for infeasible inputs, sane numbers for
//! extreme but valid ones. The second half of the file holds the serve
//! layer's robustness suite: framing under hostile transports,
//! admission control, deadlines, panic isolation, graceful shutdown,
//! and the deterministic fault-injection soak.

use mccm::arch::{notation, templates, ArchError, MultipleCeBuilder};
use mccm::cnn::{zoo, CnnError, ConvSpec, ModelBuilder, Padding, TensorShape};
use mccm::core::{Bytes, CostModel};
use mccm::fpga::{FpgaBoard, MiB, Precision};
use mccm::sim::{SimConfig, Simulator};

#[test]
fn one_layer_model_works_end_to_end() {
    let mut b = ModelBuilder::new("one", TensorShape::new(3, 8, 8));
    b.conv("only", ConvSpec::standard(3, 1, Padding::same(3, 3)), 4, 0);
    let model = b.finish().unwrap();
    let board = FpgaBoard::zc706();
    let builder = MultipleCeBuilder::new(&model, &board);
    let spec = notation::parse("{L1-Last: CE1}").unwrap();
    let acc = builder.build(&spec).unwrap();
    let eval = CostModel::evaluate(&acc);
    assert!(eval.latency_s > 0.0);
    let sim = Simulator::new(SimConfig::default()).run_with_eval(&acc, &eval);
    assert_eq!(sim.offchip_bytes, eval.offchip_bytes.get());
}

#[test]
fn more_ces_than_layers_rejected() {
    let model = zoo::mobilenet_v2(); // 52 conv layers
    assert!(matches!(
        templates::segmented(&model, 53),
        Err(ArchError::Infeasible { .. })
    ));
    assert!(matches!(
        templates::segmented_rr(&model, 100),
        Err(ArchError::Infeasible { .. })
    ));
}

#[test]
fn notation_referencing_missing_layers_rejected() {
    let model = zoo::mobilenet_v2();
    let board = FpgaBoard::zc706();
    let builder = MultipleCeBuilder::new(&model, &board);
    // 52 layers; L60 is out of range.
    let spec = notation::parse("{L1-L60: CE1}").unwrap();
    assert!(matches!(
        builder.build(&spec),
        Err(ArchError::BadLayerRange { .. })
    ));
    // Gap between assignments.
    let spec = notation::parse("{L1-L10: CE1, L20-Last: CE2}").unwrap();
    assert!(matches!(
        builder.build(&spec),
        Err(ArchError::NonContiguousCoverage { .. })
    ));
}

#[test]
fn starved_board_still_evaluates() {
    // 16 DSPs, 64 KiB BRAM, 0.1 GB/s: everything spills, nothing panics,
    // and the numbers reflect the pain.
    let model = zoo::resnet50();
    let starved = FpgaBoard::new("starved", 16, MiB(0.0625), 0.1);
    let builder = MultipleCeBuilder::new(&model, &starved);
    let acc = builder
        .build(&templates::segmented(&model, 2).unwrap())
        .unwrap();
    let eval = CostModel::evaluate(&acc);
    assert!(
        eval.latency_s > 1.0,
        "a starved board should be slow: {}",
        eval.latency_s
    );
    assert!(eval.offchip_bytes > CostModel::minimum_offchip_bytes(&acc));
    assert!(eval.memory_stall_fraction > 0.0);
}

#[test]
fn luxurious_board_reaches_minimum_traffic() {
    // A board with effectively unlimited BRAM reaches the deterministic
    // minimum on every architecture.
    let model = zoo::mobilenet_v2();
    let lux = FpgaBoard::new("lux", 4096, MiB(512.0), 25.6);
    let builder = MultipleCeBuilder::new(&model, &lux);
    for arch in templates::Architecture::ALL {
        let acc = builder
            .build(&arch.instantiate(&model, 4).unwrap())
            .unwrap();
        let eval = CostModel::evaluate(&acc);
        let min = CostModel::minimum_offchip_bytes(&acc);
        // SegmentedRR still spills its round handoffs by design; the
        // others reach the minimum exactly.
        if arch == templates::Architecture::SegmentedRr {
            assert!(eval.offchip_bytes >= min);
        } else {
            assert_eq!(eval.offchip_bytes, min, "{arch}");
        }
    }
}

#[test]
fn int16_doubles_minimum_traffic() {
    let model = zoo::mobilenet_v2();
    let board = FpgaBoard::zcu102();
    let spec = templates::hybrid(&model, 3).unwrap();
    let acc8 = MultipleCeBuilder::new(&model, &board).build(&spec).unwrap();
    let acc16 = MultipleCeBuilder::new(&model, &board)
        .with_precision(Precision::INT16)
        .build(&spec)
        .unwrap();
    assert_eq!(
        CostModel::minimum_offchip_bytes(&acc16),
        CostModel::minimum_offchip_bytes(&acc8) * 2
    );
}

#[test]
fn invalid_cnn_constructions_rejected() {
    // Dense on mismatched input handled by validation.
    let mut b = ModelBuilder::new("bad", TensorShape::new(3, 8, 8));
    b.conv("c", ConvSpec::pointwise(1), 4, 0);
    let m = b.finish().unwrap();
    assert_eq!(m.conv_layer_count(), 1);

    let empty = ModelBuilder::new("empty", TensorShape::new(3, 8, 8));
    assert_eq!(empty.finish().unwrap_err(), CnnError::EmptyModel);
}

#[test]
fn simulator_handles_zero_overhead_and_heavy_overhead() {
    let model = zoo::mobilenet_v2();
    let board = FpgaBoard::vcu108();
    let builder = MultipleCeBuilder::new(&model, &board);
    let acc = builder
        .build(&templates::segmented_rr(&model, 3).unwrap())
        .unwrap();
    let eval = CostModel::evaluate(&acc);

    let ideal = Simulator::new(SimConfig::ideal()).run_with_eval(&acc, &eval);
    let heavy = Simulator::new(SimConfig {
        dma_latency_cycles: 10_000,
        tile_overhead_cycles: 1_000,
        ..SimConfig::default()
    })
    .run_with_eval(&acc, &eval);
    assert!(
        heavy.latency_s > 2.0 * ideal.latency_s,
        "heavy overheads must show"
    );
    assert_eq!(heavy.offchip_bytes, ideal.offchip_bytes);
}

#[test]
fn clock_scaling_scales_latency() {
    let model = zoo::mobilenet_v2();
    let spec = templates::segmented(&model, 2).unwrap();
    let fast = FpgaBoard::zcu102().with_clock_mhz(300.0);
    let slow = FpgaBoard::zcu102().with_clock_mhz(100.0);
    let ef = CostModel::evaluate(&MultipleCeBuilder::new(&model, &fast).build(&spec).unwrap());
    let es = CostModel::evaluate(&MultipleCeBuilder::new(&model, &slow).build(&spec).unwrap());
    // 3x clock: compute-bound parts scale ~3x; allow slack for the
    // memory-bound fraction (bandwidth does not scale with clock).
    assert!(es.latency_s > 1.5 * ef.latency_s);
}

#[test]
fn weight_compression_scales_traffic_and_stays_sim_consistent() {
    let model = zoo::resnet50();
    let board = FpgaBoard::zc706();
    let builder = MultipleCeBuilder::new(&model, &board);
    let acc = builder
        .build(&templates::segmented_rr(&model, 2).unwrap())
        .unwrap();
    let base = CostModel::evaluate(&acc);

    let all: Vec<usize> = (0..acc.convs.len()).collect();
    let acc_c = acc.clone().with_weight_compression(&all, 0.5);
    let comp = CostModel::evaluate(&acc_c);

    // Compression halves weight traffic (up to per-layer rounding) and
    // never increases latency.
    assert!(
        comp.offchip_weight_bytes <= base.offchip_weight_bytes / 2 + Bytes::new(all.len() as u64)
    );
    assert!(comp.latency_s <= base.latency_s);
    // FM traffic is untouched.
    assert_eq!(comp.offchip_fm_bytes, base.offchip_fm_bytes);

    // The reference simulator sees the same compressed traffic.
    let sim = Simulator::new(SimConfig::default()).run_with_eval(&acc_c, &comp);
    assert_eq!(sim.offchip_bytes, comp.offchip_bytes.get());

    // Buffer requirements are unchanged: weights decompress on-chip.
    assert_eq!(comp.buffer_req_bytes, base.buffer_req_bytes);
}

#[test]
#[should_panic(expected = "ratio")]
fn compression_ratio_validated() {
    let model = zoo::mobilenet_v2();
    let builder = MultipleCeBuilder::new(&model, &FpgaBoard::zc706());
    let acc = builder
        .build(&templates::hybrid(&model, 3).unwrap())
        .unwrap();
    let _ = acc.with_weight_compression(&[0], 1.5);
}

// ---------------------------------------------------------------------
// Serve layer: framing, admission, deadlines, panics, shutdown, soak.
// ---------------------------------------------------------------------

mod common;

mod serve_suite {
    use std::sync::atomic::{AtomicU64, Ordering};

    use proptest::prelude::*;

    use mccm::json::Json;
    use mccm::scenario::Scenario;
    use mccm::serve::{
        read_frame, run_with_retry, write_frame, Client, FaultPlan, FaultSite, FaultyReader,
        RetryPolicy, ServeConfig, ServeStats, Server,
    };
    use mccm::session::Session;
    use mccm::Error;

    use super::common::any_scenario;

    fn evaluate_scenario_json() -> String {
        r#"{
            "model": {"zoo": "mobilenetv2"},
            "board": {"builtin": "zc706"},
            "action": {"evaluate": {"template": "hybrid", "ces": 4}}
        }"#
        .to_string()
    }

    fn optimize_scenario_json(budget: u64) -> String {
        format!(
            r#"{{
                "model": {{"zoo": "mobilenetv2"}},
                "board": {{"builtin": "zc706"}},
                "seed": 11,
                "action": {{"optimize": {{
                    "metrics": ["throughput", "buffers"],
                    "budget": {budget},
                    "population": 16,
                    "islands": 2
                }}}}
            }}"#
        )
    }

    type ServerHandle = std::thread::JoinHandle<Result<ServeStats, Error>>;

    fn start_server(config: ServeConfig) -> (String, ServerHandle) {
        let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
        let addr = server.addr().to_string();
        (addr, server.spawn())
    }

    fn stat(stats: &Json, key: &str) -> u64 {
        stats
            .get("stats")
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats missing {key}: {stats}"))
    }

    /// The accounting identities every daemon must satisfy.
    fn assert_balanced(stats: &Json) {
        assert_eq!(
            stat(stats, "received"),
            stat(stats, "admitted")
                + stat(stats, "rejected_busy")
                + stat(stats, "rejected_draining"),
            "admission accounting must balance: {stats}"
        );
        assert_eq!(
            stat(stats, "admitted"),
            stat(stats, "completed") + stat(stats, "degraded") + stat(stats, "failed"),
            "completion accounting must balance: {stats}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any scenario's request frame survives a transport that
        /// delivers one byte at a time: framing reassembles it and the
        /// scenario round-trips losslessly.
        #[test]
        fn frames_round_trip_through_short_reads(scenario in any_scenario(), seed in 0u64..1000) {
            let mut request = Json::object();
            request.push("id", 1u64);
            request.push("run", scenario.to_json());
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &request).unwrap();
            let trickle = FaultPlan::seeded(seed).with_rate(FaultSite::ShortRead, 1000);
            let mut reader = FaultyReader::new(std::io::Cursor::new(bytes), trickle);
            let back = read_frame(&mut reader).unwrap().expect("one frame");
            let run = back.get("run").expect("run survives");
            let parsed = Scenario::from_json(run).expect("scenario survives");
            prop_assert_eq!(parsed, scenario);
        }
    }

    #[test]
    fn warm_server_bytes_match_a_local_run_exactly() {
        let (addr, handle) = start_server(ServeConfig::default());
        let scenario = Scenario::from_json_str(&evaluate_scenario_json()).unwrap();
        let mut local = Session::new();
        let local_bytes = local.run(&scenario).unwrap().to_json_string();
        let mut client = Client::connect(&addr).unwrap();
        // Cold then warm: all serve the same bytes as a local run.
        for _ in 0..3 {
            let reply = client.run(&scenario, None).unwrap();
            assert!(!reply.degraded);
            assert_eq!(reply.outcome.to_string_pretty(), local_bytes);
        }
        let response = client.shutdown().unwrap();
        assert_balanced(&response);
        assert_eq!(stat(&response, "completed"), 3);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn bad_requests_get_typed_errors_and_the_daemon_survives() {
        let (addr, handle) = start_server(ServeConfig::default());

        // An unknown model is a typed scenario error, not a dead server.
        let mut client = Client::connect(&addr).unwrap();
        let mut wrong_model = Scenario::from_json_str(&evaluate_scenario_json()).unwrap();
        wrong_model.model = mccm::scenario::ModelSpec::Zoo("definitely-not-a-model".into());
        match client.run(&wrong_model, None) {
            Err(Error::Remote {
                kind, exit_code, ..
            }) => {
                assert_eq!(kind, "scenario");
                assert_eq!(exit_code, 3);
            }
            other => panic!("expected a remote scenario error, got {other:?}"),
        }

        // A frame that is none of run/stats/shutdown gets a protocol
        // error answered on the same connection.
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        let mut nonsense = Json::object();
        nonsense.push("greetings", true);
        write_frame(&mut raw, &nonsense).unwrap();
        let reply = read_frame(&mut raw).unwrap().expect("a reply");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        let kind = reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str);
        assert_eq!(kind, Some("protocol"));
        drop(raw);

        // The first client's connection still works afterwards.
        let good = Scenario::from_json_str(&evaluate_scenario_json()).unwrap();
        assert!(client.run(&good, None).is_ok());
        let response = client.shutdown().unwrap();
        assert_balanced(&response);
        assert_eq!(stat(&response, "failed"), 1);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn mistyped_run_envelopes_are_protocol_errors_and_stats_balance() {
        let (addr, handle) = start_server(ServeConfig::default());
        let run = Json::parse(&evaluate_scenario_json()).unwrap();
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        let cases = [
            ("id", Json::from("7"), "protocol violation: run request key `id` must be a non-negative integer"),
            (
                "deadline_ms",
                Json::from("50"),
                "protocol violation: run request key `deadline_ms` must be a non-negative integer",
            ),
            (
                "deadline",
                Json::from(50u64),
                "protocol violation: unknown run request key `deadline` (expected one of: id, run, deadline_ms)",
            ),
        ];
        for (key, value, detail) in cases {
            let mut request = Json::object();
            request.push("run", run.clone());
            request.push(key, value);
            write_frame(&mut raw, &request).unwrap();
            let reply = read_frame(&mut raw).unwrap().expect("a reply");
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
            let error = reply.get("error").expect("an error body");
            assert_eq!(error.get("kind").and_then(Json::as_str), Some("protocol"));
            assert_eq!(error.get("detail").and_then(Json::as_str), Some(detail));
        }
        // The same connection still serves a well-formed request.
        let mut good = Json::object();
        good.push("id", 1u64);
        good.push("run", run);
        good.push("deadline_ms", 60_000u64);
        write_frame(&mut raw, &good).unwrap();
        let reply = read_frame(&mut raw).unwrap().expect("a reply");
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{reply}"
        );
        drop(raw);

        // Rejected envelopes are never received, so they balance away.
        let response = Client::connect(&addr).unwrap().shutdown().unwrap();
        assert_balanced(&response);
        assert_eq!(stat(&response, "received"), 1);
        assert_eq!(stat(&response, "completed"), 1);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn remote_calibrate_never_touches_a_client_named_store() {
        let (addr, handle) = start_server(ServeConfig::default());
        let path =
            std::env::temp_dir().join(format!("mccm-serve-store-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let calibrate = |store: &str| {
            Scenario::from_json_str(&format!(
                r#"{{"model": {{"zoo": "mobilenetv2"}}, "board": {{"builtin": "zc706"}},
                    "action": {{"calibrate": {{"budget": 60, "top_k": 2{store}}}}}}}"#
            ))
            .unwrap()
        };
        let with_store = calibrate(&format!(
            r#", "store": {}"#,
            Json::from(path.to_str().unwrap())
        ));
        let mut client = Client::connect(&addr).unwrap();
        match client.run(&with_store, None) {
            Err(Error::Remote {
                kind,
                exit_code,
                detail,
            }) => {
                assert_eq!((kind.as_str(), exit_code), ("scenario", 3));
                assert!(detail.contains("action.calibrate.store"), "{detail}");
            }
            other => panic!("expected a remote scenario error, got {other:?}"),
        }
        assert!(!path.exists(), "the daemon created {}", path.display());

        // Without a store the same calibration still runs remotely.
        let reply = client.run(&calibrate(""), None).unwrap();
        assert!(!reply.degraded);
        assert!(
            reply.outcome.get("calibration").is_some(),
            "{}",
            reply.outcome
        );
        let response = client.shutdown().unwrap();
        assert_balanced(&response);
        assert_eq!(
            (stat(&response, "completed"), stat(&response, "failed")),
            (1, 1)
        );
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn over_budget_requests_come_back_degraded_with_partial_results() {
        let (addr, handle) = start_server(ServeConfig::default());
        let scenario = Scenario::from_json_str(&optimize_scenario_json(2_000_000)).unwrap();
        let mut client = Client::connect(&addr).unwrap();
        // A huge optimize budget cannot finish in 50 ms: the watchdog
        // fires and the response is an honest partial front.
        let reply = client.run(&scenario, Some(50)).unwrap();
        assert!(reply.degraded, "a 50ms deadline must degrade this request");
        assert_eq!(
            reply.outcome.get("action").and_then(Json::as_str),
            Some("optimize")
        );
        let evals = reply
            .outcome
            .get("evaluations")
            .and_then(Json::as_u64)
            .expect("attempts spent are reported");
        assert!(
            evals < 2_000_000,
            "degraded run must not have spent the full budget"
        );
        // An ample deadline does not degrade.
        let quick = Scenario::from_json_str(&optimize_scenario_json(300)).unwrap();
        let reply = client.run(&quick, Some(120_000)).unwrap();
        assert!(!reply.degraded);
        let response = client.shutdown().unwrap();
        assert_balanced(&response);
        assert_eq!(stat(&response, "degraded"), 1);
        assert_eq!(stat(&response, "completed"), 1);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn full_queue_rejects_busy_and_the_retry_client_gets_through() {
        // One worker, one queue slot: concurrent slow requests must
        // draw busy rejections; retrying clients all land eventually.
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            retry_after_ms: 20,
            ..ServeConfig::default()
        };
        let (addr, handle) = start_server(config);
        let slow = optimize_scenario_json(30_000);
        let saw_busy = AtomicU64::new(0);
        std::thread::scope(|s| {
            for seed in 0..6u64 {
                let addr = &addr;
                let slow = &slow;
                let saw_busy = &saw_busy;
                s.spawn(move || {
                    let scenario = Scenario::from_json_str(slow).unwrap();
                    let policy = RetryPolicy {
                        retries: 100,
                        base_ms: 10,
                        max_ms: 200,
                        seed,
                    };
                    // Probe without retries to observe raw rejections.
                    let mut probe = Client::connect(addr).unwrap();
                    if matches!(probe.run(&scenario, Some(5)), Err(Error::Busy { .. })) {
                        saw_busy.fetch_add(1, Ordering::Relaxed);
                    }
                    // Then insist: Busy must never surface with retries.
                    let reply =
                        run_with_retry(addr, &scenario, Some(5), &policy).expect("retries land");
                    assert!(reply.outcome.get("action").is_some());
                });
            }
        });
        assert!(
            saw_busy.load(Ordering::Relaxed) > 0,
            "a 1-slot queue under 6 concurrent clients must reject at least once"
        );
        let mut client = Client::connect(&addr).unwrap();
        let response = client.shutdown().unwrap();
        assert_balanced(&response);
        assert!(stat(&response, "rejected_busy") > 0);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn draining_daemon_rejects_new_work_then_exits_with_balanced_stats() {
        let (addr, handle) = start_server(ServeConfig::default());
        let scenario = Scenario::from_json_str(&evaluate_scenario_json()).unwrap();
        let mut client = Client::connect(&addr).unwrap();
        client.run(&scenario, None).unwrap();
        let stats = Client::connect(&addr).unwrap().shutdown().unwrap();
        assert_eq!(stats.get("drained").and_then(Json::as_bool), Some(true));
        assert_balanced(&stats);
        // The daemon has exited: the listener no longer accepts, so a
        // late request fails at connect or at the first round trip.
        let late = Client::connect(&addr).and_then(|mut c| c.run(&scenario, None));
        assert!(late.is_err(), "daemon must be gone after shutdown");
        let final_stats = handle.join().unwrap().unwrap();
        assert_eq!(final_stats.completed, 1);
    }

    /// The headline soak: concurrent clients against a daemon whose
    /// fault plan injects worker panics, cache evictions, stalls, and
    /// one-byte socket reads on a fixed seed. The daemon must never
    /// exit, every request must get exactly one final typed response,
    /// and the drained stats must balance.
    #[test]
    fn fault_injection_soak_daemon_survives_and_accounting_balances() {
        let faults = FaultPlan::seeded(7)
            .with_rate(FaultSite::WorkerPanic, 250)
            .with_rate(FaultSite::CacheEvict, 200)
            .with_rate(FaultSite::EvalStall, 150)
            .with_rate(FaultSite::ShortRead, 400);
        let config = ServeConfig {
            workers: 2,
            queue_capacity: 4,
            retry_after_ms: 10,
            stall_ms: 60,
            faults,
            ..ServeConfig::default()
        };
        let (addr, handle) = start_server(config);
        const CLIENTS: u64 = 4;
        const REQUESTS_PER_CLIENT: u64 = 6;
        let responses = AtomicU64::new(0);
        let panics_seen = AtomicU64::new(0);
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let addr = &addr;
                let responses = &responses;
                let panics_seen = &panics_seen;
                s.spawn(move || {
                    for r in 0..REQUESTS_PER_CLIENT {
                        let scenario = if (c + r) % 2 == 0 {
                            Scenario::from_json_str(&evaluate_scenario_json()).unwrap()
                        } else {
                            Scenario::from_json_str(&optimize_scenario_json(400)).unwrap()
                        };
                        let deadline = if r % 3 == 0 { Some(40) } else { Some(60_000) };
                        let policy = RetryPolicy {
                            retries: 100,
                            base_ms: 5,
                            max_ms: 100,
                            seed: c * 100 + r,
                        };
                        // Exactly one final typed response per request:
                        // an outcome or a typed error — never a hang,
                        // never a dead daemon.
                        match run_with_retry(addr, &scenario, deadline, &policy) {
                            Ok(_) => {
                                responses.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(Error::Remote {
                                kind, exit_code, ..
                            }) => {
                                responses.fetch_add(1, Ordering::Relaxed);
                                if kind == "internal" {
                                    assert_eq!(exit_code, 9);
                                    panics_seen.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(e) => panic!("untyped soak failure: {e:?}"),
                        }
                    }
                });
            }
        });
        assert_eq!(
            responses.load(Ordering::Relaxed),
            CLIENTS * REQUESTS_PER_CLIENT,
            "every request must get exactly one final response"
        );
        // The daemon is still alive and answers stats.
        let mut client = Client::connect(&addr).unwrap();
        let stats = client.stats().unwrap();
        assert_balanced(&stats);
        let response = client.shutdown().unwrap();
        assert_balanced(&response);
        // The seeded plan (250/1000 worker-panic rate over dozens of
        // jobs) certainly panicked; every panic was caught and the
        // daemon outlived them all.
        assert!(
            stat(&response, "panics_recovered") > 0,
            "the fault plan must have injected at least one panic: {response}"
        );
        assert_eq!(
            stat(&response, "panics_recovered"),
            panics_seen.load(Ordering::Relaxed),
            "every injected panic surfaced as exactly one internal error"
        );
        handle.join().unwrap().unwrap();
    }
}
