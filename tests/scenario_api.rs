//! Scenario API integration: JSON round-trips (property-based and golden
//! files), malformed-input error messages, and the session cache's
//! no-rebuild guarantee.

use proptest::prelude::*;

use mccm::json::Json;
use mccm::scenario::{apply_override, Scenario};
use mccm::session::{Outcome, Session};
use mccm::Error;

mod common;
use common::any_scenario;

fn scenario_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios")
}

fn read_scenario(name: &str) -> String {
    let path = scenario_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Scenario -> JSON text -> Scenario` is the identity: nothing in a
    /// scenario is lost, reordered, or renormalized by serialization.
    #[test]
    fn scenario_json_round_trips(scenario in any_scenario()) {
        let text = scenario.to_json_string();
        let back = Scenario::from_json_str(&text)
            .unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert_eq!(&back, &scenario);
        // And the canonical text itself is a fixed point.
        prop_assert_eq!(back.to_json_string(), text);
    }
}

#[test]
fn golden_files_cover_all_four_actions_and_round_trip() {
    let cases = [
        ("golden_evaluate.json", "evaluate"),
        ("golden_sweep.json", "sweep"),
        ("golden_sample.json", "sample"),
        ("golden_optimize.json", "optimize"),
    ];
    for (file, action) in cases {
        let text = read_scenario(file);
        let scenario = Scenario::from_json_str(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(scenario.action.name(), action, "{file}");
        let back = Scenario::from_json_str(&scenario.to_json_string()).unwrap();
        assert_eq!(back, scenario, "{file}");
    }
}

#[test]
fn golden_scenarios_execute_through_one_session() {
    let mut session = Session::new();
    for file in [
        "golden_evaluate.json",
        "golden_sweep.json",
        "golden_sample.json",
        "golden_optimize.json",
    ] {
        let scenario = Scenario::from_json_str(&read_scenario(file)).unwrap();
        let outcome = session
            .run(&scenario)
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(outcome.action(), scenario.action.name(), "{file}");
        // The outcome JSON is parseable and self-describing.
        let json = Json::parse(&outcome.to_json_string()).unwrap();
        assert_eq!(
            json.get("action").and_then(Json::as_str),
            Some(scenario.action.name())
        );
    }
    // Four distinct contexts → no hits; sample and optimize share
    // (mobilenetv2, zc706, int8, batch 1) → one hit.
    assert_eq!(session.stats().misses, 3);
    assert_eq!(session.stats().hits, 1);
}

#[test]
fn malformed_scenarios_fail_with_named_fields() {
    let cases = [
        ("malformed_unknown_model.json", "model.zoo"),
        ("malformed_unknown_field.json", "action.sample.sample_count"),
        ("malformed_syntax.json", "JSON parse error"),
        (
            "malformed_nested_type.json",
            "scenario field `action.optimize.budget`: expected a non-negative integer",
        ),
    ];
    for (file, needle) in cases {
        let err = Scenario::from_json_str(&read_scenario(file))
            .expect_err(file)
            .to_string();
        assert!(
            err.contains(needle),
            "{file}: `{err}` should contain `{needle}`"
        );
    }
}

#[test]
fn malformed_inline_inputs_name_the_problem() {
    let cases = [
        (
            r#"{"board": {"builtin": "zc706"}, "action": {"sweep": {}}}"#,
            "scenario field `model`: required field is missing",
        ),
        (
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "vcu9000"},
                "action": {"sweep": {}}}"#,
            "vcu9000",
        ),
        (
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "zc706"},
                "precision": "fp64", "action": {"sweep": {}}}"#,
            "scenario field `precision`: unknown name `fp64`",
        ),
        (
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "zc706"},
                "action": {"sample": {"count": 0}}}"#,
            "action.sample.count",
        ),
        (
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "zc706"},
                "action": {"sample": {"count": 5, "metrics": ["speed"]}}}"#,
            "unknown metric `speed`",
        ),
        (
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "zc706"},
                "action": {"sweep": {"min_ces": 5, "max_ces": 2}}}"#,
            "scenario field `action.sweep.max_ces`: must be at least min_ces (5), got 2",
        ),
        (
            r#"{"model": {"zoo": "xception"}, "board": {"builtin": "zc706"},
                "batch": -1, "action": {"sweep": {}}}"#,
            "scenario field `batch`: expected a non-negative integer",
        ),
    ];
    for (text, needle) in cases {
        let err = Scenario::from_json_str(text).expect_err(text).to_string();
        assert!(err.contains(needle), "`{err}` should contain `{needle}`");
    }
}

/// Deletes the field at a dotted `path` (numeric segments index arrays).
fn remove_field(root: &mut Json, path: &str) {
    let (parent, key) = path.rsplit_once('.').unwrap_or(("", path));
    let mut cursor = root;
    for segment in parent.split('.').filter(|s| !s.is_empty()) {
        cursor = match cursor {
            Json::Object(pairs) => {
                let (_, value) = pairs.iter_mut().find(|(k, _)| k == segment).expect(path);
                value
            }
            Json::Array(items) => &mut items[segment.parse::<usize>().expect(path)],
            _ => panic!("{path}: cannot descend into `{segment}`"),
        };
    }
    let Json::Object(pairs) = cursor else {
        panic!("{path}: the parent is not an object")
    };
    pairs.retain(|(k, _)| k != key);
}

/// One mistyped or missing value per leaf field, put into an otherwise
/// valid document: every error names that field's full dotted path,
/// optional nested fields included.
#[test]
fn every_leaf_field_error_names_its_full_path() {
    // Every optional root, model and board field is present, so each
    // can be mistyped or removed in place.
    const FULL: &str = r#"{
        "model": {"synthetic": {"seed": 1, "conv_layers": 12, "input_size": 64,
            "base_channels": 16, "residual_prob": 0.3, "depthwise_prob": 0.3}},
        "board": {"custom": {"name": "lab", "dsps": 900, "bram_mib": 2.4,
            "bandwidth_gbps": 3.2, "clock_mhz": 200}},
        "precision": "int8", "batch": 1, "seed": 1, "workers": 0,
        "schedule": {"mode": "depth_first", "fuse_depth": 2},
        "ces": [{}, {"schedule": {"mode": "depth_first", "fuse_depth": 2}}],
        "action": {"evaluate": {"template": "hybrid", "ces": 4}}
    }"#;
    let on = |action: &str| {
        format!(
            r#"{{"model": {{"zoo": "xception"}}, "board": {{"builtin": "zc706"}},
                "action": {{{action}}}}}"#
        )
    };
    let notation = on(r#""evaluate": {"notation": "{L1-Last: CE1}"}"#);
    let sweep = on(r#""sweep": {}"#);
    let sample = on(r#""sample": {"count": 5}"#);
    let optimize = on(r#""optimize": {}"#);
    let calibrate = on(r#""calibrate": {}"#);
    const INT: &str = "expected a non-negative integer";
    const NUMBER: &str = "expected a number";
    const STRING: &str = "expected a string";
    const MISSING: &str = "required field is missing";
    const METRICS: &str = "expected an array of metric names";
    // (base document, field path, mistyped value or `None` to remove it, detail)
    let cases: [(&str, &str, Option<&str>, &str); 47] = [
        (FULL, "model", None, MISSING),
        (FULL, "board", None, MISSING),
        (FULL, "action", None, MISSING),
        (FULL, "precision", Some("8"), STRING),
        (FULL, "batch", Some(r#""4""#), INT),
        (FULL, "seed", Some("-1"), INT),
        (FULL, "workers", Some("1.5"), INT),
        (
            FULL,
            "schedule",
            Some("depth_first"),
            "expected a JSON object",
        ),
        (
            FULL,
            "ces",
            Some("{}"),
            "expected an array of per-CE override objects",
        ),
        (&sweep, "model.zoo", Some("50"), STRING),
        (FULL, "model.synthetic.seed", Some(r#""7""#), INT),
        (FULL, "model.synthetic.conv_layers", Some("true"), INT),
        (
            FULL,
            "model.synthetic.input_size",
            Some("4294967296"),
            "value does not fit in 32 bits",
        ),
        (FULL, "model.synthetic.base_channels", Some(r#""16""#), INT),
        (
            FULL,
            "model.synthetic.residual_prob",
            Some(r#""0.5""#),
            NUMBER,
        ),
        (FULL, "model.synthetic.depthwise_prob", Some("null"), NUMBER),
        (&sweep, "board.builtin", Some("706"), STRING),
        (FULL, "board.custom.name", None, MISSING),
        (FULL, "board.custom.dsps", None, MISSING),
        (FULL, "board.custom.bram_mib", None, MISSING),
        (FULL, "board.custom.bandwidth_gbps", None, MISSING),
        (FULL, "board.custom.clock_mhz", Some(r#""200""#), NUMBER),
        (FULL, "schedule.mode", None, MISSING),
        (FULL, "schedule.fuse_depth", Some(r#""2""#), INT),
        (FULL, "ces.1.schedule.mode", Some("1"), STRING),
        (FULL, "ces.1.schedule.fuse_depth", None, MISSING),
        (&notation, "action.evaluate.notation", Some("1"), STRING),
        (FULL, "action.evaluate.template", Some("1"), STRING),
        (FULL, "action.evaluate.ces", None, MISSING),
        (&sweep, "action.sweep.min_ces", Some(r#""2""#), INT),
        (&sweep, "action.sweep.max_ces", Some("-3"), INT),
        (&sample, "action.sample.count", None, MISSING),
        (&sample, "action.sample.metrics", Some("latency"), METRICS),
        (&optimize, "action.optimize.metrics", Some("{}"), METRICS),
        (&optimize, "action.optimize.budget", Some("lots"), INT),
        (&optimize, "action.optimize.population", Some("8.5"), INT),
        (&optimize, "action.optimize.islands", Some(r#""2""#), INT),
        (
            &optimize,
            "action.optimize.migration_interval",
            Some("-1"),
            INT,
        ),
        (&optimize, "action.optimize.migrants", Some("[]"), INT),
        (
            &optimize,
            "action.optimize.crossover_prob",
            Some("high"),
            NUMBER,
        ),
        (
            &optimize,
            "action.optimize.max_fuse_depth",
            Some(r#""3""#),
            INT,
        ),
        (&calibrate, "action.calibrate.metrics", Some("5"), METRICS),
        (&calibrate, "action.calibrate.budget", Some("x"), INT),
        (&calibrate, "action.calibrate.population", Some("-4"), INT),
        (&calibrate, "action.calibrate.islands", Some("0.5"), INT),
        (&calibrate, "action.calibrate.top_k", Some(r#""3""#), INT),
        (&calibrate, "action.calibrate.store", Some("1"), STRING),
    ];
    for base in [FULL, &notation, &sweep, &sample, &optimize, &calibrate] {
        Scenario::from_json_str(base).unwrap_or_else(|e| panic!("{e}: {base}"));
    }
    for (base, path, value, detail) in cases {
        let mut doc = Json::parse(base).unwrap();
        match value {
            Some(raw) => apply_override(&mut doc, path, raw).unwrap(),
            None => remove_field(&mut doc, path),
        }
        let err = Scenario::from_json(&doc).expect_err(path);
        assert_eq!(
            err.to_string(),
            format!("scenario field `{path}`: {detail}")
        );
    }
}

#[test]
fn warmed_session_reevaluates_without_rebuilding_the_context() {
    // The acceptance bar: a warmed Session re-evaluating the same
    // (model, board) pair does no builder reconstruction — asserted via
    // the cache-hit counter and the builder's context token.
    let mut session = Session::new();
    let scenario = Scenario::from_json_str(
        r#"{"model": {"zoo": "mobilenetv2"}, "board": {"builtin": "zc706"},
            "action": {"evaluate": {"template": "segmentedrr", "ces": 4}}}"#,
    )
    .unwrap();
    let first = session.run(&scenario).unwrap();
    assert_eq!(
        (session.stats().hits, session.stats().misses),
        (0, 1),
        "first run constructs the context"
    );
    let token = session
        .cached_context_token(&scenario)
        .expect("context cached");
    for round in 1..=5u64 {
        let outcome = session.run(&scenario).unwrap();
        assert_eq!(
            session.stats().hits,
            round,
            "round {round} must be a cache hit"
        );
        assert_eq!(
            session.stats().misses,
            1,
            "no context is ever reconstructed"
        );
        assert_eq!(
            session.cached_context_token(&scenario),
            Some(token),
            "the same build context keeps serving"
        );
        assert_eq!(outcome, first, "warm results are identical to cold ones");
    }
    // A different action on the same (model, board, precision, batch)
    // context is still a hit.
    let sample = Scenario::from_json_str(
        r#"{"model": {"zoo": "mobilenetv2"}, "board": {"builtin": "zc706"},
            "action": {"sample": {"count": 10}}}"#,
    )
    .unwrap();
    let Outcome::Front(front) = session.run(&sample).unwrap() else {
        panic!()
    };
    assert!(!front.front.is_empty());
    assert_eq!(session.stats().misses, 1);
    assert_eq!(session.stats().hits, 6);
}

#[test]
fn session_errors_converge_into_mccm_error() {
    let mut session = Session::new();
    // Attempt-exhaustion from dse surfaces as Error::Explore: a 1-DSP
    // board hosts no multi-CE design, so every sampling attempt is
    // infeasible and the budget runs out fast.
    let scenario = Scenario::from_json_str(
        r#"{"model": {"zoo": "mobilenetv2"},
            "board": {"custom": {"name": "tiny", "dsps": 1, "bram_mib": 0.1,
                                 "bandwidth_gbps": 0.5}},
            "action": {"sample": {"count": 100}}}"#,
    )
    .unwrap();
    match session.run(&scenario) {
        Err(Error::Explore(mccm::dse::ExploreError::AttemptsExhausted { .. })) => {}
        other => panic!("expected AttemptsExhausted, got {other:?}"),
    }
}
