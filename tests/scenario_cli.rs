//! CLI-level guarantees of the scenario API: `mccm run` on every
//! checked-in scenario file is byte-identical to the equivalent legacy
//! subcommand with `--json`, batch mode covers a directory, and the
//! strict flag parser rejects misuse by name.

use mccm::cli::main_with_args;
use mccm::json::Json;
use mccm::Error;

fn run_cli(args: &[&str]) -> Result<String, Error> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    main_with_args(&args, &mut out)?;
    Ok(String::from_utf8(out).expect("CLI output is UTF-8"))
}

fn example_scenario(name: &str) -> String {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/scenarios")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// The acceptance bar: `mccm run <file> [--set ...]` produces
/// byte-identical JSON to the equivalent legacy subcommand invocation, for
/// every checked-in scenario file and for the flags no file sets.
#[test]
fn run_matches_legacy_subcommands_byte_for_byte() {
    let cases: [(&str, Vec<&str>, Vec<&str>); 7] = [
        (
            "evaluate.json",
            vec![],
            vec![
                "evaluate", "--model", "xception", "--board", "vcu110", "--arch", "hybrid",
                "--ces", "7", "--batch", "8", "--json",
            ],
        ),
        (
            "sweep.json",
            vec![],
            vec![
                "sweep",
                "--model",
                "mobilenetv2",
                "--board",
                "zcu102",
                "--min-ces",
                "2",
                "--max-ces",
                "11",
                "--json",
            ],
        ),
        (
            "sample.json",
            vec![],
            vec![
                "explore",
                "--model",
                "mobilenetv2",
                "--board",
                "zc706",
                "--samples",
                "300",
                "--seed",
                "1",
                "--json",
            ],
        ),
        (
            "optimize.json",
            vec![],
            vec![
                "optimize",
                "--model",
                "mobilenetv2",
                "--board",
                "vcu108",
                "--budget",
                "300",
                "--population",
                "16",
                "--islands",
                "2",
                "--seed",
                "1",
                "--json",
            ],
        ),
        (
            "calibrate.json",
            vec![],
            vec![
                "calibrate",
                "--model",
                "mobilenetv2",
                "--board",
                "zc706",
                "--budget",
                "300",
                "--top-k",
                "3",
                "--seed",
                "1",
                "--json",
            ],
        ),
        (
            "evaluate.json",
            vec![
                "schedule.mode=depth_first",
                "schedule.fuse_depth=2",
                "precision=int16",
            ],
            vec![
                "evaluate",
                "--model",
                "xception",
                "--board",
                "vcu110",
                "--arch",
                "hybrid",
                "--ces",
                "7",
                "--batch",
                "8",
                "--fuse-depth",
                "2",
                "--precision",
                "int16",
                "--json",
            ],
        ),
        (
            "optimize.json",
            vec![
                "action.optimize.budget=120",
                "action.optimize.population=8",
                r#"action.optimize.metrics=["latency","throughput"]"#,
                "workers=2",
                "action.optimize.max_fuse_depth=2",
            ],
            vec![
                "optimize",
                "--model",
                "mobilenetv2",
                "--board",
                "vcu108",
                "--budget",
                "120",
                "--population",
                "8",
                "--islands",
                "2",
                "--seed",
                "1",
                "--metrics",
                "Latency,throughput",
                "--workers",
                "2",
                "--max-fuse-depth",
                "2",
                "--json",
            ],
        ),
    ];
    for (file, sets, legacy) in cases {
        let path = example_scenario(file);
        let mut run = vec!["run", path.as_str()];
        for set in &sets {
            run.extend(["--set", set]);
        }
        let from_scenario = run_cli(&run).unwrap_or_else(|e| panic!("{file} {sets:?}: {e}"));
        let from_legacy = run_cli(&legacy).unwrap_or_else(|e| panic!("{legacy:?}: {e}"));
        assert_eq!(from_scenario, from_legacy, "{file} {sets:?} vs {legacy:?}");
        // And the output is valid JSON tagged with its action.
        let parsed = Json::parse(&from_scenario).unwrap();
        let action = file.strip_suffix(".json").unwrap();
        let reported = parsed.get("action").and_then(Json::as_str).unwrap();
        let expected = if action == "sample" { "sample" } else { action };
        assert_eq!(reported, expected, "{file}");
    }
}

/// The human (non-`--json`) text of each legacy subcommand, pinned byte
/// for byte against the checked-in files under `tests/human/`.
#[test]
fn human_output_is_pinned_byte_for_byte() {
    let cases = [
        (
            "evaluate.txt",
            "evaluate --model resnet50 --board zc706 --arch hybrid --ces 4 --verbose --batch 4",
        ),
        (
            "validate.txt",
            "validate --model resnet50 --board zc706 --arch segmented --ces 4",
        ),
        (
            "sweep.txt",
            "sweep --model mobilenetv2 --board zc706 --min-ces 2 --max-ces 4 --workers 1",
        ),
        (
            "explore.txt",
            "explore --model mobilenetv2 --board zc706 --samples 50 --seed 1 --workers 1",
        ),
        (
            "optimize.txt",
            "optimize --model mobilenetv2 --board zc706 --budget 200 --population 12 \
             --islands 2 --workers 1",
        ),
        (
            "calibrate.txt",
            "calibrate --model mobilenetv2 --board zc706 --budget 200 --population 12 \
             --islands 2 --top-k 3 --workers 1",
        ),
        ("models.txt", "models"),
        ("boards.txt", "boards"),
    ];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/human");
    for (file, command) in cases {
        let args: Vec<&str> = command.split_whitespace().collect();
        let expected = std::fs::read_to_string(dir.join(file)).unwrap();
        assert_eq!(run_cli(&args).unwrap(), expected, "{file}");
    }
}

#[test]
fn set_overrides_change_the_executed_scenario() {
    let path = example_scenario("evaluate.json");
    let base = run_cli(&["run", &path]).unwrap();
    let overridden = run_cli(&[
        "run",
        &path,
        "--set",
        "action.evaluate.ces=5",
        "--set",
        "model.zoo=mobilenetv2",
    ])
    .unwrap();
    assert_ne!(base, overridden);
    let parsed = Json::parse(&overridden).unwrap();
    assert_eq!(
        parsed.get("model").and_then(Json::as_str),
        Some("mobilenetv2")
    );
    assert_eq!(parsed.get("ce_count").and_then(Json::as_usize), Some(5));
    // Identical invocations are byte-identical (determinism).
    assert_eq!(base, run_cli(&["run", &path]).unwrap());
}

#[test]
fn batch_mode_runs_a_directory_with_any_worker_count() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let dir = dir.to_string_lossy().into_owned();
    let serial = run_cli(&["run", "--batch", &dir, "--workers", "1"]).unwrap();
    let parsed = Json::parse(&serial).unwrap();
    assert_eq!(parsed.get("failures").and_then(Json::as_u64), Some(0));
    assert_eq!(parsed.get("scenarios").and_then(Json::as_u64), Some(6));
    let entries = parsed.get("batch").and_then(Json::as_array).unwrap();
    // Sorted by file name, each entry carrying its outcome.
    let names: Vec<&str> = entries
        .iter()
        .map(|e| e.get("file").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        names,
        [
            "calibrate.json",
            "depth_first.json",
            "evaluate.json",
            "optimize.json",
            "sample.json",
            "sweep.json"
        ]
    );
    for entry in entries {
        assert!(entry.get("outcome").is_some(), "{entry}");
    }
    // Worker count never changes the output bytes.
    let parallel = run_cli(&["run", "--batch", &dir, "--workers", "3"]).unwrap();
    assert_eq!(serial, parallel);
}

/// The poisoned-directory regression test: a directory mixing good,
/// syntactically broken, semantically invalid, and unreadable scenarios
/// still produces one typed entry per file, runs every good scenario,
/// and exits with the dedicated `BatchPartial` code — not a generic
/// usage error, and never a crash.
#[test]
fn batch_mode_reports_per_file_errors_and_fails() {
    let tmp = std::env::temp_dir().join(format!("mccm-batch-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    std::fs::write(
        tmp.join("a_good.json"),
        r#"{"model": {"zoo": "mobilenetv2"}, "board": {"builtin": "zc706"},
            "action": {"evaluate": {"template": "segmented", "ces": 3}}}"#,
    )
    .unwrap();
    std::fs::write(tmp.join("broken.json"), "{ not json").unwrap();
    std::fs::write(
        tmp.join("unknown_model.json"),
        r#"{"model": {"zoo": "nosuchnet"}, "board": {"builtin": "zc706"},
            "action": {"sweep": {}}}"#,
    )
    .unwrap();
    std::fs::write(
        tmp.join("z_good.json"),
        r#"{"model": {"zoo": "resnet50"}, "board": {"builtin": "zcu102"},
            "action": {"evaluate": {"template": "hybrid", "ces": 4}}}"#,
    )
    .unwrap();
    let args: Vec<String> = ["run", "--batch", tmp.to_str().unwrap()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut out = Vec::new();
    let err = main_with_args(&args, &mut out).expect_err("two scenarios are broken");
    assert!(
        matches!(
            err,
            Error::BatchPartial {
                failed: 2,
                total: 4
            }
        ),
        "{err:?}"
    );
    assert_eq!(err.exit_code(), 6);
    assert!(err.to_string().contains("2 of 4"), "{err}");
    let serial = String::from_utf8(out).unwrap();
    let parsed = Json::parse(&serial).unwrap();
    assert_eq!(parsed.get("failures").and_then(Json::as_u64), Some(2));
    let entries = parsed.get("batch").and_then(Json::as_array).unwrap();
    // Entries stay sorted by file name; failures are typed objects with
    // the same kind/exit_code classification the process itself uses.
    let by_name = |name: &str| {
        entries
            .iter()
            .find(|e| e.get("file").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no entry for {name}"))
    };
    assert!(by_name("a_good.json").get("outcome").is_some());
    assert!(by_name("z_good.json").get("outcome").is_some());
    let broken = by_name("broken.json").get("error").unwrap();
    assert_eq!(broken.get("kind").and_then(Json::as_str), Some("json"));
    assert_eq!(broken.get("exit_code").and_then(Json::as_u64), Some(3));
    assert!(broken
        .get("detail")
        .and_then(Json::as_str)
        .unwrap()
        .contains("JSON"));
    let unknown = by_name("unknown_model.json").get("error").unwrap();
    assert_eq!(unknown.get("kind").and_then(Json::as_str), Some("scenario"));
    assert_eq!(unknown.get("exit_code").and_then(Json::as_u64), Some(3));
    assert!(unknown
        .get("detail")
        .and_then(Json::as_str)
        .unwrap()
        .contains("nosuchnet"));
    // Sharding across workers never changes the report bytes, even with
    // failures interleaved into the shards.
    let mut out3 = Vec::new();
    let args3: Vec<String> = ["run", "--batch", tmp.to_str().unwrap(), "--workers", "3"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    main_with_args(&args3, &mut out3).expect_err("still partial");
    assert_eq!(serial, String::from_utf8(out3).unwrap());
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn unknown_and_duplicate_flags_are_regression_locked() {
    // Unknown flag: named, with the command and its real flags listed.
    let err = run_cli(&[
        "explore", "--model", "xception", "--board", "vcu110", "--sample", "5",
    ])
    .unwrap_err()
    .to_string();
    assert!(err.contains("unknown flag `--sample`"), "{err}");
    assert!(err.contains("--samples"), "suggests the real flags: {err}");
    // Duplicate flag: named.
    let err = run_cli(&[
        "sweep", "--model", "vgg16", "--model", "vgg16", "--board", "zc706",
    ])
    .unwrap_err()
    .to_string();
    assert!(err.contains("duplicate flag `--model`"), "{err}");
    // Repeatable --set is exempt from duplicate rejection (covered by
    // set_overrides_change_the_executed_scenario), but unknown flags in
    // `run` still reject.
    let err = run_cli(&["run", "x.json", "--sets", "a=1"])
        .unwrap_err()
        .to_string();
    assert!(err.contains("unknown flag `--sets`"), "{err}");
    // Missing value.
    let err = run_cli(&["optimize", "--model"]).unwrap_err().to_string();
    assert!(err.contains("needs a value"), "{err}");
    // A non-number for a number flag is a usage error naming the flag.
    let err = run_cli(&[
        "optimize",
        "--model",
        "mobilenetv2",
        "--board",
        "zc706",
        "--budget",
        "abc",
    ])
    .unwrap_err();
    assert!(matches!(err, Error::Usage(_)), "{err:?}");
    assert_eq!(err.exit_code(), 2);
    assert!(err.to_string().contains("--budget"), "{err}");
    // String flags are never JSON-parsed: `--model 123` stays the name
    // `123` rather than becoming a number.
    let err = run_cli(&[
        "evaluate", "--model", "123", "--board", "zc706", "--arch", "hybrid", "--ces", "4",
    ])
    .unwrap_err()
    .to_string();
    assert!(err.contains("model.zoo"), "{err}");
    assert!(err.contains("unknown name `123`"), "{err}");
    // `--ces` beside `--notation` stays a usage error.
    let err = run_cli(&[
        "evaluate",
        "--model",
        "resnet50",
        "--board",
        "zc706",
        "--notation",
        "{L1-Last: CE1-CE4}",
        "--ces",
        "9",
    ])
    .unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");
}

#[test]
fn batch_runs_reject_remote_only_flags() {
    // `--deadline-ms` and `--retries` only mean something with
    // `--connect`, which `--batch` refuses: a batch run must reject them
    // with the same usage error a single-file run gets, not ignore them.
    let tmp = std::env::temp_dir().join(format!("mccm-batch-flags-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    std::fs::write(
        tmp.join("evaluate.json"),
        r#"{"model": {"zoo": "mobilenetv2"}, "board": {"builtin": "zc706"},
            "action": {"evaluate": {"template": "segmented", "ces": 3}}}"#,
    )
    .unwrap();
    let dir = tmp.to_string_lossy().into_owned();
    let single = run_cli(&["run", &example_scenario("evaluate.json"), "--retries", "9"])
        .unwrap_err()
        .to_string();
    for flags in [
        &["--deadline-ms", "5"][..],
        &["--retries", "9"],
        &["--deadline-ms", "5", "--retries", "9"],
    ] {
        let args: Vec<&str> = ["run", "--batch", &dir]
            .into_iter()
            .chain(flags.iter().copied())
            .collect();
        let err = run_cli(&args).unwrap_err();
        assert!(matches!(err, Error::Usage(_)), "{flags:?}: {err:?}");
        assert_eq!(err.to_string(), single, "{flags:?}");
    }
    std::fs::remove_dir_all(&tmp).ok();
}

/// `mccm run --connect` against a daemon prints exactly the bytes of a
/// local `mccm run`, and `mccm stats` / `mccm shutdown` speak the same
/// protocol through the CLI.
#[test]
fn connect_runs_through_a_daemon_byte_identically() {
    let server =
        mccm::serve::Server::bind("127.0.0.1:0", mccm::serve::ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let handle = server.spawn();

    let path = example_scenario("evaluate.json");
    let local = run_cli(&["run", &path]).unwrap();
    let remote = run_cli(&["run", &path, "--connect", &addr]).unwrap();
    assert_eq!(
        local, remote,
        "server responses match local runs byte-for-byte"
    );

    // `--set` overrides apply before the scenario ships to the server.
    let overridden = run_cli(&[
        "run",
        &path,
        "--connect",
        &addr,
        "--set",
        "action.evaluate.ces=5",
    ])
    .unwrap();
    assert_ne!(overridden, local);

    // Remote-only flags reject local use; `--batch` rejects `--connect`.
    let err = run_cli(&["run", &path, "--deadline-ms", "50"])
        .unwrap_err()
        .to_string();
    assert!(err.contains("--connect"), "{err}");
    let err = run_cli(&["run", "--batch", "dir", "--connect", &addr])
        .unwrap_err()
        .to_string();
    assert!(err.contains("--batch"), "{err}");

    let stats = run_cli(&["stats", "--connect", &addr]).unwrap();
    let parsed = Json::parse(&stats).unwrap();
    assert_eq!(parsed.get("draining").and_then(Json::as_bool), Some(false));
    assert_eq!(
        parsed
            .get("stats")
            .and_then(|s| s.get("completed"))
            .and_then(Json::as_u64),
        Some(2)
    );

    let shut = run_cli(&["shutdown", "--connect", &addr]).unwrap();
    let parsed = Json::parse(&shut).unwrap();
    assert_eq!(parsed.get("drained").and_then(Json::as_bool), Some(true));
    let final_stats = handle.join().unwrap().unwrap();
    assert_eq!(final_stats.completed, 2);
    assert_eq!(final_stats.panics_recovered, 0);
}

#[test]
fn run_requires_exactly_one_scenario_file() {
    let err = run_cli(&["run"]).unwrap_err().to_string();
    assert!(err.contains("scenario file"), "{err}");
    let err = run_cli(&["run", "a.json", "b.json"])
        .unwrap_err()
        .to_string();
    assert!(err.contains("exactly one"), "{err}");
    let err = run_cli(&["run", "/nonexistent/scenario.json"])
        .unwrap_err()
        .to_string();
    assert!(err.contains("reading scenario"), "{err}");
}
