//! `serve`: a loopback `mccm serve` daemon (a child process running the
//! CLI's `serve` command with 2 workers) under a closed loop of 2 client
//! connections, each with one request in flight.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mccm::core::{CostModel, EvalSummary};
use mccm::json::Json;
use mccm::scenario::{Action, Scenario};
use mccm::serve::{read_frame, write_frame, Client};
use mccm::{Outcome, Session};

use crate::gen::{self, SERVE_BOARDS, SERVE_MODELS, SERVE_SHAPE};
use crate::layers::{self, Contexts, Referee, SimRate};
use crate::trace::Tracer;
use crate::{median, peak_rss_mib, phases, Args, LoopStats, Report, SETUP_REPEATS};

/// Completions per rate window: about six blocks of the request order,
/// each holding the pool's mix.
const RATE_WINDOW: usize = 50;

/// Pool members replayed in-process per simulator-rate slice after the
/// loop.
const POST_SLICE_EVERY: usize = 25;

/// Entry point of the child process: the CLI's own `serve` command.
pub fn daemon_main(_args: &[String]) -> ExitCode {
    let workers = SERVE_SHAPE.daemon_workers.to_string();
    let args: Vec<String> = ["serve", "--addr", "127.0.0.1:0", "--workers", &workers]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    match mccm::cli::main_with_args(&args, &mut std::io::stdout()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn spawn() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning daemon: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        let Some(addr) = line.trim().strip_prefix("listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not start: {line:?}"));
        };
        Ok(Self {
            addr: addr.to_string(),
            child,
            stdout,
        })
    }

    /// The daemon's `stats` object.
    fn stats(&self) -> Result<Json, String> {
        let reply = Client::connect(&self.addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| e.to_string())?;
        reply
            .get("stats")
            .cloned()
            .ok_or_else(|| "stats reply without stats".into())
    }

    /// Drains the daemon and waits for the process to exit.
    fn shutdown(&mut self) -> Result<(), String> {
        let drained = Client::connect(&self.addr).and_then(|mut c| c.shutdown());
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        drained.map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    /// A daemon left running by an error path is killed and reaped; after
    /// a clean shutdown both calls are no-ops on the exited child.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One framed round trip; the reply's outcome is checked by the caller.
fn round_trip(t: &mut Tracer, stream: &mut TcpStream, request: &Json) -> Result<Json, String> {
    t.span("serve.frame_write", || write_frame(stream, request))
        .map_err(|e| e.to_string())?;
    t.span("serve.frame_read", || read_frame(stream))
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "daemon closed the connection".to_string())
}

fn run_request(id: u64, scenario: &Json) -> Json {
    let mut request = Json::object();
    request.push("id", id);
    request.push("run", scenario.clone());
    request
}

/// Analytical evaluations behind a reply's outcome.
fn evals_of(outcome: &Json) -> u64 {
    match outcome.get("action").and_then(Json::as_str) {
        Some("sweep") => outcome
            .get("points")
            .and_then(Json::as_array)
            .map_or(0, |p| p.len() as u64),
        Some("sample") => outcome.get("evaluated").and_then(Json::as_u64).unwrap_or(0),
        _ => 1,
    }
}

struct State {
    daemon: Daemon,
    ctxs: Contexts,
    /// One replay context cache per client connection (traced run).
    client_ctxs: Vec<Contexts>,
    reference: BTreeMap<String, Vec<EvalSummary>>,
}

/// Starts the daemon, warms both workers' sessions on every key (two
/// concurrent warm-ups per key, one per connection), and draws the
/// reference samples that bound hypervolumes.
fn setup(t: &mut Tracer, traced: bool) -> Result<State, String> {
    t.open("setup");
    let daemon = t.span("serve.spawn", Daemon::spawn)?;
    let keys = gen::keys(&SERVE_MODELS, &SERVE_BOARDS);
    t.open("serve.warmup");
    let warmups: Result<Vec<()>, String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVE_SHAPE.clients)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    let mut stream = TcpStream::connect(&daemon.addr).map_err(|e| e.to_string())?;
                    let mut quiet = Tracer::new(false, Instant::now());
                    for (i, (model, board)) in keys.iter().enumerate() {
                        let text = format!(
                            "{{\"model\": {{\"zoo\": \"{model}\"}}, \"board\": {{\"builtin\": \"{board}\"}}, \
                             \"workers\": 1, \"action\": {{\"evaluate\": {{\"template\": \"hybrid\", \"ces\": 4}}}}}}"
                        );
                        let json = Json::parse(&text).map_err(|e| e.to_string())?;
                        let reply = round_trip(&mut quiet, &mut stream, &run_request(i as u64, &json))?;
                        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                            return Err(format!("warm-up failed: {}", reply.to_string_compact()));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread"))
            .collect()
    });
    t.close();
    warmups?;
    let mut ctxs = Contexts::new();
    let mut client_ctxs: Vec<Contexts> = Vec::new();
    let mut reference = BTreeMap::new();
    for (model, board) in &keys {
        let explorer = ctxs.zoo(t, model, board);
        reference.insert(
            format!("{model}|{board}"),
            layers::reference_sample(t, explorer),
        );
    }
    if traced {
        for _ in 0..SERVE_SHAPE.clients {
            let mut c = Contexts::new();
            for (model, board) in &keys {
                c.zoo(t, model, board);
            }
            client_ctxs.push(c);
        }
    }
    t.close();
    Ok(State {
        daemon,
        ctxs,
        client_ctxs,
        reference,
    })
}

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    stats: LoopStats,
    /// (pool index, hash of the pretty-printed reply outcome).
    replies: Vec<(usize, u64)>,
    failed: u64,
    waits_ms: Vec<f64>,
    tracer: Option<Tracer>,
}

fn client_loop(
    addr: &str,
    pool: &[gen::Req],
    pool_json: &[Json],
    order: &[usize],
    next: &AtomicUsize,
    phase: Phase,
    mut replay: Option<(&mut Contexts, Tracer)>,
) -> Result<ClientLog, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut log = ClientLog {
        stats: LoopStats::new(RATE_WINDOW),
        ..ClientLog::default()
    };
    let mut quiet = Tracer::new(false, Instant::now());
    while phase.start.elapsed() < phase.duration {
        let n = next.fetch_add(1, Ordering::Relaxed);
        if n >= phase.limit {
            break;
        }
        let idx = order[n];
        let request = run_request(n as u64, &pool_json[idx]);
        let t = match &mut replay {
            Some((_, t)) => t,
            None => &mut quiet,
        };
        t.set_request(n as u64);
        let t0 = Instant::now();
        t.open("request");
        let reply = round_trip(t, &mut stream, &request);
        t.close();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let outcome = match reply {
            Ok(r)
                if r.get("ok").and_then(Json::as_bool) == Some(true)
                    && r.get("degraded").and_then(Json::as_bool) != Some(true) =>
            {
                r.get("outcome").cloned()
            }
            _ => None,
        };
        let Some(outcome) = outcome else {
            log.failed += 1;
            continue;
        };
        let done = phase.start.elapsed().as_secs_f64();
        log.stats.push(idx, ms, done, evals_of(&outcome));
        let hash = layers::text_hash(&outcome.to_string_pretty());
        log.replies.push((idx, hash));
        if let Some((ctxs, t)) = &mut replay {
            let probe = Instant::now();
            t.open("probe");
            let replayed = layers::replay(t, ctxs, &pool[idx].text);
            t.close();
            let replay_ms = probe.elapsed().as_secs_f64() * 1e3;
            log.stats.probe_s += replay_ms / 1e3;
            match replayed {
                Ok(r) if layers::text_hash(&r.text) == hash => log.waits_ms.push(ms - replay_ms),
                _ => log.failed += 1,
            }
        }
    }
    log.stats.wall_s = phase.start.elapsed().as_secs_f64();
    log.tracer = replay.map(|(_, t)| t);
    Ok(log)
}

/// How long a load phase runs: until `duration` has passed or the
/// request counter reaches `limit`, whichever comes first.
#[derive(Clone, Copy)]
struct Phase {
    start: Instant,
    duration: Duration,
    limit: usize,
}

/// Runs one phase of closed-loop load over all client connections.
fn load_phase(
    state: &mut State,
    pool: &[gen::Req],
    pool_json: &[Json],
    order: &[usize],
    next: &AtomicUsize,
    (duration, limit): (Duration, usize),
    traced: Option<Instant>,
) -> Result<Vec<ClientLog>, String> {
    let addr = state.daemon.addr.clone();
    let phase = Phase {
        start: Instant::now(),
        duration,
        limit,
    };
    std::thread::scope(|s| {
        let mut client_ctxs = state.client_ctxs.iter_mut();
        let handles: Vec<_> = (0..SERVE_SHAPE.clients)
            .map(|_| {
                let replay = traced.map(|epoch| {
                    let ctxs = client_ctxs.next().expect("one context cache per client");
                    (ctxs, Tracer::new(true, epoch))
                });
                let addr = &addr;
                s.spawn(move || client_loop(addr, pool, pool_json, order, next, phase, replay))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

fn merge(logs: &[ClientLog]) -> LoopStats {
    let mut out = LoopStats::new(RATE_WINDOW);
    for log in logs {
        out.absorb(&log.stats, logs.len());
    }
    out
}

pub fn run(args: &Args) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut t = Tracer::new(args.trace, epoch);
    let pool = gen::serve_pool(args.seed);
    let pool_json: Vec<Json> = pool
        .iter()
        .map(|r| Json::parse(&r.text).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let order = gen::serve_order(args.seed, 1_000_000);
    let mut setups = Vec::new();
    let mut state: Option<State> = None;
    let mut rate = SimRate::new("serve");
    for i in 0..SETUP_REPEATS {
        // Spans come from the last set-up alone; the others only time it.
        t.set_enabled(args.trace && i + 1 == SETUP_REPEATS);
        if let Some(mut previous) = state.take() {
            previous.daemon.shutdown()?;
        }
        let start = Instant::now();
        state = Some(setup(&mut t, args.trace)?);
        setups.push(start.elapsed().as_secs_f64());
        rate.slice()?;
    }
    let mut state = state.expect("set-up ran");

    let mut report = Report::default();
    let (untraced, traced) = phases(args);
    // One untimed warm-up pass fills both workers' build memos, so the
    // timed phases see the daemon's steady state; its replies are still
    // checked.
    let next = AtomicUsize::new(0);
    let warm = (Duration::MAX, pool.len());
    let mut logs = load_phase(&mut state, &pool, &pool_json, &order, &next, warm, None)?;
    next.store(pool.len(), Ordering::Relaxed);
    let timed = (untraced, usize::MAX);
    let timed = load_phase(&mut state, &pool, &pool_json, &order, &next, timed, None)?;
    let stats = merge(&timed);
    logs.extend(timed);
    let mut traced_stats = LoopStats::default();
    let mut waits = Vec::new();
    if args.trace {
        let traced_logs = load_phase(
            &mut state,
            &pool,
            &pool_json,
            &order,
            &next,
            (traced, usize::MAX),
            Some(epoch),
        )?;
        traced_stats = merge(&traced_logs);
        for mut log in traced_logs {
            waits.extend(&log.waits_ms);
            if let Some(tracer) = log.tracer.take() {
                t.absorb(tracer);
            }
            logs.push(log);
        }
    }
    report.attempted = next.load(Ordering::Relaxed) as u64;
    let daemon_stats = state.daemon.stats()?;
    let daemon_rss = peak_rss_mib(Some(state.daemon.child.id()));
    let replay_ctxs = &state.client_ctxs;
    let session_counts = [
        replay_ctxs.iter().map(|c| c.hits).sum::<u64>(),
        replay_ctxs.iter().map(|c| c.misses).sum(),
        replay_ctxs.iter().map(|c| c.evictions).sum(),
        replay_ctxs.iter().map(|c| c.memo_len() as u64).sum(),
    ];
    let State {
        mut daemon,
        mut ctxs,
        reference,
        ..
    } = state;
    daemon.shutdown()?;

    // Every reply must equal an in-process `Session::run` of the same
    // scenario, byte for byte.
    t.open("post");
    let mut session = Session::new();
    let mut expected: Vec<Option<(u64, Outcome)>> = (0..pool.len()).map(|_| None).collect();
    for (idx, req) in pool.iter().enumerate() {
        let outcome = Scenario::from_json_str(&req.text).and_then(|s| session.run(&s));
        match outcome {
            Ok(o) => expected[idx] = Some((layers::text_hash(&o.to_json_string()), o)),
            Err(_) => report.failed += 1,
        }
        // More simulator-rate slices, spread over this phase.
        if idx % POST_SLICE_EVERY == POST_SLICE_EVERY - 1 {
            rate.slice()?;
        }
    }
    for log in &logs {
        report.failed += log.failed;
        for &(idx, hash) in &log.replies {
            if expected[idx].as_ref().map(|(h, _)| *h) != Some(hash) {
                report.failed += 1;
            }
        }
    }

    let mut hvs = Vec::new();
    let mut referee = Referee::default();
    for (req, exp) in pool.iter().zip(&expected) {
        let Some((_, outcome)) = exp else { continue };
        match outcome {
            Outcome::Front(o) => {
                hvs.push(layers::front_hv(
                    &o.front,
                    &reference[&req.key()],
                    &o.metrics,
                ));
            }
            Outcome::Evaluation(o) => {
                let scenario = Scenario::from_json_str(&req.text).map_err(|e| e.to_string())?;
                let Action::Evaluate { design } = &scenario.action else {
                    continue;
                };
                let explorer = ctxs.zoo(&mut t, req.model, req.board);
                match layers::build_design(explorer, &scenario, design) {
                    Ok(acc) => {
                        let eval = CostModel::evaluate(&acc);
                        if eval != o.eval {
                            report.failed += 1;
                        }
                        referee.check(&mut t, &acc, &eval);
                    }
                    Err(_) => report.failed += 1,
                }
            }
            _ => {}
        }
    }
    t.close();
    referee.absorb(&rate.referee);
    report.failed += referee.failures;

    let e2e = &mut report.e2e;
    e2e.push(("setup_s", median(&setups), "s"));
    stats.e2e(e2e);
    e2e.push(("sim_events_per_s", rate.referee.events_per_s(), "1/s"));
    e2e.push(("peak_rss_mib", daemon_rss, "MiB"));
    e2e.push((
        "front_hypervolume",
        hvs.iter().sum::<f64>() / hvs.len().max(1) as f64,
        "ratio",
    ));
    e2e.push(("accuracy_avg_pct", referee.accuracy_avg_pct(), "%"));

    let c = &mut report.counters;
    for (name, v) in [
        "session.hits",
        "session.misses",
        "session.evictions",
        "arch.memo_len",
    ]
    .into_iter()
    .zip(session_counts)
    {
        c.insert(name, v as f64);
    }
    for (name, key) in [
        ("serve.rejected_busy", "rejected_busy"),
        ("serve.failed", "failed"),
        ("serve.panics_recovered", "panics_recovered"),
    ] {
        let v = daemon_stats.get(key).and_then(Json::as_u64).unwrap_or(0);
        c.insert(name, v as f64);
    }
    if !waits.is_empty() {
        c.insert("serve.wait_ms", median(&waits));
    }
    crate::sim_counters(c, &referee);
    crate::trace_counters(c, &stats, &traced_stats);
    if args.trace {
        report.tracer = Some(t);
    }
    Ok(report)
}
