//! `validate`: the paper's accuracy methodology (Table IV) through the
//! library crates. Each request builds one seeded cell, evaluates it on
//! the rich lane, simulates it, and records the (analytical, simulated)
//! pairs in a calibration store; after the loop the stores are merged,
//! fitted, saved and reloaded.
//!
//! Two client threads share the request order, so the loop keeps both
//! host CPUs busy: on a shared host one CPU can run a third slower than
//! the other for minutes, and a single thread's speed would follow
//! whichever CPU it landed on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mccm::calib::{fit_corrections, metric_pairs, sim_result_json, CalibStore, CALIBRATED_METRICS};
use mccm::core::{CostModel, EvalSummary, Metric};
use mccm::Error;

use crate::gen::{self, Cell, Design, VALIDATE_BOARDS, VALIDATE_MODELS, VALIDATE_SHAPE};
use crate::layers::{self, Contexts, Referee};
use crate::trace::Tracer;
use crate::{median, peak_rss_mib, phases, Args, LoopStats, Report, SETUP_REPEATS};

const PRECISION: &str = "int8";

struct State {
    /// One warm context cache per client thread.
    ctxs: Vec<Contexts>,
    reference: BTreeMap<String, Vec<EvalSummary>>,
}

/// What one client thread owns.
struct Client {
    ctxs: Contexts,
    referee: Referee,
    store: CalibStore,
    tracer: Tracer,
}

/// One validated design: its summary, a hash of its simulation result,
/// and its four Eq. 10 accuracies.
struct Validated {
    summary: EvalSummary,
    sim_hash: u64,
    accuracies: Vec<f64>,
}

fn validate_one(
    t: &mut Tracer,
    ctxs: &mut Contexts,
    referee: &mut Referee,
    store: &mut CalibStore,
    cell: &Cell,
) -> Result<Validated, Error> {
    let explorer = ctxs.zoo(t, cell.model, cell.board);
    t.open("arch.build");
    let spec = match &cell.design {
        Design::Template(arch, ces) => arch.instantiate(explorer.model(), *ces),
        Design::Notation(text) => mccm::arch::notation::parse(text),
    };
    let acc = spec.and_then(|spec| explorer.builder().build(&spec));
    t.close();
    let acc = acc?;
    let eval = t.span("core.evaluate", || CostModel::evaluate(&acc));
    let before = referee.accuracies.len();
    let sim = referee.check(t, &acc, &eval);
    let pairs = metric_pairs(&eval, &sim);
    t.span("calib.record", || {
        store.record(cell.board, PRECISION, cell.model, 1, &eval.notation, &pairs)
    });
    Ok(Validated {
        summary: eval.summary(),
        sim_hash: layers::text_hash(&sim_result_json(&sim).to_string_compact()),
        accuracies: referee.accuracies[before..].to_vec(),
    })
}

/// Contexts for every (model, board) key, one warm-up validation per
/// key and client, and the reference samples that bound hypervolumes.
fn setup(t: &mut Tracer) -> State {
    t.open("setup");
    let mut ctxs: Vec<Contexts> = (0..VALIDATE_SHAPE.clients)
        .map(|_| Contexts::new())
        .collect();
    let mut reference = BTreeMap::new();
    let mut scratch_store = CalibStore::new();
    for (model, board) in gen::keys(&VALIDATE_MODELS, &VALIDATE_BOARDS) {
        let warm = Cell {
            model,
            board,
            design: Design::Template(mccm::arch::Architecture::Hybrid, 4),
        };
        for c in &mut ctxs {
            let _ = validate_one(t, c, &mut Referee::default(), &mut scratch_store, &warm);
        }
        let explorer = ctxs[0].zoo(t, model, board);
        reference.insert(warm.key(), layers::reference_sample(t, explorer));
    }
    t.close();
    State { ctxs, reference }
}

/// Runs one timed phase: every client validates cells from the shared
/// order until `duration` has passed. Returns the merged loop stats and
/// the requests attempted and failed (errors, or a result that differs
/// from the cell's first).
fn load_phase(
    clients: &mut [Client],
    pool: &[Cell],
    order: &[usize],
    next: &AtomicUsize,
    firsts: &[Option<Validated>],
    duration: Duration,
) -> (LoopStats, u64, u64) {
    let logs: Vec<(LoopStats, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut stats = LoopStats::new(pool.len());
                    let (mut attempted, mut failed) = (0, 0);
                    let start = Instant::now();
                    while start.elapsed() < duration {
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        let idx = order[n % order.len()];
                        attempted += 1;
                        c.tracer.set_request(n as u64);
                        let t0 = Instant::now();
                        c.tracer.open("request");
                        let result = validate_one(
                            &mut c.tracer,
                            &mut c.ctxs,
                            &mut c.referee,
                            &mut c.store,
                            &pool[idx],
                        );
                        c.tracer.close();
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        match result {
                            Ok(v) => {
                                stats.push(idx, ms, start.elapsed().as_secs_f64(), 1);
                                let first =
                                    firsts[idx].as_ref().expect("warm-up validated every cell");
                                if first.sim_hash != v.sim_hash || first.summary != v.summary {
                                    failed += 1;
                                }
                            }
                            Err(_) => failed += 1,
                        }
                    }
                    stats.wall_s = start.elapsed().as_secs_f64();
                    (stats, attempted, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut stats = LoopStats::new(pool.len());
    let (mut attempted, mut failed) = (0, 0);
    for (log, a, f) in &logs {
        stats.absorb(log, logs.len());
        attempted += a;
        failed += f;
    }
    (stats, attempted, failed)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut t = Tracer::new(args.trace, epoch);
    let pool = gen::validate_pool(args.seed);
    let order = gen::order(args.seed, pool.len(), 1_000_000);
    let mut setups = Vec::new();
    let mut state = None;
    for i in 0..SETUP_REPEATS {
        // Spans come from the last set-up alone; the others only time it.
        t.set_enabled(args.trace && i + 1 == SETUP_REPEATS);
        let start = Instant::now();
        state = Some(setup(&mut t));
        setups.push(start.elapsed().as_secs_f64());
    }
    let State { ctxs, reference } = state.expect("set-up ran");
    let mut clients: Vec<Client> = ctxs
        .into_iter()
        .map(|ctxs| Client {
            ctxs,
            referee: Referee::default(),
            store: CalibStore::new(),
            tracer: Tracer::new(false, epoch),
        })
        .collect();

    let mut report = Report::default();
    let mut firsts: Vec<Option<Validated>> = (0..pool.len()).map(|_| None).collect();
    let (untraced, traced) = phases(args);
    // One untimed warm-up pass over the pool records every cell's first
    // result for the repeat checks and the quality metrics.
    let mut warm_referee = Referee::default();
    let first = &mut clients[0];
    for (idx, cell) in pool.iter().enumerate() {
        report.attempted += 1;
        match validate_one(
            &mut first.tracer,
            &mut first.ctxs,
            &mut warm_referee,
            &mut first.store,
            cell,
        ) {
            Ok(v) => firsts[idx] = Some(v),
            Err(_) => report.failed += 1,
        }
    }
    report.failed += warm_referee.failures;
    let next = AtomicUsize::new(pool.len());
    let (stats, attempted, failed) =
        load_phase(&mut clients, &pool, &order, &next, &firsts, untraced);
    report.attempted += attempted;
    report.failed += failed;
    let mut traced_stats = LoopStats::default();
    if args.trace {
        for c in &mut clients {
            c.tracer.set_enabled(true);
        }
        let (s, attempted, failed) =
            load_phase(&mut clients, &pool, &order, &next, &firsts, traced);
        traced_stats = s;
        report.attempted += attempted;
        report.failed += failed;
    }

    let mut referee = Referee::default();
    let mut store = CalibStore::new();
    for c in &mut clients {
        referee.absorb(&c.referee);
        store.merge(&c.store);
        t.absorb(std::mem::replace(&mut c.tracer, Tracer::new(false, epoch)));
    }
    t.open("post");
    for board in VALIDATE_BOARDS {
        let fits = t.span("calib.fit", || {
            fit_corrections(&store, board, PRECISION, &CALIBRATED_METRICS)
        });
        if fits.iter().any(|(_, c)| c.pairs == 0) {
            report.failed += 1;
        }
    }
    let dir =
        std::path::PathBuf::from(".bench_tmp").join(format!("validate-{}", std::process::id()));
    let path = dir.join("calib.json");
    let round_trip = std::fs::create_dir_all(&dir)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            t.span("calib.save", || store.save(&path))
                .map_err(|e| e.to_string())
        })
        .and_then(|()| {
            t.span("calib.load", || CalibStore::load(&path))
                .map_err(|e| e.to_string())
        });
    let _ = std::fs::remove_dir_all(&dir);
    match round_trip {
        Ok(loaded) if loaded.to_json_string() == store.to_json_string() => {}
        _ => report.failed += 1,
    }
    t.close();
    report.failed += referee.failures;

    let validated: Vec<&Validated> = firsts
        .iter()
        .map(|v| v.as_ref().expect("validated"))
        .collect();
    let accuracies: Vec<f64> = validated
        .iter()
        .flat_map(|v| v.accuracies.iter().copied())
        .collect();
    let mut hvs = Vec::new();
    for (key, reference) in &reference {
        let points: Vec<EvalSummary> = pool
            .iter()
            .zip(&validated)
            .filter(|(cell, _)| cell.key() == *key)
            .map(|(_, v)| v.summary.clone())
            .collect();
        let front = layers::front_of(&points, &Metric::WITH_ENERGY);
        hvs.push(layers::front_hv(&front, reference, &Metric::WITH_ENERGY));
    }

    let e2e = &mut report.e2e;
    e2e.push(("setup_s", median(&setups), "s"));
    stats.e2e(e2e);
    e2e.push(("sim_events_per_s", referee.events_per_s(), "1/s"));
    e2e.push(("peak_rss_mib", peak_rss_mib(None), "MiB"));
    e2e.push((
        "front_hypervolume",
        hvs.iter().sum::<f64>() / hvs.len() as f64,
        "ratio",
    ));
    e2e.push((
        "accuracy_avg_pct",
        accuracies.iter().sum::<f64>() / accuracies.len() as f64,
        "%",
    ));

    let c = &mut report.counters;
    let sum = |f: fn(&Contexts) -> u64| clients.iter().map(|cl| f(&cl.ctxs)).sum::<u64>() as f64;
    c.insert("session.hits", sum(|x| x.hits));
    c.insert("session.misses", sum(|x| x.misses));
    c.insert("session.evictions", sum(|x| x.evictions));
    c.insert("arch.memo_len", sum(|x| x.memo_len() as u64));
    crate::sim_counters(c, &referee);
    crate::trace_counters(c, &stats, &traced_stats);
    if args.trace {
        report.tracer = Some(t);
    }
    Ok(report)
}
