//! `optimize`: one warm in-process `Session`, a closed loop with one
//! request in flight, over seeded `optimize` scenarios.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mccm::core::EvalSummary;
use mccm::dse::CacheStats;
use mccm::scenario::Scenario;
use mccm::{Error, Outcome, Session};

use crate::gen::{self, Req, OPTIMIZE_BOARDS, OPTIMIZE_MODELS};
use crate::layers::{self, Contexts, Referee, SimRate};
use crate::trace::Tracer;
use crate::{median, peak_rss_mib, phases, Args, LoopStats, Report, SETUP_REPEATS};

/// Front members per outcome promoted to the simulator after the loop
/// (the calibrate action's default width).
const REFEREE_TOP_K: usize = mccm::scenario::CALIBRATE_DEFAULT_TOP_K;
/// Front members per traced request replayed through arch and core.
const PROBE_MEMBERS: usize = 4;

struct State {
    session: Session,
    ctxs: Contexts,
    reference: BTreeMap<String, Vec<EvalSummary>>,
}

/// Cold session, one warm-up request per (model, board) key, and the
/// reference samples that bound hypervolumes.
fn setup(t: &mut Tracer) -> Result<State, Error> {
    t.open("setup");
    let mut session = Session::new();
    let mut ctxs = Contexts::new();
    let mut reference = BTreeMap::new();
    for board in OPTIMIZE_BOARDS {
        for model in OPTIMIZE_MODELS {
            let warm = format!(
                "{{\"model\": {{\"zoo\": \"{model}\"}}, \"board\": {{\"builtin\": \"{board}\"}}, \
                 \"workers\": 2, \"action\": {{\"optimize\": {{\"budget\": 500, \"islands\": 2}}}}}}"
            );
            t.span("session.run", || {
                session.run(&Scenario::from_json_str(&warm)?)
            })?;
            let explorer = ctxs.zoo(t, model, board);
            reference.insert(
                format!("{model}|{board}"),
                layers::reference_sample(t, explorer),
            );
        }
    }
    t.close();
    Ok(State {
        session,
        ctxs,
        reference,
    })
}

/// First outcome per pool member; later repeats must match its bytes.
struct Firsts(Vec<Option<(u64, Outcome)>>);

impl Firsts {
    /// Records an outcome; returns 1 when it differs from the first one.
    fn record(&mut self, idx: usize, outcome: Outcome, text: &str) -> u64 {
        let hash = layers::text_hash(text);
        match &self.0[idx] {
            Some((first, _)) => u64::from(*first != hash),
            None => {
                self.0[idx] = Some((hash, outcome));
                0
            }
        }
    }
}

fn optimized(o: &Outcome) -> &mccm::session::OptimizeOutcome {
    match o {
        Outcome::Optimized(o) => o,
        _ => unreachable!("optimize pool yields optimize outcomes"),
    }
}

fn run_session(session: &mut Session, req: &Req) -> Result<(Outcome, String), Error> {
    let scenario = Scenario::from_json_str(&req.text)?;
    let outcome = session.run(&scenario)?;
    let text = outcome.to_json_string();
    Ok((outcome, text))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut t = Tracer::new(args.trace, Instant::now());
    let pool = gen::optimize_pool(args.seed);
    let order = gen::order(args.seed, pool.len(), 100_000);
    let mut setups = Vec::new();
    let mut state = None;
    let mut rate = SimRate::new("optimize");
    for i in 0..SETUP_REPEATS {
        // Spans come from the last set-up alone; the others only time it.
        t.set_enabled(args.trace && i + 1 == SETUP_REPEATS);
        let start = Instant::now();
        state = Some(setup(&mut t).map_err(|e| format!("set-up: {e}"))?);
        setups.push(start.elapsed().as_secs_f64());
        rate.slice()?;
    }
    let State {
        mut session,
        mut ctxs,
        reference,
    } = state.expect("set-up ran");

    let mut firsts = Firsts((0..pool.len()).map(|_| None).collect());
    let mut report = Report::default();
    let (untraced, traced) = phases(args);

    // One untimed warm-up pass: the session's build memos fill, and every
    // member's first outcome is recorded for the repeat checks and the
    // quality metrics.
    for (idx, req) in pool.iter().enumerate() {
        report.attempted += 1;
        match run_session(&mut session, req) {
            Ok((outcome, text)) => report.failed += firsts.record(idx, outcome, &text),
            Err(_) => report.failed += 1,
        }
    }
    let mut next = pool.len();

    // Each phase runs whole passes over the pool, so every run measures
    // the same request mix. A simulator-rate slice follows each pass, with
    // the loop's clock paused.
    let mut stats = LoopStats::new(pool.len());
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    while start.elapsed() - paused < untraced || !next.is_multiple_of(pool.len()) {
        let idx = order[next];
        next += 1;
        report.attempted += 1;
        let t0 = Instant::now();
        let result = run_session(&mut session, &pool[idx]);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok((outcome, text)) => {
                let done = (start.elapsed() - paused).as_secs_f64();
                stats.push(idx, ms, done, optimized(&outcome).feasible);
                report.failed += firsts.record(idx, outcome, &text);
            }
            Err(_) => report.failed += 1,
        }
        if next.is_multiple_of(pool.len()) {
            let slice = Instant::now();
            rate.slice()?;
            paused += slice.elapsed();
        }
    }
    stats.wall_s = (start.elapsed() - paused).as_secs_f64();

    let mut traced_stats = LoopStats::new(pool.len());
    if args.trace {
        let start = Instant::now();
        while start.elapsed() < traced || !next.is_multiple_of(pool.len()) {
            let idx = order[next];
            next += 1;
            report.attempted += 1;
            let req = &pool[idx];
            t.set_request(next as u64);
            t.open("request");
            let result = layers::replay(&mut t, &mut ctxs, &req.text);
            let ns = t.close();
            let Ok(replayed) = result else {
                report.failed += 1;
                continue;
            };
            let probe = Instant::now();
            t.open("probe");
            {
                let o = optimized(&replayed.outcome);
                let done = start.elapsed().as_secs_f64();
                traced_stats.push(idx, ns as f64 / 1e6, done, o.feasible);
                let explorer = ctxs.zoo(&mut t, req.model, req.board);
                let members = &o.front[..o.front.len().min(PROBE_MEMBERS)];
                report.failed += layers::probe_front(&mut t, explorer, members);
                let reference = &reference[&req.key()];
                t.span("dse.hypervolume", || {
                    layers::front_hv(&o.front, reference, &o.metrics)
                });
            }
            t.close();
            traced_stats.probe_s += probe.elapsed().as_secs_f64();
            report.failed += firsts.record(idx, replayed.outcome, &replayed.text);
        }
        traced_stats.wall_s = start.elapsed().as_secs_f64();
    }

    t.open("post");
    let mut referee = Referee::default();
    let mut cache = CacheStats::default();
    let (mut evaluations, mut feasible) = (0u64, 0u64);
    let mut hvs = Vec::new();
    for (req, first) in pool.iter().zip(&firsts.0) {
        let o = optimized(&first.as_ref().expect("every member ran").1);
        cache.absorb(&o.cache);
        evaluations += o.evaluations;
        feasible += o.feasible;
        hvs.push(layers::front_hv(
            &o.front,
            &reference[&req.key()],
            &o.metrics,
        ));
        let explorer = ctxs.zoo(&mut t, req.model, req.board);
        referee.check_front(&mut t, explorer, &o.front, &o.metrics, REFEREE_TOP_K);
    }
    t.close();
    referee.absorb(&rate.referee);
    report.failed += referee.failures;

    let e2e = &mut report.e2e;
    e2e.push(("setup_s", median(&setups), "s"));
    stats.e2e(e2e);
    e2e.push(("sim_events_per_s", rate.referee.events_per_s(), "1/s"));
    e2e.push(("peak_rss_mib", peak_rss_mib(None), "MiB"));
    e2e.push((
        "front_hypervolume",
        hvs.iter().sum::<f64>() / hvs.len() as f64,
        "ratio",
    ));
    e2e.push(("accuracy_avg_pct", referee.accuracy_avg_pct(), "%"));

    let c = &mut report.counters;
    let session_stats = session.stats();
    c.insert("session.hits", session_stats.hits as f64);
    c.insert("session.misses", session_stats.misses as f64);
    c.insert("session.evictions", session_stats.evictions as f64);
    c.insert("arch.memo_len", ctxs.memo_len() as f64);
    c.insert("dse.seg_hits", cache.seg_hits as f64);
    c.insert("dse.seg_misses", cache.seg_misses as f64);
    c.insert("dse.seg_evictions", cache.seg_evictions as f64);
    c.insert("dse.delta_recombines", cache.delta_recombines as f64);
    c.insert("dse.full_builds", cache.full_builds as f64);
    c.insert("dse.memo_hits", cache.memo_hits as f64);
    c.insert("dse.seg_hit_rate", cache.seg_hit_rate());
    c.insert(
        "dse.delta_share",
        cache.delta_recombines as f64 / feasible.max(1) as f64,
    );
    c.insert(
        "dse.feasible_share",
        feasible as f64 / evaluations.max(1) as f64,
    );
    crate::sim_counters(c, &referee);
    crate::trace_counters(c, &stats, &traced_stats);
    if args.trace {
        report.tracer = Some(t);
    }
    Ok(report)
}
