//! The `mccm serve` daemon: a bounded-admission, deadline-aware,
//! panic-isolated evaluation server over the frame protocol.
//!
//! # Life of a request
//!
//! A connection handler reads one frame, classifies it (`run`, `stats`,
//! `shutdown`), and for a `run` request applies **admission control**:
//! if the daemon is draining the request is rejected with `draining`;
//! if the bounded job queue is full it is rejected with `busy` plus a
//! `retry_after_ms` hint; otherwise it is enqueued and — when a
//! `deadline_ms` came with it — its [`CancelToken`] is armed on the
//! deadline watchdog. A worker thread (each owns its own warmed
//! [`Session`]) picks the job up, parses the scenario, and executes it
//! through [`Session::run_cancellable`]; an expired deadline surfaces
//! as an honest partial outcome flagged `"degraded": true`, never as a
//! silently truncated one. The whole job runs under `catch_unwind`:
//! a panic (organic or injected by the [`FaultPlan`]) is converted to a
//! typed `internal` error response, the worker's possibly-poisoned
//! session is dropped and rebuilt, and the daemon keeps serving.
//!
//! Wall-clock time lives **only** here: the cost model, explorer, and
//! outcome JSON stay deterministic, and the serve layer confines
//! deadlines, stalls, and retry hints to its own envelope fields.
//!
//! # Accounting
//!
//! [`ServeStats`] balances exactly:
//! `received == admitted + rejected_busy + rejected_draining`, and once
//! drained `admitted == completed + degraded + failed`. The soak test
//! holds the daemon to both identities under fault injection.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::dse::{CacheStats, CancelToken};
use crate::error::{panic_text, Error};
use crate::json::Json;
use crate::scenario::{Action, Scenario};
use crate::session::{Outcome, Session};

use super::fault::{FaultPlan, FaultSite, FaultyReader};
use super::frame::{read_frame, write_frame};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, each owning one warmed [`Session`].
    pub workers: usize,
    /// Bounded admission queue: requests beyond this are rejected
    /// `busy` instead of queueing unboundedly.
    pub queue_capacity: usize,
    /// The `retry_after_ms` hint sent with `busy` rejections.
    pub retry_after_ms: u64,
    /// Context capacity of each worker's [`Session`].
    pub session_capacity: usize,
    /// How long an injected [`FaultSite::EvalStall`] sleeps.
    pub stall_ms: u64,
    /// Fault-injection schedule ([`FaultPlan::none`] in production).
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 16,
            retry_after_ms: 50,
            session_capacity: Session::DEFAULT_CAPACITY,
            stall_ms: 200,
            faults: FaultPlan::from_env(),
        }
    }
}

/// The daemon's request accounting (see the module docs for the
/// identities it maintains).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// `run` requests that arrived in a well-formed frame.
    pub received: u64,
    /// Requests that entered the job queue.
    pub admitted: u64,
    /// Requests rejected because the queue was full.
    pub rejected_busy: u64,
    /// Requests rejected because the daemon was draining.
    pub rejected_draining: u64,
    /// Admitted requests that finished completely.
    pub completed: u64,
    /// Admitted requests that hit their deadline and returned an honest
    /// partial outcome.
    pub degraded: u64,
    /// Admitted requests that returned a typed error.
    pub failed: u64,
    /// Worker panics caught, converted to `internal` errors, and
    /// recovered from by rebuilding the worker's session.
    pub panics_recovered: u64,
    /// Segment-cache and design-memo counters accumulated across every
    /// optimize request this daemon served (zeros for other actions).
    pub cache: CacheStats,
    /// Calibrate requests served (complete or degraded).
    pub calibrations: u64,
    /// New (analytical, simulated) pairs those requests banked.
    pub calibration_pairs: u64,
}

impl ServeStats {
    /// Deterministic JSON rendering (fixed key order). The
    /// `calibration` object appears only once a calibrate request has
    /// been served, so daemons that never calibrate report the exact
    /// bytes they always did.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.push("received", self.received);
        o.push("admitted", self.admitted);
        o.push("rejected_busy", self.rejected_busy);
        o.push("rejected_draining", self.rejected_draining);
        o.push("completed", self.completed);
        o.push("degraded", self.degraded);
        o.push("failed", self.failed);
        o.push("panics_recovered", self.panics_recovered);
        let mut cache = Json::object();
        cache.push("seg_hits", self.cache.seg_hits);
        cache.push("seg_misses", self.cache.seg_misses);
        cache.push("delta_recombines", self.cache.delta_recombines);
        cache.push("full_builds", self.cache.full_builds);
        cache.push("memo_hits", self.cache.memo_hits);
        o.push("cache", cache);
        if self.calibrations > 0 {
            let mut cal = Json::object();
            cal.push("requests", self.calibrations);
            cal.push("new_pairs", self.calibration_pairs);
            o.push("calibration", cal);
        }
        o
    }
}

/// What a worker hands back to the connection handler.
struct WorkReply {
    payload: Result<(Json, bool), Error>,
}

/// One admitted request.
struct Job {
    run: Json,
    cancel: CancelToken,
    reply: mpsc::Sender<WorkReply>,
}

/// State shared by handlers, workers, and the watchdog.
struct Shared {
    config: ServeConfig,
    queue: Mutex<VecDeque<Job>>,
    queue_cond: Condvar,
    /// Admitted but not yet replied-to jobs (queued + running).
    pending: AtomicUsize,
    drain_lock: Mutex<()>,
    drain_cond: Condvar,
    draining: AtomicBool,
    stop: AtomicBool,
    stats: Mutex<ServeStats>,
    watchdog: Mutex<Vec<(Instant, CancelToken)>>,
    watchdog_cond: Condvar,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    // A panic while holding one of these locks is already contained by
    // the per-request `catch_unwind`; the data is counters and queues
    // that stay consistent, so poisoning is cleared rather than spread.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn stats_snapshot(&self) -> ServeStats {
        *lock(&self.stats)
    }

    fn bump(&self, f: impl FnOnce(&mut ServeStats)) {
        f(&mut lock(&self.stats));
    }

    /// Arms the watchdog to fire `cancel` at `deadline`.
    fn arm(&self, deadline: Instant, cancel: CancelToken) {
        lock(&self.watchdog).push((deadline, cancel));
        self.watchdog_cond.notify_one();
    }

    fn job_done(&self) {
        // Stats were updated before this decrement, so pending == 0
        // implies the drained stats are final.
        self.pending.fetch_sub(1, Ordering::AcqRel);
        let _guard = lock(&self.drain_lock);
        self.drain_cond.notify_all();
    }

    fn wait_drained(&self) {
        let mut guard = lock(&self.drain_lock);
        while self.pending.load(Ordering::Acquire) > 0 {
            let (g, _timeout) = self
                .drain_cond
                .wait_timeout(guard, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
    }
}

/// A fault-tolerant evaluation daemon (see the module docs).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) without serving
    /// yet; [`Self::addr`] reports the resolved address.
    ///
    /// # Errors
    ///
    /// [`Error::Usage`] when `config.workers` exceeds
    /// [`crate::dse::max_workers`] (the cap scenario `workers` values are
    /// clamped to), checked before anything is bound; [`Error::Io`] when
    /// the address cannot be bound.
    pub fn bind(addr: &str, config: ServeConfig) -> Result<Self, Error> {
        let cap = crate::dse::max_workers();
        if config.workers > cap {
            return Err(Error::Usage(format!(
                "serve `workers` must be at most {cap} (4× the available cores), got {}",
                config.workers
            )));
        }
        let listener =
            TcpListener::bind(addr).map_err(|e| Error::io(format!("binding {addr}"), e))?;
        let local = listener
            .local_addr()
            .map_err(|e| Error::io("resolving bound address", e))?;
        Ok(Self {
            listener,
            addr: local,
            shared: Arc::new(Shared {
                config,
                queue: Mutex::new(VecDeque::new()),
                queue_cond: Condvar::new(),
                pending: AtomicUsize::new(0),
                drain_lock: Mutex::new(()),
                drain_cond: Condvar::new(),
                draining: AtomicBool::new(false),
                stop: AtomicBool::new(false),
                stats: Mutex::new(ServeStats::default()),
                watchdog: Mutex::new(Vec::new()),
                watchdog_cond: Condvar::new(),
            }),
        })
    }

    /// The resolved listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until a `shutdown` request drains the daemon; returns the
    /// final stats. Worker panics are caught per request — this loop
    /// exits only on shutdown.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the listener itself dies.
    pub fn run(self) -> Result<ServeStats, Error> {
        let shared = &self.shared;
        let workers: Vec<_> = (0..shared.config.workers.max(1))
            .map(|_| {
                let s = Arc::clone(shared);
                std::thread::spawn(move || worker_loop(&s))
            })
            .collect();
        let watchdog = {
            let s = Arc::clone(shared);
            std::thread::spawn(move || watchdog_loop(&s))
        };

        self.listener
            .set_nonblocking(true)
            .map_err(|e| Error::io("listener nonblocking", e))?;
        while !shared.stop.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let s = Arc::clone(shared);
                    // Handlers are detached: they exit when their client
                    // closes or on the first request after stop.
                    std::thread::spawn(move || handle_connection(stream, &s));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Error::io("accepting connection", e)),
            }
        }

        shared.queue_cond.notify_all();
        shared.watchdog_cond.notify_all();
        for w in workers {
            let _ = w.join();
        }
        let _ = watchdog.join();
        Ok(shared.stats_snapshot())
    }

    /// [`Self::run`] on a background thread; returns the join handle.
    /// Test and CLI convenience — the server still shuts down only via
    /// a `shutdown` request.
    pub fn spawn(self) -> std::thread::JoinHandle<Result<ServeStats, Error>> {
        std::thread::spawn(move || self.run())
    }
}

/// One worker: owns a session, drains the queue, survives panics.
fn worker_loop(shared: &Arc<Shared>) {
    let mut session = Session::with_capacity(shared.config.session_capacity);
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                q = shared
                    .queue_cond
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| execute(shared, &mut session, &job)));
        let payload = match outcome {
            Ok(Ok((json, degraded, counters))) => {
                shared.bump(|s| {
                    if degraded {
                        s.degraded += 1;
                    } else {
                        s.completed += 1;
                    }
                    s.cache.absorb(&counters.cache);
                    s.calibrations += counters.calibrations;
                    s.calibration_pairs += counters.calibration_pairs;
                });
                Ok((json, degraded))
            }
            Ok(Err(e)) => {
                shared.bump(|s| s.failed += 1);
                Err(e)
            }
            Err(panic) => {
                // The session may hold arbitrary partial state from the
                // unwound request: drop it and start cold.
                session = Session::with_capacity(shared.config.session_capacity);
                shared.bump(|s| {
                    s.failed += 1;
                    s.panics_recovered += 1;
                });
                Err(Error::internal(panic_text(&panic).map_or_else(
                    || "request panicked".to_string(),
                    |s| format!("request panicked: {s}"),
                )))
            }
        };
        shared.job_done();
        // A vanished handler (client gone) is not the worker's problem.
        let _ = job.reply.send(WorkReply { payload });
    }
}

/// Per-job counters the daemon's aggregate stats absorb: optimize
/// delta-cache counters and calibrate pair accounting (zeros for other
/// actions).
#[derive(Default)]
struct JobCounters {
    cache: CacheStats,
    calibrations: u64,
    calibration_pairs: u64,
}

/// Runs one admitted job (inside the worker's `catch_unwind`). The third
/// element carries the per-action counters so the daemon's aggregate
/// stats can absorb them.
fn execute(
    shared: &Arc<Shared>,
    session: &mut Session,
    job: &Job,
) -> Result<(Json, bool, JobCounters), Error> {
    let faults = &shared.config.faults;
    faults.maybe_panic();
    if faults.fire(FaultSite::CacheEvict) {
        session.evict_all();
    }
    let scenario = Scenario::from_json(&job.run)?;
    // A client must not make the daemon read or write a file it names.
    if let Action::Calibrate { store: Some(_), .. } = scenario.action {
        return Err(Error::scenario(
            "action.calibrate.store",
            "calibration stores are local-only; `mccm serve` never reads or writes one",
        ));
    }
    faults.maybe_stall(shared.config.stall_ms);
    let (outcome, degraded) = session.run_cancellable(&scenario, &job.cancel)?;
    let counters = match &outcome {
        Outcome::Optimized(o) => JobCounters {
            cache: o.cache,
            ..JobCounters::default()
        },
        Outcome::Calibrated(o) => JobCounters {
            calibrations: 1,
            calibration_pairs: o.new_pairs as u64,
            ..JobCounters::default()
        },
        _ => JobCounters::default(),
    };
    Ok((outcome.to_json(), degraded, counters))
}

/// Fires cancel tokens when their deadlines pass.
fn watchdog_loop(shared: &Arc<Shared>) {
    let mut armed = lock(&shared.watchdog);
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let now = Instant::now();
        armed.retain(|(deadline, cancel)| {
            if *deadline <= now {
                cancel.cancel();
                false
            } else {
                true
            }
        });
        let wait = armed
            .iter()
            .map(|(deadline, _)| deadline.saturating_duration_since(now))
            .min()
            .unwrap_or(Duration::from_millis(100))
            .min(Duration::from_millis(100));
        armed = shared
            .watchdog_cond
            .wait_timeout(armed, wait.max(Duration::from_millis(1)))
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
}

/// Reads frames off one connection until the client goes away.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let writer = stream.try_clone();
    let Ok(mut writer) = writer else {
        return;
    };
    let mut reader = FaultyReader::new(stream, shared.config.faults.clone());
    loop {
        let request = match read_frame(&mut reader) {
            Ok(Some(json)) => json,
            Ok(None) => return,
            Err(e) => {
                // Answer what can be answered, then drop the connection:
                // after a framing error the stream offset is unknowable.
                let reply = e.to_reply(None);
                let _ = write_frame(&mut writer, &reply);
                return;
            }
        };
        let response = dispatch(&request, shared);
        if write_frame(&mut writer, &response).is_err() {
            return;
        }
        if request.get("shutdown").is_some() {
            return;
        }
    }
}

/// Classifies and executes one request, producing its response frame.
fn dispatch(request: &Json, shared: &Arc<Shared>) -> Json {
    if request.get("stats").is_some() {
        let mut o = Json::object();
        o.push("ok", true);
        o.push("draining", shared.draining.load(Ordering::Acquire));
        o.push("stats", shared.stats_snapshot().to_json());
        return o;
    }
    if request.get("shutdown").is_some() {
        shared.draining.store(true, Ordering::Release);
        shared.wait_drained();
        let stats = shared.stats_snapshot();
        shared.stop.store(true, Ordering::Release);
        shared.queue_cond.notify_all();
        shared.watchdog_cond.notify_all();
        let mut o = Json::object();
        o.push("ok", true);
        o.push("drained", true);
        o.push("stats", stats.to_json());
        return o;
    }
    let id = request.get("id").and_then(Json::as_u64);
    let Some(run) = request.get("run") else {
        return Error::Protocol("request has none of `run`, `stats`, `shutdown`".to_string())
            .to_reply(id);
    };
    match run_envelope(request) {
        Ok(deadline_ms) => handle_run(id, run, deadline_ms, shared),
        Err(e) => e.to_reply(id),
    }
}

/// Checks a `run` frame's envelope and returns its deadline: the only
/// keys are `id`, `run` and `deadline_ms`, and `id`/`deadline_ms` are
/// non-negative integers, so a mistyped deadline is refused rather than
/// run with none at all.
fn run_envelope(request: &Json) -> Result<Option<u64>, Error> {
    for (key, value) in request.entries().unwrap_or_default() {
        let detail = match key.as_str() {
            "run" => continue,
            "id" | "deadline_ms" if value.as_u64().is_some() => continue,
            "id" | "deadline_ms" => {
                format!("run request key `{key}` must be a non-negative integer")
            }
            _ => format!("unknown run request key `{key}` (expected one of: id, run, deadline_ms)"),
        };
        return Err(Error::Protocol(detail));
    }
    Ok(request.get("deadline_ms").and_then(Json::as_u64))
}

/// Admission control plus the round trip through a worker.
fn handle_run(id: Option<u64>, run: &Json, deadline_ms: Option<u64>, shared: &Arc<Shared>) -> Json {
    shared.bump(|s| s.received += 1);
    if shared.draining.load(Ordering::Acquire) {
        shared.bump(|s| s.rejected_draining += 1);
        return Error::Draining.to_reply(id);
    }
    let (tx, rx) = mpsc::channel();
    let cancel = CancelToken::new();
    {
        let mut q = lock(&shared.queue);
        if q.len() >= shared.config.queue_capacity {
            drop(q);
            shared.bump(|s| s.rejected_busy += 1);
            return Error::Busy {
                retry_after_ms: shared.config.retry_after_ms,
            }
            .to_reply(id);
        }
        shared.bump(|s| s.admitted += 1);
        shared.pending.fetch_add(1, Ordering::AcqRel);
        q.push_back(Job {
            run: run.clone(),
            cancel: cancel.clone(),
            reply: tx,
        });
    }
    shared.queue_cond.notify_one();
    if let Some(ms) = deadline_ms {
        shared.arm(Instant::now() + Duration::from_millis(ms), cancel);
    }
    match rx.recv() {
        Ok(WorkReply {
            payload: Ok((outcome, degraded)),
        }) => {
            let mut o = Json::object();
            if let Some(id) = id {
                o.push("id", id);
            }
            o.push("ok", true);
            o.push("degraded", degraded);
            o.push("outcome", outcome);
            o
        }
        Ok(WorkReply { payload: Err(e) }) => e.to_reply(id),
        Err(_) => Error::internal("worker vanished before replying".to_string()).to_reply(id),
    }
}
