//! MCCM benchmark: three seeded closed-loop workloads (`optimize`,
//! `serve`, `validate`) through the public APIs, with end-to-end metrics
//! from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! mccm-perfbench run --workload optimize --seed 1 --seconds 10 --trace 0
//! mccm-perfbench gen --workload serve --seed 1     # print the generated inputs
//! ```
//!
//! The last stdout line of `run` is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod gen;
mod layers;
mod optimize;
mod serve;
mod trace;
mod validate;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use trace::Tracer;

/// How many times set-up runs in one invocation; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 7;

/// Per-layer metrics of the traced run, in report order. `_us`/`_ms`
/// names are the mean inclusive time of the span of the same name.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("json.parse_us", "us"),
    ("json.render_us", "us"),
    ("scenario.validate_us", "us"),
    ("session.context_ms", "ms"),
    ("cnn.model_build_ms", "ms"),
    ("session.hits", "count"),
    ("session.misses", "count"),
    ("session.evictions", "count"),
    ("arch.build_us", "us"),
    ("arch.build_calls", "count"),
    ("arch.ce_context_us", "us"),
    ("arch.memo_len", "count"),
    ("core.evaluate_summary_us", "us"),
    ("core.evaluate_us", "us"),
    ("core.segment_cost_us", "us"),
    ("core.recombine_us", "us"),
    ("core.energy_us", "us"),
    ("dse.optimize_ms", "ms"),
    ("dse.seg_hits", "count"),
    ("dse.seg_misses", "count"),
    ("dse.seg_evictions", "count"),
    ("dse.delta_recombines", "count"),
    ("dse.full_builds", "count"),
    ("dse.memo_hits", "count"),
    ("dse.seg_hit_rate", "ratio"),
    ("dse.delta_share", "ratio"),
    ("dse.feasible_share", "ratio"),
    ("dse.sample_ms", "ms"),
    ("dse.sweep_ms", "ms"),
    ("dse.pareto_us", "us"),
    ("dse.hypervolume_us", "us"),
    ("sim.run_us", "us"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("calib.record_us", "us"),
    ("calib.fit_us", "us"),
    ("calib.save_ms", "ms"),
    ("calib.load_ms", "ms"),
    ("serve.frame_write_us", "us"),
    ("serve.frame_read_us", "us"),
    ("serve.wait_ms", "ms"),
    ("serve.rejected_busy", "count"),
    ("serve.failed", "count"),
    ("serve.panics_recovered", "count"),
    ("bench.self_pct", "%"),
    ("json.self_pct", "%"),
    ("scenario.self_pct", "%"),
    ("session.self_pct", "%"),
    ("cnn.self_pct", "%"),
    ("arch.self_pct", "%"),
    ("core.self_pct", "%"),
    ("dse.self_pct", "%"),
    ("sim.self_pct", "%"),
    ("calib.self_pct", "%"),
    ("serve.self_pct", "%"),
    ("trace.requests_per_s", "1/s"),
    ("trace.untraced_requests_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Root span names: time under them is the denominator of `*.self_pct`,
/// and their own self time is the benchmark's glue (`bench.self_pct`).
const ROOT_SPANS: [&str; 4] = ["setup", "request", "probe", "post"];

#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics: (name, value, unit).
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer counters and ratios not derived from spans.
    pub counters: BTreeMap<&'static str, f64>,
    /// Traced-run spans (empty when untraced).
    pub tracer: Option<Tracer>,
}

/// Latencies, completions and analytical evaluations of one timed loop.
#[derive(Default)]
pub struct LoopStats {
    pub latencies_ms: Vec<f64>,
    /// Pool index of each entry of `latencies_ms`.
    pub indices: Vec<usize>,
    /// Completion time (seconds since the phase began) and analytical
    /// evaluations of each request.
    done: Vec<(f64, u64)>,
    pub wall_s: f64,
    /// Time spent outside requests (traced-run probes), excluded from
    /// the traced request rate.
    pub probe_s: f64,
    /// Completions per rate window: the workload's unit of request mix.
    pub window: usize,
}

impl LoopStats {
    pub fn new(window: usize) -> Self {
        Self {
            window,
            ..Self::default()
        }
    }

    /// Records one completed request of pool member `idx`.
    pub fn push(&mut self, idx: usize, ms: f64, done_s: f64, evals: u64) {
        self.indices.push(idx);
        self.latencies_ms.push(ms);
        self.done.push((done_s, evals));
    }

    /// Folds another client's records of the same phase into this one.
    pub fn absorb(&mut self, other: &LoopStats, clients: usize) {
        self.latencies_ms.extend(&other.latencies_ms);
        self.indices.extend(&other.indices);
        self.done.extend(&other.done);
        self.wall_s = self.wall_s.max(other.wall_s);
        self.probe_s += other.probe_s / clients as f64;
    }

    /// Mean latency per pool member.
    fn mean_by_member(&self) -> BTreeMap<usize, f64> {
        let mut sums: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for (&i, &ms) in self.indices.iter().zip(&self.latencies_ms) {
            let e = sums.entry(i).or_default();
            e.0 += ms;
            e.1 += 1.0;
        }
        sums.into_iter().map(|(i, (sum, n))| (i, sum / n)).collect()
    }

    /// Requests per second over the whole phase, probes excluded.
    pub fn requests_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / (self.wall_s - self.probe_s).max(1e-9)
    }

    /// Median request and evaluation rates over consecutive windows of
    /// `window` completions. A window holds one unit of the request
    /// mix, and the median shrugs off bursts of host noise that a
    /// whole-run mean would absorb.
    fn windowed_rates(&self) -> (f64, f64) {
        let mut done = self.done.clone();
        done.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut requests, mut evals) = (Vec::new(), Vec::new());
        let mut from = 0.0;
        for w in done.chunks_exact(self.window.max(1)) {
            let until = w[w.len() - 1].0;
            let span = (until - from).max(1e-9);
            requests.push(w.len() as f64 / span);
            evals.push(w.iter().map(|d| d.1).sum::<u64>() as f64 / span);
            from = until;
        }
        if requests.is_empty() {
            let total: u64 = done.iter().map(|d| d.1).sum();
            return (self.requests_per_s(), total as f64 / self.wall_s.max(1e-9));
        }
        (median(&requests), median(&evals))
    }

    /// Nearest-rank percentile of the request latencies, each taken as
    /// the mean latency of its pool member over the phase. Every member
    /// repeats: the mean over repeats keeps a burst of host noise from
    /// setting the tail, and unlike a median it does not flip between
    /// host CPUs that run at different speeds.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let means = self.mean_by_member();
        let mut v: Vec<f64> = self.indices.iter().map(|i| means[i]).collect();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// The end-to-end latency and rate metrics every workload reports.
    pub fn e2e(&self, out: &mut Vec<(&'static str, f64, &'static str)>) {
        let (requests_per_s, evals_per_s) = self.windowed_rates();
        out.push(("requests_per_s", requests_per_s, "1/s"));
        out.push(("latency_p50_ms", self.percentile_ms(50.0), "ms"));
        out.push(("latency_p90_ms", self.percentile_ms(90.0), "ms"));
        out.push(("latency_p99_ms", self.percentile_ms(99.0), "ms"));
        out.push(("evals_per_s", evals_per_s, "1/s"));
    }
}

/// Simulator counters of a referee: mean events per run and host
/// nanoseconds per simulated event.
pub fn sim_counters(c: &mut BTreeMap<&'static str, f64>, referee: &layers::Referee) {
    c.insert(
        "sim.events",
        referee.events as f64 / referee.sims.max(1) as f64,
    );
    c.insert(
        "sim.ns_per_event",
        referee.sim_ns as f64 / referee.events.max(1) as f64,
    );
}

/// Request rates of the untraced and traced halves of a traced run, and
/// the tracing overhead: the request-rate gap between the halves over
/// the pool members both ran, so differing request mixes cancel out.
pub fn trace_counters(
    c: &mut BTreeMap<&'static str, f64>,
    untraced: &LoopStats,
    traced: &LoopStats,
) {
    c.insert("trace.requests_per_s", traced.requests_per_s());
    c.insert("trace.untraced_requests_per_s", untraced.requests_per_s());
    let (u, t) = (untraced.mean_by_member(), traced.mean_by_member());
    let (mut sum_u, mut sum_t) = (0.0, 0.0);
    for (i, ms) in &t {
        if let Some(base) = u.get(i) {
            sum_u += base;
            sum_t += ms;
        }
    }
    if sum_t > 0.0 {
        c.insert("trace.overhead_pct", 100.0 * (1.0 - sum_u / sum_t));
    }
}

/// Median of a non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set (VmHWM) of a process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Splits the run's measuring time: the whole of it untraced, or half
/// untraced (for the overhead baseline) and half traced.
pub fn phases(args: &Args) -> (Duration, Duration) {
    let total = Duration::from_secs_f64(args.seconds);
    if args.trace {
        (total / 2, total / 2)
    } else {
        (total, Duration::ZERO)
    }
}

fn parse_args(raw: &[String]) -> Result<(String, Args), String> {
    let mut it = raw.iter();
    let command = it.next().cloned().ok_or("missing command (run | gen)")?;
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((command, args))
}

fn layer_metrics(report: &Report) -> Vec<(String, f64, &'static str)> {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    if let Some(tracer) = &report.tracer {
        let agg = tracer.aggregate();
        for (name, a) in &agg {
            let mean_ns = a.total_ns as f64 / a.calls.max(1) as f64;
            values.insert(format!("{name}_us"), mean_ns / 1e3);
            values.insert(format!("{name}_ms"), mean_ns / 1e6);
        }
        if let Some(a) = agg.get("arch.build") {
            values.insert("arch.build_calls".into(), a.calls as f64);
        }
        let root_ns: u64 = ROOT_SPANS
            .iter()
            .filter_map(|r| agg.get(r))
            .map(|a| a.total_ns)
            .sum();
        let mut self_by_layer: BTreeMap<String, u64> = BTreeMap::new();
        for (name, a) in &agg {
            let layer = if ROOT_SPANS.contains(name) {
                "bench"
            } else {
                name.split('.').next().unwrap_or(name)
            };
            *self_by_layer.entry(layer.to_string()).or_default() += a.self_ns;
        }
        for (layer, ns) in self_by_layer {
            values.insert(
                format!("{layer}.self_pct"),
                100.0 * ns as f64 / root_ns.max(1) as f64,
            );
        }
        values.insert("trace.spans".into(), tracer.span_count() as f64);
    }
    for (k, v) in &report.counters {
        values.insert((*k).to_string(), *v);
    }
    LAYER_METRICS
        .iter()
        .map(|(name, unit)| {
            let v = values.get(*name).copied().unwrap_or(0.0);
            ((*name).to_string(), v, *unit)
        })
        .collect()
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let v = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "optimize" => optimize::run(args),
        "serve" => serve::run(args),
        "validate" => validate::run(args),
        other => Err(format!(
            "unknown workload {other:?} (optimize | serve | validate)"
        )),
    }
}

fn generate(args: &Args) -> Result<(), String> {
    let texts: Vec<String> = match args.workload.as_str() {
        "optimize" => gen::optimize_pool(args.seed)
            .into_iter()
            .map(|r| r.text)
            .collect(),
        "serve" => gen::serve_pool(args.seed)
            .into_iter()
            .map(|r| r.text)
            .collect(),
        "validate" => gen::validate_pool(args.seed)
            .iter()
            .map(|c| {
                let design = match &c.design {
                    gen::Design::Template(arch, ces) => format!(
                        "\"template\": \"{}\", \"ces\": {ces}",
                        arch.name().to_ascii_lowercase()
                    ),
                    gen::Design::Notation(text) => format!("\"notation\": \"{text}\""),
                };
                format!(
                    "{{\"model\": \"{}\", \"board\": \"{}\", {design}}}",
                    c.model, c.board
                )
            })
            .collect(),
        other => return Err(format!("unknown workload {other:?}")),
    };
    for t in texts {
        println!("{t}");
    }
    Ok(())
}

fn main() -> std::process::ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("daemon") => return serve::daemon_main(&raw[1..]),
        Some("simrate") => return layers::simrate_main(&raw[1..]),
        _ => {}
    }
    let (command, args) = match parse_args(&raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let result = match command.as_str() {
        "gen" => generate(&args).map(|()| None),
        "run" => run(&args).map(Some),
        other => Err(format!("unknown command {other:?} (run | gen)")),
    };
    let report = match result {
        Ok(Some(report)) => report,
        Ok(None) => return std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::from(1);
        }
    };
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        layer_metrics(&report)
    } else {
        report
            .e2e
            .iter()
            .map(|(n, v, u)| ((*n).to_string(), *v, *u))
            .collect()
    };
    if let Some(tracer) = &report.tracer {
        let path = std::path::Path::new(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            return std::process::ExitCode::from(1);
        }
        println!("spans: {}", path.display());
    }
    if let Some(shape) = gen::shape(&args.workload) {
        println!(
            "shape loop=closed clients={} in_flight={} scenario_workers={} daemon_workers={} connections={}",
            shape.clients, shape.in_flight, shape.scenario_workers, shape.daemon_workers, shape.connections
        );
    }
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "workload {} seed {} attempted {} failed {} failed_share {failed_share} (ratio) elapsed_s {:.1}",
        args.workload,
        args.seed,
        report.attempted,
        report.failed,
        started.elapsed().as_secs_f64()
    );
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| metric_json(n, *v, u))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    std::process::ExitCode::SUCCESS
}
