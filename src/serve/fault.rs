//! Deterministic fault injection for the serve layer.
//!
//! A [`FaultPlan`] decides, at named sites, whether to inject a fault:
//! a worker panic just before evaluation, a forced eviction of every
//! warmed context, a stall that burns a request's deadline, or a
//! transport that delivers one byte per read. Decisions come from a
//! splitmix-style hash of `(seed, site, per-site counter)` compared
//! against a per-mille rate — so a plan with a given seed produces the
//! *same* fault schedule on every run, and the soak test's assertions
//! ("the daemon survived exactly these faults") are reproducible
//! instead of flaky.
//!
//! Plans are test/env-gated: production servers run with
//! [`FaultPlan::none`] unless the `MCCM_FAULTS` environment variable
//! (`seed=7,worker_panic=120,eval_stall=80,cache_evict=50,short_read=300`,
//! rates in per-mille) or a programmatic plan says otherwise.

use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::splitmix;

/// A named place where the plan may inject a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic inside a worker, after admission, before evaluation.
    WorkerPanic,
    /// Sleep long enough to push a deadlined request past its budget.
    EvalStall,
    /// Drop every warmed context before running (cold-cache restart).
    CacheEvict,
    /// Deliver socket reads one byte at a time on the server side.
    ShortRead,
}

impl FaultSite {
    fn index(self) -> usize {
        match self {
            Self::WorkerPanic => 0,
            Self::EvalStall => 1,
            Self::CacheEvict => 2,
            Self::ShortRead => 3,
        }
    }

    fn key(self) -> &'static str {
        match self {
            Self::WorkerPanic => "worker_panic",
            Self::EvalStall => "eval_stall",
            Self::CacheEvict => "cache_evict",
            Self::ShortRead => "short_read",
        }
    }
}

const SITES: usize = 4;

#[derive(Debug, Default)]
struct PlanState {
    counters: [AtomicU64; SITES],
}

/// A deterministic, seeded fault schedule (see the module docs).
///
/// Clones share their per-site counters, so every decision point in the
/// process draws from one global schedule.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    /// Per-mille injection rate per site, indexed by [`FaultSite::index`].
    rates: [u16; SITES],
    state: Arc<PlanState>,
}

impl FaultPlan {
    /// A plan that never injects anything (the production default).
    pub fn none() -> Self {
        Self::default()
    }

    /// A seeded plan with all rates zero; chain [`Self::with_rate`].
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Sets a site's injection rate in per-mille (clamped to 1000).
    pub fn with_rate(mut self, site: FaultSite, per_mille: u16) -> Self {
        self.rates[site.index()] = per_mille.min(1000);
        self
    }

    /// Whether any site has a nonzero rate.
    pub fn is_active(&self) -> bool {
        self.rates.iter().any(|&r| r > 0)
    }

    /// Parses the `MCCM_FAULTS` environment variable. Unset or empty
    /// means no injection; a malformed value is *ignored* (a fault
    /// harness must never take the server down by itself).
    pub fn from_env() -> Self {
        match std::env::var("MCCM_FAULTS") {
            Ok(spec) => Self::parse(&spec).unwrap_or_else(Self::none),
            Err(_) => Self::none(),
        }
    }

    /// Parses a `key=value,key=value` spec (`seed` plus the site keys,
    /// rates in per-mille). Returns `None` on any malformed entry.
    pub fn parse(spec: &str) -> Option<Self> {
        let mut plan = Self::none();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part.split_once('=')?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value.parse().ok()?;
                continue;
            }
            let site = [
                FaultSite::WorkerPanic,
                FaultSite::EvalStall,
                FaultSite::CacheEvict,
                FaultSite::ShortRead,
            ]
            .into_iter()
            .find(|s| s.key() == key)?;
            let rate: u16 = value.parse().ok()?;
            plan.rates[site.index()] = rate.min(1000);
        }
        Some(plan)
    }

    /// Draws the next decision for `site`: `true` means inject. Each
    /// call advances that site's counter, so the schedule is a pure
    /// function of `(seed, site, how many times this site was asked)`.
    pub fn fire(&self, site: FaultSite) -> bool {
        let rate = self.rates[site.index()];
        if rate == 0 {
            return false;
        }
        let n = self.state.counters[site.index()].fetch_add(1, Ordering::Relaxed);
        let h = splitmix(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(site.index() as u64)
                .wrapping_add(n.wrapping_mul(0x2545_F491_4F6C_DD1D)),
        );
        (h % 1000) < u64::from(rate)
    }

    /// Panics iff the plan schedules a [`FaultSite::WorkerPanic`] now.
    /// This is the *only* intentional panic in the serve layer (see the
    /// `no-panic-serve` lint allow entry): it exists so the daemon's
    /// catch-and-rebuild path is exercised by real unwinds, not mocks.
    pub fn maybe_panic(&self) {
        if self.fire(FaultSite::WorkerPanic) {
            panic!("injected fault: worker panic");
        }
    }

    /// Sleeps `stall_ms` iff the plan schedules an [`FaultSite::EvalStall`].
    pub fn maybe_stall(&self, stall_ms: u64) {
        if self.fire(FaultSite::EvalStall) {
            std::thread::sleep(std::time::Duration::from_millis(stall_ms));
        }
    }
}

/// A reader that delivers at most one byte per call while its plan
/// keeps scheduling [`FaultSite::ShortRead`] — wrapped around server
/// sockets to prove the framing layer reassembles split frames.
pub struct FaultyReader<R> {
    inner: R,
    plan: FaultPlan,
}

impl<R: Read> FaultyReader<R> {
    /// Wraps `inner`; with an inactive plan this is a transparent pass-through.
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        Self { inner, plan }
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let take = if !buf.is_empty() && self.plan.fire(FaultSite::ShortRead) {
            1
        } else {
            buf.len()
        };
        self.inner.read(&mut buf[..take])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_rate_shaped() {
        let draws = |seed: u64, rate: u16| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed).with_rate(FaultSite::WorkerPanic, rate);
            (0..2000)
                .map(|_| plan.fire(FaultSite::WorkerPanic))
                .collect()
        };
        assert_eq!(draws(7, 100), draws(7, 100), "same seed, same schedule");
        assert_ne!(draws(7, 100), draws(8, 100), "seeds diverge");
        let hits = draws(7, 100).iter().filter(|&&b| b).count();
        // 10% nominal over 2000 draws; generous band, deterministic test.
        assert!((100..=300).contains(&hits), "{hits} hits at 100/1000");
        assert_eq!(draws(7, 0).iter().filter(|&&b| b).count(), 0);
    }

    #[test]
    fn sites_draw_independent_streams() {
        let plan = FaultPlan::seeded(3)
            .with_rate(FaultSite::WorkerPanic, 500)
            .with_rate(FaultSite::CacheEvict, 500);
        let a: Vec<bool> = (0..64).map(|_| plan.fire(FaultSite::WorkerPanic)).collect();
        let b: Vec<bool> = (0..64).map(|_| plan.fire(FaultSite::CacheEvict)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn parse_round_trips_the_documented_spec() {
        let plan = FaultPlan::parse(
            "seed=9, worker_panic=120, eval_stall=80, cache_evict=50, short_read=1000",
        )
        .expect("valid spec");
        assert!(plan.is_active());
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.rates, [120, 80, 50, 1000]);
        assert!(FaultPlan::parse("").expect("empty is a no-op plan").rates == [0; 4]);
        assert!(FaultPlan::parse("bogus=1").is_none());
        assert!(FaultPlan::parse("worker_panic=abc").is_none());
    }

    #[test]
    fn clones_share_one_schedule() {
        let plan = FaultPlan::seeded(1).with_rate(FaultSite::EvalStall, 1000);
        let twin = plan.clone();
        assert!(plan.fire(FaultSite::EvalStall));
        // The twin's counter advanced with the original's.
        assert_eq!(twin.state.counters[1].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn faulty_reader_trickles_but_loses_nothing() {
        let data: Vec<u8> = (0..=255).collect();
        let plan = FaultPlan::seeded(2).with_rate(FaultSite::ShortRead, 1000);
        let mut r = FaultyReader::new(std::io::Cursor::new(data.clone()), plan);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }
}
