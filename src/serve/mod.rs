//! `mccm serve` — a fault-tolerant evaluation daemon over a hand-rolled
//! length-prefixed JSON protocol (no HTTP stack, no async runtime; in
//! the spirit of [`crate::json`], the transport is small enough to
//! read).
//!
//! The daemon ([`Server`]) wraps a pool of [`Session`]-owning workers
//! with the four robustness mechanisms `docs/serving.md` documents:
//!
//! 1. **Admission control** — a bounded queue; overflow is rejected
//!    with a typed `busy` response carrying a `retry_after_ms` hint,
//!    which [`run_with_retry`] turns into seeded, jittered,
//!    deterministic backoff on the client.
//! 2. **Per-request deadlines** — a watchdog arms a [`CancelToken`]
//!    per deadlined request; searches observe it at their natural
//!    checkpoints and return honest partial results flagged
//!    `"degraded": true`. Wall-clock stays confined to this layer, so
//!    outcome bytes remain deterministic.
//! 3. **Panic isolation** — every request runs under `catch_unwind`;
//!    a panicking request gets a typed `internal` error, the worker's
//!    session is rebuilt, and the process keeps serving.
//! 4. **Graceful shutdown** — a `shutdown` request flips the daemon
//!    into draining (new work rejected with `draining`), waits for
//!    in-flight requests, and answers with the final balanced stats.
//!
//! All of it is provable under the deterministic fault-injection
//! harness ([`FaultPlan`]): seeded worker panics, forced cache
//! evictions, stalls, and one-byte socket reads, scheduled identically
//! on every run.
//!
//! [`Session`]: crate::session::Session
//! [`CancelToken`]: crate::dse::CancelToken

mod client;
mod daemon;
mod fault;
mod frame;

pub use client::{run_with_retry, Client, RetryPolicy, RunReply};
pub use daemon::{ServeConfig, ServeStats, Server};
pub use fault::{FaultPlan, FaultSite, FaultyReader};
pub use frame::{read_frame, write_frame, MAX_FRAME_BYTES};

/// The splitmix64 finalizer: the one seeded hash behind both the
/// client's backoff jitter and the fault plan's firing schedule.
pub(super) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
