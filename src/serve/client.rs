//! The client side of the serve protocol: `mccm run --connect` and the
//! `stats` / `shutdown` admin commands speak through here.
//!
//! A [`Client`] is one connection; [`run_with_retry`] layers seeded,
//! jittered exponential backoff on top so `busy` rejections (the
//! daemon's admission control doing its job) are retried rather than
//! surfaced — deterministically: the backoff schedule is a pure
//! function of the [`RetryPolicy`] seed and the attempt number, so two
//! runs of the same client behave identically apart from wall-clock.

use std::net::TcpStream;
use std::time::Duration;

use crate::error::Error;
use crate::json::Json;
use crate::scenario::Scenario;

use super::frame::{read_frame, write_frame};

/// A successful `run` response.
#[derive(Debug, Clone)]
pub struct RunReply {
    /// The outcome JSON — byte-identical (after pretty-printing) to a
    /// local `mccm run` of the same scenario when not degraded.
    pub outcome: Json,
    /// Whether the server hit the request's deadline and returned an
    /// honest partial result.
    pub degraded: bool,
}

/// Retry behaviour of [`run_with_retry`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts beyond the first (0 disables retrying).
    pub retries: u32,
    /// Base backoff; attempt `k` waits `base * 2^k` plus jitter.
    pub base_ms: u64,
    /// Backoff cap.
    pub max_ms: u64,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            retries: 5,
            base_ms: 20,
            max_ms: 2000,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The exact delay before retry attempt `attempt` (0-based),
    /// honouring the server's `retry_after_ms` hint as a floor:
    /// `max(hint, min(base * 2^attempt + jitter, max))` where jitter is
    /// a deterministic draw in `[0, base)`.
    pub fn delay_ms(&self, attempt: u32, server_hint_ms: u64) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        let jitter = if self.base_ms == 0 {
            0
        } else {
            splitmix(self.seed.wrapping_add(u64::from(attempt))) % self.base_ms
        };
        exp.saturating_add(jitter)
            .min(self.max_ms)
            .max(server_hint_ms)
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One framed connection to a daemon.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the daemon is unreachable.
    pub fn connect(addr: &str) -> Result<Self, Error> {
        let stream =
            TcpStream::connect(addr).map_err(|e| Error::io(format!("connecting {addr}"), e))?;
        Ok(Self { stream, next_id: 1 })
    }

    /// Sends one request frame and reads one response frame.
    fn round_trip(&mut self, request: &Json) -> Result<Json, Error> {
        write_frame(&mut self.stream, request)?;
        read_frame(&mut self.stream)?
            .ok_or_else(|| Error::Protocol("server closed without responding".to_string()))
    }

    /// Runs a scenario remotely. `deadline_ms` arms the server-side
    /// deadline; expiry yields `Ok` with `degraded == true`.
    ///
    /// # Errors
    ///
    /// [`Error::Busy`] / [`Error::Draining`] on admission rejection
    /// (retryable — see [`run_with_retry`]), [`Error::Remote`] when the
    /// server reports a request failure, [`Error::Protocol`] /
    /// [`Error::Io`] on transport faults.
    pub fn run(
        &mut self,
        scenario: &Scenario,
        deadline_ms: Option<u64>,
    ) -> Result<RunReply, Error> {
        let mut request = Json::object();
        request.push("id", self.next_id);
        self.next_id += 1;
        request.push("run", scenario.to_json());
        if let Some(ms) = deadline_ms {
            request.push("deadline_ms", ms);
        }
        let response = self.round_trip(&request)?;
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            let outcome = response
                .get("outcome")
                .cloned()
                .ok_or_else(|| Error::Protocol("ok response without outcome".to_string()))?;
            let degraded = response
                .get("degraded")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            return Ok(RunReply { outcome, degraded });
        }
        Err(Error::from_reply(&response))
    }

    /// Fetches the daemon's stats object (plus a `draining` flag).
    ///
    /// # Errors
    ///
    /// Transport faults, or [`Error::Protocol`] on a malformed reply.
    pub fn stats(&mut self) -> Result<Json, Error> {
        let mut request = Json::object();
        request.push("stats", true);
        let response = self.round_trip(&request)?;
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            return Ok(response);
        }
        Err(Error::from_reply(&response))
    }

    /// Asks the daemon to drain and exit; returns its final response
    /// (with the drained stats embedded).
    ///
    /// # Errors
    ///
    /// Transport faults, or [`Error::Protocol`] on a malformed reply.
    pub fn shutdown(&mut self) -> Result<Json, Error> {
        let mut request = Json::object();
        request.push("shutdown", true);
        let response = self.round_trip(&request)?;
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            return Ok(response);
        }
        Err(Error::from_reply(&response))
    }
}

/// Runs a scenario with admission-control retries: each `busy`
/// rejection sleeps the policy's deterministic backoff (floored at the
/// server's hint) and reconnects. `Draining` and every other error are
/// not retried — the daemon asked the client to go away or the request
/// itself is at fault.
///
/// # Errors
///
/// The final attempt's error once retries are exhausted, or any
/// non-retryable error immediately.
pub fn run_with_retry(
    addr: &str,
    scenario: &Scenario,
    deadline_ms: Option<u64>,
    policy: &RetryPolicy,
) -> Result<RunReply, Error> {
    let mut attempt = 0u32;
    loop {
        let result = Client::connect(addr).and_then(|mut c| c.run(scenario, deadline_ms));
        match result {
            Err(Error::Busy { retry_after_ms }) if attempt < policy.retries => {
                let delay = policy.delay_ms(attempt, retry_after_ms);
                std::thread::sleep(Duration::from_millis(delay));
                attempt += 1;
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_monotone_and_hint_floored() {
        let p = RetryPolicy {
            retries: 6,
            base_ms: 10,
            max_ms: 500,
            seed: 42,
        };
        let a: Vec<u64> = (0..6).map(|k| p.delay_ms(k, 0)).collect();
        let b: Vec<u64> = (0..6).map(|k| p.delay_ms(k, 0)).collect();
        assert_eq!(a, b, "same policy, same schedule");
        for (k, d) in a.iter().enumerate() {
            let exp = 10u64 << k;
            assert!(
                (exp..exp + 10).contains(d) || *d == 500,
                "attempt {k}: delay {d} outside [{exp}, {})",
                exp + 10
            );
        }
        // The cap holds and the server hint floors the delay.
        assert_eq!(p.delay_ms(20, 0), 500);
        assert_eq!(p.delay_ms(0, 9000), 9000);
        // A different seed jitters differently (with overwhelming
        // probability over six draws).
        let q = RetryPolicy { seed: 43, ..p };
        assert_ne!(a, (0..6).map(|k| q.delay_ms(k, 0)).collect::<Vec<_>>());
    }

    #[test]
    fn decode_error_round_trips_the_wire_kinds() {
        let frame = |kind: &str, extra: &[(&str, u64)]| {
            let mut e = Json::object();
            e.push("kind", kind);
            e.push("exit_code", 7u64);
            for (k, v) in extra {
                e.push(k, *v);
            }
            e.push("detail", "d");
            let mut r = Json::object();
            r.push("ok", false);
            r.push("error", e);
            r
        };
        assert!(matches!(
            Error::from_reply(&frame("busy", &[("retry_after_ms", 30)])),
            Error::Busy { retry_after_ms: 30 }
        ));
        assert!(matches!(
            Error::from_reply(&frame("draining", &[])),
            Error::Draining
        ));
        assert!(matches!(
            Error::from_reply(&frame("protocol", &[])),
            Error::Protocol(_)
        ));
        match Error::from_reply(&frame("arch", &[])) {
            Error::Remote {
                kind, exit_code, ..
            } => {
                assert_eq!(kind, "arch");
                assert_eq!(exit_code, 7);
            }
            other => panic!("expected remote, got {other:?}"),
        }
        assert!(matches!(
            Error::from_reply(&Json::object()),
            Error::Protocol(_)
        ));
    }
}
