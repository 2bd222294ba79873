//! The workspace-wide error type: every crate's typed error converges
//! here, so the scenario API (and anything built on it — the CLI, a
//! serving layer) handles one `Result<_, mccm::Error>` instead of five
//! unrelated error enums.

use std::fmt;

use crate::arch::ArchError;
use crate::calib::CalibError;
use crate::cnn::CnnError;
use crate::core::ConfigError;
use crate::dse::ExploreError;
use crate::json::{Json, JsonError};
use crate::sim::SimConfigError;

/// Top-level error of the `mccm` facade.
///
/// Wraps each crate's typed error losslessly (the inner values remain
/// matchable and `source()` exposes them), plus the facade's own failure
/// modes: JSON syntax, scenario validation, CLI usage, and I/O.
#[derive(Debug)]
pub enum Error {
    /// Architecture specification / builder fault ([`ArchError`]).
    Arch(ArchError),
    /// Calibration-store fault ([`CalibError`]): unreadable, corrupt,
    /// or unwritable store file.
    Calib(CalibError),
    /// CNN construction or validation fault ([`CnnError`]).
    Cnn(CnnError),
    /// Design-space exploration fault ([`ExploreError`]).
    Explore(ExploreError),
    /// Cost-model configuration fault ([`ConfigError`]).
    ModelConfig(ConfigError),
    /// Simulator configuration fault ([`SimConfigError`]).
    SimConfig(SimConfigError),
    /// JSON syntax fault ([`JsonError`]).
    Json(JsonError),
    /// A syntactically valid scenario with invalid content: an unknown
    /// name, a missing or mistyped field, an out-of-range value.
    Scenario {
        /// Dotted path of the offending field (e.g. `model.zoo`).
        field: String,
        /// What is wrong, including valid alternatives where known.
        detail: String,
    },
    /// Command-line misuse: unknown command, unknown/duplicate/valueless
    /// flag, missing required argument.
    Usage(String),
    /// An I/O fault, with the path or operation that failed.
    Io {
        /// What was being read or written.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A server's admission queue is full; retry after the hinted delay.
    Busy {
        /// Server-suggested retry delay in milliseconds.
        retry_after_ms: u64,
    },
    /// A server is shutting down and no longer admits requests.
    Draining,
    /// A malformed frame or out-of-protocol message on a serve
    /// connection (either side).
    Protocol(String),
    /// A server executed the request and reported a failure; the
    /// server-side kind and exit code are carried verbatim so a client
    /// process can exit exactly as a local run would.
    Remote {
        /// The server-side [`Error::kind`].
        kind: String,
        /// The server-side [`Error::exit_code`].
        exit_code: u8,
        /// The server-side rendering of the error.
        detail: String,
    },
    /// A batch run where some scenarios succeeded and others failed;
    /// the per-file details live in the batch report.
    BatchPartial {
        /// Scenarios that failed.
        failed: usize,
        /// Scenarios attempted.
        total: usize,
    },
}

impl Error {
    /// Builds a [`Error::Scenario`] (convenience for the scenario
    /// parser).
    pub fn scenario(field: impl Into<String>, detail: impl Into<String>) -> Self {
        Self::Scenario {
            field: field.into(),
            detail: detail.into(),
        }
    }

    /// Builds an [`Error::Io`] tagged with its context.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        Self::Io {
            context: context.into(),
            source,
        }
    }

    /// The exit code a request that died in a panic maps to (the
    /// "internal error" row of the exit-code table). There is no enum
    /// variant for it — a panic is precisely the failure that produced
    /// no typed error — but servers report it and clients propagate it
    /// through [`Error::Remote`].
    pub const INTERNAL_EXIT_CODE: u8 = 9;

    /// The [`Error::Remote`] a request that died in a panic reports:
    /// kind `internal`, exit code [`Self::INTERNAL_EXIT_CODE`].
    pub(crate) fn internal(detail: String) -> Self {
        Self::Remote {
            kind: "internal".to_string(),
            exit_code: Self::INTERNAL_EXIT_CODE,
            detail,
        }
    }

    /// Stable machine-readable tag of the variant, used in batch reports
    /// and serve responses. One tag per variant; documented alongside
    /// the exit codes in `docs/serving.md`.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Arch(_) => "arch",
            Self::Calib(_) => "calib",
            Self::Cnn(_) => "cnn",
            Self::Explore(_) => "explore",
            Self::ModelConfig(_) => "model_config",
            Self::SimConfig(_) => "sim_config",
            Self::Json(_) => "json",
            Self::Scenario { .. } => "scenario",
            Self::Usage(_) => "usage",
            Self::Io { .. } => "io",
            Self::Busy { .. } => "busy",
            Self::Draining => "draining",
            Self::Protocol(_) => "protocol",
            Self::Remote { .. } => "remote",
            Self::BatchPartial { .. } => "batch_partial",
        }
    }

    /// The documented, stable process exit code for this error:
    ///
    /// | code | errors |
    /// |------|--------|
    /// | 2    | `Usage` |
    /// | 3    | `Scenario`, `Json` (malformed input) |
    /// | 4    | `Arch`, `Cnn`, `Explore`, `ModelConfig`, `SimConfig` (domain) |
    /// | 5    | `Io`, `Calib` (calibration-store file faults) |
    /// | 6    | `BatchPartial` |
    /// | 7    | `Busy`, `Draining` (retryable; the server is fine) |
    /// | 8    | `Protocol` |
    /// | 9    | internal error (request panicked; no variant) |
    ///
    /// `Remote` carries the server-computed code verbatim so `mccm run
    /// --connect` exits exactly as the same scenario would locally.
    /// Success is 0 and 1 is left to the runtime (e.g. a panic in main),
    /// so scripts can distinguish "mccm said no" from "mccm blew up".
    pub fn exit_code(&self) -> u8 {
        match self {
            Self::Usage(_) => 2,
            Self::Scenario { .. } | Self::Json(_) => 3,
            Self::Arch(_)
            | Self::Cnn(_)
            | Self::Explore(_)
            | Self::ModelConfig(_)
            | Self::SimConfig(_) => 4,
            Self::Io { .. } | Self::Calib(_) => 5,
            Self::BatchPartial { .. } => 6,
            Self::Busy { .. } | Self::Draining => 7,
            Self::Protocol(_) => 8,
            Self::Remote { exit_code, .. } => *exit_code,
        }
    }

    /// Whether retrying the same request later can succeed without any
    /// change on the caller's side (admission-control rejections only).
    pub fn retryable(&self) -> bool {
        matches!(self, Self::Busy { .. } | Self::Draining)
    }

    /// The wire form `{kind, exit_code[, retry_after_ms], detail}`: a
    /// batch report entry, and the `error` member of a serve reply. A
    /// `Remote` error passes its carried classification through
    /// verbatim, so scripts triage without string matching.
    pub(crate) fn to_wire(&self) -> Json {
        let (kind, detail) = match self {
            Self::Remote { kind, detail, .. } => (kind.as_str(), detail.clone()),
            other => (other.kind(), other.to_string()),
        };
        let mut o = Json::object();
        o.push("kind", kind);
        o.push("exit_code", u64::from(self.exit_code()));
        if let Self::Busy { retry_after_ms } = self {
            o.push("retry_after_ms", *retry_after_ms);
        }
        o.push("detail", detail);
        o
    }

    /// A serve error reply: `{[id,] ok: false, error: <wire form>}`.
    pub(crate) fn to_reply(&self, id: Option<u64>) -> Json {
        let mut o = Json::object();
        if let Some(id) = id {
            o.push("id", id);
        }
        o.push("ok", false);
        o.push("error", self.to_wire());
        o
    }

    /// Maps a serve error reply back to a typed error: `busy`,
    /// `draining` and `protocol` to their variants, every other kind to
    /// [`Error::Remote`]; a reply that is not an error is a protocol
    /// fault.
    pub(crate) fn from_reply(response: &Json) -> Self {
        let Some(error) = response.get("error") else {
            return Self::Protocol(format!(
                "response is neither ok nor an error: {}",
                response.to_string_compact()
            ));
        };
        let kind = error.get("kind").and_then(Json::as_str).unwrap_or("");
        let detail = error
            .get("detail")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        match kind {
            "busy" => Self::Busy {
                retry_after_ms: error
                    .get("retry_after_ms")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
            },
            "draining" => Self::Draining,
            "protocol" => Self::Protocol(detail),
            "" => Self::Protocol(format!(
                "error response without a kind: {}",
                response.to_string_compact()
            )),
            _ => Self::Remote {
                kind: kind.to_string(),
                exit_code: error
                    .get("exit_code")
                    .and_then(Json::as_u64)
                    .and_then(|c| u8::try_from(c).ok())
                    .unwrap_or(Self::INTERNAL_EXIT_CODE),
                detail,
            },
        }
    }
}

/// The text of a panic payload, for the `&str` and `String` forms that
/// `panic!` produces (practically every real panic). Takes the `Box`
/// itself: a `&Box<dyn Any>` passed as `&dyn Any` coerces the box, not
/// the payload, and every downcast misses.
pub(crate) fn panic_text(payload: &Box<dyn std::any::Any + Send>) -> Option<&str> {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Arch(e) => write!(f, "{e}"),
            Self::Calib(e) => write!(f, "{e}"),
            Self::Cnn(e) => write!(f, "{e}"),
            Self::Explore(e) => write!(f, "{e}"),
            Self::ModelConfig(e) => write!(f, "{e}"),
            Self::SimConfig(e) => write!(f, "{e}"),
            Self::Json(e) => write!(f, "{e}"),
            Self::Scenario { field, detail } => {
                write!(f, "scenario field `{field}`: {detail}")
            }
            Self::Usage(detail) => write!(f, "{detail}"),
            Self::Io { context, source } => write!(f, "{context}: {source}"),
            Self::Busy { retry_after_ms } => {
                write!(f, "server busy; retry after {retry_after_ms} ms")
            }
            Self::Draining => write!(f, "server draining; not admitting new requests"),
            Self::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            Self::Remote { kind, detail, .. } => write!(f, "remote {kind} error: {detail}"),
            Self::BatchPartial { failed, total } => {
                write!(f, "batch partially failed: {failed} of {total} scenarios")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Arch(e) => Some(e),
            Self::Calib(e) => Some(e),
            Self::Cnn(e) => Some(e),
            Self::Explore(e) => Some(e),
            Self::ModelConfig(e) => Some(e),
            Self::SimConfig(e) => Some(e),
            Self::Json(e) => Some(e),
            Self::Io { source, .. } => Some(source),
            Self::Scenario { .. }
            | Self::Usage(_)
            | Self::Busy { .. }
            | Self::Draining
            | Self::Protocol(_)
            | Self::Remote { .. }
            | Self::BatchPartial { .. } => None,
        }
    }
}

impl From<ArchError> for Error {
    fn from(e: ArchError) -> Self {
        Self::Arch(e)
    }
}

impl From<CalibError> for Error {
    fn from(e: CalibError) -> Self {
        Self::Calib(e)
    }
}

impl From<CnnError> for Error {
    fn from(e: CnnError) -> Self {
        Self::Cnn(e)
    }
}

impl From<ExploreError> for Error {
    fn from(e: ExploreError) -> Self {
        Self::Explore(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Self::ModelConfig(e)
    }
}

impl From<SimConfigError> for Error {
    fn from(e: SimConfigError) -> Self {
        Self::SimConfig(e)
    }
}

impl From<JsonError> for Error {
    fn from(e: JsonError) -> Self {
        Self::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn every_crate_error_converts_and_keeps_its_source() {
        let cases: Vec<Error> = vec![
            ArchError::EmptySpec.into(),
            CnnError::EmptyModel.into(),
            ExploreError::BadConfig {
                detail: "islands".into(),
            }
            .into(),
            ConfigError::BadBandwidthDerate { derate: 2.0 }.into(),
            SimConfigError::TooFewImages {
                images: 1,
                minimum: 3,
            }
            .into(),
            JsonError {
                offset: 3,
                detail: "x".into(),
            }
            .into(),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
            assert!(e.source().is_some(), "{e:?} should expose its source");
        }
        let s = Error::scenario("model.zoo", "unknown model");
        assert_eq!(s.to_string(), "scenario field `model.zoo`: unknown model");
        assert!(s.source().is_none());
    }

    #[test]
    fn exit_codes_match_the_documented_table() {
        let table: Vec<(Error, u8, &str)> = vec![
            (Error::Usage("bad flag".into()), 2, "usage"),
            (Error::scenario("model.zoo", "unknown"), 3, "scenario"),
            (
                JsonError {
                    offset: 0,
                    detail: "x".into(),
                }
                .into(),
                3,
                "json",
            ),
            (ArchError::EmptySpec.into(), 4, "arch"),
            (CnnError::EmptyModel.into(), 4, "cnn"),
            (
                ExploreError::BadConfig {
                    detail: "islands".into(),
                }
                .into(),
                4,
                "explore",
            ),
            (Error::io("x", std::io::Error::other("y")), 5, "io"),
            (
                CalibError::Format {
                    path: "store.json".into(),
                    detail: "missing `version`".into(),
                }
                .into(),
                5,
                "calib",
            ),
            (
                Error::BatchPartial {
                    failed: 1,
                    total: 3,
                },
                6,
                "batch_partial",
            ),
            (Error::Busy { retry_after_ms: 50 }, 7, "busy"),
            (Error::Draining, 7, "draining"),
            (Error::Protocol("short frame".into()), 8, "protocol"),
        ];
        for (e, code, kind) in &table {
            assert_eq!(e.exit_code(), *code, "{e}");
            assert_eq!(e.kind(), *kind, "{e}");
            assert!(!e.to_string().is_empty());
        }
        // Remote propagates the server-computed code verbatim.
        let remote = Error::Remote {
            kind: "arch".into(),
            exit_code: 4,
            detail: "infeasible".into(),
        };
        assert_eq!(remote.exit_code(), 4);
        assert_eq!(remote.kind(), "remote");
        // Only admission rejections are retryable.
        for (e, ..) in &table {
            assert_eq!(e.retryable(), e.exit_code() == 7, "{e}");
        }
    }

    #[test]
    fn panic_text_reads_caught_payloads() {
        let caught = |f: fn()| std::panic::catch_unwind(f).expect_err("closure panics");
        assert_eq!(panic_text(&caught(|| panic!("boom"))), Some("boom"));
        assert_eq!(panic_text(&caught(|| panic!("boom {}", 1))), Some("boom 1"));
        assert_eq!(panic_text(&caught(|| std::panic::panic_any(7u8))), None);
    }

    #[test]
    fn inner_values_stay_matchable() {
        let e: Error = ExploreError::AttemptsExhausted {
            wanted: 5,
            got: 1,
            attempts: 64,
        }
        .into();
        match e {
            Error::Explore(ExploreError::AttemptsExhausted { wanted: 5, .. }) => {}
            other => panic!("lost the inner value: {other:?}"),
        }
    }

    fn serve_reply(e: &Error) -> Json {
        e.to_reply(Some(7))
    }

    fn batch_entry(e: &Error) -> String {
        e.to_wire().to_string_compact()
    }

    fn decode(reply: &Json) -> Error {
        Error::from_reply(reply)
    }

    /// One error of every kind, with its wire object: a batch entry, and
    /// the `error` member of a serve reply.
    fn wire_cases() -> Vec<(Error, &'static str)> {
        vec![
            (
                ArchError::EmptySpec.into(),
                r#"{"kind":"arch","exit_code":4,"detail":"accelerator specification has no assignments"}"#,
            ),
            (
                CalibError::Format {
                    path: "store.json".into(),
                    detail: "missing `version`".into(),
                }
                .into(),
                r#"{"kind":"calib","exit_code":5,"detail":"calibration store `store.json`: missing `version`"}"#,
            ),
            (
                CnnError::EmptyModel.into(),
                r#"{"kind":"cnn","exit_code":4,"detail":"model has no layers"}"#,
            ),
            (
                ExploreError::BadConfig {
                    detail: "islands".into(),
                }
                .into(),
                r#"{"kind":"explore","exit_code":4,"detail":"bad exploration config: islands"}"#,
            ),
            (
                ConfigError::BadBandwidthDerate { derate: 2.0 }.into(),
                r#"{"kind":"model_config","exit_code":4,"detail":"bandwidth derate must be in (0, 1], got 2"}"#,
            ),
            (
                SimConfigError::TooFewImages {
                    images: 1,
                    minimum: 3,
                }
                .into(),
                r#"{"kind":"sim_config","exit_code":4,"detail":"simulator needs at least 3 images (first = latency, steady tail = throughput), got 1"}"#,
            ),
            (
                JsonError {
                    offset: 3,
                    detail: "expected `:`".into(),
                }
                .into(),
                r#"{"kind":"json","exit_code":3,"detail":"JSON parse error at byte 3: expected `:`"}"#,
            ),
            (
                Error::scenario("model.zoo", "unknown model \"vgg\"; try resnet50"),
                r#"{"kind":"scenario","exit_code":3,"detail":"scenario field `model.zoo`: unknown model \"vgg\"; try resnet50"}"#,
            ),
            (
                Error::Usage("flag `--x`\texpects a number".into()),
                r#"{"kind":"usage","exit_code":2,"detail":"flag `--x`\texpects a number"}"#,
            ),
            (
                Error::io("reading scenario `a.json`", std::io::Error::other("gone")),
                r#"{"kind":"io","exit_code":5,"detail":"reading scenario `a.json`: gone"}"#,
            ),
            (
                Error::Busy { retry_after_ms: 50 },
                r#"{"kind":"busy","exit_code":7,"retry_after_ms":50,"detail":"server busy; retry after 50 ms"}"#,
            ),
            (
                Error::Draining,
                r#"{"kind":"draining","exit_code":7,"detail":"server draining; not admitting new requests"}"#,
            ),
            (
                Error::Protocol("short frame".into()),
                r#"{"kind":"protocol","exit_code":8,"detail":"protocol violation: short frame"}"#,
            ),
            (
                Error::Remote {
                    kind: "internal".into(),
                    exit_code: Error::INTERNAL_EXIT_CODE,
                    detail: "request panicked: boom".into(),
                },
                r#"{"kind":"internal","exit_code":9,"detail":"request panicked: boom"}"#,
            ),
            (
                Error::Remote {
                    kind: "arch".into(),
                    exit_code: 4,
                    detail: "infeasible".into(),
                },
                r#"{"kind":"arch","exit_code":4,"detail":"infeasible"}"#,
            ),
            (
                Error::BatchPartial {
                    failed: 1,
                    total: 3,
                },
                r#"{"kind":"batch_partial","exit_code":6,"detail":"batch partially failed: 1 of 3 scenarios"}"#,
            ),
        ]
    }

    /// The kind a wire object names (a `Remote` error's carried one).
    fn wire_kind(e: &Error) -> &str {
        match e {
            Error::Remote { kind, .. } => kind,
            other => other.kind(),
        }
    }

    #[test]
    fn wire_form_pins_serve_replies_and_batch_entries() {
        for (e, wire) in wire_cases() {
            // The daemon and a batch both run local sessions: the only
            // `Remote` a serve reply carries is a panic's `internal` one,
            // and a batch entry is never `busy`.
            if !matches!(e, Error::Busy { .. }) {
                assert_eq!(batch_entry(&e), wire, "{e:?}");
            }
            if matches!(&e, Error::Remote { kind, .. } if kind != "internal") {
                continue;
            }
            let reply = serve_reply(&e);
            assert_eq!(
                reply.to_string_compact(),
                format!(r#"{{"id":7,"ok":false,"error":{wire}}}"#),
                "{e:?}"
            );
            let back = decode(&reply);
            assert_eq!(wire_kind(&back), wire_kind(&e), "{e:?}");
            assert_eq!(back.exit_code(), e.exit_code(), "{e:?}");
            if let Error::Busy { retry_after_ms } = e {
                assert!(matches!(back, Error::Busy { retry_after_ms: ms } if ms == retry_after_ms));
            }
        }
    }
}
