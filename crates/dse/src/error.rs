//! Error type for design-space exploration.

use std::error::Error;
use std::fmt;

use mccm_arch::ArchError;

/// Error produced while exploring a design space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// Sampling could not find enough feasible designs within the attempt
    /// budget — the space (for this CNN/board pair) is mostly or entirely
    /// infeasible. The old code spun forever here.
    AttemptsExhausted {
        /// Feasible design points requested.
        wanted: usize,
        /// Feasible design points actually found.
        got: usize,
        /// Sampling attempts spent.
        attempts: u64,
    },
    /// A design failed to build for a reason other than infeasibility —
    /// a real builder/spec bug that must not be masked as "infeasible".
    Arch(ArchError),
    /// An exploration/optimizer configuration is unusable (empty metric
    /// set, degenerate population, zero islands, an out-of-range
    /// probability) — the typed twin of the panics `optimize` reserves
    /// for programmer error, for machine-supplied configs.
    BadConfig {
        /// What is wrong, naming the offending field.
        detail: String,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::AttemptsExhausted {
                wanted,
                got,
                attempts,
            } => write!(
                f,
                "sampling exhausted {attempts} attempts with only {got}/{wanted} feasible \
                 designs found — the space looks (mostly) infeasible for this CNN/board pair"
            ),
            Self::Arch(e) => write!(f, "design evaluation failed: {e}"),
            Self::BadConfig { detail } => write!(f, "bad exploration config: {detail}"),
        }
    }
}

impl Error for ExploreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Arch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArchError> for ExploreError {
    fn from(e: ArchError) -> Self {
        Self::Arch(e)
    }
}
