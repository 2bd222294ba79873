//! Cost-model configuration: evaluation-mode switches used by the
//! ablation studies, plus batch-latency semantics.

use std::error::Error;
use std::fmt;

/// Error produced when validating a [`ModelConfig`].
///
/// Carries the same `Display` + [`std::error::Error`] impls as the other
/// crates' error types, so a top-level error can wrap cost-model
/// configuration faults without stringifying them. The panicking
/// [`ModelConfig::with_bandwidth_derate`] builder remains for internal
/// callers with statically valid values; front ends use the `try_`
/// variant.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The bandwidth derate is outside `(0, 1]` (or not finite).
    BadBandwidthDerate {
        /// The rejected value.
        derate: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadBandwidthDerate { derate } => {
                write!(f, "bandwidth derate must be in (0, 1], got {derate}")
            }
        }
    }
}

impl Error for ConfigError {}

/// How pipelined-CEs block latency (Eq. 2) is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineLatencyMode {
    /// Asynchronous critical path of the row-dependency graph (default;
    /// matches FIFO-connected dataflow hardware — see `docs/design.md`).
    #[default]
    CriticalPath,
    /// Literal lockstep stage sum: every stage waits for the slowest
    /// active engine. Kept for the ablation of this design choice; it
    /// over-serializes unbalanced rounds.
    LockstepStages,
}

/// Tunable evaluation parameters.
///
/// The defaults reproduce the paper's methodology; the alternatives feed
/// the ablation benches (`cargo run -p mccm-bench -- ablation`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Pipelined-block latency evaluation mode.
    pub pipeline_latency: PipelineLatencyMode,
    /// Effective fraction of the board's off-chip bandwidth actually
    /// usable (DDR efficiency). 1.0 = nominal.
    pub bandwidth_derate: f64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            pipeline_latency: PipelineLatencyMode::default(),
            bandwidth_derate: 1.0,
        }
    }
}

impl ModelConfig {
    /// The default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches the pipelined-latency mode.
    #[must_use]
    pub fn with_pipeline_latency(mut self, mode: PipelineLatencyMode) -> Self {
        self.pipeline_latency = mode;
        self
    }

    /// Derates the off-chip bandwidth (0 < derate ≤ 1).
    ///
    /// # Panics
    ///
    /// Panics if `derate` is not in `(0, 1]`.
    #[must_use]
    pub fn with_bandwidth_derate(self, derate: f64) -> Self {
        match self.try_with_bandwidth_derate(derate) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible twin of [`Self::with_bandwidth_derate`] for
    /// machine-supplied values.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadBandwidthDerate`] when `derate` is not in
    /// `(0, 1]`.
    pub fn try_with_bandwidth_derate(mut self, derate: f64) -> Result<Self, ConfigError> {
        if !(derate > 0.0 && derate <= 1.0) {
            return Err(ConfigError::BadBandwidthDerate { derate });
        }
        self.bandwidth_derate = derate;
        Ok(self)
    }

    /// Checks the configuration as a whole (currently: the derate range).
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.bandwidth_derate > 0.0 && self.bandwidth_derate <= 1.0) {
            return Err(ConfigError::BadBandwidthDerate {
                derate: self.bandwidth_derate,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = ModelConfig::default();
        assert_eq!(c.pipeline_latency, PipelineLatencyMode::CriticalPath);
        assert_eq!(c.bandwidth_derate, 1.0);
    }

    #[test]
    fn builders_chain() {
        let c = ModelConfig::new()
            .with_pipeline_latency(PipelineLatencyMode::LockstepStages)
            .with_bandwidth_derate(0.7);
        assert_eq!(c.pipeline_latency, PipelineLatencyMode::LockstepStages);
        assert!((c.bandwidth_derate - 0.7).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "derate")]
    fn zero_derate_rejected() {
        let _ = ModelConfig::new().with_bandwidth_derate(0.0);
    }

    #[test]
    fn try_derate_returns_typed_error() {
        for bad in [0.0, -1.0, 1.5, f64::NAN, f64::INFINITY] {
            match ModelConfig::new().try_with_bandwidth_derate(bad) {
                Err(ConfigError::BadBandwidthDerate { derate }) => {
                    assert!(derate.is_nan() == bad.is_nan() && (bad.is_nan() || derate == bad));
                }
                other => panic!("expected BadBandwidthDerate for {bad}, got {other:?}"),
            }
        }
        let ok = ModelConfig::new().try_with_bandwidth_derate(0.5).unwrap();
        assert!((ok.bandwidth_derate - 0.5).abs() < 1e-12);
        assert_eq!(ok.validate(), Ok(()));
        // The trait impls mccm::Error relies on.
        let err = ModelConfig::new()
            .try_with_bandwidth_derate(2.0)
            .unwrap_err();
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("derate"));
    }
}
