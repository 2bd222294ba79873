//! MCCM — the Multiple-CE accelerator analytical Cost Model (§IV of the
//! paper).
//!
//! Given a [`BuiltAccelerator`](mccm_arch::BuiltAccelerator) (a CNN mapped
//! onto compute engines by `mccm-arch`), [`CostModel::evaluate`] estimates
//! in microseconds what synthesis would take hours to measure: end-to-end
//! latency, steady-state throughput, the on-chip buffer requirement, and
//! off-chip accesses — plus the fine-grained breakdowns behind the paper's
//! bottleneck analyses (per-segment compute/memory time, PE utilization,
//! and weights-vs-FMs traffic splits).
//!
//! ```
//! use mccm_arch::{templates, MultipleCeBuilder};
//! use mccm_cnn::zoo;
//! use mccm_core::{CostModel, Metric};
//! use mccm_fpga::FpgaBoard;
//!
//! # fn main() -> Result<(), mccm_arch::ArchError> {
//! let model = zoo::mobilenet_v2();
//! let builder = MultipleCeBuilder::new(&model, &FpgaBoard::zc706());
//! let acc = builder.build(&templates::hybrid(&model, 4)?)?;
//! let eval = CostModel::evaluate(&acc);
//! println!("{eval}");
//! assert!(Metric::Throughput.value(&eval.summary) > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod accuracy;
pub mod cancel;
mod config;
pub mod energy;
mod metrics;
mod model;
/// Dimensional-safety newtypes ([`quantity::Cycles`],
/// [`quantity::Bytes`], [`quantity::Macs`], …) used by every
/// model output — re-exported from the bottom-of-workspace
/// `mccm-quantity` crate so `mccm-arch` can share the same types.
pub mod quantity {
    pub use mccm_quantity::*;
}
mod report;

pub use accuracy::{accuracy_pct, AccuracyRecord, AccuracySummary};
pub use cancel::CancelToken;
pub use config::{ConfigError, ModelConfig, PipelineLatencyMode};
pub use energy::{EnergyEstimate, EnergyModel};
pub use metrics::{Metric, MetricSource};
pub use model::{CostModel, DesignCoupling, EvalScratch, SegmentCost};
pub use quantity::{Bandwidth, Bytes, Cycles, Joules, Macs, Pes, Throughput};
pub use report::{CeReport, EvalSummary, Evaluation, LayerReport, SegmentReport, SpillPolicy};
