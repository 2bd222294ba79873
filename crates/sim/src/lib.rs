//! Event-driven reference simulator for multiple-CE CNN accelerators — the
//! synthesis surrogate used to validate the MCCM analytical model.
//!
//! The paper validates its cost model against Vitis HLS synthesis results
//! (~1 hour per design). This crate plays that role with a deterministic
//! tile-level discrete-event simulator of the *same* built accelerator: it
//! executes the builder's design-time decisions mechanistically, modeling
//! the second-order effects the analytical model abstracts away —
//! serialized DMA with per-transfer latency and burst occupancy, per-tile
//! control overhead, in-order engines, pipeline fill/drain, and
//! cross-image resource contention. Model-vs-simulator accuracy (Eq. 10)
//! is therefore a genuine measurement, while off-chip access counts match
//! exactly (they are architecturally deterministic, as in the paper).
//!
//! ```
//! use mccm_arch::{templates, MultipleCeBuilder};
//! use mccm_cnn::zoo;
//! use mccm_core::CostModel;
//! use mccm_fpga::FpgaBoard;
//! use mccm_sim::{SimConfig, Simulator};
//!
//! # fn main() -> Result<(), mccm_arch::ArchError> {
//! let model = zoo::mobilenet_v2();
//! let builder = MultipleCeBuilder::new(&model, &FpgaBoard::vcu108());
//! let acc = builder.build(&templates::segmented(&model, 3)?)?;
//! let eval = CostModel::evaluate(&acc);
//! let sim = Simulator::new(SimConfig::default()).run_with_eval(&acc, &eval);
//! // Deterministic traffic matches exactly; timing is independent.
//! assert_eq!(sim.offchip_bytes, eval.offchip_bytes.get());
//! # Ok(())
//! # }
//! ```
//!
//! # Layout
//!
//! The public surface is [`Simulator`], [`SimConfig`] and [`SimResult`];
//! the rest is private and free to change as long as results stay bit
//! for bit the same (`tests/digest.rs` pins every result field over a
//! grid of designs and configurations).
//!
//! - `workload` expands a built accelerator into one image's tile graph:
//!   the tiles, their dependencies and their dependents as flat
//!   offset/target tables, and each engine's tile order. It is built once
//!   per run and shared by every simulated image.
//! - `engine` holds the event queue, a small array scanned for the
//!   earliest `(time, seq)` (it never holds more than one event per
//!   engine plus one DMA transfer), and the FIFO DMA channel.
//! - `sim` runs the image stream. All run state lives in the call, so
//!   concurrent runs share nothing, and the loop allocates nothing per
//!   event.

#![warn(missing_docs)]

mod config;
mod engine;
mod result;
#[allow(clippy::module_inception)]
mod sim;
mod workload;

pub use config::{SimConfig, SimConfigError};
pub use result::SimResult;
pub use sim::Simulator;
