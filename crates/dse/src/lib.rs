//! Design-space exploration for multiple-CE CNN accelerators on top of the
//! MCCM cost model.
//!
//! Implements the machinery behind the paper's Use Cases 1 and 3: baseline
//! sweeps over the three state-of-the-art architectures and CE counts
//! (Table V, Figs. 5/8), best-architecture selection with the 10% tie rule,
//! incremental Pareto-front extraction, and seeded random sampling of the
//! custom Hybrid-head/Segmented-tail space whose fast evaluation the paper
//! showcases (Fig. 10: 100 000 designs in minutes).
//!
//! Each sweep has one entry point per lane, taking a worker count:
//! `workers = 1` runs inline on the calling thread, `0` uses one thread
//! per core, and every count returns bit-identical results (see
//! [`crate::Explorer`] and the `parallel` module docs). The custom space
//! is walked two ways only, both seeded: random sampling
//! ([`sample_attempt`]) and the guided optimizer
//! ([`Explorer::optimize_par`]); [`CustomSpace::size`] reports how large
//! it is (above 10^9 designs for Xception, far beyond exhaustive walks).
//!
//! Sampled custom designs (`par_sample_custom_summaries`) run on one
//! lane, the **summary fast lane**: per-worker `EvalScratch` buffers
//! feed `CostModel::evaluate_summary`, whose output is bit-identical to
//! `evaluate(...).summary` but skips all report construction. A design that needs its per-segment /
//! per-layer breakdown goes through [`Explorer::evaluate`] on its own.
//!
//! ```
//! use mccm_cnn::zoo;
//! use mccm_dse::{select_all_metrics, Explorer, PAPER_TIE_FRAC};
//! use mccm_fpga::FpgaBoard;
//!
//! let model = zoo::mobilenet_v2();
//! let explorer = Explorer::new(&model, &FpgaBoard::zc706());
//! let sweep = explorer.par_sweep_baselines(2..=11, 2).unwrap();
//! assert_eq!(sweep, explorer.par_sweep_baselines(2..=11, 1).unwrap());
//! for cell in select_all_metrics(&sweep, PAPER_TIE_FRAC) {
//!     assert!(!cell.winners.is_empty());
//! }
//! ```

#![warn(missing_docs)]

mod error;
mod explorer;
mod optimizer;
mod parallel;
mod pareto;
mod quality;
mod sampler;
mod segcache;
mod selection;
mod space;

pub use error::ExploreError;
pub use explorer::{default_max_attempts, BaselinePoint, CustomPoint, Explorer};
/// Re-exported from `mccm-core` so existing `mccm_dse::CancelToken`
/// call sites keep working (the simulator shares the same token type).
pub use mccm_core::CancelToken;
pub use optimizer::{GuidedFront, OptimizerConfig};
pub use parallel::{max_workers, par_pareto_indices, SampleRun};
pub use pareto::ParetoFront;
pub use quality::{
    compare_fronts, coverage, hypervolume, union_bounds, FrontComparison, MetricBounds,
};
pub use sampler::{sample_attempt, CustomSampler};
pub use segcache::{CacheStats, SegCache};
pub use selection::{select_all_metrics, select_best, SelectionCell, PAPER_TIE_FRAC};
pub use space::{binomial_checked, CustomDesign, CustomSpace};
