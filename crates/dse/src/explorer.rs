//! The exploration driver: baseline sweeps, custom-space sampling, and
//! timing of model evaluations (the paper's Use Cases 1 and 3).
//!
//! Every sampling entry point is attempt-capped (no more unbounded
//! retry loops on infeasible spaces) and distinguishes genuinely
//! infeasible designs — skipped — from real builder faults, which are
//! propagated as [`crate::ExploreError::Arch`]. Each sweep has one
//! entry point, in the [`crate::parallel`] machinery, taking a worker
//! count: `workers = 1` runs inline on the calling thread, and every
//! count returns identical results.

use mccm_arch::{templates, AcceleratorSpec, ArchError, MultipleCeBuilder};
use mccm_cnn::CnnModel;
use mccm_core::{CostModel, EvalScratch, EvalSummary, Evaluation};
use mccm_fpga::FpgaBoard;

use crate::space::{CustomDesign, CustomSpace};

/// A baseline instance: architecture, CE count, evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselinePoint {
    /// Which of the three architectures.
    pub architecture: templates::Architecture,
    /// CE count.
    pub ces: usize,
    /// Its evaluation.
    pub eval: Evaluation,
}

/// A custom-space design with its lean evaluation summary — the record
/// sampled sweeps and the optimizer accumulate, so 100k-design runs never
/// build the heavy per-segment/per-engine/per-layer vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomPoint {
    /// The sampled (or searched) design.
    pub design: CustomDesign,
    /// Its metrics-only evaluation.
    pub summary: EvalSummary,
}

/// Default sampling attempt budget for `count` requested points: spaces
/// where fewer than ~1/64 of draws are feasible fail fast with
/// [`crate::ExploreError::AttemptsExhausted`] instead of spinning forever.
pub fn default_max_attempts(count: usize) -> u64 {
    (count as u64).saturating_mul(64).max(1024)
}

/// Explores designs for one (CNN, board) pair.
///
/// # Examples
///
/// ```
/// use mccm_cnn::zoo;
/// use mccm_dse::Explorer;
/// use mccm_fpga::FpgaBoard;
///
/// let model = zoo::mobilenet_v2();
/// let explorer = Explorer::new(&model, &FpgaBoard::zc706());
/// let baselines = explorer.par_sweep_baselines(2..=5, 1).unwrap();
/// assert_eq!(baselines.len(), 3 * 4);
/// ```
#[derive(Debug, Clone)]
pub struct Explorer {
    model: CnnModel,
    builder: MultipleCeBuilder,
}

impl Explorer {
    /// Creates an explorer (default 8-bit precision).
    pub fn new(model: &CnnModel, board: &FpgaBoard) -> Self {
        Self {
            model: model.clone(),
            builder: MultipleCeBuilder::new(model, board),
        }
    }

    /// Wraps an existing builder (with whatever precision/options it
    /// carries) instead of constructing a fresh one — the hook session
    /// caches use so a warmed builder context (shared `Arc`s, populated
    /// parallelism memo) keeps serving every exploration entry point.
    /// `builder` must have been constructed for `model`.
    pub fn from_parts(model: CnnModel, builder: MultipleCeBuilder) -> Self {
        assert_eq!(
            model.conv_layer_count(),
            builder.layer_count(),
            "builder was constructed for a different model"
        );
        Self { model, builder }
    }

    /// The underlying model.
    pub fn model(&self) -> &CnnModel {
        &self.model
    }

    /// The underlying builder (shared build context, precision, board).
    pub fn builder(&self) -> &MultipleCeBuilder {
        &self.builder
    }

    /// Builds and evaluates one specification.
    ///
    /// # Errors
    ///
    /// Propagates builder validation errors.
    pub fn evaluate(&self, spec: &AcceleratorSpec) -> Result<Evaluation, ArchError> {
        let acc = self.builder.build(spec)?;
        Ok(CostModel::evaluate(&acc))
    }

    /// Builds and evaluates one specification through the summary fast
    /// lane ([`CostModel::evaluate_summary`]): metrics only, with the
    /// caller's scratch buffers reused across calls. This is what the
    /// `*_summaries` sweeps pay per design.
    ///
    /// # Errors
    ///
    /// Propagates builder validation errors.
    pub fn evaluate_summary(
        &self,
        spec: &AcceleratorSpec,
        scratch: &mut EvalScratch,
    ) -> Result<EvalSummary, ArchError> {
        let acc = self.builder.build(spec)?;
        Ok(CostModel::evaluate_summary(&acc, scratch))
    }

    /// Evaluates one baseline grid cell: `Ok(None)` when the combination
    /// is infeasible on this board, `Err` on any real builder fault.
    pub(crate) fn baseline_cell(
        &self,
        architecture: templates::Architecture,
        ces: usize,
    ) -> Result<Option<BaselinePoint>, ArchError> {
        let spec = match architecture.instantiate(&self.model, ces) {
            Ok(spec) => spec,
            Err(ArchError::Infeasible { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        match self.evaluate(&spec) {
            Ok(eval) => Ok(Some(BaselinePoint {
                architecture,
                ces,
                eval,
            })),
            Err(ArchError::Infeasible { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Evaluates a sampled or searched custom design through the
    /// summary fast lane, with reused scratch buffers — `Ok(None)` when
    /// infeasible, `Err` on real faults. Produces exactly
    /// `evaluate(&d.to_spec(..)?)?.summary`.
    pub(crate) fn custom_summary_cell(
        &self,
        design: &CustomDesign,
        scratch: &mut EvalScratch,
    ) -> Result<Option<CustomPoint>, ArchError> {
        let spec = match design.to_spec(&self.model) {
            Ok(spec) => spec,
            Err(ArchError::Infeasible { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        match self.evaluate_summary(&spec, scratch) {
            Ok(summary) => Ok(Some(CustomPoint {
                design: design.clone(),
                summary,
            })),
            Err(ArchError::Infeasible { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// The paper's custom space for this explorer's model (2–11 CEs).
    pub fn paper_space(&self) -> CustomSpace {
        CustomSpace::paper_range(self.model.conv_layer_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExploreError;
    use mccm_cnn::zoo;
    use mccm_core::Metric;

    #[test]
    fn baseline_sweep_covers_grid() {
        let m = zoo::resnet50();
        let e = Explorer::new(&m, &FpgaBoard::vcu108());
        let points = e.par_sweep_baselines(2..=11, 1).unwrap();
        assert_eq!(points.len(), 30); // 3 architectures x 10 CE counts
        for p in &points {
            assert_eq!(p.eval.ce_count, p.ces);
            assert!(p.eval.throughput_fps > 0.0);
        }
    }

    #[test]
    fn from_parts_reuses_the_given_builder_context() {
        let m = zoo::mobilenet_v2();
        let board = FpgaBoard::zc706();
        let fresh = Explorer::new(&m, &board);
        let wrapped = Explorer::from_parts(m.clone(), fresh.builder().clone());
        assert_eq!(
            fresh.builder().context_token(),
            wrapped.builder().context_token(),
            "from_parts must not reconstruct the build context"
        );
        let spec = mccm_arch::templates::segmented(&m, 3).unwrap();
        let a = fresh.evaluate(&spec).unwrap();
        let b = wrapped.evaluate(&spec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "different model")]
    fn from_parts_rejects_mismatched_model() {
        let m = zoo::mobilenet_v2();
        let other = zoo::resnet50();
        let builder = MultipleCeBuilder::new(&other, &FpgaBoard::zc706());
        let _ = Explorer::from_parts(m, builder);
    }

    #[test]
    fn custom_sampling_produces_valid_points() {
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::vcu110());
        let (points, elapsed) = e.par_sample_custom_summaries(50, 9, 1).unwrap();
        assert_eq!(points.len(), 50);
        assert!(elapsed.as_nanos() > 0);
        for p in &points {
            assert!(p.summary.latency_s > 0.0);
            assert!((2..=11).contains(&p.summary.ce_count));
        }
    }

    #[test]
    fn summaries_match_full_points() {
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        let (lean, _) = e.par_sample_custom_summaries(25, 4, 1).unwrap();
        assert_eq!(lean.len(), 25);
        for l in &lean {
            let full = e.evaluate(&l.design.to_spec(&m).unwrap()).unwrap();
            assert_eq!(full.summary, l.summary);
        }
    }

    #[test]
    fn custom_designs_can_beat_baselines_on_some_metric() {
        // Use Case 3's premise: the custom space contains points that
        // improve on at least one baseline metric.
        let m = zoo::xception();
        let e = Explorer::new(&m, &FpgaBoard::vcu110());
        let baselines = e.par_sweep_baselines(2..=11, 1).unwrap();
        let best_buffer = baselines
            .iter()
            .map(|p| Metric::OnChipBuffers.value(&p.eval.summary))
            .fold(f64::INFINITY, f64::min);
        let (points, _) = e.par_sample_custom_summaries(120, 11, 1).unwrap();
        let best_custom = points
            .iter()
            .map(|p| Metric::OnChipBuffers.value(&p.summary))
            .fold(f64::INFINITY, f64::min);
        // Customs should at least approach the baseline best (within 2x).
        assert!(
            best_custom < 2.0 * best_buffer,
            "{best_custom} vs {best_buffer}"
        );
    }

    #[test]
    fn sampling_is_deterministic() {
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        let (a, _) = e.par_sample_custom_summaries(20, 5, 1).unwrap();
        let (b, _) = e.par_sample_custom_summaries(20, 5, 1).unwrap();
        let na: Vec<_> = a.iter().map(|p| p.summary.notation.clone()).collect();
        let nb: Vec<_> = b.iter().map(|p| p.summary.notation.clone()).collect();
        assert_eq!(na, nb);
    }

    #[test]
    fn exhausted_attempt_budget_errors_instead_of_hanging() {
        // Regression: `while points.len() < count` used to spin forever
        // when the space could not yield enough feasible designs. A 1-DSP
        // board cannot host even two CEs, so every draw is infeasible and
        // the default budget must run out, inline and sharded alike.
        let m = zoo::mobilenet_v2();
        let tiny = FpgaBoard::new("tiny", 1, mccm_fpga::MiB(0.5), 1.0);
        let e = Explorer::new(&m, &tiny);
        for workers in [1usize, 4] {
            match e.par_sample_custom_summaries(100, 1, workers) {
                Err(ExploreError::AttemptsExhausted {
                    wanted,
                    got,
                    attempts,
                }) => {
                    assert_eq!(wanted, 100);
                    assert_eq!(got, 0);
                    assert_eq!(attempts, default_max_attempts(100));
                }
                other => panic!("expected AttemptsExhausted at workers={workers}, got {other:?}"),
            }
        }
    }
}
