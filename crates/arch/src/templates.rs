//! The three state-of-the-art multiple-CE architecture templates (§II-C)
//! and the custom Hybrid-head/Segmented-tail shape explored in Use Case 3.
//!
//! Templates turn a CNN plus a CE count into an [`AcceleratorSpec`]:
//!
//! * **Segmented** (Shen et al. \[33\]): `k` contiguous segments, one
//!   single-CE each, coarse-grained (whole-image) pipelining between them.
//!   Segment boundaries balance per-segment MACs.
//! * **SegmentedRR** (Wei et al. \[41\], engines per Ma et al. \[23\]): all
//!   layers round-robin over `k` tile-grained pipelined CEs.
//! * **Hybrid** (Qararyah et al. \[30\]): `k - 1` pipelined CEs dedicated to
//!   the first `k - 1` layers, one larger CE for the rest, coarse-grained
//!   pipelining between the two parts.

use mccm_cnn::CnnModel;

use crate::error::ArchError;
use crate::spec::{AcceleratorSpec, Assignment, BlockSpec, LayerRange, Schedule};

/// Partitions `weights[0..n]` into `k` contiguous, non-empty segments
/// minimizing the maximum segment weight (classic linear partition DP).
/// Returns the exclusive end index of each segment.
pub fn balanced_partition(weights: &[u64], k: usize) -> Vec<usize> {
    let n = weights.len();
    assert!(k >= 1 && k <= n, "need 1 <= k <= n ({k} vs {n})");
    let mut prefix = vec![0u64; n + 1];
    for (i, w) in weights.iter().enumerate() {
        prefix[i + 1] = prefix[i] + w;
    }
    let seg = |a: usize, b: usize| prefix[b] - prefix[a]; // [a, b)

    // dp[j][i]: minimal max-segment-weight splitting first i items into j
    // segments; choice[j][i]: start of the last segment.
    let mut dp = vec![vec![u64::MAX; n + 1]; k + 1];
    let mut choice = vec![vec![0usize; n + 1]; k + 1];
    dp[0][0] = 0;
    for j in 1..=k {
        for i in j..=n {
            for split in (j - 1)..i {
                if dp[j - 1][split] == u64::MAX {
                    continue;
                }
                let cost = dp[j - 1][split].max(seg(split, i));
                if cost < dp[j][i] {
                    dp[j][i] = cost;
                    choice[j][i] = split;
                }
            }
        }
    }

    let mut ends = vec![0usize; k];
    let mut i = n;
    for j in (1..=k).rev() {
        ends[j - 1] = i;
        i = choice[j][i];
    }
    ends
}

/// Per-conv-layer MACs, the workload measure used for balancing.
fn layer_macs(model: &CnnModel) -> Vec<u64> {
    model.conv_view().iter().map(|c| c.macs).collect()
}

/// The Segmented architecture \[32\], \[33\]: `ces` single-CE segments with
/// MAC-balanced boundaries and coarse-grained pipelining.
///
/// # Errors
///
/// Returns [`ArchError::Infeasible`] if `ces` is zero or exceeds the
/// number of convolution layers.
pub fn segmented(model: &CnnModel, ces: usize) -> Result<AcceleratorSpec, ArchError> {
    let macs = layer_macs(model);
    if ces == 0 || ces > macs.len() {
        return Err(ArchError::Infeasible {
            detail: format!("{ces} CEs for {} layers", macs.len()),
        });
    }
    let ends = balanced_partition(&macs, ces);
    let mut assignments = Vec::with_capacity(ces);
    let mut first = 0usize;
    for (ce, &end) in ends.iter().enumerate() {
        assignments.push(Assignment::new(
            LayerRange::new(first, end - 1),
            BlockSpec::Single(ce),
        ));
        first = end;
    }
    Ok(AcceleratorSpec::new(assignments, true))
}

/// The SegmentedRR architecture \[3\], \[38\], \[41\]: all layers round-robin
/// over `ces` tile-grained pipelined CEs (`{L1-Last: CE1-CEk}`).
///
/// # Errors
///
/// Returns [`ArchError::Infeasible`] if `ces` is zero or exceeds the
/// number of convolution layers.
pub fn segmented_rr(model: &CnnModel, ces: usize) -> Result<AcceleratorSpec, ArchError> {
    let n = model.conv_layer_count();
    if ces == 0 || ces > n {
        return Err(ArchError::Infeasible {
            detail: format!("{ces} CEs for {n} layers"),
        });
    }
    Ok(AcceleratorSpec::new(
        vec![Assignment::new(
            LayerRange::through_last(0),
            BlockSpec::Pipelined {
                first_ce: 0,
                last_ce: ces - 1,
            },
        )],
        false,
    ))
}

/// The Hybrid architecture \[1\], \[25\], \[30\], \[50\]: `ces - 1` pipelined CEs,
/// one per layer of the CNN head, plus one larger CE for the tail;
/// coarse-grained pipelining between the parts.
///
/// # Errors
///
/// Returns [`ArchError::Infeasible`] if `ces < 2` or the head would
/// swallow the whole CNN.
pub fn hybrid(model: &CnnModel, ces: usize) -> Result<AcceleratorSpec, ArchError> {
    let n = model.conv_layer_count();
    if ces < 2 || ces > n {
        return Err(ArchError::Infeasible {
            detail: format!("hybrid needs 2..={n} CEs, got {ces}"),
        });
    }
    let head = ces - 1;
    Ok(AcceleratorSpec::new(
        vec![
            Assignment::new(
                LayerRange::new(0, head - 1),
                BlockSpec::Pipelined {
                    first_ce: 0,
                    last_ce: head - 1,
                },
            ),
            Assignment::new(LayerRange::through_last(head), BlockSpec::Single(head)),
        ],
        true,
    ))
}

/// A custom architecture for design-space exploration (Use Case 3): a
/// Hybrid-like pipelined head over the first `head_layers` layers followed
/// by Segmented-like single-CE segments whose boundaries are given as
/// exclusive layer end indices (each > `head_layers`, strictly increasing,
/// last equal to the layer count). Every tail segment carries
/// `tail_schedule` (the schedule-extended design space's axis); the
/// pipelined head is always layer-by-layer.
///
/// # Errors
///
/// Returns [`ArchError::Infeasible`] on malformed boundaries.
pub fn custom_hybrid_segmented(
    model: &CnnModel,
    head_layers: usize,
    tail_ends: &[usize],
    tail_schedule: Schedule,
) -> Result<AcceleratorSpec, ArchError> {
    let n = model.conv_layer_count();
    if head_layers == 0 || head_layers >= n {
        return Err(ArchError::Infeasible {
            detail: format!("head must cover 1..{n} layers, got {head_layers}"),
        });
    }
    if tail_ends.is_empty() || *tail_ends.last().unwrap() != n {
        return Err(ArchError::Infeasible {
            detail: "tail must end at the last layer".into(),
        });
    }
    let mut assignments = vec![Assignment::new(
        LayerRange::new(0, head_layers - 1),
        BlockSpec::Pipelined {
            first_ce: 0,
            last_ce: head_layers - 1,
        },
    )];
    let mut first = head_layers;
    for (i, &end) in tail_ends.iter().enumerate() {
        if end <= first || end > n {
            return Err(ArchError::Infeasible {
                detail: format!("bad tail boundary {end} (segment {i})"),
            });
        }
        assignments.push(
            Assignment::new(
                LayerRange::new(first, end - 1),
                BlockSpec::Single(head_layers + i),
            )
            .with_schedule(tail_schedule),
        );
        first = end;
    }
    Ok(AcceleratorSpec::new(assignments, true))
}

/// The three baseline architectures by name, mirroring the paper's
/// evaluation (§V-A3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Segmented \[33\].
    Segmented,
    /// SegmentedRR \[41\].
    SegmentedRr,
    /// Hybrid \[30\].
    Hybrid,
}

impl Architecture {
    /// All three baselines.
    pub const ALL: [Self; 3] = [Self::Segmented, Self::SegmentedRr, Self::Hybrid];

    /// Paper display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Segmented => "Segmented",
            Self::SegmentedRr => "SegmentedRR",
            Self::Hybrid => "Hybrid",
        }
    }

    /// Looks up an architecture by case-insensitive name (`"segmented"`,
    /// `"segmentedrr"` / `"rr"`, `"hybrid"`).
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "segmented" => Some(Self::Segmented),
            "segmentedrr" | "rr" => Some(Self::SegmentedRr),
            "hybrid" => Some(Self::Hybrid),
            _ => None,
        }
    }

    /// Canonical lowercase names accepted by [`Self::by_name`], in
    /// [`Self::ALL`] order.
    pub fn names() -> &'static [&'static str] {
        &["segmented", "segmentedrr", "hybrid"]
    }

    /// Instantiates this architecture for a model and CE count.
    ///
    /// # Errors
    ///
    /// Propagates the template's [`ArchError::Infeasible`] for invalid CE
    /// counts.
    pub fn instantiate(&self, model: &CnnModel, ces: usize) -> Result<AcceleratorSpec, ArchError> {
        match self {
            Self::Segmented => segmented(model, ces),
            Self::SegmentedRr => segmented_rr(model, ces),
            Self::Hybrid => hybrid(model, ces),
        }
    }
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccm_cnn::zoo;

    #[test]
    fn architecture_by_name_round_trips() {
        for (arch, name) in Architecture::ALL.into_iter().zip(Architecture::names()) {
            assert_eq!(Architecture::by_name(name), Some(arch));
            assert_eq!(
                Architecture::by_name(&arch.name().to_ascii_uppercase()),
                Some(arch)
            );
        }
        assert_eq!(Architecture::by_name("rr"), Some(Architecture::SegmentedRr));
        assert_eq!(Architecture::by_name("systolic"), None);
    }

    #[test]
    fn balanced_partition_minimizes_max() {
        let w = [10, 10, 10, 10];
        assert_eq!(balanced_partition(&w, 2), vec![2, 4]);
        let w = [100, 1, 1, 1, 1];
        assert_eq!(balanced_partition(&w, 2), vec![1, 5]);
        let w = [5, 5, 5];
        assert_eq!(balanced_partition(&w, 3), vec![1, 2, 3]);
    }

    #[test]
    fn balanced_partition_single_segment() {
        assert_eq!(balanced_partition(&[1, 2, 3], 1), vec![3]);
    }

    #[test]
    fn segmented_covers_model() {
        let m = zoo::resnet50();
        for k in 2..=11 {
            let spec = segmented(&m, k).unwrap();
            let segs = spec.segments(53).unwrap();
            assert_eq!(segs.len(), k);
            assert!(spec.coarse_pipeline);
            assert_eq!(segs.last().unwrap().last, 52);
        }
    }

    #[test]
    fn segmented_balances_macs() {
        let m = zoo::resnet50();
        let macs: Vec<u64> = m.conv_view().iter().map(|c| c.macs).collect();
        let total: u64 = macs.iter().sum();
        let spec = segmented(&m, 4).unwrap();
        let segs = spec.segments(53).unwrap();
        for seg in &segs {
            let seg_macs: u64 = seg.layers().map(|l| macs[l]).sum();
            // No segment should exceed ~2x the ideal share.
            assert!(seg_macs <= total / 2, "segment {} too heavy", seg.index);
        }
    }

    #[test]
    fn segmented_rr_is_single_pipelined_block() {
        let m = zoo::resnet50();
        let spec = segmented_rr(&m, 2).unwrap();
        assert!(!spec.coarse_pipeline);
        let segs = spec.segments(53).unwrap();
        assert_eq!(segs.len(), 27); // ceil(53/2), Fig. 6a
    }

    #[test]
    fn hybrid_shape() {
        let m = zoo::resnet50();
        let spec = hybrid(&m, 7).unwrap();
        let segs = spec.segments(53).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].len(), 6); // 6 pipelined single-layer CEs
        assert_eq!(segs[1].len(), 47);
        assert_eq!(spec.ce_count(), 7);
    }

    #[test]
    fn hybrid_needs_two_ces() {
        let m = zoo::resnet50();
        assert!(hybrid(&m, 1).is_err());
        assert!(hybrid(&m, 2).is_ok());
    }

    #[test]
    fn custom_template() {
        let m = zoo::xception();
        let n = m.conv_layer_count();
        let lbl = Schedule::LayerByLayer;
        let spec = custom_hybrid_segmented(&m, 4, &[30, 50, n], lbl).unwrap();
        let segs = spec.segments(n).unwrap();
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[0].len(), 4);
        assert_eq!(spec.ce_count(), 7);
        assert!(custom_hybrid_segmented(&m, 4, &[30, 50], lbl).is_err());
        assert!(custom_hybrid_segmented(&m, 0, &[n], lbl).is_err());
        assert!(custom_hybrid_segmented(&m, 4, &[2, n], lbl).is_err());
    }

    #[test]
    fn custom_template_scheduled_tails() {
        let m = zoo::xception();
        let n = m.conv_layer_count();
        let df = Schedule::DepthFirst { fuse_depth: 3 };
        let spec = custom_hybrid_segmented(&m, 4, &[30, 50, n], df).unwrap();
        // The pipelined head stays layer-by-layer; every tail segment
        // carries the requested schedule.
        assert_eq!(spec.assignments[0].schedule, Schedule::LayerByLayer);
        for a in &spec.assignments[1..] {
            assert_eq!(a.schedule, df);
        }
        // A layer-by-layer tail changes only the schedules.
        let lbl = custom_hybrid_segmented(&m, 4, &[30, 50, n], Schedule::LayerByLayer).unwrap();
        assert_eq!(lbl.assignments.len(), spec.assignments.len());
        for (l, d) in lbl.assignments.iter().zip(&spec.assignments) {
            assert_eq!(l.schedule, Schedule::LayerByLayer);
            assert_eq!((&l.range, &l.block), (&d.range, &d.block));
        }
    }

    #[test]
    fn architecture_enum_instantiates() {
        let m = zoo::mobilenet_v2();
        for arch in Architecture::ALL {
            let spec = arch.instantiate(&m, 3).unwrap();
            assert!(spec.segments(52).is_ok(), "{arch}");
        }
        assert_eq!(Architecture::SegmentedRr.to_string(), "SegmentedRR");
    }
}
