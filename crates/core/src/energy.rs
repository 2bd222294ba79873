//! Energy estimation on top of an evaluation — an extension of the
//! paper's model.
//!
//! The paper motivates buffer and access minimization with the "time and
//! energy costly off-chip access" (§I); this module quantifies that with
//! the standard accelerator energy decomposition: MAC switching energy,
//! on-chip buffer traffic, and off-chip DRAM traffic, plus static power
//! over the runtime. Default coefficients follow the well-known 45 nm
//! figures scaled to a modern FPGA process (DRAM ≈ two orders of
//! magnitude costlier per byte than on-chip SRAM).

use crate::quantity::{Bytes, Joules, Macs};
use crate::report::{EvalSummary, Evaluation};

/// Energy coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy per MAC operation, in picojoules.
    pub pj_per_mac: f64,
    /// Energy per on-chip buffer byte moved, in picojoules.
    pub pj_per_onchip_byte: f64,
    /// Energy per off-chip DRAM byte moved, in picojoules.
    pub pj_per_dram_byte: f64,
    /// Static (leakage + clocking) power, in watts.
    pub static_w: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            pj_per_mac: 2.0,
            pj_per_onchip_byte: 6.0,
            pj_per_dram_byte: 650.0,
            static_w: 2.5,
        }
    }
}

/// Energy estimate for one inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyEstimate {
    /// MAC switching energy.
    pub compute_j: Joules,
    /// On-chip buffer movement energy (approximated as one read and one
    /// write per useful MAC operand set).
    pub onchip_j: Joules,
    /// Off-chip DRAM energy.
    pub dram_j: Joules,
    /// Static energy over the inference latency.
    pub static_j: Joules,
}

impl EnergyEstimate {
    /// Total energy per inference.
    pub fn total_j(&self) -> Joules {
        self.compute_j + self.onchip_j + self.dram_j + self.static_j
    }

    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_j().millijoules()
    }

    /// Share of dynamic energy spent on DRAM traffic — the quantity the
    /// paper's access-minimization objective attacks.
    pub fn dram_share(&self) -> f64 {
        let dynamic = (self.compute_j + self.onchip_j + self.dram_j).get();
        if dynamic <= 0.0 {
            0.0
        } else {
            self.dram_j.get() / dynamic
        }
    }
}

impl EnergyModel {
    /// Estimates the energy of one inference from an evaluation.
    ///
    /// `total_macs` is the CNN's convolution MACs (from
    /// [`CnnModel::conv_macs`](mccm_cnn::CnnModel::conv_macs) or the
    /// built accelerator's conv view).
    pub fn estimate(&self, eval: &Evaluation, total_macs: Macs) -> EnergyEstimate {
        self.estimate_parts(total_macs, eval.offchip_bytes, eval.latency_s)
    }

    /// Estimates the energy of one inference from a lean [`EvalSummary`]
    /// — the fast-lane twin of [`Self::estimate`]. The summary carries
    /// its own MAC count, so big sweeps can rank on energy without ever
    /// materializing a full [`Evaluation`]. Bit-identical to
    /// `estimate(&evaluation, macs)` on the same design: both paths run
    /// `estimate_parts` on the same three scalars.
    pub fn estimate_summary(&self, summary: &EvalSummary) -> EnergyEstimate {
        self.estimate_parts(summary.total_macs, summary.offchip_bytes, summary.latency_s)
    }

    /// The shared estimation core both lanes go through: MAC count,
    /// off-chip bytes, and latency fully determine the estimate.
    pub(crate) fn estimate_parts(
        &self,
        total_macs: Macs,
        offchip_bytes: Bytes,
        latency_s: f64,
    ) -> EnergyEstimate {
        // Each MAC reads two operands and accumulates locally; partial
        // sums and reuse keep on-chip traffic near 2 bytes/MAC at 8-bit.
        let onchip_bytes = total_macs.traffic_at(2);
        EnergyEstimate {
            compute_j: Joules::new(total_macs.as_f64() * self.pj_per_mac * 1e-12),
            onchip_j: Joules::new(onchip_bytes.as_f64() * self.pj_per_onchip_byte * 1e-12),
            dram_j: Joules::new(offchip_bytes.as_f64() * self.pj_per_dram_byte * 1e-12),
            static_j: Joules::new(self.static_w * latency_s),
        }
    }

    /// Energy efficiency at steady state, in GOPS/W (2 ops per MAC).
    ///
    /// GOPS/W equals operations per nanojoule: at steady state, static
    /// power amortizes over the initiation interval rather than the full
    /// latency.
    pub fn efficiency_gops_per_w(&self, eval: &Evaluation, total_macs: Macs) -> f64 {
        let e = self.estimate(eval, total_macs);
        let ii = 1.0 / eval.throughput_fps.max(1e-12);
        let per_inference_j = (e.compute_j + e.onchip_j + e.dram_j).get() + self.static_w * ii;
        let ops = 2.0 * total_macs.as_f64();
        ops / per_inference_j / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccm_arch::{templates, MultipleCeBuilder};
    use mccm_cnn::zoo;
    use mccm_fpga::FpgaBoard;

    fn eval_for(arch: templates::Architecture) -> (Evaluation, Macs) {
        let m = zoo::resnet50();
        let b = MultipleCeBuilder::new(&m, &FpgaBoard::zc706());
        let acc = b.build(&arch.instantiate(&m, 4).unwrap()).unwrap();
        (crate::CostModel::evaluate(&acc), Macs::new(m.conv_macs()))
    }

    #[test]
    fn energy_components_positive_and_sum() {
        let (eval, macs) = eval_for(templates::Architecture::Hybrid);
        let e = EnergyModel::default().estimate(&eval, macs);
        assert!(e.compute_j > Joules::ZERO && e.onchip_j > Joules::ZERO);
        assert!(e.dram_j > Joules::ZERO && e.static_j > Joules::ZERO);
        let parts = e.compute_j + e.onchip_j + e.dram_j + e.static_j;
        assert!((e.total_j().get() - parts.get()).abs() < 1e-15);
        // ResNet-50 at 8-bit on an FPGA: single-digit millijoule dynamic
        // energy, sub-second latency -> total in the 1-100 mJ band.
        assert!(
            e.total_mj() > 1.0 && e.total_mj() < 1000.0,
            "{} mJ",
            e.total_mj()
        );
    }

    #[test]
    fn access_heavy_designs_pay_more_dram_energy() {
        let (seg, macs) = eval_for(templates::Architecture::Hybrid);
        let (rr, _) = eval_for(templates::Architecture::SegmentedRr);
        let m = EnergyModel::default();
        let e_seg = m.estimate(&seg, macs);
        let e_rr = m.estimate(&rr, macs);
        // SegmentedRR moves ~5x the bytes on ZC706 -> more DRAM energy and
        // a larger DRAM share.
        assert!(e_rr.dram_j.get() > 2.0 * e_seg.dram_j.get());
        assert!(e_rr.dram_share() > e_seg.dram_share());
    }

    #[test]
    fn zero_coefficients_zero_energy() {
        let (eval, macs) = eval_for(templates::Architecture::Segmented);
        let m = EnergyModel {
            pj_per_mac: 0.0,
            pj_per_onchip_byte: 0.0,
            pj_per_dram_byte: 0.0,
            static_w: 0.0,
        };
        assert_eq!(m.estimate(&eval, macs).total_j(), Joules::ZERO);
    }

    #[test]
    fn summary_estimate_matches_full_estimate_bitwise() {
        // The fast-lane energy path must agree with the rich-lane path to
        // the bit: both go through estimate_parts on the same scalars, and
        // the summary's MAC count equals the CNN's conv_macs.
        for arch in templates::Architecture::ALL {
            let (eval, macs) = eval_for(arch);
            assert_eq!(eval.total_macs, macs);
            let m = EnergyModel::default();
            let full = m.estimate(&eval, macs);
            let fast = m.estimate_summary(&eval.summary);
            assert_eq!(full, fast, "{arch:?}");
            assert_eq!(
                full.total_j().get().to_bits(),
                fast.total_j().get().to_bits()
            );
        }
    }

    #[test]
    fn efficiency_is_finite_and_positive() {
        let (eval, macs) = eval_for(templates::Architecture::Hybrid);
        let gops_w = EnergyModel::default().efficiency_gops_per_w(&eval, macs);
        assert!(gops_w.is_finite() && gops_w > 0.0);
        // FPGA CNN accelerators land in the 10-1000 GOPS/W range.
        assert!(gops_w > 1.0 && gops_w < 10_000.0, "{gops_w} GOPS/W");
    }
}
