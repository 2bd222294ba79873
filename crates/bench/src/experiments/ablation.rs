//! Ablation studies of the design choices described in `docs/design.md`:
//!
//! 1. **Pipelined latency form** — asynchronous critical path (ours) vs a
//!    literal lockstep stage sum for Eq. (2), validated against the
//!    event-driven reference.
//! 2. **Bandwidth derating** — sensitivity of latency accuracy to the
//!    assumed effective DDR bandwidth.
//! 3. **PE allocation** — workload-proportional (the paper's heuristic)
//!    vs uniform DSP splits.
//! 4. **Pipelined engine parallelism** — row-pipelined (`p_oh = 1`,
//!    TGPA-faithful) vs unrestricted 3-D parallelism, which hides per-row
//!    weight re-streaming and collapses the SegmentedRR access bottleneck
//!    of Fig. 5.

use mccm_arch::templates::Architecture;
use mccm_arch::{BuilderOptions, MultipleCeBuilder, PeAllocation};
use mccm_cnn::zoo;
use mccm_core::{CostModel, ModelConfig, PipelineLatencyMode};
use mccm_fpga::FpgaBoard;
use mccm_sim::{SimConfig, Simulator};

use crate::output::{Report, Table};
use crate::setups::mib;

/// Runs all four ablations.
pub fn run() -> Report {
    let mut report = Report::new("ablation", "Design-choice ablations (docs/design.md)");
    report.tables.push(latency_mode_table());
    report.tables.push(bandwidth_derate_table());
    report.tables.push(pe_allocation_table());
    report.tables.push(row_parallelism_table());
    report.note(
        "Critical-path evaluation of Eq. (2) tracks the asynchronous reference far better than \
         the lockstep stage sum on deep pipelined blocks — the basis for the default in docs/design.md."
            .to_string(),
    );
    report.note(
        "Row-pipelined engines (p_oh = 1) are required to reproduce Fig. 5's SegmentedRR \
         off-chip access bottleneck; 3-D parallelism hides the per-row weight re-streaming."
            .to_string(),
    );
    report
}

/// Ablation 1: Eq. (2) evaluation form vs the reference simulator.
fn latency_mode_table() -> Table {
    let board = FpgaBoard::vcu108();
    let sim = Simulator::new(SimConfig::default());
    let mut t = Table::new(
        "latency_mode",
        &["model", "arch", "CEs", "critical-path acc", "lockstep acc"],
    );
    for model in [zoo::resnet50(), zoo::mobilenet_v2()] {
        let builder = MultipleCeBuilder::new(&model, &board);
        for (arch, k) in [
            (Architecture::Hybrid, 6usize),
            (Architecture::Hybrid, 11),
            (Architecture::SegmentedRr, 8),
        ] {
            let acc = builder
                .build(&arch.instantiate(&model, k).unwrap())
                .unwrap();
            let cp = CostModel::evaluate_with(&acc, &ModelConfig::default());
            let ls = CostModel::evaluate_with(
                &acc,
                &ModelConfig::new().with_pipeline_latency(PipelineLatencyMode::LockstepStages),
            );
            let r = sim.run_with_eval(&acc, &cp);
            t.row(vec![
                model.name().to_string(),
                arch.name().to_string(),
                k.to_string(),
                format!("{:.1}%", mccm_core::accuracy_pct(r.latency_s, cp.latency_s)),
                format!("{:.1}%", mccm_core::accuracy_pct(r.latency_s, ls.latency_s)),
            ]);
        }
    }
    t
}

/// Ablation 2: effective-bandwidth sensitivity.
fn bandwidth_derate_table() -> Table {
    let model = zoo::resnet50();
    let board = FpgaBoard::zc706();
    let builder = MultipleCeBuilder::new(&model, &board);
    let acc = builder
        .build(&Architecture::SegmentedRr.instantiate(&model, 2).unwrap())
        .unwrap();
    let mut t = Table::new(
        "bandwidth_derate",
        &[
            "derate",
            "latency (ms)",
            "throughput (FPS)",
            "stall fraction",
        ],
    );
    for derate in [1.0f64, 0.9, 0.8, 0.7, 0.6] {
        let e = CostModel::evaluate_with(&acc, &ModelConfig::new().with_bandwidth_derate(derate));
        t.row(vec![
            format!("{derate:.1}"),
            format!("{:.1}", e.latency_ms()),
            format!("{:.1}", e.throughput_fps),
            format!("{:.0}%", 100.0 * e.memory_stall_fraction),
        ]);
    }
    t
}

/// Ablation 3: PE-allocation policy (model-only comparison).
fn pe_allocation_table() -> Table {
    let model = zoo::resnet50();
    let board = FpgaBoard::zcu102();
    let mut t = Table::new(
        "pe_allocation",
        &[
            "arch",
            "CEs",
            "proportional FPS",
            "uniform FPS",
            "uniform penalty",
        ],
    );
    for (arch, k) in [
        (Architecture::Segmented, 4usize),
        (Architecture::Segmented, 8),
        (Architecture::SegmentedRr, 4),
        (Architecture::Hybrid, 7),
    ] {
        let spec = arch.instantiate(&model, k).unwrap();
        let prop =
            CostModel::evaluate(&MultipleCeBuilder::new(&model, &board).build(&spec).unwrap());
        let unif = CostModel::evaluate(
            &MultipleCeBuilder::new(&model, &board)
                .with_options(BuilderOptions {
                    pe_allocation: PeAllocation::Uniform,
                    ..Default::default()
                })
                .build(&spec)
                .unwrap(),
        );
        t.row(vec![
            arch.name().to_string(),
            k.to_string(),
            format!("{:.1}", prop.throughput_fps),
            format!("{:.1}", unif.throughput_fps),
            format!(
                "{:.0}%",
                100.0 * (1.0 - unif.throughput_fps / prop.throughput_fps)
            ),
        ]);
    }
    t
}

/// Ablation 4: pipelined-engine parallelism dimensionality.
fn row_parallelism_table() -> Table {
    let model = zoo::resnet50();
    let board = FpgaBoard::zc706();
    let spec = Architecture::SegmentedRr.instantiate(&model, 2).unwrap();
    let row = CostModel::evaluate(&MultipleCeBuilder::new(&model, &board).build(&spec).unwrap());
    let full = CostModel::evaluate(
        &MultipleCeBuilder::new(&model, &board)
            .with_options(BuilderOptions {
                pipelined_row_parallelism: true,
                ..Default::default()
            })
            .build(&spec)
            .unwrap(),
    );
    let mut t = Table::new(
        "row_parallelism",
        &[
            "pipelined parallelism",
            "accesses (MiB)",
            "latency (ms)",
            "weights share",
        ],
    );
    for (name, e) in [
        ("row-pipelined (p_oh = 1)", &row),
        ("unrestricted 3-D", &full),
    ] {
        t.row(vec![
            name.to_string(),
            format!("{:.1}", mib(e.offchip_bytes)),
            format!("{:.1}", e.latency_ms()),
            format!("{:.0}%", 100.0 * e.weight_traffic_share()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn ablations_produce_tables() {
        let r = super::run();
        assert_eq!(r.tables.len(), 4);
        assert!(r.tables.iter().all(|t| !t.rows.is_empty()));
    }
}
