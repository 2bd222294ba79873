//! Table IV: MCCM accuracy against the reference evaluator on VCU108 —
//! 150 experiments (3 architectures × 10 CE counts × 5 CNNs), summarized
//! as max/min/average per architecture and metric, plus the
//! best-architecture prediction agreement (§V-B).

use mccm_arch::templates::Architecture;
use mccm_arch::MultipleCeBuilder;
use mccm_core::{AccuracySummary, CostModel, Metric};
use mccm_fpga::FpgaBoard;
use mccm_sim::{SimConfig, Simulator};

use crate::output::{Report, Table};
use crate::setups::{models, CE_RANGE};

/// Paper's Table IV averages per (metric, architecture) for context.
pub const PAPER_AVG: [(&str, [f64; 3]); 4] = [
    ("On-chip buffers", [93.1, 97.4, 95.4]), // Segmented, SegmentedRR, Hybrid
    ("Latency", [92.8, 93.3, 92.5]),
    ("Throughput", [93.9, 95.1, 92.5]),
    ("Off-chip accesses", [100.0, 100.0, 100.0]),
];

/// One validated experiment.
struct Cell {
    arch: Architecture,
    ces: usize,
    model: String,
    /// Per-metric (model value, reference value) in `Metric::ALL` order
    /// rearranged as [buffers, latency, throughput, accesses].
    accuracy: [f64; 4],
    /// Model and reference values used for prediction agreement.
    model_vals: [f64; 4],
    ref_vals: [f64; 4],
}

const METRICS: [Metric; 4] = [
    Metric::OnChipBuffers,
    Metric::Latency,
    Metric::Throughput,
    Metric::OffChipAccesses,
];

/// Runs the 150-experiment validation.
pub fn run() -> Report {
    let board = FpgaBoard::vcu108();
    let sim = Simulator::new(SimConfig::default());
    let mut cells: Vec<Cell> = Vec::with_capacity(150);

    for model in models() {
        let builder = MultipleCeBuilder::new(&model, &board);
        for arch in Architecture::ALL {
            for ces in CE_RANGE {
                let spec = arch.instantiate(&model, ces).expect("feasible CE counts");
                let acc = builder.build(&spec).expect("buildable");
                let eval = CostModel::evaluate(&acc);
                let r = sim.run_with_eval(&acc, &eval);
                let recs = r.accuracy_records(&eval);
                let by = |m: Metric| recs.iter().find(|x| x.metric == m).unwrap();
                let accuracy = [
                    recs[2].accuracy(),
                    recs[0].accuracy(),
                    recs[1].accuracy(),
                    recs[3].accuracy(),
                ];
                cells.push(Cell {
                    arch,
                    ces,
                    model: model.name().to_string(),
                    accuracy,
                    model_vals: METRICS.map(|m| by(m).estimated),
                    ref_vals: METRICS.map(|m| by(m).reference),
                });
            }
        }
    }
    assert_eq!(cells.len(), 150);

    let mut report = Report::new(
        "table4",
        "MCCM accuracy vs. reference simulator on VCU108 (150 experiments)",
    );
    let mut t = Table::new(
        "summary",
        &[
            "metric",
            "stat",
            "Segmented",
            "SegmentedRR",
            "Hybrid",
            "paper avg (S/R/H)",
        ],
    );
    for (mi, metric) in METRICS.iter().enumerate() {
        let per_arch: Vec<AccuracySummary> = Architecture::ALL
            .iter()
            .map(|&a| {
                AccuracySummary::from_accuracies(
                    cells.iter().filter(|c| c.arch == a).map(|c| c.accuracy[mi]),
                )
                .expect("non-empty")
            })
            .collect();
        let paper = PAPER_AVG[mi].1;
        for (stat, get) in [
            (
                "max",
                &(|s: &AccuracySummary| s.max) as &dyn Fn(&AccuracySummary) -> f64,
            ),
            ("min", &|s: &AccuracySummary| s.min),
            ("avg", &|s: &AccuracySummary| s.average),
        ] {
            t.row(vec![
                metric.name().to_string(),
                stat.to_string(),
                format!("{:.1}%", get(&per_arch[0])),
                format!("{:.1}%", get(&per_arch[1])),
                format!("{:.1}%", get(&per_arch[2])),
                if stat == "avg" {
                    format!("{:.1}/{:.1}/{:.1}", paper[0], paper[1], paper[2])
                } else {
                    String::new()
                },
            ]);
        }
    }
    report.tables.push(t);

    // Prediction agreement (§V-B): per (CNN, CE count) group, does the
    // model pick the same best architecture as the reference?
    let mut pred = Table::new("prediction", &["metric", "correct", "out of", "paper"]);
    for (mi, metric) in METRICS.iter().enumerate() {
        let mut correct = 0usize;
        let mut total = 0usize;
        for model in models() {
            for ces in CE_RANGE {
                let group: Vec<&Cell> = cells
                    .iter()
                    .filter(|c| c.model == model.name() && c.ces == ces)
                    .collect();
                let best = |vals: &dyn Fn(&Cell) -> f64| -> Architecture {
                    group
                        .iter()
                        .reduce(|a, b| {
                            if metric.better(vals(b), vals(a)) {
                                b
                            } else {
                                a
                            }
                        })
                        .unwrap()
                        .arch
                };
                let model_best = best(&|c: &Cell| c.model_vals[mi]);
                let ref_best = best(&|c: &Cell| c.ref_vals[mi]);
                // Each group covers 3 experiments, as in the paper's
                // "139 of the 150".
                total += 3;
                if model_best == ref_best {
                    correct += 3;
                }
            }
        }
        let paper = match metric {
            Metric::OnChipBuffers => "139/150",
            _ => "150/150",
        };
        pred.row(vec![
            metric.name().to_string(),
            correct.to_string(),
            total.to_string(),
            paper.to_string(),
        ]);
    }
    report.tables.push(pred);

    let overall: f64 = cells.iter().flat_map(|c| c.accuracy.iter()).sum::<f64>() / (150.0 * 4.0);
    report.note(format!(
        "Overall average accuracy {overall:.1}% (paper: > 90% for all architectures)."
    ));
    report.note(
        "Reference = event-driven tile-level simulator (docs/design.md); the paper used Vitis HLS synthesis.".to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "runs the full 150-experiment grid (~minutes in debug); exercised by the table4 binary"]
    fn full_grid() {
        let r = run();
        assert_eq!(r.tables[0].rows.len(), 12);
        assert_eq!(r.tables[1].rows.len(), 4);
    }
}
