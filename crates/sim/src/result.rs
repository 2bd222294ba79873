//! Simulator outputs and their comparison against the analytical model.

use mccm_core::{accuracy_pct, AccuracyRecord, Evaluation, Metric};

/// Measured results of simulating an accelerator on a stream of images.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// First-image end-to-end latency in seconds.
    pub latency_s: f64,
    /// Steady-state throughput in frames per second.
    pub throughput_fps: f64,
    /// Useful off-chip bytes per inference (burst padding excluded, so the
    /// count is the deterministic architectural traffic).
    pub offchip_bytes: u64,
    /// Weight portion of the traffic.
    pub offchip_weight_bytes: u64,
    /// Feature-map portion of the traffic.
    pub offchip_fm_bytes: u64,
    /// Implemented on-chip buffers: the builder's plan mapped onto whole
    /// BRAM banks plus per-engine control storage (what synthesis would
    /// report).
    pub implemented_buffer_bytes: u64,
    /// Per-segment `(start, end)` times of the first image, in seconds.
    pub segment_windows: Vec<(f64, f64)>,
    /// Off-chip channel occupancy over the whole run, in `[0, 1]`.
    pub dma_utilization: f64,
    /// Events processed (diagnostic).
    pub events: u64,
    /// Images simulated.
    pub images: usize,
}

impl SimResult {
    /// Accuracy records of a model evaluation against this reference
    /// (Eq. 10), one per Table IV metric.
    ///
    /// Latency and throughput compare timed quantities; buffers compare
    /// the model's planned bytes to the bank-quantized implementation;
    /// accesses compare deterministic byte counts.
    pub fn accuracy_records(&self, model: &Evaluation) -> Vec<AccuracyRecord> {
        vec![
            AccuracyRecord {
                metric: Metric::Latency,
                reference: self.latency_s,
                estimated: model.latency_s,
            },
            AccuracyRecord {
                metric: Metric::Throughput,
                reference: self.throughput_fps,
                estimated: model.throughput_fps,
            },
            AccuracyRecord {
                metric: Metric::OnChipBuffers,
                reference: self.implemented_buffer_bytes as f64,
                estimated: model.buffer_alloc_bytes.as_f64(),
            },
            AccuracyRecord {
                metric: Metric::OffChipAccesses,
                reference: self.offchip_bytes as f64,
                estimated: model.offchip_bytes.as_f64(),
            },
        ]
    }

    /// Eq. (10) latency accuracy against a model evaluation.
    pub fn latency_accuracy(&self, model: &Evaluation) -> f64 {
        accuracy_pct(self.latency_s, model.latency_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_records_cover_all_metrics() {
        let sim = SimResult {
            latency_s: 0.010,
            throughput_fps: 100.0,
            offchip_bytes: 1000,
            offchip_weight_bytes: 800,
            offchip_fm_bytes: 200,
            implemented_buffer_bytes: 1_048_576,
            segment_windows: vec![],
            dma_utilization: 0.5,
            events: 10,
            images: 4,
        };
        let model = Evaluation {
            summary: mccm_core::EvalSummary {
                notation: String::new(),
                ce_count: 1,
                total_macs: mccm_core::Macs::ZERO,
                latency_s: 0.009,
                throughput_fps: 105.0,
                buffer_req_bytes: mccm_core::Bytes::new(2_000_000),
                buffer_alloc_bytes: mccm_core::Bytes::new(1_000_000),
                offchip_bytes: mccm_core::Bytes::new(1000),
                offchip_weight_bytes: mccm_core::Bytes::new(800),
                offchip_fm_bytes: mccm_core::Bytes::new(200),
                memory_stall_fraction: 0.0,
            },
            model_name: String::new(),
            board_name: String::new(),
            segments: vec![],
            ces: vec![],
            layers: vec![],
        };
        let records = sim.accuracy_records(&model);
        assert_eq!(records.len(), 4);
        // Accesses identical -> 100%.
        let acc = records
            .iter()
            .find(|r| r.metric == Metric::OffChipAccesses)
            .unwrap();
        assert!((acc.accuracy() - 100.0).abs() < 1e-12);
        // Latency estimate 10% fast -> 90%.
        assert!((sim.latency_accuracy(&model) - 90.0).abs() < 1e-9);
    }
}
