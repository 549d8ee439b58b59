//! The paper's analytic trainer- and node-side models, which `figures`
//! feeds with counts measured on the real pipeline.
//!
//! §VI of the paper measures the trainer side of the DSI pipeline: GPUs
//! demand up to 16.5 GB/s of tensors per node (Table VIII); merely *loading*
//! that data costs up to 40% of host CPU and 55% of memory bandwidth
//! (Fig. 8); and performing preprocessing on the trainer host — the status
//! quo DPP replaces — stalls GPUs 56% of the time (Table VII). A DPP
//! worker's saturation throughput on a node (Table IX, Fig. 9) is its
//! measured per-sample demand priced on the [`node`](crate::node) model.
//!
//! * [`per_sample_demand`] — a measured `WorkerReport` as a per-sample
//!   resource vector, datacenter tax included;
//! * [`GpuDemand`] — a trainer node's tensor ingestion demand;
//! * [`onhost_baseline`] — the on-host preprocessing baseline (Table VII);
//! * [`DedupIngest`] — RecD shared-tensor accounting for deduped batches.

use crate::node::{NodeSpec, ResourceVector, Utilization};
use crate::tax::DatacenterTax;
use dpp::WorkerReport;
use dsi_types::MiniBatchTensor;

/// Mean per-sample resource demand of a measured worker run, including the
/// datacenter tax on storage receive and tensor transmit — the vector that,
/// against a [`NodeSpec`], yields the worker's saturation throughput.
pub fn per_sample_demand(report: &WorkerReport, tax: &DatacenterTax) -> ResourceVector {
    if report.samples == 0 {
        return ResourceVector::default();
    }
    let n = report.samples as f64;
    let rx = tax.rx_cost(report.storage_rx_bytes as f64 / n);
    let tx = tax.tx_cost(report.transform_tx_bytes as f64 / n);
    let compute = ResourceVector {
        cpu_cycles: (report.extract_cycles + report.transform_cycles) / n,
        membw_bytes: report.membw_bytes / n,
        resident_bytes: report.peak_resident_bytes as f64 / n,
        residency_secs: 1.0,
        ..Default::default()
    };
    rx.plus(&tx).plus(&compute)
}

/// A trainer node's tensor ingestion demand.
///
/// Demand varies over 6× across models (Table VIII) because operational
/// intensity (compute per sample) and inter-GPU synchronization overheads
/// differ; a compute-light model drains tensors much faster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuDemand {
    /// Tensor bytes per second the node's GPUs consume.
    pub bytes_per_sec: f64,
    /// Mean tensor bytes per sample for this model.
    pub bytes_per_sample: f64,
}

impl GpuDemand {
    /// Creates a demand model.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not positive.
    pub fn new(bytes_per_sec: f64, bytes_per_sample: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "demand must be positive");
        assert!(bytes_per_sample > 0.0, "sample size must be positive");
        Self {
            bytes_per_sec,
            bytes_per_sample,
        }
    }

    /// Samples per second the node consumes.
    pub fn samples_per_sec(&self) -> f64 {
        self.bytes_per_sec / self.bytes_per_sample
    }
}

/// Outcome of running preprocessing on the trainer host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnHostReport {
    /// Samples/second the host can supply.
    pub supply_qps: f64,
    /// Samples/second the GPUs demand.
    pub demand_qps: f64,
    /// Fraction of GPU time stalled waiting for data.
    pub stall_fraction: f64,
    /// Host utilization at the operating point.
    pub utilization: Utilization,
}

/// Computes the on-host equilibrium (Table VII).
///
/// Before DPP, preprocessing ran on each trainer's own CPUs. Table VII
/// shows the result for RM1 on a 2-socket, 8-GPU node: 56% of GPU cycles
/// stalled waiting for data, at 92% host CPU utilization.
///
/// `preproc_per_sample` is the measured extract+transform demand per sample
/// (e.g. from a `dpp::WorkerReport`); storage receive bytes are charged the
/// datacenter tax because the host still pulls raw data over the network.
/// The host runs preprocessing as fast as its binding resource allows; GPUs
/// stall for the remainder of the demand.
pub fn onhost_baseline(
    node: &NodeSpec,
    tax: &DatacenterTax,
    preproc_per_sample: &ResourceVector,
    storage_rx_bytes_per_sample: f64,
    demand: &GpuDemand,
) -> OnHostReport {
    // On-host loading replaces the worker->trainer hop: the host pays tax
    // on the raw storage bytes instead (no tensor egress).
    let total = preproc_per_sample.plus(&tax.rx_cost(storage_rx_bytes_per_sample));
    let supply = node.max_rate(&total);
    let demand_qps = demand.samples_per_sec();
    let operating = supply.min(demand_qps);
    let stall = (1.0 - supply / demand_qps).max(0.0);
    OnHostReport {
        supply_qps: supply,
        demand_qps,
        stall_fraction: stall,
        utilization: node.utilization_at(&total, operating),
    }
}

/// Cumulative shared-tensor accounting for a dedup-aware trainer.
///
/// When DPP ships RecD-deduplicated batches, sparse rows shared within a
/// session arrive once — duplicate rows are 4-byte back-references — so the
/// trainer's datacenter tax (Fig. 8) is paid on the deduped wire volume,
/// and embedding-table lookups for duplicate rows reuse the canonical row's
/// fetched indices instead of re-reading HBM. The tensors the model
/// consumes are still the full, expanded batches (training math is
/// unchanged — asserted bit-identical by the pipeline integration tests).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DedupIngest {
    /// Batches accepted.
    pub batches: u64,
    /// Logical rows accepted (what the model trains on).
    pub rows: u64,
    /// Rows carrying their own sparse payload (canonical rows).
    pub canonical_rows: u64,
    /// Bytes actually crossing the wire (deduped encoding).
    pub wire_bytes: u64,
    /// Bytes the expanded tensors occupy (what a dedup-off run ships).
    pub full_bytes: u64,
    /// Embedding-lookup input rows served by the canonical row's sparse
    /// ids instead of a fresh tensor row (one per duplicate row per
    /// sparse tensor).
    pub lookup_reuse_hits: u64,
}

impl DedupIngest {
    /// Accepts one batch, detecting shared sparse rows and accumulating
    /// wire/lookup savings.
    pub fn accept(&mut self, tensor: &MiniBatchTensor) {
        let refs = dedup::shared_row_refs(tensor);
        let canonicals = refs
            .iter()
            .enumerate()
            .filter(|&(r, &rf)| rf as usize == r)
            .count() as u64;
        let rows = tensor.batch_size() as u64;
        self.batches += 1;
        self.rows += rows;
        self.canonical_rows += canonicals;
        self.wire_bytes += dedup::deduped_tensor_bytes(tensor, &refs) as u64;
        self.full_bytes += tensor.payload_bytes() as u64;
        self.lookup_reuse_hits += (rows - canonicals) * tensor.sparse.len() as u64;
    }

    /// Mean per-sample host loading demand at the deduped wire volume —
    /// the Fig. 8 per-byte loading cost times the deduped bytes per sample.
    pub fn per_sample_loading_demand(&self, tax: &DatacenterTax) -> ResourceVector {
        if self.rows == 0 {
            return ResourceVector::default();
        }
        tax.rx_cost(self.wire_bytes as f64 / self.rows as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::{Batch, FeatureId, Sample, SparseList};

    #[test]
    fn per_sample_demand_feeds_node_model() {
        let report = WorkerReport {
            samples: 100,
            storage_rx_bytes: 200_000,
            transform_tx_bytes: 50_000,
            extract_cycles: 1.0e6,
            transform_cycles: 3.0e6,
            membw_bytes: 2.0e6,
            peak_resident_bytes: 1 << 20,
            ..Default::default()
        };
        let tax = DatacenterTax::production();
        let demand = per_sample_demand(&report, &tax);
        assert_eq!(demand.nic_rx_bytes, 2_000.0);
        assert_eq!(demand.nic_tx_bytes, 500.0);
        let taxed = tax.rx_cost(2_000.0).plus(&tax.tx_cost(500.0));
        assert!((demand.cpu_cycles - taxed.cpu_cycles - 40_000.0).abs() < 1e-6);
        assert!((demand.membw_bytes - taxed.membw_bytes - 20_000.0).abs() < 1e-6);
        let qps = NodeSpec::c_v1().max_rate(&demand);
        assert!(qps.is_finite() && qps > 0.0);
        let empty = per_sample_demand(&WorkerReport::default(), &tax);
        assert_eq!(empty.cpu_cycles, 0.0);
    }

    #[test]
    fn gpu_demand_converts_bytes_to_samples() {
        let d = GpuDemand::new(16.5e9, 50_000.0);
        assert!((d.samples_per_sec() - 330_000.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "demand must be positive")]
    fn zero_demand_rejected() {
        GpuDemand::new(0.0, 1.0);
    }

    /// An RM1-flavoured per-sample preprocessing demand: heavy transform
    /// cycles and memory traffic per sample (values in the range a
    /// `dpp::WorkerReport` measures on the synthetic RM1 dataset).
    fn rm1_like_preproc() -> ResourceVector {
        ResourceVector {
            cpu_cycles: 860_000.0,
            membw_bytes: 470_000.0,
            ..Default::default()
        }
    }

    #[test]
    fn rm1_on_host_stalls_over_half_the_time() {
        let node = NodeSpec::trainer();
        let tax = DatacenterTax::production();
        // RM1: 16.5 GB/s of tensors at ~50 KB/sample -> 330k samples/s.
        let demand = GpuDemand::new(16.5e9, 50_000.0);
        let report = onhost_baseline(&node, &tax, &rm1_like_preproc(), 25_000.0, &demand);
        assert!(
            (0.45..=0.70).contains(&report.stall_fraction),
            "stall {:.2} outside Table VII band",
            report.stall_fraction
        );
        assert!(
            report.utilization.cpu > 0.85,
            "host CPU should be nearly saturated: {:.2}",
            report.utilization.cpu
        );
        assert!(
            (0.3..0.9).contains(&report.utilization.membw),
            "membw {:.2}",
            report.utilization.membw
        );
    }

    #[test]
    fn cheap_preprocessing_does_not_stall() {
        let node = NodeSpec::trainer();
        let tax = DatacenterTax::production();
        let demand = GpuDemand::new(4.69e9, 50_000.0); // RM2-ish demand
        let light = ResourceVector {
            cpu_cycles: 5_000.0,
            membw_bytes: 10_000.0,
            ..Default::default()
        };
        let report = onhost_baseline(&node, &tax, &light, 10_000.0, &demand);
        assert_eq!(report.stall_fraction, 0.0);
        assert!(report.utilization.cpu < 1.0);
    }

    #[test]
    fn on_host_stall_grows_with_demand() {
        let node = NodeSpec::trainer();
        let tax = DatacenterTax::production();
        let pre = rm1_like_preproc();
        let low = onhost_baseline(&node, &tax, &pre, 25_000.0, &GpuDemand::new(4e9, 50_000.0));
        let high = onhost_baseline(&node, &tax, &pre, 25_000.0, &GpuDemand::new(20e9, 50_000.0));
        assert!(high.stall_fraction > low.stall_fraction);
        // Supply is demand-independent (host-bound).
        assert!((high.supply_qps - low.supply_qps).abs() < 1e-6);
    }

    fn sessionized_batch(sessions: usize, members: usize) -> MiniBatchTensor {
        let samples: Vec<Sample> = (0..sessions * members)
            .map(|i| {
                let session = (i / members) as u64;
                let mut s = Sample::new(i as f32);
                s.set_dense(FeatureId(1), i as f32 * 0.5);
                s.set_sparse(
                    FeatureId(2),
                    SparseList::from_ids((0..16).map(|k| session * 100 + k).collect()),
                );
                s
            })
            .collect();
        Batch::from_samples(samples).materialize(&[FeatureId(1)], &[FeatureId(2)])
    }

    #[test]
    fn shared_rows_cut_wire_bytes_and_lookups() {
        let mut ingest = DedupIngest::default();
        ingest.accept(&sessionized_batch(4, 8));
        assert_eq!(ingest.rows, 32);
        assert_eq!(ingest.canonical_rows, 4);
        assert_eq!(ingest.lookup_reuse_hits, 28);
        assert!(
            ingest.wire_bytes * 2 < ingest.full_bytes,
            "wire {} vs full {}",
            ingest.wire_bytes,
            ingest.full_bytes
        );
        let tax = DatacenterTax::production();
        let deduped = ingest.per_sample_loading_demand(&tax);
        let full = tax.rx_cost(ingest.full_bytes as f64 / ingest.rows as f64);
        assert!(deduped.cpu_cycles < full.cpu_cycles);
        assert!(deduped.nic_rx_bytes < full.nic_rx_bytes);
    }

    #[test]
    fn unduplicated_batches_pay_full_cost() {
        let mut ingest = DedupIngest::default();
        ingest.accept(&sessionized_batch(8, 1));
        assert_eq!(ingest.rows, ingest.canonical_rows);
        assert_eq!(ingest.lookup_reuse_hits, 0);
        assert!(ingest.wire_bytes >= ingest.full_bytes, "nothing saved");
    }
}
