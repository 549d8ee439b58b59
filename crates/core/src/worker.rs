//! Stateless DPP Workers: the extract → transform → load executor.
//!
//! A Worker repeatedly asks its Master for a split, then (§III-B1):
//!
//! 1. **extract** — reads the split's raw Tectonic chunks, decrypts,
//!    decompresses, and decodes them into rows, filtering unused features;
//! 2. **transform** — applies the session's [`transforms::TransformPlan`]
//!    locally to each mini-batch;
//! 3. **load** — batches samples into [`dsi_types::MiniBatchTensor`]s and
//!    buffers them for Clients.
//!
//! Workers are stateless: any split can run on any worker, so the fleet
//! scales out freely and failures need no checkpoint restore. Every stage
//! charges a resource model so saturation throughput and bottlenecks on a
//! given node (Table IX, Fig. 9) are measured outputs.

use crate::session::SessionSpec;
use dsi_types::{Batch, MiniBatchTensor, Result, Sample, WorkerId};
use dwrf::IoPlan;
use hwsim::{DatacenterTax, NodeSpec, ResourceVector, Utilization};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use transforms::{ColumnarPlan, COLUMNAR_KERNELS};
use warehouse::{Split, TableScan};

/// The session's transform plan compiled for execution: the row-path
/// residue plus the columnar plan that runs over materialized tensors in
/// the load stage. Splitting happens once per worker (not per split), and
/// only for fastpath sessions without dedup — dedup's canonical-row reuse
/// needs the whole plan on the row path, and `fastpath: false` asks for
/// the whole plan on rows.
#[derive(Debug)]
pub(crate) struct ExecPlan {
    /// What must see individual [`Sample`]s: the whole plan for dedup and
    /// non-fastpath sessions, otherwise only its `Sampling` ops (the
    /// batch-level row filter).
    pub row: transforms::TransformPlan,
    /// Every other op, run over the materialized tensor's columns.
    pub columnar: ColumnarPlan,
    /// Per-feature materialization caps aligned with `spec.sparse_ids`
    /// (empty = no caps): the columnar plan's `FirstX` ops pushed all the
    /// way into materialization, so the truncated-away tail is never
    /// copied, hashed, or shipped.
    pub sparse_caps: Vec<usize>,
}

impl ExecPlan {
    pub(crate) fn for_spec(spec: &SessionSpec) -> Self {
        if spec.fastpath && spec.dedup.is_none() {
            let (row, columnar) = ColumnarPlan::split_plan(&spec.plan);
            let sparse_caps = columnar.sparse_caps(&spec.sparse_ids);
            Self {
                row,
                columnar,
                sparse_caps,
            }
        } else {
            Self {
                row: spec.plan.clone(),
                columnar: ColumnarPlan::empty(),
                sparse_caps: Vec::new(),
            }
        }
    }
}

/// Cycle and memory-traffic coefficients for the extract stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExtractCostModel {
    /// Cycles per compressed byte for stream decryption.
    pub decrypt_cycles_per_byte: f64,
    /// Memory bytes moved per compressed byte during decryption.
    pub decrypt_membw_per_byte: f64,
    /// Cycles per compressed byte for decompression.
    pub decompress_cycles_per_byte: f64,
    /// Memory bytes moved per compressed byte during decompression.
    pub decompress_membw_per_byte: f64,
    /// Cycles per decoded byte for row reconstruction / format decode.
    pub decode_cycles_per_byte: f64,
    /// Memory bytes moved per decoded byte during decode.
    pub decode_membw_per_byte: f64,
    /// Memory bytes moved per tensor byte while batching (flatmap copy).
    pub batch_membw_per_byte: f64,
    /// Memory bytes moved per transferred byte (DMA + buffer copy); paid
    /// for every byte read including coalescing over-read.
    pub transfer_membw_per_byte: f64,
}

impl Default for ExtractCostModel {
    fn default() -> Self {
        Self {
            decrypt_cycles_per_byte: 1.2,
            decrypt_membw_per_byte: 2.0,
            decompress_cycles_per_byte: 1.5,
            decompress_membw_per_byte: 3.0,
            decode_cycles_per_byte: 2.0,
            decode_membw_per_byte: 4.0,
            batch_membw_per_byte: 2.0,
            transfer_membw_per_byte: 1.0,
        }
    }
}

/// Cumulative per-worker telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkerReport {
    /// Splits completed.
    pub splits: u64,
    /// Samples decoded.
    pub samples: u64,
    /// Mini-batch tensors produced.
    pub batches: u64,
    /// Compressed bytes read from storage (including coalescing over-read).
    pub storage_rx_bytes: u64,
    /// Compressed bytes the projection actually wanted.
    pub storage_wanted_bytes: u64,
    /// Bytes memcpy'd on the decode path: only reads that span Tectonic
    /// blocks and in-flight corruption copy, so this is usually 0.
    pub copied_bytes: u64,
    /// Decompressed stream bytes produced by extraction (whole rows for
    /// unflattened map files, selected streams for flattened files).
    pub uncompressed_bytes: u64,
    /// Decoded (uncompressed) sample bytes entering transform.
    pub transform_rx_bytes: u64,
    /// Tensor bytes leaving the worker.
    pub transform_tx_bytes: u64,
    /// Extract-stage CPU cycles.
    pub extract_cycles: f64,
    /// Transform-stage CPU cycles.
    pub transform_cycles: f64,
    /// Of which: feature generation.
    pub feature_generation_cycles: f64,
    /// Of which: sparse normalization.
    pub sparse_normalization_cycles: f64,
    /// Of which: dense normalization.
    pub dense_normalization_cycles: f64,
    /// Memory-bandwidth bytes moved (extract + transform + batch).
    pub membw_bytes: f64,
    /// Peak resident working set in bytes (decoded split + tensors).
    pub peak_resident_bytes: u64,
    /// DedupSets detected while transforming (dedup sessions only).
    pub dedup_sets: u64,
    /// Rows covered by those DedupSets.
    pub dedup_rows: u64,
    /// Transform op applications replaced by canonical-result fan-out.
    pub dedup_reuse_hits: u64,
    /// Tensor bytes the shared-row wire encoding avoided shipping.
    pub dedup_tx_saved_bytes: u64,
    /// Wall nanoseconds per columnar transform kernel, indexed by
    /// [`transforms::COLUMNAR_KERNELS`] slot (all zero for dedup and
    /// non-fastpath sessions, whose plan runs entirely on the row path).
    pub columnar_kernel_nanos: [u64; COLUMNAR_KERNELS.len()],
}

impl WorkerReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: &WorkerReport) {
        self.splits += other.splits;
        self.samples += other.samples;
        self.batches += other.batches;
        self.storage_rx_bytes += other.storage_rx_bytes;
        self.storage_wanted_bytes += other.storage_wanted_bytes;
        self.copied_bytes += other.copied_bytes;
        self.uncompressed_bytes += other.uncompressed_bytes;
        self.transform_rx_bytes += other.transform_rx_bytes;
        self.transform_tx_bytes += other.transform_tx_bytes;
        self.extract_cycles += other.extract_cycles;
        self.transform_cycles += other.transform_cycles;
        self.feature_generation_cycles += other.feature_generation_cycles;
        self.sparse_normalization_cycles += other.sparse_normalization_cycles;
        self.dense_normalization_cycles += other.dense_normalization_cycles;
        self.membw_bytes += other.membw_bytes;
        self.peak_resident_bytes = self.peak_resident_bytes.max(other.peak_resident_bytes);
        self.dedup_sets += other.dedup_sets;
        self.dedup_rows += other.dedup_rows;
        self.dedup_reuse_hits += other.dedup_reuse_hits;
        self.dedup_tx_saved_bytes += other.dedup_tx_saved_bytes;
        for (mine, theirs) in self
            .columnar_kernel_nanos
            .iter_mut()
            .zip(other.columnar_kernel_nanos)
        {
            *mine += theirs;
        }
    }

    /// Publishes the report's cumulative totals into `registry` under
    /// `job` (the session id, so concurrent sessions sharing one registry
    /// keep distinct, correctly monotone counters instead of colliding on
    /// `advance_to`): sample / batch / byte counters plus simulated stage
    /// cycles (extract, transform, and the transform sub-stages of
    /// Table IX). Totals advance monotonically, so republishing a merged
    /// session report — or a superset after further merges — is
    /// idempotent. The dedup reuse counter exists only for sessions that
    /// dedup (the only ones whose report covers any dedup rows).
    pub fn publish_metrics(&self, registry: &dsi_obs::Registry, job: &str) {
        use dsi_obs::{names, span};
        let dedup = (self.dedup_rows > 0).then_some((
            names::DEDUP_TRANSFORM_REUSE_HITS_TOTAL,
            self.dedup_reuse_hits,
        ));
        for (name, total) in [
            (names::WORKER_SAMPLES_TOTAL, self.samples),
            (names::WORKER_BATCHES_TOTAL, self.batches),
            (names::WORKER_STORAGE_RX_BYTES_TOTAL, self.storage_rx_bytes),
            (
                names::WORKER_STORAGE_WANTED_BYTES_TOTAL,
                self.storage_wanted_bytes,
            ),
            (
                names::WORKER_MEMBW_BYTES_TOTAL,
                self.membw_bytes.round() as u64,
            ),
        ]
        .into_iter()
        .chain(dedup)
        {
            registry.counter(name, &[("job", job)]).advance_to(total);
        }
        for (stage, cycles) in [
            (span::stage::EXTRACT, self.extract_cycles),
            (span::stage::TRANSFORM, self.transform_cycles),
            (
                "transform/feature_generation",
                self.feature_generation_cycles,
            ),
            (
                "transform/sparse_normalization",
                self.sparse_normalization_cycles,
            ),
            (
                "transform/dense_normalization",
                self.dense_normalization_cycles,
            ),
        ] {
            registry
                .counter(span::STAGE_CYCLES_TOTAL, &[("job", job), ("stage", stage)])
                .advance_to(cycles.round() as u64);
        }
        for (op, nanos) in COLUMNAR_KERNELS.iter().zip(self.columnar_kernel_nanos) {
            if nanos == 0 {
                continue;
            }
            registry
                .counter(
                    names::TRANSFORM_KERNEL_NANOS_TOTAL,
                    &[("job", job), ("op", op)],
                )
                .advance_to(nanos);
        }
    }

    /// Mean per-sample resource demand including the datacenter tax on
    /// storage receive and tensor transmit — the vector that, against a
    /// [`NodeSpec`], yields the worker's saturation throughput.
    pub fn per_sample_demand(&self, tax: &DatacenterTax) -> ResourceVector {
        if self.samples == 0 {
            return ResourceVector::default();
        }
        let n = self.samples as f64;
        let rx = tax.rx_cost(self.storage_rx_bytes as f64 / n);
        let tx = tax.tx_cost(self.transform_tx_bytes as f64 / n);
        let compute = ResourceVector {
            cpu_cycles: (self.extract_cycles + self.transform_cycles) / n,
            membw_bytes: self.membw_bytes / n,
            resident_bytes: self.peak_resident_bytes as f64 / n,
            residency_secs: 1.0,
            ..Default::default()
        };
        rx.plus(&tx).plus(&compute)
    }

    /// Saturation throughput (samples/s) of this workload on `node`.
    pub fn saturation_qps(&self, node: &NodeSpec, tax: &DatacenterTax) -> f64 {
        node.max_rate(&self.per_sample_demand(tax))
    }

    /// Per-resource utilization at saturation on `node`.
    pub fn utilization_at_saturation(&self, node: &NodeSpec, tax: &DatacenterTax) -> Utilization {
        let demand = self.per_sample_demand(tax);
        node.utilization_at(&demand, node.max_rate(&demand))
    }

    /// CPU cycle share of extract vs transform vs total, as fractions.
    pub fn cycle_shares(&self) -> (f64, f64) {
        let total = self.extract_cycles + self.transform_cycles;
        if total == 0.0 {
            return (0.0, 0.0);
        }
        (self.extract_cycles / total, self.transform_cycles / total)
    }
}

/// One stateless Worker bound to a session.
#[derive(Debug)]
pub struct Worker {
    id: WorkerId,
    // Read-only after construction; the worker loop hands clones of these
    // to its fetch and transform stages.
    pub(crate) spec: Arc<SessionSpec>,
    pub(crate) exec: Arc<ExecPlan>,
    pub(crate) scan: TableScan,
    pub(crate) cost: ExtractCostModel,
    carry: Batch,
    report: WorkerReport,
}

impl Worker {
    /// Creates a worker. `scan` must be the session's scan (same
    /// projection/policy the Master planned splits from).
    pub fn new(id: WorkerId, spec: Arc<SessionSpec>, scan: TableScan) -> Self {
        let exec = Arc::new(ExecPlan::for_spec(&spec));
        Self {
            id,
            spec,
            exec,
            scan,
            cost: ExtractCostModel::default(),
            carry: Batch::new(),
            report: WorkerReport::default(),
        }
    }

    /// Overrides the extract cost model (builder-style; used by the §VII
    /// co-design ablation to price the pre-flatmap in-memory format).
    pub fn with_cost_model(mut self, cost: ExtractCostModel) -> Self {
        self.cost = cost;
        self
    }

    /// The worker's id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// Telemetry so far.
    pub fn report(&self) -> WorkerReport {
        self.report
    }

    /// Processes one split end-to-end, returning the tensors it filled.
    ///
    /// Samples that do not fill a whole mini-batch are carried to the next
    /// split; call [`Worker::flush`] at end of session.
    ///
    /// # Errors
    ///
    /// Propagates storage and decode failures.
    pub fn process_split(&mut self, split: &Split) -> Result<Vec<MiniBatchTensor>> {
        let (rows, plan) = self.scan.read_split(split)?;
        let (transformed, delta) =
            Self::transform_stage(&self.spec, &self.exec, &self.cost, split, rows, &plan);
        Ok(self.load_stage(transformed, delta))
    }

    /// The middle stage: extract accounting, beta-feature injection, and
    /// the transform plan, all on already-read rows. Free of worker state
    /// so it can run on a different thread than the owner of the
    /// [`WorkerReport`]; its accounting comes back as a report delta for
    /// [`Worker::load_stage`] to merge. It sees only this split's rows —
    /// samples carried over from the previous split were transformed with
    /// theirs — so `Sampling` draws by position in the split, whatever the
    /// batch size left behind.
    pub(crate) fn transform_stage(
        spec: &SessionSpec,
        exec: &ExecPlan,
        cost: &ExtractCostModel,
        split: &Split,
        rows: Vec<Sample>,
        plan: &IoPlan,
    ) -> (Batch, WorkerReport) {
        let mut delta = WorkerReport::default();
        // ---- extract accounting ----
        let decoded_bytes: u64 = rows.iter().map(|s| s.payload_bytes() as u64).sum();
        // Over-read bytes are transferred (NIC + memcpy) but never
        // decrypted/decompressed; decode is charged on the true
        // decompressed volume (whole rows for unflattened map files).
        let transferred = plan.read_bytes;
        let wanted = plan.wanted_bytes;
        let uncompressed = plan.uncompressed_bytes.max(decoded_bytes);
        delta.storage_rx_bytes = transferred;
        delta.storage_wanted_bytes = wanted;
        delta.copied_bytes = plan.copied_bytes;
        delta.uncompressed_bytes = uncompressed;
        delta.transform_rx_bytes = decoded_bytes;
        delta.extract_cycles = wanted as f64
            * (cost.decrypt_cycles_per_byte + cost.decompress_cycles_per_byte)
            + uncompressed as f64 * cost.decode_cycles_per_byte;
        delta.membw_bytes = transferred as f64 * cost.transfer_membw_per_byte
            + wanted as f64 * (cost.decrypt_membw_per_byte + cost.decompress_membw_per_byte)
            + uncompressed as f64 * cost.decode_membw_per_byte;
        delta.samples = rows.len() as u64;
        delta.peak_resident_bytes = uncompressed + transferred;

        // ---- inject back-filled beta features (dynamic join) ----
        let mut rows = rows;
        for injection in &spec.injections {
            for row in &mut rows {
                injection.apply(row);
            }
        }

        // ---- transform ----
        let base_row = split.index * 1_000_000; // distinct sampling domains per split
        let batch = Batch::from_samples(rows);
        let (transformed, tcost) = if let Some(cfg) = &spec.dedup {
            let (out, tcost, stats) = dedup::apply_batch_dedup(&spec.plan, batch, base_row, cfg);
            delta.dedup_sets = stats.sets;
            delta.dedup_rows = stats.rows;
            delta.dedup_reuse_hits = stats.reuse_hits;
            (out, tcost)
        } else {
            // On the fast path `exec.row` only filters rows: every other
            // op runs over the materialized tensor in the load stage.
            exec.row.apply_batch(batch, base_row)
        };
        delta.transform_cycles = tcost.cycles;
        delta.feature_generation_cycles = tcost.feature_generation_cycles;
        delta.sparse_normalization_cycles = tcost.sparse_normalization_cycles;
        delta.dense_normalization_cycles = tcost.dense_normalization_cycles;
        delta.membw_bytes += tcost.membw_bytes;
        delta.splits = 1;
        (transformed, delta)
    }

    /// The final stage: merges the transform stage's report
    /// delta and batches the carry plus the transformed samples into
    /// tensors. Owns the carry and the cumulative report, so it always
    /// runs on the worker's own thread.
    pub(crate) fn load_stage(
        &mut self,
        transformed: Batch,
        delta: WorkerReport,
    ) -> Vec<MiniBatchTensor> {
        self.report.merge(&delta);
        let mut tensors = Vec::new();
        let mut pending: Vec<Sample> = std::mem::take(&mut self.carry).into_samples();
        pending.extend(transformed.into_samples());
        let bs = self.spec.batch_size;
        while pending.len() >= bs {
            let rest = pending.split_off(bs);
            let full = Batch::from_samples(pending);
            pending = rest;
            tensors.push(self.materialize(&full));
        }
        self.carry = Batch::from_samples(pending);
        tensors
    }

    /// Materializes any carried partial batch (end of session).
    pub fn flush(&mut self) -> Option<MiniBatchTensor> {
        if self.carry.is_empty() {
            return None;
        }
        let batch = std::mem::take(&mut self.carry);
        Some(self.materialize(&batch))
    }

    fn materialize(&mut self, batch: &Batch) -> MiniBatchTensor {
        let ctx = (!self.exec.columnar.is_empty()).then(|| {
            self.exec.columnar.capture_ctx(
                batch.samples(),
                &self.spec.dense_ids,
                &self.spec.sparse_ids,
            )
        });
        let mut tensor = batch.materialize_capped(
            &self.spec.dense_ids,
            &self.spec.sparse_ids,
            &self.exec.sparse_caps,
        );
        if let Some(ctx) = ctx {
            let applied = self.exec.columnar.apply_with_cost(
                &mut tensor,
                &self.spec.dense_ids,
                &ctx,
                self.spec.plan.cost_model(),
            );
            self.report.transform_cycles += applied.cost.cycles;
            self.report.feature_generation_cycles += applied.cost.feature_generation_cycles;
            self.report.sparse_normalization_cycles += applied.cost.sparse_normalization_cycles;
            self.report.dense_normalization_cycles += applied.cost.dense_normalization_cycles;
            self.report.membw_bytes += applied.cost.membw_bytes;
            for (slot, nanos) in applied.kernel_nanos.iter().enumerate() {
                self.report.columnar_kernel_nanos[slot] += nanos;
            }
        }
        let bytes = tensor.payload_bytes() as u64;
        // Dedup sessions ship sparse rows shared within a set as 4-byte
        // back-references instead of repeated payloads, so the wire (and
        // flatmap-copy) cost is the deduped encoding's size.
        let shipped = if self.spec.dedup.is_some() {
            let refs = dedup::shared_row_refs(&tensor);
            dedup::deduped_tensor_bytes(&tensor, &refs) as u64
        } else {
            bytes
        };
        self.report.dedup_tx_saved_bytes += bytes - shipped;
        self.report.transform_tx_bytes += shipped;
        self.report.membw_bytes += shipped as f64 * self.cost.batch_membw_per_byte;
        self.report.batches += 1;
        self.report.peak_resident_bytes = self
            .report
            .peak_resident_bytes
            .max(bytes * self.spec.buffer_capacity as u64);
        tensor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionSpec;
    use dsi_types::{FeatureId, PartitionId, Projection, SessionId, SparseList, TableId};
    use transforms::{TransformOp, TransformPlan};
    use warehouse::{Table, TableConfig};

    fn build_table(rows: u64) -> Table {
        let cluster = tectonic::TectonicCluster::new(tectonic::ClusterConfig::small());
        let opts = dwrf::WriterOptions {
            rows_per_stripe: 16,
            ..Default::default()
        };
        let table = Table::create(
            cluster,
            TableConfig::new(TableId(1), "w").with_writer_options(opts),
        )
        .unwrap();
        let samples: Vec<Sample> = (0..rows)
            .map(|i| {
                let mut s = Sample::new(i as f32);
                s.set_dense(FeatureId(1), 0.5);
                s.set_sparse(FeatureId(2), SparseList::from_ids(vec![i, i + 1, i + 2]));
                s
            })
            .collect();
        table.write_partition(PartitionId::new(0), samples).unwrap();
        table
    }

    fn spec() -> Arc<SessionSpec> {
        Arc::new(
            SessionSpec::builder(SessionId(1))
                .partitions(PartitionId::new(0)..PartitionId::new(1))
                .projection(Projection::new(vec![FeatureId(1), FeatureId(2)]))
                .plan(TransformPlan::new(vec![TransformOp::SigridHash {
                    input: FeatureId(2),
                    salt: 3,
                    modulus: 100,
                }]))
                .batch_size(10)
                .dense_ids(vec![FeatureId(1)])
                .sparse_ids(vec![FeatureId(2)])
                .build(),
        )
    }

    fn scan_for(table: &Table, spec: &SessionSpec) -> TableScan {
        table
            .scan(spec.partitions(), spec.projection.clone())
            .with_policy(spec.policy)
    }

    #[test]
    fn processes_splits_into_tensors() {
        let table = build_table(48);
        let spec = spec();
        let scan = scan_for(&table, &spec);
        let splits = scan.plan_splits();
        assert_eq!(splits.len(), 3); // 48 rows / 16 per stripe
        let mut worker = Worker::new(WorkerId(0), Arc::clone(&spec), scan);
        let mut total_rows = 0;
        for split in &splits {
            for t in worker.process_split(split).unwrap() {
                assert_eq!(t.batch_size(), 10);
                total_rows += t.batch_size();
                // Transform applied: hashed ids below the modulus.
                assert!(t.sparse[0].values().iter().all(|&v| v < 100));
            }
        }
        if let Some(t) = worker.flush() {
            total_rows += t.batch_size();
        }
        assert_eq!(total_rows, 48);
        let r = worker.report();
        assert_eq!(r.samples, 48);
        assert_eq!(r.splits, 3);
        assert_eq!(r.batches, 5); // 4 full + 1 flush of 8
        assert!(r.storage_rx_bytes > 0);
        assert!(r.transform_rx_bytes > 0);
        assert!(r.transform_tx_bytes > 0);
        assert!(r.extract_cycles > 0.0 && r.transform_cycles > 0.0);
    }

    #[test]
    fn per_sample_demand_feeds_node_model() {
        let table = build_table(64);
        let spec = spec();
        let scan = scan_for(&table, &spec);
        let mut worker = Worker::new(WorkerId(0), Arc::clone(&spec), scan.clone());
        for split in scan.plan_splits() {
            worker.process_split(&split).unwrap();
        }
        worker.flush();
        let tax = DatacenterTax::production();
        let demand = worker.report().per_sample_demand(&tax);
        assert!(demand.cpu_cycles > 0.0);
        assert!(demand.membw_bytes > 0.0);
        assert!(demand.nic_rx_bytes > 0.0);
        assert!(demand.nic_tx_bytes > 0.0);
        let node = NodeSpec::c_v1();
        let qps = worker.report().saturation_qps(&node, &tax);
        assert!(qps.is_finite() && qps > 0.0);
        let util = worker.report().utilization_at_saturation(&node, &tax);
        let (_, max_util) = util.max_component();
        assert!(max_util > 0.5, "some resource should be near saturation");
    }

    #[test]
    fn carry_spans_splits() {
        // 16-row stripes with batch 10: split 0 leaves 6 carried samples.
        let table = build_table(32);
        let spec = spec();
        let scan = scan_for(&table, &spec);
        let splits = scan.plan_splits();
        let mut worker = Worker::new(WorkerId(0), Arc::clone(&spec), scan);
        let t0 = worker.process_split(&splits[0]).unwrap();
        assert_eq!(t0.len(), 1);
        let t1 = worker.process_split(&splits[1]).unwrap();
        // 6 carried + 16 = 22 -> two full batches.
        assert_eq!(t1.len(), 2);
        let flushed = worker.flush().unwrap();
        assert_eq!(flushed.batch_size(), 2);
        assert!(worker.flush().is_none());
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = WorkerReport {
            samples: 10,
            peak_resident_bytes: 100,
            ..Default::default()
        };
        let b = WorkerReport {
            samples: 5,
            peak_resident_bytes: 300,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.samples, 15);
        assert_eq!(a.peak_resident_bytes, 300);
    }

    #[test]
    fn report_publishes_metrics_idempotently() {
        let table = build_table(48);
        let spec = spec();
        let scan = scan_for(&table, &spec);
        let mut worker = Worker::new(WorkerId(0), Arc::clone(&spec), scan.clone());
        for split in scan.plan_splits() {
            worker.process_split(&split).unwrap();
        }
        worker.flush();
        let r = worker.report();
        let reg = dsi_obs::Registry::new();
        r.publish_metrics(&reg, "sess1");
        r.publish_metrics(&reg, "sess1"); // monotone advance: double-publish is safe
        let job = [("job", "sess1")];
        assert_eq!(
            reg.counter_value(dsi_obs::names::WORKER_SAMPLES_TOTAL, &job),
            r.samples
        );
        assert_eq!(
            reg.counter_value(dsi_obs::names::WORKER_BATCHES_TOTAL, &job),
            r.batches
        );
        let cycles = |stage: &str| {
            reg.counter_value(
                dsi_obs::span::STAGE_CYCLES_TOTAL,
                &[("job", "sess1"), ("stage", stage)],
            )
        };
        assert_eq!(cycles("extract"), r.extract_cycles.round() as u64);
        assert!(cycles("transform") > 0);
        assert_eq!(
            cycles("transform/sparse_normalization"),
            r.sparse_normalization_cycles.round() as u64
        );
        // This session does not dedup: no reuse counter, not even a zero.
        let reuse = dsi_obs::names::DEDUP_TRANSFORM_REUSE_HITS_TOTAL;
        assert!(reg.select(reuse, &[]).is_empty());
    }

    #[test]
    fn dedup_sessions_reuse_transforms_and_match_plain_output() {
        // 64 rows in 8-member sessions: sparse payloads repeat within a
        // session, dense/labels differ per member.
        let cluster = tectonic::TectonicCluster::new(tectonic::ClusterConfig::small());
        let opts = dwrf::WriterOptions {
            rows_per_stripe: 16,
            ..Default::default()
        };
        let table = Table::create(
            cluster,
            TableConfig::new(TableId(2), "sessions").with_writer_options(opts),
        )
        .unwrap();
        let samples: Vec<Sample> = (0..64u64)
            .map(|i| {
                let session = i / 8;
                let mut s = Sample::new(i as f32);
                s.set_dense(FeatureId(1), 0.25 + i as f32 * 0.01);
                s.set_sparse(
                    FeatureId(2),
                    SparseList::from_ids((0..20).map(|k| session * 100 + k).collect()),
                );
                s
            })
            .collect();
        table.write_partition(PartitionId::new(0), samples).unwrap();

        let base = SessionSpec::builder(SessionId(1))
            .partitions(PartitionId::new(0)..PartitionId::new(1))
            .projection(Projection::new(vec![FeatureId(1), FeatureId(2)]))
            .plan(TransformPlan::new(vec![TransformOp::SigridHash {
                input: FeatureId(2),
                salt: 3,
                modulus: 100_000,
            }]))
            .batch_size(16)
            .dense_ids(vec![FeatureId(1)])
            .sparse_ids(vec![FeatureId(2)]);
        let plain = Arc::new(base.clone().build());
        let deduped = Arc::new(base.dedup(dedup::DedupConfig::default()).build());

        let run = |spec: Arc<SessionSpec>| {
            let scan = scan_for(&table, &spec);
            let mut worker = Worker::new(WorkerId(0), Arc::clone(&spec), scan.clone());
            let mut tensors = Vec::new();
            for split in scan.plan_splits() {
                tensors.extend(worker.process_split(&split).unwrap());
            }
            tensors.extend(worker.flush());
            (tensors, worker.report())
        };
        let (plain_tensors, plain_report) = run(plain);
        let (dedup_tensors, dedup_report) = run(deduped);

        assert_eq!(plain_tensors, dedup_tensors, "dedup must be bit-identical");
        assert!(dedup_report.dedup_sets >= 8);
        assert_eq!(dedup_report.dedup_rows, 64);
        assert!(dedup_report.dedup_reuse_hits > 0);
        assert!(dedup_report.dedup_tx_saved_bytes > 0);
        assert!(
            dedup_report.transform_cycles < plain_report.transform_cycles * 0.6,
            "reuse should cut transform cycles: {} vs {}",
            dedup_report.transform_cycles,
            plain_report.transform_cycles
        );
        assert!(dedup_report.transform_tx_bytes < plain_report.transform_tx_bytes);

        let reg = dsi_obs::Registry::new();
        dedup_report.publish_metrics(&reg, "sess1");
        assert_eq!(
            reg.counter_value(
                dsi_obs::names::DEDUP_TRANSFORM_REUSE_HITS_TOTAL,
                &[("job", "sess1")]
            ),
            dedup_report.dedup_reuse_hits
        );
    }

    #[test]
    fn empty_report_demand_is_zero() {
        let r = WorkerReport::default();
        let d = r.per_sample_demand(&DatacenterTax::production());
        assert_eq!(d.cpu_cycles, 0.0);
        assert_eq!(r.cycle_shares(), (0.0, 0.0));
    }
}
