//! The session specification a training job submits to DPP.
//!
//! This is the analogue of the PyTorch `DATASET` of §III-B1: the dataset
//! table, the partitions to read, the features to extract, the
//! transformations to apply, and how tensors are batched and buffered.

use dedup::DedupConfig;
use dsi_trace::TraceConfig;
use dsi_types::{FeatureId, FeatureValue, PartitionId, Projection, Sample, SessionId};
use dwrf::CoalescePolicy;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;
use transforms::TransformPlan;
use wire::WireConfig;

/// How the data plane carries tensors from Workers to Clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Transport {
    /// In-process bounded channels (the default): the Worker→Client
    /// boundary is free, and the datacenter tax is charged analytically
    /// by `hwsim::DatacenterTax`.
    #[default]
    InProcess,
    /// Framed TCP over localhost: every envelope is serialized, framed,
    /// checksummed, optionally compressed and stream-cipher encrypted,
    /// shipped through a real socket, and deserialized on the far side —
    /// the datacenter tax paid for real and measured via `dsi_wire_*`
    /// metrics. Flow control is credit-based (mirroring the bounded
    /// channel), and reconnects replay unacked envelopes through the
    /// client's exactly-once dedup.
    Tcp(WireConfig),
}

/// A dynamically-joined (back-filled) beta feature.
///
/// Beta features are not logged to storage (§IV-C, Table II); exploratory
/// jobs obtain them by joining a side table against each sample at
/// extraction time. The join key is the sample's value of `key`: the first
/// id of a sparse feature, or a dense feature cast to an id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Injection {
    /// Feature whose value keys the side table.
    pub key: FeatureId,
    /// Back-filled values by key.
    pub side: BTreeMap<u64, FeatureValue>,
    /// Beta feature id materialized on matching samples.
    pub output: FeatureId,
}

impl Injection {
    /// The sample's join-key value, if the key feature is present.
    pub fn key_of(&self, sample: &Sample) -> Option<u64> {
        if let Some(list) = sample.sparse(self.key) {
            return list.ids().first().copied();
        }
        sample.dense(self.key).map(|v| v as u64)
    }

    /// Applies the injection to one sample (no-op when the key is absent
    /// or unmatched).
    pub fn apply(&self, sample: &mut Sample) {
        if let Some(k) = self.key_of(sample) {
            if let Some(v) = self.side.get(&k) {
                sample.set_feature(self.output, v.clone());
            }
        }
    }
}

/// Specification of one preprocessing session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Session identity.
    pub id: SessionId,
    /// Partition (row) filter: a contiguous day range.
    pub partition_start: PartitionId,
    /// End of the partition range (exclusive).
    pub partition_end: PartitionId,
    /// Feature (column) filter.
    pub projection: Projection,
    /// Transformations applied to every mini-batch.
    pub plan: TransformPlan,
    /// Samples per materialized mini-batch tensor.
    pub batch_size: usize,
    /// Storage-read coalescing policy.
    pub policy: CoalescePolicy,
    /// Dense features materialized as tensor columns (defaults to the
    /// projection's dense features plus derived dense outputs).
    pub dense_ids: Vec<FeatureId>,
    /// Sparse features materialized as CSR tensors.
    pub sparse_ids: Vec<FeatureId>,
    /// Per-worker tensor buffer capacity (batches).
    pub buffer_capacity: usize,
    /// Beta features dynamically joined at extraction time (§IV-C).
    pub injections: Vec<Injection>,
    /// RecD-style deduplication: workers detect DedupSets in each split,
    /// transform the canonical copy once, and fan results out to members.
    pub dedup: Option<DedupConfig>,
    /// Depth of the worker loop: splits each worker fetches ahead of its
    /// transform stage. At `0` (the default) one thread runs fetch+decode
    /// → transform → batch/load back to back; at `n > 0` fetch and
    /// transform get their own threads with an `n`-deep buffer between.
    pub read_ahead: usize,
    /// Where the transform plan runs: on the materialized tensor's columns
    /// (`true`, the default; only `Sampling` stays on rows), or the whole
    /// plan on rows. Decode is the same zero-copy path either way.
    pub fastpath: bool,
    /// How tensors cross the Worker→Client boundary: in-process channels
    /// (free, tax modeled analytically) or framed TCP (tax measured).
    pub transport: Transport,
    /// Distributed tracing: deterministic per-split sampling rate for
    /// end-to-end span collection (off by default).
    pub trace: TraceConfig,
}

impl SessionSpec {
    /// Starts building a spec.
    pub fn builder(id: SessionId) -> SessionSpecBuilder {
        SessionSpecBuilder::new(id)
    }

    /// The partition range.
    pub fn partitions(&self) -> Range<PartitionId> {
        self.partition_start..self.partition_end
    }
}

/// Builder for [`SessionSpec`].
#[derive(Debug, Clone)]
pub struct SessionSpecBuilder {
    spec: SessionSpec,
}

impl SessionSpecBuilder {
    /// Creates a builder with defaults: empty projection, empty plan,
    /// batch size 256, default coalescing, buffer of 8 batches.
    pub fn new(id: SessionId) -> Self {
        Self {
            spec: SessionSpec {
                id,
                partition_start: PartitionId::new(0),
                partition_end: PartitionId::new(0),
                projection: Projection::default(),
                plan: TransformPlan::empty(),
                batch_size: 256,
                policy: CoalescePolicy::default_window(),
                dense_ids: Vec::new(),
                sparse_ids: Vec::new(),
                buffer_capacity: 8,
                injections: Vec::new(),
                dedup: None,
                read_ahead: 0,
                fastpath: true,
                transport: Transport::InProcess,
                trace: TraceConfig::off(),
            },
        }
    }

    /// Sets the partition range.
    pub fn partitions(mut self, range: Range<PartitionId>) -> Self {
        self.spec.partition_start = range.start;
        self.spec.partition_end = range.end;
        self
    }

    /// Sets the feature projection.
    pub fn projection(mut self, projection: Projection) -> Self {
        self.spec.projection = projection;
        self
    }

    /// Sets the transform plan.
    pub fn plan(mut self, plan: TransformPlan) -> Self {
        self.spec.plan = plan;
        self
    }

    /// Sets the mini-batch size.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn batch_size(mut self, n: usize) -> Self {
        assert!(n > 0, "batch size must be positive");
        self.spec.batch_size = n;
        self
    }

    /// Sets the coalescing policy.
    pub fn policy(mut self, policy: CoalescePolicy) -> Self {
        self.spec.policy = policy;
        self
    }

    /// Sets the dense tensor columns.
    pub fn dense_ids(mut self, ids: Vec<FeatureId>) -> Self {
        self.spec.dense_ids = ids;
        self
    }

    /// Sets the sparse tensor columns.
    pub fn sparse_ids(mut self, ids: Vec<FeatureId>) -> Self {
        self.spec.sparse_ids = ids;
        self
    }

    /// Sets the per-worker buffer capacity in batches.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn buffer_capacity(mut self, n: usize) -> Self {
        assert!(n > 0, "buffer capacity must be positive");
        self.spec.buffer_capacity = n;
        self
    }

    /// Adds a back-filled beta feature (builder-style).
    pub fn inject(mut self, injection: Injection) -> Self {
        self.spec.injections.push(injection);
        self
    }

    /// Enables dedup-aware transform execution (transform once per
    /// DedupSet, fan out to members).
    pub fn dedup(mut self, config: DedupConfig) -> Self {
        self.spec.dedup = Some(config);
        self
    }

    /// Sets the per-worker decode read-ahead depth (`0` = sequential).
    pub fn read_ahead(mut self, n: usize) -> Self {
        self.spec.read_ahead = n;
        self
    }

    /// Runs the transform plan on columns (`true`) or wholly on rows.
    pub fn fastpath(mut self, on: bool) -> Self {
        self.spec.fastpath = on;
        self
    }

    /// Selects the Worker→Client data-plane transport.
    pub fn transport(mut self, transport: Transport) -> Self {
        self.spec.transport = transport;
        self
    }

    /// Sets the distributed-tracing sampling config (off by default).
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.spec.trace = trace;
        self
    }

    /// Finishes the spec.
    pub fn build(self) -> SessionSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_overrides() {
        let spec = SessionSpec::builder(SessionId(7))
            .partitions(PartitionId::new(2)..PartitionId::new(5))
            .projection(Projection::new(vec![FeatureId(1)]))
            .batch_size(32)
            .buffer_capacity(4)
            .dense_ids(vec![FeatureId(1)])
            .build();
        assert_eq!(spec.id, SessionId(7));
        assert_eq!(spec.partitions(), PartitionId::new(2)..PartitionId::new(5));
        assert_eq!(spec.batch_size, 32);
        assert_eq!(spec.buffer_capacity, 4);
        assert!(spec.plan.is_empty());
        assert_eq!(spec.transport, Transport::InProcess);
    }

    #[test]
    fn transport_selects_tcp() {
        let spec = SessionSpec::builder(SessionId(9))
            .transport(Transport::Tcp(WireConfig::encrypted(0xABCD)))
            .build();
        match spec.transport {
            Transport::Tcp(cfg) => {
                assert!(cfg.encrypt);
                assert_eq!(cfg.key, 0xABCD);
            }
            Transport::InProcess => panic!("expected TCP transport"),
        }
    }

    #[test]
    fn injection_joins_by_key() {
        use dsi_types::SparseList;
        let side: BTreeMap<u64, FeatureValue> =
            [(7u64, FeatureValue::Dense(0.9))].into_iter().collect();
        let inj = Injection {
            key: FeatureId(2),
            side,
            output: FeatureId(100),
        };
        let mut hit = Sample::new(0.0);
        hit.set_sparse(FeatureId(2), SparseList::from_ids(vec![7, 3]));
        inj.apply(&mut hit);
        assert_eq!(hit.dense(FeatureId(100)), Some(0.9));

        let mut miss = Sample::new(0.0);
        miss.set_sparse(FeatureId(2), SparseList::from_ids(vec![8]));
        inj.apply(&mut miss);
        assert!(!miss.contains(FeatureId(100)));

        // Dense keys work too.
        let mut dense_key = Sample::new(0.0);
        dense_key.set_dense(FeatureId(2), 7.2);
        assert_eq!(inj.key_of(&dense_key), Some(7));
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_rejected() {
        let _ = SessionSpec::builder(SessionId(1)).batch_size(0);
    }

    #[test]
    #[should_panic(expected = "buffer capacity must be positive")]
    fn zero_buffer_rejected() {
        let _ = SessionSpec::builder(SessionId(1)).buffer_capacity(0);
    }
}
