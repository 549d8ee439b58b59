//! `dsi` — an end-to-end data storage and ingestion (DSI) pipeline for
//! large-scale deep recommendation model training.
//!
//! This crate is the facade over the workspace that reproduces the system
//! described in *"Understanding Data Storage and Ingestion for Large-Scale
//! Deep Recommendation Model Training"* (ISCA 2022): offline data
//! generation ([`scribe`]), a partitioned warehouse of DWRF columnar files
//! ([`warehouse`], [`dwrf`]) on a Tectonic-style distributed filesystem
//! ([`tectonic`]), the disaggregated DPP online-preprocessing service
//! ([`dpp`], [`transforms`] — `dpp` also holds the live trainer, the one
//! control loop, the watermark and closed-loop scaling policies and the
//! virtual-time scenarios they are compared on, and its multi-tenant
//! fleet control plane, re-exported as [`fleet`]), RecD-style
//! end-to-end deduplication ([`dedup`]), a simulated storage-device
//! substrate ([`hwsim`]), and calibrated synthetic workloads ([`synth`]).
//! The paper's analytic cost, power and fleet models, which the `figures`
//! binary prices measurements with, are the `dsi_bench` crate's.
//!
//! # Quickstart
//!
//! ```
//! use dsi::prelude::*;
//!
//! # fn main() -> dsi_types::Result<()> {
//! // 1. A storage cluster and a table.
//! let cluster = TectonicCluster::new(ClusterConfig::small());
//! let table = Table::create(cluster, TableConfig::new(TableId(1), "quick"))?;
//!
//! // 2. Write a day of samples.
//! let mut samples = Vec::new();
//! for i in 0..256u64 {
//!     let mut s = Sample::new((i % 2) as f32);
//!     s.set_dense(FeatureId(1), i as f32);
//!     s.set_sparse(FeatureId(2), SparseList::from_ids(vec![i % 10]));
//!     samples.push(s);
//! }
//! table.write_partition(PartitionId::new(0), samples)?;
//!
//! // 3. Launch a DPP session and train from it.
//! let spec = SessionSpec::builder(SessionId(1))
//!     .partitions(PartitionId::new(0)..PartitionId::new(1))
//!     .projection(Projection::new(vec![FeatureId(1), FeatureId(2)]))
//!     .batch_size(64)
//!     .dense_ids(vec![FeatureId(1)])
//!     .sparse_ids(vec![FeatureId(2)])
//!     .build();
//! let session = DppSession::launch(table, spec, 2)?;
//! let mut client = session.client();
//! let mut rows = 0;
//! while let Some(batch) = client.next_batch() {
//!     rows += batch.batch_size();
//! }
//! assert_eq!(rows, 256);
//! session.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use chaos;
pub use dedup;
pub use dpp;
pub use dpp::fleet;
pub use dsi_obs as obs;
pub use dsi_trace as trace;
pub use dsi_types as types;
pub use dwrf;
pub use hwsim;
pub use scribe;
pub use synth;
pub use tectonic;
pub use transforms;
pub use warehouse;
pub use wire;

/// Commonly-used items across the whole pipeline.
pub mod prelude {
    pub use chaos::{FaultInjector, FaultKind, FaultPlan, HookPoint};
    pub use dedup::{DedupConfig, DedupSet, DedupStats};
    pub use dpp::fleet::{FleetAction, FleetDriver, JobPhase, JobSpec, JobStatus, TenantId};
    pub use dpp::{
        AutoScaler, Client, DppSession, KnobBounds, Knobs, LiveTrainer, LiveTuner, Master,
        OnlineTuner, SessionSpec, Transport, TunerConfig, TunerPolicy,
    };
    pub use dsi_obs::{json_snapshot, prometheus_text, PipelineReport, Registry};
    pub use dsi_trace::TraceConfig;
    pub use dsi_types::{
        Batch, ByteSize, DsiError, FeatureId, MiniBatchTensor, PartitionId, Projection, Sample,
        Schema, SessionId, SparseList, TableId,
    };
    pub use dwrf::{CoalescePolicy, FileReader, FileWriter, WriterOptions};
    pub use scribe::{BatchEtl, EventRecord, FeatureLogRecord, MessageBus};
    pub use synth::{RmProfile, SampleGenerator};
    pub use tectonic::{ClusterConfig, TectonicCluster};
    pub use transforms::{TransformOp, TransformPlan};
    pub use warehouse::{Table, TableConfig};
    pub use wire::WireConfig;
}
