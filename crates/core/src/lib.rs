//! DPP — the Data PreProcessing Service.
//!
//! DPP is the paper's disaggregated online-preprocessing service: for every
//! training job it reads raw training data from warehouse storage,
//! preprocesses it into ready-to-load tensors, and serves them to trainers,
//! scaling from tens to hundreds of worker nodes so that expensive GPUs
//! never stall on data (§III-B).
//!
//! The service splits into a **control plane** and a **data plane**:
//!
//! * [`session`] — the session specification (the `DATASET` a training job
//!   submits): dataset selection, transforms, batching;
//! * [`ledger`] — [`SplitLedger`], the pure state machine that owns the
//!   exactly-once contract: split states, workers, queue, delivered tensors;
//! * [`master`] — the DPP Master: the ledger behind one lock, serving
//!   splits, checkpointing, worker health, and replicated-failover state;
//! * [`autoscale`] — the Master's auto-scaling rule, driven by worker
//!   utilization and the buffered-tensor signal;
//! * [`tuning`] — the knob surface every scaling policy shares and
//!   [`LiveTuner`], the one control tick that applies a policy to a
//!   running session;
//! * [`online`] — [`OnlineTuner`], the closed-loop policy that moves
//!   read-ahead and batch size as well as workers;
//! * [`worker`] — stateless DPP Workers: the extract → transform → load
//!   executor over real DWRF bytes, with per-stage resource accounting;
//! * [`client`] — DPP Clients: the trainer-side hook that fetches tensor
//!   batches over partitioned round-robin connections;
//! * [`service`] — [`DppSession`]: wiring master, threaded workers, and
//!   clients together for an end-to-end run;
//! * [`trainer`] — [`LiveTrainer`], the wall-clock consumer of a client,
//!   and the [`StallReport`] it returns;
//! * [`fleet`] — the multi-tenant control plane: one job table of
//!   managed sessions sharing a worker capacity by weighted fair share.
//!
//! # Example
//!
//! ```no_run
//! use dpp::{DppSession, SessionSpec};
//! use dsi_types::{FeatureId, PartitionId, Projection, SessionId, TableId};
//! # fn table() -> warehouse::Table {
//! #     let cluster = tectonic::TectonicCluster::new(tectonic::ClusterConfig::small());
//! #     warehouse::Table::create(cluster, warehouse::TableConfig::new(TableId(1), "clicks"))
//! #         .unwrap()
//! # }
//!
//! let spec = SessionSpec::builder(SessionId(1))
//!     .partitions(PartitionId::new(0)..PartitionId::new(7))
//!     .projection(Projection::new(vec![FeatureId(1), FeatureId(2)]))
//!     .batch_size(64)
//!     .build();
//! let session = DppSession::launch(table(), spec, 4).unwrap();
//! while let Some(batch) = session.client().next_batch() {
//!     let _ = batch; // feed the trainer
//! }
//! session.shutdown();
//! ```

#![warn(missing_docs)]

pub mod autoscale;
pub mod client;
pub mod fleet;
pub mod ledger;
pub mod master;
pub mod online;
mod pipeline;
pub mod service;
pub mod session;
pub mod trainer;
pub mod tuning;
pub mod worker;

pub use autoscale::{AutoScaler, ScalerConfig};
pub use client::Client;
pub use ledger::{Delivery, SplitLedger, SplitState};
pub use master::Master;
pub use online::{OnlineTuner, TunerConfig};
pub use service::{DppSession, WorkerObservation};
pub use session::{SessionSpec, SessionSpecBuilder, Transport};
pub use trainer::{LiveTrainer, StallReport};
pub use tuning::{KnobBounds, KnobDelta, Knobs, LiveTuner, TunerPolicy, TunerSignals};
pub use wire::WireConfig;
pub use worker::{ExtractCostModel, Worker, WorkerReport};
