//! Trainer-node modeling: GPU ingestion demand, host data-loading costs,
//! data-stall measurement, and the on-host preprocessing baseline.
//!
//! §VI of the paper measures the trainer side of the DSI pipeline: GPUs
//! demand up to 16.5 GB/s of tensors per node (Table VIII); merely *loading*
//! that data costs up to 40% of host CPU and 55% of memory bandwidth
//! (Fig. 8); and performing preprocessing on the trainer host — the status
//! quo DPP replaces — stalls GPUs 56% of the time (Table VII).
//!
//! * [`demand`] — GPU ingestion demand models;
//! * [`loading`] — host-side loading cost sweeps (Fig. 8);
//! * [`onhost`] — the on-host preprocessing baseline (Table VII);
//! * [`live`] — a wall-clock trainer that consumes a live DPP client and
//!   measures real stall time;
//! * [`stall`] — the stall report it returns;
//! * [`ingest`] — RecD shared-tensor accounting for deduped batches.

#![warn(missing_docs)]

pub mod demand;
pub mod ingest;
pub mod live;
pub mod loading;
pub mod onhost;
pub mod stall;

pub use demand::GpuDemand;
pub use ingest::DedupIngest;
pub use live::LiveTrainer;
pub use loading::{loading_cost, loading_sweep, LoadingPoint};
pub use onhost::{onhost_baseline, OnHostReport};
pub use stall::StallReport;
