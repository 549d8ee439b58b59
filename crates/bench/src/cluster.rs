//! Fleet-scale coordination: the collaborative release process, global
//! training demand, multi-region scheduling, and datacenter provisioning.
//!
//! §IV of the paper characterizes how hundreds of DLRMs are trained on a
//! shared global fleet: each model iterates through an
//! **explore → combo → release-candidate** process whose combo phase
//! produces large, temporally-skewed concurrent jobs (Fig. 4); fleet-wide
//! demand peaks when many models run combos at once (Fig. 5); and a global
//! scheduler spreads each model over regions, forcing dataset replication
//! (Fig. 6).
//!
//! * [`release`] — the release-process job generator (Fig. 4);
//! * [`demand`] — one-year fleet demand series (Fig. 5);
//! * [`scheduler`] — regions, placement, and bin-packing (Fig. 6);
//! * [`provisioning`] — storage-node classes, the throughput-to-storage
//!   gap (§VII) and per-model DSI power roll-ups (Fig. 1);
//! * [`planner`] — training capacity under a fixed power budget, and what
//!   DSI efficiency gains buy back.

pub mod demand;
pub mod planner;
pub mod provisioning;
pub mod release;
pub mod scheduler;

pub use demand::{DemandModel, DemandPoint};
pub use planner::{plan_capacity, CapacityPlan};
pub use provisioning::{
    provision_model, ModelProvisioning, ProvisionPlan, StorageNodeClass, TieredPlacement,
};
pub use release::{Job, JobKind, JobStatus, ReleaseConfig, ReleaseProcess};
pub use scheduler::{GlobalScheduler, PlacementPolicy, PlacementSummary, Region};
