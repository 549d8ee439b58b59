//! # chaos — deterministic fault injection for the DSI pipeline
//!
//! The paper's DPP exists because fleet-scale ingestion runs under
//! constant partial failure (worker preemption, storage stragglers,
//! client churn); its fault-tolerance claims are only meaningful if
//! correctness holds *under* those faults. This crate is the
//! substrate the workspace chaos suite (`tests/chaos.rs`) is built on:
//!
//! - [`FaultPlan`] — a seeded, printable schedule of faults, clocked
//!   against per-hook operation counters rather than wall time, so the
//!   same plan replays identically.
//! - [`FaultInjector`] — the runtime handle threaded through hook
//!   points in every layer (`TectonicCluster::attach_chaos`,
//!   `MessageBus::attach_chaos`, and at session launch through
//!   `DppSession::launch_observed_chaos`), with an append-only
//!   injected-fault log mirrored into `dsi_chaos_*` metrics.
//! - [`invariants`] — exactly-once / bitwise-equality / obs-accounting
//!   checkers over [`EpochTrace`] fingerprint multisets, plus the
//!   deadlock watchdog [`with_watchdog`].
//! - [`shrink_plan`] — a greedy delta-debugging reducer that turns a
//!   failing random schedule into a 1-minimal regression schedule.
//!
//! ```
//! use chaos::{FaultEvent, FaultInjector, FaultKind, FaultPlan, HookPoint};
//!
//! let plan = FaultPlan::named(vec![FaultEvent::new(
//!     HookPoint::TectonicRead,
//!     2,
//!     FaultKind::IoError,
//! )]);
//! let injector = FaultInjector::new(plan);
//! assert!(injector.fire(HookPoint::TectonicRead).is_empty()); // 1st read
//! assert_eq!(
//!     injector.fire(HookPoint::TectonicRead),                 // 2nd read
//!     vec![FaultKind::IoError]
//! );
//! println!("{}", injector.plan());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod inject;
pub mod invariants;
pub mod plan;
pub mod shrink;

pub use inject::{FaultInjector, InjectedFault};
pub use invariants::{
    check_durability, check_exactly_once, check_obs_accounting, note_injected, tensor_fingerprint,
    with_watchdog, DurabilityStats, EpochTrace, InvariantReport,
};
pub use plan::{ChaosConfig, FaultEvent, FaultKind, FaultPlan, HookPoint};
pub use shrink::shrink_plan;
