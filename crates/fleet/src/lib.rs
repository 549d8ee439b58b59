//! dsi-fleet — the multi-tenant DPP-as-a-service control plane.
//!
//! The paper's preprocessing tier is not one pipeline per training job:
//! it is a *service*. Many concurrent jobs draw stateless workers from
//! one shared, disaggregated fleet, and capacity is arbitrated across
//! tenants (Zhao et al., ISCA'22 §3, §6). This crate supplies the control
//! plane that makes `dpp` behave that way:
//!
//! * [`JobRegistry`] — declarative desired state: each tenant submits a
//!   [`JobSpec`] (session + priority + min/max worker demand) and reads
//!   the [`JobStatus`] the reconciler publishes back;
//! * [`fair_share`] — weighted max-min allocation with guaranteed floors,
//!   deciding how many workers each job *should* hold when aggregate
//!   demand exceeds the fleet;
//! * [`plan`] — the pure desired-vs-observed diff, emitting typed
//!   [`FleetAction`]s (spawn / drain / preempt / reassign);
//! * [`FleetDriver`] — the loop that ties it together over real
//!   `DppSession`s, inside a fixed slot capacity. Sessions are launched
//!   *managed* (zero workers) and are handed worker targets
//!   (`DppSession::scale_to`); preemption rides the existing
//!   graceful-drain protocol, so exactly-once delivery is preserved by
//!   construction.
//!
//! # Example
//!
//! ```no_run
//! use dsi_fleet::{FleetConfig, FleetDriver, JobSpec, TenantId};
//! use dpp::SessionSpec;
//! use dsi_types::SessionId;
//! # fn table() -> warehouse::Table { unimplemented!() }
//!
//! let driver = FleetDriver::new(FleetConfig { nodes: 2, slots_per_node: 3 });
//! let spec = SessionSpec::builder(SessionId(1)).build();
//! driver
//!     .submit(JobSpec::new(spec, TenantId(7), 2, 1, 4), table())
//!     .unwrap();
//! let mut client = driver.client(SessionId(1)).unwrap();
//! while !driver.is_complete(SessionId(1)) {
//!     driver.tick(); // normally a dedicated thread
//!     if let Some(batch) = client.try_next_batch() {
//!         drop(batch); // feed the trainer
//!     }
//! }
//! driver.remove(SessionId(1)).unwrap().shutdown();
//! ```

#![warn(missing_docs)]

pub mod driver;
pub mod fairshare;
pub mod job;
pub mod reconcile;

pub use driver::{FleetConfig, FleetDriver};
pub use fairshare::{deficit, fair_share, Demand};
pub use job::{JobPhase, JobRegistry, JobSpec, JobStatus, TenantId};
pub use reconcile::{plan, FleetAction, ObservedJob};
