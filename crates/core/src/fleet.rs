//! The multi-tenant DPP-as-a-service control plane.
//!
//! The paper's preprocessing tier is not one pipeline per training job:
//! it is a *service*. Many concurrent jobs draw stateless workers from
//! one shared, disaggregated fleet, and capacity is arbitrated across
//! tenants (Zhao et al., ISCA'22 §3, §6). This module supplies the
//! control plane that makes DPP sessions behave that way:
//!
//! * [`JobSpec`] — a tenant's declarative request (session + priority +
//!   min/max worker demand); the driver publishes a [`JobStatus`] back;
//! * [`fair_share`] — weighted max-min allocation with guaranteed floors,
//!   deciding how many workers each job *should* hold when aggregate
//!   demand exceeds the fleet;
//! * [`plan`] — the pure desired-vs-observed diff, emitting typed
//!   [`FleetAction`]s (spawn / drain / preempt / reassign);
//! * [`FleetDriver`] — one job table (spec, status, session, tuner per
//!   job) and the loop that reconciles it over real `DppSession`s inside
//!   a fixed worker capacity. Sessions are launched *managed* (zero
//!   workers) and are handed worker targets (`DppSession::scale_to`);
//!   preemption rides the existing graceful-drain protocol, so
//!   exactly-once delivery is preserved by construction.
//!
//! # Example
//!
//! ```no_run
//! use dpp::fleet::{FleetDriver, JobSpec, TenantId};
//! use dpp::SessionSpec;
//! use dsi_types::SessionId;
//! # fn table() -> warehouse::Table { unimplemented!() }
//!
//! let driver = FleetDriver::new(6);
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

mod driver;
mod fairshare;
mod job;
mod reconcile;

pub use driver::FleetDriver;
pub use fairshare::{deficit, fair_share, Demand};
pub use job::{JobPhase, JobSpec, JobStatus, TenantId};
pub use reconcile::{plan, FleetAction, ObservedJob};
