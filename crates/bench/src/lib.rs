//! Shared measurement laboratory for the benchmark harness, and the one
//! home of the paper's analytic models.
//!
//! [`RmLab`] builds a scaled-down but fully-functional deployment of one
//! production model's dataset — synthetic samples shaped by the RM profile,
//! encoded as real DWRF files in a simulated Tectonic cluster — and runs
//! real DPP Workers over it to *measure* the quantities the paper reports
//! (bytes read, IO sizes, per-sample resource demand, transform cycle
//! splits). The `figures` binary and the criterion benches both build on
//! it.
//!
//! The cost, power and fleet models `figures` prices those measurements
//! with live here and nowhere else:
//!
//! * [`node`], [`tax`], [`power`] — the compute-node catalog and resource
//!   model (Table X), the datacenter tax of loading data over the network,
//!   and fleet power roll-ups;
//! * [`model`] and [`accel`] — the trainer-side models and the GPU-offload
//!   model;
//! * [`cluster`] — the release process, fleet demand, global scheduling,
//!   storage provisioning and capacity planning (Figs 1, 4–6, §VII);
//! * [`lifecycle`] and [`growth`] — feature lifecycle (Table II) and
//!   dataset growth (Fig 2).

#![warn(missing_docs)]

pub mod accel;
pub mod cluster;
pub mod durability;
pub mod figures;
pub mod growth;
pub mod lifecycle;
pub mod model;
pub mod node;
pub mod power;
pub mod report;
pub mod rmlab;
pub mod tax;

pub use figures::FIGURES;
pub use report::{print_table, Row};
pub use rmlab::{LabConfig, RmLab};
