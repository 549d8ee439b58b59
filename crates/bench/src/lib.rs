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
//! The cost and power models `figures` prices those measurements with live
//! here and nowhere else:
//!
//! * [`node`], [`tax`], [`power`] — the compute-node catalog and resource
//!   model (Table X), the datacenter tax of loading data over the network,
//!   and fleet power roll-ups;
//! * [`model`] and [`accel`] — the trainer-side models and the GPU-offload
//!   model;
//! * [`provisioning`] — storage-node classes, the throughput-to-storage gap
//!   (§VII) and per-model DSI power roll-ups (Fig 1);
//! * [`sim`] — the virtual-time pipeline [`sim::Scenario`]s the watermark
//!   scaler and the closed-loop tuner are compared on
//!   ([`sim::run_scenario`]).

#![warn(missing_docs)]

pub mod accel;
pub mod durability;
pub mod figures;
pub mod model;
pub mod node;
pub mod power;
pub mod provisioning;
pub mod report;
pub mod rmlab;
pub mod sim;
pub mod tax;

pub use figures::FIGURES;
pub use report::{print_table, Row};
pub use rmlab::{LabConfig, RmLab};
