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
//! The cost models `figures` prices those measurements with live here and
//! nowhere else:
//!
//! * [`node`] and [`tax`] — the compute-node catalog and resource model
//!   (Table X) and the datacenter tax of loading data over the network;
//! * [`model`] — the trainer-side models: per-sample worker demand, GPU
//!   ingestion demand, the on-host preprocessing baseline and RecD's
//!   shared-tensor accounting;
//! * [`sim`] — the virtual-time pipeline [`sim::Scenario`]s the watermark
//!   scaler and the closed-loop tuner are compared on
//!   ([`sim::run_scenario`]).

#![warn(missing_docs)]

pub mod durability;
pub mod figures;
pub mod model;
pub mod node;
pub mod report;
pub mod rmlab;
pub mod sim;
pub mod tax;

pub use figures::FIGURES;
pub use report::{print_table, Row};
pub use rmlab::{LabConfig, RmLab};
