//! Shared measurement laboratory for the benchmark harness.
//!
//! [`RmLab`] builds a scaled-down but fully-functional deployment of one
//! production model's dataset — synthetic samples shaped by the RM profile,
//! encoded as real DWRF files in a simulated Tectonic cluster — and runs
//! real DPP Workers over it to *measure* the quantities the paper reports
//! (bytes read, IO sizes, per-sample resource demand, transform cycle
//! splits). The `figures` binary and the criterion benches both build on
//! it, and [`model`] and [`accel`] hold the paper's analytic models that
//! `figures` prices those measurements with.

#![warn(missing_docs)]

pub mod accel;
pub mod durability;
pub mod figures;
pub mod model;
pub mod report;
pub mod rmlab;

pub use figures::FIGURES;
pub use report::{print_table, Row};
pub use rmlab::{LabConfig, RmLab};
