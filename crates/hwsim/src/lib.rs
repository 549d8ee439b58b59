//! Hardware simulation substrate for the DSI pipeline.
//!
//! The paper's storage nodes are HDD/SSD chassis behind Tectonic. This
//! crate is the device model those nodes own: [`device`] prices each IO
//! with seek, rotation and transfer timing and counts IOs, bytes, seeks
//! and busy time per device. Nothing waits on that modelled time; the
//! live pipeline runs on the wall clock.
//!
//! The paper's analytic node and datacenter-tax models, which price
//! measured per-sample demand for the figures, live in the `dsi-bench`
//! crate beside the `figures` binary.
//!
//! # Example
//!
//! ```
//! use hwsim::{DiskModel, IoRequest};
//!
//! let hdd = DiskModel::hdd();
//! // A random 4 KiB read pays a seek; the same read on flash does not.
//! let random = hdd.service_time_ns(IoRequest::new(u64::MAX / 2, 4096));
//! assert!(random > DiskModel::ssd().service_time_ns(IoRequest::new(u64::MAX / 2, 4096)));
//! ```

#![warn(missing_docs)]

pub mod device;

pub use device::{DeviceStats, DiskModel, IoRequest};
