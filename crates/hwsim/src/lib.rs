//! Hardware simulation substrate for the DSI pipeline.
//!
//! The paper's storage nodes are HDD/SSD chassis behind Tectonic. This
//! crate simulates the devices those nodes own, so that reads and appends
//! charge real seek and transfer time against one virtual clock:
//!
//! * [`clock`] — a shareable virtual clock in nanoseconds;
//! * [`device`] — HDD/SSD device models with seek/rotation/transfer timing.
//!
//! The paper's analytic node, datacenter-tax and power models, which price
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

pub mod clock;
pub mod device;

pub use clock::SimClock;
pub use device::{DeviceStats, DiskModel, IoRequest};
