//! Synthetic workload and dataset generation calibrated to production DLRM
//! characteristics.
//!
//! The paper's evaluation is a characterization of three production
//! recommendation models (RM1–3) and their datasets. Production traces are
//! unavailable outside Meta, so this crate generates the closest synthetic
//! equivalents: [`profiles`] carries every published per-RM parameter
//! (Tables III–V, VIII, IX), and the generators below produce datasets and
//! job workloads whose *distributions* match the published shapes.
//!
//! * [`profiles`] — RM1/RM2/RM3 calibrated parameters;
//! * [`popularity`] — Zipf feature popularity and per-job feature
//!   projections (drives Fig. 7's reuse CDF);
//! * [`dataset`] — deterministic sample generation for any schema.
//!
//! # Example
//!
//! ```
//! use synth::{RmProfile, SampleGenerator};
//!
//! let profile = RmProfile::rm1();
//! let schema = profile.build_schema(100); // 100 scaled-down features
//! let mut generator = SampleGenerator::new(&schema, 42);
//! let sample = generator.next_sample();
//! assert!(sample.feature_count() > 0);
//! ```

#![warn(missing_docs)]

pub mod dataset;
pub mod popularity;
pub mod profiles;

pub use dataset::SampleGenerator;
pub use popularity::{JobProjectionSampler, ZipfSampler};
pub use profiles::{RmClass, RmProfile};
