//! Online preprocessing transformations for DLRM training.
//!
//! Table XI of the paper lists the production transformation operations.
//! They fall into three classes with very different compute weight
//! (§VI-D): **feature generation** (≈75% of transform cycles), **sparse
//! normalization** (≈20%), and **dense normalization** (≈5%). All sixteen
//! ops are implemented here over real [`dsi_types::Sample`]s and composed
//! into a [`TransformPlan`] — the analogue of the serialized, compiled
//! module a DPP Worker pulls from its Master at startup.
//!
//! * [`op`] — the sixteen operations;
//! * [`plan`] — composable, serializable transform plans and RM presets;
//! * [`cost`] — the per-op cycle cost model and class shares;
//! * [`accel`] — the GPU-offload throughput model (§VII: SigridHash 11.9×,
//!   Bucketize 1.3× GPU/CPU);
//! * [`columnar`] — flatmap execution of every op but `Sampling` over
//!   materialized tensor columns (the TorchArrow/Velox direction); the
//!   per-sample [`TransformOp::apply`] is its reference.
//!
//! # Example
//!
//! ```
//! use transforms::{TransformOp, TransformPlan};
//! use dsi_types::{FeatureId, Sample, SparseList};
//!
//! let plan = TransformPlan::new(vec![
//!     TransformOp::SigridHash { input: FeatureId(1), salt: 7, modulus: 1000 },
//!     TransformOp::FirstX { input: FeatureId(1), x: 2 },
//! ]);
//! let mut s = Sample::new(0.0);
//! s.set_sparse(FeatureId(1), SparseList::from_ids(vec![10, 20, 30]));
//! plan.apply_sample(&mut s);
//! let list = s.sparse(FeatureId(1)).unwrap();
//! assert_eq!(list.len(), 2);
//! assert!(list.ids().iter().all(|&id| id < 1000));
//! ```

#![warn(missing_docs)]

pub mod accel;
pub mod columnar;
pub mod cost;
pub mod op;
pub mod plan;

pub use accel::{AccelModel, Placement};
pub use columnar::{ColumnarApply, ColumnarCtx, ColumnarPlan, COLUMNAR_KERNELS};
pub use cost::{OpClass, OpCost};
pub use op::TransformOp;
pub use plan::TransformPlan;
