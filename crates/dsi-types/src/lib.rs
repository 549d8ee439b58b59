//! Common types shared across the DSI (data storage and ingestion) pipeline.
//!
//! This crate defines the vocabulary of the whole workspace: identifiers
//! ([`FeatureId`], [`TableId`], ...), feature values ([`DenseValue`],
//! [`SparseList`]), training [`Sample`]s, the [`ColumnBatch`] a stripe decodes
//! into, materialized [`MiniBatchTensor`]s,
//! table [`Schema`]s, byte-size [`units`], and the shared error type
//! [`DsiError`].
//!
//! Everything downstream — the DWRF columnar format, the Tectonic filesystem
//! simulation, the warehouse, and the DPP preprocessing service — speaks in
//! these types.
//!
//! # Example
//!
//! ```
//! use dsi_types::{FeatureId, Sample, SparseList};
//!
//! let mut sample = Sample::new(1.0);
//! sample.set_dense(FeatureId(10), 0.5);
//! sample.set_sparse(FeatureId(20), SparseList::from_ids(vec![7, 9, 13]));
//! assert_eq!(sample.dense(FeatureId(10)), Some(0.5));
//! assert_eq!(sample.sparse(FeatureId(20)).unwrap().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bitmap;
pub mod columns;
pub mod error;
pub mod feature;
pub mod id;
pub mod rng;
pub mod sample;
pub mod schema;
pub mod units;

pub use batch::{Batch, DenseMatrix, MiniBatchTensor, SparseTensor};
pub use bitmap::Bitmap;
pub use columns::{ColumnBatch, DenseColumn, SparseColumn};
pub use error::{DsiError, Result};
pub use feature::{DenseValue, FeatureKind, FeatureValue, SparseList};
pub use id::{FeatureId, NodeId, PartitionId, SessionId, SplitId, TableId, WorkerId};
pub use sample::Sample;
pub use schema::{FeatureDef, FeatureStatus, Projection, Schema};
pub use units::{ByteSize, GIB, KIB, MIB, PIB, TIB};
