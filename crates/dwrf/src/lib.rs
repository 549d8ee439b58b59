//! DWRF: a columnar file format for training samples, forked in spirit from
//! Apache ORC.
//!
//! Warehouse tables store structured samples whose features live in map
//! columns. DWRF encodes rows into **stripes**; each stripe holds a set of
//! compressed, encrypted **streams**. The format's key production extension
//! is **feature flattening**: instead of serializing the dense/sparse maps
//! row-by-row (which forces every reader to fetch entire rows), each feature
//! becomes its own set of logical column streams, so a training job reading
//! 10% of features fetches only those streams (§III-A2, §VII).
//!
//! The crate provides:
//!
//! * [`encoding`] — varint, bit-packing and RLE primitive codecs and a
//!   small binary metadata codec;
//! * [`compress`] — an LZ-style block compressor;
//! * [`cipher`] — a keystream cipher standing in for at-rest encryption
//!   (models the datacenter-tax cost; **not** cryptographically secure);
//! * [`stream`] — logical column streams and their physical encoding;
//! * [`writer`] / [`reader`] — whole-file encode/decode with stripes,
//!   footers, and feature projections;
//! * [`layout`] — write-path stream ordering policies (popularity
//!   reordering, §VII);
//! * [`plan`] — the read planner: per-stream IO requests with optional
//!   coalescing within a window (default 1.25 MiB, §VII) and over-read
//!   accounting.
//!
//! # Example
//!
//! ```
//! use dsi_types::{FeatureId, Sample, SparseList, Projection};
//! use dwrf::{FileReader, FileWriter, WriterOptions};
//!
//! # fn main() -> dsi_types::Result<()> {
//! let mut writer = FileWriter::new(WriterOptions::default());
//! for i in 0..10 {
//!     let mut s = Sample::new(i as f32);
//!     s.set_dense(FeatureId(1), i as f32);
//!     s.set_sparse(FeatureId(2), SparseList::from_ids(vec![i, i + 1]));
//!     writer.push(s);
//! }
//! let file = writer.finish()?;
//!
//! let reader = FileReader::open(file.bytes().clone())?;
//! let rows = reader.read_all(&Projection::new(vec![FeatureId(2)]))?;
//! assert_eq!(rows.len(), 10);
//! assert!(rows[0].sparse(FeatureId(2)).is_some());
//! assert!(rows[0].dense(FeatureId(1)).is_none()); // projected away
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cipher;
pub mod compress;
pub mod encoding;
pub mod layout;
pub mod plan;
pub mod reader;
pub mod stream;
pub mod writer;

pub use fastpath::{ByteView, SourceChunk};
pub use layout::StreamOrder;
pub use plan::{CoalescePolicy, IoPlan, PlannedRead};
pub use reader::{ChunkSource, FileReader, SliceSource};
pub use stream::{DedupEncodeStats, StreamInfo, StreamKind};
pub use writer::{DwrfFile, FileWriter, WriterOptions};
