//! The data warehouse: Hive-style partitioned tables of DWRF files stored
//! in Tectonic.
//!
//! Every recommendation model trains from one central table (§III-A2):
//! samples land in date **partitions**, encoded as DWRF columnar files whose
//! blocks live on simulated storage nodes. Training jobs select data along
//! two dimensions — a partition range (row filter) and a feature
//! [`dsi_types::Projection`] (column filter) — and the [`scan`] planner
//! turns that selection into self-contained [`Split`]s that DPP Workers can
//! execute independently.
//!
//! * [`table`] — table creation, partition writes, metadata;
//! * [`query`] — ad-hoc interactive queries (the Spark/Presto interop path);
//! * [`scan`] — scan planning, split enumeration, and split execution;
//! * [`stats`] — table statistics (Table III / Table V reproductions).
//!
//! # Example
//!
//! ```
//! use warehouse::{Table, TableConfig};
//! use tectonic::{ClusterConfig, TectonicCluster};
//! use dsi_types::{FeatureId, PartitionId, Projection, Sample, TableId};
//!
//! # fn main() -> dsi_types::Result<()> {
//! let cluster = TectonicCluster::new(ClusterConfig::small());
//! let table = Table::create(cluster, TableConfig::new(TableId(1), "rm1"))?;
//! let mut s = Sample::new(1.0);
//! s.set_dense(FeatureId(5), 2.0);
//! table.write_partition(PartitionId::new(0), vec![s])?;
//!
//! let scan = table.scan(PartitionId::new(0)..PartitionId::new(1),
//!                       Projection::new(vec![FeatureId(5)]));
//! let rows = scan.read_all()?;
//! assert_eq!(rows.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod query;
pub mod scan;
pub mod stats;
pub mod table;

pub use query::{Aggregate, Predicate, Query, QueryResult};
pub use scan::{ScanStats, Split, TableScan};
pub use stats::TableStats;
pub use table::{PartitionFile, Table, TableConfig};
