//! A simulation of Tectonic, the exabyte-scale distributed append-only
//! filesystem that stores warehouse tables.
//!
//! Files are split into fixed-size **blocks**, each replicated across three
//! storage nodes for durability (§VII notes the 8× throughput-to-storage gap
//! holds *even after* accounting for triplicate replication). Every storage
//! node owns a simulated disk ([`hwsim::DiskModel`]), so reads charge real
//! seek/transfer time and the cluster reports IOPS, throughput, and
//! busy-time telemetry per node.
//!
//! * [`block`] — block sizing, rendezvous-hash replica placement, and the
//!   whole-chunk checksum;
//! * [`node`] — a storage node: device + block store (with per-page
//!   checksums verified on read) + telemetry;
//! * [`cluster`] — the name node and client API ([`TectonicCluster`]);
//! * [`directory`] — the chunk directory mapping every block to its
//!   replica set and checksum;
//! * [`heal`] — heartbeat failure detection and the priority rebuild
//!   queue behind self-healing;
//! * [`source`] — a [`dwrf::ChunkSource`] adapter so DWRF readers fetch
//!   through the cluster (and, optionally, the [`cache`] SSD tier) and are
//!   charged for IO;
//! * [`provision`] — node-level HDD/SSD efficiency specs and the
//!   throughput-to-storage gap arithmetic of §VII.
//!
//! # Example
//!
//! ```
//! use tectonic::{ClusterConfig, TectonicCluster};
//! use bytes::Bytes;
//!
//! # fn main() -> dsi_types::Result<()> {
//! let cluster = TectonicCluster::new(ClusterConfig::small());
//! cluster.append("warehouse/rm1/part-0", Bytes::from(vec![7u8; 100_000]))?;
//! let data = cluster.read("warehouse/rm1/part-0", 50_000, 16)?;
//! assert_eq!(data, vec![7u8; 16]);
//! assert!(cluster.total_stats().bytes >= 16);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod cache;
pub mod cluster;
pub mod directory;
pub mod heal;
pub mod node;
pub mod provision;
pub mod source;

pub use block::{
    chunk_checksum, place_replicas, place_replicas_among, BlockId, DEFAULT_BLOCK_SIZE,
    REPLICATION_FACTOR,
};
pub use cache::{CacheStats, SsdCache};
pub use cluster::{ClusterConfig, DurabilityCounters, FileMeta, TectonicCluster};
pub use directory::{ChunkDirectory, ChunkInfo};
pub use heal::{HeartbeatDetector, RebuildProgress, RebuildQueue, DEFAULT_HEARTBEAT_K};
pub use node::{NodeStats, StorageNode, CHECKSUM_PAGE};
pub use provision::{ProvisionPlan, StorageNodeClass, TieredPlacement};
pub use source::TectonicSource;
