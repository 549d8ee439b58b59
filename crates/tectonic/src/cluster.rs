//! The Tectonic name node and client API.
//!
//! [`TectonicCluster`] is a cheaply-cloneable handle (shared state behind
//! locks) so DPP Workers on many threads can read concurrently. One
//! verified-copy lookup (`good_copy`: live holders in rotation order, page
//! sums, plus the [`ChunkDirectory`]'s whole-chunk checksum for a whole
//! chunk) serves reads, read-repair, tail appends and rebuild; one top-up
//! (`top_up`: rendezvous over live non-holders up to R) serves new blocks,
//! tail appends and rebuild. Node loss is detected after K missed
//! heartbeats and healed under an IOPS budget by
//! [`TectonicCluster::pump_rebuild`], which reads its work from the
//! directory, so rebuild traffic contends with foreground reads on the
//! same simulated disks. The pump drops a copy that fails verification
//! and a recovering node drops the copies the directory does not list
//! for it, so the directory and the nodes record one fact.

use crate::block::{place_replicas_among, BlockId, REPLICATION_FACTOR};
use crate::directory::{ChunkDirectory, ChunkInfo};
use crate::heal::{HeartbeatDetector, RebuildProgress};
use crate::node::{PagedChunk, StorageNode};
use bytes::Bytes;
use chaos::{FaultInjector, FaultKind, HookPoint};
use dsi_types::rng::checksum64;
use dsi_types::{DsiError, NodeId, Result};
use fastpath::{ByteView, SourceChunk};
use hwsim::{DeviceStats, DiskModel};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cluster construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of storage nodes.
    pub nodes: usize,
    /// Block size in bytes.
    pub block_size: u64,
    /// Replicas per block.
    pub replication: usize,
    /// Whether nodes use HDDs (`true`) or SSDs (`false`).
    pub hdd: bool,
}

impl ClusterConfig {
    /// A small test cluster: 8 HDD nodes, 1 MiB blocks, R3.
    pub fn small() -> Self {
        Self {
            nodes: 8,
            block_size: 1024 * 1024,
            replication: REPLICATION_FACTOR,
            hdd: true,
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// Name-node metadata for one file (reconstructed from the chunk
/// directory, which is the authoritative replica map).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Total file length in bytes.
    pub len: u64,
    /// Replica locations per block (block `i` lives on `blocks[i]`).
    pub blocks: Vec<Vec<NodeId>>,
}

/// Snapshot of the cluster's durability machinery: monotonic counters for
/// the verified-read/failover/repair path plus the current degradation
/// state (dead nodes, under-replicated chunks, rebuild backlog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityCounters {
    /// Per-page checksum verification failures detected on reads.
    pub checksum_failures: u64,
    /// Replicas repaired in place after a verified read found a bad copy.
    pub read_repairs: u64,
    /// Reads served by a non-first-choice replica (node failed or corrupt).
    pub failovers: u64,
    /// Chunks re-replicated by the rebuild worker.
    pub rebuilt_chunks: u64,
    /// Disk IOs charged to rebuild traffic (source reads + target writes).
    pub rebuild_ios: u64,
    /// Nodes currently declared dead by the heartbeat detector.
    pub dead_nodes: u64,
    /// Chunks currently below their target live replica count.
    pub under_replicated: u64,
    /// Under-replicated chunks a rebuild pump can move now: each has a
    /// live holder to copy from and a live node without a copy to copy to.
    pub rebuild_queue_depth: u64,
}

/// Faults drawn for one logical read: an in-flight XOR applied to the
/// served bytes, and/or at-rest corruption planted on the replica the
/// read is about to consult (exercising detect → failover → repair).
#[derive(Debug, Clone, Copy, Default)]
struct ReadChaos {
    xor: Option<u8>,
    at_rest: Option<u8>,
}

/// What one served read produced: a zero-copy slice of a replica's block,
/// or bytes that had to be copied — assembled across blocks, or privately
/// corrupted in flight. Each public read converts it with at most one copy.
enum Served {
    Slice(Bytes),
    Assembled(Vec<u8>),
}

impl Served {
    fn into_vec(self) -> Vec<u8> {
        match self {
            Served::Slice(bytes) => bytes.to_vec(),
            Served::Assembled(owned) => owned,
        }
    }

    fn into_chunk(self) -> SourceChunk {
        match self {
            Served::Slice(bytes) => SourceChunk::zero_copy(ByteView::from(bytes)),
            Served::Assembled(owned) => SourceChunk::copied(ByteView::from(owned)),
        }
    }
}

/// What [`TectonicCluster::good_copy`] found: the first verified copy (or
/// the error that ended the walk), the holders consulted before it (all
/// of them on an error), and the holders whose copy failed verification.
struct GoodCopy {
    bytes: Result<Bytes>,
    tries: usize,
    failed: Vec<NodeId>,
}

struct ClusterInner {
    config: ClusterConfig,
    nodes: Vec<Mutex<StorageNode>>,
    failed: RwLock<HashSet<NodeId>>,
    /// Path → logical file length; replica maps live in `directory`.
    files: RwLock<HashMap<String, u64>>,
    directory: RwLock<ChunkDirectory>,
    detector: Mutex<HeartbeatDetector>,
    replica_cursor: AtomicU64,
    chaos: RwLock<Option<Arc<FaultInjector>>>,
    checksum_failures: AtomicU64,
    read_repairs: AtomicU64,
    failovers: AtomicU64,
    rebuilt_chunks: AtomicU64,
    rebuild_ios: AtomicU64,
}

/// A handle to a simulated Tectonic cluster.
#[derive(Clone)]
pub struct TectonicCluster {
    inner: Arc<ClusterInner>,
}

impl std::fmt::Debug for TectonicCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TectonicCluster")
            .field("nodes", &self.inner.nodes.len())
            .field("files", &self.inner.files.read().len())
            .finish()
    }
}

impl TectonicCluster {
    /// Builds a cluster per the config.
    ///
    /// # Panics
    ///
    /// Panics if the config has zero nodes, zero block size, or more
    /// replicas than nodes.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.nodes > 0, "cluster needs at least one node");
        assert!(config.block_size > 0, "block size must be positive");
        assert!(
            config.replication >= 1 && config.replication <= config.nodes,
            "replication must be within [1, nodes]"
        );
        let nodes: Vec<Mutex<StorageNode>> = (0..config.nodes)
            .map(|_| {
                Mutex::new(StorageNode::new(if config.hdd {
                    DiskModel::hdd()
                } else {
                    DiskModel::ssd()
                }))
            })
            .collect();
        let node_count = config.nodes;
        Self {
            inner: Arc::new(ClusterInner {
                config,
                nodes,
                failed: RwLock::new(HashSet::new()),
                files: RwLock::new(HashMap::new()),
                directory: RwLock::new(ChunkDirectory::new()),
                detector: Mutex::new(HeartbeatDetector::new(node_count)),
                replica_cursor: AtomicU64::new(0),
                chaos: RwLock::new(None),
                checksum_failures: AtomicU64::new(0),
                read_repairs: AtomicU64::new(0),
                failovers: AtomicU64::new(0),
                rebuilt_chunks: AtomicU64::new(0),
                rebuild_ios: AtomicU64::new(0),
            }),
        }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.config
    }

    /// Number of storage nodes.
    pub fn node_count(&self) -> usize {
        self.inner.nodes.len()
    }

    /// `info`'s holders on nodes that have not failed, in list order.
    fn live_holders(&self, info: &ChunkInfo) -> Vec<NodeId> {
        let failed = self.inner.failed.read();
        info.replicas
            .iter()
            .filter(|n| !failed.contains(n))
            .copied()
            .collect()
    }

    /// Appends a new file (or appends more bytes to an existing one),
    /// splitting it into blocks whose replicas fan out R ways over the
    /// live nodes by rendezvous hashing. With fewer than R live nodes the
    /// write degrades gracefully (all live nodes hold a copy) and the
    /// rebuild pump tops the chunk up once a spare node is live.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::Exhausted`] if a target node is out of space,
    /// or [`DsiError::Unavailable`] if no live node can accept the write.
    pub fn append(&self, path: &str, data: Bytes) -> Result<()> {
        let mut files = self.inner.files.write();
        let mut dir = self.inner.directory.write();
        let len = files.entry(path.to_string()).or_insert(0);
        let bs = self.inner.config.block_size;
        let failed = self.inner.failed.read().clone();
        if failed.len() >= self.inner.nodes.len() {
            return Err(DsiError::Unavailable(
                "no live storage node can accept the write".into(),
            ));
        }
        let mut written = 0u64;
        // Fill the tail block first if the file doesn't end on a boundary.
        // Append-only semantics: we only ever add new blocks; a partial tail
        // block is replaced by a longer one on its replicas.
        while written < data.len() as u64 {
            let within = *len % bs;
            let take = ((bs - within).min(data.len() as u64 - written)) as usize;
            let chunk = data.slice(written as usize..written as usize + take);
            let id = BlockId::new(path, *len / bs);
            let (chunk, mut replicas) = if within == 0 {
                (PagedChunk::new(chunk), Vec::new())
            } else {
                // Extend the partial tail block: its existing bytes come from
                // a verified copy, every live holder takes the longer block
                // (overwriting a corrupt copy), and a failed holder leaves
                // the replica set — its copy is now stale.
                let info = dir
                    .get(id)
                    .cloned()
                    .ok_or_else(|| DsiError::corrupt(format!("missing chunk {id:?}")))?;
                let existing = self.good_copy(id, &info, 0, None, true, None).bytes?;
                let mut combined = existing.to_vec();
                combined.extend_from_slice(&chunk);
                let combined = PagedChunk::new(Bytes::from(combined));
                let holders = self.live_holders(&info);
                for &node in &holders {
                    self.inner.nodes[node.0 as usize]
                        .lock()
                        .store(id, combined.clone())?;
                }
                (combined, holders)
            };
            self.top_up(id, &chunk, &mut replicas, &failed, false)?;
            dir.insert(
                id,
                ChunkInfo {
                    replicas,
                    checksum: checksum64(chunk.data()),
                    len: chunk.data().len() as u64,
                },
            );
            *len += take as u64;
            written += take as u64;
        }
        Ok(())
    }

    /// The one top-up: places `chunk` by rendezvous over the nodes neither
    /// `failed` nor in `holders` until R nodes hold it, pushing each target
    /// that took it onto `holders`. An append stores plainly and fails on
    /// a full disk; a rebuild charges each write to its target's disk and
    /// skips a target that is full.
    fn top_up(
        &self,
        id: BlockId,
        chunk: &PagedChunk,
        holders: &mut Vec<NodeId>,
        failed: &HashSet<NodeId>,
        rebuild: bool,
    ) -> Result<()> {
        let spare: Vec<NodeId> = (0..self.inner.nodes.len() as u64)
            .map(NodeId)
            .filter(|n| !failed.contains(n) && !holders.contains(n))
            .collect();
        let want = self.inner.config.replication.saturating_sub(holders.len());
        if spare.is_empty() {
            return Ok(());
        }
        for target in place_replicas_among(id, &spare, want) {
            let mut node = self.inner.nodes[target.0 as usize].lock();
            let stored = if rebuild {
                node.store_charged(id, chunk.clone())
            } else {
                node.store(id, chunk.clone())
            };
            match stored {
                Ok(()) => holders.push(target),
                Err(e) if !rebuild => return Err(e),
                Err(_) => {}
            }
        }
        Ok(())
    }

    /// File metadata, if the file exists. The per-block replica lists are
    /// reconstructed from the chunk directory, so they reflect failovers
    /// and rebuilds.
    pub fn stat(&self, path: &str) -> Option<FileMeta> {
        let len = *self.inner.files.read().get(path)?;
        let dir = self.inner.directory.read();
        let bs = self.inner.config.block_size;
        let nblocks = len.div_ceil(bs);
        let blocks = (0..nblocks)
            .map(|i| {
                dir.get(BlockId::new(path, i))
                    .map(|info| info.replicas.clone())
                    .unwrap_or_default()
            })
            .collect();
        Some(FileMeta { len, blocks })
    }

    /// Lists all file paths.
    pub fn list_files(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.files.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Attaches a chaos fault injector: every subsequent charged read
    /// (a [`TectonicCluster::read_view`] call) fires the injector's
    /// `TectonicRead` hook exactly once.
    pub fn attach_chaos(&self, injector: Arc<FaultInjector>) {
        *self.inner.chaos.write() = Some(injector);
    }

    /// Fires the `TectonicRead` chaos hook once per charged read.
    ///
    /// Surfaces injected IO errors, sleeps the reading thread for
    /// [`FaultKind::SlowIo`] once the injector is released, and returns
    /// the corruption faults the caller must apply: an in-flight XOR
    /// ([`FaultKind::CorruptChunk`]) and/or at-rest replica corruption
    /// ([`FaultKind::CorruptReplica`]).
    fn fire_read_chaos(&self, path: &str, offset: u64) -> Result<ReadChaos> {
        let mut chaos = ReadChaos::default();
        let mut stall = 0;
        if let Some(injector) = self.inner.chaos.read().as_ref() {
            for kind in injector.fire(HookPoint::TectonicRead) {
                match kind {
                    FaultKind::IoError => {
                        return Err(DsiError::Unavailable(format!(
                            "chaos: injected IO error reading {path} at offset {offset}"
                        )))
                    }
                    FaultKind::SlowIo { micros } => stall += micros,
                    FaultKind::CorruptChunk { xor: mask } => chaos.xor = Some(mask),
                    FaultKind::CorruptReplica { xor: mask } => chaos.at_rest = Some(mask),
                    _ => {}
                }
            }
        }
        if stall > 0 {
            std::thread::sleep(Duration::from_micros(stall));
        }
        Ok(chaos)
    }

    /// Reads `len` bytes of `path` at `offset`, charging one disk IO on
    /// the serving replica of each block the range touches.
    /// Checksums are verified on the serving node; a corrupt replica is
    /// transparently failed over and repaired in place. The result is a
    /// shared view with an honest copy ledger: a range resident in a
    /// single block is served as a zero-copy slice of the replica's stored
    /// bytes (`copied_bytes` 0); a range spanning blocks must be assembled
    /// and reports the copy.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::NotFound`] for missing files and
    /// [`DsiError::Corrupt`] for out-of-range reads.
    pub fn read_view(&self, path: &str, offset: u64, len: u64) -> Result<SourceChunk> {
        self.serve(path, offset, len, true).map(Served::into_chunk)
    }

    /// Like [`TectonicCluster::read_view`] but copies the bytes out,
    /// charges no disk time and fires no chaos hook — used by cache tiers
    /// that accounted the IO on another device. Still verifies checksums
    /// and fails over to a live replica.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TectonicCluster::read_view`].
    pub fn read_uncharged(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.serve(path, offset, len, false).map(Served::into_vec)
    }

    /// Uncharged counterpart of [`TectonicCluster::read_view`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`TectonicCluster::read_view`].
    pub fn read_view_uncharged(&self, path: &str, offset: u64, len: u64) -> Result<SourceChunk> {
        self.serve(path, offset, len, false).map(Served::into_chunk)
    }

    /// The one read body behind the three public reads: each block goes
    /// through [`TectonicCluster::good_copy`] from the next replica in
    /// rotation, counting a failover past the first choice and repairing
    /// the copies that failed. A charged read fires the chaos hook once
    /// and charges the serving replicas' disks; an uncharged one only
    /// peeks. A single-block range is a zero-copy slice of the replica's
    /// bytes; a multi-block range is assembled, and in-flight corruption
    /// forces a private copy so the replica's stored bytes stay pristine
    /// for other readers — both are reported as copied.
    fn serve(&self, path: &str, offset: u64, len: u64, charge: bool) -> Result<Served> {
        let chaos = if charge {
            self.fire_read_chaos(path, offset)?
        } else {
            ReadChaos::default()
        };
        let end = self.check_range(path, offset, len)?;
        let bs = self.inner.config.block_size;
        let single = len > 0 && offset / bs == (end - 1) / bs;
        let mut slice = None;
        let mut owned = Vec::with_capacity(if single { 0 } else { len as usize });
        let mut corrupt_once = chaos.at_rest;
        let mut pos = offset;
        while pos < end {
            let take = (bs - pos % bs).min(end - pos);
            let id = BlockId::new(path, pos / bs);
            let info = self.inner.directory.read().get(id).cloned();
            let info =
                info.ok_or_else(|| DsiError::not_found(format!("block {} of {path}", pos / bs)))?;
            let first = self.inner.replica_cursor.fetch_add(1, Ordering::Relaxed) as usize;
            let range = Some((pos % bs, take));
            let copy = self.good_copy(id, &info, first, range, charge, corrupt_once.take());
            let bytes = copy.bytes?;
            if copy.tries > 0 {
                self.inner.failovers.fetch_add(1, Ordering::Relaxed);
            }
            if !copy.failed.is_empty() {
                self.read_repair(id, &info, first + copy.tries, &copy.failed);
            }
            if single {
                slice = Some(bytes);
            } else {
                owned.extend_from_slice(&bytes);
            }
            pos += take;
        }
        let Some(mask) = chaos.xor else {
            return Ok(slice.map_or(Served::Assembled(owned), Served::Slice));
        };
        if let Some(block) = slice {
            owned = block.to_vec();
        }
        if let Some(first) = owned.first_mut() {
            *first ^= mask;
        }
        Ok(Served::Assembled(owned))
    }

    /// Validates a read range against the file length.
    fn check_range(&self, path: &str, offset: u64, len: u64) -> Result<u64> {
        let flen = *self
            .inner
            .files
            .read()
            .get(path)
            .ok_or_else(|| DsiError::not_found(format!("file {path}")))?;
        let end = offset
            .checked_add(len)
            .ok_or_else(|| DsiError::corrupt("read range overflow"))?;
        if end > flen {
            return Err(DsiError::corrupt(format!(
                "read [{offset}, {end}) beyond file of {flen} bytes"
            )));
        }
        Ok(end)
    }

    /// The one verified-copy lookup: walks `info`'s live holders in
    /// rotation order from `first` until one serves. `range` is the
    /// `(offset, len)` to read, verified by the page sums it touches;
    /// `None` reads the whole chunk and also checks it against the
    /// directory's checksum. A charged walk charges each served read to
    /// its holder's disk; an uncharged one only peeks. A copy that fails
    /// either check is counted as a checksum failure and returned in
    /// [`GoodCopy::failed`].
    fn good_copy(
        &self,
        id: BlockId,
        info: &ChunkInfo,
        first: usize,
        range: Option<(u64, u64)>,
        charge: bool,
        corrupt_first: Option<u8>,
    ) -> GoodCopy {
        let live = self.live_holders(info);
        let start = first % live.len().max(1);
        if let (Some(mask), Some(node)) = (corrupt_first, live.get(start)) {
            self.inner.nodes[node.0 as usize].lock().corrupt(id, mask);
        }
        let (within, take) = range.unwrap_or((0, info.len));
        let (mut tries, mut failed, mut last) = (0, Vec::new(), None);
        for &node in live.iter().cycle().skip(start).take(live.len()) {
            let mut bytes = {
                let mut n = self.inner.nodes[node.0 as usize].lock();
                if charge {
                    n.read(id, within, take)
                } else {
                    n.peek(id, within, take)
                }
            };
            if range.is_none() && matches!(&bytes, Ok(b) if checksum64(b) != info.checksum) {
                bytes = Err(DsiError::corrupt(format!(
                    "{id:?} fails its chunk checksum"
                )));
            }
            if let Err(DsiError::Corrupt(_)) = bytes {
                self.inner.checksum_failures.fetch_add(1, Ordering::Relaxed);
                failed.push(node);
            }
            let served = bytes.is_ok();
            last = Some(bytes);
            if served {
                break;
            }
            tries += 1;
        }
        let bytes = last.unwrap_or_else(|| {
            Err(DsiError::Unavailable(format!(
                "every replica of {id:?} is on a failed node"
            )))
        });
        GoodCopy {
            bytes,
            tries,
            failed,
        }
    }

    /// Overwrites the `bad` copies in place with a whole chunk that
    /// [`TectonicCluster::good_copy`] finds from `first` on (the holder
    /// that just served). Best-effort: with no good copy the bad ones stay
    /// for the next read or rebuild pump.
    fn read_repair(&self, id: BlockId, info: &ChunkInfo, first: usize, bad: &[NodeId]) {
        let Ok(data) = self.good_copy(id, info, first, None, false, None).bytes else {
            return;
        };
        let chunk = PagedChunk::new(data);
        for &node in bad {
            if self.inner.nodes[node.0 as usize]
                .lock()
                .store(id, chunk.clone())
                .is_ok()
            {
                self.inner.read_repairs.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Deletes a file: removes its name-node entry, directory entries, and
    /// every block replica (retention and privacy reaping — old partitions
    /// are deleted even in an append-only store).
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::NotFound`] for unknown paths.
    pub fn delete(&self, path: &str) -> Result<()> {
        let len = self
            .inner
            .files
            .write()
            .remove(path)
            .ok_or_else(|| DsiError::not_found(format!("file {path}")))?;
        let mut dir = self.inner.directory.write();
        let bs = self.inner.config.block_size;
        for block_index in 0..len.div_ceil(bs) {
            let id = BlockId::new(path, block_index);
            if let Some(info) = dir.remove(id) {
                for &node in &info.replicas {
                    self.inner.nodes[node.0 as usize].lock().remove(id);
                }
            }
        }
        Ok(())
    }

    /// Marks a storage node failed: it stops serving reads and misses its
    /// heartbeats until recovered. The heartbeat detector declares it dead
    /// after K missed beats ([`TectonicCluster::heartbeat_tick`]), and
    /// only then do its chunks count as under-replicated to the rebuild
    /// pump. Durable data survives via the remaining replicas meanwhile.
    pub fn fail_node(&self, node: NodeId) {
        self.inner.failed.write().insert(node);
    }

    /// Returns a failed node to service (e.g. after replacement), clearing
    /// its heartbeat failure history. It first drops every copy the
    /// directory does not list for it — copies rebuilt elsewhere, blocks
    /// of files deleted meanwhile, and tail blocks an append extended
    /// without it — so it holds only the copies the directory lists, all
    /// still valid.
    pub fn recover_node(&self, node: NodeId) {
        {
            let dir = self.inner.directory.read();
            self.inner.nodes[node.0 as usize].lock().retain(|id| {
                dir.get(id)
                    .is_some_and(|info| info.replicas.contains(&node))
            });
        }
        self.inner.failed.write().remove(&node);
        self.inner.detector.lock().recover(node);
    }

    /// Currently failed nodes.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.inner.failed.read().iter().copied().collect();
        v.sort();
        v
    }

    /// One heartbeat round: failed nodes miss their beat, live nodes beat.
    /// Nodes reaching K consecutive misses are declared dead, which puts
    /// their chunks on the rebuild pump's work list. Returns the
    /// newly-dead nodes.
    pub fn heartbeat_tick(&self) -> Vec<NodeId> {
        let failed = self.inner.failed.read().clone();
        self.inner.detector.lock().tick(&failed)
    }

    /// Nodes currently declared dead by the heartbeat detector.
    pub fn dead_nodes(&self) -> Vec<NodeId> {
        self.inner.detector.lock().dead_nodes()
    }

    /// Chunks whose live replica count is below the target (R, capped by
    /// the live node count), most under-replicated first.
    pub fn under_replicated_chunks(&self) -> Vec<BlockId> {
        let failed = self.failed_nodes();
        let live_nodes = self.inner.nodes.len() - failed.len();
        let target = self.inner.config.replication.min(live_nodes.max(1));
        self.inner
            .directory
            .read()
            .under_replicated(&failed, target)
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// The rebuild pump's work list, read from the directory: chunks with
    /// fewer than R replicas off declared-dead nodes (a failed node moves
    /// nothing until K missed beats declare it), most under-replicated
    /// first, kept to those a pump can move now — a live holder to copy
    /// from and a live node without a copy to copy to.
    fn rebuild_work(&self) -> Vec<BlockId> {
        let dead = self.dead_nodes();
        let failed = self.inner.failed.read().clone();
        let live = self.inner.nodes.len().saturating_sub(failed.len());
        let dir = self.inner.directory.read();
        dir.under_replicated(&dead, self.inner.config.replication)
            .into_iter()
            .filter(|&(id, _)| {
                let holders = dir.get(id).map_or(0, |info| {
                    info.replicas.iter().filter(|n| !failed.contains(n)).count()
                });
                holders > 0 && holders < live
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Re-replicates under an IOPS budget: walks the work list
    /// ([`DurabilityCounters::rebuild_queue_depth`] chunks, most
    /// under-replicated first), reads each chunk whole from a verified
    /// live holder (`good_copy`) and tops it back up to R on
    /// rendezvous-chosen live spares (charging an IO to the disks on both
    /// ends, so rebuild contends with foreground reads). A copy that fails
    /// verification leaves both the replica list and its node, so a chunk
    /// with no good copy leaves the work list instead of being read again.
    /// A chunk no live spare can take costs nothing and stays in the
    /// directory's list until one returns. The budget bounds the IOs
    /// *started* per call; one chunk may overshoot by its own cost.
    pub fn pump_rebuild(&self, io_budget: u64) -> RebuildProgress {
        let mut progress = RebuildProgress::default();
        for id in self.rebuild_work() {
            if progress.ios >= io_budget {
                break;
            }
            // Snapshot; the chunk may have been deleted since.
            let Some(info) = self.inner.directory.read().get(id).cloned() else {
                continue;
            };
            let copy = self.good_copy(id, &info, 0, None, true, None);
            progress.ios += (copy.tries + usize::from(copy.bytes.is_ok())) as u64;
            let mut replicas = info.replicas;
            replicas.retain(|n| !copy.failed.contains(n));
            for &node in &copy.failed {
                self.inner.nodes[node.0 as usize].lock().remove(id);
            }
            if let Ok(data) = copy.bytes {
                let failed = self.inner.failed.read().clone();
                replicas.retain(|n| !failed.contains(n));
                let held = replicas.len();
                // A rebuild skips a full target rather than failing.
                let _ = self.top_up(id, &PagedChunk::new(data), &mut replicas, &failed, true);
                progress.ios += (replicas.len() - held) as u64;
                if replicas.len() > held {
                    progress.chunks_rebuilt += 1;
                    self.inner.rebuilt_chunks.fetch_add(1, Ordering::Relaxed);
                }
            }
            if let Some(entry) = self.inner.directory.write().get_mut(id) {
                entry.replicas = replicas;
            }
        }
        progress.remaining = self.rebuild_work().len() as u64;
        self.inner
            .rebuild_ios
            .fetch_add(progress.ios, Ordering::Relaxed);
        progress
    }

    /// Snapshot of the durability counters and degradation state.
    pub fn durability(&self) -> DurabilityCounters {
        DurabilityCounters {
            checksum_failures: self.inner.checksum_failures.load(Ordering::Relaxed),
            read_repairs: self.inner.read_repairs.load(Ordering::Relaxed),
            failovers: self.inner.failovers.load(Ordering::Relaxed),
            rebuilt_chunks: self.inner.rebuilt_chunks.load(Ordering::Relaxed),
            rebuild_ios: self.inner.rebuild_ios.load(Ordering::Relaxed),
            dead_nodes: self.dead_nodes().len() as u64,
            under_replicated: self.under_replicated_chunks().len() as u64,
            rebuild_queue_depth: self.rebuild_work().len() as u64,
        }
    }

    /// Corrupts one live resident replica of `path`'s block `block_index`
    /// at rest (test hook for the durability suite). Returns the node
    /// whose copy was corrupted, if any.
    pub fn corrupt_replica(&self, path: &str, block_index: u64, xor: u8) -> Option<NodeId> {
        let id = BlockId::new(path, block_index);
        let info = self.inner.directory.read().get(id).cloned()?;
        let target = *self.live_holders(&info).first()?;
        self.inner.nodes[target.0 as usize]
            .lock()
            .corrupt(id, xor)
            .then_some(target)
    }

    /// Aggregated device stats across all nodes.
    pub fn total_stats(&self) -> DeviceStats {
        let mut total = DeviceStats::default();
        for n in &self.inner.nodes {
            let s = n.lock().stats().device;
            total.ios += s.ios;
            total.bytes += s.bytes;
            total.busy_ns += s.busy_ns;
            total.seeks += s.seeks;
        }
        total
    }

    /// Every recorded IO size across nodes (enable recording first).
    pub fn all_io_sizes(&self) -> Vec<u64> {
        let mut all = Vec::new();
        for n in &self.inner.nodes {
            all.extend(n.lock().stats().io_sizes);
        }
        all
    }

    /// Enables or disables per-IO size recording on every node.
    pub fn set_record_io_sizes(&self, on: bool) {
        for n in &self.inner.nodes {
            n.lock().set_record_io_sizes(on);
        }
    }

    /// Clears telemetry on every node.
    pub fn reset_stats(&self) {
        for n in &self.inner.nodes {
            n.lock().reset_stats();
        }
    }

    /// Physical bytes stored across all nodes (includes replication).
    pub fn stored_bytes(&self) -> u64 {
        self.inner
            .nodes
            .iter()
            .map(|n| n.lock().stored_bytes())
            .sum()
    }

    /// Publishes per-node IO telemetry and the durability counters into
    /// `registry`: `dsi_storage_node_{ios,bytes}_total{node}` plus the
    /// `dsi_tectonic_*` replication/rebuild/read-repair series.
    pub fn publish_metrics(&self, registry: &dsi_obs::Registry) {
        use dsi_obs::names;
        for (i, n) in self.inner.nodes.iter().enumerate() {
            let s = n.lock().stats().device;
            let node = i.to_string();
            registry
                .counter(names::STORAGE_NODE_IOS_TOTAL, &[("node", &node)])
                .advance_to(s.ios);
            registry
                .counter(names::STORAGE_NODE_BYTES_TOTAL, &[("node", &node)])
                .advance_to(s.bytes);
        }
        let d = self.durability();
        registry
            .counter(names::TECTONIC_CHECKSUM_FAILURES_TOTAL, &[])
            .advance_to(d.checksum_failures);
        registry
            .counter(names::TECTONIC_READ_REPAIRS_TOTAL, &[])
            .advance_to(d.read_repairs);
        registry
            .counter(names::TECTONIC_FAILOVERS_TOTAL, &[])
            .advance_to(d.failovers);
        registry
            .counter(names::TECTONIC_REBUILT_CHUNKS_TOTAL, &[])
            .advance_to(d.rebuilt_chunks);
        registry
            .counter(names::TECTONIC_REBUILD_IOS_TOTAL, &[])
            .advance_to(d.rebuild_ios);
        registry
            .gauge(names::TECTONIC_DEAD_NODES, &[])
            .set(d.dead_nodes as f64);
        registry
            .gauge(names::TECTONIC_UNDER_REPLICATED_CHUNKS, &[])
            .set(d.under_replicated as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heal::HEARTBEAT_K;

    /// What production and `figures durability` do after node loss: the
    /// detector declares the failed nodes dead after K missed beats, then
    /// rebuild pumps once with an unbounded budget.
    fn heal(c: &TectonicCluster) -> RebuildProgress {
        for _ in 0..HEARTBEAT_K {
            c.heartbeat_tick();
        }
        c.pump_rebuild(u64::MAX)
    }

    /// A charged read's bytes.
    fn read(c: &TectonicCluster, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        c.read_view(path, offset, len)
            .map(|chunk| chunk.view.to_vec())
    }

    #[test]
    fn append_and_read_across_blocks() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 5,
            block_size: 1000,
            replication: 3,
            hdd: true,
        });
        let data: Vec<u8> = (0..3500u32).map(|i| (i % 251) as u8).collect();
        c.append("f", Bytes::from(data.clone())).unwrap();
        let meta = c.stat("f").unwrap();
        assert_eq!(meta.len, 3500);
        assert_eq!(meta.blocks.len(), 4);
        // Read spanning three blocks.
        let got = read(&c, "f", 900, 2200).unwrap();
        assert_eq!(got, &data[900..3100]);
    }

    #[test]
    fn replication_is_physical() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 4,
            block_size: 1024,
            replication: 3,
            hdd: true,
        });
        c.append("f", Bytes::from(vec![1u8; 2048])).unwrap();
        assert_eq!(c.stored_bytes(), 3 * 2048);
    }

    #[test]
    fn incremental_append_extends_tail_block() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 4,
            block_size: 100,
            replication: 2,
            hdd: true,
        });
        c.append("f", Bytes::from(vec![1u8; 30])).unwrap();
        c.append("f", Bytes::from(vec![2u8; 30])).unwrap();
        c.append("f", Bytes::from(vec![3u8; 60])).unwrap();
        let meta = c.stat("f").unwrap();
        assert_eq!(meta.len, 120);
        assert_eq!(meta.blocks.len(), 2);
        let got = read(&c, "f", 0, 120).unwrap();
        assert_eq!(&got[..30], &[1u8; 30]);
        assert_eq!(&got[30..60], &[2u8; 30]);
        assert_eq!(&got[60..], &[3u8; 60]);
    }

    #[test]
    fn read_view_is_zero_copy_within_a_block_and_honest_across() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 5,
            block_size: 1000,
            replication: 3,
            hdd: true,
        });
        let data: Vec<u8> = (0..3500u32).map(|i| (i % 251) as u8).collect();
        c.append("f", Bytes::from(data.clone())).unwrap();

        // Single-block range: served as a slice of the replica's bytes.
        let chunk = c.read_view("f", 1200, 600).unwrap();
        assert_eq!(chunk.copied_bytes, 0);
        assert_eq!(chunk.view.as_slice(), &data[1200..1800]);
        assert!(
            c.total_stats().busy_ns > 0,
            "view reads still charge disk time"
        );

        // Block-spanning range: must assemble, and says so.
        let chunk = c.read_view("f", 900, 2200).unwrap();
        assert_eq!(chunk.copied_bytes, 2200);
        assert_eq!(chunk.view.as_slice(), &data[900..3100]);

        // Uncharged variant: same bytes, no extra disk time.
        let before = c.total_stats().ios;
        let chunk = c.read_view_uncharged("f", 1200, 600).unwrap();
        assert_eq!(chunk.copied_bytes, 0);
        assert_eq!(chunk.view.as_slice(), &data[1200..1800]);
        assert_eq!(c.total_stats().ios, before);
    }

    #[test]
    fn reads_charge_disk_time() {
        let c = TectonicCluster::new(ClusterConfig::small());
        c.append("f", Bytes::from(vec![0u8; 10_000])).unwrap();
        assert_eq!(c.total_stats().busy_ns, 0);
        read(&c, "f", 0, 4096).unwrap();
        assert!(c.total_stats().busy_ns > 0);
        let stats = c.total_stats();
        assert_eq!(stats.ios, 1);
        assert_eq!(stats.bytes, 4096);
    }

    #[test]
    fn slow_io_sleeps_the_reading_thread_and_keeps_the_bytes() {
        use chaos::{FaultEvent, FaultPlan};
        let c = TectonicCluster::new(ClusterConfig::small());
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        c.append("f", Bytes::from(data.clone())).unwrap();
        let injector = FaultInjector::new(FaultPlan::named(vec![FaultEvent::new(
            HookPoint::TectonicRead,
            1,
            FaultKind::SlowIo { micros: 2_000 },
        )]));
        c.attach_chaos(Arc::clone(&injector));
        let started = std::time::Instant::now();
        let got = read(&c, "f", 100, 4096).unwrap();
        assert!(started.elapsed() >= Duration::from_millis(2));
        assert_eq!(injector.injected_count(), 1);
        assert_eq!(got, &data[100..4196]);
    }

    #[test]
    fn missing_file_and_bad_range() {
        let c = TectonicCluster::new(ClusterConfig::small());
        assert!(matches!(read(&c, "nope", 0, 1), Err(DsiError::NotFound(_))));
        c.append("f", Bytes::from(vec![0u8; 10])).unwrap();
        assert!(read(&c, "f", 5, 10).is_err());
    }

    #[test]
    fn io_size_recording_round_trip() {
        let c = TectonicCluster::new(ClusterConfig::small());
        c.append("f", Bytes::from(vec![0u8; 10_000])).unwrap();
        c.set_record_io_sizes(true);
        read(&c, "f", 0, 100).unwrap();
        read(&c, "f", 500, 200).unwrap();
        let mut sizes = c.all_io_sizes();
        sizes.sort();
        assert_eq!(sizes, vec![100, 200]);
        c.reset_stats();
        assert!(c.all_io_sizes().is_empty());
    }

    #[test]
    fn delete_reaps_blocks_everywhere() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 5,
            block_size: 1000,
            replication: 3,
            hdd: true,
        });
        c.append("keep", Bytes::from(vec![1u8; 2500])).unwrap();
        c.append("reap", Bytes::from(vec![2u8; 2500])).unwrap();
        let before = c.list_files().len();
        c.delete("reap").unwrap();
        assert_eq!(c.list_files().len(), before - 1);
        assert!(matches!(read(&c, "reap", 0, 1), Err(DsiError::NotFound(_))));
        // Blocks are gone from every node: only "keep"'s 3 blocks x R3 stay.
        let replicas = |path: &str| -> usize {
            (0..3)
                .map(|b| {
                    let id = BlockId::new(path, b);
                    (0..5)
                        .filter(|&i| c.inner.nodes[i].lock().peek(id, 0, 1).is_ok())
                        .count()
                })
                .sum()
        };
        assert_eq!(replicas("reap"), 0);
        assert_eq!(replicas("keep"), 3 * 3);
        // The kept file is intact.
        assert_eq!(read(&c, "keep", 0, 2500).unwrap(), vec![1u8; 2500]);
        assert!(c.delete("reap").is_err());
    }

    #[test]
    fn reads_survive_node_failure_via_replicas() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 6,
            block_size: 1024,
            replication: 3,
            hdd: true,
        });
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 253) as u8).collect();
        c.append("f", Bytes::from(data.clone())).unwrap();
        // Fail two nodes: every block still has at least one replica.
        c.fail_node(NodeId(0));
        c.fail_node(NodeId(1));
        assert_eq!(c.failed_nodes(), vec![NodeId(0), NodeId(1)]);
        let got = read(&c, "f", 0, 5000).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn rebuild_restores_replication_factor() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 6,
            block_size: 512,
            replication: 3,
            hdd: true,
        });
        c.append("f", Bytes::from(vec![9u8; 4096])).unwrap();
        c.fail_node(NodeId(2));
        let progress = heal(&c);
        assert_eq!(progress.remaining, 0);
        let restored = progress.chunks_rebuilt;
        // Blocks that had a replica on node 2 were re-replicated.
        let meta = c.stat("f").unwrap();
        for replicas in &meta.blocks {
            assert!(!replicas.contains(&NodeId(2)));
            assert_eq!(replicas.len(), 3);
            let mut uniq = replicas.clone();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "replicas must be distinct");
        }
        // Some blocks likely lived on node 2 (rendezvous spread).
        assert!(restored > 0, "expected restorations, got {restored}");
        // After the rebuild even the failed node's data is readable elsewhere.
        assert_eq!(read(&c, "f", 0, 4096).unwrap(), vec![9u8; 4096]);
        // Healing again finds nothing to do.
        assert_eq!(heal(&c), RebuildProgress::default());
    }

    #[test]
    fn losing_every_replica_is_unavailable() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 3,
            block_size: 1024,
            replication: 3,
            hdd: true,
        });
        c.append("f", Bytes::from(vec![1u8; 100])).unwrap();
        c.fail_node(NodeId(0));
        c.fail_node(NodeId(1));
        c.fail_node(NodeId(2));
        assert!(matches!(
            read(&c, "f", 0, 10),
            Err(DsiError::Unavailable(_))
        ));
        // No live holder and no live spare: nothing a pump can move, and
        // it charges nothing.
        assert_eq!(heal(&c), RebuildProgress::default());
        // Recovery restores service (immutable blocks are still valid).
        c.recover_node(NodeId(0));
        c.recover_node(NodeId(1));
        c.recover_node(NodeId(2));
        assert_eq!(read(&c, "f", 0, 100).unwrap(), vec![1u8; 100]);
    }

    #[test]
    fn handles_are_shared() {
        let c = TectonicCluster::new(ClusterConfig::small());
        let c2 = c.clone();
        c.append("f", Bytes::from(vec![0u8; 100])).unwrap();
        assert!(c2.stat("f").is_some());
        assert_eq!(c2.list_files(), vec!["f".to_string()]);
    }

    #[test]
    fn concurrent_reads_are_safe() {
        let c = TectonicCluster::new(ClusterConfig::small());
        c.append("f", Bytes::from(vec![7u8; 100_000])).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        let off = (t * 1000 + i * 13) as u64;
                        let data = read(&c, "f", off, 64).unwrap();
                        assert_eq!(data, vec![7u8; 64]);
                    }
                });
            }
        });
        assert_eq!(c.total_stats().ios, 200);
    }

    #[test]
    fn corrupt_replica_is_detected_failed_over_and_repaired() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 6,
            block_size: 4096,
            replication: 3,
            hdd: true,
        });
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 241) as u8).collect();
        c.append("f", Bytes::from(data.clone())).unwrap();
        let victim = c
            .corrupt_replica("f", 0, 0x5A)
            .expect("a replica to corrupt");
        // Enough reads that round-robin rotation lands on the bad replica.
        for _ in 0..6 {
            assert_eq!(read(&c, "f", 0, 4096).unwrap(), data, "reads stay correct");
        }
        let d = c.durability();
        assert!(d.checksum_failures >= 1, "corruption detected: {d:?}");
        assert!(d.read_repairs >= 1, "bad copy repaired in place: {d:?}");
        assert!(d.failovers >= 1, "read failed over: {d:?}");
        // The repaired replica serves clean reads again: no new failures.
        let before = c.durability().checksum_failures;
        for _ in 0..6 {
            assert_eq!(read(&c, "f", 0, 4096).unwrap(), data);
        }
        assert_eq!(c.durability().checksum_failures, before);
        let _ = victim;
    }

    #[test]
    fn heartbeat_declares_dead_after_k_misses_and_rebuild_converges() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 8,
            block_size: 1024,
            replication: 3,
            hdd: true,
        });
        c.append("f", Bytes::from(vec![4u8; 16 * 1024])).unwrap();
        c.fail_node(NodeId(3));
        assert!(c.heartbeat_tick().is_empty(), "miss 1 of K=3");
        assert!(c.heartbeat_tick().is_empty(), "miss 2 of K=3");
        assert_eq!(c.heartbeat_tick(), vec![NodeId(3)], "dead after K misses");
        let lost = c.under_replicated_chunks().len();
        assert!(lost > 0, "node 3 held some replicas");
        assert_eq!(c.durability().rebuild_queue_depth as usize, lost);
        // Drain under a small budget: each pump is bounded, queue shrinks.
        let budget = 4u64;
        let mut pumps = 0;
        loop {
            let p = c.pump_rebuild(budget);
            assert!(
                p.ios <= budget + 3,
                "pump overshot its budget: {} ios",
                p.ios
            );
            pumps += 1;
            if p.remaining == 0 {
                break;
            }
            assert!(pumps < 100, "rebuild failed to converge");
        }
        assert!(pumps > 1, "budget forces multiple pumps");
        assert!(
            c.under_replicated_chunks().is_empty(),
            "fully re-replicated"
        );
        let meta = c.stat("f").unwrap();
        for replicas in &meta.blocks {
            assert_eq!(replicas.len(), 3);
            assert!(!replicas.contains(&NodeId(3)));
        }
        let d = c.durability();
        assert!(d.rebuilt_chunks >= lost as u64);
        assert!(d.rebuild_ios > 0);
        assert_eq!(d.dead_nodes, 1);
    }

    #[test]
    fn degraded_append_heals_after_recovery() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 3,
            block_size: 1024,
            replication: 3,
            hdd: true,
        });
        c.fail_node(NodeId(1));
        c.append("f", Bytes::from(vec![8u8; 2048])).unwrap();
        // Degraded write: only 2 live nodes hold each block.
        let meta = c.stat("f").unwrap();
        for replicas in &meta.blocks {
            assert_eq!(replicas.len(), 2);
        }
        assert_eq!(
            c.under_replicated_chunks().len(),
            0,
            "target capped at live"
        );
        assert_eq!(read(&c, "f", 0, 2048).unwrap(), vec![8u8; 2048]);
        // No spare node to copy to: the pump charges nothing, counts
        // nothing, and the chunks stay in the directory's list.
        let p = c.pump_rebuild(u64::MAX);
        assert_eq!(p, RebuildProgress::default());
        assert_eq!(c.durability().rebuild_queue_depth, 0);
        // Node rejoins: the first pump tops the chunks back up to R3.
        c.recover_node(NodeId(1));
        assert!(!c.under_replicated_chunks().is_empty(), "now below R again");
        assert_eq!(c.durability().rebuild_queue_depth, 2);
        let p = c.pump_rebuild(u64::MAX);
        assert_eq!((p.chunks_rebuilt, p.remaining), (2, 0));
        let meta = c.stat("f").unwrap();
        for replicas in &meta.blocks {
            assert_eq!(replicas.len(), 3);
        }
        assert!(c.under_replicated_chunks().is_empty());
        assert_eq!(read(&c, "f", 0, 2048).unwrap(), vec![8u8; 2048]);
    }

    #[test]
    fn dead_node_chunks_wait_for_a_spare_and_cost_nothing_meanwhile() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 3,
            block_size: 1024,
            replication: 3,
            hdd: true,
        });
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 249) as u8).collect();
        c.append("f", Bytes::from(data.clone())).unwrap();
        c.fail_node(NodeId(2));
        // Declared dead, but the two survivors already hold every chunk.
        assert_eq!(heal(&c), RebuildProgress::default());
        assert_eq!(c.durability().rebuild_queue_depth, 0);
        assert_eq!(c.dead_nodes(), vec![NodeId(2)]);
        assert_eq!(read(&c, "f", 0, 4096).unwrap(), data);
        // The node comes back: every block is at R3 again and the next
        // pump finds nothing to do.
        c.recover_node(NodeId(2));
        c.pump_rebuild(u64::MAX);
        for replicas in &c.stat("f").unwrap().blocks {
            assert_eq!(replicas.len(), 3);
        }
        assert!(c.under_replicated_chunks().is_empty());
        assert_eq!(read(&c, "f", 0, 4096).unwrap(), data);
    }

    #[test]
    fn a_failed_node_moves_nothing_before_its_kth_missed_beat() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 8,
            block_size: 1024,
            replication: 3,
            hdd: true,
        });
        c.append("f", Bytes::from(vec![5u8; 8 * 1024])).unwrap();
        c.fail_node(NodeId(3));
        for _ in 1..HEARTBEAT_K {
            assert!(c.heartbeat_tick().is_empty());
            assert_eq!(c.pump_rebuild(u64::MAX), RebuildProgress::default());
            assert_eq!(c.durability().rebuild_queue_depth, 0);
        }
        assert_eq!(c.heartbeat_tick(), vec![NodeId(3)]);
        let p = c.pump_rebuild(u64::MAX);
        assert!(p.chunks_rebuilt > 0 && p.ios > 0, "{p:?}");
        assert_eq!(p.remaining, 0);
        assert!(c.under_replicated_chunks().is_empty());
    }

    #[test]
    fn a_chunk_whose_only_live_copy_is_corrupt_leaves_the_work_list() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 6,
            block_size: 4096,
            replication: 3,
            hdd: true,
        });
        c.append("f", Bytes::from(vec![3u8; 4096])).unwrap();
        let holders = c.stat("f").unwrap().blocks[0].clone();
        c.fail_node(holders[0]);
        c.fail_node(holders[1]);
        for _ in 0..HEARTBEAT_K {
            c.heartbeat_tick();
        }
        assert_eq!(c.corrupt_replica("f", 0, 0x5A), Some(holders[2]));
        // One source read finds no good copy; the bad one is dropped and
        // nothing is left that a pump could move.
        let p = c.pump_rebuild(u64::MAX);
        assert_eq!((p.chunks_rebuilt, p.ios, p.remaining), (0, 1, 0), "{p:?}");
        let id = BlockId::new("f", 0);
        let bad = holders[2].0 as usize;
        assert!(c.inner.nodes[bad].lock().peek(id, 0, 0).is_err());
        assert_eq!(c.pump_rebuild(u64::MAX), RebuildProgress::default());
        assert_eq!(c.durability().rebuild_queue_depth, 0);
        assert!(matches!(
            read(&c, "f", 0, 4096),
            Err(DsiError::Unavailable(_) | DsiError::Corrupt(_))
        ));
    }

    #[test]
    fn a_recovered_node_holds_only_the_copies_the_directory_lists() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 6,
            block_size: 128,
            replication: 3,
            hdd: true,
        });
        let holds = |node: NodeId, path: &str, blocks: u64| -> usize {
            (0..blocks)
                .filter(|&b| {
                    let id = BlockId::new(path, b);
                    c.inner.nodes[node.0 as usize].lock().peek(id, 0, 0).is_ok()
                })
                .count()
        };
        // Copies rebuilt elsewhere, then the file deleted.
        c.append("f", Bytes::from(vec![6u8; 8 * 128])).unwrap();
        assert!(holds(NodeId(2), "f", 8) > 0);
        c.fail_node(NodeId(2));
        assert_eq!(heal(&c).remaining, 0);
        c.recover_node(NodeId(2));
        c.delete("f").unwrap();
        assert_eq!(holds(NodeId(2), "f", 8), 0);
        // A tail block extended while one holder was down.
        c.append("g", Bytes::from(vec![1u8; 100])).unwrap();
        let stale = c.stat("g").unwrap().blocks[0][0];
        c.fail_node(stale);
        c.append("g", Bytes::from(vec![2u8; 20])).unwrap();
        c.recover_node(stale);
        assert_eq!(holds(stale, "g", 1), 0, "the shorter copy is gone");
        let mut want = vec![1u8; 100];
        want.extend([2u8; 20]);
        assert_eq!(read(&c, "g", 0, 120).unwrap(), want);
    }

    #[test]
    fn a_tail_append_reads_past_a_corrupt_holder() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 6,
            block_size: 4096,
            replication: 3,
            hdd: true,
        });
        let data: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        c.append("f", Bytes::from(data[..100].to_vec())).unwrap();
        assert!(c.corrupt_replica("f", 0, 0x5A).is_some());
        c.append("f", Bytes::from(data[100..].to_vec())).unwrap();
        let replicas = c.stat("f").unwrap().blocks[0].clone();
        assert_eq!(replicas.len(), 3);
        let id = BlockId::new("f", 0);
        for node in replicas {
            let copy = c.inner.nodes[node.0 as usize].lock().peek(id, 0, 200);
            assert_eq!(copy.unwrap(), data, "node {node}");
        }
    }
}
