//! The Tectonic name node and client API.
//!
//! [`TectonicCluster`] is a cheaply-cloneable handle (shared state behind
//! locks) so DPP Workers on many threads can read concurrently. Appends
//! split data into blocks, fan R replicas out by rendezvous hashing over
//! the live nodes, and record each chunk in the [`ChunkDirectory`] with its
//! whole-chunk checksum. Reads pick a replica round-robin, verify per-page
//! checksums on the serving node, and transparently fail over to a
//! surviving replica on corruption — repairing the bad copy in place.
//! Node loss is detected by the heartbeat detector after K missed beats
//! and healed by draining the priority rebuild queue under an IOPS budget
//! ([`TectonicCluster::pump_rebuild`]), so rebuild traffic contends with
//! foreground reads on the same simulated disks and clock.

use crate::block::{
    chunk_checksum, place_replicas_among, BlockId, DEFAULT_BLOCK_SIZE, REPLICATION_FACTOR,
};
use crate::directory::{ChunkDirectory, ChunkInfo};
use crate::heal::{HeartbeatDetector, RebuildProgress, RebuildQueue};
use crate::node::{NodeStats, StorageNode};
use bytes::Bytes;
use chaos::{FaultInjector, FaultKind, HookPoint};
use dsi_types::{DsiError, NodeId, Result};
use fastpath::{ByteView, SourceChunk};
use hwsim::{DeviceStats, DiskModel, SimClock};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cluster construction parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// A production-flavored cluster: `nodes` HDD nodes, 8 MiB blocks, R3.
    pub fn production(nodes: usize) -> Self {
        Self {
            nodes,
            block_size: DEFAULT_BLOCK_SIZE,
            replication: REPLICATION_FACTOR,
            hdd: true,
        }
    }

    /// Same shape but SSD-backed.
    pub fn ssd(mut self) -> Self {
        self.hdd = false;
        self
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
    /// Chunks currently queued for rebuild.
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

struct ClusterInner {
    config: ClusterConfig,
    nodes: Vec<Mutex<StorageNode>>,
    failed: RwLock<HashSet<NodeId>>,
    /// Path → logical file length; replica maps live in `directory`.
    files: RwLock<HashMap<String, u64>>,
    directory: RwLock<ChunkDirectory>,
    detector: Mutex<HeartbeatDetector>,
    rebuild: Mutex<RebuildQueue>,
    replica_cursor: AtomicU64,
    clock: SimClock,
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
                rebuild: Mutex::new(RebuildQueue::new()),
                replica_cursor: AtomicU64::new(0),
                clock: SimClock::new(),
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

    /// The shared simulated clock (advanced by IO service time).
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// Number of storage nodes.
    pub fn node_count(&self) -> usize {
        self.inner.nodes.len()
    }

    /// Nodes currently live (not failed).
    fn live_nodes(&self, failed: &HashSet<NodeId>) -> Vec<NodeId> {
        (0..self.inner.nodes.len() as u64)
            .map(NodeId)
            .filter(|n| !failed.contains(n))
            .collect()
    }

    /// Appends a new file (or appends more bytes to an existing one),
    /// splitting it into blocks whose replicas fan out R ways over the
    /// live nodes by rendezvous hashing. With fewer than R live nodes the
    /// write degrades gracefully (all live nodes hold a copy) and the
    /// chunk is queued for rebuild once capacity returns.
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
        let r = self.inner.config.replication;
        let failed = self.inner.failed.read().clone();
        let live = self.live_nodes(&failed);
        if live.is_empty() {
            return Err(DsiError::Unavailable(
                "no live storage node can accept the write".into(),
            ));
        }
        let mut written = 0u64;
        // Fill the tail block first if the file doesn't end on a boundary.
        // Append-only semantics: we only ever add new blocks; a partial tail
        // block is replaced by a longer one on its replicas.
        while written < data.len() as u64 {
            let block_index = *len / bs;
            let within = *len % bs;
            let take = ((bs - within).min(data.len() as u64 - written)) as usize;
            let chunk = data.slice(written as usize..written as usize + take);
            let id = BlockId::new(path, block_index);
            if within == 0 {
                let replicas = place_replicas_among(id, &live, r);
                for &node in &replicas {
                    self.inner.nodes[node.0 as usize]
                        .lock()
                        .store(id, chunk.clone())?;
                }
                let degraded = replicas.len() < r;
                dir.insert(
                    id,
                    ChunkInfo {
                        replicas: replicas.clone(),
                        checksum: chunk_checksum(&chunk),
                        len: take as u64,
                    },
                );
                if degraded {
                    self.inner.rebuild.lock().push(id, replicas.len());
                }
            } else {
                // Extend the partial tail block in place. Failed holders are
                // dropped from the replica set (their copy is now stale) and
                // the write tops back up to R on live non-holders.
                let info = dir
                    .get(id)
                    .cloned()
                    .ok_or_else(|| DsiError::corrupt(format!("missing chunk {id:?}")))?;
                let mut holders: Vec<NodeId> = info
                    .replicas
                    .iter()
                    .filter(|n| !failed.contains(n))
                    .copied()
                    .collect();
                if holders.is_empty() {
                    return Err(DsiError::Unavailable(format!(
                        "every replica of {path} block {block_index} is on a failed node"
                    )));
                }
                let (existing, _) = self.inner.nodes[holders[0].0 as usize]
                    .lock()
                    .read(id, 0, within)?;
                let mut combined = existing.to_vec();
                combined.extend_from_slice(&chunk);
                let combined = Bytes::from(combined);
                if holders.len() < r {
                    let spare: Vec<NodeId> = live
                        .iter()
                        .filter(|n| !holders.contains(n))
                        .copied()
                        .collect();
                    if !spare.is_empty() {
                        holders.extend(place_replicas_among(id, &spare, r - holders.len()));
                    }
                }
                for &node in &holders {
                    self.inner.nodes[node.0 as usize]
                        .lock()
                        .store(id, combined.clone())?;
                }
                let degraded = holders.len() < r;
                dir.insert(
                    id,
                    ChunkInfo {
                        replicas: holders.clone(),
                        checksum: chunk_checksum(&combined),
                        len: combined.len() as u64,
                    },
                );
                if degraded {
                    self.inner.rebuild.lock().push(id, holders.len());
                }
            }
            *len += take as u64;
            written += take as u64;
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

    /// Total logical bytes across files (before replication).
    pub fn total_file_bytes(&self) -> u64 {
        self.inner.files.read().values().sum()
    }

    /// Attaches a chaos fault injector: every subsequent charged read
    /// (a [`TectonicCluster::read`] or [`TectonicCluster::read_view`]
    /// call) fires the injector's `TectonicRead` hook exactly once.
    pub fn attach_chaos(&self, injector: Arc<FaultInjector>) {
        *self.inner.chaos.write() = Some(injector);
    }

    /// Fires the `TectonicRead` chaos hook once per charged read.
    ///
    /// Applies latency faults to the cluster clock immediately, surfaces
    /// injected IO errors, and returns the corruption faults the caller
    /// must apply: an in-flight XOR ([`FaultKind::CorruptChunk`]) and/or
    /// at-rest replica corruption ([`FaultKind::CorruptReplica`]).
    fn fire_read_chaos(&self, path: &str, offset: u64) -> Result<ReadChaos> {
        let guard = self.inner.chaos.read();
        let Some(injector) = guard.as_ref() else {
            return Ok(ReadChaos::default());
        };
        let mut chaos = ReadChaos::default();
        for kind in injector.fire(HookPoint::TectonicRead) {
            match kind {
                FaultKind::IoError => {
                    return Err(DsiError::Unavailable(format!(
                        "chaos: injected IO error reading {path} at offset {offset}"
                    )))
                }
                FaultKind::SlowIo { micros } => {
                    self.inner.clock.advance_ns(micros * 1_000);
                }
                FaultKind::CorruptChunk { xor: mask } => chaos.xor = Some(mask),
                FaultKind::CorruptReplica { xor: mask } => chaos.at_rest = Some(mask),
                _ => {}
            }
        }
        Ok(chaos)
    }

    /// Reads `len` bytes of `path` at `offset`, charging simulated disk
    /// time on the chosen replicas and advancing the cluster clock.
    /// Checksums are verified on the serving node; a corrupt replica is
    /// transparently failed over and repaired in place.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::NotFound`] for missing files and
    /// [`DsiError::Corrupt`] for out-of-range reads.
    pub fn read(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.serve(path, offset, len, true).map(Served::into_vec)
    }

    /// Like [`TectonicCluster::read`], but returns a shared view with an
    /// honest copy ledger: a range resident in a single block is served as
    /// a zero-copy slice of the replica's stored bytes (`copied_bytes` 0);
    /// a range spanning blocks must be assembled and reports the copy.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TectonicCluster::read`].
    pub fn read_view(&self, path: &str, offset: u64, len: u64) -> Result<SourceChunk> {
        self.serve(path, offset, len, true).map(Served::into_chunk)
    }

    /// Like [`TectonicCluster::read`] but charges no disk time and fires no
    /// chaos hook — used by cache tiers that accounted the IO on another
    /// device. Still verifies checksums and fails over to a live replica.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TectonicCluster::read`].
    pub fn read_uncharged(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.serve(path, offset, len, false).map(Served::into_vec)
    }

    /// Uncharged counterpart of [`TectonicCluster::read_view`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`TectonicCluster::read`].
    pub fn read_view_uncharged(&self, path: &str, offset: u64, len: u64) -> Result<SourceChunk> {
        self.serve(path, offset, len, false).map(Served::into_chunk)
    }

    /// The one read body behind the four public reads. A charged read
    /// fires the chaos hook once, charges disk time on the serving
    /// replicas and advances the clock; an uncharged one only peeks. A
    /// single-block range is a zero-copy slice of the replica's bytes; a
    /// multi-block range is assembled, and in-flight corruption forces a
    /// private copy so the replica's stored bytes stay pristine for other
    /// readers — both are reported as copied.
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
        let mut total_ns = 0u64;
        let mut pos = offset;
        while pos < end {
            let take = (bs - pos % bs).min(end - pos);
            let (bytes, ns) = self.read_block_verified(
                path,
                pos / bs,
                pos % bs,
                take,
                charge,
                corrupt_once.take(),
            )?;
            if single {
                slice = Some(bytes);
            } else {
                owned.extend_from_slice(&bytes);
            }
            total_ns += ns;
            pos += take;
        }
        self.inner.clock.advance_ns(total_ns);
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

    /// Serves one intra-block range from a live replica with verification,
    /// failover, and read-repair.
    ///
    /// Candidates are the chunk's live replicas in round-robin rotation
    /// order. A replica whose touched pages fail checksum verification is
    /// skipped (counted as a checksum failure) and, once a good replica
    /// serves the range, overwritten in place with the verified payload
    /// (read-repair). `corrupt_first` plants at-rest corruption on the
    /// replica about to be consulted, guaranteeing the detect → failover
    /// → repair path actually runs under chaos.
    fn read_block_verified(
        &self,
        path: &str,
        block_index: u64,
        within: u64,
        take: u64,
        charge: bool,
        corrupt_first: Option<u8>,
    ) -> Result<(Bytes, u64)> {
        let id = BlockId::new(path, block_index);
        let info = self
            .inner
            .directory
            .read()
            .get(id)
            .cloned()
            .ok_or_else(|| DsiError::not_found(format!("block {block_index} of {path}")))?;
        let failed = self.inner.failed.read().clone();
        let live: Vec<NodeId> = info
            .replicas
            .iter()
            .filter(|n| !failed.contains(n))
            .copied()
            .collect();
        if live.is_empty() {
            return Err(DsiError::Unavailable(format!(
                "every replica of {path} block {block_index} is on a failed node"
            )));
        }
        let start = self.inner.replica_cursor.fetch_add(1, Ordering::Relaxed) as usize % live.len();
        if let Some(mask) = corrupt_first {
            self.inner.nodes[live[start].0 as usize]
                .lock()
                .corrupt(id, mask);
        }
        let mut bad: Vec<NodeId> = Vec::new();
        let mut last_err: Option<DsiError> = None;
        for i in 0..live.len() {
            let node = live[(start + i) % live.len()];
            let attempt = {
                let mut n = self.inner.nodes[node.0 as usize].lock();
                if charge {
                    n.read(id, within, take)
                } else {
                    n.peek(id, within, take).map(|b| (b, 0))
                }
            };
            match attempt {
                Ok((bytes, ns)) => {
                    if i > 0 {
                        self.inner.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    if !bad.is_empty() {
                        self.read_repair(id, &info, node, &bad);
                    }
                    return Ok((bytes, ns));
                }
                Err(DsiError::Corrupt(e)) => {
                    self.inner.checksum_failures.fetch_add(1, Ordering::Relaxed);
                    bad.push(node);
                    last_err = Some(DsiError::Corrupt(e));
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            DsiError::Unavailable(format!("no replica of {path} block {block_index} served"))
        }))
    }

    /// Overwrites corrupt replicas with the canonical payload fetched from
    /// a known-good holder, after validating it against the directory's
    /// whole-chunk checksum. Best-effort: a failed repair leaves the bad
    /// replica for the rebuild path.
    fn read_repair(&self, id: BlockId, info: &ChunkInfo, good: NodeId, bad: &[NodeId]) {
        let data = match self.inner.nodes[good.0 as usize]
            .lock()
            .peek(id, 0, info.len)
        {
            Ok(d) => d,
            Err(_) => return,
        };
        if chunk_checksum(&data) != info.checksum {
            return;
        }
        for &node in bad {
            if self.inner.nodes[node.0 as usize]
                .lock()
                .store(id, data.clone())
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
        let mut rebuild = self.inner.rebuild.lock();
        let bs = self.inner.config.block_size;
        for block_index in 0..len.div_ceil(bs) {
            let id = BlockId::new(path, block_index);
            if let Some(info) = dir.remove(id) {
                for &node in &info.replicas {
                    self.inner.nodes[node.0 as usize].lock().remove(id);
                }
            }
            rebuild.discard(id);
        }
        Ok(())
    }

    /// Marks a storage node failed: it stops serving reads and misses its
    /// heartbeats until recovered. The heartbeat detector declares it dead
    /// after K missed beats ([`TectonicCluster::heartbeat_tick`]), which
    /// queues its chunks for rebuild. Durable data survives via the
    /// remaining replicas meanwhile.
    pub fn fail_node(&self, node: NodeId) {
        self.inner.failed.write().insert(node);
    }

    /// Returns a failed node to service (e.g. after replacement), clearing
    /// its heartbeat failure history. Since files are immutable its
    /// replicas remain valid wherever the directory still lists them.
    pub fn recover_node(&self, node: NodeId) {
        self.inner.failed.write().remove(&node);
        self.inner.detector.lock().recover(node);
    }

    /// Currently failed nodes.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.inner.failed.read().iter().copied().collect();
        v.sort();
        v
    }

    /// Overrides the heartbeat missed-beat threshold K.
    pub fn set_heartbeat_k(&self, k: u32) {
        self.inner.detector.lock().set_k(k);
    }

    /// One heartbeat round: failed nodes miss their beat, live nodes beat.
    /// Nodes reaching K consecutive misses are declared dead and their
    /// chunks are queued for rebuild, most under-replicated first. Returns
    /// the newly-dead nodes.
    pub fn heartbeat_tick(&self) -> Vec<NodeId> {
        let failed = self.inner.failed.read().clone();
        let newly_dead = self.inner.detector.lock().tick(&failed);
        if !newly_dead.is_empty() {
            self.enqueue_chunks_of(&newly_dead);
        }
        newly_dead
    }

    /// Nodes currently declared dead by the heartbeat detector.
    pub fn dead_nodes(&self) -> Vec<NodeId> {
        self.inner.detector.lock().dead_nodes()
    }

    /// Queues every chunk with a replica on any of `nodes` for rebuild.
    fn enqueue_chunks_of(&self, nodes: &[NodeId]) {
        let failed = self.inner.failed.read().clone();
        let dir = self.inner.directory.read();
        let mut rebuild = self.inner.rebuild.lock();
        let mut seen: HashSet<BlockId> = HashSet::new();
        for &node in nodes {
            for id in dir.chunks_on(node) {
                if seen.insert(id) {
                    let live = dir
                        .get(id)
                        .map(|info| info.replicas.iter().filter(|n| !failed.contains(n)).count())
                        .unwrap_or(0);
                    rebuild.push(id, live);
                }
            }
        }
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

    /// Drains the rebuild queue under an IOPS budget: pops the most
    /// under-replicated chunks, copies each from a checksum-verified live
    /// source onto rendezvous-chosen live targets (charging real disk time
    /// on both ends, so rebuild contends with foreground reads), and
    /// updates the directory. Chunks with no live verified source are
    /// requeued. The budget bounds the IOs *started* per call; one chunk
    /// may overshoot by its own cost.
    pub fn pump_rebuild(&self, io_budget: u64) -> RebuildProgress {
        let mut progress = RebuildProgress::default();
        let mut requeue: Vec<(BlockId, usize)> = Vec::new();
        let mut total_ns = 0u64;
        let r = self.inner.config.replication;
        while progress.ios < io_budget {
            let Some(id) = self.inner.rebuild.lock().pop() else {
                break;
            };
            // Snapshot; the chunk may have been deleted or healed since.
            let Some(info) = self.inner.directory.read().get(id).cloned() else {
                continue;
            };
            let failed = self.inner.failed.read().clone();
            let holders: Vec<NodeId> = info
                .replicas
                .iter()
                .filter(|n| !failed.contains(n))
                .copied()
                .collect();
            let has_lost_holder = holders.len() < info.replicas.len();
            if holders.len() >= r && !has_lost_holder {
                continue; // healed while queued
            }
            // Find a checksum-verified source among the live holders.
            let mut data: Option<Bytes> = None;
            for &src in &holders {
                let attempt = self.inner.nodes[src.0 as usize]
                    .lock()
                    .read(id, 0, info.len);
                progress.ios += 1;
                match attempt {
                    Ok((bytes, ns)) if chunk_checksum(&bytes) == info.checksum => {
                        total_ns += ns;
                        data = Some(bytes);
                        break;
                    }
                    Ok(_) | Err(DsiError::Corrupt(_)) => {
                        self.inner.checksum_failures.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {}
                }
            }
            let Some(data) = data else {
                requeue.push((id, holders.len()));
                continue;
            };
            // Fan the chunk back out to R over live non-holders.
            let spare: Vec<NodeId> = self
                .live_nodes(&failed)
                .into_iter()
                .filter(|n| !holders.contains(n))
                .collect();
            let needed = r.saturating_sub(holders.len());
            let mut new_replicas = holders.clone();
            if needed > 0 && !spare.is_empty() {
                for target in place_replicas_among(id, &spare, needed) {
                    if let Ok(ns) = self.inner.nodes[target.0 as usize]
                        .lock()
                        .store_charged(id, data.clone())
                    {
                        total_ns += ns;
                        progress.ios += 1;
                        new_replicas.push(target);
                    }
                }
            }
            if new_replicas != info.replicas {
                if let Some(entry) = self.inner.directory.write().get_mut(id) {
                    entry.replicas = new_replicas.clone();
                }
            }
            if new_replicas.len() > holders.len() {
                progress.chunks_rebuilt += 1;
                self.inner.rebuilt_chunks.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let mut rebuild = self.inner.rebuild.lock();
            for (id, live) in requeue {
                rebuild.push(id, live);
            }
            progress.remaining = rebuild.len() as u64;
        }
        self.inner
            .rebuild_ios
            .fetch_add(progress.ios, Ordering::Relaxed);
        self.inner.clock.advance_ns(total_ns);
        progress
    }

    /// Re-replicates every block that lost a replica to a failed node by
    /// declaring the failed nodes dead (skipping the heartbeat grace
    /// period), queueing their chunks, and draining the rebuild queue with
    /// an unbounded budget. Returns the number of chunks re-replicated.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::Unavailable`] if some chunk has no live,
    /// checksum-verified replica to rebuild from.
    pub fn repair(&self) -> Result<u64> {
        let failed = self.failed_nodes();
        if failed.is_empty() {
            return Ok(0);
        }
        {
            let mut detector = self.inner.detector.lock();
            for &node in &failed {
                detector.force_dead(node);
            }
        }
        self.enqueue_chunks_of(&failed);
        let progress = self.pump_rebuild(u64::MAX);
        if progress.remaining > 0 {
            return Err(DsiError::Unavailable(format!(
                "{} chunks have no live replica to rebuild from",
                progress.remaining
            )));
        }
        Ok(progress.chunks_rebuilt)
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
            rebuild_queue_depth: self.inner.rebuild.lock().len() as u64,
        }
    }

    /// Corrupts one live resident replica of `path`'s block `block_index`
    /// at rest (test hook for the durability suite). Returns the node
    /// whose copy was corrupted, if any.
    pub fn corrupt_replica(&self, path: &str, block_index: u64, xor: u8) -> Option<NodeId> {
        let id = BlockId::new(path, block_index);
        let info = self.inner.directory.read().get(id).cloned()?;
        let failed = self.inner.failed.read().clone();
        let target = info
            .replicas
            .iter()
            .find(|n| !failed.contains(n))
            .copied()?;
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

    /// Per-node telemetry snapshots.
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.inner.nodes.iter().map(|n| n.lock().stats()).collect()
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
        let got = c.read("f", 900, 2200).unwrap();
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
        assert_eq!(c.total_file_bytes(), 2048);
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
        let got = c.read("f", 0, 120).unwrap();
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
        assert!(c.clock().now_ns() > 0, "view reads still charge disk time");

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
    fn reads_charge_disk_time_and_advance_clock() {
        let c = TectonicCluster::new(ClusterConfig::small());
        c.append("f", Bytes::from(vec![0u8; 10_000])).unwrap();
        assert_eq!(c.clock().now_ns(), 0);
        c.read("f", 0, 4096).unwrap();
        assert!(c.clock().now_ns() > 0);
        let stats = c.total_stats();
        assert_eq!(stats.ios, 1);
        assert_eq!(stats.bytes, 4096);
    }

    #[test]
    fn missing_file_and_bad_range() {
        let c = TectonicCluster::new(ClusterConfig::small());
        assert!(matches!(c.read("nope", 0, 1), Err(DsiError::NotFound(_))));
        c.append("f", Bytes::from(vec![0u8; 10])).unwrap();
        assert!(c.read("f", 5, 10).is_err());
    }

    #[test]
    fn io_size_recording_round_trip() {
        let c = TectonicCluster::new(ClusterConfig::small());
        c.append("f", Bytes::from(vec![0u8; 10_000])).unwrap();
        c.set_record_io_sizes(true);
        c.read("f", 0, 100).unwrap();
        c.read("f", 500, 200).unwrap();
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
        assert!(matches!(c.read("reap", 0, 1), Err(DsiError::NotFound(_))));
        // Blocks are gone from every node.
        let total_blocks: usize = (0..5).map(|i| c.inner.nodes[i].lock().block_count()).sum();
        assert_eq!(total_blocks, 3 * 3); // only "keep"'s 3 blocks x R3
                                         // The kept file is intact.
        assert_eq!(c.read("keep", 0, 2500).unwrap(), vec![1u8; 2500]);
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
        let got = c.read("f", 0, 5000).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn repair_restores_replication_factor() {
        let c = TectonicCluster::new(ClusterConfig {
            nodes: 6,
            block_size: 512,
            replication: 3,
            hdd: true,
        });
        c.append("f", Bytes::from(vec![9u8; 4096])).unwrap();
        c.fail_node(NodeId(2));
        let restored = c.repair().unwrap();
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
        // After repair even the failed node's data is readable elsewhere.
        assert_eq!(c.read("f", 0, 4096).unwrap(), vec![9u8; 4096]);
        // Repair is idempotent.
        assert_eq!(c.repair().unwrap(), 0);
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
        assert!(matches!(c.read("f", 0, 10), Err(DsiError::Unavailable(_))));
        assert!(c.repair().is_err());
        // Recovery restores service (immutable blocks are still valid).
        c.recover_node(NodeId(0));
        c.recover_node(NodeId(1));
        c.recover_node(NodeId(2));
        assert_eq!(c.read("f", 0, 100).unwrap(), vec![1u8; 100]);
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
                        let data = c.read("f", off, 64).unwrap();
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
            assert_eq!(c.read("f", 0, 4096).unwrap(), data, "reads stay correct");
        }
        let d = c.durability();
        assert!(d.checksum_failures >= 1, "corruption detected: {d:?}");
        assert!(d.read_repairs >= 1, "bad copy repaired in place: {d:?}");
        assert!(d.failovers >= 1, "read failed over: {d:?}");
        // The repaired replica serves clean reads again: no new failures.
        let before = c.durability().checksum_failures;
        for _ in 0..6 {
            assert_eq!(c.read("f", 0, 4096).unwrap(), data);
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
        assert_eq!(c.read("f", 0, 2048).unwrap(), vec![8u8; 2048]);
        // Node rejoins: the queued chunks top back up to R3.
        c.recover_node(NodeId(1));
        assert!(!c.under_replicated_chunks().is_empty(), "now below R again");
        let p = c.pump_rebuild(u64::MAX);
        assert_eq!(p.remaining, 0);
        let meta = c.stat("f").unwrap();
        for replicas in &meta.blocks {
            assert_eq!(replicas.len(), 3);
        }
        assert!(c.under_replicated_chunks().is_empty());
    }
}
