//! The chunk directory: authoritative map from every block (chunk) to its
//! replica set and whole-chunk checksum.
//!
//! Tectonic's metadata layer is modeled here as a flat map — each chunk
//! records where its replicas live (chosen by rendezvous hashing over the
//! live nodes at write time) and the checksum of its full payload, so
//! the rebuild worker can validate a source replica before fanning copies
//! back out.

use crate::block::BlockId;
use dsi_types::NodeId;
use std::collections::HashMap;

/// Directory entry for one chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Nodes currently holding (or assigned) a replica of this chunk.
    pub replicas: Vec<NodeId>,
    /// [`dsi_types::rng::checksum64`] of the canonical payload.
    pub checksum: u64,
    /// Payload length in bytes.
    pub len: u64,
}

/// Map from chunk id to its replica set and integrity metadata.
#[derive(Debug, Default)]
pub struct ChunkDirectory {
    chunks: HashMap<BlockId, ChunkInfo>,
}

impl ChunkDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records (or replaces) the entry for `id`.
    pub fn insert(&mut self, id: BlockId, info: ChunkInfo) {
        self.chunks.insert(id, info);
    }

    /// Looks up a chunk.
    pub fn get(&self, id: BlockId) -> Option<&ChunkInfo> {
        self.chunks.get(&id)
    }

    /// Mutable lookup (replica-set edits during rebuild/read-repair).
    pub fn get_mut(&mut self, id: BlockId) -> Option<&mut ChunkInfo> {
        self.chunks.get_mut(&id)
    }

    /// Removes a chunk's entry (file deletion), returning it if present.
    pub fn remove(&mut self, id: BlockId) -> Option<ChunkInfo> {
        self.chunks.remove(&id)
    }

    /// Number of tracked chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// All chunks with a replica assigned to `node` (the rebuild scan when
    /// a node is declared dead).
    pub fn chunks_on(&self, node: NodeId) -> Vec<BlockId> {
        let mut ids: Vec<BlockId> = self
            .chunks
            .iter()
            .filter(|(_, info)| info.replicas.contains(&node))
            .map(|(&id, _)| id)
            .collect();
        ids.sort();
        ids
    }

    /// Chunks whose live replica count is below `target`, given the set of
    /// dead nodes. Returns `(id, live_count)` pairs sorted most-under-
    /// replicated first (then by id, for determinism).
    pub fn under_replicated(&self, dead: &[NodeId], target: usize) -> Vec<(BlockId, usize)> {
        let mut out: Vec<(BlockId, usize)> = self
            .chunks
            .iter()
            .filter_map(|(&id, info)| {
                let live = info.replicas.iter().filter(|n| !dead.contains(n)).count();
                (live < target).then_some((id, live))
            })
            .collect();
        out.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Iterates over every `(id, info)` pair (deterministic order not
    /// guaranteed — callers needing order should sort).
    pub fn iter(&self) -> impl Iterator<Item = (&BlockId, &ChunkInfo)> {
        self.chunks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(replicas: &[u64]) -> ChunkInfo {
        ChunkInfo {
            replicas: replicas.iter().map(|&n| NodeId(n)).collect(),
            checksum: 42,
            len: 100,
        }
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut d = ChunkDirectory::new();
        assert!(d.is_empty());
        let id = BlockId::new("f", 0);
        d.insert(id, info(&[0, 1, 2]));
        assert_eq!(d.len(), 1);
        assert_eq!(d.get(id).unwrap().replicas.len(), 3);
        assert!(d.remove(id).is_some());
        assert!(d.get(id).is_none());
    }

    #[test]
    fn chunks_on_finds_assignments() {
        let mut d = ChunkDirectory::new();
        d.insert(BlockId::new("a", 0), info(&[0, 1, 2]));
        d.insert(BlockId::new("a", 1), info(&[1, 2, 3]));
        d.insert(BlockId::new("b", 0), info(&[4, 5, 6]));
        assert_eq!(d.chunks_on(NodeId(1)).len(), 2);
        assert_eq!(d.chunks_on(NodeId(6)).len(), 1);
        assert!(d.chunks_on(NodeId(9)).is_empty());
    }

    #[test]
    fn under_replicated_sorts_most_degraded_first() {
        let mut d = ChunkDirectory::new();
        d.insert(BlockId::new("a", 0), info(&[0, 1, 2])); // loses 2 replicas
        d.insert(BlockId::new("a", 1), info(&[2, 3, 4])); // loses 1 replica
        d.insert(BlockId::new("b", 0), info(&[3, 4, 5])); // intact
        let dead = [NodeId(0), NodeId(1)];
        let under = d.under_replicated(&dead, 3);
        assert_eq!(under.len(), 1, "only a/0 dips below 3 live");
        assert_eq!(under[0].1, 1);

        let dead2 = [NodeId(0), NodeId(1), NodeId(2)];
        let under2 = d.under_replicated(&dead2, 3);
        assert_eq!(under2.len(), 2);
        assert_eq!(under2[0].1, 0, "most under-replicated first");
        assert_eq!(under2[1].1, 2);
    }
}
