//! Block sizing and replica placement.

use dsi_types::rng::{mix2, mix64};
use dsi_types::NodeId;

/// Default block size: 8 MiB.
pub const DEFAULT_BLOCK_SIZE: u64 = 8 * 1024 * 1024;

/// Durability replication factor.
pub const REPLICATION_FACTOR: usize = 3;

/// Identifies one block of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId {
    /// Hash of the owning file path.
    pub file_hash: u64,
    /// Block index within the file.
    pub index: u64,
}

impl BlockId {
    /// Creates a block id from a file path and block index.
    pub fn new(path: &str, index: u64) -> Self {
        Self {
            file_hash: hash_path(path),
            index,
        }
    }

    /// A stable 64-bit identity for placement hashing.
    pub fn placement_key(&self) -> u64 {
        mix2(self.file_hash, self.index)
    }
}

/// Hashes a file path deterministically.
pub fn hash_path(path: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in path.as_bytes() {
        h = mix64(h ^ *b as u64);
    }
    h
}

/// Chooses `replicas` distinct nodes for a block via rendezvous (highest-
/// random-weight) hashing: stable under node-count changes and uniformly
/// load-balanced.
///
/// # Panics
///
/// Panics if `replicas > node_count` or `node_count == 0`.
pub fn place_replicas(block: BlockId, node_count: usize, replicas: usize) -> Vec<NodeId> {
    assert!(node_count > 0, "cluster has no nodes");
    assert!(
        replicas <= node_count,
        "cannot place {replicas} replicas on {node_count} nodes"
    );
    let candidates: Vec<NodeId> = (0..node_count as u64).map(NodeId).collect();
    place_replicas_among(block, &candidates, replicas)
}

/// Rendezvous placement restricted to an explicit candidate set (the live
/// nodes). Each candidate keeps its weight `mix2(key, node)` regardless of
/// which other nodes are present, so removing one node relocates only the
/// replicas it held (minimal churn). If fewer than `replicas` candidates
/// exist the placement degrades gracefully and returns all of them.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn place_replicas_among(block: BlockId, candidates: &[NodeId], replicas: usize) -> Vec<NodeId> {
    assert!(!candidates.is_empty(), "no candidate nodes");
    let key = block.placement_key();
    let mut weighted: Vec<(u64, u64)> = candidates.iter().map(|n| (mix2(key, n.0), n.0)).collect();
    weighted.sort_unstable_by(|a, b| b.cmp(a));
    weighted
        .into_iter()
        .take(replicas)
        .map(|(_, n)| NodeId(n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn placement_is_deterministic_and_distinct() {
        let b = BlockId::new("table/p0/file1", 3);
        let a = place_replicas(b, 10, 3);
        let c = place_replicas(b, 10, 3);
        assert_eq!(a, c);
        let mut uniq = a.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 3);
    }

    #[test]
    fn placement_balances_load() {
        let nodes = 10;
        let mut counts: HashMap<NodeId, usize> = HashMap::new();
        for i in 0..3000 {
            let b = BlockId::new("f", i);
            for n in place_replicas(b, nodes, 3) {
                *counts.entry(n).or_insert(0) += 1;
            }
        }
        // 9000 placements over 10 nodes: each should be within 2x of mean.
        for (&node, &c) in &counts {
            assert!((450..=1800).contains(&c), "node {node} got {c} placements");
        }
        assert_eq!(counts.len(), nodes);
    }

    #[test]
    fn different_blocks_place_differently() {
        let a = place_replicas(BlockId::new("f", 0), 20, 3);
        let b = place_replicas(BlockId::new("f", 1), 20, 3);
        assert_ne!(a, b);
    }

    #[test]
    fn path_hash_separates_files() {
        assert_ne!(hash_path("a/b"), hash_path("a/c"));
        assert_eq!(hash_path("x"), hash_path("x"));
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn too_many_replicas_panics() {
        place_replicas(BlockId::new("f", 0), 2, 3);
    }

    #[test]
    fn among_full_set_matches_place_replicas() {
        for i in 0..200 {
            let b = BlockId::new("table/p1/f", i);
            let full: Vec<NodeId> = (0..12).map(NodeId).collect();
            assert_eq!(place_replicas(b, 12, 3), place_replicas_among(b, &full, 3));
        }
    }

    #[test]
    fn among_yields_distinct_live_nodes_deterministically() {
        let live: Vec<NodeId> = [0u64, 2, 3, 5, 6, 7].into_iter().map(NodeId).collect();
        for i in 0..500 {
            let b = BlockId::new("f", i);
            let a = place_replicas_among(b, &live, 3);
            assert_eq!(a, place_replicas_among(b, &live, 3), "deterministic");
            let mut uniq = a.clone();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "3 distinct nodes");
            assert!(a.iter().all(|n| live.contains(n)), "only live nodes");
        }
    }

    #[test]
    fn among_is_order_independent() {
        let fwd: Vec<NodeId> = (0..10).map(NodeId).collect();
        let rev: Vec<NodeId> = (0..10).rev().map(NodeId).collect();
        for i in 0..100 {
            let b = BlockId::new("f", i);
            assert_eq!(
                place_replicas_among(b, &fwd, 3),
                place_replicas_among(b, &rev, 3)
            );
        }
    }

    #[test]
    fn removing_a_node_relocates_only_its_replicas() {
        let all: Vec<NodeId> = (0..10).map(NodeId).collect();
        let removed = NodeId(4);
        let without: Vec<NodeId> = all.iter().copied().filter(|&n| n != removed).collect();
        let mut relocated = 0usize;
        for i in 0..1000 {
            let b = BlockId::new("f", i);
            let before = place_replicas_among(b, &all, 3);
            let after = place_replicas_among(b, &without, 3);
            // Minimal churn: every surviving replica keeps its placement.
            for n in before.iter().filter(|&&n| n != removed) {
                assert!(after.contains(n), "block {i}: survivor {n} relocated");
            }
            if before.contains(&removed) {
                relocated += 1;
                assert!(!after.contains(&removed));
            } else {
                // Order within the set may shift, membership may not.
                let (mut b1, mut a1) = (before.clone(), after.clone());
                b1.sort();
                a1.sort();
                assert_eq!(b1, a1, "block {i}: untouched block moved");
            }
        }
        // ~3/10 of blocks held a replica on the removed node.
        assert!((200..=400).contains(&relocated), "relocated {relocated}");
    }

    #[test]
    fn degraded_placement_returns_all_candidates() {
        let live = [NodeId(3), NodeId(7)];
        let got = place_replicas_among(BlockId::new("f", 1), &live, 3);
        assert_eq!(got.len(), 2);
        assert!(got.contains(&NodeId(3)) && got.contains(&NodeId(7)));
    }
}
