//! Self-healing machinery: heartbeat failure detection and the priority
//! rebuild queue.
//!
//! The detector is clocked explicitly — [`HeartbeatDetector::tick`] is one
//! heartbeat round; a failed node misses its beat, and after
//! [`HEARTBEAT_K`] consecutive misses it is declared dead. The
//! rebuild queue orders under-replicated chunks most-degraded-first (a
//! min-heap on live replica count) and revalidates entries lazily on pop,
//! so stale entries whose chunk has since been re-replicated or deleted
//! cost nothing but a skip.

use crate::block::BlockId;
use dsi_types::NodeId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Consecutive missed beats before a node is declared dead. One or two
/// missed beats are routinely a slow disk or a dropped packet, and a false
/// declaration costs a re-replication of every chunk the node holds; three
/// rides out those blips while still declaring a real loss within a few
/// rounds.
pub const HEARTBEAT_K: u32 = 3;

/// Tracks per-node missed heartbeats and the resulting dead set.
#[derive(Debug)]
pub struct HeartbeatDetector {
    missed: Vec<u32>,
    dead: HashSet<NodeId>,
}

impl HeartbeatDetector {
    /// Creates a detector over `nodes` storage nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            missed: vec![0; nodes],
            dead: HashSet::new(),
        }
    }

    /// One heartbeat round: every node in `failed` misses its beat, every
    /// other node beats (resetting its miss count). Returns the nodes newly
    /// declared dead this round, in ascending id order.
    pub fn tick(&mut self, failed: &HashSet<NodeId>) -> Vec<NodeId> {
        let mut newly_dead = Vec::new();
        for (i, misses) in self.missed.iter_mut().enumerate() {
            let node = NodeId(i as u64);
            if failed.contains(&node) {
                *misses += 1;
                if *misses >= HEARTBEAT_K && self.dead.insert(node) {
                    newly_dead.push(node);
                }
            } else {
                *misses = 0;
                self.dead.remove(&node);
            }
        }
        newly_dead
    }

    /// Clears a node's failure history (it rejoined the cluster).
    pub fn recover(&mut self, node: NodeId) {
        if let Some(m) = self.missed.get_mut(node.0 as usize) {
            *m = 0;
        }
        self.dead.remove(&node);
    }

    /// Nodes currently declared dead, in ascending id order.
    pub fn dead_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.dead.iter().copied().collect();
        v.sort();
        v
    }
}

/// Priority queue of chunks awaiting re-replication, most under-replicated
/// first. Entries carry the live-replica count observed at enqueue time;
/// the drain loop revalidates against the directory on pop, so a stale
/// entry (chunk already healed, or further degraded and re-enqueued) is
/// simply skipped.
#[derive(Debug, Default)]
pub struct RebuildQueue {
    heap: BinaryHeap<Reverse<(usize, BlockId)>>,
    queued: HashSet<BlockId>,
}

impl RebuildQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues `chunk` with `live` surviving replicas. Re-enqueueing an
    /// already-queued chunk updates its priority (the stale entry is
    /// shadowed by `queued` bookkeeping and dropped on pop).
    pub fn push(&mut self, chunk: BlockId, live: usize) {
        self.heap.push(Reverse((live, chunk)));
        self.queued.insert(chunk);
    }

    /// Pops the most under-replicated chunk still marked queued.
    pub fn pop(&mut self) -> Option<BlockId> {
        while let Some(Reverse((_, chunk))) = self.heap.pop() {
            if self.queued.remove(&chunk) {
                return Some(chunk);
            }
        }
        None
    }

    /// Drops a chunk from the queue (file deleted while queued).
    pub fn discard(&mut self, chunk: BlockId) {
        self.queued.remove(&chunk);
    }

    /// Number of distinct chunks awaiting rebuild.
    pub fn len(&self) -> usize {
        self.queued.len()
    }

    /// Whether no chunks await rebuild.
    pub fn is_empty(&self) -> bool {
        self.queued.is_empty()
    }
}

/// Outcome of one [`pump_rebuild`](crate::TectonicCluster::pump_rebuild)
/// call: how much work the rebuild worker did under its IOPS budget and
/// how much remains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebuildProgress {
    /// Chunks fully re-replicated this pump.
    pub chunks_rebuilt: u64,
    /// Disk IOs charged to rebuild traffic this pump (source reads +
    /// destination writes).
    pub ios: u64,
    /// Chunks still awaiting rebuild when the budget ran out.
    pub remaining: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_requires_k_consecutive_misses() {
        let mut d = HeartbeatDetector::new(4);
        let failed: HashSet<NodeId> = [NodeId(2)].into_iter().collect();
        assert!(d.tick(&failed).is_empty());
        assert!(d.tick(&failed).is_empty());
        assert_eq!(d.tick(&failed), vec![NodeId(2)], "dead after K=3 misses");
        assert!(d.tick(&failed).is_empty(), "declared once");
        assert_eq!(d.dead_nodes(), vec![NodeId(2)]);
    }

    #[test]
    fn a_beat_resets_the_miss_count() {
        let mut d = HeartbeatDetector::new(2);
        let failed: HashSet<NodeId> = [NodeId(0)].into_iter().collect();
        d.tick(&failed);
        d.tick(&failed);
        // Node comes back before the third miss: count resets.
        d.tick(&HashSet::new());
        assert!(d.tick(&failed).is_empty());
        assert!(d.tick(&failed).is_empty());
        assert_eq!(d.tick(&failed), vec![NodeId(0)]);
        // Recovery clears the dead mark.
        d.recover(NodeId(0));
        assert!(d.dead_nodes().is_empty());
    }

    #[test]
    fn queue_pops_most_under_replicated_first() {
        let mut q = RebuildQueue::new();
        let (a, b, c) = (
            BlockId::new("a", 0),
            BlockId::new("b", 0),
            BlockId::new("c", 0),
        );
        q.push(a, 2);
        q.push(b, 0);
        q.push(c, 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(b));
        assert_eq!(q.pop(), Some(c));
        assert_eq!(q.pop(), Some(a));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn reenqueue_updates_priority_without_double_pop() {
        let mut q = RebuildQueue::new();
        let (a, b) = (BlockId::new("a", 0), BlockId::new("b", 0));
        q.push(a, 2);
        q.push(b, 1);
        q.push(a, 0); // a degraded further
        assert_eq!(q.len(), 2, "a counted once");
        assert_eq!(q.pop(), Some(a), "new priority wins");
        assert_eq!(q.pop(), Some(b));
        assert_eq!(q.pop(), None, "stale a entry skipped");
    }

    #[test]
    fn discard_drops_a_queued_chunk() {
        let mut q = RebuildQueue::new();
        let a = BlockId::new("a", 0);
        q.push(a, 1);
        q.discard(a);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
