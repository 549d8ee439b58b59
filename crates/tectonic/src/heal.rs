//! Self-healing machinery: heartbeat failure detection and the outcome of
//! a rebuild pump.
//!
//! The detector is clocked explicitly — [`HeartbeatDetector::tick`] is one
//! heartbeat round; a failed node misses its beat, and after
//! [`HEARTBEAT_K`] consecutive misses it is declared dead. Rebuild work
//! has no record of its own: each
//! [`pump_rebuild`](crate::TectonicCluster::pump_rebuild) reads it from
//! the chunk directory, so the replica map is the one record of which
//! chunks need re-replication.

use dsi_types::NodeId;
use std::collections::HashSet;

/// Consecutive missed beats before a node is declared dead. One or two
/// missed beats are routinely a slow disk or a dropped packet, and a false
/// declaration costs a re-replication of every chunk the node holds; three
/// rides out those blips while still declaring a real loss within a few
/// rounds.
pub const HEARTBEAT_K: u32 = 3;

/// Tracks per-node missed heartbeats; a node is dead exactly while its
/// miss count is at least [`HEARTBEAT_K`].
#[derive(Debug)]
pub struct HeartbeatDetector {
    missed: Vec<u32>,
}

impl HeartbeatDetector {
    /// Creates a detector over `nodes` storage nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            missed: vec![0; nodes],
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
                *misses = misses.saturating_add(1);
                if *misses == HEARTBEAT_K {
                    newly_dead.push(node);
                }
            } else {
                *misses = 0;
            }
        }
        newly_dead
    }

    /// Clears a node's failure history (it rejoined the cluster).
    pub fn recover(&mut self, node: NodeId) {
        if let Some(m) = self.missed.get_mut(node.0 as usize) {
            *m = 0;
        }
    }

    /// Nodes currently declared dead, in ascending id order.
    pub fn dead_nodes(&self) -> Vec<NodeId> {
        (0..self.missed.len() as u64)
            .map(NodeId)
            .filter(|n| self.missed[n.0 as usize] >= HEARTBEAT_K)
            .collect()
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
    /// Under-replicated chunks a further pump can still move (a live
    /// holder to copy from and a live spare to copy to) after this one.
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
        assert!(d.dead_nodes().is_empty(), "failed is not yet dead");
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
        // A beat from a dead node clears its mark too.
        d.tick(&HashSet::new());
        assert!(d.dead_nodes().is_empty());
        // So does recovery.
        for _ in 0..HEARTBEAT_K {
            d.tick(&failed);
        }
        assert_eq!(d.dead_nodes(), vec![NodeId(0)]);
        d.recover(NodeId(0));
        assert!(d.dead_nodes().is_empty());
    }
}
