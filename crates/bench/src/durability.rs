//! Replica loss under load: one epoch during which the most-loaded storage
//! node dies and a budgeted rebuild contends with the epoch's own reads.
//!
//! `figures durability` prints the result and `tests/figures_shape.rs`
//! asserts on it; both call [`node_loss_mid_epoch`], so the printed table
//! and the test cannot disagree.

use crate::{LabConfig, RmLab};
use dpp::DppSession;
use dsi_types::NodeId;
use std::collections::HashMap;
use synth::RmClass;
use tectonic::ClusterConfig;

/// The `--smoke` lab: one 4,096-row day. Also the size the root test runs.
pub const SMOKE: LabConfig = LabConfig {
    features: 60,
    days: 1,
    rows_per_day: 4_096,
    rows_per_stripe: 512,
    seed: 0xd94,
};

/// The full-size lab `figures durability` prints by default.
pub const FULL: LabConfig = LabConfig {
    features: 120,
    days: 2,
    rows_per_day: 16_384,
    rows_per_stripe: 1_024,
    seed: 0xd94,
};

/// Rows per batch the epoch's client consumes.
const BATCH: usize = 256;

/// Disk IOs each consumed batch buys the rebuild pump once the node is
/// declared dead.
pub const REBUILD_IOS_PER_BATCH: u64 = 8;

/// What one [`node_loss_mid_epoch`] run observed. IO counts cover the
/// epoch and the drain of the rebuild backlog after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeLossRun {
    /// Replication factor of the cluster.
    pub r: usize,
    /// Samples the epoch delivered to its client.
    pub samples: u64,
    /// Disk IOs the rebuild worker issued.
    pub rebuild_ios: u64,
    /// All simulated-disk IOs, foreground reads and rebuild together.
    pub total_ios: u64,
    /// Share of `total_ios` that served the epoch's own reads.
    pub foreground_share: f64,
    /// Chunks re-replicated onto surviving nodes.
    pub rebuilt_chunks: u64,
    /// Chunks still short of `r` live replicas after the backlog drained.
    pub under_replicated_final: u64,
    /// Reads served by a replica other than the first.
    pub failovers: u64,
}

/// Runs one RM3 epoch over an `r`-way replicated 8-node HDD cluster and
/// kills the node holding the most chunk replicas a third of the way in:
/// the heartbeat detector declares it dead, and from then on every batch
/// the client consumes pumps the rebuild with [`REBUILD_IOS_PER_BATCH`]
/// IOs on the disks the epoch is reading from (the pump reads its work,
/// the chunks short of `r` replicas off the dead node, from the chunk
/// directory). Whatever backlog is left when the epoch ends drains in
/// pumps of the same size.
pub fn node_loss_mid_epoch(cfg: LabConfig, r: usize) -> NodeLossRun {
    // Small blocks so the victim holds many chunks and the rebuild backlog
    // is deep enough for budget pacing to matter.
    let lab = RmLab::build_custom(
        RmClass::Rm3,
        cfg,
        None,
        None,
        Some(ClusterConfig {
            nodes: 8,
            block_size: 256 * 1024,
            replication: r,
            hdd: true,
        }),
    );
    let spec = lab.session_spec(lab.rc_projection(), BATCH);
    let cluster = lab.table.cluster().clone();

    let victim = {
        let mut held: HashMap<NodeId, u64> = HashMap::new();
        for path in cluster.list_files() {
            for replicas in cluster.stat(&path).expect("listed file stats").blocks {
                for n in replicas {
                    *held.entry(n).or_insert(0) += 1;
                }
            }
        }
        held.into_iter()
            .max_by_key(|&(n, c)| (c, std::cmp::Reverse(n.0)))
            .expect("non-empty cluster")
            .0
    };
    let total_batches = (cfg.days as u64 * cfg.rows_per_day).div_ceil(BATCH as u64);
    let kill_at = total_batches / 3;
    cluster.reset_stats();
    let d0 = cluster.durability();
    let session =
        DppSession::launch(lab.table.clone(), spec, 2).expect("lab selection is non-empty");
    let mut client = session.client();
    let mut samples = 0u64;
    let mut batches = 0u64;
    while let Some(t) = client.next_batch() {
        samples += t.batch_size() as u64;
        batches += 1;
        if batches == kill_at {
            cluster.fail_node(victim);
            for _ in 0..tectonic::HEARTBEAT_K {
                cluster.heartbeat_tick();
            }
        } else if batches > kill_at {
            cluster.pump_rebuild(REBUILD_IOS_PER_BATCH);
        }
    }
    session.shutdown();
    while cluster.pump_rebuild(REBUILD_IOS_PER_BATCH).remaining > 0 {}
    let d1 = cluster.durability();
    let total_ios = cluster.total_stats().ios;
    let rebuild_ios = d1.rebuild_ios - d0.rebuild_ios;
    NodeLossRun {
        r,
        samples,
        rebuild_ios,
        total_ios,
        foreground_share: total_ios.saturating_sub(rebuild_ios) as f64 / total_ios.max(1) as f64,
        rebuilt_chunks: d1.rebuilt_chunks - d0.rebuilt_chunks,
        under_replicated_final: d1.under_replicated,
        failovers: d1.failovers - d0.failovers,
    }
}
