//! Fault plans: seeded, printable schedules of faults to inject.
//!
//! A [`FaultPlan`] is the unit of reproducibility for the chaos suite.
//! It is generated from a single `u64` seed, scheduled against a
//! *virtual clock* (the nth operation observed at each [`HookPoint`]
//! rather than wall time), and renders to a text dump that can be
//! pasted into a regression test or uploaded as a CI artifact.

use dsi_types::rng::SplitMix64;
use std::fmt;

/// A place in the pipeline where the injector is consulted.
///
/// Each hook point maintains its own operation counter (the virtual
/// clock), so an event scheduled at `nth = 5` on [`HookPoint::TectonicRead`]
/// fires on the fifth chunk read regardless of thread interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HookPoint {
    /// `TectonicCluster::{read, read_view}` — once per charged chunk read;
    /// uncharged reads (SSD cache hits) never fire it.
    TectonicRead,
    /// `MessageBus::publish` — once per record appended to any topic.
    ScribePublish,
    /// The DPP worker loop's deliver stage (`dpp::pipeline`, the one site
    /// at every `read_ahead` depth) — once per split, after the split has
    /// been extracted and transformed and before it is batched and sent.
    /// At depth ≥ 1 the worker may hold further splits in its pipe; a
    /// crash here requeues those too.
    WorkerSplit,
    /// Harness-driven events clocked by the number of batches the chaos
    /// test's client has consumed (client reconnects, master kill+restore,
    /// eviction storms, node failures, worker kills).
    Harness,
    /// The wire transport's server-side frame writer — once per data frame
    /// shipped over TCP (`Transport::Tcp` sessions only).
    WireFrame,
}

impl HookPoint {
    /// Every hook point, in a fixed order (also the injector's counter
    /// index order).
    pub const ALL: [HookPoint; 5] = [
        HookPoint::TectonicRead,
        HookPoint::ScribePublish,
        HookPoint::WorkerSplit,
        HookPoint::Harness,
        HookPoint::WireFrame,
    ];

    /// Stable snake_case name used in dumps and obs labels.
    pub fn name(&self) -> &'static str {
        match self {
            HookPoint::TectonicRead => "tectonic_read",
            HookPoint::ScribePublish => "scribe_publish",
            HookPoint::WorkerSplit => "worker_split",
            HookPoint::Harness => "harness",
            HookPoint::WireFrame => "wire_frame",
        }
    }

    pub(crate) fn index(&self) -> usize {
        match self {
            HookPoint::TectonicRead => 0,
            HookPoint::ScribePublish => 1,
            HookPoint::WorkerSplit => 2,
            HookPoint::Harness => 3,
            HookPoint::WireFrame => 4,
        }
    }
}

/// The fault to inject when an event's hook point reaches its nth op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Storage read fails with `DsiError::Unavailable` (node IO error).
    IoError,
    /// Storage read succeeds, but a straggler disk stalls the reading
    /// thread for `micros` of wall time first; the bytes are unchanged.
    SlowIo {
        /// Wall-clock stall in microseconds.
        micros: u64,
    },
    /// One byte of the returned chunk is XOR-flipped with `xor`
    /// (never zero, so the byte always changes). Downstream decode
    /// must surface this as a typed error — never silent wrong data.
    CorruptChunk {
        /// Non-zero mask XORed into the first byte of the chunk.
        xor: u8,
    },
    /// At-rest corruption: one byte of the replica the read is about to
    /// consult is XOR-flipped *on the storage node* before the read.
    /// Unlike [`FaultKind::CorruptChunk`] (in-flight, private copy), the
    /// stored copy itself is bad — the cluster's per-page checksums must
    /// detect it, fail the read over to a surviving replica, and repair
    /// the bad copy in place.
    CorruptReplica {
        /// Non-zero mask XORed into the replica's first byte.
        xor: u8,
    },
    /// A published record is silently dropped before the log append.
    DropRecord,
    /// A published record is appended twice.
    DuplicateRecord,
    /// A published record is held back and appended after its successor
    /// on the same topic.
    ReorderRecord,
    /// The worker abandons its split and dies; the master is notified as
    /// if the health monitor had detected the crash.
    WorkerCrash,
    /// The worker stalls for `micros` of wall time before loading the
    /// split (preemption / GC pause).
    WorkerHang {
        /// Wall-clock stall in microseconds (kept well below the
        /// watchdog timeout).
        micros: u64,
    },
    /// The worker transforms the split at reduced speed.
    SlowTransform {
        /// Wall-clock slowdown in microseconds.
        micros: u64,
    },
    /// Harness: the client disconnects and a fresh client reconnects
    /// (delivered seqs live in the session's Master, not the client).
    ClientReconnect,
    /// Harness: the master is killed mid-epoch and the session resumed
    /// from the Master's checkpoint (its split ledger with nothing in
    /// flight) taken at kill time.
    MasterKillRestore,
    /// Harness: the SSD cache evicts every resident page at once.
    EvictionStorm,
    /// Harness: a storage node fails (the harness repairs it a few
    /// batches later so replicas stay available).
    NodeFail,
    /// Harness: a live worker is hard-killed and replaced
    /// (`DppSession::crash_and_replace`).
    WorkerKill,
    /// Wire: the server drops the TCP connection before writing the frame;
    /// unacked envelopes replay on reconnect.
    ConnDrop,
    /// Wire: the server writes only a prefix of the frame, then drops the
    /// connection; the client must reject the torn frame and resync by
    /// reconnecting.
    PartialFrame,
    /// Wire: the frame write stalls for `micros` of wall time first
    /// (congested NIC / straggling network stack).
    SlowSocket {
        /// Wall-clock stall in microseconds.
        micros: u64,
    },
}

impl FaultKind {
    /// Stable snake_case label used in dumps and as the `fault` label on
    /// `dsi_chaos_injected_total`.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::IoError => "io_error",
            FaultKind::SlowIo { .. } => "slow_io",
            FaultKind::CorruptChunk { .. } => "corrupt_chunk",
            FaultKind::CorruptReplica { .. } => "corrupt_replica",
            FaultKind::DropRecord => "drop_record",
            FaultKind::DuplicateRecord => "duplicate_record",
            FaultKind::ReorderRecord => "reorder_record",
            FaultKind::WorkerCrash => "worker_crash",
            FaultKind::WorkerHang { .. } => "worker_hang",
            FaultKind::SlowTransform { .. } => "slow_transform",
            FaultKind::ClientReconnect => "client_reconnect",
            FaultKind::MasterKillRestore => "master_kill_restore",
            FaultKind::EvictionStorm => "eviction_storm",
            FaultKind::NodeFail => "node_fail",
            FaultKind::WorkerKill => "worker_kill",
            FaultKind::ConnDrop => "conn_drop",
            FaultKind::PartialFrame => "partial_frame",
            FaultKind::SlowSocket { .. } => "slow_socket",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::SlowIo { micros } => write!(f, "slow_io({micros}us)"),
            FaultKind::CorruptChunk { xor } => write!(f, "corrupt_chunk(xor={xor:#04x})"),
            FaultKind::CorruptReplica { xor } => write!(f, "corrupt_replica(xor={xor:#04x})"),
            FaultKind::WorkerHang { micros } => write!(f, "worker_hang({micros}us)"),
            FaultKind::SlowTransform { micros } => write!(f, "slow_transform({micros}us)"),
            FaultKind::SlowSocket { micros } => write!(f, "slow_socket({micros}us)"),
            other => f.write_str(other.label()),
        }
    }
}

/// One scheduled fault: at the `nth` operation observed on `hook`,
/// inject `kind`. `nth` is 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Where the fault fires.
    pub hook: HookPoint,
    /// The 1-based operation count at which it fires.
    pub nth: u64,
    /// What to inject.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Convenience constructor.
    pub fn new(hook: HookPoint, nth: u64, kind: FaultKind) -> Self {
        Self { hook, nth, kind }
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hook={} nth={} fault={}",
            self.hook.name(),
            self.nth,
            self.kind
        )
    }
}

/// Bounds used when generating random plans: how many events to draw
/// and how deep into each hook's virtual clock they may be scheduled.
///
/// The op budgets should stay below the op counts a fault-free epoch
/// actually produces, so scheduled events reliably fire.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of events to draw.
    pub events: usize,
    /// Upper bound (inclusive) for `nth` on [`HookPoint::TectonicRead`].
    pub max_reads: u64,
    /// Upper bound (inclusive) for `nth` on [`HookPoint::ScribePublish`].
    pub max_publishes: u64,
    /// Upper bound (inclusive) for `nth` on [`HookPoint::WorkerSplit`].
    pub max_splits: u64,
    /// Upper bound (inclusive) for `nth` on [`HookPoint::Harness`].
    pub max_batches: u64,
    /// Upper bound (inclusive) for `nth` on [`HookPoint::WireFrame`].
    pub max_frames: u64,
    /// Hook points random events may target.
    pub hooks: Vec<HookPoint>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            events: 6,
            max_reads: 24,
            max_publishes: 16,
            max_splits: 12,
            max_batches: 10,
            max_frames: 10,
            hooks: HookPoint::ALL.to_vec(),
        }
    }
}

/// A seeded, fully reproducible fault schedule.
///
/// Replaying the same plan against the same workload yields the same
/// injected-fault log and the same invariant-checker output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the plan was drawn from (0 for hand-written plans).
    pub seed: u64,
    /// The schedule, in generation order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty (fault-free) plan.
    pub fn empty() -> Self {
        Self {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// A hand-written plan, e.g. a named regression schedule.
    pub fn named(events: Vec<FaultEvent>) -> Self {
        Self { seed: 0, events }
    }

    /// Draws a random plan from `seed` under the bounds in `cfg`.
    pub fn random(seed: u64, cfg: &ChaosConfig) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut events = Vec::with_capacity(cfg.events);
        for _ in 0..cfg.events {
            let hook = cfg.hooks[rng.next_below(cfg.hooks.len() as u64) as usize];
            let (max_nth, kind) = match hook {
                HookPoint::TectonicRead => (
                    cfg.max_reads,
                    match rng.next_below(4) {
                        0 => FaultKind::IoError,
                        1 => FaultKind::SlowIo {
                            micros: 50 + rng.next_below(200),
                        },
                        2 => FaultKind::CorruptChunk {
                            xor: (rng.next_below(255) + 1) as u8,
                        },
                        _ => FaultKind::CorruptReplica {
                            xor: (rng.next_below(255) + 1) as u8,
                        },
                    },
                ),
                HookPoint::ScribePublish => (
                    cfg.max_publishes,
                    match rng.next_below(3) {
                        0 => FaultKind::DropRecord,
                        1 => FaultKind::DuplicateRecord,
                        _ => FaultKind::ReorderRecord,
                    },
                ),
                HookPoint::WorkerSplit => (
                    cfg.max_splits,
                    match rng.next_below(3) {
                        0 => FaultKind::WorkerCrash,
                        1 => FaultKind::WorkerHang {
                            micros: 200 + rng.next_below(800),
                        },
                        _ => FaultKind::SlowTransform {
                            micros: 100 + rng.next_below(400),
                        },
                    },
                ),
                HookPoint::Harness => (
                    cfg.max_batches,
                    match rng.next_below(5) {
                        0 => FaultKind::ClientReconnect,
                        1 => FaultKind::MasterKillRestore,
                        2 => FaultKind::EvictionStorm,
                        3 => FaultKind::NodeFail,
                        _ => FaultKind::WorkerKill,
                    },
                ),
                HookPoint::WireFrame => (
                    cfg.max_frames,
                    match rng.next_below(3) {
                        0 => FaultKind::ConnDrop,
                        1 => FaultKind::PartialFrame,
                        _ => FaultKind::SlowSocket {
                            micros: 100 + rng.next_below(400),
                        },
                    },
                ),
            };
            let nth = 1 + rng.next_below(max_nth.max(1));
            events.push(FaultEvent { hook, nth, kind });
        }
        Self { seed, events }
    }

    /// Number of distinct fault classes (by label) in the plan.
    pub fn distinct_classes(&self) -> usize {
        let mut labels: Vec<&str> = self.events.iter().map(|e| e.kind.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FaultPlan {{ seed: {}, events: {} }}",
            self.seed,
            self.events.len()
        )?;
        for (i, e) in self.events.iter().enumerate() {
            writeln!(f, "  [{i}] {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let cfg = ChaosConfig::default();
        assert_eq!(FaultPlan::random(7, &cfg), FaultPlan::random(7, &cfg));
        assert_ne!(FaultPlan::random(7, &cfg), FaultPlan::random(8, &cfg));
    }

    #[test]
    fn corrupt_chunk_mask_is_never_zero() {
        let cfg = ChaosConfig {
            events: 64,
            hooks: vec![HookPoint::TectonicRead],
            ..ChaosConfig::default()
        };
        for seed in 0..32 {
            for e in &FaultPlan::random(seed, &cfg).events {
                match e.kind {
                    FaultKind::CorruptChunk { xor } | FaultKind::CorruptReplica { xor } => {
                        assert_ne!(xor, 0)
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn display_dump_lists_every_event() {
        let plan = FaultPlan::named(vec![
            FaultEvent::new(HookPoint::TectonicRead, 3, FaultKind::IoError),
            FaultEvent::new(HookPoint::Harness, 2, FaultKind::MasterKillRestore),
        ]);
        let dump = plan.to_string();
        assert!(dump.contains("events: 2"), "{dump}");
        assert!(
            dump.contains("hook=tectonic_read nth=3 fault=io_error"),
            "{dump}"
        );
        assert!(
            dump.contains("hook=harness nth=2 fault=master_kill_restore"),
            "{dump}"
        );
    }

    #[test]
    fn distinct_classes_counts_labels() {
        let plan = FaultPlan::named(vec![
            FaultEvent::new(HookPoint::TectonicRead, 1, FaultKind::IoError),
            FaultEvent::new(HookPoint::TectonicRead, 2, FaultKind::IoError),
            FaultEvent::new(HookPoint::WorkerSplit, 1, FaultKind::WorkerCrash),
        ]);
        assert_eq!(plan.distinct_classes(), 2);
    }
}
