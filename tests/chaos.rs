//! Deterministic chaos suite: seeded fault schedules injected across
//! every pipeline layer, with invariant checkers asserting exactly-once
//! delivery and bitwise batch equality against a fault-free run.
//!
//! Every test here follows the same shape:
//!
//! 1. build a fresh world (Tectonic cluster + DWRF table, optionally an
//!    SSD cache tier),
//! 2. run one training epoch under a [`FaultPlan`] whose events fire at
//!    nth-operation points of the injector's per-hook virtual clocks,
//! 3. compare the consumed tensor-fingerprint multiset against a
//!    fault-free baseline of the *same* world, and check that the obs
//!    registry accounted for every injected fault.
//!
//! Reproduce any failure with the printed plan dump:
//!
//! ```text
//! FaultPlan { seed: 7, events: 3 }
//!   [0] hook=tectonic_read nth=20 fault=io_error
//!   ...
//! ```

use dpp::{SessionSpec, SplitLedger};
use dsi::chaos::{
    check_durability, check_exactly_once, check_obs_accounting, note_injected, shrink_plan,
    with_watchdog, ChaosConfig, DurabilityStats, EpochTrace, FaultEvent, InvariantReport,
};
use dsi::prelude::*;
use dsi::types::{NodeId, WorkerId};
use std::sync::Arc;
use std::time::Duration;

const DAYS: u32 = 3;
const ROWS_PER_DAY: u64 = 64;
const TOTAL_ROWS: usize = (DAYS as usize) * (ROWS_PER_DAY as usize);
/// 16-row stripes and 16-row batches: 4 splits/partition, 12 splits,
/// one tensor per split (per-split flush), 12 tensors per epoch.
const ROWS_PER_STRIPE: usize = 16;
const TOTAL_TENSORS: usize = TOTAL_ROWS / ROWS_PER_STRIPE;
const WATCHDOG: Duration = Duration::from_secs(90);

/// A fresh storage world: cluster handle kept so node-level faults and
/// the chaos injector can reach below the table abstraction.
struct World {
    cluster: TectonicCluster,
    table: Table,
}

fn build_world() -> World {
    let cluster = TectonicCluster::new(ClusterConfig::small());
    let opts = WriterOptions {
        rows_per_stripe: ROWS_PER_STRIPE,
        ..Default::default()
    };
    let table = Table::create(
        cluster.clone(),
        TableConfig::new(TableId(1), "chaos").with_writer_options(opts),
    )
    .unwrap();
    for day in 0..DAYS {
        let samples: Vec<Sample> = (0..ROWS_PER_DAY)
            .map(|i| {
                let row = day as u64 * ROWS_PER_DAY + i;
                let mut s = Sample::new(row as f32);
                s.set_dense(FeatureId(1), (row * 3) as f32);
                s.set_sparse(FeatureId(2), SparseList::from_ids(vec![row % 13, row % 7]));
                s
            })
            .collect();
        table
            .write_partition(PartitionId::new(day), samples)
            .unwrap();
    }
    World { cluster, table }
}

#[derive(Clone, Copy)]
struct EpochOpts {
    read_ahead: usize,
    with_cache: bool,
    workers: usize,
    transport: Transport,
    trace: bool,
}

impl Default for EpochOpts {
    fn default() -> Self {
        Self {
            read_ahead: 0,
            with_cache: false,
            workers: 3,
            transport: Transport::InProcess,
            trace: false,
        }
    }
}

fn chaos_spec(opts: EpochOpts) -> SessionSpec {
    SessionSpec::builder(SessionId(7))
        .partitions(PartitionId::new(0)..PartitionId::new(DAYS))
        .projection(Projection::new(vec![FeatureId(1), FeatureId(2)]))
        .batch_size(ROWS_PER_STRIPE)
        .dense_ids(vec![FeatureId(1)])
        .sparse_ids(vec![FeatureId(2)])
        .buffer_capacity(4)
        .read_ahead(opts.read_ahead)
        .transport(opts.transport)
        .trace(if opts.trace {
            TraceConfig::all()
        } else {
            TraceConfig::off()
        })
        .build()
}

/// Everything one epoch run produced, for invariant checking.
struct EpochRun {
    trace: EpochTrace,
    injector: Arc<FaultInjector>,
    registry: Registry,
    durability: DurabilityStats,
}

/// Snapshots the cluster's durability machinery into the plain-number
/// form the chaos invariant checkers consume.
fn durability_snapshot(cluster: &TectonicCluster) -> DurabilityStats {
    let d = cluster.durability();
    DurabilityStats {
        under_replicated: d.under_replicated,
        rebuild_queue_depth: d.rebuild_queue_depth,
        dead_nodes: d.dead_nodes,
        checksum_failures: d.checksum_failures,
        read_repairs: d.read_repairs,
        rebuilt_chunks: d.rebuilt_chunks,
    }
}

/// Launch with bounded retries: an IO fault scheduled early enough can
/// hit split planning, failing the launch with a typed error. The job
/// scheduler's response is to relaunch the session — the scheduled event
/// already fired (events fire at most once), so the retry proceeds.
fn launch_with_retry(
    world: &World,
    spec: &SessionSpec,
    workers: usize,
    injector: &Arc<FaultInjector>,
    from: Option<&SplitLedger>,
    registry: Option<&Registry>,
) -> DppSession {
    let mut last = None;
    for _ in 0..8 {
        let attempt = match from {
            None => DppSession::launch_observed_chaos(
                world.table.clone(),
                spec.clone(),
                workers,
                registry,
                Some(Arc::clone(injector)),
            ),
            Some(ckpt) => DppSession::resume(
                world.table.clone(),
                spec.clone(),
                ckpt,
                workers,
                registry,
                Some(Arc::clone(injector)),
            ),
        };
        match attempt {
            Ok(session) => return session,
            Err(e) => last = Some(e),
        }
    }
    panic!(
        "session launch failed after retries: {last:?}\n{}",
        injector.plan()
    );
}

/// Kills + replaces the lowest-id live worker (chaos `worker_kill`).
fn kill_one_worker(session: &DppSession) {
    for id in 0..128u64 {
        if session.crash_and_replace(WorkerId(id)).is_ok() {
            return;
        }
    }
}

/// Runs one epoch of the session under `injector`, firing harness-level
/// faults (master kill+restore, client reconnect, node failure, eviction
/// storm, worker kill) on the [`HookPoint::Harness`] virtual clock, which
/// ticks once per consumed batch on this single harness thread.
fn drive_epoch(injector: Arc<FaultInjector>, opts: EpochOpts) -> EpochRun {
    let registry = Registry::new();
    injector.attach_registry(registry.clone());
    let world = build_world();
    world.cluster.attach_chaos(Arc::clone(&injector));
    let cache = opts.with_cache.then(|| {
        let cache = tectonic::SsdCache::new(ByteSize::mib(64));
        world.table.attach_cache(cache.clone());
        cache
    });
    let spec = chaos_spec(opts);
    // Traced epochs need the registry attached *before* the first worker
    // spawns, or the earliest splits race worker startup and go untraced.
    let observed = opts.trace.then_some(&registry);
    let mut session = launch_with_retry(&world, &spec, opts.workers, &injector, None, observed);
    session.attach_registry(&registry);
    let mut client = session.client();
    let mut trace = EpochTrace::new();
    let mut batches: u64 = 0;
    let mut idle = 0u32;
    loop {
        match client.next_batch_deadline(Duration::from_millis(100)) {
            Some(tensor) => {
                trace.push(&tensor);
                batches += 1;
                idle = 0;
                for kind in injector.fire(HookPoint::Harness) {
                    match kind {
                        FaultKind::ClientReconnect => {
                            // Trainer-side disconnect: delivered seqs
                            // live in the Master's ledger, not the client,
                            // so replayed tensors still dedup.
                            client = session.client();
                        }
                        FaultKind::WorkerKill => kill_one_worker(&session),
                        FaultKind::EvictionStorm => {
                            if let Some(cache) = &cache {
                                cache.evict_all();
                            }
                        }
                        FaultKind::NodeFail => {
                            // Up to R-1 storage nodes down at once: recover
                            // the oldest casualty beyond that cap so every
                            // chunk keeps at least one live replica.
                            let mut downed = world.cluster.failed_nodes();
                            while downed.len() >= tectonic::REPLICATION_FACTOR - 1 {
                                world.cluster.recover_node(downed.remove(0));
                            }
                            let victim = batches % world.cluster.node_count() as u64;
                            world.cluster.fail_node(NodeId(victim));
                            // The heartbeat detector declares the victim
                            // dead after K missed beats and queues its
                            // chunks; drain the queue under a small IOPS
                            // budget so rebuild traffic contends with the
                            // epoch's own foreground reads.
                            for _ in 0..tectonic::HEARTBEAT_K {
                                world.cluster.heartbeat_tick();
                            }
                            while world.cluster.pump_rebuild(8).remaining > 0 {}
                        }
                        FaultKind::MasterKillRestore => {
                            let ckpt = session.master().checkpoint();
                            session.shutdown();
                            session = launch_with_retry(
                                &world,
                                &spec,
                                opts.workers,
                                &injector,
                                Some(&ckpt),
                                observed,
                            );
                            session.attach_registry(&registry);
                            client = session.client();
                        }
                        _ => {}
                    }
                }
            }
            None => {
                if session.is_complete() {
                    break;
                }
                // Injected crashes can fell the whole fleet; the chaos
                // harness (standing in for the control plane) restores
                // capacity once no worker thread is left.
                if session.live_worker_threads() == 0 {
                    session.spawn_worker();
                }
                idle += 1;
                assert!(
                    idle < 300,
                    "no progress for 30s under plan:\n{}",
                    injector.plan()
                );
            }
        }
    }
    injector.publish_metrics();
    world.cluster.publish_metrics(&registry);
    let durability = durability_snapshot(&world.cluster);
    session.shutdown();
    EpochRun {
        trace,
        injector,
        registry,
        durability,
    }
}

fn run_epoch(plan: FaultPlan, opts: EpochOpts) -> EpochRun {
    let injector = FaultInjector::new(plan);
    let context = injector.plan().to_string();
    with_watchdog(WATCHDOG, context, move || drive_epoch(injector, opts))
}

fn run_baseline(opts: EpochOpts) -> EpochRun {
    with_watchdog(WATCHDOG, "fault-free baseline".into(), move || {
        drive_epoch(FaultInjector::disarmed(), opts)
    })
}

/// Runs `plan` and its fault-free baseline over identical worlds and
/// checks every invariant, returning the (deterministic) report text.
fn check_plan(plan: FaultPlan, opts: EpochOpts) -> String {
    let baseline = run_baseline(opts);
    assert_eq!(baseline.trace.len(), TOTAL_TENSORS);
    assert_eq!(baseline.trace.samples(), TOTAL_ROWS);
    let faulty = run_epoch(plan, opts);
    let mut report = InvariantReport::new();
    note_injected(&mut report, &faulty.injector);
    check_exactly_once(&mut report, &faulty.trace, &baseline.trace);
    check_obs_accounting(&mut report, &faulty.injector, &faulty.registry);
    check_durability(&mut report, &faulty.durability);
    assert!(
        report.ok(),
        "invariants violated under plan:\n{}\n{report}",
        faulty.injector.plan()
    );
    report.render()
}

/// Asserts that `plan` injected every one of `labels` at least once when
/// run under `opts`, and that all invariants held.
fn check_plan_injects(plan: FaultPlan, opts: EpochOpts, labels: &[&str]) -> String {
    let rendered = check_plan(plan, opts);
    for label in labels {
        assert!(
            rendered.contains(label),
            "fault class {label} never injected:\n{rendered}"
        );
    }
    rendered
}

// ---------------------------------------------------------------------
// Hook budget headroom: nth values used by the named schedules below
// must stay within the op counts a fault-free epoch actually produces.
// ---------------------------------------------------------------------

#[test]
fn fault_free_epoch_produces_op_headroom_for_named_schedules() {
    let run = run_baseline(EpochOpts::default());
    let reads = run.injector.ops(HookPoint::TectonicRead);
    let splits = run.injector.ops(HookPoint::WorkerSplit);
    let batches = run.injector.ops(HookPoint::Harness);
    // One charged (coalesced) cluster read per split: named schedules
    // below must keep TectonicRead nth <= 12 to reliably fire.
    assert!(reads >= TOTAL_TENSORS as u64, "tectonic read ops: {reads}");
    assert!(splits >= TOTAL_TENSORS as u64, "worker split ops: {splits}");
    assert_eq!(batches, TOTAL_TENSORS as u64, "harness ops: {batches}");
    assert_eq!(run.injector.injected_count(), 0);
}

// ---------------------------------------------------------------------
// Flagship: many fault classes on one schedule, fastpath pipeline on.
// ---------------------------------------------------------------------

/// The flagship schedule: 8 distinct fault classes across storage,
/// workers, clients, and the master — all data-preserving, so the epoch
/// must still deliver every tensor exactly once, bit-identical.
fn flagship_plan() -> FaultPlan {
    FaultPlan::named(vec![
        FaultEvent::new(HookPoint::TectonicRead, 4, FaultKind::IoError),
        FaultEvent::new(
            HookPoint::TectonicRead,
            9,
            FaultKind::SlowIo { micros: 250 },
        ),
        FaultEvent::new(
            HookPoint::WorkerSplit,
            2,
            FaultKind::WorkerHang { micros: 400 },
        ),
        FaultEvent::new(HookPoint::WorkerSplit, 5, FaultKind::WorkerCrash),
        FaultEvent::new(
            HookPoint::WorkerSplit,
            9,
            FaultKind::SlowTransform { micros: 200 },
        ),
        FaultEvent::new(HookPoint::Harness, 3, FaultKind::NodeFail),
        FaultEvent::new(HookPoint::Harness, 5, FaultKind::WorkerKill),
        FaultEvent::new(HookPoint::Harness, 7, FaultKind::ClientReconnect),
        FaultEvent::new(HookPoint::Harness, 9, FaultKind::MasterKillRestore),
    ])
}

#[test]
fn flagship_eight_fault_classes_exactly_once_under_pipeline() {
    let plan = flagship_plan();
    assert!(
        plan.distinct_classes() >= 5,
        "flagship must span >=5 classes"
    );
    let opts = EpochOpts {
        read_ahead: 2, // kill the master while the two-stage pipeline runs
        ..EpochOpts::default()
    };
    check_plan_injects(
        plan,
        opts,
        &[
            "io_error",
            "slow_io",
            "worker_hang",
            "worker_crash",
            "slow_transform",
            "node_fail",
            "worker_kill",
            "client_reconnect",
            "master_kill_restore",
        ],
    );
}

#[test]
fn flagship_schedule_replays_to_identical_report() {
    let opts = EpochOpts {
        read_ahead: 2,
        ..EpochOpts::default()
    };
    let first = check_plan(flagship_plan(), opts);
    let second = check_plan(flagship_plan(), opts);
    assert_eq!(first, second, "replaying the same seed diverged");
}

#[test]
fn flagship_schedule_holds_on_sequential_workers_too() {
    check_plan(flagship_plan(), EpochOpts::default());
}

// ---------------------------------------------------------------------
// Named regression schedules, one (or a few) per fault class.
// ---------------------------------------------------------------------

#[test]
fn regression_tectonic_io_error_on_first_read_of_the_epoch() {
    // nth=1 lands on the very first charged cluster read: the unlucky
    // worker fails before delivering anything, and the epoch must still
    // deliver exactly once.
    let plan = FaultPlan::named(vec![FaultEvent::new(
        HookPoint::TectonicRead,
        1,
        FaultKind::IoError,
    )]);
    check_plan_injects(plan, EpochOpts::default(), &["io_error"]);
}

#[test]
fn regression_tectonic_io_error_on_worker_read_requeues_split() {
    let plan = FaultPlan::named(vec![FaultEvent::new(
        HookPoint::TectonicRead,
        8,
        FaultKind::IoError,
    )]);
    check_plan_injects(plan, EpochOpts::default(), &["io_error"]);
}

#[test]
fn regression_slow_disk_delays_reads_but_loses_nothing() {
    // Each slow read sleeps the reading thread; the epoch still delivers
    // every tensor exactly once, bit-identical.
    let plan = FaultPlan::named(vec![
        FaultEvent::new(
            HookPoint::TectonicRead,
            3,
            FaultKind::SlowIo { micros: 5_000 },
        ),
        FaultEvent::new(
            HookPoint::TectonicRead,
            10,
            FaultKind::SlowIo { micros: 5_000 },
        ),
    ]);
    check_plan_injects(plan, EpochOpts::default(), &["slow_io"]);
}

#[test]
fn regression_corrupt_chunk_is_detected_and_split_replayed_fastpath() {
    // Corruption of read bytes trips the DWRF stream checksum: the read
    // fails with a typed error (never silent wrong data), the worker is
    // failed, and the split replays from pristine replicas.
    let plan = FaultPlan::named(vec![FaultEvent::new(
        HookPoint::TectonicRead,
        7,
        FaultKind::CorruptChunk { xor: 0xA5 },
    )]);
    check_plan_injects(plan, EpochOpts::default(), &["corrupt_chunk"]);
}

#[test]
fn regression_corrupt_chunk_is_detected_and_split_replayed_pipelined() {
    // The same in-flight corruption with read-ahead: the fetch thread only
    // reads, so the DWRF checksum failure is raised on the worker thread
    // after the raw stripe was handed over. It must still end the stream
    // (a worker that skipped the split would leave it in flight forever)
    // and every sample must arrive exactly once.
    let plan = FaultPlan::named(vec![FaultEvent::new(
        HookPoint::TectonicRead,
        7,
        FaultKind::CorruptChunk { xor: 0xA5 },
    )]);
    let opts = EpochOpts {
        read_ahead: 2,
        ..EpochOpts::default()
    };
    check_plan_injects(plan, opts, &["corrupt_chunk"]);
}

#[test]
fn regression_worker_crash_storm_fells_whole_fleet_and_harness_respawns() {
    // Three crashes against three workers: the harness must detect the
    // empty fleet and restore capacity without losing exactly-once.
    let plan = FaultPlan::named(vec![
        FaultEvent::new(HookPoint::WorkerSplit, 2, FaultKind::WorkerCrash),
        FaultEvent::new(HookPoint::WorkerSplit, 3, FaultKind::WorkerCrash),
        FaultEvent::new(HookPoint::WorkerSplit, 4, FaultKind::WorkerCrash),
    ]);
    check_plan_injects(plan, EpochOpts::default(), &["worker_crash"]);
}

#[test]
fn regression_worker_crash_inside_fastpath_pipeline_requeues_in_pipe_splits() {
    // With read_ahead > 0 a crash at the load stage abandons splits
    // sitting in the fetch/transform channels; all must replay.
    let plan = FaultPlan::named(vec![
        FaultEvent::new(HookPoint::WorkerSplit, 3, FaultKind::WorkerCrash),
        FaultEvent::new(HookPoint::WorkerSplit, 6, FaultKind::WorkerCrash),
    ]);
    let opts = EpochOpts {
        read_ahead: 3,
        ..EpochOpts::default()
    };
    check_plan_injects(plan, opts, &["worker_crash"]);
}

#[test]
fn regression_worker_hang_and_slow_transform_delay_but_never_lose() {
    let plan = FaultPlan::named(vec![
        FaultEvent::new(
            HookPoint::WorkerSplit,
            1,
            FaultKind::WorkerHang { micros: 2_000 },
        ),
        FaultEvent::new(
            HookPoint::WorkerSplit,
            4,
            FaultKind::SlowTransform { micros: 1_000 },
        ),
    ]);
    check_plan_injects(
        plan,
        EpochOpts::default(),
        &["worker_hang", "slow_transform"],
    );
}

#[test]
fn regression_client_disconnect_reconnect_preserves_progress() {
    let plan = FaultPlan::named(vec![
        FaultEvent::new(HookPoint::Harness, 2, FaultKind::ClientReconnect),
        FaultEvent::new(HookPoint::Harness, 6, FaultKind::ClientReconnect),
    ]);
    check_plan_injects(plan, EpochOpts::default(), &["client_reconnect"]);
}

#[test]
fn regression_worker_kill_races_split_completion_ack() {
    // The ack race this schedule regresses: a worker is killed right as
    // batches are being consumed, so a split's final-tensor ack can race
    // the kill's fail_worker requeue. The
    // replayed duplicate must re-ack, or the split stays in flight and
    // the epoch livelocks (caught by the watchdog).
    let plan = FaultPlan::named(vec![
        FaultEvent::new(HookPoint::Harness, 1, FaultKind::WorkerKill),
        FaultEvent::new(HookPoint::Harness, 2, FaultKind::WorkerKill),
        FaultEvent::new(HookPoint::Harness, 3, FaultKind::WorkerKill),
        FaultEvent::new(HookPoint::Harness, 4, FaultKind::WorkerKill),
    ]);
    check_plan_injects(plan, EpochOpts::default(), &["worker_kill"]);
}

#[test]
fn regression_eviction_storm_refetches_from_hdd_bit_identically() {
    let plan = FaultPlan::named(vec![
        FaultEvent::new(HookPoint::Harness, 2, FaultKind::EvictionStorm),
        FaultEvent::new(HookPoint::Harness, 5, FaultKind::EvictionStorm),
    ]);
    let opts = EpochOpts {
        with_cache: true,
        ..EpochOpts::default()
    };
    check_plan_injects(plan, opts, &["eviction_storm"]);
}

#[test]
fn regression_node_failures_survive_via_replication() {
    let plan = FaultPlan::named(vec![
        FaultEvent::new(HookPoint::Harness, 1, FaultKind::NodeFail),
        FaultEvent::new(HookPoint::Harness, 4, FaultKind::NodeFail),
        FaultEvent::new(HookPoint::Harness, 7, FaultKind::NodeFail),
    ]);
    check_plan_injects(plan, EpochOpts::default(), &["node_fail"]);
}

#[test]
fn regression_master_kill_restore_mid_epoch_sequential() {
    let plan = FaultPlan::named(vec![FaultEvent::new(
        HookPoint::Harness,
        4,
        FaultKind::MasterKillRestore,
    )]);
    check_plan_injects(plan, EpochOpts::default(), &["master_kill_restore"]);
}

#[test]
fn regression_double_master_kill_restore_under_pipeline() {
    let plan = FaultPlan::named(vec![
        FaultEvent::new(HookPoint::Harness, 3, FaultKind::MasterKillRestore),
        FaultEvent::new(HookPoint::Harness, 8, FaultKind::MasterKillRestore),
    ]);
    let opts = EpochOpts {
        read_ahead: 2,
        ..EpochOpts::default()
    };
    check_plan_injects(plan, opts, &["master_kill_restore"]);
}

// ---------------------------------------------------------------------
// Wire transport: faults on the TCP data plane.
// ---------------------------------------------------------------------

#[test]
fn regression_wire_connection_drops_replay_unacked_envelopes() {
    // Severed sockets, a torn frame mid-write, and a slow socket on the
    // worker->client wire: the client reconnects, the server replays its
    // unacked envelope window, and the exactly-once dedup absorbs every
    // replayed duplicate — the epoch still matches the baseline bitwise.
    let plan = FaultPlan::named(vec![
        FaultEvent::new(HookPoint::WireFrame, 2, FaultKind::ConnDrop),
        FaultEvent::new(HookPoint::WireFrame, 5, FaultKind::PartialFrame),
        FaultEvent::new(
            HookPoint::WireFrame,
            8,
            FaultKind::SlowSocket { micros: 300 },
        ),
        FaultEvent::new(HookPoint::WireFrame, 11, FaultKind::ConnDrop),
    ]);
    let opts = EpochOpts {
        transport: Transport::Tcp(WireConfig::plaintext()),
        ..EpochOpts::default()
    };
    check_plan_injects(plan, opts, &["conn_drop", "partial_frame", "slow_socket"]);
}

#[test]
fn regression_wire_drops_compose_with_worker_kill_and_master_restart() {
    // Wire faults racing control-plane chaos over an encrypted transport:
    // killing a worker tears down its wire server mid-replay, and the
    // master restart rebuilds every socket from the checkpoint.
    let plan = FaultPlan::named(vec![
        FaultEvent::new(HookPoint::WireFrame, 3, FaultKind::ConnDrop),
        FaultEvent::new(HookPoint::WireFrame, 7, FaultKind::PartialFrame),
        FaultEvent::new(HookPoint::Harness, 3, FaultKind::WorkerKill),
        FaultEvent::new(HookPoint::Harness, 6, FaultKind::MasterKillRestore),
    ]);
    let opts = EpochOpts {
        transport: Transport::Tcp(WireConfig::encrypted(0x007E_57ED)),
        ..EpochOpts::default()
    };
    check_plan_injects(
        plan,
        opts,
        &[
            "conn_drop",
            "partial_frame",
            "worker_kill",
            "master_kill_restore",
        ],
    );
}

#[test]
fn composed_chaos_traces_stay_valid_with_replays_as_sibling_spans() {
    // The composed control+data-plane schedule (wire drop, worker kill,
    // master kill+restore) with 100% trace sampling: every retry path in
    // the pipeline must keep the span tree structurally sound. Trace ids
    // are deterministic per (session, split), so a replayed split — from
    // whichever fault — lands in the SAME trace as its first attempt, as
    // sibling spans, never as an orphan or a second trace.
    let plan = FaultPlan::named(vec![
        FaultEvent::new(HookPoint::WireFrame, 3, FaultKind::ConnDrop),
        FaultEvent::new(HookPoint::Harness, 3, FaultKind::WorkerKill),
        FaultEvent::new(HookPoint::Harness, 6, FaultKind::MasterKillRestore),
    ]);
    let opts = EpochOpts {
        transport: Transport::Tcp(WireConfig::plaintext()),
        trace: true,
        ..EpochOpts::default()
    };
    let run = run_epoch(plan, opts);
    assert_eq!(run.trace.len(), TOTAL_TENSORS, "epoch lost tensors");
    assert!(
        run.injector.injected_count() >= 3,
        "composed schedule under-fired:\n{}",
        run.injector.plan()
    );
    let spans = run.registry.trace_spans();
    assert_eq!(run.registry.trace_dropped(), 0, "span ring overflowed");
    if let Err(errors) = dsi::trace::validate(&spans) {
        panic!(
            "structurally invalid traces under chaos:\n  {}",
            errors.join("\n  ")
        );
    }
    // Full sampling + observed launch/resume: every split's trace is
    // present and complete down to delivery.
    let schedules = schedule_counts(&spans);
    assert_eq!(
        schedules.len(),
        TOTAL_TENSORS,
        "expected one trace per split"
    );
    for &trace_id in schedules.keys() {
        assert!(
            spans
                .iter()
                .any(|s| s.trace_id == trace_id && s.kind == dsi::obs::SpanKind::Deliver),
            "trace {trace_id:#x} never reached the client"
        );
    }
    // Replay evidence: a worker kill or master restore re-schedules the
    // in-flight split (a second parent-0 Schedule sibling in the same
    // trace), and wire drops replay envelopes (FLAG_REPLAY siblings).
    let rescheduled = schedules.values().filter(|&&n| n > 1).count();
    let replay_flagged = spans.iter().filter(|s| s.is_replay()).count();
    assert!(
        rescheduled + replay_flagged > 0,
        "no replayed split visible as a sibling span:\n{}",
        run.injector.plan()
    );
}

/// Top-level (`Schedule`) span count per trace: a count above one means
/// the split was re-served after a failure and the replayed execution is
/// a sibling subtree.
fn schedule_counts(spans: &[dsi::obs::TraceSpan]) -> std::collections::BTreeMap<u64, usize> {
    let mut counts = std::collections::BTreeMap::new();
    for s in spans {
        if s.kind == dsi::obs::SpanKind::Schedule && s.parent_id == 0 {
            *counts.entry(s.trace_id).or_insert(0) += 1;
        }
    }
    counts
}

// ---------------------------------------------------------------------
// Corruption must never reach the trainer.
// ---------------------------------------------------------------------

#[test]
fn corrupted_blocks_never_reach_the_trainer() {
    // Feed a chaos epoch straight into the live trainer: with chunk
    // corruption injected on the read path, the trainer must still see
    // every sample exactly once — corruption surfaces as a typed decode
    // error inside DPP, the split replays, and only verified bytes flow.
    let injector = FaultInjector::new(FaultPlan::named(vec![
        FaultEvent::new(
            HookPoint::TectonicRead,
            5,
            FaultKind::CorruptChunk { xor: 0xFF },
        ),
        FaultEvent::new(
            HookPoint::TectonicRead,
            10,
            FaultKind::SlowIo { micros: 300 },
        ),
        FaultEvent::new(
            HookPoint::WorkerSplit,
            4,
            FaultKind::WorkerHang { micros: 500 },
        ),
    ]));
    let samples = with_watchdog(WATCHDOG, injector.plan().to_string(), move || {
        let world = build_world();
        world.cluster.attach_chaos(Arc::clone(&injector));
        let spec = chaos_spec(EpochOpts::default());
        let session = launch_with_retry(&world, &spec, 3, &injector, None, None);
        let client = session.client();
        let mut trainer = LiveTrainer::new(client, 320_000.0);
        let (_stalls, samples) = trainer.train(u64::MAX);
        assert!(injector.injected_count() >= 1, "corruption never injected");
        session.shutdown();
        samples
    });
    assert_eq!(samples, TOTAL_ROWS as u64);
}

// ---------------------------------------------------------------------
// Durability: replica loss and at-rest corruption mid-epoch.
// ---------------------------------------------------------------------

#[test]
fn durability_kill_one_storage_node_mid_epoch_over_tcp_pipeline() {
    // A storage node dies while the two-stage pipeline streams batches over
    // TCP: the heartbeat detector declares it dead, its chunks rebuild
    // under a bounded IOPS budget, and the epoch loses nothing.
    let plan = FaultPlan::named(vec![FaultEvent::new(
        HookPoint::Harness,
        3,
        FaultKind::NodeFail,
    )]);
    let opts = EpochOpts {
        read_ahead: 2,
        transport: Transport::Tcp(WireConfig::plaintext()),
        ..EpochOpts::default()
    };
    check_plan_injects(plan, opts, &["node_fail"]);
}

#[test]
fn durability_kill_r_minus_one_storage_nodes_mid_epoch_over_tcp_pipeline() {
    // Three node kills in quick succession keep R-1 = 2 nodes dead at
    // once (the harness caps concurrency there so a live replica always
    // survives). Every tensor must still arrive exactly once, bitwise
    // identical, and the rebuild queue must be drained by epoch end.
    let plan = FaultPlan::named(vec![
        FaultEvent::new(HookPoint::Harness, 2, FaultKind::NodeFail),
        FaultEvent::new(HookPoint::Harness, 4, FaultKind::NodeFail),
        FaultEvent::new(HookPoint::Harness, 6, FaultKind::NodeFail),
    ]);
    let opts = EpochOpts {
        read_ahead: 2,
        transport: Transport::Tcp(WireConfig::plaintext()),
        ..EpochOpts::default()
    };
    check_plan_injects(plan, opts, &["node_fail"]);
}

#[test]
fn durability_corrupt_replica_is_detected_failed_over_and_repaired() {
    // At-rest corruption planted on the very replica the next read
    // consults: the per-page checksum trips, the read fails over to a
    // clean replica, and read-repair rewrites the bad copy — all
    // transparent to the consumer, which still matches the baseline.
    let plan = FaultPlan::named(vec![
        FaultEvent::new(
            HookPoint::TectonicRead,
            3,
            FaultKind::CorruptReplica { xor: 0x5A },
        ),
        FaultEvent::new(
            HookPoint::TectonicRead,
            8,
            FaultKind::CorruptReplica { xor: 0xFF },
        ),
    ]);
    let baseline = run_baseline(EpochOpts::default());
    let faulty = run_epoch(plan, EpochOpts::default());
    let mut report = InvariantReport::new();
    note_injected(&mut report, &faulty.injector);
    check_exactly_once(&mut report, &faulty.trace, &baseline.trace);
    check_obs_accounting(&mut report, &faulty.injector, &faulty.registry);
    check_durability(&mut report, &faulty.durability);
    assert!(
        report.ok(),
        "invariants violated under plan:\n{}\n{report}",
        faulty.injector.plan()
    );
    assert!(
        faulty.durability.checksum_failures >= 1,
        "corruption was never detected: {:?}",
        faulty.durability
    );
    assert!(
        faulty.durability.read_repairs >= 1,
        "bad replica was never repaired: {:?}",
        faulty.durability
    );
}

#[test]
fn at_rest_corruption_never_reaches_the_trainer() {
    // Feed a chaos epoch straight into the live trainer with replicas
    // corrupted on disk: checksum verification catches every bad page
    // inside the storage layer, reads fail over and repair in place, and
    // the trainer consumes every sample without ever seeing a decode
    // error — unlike in-flight CorruptChunk, no split even replays.
    let injector = FaultInjector::new(FaultPlan::named(vec![
        FaultEvent::new(
            HookPoint::TectonicRead,
            4,
            FaultKind::CorruptReplica { xor: 0xFF },
        ),
        FaultEvent::new(
            HookPoint::TectonicRead,
            9,
            FaultKind::CorruptReplica { xor: 0x01 },
        ),
    ]));
    let (samples, durability) = with_watchdog(WATCHDOG, injector.plan().to_string(), move || {
        let world = build_world();
        world.cluster.attach_chaos(Arc::clone(&injector));
        let spec = chaos_spec(EpochOpts::default());
        let session = launch_with_retry(&world, &spec, 3, &injector, None, None);
        let client = session.client();
        let mut trainer = LiveTrainer::new(client, 320_000.0);
        let (_stalls, samples) = trainer.train(u64::MAX);
        assert!(injector.injected_count() >= 1, "corruption never injected");
        session.shutdown();
        (samples, durability_snapshot(&world.cluster))
    });
    assert_eq!(samples, TOTAL_ROWS as u64);
    assert!(durability.checksum_failures >= 1, "{durability:?}");
    assert!(durability.read_repairs >= 1, "{durability:?}");
    let mut report = InvariantReport::new();
    check_durability(&mut report, &durability);
    assert!(report.ok(), "{report}");
}

#[test]
fn durability_rebuild_converges_under_bounded_iops_budget() {
    // Cluster-level convergence over real table data: kill a node, let
    // the heartbeat detector declare it dead, then drain the rebuild
    // queue in small budgeted pumps. Each pump starts at most `budget`
    // IOs (one in-flight chunk may overshoot by its own read+writes),
    // and at convergence every chunk is back to R live replicas.
    let world = build_world();
    // Kill the node holding the most chunks so the rebuild queue is
    // deep enough that a budget of 1 demonstrably takes several pumps.
    let mut held: std::collections::HashMap<NodeId, u64> = std::collections::HashMap::new();
    for path in world.cluster.list_files() {
        for replicas in world.cluster.stat(&path).unwrap().blocks {
            for n in replicas {
                *held.entry(n).or_insert(0) += 1;
            }
        }
    }
    let (victim, chunks_held) = held
        .into_iter()
        .max_by_key(|&(n, c)| (c, std::cmp::Reverse(n.0)))
        .unwrap();
    assert!(chunks_held >= 2, "world too small: {chunks_held} chunks");
    world.cluster.fail_node(victim);
    for _ in 0..tectonic::HEARTBEAT_K {
        world.cluster.heartbeat_tick();
    }
    assert_eq!(world.cluster.dead_nodes(), vec![victim]);
    let budget = 1u64;
    let mut pumps = 0u64;
    loop {
        let p = world.cluster.pump_rebuild(budget);
        pumps += 1;
        assert!(
            p.ios <= budget + tectonic::REPLICATION_FACTOR as u64,
            "pump overshot its budget: {} IOs",
            p.ios
        );
        if p.remaining == 0 {
            break;
        }
        assert!(pumps < 10_000, "rebuild failed to converge");
    }
    assert!(pumps > 1, "budget {budget} drained the queue in one pump");
    let d = world.cluster.durability();
    assert_eq!(d.under_replicated, 0, "{d:?}");
    assert!(d.rebuilt_chunks > 0, "{d:?}");
    // Every block of every file is back at full replication on live nodes.
    for path in world.cluster.list_files() {
        let meta = world.cluster.stat(&path).unwrap();
        for (i, replicas) in meta.blocks.iter().enumerate() {
            let live = replicas.iter().filter(|&&n| n != victim).count();
            assert!(
                live >= tectonic::REPLICATION_FACTOR,
                "{path} block {i} has {live} live replicas"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Random schedules with shrinking to a minimal failing plan.
// ---------------------------------------------------------------------

/// Bounds for random schedules: nth budgets stay under the op counts a
/// fault-free epoch produces (see the headroom test above) so scheduled
/// events reliably fire. Scribe faults are exercised at the bus layer
/// (see `crates/scribe`); the epoch harness drives the other hooks.
fn random_cfg() -> ChaosConfig {
    ChaosConfig {
        events: 5,
        max_reads: 12,
        max_splits: 10,
        max_batches: 10,
        hooks: vec![
            HookPoint::TectonicRead,
            HookPoint::WorkerSplit,
            HookPoint::Harness,
        ],
        ..ChaosConfig::default()
    }
}

/// Dumps a failing plan where CI can pick it up as an artifact.
fn dump_failing_plan(plan: &FaultPlan, report: &str) -> String {
    let dir = std::path::Path::new("target/chaos");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("failing-plan-seed-{}.txt", plan.seed));
    let body = format!("{plan}\n{report}");
    let _ = std::fs::write(&path, &body);
    path.display().to_string()
}

#[test]
fn random_schedules_hold_invariants_or_shrink_to_minimal_plan() {
    let opts = EpochOpts {
        with_cache: true,
        ..EpochOpts::default()
    };
    let verdict = |plan: &FaultPlan| -> Result<String, String> {
        let baseline = run_baseline(opts);
        let faulty = run_epoch(plan.clone(), opts);
        let mut report = InvariantReport::new();
        note_injected(&mut report, &faulty.injector);
        check_exactly_once(&mut report, &faulty.trace, &baseline.trace);
        check_obs_accounting(&mut report, &faulty.injector, &faulty.registry);
        check_durability(&mut report, &faulty.durability);
        if report.ok() {
            Ok(report.render())
        } else {
            Err(report.render())
        }
    };
    for seed in [11, 29, 47] {
        let plan = FaultPlan::random(seed, &random_cfg());
        if let Err(report) = verdict(&plan) {
            // Shrink to the minimal schedule that still violates the
            // invariant, dump it for CI, and fail with the dump.
            let minimal = shrink_plan(&plan, |p| verdict(p).is_err());
            let path = dump_failing_plan(&minimal, &report);
            panic!("seed {seed} violated invariants; minimal plan at {path}:\n{minimal}\n{report}");
        }
    }
}

#[test]
fn mutation_check_broken_invariant_shrinks_to_minimal_printed_plan() {
    // Mutation test for the shrinking + reporting machinery itself: an
    // intentionally broken invariant ("chaos must never inject anything")
    // must fail, and shrinking must reduce the schedule to a single event
    // whose printed dump reproduces the failure.
    let opts = EpochOpts::default();
    let broken_invariant_fails = |plan: &FaultPlan| -> bool {
        let run = run_epoch(plan.clone(), opts);
        run.injector.injected_count() > 0 // "broken": any injection fails
    };
    let plan = FaultPlan::named(vec![
        FaultEvent::new(
            HookPoint::WorkerSplit,
            2,
            FaultKind::WorkerHang { micros: 100 },
        ),
        FaultEvent::new(
            HookPoint::WorkerSplit,
            5,
            FaultKind::SlowTransform { micros: 100 },
        ),
        FaultEvent::new(
            HookPoint::TectonicRead,
            14,
            FaultKind::SlowIo { micros: 100 },
        ),
    ]);
    assert!(broken_invariant_fails(&plan), "mutation was not observable");
    let minimal = shrink_plan(&plan, broken_invariant_fails);
    assert_eq!(minimal.events.len(), 1, "not 1-minimal:\n{minimal}");
    let dump = minimal.to_string();
    assert!(dump.contains("FaultPlan { seed: 0, events: 1 }"), "{dump}");
    let path = dump_failing_plan(&minimal, "mutation-check: intentional");
    assert!(std::path::Path::new(&path).exists());
}

// ---------------------------------------------------------------------
// Closed-loop tuning under chaos: the online tuner actively rolls knob
// changes through the fleet while a storage node dies mid-epoch.
// ---------------------------------------------------------------------

#[test]
fn tuner_moves_knobs_while_node_dies_mid_epoch_exactly_once() {
    // The composed scenario ISSUE satellite 4 asks for: a LiveTuner is
    // ticking every batch — growing the fleet, deepening read-ahead,
    // rotating workers through the new spec — when NodeFail hits twice.
    // Each loss runs the full declaration path (K missed heartbeats →
    // chunks queued → budgeted rebuild) while the tuner keeps actuating.
    // Delivery must stay exactly-once and bitwise-identical to the
    // fault-free, untouched-knobs baseline. The batch-size axis is frozen
    // (a mid-run change would legitimately alter tensor shapes); workers
    // and read-ahead are the delivery-invariant knobs the tuner may move.
    let opts = EpochOpts {
        workers: 2,
        ..EpochOpts::default()
    };
    let baseline = run_baseline(opts);
    assert_eq!(baseline.trace.len(), TOTAL_TENSORS);

    let plan = FaultPlan::named(vec![
        FaultEvent::new(HookPoint::Harness, 3, FaultKind::NodeFail),
        FaultEvent::new(HookPoint::Harness, 6, FaultKind::NodeFail),
    ]);
    let injector = FaultInjector::new(plan);
    let context = injector.plan().to_string();
    let faulty = with_watchdog(WATCHDOG, context, move || {
        let registry = Registry::new();
        injector.attach_registry(registry.clone());
        let world = build_world();
        world.cluster.attach_chaos(Arc::clone(&injector));
        let spec = chaos_spec(opts);
        let session = launch_with_retry(&world, &spec, opts.workers, &injector, None, None);
        session.attach_registry(&registry);

        let policy = OnlineTuner::new(TunerConfig {
            bounds: KnobBounds {
                workers: (1, 5),
                read_ahead: (0, 2),
                batch_size: (ROWS_PER_STRIPE, ROWS_PER_STRIPE), // frozen
            },
            ..TunerConfig::default()
        });
        let mut tuner = LiveTuner::new(Box::new(policy), &session);
        assert_eq!(tuner.knobs().batch_size, ROWS_PER_STRIPE);

        let mut client = session.client();
        let mut trace = EpochTrace::new();
        let mut batches: u64 = 0;
        let mut forced_moves = 0u32;
        let mut idle = 0u32;
        loop {
            match client.next_batch_deadline(Duration::from_millis(100)) {
                Some(tensor) => {
                    trace.push(&tensor);
                    batches += 1;
                    idle = 0;
                    for kind in injector.fire(HookPoint::Harness) {
                        if kind == FaultKind::NodeFail {
                            let mut downed = world.cluster.failed_nodes();
                            while downed.len() >= tectonic::REPLICATION_FACTOR - 1 {
                                world.cluster.recover_node(downed.remove(0));
                            }
                            let victim = batches % world.cluster.node_count() as u64;
                            world.cluster.fail_node(NodeId(victim));
                            for _ in 0..tectonic::HEARTBEAT_K {
                                world.cluster.heartbeat_tick();
                            }
                            while world.cluster.pump_rebuild(8).remaining > 0 {}
                        }
                    }
                    // Forced knob motion bracketing the two node losses, so
                    // the tuner is provably mid-flight when they land; the
                    // policy also runs its own closed loop every batch.
                    match batches {
                        2 => {
                            let grown = Knobs {
                                workers: tuner.knobs().workers + 1,
                                read_ahead: 1,
                                ..tuner.knobs()
                            };
                            let d = tuner.apply(&session, grown);
                            assert_eq!(d.spawned, 1);
                            forced_moves += 1;
                        }
                        5 => {
                            // Depth-only move between the two losses: rolls
                            // a worker through the new spec via drain+spawn.
                            let deeper = Knobs {
                                read_ahead: 2,
                                ..tuner.knobs()
                            };
                            let d = tuner.apply(&session, deeper);
                            assert!(d.rotated || d.spawned > 0, "{d:?}");
                            forced_moves += 1;
                        }
                        8 => {
                            let slimmer = Knobs {
                                workers: tuner.knobs().workers.saturating_sub(1).max(1),
                                ..tuner.knobs()
                            };
                            tuner.apply(&session, slimmer);
                            forced_moves += 1;
                        }
                        _ => {
                            tuner.tick(&session);
                        }
                    }
                    assert_eq!(
                        tuner.knobs().batch_size,
                        ROWS_PER_STRIPE,
                        "frozen batch axis must never move"
                    );
                }
                None => {
                    if session.is_complete() {
                        break;
                    }
                    if session.live_worker_threads() == 0 {
                        session.spawn_worker();
                    }
                    idle += 1;
                    assert!(
                        idle < 300,
                        "no progress for 30s under plan:\n{}",
                        injector.plan()
                    );
                }
            }
        }
        assert_eq!(forced_moves, 3, "all three bracketed knob moves ran");
        injector.publish_metrics();
        world.cluster.publish_metrics(&registry);
        let durability = durability_snapshot(&world.cluster);
        session.shutdown();
        EpochRun {
            trace,
            injector,
            registry,
            durability,
        }
    });

    let mut report = InvariantReport::new();
    note_injected(&mut report, &faulty.injector);
    check_exactly_once(&mut report, &faulty.trace, &baseline.trace);
    check_obs_accounting(&mut report, &faulty.injector, &faulty.registry);
    check_durability(&mut report, &faulty.durability);
    assert!(
        report.ok(),
        "invariants violated under tuned chaos run:\n{}\n{report}",
        faulty.injector.plan()
    );
    assert!(
        report.render().contains("node_fail"),
        "node failure never injected:\n{}",
        report.render()
    );
}
