//! Fault-tolerance integration: worker crashes, master checkpoint/restore,
//! and scaling under churn.
//!
//! Fault *scheduling* here goes through `crates/chaos`: crashes fire at
//! named nth-operation points of a printable [`FaultPlan`] instead of
//! ad-hoc row counters, so every schedule is reproducible and shrinkable.
//! (The full invariant-checked chaos suite lives in `tests/chaos.rs`.)

use dpp::{Master, SessionSpec, SplitLedger, SplitState};
use dsi::chaos::FaultEvent;
use dsi::prelude::*;
use std::collections::HashSet;

fn build_table(days: u32, rows_per_day: u64) -> Table {
    let cluster = TectonicCluster::new(ClusterConfig::small());
    let opts = WriterOptions {
        rows_per_stripe: 20,
        ..Default::default()
    };
    let table = Table::create(
        cluster,
        TableConfig::new(TableId(1), "ft").with_writer_options(opts),
    )
    .unwrap();
    for day in 0..days {
        let samples: Vec<Sample> = (0..rows_per_day)
            .map(|i| {
                let mut s = Sample::new((day as u64 * rows_per_day + i) as f32);
                s.set_dense(FeatureId(1), i as f32);
                s
            })
            .collect();
        table
            .write_partition(PartitionId::new(day), samples)
            .unwrap();
    }
    table
}

fn spec(days: u32) -> SessionSpec {
    SessionSpec::builder(SessionId(1))
        .partitions(PartitionId::new(0)..PartitionId::new(days))
        .projection(Projection::new(vec![FeatureId(1)]))
        .batch_size(20)
        .dense_ids(vec![FeatureId(1)])
        .buffer_capacity(4)
        .build()
}

#[test]
fn repeated_crashes_never_lose_or_duplicate_rows() {
    // Four worker kills scheduled on the chaos injector's per-batch
    // virtual clock (400 rows / 20-row batches = 20 ticks).
    let injector = FaultInjector::new(FaultPlan::named(vec![
        FaultEvent::new(HookPoint::Harness, 3, FaultKind::WorkerKill),
        FaultEvent::new(HookPoint::Harness, 6, FaultKind::WorkerKill),
        FaultEvent::new(HookPoint::Harness, 9, FaultKind::WorkerKill),
        FaultEvent::new(HookPoint::Harness, 12, FaultKind::WorkerKill),
    ]));
    let table = build_table(4, 100);
    let session = DppSession::launch(table, spec(4), 3).unwrap();
    let mut client = session.client();
    let mut seen = HashSet::new();
    let mut crashes = 0;
    while let Some(tensor) = client.next_batch() {
        for &l in &tensor.labels {
            assert!(seen.insert(l as u64), "row {l} duplicated");
        }
        for kind in injector.fire(HookPoint::Harness) {
            if kind == FaultKind::WorkerKill {
                // Crash the first live worker; replacement ids grow, so
                // scan from 0 upward.
                for id in (0..20).map(dsi_types::WorkerId) {
                    if session.crash_and_replace(id).is_ok() {
                        crashes += 1;
                        break;
                    }
                }
            }
        }
    }
    assert_eq!(seen.len(), 400, "all rows delivered exactly once");
    assert_eq!(
        crashes,
        4,
        "schedule fires every kill:\n{}",
        injector.plan()
    );
    assert!(session.is_complete());
    session.shutdown();
}

#[test]
fn injected_worker_crashes_mid_split_never_lose_or_duplicate_rows() {
    // Same invariant with crashes injected *inside* the worker loop
    // (the WorkerSplit hook) rather than by the harness: the injector is
    // installed at launch so the schedule observes the very first split.
    let injector = FaultInjector::new(FaultPlan::named(vec![
        FaultEvent::new(HookPoint::WorkerSplit, 2, FaultKind::WorkerCrash),
        FaultEvent::new(HookPoint::WorkerSplit, 7, FaultKind::WorkerCrash),
    ]));
    let table = build_table(4, 100);
    let session = DppSession::launch_observed_chaos(
        table,
        spec(4),
        3,
        None,
        Some(std::sync::Arc::clone(&injector)),
    )
    .unwrap();
    let mut client = session.client();
    let mut seen = HashSet::new();
    while let Some(tensor) = client.next_batch() {
        for &l in &tensor.labels {
            assert!(seen.insert(l as u64), "row {l} duplicated");
        }
    }
    assert_eq!(seen.len(), 400, "all rows delivered exactly once");
    assert_eq!(
        injector.injected_counts().get("worker_crash"),
        Some(&2),
        "both crashes fired:\n{}",
        injector.plan()
    );
    assert!(session.is_complete());
    session.shutdown();
}

#[test]
fn master_checkpoint_restore_replays_only_incomplete_work() {
    use dsi::obs::names;
    let table = build_table(2, 100);
    let s = spec(2);
    let scan = table.scan(s.partitions(), s.projection.clone());
    let splits = scan.plan_splits();
    let master = Master::new(SessionId(1), splits.clone());
    let reg = Registry::new();
    master.attach_registry(&reg);
    // Everything a Master writes carries its session as the `job` label.
    let job = [("job", "sess1")];
    let w = master.register_worker();

    // Process 4 splits "to completion" (consumed), leave the rest.
    for _ in 0..4 {
        let (split, _) = master.request_split(w).unwrap().unwrap();
        master.complete_split(w, split.index).unwrap();
    }
    let checkpoint = master.checkpoint();
    assert_eq!(checkpoint.completed(), 4);
    // The checkpoint and progress show up in the obs counters.
    assert_eq!(reg.counter_value(names::MASTER_CHECKPOINTS_TOTAL, &job), 1);
    assert_eq!(
        reg.counter_value(names::MASTER_SPLITS_TOTAL, &job),
        splits.len() as u64
    );
    assert_eq!(
        reg.counter_value(names::MASTER_SPLITS_COMPLETED_TOTAL, &job),
        4
    );

    // Master dies; replica restores from the checkpoint + re-planned scan.
    // The replica reports into the same registry: completed-split progress
    // resumes from the checkpoint instead of resetting.
    let restored = Master::restore(SessionId(1), &checkpoint, splits).unwrap();
    restored.attach_registry(&reg);
    assert_eq!(
        reg.counter_value(names::MASTER_SPLITS_COMPLETED_TOTAL, &job),
        4
    );
    let w2 = restored.register_worker();
    let mut replayed = 0;
    while let Some((split, _)) = restored.request_split(w2).unwrap() {
        assert!(
            checkpoint.state(split.index) != SplitState::Done,
            "split {} replayed despite checkpoint",
            split.index
        );
        restored.complete_split(w2, split.index).unwrap();
        replayed += 1;
    }
    assert_eq!(replayed as u64, restored.ledger(SplitLedger::total) - 4);
    assert!(restored.ledger(SplitLedger::is_complete));
    let _ = restored.checkpoint();
    assert_eq!(reg.counter_value(names::MASTER_CHECKPOINTS_TOTAL, &job), 2);
    assert_eq!(
        reg.counter_value(names::MASTER_SPLITS_COMPLETED_TOTAL, &job),
        restored.ledger(SplitLedger::total)
    );
}

#[test]
fn autoscale_down_drains_without_loss() {
    let table = build_table(3, 100);
    let session = DppSession::launch(table, spec(3), 6).unwrap();
    // Force a drain of most of the fleet mid-session.
    let scaler = AutoScaler::new(dpp::ScalerConfig {
        min_workers: 1,
        high_buffer_watermark: 0.5, // everything looks over-buffered
        low_buffer_watermark: 0.1,
        scale_down_utilization: 1.1, // always "idle enough"
        ..Default::default()
    });
    let mut tuner = LiveTuner::new(Box::new(scaler), &session);
    let mut client = session.client();
    let mut labels = Vec::new();
    let mut ticks = 0;
    while let Some(t) = client.next_batch() {
        labels.extend(t.labels.iter().map(|&l| l as u64));
        if ticks < 6 {
            tuner.tick(&session);
            ticks += 1;
        }
    }
    labels.sort_unstable();
    labels.dedup();
    assert_eq!(labels.len(), 300, "drains must not lose rows");
    session.shutdown();
}

fn live_workers(session: &DppSession) -> usize {
    session.observe().iter().filter(|o| o.is_live()).count()
}

#[test]
fn back_to_back_drain_ticks_never_breach_min_workers() {
    // Regression: a drain-flagged worker once still counted as live, so
    // each consecutive scale-down tick saw the pre-drain fleet size, found
    // `n - min_workers` still removable, and drained again — walking the
    // live fleet below the scaler's floor.
    let table = build_table(4, 200);
    let session = DppSession::launch(table, spec(4), 4).unwrap();
    // Nobody consumes: buffers fill and utilization bottoms out, the
    // over-provisioned signal. Wait for every buffer to look full.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while std::time::Instant::now() < deadline && !session.observe().iter().all(|w| w.buffered >= 3)
    {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let scaler = AutoScaler::new(dpp::ScalerConfig {
        min_workers: 3,
        low_buffer_watermark: 0.5,
        high_buffer_watermark: 2.0,
        ..Default::default()
    });
    let mut tuner = LiveTuner::new(Box::new(scaler), &session);
    for _ in 0..6 {
        tuner.tick(&session);
    }
    assert!(session.draining_workers() <= 1, "double-drained");
    assert_eq!(live_workers(&session), 3, "the floor holds");
    let mut client = session.client();
    let mut rows = 0;
    while let Some(t) = client.next_batch() {
        rows += t.batch_size();
    }
    assert_eq!(rows, 800, "the drained epoch still delivers every row");
    session.shutdown();
}

/// Asks for whatever was asked for last: any change comes from the tuner
/// reconciling the fleet, not from the policy.
struct Hold;

impl TunerPolicy for Hold {
    fn name(&self) -> &'static str {
        "hold"
    }
    fn bounds(&self) -> KnobBounds {
        KnobBounds::default()
    }
    fn decide(&mut self, _: &dpp::TunerSignals, current: &Knobs) -> Knobs {
        *current
    }
}

#[test]
fn tuner_reconciles_against_the_observed_fleet_not_its_last_wish() {
    // Nobody consumes and the table outlasts every buffer, so no worker
    // leaves the fleet on its own.
    let table = build_table(4, 200);
    let session = DppSession::launch(table, spec(4), 3).unwrap();
    let mut tuner = LiveTuner::new(Box::new(Hold), &session);
    assert_eq!(tuner.knobs().workers, 3);

    // One worker leaves behind the tuner's back.
    let drain_one = || {
        let live = session.observe().into_iter().find(|o| o.is_live());
        assert!(session.drain_worker_by_id(live.expect("a live worker").id));
    };
    drain_one();
    assert_eq!(live_workers(&session), 2);

    // A holding tick makes the loss up rather than carrying it...
    let delta = tuner.tick(&session);
    assert_eq!((delta.spawned, delta.drained), (1, 0));
    assert_eq!(live_workers(&session), 3);

    // ...and so does a forced move that lands on drift: asking for one
    // more than was asked for ends at the count asked for.
    drain_one();
    let wanted = Knobs {
        workers: 4,
        ..tuner.knobs()
    };
    assert_eq!(tuner.apply(&session, wanted).spawned, 2);
    assert_eq!(live_workers(&session), 4);
    session.shutdown();
}

#[test]
fn a_depth_move_reaches_every_worker() {
    // Regression: a read-ahead / batch move rotated one worker, once, on
    // the tick the knob changed, so the rest of the fleet kept the old
    // depth until it happened to exit — and the policy judged a move most
    // workers never ran. Nobody consumes and the table outlasts every
    // buffer, so only the tuner changes the fleet.
    let table = build_table(4, 512);
    let session = DppSession::launch(table, spec(4), 3).unwrap();
    let mut tuner = LiveTuner::new(Box::new(Hold), &session);
    let deeper = Knobs {
        read_ahead: 2,
        ..tuner.knobs()
    };
    // The move, then holding applies: one rotation per call until the
    // whole fleet runs the new depth, then none.
    let rotated: Vec<bool> = (0..4)
        .map(|_| tuner.apply(&session, deeper).rotated)
        .collect();
    assert_eq!(rotated, [true, true, true, false]);
    assert_eq!(session.effective_spec().read_ahead, 2);
    assert_eq!(live_workers(&session), 3, "rotation keeps capacity");
    let observed = session.observe();
    assert!(
        observed.iter().all(|o| o.is_live() != o.stale),
        "exactly the three originals are leaving: {observed:?}"
    );

    let mut client = session.client();
    let mut seen = HashSet::new();
    while let Some(tensor) = client.next_batch() {
        for &l in &tensor.labels {
            assert!(seen.insert(l as u64), "row {l} duplicated");
        }
    }
    assert_eq!(seen.len(), 2048, "delivery stays exactly-once");
    session.shutdown();
}

#[test]
fn replicated_master_failover_is_transparent() {
    // Two handles to the same master state: requests served through one,
    // completions through the other, progress visible from both.
    let table = build_table(1, 60);
    let s = spec(1);
    let splits = table
        .scan(s.partitions(), s.projection.clone())
        .plan_splits();
    let primary = Master::new(SessionId(3), splits);
    let replica = primary.clone();
    let w = primary.register_worker();
    while let Some((split, _)) = replica.request_split(w).unwrap() {
        primary.complete_split(w, split.index).unwrap();
    }
    assert!(replica.ledger(SplitLedger::is_complete));
    assert_eq!(replica.checkpoint(), primary.checkpoint());
}
