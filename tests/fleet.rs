//! Multi-tenant fleet control-plane integration: several training jobs
//! (distinct tenants, distinct priorities) share one worker fleet under
//! the reconciler, and every job must still deliver its epoch exactly
//! once with batches bitwise-identical to a solo run over the same data.
//!
//! The suite covers the four control-plane guarantees:
//!
//! 1. concurrent tenants converge to their fair shares and all complete
//!    (exactly-once + bitwise vs solo),
//! 2. a high-priority job submitted mid-run preempts lower-priority
//!    workers through the graceful-drain protocol — and the preempted
//!    jobs still finish,
//! 3. a fault storm targeted at one tenant never breaks another
//!    tenant's invariants (cross-job blast-radius isolation),
//! 4. reconciliation is idempotent: a converged fleet plans nothing,
//!    before and after a preemption episode (no oscillation).

use dsi::chaos::{with_watchdog, EpochTrace, FaultEvent};
use dsi::fleet::{fair_share, plan, Demand, ObservedJob};
use dsi::obs::names as obs_names;
use dsi::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

const ROWS_PER_DAY: u64 = 64;
const ROWS_PER_STRIPE: usize = 16;
const WATCHDOG: Duration = Duration::from_secs(120);

/// A deterministic table of `days` partitions; row contents depend only
/// on the row id, so any two runs over it are bitwise-comparable.
fn build_table(table_id: u64, days: u32) -> Table {
    let cluster = TectonicCluster::new(ClusterConfig::small());
    let opts = dwrf::WriterOptions {
        rows_per_stripe: ROWS_PER_STRIPE,
        ..Default::default()
    };
    let table = Table::create(
        cluster,
        TableConfig::new(TableId(table_id), "fleet").with_writer_options(opts),
    )
    .unwrap();
    for day in 0..days {
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
    table
}

fn session_spec(id: u64, days: u32, transport: Transport) -> SessionSpec {
    SessionSpec::builder(SessionId(id))
        .partitions(PartitionId::new(0)..PartitionId::new(days))
        .projection(Projection::new(vec![FeatureId(1), FeatureId(2)]))
        .batch_size(ROWS_PER_STRIPE)
        .dense_ids(vec![FeatureId(1)])
        .sparse_ids(vec![FeatureId(2)])
        .buffer_capacity(4)
        .transport(transport)
        .build()
}

/// Fault-free solo run of `spec` over `table`: the bitwise baseline.
fn solo_trace(table: &Table, spec: &SessionSpec) -> EpochTrace {
    let session = DppSession::launch(table.clone(), spec.clone(), 2).unwrap();
    let mut client = session.client();
    let mut trace = EpochTrace::new();
    while let Some(tensor) = client.next_batch() {
        trace.push(&tensor);
    }
    assert!(session.is_complete());
    session.shutdown();
    trace
}

/// Drives the fleet until every listed job completes: one reconcile tick
/// per loop iteration, draining each job's client in between. Returns the
/// per-job tensor traces and every action the reconciler executed.
fn drive_to_completion(
    driver: &FleetDriver,
    jobs: &[SessionId],
) -> (HashMap<SessionId, EpochTrace>, Vec<FleetAction>) {
    let mut clients: Vec<(SessionId, Client)> = jobs
        .iter()
        .map(|&id| (id, driver.client(id).expect("job submitted")))
        .collect();
    let mut traces: HashMap<SessionId, EpochTrace> =
        jobs.iter().map(|&id| (id, EpochTrace::new())).collect();
    let mut actions = Vec::new();
    let mut idle = 0u32;
    loop {
        actions.extend(driver.tick());
        let mut progressed = false;
        for (id, client) in clients.iter_mut() {
            while let Some(tensor) = client.try_next_batch() {
                traces.get_mut(id).unwrap().push(&tensor);
                progressed = true;
            }
        }
        if jobs.iter().all(|&id| driver.is_complete(id)) {
            break;
        }
        if progressed {
            idle = 0;
        } else {
            idle += 1;
            assert!(idle < 2_000, "fleet made no progress for 10s");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    actions.extend(driver.tick()); // publish final statuses
    (traces, actions)
}

#[test]
fn three_tenants_share_one_fleet_exactly_once_and_bitwise() {
    with_watchdog(WATCHDOG, "three tenants on one fleet".into(), || {
        const DAYS: u32 = 3;
        let table = build_table(1, DAYS);
        let reg = Registry::new();
        let driver = FleetDriver::new(6);
        driver.attach_registry(&reg);

        // Distinct tenants, distinct priorities, shared 6-slot fleet.
        let jobs = [(1u64, 1u32), (2, 2), (3, 3)];
        for &(id, priority) in &jobs {
            let spec = JobSpec::new(
                session_spec(id, DAYS, Transport::InProcess),
                TenantId(id),
                priority,
                1,
                4,
            );
            driver.submit(spec, table.clone()).unwrap();
        }
        let ids: Vec<SessionId> = jobs.iter().map(|&(id, _)| SessionId(id)).collect();
        let (traces, _) = drive_to_completion(&driver, &ids);

        // Every job completed exactly once, bitwise-identical to a solo
        // run of the same spec over the same table.
        let rows_per_job = DAYS as usize * ROWS_PER_DAY as usize;
        for &id in &ids {
            let status = driver.status(id).unwrap();
            assert_eq!(status.phase, JobPhase::Completed, "job {id}");
            let solo = solo_trace(&table, &session_spec(id.0, DAYS, Transport::InProcess));
            let fleet_trace = &traces[&id];
            assert_eq!(fleet_trace.samples(), rows_per_job, "job {id}");
            assert_eq!(
                fleet_trace.sorted(),
                solo.sorted(),
                "job {id} diverged from its solo run"
            );
        }

        // Per-tenant observability: shutting the sessions down publishes
        // the merged worker reports under each job's label; no tenant's
        // series collides with another's.
        for &id in &ids {
            driver.remove(id).unwrap().shutdown();
        }
        for &id in &ids {
            let job = id.to_string();
            assert_eq!(
                reg.counter_value(obs_names::WORKER_SAMPLES_TOTAL, &[("job", job.as_str())]),
                rows_per_job as u64,
                "job {id} worker samples"
            );
        }
        let report = PipelineReport::collect(&reg);
        assert_eq!(report.fleet.len(), 3, "one fleet row per tenant");
        assert_eq!(report.worker_samples, 3 * rows_per_job as u64);
        assert!(report.fleet_reconciles > 0);
        let text = report.to_string();
        assert!(text.contains("fleet control plane (multi-tenant)"));
    });
}

#[test]
fn two_sessions_on_one_registry_read_their_own_signals() {
    with_watchdog(WATCHDOG, "two sessions, one registry".into(), || {
        // Every autotuned job under the fleet driver samples one shared
        // registry: what a job's tuner reads has to be that job's series,
        // not whichever session wrote last. One job drained, one idle.
        const DAYS: u32 = 6;
        let table = build_table(1, DAYS);
        let reg = Registry::new();
        let launch = |id| {
            let spec = session_spec(id, DAYS, Transport::InProcess);
            DppSession::launch_observed_chaos(table.clone(), spec, 2, Some(&reg), None).unwrap()
        };
        let (drained, idle) = (launch(1), launch(2));
        let mut trainer = LiveTrainer::new(drained.client(), 1_000_000.0).with_registry(&reg);
        let (_, samples) = trainer.train(u64::MAX, 0);
        assert_eq!(samples, DAYS as u64 * ROWS_PER_DAY);
        // The idle job's client exists and never polls; its workers run
        // until every tensor buffer is full, then block.
        let _parked = idle.client();
        while idle.observe().iter().any(|o| o.buffered < o.capacity) {
            std::thread::yield_now();
        }

        let signals = |job: &str| dsi::obs::SignalSnapshot::sample(&reg, job);
        let (a, b) = (signals("sess1"), signals("sess2"));
        assert!(a.fetch_p99 > 0.0, "the drained job fetched: {a:?}");
        assert_eq!(b.fetch_p99, 0.0, "the idle job never did: {b:?}");
        assert_eq!(b.stall_fraction, 0.0, "nor has it a trainer: {b:?}");
        assert!(a.load_secs > 0.0 && b.load_secs > 0.0, "{a:?} {b:?}");
        assert_ne!(a.load_secs, b.load_secs, "each job's own workers");
        let queued = |job| reg.gauge_value(obs_names::MASTER_QUEUE_DEPTH, &[("job", job)]);
        assert_eq!(queued("sess1"), 0.0);
        assert!(queued("sess2") > 0.0, "the idle job's splits still wait");

        // The report reads the same series with no filter and sums them.
        let (ra, rb) = (drained.shutdown(), idle.shutdown());
        assert!(rb.samples > 0 && rb.samples < ra.samples);
        let report = PipelineReport::collect(&reg);
        assert_eq!(report.worker_samples, ra.samples + rb.samples);
    });
}

#[test]
fn high_priority_submission_preempts_lower_priority_workers() {
    with_watchdog(WATCHDOG, "mid-run preemption".into(), || {
        const DAYS: u32 = 6; // 24 splits/job: plenty of epoch left mid-run
        let table = build_table(1, DAYS);
        let driver = FleetDriver::new(6);

        // Two equal low-priority jobs converge to 3 + 3 on the 6-slot fleet.
        for id in [1u64, 2] {
            let spec = JobSpec::new(
                session_spec(id, DAYS, Transport::InProcess),
                TenantId(id),
                1,
                1,
                6,
            );
            driver.submit(spec, table.clone()).unwrap();
        }
        driver.tick(); // cold start: spawn to targets
        let settle = driver.tick(); // observe the spawned fleet
        assert!(settle.is_empty(), "converged fleet re-planned: {settle:?}");
        for id in [1u64, 2] {
            let status = driver.status(SessionId(id)).unwrap();
            assert_eq!(status.allocated_workers, 3, "job {id} fair share");
        }

        // Consume a little of each epoch so preemption lands mid-run.
        let mut a = driver.client(SessionId(1)).unwrap();
        let mut b = driver.client(SessionId(2)).unwrap();
        let mut trace_a = EpochTrace::new();
        let mut trace_b = EpochTrace::new();
        for _ in 0..4 {
            trace_a.push(&a.next_batch_deadline(Duration::from_secs(5)).unwrap());
            trace_b.push(&b.next_batch_deadline(Duration::from_secs(5)).unwrap());
        }

        // A high-priority job arrives: weighted fair share drops both
        // low-priority jobs to their floors (1 each) and gives it 4.
        let spec_c = JobSpec::new(
            session_spec(3, DAYS, Transport::InProcess),
            TenantId(3),
            4,
            2,
            4,
        );
        driver.submit(spec_c, table.clone()).unwrap();
        let actions = driver.tick();
        let preempted: usize = actions
            .iter()
            .filter_map(|action| match action {
                FleetAction::Preempt {
                    victim,
                    beneficiary,
                    count,
                } => {
                    assert_eq!(*beneficiary, SessionId(3));
                    assert!(
                        *victim == SessionId(1) || *victim == SessionId(2),
                        "only low-priority jobs may be preempted, got {victim}"
                    );
                    Some(*count)
                }
                _ => None,
            })
            .sum();
        assert_eq!(
            preempted, 4,
            "4 slots preempted for the arrival: {actions:?}"
        );

        // Drive everyone to completion; the preempted jobs still finish.
        let ids = [SessionId(1), SessionId(2), SessionId(3)];
        let mut c = driver.client(SessionId(3)).unwrap();
        let mut trace_c = EpochTrace::new();
        let mut idle = 0u32;
        loop {
            driver.tick();
            let mut progressed = false;
            for (client, trace) in [
                (&mut a, &mut trace_a),
                (&mut b, &mut trace_b),
                (&mut c, &mut trace_c),
            ] {
                while let Some(tensor) = client.try_next_batch() {
                    trace.push(&tensor);
                    progressed = true;
                }
            }
            if ids.iter().all(|&id| driver.is_complete(id)) {
                break;
            }
            if progressed {
                idle = 0;
            } else {
                idle += 1;
                assert!(idle < 2_000, "fleet made no progress for 10s");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        driver.tick();

        let rows_per_job = DAYS as usize * ROWS_PER_DAY as usize;
        for (id, trace) in [(1u64, &trace_a), (2, &trace_b), (3, &trace_c)] {
            assert_eq!(trace.samples(), rows_per_job, "job sess{id}");
            let solo = solo_trace(&table, &session_spec(id, DAYS, Transport::InProcess));
            assert_eq!(trace.sorted(), solo.sorted(), "job sess{id} bitwise");
        }
        let preemptions: u64 = [1u64, 2]
            .iter()
            .map(|&id| driver.status(SessionId(id)).unwrap().preemptions)
            .sum();
        assert_eq!(preemptions, 4, "status ledger records the preemptions");
        assert_eq!(
            driver.status(SessionId(3)).unwrap().preemptions,
            0,
            "the high-priority job was never a victim"
        );
    });
}

#[test]
fn tenant_a_fault_storm_leaves_tenant_b_untouched() {
    with_watchdog(WATCHDOG, "cross-tenant blast radius".into(), || {
        const DAYS: u32 = 3;
        let table = build_table(1, DAYS);
        let reg = Registry::new();
        let driver = FleetDriver::new(4);
        driver.attach_registry(&reg);

        // A dense, finite storm aimed at tenant A only: every 2nd split
        // kills A's worker, every 3rd wire frame drops A's connection.
        // All faults are data-preserving, so even A must stay exactly-once.
        let mut events = Vec::new();
        for nth in (2..=24).step_by(2) {
            events.push(FaultEvent::new(
                HookPoint::WorkerSplit,
                nth,
                FaultKind::WorkerCrash,
            ));
        }
        for nth in (3..=36).step_by(3) {
            events.push(FaultEvent::new(
                HookPoint::WireFrame,
                nth,
                FaultKind::ConnDrop,
            ));
        }
        let injector = FaultInjector::new(FaultPlan::named(events));
        injector.attach_registry(reg.clone());

        let tcp = Transport::Tcp(WireConfig::plaintext());
        let spec_a = JobSpec::new(session_spec(1, DAYS, tcp), TenantId(1), 2, 1, 2);
        let spec_b = JobSpec::new(session_spec(2, DAYS, tcp), TenantId(2), 2, 1, 2);
        driver
            .submit_with_chaos(spec_a, table.clone(), Some(Arc::clone(&injector)))
            .unwrap();
        driver.submit(spec_b, table.clone()).unwrap();

        let ids = [SessionId(1), SessionId(2)];
        let (traces, _) = drive_to_completion(&driver, &ids);
        assert!(injector.injected_count() > 0, "the storm actually fired");

        // Tenant B: bitwise-identical to its solo run, zero reconnects.
        let solo_b = solo_trace(&table, &session_spec(2, DAYS, tcp));
        assert_eq!(
            traces[&SessionId(2)].sorted(),
            solo_b.sorted(),
            "tenant B diverged under tenant A's storm"
        );
        assert_eq!(
            reg.counter_value(obs_names::WIRE_RECONNECTS_TOTAL, &[("job", "sess2")]),
            0,
            "tenant B saw connection churn"
        );

        // Tenant A survived its own storm exactly-once (labels are the
        // row ids: every row delivered, none twice).
        let rows_per_job = DAYS as usize * ROWS_PER_DAY as usize;
        assert_eq!(traces[&SessionId(1)].samples(), rows_per_job);
        let solo_a = solo_trace(&table, &session_spec(1, DAYS, tcp));
        assert_eq!(
            traces[&SessionId(1)].sorted(),
            solo_a.sorted(),
            "tenant A lost exactly-once under its storm"
        );
    });
}

#[test]
fn reconciler_converges_and_does_not_oscillate() {
    with_watchdog(WATCHDOG, "reconciler idempotence".into(), || {
        const DAYS: u32 = 3;
        let table = build_table(1, DAYS);
        let driver = FleetDriver::new(4);
        // Nothing consumes the clients, so workers fill their buffers and
        // park: the observed world is frozen between ticks.
        for id in [1u64, 2] {
            let spec = JobSpec::new(
                session_spec(id, DAYS, Transport::InProcess),
                TenantId(id),
                1,
                1,
                6,
            );
            driver.submit(spec, table.clone()).unwrap();
        }
        let cold = driver.tick();
        assert_eq!(
            cold.iter()
                .filter(|a| matches!(a, FleetAction::Spawn { .. }))
                .count(),
            4,
            "cold start fills the fleet: {cold:?}"
        );
        for round in 0..5 {
            let actions = driver.tick();
            assert!(
                actions.is_empty(),
                "converged fleet re-planned on tick {round}: {actions:?}"
            );
        }

        // A heavier job arrives; one preemption episode, then stillness.
        let spec_c = JobSpec::new(
            session_spec(3, DAYS, Transport::InProcess),
            TenantId(3),
            5,
            0,
            4,
        );
        driver.submit(spec_c, table.clone()).unwrap();
        let episode = driver.tick();
        assert!(
            episode
                .iter()
                .any(|a| matches!(a, FleetAction::Preempt { .. })),
            "arrival should preempt: {episode:?}"
        );
        for round in 0..5 {
            let actions = driver.tick();
            assert!(
                actions.is_empty(),
                "post-preemption fleet re-planned on tick {round}: {actions:?}"
            );
        }

        // In-flight drains are never re-drained: the victims show as
        // draining (they hold undelivered batches), not as surplus.
        let seen: HashSet<&'static str> = episode.iter().map(|a| a.kind()).collect();
        assert!(seen.contains("preempt"));
        for id in [1u64, 2, 3] {
            driver.remove(SessionId(id)).unwrap().shutdown();
        }
    });
}

#[test]
fn autotuned_job_delivers_exactly_once_and_tuner_steers_demand() {
    with_watchdog(
        WATCHDOG,
        "autotuned job under the reconciler".into(),
        || {
            const DAYS: u32 = 3;
            let table = build_table(1, DAYS);
            let reg = Registry::new();
            let driver = FleetDriver::new(6);
            driver.attach_registry(&reg);

            // One autotuned job next to one statically-scaled neighbor: the
            // tuner's demand still goes through fair-share arbitration.
            for id in [1u64, 2] {
                let spec = JobSpec::new(
                    session_spec(id, DAYS, Transport::InProcess),
                    TenantId(id),
                    1,
                    1,
                    4,
                );
                driver.submit(spec, table.clone()).unwrap();
            }
            let tuned = SessionId(1);
            let policy = OnlineTuner::new(TunerConfig {
                bounds: KnobBounds {
                    workers: (1, 4),
                    read_ahead: (0, 2),
                    // Mid-run batch changes would alter the delivered tensor
                    // shapes; exactly-once bitwise comparison requires the
                    // batch axis frozen (see the chaos suite).
                    batch_size: (ROWS_PER_STRIPE, ROWS_PER_STRIPE),
                },
                ..TunerConfig::default()
            });
            assert!(driver.enable_autotune(tuned, Box::new(policy)));
            assert!(
                !driver.enable_autotune(SessionId(99), Box::new(AutoScaler::default())),
                "unknown job refuses a tuner"
            );

            let ids = [tuned, SessionId(2)];
            let (traces, _) = drive_to_completion(&driver, &ids);

            // The tuner held demand inside both its own and the spec's fences.
            let knobs = driver.autotuned_knobs(tuned).expect("tuner installed");
            assert!((1..=4).contains(&knobs.workers), "{knobs:?}");
            assert_eq!(knobs.batch_size, ROWS_PER_STRIPE, "frozen axis held");

            // Both tenants delivered exactly once, bitwise vs their solo runs.
            let rows_per_job = DAYS as usize * ROWS_PER_DAY as usize;
            for &id in &ids {
                let solo = solo_trace(&table, &session_spec(id.0, DAYS, Transport::InProcess));
                assert_eq!(traces[&id].samples(), rows_per_job, "job {id}");
                assert_eq!(
                    traces[&id].sorted(),
                    solo.sorted(),
                    "job {id} diverged from its solo run"
                );
            }
            for &id in &ids {
                driver.remove(id).unwrap().shutdown();
            }
        },
    );
}

#[test]
fn resubmitting_a_running_job_is_refused_and_its_epoch_completes() {
    // Regression: a resubmit launched a second session over the first, so
    // the first session's workers kept serving the job's client outside
    // the fleet's capacity while the driver watched the new session —
    // which the client never read from, and which never completed.
    with_watchdog(WATCHDOG, "resubmit a running job".into(), || {
        const DAYS: u32 = 3;
        let table = build_table(1, DAYS);
        let driver = FleetDriver::new(4);
        let job = SessionId(1);
        let spec = || {
            let session = session_spec(job.0, DAYS, Transport::InProcess);
            JobSpec::new(session, TenantId(1), 1, 1, 4)
        };
        driver.submit(spec(), table.clone()).unwrap();
        let mut client = driver.client(job).unwrap();
        driver.tick();
        let err = driver.submit(spec(), table.clone()).unwrap_err();
        assert!(matches!(err, DsiError::InvalidSpec(_)), "{err:?}");

        let mut trace = EpochTrace::new();
        let mut idle = 0u32;
        while !driver.is_complete(job) {
            driver.tick();
            match client.try_next_batch() {
                Some(tensor) => {
                    trace.push(&tensor);
                    idle = 0;
                }
                None => {
                    idle += 1;
                    assert!(idle < 2_000, "job made no progress for 10s");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        assert_eq!(trace.samples(), DAYS as usize * ROWS_PER_DAY as usize);
        assert_eq!(trace.sorted(), solo_trace(&table, &spec().session).sorted());
        driver.remove(job).unwrap().shutdown();
    });
}

#[test]
fn autotuned_job_with_an_inverted_worker_window_is_capped_not_a_panic() {
    // Regression: the tuned demand was `usize::clamp`ed into
    // `[min_workers, max_workers]`, which asserts `min <= max` — with the
    // reconciler's locks held. The ceiling wins, as for a static demand.
    let driver = FleetDriver::new(16);
    let job = SessionId(1);
    let spec = JobSpec::new(
        session_spec(job.0, 1, Transport::InProcess),
        TenantId(1),
        1,
        4,
        2,
    );
    driver.submit(spec, build_table(1, 1)).unwrap();
    assert!(driver.enable_autotune(job, Box::new(AutoScaler::default())));
    let spawned = driver.tick().len();
    assert_eq!(spawned, 2, "the floor, cut down to the ceiling");
    let status = driver.status(job).expect("status published");
    assert_eq!(status.desired_workers, 2);
    driver.remove(job).unwrap().shutdown();
}

/// Holds the fleet at three workers, asks for read-ahead 2 from its
/// second tick on, and records the live fleet every tick showed it.
struct DeepenOnSecondTick(Arc<std::sync::Mutex<Vec<usize>>>);

impl TunerPolicy for DeepenOnSecondTick {
    fn name(&self) -> &'static str {
        "deepen-on-second-tick"
    }
    fn bounds(&self) -> KnobBounds {
        KnobBounds::default()
    }
    fn decide(&mut self, signals: &dpp::TunerSignals, current: &Knobs) -> Knobs {
        let mut seen = self.0.lock().unwrap();
        seen.push(signals.live_workers);
        Knobs {
            workers: 3,
            read_ahead: if seen.len() >= 2 { 2 } else { 0 },
            ..*current
        }
    }
}

#[test]
fn a_depth_move_reaches_every_worker_of_an_autotuned_job() {
    // `tick_managed` installs a depth move as a session override and
    // leaves the workers to the driver — which used to spawn and drain
    // only on a count change, so an autotuned job never ran the depth its
    // policy was judged on. Nobody consumes and the table (2,048 rows)
    // outlasts every buffer: the driver alone changes the fleet.
    with_watchdog(WATCHDOG, "depth move under the reconciler".into(), || {
        const DAYS: u32 = 32;
        let table = build_table(1, DAYS);
        let spec = session_spec(1, DAYS, Transport::InProcess);
        let driver = FleetDriver::new(3);
        let job = SessionId(1);
        driver
            .submit(
                JobSpec::new(spec.clone(), TenantId(1), 1, 3, 3),
                table.clone(),
            )
            .unwrap();
        let live_seen = Arc::default();
        let policy = DeepenOnSecondTick(Arc::clone(&live_seen));
        assert!(driver.enable_autotune(job, Box::new(policy)));

        // Tick 1 fills the fleet at depth 0; tick 2 sees the move and
        // ticks 2-4 rotate one original each; ticks 5-6 find nothing left.
        assert_eq!(driver.tick().len(), 3, "cold start");
        for tick in 2..=6 {
            let actions = driver.tick();
            assert!(actions.is_empty(), "tick {tick} re-planned: {actions:?}");
        }
        assert_eq!(
            *live_seen.lock().unwrap(),
            [0, 3, 3, 3, 3, 3],
            "rotation never costs the job a live worker"
        );
        let session = driver.remove(job).expect("submitted");
        assert_eq!(session.effective_spec().read_ahead, 2);
        let observed = session.observe();
        assert_eq!(observed.len(), 6, "three rotations, no more: {observed:?}");
        assert!(
            observed.iter().all(|o| o.is_live() != o.stale),
            "exactly the three originals are leaving: {observed:?}"
        );

        let mut client = session.client();
        let mut trace = EpochTrace::new();
        while let Some(tensor) = client.next_batch() {
            trace.push(&tensor);
        }
        session.shutdown();
        assert_eq!(trace.samples(), DAYS as usize * ROWS_PER_DAY as usize);
        assert_eq!(trace.sorted(), solo_trace(&table, &spec).sorted());
    });
}

/// Every demand row over `min`, `max` ≤ 4 and weight ∈ {0, 1, 3} — or,
/// `canonical`, only the rows the allocator can tell apart: it reads a
/// row through `floor()` (a `min` above `max` is `max`) and `weight()`
/// (0 is 1).
fn small_demands(canonical: bool) -> impl Fn(u64) -> Vec<Demand> {
    move |job| {
        let mut rows = Vec::new();
        for weight in [0, 1, 3] {
            for min in 0..=4 {
                for max in 0..=4 {
                    if !canonical || (weight > 0 && min <= max) {
                        rows.push(Demand {
                            job: SessionId(job),
                            weight,
                            min,
                            max,
                        });
                    }
                }
            }
        }
        rows
    }
}

/// Calls `check` on every vector of one to `jobs` rows, job ids 1, 2, ….
fn for_each_vector<T: Copy>(jobs: u64, rows: impl Fn(u64) -> Vec<T>, mut check: impl FnMut(&[T])) {
    fn extend<T: Copy>(
        job: u64,
        jobs: u64,
        rows: &impl Fn(u64) -> Vec<T>,
        vector: &mut Vec<T>,
        check: &mut impl FnMut(&[T]),
    ) {
        for row in rows(job) {
            vector.push(row);
            check(vector);
            if job < jobs {
                extend(job + 1, jobs, rows, vector, check);
            }
            vector.pop();
        }
    }
    extend(1, jobs, &rows, &mut Vec::new(), &mut check);
}

#[test]
fn fair_share_holds_its_contract_on_every_small_fleet() {
    let mut checked = 0u64;
    let mut check = |demands: &[Demand]| {
        for capacity in 0..=6 {
            let alloc = fair_share(capacity, demands);
            let at = || format!("capacity {capacity} {demands:?} -> {alloc:?}");
            assert_eq!(alloc.len(), demands.len());
            let granted: usize = alloc.iter().map(|a| a.1).sum();
            assert!(granted <= capacity, "{}", at());
            let floors_fit = demands.iter().map(Demand::floor).sum::<usize>() <= capacity;
            for (d, &(job, got)) in demands.iter().zip(&alloc) {
                assert_eq!(job, d.job);
                assert!(got <= d.max, "{}", at());
                assert!(!floors_fit || got >= d.floor(), "{}", at());
            }
            // Monotone in weight: outranking the others never costs a slot.
            for i in 0..demands.len() {
                if demands[i].weight < 3 {
                    let mut raised = demands.to_vec();
                    raised[i].weight = 3;
                    let after = fair_share(capacity, &raised)[i].1;
                    assert!(after >= alloc[i].1, "{} raised {i}: {after}", at());
                }
            }
            checked += 1;
        }
    };
    // Raw rows for one and two jobs; three jobs over the canonical rows
    // (30 of the 75), which is every allocation three jobs can get.
    for_each_vector(2, small_demands(false), &mut check);
    for_each_vector(3, small_demands(true), |demands| {
        if demands.len() == 3 {
            check(demands);
        }
    });
    assert_eq!(checked, 7 * (75 + 75 * 75 + 30 * 30 * 30));
}

/// One job's `(observed, weight, target)` over live counts and targets up
/// to `most`, weight ∈ {0, 1, 3}, complete or not.
fn small_worlds(most: usize) -> impl Fn(u64) -> Vec<(ObservedJob, u32, usize)> {
    move |job| {
        let mut rows = Vec::new();
        for weight in [0, 1, 3] {
            for completed in [false, true] {
                for active in 0..=most {
                    for target in 0..=most {
                        let observed = ObservedJob {
                            job: SessionId(job),
                            active,
                            draining: 0,
                            completed,
                        };
                        rows.push((observed, weight, target));
                    }
                }
            }
        }
        rows
    }
}

#[test]
fn plan_converges_in_one_step_and_then_plans_nothing() {
    // The executor's model of an action: a spawn adds a live worker, every
    // kind of shrink moves `count` live workers to draining.
    let check = |world: &[(ObservedJob, u32, usize)]| {
        let mut observed: Vec<ObservedJob> = world.iter().map(|w| w.0).collect();
        let demands: Vec<Demand> = world
            .iter()
            .map(|&(o, weight, _)| Demand {
                job: o.job,
                weight,
                min: 0,
                max: 4,
            })
            .collect();
        let targets: Vec<(SessionId, usize)> = world.iter().map(|w| (w.0.job, w.2)).collect();
        let actions = plan(&observed, &demands, &targets);
        for action in &actions {
            let (job, spawned, drained) = match *action {
                FleetAction::Spawn { job } => (job, 1, 0),
                FleetAction::Drain { job, count }
                | FleetAction::Reassign {
                    from: job, count, ..
                }
                | FleetAction::Preempt {
                    victim: job, count, ..
                } => (job, 0, count),
            };
            let o = observed.iter_mut().find(|o| o.job == job).expect("known");
            assert!(o.active >= drained, "{world:?}: {actions:?}");
            o.active = o.active + spawned - drained;
            o.draining += drained;
        }
        for (o, &(_, _, target)) in observed.iter().zip(world) {
            let want = if o.completed { 0 } else { target };
            assert_eq!(o.active, want, "{world:?}: {actions:?}");
        }
        let again = plan(&observed, &demands, &targets);
        assert!(again.is_empty(), "{world:?}: {actions:?} then {again:?}");
    };
    for_each_vector(2, small_worlds(4), check);
    for_each_vector(3, small_worlds(2), check);
}

#[test]
fn scale_to_spawns_or_drains_exactly_the_difference() {
    // Nobody consumes and the table outlasts every buffer, so the fleet
    // is exactly what the test made it.
    with_watchdog(WATCHDOG, "scale_to over small fleets".into(), || {
        const DAYS: u32 = 32;
        let table = build_table(1, DAYS);
        let spec = session_spec(1, DAYS, Transport::InProcess);
        for live in 0..=4usize {
            for draining in 0..=4usize {
                for wanted in 0..=4usize {
                    let session =
                        DppSession::launch_managed(table.clone(), spec.clone(), None, None)
                            .unwrap();
                    session.scale_to(live + draining, &[]);
                    let leaving: Vec<_> =
                        session.observe()[..draining].iter().map(|o| o.id).collect();
                    for &id in &leaving {
                        assert!(session.drain_worker_by_id(id));
                    }
                    let before = session.observe();
                    let at = format!("live {live} draining {draining} wanted {wanted}");
                    assert_eq!(
                        session.scale_to(wanted, &before),
                        (wanted.saturating_sub(live), live.saturating_sub(wanted)),
                        "{at}"
                    );
                    let after = session.observe();
                    let live_after = after.iter().filter(|o| o.is_live()).count();
                    assert_eq!(live_after, wanted, "{at}");
                    // Whoever it drained was live: the workers already
                    // leaving are neither re-counted nor brought back.
                    let newly: Vec<_> = after
                        .iter()
                        .filter(|o| o.draining && !leaving.contains(&o.id))
                        .map(|o| o.id)
                        .collect();
                    assert_eq!(newly.len(), live.saturating_sub(wanted), "{at}");
                    assert!(
                        leaving
                            .iter()
                            .all(|id| after.iter().any(|o| o.id == *id && !o.is_live())),
                        "{at}"
                    );
                    session.shutdown();
                }
            }
        }
    });
}
