//! End-to-end pipeline integration: logs → ETL → warehouse → DPP → trainer.

use dsi::obs::names as obs_names;
use dsi::prelude::*;
use dsi_types::FeatureKind;
use std::collections::HashSet;

const NS_PER_DAY: u64 = 1_000_000_000;

/// Builds a bus with `n` request/event pairs spanning several "days".
fn log_traffic(bus: &MessageBus, n: u64) {
    for rid in 0..n {
        let ts = rid * (NS_PER_DAY / 100); // 100 requests per day
        let mut features = Sample::new(0.0);
        features.set_dense(FeatureId(1), rid as f32);
        features.set_sparse(FeatureId(2), SparseList::from_ids(vec![rid % 5, rid % 11]));
        bus.publish("f", FeatureLogRecord::new(rid, ts, features).into());
        let ev = if rid % 3 == 0 {
            EventRecord::positive(rid, ts + 10)
        } else {
            EventRecord::negative(rid, ts + 10)
        };
        bus.publish("e", ev.into());
    }
}

#[test]
fn logs_to_tensors_exactly_once() {
    // 1. Offline generation.
    let bus = MessageBus::new();
    log_traffic(&bus, 600);
    let mut etl = BatchEtl::new(NS_PER_DAY, 1.0, NS_PER_DAY);
    let partitions = etl
        .run_pass(&bus, "f", "e", u64::MAX)
        .expect("etl pass succeeds");
    assert!(partitions.len() >= 5, "traffic spans multiple days");

    // 2. Warehouse storage.
    let cluster = TectonicCluster::new(ClusterConfig::small());
    let table = Table::create(cluster, TableConfig::new(TableId(1), "pipe")).unwrap();
    let mut total_rows = 0u64;
    for (p, samples) in partitions {
        total_rows += samples.len() as u64;
        table.write_partition(p, samples).unwrap();
    }
    assert_eq!(total_rows, 600);
    assert_eq!(table.total_rows(), 600);

    // 3. Online preprocessing over a partition subrange.
    let last = table.partitions().last().copied().unwrap();
    let spec = SessionSpec::builder(SessionId(1))
        .partitions(PartitionId::new(0)..last.plus_days(1))
        .projection(Projection::new(vec![FeatureId(1), FeatureId(2)]))
        .plan(TransformPlan::new(vec![TransformOp::SigridHash {
            input: FeatureId(2),
            salt: 5,
            modulus: 64,
        }]))
        .batch_size(32)
        .dense_ids(vec![FeatureId(1)])
        .sparse_ids(vec![FeatureId(2)])
        .build();
    let session = DppSession::launch(table, spec, 3).unwrap();

    // 4. Trainer-side consumption: every request id seen exactly once
    //    (dense feature 1 carries the request id).
    let mut client = session.client();
    let mut seen = HashSet::new();
    let mut positives = 0u64;
    while let Some(tensor) = client.next_batch() {
        for r in 0..tensor.batch_size() {
            let rid = tensor.dense.get(r, 0) as u64;
            assert!(seen.insert(rid), "request {rid} delivered twice");
            if tensor.labels[r] > 0.0 {
                positives += 1;
            }
        }
        // Transform ran in flight.
        assert!(tensor.sparse[0].values().iter().all(|&v| v < 64));
    }
    assert_eq!(seen.len(), 600);
    assert_eq!(positives, 200); // every 3rd request clicked
    assert!(session.is_complete());
    let report = session.shutdown();
    assert_eq!(report.samples, 600);
    assert!(report.storage_rx_bytes > 0);
}

/// Sessionized traffic: `sessions` sessions of `members` rows; members
/// share one bit-identical sparse payload, dense feature 1 carries a
/// globally unique request id.
fn sessionized_samples(sessions: u64, members: u64) -> Vec<Sample> {
    (0..sessions * members)
        .map(|rid| {
            let session = rid / members;
            let mut s = Sample::new((rid % 3 == 0) as u64 as f32);
            s.set_dense(FeatureId(1), rid as f32);
            s.set_sparse(
                FeatureId(2),
                SparseList::from_ids((0..16).map(|k| session * 1_000_003 + k * 97).collect()),
            );
            s
        })
        .collect()
}

#[test]
fn dedup_pipeline_is_exactly_once_and_bitwise_identical() {
    // Same rows, same stripe boundaries; only the dedup flag differs.
    let base = WriterOptions {
        compressed: false,
        encrypted: false,
        rows_per_stripe: 128,
        ..Default::default()
    };
    let build = |opts: WriterOptions, id: u64| {
        let cluster = TectonicCluster::new(ClusterConfig::small());
        let table = Table::create(
            cluster,
            TableConfig::new(TableId(id), "recd").with_writer_options(opts),
        )
        .unwrap();
        for day in 0..2u32 {
            let mut samples = sessionized_samples(75, 4);
            for s in &mut samples {
                // Distinct request ids per partition.
                let rid = s.dense(FeatureId(1)).unwrap() + day as f32 * 300.0;
                s.set_dense(FeatureId(1), rid);
            }
            table
                .write_partition(PartitionId::new(day), samples)
                .unwrap();
        }
        table
    };
    let plain = build(base.clone(), 4);
    let deduped = build(
        WriterOptions {
            dedup: true,
            ..base
        },
        5,
    );
    assert!(
        deduped.total_encoded_bytes() < plain.total_encoded_bytes(),
        "4x-sessionized table should shrink under DedupSet encoding ({} vs {})",
        deduped.total_encoded_bytes(),
        plain.total_encoded_bytes()
    );

    let spec = |dedup: Option<dedup::DedupConfig>| {
        let mut b = SessionSpec::builder(SessionId(7))
            .partitions(PartitionId::new(0)..PartitionId::new(2))
            .projection(Projection::new(vec![FeatureId(1), FeatureId(2)]))
            .plan(TransformPlan::new(vec![TransformOp::SigridHash {
                input: FeatureId(2),
                salt: 11,
                modulus: 100_000,
            }]))
            .batch_size(32)
            .dense_ids(vec![FeatureId(1)])
            .sparse_ids(vec![FeatureId(2)]);
        if let Some(cfg) = dedup {
            b = b.dedup(cfg);
        }
        b.build()
    };
    // Single worker each: batch order is then deterministic and the two
    // runs are comparable tensor for tensor.
    let drain = |table: Table, spec: SessionSpec| {
        let session = DppSession::launch(table, spec, 1).unwrap();
        let mut client = session.client();
        let mut batches = Vec::new();
        while let Some(t) = client.next_batch() {
            batches.push(t);
        }
        assert!(session.is_complete());
        (batches, session.shutdown())
    };
    let (batches_off, _) = drain(plain, spec(None));
    let (batches_on, report_on) = drain(deduped, spec(Some(dedup::DedupConfig::default())));

    // Dedup-on delivers bitwise-identical training batches on the same
    // seed/data — deduplication is an optimization, not a semantic change.
    assert_eq!(batches_off, batches_on);
    assert!(report_on.dedup_sets > 0, "sessions should form DedupSets");
    assert!(
        report_on.dedup_reuse_hits > 0,
        "transforms should be reused"
    );

    // Exactly-once per epoch with dedup enabled: every request id appears
    // exactly once across the epoch's batches.
    let mut seen = HashSet::new();
    let mut rows = 0u64;
    for t in &batches_on {
        for r in 0..t.batch_size() {
            assert!(
                seen.insert(t.dense.get(r, 0) as u64),
                "request delivered twice"
            );
            rows += 1;
        }
    }
    assert_eq!(rows, 600);
    assert_eq!(seen.len(), 600);
}

/// A small deterministic table for transport comparisons.
fn wire_table(id: u64) -> Table {
    wire_table_of(id, 3)
}

/// `days` partitions of 96 rows in 32-row stripes.
fn wire_table_of(id: u64, days: u32) -> Table {
    let cluster = TectonicCluster::new(ClusterConfig::small());
    let opts = WriterOptions {
        rows_per_stripe: 32,
        ..Default::default()
    };
    let table = Table::create(
        cluster,
        TableConfig::new(TableId(id), "wire").with_writer_options(opts),
    )
    .unwrap();
    for day in 0..days {
        let samples: Vec<Sample> = (0..96u64)
            .map(|i| {
                let rid = day as u64 * 96 + i;
                let mut s = Sample::new((rid % 2) as f32);
                s.set_dense(FeatureId(1), rid as f32);
                s.set_sparse(FeatureId(2), SparseList::from_ids(vec![rid % 13, rid % 31]));
                s
            })
            .collect();
        table
            .write_partition(PartitionId::new(day), samples)
            .unwrap();
    }
    table
}

fn wire_spec(transport: Transport) -> SessionSpec {
    SessionSpec::builder(SessionId(21))
        .partitions(PartitionId::new(0)..PartitionId::new(3))
        .projection(Projection::new(vec![FeatureId(1), FeatureId(2)]))
        .plan(TransformPlan::new(vec![TransformOp::SigridHash {
            input: FeatureId(2),
            salt: 3,
            modulus: 1_000,
        }]))
        .batch_size(24)
        .dense_ids(vec![FeatureId(1)])
        .sparse_ids(vec![FeatureId(2)])
        .buffer_capacity(4)
        .transport(transport)
        .build()
}

#[test]
fn tcp_transport_batches_bitwise_identical_to_in_process() {
    // One worker keeps batch order deterministic, so the two transports
    // are comparable tensor for tensor: serializing through the socket
    // (with encryption AND compression on) must not change a single bit.
    let table = wire_table(21);
    let drain = |transport: Transport| {
        let session = DppSession::launch(table.clone(), wire_spec(transport), 1).unwrap();
        let mut client = session.client();
        let mut batches = Vec::new();
        while let Some(t) = client.next_batch() {
            batches.push(t);
        }
        assert!(session.is_complete());
        session.shutdown();
        batches
    };
    let in_process = drain(Transport::InProcess);
    let tcp = drain(Transport::Tcp(WireConfig::plaintext()));
    let tcp_secure = drain(Transport::Tcp(WireConfig {
        encrypt: true,
        compress: true,
        key: 0x00D5_1F00,
    }));
    // 9 stripes of 32 rows, each batched as 24 + 8 within its split.
    assert_eq!(in_process.len(), 18);
    assert_eq!(in_process, tcp);
    assert_eq!(in_process, tcp_secure);
}

#[test]
fn worker_loop_depth_changes_neither_tensors_nor_report() {
    // `read_ahead` only moves fetch (after the first split) onto a thread
    // of its own: with one worker (so split order is fixed) every depth
    // must deliver the same tensors in the same order and account the
    // same work.
    let table = wire_table(23);
    let run = |depth: usize| {
        let mut spec = wire_spec(Transport::InProcess);
        spec.read_ahead = depth;
        let session = DppSession::launch(table.clone(), spec, 1).unwrap();
        let mut client = session.client();
        let mut batches = Vec::new();
        while let Some(t) = client.next_batch() {
            batches.push(t);
        }
        assert!(session.is_complete());
        let mut report = session.shutdown();
        // The one wall-clock field; everything else is a count or a model.
        report.columnar_kernel_nanos = Default::default();
        (batches, report)
    };
    let inline = run(0);
    assert_eq!(inline.0.len(), 18);
    assert_eq!(inline.1.samples, 288);
    for depth in [1, 2, 4] {
        let threaded = run(depth);
        assert_eq!(threaded.0, inline.0, "tensors at depth {depth}");
        assert_eq!(threaded.1, inline.1, "report at depth {depth}");
    }
}

#[test]
fn degenerate_plans_fail_launch_not_a_worker_thread() {
    // A plan arrives deserialized: parameters no kernel can run on must be
    // an `InvalidSpec` from `launch`, before a worker exists to panic on
    // `% 0` or `windows(0)`.
    let table = wire_table(24);
    let (dense, sparse, out) = (FeatureId(1), FeatureId(2), FeatureId(9));
    let bucketize = |borders| TransformOp::Bucketize {
        input: dense,
        borders,
        output: out,
    };
    let bad_ops = vec![
        TransformOp::SigridHash {
            input: sparse,
            salt: 3,
            modulus: 0,
        },
        TransformOp::PositiveModulus {
            input: sparse,
            modulus: 0,
        },
        TransformOp::NGram {
            input: sparse,
            n: 0,
            output: out,
        },
        TransformOp::Onehot {
            input: dense,
            num_classes: 0,
            output: out,
        },
        TransformOp::Sampling {
            rate: f64::NAN,
            seed: 1,
        },
        TransformOp::Sampling { rate: 1.5, seed: 1 },
        TransformOp::Sampling {
            rate: -0.1,
            seed: 1,
        },
        bucketize(vec![0.0, 2.0, 1.0]),
        bucketize(vec![0.0, f64::NAN]),
    ];
    for bad in bad_ops {
        let mut spec = wire_spec(Transport::InProcess);
        // Behind a good op: the error names the op's index.
        spec.plan = TransformPlan::new(vec![spec.plan.ops()[0].clone(), bad.clone()]);
        match DppSession::launch(table.clone(), spec, 1) {
            Err(DsiError::InvalidSpec(why)) => {
                assert!(why.contains("transform op 1"), "{bad:?}: {why}")
            }
            other => panic!("{bad:?} launched: {other:?}"),
        }
    }
    // The edges of what is allowed still launch.
    let mut spec = wire_spec(Transport::InProcess);
    spec.plan = TransformPlan::new(vec![
        TransformOp::Sampling { rate: 1.0, seed: 1 },
        TransformOp::Sampling { rate: 0.0, seed: 1 },
        bucketize(vec![]),
        bucketize(vec![1.0, 1.0]),
    ]);
    DppSession::launch(table, spec, 1).unwrap().shutdown();
}

#[test]
fn tcp_transport_multiworker_encrypted_exactly_once() {
    let table = wire_table(22);
    let session = DppSession::launch(
        table,
        wire_spec(Transport::Tcp(WireConfig::encrypted(0xC0FFEE))),
        3,
    )
    .unwrap();
    let mut client = session.client();
    let mut seen = HashSet::new();
    while let Some(t) = client.next_batch() {
        for r in 0..t.batch_size() {
            let rid = t.dense.get(r, 0) as u64;
            assert!(seen.insert(rid), "request {rid} delivered twice over TCP");
        }
    }
    assert_eq!(seen.len(), 288);
    assert!(session.is_complete());
    session.shutdown();
}

#[test]
fn wire_reconnects_during_fetch_preserve_exactly_once() {
    // Chaos severs wire connections mid-epoch (drops + torn frames); the
    // client keeps fetching on a deadline, the servers replay unacked
    // envelopes, and the dedup still delivers every row exactly once.
    let plan = FaultPlan::named(vec![
        chaos::FaultEvent::new(HookPoint::WireFrame, 2, FaultKind::ConnDrop),
        chaos::FaultEvent::new(HookPoint::WireFrame, 6, FaultKind::PartialFrame),
        chaos::FaultEvent::new(
            HookPoint::WireFrame,
            9,
            FaultKind::SlowSocket { micros: 400 },
        ),
        chaos::FaultEvent::new(HookPoint::WireFrame, 13, FaultKind::ConnDrop),
    ]);
    let injector = FaultInjector::new(plan);
    let table = wire_table(23);
    let session = DppSession::launch_observed_chaos(
        table,
        wire_spec(Transport::Tcp(WireConfig::plaintext())),
        2,
        None,
        Some(injector),
    )
    .unwrap();
    let reg = Registry::new();
    session.attach_registry(&reg);
    let mut client = session.client();
    let mut seen = HashSet::new();
    loop {
        match client.next_batch_deadline(std::time::Duration::from_millis(50)) {
            Some(t) => {
                for r in 0..t.batch_size() {
                    let rid = t.dense.get(r, 0) as u64;
                    assert!(seen.insert(rid), "request {rid} delivered twice");
                }
            }
            None if session.is_complete() => break,
            None => {} // deadline lapsed mid-reconnect; keep fetching
        }
    }
    assert_eq!(seen.len(), 288);
    session.shutdown();
    // Wire metrics are tenant-scoped: the reconnects land under this
    // session's job label.
    assert!(
        reg.counter_value(obs_names::WIRE_RECONNECTS_TOTAL, &[("job", "sess21")]) > 0,
        "chaos schedule should have forced at least one reconnect"
    );
}

#[test]
fn projection_filters_at_storage_not_after() {
    // Reading 1 of 30 features must fetch far fewer bytes than reading all.
    let profile = RmProfile::rm1(); // sparse features every ~8th id
    let schema = profile.build_schema(40);
    let cluster = TectonicCluster::new(ClusterConfig::small());
    let table = Table::create(
        cluster,
        TableConfig::new(TableId(2), "proj").with_schema(schema.clone()),
    )
    .unwrap();
    let mut generator = SampleGenerator::new(&schema, 5);
    table
        .write_partition(PartitionId::new(0), generator.take_samples(400))
        .unwrap();

    let heavy = schema.ids_of_kind(FeatureKind::Sparse)[0];
    let narrow = table
        .scan(
            PartitionId::new(0)..PartitionId::new(1),
            Projection::new(vec![heavy]),
        )
        .with_policy(CoalescePolicy::None);
    let all = table
        .scan(
            PartitionId::new(0)..PartitionId::new(1),
            Projection::new(schema.iter().map(|d| d.id).collect()),
        )
        .with_policy(CoalescePolicy::None);
    let (_, narrow_stats) = narrow.read_all_with_stats().unwrap();
    let (_, all_stats) = all.read_all_with_stats().unwrap();
    assert!(
        (narrow_stats.wanted_bytes as f64) < 0.5 * all_stats.wanted_bytes as f64,
        "narrow scan read {} of {}",
        narrow_stats.wanted_bytes,
        all_stats.wanted_bytes
    );
}

#[test]
fn live_trainer_with_adequate_dpp_barely_stalls() {
    let schema = RmProfile::rm3().build_schema(40);
    let cluster = TectonicCluster::new(ClusterConfig::small());
    let table = Table::create(
        cluster,
        TableConfig::new(TableId(3), "stall").with_schema(schema.clone()),
    )
    .unwrap();
    let mut generator = SampleGenerator::new(&schema, 8);
    table
        .write_partition(PartitionId::new(0), generator.take_samples(1_000))
        .unwrap();
    let dense = schema.ids_of_kind(FeatureKind::Dense);
    let spec = SessionSpec::builder(SessionId(9))
        .partitions(PartitionId::new(0)..PartitionId::new(1))
        .projection(Projection::new(dense.clone()))
        .batch_size(50)
        .dense_ids(dense)
        .buffer_capacity(8)
        .build();
    let session = DppSession::launch(table, spec, 4).unwrap();
    // A modest GPU demand that 4 workers easily satisfy.
    let mut trainer = LiveTrainer::new(session.client(), 10_000.0);
    let (report, samples) = trainer.train(u64::MAX);
    assert_eq!(samples, 1_000);
    session.shutdown();
    assert!(
        report.stall_fraction < 0.5,
        "well-provisioned DPP should mostly hide preprocessing: {:.2}",
        report.stall_fraction
    );
}

/// A policy that keeps the knobs and remembers what it was shown.
struct Recorder(std::sync::Arc<std::sync::Mutex<Vec<dsi::dpp::TunerSignals>>>);

impl TunerPolicy for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }

    fn bounds(&self) -> KnobBounds {
        KnobBounds::default()
    }

    fn decide(&mut self, signals: &dsi::dpp::TunerSignals, current: &Knobs) -> Knobs {
        self.0.lock().unwrap().push(*signals);
        *current
    }
}

#[test]
fn live_tuner_sees_the_run_it_tunes() {
    // The one door a policy reads through has to show the session it is
    // ticked against: its client's fetch tail, its workers' stage time,
    // its trainer's stall — whatever the transport or the worker loop's
    // depth. The plan derives a dozen features per stored one, so load
    // (where the columnar kernels run) outweighs the storage fetch.
    let table = wire_table(25);
    let (dense, sparse) = ([FeatureId(1)], [FeatureId(2)]);
    let projection = Projection::new(vec![FeatureId(1), FeatureId(2)]);
    let plan = TransformPlan::preset(&projection, &sparse, &dense, 12.0, 1_000_000);
    for transport in [
        Transport::InProcess,
        Transport::Tcp(WireConfig::plaintext()),
    ] {
        for read_ahead in [0, 2] {
            let mut spec = wire_spec(transport);
            spec.sparse_ids.extend(plan.derived_feature_ids());
            spec.plan = plan.clone();
            spec.read_ahead = read_ahead;
            let reg = Registry::new();
            let session =
                DppSession::launch_observed_chaos(table.clone(), spec, 2, Some(&reg), None)
                    .unwrap();
            let seen = std::sync::Arc::default();
            let recorder = Recorder(std::sync::Arc::clone(&seen));
            let mut tuner = LiveTuner::new(Box::new(recorder), &session);
            let mut trainer = LiveTrainer::new(session.client(), 1_000_000.0).with_registry(&reg);
            let (stall, samples) = trainer.train(u64::MAX);
            assert_eq!(samples, 288);
            tuner.tick(&session);
            session.shutdown();

            let at = format!("{transport:?} read_ahead {read_ahead}");
            let signals = seen.lock().unwrap().pop().expect("one tick, one decide");
            let s = signals.snapshot;
            assert!(s.fetch_p99 > 0.0, "{at}: {s:?}");
            assert!(s.extract_secs > 0.0, "{at}: {s:?}");
            assert!(s.transform_secs > 0.0, "{at}: {s:?}");
            assert!(s.load_secs > 0.0, "{at}: {s:?}");
            assert_eq!(s.stall_fraction, stall.stall_fraction, "{at}");
            assert_ne!(s.dominant_stage(), Some("extract"), "{at}: {s:?}");
        }
    }
}

#[test]
fn every_knob_has_an_actuator() {
    // A knob axis a policy can move has to be one a running session can
    // act on: a one-axis move through `LiveTuner::apply` changes the live
    // worker count, or the spec new workers spawn with *and* a worker
    // that runs it. An axis with no control surface fails here.
    // 72 splits: nobody consumes until the checks are done, and no worker
    // may run out of work (and leave the live count) before then.
    const DAYS: u32 = 24;
    let table = wire_table_of(26, DAYS);
    let moves = [3usize, 2, 48];
    assert_eq!(moves.len(), Knobs::AXES);
    for (axis, value) in moves.into_iter().enumerate() {
        let mut spec = wire_spec(Transport::InProcess);
        spec.partition_end = PartitionId::new(DAYS);
        let session = DppSession::launch(table.clone(), spec, 2).unwrap();
        let mut tuner = LiveTuner::new(Box::new(Recorder(Default::default())), &session);
        let before = tuner.knobs();
        assert_ne!(before.axis(axis), value, "axis {axis}: the move must move");
        let delta = tuner.apply(&session, before.with_axis(axis, value));

        let observed = session.observe();
        let live = observed.iter().filter(|o| o.is_live()).count();
        let spec = session.effective_spec();
        let after = Knobs {
            workers: live,
            read_ahead: spec.read_ahead,
            batch_size: spec.batch_size,
        };
        assert_eq!(after, before.with_axis(axis, value), "axis {axis}");
        if axis > 0 {
            // The newest worker is the rotation's replacement: spawned
            // with the moved knob, next to a stale one still to rotate.
            assert!(delta.rotated, "axis {axis}: {delta:?}");
            let newest = observed.iter().max_by_key(|o| o.id).expect("a fleet");
            assert!(
                newest.is_live() && !newest.stale,
                "axis {axis}: {observed:?}"
            );
            assert!(
                observed.iter().any(|o| o.is_live() && o.stale),
                "axis {axis}: {observed:?}"
            );
        }
        let mut client = session.client();
        let mut rows = 0;
        while let Some(tensor) = client.next_batch() {
            rows += tensor.batch_size();
        }
        assert_eq!(rows, 96 * DAYS as usize, "axis {axis}");
        session.shutdown();
    }
}

#[test]
fn pipeline_report_counts_a_sessions_storage_bytes_once() {
    // The reader's live `dsi_dwrf_*` series and the worker report bridged
    // at shutdown describe the same reads; the report takes one of them.
    let reg = Registry::new();
    let spec = wire_spec(Transport::InProcess);
    let session =
        DppSession::launch_observed_chaos(wire_table(27), spec, 2, Some(&reg), None).unwrap();
    let mut client = session.client();
    while client.next_batch().is_some() {}
    let worker = session.shutdown();
    let report = PipelineReport::collect(&reg);
    assert!(worker.storage_rx_bytes > 0);
    assert_eq!(report.read_bytes, worker.storage_rx_bytes);
    assert_eq!(report.wanted_bytes, worker.storage_wanted_bytes);
}
