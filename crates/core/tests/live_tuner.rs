//! [`OnlineTuner`] driven by [`dpp::LiveTuner`] against a real session.

use dpp::{DppSession, Knobs, LiveTuner, OnlineTuner, SessionSpec, TunerConfig};
use dsi_obs::Registry;
use dsi_types::{FeatureId, PartitionId, Projection, Sample, SessionId, SparseList, TableId};
use warehouse::{Table, TableConfig};

fn table() -> Table {
    let cluster = tectonic::TectonicCluster::new(tectonic::ClusterConfig::small());
    let opts = dwrf::WriterOptions {
        rows_per_stripe: 32,
        ..Default::default()
    };
    let table = Table::create(
        cluster,
        TableConfig::new(TableId(1), "tune-live").with_writer_options(opts),
    )
    .unwrap();
    // Far more batches than the fleet can buffer, so no worker runs out
    // of splits (and leaves the live count) before a client drains it.
    let samples: Vec<Sample> = (0..2048u64)
        .map(|i| {
            let mut s = Sample::new(i as f32);
            s.set_dense(FeatureId(1), i as f32);
            s.set_sparse(FeatureId(2), SparseList::from_ids(vec![i % 13]));
            s
        })
        .collect();
    table.write_partition(PartitionId::new(0), samples).unwrap();
    table
}

fn spec() -> SessionSpec {
    SessionSpec::builder(SessionId(7))
        .partitions(PartitionId::new(0)..PartitionId::new(1))
        .projection(Projection::new(vec![FeatureId(1), FeatureId(2)]))
        .batch_size(16)
        .dense_ids(vec![FeatureId(1)])
        .sparse_ids(vec![FeatureId(2)])
        .buffer_capacity(8)
        .build()
}

#[test]
fn live_tick_applies_worker_and_depth_moves() {
    let session = DppSession::launch(table(), spec(), 1).unwrap();
    let registry = Registry::new();
    session.attach_registry(&registry);
    let policy = OnlineTuner::new(TunerConfig::default());
    let mut tuner = LiveTuner::new(Box::new(policy), &session);
    assert_eq!(tuner.knobs().workers, 1);

    // Manual actuation: grow the fleet and deepen read-ahead.
    let grown = Knobs {
        workers: 3,
        read_ahead: 2,
        ..tuner.knobs()
    };
    let delta = tuner.apply(&session, grown);
    assert_eq!(delta.spawned, 2);
    assert_eq!(session.worker_count(), 3);
    assert_eq!(session.effective_spec().read_ahead, 2);

    // Depth-only change rotates a worker through the new spec.
    let deeper = Knobs {
        read_ahead: 3,
        ..tuner.knobs()
    };
    let delta = tuner.apply(&session, deeper);
    assert_eq!(delta.spawned, 0);
    assert!(delta.rotated);

    // Policy-driven ticks never panic on a live registry, and report the
    // setting the tuner now holds.
    for _ in 0..3 {
        let d = tuner.tick(&session);
        assert_eq!(d.applied, tuner.knobs());
    }
    let mut client = session.client();
    while client.next_batch().is_some() {}
    session.shutdown();
}

#[test]
fn live_tick_on_fresh_registry_is_nan_free() {
    let session = DppSession::launch(table(), spec(), 1).unwrap();
    let registry = Registry::new();
    session.attach_registry(&registry);
    let mut tuner = LiveTuner::new(Box::new(OnlineTuner::new(TunerConfig::default())), &session);
    // First tick samples an almost-empty registry: every signal must
    // be finite (satellite: NaN-poisoning audit).
    let d = tuner.tick(&session);
    assert!(d.applied.workers >= 1);
    let mut client = session.client();
    while client.next_batch().is_some() {}
    session.shutdown();
}
