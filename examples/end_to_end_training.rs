//! End-to-end training with auto-scaling and failure recovery.
//!
//! ```text
//! cargo run --release --example end_to_end_training
//! ```
//!
//! Builds an RM3-shaped dataset, launches a deliberately under-provisioned
//! DPP session, and drives a live trainer against it while the Master's
//! auto-scaling controller grows the worker fleet to eliminate data stalls
//! (§III-B1). Midway through, a worker is crashed to demonstrate stateless
//! recovery: its unconsumed splits replay on a replacement with no loss.

use dsi::prelude::*;
use dsi_types::WorkerId;
use synth::RmClass;

fn main() -> dsi_types::Result<()> {
    // An RM3-flavoured dataset: lean features, high sample rate.
    let profile = RmProfile::of(RmClass::Rm3);
    let schema = profile.build_schema(80);
    let cluster = TectonicCluster::new(ClusterConfig::small());
    let table = Table::create(
        cluster,
        TableConfig::new(TableId(3), "rm3_e2e").with_schema(schema.clone()),
    )?;
    let mut generator = SampleGenerator::new(&schema, 99);
    for day in 0..3u32 {
        table.write_partition(PartitionId::new(day), generator.take_samples(1_500))?;
    }
    println!(
        "dataset: {} rows, {} encoded",
        table.total_rows(),
        ByteSize(table.total_encoded_bytes())
    );

    // A projection plus preprocessing plan shaped like a production job.
    let dense: Vec<FeatureId> = schema
        .ids_of_kind(dsi_types::FeatureKind::Dense)
        .into_iter()
        .take(20)
        .collect();
    let sparse: Vec<FeatureId> = schema.ids_of_kind(dsi_types::FeatureKind::Sparse);
    let projection: Projection = dense.iter().chain(sparse.iter()).copied().collect();
    let plan = TransformPlan::preset(&projection, &sparse, &dense, 0.1, 100_000);
    let mut sparse_ids = sparse.clone();
    sparse_ids.extend(plan.derived_feature_ids());

    let spec = SessionSpec::builder(SessionId(7))
        .partitions(PartitionId::new(0)..PartitionId::new(3))
        .projection(projection)
        .plan(plan)
        .batch_size(64)
        .dense_ids(dense)
        .sparse_ids(sparse_ids)
        .buffer_capacity(4)
        .build();

    // Launch under-provisioned: one worker for a hungry trainer.
    let session = DppSession::launch(table, spec, 1)?;
    let mut scaler = LiveTuner::new(Box::new(AutoScaler::default()), &session);

    // Crash a worker early to exercise recovery.
    let victim = WorkerId(0);
    let replacement = session.crash_and_replace(victim)?;
    println!("crashed {victim}; master requeued its work onto {replacement}");

    let mut trainer = LiveTrainer::new(session.client(), 10_000.0);
    let mut consumed = 0u64;
    let mut scale_ups = 0u32;
    loop {
        let (report, samples) = trainer.train(8);
        consumed += samples;
        if report.batches == 0 {
            break;
        }
        let k = scaler.tick(&session).spawned;
        if k > 0 {
            scale_ups += 1;
            println!(
                "autoscaler: +{k} workers (fleet now {})",
                session.worker_count()
            );
        }
    }
    println!(
        "trained on {consumed} samples; {} workers at end ({} scale-ups); session complete: {}",
        session.worker_count(),
        scale_ups,
        session.is_complete()
    );
    assert_eq!(consumed, 4_500, "every row delivered exactly once");
    let report = session.shutdown();
    println!(
        "fleet totals: {} splits, {} batches, extract/transform cycle split {:.0}%/{:.0}%",
        report.splits,
        report.batches,
        report.cycle_shares().0 * 100.0,
        report.cycle_shares().1 * 100.0,
    );
    Ok(())
}
