//! Unified observability across the whole DSI pipeline.
//!
//! ```text
//! cargo run --release --example metrics_demo
//! ```
//!
//! Runs every stage of the pipeline — Scribe logging + ETL join, the DWRF
//! warehouse on a Tectonic cluster with an SSD cache tier, a DPP
//! preprocessing session, and a live trainer — with one shared
//! [`dsi_obs::Registry`] attached to all of them, then dumps the three
//! exposition surfaces: Prometheus text, JSON, and the paper-style
//! pipeline characterization report.

use dsi::prelude::*;
use scribe::ScribeRecord;

const NS_PER_DAY: u64 = 86_400_000_000_000;

fn main() -> dsi_types::Result<()> {
    let registry = Registry::new();

    // ---- Scribe: services log features + engagement events; ETL joins
    // them into labeled samples (join lag and bus backlog are recorded).
    let bus = MessageBus::new();
    let mut etl = BatchEtl::new(NS_PER_DAY / 24, 1.0, NS_PER_DAY);
    etl.attach_registry(&registry);
    let mut by_day = std::collections::BTreeMap::new();
    for day in 0..2u64 {
        for i in 0..600u64 {
            let request_id = day * 1_000_000 + i;
            let ts = day * NS_PER_DAY + i * 1_000_000;
            let mut features = Sample::new(0.0);
            features.set_dense(FeatureId(1), i as f32);
            features.set_sparse(FeatureId(2), SparseList::from_ids(vec![i % 11, i % 31]));
            bus.publish(
                "features",
                FeatureLogRecord::new(request_id, ts, features).into(),
            );
            let event: ScribeRecord = if i % 3 == 0 {
                EventRecord::positive(request_id, ts + 1_000).into()
            } else {
                EventRecord::negative(request_id, ts + 1_000).into()
            };
            bus.publish("events", event);
        }
        let pass = etl.run_pass(&bus, "features", "events", (day + 1) * NS_PER_DAY)?;
        for (partition, samples) in pass {
            by_day
                .entry(partition)
                .or_insert_with(Vec::new)
                .extend(samples);
        }
    }

    // ---- Warehouse: land the joined samples as DWRF files on Tectonic
    // with an SSD cache tier; scans publish decode telemetry.
    let cluster = TectonicCluster::new(ClusterConfig::small());
    let opts = WriterOptions {
        rows_per_stripe: 64,
        ..Default::default()
    };
    let table = Table::create(
        cluster,
        TableConfig::new(TableId(1), "obs_demo").with_writer_options(opts),
    )?;
    let mut total_rows = 0u64;
    let days = by_day.len() as u32;
    for (partition, samples) in by_day {
        total_rows += samples.len() as u64;
        table.write_partition(partition, samples)?;
    }
    table.attach_cache(tectonic::SsdCache::new(dsi_types::ByteSize::mib(64)));
    println!(
        "warehouse: {total_rows} joined rows in {days} partitions, {} encoded",
        ByteSize(table.total_encoded_bytes())
    );

    // ---- DPP session + live trainer, all reporting into one registry.
    let spec = SessionSpec::builder(SessionId(1))
        .partitions(PartitionId::new(0)..PartitionId::new(days))
        .projection(Projection::new(vec![FeatureId(1), FeatureId(2)]))
        .batch_size(32)
        .dense_ids(vec![FeatureId(1)])
        .sparse_ids(vec![FeatureId(2)])
        .buffer_capacity(4)
        .build();
    let session = DppSession::launch(table.clone(), spec, 2)?;
    session.attach_registry(&registry);
    let mut trainer = LiveTrainer::new(session.client(), 200_000.0).with_registry(&registry);
    let (stall, trained) = trainer.train(u64::MAX);
    println!(
        "trainer: {trained} samples in {} batches, stall fraction {:.1}%",
        stall.batches,
        stall.stall_fraction * 100.0
    );
    session.shutdown();

    // ---- Storage-side bridges (snapshot publishers are idempotent).
    table.cluster().publish_metrics(&registry);
    if let Some(cache) = table.cache() {
        cache.publish_metrics(&registry);
    }

    // ---- Exposition: Prometheus text, JSON, and the pipeline report.
    let prom = prometheus_text(&registry);
    println!(
        "\n---- Prometheus exposition ({} lines, excerpt) ----",
        prom.lines().count()
    );
    for line in prom.lines().filter(|l| {
        l.contains("dsi_trainer_stall_fraction")
            || l.contains("dsi_cache_hit_rate")
            || l.contains("dsi_client_fetch_seconds")
    }) {
        println!("{line}");
    }
    let json = json_snapshot(&registry);
    println!("\n---- JSON snapshot: {} bytes ----", json.len());

    let report = PipelineReport::collect(&registry);
    println!("\n{report}");

    // The registry and the trainer's own report must agree exactly. The
    // trainer stamps its metrics with the session's `job` label.
    let gauge = registry.gauge_value(dsi::obs::names::TRAINER_STALL_FRACTION, &[("job", "sess1")]);
    assert!(
        (gauge - stall.stall_fraction).abs() < 1e-12,
        "stall gauge {gauge} != trainer report {}",
        stall.stall_fraction
    );
    assert!(report.stall_fraction > 0.0 || stall.stall_fraction == 0.0);
    assert!(
        report.cache_hits + report.cache_misses > 0,
        "cache saw traffic"
    );
    for stage in ["extract", "transform", "load"] {
        let row = report.stages.iter().find(|r| r.stage == stage);
        assert!(
            row.is_some_and(|r| r.spans > 0 && r.seconds > 0.0),
            "stage table has no wall time for {stage}: {row:?}"
        );
    }
    println!("stall-fraction metric matches trainer report: {gauge:.4}");

    // What a tuning policy ticked against this session would be shown:
    // the same registry, read through the session's `job` label.
    let signals = dsi::obs::SignalSnapshot::sample(&registry, "sess1");
    println!(
        "sampled signals for sess1: {signals:?}, dominant {:?}",
        signals.dominant_stage()
    );
    assert_eq!(signals.stall_fraction, stall.stall_fraction);
    assert!(signals.fetch_p99 > 0.0 && signals.load_secs > 0.0);
    Ok(())
}
