//! Offline generation: streaming join/label throughput, and one batch ETL
//! pass over a day of RM1 logs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dsi_types::{FeatureId, Sample, SparseList};
use scribe::{BatchEtl, EventRecord, FeatureLogRecord, MessageBus, ScribeRecord, StreamingJoiner};
use std::hint::black_box;
use synth::{RmProfile, SampleGenerator};

fn feature_record(rid: u64) -> FeatureLogRecord {
    let mut s = Sample::new(0.0);
    s.set_dense(FeatureId(1), rid as f32);
    s.set_sparse(FeatureId(2), SparseList::from_ids(vec![rid % 97, rid % 13]));
    FeatureLogRecord::new(rid, rid * 1_000, s)
}

fn bench_join(c: &mut Criterion) {
    let n = 10_000u64;
    let mut group = c.benchmark_group("etl_join");
    group.sample_size(20);
    group.throughput(Throughput::Elements(n));
    group.bench_function("matched_pairs", |b| {
        b.iter(|| {
            let mut joiner = StreamingJoiner::new(1_000_000);
            let mut joined = 0u64;
            for rid in 0..n {
                joiner.offer_features(feature_record(rid));
                if joiner
                    .offer_event(EventRecord::positive(rid, rid * 1_000 + 10))
                    .is_some()
                {
                    joined += 1;
                }
            }
            black_box(joined)
        })
    });
    group.bench_function("expiring_negatives", |b| {
        b.iter(|| {
            let mut joiner = StreamingJoiner::new(1_000);
            for rid in 0..n {
                joiner.offer_features(feature_record(rid));
            }
            black_box(joiner.expire(u64::MAX).len())
        })
    });
    group.finish();
}

const DAY_ROWS: usize = 8_192;
const NS_PER_DAY: u64 = 86_400_000_000_000;

/// A day of RM1 traffic as the hosts log it: each sample's feature log,
/// then its outcome event a microsecond later.
fn day_records(payload: &[Sample]) -> (Vec<ScribeRecord>, Vec<ScribeRecord>) {
    let step = NS_PER_DAY / 2 / payload.len() as u64;
    payload
        .iter()
        .enumerate()
        .map(|(i, sample)| {
            let (rid, ts) = (i as u64, i as u64 * step);
            (
                FeatureLogRecord::new(rid, ts, sample.clone()).into(),
                EventRecord {
                    request_id: rid,
                    ts_ns: ts + 1_000,
                    label: sample.label(),
                }
                .into(),
            )
        })
        .unzip()
}

/// One 8,192-row RM1 day published to a fresh bus and joined by one
/// `BatchEtl::run_pass`, as dsibench's `ingest` lands a day. Each
/// iteration also clones the day's samples into log records (the load
/// generator), which any version of the bus and the ETL pays alike.
fn bench_batch_pass(c: &mut Criterion) {
    let schema = RmProfile::rm1().build_schema(120);
    let payload = SampleGenerator::new(&schema, 0xe710).take_samples(DAY_ROWS);
    let mut group = c.benchmark_group("batch_pass");
    group.sample_size(10);
    group.throughput(Throughput::Elements(DAY_ROWS as u64));
    group.bench_function("rm1_day_8192_rows", |b| {
        b.iter(|| {
            let (features, events) = day_records(&payload);
            let bus = MessageBus::new();
            for record in features {
                bus.publish("rm1/features", record);
            }
            for record in events {
                bus.publish("rm1/events", record);
            }
            let mut etl = BatchEtl::new(10_000_000_000, 1.0, NS_PER_DAY);
            let parts = etl
                .run_pass(&bus, "rm1/features", "rm1/events", NS_PER_DAY)
                .expect("one pass");
            black_box(parts.values().map(Vec::len).sum::<usize>())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_join, bench_batch_pass);
criterion_main!(benches);
