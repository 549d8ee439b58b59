//! Worker-level pin on the benchmark's plan shape: the columnar kernels a
//! fastpath worker runs in its load stage against the per-sample row path
//! a non-fastpath worker runs in its transform stage, over the RM1 schema,
//! projection and derivation-heavy preset plan that dsibench's
//! `transform_bound` workload uses.

use dsi::dpp::{Worker, WorkerReport};
use dsi::prelude::*;
use dsi::synth::{JobProjectionSampler, RmClass};
use dsi::transforms::ColumnarPlan;
use dsi_types::rng::SplitMix64;
use dsi_types::{FeatureKind, WorkerId};
use std::sync::Arc;

const ROWS_PER_STRIPE: usize = 1_024;

/// Two stripes of RM1 rows and the job over them; `sampling` puts one
/// `Sampling` op in front of the preset plan.
fn table_and_spec(sampling: bool) -> (Table, dsi::dpp::SessionSpecBuilder) {
    let profile = RmProfile::of(RmClass::Rm1);
    let schema = profile.build_schema(120);
    let table = Table::create(
        TectonicCluster::new(ClusterConfig::small()),
        TableConfig::new(TableId(1), "rm1")
            .with_schema(schema.clone())
            .with_writer_options(WriterOptions {
                rows_per_stripe: ROWS_PER_STRIPE,
                ..Default::default()
            }),
    )
    .unwrap();
    let samples = SampleGenerator::new(&schema, 18).take_samples(2 * ROWS_PER_STRIPE);
    table.write_partition(PartitionId::new(0), samples).unwrap();

    let projection = JobProjectionSampler::new(&schema, &profile, 0xd51)
        .sample_projection(&mut SplitMix64::new(7));
    let of_kind = |kind| -> Vec<FeatureId> {
        let ids = schema.ids_of_kind(kind).into_iter();
        ids.filter(|f| projection.contains(*f)).collect()
    };
    let preset = TransformPlan::preset(
        &projection,
        &schema.ids_of_kind(FeatureKind::Sparse),
        &schema.ids_of_kind(FeatureKind::Dense),
        3.0,
        1_000_000,
    );
    let mut ops = preset.ops().to_vec();
    if sampling {
        ops.insert(0, TransformOp::Sampling { rate: 0.5, seed: 3 });
    }
    let plan = TransformPlan::new(ops);
    let dense_ids = of_kind(FeatureKind::Dense);
    let mut sparse_ids = of_kind(FeatureKind::Sparse);
    sparse_ids.extend(plan.derived_feature_ids());
    let spec = SessionSpec::builder(SessionId(1))
        .partitions(PartitionId::new(0)..PartitionId::new(1))
        .projection(projection)
        .plan(plan)
        .batch_size(256)
        .dense_ids(dense_ids)
        .sparse_ids(sparse_ids);
    (table, spec)
}

fn run_worker(table: &Table, spec: SessionSpec) -> (Vec<MiniBatchTensor>, WorkerReport) {
    // As the session's worker loop does, every split flushes.
    run_worker_flushing(table, spec, true)
}

/// `flush_every_split: false` carries each split's partial batch into the
/// next and flushes once, at the end.
fn run_worker_flushing(
    table: &Table,
    spec: SessionSpec,
    flush_every_split: bool,
) -> (Vec<MiniBatchTensor>, WorkerReport) {
    let scan = table
        .scan(spec.partitions(), spec.projection.clone())
        .with_policy(spec.policy);
    let mut worker = Worker::new(WorkerId(0), Arc::new(spec), scan.clone());
    let mut tensors = Vec::new();
    for split in scan.plan_splits() {
        tensors.extend(worker.process_split(&split).unwrap());
        if flush_every_split {
            tensors.extend(worker.flush());
        }
    }
    tensors.extend(worker.flush());
    (tensors, worker.report())
}

/// One delivered row: label, dense values and, per sparse column, ids and
/// scores (a column no row of its batch scored reads as unit scores, which
/// is what it would be backfilled with in a batch cut elsewhere).
type Row = (u32, Vec<u32>, Vec<(Vec<u64>, Vec<f32>)>);

fn rows_of(tensors: &[MiniBatchTensor]) -> Vec<Row> {
    let mut rows = Vec::new();
    for t in tensors {
        let cols = t.dense.cols();
        for r in 0..t.batch_size() {
            let dense = &t.dense.as_slice()[r * cols..(r + 1) * cols];
            let sparse = t.sparse.iter().map(|c| {
                let (start, end) = (c.offsets()[r] as usize, c.offsets()[r + 1] as usize);
                let scores = c
                    .scores()
                    .map_or(vec![1.0; end - start], |s| s[start..end].to_vec());
                (c.row(r).to_vec(), scores)
            });
            rows.push((
                t.labels[r].to_bits(),
                dense.iter().map(|v| v.to_bits()).collect(),
                sparse.collect(),
            ));
        }
    }
    rows
}

fn assert_columnar_worker_matches_row_worker(sampling: bool) -> WorkerReport {
    let (table, spec) = table_and_spec(sampling);
    let (col_tensors, col) = run_worker(&table, spec.clone().fastpath(true).build());
    let (row_tensors, row) = run_worker(&table, spec.fastpath(false).build());
    // Not `assert_eq!` on the lot: a mismatch would print every tensor.
    assert_eq!(col_tensors.len(), row_tensors.len());
    for (i, (col, row)) in col_tensors.iter().zip(&row_tensors).enumerate() {
        assert!(col.dense == row.dense, "dense matrix of tensor {i}");
        assert!(col.labels == row.labels, "labels of tensor {i}");
        for (c, r) in col.sparse.iter().zip(&row.sparse) {
            assert!(c == r, "tensor {i}, column {}:\n{c:?}\n{r:?}", c.feature());
        }
        assert_eq!(col.sparse.len(), row.sparse.len());
    }
    // Both sessions read the same rows: the column worker's extract
    // accounting is the row worker's.
    assert_eq!(col.samples, row.samples);
    assert_eq!(col.transform_rx_bytes, row.transform_rx_bytes);
    assert_eq!(col.uncompressed_bytes, row.uncompressed_bytes);
    assert_eq!(col.storage_rx_bytes, row.storage_rx_bytes);
    assert_eq!(col.storage_wanted_bytes, row.storage_wanted_bytes);
    assert_eq!(col.copied_bytes, row.copied_bytes);
    assert_eq!(col.batches, row.batches);
    assert_eq!(col.transform_tx_bytes, row.transform_tx_bytes);
    // The default weights are whole numbers, so the sums are exact.
    assert_eq!(col.transform_cycles, row.transform_cycles);
    assert_eq!(col.feature_generation_cycles, row.feature_generation_cycles);
    assert_eq!(
        col.sparse_normalization_cycles,
        row.sparse_normalization_cycles
    );
    assert_eq!(
        col.dense_normalization_cycles,
        row.dense_normalization_cycles
    );
    assert!(col.feature_generation_cycles > col.sparse_normalization_cycles);
    assert!(col.columnar_kernel_nanos.iter().sum::<u64>() > 0);
    assert_eq!(row.columnar_kernel_nanos.iter().sum::<u64>(), 0);
    col
}

#[test]
fn preset_plan_runs_whole_on_columns_and_matches_the_row_path() {
    let (_, spec) = table_and_spec(false);
    let plan = spec.build().plan;
    let (row_half, columnar) = ColumnarPlan::split_plan(&plan);
    assert!(row_half.is_empty());
    assert_eq!(columnar.ops(), plan.ops());
    assert!(plan.derived_feature_count() > 20, "derivation-heavy");

    let report = assert_columnar_worker_matches_row_worker(false);
    assert_eq!(report.samples, 2 * ROWS_PER_STRIPE as u64);
    assert_eq!(report.batches, 8);
}

#[test]
fn sampling_is_the_whole_row_half() {
    let (_, spec) = table_and_spec(true);
    let plan = spec.build().plan;
    let (row_half, columnar) = ColumnarPlan::split_plan(&plan);
    assert_eq!(row_half.ops(), &plan.ops()[..1]);
    assert_eq!(columnar.ops(), &plan.ops()[1..]);

    let report = assert_columnar_worker_matches_row_worker(true);
    // Half of each stripe survives, give or take: two full batches and
    // most likely a partial one per split.
    assert!((4..=6).contains(&report.batches), "{}", report.batches);
}

#[test]
fn carried_rows_are_transformed_once() {
    // 100 does not divide what `Sampling` keeps of a 1,024-row stripe, so
    // the first split leaves a partial batch for the second to complete.
    // Those rows were already sampled and transformed with their own split:
    // delivering them later must change neither which rows survive nor a
    // single value, in any of the three session shapes.
    let (table, spec) = table_and_spec(true);
    let spec = spec.batch_size(100);
    for (shape, spec) in [
        ("fastpath", spec.clone().fastpath(true)),
        ("row path", spec.clone().fastpath(false)),
        ("dedup", spec.dedup(DedupConfig::default())),
    ] {
        let (flushed, _) = run_worker_flushing(&table, spec.clone().build(), true);
        let (carried, report) = run_worker_flushing(&table, spec.build(), false);
        let partial = flushed.iter().filter(|t| t.batch_size() < 100).count();
        assert_eq!(partial, 2, "{shape}: each split leaves rows to carry");
        assert_eq!(report.samples, 2 * ROWS_PER_STRIPE as u64);
        let (flushed, carried) = (rows_of(&flushed), rows_of(&carried));
        assert_eq!(carried.len(), flushed.len(), "{shape}: rows delivered");
        for (i, (c, f)) in carried.iter().zip(&flushed).enumerate() {
            assert!(c == f, "{shape}: row {i}:\n{c:?}\n{f:?}");
        }
    }
}
