//! Microbenchmarks for the Table XI transform operations, one per class.

use criterion::{criterion_group, criterion_main, Criterion};
use dsi_types::{FeatureId, Sample, SparseList};
use std::hint::black_box;
use transforms::{TransformOp, TransformPlan};

fn sample_with_lists(len: usize) -> Sample {
    let mut s = Sample::new(0.0);
    s.set_dense(FeatureId(0), 0.37);
    s.set_sparse(
        FeatureId(1),
        SparseList::from_ids(
            (0..len as u64)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        ),
    );
    s.set_sparse(
        FeatureId(2),
        SparseList::from_ids((0..len as u64).map(|i| i * 40_503 + 7).collect()),
    );
    s
}

fn bench_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("transform_ops");
    group.sample_size(30);

    let cases: Vec<(&str, TransformOp)> = vec![
        (
            "sigrid_hash_26",
            TransformOp::SigridHash {
                input: FeatureId(1),
                salt: 7,
                modulus: 1_000_000,
            },
        ),
        (
            "first_x_26",
            TransformOp::FirstX {
                input: FeatureId(1),
                x: 10,
            },
        ),
        (
            "ngram2_26",
            TransformOp::NGram {
                input: FeatureId(1),
                n: 2,
                output: FeatureId(10),
            },
        ),
        (
            "cartesian_26x26",
            TransformOp::Cartesian {
                a: FeatureId(1),
                b: FeatureId(2),
                output: FeatureId(11),
            },
        ),
        (
            "bucketize_16_borders",
            TransformOp::Bucketize {
                input: FeatureId(0),
                borders: (0..16).map(|b| b as f64 / 16.0).collect(),
                output: FeatureId(12),
            },
        ),
        (
            "logit",
            TransformOp::Logit {
                input: FeatureId(0),
            },
        ),
        (
            "boxcox",
            TransformOp::BoxCox {
                input: FeatureId(0),
                lambda: 0.5,
            },
        ),
        (
            "idlist_intersect_26",
            TransformOp::IdListTransform {
                a: FeatureId(1),
                b: FeatureId(2),
                output: FeatureId(13),
            },
        ),
    ];
    let base = sample_with_lists(26);
    for (name, op) in cases {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut s = base.clone();
                op.apply(black_box(&mut s));
                black_box(s)
            })
        });
    }
    group.finish();
}

fn bench_plans(c: &mut Criterion) {
    let mut group = c.benchmark_group("transform_plans");
    group.sample_size(30);
    let base = sample_with_lists(26);
    // A production-shaped plan mix.
    let plan = TransformPlan::new(vec![
        TransformOp::SigridHash {
            input: FeatureId(1),
            salt: 1,
            modulus: 100_000,
        },
        TransformOp::FirstX {
            input: FeatureId(1),
            x: 50,
        },
        TransformOp::SigridHash {
            input: FeatureId(2),
            salt: 2,
            modulus: 100_000,
        },
        TransformOp::Logit {
            input: FeatureId(0),
        },
        TransformOp::NGram {
            input: FeatureId(1),
            n: 2,
            output: FeatureId(20),
        },
        TransformOp::SigridHash {
            input: FeatureId(20),
            salt: 3,
            modulus: 100_000,
        },
    ]);
    group.bench_function("rm_like_plan_per_sample", |b| {
        b.iter(|| {
            let mut s = base.clone();
            plan.apply_sample(black_box(&mut s));
            black_box(s)
        })
    });
    group.bench_function("rm_like_plan_with_cost_accounting", |b| {
        b.iter(|| {
            let mut s = base.clone();
            black_box(plan.apply_sample_with_cost(black_box(&mut s)))
        })
    });
    group.finish();
}

/// Row path against columnar path, one arm each per case: the whole plan
/// per sample then `materialize`, against the worker's four calls
/// (`capture_ctx`, `sparse_caps`, `materialize_capped`, `apply_with_cost`).
fn bench_columnar(c: &mut Criterion) {
    use dsi_types::rng::SplitMix64;
    use dsi_types::{Batch, FeatureKind};
    use synth::{JobProjectionSampler, RmClass, RmProfile, SampleGenerator};
    use transforms::ColumnarPlan;
    let mut group = c.benchmark_group("columnar_vs_row");
    group.sample_size(20);

    let mut case = |name: &str,
                    plan: &TransformPlan,
                    batch: &Batch,
                    dense_ids: &[FeatureId],
                    sparse_ids: &[FeatureId]| {
        group.bench_function(format!("{name}_row_path_batch512"), |b| {
            b.iter(|| {
                let (out, cost) = plan.apply_batch(batch.clone(), 0);
                black_box((out.materialize(dense_ids, sparse_ids), cost))
            })
        });
        let (row, columnar) = ColumnarPlan::split_plan(plan);
        assert!(row.is_empty(), "no Sampling in these plans");
        let caps = columnar.sparse_caps(sparse_ids);
        group.bench_function(format!("{name}_columnar_path_batch512"), |b| {
            b.iter(|| {
                // The row arm consumes its batch; pay the same clone here.
                let batch = batch.clone();
                let ctx = columnar.capture_ctx(batch.samples(), dense_ids, sparse_ids);
                let mut tensor = batch.materialize_capped(dense_ids, sparse_ids, &caps);
                let applied =
                    columnar.apply_with_cost(&mut tensor, dense_ids, &ctx, plan.cost_model());
                black_box((tensor, applied.cost))
            })
        });
    };

    // Normalization only: two hashed lists, one truncated, one Logit.
    let batch: Batch = (0..512).map(|_| sample_with_lists(26)).collect();
    let plan = TransformPlan::new(vec![
        TransformOp::SigridHash {
            input: FeatureId(1),
            salt: 1,
            modulus: 100_000,
        },
        TransformOp::FirstX {
            input: FeatureId(1),
            x: 10,
        },
        TransformOp::SigridHash {
            input: FeatureId(2),
            salt: 2,
            modulus: 100_000,
        },
        TransformOp::Logit {
            input: FeatureId(0),
        },
    ]);
    case(
        "normalization",
        &plan,
        &batch,
        &[FeatureId(0)],
        &[FeatureId(1), FeatureId(2)],
    );

    // Generation: the derivation-heavy preset (three derived features per
    // stored one) over an RM1 job's projection, as dsibench's
    // `transform_bound` runs it.
    let profile = RmProfile::of(RmClass::Rm1);
    let schema = profile.build_schema(120);
    let projection = JobProjectionSampler::new(&schema, &profile, 0xd51)
        .sample_projection(&mut SplitMix64::new(0xd51 ^ 0xabc));
    let of_kind = |kind| -> Vec<FeatureId> {
        let ids = schema.ids_of_kind(kind).into_iter();
        ids.filter(|f| projection.contains(*f)).collect()
    };
    let plan = TransformPlan::preset(
        &projection,
        &schema.ids_of_kind(FeatureKind::Sparse),
        &schema.ids_of_kind(FeatureKind::Dense),
        3.0,
        1_000_000,
    );
    let dense_ids = of_kind(FeatureKind::Dense);
    let mut sparse_ids = of_kind(FeatureKind::Sparse);
    sparse_ids.extend(plan.derived_feature_ids());
    let batch: Batch = SampleGenerator::new(&schema, 18)
        .take_samples(512)
        .into_iter()
        .map(|mut s| {
            s.project(|f| projection.contains(f));
            s
        })
        .collect();
    case("generation", &plan, &batch, &dense_ids, &sparse_ids);
    group.finish();
}

criterion_group!(benches, bench_ops, bench_plans, bench_columnar);
criterion_main!(benches);
