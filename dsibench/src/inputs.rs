//! Input generation: everything a workload runs on is made here from the
//! seed, and the pipeline only ever sees what these functions return.
//!
//! A workload's *shape* — schema, projection, transform plan — is drawn
//! from [`SHAPE_SEED`], a constant, so that a run with another `--seed` is
//! the same job over different data and its metrics can be compared. The
//! `--seed` draws the samples.

use crate::catalog::{IngestShape, PlanShape, TrainShape};
use crate::fingerprint::{digest_sample, Hasher};
use dpp::{SessionSpec, Transport, WireConfig};
use dsi_types::rng::SplitMix64;
use dsi_types::{
    FeatureId, FeatureKind, PartitionId, Projection, Sample, Schema, SessionId, TableId,
};
use dwrf::WriterOptions;
use synth::{JobProjectionSampler, RmClass, RmProfile, SampleGenerator};
use tectonic::{ClusterConfig, TectonicCluster};
use transforms::TransformPlan;
use warehouse::{Table, TableConfig};

/// Seed of everything that defines a workload's shape rather than its data.
pub const SHAPE_SEED: u64 = 0xd51;
/// Logged features per table (the RM profiles scaled down).
pub const LOGGED_FEATURES: u32 = 120;
pub const ROWS_PER_STRIPE: usize = 1_024;
/// A stripe is a whole number of batches, so no rows carry between splits.
pub const BATCH_SIZE: usize = 256;
const HASH_MODULUS: u64 = 1_000_000;
const WIRE_KEY: u64 = 0x00D5_1F00;

/// The storage every workload runs on: 8 HDD nodes, 4 MiB blocks, R = 3.
pub fn cluster() -> TectonicCluster {
    TectonicCluster::new(ClusterConfig {
        nodes: 8,
        block_size: 4 * 1024 * 1024,
        replication: 3,
        hdd: true,
    })
}

pub fn writer_options(encoded: bool) -> WriterOptions {
    WriterOptions {
        rows_per_stripe: ROWS_PER_STRIPE,
        compressed: encoded,
        encrypted: encoded,
        ..Default::default()
    }
}

fn new_table(class: RmClass, schema: &Schema, encoded: bool) -> Table {
    Table::create(
        cluster(),
        TableConfig::new(TableId(class as u64 + 1), format!("{class}").to_lowercase())
            .with_schema(schema.clone())
            .with_writer_options(writer_options(encoded)),
    )
    .expect("creating a table in an empty cluster cannot fail")
}

/// A training workload's inputs: the stored dataset and the job over it.
pub struct TrainInputs {
    pub table: Table,
    pub spec: SessionSpec,
    pub rows: u64,
    pub input_digest: u64,
    /// The `derived_fraction` the plan was built with (0 for an empty plan).
    pub derived_fraction: f64,
}

pub fn build_train(shape: &TrainShape, seed: u64) -> TrainInputs {
    let profile = RmProfile::of(shape.class);
    let schema = profile.build_schema(LOGGED_FEATURES);
    let table = new_table(shape.class, &schema, shape.encoded);
    let mut digest = Hasher::default();
    let mut generator = SampleGenerator::new(&schema, seed);
    for day in 0..shape.days {
        let samples = generator.take_samples(shape.rows_per_day);
        for s in &samples {
            digest_sample(&mut digest, s);
        }
        table
            .write_partition(PartitionId::new(day), samples)
            .expect("the benchmark cluster has capacity for its dataset");
    }

    let sampler = JobProjectionSampler::new(&schema, &profile, SHAPE_SEED);
    let projection = sampler.sample_projection(&mut SplitMix64::new(SHAPE_SEED ^ 0xabc));
    let in_projection = |kind| -> Vec<FeatureId> {
        schema
            .ids_of_kind(kind)
            .into_iter()
            .filter(|f| projection.contains(*f))
            .collect()
    };
    let (plan, derived_fraction) = match shape.plan {
        PlanShape::Empty => (TransformPlan::empty(), 0.0),
        PlanShape::Preset { derived_fraction } => {
            let fraction = derived_fraction.unwrap_or_else(|| {
                f64::from(profile.model_derived_features)
                    / f64::from(profile.model_dense_features + profile.model_sparse_features)
            });
            let plan = TransformPlan::preset(
                &projection,
                &schema.ids_of_kind(FeatureKind::Sparse),
                &schema.ids_of_kind(FeatureKind::Dense),
                fraction,
                HASH_MODULUS,
            );
            (plan, fraction)
        }
    };
    let dense_ids = in_projection(FeatureKind::Dense);
    let mut sparse_ids = in_projection(FeatureKind::Sparse);
    sparse_ids.extend(plan.derived_feature_ids());
    for id in projection.ids() {
        digest.word(id.0);
    }
    digest.word(plan.len() as u64);

    let transport = if shape.secure_tcp {
        Transport::Tcp(WireConfig {
            encrypt: true,
            compress: true,
            key: WIRE_KEY,
        })
    } else {
        Transport::InProcess
    };
    let spec = SessionSpec::builder(SessionId(1))
        .partitions(PartitionId::new(0)..PartitionId::new(shape.days))
        .projection(projection)
        .plan(plan)
        .batch_size(BATCH_SIZE)
        .dense_ids(dense_ids)
        .sparse_ids(sparse_ids)
        .read_ahead(shape.read_ahead)
        .fastpath(true)
        .transport(transport)
        .build();
    TrainInputs {
        rows: table.total_rows(),
        table,
        spec,
        input_digest: digest.finish(),
        derived_fraction,
    }
}

/// The ingest workload's inputs: a cycle of day payloads to log.
pub struct IngestInputs {
    pub schema: Schema,
    /// `payloads[d]` are the labelled samples of cycle day `d`.
    pub payloads: Vec<Vec<Sample>>,
    pub input_digest: u64,
}

pub fn build_ingest(shape: &IngestShape, seed: u64) -> IngestInputs {
    let schema = RmProfile::of(RmClass::Rm1).build_schema(LOGGED_FEATURES);
    let mut generator = SampleGenerator::new(&schema, seed);
    let mut digest = Hasher::default();
    let payloads: Vec<Vec<Sample>> = (0..shape.payload_days)
        .map(|_| {
            let day = generator.take_samples(shape.rows_per_day);
            for s in &day {
                digest_sample(&mut digest, s);
            }
            day
        })
        .collect();
    IngestInputs {
        schema,
        payloads,
        input_digest: digest.finish(),
    }
}

/// An empty table with the ingest workload's storage shape.
pub fn ingest_table(schema: &Schema) -> Table {
    new_table(RmClass::Rm1, schema, true)
}

/// What a freshly landed partition is probed with: the labels and the first
/// dense feature every row carries, a column whose stored size hardly
/// depends on the data.
pub fn probe_projection(schema: &Schema) -> Projection {
    let column = schema
        .iter()
        .find(|def| def.kind == FeatureKind::Dense && def.coverage >= 1.0)
        .map(|def| def.id);
    Projection::new(column.into_iter().collect())
}
