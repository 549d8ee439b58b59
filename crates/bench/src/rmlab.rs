//! Scaled-down, fully-functional RM deployments for measurement.

use dedup::DedupConfig;
use dpp::{SessionSpec, Worker, WorkerReport};
use dsi_types::{FeatureId, PartitionId, Projection, Sample, SessionId, TableId};
use dwrf::{CoalescePolicy, StreamOrder, WriterOptions};
use synth::{JobProjectionSampler, RmClass, RmProfile, SampleGenerator};
use tectonic::{ClusterConfig, TectonicCluster};
use transforms::TransformPlan;
use warehouse::{Table, TableConfig};

/// Scale parameters for a lab deployment.
#[derive(Debug, Clone, Copy)]
pub struct LabConfig {
    /// Scaled-down logged feature count.
    pub features: u32,
    /// Date partitions to generate.
    pub days: u32,
    /// Rows per partition.
    pub rows_per_day: u64,
    /// DWRF rows per stripe.
    pub rows_per_stripe: usize,
    /// Determinism seed.
    pub seed: u64,
}

impl Default for LabConfig {
    fn default() -> Self {
        Self {
            features: 300,
            days: 3,
            rows_per_day: 1200,
            rows_per_stripe: 200,
            seed: 0xd51,
        }
    }
}

impl LabConfig {
    /// A small config for fast tests.
    pub fn tiny() -> Self {
        Self {
            features: 60,
            days: 2,
            rows_per_day: 200,
            rows_per_stripe: 64,
            seed: 0xd51,
        }
    }
}

/// A fully-built scaled deployment of one RM's dataset plus measurement
/// helpers.
pub struct RmLab {
    /// The model profile this lab instantiates.
    pub profile: RmProfile,
    /// The warehouse table holding the generated dataset.
    pub table: Table,
    /// The per-job projection sampler.
    pub sampler: JobProjectionSampler,
    /// The lab's scale config.
    pub config: LabConfig,
}

impl RmLab {
    /// Builds the deployment: schema from the profile, synthetic samples,
    /// DWRF-encoded partitions in a fresh Tectonic cluster.
    pub fn build(class: RmClass, config: LabConfig) -> RmLab {
        Self::build_with_writer(class, config, None)
    }

    /// Like [`RmLab::build`] with explicit writer options (ablations).
    pub fn build_with_writer(
        class: RmClass,
        config: LabConfig,
        writer: Option<WriterOptions>,
    ) -> RmLab {
        Self::build_dedup(class, config, writer, None)
    }

    /// Full-control build for the dedup ablation: optional writer options
    /// and optional RecD session duplication in the generated dataset
    /// (members of a session share one sparse payload).
    pub fn build_dedup(
        class: RmClass,
        config: LabConfig,
        writer: Option<WriterOptions>,
        dedup: Option<DedupConfig>,
    ) -> RmLab {
        Self::build_custom(class, config, writer, dedup, None)
    }

    /// Full-control build: everything [`RmLab::build_dedup`] offers plus an
    /// explicit Tectonic cluster config (e.g. production-sized blocks so
    /// coalesced reads stay within one block).
    pub fn build_custom(
        class: RmClass,
        config: LabConfig,
        writer: Option<WriterOptions>,
        dedup: Option<DedupConfig>,
        cluster: Option<ClusterConfig>,
    ) -> RmLab {
        let profile = RmProfile::of(class);
        let schema = profile.build_schema(config.features);
        let sampler = JobProjectionSampler::new(&schema, &profile, config.seed);
        let cluster = TectonicCluster::new(cluster.unwrap_or(ClusterConfig {
            nodes: 8,
            block_size: 4 * 1024 * 1024,
            replication: 3,
            hdd: true,
        }));
        let opts = writer.unwrap_or(WriterOptions {
            rows_per_stripe: config.rows_per_stripe,
            ..Default::default()
        });
        let table = Table::create(
            cluster,
            TableConfig::new(TableId(class as u64 + 1), format!("{class}").to_lowercase())
                .with_schema(schema.clone())
                .with_writer_options(opts),
        )
        .expect("table creation is infallible");
        let mut generator = SampleGenerator::new(&schema, config.seed);
        if let Some(cfg) = dedup {
            // The RecD labs log ids at production width: sparse streams
            // carry 64-bit hashed ids, which is what gives them their
            // dominant byte share on disk (cf. the RM profiles, where
            // sparse payloads dwarf the float features). The small-domain
            // default would under-weight exactly the bytes dedup removes.
            generator = generator.with_duplication(cfg).with_hashed_ids();
        }
        for day in 0..config.days {
            let samples: Vec<Sample> = generator.take_samples(config.rows_per_day as usize);
            table
                .write_partition(PartitionId::new(day), samples)
                .expect("lab cluster has capacity");
        }
        RmLab {
            profile,
            table,
            sampler,
            config,
        }
    }

    /// A representative release-candidate job projection.
    pub fn rc_projection(&self) -> Projection {
        let mut rng = dsi_types::rng::SplitMix64::new(self.config.seed ^ 0xabc);
        self.sampler.sample_projection(&mut rng)
    }

    /// The production-shaped transform plan for a projection.
    pub fn transform_plan(&self, projection: &Projection) -> TransformPlan {
        let schema = self.table.schema();
        let sparse = schema.ids_of_kind(dsi_types::FeatureKind::Sparse);
        let dense = schema.ids_of_kind(dsi_types::FeatureKind::Dense);
        let derived_fraction = self.profile.model_derived_features as f64
            / (self.profile.model_dense_features + self.profile.model_sparse_features) as f64;
        TransformPlan::preset(projection, &sparse, &dense, derived_fraction, 1_000_000)
    }

    /// A full session spec for a projection (all partitions, preset plan).
    pub fn session_spec(&self, projection: Projection, batch_size: usize) -> SessionSpec {
        let plan = self.transform_plan(&projection);
        let schema = self.table.schema();
        let dense_ids: Vec<FeatureId> = schema
            .ids_of_kind(dsi_types::FeatureKind::Dense)
            .into_iter()
            .filter(|f| projection.contains(*f))
            .collect();
        let mut sparse_ids: Vec<FeatureId> = schema
            .ids_of_kind(dsi_types::FeatureKind::Sparse)
            .into_iter()
            .filter(|f| projection.contains(*f))
            .collect();
        sparse_ids.extend(plan.derived_feature_ids());
        SessionSpec::builder(SessionId(1))
            .partitions(PartitionId::new(0)..PartitionId::new(self.config.days))
            .projection(projection)
            .plan(plan)
            .batch_size(batch_size)
            .dense_ids(dense_ids)
            .sparse_ids(sparse_ids)
            .build()
    }

    /// Runs one Worker synchronously over the entire selection, returning
    /// its measured telemetry.
    pub fn measure_worker(&self, spec: &SessionSpec) -> WorkerReport {
        self.measure_worker_custom(spec, spec.policy, None)
    }

    /// Full-control measurement: explicit coalescing policy and optional
    /// extract cost model (the co-design ablation prices the pre-flatmap
    /// in-memory format this way).
    pub fn measure_worker_custom(
        &self,
        spec: &SessionSpec,
        policy: CoalescePolicy,
        cost: Option<dpp::ExtractCostModel>,
    ) -> WorkerReport {
        let scan = self
            .table
            .scan(spec.partitions(), spec.projection.clone())
            .with_policy(policy);
        let mut worker = Worker::new(
            dsi_types::WorkerId(0),
            std::sync::Arc::new(spec.clone()),
            scan.clone(),
        );
        if let Some(cost) = cost {
            worker = worker.with_cost_model(cost);
        }
        for split in scan.plan_splits() {
            worker
                .process_split(&split)
                .expect("lab table reads are infallible");
        }
        worker.flush();
        worker.report()
    }

    /// Like [`RmLab::measure_worker`], additionally publishing the
    /// report's metrics (including dedup reuse counters) into `registry`
    /// under the spec's session id.
    pub fn measure_worker_publishing(
        &self,
        spec: &SessionSpec,
        registry: &dsi_obs::Registry,
    ) -> WorkerReport {
        let report = self.measure_worker(spec);
        report.publish_metrics(registry, &spec.id.to_string());
        report
    }

    /// Writer options for the popularity-ordered write path (§VII):
    /// streams are laid out by how often jobs read the feature, so a job's
    /// coalesced reads land on one contiguous hot prefix.
    pub fn popularity_writer_options(&self) -> WriterOptions {
        let weights = self
            .sampler
            .access_frequency_ranking(40, self.config.seed ^ 0x9);
        WriterOptions {
            rows_per_stripe: self.config.rows_per_stripe,
            order: StreamOrder::from_weights(&weights),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_builds_and_measures() {
        let lab = RmLab::build(RmClass::Rm3, LabConfig::tiny());
        assert_eq!(lab.table.total_rows(), 400);
        let proj = lab.rc_projection();
        assert!(!proj.is_empty());
        let spec = lab.session_spec(proj, 64);
        let report = lab.measure_worker(&spec);
        assert_eq!(report.samples, 400);
        assert!(report.transform_tx_bytes > 0);
        assert!(report.batches >= 6);
    }

    #[test]
    fn rm1_transforms_cost_more_than_rm3() {
        let cfg = LabConfig::tiny();
        let rm1 = RmLab::build(RmClass::Rm1, cfg);
        let rm3 = RmLab::build(RmClass::Rm3, cfg);
        let r1 = rm1.measure_worker(&rm1.session_spec(rm1.rc_projection(), 64));
        let r3 = rm3.measure_worker(&rm3.session_spec(rm3.rc_projection(), 64));
        let t1 = r1.transform_cycles / r1.samples as f64;
        let t3 = r3.transform_cycles / r3.samples as f64;
        assert!(
            t1 > t3,
            "RM1 transform cycles/sample {t1:.0} should exceed RM3 {t3:.0}"
        );
    }

    #[test]
    fn dedup_lab_shrinks_storage_on_sessionized_data() {
        let cfg = LabConfig {
            features: 40,
            days: 1,
            rows_per_day: 4096,
            rows_per_stripe: 4096,
            seed: 0xd0d0,
        };
        let dcfg = dedup::DedupConfig::with_ratio(4.0);
        let raw = WriterOptions {
            compressed: false,
            encrypted: false,
            rows_per_stripe: cfg.rows_per_stripe,
            ..Default::default()
        };
        let off = RmLab::build_dedup(RmClass::Rm1, cfg, Some(raw.clone()), Some(dcfg));
        let on = RmLab::build_dedup(
            RmClass::Rm1,
            cfg,
            Some(WriterOptions {
                dedup: true,
                dedup_window: dcfg.session_window,
                ..raw
            }),
            Some(dcfg),
        );
        let (b_off, b_on) = (
            off.table.total_encoded_bytes(),
            on.table.total_encoded_bytes(),
        );
        assert!(
            b_off as f64 >= 2.0 * b_on as f64,
            "4x-duplicated lab should dedup >=2x on disk ({b_off} vs {b_on})"
        );
        assert_eq!(off.table.total_rows(), on.table.total_rows());
    }
}
