//! Calibrated profiles for the three production recommendation models.
//!
//! Every number here is taken from the paper's tables:
//!
//! * Table III — compressed partition sizes (all / each / used, PB);
//! * Table IV — features required by a release-candidate model version;
//! * Table V — features logged in the dataset, sparse coverage and length,
//!   and the fraction of features/bytes an individual job reads;
//! * Table VIII — per-trainer-node GPU ingestion demand (GB/s);
//! * Table IX — DPP Worker saturation throughput on a C-v1 node.

use dsi_types::{ByteSize, FeatureDef, FeatureId, Schema, PIB};
use std::fmt;

/// Which production model a profile describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmClass {
    /// RM1: largest feature demand, memory-bandwidth/CPU-bound preprocessing.
    Rm1,
    /// RM2: network-bound preprocessing.
    Rm2,
    /// RM3: high QPS, memory-capacity-bound preprocessing.
    Rm3,
}

impl fmt::Display for RmClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RmClass::Rm1 => f.write_str("RM1"),
            RmClass::Rm2 => f.write_str("RM2"),
            RmClass::Rm3 => f.write_str("RM3"),
        }
    }
}

/// Calibrated characteristics of one production model and its dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct RmProfile {
    /// Model class.
    pub class: RmClass,
    // ----- Table V: dataset (logged) characteristics -----
    /// Float (dense) features logged in the table.
    pub dataset_float_features: u32,
    /// Sparse features logged in the table.
    pub dataset_sparse_features: u32,
    /// Mean coverage of sparse features (fraction of samples present).
    pub sparse_coverage: f64,
    /// Mean sparse list length.
    pub sparse_avg_len: f64,
    /// Fraction of stored features an individual job reads.
    pub feats_used_fraction: f64,
    /// Fraction of stored bytes an individual job reads.
    pub bytes_used_fraction: f64,
    // ----- Table IV: model feature demand -----
    /// Dense features required by a release-candidate model.
    pub model_dense_features: u32,
    /// Sparse features required by a release-candidate model.
    pub model_sparse_features: u32,
    /// Derived features computed by online preprocessing.
    pub model_derived_features: u32,
    // ----- Table III: partition sizes (compressed) -----
    /// All table partitions.
    pub all_partitions: ByteSize,
    /// One partition (per day).
    pub each_partition: ByteSize,
    /// Partitions used by a representative release-candidate job.
    pub used_partitions: ByteSize,
    // ----- Table VIII -----
    /// Per-trainer-node GPU ingestion demand in bytes/second.
    pub trainer_node_demand: f64,
    // ----- Table IX: DPP Worker saturation on C-v1 -----
    /// Worker throughput in samples (queries) per second.
    pub worker_kqps: f64,
    /// Compressed bytes/second read from storage at saturation.
    pub worker_storage_rx: f64,
    /// Uncompressed bytes/second entering transform at saturation.
    pub worker_transform_rx: f64,
    /// Tensor bytes/second leaving the worker at saturation.
    pub worker_transform_tx: f64,
    /// Workers required per trainer node (Table IX, derived).
    pub workers_per_trainer: f64,
    // ----- Fig. 7 calibration -----
    /// Fraction of dataset bytes every job reads (the shared core).
    pub core_byte_fraction: f64,
    /// Additional byte fraction each job samples from the popularity tail.
    pub tail_byte_fraction: f64,
    /// Fraction of bytes that absorb 80% of traffic (Fig. 7 report point).
    pub popular_bytes_for_80pct_traffic: f64,
}

impl RmProfile {
    /// The RM1 profile.
    pub fn rm1() -> Self {
        Self {
            class: RmClass::Rm1,
            dataset_float_features: 12_115,
            dataset_sparse_features: 1_763,
            sparse_coverage: 0.45,
            sparse_avg_len: 25.97,
            feats_used_fraction: 0.11,
            bytes_used_fraction: 0.37,
            model_dense_features: 1_221,
            model_sparse_features: 298,
            model_derived_features: 304,
            all_partitions: ByteSize((13.45 * PIB as f64) as u64),
            each_partition: ByteSize((0.15 * PIB as f64) as u64),
            used_partitions: ByteSize((11.95 * PIB as f64) as u64),
            trainer_node_demand: 16.50e9,
            worker_kqps: 11.623,
            worker_storage_rx: 0.8e9,
            worker_transform_rx: 1.37e9,
            worker_transform_tx: 0.68e9,
            workers_per_trainer: 24.16,
            core_byte_fraction: 0.25,
            tail_byte_fraction: 0.12,
            popular_bytes_for_80pct_traffic: 0.39,
        }
    }

    /// The RM2 profile.
    pub fn rm2() -> Self {
        Self {
            class: RmClass::Rm2,
            dataset_float_features: 12_596,
            dataset_sparse_features: 1_817,
            sparse_coverage: 0.41,
            sparse_avg_len: 25.57,
            feats_used_fraction: 0.10,
            bytes_used_fraction: 0.34,
            model_dense_features: 1_113,
            model_sparse_features: 306,
            model_derived_features: 317,
            all_partitions: ByteSize((29.18 * PIB as f64) as u64),
            each_partition: ByteSize((0.32 * PIB as f64) as u64),
            used_partitions: ByteSize((25.94 * PIB as f64) as u64),
            trainer_node_demand: 4.69e9,
            worker_kqps: 7.995,
            worker_storage_rx: 1.2e9,
            worker_transform_rx: 0.96e9,
            worker_transform_tx: 0.50e9,
            workers_per_trainer: 9.44,
            core_byte_fraction: 0.22,
            tail_byte_fraction: 0.12,
            popular_bytes_for_80pct_traffic: 0.37,
        }
    }

    /// The RM3 profile.
    pub fn rm3() -> Self {
        Self {
            class: RmClass::Rm3,
            dataset_float_features: 5_707,
            dataset_sparse_features: 188,
            sparse_coverage: 0.29,
            sparse_avg_len: 19.64,
            feats_used_fraction: 0.09,
            bytes_used_fraction: 0.21,
            model_dense_features: 504,
            model_sparse_features: 42,
            model_derived_features: 1,
            all_partitions: ByteSize((2.93 * PIB as f64) as u64),
            each_partition: ByteSize((0.07 * PIB as f64) as u64),
            used_partitions: ByteSize((1.95 * PIB as f64) as u64),
            trainer_node_demand: 12.00e9,
            worker_kqps: 36.921,
            worker_storage_rx: 0.8e9,
            worker_transform_rx: 1.01e9,
            worker_transform_tx: 0.22e9,
            workers_per_trainer: 55.22,
            core_byte_fraction: 0.20,
            tail_byte_fraction: 0.015,
            popular_bytes_for_80pct_traffic: 0.18,
        }
    }

    /// All three profiles.
    pub fn all() -> Vec<RmProfile> {
        vec![Self::rm1(), Self::rm2(), Self::rm3()]
    }

    /// The profile for a class.
    pub fn of(class: RmClass) -> Self {
        match class {
            RmClass::Rm1 => Self::rm1(),
            RmClass::Rm2 => Self::rm2(),
            RmClass::Rm3 => Self::rm3(),
        }
    }

    /// Total features logged in the dataset.
    pub fn dataset_total_features(&self) -> u32 {
        self.dataset_float_features + self.dataset_sparse_features
    }

    /// Fraction of logged features that are sparse.
    pub fn sparse_feature_fraction(&self) -> f64 {
        self.dataset_sparse_features as f64 / self.dataset_total_features() as f64
    }

    /// Number of partitions in the table (all / each).
    pub fn partition_count(&self) -> u32 {
        (self.all_partitions.bytes() as f64 / self.each_partition.bytes() as f64).round() as u32
    }

    /// Number of partitions a representative job reads.
    pub fn used_partition_count(&self) -> u32 {
        (self.used_partitions.bytes() as f64 / self.each_partition.bytes() as f64).round() as u32
    }

    /// Builds a scaled-down schema with `total_features` features whose
    /// sparse fraction, coverage, and lengths follow this profile.
    ///
    /// Feature ids are assigned `0..total_features`; sparse features get
    /// ids interleaved deterministically so projections exercise both kinds.
    ///
    /// # Panics
    ///
    /// Panics if `total_features == 0`.
    pub fn build_schema(&self, total_features: u32) -> Schema {
        assert!(total_features > 0, "schema needs at least one feature");
        let sparse_every = (1.0 / self.sparse_feature_fraction()).round().max(1.0) as u32;
        let mut schema = Schema::new();
        let mut rng = dsi_types::rng::SplitMix64::new(0x5ca1e ^ self.dataset_float_features as u64);
        for i in 0..total_features {
            let id = FeatureId(i as u64);
            if i % sparse_every == sparse_every - 1 {
                // Sparse: lengths disperse log-normally around the profile
                // mean (the fleet holds both single-id flags and very long
                // engagement histories), coverage around the profile mean.
                let len = rng
                    .next_lognormal(self.sparse_avg_len * 0.75, 0.9)
                    .clamp(1.0, self.sparse_avg_len * 12.0);
                let cov = (self.sparse_coverage * (0.6 + 0.8 * rng.next_f64())).clamp(0.05, 1.0);
                schema.add(FeatureDef::sparse(id, len).with_coverage(cov));
            } else {
                // Most dense features are always present; a minority are
                // sparsely logged (small stored streams).
                let cov = if rng.chance(0.6) {
                    1.0
                } else {
                    0.1 + 0.9 * rng.next_f64()
                };
                schema.add(FeatureDef::dense(id).with_coverage(cov));
            }
        }
        schema
    }

    /// Fraction of logged dense features a model version reads
    /// (Table IV over Table V).
    pub fn dense_use_fraction(&self) -> f64 {
        self.model_dense_features as f64 / self.dataset_float_features as f64
    }

    /// Network amplification: bytes read from storage per tensor byte
    /// shipped (Table IX discussion: 1.18–3.64× more bandwidth to extract
    /// than to load).
    pub fn extract_to_load_ratio(&self) -> f64 {
        self.worker_storage_rx.max(self.worker_transform_rx) / self.worker_transform_tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_partition_counts_are_consistent() {
        for p in RmProfile::all() {
            let n = p.partition_count();
            assert!((40..=100).contains(&n), "{}: {n} partitions", p.class);
            assert!(p.used_partition_count() <= n);
        }
    }

    #[test]
    fn table_v_fractions_bound_table_iv_counts() {
        for p in RmProfile::all() {
            let used = (p.model_dense_features + p.model_sparse_features) as f64;
            let logged = p.dataset_total_features() as f64;
            let frac = used / logged;
            // Tables IV/V: jobs read ~9-11% of logged features.
            assert!(
                (0.05..=0.15).contains(&frac),
                "{}: used fraction {frac:.3}",
                p.class
            );
        }
    }

    #[test]
    fn trainer_demand_spans_over_3x() {
        let demands: Vec<f64> = RmProfile::all()
            .iter()
            .map(|p| p.trainer_node_demand)
            .collect();
        let max = demands.iter().cloned().fold(f64::MIN, f64::max);
        let min = demands.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 3.0);
    }

    #[test]
    fn extract_to_load_ratio_in_paper_band() {
        for p in RmProfile::all() {
            let r = p.extract_to_load_ratio();
            assert!(
                (1.18..=4.7).contains(&r),
                "{}: extract/load {r:.2}",
                p.class
            );
        }
    }

    #[test]
    fn schema_matches_profile_shape() {
        let p = RmProfile::rm1();
        let schema = p.build_schema(1000);
        assert_eq!(schema.len(), 1000);
        let sparse_frac = schema.sparse_count() as f64 / schema.len() as f64;
        assert!(
            (sparse_frac - p.sparse_feature_fraction()).abs() < 0.05,
            "sparse fraction {sparse_frac:.3}"
        );
        // Mean sparse length near the profile mean (log-normal dispersion
        // allows a wider band), with real spread across features.
        let lens: Vec<f64> = schema
            .iter()
            .filter(|d| d.kind.is_sparse())
            .map(|d| d.avg_len)
            .collect();
        let mean = lens.iter().sum::<f64>() / lens.len() as f64;
        assert!(
            (mean - p.sparse_avg_len).abs() / p.sparse_avg_len < 0.5,
            "mean sparse length {mean:.1} vs profile {:.1}",
            p.sparse_avg_len
        );
        let max = lens.iter().cloned().fold(0.0, f64::max);
        let min = lens.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min > 5.0,
            "lengths should disperse: {min:.1}..{max:.1}"
        );
    }

    #[test]
    fn sparse_features_dominate_bytes() {
        // >99% of stored bytes are features, and sparse features carry most
        // of them despite being a minority by count.
        let schema = RmProfile::rm1().build_schema(2000);
        let sparse_bytes: f64 = schema
            .iter()
            .filter(|d| d.kind.is_sparse())
            .map(|d| d.expected_bytes_per_row())
            .sum();
        let total = schema.expected_bytes_per_row();
        assert!(
            sparse_bytes / total > 0.7,
            "sparse byte share {:.2}",
            sparse_bytes / total
        );
    }

    #[test]
    fn profiles_differ() {
        assert_ne!(RmProfile::rm1(), RmProfile::rm2());
        assert_eq!(RmProfile::of(RmClass::Rm3).class, RmClass::Rm3);
    }
}
