//! Table statistics: the measurements behind Tables III and V.

use crate::table::Table;
use dsi_types::FeatureId;
use dsi_types::{ByteSize, PartitionId, Projection};
use dwrf::stream::FILE_LEVEL;
use std::collections::BTreeMap;
use std::ops::Range;

/// Size and selectivity statistics for a table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Encoded bytes of every partition.
    pub partition_bytes: BTreeMap<PartitionId, u64>,
    /// Total encoded bytes.
    pub total_bytes: u64,
    /// Total rows.
    pub total_rows: u64,
    /// Distinct features with stored streams.
    pub feature_count: usize,
}

impl TableStats {
    /// Computes stats for a table.
    pub fn collect(table: &Table) -> TableStats {
        let mut partition_bytes = BTreeMap::new();
        for p in table.partitions() {
            partition_bytes.insert(p, table.partition_encoded_bytes(p));
        }
        let mut features = std::collections::BTreeSet::new();
        for p in table.partitions() {
            for f in table.partition_files(p) {
                features.extend(f.footer.feature_ids());
            }
        }
        TableStats {
            partition_bytes,
            total_bytes: table.total_encoded_bytes(),
            total_rows: table.total_rows(),
            feature_count: features.len(),
        }
    }

    /// Mean encoded bytes per partition.
    pub fn mean_partition_bytes(&self) -> f64 {
        if self.partition_bytes.is_empty() {
            return 0.0;
        }
        self.total_bytes as f64 / self.partition_bytes.len() as f64
    }

    /// Encoded bytes in a partition range (the "used partitions" of a job).
    pub fn used_bytes(&self, range: Range<PartitionId>) -> ByteSize {
        ByteSize(
            self.partition_bytes
                .iter()
                .filter(|(p, _)| **p >= range.start && **p < range.end)
                .map(|(_, b)| *b)
                .sum(),
        )
    }
}

/// Measures the fraction of *stored stream bytes* a projection selects —
/// the ground-truth "% bytes used" of Table V, computed from the actual
/// file directories rather than schema expectations.
pub fn projected_byte_fraction(table: &Table, projection: &Projection) -> f64 {
    let mut selected = 0u64;
    let mut total = 0u64;
    for p in table.partitions() {
        for f in table.partition_files(p) {
            for stripe in &f.footer.stripes {
                for s in &stripe.streams {
                    total += s.len;
                    if s.feature == FILE_LEVEL || projection.contains(FeatureId(s.feature)) {
                        selected += s.len;
                    }
                }
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        selected as f64 / total as f64
    }
}

/// Measures the fraction of stored features a projection selects.
pub fn projected_feature_fraction(table: &Table, projection: &Projection) -> f64 {
    let mut features = std::collections::BTreeSet::new();
    for p in table.partitions() {
        for f in table.partition_files(p) {
            features.extend(f.footer.feature_ids());
        }
    }
    if features.is_empty() {
        return 0.0;
    }
    let hits = features.iter().filter(|f| projection.contains(**f)).count();
    hits as f64 / features.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Table, TableConfig};
    use dsi_types::{Sample, SparseList, TableId};
    use tectonic::{ClusterConfig, TectonicCluster};

    fn build() -> Table {
        let cluster = TectonicCluster::new(ClusterConfig::small());
        let t = Table::create(cluster, TableConfig::new(TableId(1), "stats")).unwrap();
        for day in 0..3u32 {
            let samples: Vec<Sample> = (0..20u64)
                .map(|i| {
                    let mut s = Sample::new(0.0);
                    s.set_dense(FeatureId(1), i as f32);
                    s.set_sparse(
                        FeatureId(2),
                        SparseList::from_ids((0..20).map(|k| k * i).collect()),
                    );
                    s.set_dense(FeatureId(3), 1.0);
                    s
                })
                .collect();
            t.write_partition(PartitionId::new(day), samples).unwrap();
        }
        t
    }

    #[test]
    fn stats_aggregate() {
        let t = build();
        let stats = TableStats::collect(&t);
        assert_eq!(stats.partition_bytes.len(), 3);
        assert_eq!(stats.total_rows, 60);
        assert_eq!(stats.feature_count, 3);
        assert!(stats.mean_partition_bytes() > 0.0);
        let used = stats.used_bytes(PartitionId::new(0)..PartitionId::new(2));
        assert!(used.bytes() < stats.total_bytes);
        assert!(used.bytes() > 0);
    }

    #[test]
    fn byte_fraction_tracks_feature_weight() {
        let t = build();
        // The long sparse feature (f2) dominates stored bytes.
        let heavy = projected_byte_fraction(&t, &Projection::new(vec![FeatureId(2)]));
        let light = projected_byte_fraction(&t, &Projection::new(vec![FeatureId(1)]));
        assert!(heavy > light);
        assert!(heavy > 0.5);
        // Feature fraction is count-based: 1/3 each.
        let ff = projected_feature_fraction(&t, &Projection::new(vec![FeatureId(1)]));
        assert!((ff - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn full_projection_selects_everything() {
        let t = build();
        let all = Projection::new(vec![FeatureId(1), FeatureId(2), FeatureId(3)]);
        assert!((projected_byte_fraction(&t, &all) - 1.0).abs() < 1e-9);
        assert!((projected_feature_fraction(&t, &all) - 1.0).abs() < 1e-9);
    }
}
