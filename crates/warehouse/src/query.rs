//! A small interactive query engine over warehouse tables.
//!
//! §III-A: the warehouse must serve more than training — ranking engineers
//! run interactive Spark/Presto queries against the same tables as part of
//! feature engineering. This module is that interoperability path: ad-hoc
//! filtered aggregations executing over the very same DWRF files and scan
//! planner the training pipeline uses.

use crate::scan::ScanStats;
use crate::table::Table;
use dsi_types::{DsiError, FeatureId, PartitionId, Projection, Result, Sample};
use std::collections::BTreeMap;
use std::ops::Range;

/// A row predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Keep every row.
    True,
    /// `label == value` (e.g. clicked samples).
    LabelEq(f32),
    /// Dense feature present and strictly greater than a threshold.
    DenseGt(FeatureId, f32),
    /// Sparse feature present with at least `min_len` values.
    SparseMinLen(FeatureId, usize),
    /// Both sub-predicates hold.
    And(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// Evaluates the predicate on one sample.
    pub fn eval(&self, s: &Sample) -> bool {
        match self {
            Predicate::True => true,
            Predicate::LabelEq(v) => s.label() == *v,
            Predicate::DenseGt(f, t) => s.dense(*f).is_some_and(|v| v > *t),
            Predicate::SparseMinLen(f, n) => s.sparse(*f).is_some_and(|l| l.len() >= *n),
            Predicate::And(a, b) => a.eval(s) && b.eval(s),
        }
    }

    /// If the predicate requires `label == v` to hold, returns `v` (used
    /// for stripe skipping via the footer's label statistics).
    pub fn required_label(&self) -> Option<f32> {
        match self {
            Predicate::LabelEq(v) => Some(*v),
            Predicate::And(a, b) => a.required_label().or_else(|| b.required_label()),
            _ => None,
        }
    }

    /// Features the predicate needs to read.
    fn required_features(&self, out: &mut Vec<FeatureId>) {
        match self {
            Predicate::True | Predicate::LabelEq(_) => {}
            Predicate::DenseGt(f, _) | Predicate::SparseMinLen(f, _) => out.push(*f),
            Predicate::And(a, b) => {
                a.required_features(out);
                b.required_features(out);
            }
        }
    }
}

/// An aggregation over the filtered rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aggregate {
    /// Row count.
    Count,
    /// Mean label (click-through rate).
    MeanLabel,
    /// Mean of a dense feature over rows where it is present.
    MeanDense(FeatureId),
    /// Mean list length of a sparse feature over rows where present.
    MeanSparseLen(FeatureId),
    /// Coverage: fraction of rows where the feature is present.
    Coverage(FeatureId),
}

impl Aggregate {
    fn required_feature(&self) -> Option<FeatureId> {
        match self {
            Aggregate::Count | Aggregate::MeanLabel => None,
            Aggregate::MeanDense(f) | Aggregate::MeanSparseLen(f) | Aggregate::Coverage(f) => {
                Some(*f)
            }
        }
    }
}

/// One aggregate's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateValue {
    /// The aggregate computed.
    pub aggregate: Aggregate,
    /// Its value (`NaN` when undefined, e.g. mean over zero rows).
    pub value: f64,
}

/// The result of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Rows scanned (before the predicate).
    pub rows_scanned: u64,
    /// Rows passing the predicate.
    pub rows_matched: u64,
    /// One value per requested aggregate, in request order.
    pub aggregates: Vec<AggregateValue>,
    /// Storage-side scan accounting (queries share the training IO path).
    pub scan: ScanStats,
}

/// An ad-hoc interactive query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Partition (row) filter.
    pub partitions: Range<PartitionId>,
    /// Row predicate.
    pub predicate: Predicate,
    /// Aggregations to compute.
    pub aggregates: Vec<Aggregate>,
}

impl Query {
    /// Creates a query over a partition range.
    pub fn new(partitions: Range<PartitionId>) -> Self {
        Self {
            partitions,
            predicate: Predicate::True,
            aggregates: vec![Aggregate::Count],
        }
    }

    /// Sets the predicate (builder-style).
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// Sets the aggregations (builder-style).
    pub fn select(mut self, aggregates: Vec<Aggregate>) -> Self {
        self.aggregates = aggregates;
        self
    }

    /// The minimal feature projection the query needs — queries enjoy the
    /// same storage-level column filtering as training jobs.
    pub fn projection(&self) -> Projection {
        let mut ids = Vec::new();
        self.predicate.required_features(&mut ids);
        for a in &self.aggregates {
            ids.extend(a.required_feature());
        }
        Projection::new(ids)
    }

    /// Executes the query against a table.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::InvalidSpec`] for an empty aggregate list, or
    /// propagates storage failures.
    pub fn execute(&self, table: &Table) -> Result<QueryResult> {
        if self.aggregates.is_empty() {
            return Err(DsiError::invalid_spec("query selects no aggregates"));
        }
        let scan = table.scan(self.partitions.clone(), self.projection());
        let mut stats = ScanStats::default();
        let mut rows_scanned = 0u64;
        let mut rows_matched = 0u64;
        // Accumulators per aggregate: (sum, count).
        let mut acc: Vec<(f64, u64)> = vec![(0.0, 0); self.aggregates.len()];
        let label_eq = self.predicate.required_label();
        for split in scan.plan_splits() {
            // Stripe skipping: the footer's label statistics prove some
            // stripes cannot match an equality predicate on the label.
            if let Some(v) = label_eq {
                if !split.footer.stripes[split.stripe].may_contain_label(v) {
                    continue;
                }
            }
            let (rows, plan) = scan.read_split(&split)?;
            stats.absorb(rows.len() as u64, &plan);
            for row in &rows {
                rows_scanned += 1;
                if !self.predicate.eval(row) {
                    continue;
                }
                rows_matched += 1;
                for (a, slot) in self.aggregates.iter().zip(&mut acc) {
                    match a {
                        Aggregate::Count => {
                            slot.0 += 1.0;
                            slot.1 += 1;
                        }
                        Aggregate::MeanLabel => {
                            slot.0 += row.label() as f64;
                            slot.1 += 1;
                        }
                        Aggregate::MeanDense(f) => {
                            if let Some(v) = row.dense(*f) {
                                slot.0 += v as f64;
                                slot.1 += 1;
                            }
                        }
                        Aggregate::MeanSparseLen(f) => {
                            if let Some(l) = row.sparse(*f) {
                                slot.0 += l.len() as f64;
                                slot.1 += 1;
                            }
                        }
                        Aggregate::Coverage(f) => {
                            if row.contains(*f) {
                                slot.0 += 1.0;
                            }
                            slot.1 += 1;
                        }
                    }
                }
            }
        }
        let aggregates = self
            .aggregates
            .iter()
            .zip(acc)
            .map(|(a, (sum, count))| {
                let value = match a {
                    Aggregate::Count => sum,
                    _ if count == 0 => f64::NAN,
                    _ => sum / count as f64,
                };
                AggregateValue {
                    aggregate: *a,
                    value,
                }
            })
            .collect();
        Ok(QueryResult {
            rows_scanned,
            rows_matched,
            aggregates,
            scan: stats,
        })
    }
}

/// Per-partition daily row counts — the "how fresh is this table" query
/// every engineer runs first.
pub fn partition_row_counts(table: &Table) -> BTreeMap<PartitionId, u64> {
    table
        .partitions()
        .into_iter()
        .map(|p| {
            let rows = table.partition_files(p).iter().map(|f| f.rows).sum();
            (p, rows)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableConfig;
    use dsi_types::{SparseList, TableId};
    use tectonic::{ClusterConfig, TectonicCluster};

    fn build_table() -> Table {
        let cluster = TectonicCluster::new(ClusterConfig::small());
        let table = Table::create(cluster, TableConfig::new(TableId(4), "q")).unwrap();
        for day in 0..3u32 {
            let samples: Vec<Sample> = (0..100u64)
                .map(|i| {
                    let mut s = Sample::new(if i % 5 == 0 { 1.0 } else { 0.0 });
                    s.set_dense(FeatureId(1), i as f32);
                    if i % 2 == 0 {
                        s.set_sparse(FeatureId(2), SparseList::from_ids((0..(i % 7)).collect()));
                    }
                    s
                })
                .collect();
            table
                .write_partition(PartitionId::new(day), samples)
                .unwrap();
        }
        table
    }

    #[test]
    fn count_and_ctr() {
        let table = build_table();
        let result = Query::new(PartitionId::new(0)..PartitionId::new(3))
            .select(vec![Aggregate::Count, Aggregate::MeanLabel])
            .execute(&table)
            .unwrap();
        assert_eq!(result.rows_scanned, 300);
        assert_eq!(result.rows_matched, 300);
        assert_eq!(result.aggregates[0].value, 300.0);
        assert!((result.aggregates[1].value - 0.2).abs() < 1e-9); // 1 in 5 clicked
    }

    #[test]
    fn predicate_filters_rows() {
        let table = build_table();
        let result = Query::new(PartitionId::new(0)..PartitionId::new(3))
            .filter(Predicate::And(
                Box::new(Predicate::LabelEq(1.0)),
                Box::new(Predicate::DenseGt(FeatureId(1), 50.0)),
            ))
            .select(vec![Aggregate::Count])
            .execute(&table)
            .unwrap();
        // Clicked (i % 5 == 0) and i > 50: i in {55, 60, ..., 95} -> 9 per day... i%5==0 and i>50: 55..95 step 5 = 9.
        assert_eq!(result.rows_matched, 3 * 9);
    }

    #[test]
    fn feature_statistics() {
        let table = build_table();
        let result = Query::new(PartitionId::new(0)..PartitionId::new(1))
            .select(vec![
                Aggregate::Coverage(FeatureId(2)),
                Aggregate::MeanSparseLen(FeatureId(2)),
                Aggregate::MeanDense(FeatureId(1)),
            ])
            .execute(&table)
            .unwrap();
        assert!((result.aggregates[0].value - 0.5).abs() < 1e-9);
        assert!(result.aggregates[1].value > 0.0);
        assert!((result.aggregates[2].value - 49.5).abs() < 1e-9);
    }

    #[test]
    fn query_reads_only_needed_columns() {
        let table = build_table();
        let q =
            Query::new(PartitionId::new(0)..PartitionId::new(3)).select(vec![Aggregate::MeanLabel]);
        assert!(q.projection().is_empty()); // labels ride along free
        let result = q.execute(&table).unwrap();
        // Scan fetched fewer bytes than a query touching both features.
        let wide = Query::new(PartitionId::new(0)..PartitionId::new(3))
            .select(vec![
                Aggregate::MeanDense(FeatureId(1)),
                Aggregate::MeanSparseLen(FeatureId(2)),
            ])
            .execute(&table)
            .unwrap();
        assert!(result.scan.wanted_bytes < wide.scan.wanted_bytes);
    }

    #[test]
    fn empty_aggregates_rejected_and_nan_for_empty_mean() {
        let table = build_table();
        assert!(Query::new(PartitionId::new(0)..PartitionId::new(1))
            .select(vec![])
            .execute(&table)
            .is_err());
        let result = Query::new(PartitionId::new(0)..PartitionId::new(1))
            .filter(Predicate::DenseGt(FeatureId(1), 1e9))
            .select(vec![Aggregate::MeanDense(FeatureId(1))])
            .execute(&table)
            .unwrap();
        assert_eq!(result.rows_matched, 0);
        assert!(result.aggregates[0].value.is_nan());
    }

    #[test]
    fn label_statistics_skip_stripes() {
        // Negatives in the first stripes, positives only in the last: an
        // equality predicate on the label must not even read the early
        // stripes.
        let cluster = TectonicCluster::new(ClusterConfig::small());
        let opts = dwrf::WriterOptions {
            rows_per_stripe: 50,
            ..Default::default()
        };
        let table = Table::create(
            cluster,
            TableConfig::new(TableId(5), "skip").with_writer_options(opts),
        )
        .unwrap();
        let samples: Vec<Sample> = (0..200u64)
            .map(|i| {
                let mut s = Sample::new(if i >= 150 { 1.0 } else { 0.0 });
                s.set_dense(FeatureId(1), i as f32);
                s
            })
            .collect();
        table.write_partition(PartitionId::new(0), samples).unwrap();

        let clicked = Query::new(PartitionId::new(0)..PartitionId::new(1))
            .filter(Predicate::LabelEq(1.0))
            .select(vec![Aggregate::Count])
            .execute(&table)
            .unwrap();
        assert_eq!(clicked.rows_matched, 50);
        // Only the final stripe was decoded.
        assert_eq!(clicked.rows_scanned, 50);
        assert_eq!(clicked.scan.splits, 1);

        let all = Query::new(PartitionId::new(0)..PartitionId::new(1))
            .select(vec![Aggregate::Count])
            .execute(&table)
            .unwrap();
        assert_eq!(all.rows_scanned, 200);
        assert!(clicked.scan.read_bytes < all.scan.read_bytes);
    }

    #[test]
    fn partition_counts() {
        let table = build_table();
        let counts = partition_row_counts(&table);
        assert_eq!(counts.len(), 3);
        assert!(counts.values().all(|&c| c == 100));
    }
}
