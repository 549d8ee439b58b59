//! Scan planning and execution: partition pruning, feature projection, and
//! self-contained splits.
//!
//! A **split** is the unit of work the DPP Master hands to Workers: one
//! stripe of one file of one partition, carrying everything a stateless
//! Worker needs to extract its rows (path, footer, projection). Splits
//! partition the selected rows exactly — every selected row appears in
//! exactly one split.

use crate::table::Table;
use dsi_types::{ColumnBatch, PartitionId, Projection, Result, Sample};
use dwrf::writer::FileFooter;
use dwrf::{CoalescePolicy, FetchedStripe, FileReader, IoPlan};
use std::ops::Range;
use std::sync::Arc;
use tectonic::TectonicSource;

/// A self-contained unit of scan work: one stripe of one partition file.
#[derive(Debug, Clone)]
pub struct Split {
    /// Sequence number within the scan (0-based, dataset order).
    pub index: u64,
    /// Partition the rows belong to.
    pub partition: PartitionId,
    /// Tectonic path of the file.
    pub path: String,
    /// The file's footer (shared).
    pub footer: Arc<FileFooter>,
    /// Stripe index within the file.
    pub stripe: usize,
    /// Rows in this split.
    pub rows: u64,
}

/// Accumulated IO accounting for a scan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScanStats {
    /// Splits executed.
    pub splits: u64,
    /// Rows decoded.
    pub rows: u64,
    /// Bytes the projection wanted.
    pub wanted_bytes: u64,
    /// Bytes transferred (≥ wanted with coalescing).
    pub read_bytes: u64,
    /// IO operations issued.
    pub ios: u64,
    /// Bytes memcpy'd on the decode path: only reads that span Tectonic
    /// blocks and in-flight corruption copy, so this is usually 0.
    pub copied_bytes: u64,
}

impl ScanStats {
    /// Mean IO size in bytes.
    pub fn mean_io_size(&self) -> f64 {
        if self.ios == 0 {
            0.0
        } else {
            self.read_bytes as f64 / self.ios as f64
        }
    }

    /// Folds one executed plan into the stats.
    pub fn absorb(&mut self, rows: u64, plan: &IoPlan) {
        self.splits += 1;
        self.rows += rows;
        self.wanted_bytes += plan.wanted_bytes;
        self.read_bytes += plan.read_bytes;
        self.ios += plan.io_count() as u64;
        self.copied_bytes += plan.copied_bytes;
    }
}

/// A split fetched by [`TableScan::fetch_split`], waiting to be decoded:
/// the stripe's bytes and the reader that decodes them, which carries the
/// table's registry, the job label and the split's trace context.
#[derive(Debug)]
pub struct FetchedSplit {
    reader: FileReader,
    stripe: FetchedStripe,
}

/// A planned scan over a table.
#[derive(Debug, Clone)]
pub struct TableScan {
    table: Table,
    partitions: Range<PartitionId>,
    projection: Projection,
    policy: CoalescePolicy,
    job: Option<Arc<str>>,
}

impl TableScan {
    pub(crate) fn new(
        table: Table,
        partitions: Range<PartitionId>,
        projection: Projection,
    ) -> Self {
        Self {
            table,
            partitions,
            projection,
            policy: CoalescePolicy::default_window(),
            job: None,
        }
    }

    /// Overrides the coalescing policy (builder-style).
    pub fn with_policy(mut self, policy: CoalescePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Labels the scan's session-scoped metric publications (the DWRF
    /// decode series) with the owning job (builder-style). Sessions
    /// sharing one registry under the fleet control plane set this to
    /// their session id; an empty `job` keeps them unlabeled.
    pub fn with_job(mut self, job: &str) -> Self {
        if !job.is_empty() {
            self.job = Some(job.into());
        }
        self
    }

    /// The scan's projection.
    pub fn projection(&self) -> &Projection {
        &self.projection
    }

    /// The scan's coalescing policy.
    pub fn policy(&self) -> CoalescePolicy {
        self.policy
    }

    /// Enumerates the scan's splits in dataset order.
    pub fn plan_splits(&self) -> Vec<Split> {
        let mut splits = Vec::new();
        let mut index = 0u64;
        for partition in self.table.partitions() {
            if partition < self.partitions.start || partition >= self.partitions.end {
                continue; // partition pruning (row filter)
            }
            for file in self.table.partition_files(partition) {
                for (stripe, meta) in file.footer.stripes.iter().enumerate() {
                    splits.push(Split {
                        index,
                        partition,
                        path: file.path.clone(),
                        footer: Arc::clone(&file.footer),
                        stripe,
                        rows: meta.row_count,
                    });
                    index += 1;
                }
            }
        }
        splits
    }

    /// Executes one split, returning its decoded rows and the IO plan.
    ///
    /// Reads go through the table's SSD cache tier when one is attached.
    ///
    /// # Errors
    ///
    /// Propagates storage and decode failures.
    pub fn read_split(&self, split: &Split) -> Result<(Vec<Sample>, IoPlan)> {
        let (reader, mut source) = self.open_split(split, None);
        reader.read_stripe_from(
            split.stripe,
            Some(&self.projection),
            self.policy,
            &mut source,
        )
    }

    /// The storage half of reading one split's columns: the split's
    /// stripe read through the table's cache, nothing decoded yet.
    /// [`TableScan::decode_split`] finishes it, on any thread. Under a
    /// sampled `trace` context the read records a `StorageRead` span with
    /// a `TectonicIo` span per chunk beneath it, and the decode a
    /// `DwrfDecode` span, all parented under the context's span (the
    /// worker's extract span).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn fetch_split(
        &self,
        split: &Split,
        trace: Option<(dsi_obs::TraceContext, &dsi_obs::Registry)>,
    ) -> Result<FetchedSplit> {
        let (reader, mut source) = self.open_split(split, trace);
        let stripe = reader.fetch_stripe(
            split.stripe,
            Some(&self.projection),
            self.policy,
            &mut source,
        )?;
        Ok(FetchedSplit { reader, stripe })
    }

    /// The decode half: the split's columns and the executed IO plan.
    ///
    /// # Errors
    ///
    /// Propagates decode failures: a stream that fails its checksum or
    /// does not decode.
    pub fn decode_split(&self, fetched: FetchedSplit) -> Result<(ColumnBatch, IoPlan)> {
        fetched
            .reader
            .decode_fetched(fetched.stripe, Some(&self.projection))
    }

    /// The reader and the source one split is read through: the table's
    /// registry, job label and cache, and under a sampled `trace` the
    /// spans the read records.
    fn open_split(
        &self,
        split: &Split,
        trace: Option<(dsi_obs::TraceContext, &dsi_obs::Registry)>,
    ) -> (FileReader, TectonicSource) {
        // The footer is shared by reference: splits of the same file decode
        // against one parsed footer instead of cloning it per split.
        let mut reader = FileReader::from_footer(Arc::clone(&split.footer));
        if let Some(reg) = self.table.registry() {
            reader = reader.with_registry(&reg);
        }
        if let Some(job) = &self.job {
            reader = reader.with_job(job);
        }
        let mut source = TectonicSource::new(self.table.cluster().clone(), split.path.clone());
        if let Some(cache) = self.table.cache() {
            source = source.with_cache(cache);
        }
        if let Some((ctx, reg)) = trace.filter(|(ctx, _)| ctx.is_sampled()) {
            // Pre-allocate the StorageRead span id so per-chunk TectonicIo
            // spans can parent under it before the reader records it.
            let storage_span = dsi_obs::next_span_id();
            reader = reader.with_trace(reg, ctx, split.index, storage_span);
            let storage_ctx = dsi_obs::TraceContext {
                trace_id: ctx.trace_id,
                span_id: storage_span,
            };
            source = source.with_trace(reg, storage_ctx, split.index);
        }
        (reader, source)
    }

    /// Executes the whole scan serially, returning all rows.
    ///
    /// # Errors
    ///
    /// Propagates storage and decode failures.
    pub fn read_all(&self) -> Result<Vec<Sample>> {
        let (rows, _) = self.read_all_with_stats()?;
        Ok(rows)
    }

    /// Executes the whole scan serially, returning rows plus IO accounting.
    ///
    /// # Errors
    ///
    /// Propagates storage and decode failures.
    pub fn read_all_with_stats(&self) -> Result<(Vec<Sample>, ScanStats)> {
        let mut stats = ScanStats::default();
        let mut rows = Vec::new();
        for split in self.plan_splits() {
            let (mut batch, plan) = self.read_split(&split)?;
            stats.absorb(batch.len() as u64, &plan);
            rows.append(&mut batch);
        }
        Ok((rows, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Table, TableConfig};
    use dsi_types::{FeatureId, SparseList, TableId};
    use dwrf::WriterOptions;
    use tectonic::{ClusterConfig, TectonicCluster};

    fn build_table(rows_per_stripe: usize) -> Table {
        let cluster = TectonicCluster::new(ClusterConfig::small());
        let opts = WriterOptions {
            rows_per_stripe,
            ..Default::default()
        };
        let table = Table::create(
            cluster,
            TableConfig::new(TableId(1), "scan_test").with_writer_options(opts),
        )
        .unwrap();
        for day in 0..4u32 {
            let samples: Vec<Sample> = (0..25u64)
                .map(|i| {
                    let mut s = Sample::new((day as u64 * 25 + i) as f32);
                    s.set_dense(FeatureId(1), i as f32);
                    s.set_sparse(FeatureId(2), SparseList::from_ids(vec![i, i * 2]));
                    s.set_dense(FeatureId(3), day as f32);
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
    fn splits_cover_selected_rows_exactly_once() {
        let table = build_table(10);
        let scan = table.scan(
            PartitionId::new(1)..PartitionId::new(3),
            Projection::new(vec![FeatureId(1)]),
        );
        let splits = scan.plan_splits();
        // 2 partitions × 25 rows at 10 rows/stripe = 3 stripes each.
        assert_eq!(splits.len(), 6);
        assert_eq!(splits.iter().map(|s| s.rows).sum::<u64>(), 50);
        // Indices are sequential.
        for (i, s) in splits.iter().enumerate() {
            assert_eq!(s.index, i as u64);
        }
        // Rows decode exactly once: labels 25..75.
        let rows = scan.read_all().unwrap();
        let mut labels: Vec<u32> = rows.iter().map(|s| s.label() as u32).collect();
        labels.sort_unstable();
        assert_eq!(labels, (25..75).collect::<Vec<_>>());
    }

    #[test]
    fn partition_pruning_excludes_range() {
        let table = build_table(100);
        let scan = table.scan(
            PartitionId::new(0)..PartitionId::new(1),
            Projection::new(vec![FeatureId(3)]),
        );
        let rows = scan.read_all().unwrap();
        assert_eq!(rows.len(), 25);
        assert!(rows.iter().all(|s| s.dense(FeatureId(3)) == Some(0.0)));
    }

    #[test]
    fn projection_filters_columns_and_reduces_bytes() {
        let table = build_table(100);
        let narrow = table
            .scan(
                PartitionId::new(0)..PartitionId::new(4),
                Projection::new(vec![FeatureId(1)]),
            )
            .with_policy(CoalescePolicy::None);
        let wide = table
            .scan(
                PartitionId::new(0)..PartitionId::new(4),
                Projection::new(vec![FeatureId(1), FeatureId(2), FeatureId(3)]),
            )
            .with_policy(CoalescePolicy::None);
        let (rows, narrow_stats) = narrow.read_all_with_stats().unwrap();
        let (_, wide_stats) = wide.read_all_with_stats().unwrap();
        assert!(narrow_stats.wanted_bytes < wide_stats.wanted_bytes);
        assert!(rows[0].sparse(FeatureId(2)).is_none());
        assert!(rows[0].dense(FeatureId(1)).is_some());
    }

    #[test]
    fn coalescing_trades_ios_for_bytes() {
        let table = build_table(100);
        let proj = Projection::new(vec![FeatureId(1), FeatureId(3)]);
        let none = table
            .scan(PartitionId::new(0)..PartitionId::new(4), proj.clone())
            .with_policy(CoalescePolicy::None);
        let coalesced = table
            .scan(PartitionId::new(0)..PartitionId::new(4), proj)
            .with_policy(CoalescePolicy::default_window());
        let (_, a) = none.read_all_with_stats().unwrap();
        let (_, b) = coalesced.read_all_with_stats().unwrap();
        assert!(b.ios <= a.ios);
        assert!(b.read_bytes >= b.wanted_bytes);
        assert_eq!(a.wanted_bytes, b.wanted_bytes);
        assert!(b.mean_io_size() >= a.mean_io_size());
    }

    #[test]
    fn empty_range_yields_no_splits() {
        let table = build_table(10);
        let scan = table.scan(
            PartitionId::new(2)..PartitionId::new(2),
            Projection::new(vec![FeatureId(1)]),
        );
        assert!(scan.plan_splits().is_empty());
        assert!(scan.read_all().unwrap().is_empty());
    }

    #[test]
    fn cache_tier_absorbs_repeat_jobs() {
        // Two "jobs" with overlapping projections: the second job's reads
        // of shared (popular) features hit the SSD cache, sparing HDDs.
        let table = build_table(50);
        table.attach_cache(tectonic::SsdCache::new(dsi_types::ByteSize::mib(64)));
        let proj = Projection::new(vec![FeatureId(1), FeatureId(2)]);
        let first = table
            .scan(PartitionId::new(0)..PartitionId::new(4), proj.clone())
            .read_all()
            .unwrap();
        assert_eq!(first.len(), 100);
        let cache = table.cache().unwrap();
        let misses_after_first = cache.stats().misses;
        table.cluster().reset_stats();
        let second = table
            .scan(PartitionId::new(0)..PartitionId::new(4), proj)
            .read_all()
            .unwrap();
        assert_eq!(second.len(), 100);
        // All pages were hot: no new misses, no HDD traffic.
        assert_eq!(cache.stats().misses, misses_after_first);
        assert_eq!(table.cluster().total_stats().ios, 0);
        assert!(cache.stats().hit_rate() > 0.4);
    }

    #[test]
    fn attached_registry_sees_scan_decode_telemetry() {
        let table = build_table(50);
        let reg = dsi_obs::Registry::new();
        table.attach_registry(&reg);
        let scan = table.scan(
            PartitionId::new(0)..PartitionId::new(4),
            Projection::new(vec![FeatureId(1), FeatureId(2)]),
        );
        let (_, stats) = scan.read_all_with_stats().unwrap();
        assert_eq!(
            reg.counter_value(dsi_obs::names::DWRF_STRIPES_DECODED_TOTAL, &[]),
            stats.splits
        );
        assert_eq!(
            reg.counter_value(dsi_obs::names::DWRF_READ_BYTES_TOTAL, &[]),
            stats.read_bytes
        );
        let extract = reg
            .histogram(dsi_obs::span::STAGE_SECONDS, &[("stage", "extract")])
            .snapshot();
        assert_eq!(extract.count, stats.splits);
    }

    #[test]
    fn traced_split_read_builds_storage_span_subtree() {
        let table = build_table(25);
        let scan = table.scan(
            PartitionId::new(0)..PartitionId::new(1),
            Projection::new(vec![FeatureId(1), FeatureId(2)]),
        );
        let split = &scan.plan_splits()[0];
        let reg = dsi_obs::Registry::new();
        let extract_ctx = dsi_obs::TraceContext {
            trace_id: 0xACE,
            span_id: 500,
        };
        let fetched = scan.fetch_split(split, Some((extract_ctx, &reg))).unwrap();
        let (columns, _) = scan.decode_split(fetched).unwrap();
        assert_eq!(columns.len(), 25);

        let spans = reg.trace_spans();
        let storage: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == dsi_obs::SpanKind::StorageRead)
            .collect();
        let decode: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == dsi_obs::SpanKind::DwrfDecode)
            .collect();
        let io: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == dsi_obs::SpanKind::TectonicIo)
            .collect();
        assert_eq!(storage.len(), 1);
        assert_eq!(decode.len(), 1);
        assert!(!io.is_empty());
        assert_eq!(storage[0].parent_id, 500);
        assert_eq!(decode[0].parent_id, 500);
        for s in &io {
            assert_eq!(s.parent_id, storage[0].span_id, "io under StorageRead");
        }
        assert!(spans.iter().all(|s| s.trace_id == 0xACE));
        assert!(spans.iter().all(|s| s.split == split.index));

        // Unsampled context records nothing.
        let reg2 = dsi_obs::Registry::new();
        let fetched = scan
            .fetch_split(split, Some((dsi_obs::TraceContext::NONE, &reg2)))
            .unwrap();
        scan.decode_split(fetched).unwrap();
        assert!(reg2.trace_spans().is_empty());
    }

    #[test]
    fn scan_charges_storage_nodes() {
        let table = build_table(50);
        table.cluster().reset_stats();
        let scan = table.scan(
            PartitionId::new(0)..PartitionId::new(4),
            Projection::new(vec![FeatureId(2)]),
        );
        let (_, stats) = scan.read_all_with_stats().unwrap();
        let device = table.cluster().total_stats();
        assert_eq!(device.bytes, stats.read_bytes);
        assert!(device.busy_ns > 0);
    }
}
