//! Tables: partitioned sample storage encoded as DWRF files in Tectonic.

use dsi_types::{DsiError, PartitionId, Projection, Result, Sample, Schema, TableId};
use dwrf::writer::FileFooter;
use dwrf::{FileWriter, WriterOptions};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use tectonic::TectonicCluster;

/// Configuration for creating a table.
#[derive(Debug, Clone)]
pub struct TableConfig {
    /// Table identity.
    pub id: TableId,
    /// Human-readable name (used in file paths).
    pub name: String,
    /// Logged feature schema (may be empty; schemas evolve).
    pub schema: Schema,
    /// DWRF writer options used for every partition file.
    pub writer_options: WriterOptions,
}

impl TableConfig {
    /// Creates a config with default writer options and an empty schema.
    pub fn new(id: TableId, name: impl Into<String>) -> Self {
        Self {
            id,
            name: name.into(),
            schema: Schema::new(),
            writer_options: WriterOptions::default(),
        }
    }

    /// Sets the schema (builder-style).
    pub fn with_schema(mut self, schema: Schema) -> Self {
        self.schema = schema;
        self
    }

    /// Sets the writer options (builder-style).
    pub fn with_writer_options(mut self, opts: WriterOptions) -> Self {
        self.writer_options = opts;
        self
    }
}

/// Metadata for one DWRF file within a partition.
#[derive(Debug, Clone)]
pub struct PartitionFile {
    /// Tectonic path of the file.
    pub path: String,
    /// Parsed DWRF footer (the name-node-cached file index).
    pub footer: Arc<FileFooter>,
    /// Rows stored.
    pub rows: u64,
    /// Encoded (compressed) size in bytes.
    pub encoded_bytes: u64,
}

pub(crate) struct TableInner {
    pub(crate) config: TableConfig,
    pub(crate) cluster: TectonicCluster,
    pub(crate) partitions: RwLock<BTreeMap<PartitionId, Vec<PartitionFile>>>,
    pub(crate) cache: RwLock<Option<tectonic::SsdCache>>,
    pub(crate) obs: RwLock<Option<dsi_obs::Registry>>,
}

/// A handle to a warehouse table (cheaply cloneable).
#[derive(Clone)]
pub struct Table {
    pub(crate) inner: Arc<TableInner>,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("id", &self.inner.config.id)
            .field("name", &self.inner.config.name)
            .field("partitions", &self.inner.partitions.read().len())
            .finish()
    }
}

impl Table {
    /// Creates an empty table backed by `cluster`.
    ///
    /// # Errors
    ///
    /// Currently infallible.
    pub fn create(cluster: TectonicCluster, config: TableConfig) -> Result<Table> {
        Ok(Table {
            inner: Arc::new(TableInner {
                config,
                cluster,
                partitions: RwLock::new(BTreeMap::new()),
                cache: RwLock::new(None),
                obs: RwLock::new(None),
            }),
        })
    }

    /// Attaches a metrics registry: every subsequent scan read publishes
    /// DWRF decode telemetry (stripes, bytes, stage timings) into it.
    pub fn attach_registry(&self, registry: &dsi_obs::Registry) {
        *self.inner.obs.write() = Some(registry.clone());
    }

    /// The attached metrics registry, if any.
    pub fn registry(&self) -> Option<dsi_obs::Registry> {
        self.inner.obs.read().clone()
    }

    /// The table id.
    pub fn id(&self) -> TableId {
        self.inner.config.id
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.inner.config.name
    }

    /// The backing cluster.
    pub fn cluster(&self) -> &TectonicCluster {
        &self.inner.cluster
    }

    /// The logged feature schema the table was created with.
    pub fn schema(&self) -> Schema {
        self.inner.config.schema.clone()
    }

    /// Writes a batch of samples as a new DWRF file in `partition`.
    ///
    /// Multiple writes to the same partition produce multiple files
    /// (hourly/daily ETL appends).
    ///
    /// # Errors
    ///
    /// Returns an error if `samples` is empty or storage is exhausted.
    pub fn write_partition(&self, partition: PartitionId, samples: Vec<Sample>) -> Result<()> {
        if samples.is_empty() {
            return Err(DsiError::invalid_spec(
                "cannot write an empty partition file",
            ));
        }
        let rows = samples.len() as u64;
        let mut writer = FileWriter::new(self.inner.config.writer_options.clone());
        for s in samples {
            writer.push(s);
        }
        let file = writer.finish()?;
        if self.inner.config.writer_options.dedup {
            if let Some(reg) = self.registry() {
                use dsi_obs::names;
                let st = file.dedup_stats();
                reg.counter(names::DEDUP_SETS_TOTAL, &[]).add(st.canonicals);
                reg.counter(names::DEDUP_ROWS_TOTAL, &[]).add(st.rows);
                reg.counter(names::DEDUP_BYTES_SAVED_TOTAL, &[])
                    .add(st.bytes_saved);
                if st.canonicals > 0 {
                    reg.gauge(names::DEDUP_RATIO, &[])
                        .set(st.rows as f64 / st.canonicals as f64);
                }
            }
        }
        let mut partitions = self.inner.partitions.write();
        let files = partitions.entry(partition).or_default();
        let path = format!(
            "warehouse/{}/{}/part-{}.dwrf",
            self.inner.config.name,
            partition,
            files.len()
        );
        self.inner.cluster.append(&path, file.bytes().clone())?;
        files.push(PartitionFile {
            path,
            footer: Arc::new(file.footer().clone()),
            rows,
            encoded_bytes: file.len() as u64,
        });
        Ok(())
    }

    /// All partition ids, ascending.
    pub fn partitions(&self) -> Vec<PartitionId> {
        self.inner.partitions.read().keys().copied().collect()
    }

    /// Files of one partition (empty if absent).
    pub fn partition_files(&self, partition: PartitionId) -> Vec<PartitionFile> {
        self.inner
            .partitions
            .read()
            .get(&partition)
            .cloned()
            .unwrap_or_default()
    }

    /// Total rows across all partitions.
    pub fn total_rows(&self) -> u64 {
        self.inner
            .partitions
            .read()
            .values()
            .flatten()
            .map(|f| f.rows)
            .sum()
    }

    /// Total encoded bytes across all partitions.
    pub fn total_encoded_bytes(&self) -> u64 {
        self.inner
            .partitions
            .read()
            .values()
            .flatten()
            .map(|f| f.encoded_bytes)
            .sum()
    }

    /// Encoded bytes of one partition.
    pub fn partition_encoded_bytes(&self, partition: PartitionId) -> u64 {
        self.partition_files(partition)
            .iter()
            .map(|f| f.encoded_bytes)
            .sum()
    }

    /// Drops (reaps) a partition: deletes its files from storage and its
    /// catalog entries — the retention path old partitions take, including
    /// privacy-driven reaping (§IV-C).
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::NotFound`] for unknown partitions.
    pub fn drop_partition(&self, partition: PartitionId) -> Result<()> {
        let files = self
            .inner
            .partitions
            .write()
            .remove(&partition)
            .ok_or_else(|| DsiError::not_found(format!("partition {partition}")))?;
        for f in files {
            self.inner.cluster.delete(&f.path)?;
        }
        Ok(())
    }

    /// Attaches an SSD cache tier: subsequent scans read through it, so
    /// popular bytes reused across jobs (§V-B) are served from flash.
    pub fn attach_cache(&self, cache: tectonic::SsdCache) {
        *self.inner.cache.write() = Some(cache);
    }

    /// The attached cache tier, if any.
    pub fn cache(&self) -> Option<tectonic::SsdCache> {
        self.inner.cache.read().clone()
    }

    /// Plans a scan over a partition range with a feature projection.
    pub fn scan(&self, partitions: Range<PartitionId>, projection: Projection) -> crate::TableScan {
        crate::TableScan::new(self.clone(), partitions, projection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::{FeatureId, SparseList};
    use tectonic::ClusterConfig;

    fn sample(i: u64) -> Sample {
        let mut s = Sample::new(i as f32);
        s.set_dense(FeatureId(1), i as f32);
        s.set_sparse(FeatureId(2), SparseList::from_ids(vec![i]));
        s
    }

    fn table() -> Table {
        let cluster = TectonicCluster::new(ClusterConfig::small());
        Table::create(cluster, TableConfig::new(TableId(9), "rm_test")).unwrap()
    }

    #[test]
    fn write_creates_partition_files() {
        let t = table();
        t.write_partition(PartitionId::new(0), (0..10).map(sample).collect())
            .unwrap();
        t.write_partition(PartitionId::new(0), (10..15).map(sample).collect())
            .unwrap();
        t.write_partition(PartitionId::new(1), (15..20).map(sample).collect())
            .unwrap();
        assert_eq!(
            t.partitions(),
            vec![PartitionId::new(0), PartitionId::new(1)]
        );
        assert_eq!(t.partition_files(PartitionId::new(0)).len(), 2);
        assert_eq!(t.total_rows(), 20);
        assert!(t.total_encoded_bytes() > 0);
        assert!(t.partition_encoded_bytes(PartitionId::new(1)) > 0);
        // Files are visible in Tectonic.
        assert_eq!(t.cluster().list_files().len(), 3);
    }

    #[test]
    fn empty_write_rejected() {
        let t = table();
        assert!(t.write_partition(PartitionId::new(0), vec![]).is_err());
    }

    #[test]
    fn drop_partition_reaps_storage() {
        let t = table();
        t.write_partition(PartitionId::new(0), (0..10).map(sample).collect())
            .unwrap();
        t.write_partition(PartitionId::new(1), (10..20).map(sample).collect())
            .unwrap();
        assert_eq!(t.cluster().list_files().len(), 2);
        t.drop_partition(PartitionId::new(0)).unwrap();
        assert_eq!(t.partitions(), vec![PartitionId::new(1)]);
        assert_eq!(t.total_rows(), 10);
        assert_eq!(t.cluster().list_files().len(), 1);
        // Scans over the dropped range return nothing; the rest reads fine.
        let rows = t
            .scan(
                PartitionId::new(0)..PartitionId::new(2),
                Projection::new(vec![FeatureId(1)]),
            )
            .read_all()
            .unwrap();
        assert_eq!(rows.len(), 10);
        assert!(t.drop_partition(PartitionId::new(0)).is_err());
    }

    #[test]
    fn deduped_writes_shrink_storage_and_publish_metrics() {
        let cluster = TectonicCluster::new(ClusterConfig::small());
        let config = TableConfig::new(TableId(10), "rm_dedup")
            .with_writer_options(dwrf::WriterOptions::deduped());
        let t = Table::create(cluster, config).unwrap();
        let reg = dsi_obs::Registry::new();
        t.attach_registry(&reg);
        // 4 sessions of 8 members sharing a sparse payload.
        let mut samples = Vec::new();
        for sess in 0..4u64 {
            for m in 0..8u64 {
                let mut s = sample(sess);
                s.set_dense(FeatureId(1), m as f32);
                samples.push(s);
            }
        }
        let expected = samples.clone();
        t.write_partition(PartitionId::new(0), samples).unwrap();
        use dsi_obs::names;
        assert_eq!(reg.counter_value(names::DEDUP_ROWS_TOTAL, &[]), 32);
        assert_eq!(reg.counter_value(names::DEDUP_SETS_TOTAL, &[]), 4);
        assert!(reg.counter_value(names::DEDUP_BYTES_SAVED_TOTAL, &[]) > 0);
        // Scans reconstitute the logical rows.
        let rows = t
            .scan(
                PartitionId::new(0)..PartitionId::new(1),
                Projection::new(vec![FeatureId(1), FeatureId(2)]),
            )
            .read_all()
            .unwrap();
        assert_eq!(rows, expected);
    }

    #[test]
    fn concurrent_partition_writes_store_the_serial_bytes() {
        let opts = dwrf::WriterOptions {
            rows_per_stripe: 8,
            ..Default::default()
        };
        let new_table = || {
            let cluster = TectonicCluster::new(ClusterConfig::small());
            let config = TableConfig::new(TableId(11), "rm_par").with_writer_options(opts.clone());
            Table::create(cluster, config).unwrap()
        };
        let rows = |p: u32| {
            let first = u64::from(p) * 100;
            (first..first + 45).map(sample).collect::<Vec<_>>()
        };
        let serial = new_table();
        for p in 0..4 {
            serial
                .write_partition(PartitionId::new(p), rows(p))
                .unwrap();
        }
        let parallel = new_table();
        std::thread::scope(|scope| {
            for p in 0..4 {
                let table = &parallel;
                scope.spawn(move || table.write_partition(PartitionId::new(p), rows(p)).unwrap());
            }
        });
        let stored = |t: &Table, p: u32| {
            let files = t.partition_files(PartitionId::new(p));
            assert_eq!(files.len(), 1);
            let file = &files[0];
            assert_eq!(file.footer.stripes.len(), 6);
            t.cluster()
                .read_view(&file.path, 0, file.encoded_bytes)
                .unwrap()
                .view
        };
        for p in 0..4 {
            assert_eq!(stored(&parallel, p), stored(&serial, p), "partition {p}");
        }
    }

    #[test]
    fn handles_share_state() {
        let t = table();
        let t2 = t.clone();
        t.write_partition(PartitionId::new(3), vec![sample(1)])
            .unwrap();
        assert_eq!(t2.total_rows(), 1);
        assert_eq!(t2.name(), "rm_test");
        assert_eq!(t2.id(), TableId(9));
    }
}
