//! Adapter letting DWRF readers fetch file bytes through the cluster,
//! optionally through a shared SSD cache tier.

use crate::cache::SsdCache;
use crate::cluster::TectonicCluster;
use dsi_types::Result;
use dwrf::{ChunkSource, SourceChunk};

/// Trace attachment for a chunk source: each `read` records a
/// `TectonicIo` span under the parent (storage-read) context.
#[derive(Debug, Clone)]
struct SourceTrace {
    registry: dsi_obs::Registry,
    ctx: dsi_obs::TraceContext,
    split: u64,
}

impl SourceTrace {
    fn record_io(&self, start_ns: u64) {
        self.registry.record_span(dsi_obs::TraceSpan {
            trace_id: self.ctx.trace_id,
            span_id: dsi_obs::next_span_id(),
            parent_id: self.ctx.span_id,
            kind: dsi_obs::SpanKind::TectonicIo,
            start_ns,
            end_ns: dsi_obs::now_ns(),
            split: self.split,
            worker: 0,
            seq: 0,
            flags: 0,
        });
    }
}

/// A [`ChunkSource`] that reads one Tectonic file, charging simulated IO on
/// the storage nodes that serve it — or, with an [`SsdCache`] attached, on
/// the cache's SSD for the pages it already holds.
#[derive(Debug, Clone)]
pub struct TectonicSource {
    cluster: TectonicCluster,
    path: String,
    cache: Option<SsdCache>,
    trace: Option<SourceTrace>,
}

impl TectonicSource {
    /// Creates a source over `path` in `cluster`.
    pub fn new(cluster: TectonicCluster, path: impl Into<String>) -> Self {
        Self {
            cluster,
            path: path.into(),
            cache: None,
            trace: None,
        }
    }

    /// Reads through `cache`: a range whose pages are all resident is
    /// served uncharged from the cluster and charged on the SSD; any miss
    /// pays the HDD read and fills the missing pages once it succeeds.
    pub fn with_cache(mut self, cache: SsdCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a trace context: every chunk read then records a
    /// `TectonicIo` span under `ctx` (no-op when `ctx` is unsampled).
    pub fn with_trace(
        mut self,
        registry: &dsi_obs::Registry,
        ctx: dsi_obs::TraceContext,
        split: u64,
    ) -> Self {
        self.trace = ctx.is_sampled().then(|| SourceTrace {
            registry: registry.clone(),
            ctx,
            split,
        });
        self
    }

    /// The file path this source reads.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl ChunkSource for TectonicSource {
    fn read(&mut self, offset: u64, len: u64) -> Result<SourceChunk> {
        let start_ns = dsi_obs::now_ns();
        let chunk = match &self.cache {
            Some(cache) => cache.read_through(&self.cluster, &self.path, offset, len)?,
            None => self.cluster.read_view(&self.path, offset, len)?,
        };
        if let Some(trace) = &self.trace {
            trace.record_io(start_ns);
        }
        Ok(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use dsi_types::{FeatureId, Projection, Sample, SparseList};
    use dwrf::{CoalescePolicy, FileReader, FileWriter, WriterOptions};

    #[test]
    fn dwrf_reads_through_tectonic() {
        // Write a DWRF file, store it in Tectonic, read it back through the
        // cluster with a projection, and confirm IO telemetry accrued.
        let mut w = FileWriter::new(WriterOptions::default());
        for i in 0..50u64 {
            let mut s = Sample::new(i as f32);
            s.set_dense(FeatureId(1), i as f32);
            s.set_sparse(FeatureId(2), SparseList::from_ids(vec![i]));
            w.push(s);
        }
        let file = w.finish().unwrap();

        let cluster = TectonicCluster::new(ClusterConfig::small());
        cluster.append("tbl/p0/f0", file.bytes().clone()).unwrap();

        let reader = FileReader::from_footer(file.footer().clone());
        let mut src = TectonicSource::new(cluster.clone(), "tbl/p0/f0");
        let proj = Projection::new(vec![FeatureId(2)]);
        let (rows, plan) = reader
            .read_stripe_from(0, Some(&proj), CoalescePolicy::default_window(), &mut src)
            .unwrap();
        assert_eq!(rows.len(), 50);
        assert_eq!(rows[7].sparse(FeatureId(2)).unwrap().ids(), &[7]);
        assert!(rows[7].dense(FeatureId(1)).is_none());
        assert!(plan.wanted_bytes > 0);
        let stats = cluster.total_stats();
        assert!(stats.bytes >= plan.read_bytes);
        assert!(stats.busy_ns > 0);
    }

    #[test]
    fn traced_reads_record_tectonic_io_spans() {
        let mut w = FileWriter::new(WriterOptions::default());
        for i in 0..30u64 {
            let mut s = Sample::new(i as f32);
            s.set_dense(FeatureId(1), i as f32);
            w.push(s);
        }
        let file = w.finish().unwrap();
        let cluster = TectonicCluster::new(ClusterConfig::small());
        cluster.append("tbl/p0/t", file.bytes().clone()).unwrap();

        let reg = dsi_obs::Registry::new();
        let ctx = dsi_obs::TraceContext {
            trace_id: 0xBEEF,
            span_id: 42,
        };
        let reader = FileReader::from_footer(file.footer().clone());
        let mut src = TectonicSource::new(cluster, "tbl/p0/t").with_trace(&reg, ctx, 3);
        let proj = Projection::new(vec![FeatureId(1)]);
        reader
            .read_stripe_from(0, Some(&proj), CoalescePolicy::default_window(), &mut src)
            .unwrap();
        let spans = reg.trace_spans();
        assert!(!spans.is_empty(), "every chunk read records a span");
        for s in &spans {
            assert_eq!(s.kind, dsi_obs::SpanKind::TectonicIo);
            assert_eq!(s.trace_id, 0xBEEF);
            assert_eq!(s.parent_id, 42);
            assert_eq!(s.split, 3);
        }

        // Unsampled context: no spans recorded.
        let reg2 = dsi_obs::Registry::new();
        let src2 = TectonicSource::new(
            crate::cluster::TectonicCluster::new(ClusterConfig::small()),
            "x",
        )
        .with_trace(&reg2, dsi_obs::TraceContext::NONE, 0);
        assert!(src2.trace.is_none());
    }

    #[test]
    fn path_accessor() {
        let cluster = TectonicCluster::new(ClusterConfig::small());
        let src = TectonicSource::new(cluster, "a/b");
        assert_eq!(src.path(), "a/b");
    }
}
