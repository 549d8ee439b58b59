//! DWRF file reader: footer parsing, projection-driven IO planning, and
//! stripe decoding.
//!
//! The reader separates *planning* (which byte ranges a projection needs,
//! [`FileReader::plan_stripe`]) from *fetching* ([`FileReader::fetch_stripe`]
//! through any [`ChunkSource`] — an in-memory slice here, a Tectonic client
//! in the `tectonic` crate) from *decoding* ([`FileReader::decode_fetched`]:
//! checksum → decrypt → decompress → column decode, on any thread). This
//! mirrors the DPP Worker extract path and lets storage simulations charge
//! real IO.

use crate::cipher::StreamCipher;
use crate::compress;
use crate::plan::{CoalescePolicy, IoPlan};
use crate::stream::{
    checksum64, decode_columns, decode_dedup_sparse, decode_dense_map, decode_labels,
    decode_sparse_map, StreamInfo, StreamKind, FILE_LEVEL,
};
use crate::writer::{decode_footer, FileFooter, MAGIC};
use bytes::Bytes;
use dsi_types::{ColumnBatch, DsiError, FeatureId, Projection, Result, Sample};
use fastpath::{ByteView, SourceChunk};
use std::sync::Arc;

/// A source of raw file bytes addressed by `(offset, len)`.
///
/// Implementations may charge simulated IO (see the `tectonic` crate).
pub trait ChunkSource {
    /// Reads `len` bytes at `offset` as a shared view, reporting how many
    /// bytes the source had to memcpy to produce it (0 for a zero-copy
    /// slice of resident bytes).
    ///
    /// # Errors
    ///
    /// Implementations return [`DsiError`] on out-of-range or failed reads.
    fn read(&mut self, offset: u64, len: u64) -> Result<SourceChunk>;
}

/// A [`ChunkSource`] over an in-memory buffer.
#[derive(Debug, Clone)]
pub struct SliceSource {
    bytes: Bytes,
}

impl SliceSource {
    /// Creates a source over `bytes`.
    pub fn new(bytes: Bytes) -> Self {
        Self { bytes }
    }
}

impl ChunkSource for SliceSource {
    fn read(&mut self, offset: u64, len: u64) -> Result<SourceChunk> {
        let start = offset as usize;
        let end = start
            .checked_add(len as usize)
            .ok_or_else(|| DsiError::corrupt("read range overflow"))?;
        if end > self.bytes.len() {
            return Err(DsiError::corrupt(format!(
                "read [{start}, {end}) beyond file of {} bytes",
                self.bytes.len()
            )));
        }
        Ok(SourceChunk::zero_copy(ByteView::from(
            self.bytes.slice(start..end),
        )))
    }
}

/// Where a traced read records its spans: the registry to push into, the
/// parent (extract) context, the split index for span metadata, and the
/// pre-allocated `StorageRead` span id (pre-allocated so the caller can
/// parent per-chunk storage-IO spans under it before it is recorded).
#[derive(Debug, Clone)]
struct TraceSink {
    registry: dsi_obs::Registry,
    ctx: dsi_obs::TraceContext,
    split: u64,
    storage_span: u64,
}

/// What decoding one stripe cost, summed as the streams go by: payload
/// bytes after decompression, seconds spent decompressing.
#[derive(Default)]
struct DecodeCost {
    uncompressed: std::cell::Cell<u64>,
    decompress_secs: std::cell::Cell<f64>,
}

impl TraceSink {
    /// Records a span of `kind` under the sink's context, from `start_ns`
    /// to now.
    fn record(&self, span_id: u64, kind: dsi_obs::SpanKind, start_ns: u64) {
        self.registry.record_span(dsi_obs::TraceSpan {
            trace_id: self.ctx.trace_id,
            span_id,
            parent_id: self.ctx.span_id,
            kind,
            start_ns,
            end_ns: dsi_obs::now_ns(),
            split: self.split,
            worker: 0,
            seq: 0,
            flags: 0,
        });
    }
}

/// A stripe read from storage but not yet checked or decoded: the stripe,
/// the streams its selection wants, the executed IO plan and the views
/// the source produced (owned, no copy added). It is `Send`, so one thread
/// can fetch while another decodes; [`FileReader::decode_fetched`] on the
/// reader that fetched it finishes the read.
#[derive(Debug)]
pub struct FetchedStripe {
    idx: usize,
    wanted: Vec<StreamInfo>,
    plan: IoPlan,
    buffers: Vec<(u64, ByteView)>,
}

// Fetch and decode run on different threads in a pipelined worker.
const _: () = {
    const fn send<T: Send>() {}
    send::<FetchedStripe>();
};

/// Reads DWRF files.
#[derive(Debug, Clone)]
pub struct FileReader {
    bytes: Option<Bytes>,
    footer: Arc<FileFooter>,
    registry: Option<dsi_obs::Registry>,
    trace: Option<TraceSink>,
    job: Option<Arc<str>>,
}

impl FileReader {
    /// Opens a complete in-memory file: verifies the magic and parses the
    /// footer.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::Corrupt`] if the magic or footer is malformed.
    pub fn open(bytes: Bytes) -> Result<Self> {
        let footer = Arc::new(parse_footer(&bytes)?);
        Ok(Self {
            bytes: Some(bytes),
            footer,
            registry: None,
            trace: None,
            job: None,
        })
    }

    /// Creates a reader from a previously-parsed footer; all data must then
    /// be fetched through an external [`ChunkSource`]. Accepts the footer
    /// by value or as a shared `Arc` — table scans open one reader per
    /// split, so sharing the parsed footer avoids a per-split deep clone.
    pub fn from_footer(footer: impl Into<Arc<FileFooter>>) -> Self {
        Self {
            bytes: None,
            footer: footer.into(),
            registry: None,
            trace: None,
            job: None,
        }
    }

    /// Attaches a metrics registry: stripe reads then emit
    /// `dsi_dwrf_stripes_decoded_total`, read vs wanted byte counters, and
    /// extract/decompress/deserialize stage timings.
    pub fn with_registry(mut self, registry: &dsi_obs::Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Stamps everything this reader publishes — the `dsi_dwrf_*` and
    /// bytes-copied counters, the three stage observations — with the
    /// owning session (`{job="sessN"}`). A reader used outside a session
    /// (a warehouse query) has no job and writes unlabeled series; an empty
    /// `job` is the same.
    pub fn with_job(mut self, job: &str) -> Self {
        if !job.is_empty() {
            self.job = Some(job.into());
        }
        self
    }

    /// Attaches a distributed-trace context: stripe reads then record a
    /// `StorageRead` span over the fetch phase (with id `storage_span`,
    /// pre-allocated by the caller so per-chunk storage-IO spans can
    /// parent under it) and a `DwrfDecode` span over the decode phase,
    /// both children of `ctx`. No-op when `ctx` is unsampled.
    pub fn with_trace(
        mut self,
        registry: &dsi_obs::Registry,
        ctx: dsi_obs::TraceContext,
        split: u64,
        storage_span: u64,
    ) -> Self {
        if ctx.is_sampled() {
            self.trace = Some(TraceSink {
                registry: registry.clone(),
                ctx,
                split,
                storage_span,
            });
        }
        self
    }

    /// The parsed footer.
    pub fn footer(&self) -> &FileFooter {
        self.footer.as_ref()
    }

    /// Number of stripes.
    pub fn num_stripes(&self) -> usize {
        self.footer.stripes.len()
    }

    /// Total rows across stripes.
    pub fn total_rows(&self) -> u64 {
        self.footer.total_rows()
    }

    /// The streams a selection needs from stripe `idx`, in directory order.
    ///
    /// `selection = None` selects every feature. Flattened files narrow to
    /// the selected features' streams (plus labels); unflattened files must
    /// always fetch the whole row maps.
    fn wanted_streams(
        &self,
        idx: usize,
        selection: Option<&Projection>,
    ) -> Result<Vec<StreamInfo>> {
        let stripe = self
            .footer
            .stripes
            .get(idx)
            .ok_or_else(|| DsiError::not_found(format!("stripe {idx}")))?;
        Ok(stripe
            .streams
            .iter()
            .filter(|s| {
                if s.feature == FILE_LEVEL {
                    return true; // labels / row maps
                }
                match selection {
                    Some(p) if self.footer.flattened => p.contains(FeatureId(s.feature)),
                    _ => true,
                }
            })
            .copied()
            .collect())
    }

    /// Plans the IO for reading stripe `idx` under a selection and policy.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::NotFound`] if the stripe index is out of range.
    pub fn plan_stripe(
        &self,
        idx: usize,
        selection: Option<&Projection>,
        policy: CoalescePolicy,
    ) -> Result<IoPlan> {
        Ok(plan_reads(&self.wanted_streams(idx, selection)?, policy))
    }

    /// Reads and decodes stripe `idx` through `source`, returning its
    /// columns and the executed IO plan: [`FileReader::fetch_stripe`]
    /// followed by [`FileReader::decode_fetched`].
    ///
    /// # Errors
    ///
    /// Returns an error if the stripe index is out of range, the source
    /// fails, or the data is corrupt.
    pub fn read_stripe_columns(
        &self,
        idx: usize,
        selection: Option<&Projection>,
        policy: CoalescePolicy,
        source: &mut dyn ChunkSource,
    ) -> Result<(ColumnBatch, IoPlan)> {
        let fetched = self.fetch_stripe(idx, selection, policy, source)?;
        self.decode_fetched(fetched, selection)
    }

    /// [`FileReader::read_stripe_columns`] with the stripe's rows in place
    /// of its columns ([`ColumnBatch::into_rows`], inside the decode span).
    ///
    /// # Errors
    ///
    /// As for [`FileReader::read_stripe_columns`].
    pub fn read_stripe_from(
        &self,
        idx: usize,
        selection: Option<&Projection>,
        policy: CoalescePolicy,
        source: &mut dyn ChunkSource,
    ) -> Result<(Vec<Sample>, IoPlan)> {
        let fetched = self.fetch_stripe(idx, selection, policy, source)?;
        self.decode_with(fetched, selection, ColumnBatch::into_rows)
    }

    /// The storage half of a stripe read: plans the reads `selection`
    /// needs from stripe `idx` and executes them through `source`, keeping
    /// whatever view the source produced (usually a zero-copy slice of
    /// resident bytes). Records the `StorageRead` span and the `extract`
    /// seconds; nothing is checked or decoded yet.
    ///
    /// # Errors
    ///
    /// Returns an error if the stripe index is out of range or the source
    /// fails.
    pub fn fetch_stripe(
        &self,
        idx: usize,
        selection: Option<&Projection>,
        policy: CoalescePolicy,
        source: &mut dyn ChunkSource,
    ) -> Result<FetchedStripe> {
        let wanted = self.wanted_streams(idx, selection)?;
        let mut plan = plan_reads(&wanted, policy);
        let started = std::time::Instant::now();
        let start_ns = dsi_obs::now_ns();
        let mut buffers = Vec::with_capacity(plan.reads.len());
        for r in &plan.reads {
            let chunk = source.read(r.offset, r.len)?;
            plan.copied_bytes += chunk.copied_bytes;
            buffers.push((r.offset, chunk.view));
        }
        let secs = started.elapsed().as_secs_f64();
        if let Some(sink) = &self.trace {
            sink.record(sink.storage_span, dsi_obs::SpanKind::StorageRead, start_ns);
        }
        if let Some(reg) = &self.registry {
            let job = self.job.as_deref().unwrap_or("");
            dsi_obs::observe_stage_seconds(reg, job, dsi_obs::stage::EXTRACT, secs);
        }
        Ok(FetchedStripe {
            idx,
            wanted,
            plan,
            buffers,
        })
    }

    /// The CPU half of a stripe read: checksums, decrypts, inflates and
    /// decodes a stripe [`FileReader::fetch_stripe`] read with the same
    /// reader and `selection`, on whichever thread holds it. Records the
    /// `DwrfDecode` span, the `decompress` and `deserialize` seconds and
    /// the stripe's byte counters.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::Corrupt`] if a stream fails its checksum or
    /// does not decode.
    pub fn decode_fetched(
        &self,
        fetched: FetchedStripe,
        selection: Option<&Projection>,
    ) -> Result<(ColumnBatch, IoPlan)> {
        self.decode_with(fetched, selection, |columns| columns)
    }

    /// Decodes a fetched stripe, handing the decoded columns to `finish`
    /// inside the decode span and timing.
    fn decode_with<T>(
        &self,
        fetched: FetchedStripe,
        selection: Option<&Projection>,
        finish: impl FnOnce(ColumnBatch) -> T,
    ) -> Result<(T, IoPlan)> {
        let FetchedStripe {
            idx,
            wanted,
            mut plan,
            buffers,
        } = fetched;
        let cost = DecodeCost::default();
        let fetch = |info: &StreamInfo| -> Result<ByteView> {
            for (off, buf) in &buffers {
                if info.offset >= *off && info.offset + info.len <= off + buf.len() as u64 {
                    let start = (info.offset - off) as usize;
                    return Ok(buf.slice(start..start + info.len as usize));
                }
            }
            Err(DsiError::corrupt("stream not covered by IO plan"))
        };
        let started = std::time::Instant::now();
        let start_ns = dsi_obs::now_ns();
        let decoded = finish(self.decode_stripe(idx, &wanted, selection, fetch, &cost)?);
        if let Some(sink) = &self.trace {
            sink.record(
                dsi_obs::next_span_id(),
                dsi_obs::SpanKind::DwrfDecode,
                start_ns,
            );
        }
        let decompress_secs = cost.decompress_secs.get();
        plan.uncompressed_bytes = cost.uncompressed.get();
        if let Some(reg) = &self.registry {
            use dsi_obs::{names, observe_stage_seconds, stage};
            let job = self.job.as_deref().unwrap_or("");
            let labels = [("job", job)];
            reg.counter(names::DWRF_STRIPES_DECODED_TOTAL, &labels)
                .inc();
            reg.counter(names::DWRF_READ_BYTES_TOTAL, &labels)
                .add(plan.read_bytes);
            reg.counter(names::DWRF_WANTED_BYTES_TOTAL, &labels)
                .add(plan.wanted_bytes);
            reg.counter(names::FASTPATH_BYTES_COPIED_TOTAL, &labels)
                .add(plan.copied_bytes);
            observe_stage_seconds(reg, job, stage::DECOMPRESS, decompress_secs);
            // Deserialize excludes decompression: it is the column/map
            // decode cost the paper attributes to wire-format handling.
            observe_stage_seconds(
                reg,
                job,
                stage::DESERIALIZE,
                (started.elapsed().as_secs_f64() - decompress_secs).max(0.0),
            );
        }
        Ok((decoded, plan))
    }

    /// Decodes stripe `idx` given its wanted streams and a function that
    /// produces each one's encoded bytes.
    fn decode_stripe(
        &self,
        idx: usize,
        wanted: &[StreamInfo],
        selection: Option<&Projection>,
        mut fetch: impl FnMut(&StreamInfo) -> Result<ByteView>,
        cost: &DecodeCost,
    ) -> Result<ColumnBatch> {
        let DecodeCost {
            uncompressed,
            decompress_secs,
        } = cost;
        let row_count = usize::try_from(self.footer.stripes[idx].row_count)
            .map_err(|_| DsiError::corrupt("stripe row count out of range"))?;
        let cipher = StreamCipher::new(self.footer.file_key);
        let mut decode_payload = |info: &StreamInfo| -> Result<ByteView> {
            let raw = fetch(info)?;
            // Integrity gate: stored bytes must match the checksum the
            // writer recorded before anything is decrypted, decompressed,
            // or sliced. Without it, stored compression blocks and
            // encrypted f32 payloads decode silently wrong under
            // storage-layer corruption.
            let got = checksum64(&raw);
            if got != info.checksum {
                return Err(DsiError::corrupt(format!(
                    "stream checksum mismatch (feature {} kind {:?}): stored {:#018x}, read {got:#018x}",
                    info.feature, info.kind, info.checksum
                )));
            }
            // Decrypt and decompress are decode *work*, not copies: their
            // outputs land in fresh buffers that the views take over, and
            // stored (incompressible) blocks pass through as sub-views.
            let mut payload = raw;
            if self.footer.encrypted {
                let mut plain = Vec::with_capacity(payload.len());
                cipher.apply_to(info.nonce, &payload, &mut plain);
                payload = ByteView::from(plain);
            }
            if self.footer.compressed {
                let started = std::time::Instant::now();
                payload = match compress::stored_payload_range(&payload) {
                    Some(range) => payload.slice(range),
                    None => {
                        let mut inflated = Vec::with_capacity(payload.len().saturating_mul(2));
                        compress::decompress_into(&payload, &mut inflated)?;
                        ByteView::from(inflated)
                    }
                };
                decompress_secs.set(decompress_secs.get() + started.elapsed().as_secs_f64());
            }
            uncompressed.set(uncompressed.get() + payload.len() as u64);
            Ok(payload)
        };

        // File-level streams first: the rows are created with their labels.
        let mut labels: Option<Vec<f32>> = None;
        let mut dense_map: Option<ByteView> = None;
        let mut sparse_map: Option<ByteView> = None;
        let mut dedup_refs: Option<ByteView> = None;
        let mut dedup_data: Option<ByteView> = None;
        for info in wanted.iter().filter(|info| info.feature == FILE_LEVEL) {
            let slot = match info.kind {
                StreamKind::Label => {
                    labels = Some(decode_labels(&decode_payload(info)?)?);
                    continue;
                }
                StreamKind::DenseMap => &mut dense_map,
                StreamKind::SparseMap => &mut sparse_map,
                StreamKind::DedupRefs => &mut dedup_refs,
                StreamKind::DedupData => &mut dedup_data,
                other => {
                    return Err(DsiError::corrupt(format!(
                        "unexpected file-level stream {other:?}"
                    )))
                }
            };
            *slot = Some(decode_payload(info)?);
        }
        let labels = labels.ok_or_else(|| DsiError::corrupt("stripe missing label stream"))?;
        if labels.len() != row_count {
            return Err(DsiError::corrupt("label stream row count mismatch"));
        }

        // Feature streams in directory order, one column group's payloads
        // alive at a time; a map file has none and gets label-only rows.
        let columns = decode_columns(
            wanted
                .iter()
                .filter(|info| info.feature != FILE_LEVEL)
                .map(|info| Ok((FeatureId(info.feature), info.kind, decode_payload(info)?))),
            labels,
        )?;
        if !self.footer.flattened && columns.column_count() > 0 {
            return Err(DsiError::corrupt("feature streams in an unflattened file"));
        }
        if dense_map.is_none() && sparse_map.is_none() && !self.footer.dedup {
            return Ok(columns);
        }
        // Map and dedup layouts store rows: fill them, then transpose.
        let mut samples = columns.into_rows();

        let selected = |fid: FeatureId| selection.is_none_or(|p| p.contains(fid));
        if let Some(raw) = dense_map {
            for (sample, pairs) in samples.iter_mut().zip(decode_dense_map(&raw, row_count)?) {
                for (fid, v) in pairs.into_iter().filter(|(fid, _)| selected(*fid)) {
                    sample.set_dense(fid, v);
                }
            }
        }
        let sparse_rows = if self.footer.dedup {
            // Reconstitute logical rows from the canonical table: decode
            // each referenced payload once, clone per referencing row.
            let refs = dedup_refs.ok_or_else(|| DsiError::corrupt("dedup file missing refs"))?;
            let data = dedup_data.ok_or_else(|| DsiError::corrupt("dedup file missing data"))?;
            decode_dedup_sparse(&refs, &data, row_count)?
        } else {
            sparse_map
                .map(|raw| decode_sparse_map(&raw, row_count))
                .transpose()?
                .unwrap_or_default()
        };
        for (sample, pairs) in samples.iter_mut().zip(sparse_rows) {
            for (fid, list) in pairs.into_iter().filter(|(fid, _)| selected(*fid)) {
                sample.set_sparse(fid, list);
            }
        }
        Ok(ColumnBatch::from_rows(&samples))
    }

    fn own_source(&self) -> Result<SliceSource> {
        self.bytes
            .clone()
            .map(SliceSource::new)
            .ok_or_else(|| DsiError::InvalidState("reader has no in-memory bytes".into()))
    }

    /// Reads one stripe from the in-memory file with the given projection.
    ///
    /// # Errors
    ///
    /// Returns an error if the reader was created via
    /// [`FileReader::from_footer`], the index is out of range, or the data
    /// is corrupt.
    pub fn read_stripe(&self, idx: usize, projection: &Projection) -> Result<Vec<Sample>> {
        let mut src = self.own_source()?;
        let (rows, _) =
            self.read_stripe_from(idx, Some(projection), CoalescePolicy::None, &mut src)?;
        Ok(rows)
    }

    /// Reads every stripe with the given projection.
    ///
    /// # Errors
    ///
    /// See [`FileReader::read_stripe`].
    pub fn read_all(&self, projection: &Projection) -> Result<Vec<Sample>> {
        let mut out = Vec::new();
        for i in 0..self.num_stripes() {
            out.extend(self.read_stripe(i, projection)?);
        }
        Ok(out)
    }

    /// Reads every stripe with every feature (no projection).
    ///
    /// # Errors
    ///
    /// See [`FileReader::read_stripe`].
    pub fn read_all_unprojected(&self) -> Result<Vec<Sample>> {
        let mut src = self.own_source()?;
        let mut out = Vec::new();
        for i in 0..self.num_stripes() {
            let (rows, _) = self.read_stripe_from(i, None, CoalescePolicy::None, &mut src)?;
            out.extend(rows);
        }
        Ok(out)
    }
}

/// One IO range per wanted stream, merged under `policy`.
fn plan_reads(wanted: &[StreamInfo], policy: CoalescePolicy) -> IoPlan {
    IoPlan::build(wanted.iter().map(|s| (s.offset, s.len)).collect(), policy)
}

/// Parses the footer from a complete file buffer.
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] if the magic or structure is invalid, or
/// if a stream ends past the start of the footer.
pub fn parse_footer(bytes: &Bytes) -> Result<FileFooter> {
    // Tail layout: [streams][footer][checksum u64][len u64][MAGIC].
    if bytes.len() < 24 {
        return Err(DsiError::corrupt("file too short for footer"));
    }
    let magic_at = bytes.len() - 8;
    if &bytes[magic_at..] != MAGIC {
        return Err(DsiError::corrupt("bad DWRF magic"));
    }
    let len_at = magic_at - 8;
    let mut len_buf = [0u8; 8];
    len_buf.copy_from_slice(&bytes[len_at..magic_at]);
    let footer_len = u64::from_le_bytes(len_buf) as usize;
    let crc_at = len_at - 8;
    if footer_len > crc_at {
        return Err(DsiError::corrupt("footer length out of range"));
    }
    let mut crc_buf = [0u8; 8];
    crc_buf.copy_from_slice(&bytes[crc_at..len_at]);
    let stored = u64::from_le_bytes(crc_buf);
    let footer_at = crc_at - footer_len;
    let footer_bytes = &bytes[footer_at..crc_at];
    let got = checksum64(footer_bytes);
    if got != stored {
        return Err(DsiError::corrupt(format!(
            "footer checksum mismatch: stored {stored:#018x}, read {got:#018x}"
        )));
    }
    let footer = decode_footer(footer_bytes)?;
    // `decode_footer` rejected overflowing ranges, so the sum is exact.
    let mut streams = footer.stripes.iter().flat_map(|stripe| &stripe.streams);
    if streams.any(|s| s.offset + s.len > footer_at as u64) {
        return Err(DsiError::corrupt("stream ends past the footer"));
    }
    Ok(footer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{FileWriter, WriterOptions};
    use dsi_types::SparseList;

    fn build_file(opts: WriterOptions, rows: u64) -> crate::writer::DwrfFile {
        let mut w = FileWriter::new(opts);
        for i in 0..rows {
            let mut s = Sample::new(i as f32);
            s.set_dense(FeatureId(1), i as f32 * 0.5);
            s.set_dense(FeatureId(3), -(i as f32));
            s.set_sparse(FeatureId(2), SparseList::from_ids(vec![i, i + 1]));
            if i % 2 == 0 {
                s.set_sparse(
                    FeatureId(4),
                    SparseList::from_scored(vec![i * 7], vec![i as f32]),
                );
            }
            w.push(s);
        }
        w.finish().unwrap()
    }

    #[test]
    fn full_round_trip_flattened() {
        let file = build_file(WriterOptions::default(), 20);
        let reader = FileReader::open(file.bytes().clone()).unwrap();
        let rows = reader.read_all_unprojected().unwrap();
        assert_eq!(rows.len(), 20);
        assert_eq!(rows[4].label(), 4.0);
        assert_eq!(rows[4].dense(FeatureId(1)), Some(2.0));
        assert_eq!(rows[4].sparse(FeatureId(2)).unwrap().ids(), &[4, 5]);
        assert_eq!(
            rows[4].sparse(FeatureId(4)).unwrap().scores().unwrap(),
            &[4.0]
        );
        assert!(rows[5].sparse(FeatureId(4)).is_none());
    }

    #[test]
    fn full_round_trip_unflattened() {
        let file = build_file(WriterOptions::unflattened_baseline(), 12);
        let reader = FileReader::open(file.bytes().clone()).unwrap();
        let rows = reader.read_all_unprojected().unwrap();
        assert_eq!(rows.len(), 12);
        assert_eq!(rows[3].dense(FeatureId(3)), Some(-3.0));
        assert_eq!(rows[3].sparse(FeatureId(2)).unwrap().ids(), &[3, 4]);
    }

    #[test]
    fn projection_reads_fewer_bytes_when_flattened() {
        let file = build_file(WriterOptions::default(), 200);
        let reader = FileReader::open(file.bytes().clone()).unwrap();
        let proj = Projection::new(vec![FeatureId(1)]);
        let full = reader.plan_stripe(0, None, CoalescePolicy::None).unwrap();
        let narrow = reader
            .plan_stripe(0, Some(&proj), CoalescePolicy::None)
            .unwrap();
        assert!(narrow.wanted_bytes < full.wanted_bytes);
        let rows = reader.read_all(&proj).unwrap();
        assert!(rows[0].dense(FeatureId(1)).is_some());
        assert!(rows[0].sparse(FeatureId(2)).is_none());
        assert_eq!(rows[1].label(), 1.0); // labels always delivered
    }

    #[test]
    fn projection_cannot_reduce_io_when_unflattened() {
        let file = build_file(WriterOptions::unflattened_baseline(), 200);
        let reader = FileReader::open(file.bytes().clone()).unwrap();
        let proj = Projection::new(vec![FeatureId(1)]);
        let full = reader.plan_stripe(0, None, CoalescePolicy::None).unwrap();
        let narrow = reader
            .plan_stripe(0, Some(&proj), CoalescePolicy::None)
            .unwrap();
        // Map layout forces whole-row reads regardless of projection.
        assert_eq!(narrow.wanted_bytes, full.wanted_bytes);
        // But decoded rows are still filtered.
        let rows = reader.read_all(&proj).unwrap();
        assert!(rows[0].sparse(FeatureId(2)).is_none());
    }

    #[test]
    fn coalescing_reduces_io_count() {
        let file = build_file(WriterOptions::default(), 500);
        let reader = FileReader::open(file.bytes().clone()).unwrap();
        let proj = Projection::new(vec![FeatureId(1), FeatureId(4)]);
        let scattered = reader
            .plan_stripe(0, Some(&proj), CoalescePolicy::None)
            .unwrap();
        let merged = reader
            .plan_stripe(0, Some(&proj), CoalescePolicy::default_window())
            .unwrap();
        assert!(merged.io_count() <= scattered.io_count());
        assert!(merged.read_bytes >= merged.wanted_bytes);
        // Coalesced reads still decode correctly.
        let mut src = SliceSource::new(file.bytes().clone());
        let (rows, _) = reader
            .read_stripe_from(0, Some(&proj), CoalescePolicy::default_window(), &mut src)
            .unwrap();
        assert_eq!(rows.len(), 500);
    }

    #[test]
    fn fetched_stripe_decodes_on_another_thread_as_one_read() {
        let opts = WriterOptions {
            rows_per_stripe: 8,
            ..Default::default()
        };
        assert!(opts.encrypted && opts.compressed);
        let file = build_file(opts, 20);
        let reader = FileReader::open(file.bytes().clone()).unwrap();
        let proj = Projection::new(vec![FeatureId(2), FeatureId(3), FeatureId(4)]);
        let policy = CoalescePolicy::default_window();
        let mut src = SliceSource::new(file.bytes().clone());
        assert_eq!(reader.num_stripes(), 3);
        for stripe in 0..reader.num_stripes() {
            let whole = reader
                .read_stripe_columns(stripe, Some(&proj), policy, &mut src)
                .unwrap();
            let fetched = reader
                .fetch_stripe(stripe, Some(&proj), policy, &mut src)
                .unwrap();
            let halves = std::thread::scope(|s| {
                s.spawn(|| reader.decode_fetched(fetched, Some(&proj)))
                    .join()
                    .unwrap()
            })
            .unwrap();
            assert!(whole.1.uncompressed_bytes > 0);
            assert_eq!(halves, whole, "stripe {stripe}");
        }
    }

    #[test]
    fn plaintext_uncompressed_round_trip() {
        let opts = WriterOptions {
            compressed: false,
            encrypted: false,
            ..Default::default()
        };
        let file = build_file(opts, 8);
        let reader = FileReader::open(file.bytes().clone()).unwrap();
        let rows = reader.read_all_unprojected().unwrap();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[7].dense(FeatureId(1)), Some(3.5));
    }

    #[test]
    fn corrupt_magic_rejected() {
        let file = build_file(WriterOptions::default(), 4);
        // Magic validation only looks at the 16-byte tail: corrupt a small
        // sub-slice copy instead of duplicating the whole file.
        let n = file.bytes().len();
        let mut tail = file.bytes().slice(n - 16..).to_vec();
        let t = tail.len();
        tail[t - 1] ^= 0xff;
        assert!(FileReader::open(Bytes::from(tail)).is_err());
        // A shifted zero-copy view misaligns the magic the same way.
        assert!(parse_footer(&file.bytes().slice(..n - 1)).is_err());
    }

    #[test]
    fn v1_magic_is_corrupt() {
        let file = build_file(WriterOptions::default(), 4);
        let mut bytes = file.bytes().to_vec();
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(b"DWRF\0v1\0");
        assert!(matches!(
            FileReader::open(Bytes::from(bytes)),
            Err(DsiError::Corrupt(_))
        ));
    }

    /// A [`ChunkSource`] that XORs the bytes of one window, slicing the
    /// underlying file zero-copy everywhere else.
    struct CorruptingSource {
        inner: SliceSource,
        window: std::ops::Range<u64>,
    }

    impl ChunkSource for CorruptingSource {
        fn read(&mut self, offset: u64, len: u64) -> Result<SourceChunk> {
            let chunk = self.inner.read(offset, len)?;
            if offset < self.window.end && offset + len > self.window.start {
                let mut corrupted = chunk.view.to_vec();
                for (i, b) in corrupted.iter_mut().enumerate() {
                    if self.window.contains(&(offset + i as u64)) {
                        *b ^= 0xa5;
                    }
                }
                return Ok(SourceChunk::copied(ByteView::from(corrupted)));
            }
            Ok(chunk)
        }
    }

    #[test]
    fn corrupt_stream_detected() {
        let file = build_file(WriterOptions::default(), 50);
        // Flip bytes early in the stream area, overlaying the corruption
        // on zero-copy views of the original file.
        let reader = FileReader::from_footer(file.footer().clone());
        let mut src = CorruptingSource {
            inner: SliceSource::new(file.bytes().clone()),
            window: 0..64,
        };
        assert!(reader
            .read_stripe_from(0, None, CoalescePolicy::None, &mut src)
            .is_err());
    }

    /// Corruption in the header (footer/tail), in a plain payload stream,
    /// and inside a compression block must each surface as a typed
    /// [`DsiError::Corrupt`]. No silent wrong data.
    #[test]
    fn corruption_location_matrix_yields_typed_errors() {
        // Header: flip a byte inside the encoded footer region.
        let file = build_file(WriterOptions::default(), 30);
        let mut bytes = file.bytes().to_vec();
        let n = bytes.len();
        bytes[n - 20] ^= 0x5a; // inside [footer][crc] tail area
        match FileReader::open(Bytes::from(bytes)) {
            Err(DsiError::Corrupt(_)) => {}
            other => panic!("header corruption: expected Corrupt, got {other:?}"),
        }

        // Payload (uncompressed, unencrypted streams) and compression
        // block (LZ-compressed streams): corrupt bytes inside the first
        // data stream's window and decode.
        let cases = [
            WriterOptions {
                compressed: false,
                encrypted: false,
                ..Default::default()
            },
            WriterOptions {
                encrypted: false,
                ..Default::default()
            },
        ];
        for opts in cases {
            let file = build_file(opts, 60);
            let stripe = &file.footer().stripes[0];
            // Pick a stream comfortably wider than one byte to corrupt
            // mid-payload (past any mode byte or varint header).
            let target = stripe
                .streams
                .iter()
                .find(|s| s.len >= 8)
                .expect("a wide stream");
            let mid = target.offset + target.len / 2;
            let reader = FileReader::from_footer(file.footer().clone());
            let mut src = CorruptingSource {
                inner: SliceSource::new(file.bytes().clone()),
                window: mid..mid + 2,
            };
            match reader.read_stripe_from(0, None, CoalescePolicy::None, &mut src) {
                Err(DsiError::Corrupt(msg)) => assert!(msg.contains("checksum mismatch"), "{msg}"),
                other => panic!(
                    "stream corruption (compressed={}): expected Corrupt, got {other:?}",
                    file.footer().compressed
                ),
            }
        }
    }

    /// `file` with its footer replaced by `footer`, re-checksummed.
    fn with_footer(file: &crate::writer::DwrfFile, footer: &FileFooter) -> Bytes {
        let old_footer = crate::writer::encode_footer(file.footer());
        let streams_end = file.len() - old_footer.len() - 24;
        let footer_bytes = crate::writer::encode_footer(footer);
        let mut bytes = file.bytes()[..streams_end].to_vec();
        bytes.extend_from_slice(&footer_bytes);
        bytes.extend_from_slice(&checksum64(&footer_bytes).to_le_bytes());
        bytes.extend_from_slice(&(footer_bytes.len() as u64).to_le_bytes());
        bytes.extend_from_slice(MAGIC);
        Bytes::from(bytes)
    }

    /// A column's bitmap carries its own row count. A footer that claims
    /// fewer rows — re-checksummed, and with a label stream of exactly that
    /// many rows, so every other check passes — used to index past the
    /// last row; one that claims more used to drop the tail rows' features.
    #[test]
    fn bitmap_row_count_must_match_the_stripe() {
        let file = build_file(
            WriterOptions {
                rows_per_stripe: 8,
                ..Default::default()
            },
            13,
        );
        let label_of = |stripe: &crate::writer::StripeMeta| {
            *stripe
                .streams
                .iter()
                .find(|s| s.kind == StreamKind::Label)
                .expect("label stream")
        };
        // Stripe 0 (8 rows) with the row count and labels of stripe 1 (5).
        let mut lowered = file.footer().clone();
        let short_labels = label_of(&lowered.stripes[1]);
        lowered.stripes[0].row_count = 5;
        for stream in &mut lowered.stripes[0].streams {
            if stream.kind == StreamKind::Label {
                *stream = short_labels;
            }
        }
        // Stripe 1 (5 rows) with the row count and labels of stripe 0 (8).
        let mut raised = file.footer().clone();
        let long_labels = label_of(&raised.stripes[0]);
        raised.stripes[1].row_count = 8;
        for stream in &mut raised.stripes[1].streams {
            if stream.kind == StreamKind::Label {
                *stream = long_labels;
            }
        }
        for (footer, stripe) in [(lowered, 0), (raised, 1)] {
            let reader = FileReader::open(with_footer(&file, &footer)).unwrap();
            match reader.read_stripe(stripe, &Projection::new(vec![FeatureId(1), FeatureId(4)])) {
                Err(DsiError::Corrupt(msg)) => assert!(msg.contains("present bitmap"), "{msg}"),
                other => panic!("stripe {stripe}: expected Corrupt, got {other:?}"),
            }
            // The untouched stripe still reads.
            assert!(reader
                .read_stripe(1 - stripe, &Projection::new(vec![FeatureId(1)]))
                .is_ok());
        }
    }

    /// A footer's row counts are not reserved before the rows decode: a
    /// stripe claiming 2^58 rows is an error, and so is a stripe directory
    /// whose row counts overflow `u64`.
    #[test]
    fn footer_row_counts_are_not_trusted() {
        let file = build_file(
            WriterOptions {
                rows_per_stripe: 8,
                ..Default::default()
            },
            13,
        );
        let mut huge = file.footer().clone();
        huge.stripes[0].row_count = 1 << 58;
        let reader = FileReader::open(with_footer(&file, &huge)).unwrap();
        assert!(reader
            .read_all(&Projection::new(vec![FeatureId(1)]))
            .is_err());
        assert!(reader.read_all_unprojected().is_err());
        let mut overflowing = file.footer().clone();
        overflowing.stripes[0].row_count = u64::MAX;
        match FileReader::open(with_footer(&file, &overflowing)) {
            Err(DsiError::Corrupt(msg)) => assert!(msg.contains("row counts overflow"), "{msg}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn out_of_range_stripe_errors() {
        let file = build_file(WriterOptions::default(), 4);
        let reader = FileReader::open(file.bytes().clone()).unwrap();
        assert!(reader.plan_stripe(9, None, CoalescePolicy::None).is_err());
    }

    #[test]
    fn from_footer_requires_external_source() {
        let file = build_file(WriterOptions::default(), 4);
        let reader = FileReader::from_footer(file.footer().clone());
        assert!(reader.read_all_unprojected().is_err());
        let mut src = SliceSource::new(file.bytes().clone());
        let (rows, _) = reader
            .read_stripe_from(0, None, CoalescePolicy::None, &mut src)
            .unwrap();
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn attached_registry_tracks_stripes_and_overread() {
        let file = build_file(WriterOptions::default(), 300);
        let reg = dsi_obs::Registry::new();
        let reader = FileReader::open(file.bytes().clone())
            .unwrap()
            .with_registry(&reg);
        let proj = Projection::new(vec![FeatureId(1), FeatureId(4)]);
        let mut src = SliceSource::new(file.bytes().clone());
        let (_, plan) = reader
            .read_stripe_from(0, Some(&proj), CoalescePolicy::default_window(), &mut src)
            .unwrap();
        use dsi_obs::names;
        assert_eq!(reg.counter_value(names::DWRF_STRIPES_DECODED_TOTAL, &[]), 1);
        assert_eq!(
            reg.counter_value(names::DWRF_READ_BYTES_TOTAL, &[]),
            plan.read_bytes
        );
        assert_eq!(
            reg.counter_value(names::DWRF_WANTED_BYTES_TOTAL, &[]),
            plan.wanted_bytes
        );
        // Coalescing never reads less than wanted.
        assert!(plan.read_bytes >= plan.wanted_bytes);
        // The zero-copy path over an in-memory source never memcpys.
        assert_eq!(plan.copied_bytes, 0);
        assert_eq!(
            reg.counter_value(names::FASTPATH_BYTES_COPIED_TOTAL, &[]),
            0
        );
        // Stage timings landed (extract + decompress + deserialize).
        for st in ["extract", "decompress", "deserialize"] {
            match reg.value(dsi_obs::STAGE_SECONDS, &[("stage", st)]) {
                Some(dsi_obs::MetricValue::Histogram(s)) => {
                    assert!(s.count >= 1, "stage {st} has no spans")
                }
                other => panic!("stage {st}: unexpected {other:?}"),
            }
        }
    }

    fn build_duplicated_file(
        opts: WriterOptions,
        sessions: u64,
        members: u64,
    ) -> crate::writer::DwrfFile {
        let mut w = FileWriter::new(opts);
        for s in 0..sessions {
            for m in 0..members {
                let mut row = Sample::new(m as f32);
                row.set_dense(FeatureId(1), s as f32 + m as f32 * 0.5);
                row.set_sparse(
                    FeatureId(2),
                    SparseList::from_ids((0..20).map(|k| s * 1000 + k).collect()),
                );
                row.set_sparse(
                    FeatureId(4),
                    SparseList::from_scored(vec![s * 7, s * 7 + 1], vec![0.5, 1.5]),
                );
                w.push(row);
            }
        }
        w.finish().unwrap()
    }

    #[test]
    fn dedup_file_round_trips_and_shrinks() {
        let plain = build_duplicated_file(WriterOptions::default(), 16, 8);
        let deduped = build_duplicated_file(WriterOptions::deduped(), 16, 8);
        assert!(deduped.footer().dedup);
        assert_eq!(deduped.dedup_stats().rows, 128);
        assert_eq!(deduped.dedup_stats().canonicals, 16);
        assert!(deduped.dedup_stats().bytes_saved > 0);
        // Same logical rows back out.
        let expect = FileReader::open(plain.bytes().clone())
            .unwrap()
            .read_all_unprojected()
            .unwrap();
        let got = FileReader::open(deduped.bytes().clone())
            .unwrap()
            .read_all_unprojected()
            .unwrap();
        assert_eq!(got, expect);
        // Duplicated sparse payloads stored once: the file shrinks even
        // though LZ compression already squeezes repeats in the plain file.
        assert!(
            (deduped.len() as f64) < plain.len() as f64 * 0.75,
            "deduped {} vs plain {}",
            deduped.len(),
            plain.len()
        );
        // On the uncompressed byte path (what extraction pays) the win is
        // the full duplication factor: 8 members per canonical.
        let raw_plain = build_duplicated_file(
            WriterOptions {
                compressed: false,
                encrypted: false,
                ..Default::default()
            },
            16,
            8,
        );
        let raw_deduped = build_duplicated_file(
            WriterOptions {
                compressed: false,
                encrypted: false,
                ..WriterOptions::deduped()
            },
            16,
            8,
        );
        assert!(
            (raw_deduped.len() as f64) < raw_plain.len() as f64 / 2.0,
            "raw deduped {} vs raw plain {}",
            raw_deduped.len(),
            raw_plain.len()
        );
    }

    #[test]
    fn dedup_file_respects_projection_and_unflattened_layout() {
        let opts = WriterOptions {
            flattened: false,
            ..WriterOptions::deduped()
        };
        let file = build_duplicated_file(opts, 4, 4);
        let reader = FileReader::open(file.bytes().clone()).unwrap();
        let proj = Projection::new(vec![FeatureId(1), FeatureId(2)]);
        let rows = reader.read_all(&proj).unwrap();
        assert_eq!(rows.len(), 16);
        assert!(rows[0].sparse(FeatureId(2)).is_some());
        assert!(
            rows[0].sparse(FeatureId(4)).is_none(),
            "projection filters dedup payloads"
        );
        assert!(rows[0].dense(FeatureId(1)).is_some());
    }

    #[test]
    fn dedup_file_without_duplication_round_trips() {
        let file = build_file(WriterOptions::deduped(), 20);
        let reader = FileReader::open(file.bytes().clone()).unwrap();
        let rows = reader.read_all_unprojected().unwrap();
        let expect = FileReader::open(build_file(WriterOptions::default(), 20).bytes().clone())
            .unwrap()
            .read_all_unprojected()
            .unwrap();
        assert_eq!(rows, expect);
        assert_eq!(file.dedup_stats().bytes_saved, 0);
    }

    #[test]
    fn multi_stripe_read_preserves_order() {
        let file = build_file(
            WriterOptions {
                rows_per_stripe: 7,
                ..Default::default()
            },
            23,
        );
        let reader = FileReader::open(file.bytes().clone()).unwrap();
        let rows = reader.read_all_unprojected().unwrap();
        assert_eq!(rows.len(), 23);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.label(), i as f32);
        }
    }
}
