//! DWRF file writer: stripes, stream encoding, and the file footer.

use crate::cipher::StreamCipher;
use crate::compress;
use crate::encoding::{write_f32s_xor, MetaWriter};
use crate::layout::StreamOrder;
use crate::stream::{
    checksum64, encode_dedup_sparse, encode_dense_map, encode_sparse_map, DedupEncodeStats,
    StreamInfo, StreamKind, StripeColumns, FILE_LEVEL,
};
use bytes::Bytes;
use dsi_types::{DsiError, FeatureId, Result, Sample};
use std::collections::BTreeSet;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{self, JoinHandle};

/// Trailing file magic. Version 2 stores sparse ids relative to a base
/// (packed `Data`, gap-coded `Dict`, row-map lists after their minimum), so
/// a version 1 file is refused rather than misread.
pub const MAGIC: &[u8; 8] = b"DWRF\0v2\0";

/// Writer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WriterOptions {
    /// Feature flattening: each feature gets its own streams (production
    /// layout). When `false`, the whole row maps are serialized per stripe
    /// (the pre-optimization baseline).
    pub flattened: bool,
    /// Compress streams.
    pub compressed: bool,
    /// Encrypt streams.
    pub encrypted: bool,
    /// Rows per stripe before an automatic flush.
    pub rows_per_stripe: usize,
    /// Stream layout order within each stripe.
    pub order: StreamOrder,
    /// File encryption key.
    pub file_key: u64,
    /// RecD-style sparse deduplication: each stripe stores one canonical
    /// copy of every distinct sparse payload plus per-row back-references,
    /// instead of re-serializing the payload for every duplicate row.
    pub dedup: bool,
    /// Lookback window (distinct recent payloads) for dedup matching; see
    /// [`encode_dedup_sparse`].
    pub dedup_window: usize,
}

impl Default for WriterOptions {
    fn default() -> Self {
        Self {
            flattened: true,
            compressed: true,
            encrypted: true,
            rows_per_stripe: 1024,
            order: StreamOrder::ById,
            file_key: 0x5eed_f00d,
            dedup: false,
            dedup_window: 64,
        }
    }
}

impl WriterOptions {
    /// The pre-optimization baseline: unflattened maps, id layout.
    pub fn unflattened_baseline() -> Self {
        Self {
            flattened: false,
            ..Self::default()
        }
    }

    /// The production layout with sparse deduplication enabled.
    pub fn deduped() -> Self {
        Self {
            dedup: true,
            ..Self::default()
        }
    }
}

/// Directory metadata for one stripe.
#[derive(Debug, Clone, PartialEq)]
pub struct StripeMeta {
    /// Rows in this stripe.
    pub row_count: u64,
    /// Minimum label value in the stripe (for predicate skipping).
    pub label_min: f32,
    /// Maximum label value in the stripe.
    pub label_max: f32,
    /// Directory of the stripe's physical streams.
    pub streams: Vec<StreamInfo>,
}

impl StripeMeta {
    /// Total encoded bytes of the stripe's streams.
    pub fn encoded_bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.len).sum()
    }

    /// Whether a `label == value` predicate can possibly match this stripe.
    pub fn may_contain_label(&self, value: f32) -> bool {
        value >= self.label_min && value <= self.label_max
    }
}

/// Parsed file footer.
#[derive(Debug, Clone, PartialEq)]
pub struct FileFooter {
    /// Whether feature flattening was used.
    pub flattened: bool,
    /// Whether streams are compressed.
    pub compressed: bool,
    /// Whether streams are encrypted.
    pub encrypted: bool,
    /// Whether sparse payloads are dedup-encoded (canonical table +
    /// per-row back-references).
    pub dedup: bool,
    /// File encryption key (carried in-file for the simulation).
    pub file_key: u64,
    /// Stripe directory.
    pub stripes: Vec<StripeMeta>,
}

impl FileFooter {
    /// Total rows across stripes.
    pub fn total_rows(&self) -> u64 {
        self.stripes.iter().map(|s| s.row_count).sum()
    }

    /// Distinct feature ids that have streams in this file (flattened
    /// files only; empty for map files).
    pub fn feature_ids(&self) -> Vec<FeatureId> {
        let mut ids = BTreeSet::new();
        for stripe in &self.stripes {
            for s in &stripe.streams {
                if s.feature != FILE_LEVEL {
                    ids.insert(FeatureId(s.feature));
                }
            }
        }
        ids.into_iter().collect()
    }
}

/// A finished, immutable DWRF file.
#[derive(Debug, Clone)]
pub struct DwrfFile {
    bytes: Bytes,
    footer: FileFooter,
    dedup_stats: DedupEncodeStats,
}

impl DwrfFile {
    /// The full encoded file.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// The parsed footer.
    pub fn footer(&self) -> &FileFooter {
        &self.footer
    }

    /// Total encoded size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the file holds no bytes (never true for a finished file).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Total rows stored.
    pub fn total_rows(&self) -> u64 {
        self.footer.total_rows()
    }

    /// Dedup byte-savings accounting accumulated while writing (zeroed for
    /// non-dedup files; not serialized — writer-side only).
    pub fn dedup_stats(&self) -> DedupEncodeStats {
        self.dedup_stats
    }
}

/// Streaming DWRF writer.
///
/// Rows are flushed as stripes; [`FileWriter::finish`] appends the footer
/// and returns the immutable [`DwrfFile`]. A flattened file's rows go to
/// their columns as they are pushed and are dropped there; only the layouts
/// that encode whole rows (unflattened maps, dedup's canonical table) keep
/// a stripe's rows until it is flushed.
///
/// The caller's thread pushes rows and builds each full stripe's raw
/// streams; one encoder thread the writer owns compresses, ciphers and
/// checksums them onto the file while the next stripe's rows are pushed.
/// It takes the stripes one at a time in the order they were flushed, so
/// every offset and nonce is the one a single thread would assign. A
/// writer dropped without [`FileWriter::finish`] ends its thread.
#[derive(Debug)]
pub struct FileWriter {
    opts: WriterOptions,
    /// The current stripe's feature columns (flattened files), reused by
    /// every stripe of the file.
    columns: StripeColumns,
    /// The current stripe's labels, one per pushed row.
    labels: Vec<f32>,
    /// The current stripe's rows, when the layout encodes whole rows.
    pending: Vec<Sample>,
    /// The encoder thread's queue: one stripe waits there while the thread
    /// encodes the one before. `None` once the queue is closed.
    to_encoder: Option<SyncSender<RawStripe>>,
    /// The encoder thread, which hands its [`StripeSink`] back once the
    /// queue closes.
    encoder: Option<JoinHandle<StripeSink>>,
    dedup_stats: DedupEncodeStats,
}

/// One stripe's raw streams in file order, with its directory entry still
/// missing the streams.
#[derive(Debug)]
struct RawStripe {
    meta: StripeMeta,
    streams: Vec<(u64, StreamKind, Vec<u8>)>,
}

impl FileWriter {
    /// Creates a writer with the given options and starts its encoder
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_stripe` is zero or the thread cannot be spawned.
    pub fn new(opts: WriterOptions) -> Self {
        assert!(opts.rows_per_stripe > 0, "rows_per_stripe must be positive");
        let (to_encoder, queue) = sync_channel::<RawStripe>(1);
        let sink = StripeSink::new(&opts);
        let encoder = thread::Builder::new()
            .name("dwrf-encoder".into())
            .spawn(move || sink.run(queue))
            .expect("spawn the DWRF encoder thread");
        Self {
            // Deduped files carry the whole sparse map in the canonical
            // table instead of per-feature sparse streams.
            columns: StripeColumns::new(!opts.dedup),
            opts,
            labels: Vec::new(),
            pending: Vec::new(),
            to_encoder: Some(to_encoder),
            encoder: Some(encoder),
            dedup_stats: DedupEncodeStats::default(),
        }
    }

    /// The writer's options.
    pub fn options(&self) -> &WriterOptions {
        &self.opts
    }

    /// Appends a row, flushing a stripe when the row budget is reached.
    pub fn push(&mut self, sample: Sample) {
        self.labels.push(sample.label());
        if self.opts.flattened {
            self.columns.push(&sample);
        }
        if !self.opts.flattened || self.opts.dedup {
            self.pending.push(sample);
        }
        if self.labels.len() >= self.opts.rows_per_stripe {
            self.flush_stripe();
        }
    }

    /// Builds the buffered rows' raw streams and hands them to the encoder
    /// thread (no-op when empty).
    fn flush_stripe(&mut self) {
        if self.labels.is_empty() {
            return;
        }
        let rows = std::mem::take(&mut self.pending);
        let mut streams = Vec::new();
        if self.opts.flattened {
            let mut columns = self.columns.encode();
            self.opts
                .order
                .sort_by_feature(&mut columns, |(feature, _)| *feature);
            for (feature, raw_streams) in columns {
                for (kind, raw) in raw_streams {
                    streams.push((feature.0, kind, raw));
                }
            }
        } else {
            streams.push((FILE_LEVEL, StreamKind::DenseMap, encode_dense_map(&rows)));
            if !self.opts.dedup {
                let sparse_map = encode_sparse_map(&rows);
                streams.push((FILE_LEVEL, StreamKind::SparseMap, sparse_map));
            }
        }
        if self.opts.dedup {
            // Canonical payloads once, per-row back-references RLE'd:
            // duplicate rows shrink to ~0 bytes on the real byte path.
            let (refs, data, stats) = encode_dedup_sparse(&rows, self.opts.dedup_window);
            self.dedup_stats.rows += stats.rows;
            self.dedup_stats.canonicals += stats.canonicals;
            self.dedup_stats.bytes_saved += stats.bytes_saved;
            streams.push((FILE_LEVEL, StreamKind::DedupRefs, refs));
            streams.push((FILE_LEVEL, StreamKind::DedupData, data));
        }
        let mut labels = Vec::new();
        write_f32s_xor(&mut labels, &self.labels);
        streams.push((FILE_LEVEL, StreamKind::Label, labels));

        let label_min = self.labels.iter().copied().fold(f32::INFINITY, f32::min);
        let label_max = self
            .labels
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max);
        let meta = StripeMeta {
            row_count: self.labels.len() as u64,
            label_min,
            label_max,
            streams: Vec::new(),
        };
        self.labels.clear();
        let queue = self.to_encoder.as_ref().expect("the queue is open");
        if queue.send(RawStripe { meta, streams }).is_err() {
            // The thread lets go of the queue early only by panicking.
            self.join_encoder();
        }
    }

    /// Closes the encoder thread's queue and waits for the thread to encode
    /// what is left in it, re-raising its panic if it had one.
    fn join_encoder(&mut self) -> StripeSink {
        self.to_encoder = None;
        let encoder = self.encoder.take().expect("the encoder is joined once");
        encoder
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// Finishes the file: flushes the final stripe, waits for the encoder
    /// thread, appends the footer and magic, and returns the immutable
    /// file.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::InvalidState`] if no rows were ever written.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the encoder thread.
    pub fn finish(mut self) -> Result<DwrfFile> {
        self.flush_stripe();
        let sink = self.join_encoder();
        if sink.stripes.is_empty() {
            return Err(DsiError::InvalidState(
                "cannot finish an empty DWRF file".into(),
            ));
        }
        let footer = FileFooter {
            flattened: self.opts.flattened,
            compressed: self.opts.compressed,
            encrypted: self.opts.encrypted,
            dedup: self.opts.dedup,
            file_key: self.opts.file_key,
            stripes: sink.stripes,
        };
        let footer_bytes = encode_footer(&footer);
        let mut buf = sink.buf;
        buf.extend_from_slice(&footer_bytes);
        // Footer integrity: [footer][checksum u64][len u64][MAGIC], so a
        // corrupted directory is rejected before any stream is trusted.
        buf.extend_from_slice(&checksum64(&footer_bytes).to_le_bytes());
        buf.extend_from_slice(&(footer_bytes.len() as u64).to_le_bytes());
        buf.extend_from_slice(MAGIC);
        Ok(DwrfFile {
            bytes: Bytes::from(buf),
            footer,
            dedup_stats: self.dedup_stats,
        })
    }
}

impl Drop for FileWriter {
    /// Ends the encoder thread of a writer that was not finished; a panic
    /// it had is not raised again here.
    fn drop(&mut self) {
        self.to_encoder = None;
        if let Some(encoder) = self.encoder.take() {
            let _ = encoder.join();
        }
    }
}

/// The file as the encoder thread builds it: each stripe's streams
/// compressed, ciphered and checksummed onto the end of `buf`, and the
/// stripe directory.
#[derive(Debug)]
struct StripeSink {
    compressed: bool,
    cipher: Option<StreamCipher>,
    buf: Vec<u8>,
    stripes: Vec<StripeMeta>,
    next_nonce: u64,
}

impl StripeSink {
    fn new(opts: &WriterOptions) -> Self {
        Self {
            compressed: opts.compressed,
            cipher: opts.encrypted.then(|| StreamCipher::new(opts.file_key)),
            buf: Vec::new(),
            stripes: Vec::new(),
            next_nonce: 0,
        }
    }

    /// The encoder thread: appends the queued stripes in order until the
    /// queue closes.
    fn run(mut self, queue: Receiver<RawStripe>) -> Self {
        for stripe in queue {
            self.append(stripe);
        }
        self
    }

    /// Appends one stripe's streams and its directory entry.
    fn append(&mut self, stripe: RawStripe) {
        // Room for one more stripe of the mean size written so far, so the
        // file does not grow in the middle of one.
        if let Some(mean) = self.buf.len().checked_div(self.stripes.len()) {
            self.buf.reserve(mean);
        }
        let RawStripe { mut meta, streams } = stripe;
        for (feature, kind, raw) in streams {
            meta.streams.push(self.emit(feature, kind, &raw));
        }
        self.stripes.push(meta);
    }

    /// Compresses and encrypts `raw` onto the end of the file and returns
    /// the stream's directory entry.
    fn emit(&mut self, feature: u64, kind: StreamKind, raw: &[u8]) -> StreamInfo {
        let offset = self.buf.len();
        if self.compressed {
            compress::compress_into(raw, &mut self.buf);
        } else {
            self.buf.extend_from_slice(raw);
        }
        let payload = &mut self.buf[offset..];
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        if let Some(cipher) = &self.cipher {
            cipher.apply_in_place(nonce, payload);
        }
        StreamInfo {
            feature,
            kind,
            offset: offset as u64,
            len: payload.len() as u64,
            nonce,
            checksum: checksum64(payload),
        }
    }
}

/// Serializes a footer with the metadata codec.
pub fn encode_footer(footer: &FileFooter) -> Vec<u8> {
    let mut w = MetaWriter::new();
    let flags = u64::from(footer.flattened)
        | (u64::from(footer.compressed) << 1)
        | (u64::from(footer.encrypted) << 2)
        | (u64::from(footer.dedup) << 3);
    w.u64(flags)
        .u64(footer.file_key)
        .u64(footer.stripes.len() as u64);
    for stripe in &footer.stripes {
        w.u64(stripe.row_count)
            .f64(stripe.label_min as f64)
            .f64(stripe.label_max as f64)
            .u64(stripe.streams.len() as u64);
        for s in &stripe.streams {
            w.u64(s.feature)
                .u64(s.kind.tag())
                .u64(s.offset)
                .u64(s.len)
                .u64(s.nonce)
                .u64(s.checksum);
        }
    }
    w.into_bytes()
}

/// Parses a footer produced by [`encode_footer`].
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] on malformed input, including a declared
/// count the footer's remaining bytes cannot hold (it reserves no more than
/// those bytes) and a stream whose `offset + len` overflows.
pub fn decode_footer(buf: &[u8]) -> Result<FileFooter> {
    let mut r = crate::encoding::MetaReader::new(buf);
    let flags = r.u64()?;
    let file_key = r.u64()?;
    let n_stripes = r.u64()?;
    let mut stripes = Vec::with_capacity(r.remaining().min(n_stripes as usize));
    // `FileFooter::total_rows` sums the row counts: a directory whose sum
    // overflows is corrupt.
    let mut total_rows = 0u64;
    for _ in 0..n_stripes {
        let row_count = r.u64()?;
        total_rows = total_rows
            .checked_add(row_count)
            .ok_or_else(|| DsiError::corrupt("stripe row counts overflow"))?;
        let label_min = r.f64()? as f32;
        let label_max = r.f64()? as f32;
        let n_streams = r.u64()?;
        let mut streams = Vec::with_capacity(r.remaining().min(n_streams as usize));
        for _ in 0..n_streams {
            let info = StreamInfo {
                feature: r.u64()?,
                kind: StreamKind::from_tag(r.u64()?)?,
                offset: r.u64()?,
                len: r.u64()?,
                nonce: r.u64()?,
                checksum: r.u64()?,
            };
            if info.offset.checked_add(info.len).is_none() {
                return Err(DsiError::corrupt("stream range overflows"));
            }
            streams.push(info);
        }
        stripes.push(StripeMeta {
            row_count,
            label_min,
            label_max,
            streams,
        });
    }
    Ok(FileFooter {
        flattened: flags & 1 != 0,
        compressed: flags & 2 != 0,
        encrypted: flags & 4 != 0,
        dedup: flags & 8 != 0,
        file_key,
        stripes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::SparseList;

    fn sample(i: u64) -> Sample {
        let mut s = Sample::new(i as f32);
        s.set_dense(FeatureId(1), i as f32 * 0.5);
        s.set_sparse(FeatureId(2), SparseList::from_ids(vec![i, i + 1, i + 2]));
        s
    }

    #[test]
    fn writer_flushes_stripes_by_row_budget() {
        let mut w = FileWriter::new(WriterOptions {
            rows_per_stripe: 4,
            ..Default::default()
        });
        for i in 0..10 {
            w.push(sample(i));
        }
        let file = w.finish().unwrap();
        assert_eq!(file.footer().stripes.len(), 3);
        assert_eq!(file.total_rows(), 10);
        assert_eq!(
            file.footer()
                .stripes
                .iter()
                .map(|s| s.row_count)
                .collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
    }

    #[test]
    fn footer_round_trip() {
        let mut w = FileWriter::new(WriterOptions::default());
        for i in 0..5 {
            w.push(sample(i));
        }
        let file = w.finish().unwrap();
        let enc = encode_footer(file.footer());
        let dec = decode_footer(&enc).unwrap();
        assert_eq!(&dec, file.footer());
    }

    #[test]
    fn empty_file_is_an_error() {
        let w = FileWriter::new(WriterOptions::default());
        assert!(w.finish().is_err());
    }

    #[test]
    fn flattened_file_has_per_feature_streams() {
        let mut w = FileWriter::new(WriterOptions::default());
        for i in 0..3 {
            w.push(sample(i));
        }
        let file = w.finish().unwrap();
        assert_eq!(
            file.footer().feature_ids(),
            vec![FeatureId(1), FeatureId(2)]
        );
        let kinds: Vec<_> = file.footer().stripes[0]
            .streams
            .iter()
            .map(|s| s.kind)
            .collect();
        assert!(kinds.contains(&StreamKind::DenseData));
        assert!(kinds.contains(&StreamKind::Data));
        assert!(kinds.contains(&StreamKind::Label));
    }

    #[test]
    fn unflattened_file_has_map_streams_only() {
        let mut w = FileWriter::new(WriterOptions::unflattened_baseline());
        for i in 0..3 {
            w.push(sample(i));
        }
        let file = w.finish().unwrap();
        assert!(file.footer().feature_ids().is_empty());
        let kinds: Vec<_> = file.footer().stripes[0]
            .streams
            .iter()
            .map(|s| s.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                StreamKind::DenseMap,
                StreamKind::SparseMap,
                StreamKind::Label
            ]
        );
    }

    #[test]
    fn file_ends_with_magic() {
        let mut w = FileWriter::new(WriterOptions::default());
        w.push(sample(0));
        let file = w.finish().unwrap();
        let bytes = file.bytes();
        assert_eq!(&bytes[bytes.len() - 8..], MAGIC);
    }

    #[test]
    fn nonces_run_through_the_file_in_stream_order() {
        let mut w = FileWriter::new(WriterOptions {
            rows_per_stripe: 2,
            ..Default::default()
        });
        for i in 0..9 {
            w.push(sample(i));
        }
        let file = w.finish().unwrap();
        assert_eq!(file.footer().stripes.len(), 5);
        let nonces: Vec<u64> = file
            .footer()
            .stripes
            .iter()
            .flat_map(|stripe| stripe.streams.iter().map(|s| s.nonce))
            .collect();
        assert_eq!(nonces, (0..nonces.len() as u64).collect::<Vec<_>>());
    }

    /// Swaps `w`'s encoder thread for one running `encode` over a fresh
    /// queue, after ending the one it had.
    fn swap_encoder(
        w: &mut FileWriter,
        encode: impl FnOnce(Receiver<RawStripe>) -> StripeSink + Send + 'static,
    ) {
        let (to_encoder, queue) = sync_channel(1);
        drop(w.to_encoder.replace(to_encoder));
        let old = w.encoder.replace(thread::spawn(move || encode(queue)));
        old.unwrap().join().unwrap();
    }

    #[test]
    fn a_writer_dropped_mid_file_ends_its_thread() {
        let opts = WriterOptions {
            rows_per_stripe: 2,
            ..Default::default()
        };
        let mut w = FileWriter::new(opts.clone());
        let (done, ended) = sync_channel(1);
        swap_encoder(&mut w, move |queue| {
            let mut sink = StripeSink::new(&opts);
            for stripe in queue {
                // Slower than the pushes, so stripes are still queued
                // when the writer is dropped.
                thread::sleep(std::time::Duration::from_millis(20));
                sink.append(stripe);
            }
            done.send(sink.stripes.len()).unwrap();
            sink
        });
        for i in 0..7 {
            w.push(sample(i));
        }
        drop(w);
        // The drop waited for the thread, which encoded every stripe
        // handed to it; the last row's stripe was never flushed.
        assert_eq!(ended.try_recv(), Ok(3));
    }

    #[test]
    fn an_encoder_panic_resurfaces_from_finish() {
        let mut w = FileWriter::new(WriterOptions::default());
        swap_encoder(&mut w, |queue| {
            let _stripe = queue.recv();
            panic!("encoder fault")
        });
        w.push(sample(0));
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.finish()))
            .expect_err("finish re-raises the encoder's panic");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"encoder fault"));
    }

    #[test]
    fn stream_offsets_are_disjoint_and_ordered() {
        let mut w = FileWriter::new(WriterOptions::default());
        for i in 0..6 {
            w.push(sample(i));
        }
        let file = w.finish().unwrap();
        let mut last_end = 0u64;
        for stripe in &file.footer().stripes {
            for s in &stripe.streams {
                assert!(s.offset >= last_end);
                last_end = s.offset + s.len;
            }
        }
        assert!(last_end <= file.len() as u64);
    }
}
