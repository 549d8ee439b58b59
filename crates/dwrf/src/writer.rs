//! DWRF file writer: stripes, stream encoding, and the file footer.

use crate::cipher::StreamCipher;
use crate::compress;
use crate::encoding::MetaWriter;
use crate::layout::StreamOrder;
use crate::stream::{
    checksum64, encode_columns, encode_dedup_sparse, encode_dense_map, encode_labels,
    encode_sparse_map, DedupEncodeStats, StreamInfo, StreamKind, FILE_LEVEL,
};
use bytes::Bytes;
use dsi_types::{DsiError, FeatureId, Result, Sample};
use std::collections::BTreeSet;

/// Trailing file magic.
pub const MAGIC: &[u8; 8] = b"DWRF\0v1\0";

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
/// Rows are buffered and flushed as stripes; [`FileWriter::finish`] appends
/// the footer and returns the immutable [`DwrfFile`].
#[derive(Debug)]
pub struct FileWriter {
    opts: WriterOptions,
    pending: Vec<Sample>,
    buf: Vec<u8>,
    stripes: Vec<StripeMeta>,
    next_nonce: u64,
    dedup_stats: DedupEncodeStats,
}

impl FileWriter {
    /// Creates a writer with the given options.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_stripe` is zero.
    pub fn new(opts: WriterOptions) -> Self {
        assert!(opts.rows_per_stripe > 0, "rows_per_stripe must be positive");
        Self {
            opts,
            pending: Vec::new(),
            buf: Vec::new(),
            stripes: Vec::new(),
            next_nonce: 0,
            dedup_stats: DedupEncodeStats::default(),
        }
    }

    /// The writer's options.
    pub fn options(&self) -> &WriterOptions {
        &self.opts
    }

    /// Appends a row, flushing a stripe when the row budget is reached.
    pub fn push(&mut self, sample: Sample) {
        self.pending.push(sample);
        if self.pending.len() >= self.opts.rows_per_stripe {
            self.flush_stripe();
        }
    }

    /// Rows buffered but not yet flushed into a stripe.
    pub fn pending_rows(&self) -> usize {
        self.pending.len()
    }

    /// Compresses and encrypts `raw` onto the end of the file and records
    /// the stream in the stripe's directory.
    fn emit(&mut self, feature: u64, kind: StreamKind, raw: &[u8], streams: &mut Vec<StreamInfo>) {
        let offset = self.buf.len();
        if self.opts.compressed {
            compress::compress_into(raw, &mut self.buf);
        } else {
            self.buf.extend_from_slice(raw);
        }
        let payload = &mut self.buf[offset..];
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        if self.opts.encrypted {
            StreamCipher::new(self.opts.file_key).apply_in_place(nonce, payload);
        }
        streams.push(StreamInfo {
            feature,
            kind,
            offset: offset as u64,
            len: payload.len() as u64,
            nonce,
            checksum: checksum64(payload),
        });
    }

    /// Flushes buffered rows into a stripe (no-op when empty).
    pub fn flush_stripe(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let rows = std::mem::take(&mut self.pending);
        let mut streams: Vec<StreamInfo> = Vec::new();

        if self.opts.flattened {
            // Deduped files carry the whole sparse map in the canonical
            // table instead of per-feature sparse streams.
            let mut columns = encode_columns(&rows, !self.opts.dedup);
            self.opts
                .order
                .sort_by_feature(&mut columns, |(feature, _)| *feature);
            for (feature, raw_streams) in columns {
                for (kind, raw) in raw_streams {
                    self.emit(feature.0, kind, &raw, &mut streams);
                }
            }
        } else {
            let dense_map = encode_dense_map(&rows);
            self.emit(FILE_LEVEL, StreamKind::DenseMap, &dense_map, &mut streams);
            if !self.opts.dedup {
                let sparse_map = encode_sparse_map(&rows);
                self.emit(FILE_LEVEL, StreamKind::SparseMap, &sparse_map, &mut streams);
            }
        }
        if self.opts.dedup {
            // Canonical payloads once, per-row back-references RLE'd:
            // duplicate rows shrink to ~0 bytes on the real byte path.
            let (refs, data, stats) = encode_dedup_sparse(&rows, self.opts.dedup_window);
            self.dedup_stats.rows += stats.rows;
            self.dedup_stats.canonicals += stats.canonicals;
            self.dedup_stats.bytes_saved += stats.bytes_saved;
            self.emit(FILE_LEVEL, StreamKind::DedupRefs, &refs, &mut streams);
            self.emit(FILE_LEVEL, StreamKind::DedupData, &data, &mut streams);
        }
        let labels = encode_labels(&rows);
        self.emit(FILE_LEVEL, StreamKind::Label, &labels, &mut streams);

        let label_min = rows.iter().map(Sample::label).fold(f32::INFINITY, f32::min);
        let label_max = rows
            .iter()
            .map(Sample::label)
            .fold(f32::NEG_INFINITY, f32::max);
        self.stripes.push(StripeMeta {
            row_count: rows.len() as u64,
            label_min,
            label_max,
            streams,
        });
    }

    /// Finishes the file: flushes the final stripe, appends the footer and
    /// magic, and returns the immutable file.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::InvalidState`] if no rows were ever written.
    pub fn finish(mut self) -> Result<DwrfFile> {
        self.flush_stripe();
        if self.stripes.is_empty() {
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
            stripes: self.stripes,
        };
        let footer_bytes = encode_footer(&footer);
        let mut buf = self.buf;
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
        assert_eq!(w.pending_rows(), 2);
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
