//! Logical column streams: how feature columns become byte streams.
//!
//! With **feature flattening** each feature is encoded as its own set of
//! streams (present bitmap, lengths, data, scores), so selective readers can
//! fetch only the features a job needs. The unflattened baseline encodes the
//! whole dense/sparse maps row-by-row into two monolithic streams, forcing
//! whole-row reads — the pre-optimization layout §VII's co-design work
//! replaced.

use crate::encoding::{
    read_bitmap, read_f32s, read_f32s_xor, read_packed, read_varint, read_varints_into,
    rle_decode_capped, rle_encode, write_f32s, write_f32s_xor, write_packed, write_varint,
    write_varints, Bitmap,
};
use dsi_types::{DsiError, FeatureId, Result, Sample, SparseList};

/// Sentinel feature id for file-level (non-feature) streams.
pub const FILE_LEVEL: u64 = u64::MAX;

/// The role of a stream within a stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Presence bitmap: one bit per row.
    Present,
    /// RLE varint list lengths, one per present row (sparse features).
    Length,
    /// Categorical ids, concatenated across present rows and bit-packed
    /// relative to their minimum ([`crate::encoding::write_packed`]).
    Data,
    /// `f32` scores aligned with [`StreamKind::Data`].
    Score,
    /// `f32` dense values, one per present row.
    DenseData,
    /// `f32` labels, one per row (file-level).
    Label,
    /// Unflattened row-wise dense map (file-level baseline).
    DenseMap,
    /// Unflattened row-wise sparse map (file-level baseline).
    SparseMap,
    /// Dictionary of distinct categorical ids, sorted and stored as a
    /// varint count and varint gaps (the first from 0); when present, the
    /// feature's `Data` stream holds packed indexes into this dictionary.
    Dict,
    /// Per-row back-references into [`StreamKind::DedupData`] (file-level):
    /// RLE'd varint canonical-payload indexes, one per row.
    DedupRefs,
    /// Canonical sparse payloads, each stored once per stripe (file-level);
    /// rows reference them through [`StreamKind::DedupRefs`].
    DedupData,
}

impl StreamKind {
    /// Stable numeric tag for footers.
    pub fn tag(self) -> u64 {
        match self {
            StreamKind::Present => 0,
            StreamKind::Length => 1,
            StreamKind::Data => 2,
            StreamKind::Score => 3,
            StreamKind::DenseData => 4,
            StreamKind::Label => 5,
            StreamKind::DenseMap => 6,
            StreamKind::SparseMap => 7,
            StreamKind::Dict => 8,
            StreamKind::DedupRefs => 9,
            StreamKind::DedupData => 10,
        }
    }

    /// Inverse of [`StreamKind::tag`].
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::Corrupt`] for unknown tags.
    pub fn from_tag(tag: u64) -> Result<Self> {
        Ok(match tag {
            0 => StreamKind::Present,
            1 => StreamKind::Length,
            2 => StreamKind::Data,
            3 => StreamKind::Score,
            4 => StreamKind::DenseData,
            5 => StreamKind::Label,
            6 => StreamKind::DenseMap,
            7 => StreamKind::SparseMap,
            8 => StreamKind::Dict,
            9 => StreamKind::DedupRefs,
            10 => StreamKind::DedupData,
            _ => return Err(DsiError::corrupt(format!("unknown stream kind {tag}"))),
        })
    }
}

/// Directory entry for one physical stream in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamInfo {
    /// Owning feature id, or [`FILE_LEVEL`].
    pub feature: u64,
    /// Stream role.
    pub kind: StreamKind,
    /// Byte offset within the file.
    pub offset: u64,
    /// Encoded (compressed + encrypted) length in bytes.
    pub len: u64,
    /// Cipher nonce.
    pub nonce: u64,
    /// [`checksum64`] of the stored (post-compress, post-encrypt) bytes.
    ///
    /// Verified before any decode work, so storage-layer corruption always
    /// surfaces as a typed [`DsiError::Corrupt`] instead of silently wrong
    /// tensors (stored compression blocks and encrypted f32 payloads would
    /// otherwise decode without complaint).
    pub checksum: u64,
}

/// Integrity checksum for stored streams, footers, and wire frames. Not
/// cryptographic — it guards against bit rot and injected corruption, not
/// adversaries (the stream cipher handles privacy).
///
/// FNV-style xor-multiply folding, but over four independent 64-bit lanes
/// of 8-byte words instead of single bytes: byte-at-a-time FNV-1a is a
/// strict serial dependency chain (~3 cycles *latency* per byte on the
/// multiply), which showed up as a per-frame tax on the wire hot path.
/// Four lanes keep the multiplier pipeline full, folding 32 bytes per
/// round; the tail and the total length fold in byte-wise.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [
        SEED,
        SEED ^ PRIME,
        SEED.rotate_left(17),
        SEED.rotate_left(31),
    ];
    let mut chunks = bytes.chunks_exact(32);
    for c in &mut chunks {
        for (lane, w) in lanes.iter_mut().zip(c.chunks_exact(8)) {
            let v = u64::from_le_bytes(w.try_into().expect("8-byte word"));
            *lane = (*lane ^ v).wrapping_mul(PRIME);
        }
    }
    let mut h = lanes[0];
    for &lane in &lanes[1..] {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    (h ^ bytes.len() as u64).wrapping_mul(PRIME)
}

/// The raw (unencoded) streams produced for one column of one stripe.
pub type RawStreams = Vec<(StreamKind, Vec<u8>)>;

/// One feature's cells across a stripe, under a presence bit per row. The
/// writer sizes and fills them row by row; the reader decodes them a
/// stream at a time.
#[derive(Debug)]
pub(crate) struct Column<C> {
    pub(crate) feature: FeatureId,
    pub(crate) present: Bitmap,
    pub(crate) cells: C,
}

impl<C> Column<C> {
    fn present_stream(&self) -> (StreamKind, Vec<u8>) {
        let mut buf = Vec::new();
        self.present.write(&mut buf);
        (StreamKind::Present, buf)
    }
}

/// Marks `feature` present in `row` and returns its cells. A row's
/// features arrive in ascending id order and `columns` is kept in that
/// order, so the search resumes at `*cursor` (where the row's previous
/// feature left it) and the whole row is one merge pass. A feature no
/// earlier row held opens a column in place, with a bit for each of
/// `rows` rows and the cells `open` returns.
fn cells_of<'a, C>(
    columns: &'a mut Vec<Column<C>>,
    cursor: &mut usize,
    feature: FeatureId,
    row: usize,
    rows: usize,
    open: impl FnOnce() -> C,
) -> &'a mut C {
    while columns.get(*cursor).is_some_and(|c| c.feature < feature) {
        *cursor += 1;
    }
    if columns.get(*cursor).is_none_or(|c| c.feature != feature) {
        columns.insert(
            *cursor,
            Column {
                feature,
                present: Bitmap::zeros(rows),
                cells: open(),
            },
        );
    }
    let column = &mut columns[*cursor];
    *cursor += 1;
    column.present.set(row);
    &mut column.cells
}

/// What one sparse column of a stripe holds, counted from the rows' list
/// headers before any cell is copied.
#[derive(Debug, Default)]
struct SparseSize {
    lists: usize,
    ids: usize,
    scored: bool,
}

/// The sparse columns of `rows` in id order. A first pass over the rows'
/// list headers sets the presence bits and counts each column's lists and
/// ids, so every buffer is reserved to exactly what the second pass
/// copies into it.
fn sparse_columns(rows: &[Sample]) -> Vec<Column<SparseCells>> {
    let mut sized: Vec<Column<SparseSize>> = Vec::new();
    for (r, row) in rows.iter().enumerate() {
        let mut cursor = 0;
        for (feature, list) in row.sparse_iter() {
            let size = cells_of(
                &mut sized,
                &mut cursor,
                feature,
                r,
                rows.len(),
                SparseSize::default,
            );
            size.lists += 1;
            size.ids += list.len();
            size.scored |= list.scores().is_some();
        }
    }
    let mut columns: Vec<Column<SparseCells>> = sized
        .into_iter()
        .map(|c| Column {
            feature: c.feature,
            present: c.present,
            cells: SparseCells::with_capacity(&c.cells),
        })
        .collect();
    for row in rows {
        // The first pass opened every column a row holds, in order.
        let mut cursor = 0;
        for (feature, list) in row.sparse_iter() {
            while columns[cursor].feature != feature {
                cursor += 1;
            }
            columns[cursor].cells.push(list);
            cursor += 1;
        }
    }
    columns
}

/// The present cells of a sparse column, concatenated.
#[derive(Debug)]
pub(crate) struct SparseCells {
    pub(crate) lengths: Vec<u64>,
    pub(crate) ids: Vec<u64>,
    /// Aligned with `ids` when `scored`, empty otherwise.
    pub(crate) scores: Vec<f32>,
    pub(crate) scored: bool,
}

impl SparseCells {
    /// Empty cells with room for exactly what `size` counted.
    fn with_capacity(size: &SparseSize) -> Self {
        Self {
            lengths: Vec::with_capacity(size.lists),
            ids: Vec::with_capacity(size.ids),
            scores: Vec::with_capacity(if size.scored { size.ids } else { 0 }),
            scored: size.scored,
        }
    }

    /// Appends `list`; in a scored column an unscored list gets unit
    /// scores.
    fn push(&mut self, list: &SparseList) {
        self.lengths.push(list.len() as u64);
        self.ids.extend_from_slice(list.ids());
        if self.scored {
            match list.scores() {
                Some(scores) => self.scores.extend_from_slice(scores),
                None => self.scores.resize(self.ids.len(), 1.0),
            }
        }
    }
}

impl Column<Vec<f32>> {
    /// A `Present` bitmap and a `DenseData` stream of the present values.
    fn encode(self) -> RawStreams {
        let mut data = Vec::new();
        write_f32s_xor(&mut data, &self.cells);
        vec![self.present_stream(), (StreamKind::DenseData, data)]
    }
}

/// The most distinct ids a `Dict` stream holds.
const MAX_DICT: usize = 4096;

/// Scratch for the dictionary decision, reused by every sparse column of
/// one [`encode_columns`] call: an open-addressed id → first-seen index
/// table that each column leaves empty again.
#[derive(Debug)]
struct DictTable {
    /// Odd and drawn per table: ids come from logged samples, and a fixed
    /// multiplier would let chosen ids share a probe chain.
    multiplier: u64,
    /// `(id, 1 + first-seen index)`; an index of `0` is an empty slot.
    slots: Vec<(u64, u32)>,
    /// The column's distinct ids in first-seen order, with their slots.
    distinct: Vec<(u64, usize)>,
    /// First-seen index → rank in the sorted dictionary.
    ranks: Vec<u64>,
}

impl DictTable {
    fn new() -> Self {
        use std::hash::{BuildHasher, Hasher};
        Self {
            multiplier: std::collections::hash_map::RandomState::new()
                .build_hasher()
                .finish()
                | 1,
            slots: Vec::new(),
            distinct: Vec::new(),
            ranks: Vec::new(),
        }
    }

    /// The slot `id` probes first in a table of `1 << (64 - shift)` slots.
    #[inline]
    fn home_slot(&self, id: u64, shift: u32) -> usize {
        (id.wrapping_mul(self.multiplier) >> shift) as usize
    }

    /// Dictionary-encodes `ids` when they repeat enough to pay for the
    /// dictionary (hot categorical ids — page ids, topic ids — recur across
    /// samples): when there are ids, at most half as many distinct ones,
    /// and at most [`MAX_DICT`]. Then each id is replaced by its rank and
    /// the `Dict` stream is returned; otherwise `ids` are left as they were.
    ///
    /// One hashed pass decides, giving up as soon as the distinct count
    /// passes the cap; only a column that takes a dictionary sorts, and
    /// only its distinct ids.
    fn encode(&mut self, ids: &mut [u64]) -> Option<Vec<u8>> {
        let cap = (ids.len() / 2).min(MAX_DICT);
        if cap == 0 {
            return None;
        }
        // The table holds at most `cap` ids: a load factor of at most half.
        let size = (2 * cap).next_power_of_two();
        if self.slots.len() < size {
            self.slots.resize(size, (0, 0));
        }
        self.distinct.clear();
        if let Err(at) = self.index(ids, cap, size) {
            for id in &mut ids[..at] {
                *id = self.distinct[*id as usize].0;
            }
            for &(_, slot) in &self.distinct {
                self.slots[slot].1 = 0;
            }
            return None;
        }
        self.distinct.sort_unstable();
        self.ranks.clear();
        self.ranks.resize(self.distinct.len(), 0);
        for (rank, &(_, slot)) in self.distinct.iter().enumerate() {
            let first_seen = self.slots[slot].1 as usize - 1;
            self.ranks[first_seen] = rank as u64;
            self.slots[slot].1 = 0;
        }
        for id in ids.iter_mut() {
            *id = self.ranks[*id as usize];
        }
        let gaps: Vec<u64> = std::iter::once(self.distinct[0].0)
            .chain(self.distinct.windows(2).map(|pair| pair[1].0 - pair[0].0))
            .collect();
        let mut dict = Vec::new();
        write_varint(&mut dict, gaps.len() as u64);
        write_varints(&mut dict, &gaps);
        Some(dict)
    }

    /// Replaces each id with its first-seen index among the column's
    /// distinct ids, recording them in `distinct`. `Err(at)` when `ids[at]`
    /// would be distinct id `cap + 1`; the ids before it are replaced.
    fn index(
        &mut self,
        ids: &mut [u64],
        cap: usize,
        size: usize,
    ) -> std::result::Result<(), usize> {
        let shift = 64 - size.trailing_zeros();
        for (at, id) in ids.iter_mut().enumerate() {
            let mut slot = self.home_slot(*id, shift);
            *id = loop {
                let (key, tag) = self.slots[slot];
                if tag == 0 {
                    if self.distinct.len() == cap {
                        return Err(at);
                    }
                    self.distinct.push((*id, slot));
                    self.slots[slot] = (*id, self.distinct.len() as u32);
                    break (self.distinct.len() - 1) as u64;
                }
                if key == *id {
                    break u64::from(tag - 1);
                }
                slot = (slot + 1) & (size - 1);
            };
        }
        Ok(())
    }
}

/// The sort-based dictionary rule [`DictTable::encode`] replaced: the
/// reference its property and edge tests compare against.
#[cfg(test)]
fn dictionary_by_sorting(ids: &mut [u64]) -> Option<Vec<u8>> {
    let mut distinct = ids.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if ids.is_empty() || distinct.len() * 2 > ids.len() || distinct.len() > MAX_DICT {
        return None;
    }
    let mut dict = Vec::new();
    write_varint(&mut dict, distinct.len() as u64);
    let gaps: Vec<u64> = std::iter::once(distinct[0])
        .chain(distinct.windows(2).map(|pair| pair[1] - pair[0]))
        .collect();
    write_varints(&mut dict, &gaps);
    for id in ids {
        *id = distinct
            .binary_search(id)
            .expect("id is in its own dictionary") as u64;
    }
    Some(dict)
}

impl Column<SparseCells> {
    /// `Present`, `Length` (RLE), `Data` (bit-packed ids or dictionary
    /// indexes), a `Dict` when ids repeat ([`DictTable::encode`]), and a
    /// `Score` stream when any list was scored.
    fn encode(self, dict: &mut DictTable) -> RawStreams {
        let present = self.present_stream();
        let SparseCells {
            lengths,
            mut ids,
            scores,
            scored,
        } = self.cells;
        let dict_buf = dict.encode(&mut ids);
        // Every dictionary index occurs, so indexes pack from base 0 at the
        // width of the last one.
        let mut ids_buf = Vec::new();
        write_packed(&mut ids_buf, &ids);
        let mut out = vec![
            present,
            (StreamKind::Length, rle_encode(&lengths)),
            (StreamKind::Data, ids_buf),
        ];
        if let Some(dict_buf) = dict_buf {
            out.push((StreamKind::Dict, dict_buf));
        }
        if scored {
            let mut sbuf = Vec::new();
            write_f32s(&mut sbuf, &scores);
            out.push((StreamKind::Score, sbuf));
        }
        out
    }
}

/// Transposes `rows` into per-feature columns — one id-ordered merge pass
/// per row — and encodes each: the dense columns in id order, then (when
/// `with_sparse`) the sparse columns in id order. Every buffer is sized
/// before it is filled: a dense column reserves a value per row, and the
/// sparse columns count their lists and ids in a first pass over the rows
/// before a second copies them.
///
/// Scored-ness is a column-level property (as in the production schema):
/// if any row of the stripe carries scores, the whole column round-trips
/// as scored, with unscored rows canonicalized to unit scores.
pub fn encode_columns(rows: &[Sample], with_sparse: bool) -> Vec<(FeatureId, RawStreams)> {
    let mut dense: Vec<Column<Vec<f32>>> = Vec::new();
    for (r, row) in rows.iter().enumerate() {
        let mut cursor = 0;
        for (feature, value) in row.dense_iter() {
            cells_of(&mut dense, &mut cursor, feature, r, rows.len(), || {
                Vec::with_capacity(rows.len())
            })
            .push(value);
        }
    }
    let sparse = if with_sparse {
        sparse_columns(rows)
    } else {
        Vec::new()
    };
    let dense = dense.into_iter().map(|c| (c.feature, c.encode()));
    let mut dict = DictTable::new();
    let sparse = sparse.into_iter().map(|c| (c.feature, c.encode(&mut dict)));
    dense.chain(sparse).collect()
}

impl SparseCells {
    /// Decodes the streams of a sparse column with `present` present rows;
    /// a dictionary, when there is one, is resolved in place.
    fn decode(
        present: usize,
        lengths: &[u8],
        data: &[u8],
        dict: Option<&[u8]>,
        scores: Option<&[u8]>,
    ) -> Result<Self> {
        // The bitmap bounds the row count, so a corrupt length header cannot
        // force an allocation beyond one length per present row.
        let lengths = rle_decode_capped(lengths, present)?;
        if lengths.len() != present {
            return Err(DsiError::corrupt(format!(
                "sparse column has {} lengths for {present} present rows",
                lengths.len()
            )));
        }
        // A packed id is at least one bit.
        let total = lengths
            .iter()
            .try_fold(0u64, |sum, &n| sum.checked_add(n))
            .filter(|&total| total <= 8 * data.len() as u64)
            .ok_or_else(|| DsiError::corrupt("sparse data stream shorter than lengths"))?;
        let mut ids = Vec::new();
        read_packed(data, total as usize, &mut ids)?;
        if let Some(dict) = dict {
            let mut pos = 0;
            let n = read_varint(dict, &mut pos)?;
            if n > (dict.len() - pos) as u64 {
                return Err(DsiError::corrupt("dictionary count exceeds buffer"));
            }
            let mut values = Vec::new();
            read_varints_into(dict, &mut pos, n as usize, &mut values)?;
            if pos != dict.len() {
                return Err(DsiError::corrupt("trailing bytes in dictionary stream"));
            }
            let mut id = 0u64;
            for gap in &mut values {
                id = id
                    .checked_add(*gap)
                    .ok_or_else(|| DsiError::corrupt("dictionary id overflows u64"))?;
                *gap = id;
            }
            for id in &mut ids {
                *id = usize::try_from(*id)
                    .ok()
                    .and_then(|index| values.get(index).copied())
                    .ok_or_else(|| DsiError::corrupt("dictionary index out of range"))?;
            }
        }
        let scored = scores.is_some();
        let scores = scores.map_or(Ok(Vec::new()), read_f32s)?;
        if scored && scores.len() != ids.len() {
            return Err(DsiError::corrupt("score stream misaligned with ids"));
        }
        Ok(Self {
            lengths,
            ids,
            scores,
            scored,
        })
    }
}

/// A stripe's feature columns as [`decode_columns`] leaves them: present
/// bits packed as stored, values / lengths / ids / scores contiguous, each
/// list in directory order.
#[derive(Debug, Default)]
pub struct DecodedColumns {
    pub(crate) dense: Vec<Column<Vec<f32>>>,
    pub(crate) sparse: Vec<Column<SparseCells>>,
}

impl DecodedColumns {
    /// Number of columns.
    pub fn len(&self) -> usize {
        self.dense.len() + self.sparse.len()
    }

    /// Whether there is no column.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Values the column buffers have room for. Hostile-stream tests hold
    /// it against the bytes that were decoded.
    pub fn reserved_values(&self) -> usize {
        let dense = self.dense.iter().map(|c| c.cells.capacity());
        let sparse = self.sparse.iter().map(|c| {
            c.cells.lengths.capacity() + c.cells.ids.capacity() + c.cells.scores.capacity()
        });
        dense.chain(sparse).sum()
    }

    /// Decodes the column group `streams` hold for `feature` and appends
    /// the column.
    fn push_group<B: AsRef<[u8]>>(
        &mut self,
        feature: FeatureId,
        streams: &[(StreamKind, B)],
        rows: usize,
    ) -> Result<()> {
        // A handful of streams at most: a scan finds one as fast as a map.
        let stream = |kind| {
            let found = streams.iter().find(|(k, _)| *k == kind);
            found.map(|(_, bytes)| bytes.as_ref())
        };
        let required = |kind| {
            stream(kind).ok_or_else(|| {
                DsiError::corrupt(format!(
                    "feature {} column has no {kind:?} stream",
                    feature.0
                ))
            })
        };
        let present = read_bitmap(required(StreamKind::Present)?)?;
        // The bitmap carries its own row count: more bits than the stripe
        // has rows would index past the last row, fewer would silently
        // drop the feature from the tail rows.
        if present.len() != rows {
            return Err(DsiError::corrupt(format!(
                "feature {} present bitmap holds {} rows, stripe has {rows}",
                feature.0,
                present.len()
            )));
        }
        let expected = present.count_ones();
        if let Some(data) = stream(StreamKind::DenseData) {
            let cells = read_f32s_xor(data)?;
            if cells.len() != expected {
                return Err(DsiError::corrupt(format!(
                    "dense column has {} values for {expected} present rows",
                    cells.len()
                )));
            }
            self.dense.push(Column {
                feature,
                present,
                cells,
            });
            return Ok(());
        }
        let cells = SparseCells::decode(
            expected,
            required(StreamKind::Length)?,
            required(StreamKind::Data)?,
            stream(StreamKind::Dict),
            stream(StreamKind::Score),
        )?;
        self.sparse.push(Column {
            feature,
            present,
            cells,
        });
        Ok(())
    }
}

/// Decodes a stripe's feature streams into columns — the inverse of
/// [`encode_columns`]. `streams` yields the decoded payloads in directory
/// order: each `Present` stream opens its feature's column group and the
/// group's other streams follow it. A group is decoded, and its payloads
/// dropped, as soon as the next one opens, so a caller producing payloads
/// lazily holds one group's worth at a time.
///
/// # Errors
///
/// Returns the first error `streams` yields, and [`DsiError::Corrupt`] if a
/// group is malformed, its streams disagree with each other, or its
/// bitmap does not hold exactly `rows` rows.
pub fn decode_columns<B: AsRef<[u8]>>(
    streams: impl IntoIterator<Item = Result<(FeatureId, StreamKind, B)>>,
    rows: usize,
) -> Result<DecodedColumns> {
    let mut out = DecodedColumns::default();
    // The open group: its feature, and its streams with `Present` first.
    let mut owner: Option<FeatureId> = None;
    let mut group: Vec<(StreamKind, B)> = Vec::new();
    for stream in streams {
        let (feature, kind, bytes) = stream?;
        if kind == StreamKind::Present {
            if let Some(done) = owner.replace(feature) {
                out.push_group(done, &group, rows)?;
                group.clear();
            }
        } else if owner != Some(feature) {
            return Err(DsiError::corrupt(format!(
                "feature {} {kind:?} stream outside its column group",
                feature.0
            )));
        }
        group.push((kind, bytes));
    }
    if let Some(done) = owner {
        out.push_group(done, &group, rows)?;
    }
    Ok(out)
}

/// Encodes labels for a stripe.
pub fn encode_labels(rows: &[Sample]) -> Vec<u8> {
    let labels: Vec<f32> = rows.iter().map(Sample::label).collect();
    let mut buf = Vec::new();
    write_f32s_xor(&mut buf, &labels);
    buf
}

/// Decodes a label stream.
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] on malformed input.
pub fn decode_labels(buf: &[u8]) -> Result<Vec<f32>> {
    read_f32s_xor(buf)
}

/// Encodes the unflattened row-wise dense map for a stripe (baseline).
pub fn encode_dense_map(rows: &[Sample]) -> Vec<u8> {
    let mut buf = Vec::new();
    for row in rows {
        write_varint(&mut buf, row.dense_count() as u64);
        for (fid, v) in row.dense_iter() {
            write_varint(&mut buf, fid.0);
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf
}

/// Decodes the row-wise dense map into `(feature, value)` pairs per row.
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] on malformed input.
pub fn decode_dense_map(buf: &[u8], rows: usize) -> Result<Vec<Vec<(FeatureId, f32)>>> {
    // Every count below is bounded by the bytes left before it is reserved:
    // a row is at least its count byte, an entry a one-byte id and a value.
    let mut out = Vec::with_capacity(rows.min(buf.len()));
    let mut pos = 0;
    for _ in 0..rows {
        let n = read_varint(buf, &mut pos)?;
        if n > ((buf.len() - pos) / 5) as u64 {
            return Err(DsiError::corrupt("dense map count exceeds buffer"));
        }
        let mut row = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let fid = read_varint(buf, &mut pos)?;
            if pos + 4 > buf.len() {
                return Err(DsiError::corrupt("truncated dense map value"));
            }
            let v = f32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]);
            pos += 4;
            row.push((FeatureId(fid), v));
        }
        out.push(row);
    }
    Ok(out)
}

/// Encodes one row's sparse map (feature count + per-feature payloads) into
/// `buf`. Shared by the unflattened baseline and the dedup canonical table.
/// Each list stores its smallest id (0 when empty) and then every id as a
/// varint offset from it.
pub fn encode_row_sparse(buf: &mut Vec<u8>, row: &Sample) {
    write_varint(buf, row.sparse_count() as u64);
    for (fid, list) in row.sparse_iter() {
        write_varint(buf, fid.0);
        write_varint(buf, list.len() as u64);
        write_varint(buf, u64::from(list.is_scored()));
        let base = list.ids().iter().copied().min().unwrap_or(0);
        write_varint(buf, base);
        for &id in list.ids() {
            write_varint(buf, id - base);
        }
        if let Some(scores) = list.scores() {
            write_f32s(buf, scores);
        }
    }
}

/// Decodes one row's sparse map from `buf` at `pos` (inverse of
/// [`encode_row_sparse`]).
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] on malformed input.
pub fn decode_row_sparse(buf: &[u8], pos: &mut usize) -> Result<Vec<(FeatureId, SparseList)>> {
    // Counts are bounded by the bytes left before they are reserved: a
    // feature is at least four one-byte varints, an id at least one byte.
    let n = read_varint(buf, pos)?;
    if n > ((buf.len() - *pos) / 4) as u64 {
        return Err(DsiError::corrupt("sparse map feature count exceeds buffer"));
    }
    let mut row = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let fid = read_varint(buf, pos)?;
        let len = read_varint(buf, pos)?;
        let scored = read_varint(buf, pos)? != 0;
        let base = read_varint(buf, pos)?;
        if len > (buf.len() - *pos) as u64 {
            return Err(DsiError::corrupt("sparse map id count exceeds buffer"));
        }
        let len = len as usize;
        let mut ids = Vec::with_capacity(len);
        for _ in 0..len {
            let id = base
                .checked_add(read_varint(buf, pos)?)
                .ok_or_else(|| DsiError::corrupt("sparse map id overflows u64"))?;
            ids.push(id);
        }
        let list = if scored {
            if *pos + 4 * len > buf.len() {
                return Err(DsiError::corrupt("truncated sparse map scores"));
            }
            let scores = read_f32s(&buf[*pos..*pos + 4 * len])?;
            *pos += 4 * len;
            SparseList::from_scored(ids, scores)
        } else {
            SparseList::from_ids(ids)
        };
        row.push((FeatureId(fid), list));
    }
    Ok(row)
}

/// Encodes the unflattened row-wise sparse map for a stripe (baseline).
pub fn encode_sparse_map(rows: &[Sample]) -> Vec<u8> {
    let mut buf = Vec::new();
    for row in rows {
        encode_row_sparse(&mut buf, row);
    }
    buf
}

/// Decodes the row-wise sparse map into `(feature, list)` pairs per row.
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] on malformed input.
pub fn decode_sparse_map(buf: &[u8], rows: usize) -> Result<Vec<Vec<(FeatureId, SparseList)>>> {
    // A row is at least its one-byte feature count.
    let mut out = Vec::with_capacity(rows.min(buf.len()));
    let mut pos = 0;
    for _ in 0..rows {
        out.push(decode_row_sparse(buf, &mut pos)?);
    }
    Ok(out)
}

/// Byte-savings accounting from one dedup stripe encode.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DedupEncodeStats {
    /// Logical rows encoded.
    pub rows: u64,
    /// Canonical payloads stored.
    pub canonicals: u64,
    /// Payload bytes that duplicate rows did *not* re-store.
    pub bytes_saved: u64,
}

/// Encodes a stripe's sparse maps RecD-style: each distinct payload is
/// stored once in a canonical table (`DedupData`) and every row carries a
/// back-reference into it (`DedupRefs`, RLE'd — consecutive duplicate rows
/// cost ~0 bytes each).
///
/// `window` bounds how many recent distinct payloads a row may reference
/// (sessions are temporally local; an unbounded window would make the
/// matcher quadratic on adversarial data).
pub fn encode_dedup_sparse(rows: &[Sample], window: usize) -> (Vec<u8>, Vec<u8>, DedupEncodeStats) {
    let window = window.max(1);
    let mut canonicals: Vec<u8> = Vec::new(); // concatenated payloads
    let mut count = 0u64;
    // Lookback window of (canonical index, payload bytes), newest last.
    let mut recent: std::collections::VecDeque<(u64, Vec<u8>)> = std::collections::VecDeque::new();
    let mut refs = Vec::with_capacity(rows.len());
    let mut stats = DedupEncodeStats::default();
    for row in rows {
        stats.rows += 1;
        let mut payload = Vec::new();
        encode_row_sparse(&mut payload, row);
        match recent.iter().rev().find(|(_, p)| *p == payload) {
            Some(&(idx, _)) => {
                refs.push(idx);
                stats.bytes_saved += payload.len() as u64;
            }
            None => {
                let idx = count;
                count += 1;
                canonicals.extend_from_slice(&payload);
                refs.push(idx);
                recent.push_back((idx, payload));
                if recent.len() > window {
                    recent.pop_front();
                }
            }
        }
    }
    stats.canonicals = count;
    let mut data = Vec::new();
    write_varint(&mut data, count);
    data.extend_from_slice(&canonicals);
    (rle_encode(&refs), data, stats)
}

/// Decodes a dedup-encoded stripe back into per-row sparse maps: the
/// canonical table is decoded once and each row's reference resolves to a
/// clone of its canonical payload.
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] if references or payloads are malformed.
pub fn decode_dedup_sparse(
    refs: &[u8],
    data: &[u8],
    rows: usize,
) -> Result<Vec<Vec<(FeatureId, SparseList)>>> {
    let mut pos = 0;
    let count = read_varint(data, &mut pos)?;
    // A canonical payload is at least its one-byte feature count.
    if count > (data.len() - pos) as u64 {
        return Err(DsiError::corrupt("dedup canonical count exceeds buffer"));
    }
    let mut canonicals = Vec::with_capacity(count as usize);
    for _ in 0..count {
        canonicals.push(decode_row_sparse(data, &mut pos)?);
    }
    if pos != data.len() {
        return Err(DsiError::corrupt("trailing bytes in dedup data stream"));
    }
    let indexes = rle_decode_capped(refs, rows)?;
    if indexes.len() != rows {
        return Err(DsiError::corrupt(format!(
            "dedup refs hold {} rows, stripe has {rows}",
            indexes.len()
        )));
    }
    indexes
        .into_iter()
        .map(|idx| {
            canonicals
                .get(idx as usize)
                .cloned()
                .ok_or_else(|| DsiError::corrupt("dedup reference out of range"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Sample> {
        let mut out = Vec::new();
        for i in 0..5u64 {
            let mut s = Sample::new(i as f32 / 10.0);
            if i != 2 {
                s.set_dense(FeatureId(1), i as f32);
            }
            if i % 2 == 0 {
                s.set_sparse(FeatureId(7), SparseList::from_ids(vec![i, i * 10]));
            }
            s.set_sparse(
                FeatureId(8),
                SparseList::from_scored(vec![i + 100], vec![i as f32]),
            );
            out.push(s);
        }
        out
    }

    /// A `Present` stream of `rows` set bits.
    fn all_present(rows: usize) -> Vec<u8> {
        let mut bits = Bitmap::zeros(rows);
        for row in 0..rows {
            bits.set(row);
        }
        let mut buf = Vec::new();
        bits.write(&mut buf);
        buf
    }

    #[test]
    fn sparse_columns_are_filled_to_exactly_their_counted_size() {
        let mut rows = rows();
        // An empty list, and a column whose first scored list comes last.
        rows[1].set_sparse(FeatureId(9), SparseList::from_ids(vec![]));
        rows[3].set_sparse(FeatureId(9), SparseList::from_ids(vec![4, 5]));
        rows[4].set_sparse(FeatureId(9), SparseList::from_scored(vec![6], vec![0.5]));
        let columns = sparse_columns(&rows);
        let features: Vec<u64> = columns.iter().map(|c| c.feature.0).collect();
        assert_eq!(features, [7, 8, 9]);
        for c in &columns {
            let cells = &c.cells;
            assert_eq!(cells.lengths.capacity(), cells.lengths.len());
            assert_eq!(cells.ids.capacity(), cells.ids.len());
            assert_eq!(cells.scores.capacity(), cells.scores.len());
            assert_eq!(c.present.count_ones(), cells.lengths.len());
        }
        let late = &columns[2];
        assert_eq!(present_rows(&late.present), [1, 3, 4]);
        assert_eq!(late.cells.lengths, [0, 2, 1]);
        assert_eq!(late.cells.ids, [4, 5, 6]);
        assert!(late.cells.scored);
        assert_eq!(late.cells.scores, [1.0, 1.0, 0.5]);
        assert!(!columns[0].cells.scored && columns[0].cells.scores.is_empty());
    }

    /// The encoded streams of the one column `rows` hold for `fid`.
    fn encode_column(rows: &[Sample], fid: FeatureId) -> RawStreams {
        let mut columns = encode_columns(rows, true);
        columns.retain(|(feature, _)| *feature == fid);
        assert_eq!(columns.len(), 1);
        columns.remove(0).1
    }

    /// Decodes the one column group `streams` hold for `fid`.
    fn decode_column(fid: FeatureId, streams: &RawStreams, rows: usize) -> Result<DecodedColumns> {
        decode_columns(
            streams.iter().map(|(kind, raw)| Ok((fid, *kind, raw))),
            rows,
        )
    }

    fn present_rows(present: &Bitmap) -> Vec<usize> {
        present.ones().collect()
    }

    #[test]
    fn dense_column_round_trip() {
        let rows = rows();
        let streams = encode_column(&rows, FeatureId(1));
        let decoded = decode_column(FeatureId(1), &streams, 5).unwrap();
        assert!(decoded.sparse.is_empty());
        let column = &decoded.dense[0];
        assert_eq!(column.feature, FeatureId(1));
        assert_eq!(present_rows(&column.present), vec![0, 1, 3, 4]);
        assert_eq!(column.cells, vec![0.0, 1.0, 3.0, 4.0]);
    }

    #[test]
    fn sparse_column_round_trip() {
        let rows = rows();
        let streams = encode_column(&rows, FeatureId(7));
        assert_eq!(streams.len(), 3); // no scores
        let decoded = decode_column(FeatureId(7), &streams, 5).unwrap();
        assert!(decoded.dense.is_empty());
        let column = &decoded.sparse[0];
        assert_eq!(present_rows(&column.present), vec![0, 2, 4]);
        assert_eq!(column.cells.lengths, vec![2, 2, 2]);
        assert_eq!(column.cells.ids, vec![0, 0, 2, 20, 4, 40]);
        assert!(!column.cells.scored);
    }

    #[test]
    fn scored_sparse_column_round_trip() {
        let rows = rows();
        let streams = encode_column(&rows, FeatureId(8));
        assert_eq!(streams.len(), 4);
        let decoded = decode_column(FeatureId(8), &streams, 5).unwrap();
        let cells = &decoded.sparse[0].cells;
        assert!(cells.scored);
        assert_eq!(cells.ids[3], 103);
        assert_eq!(cells.scores[3], 3.0);
    }

    #[test]
    fn column_groups_decode_in_directory_order() {
        let rows = rows();
        // Sparse before dense, as a popularity layout may store them.
        let streams: Vec<(FeatureId, StreamKind, Vec<u8>)> = [FeatureId(8), FeatureId(1)]
            .into_iter()
            .flat_map(|fid| {
                encode_column(&rows, fid)
                    .into_iter()
                    .map(move |(kind, raw)| (fid, kind, raw))
            })
            .collect();
        let decoded = decode_columns(streams.iter().cloned().map(Ok), 5).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded.dense[0].feature, FeatureId(1));
        assert_eq!(decoded.sparse[0].feature, FeatureId(8));
        // The first error the stream source yields is the result.
        let failing = streams
            .iter()
            .cloned()
            .map(Ok)
            .chain([Err(DsiError::corrupt("stream checksum mismatch"))]);
        assert!(matches!(
            decode_columns(failing, 5),
            Err(DsiError::Corrupt(msg)) if msg.contains("checksum")
        ));
    }

    #[test]
    fn malformed_column_groups_are_rejected() {
        let rows = rows();
        let dense = encode_column(&rows, FeatureId(1));
        let sparse = encode_column(&rows, FeatureId(7));
        // A bitmap with more or fewer rows than the stripe.
        assert!(decode_column(FeatureId(1), &dense, 4).is_err());
        assert!(decode_column(FeatureId(1), &dense, 6).is_err());
        assert!(decode_column(FeatureId(7), &sparse, 4).is_err());
        // A group that does not open with its bitmap, a stream of another
        // feature inside it, a file-level kind in place of its data.
        assert!(decode_column(FeatureId(1), &dense[1..].to_vec(), 5).is_err());
        let stray = [
            Ok((FeatureId(1), StreamKind::Present, &dense[0].1)),
            Ok((FeatureId(2), StreamKind::DenseData, &dense[1].1)),
        ];
        assert!(decode_columns(stray, 5).is_err());
        let labelled = vec![dense[0].clone(), (StreamKind::Label, dense[1].1.clone())];
        assert!(decode_column(FeatureId(1), &labelled, 5).is_err());
        // A sparse group missing its lengths or its data.
        assert!(decode_column(FeatureId(7), &sparse[..2].to_vec(), 5).is_err());
        let no_lengths = vec![sparse[0].clone(), sparse[2].clone()];
        assert!(decode_column(FeatureId(7), &no_lengths, 5).is_err());
    }

    #[test]
    fn hostile_lengths_cannot_overflow_the_id_count() {
        let present = all_present(2);
        let streams = vec![
            (StreamKind::Present, present),
            (StreamKind::Length, rle_encode(&[u64::MAX, 2])),
            (StreamKind::Data, vec![1]),
        ];
        assert!(matches!(
            decode_column(FeatureId(3), &streams, 2),
            Err(DsiError::Corrupt(_))
        ));
    }

    /// A varint declaring 2^58 entries, followed by nothing.
    fn hostile_count() -> Vec<u8> {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1 << 58);
        buf
    }

    #[test]
    fn hostile_dense_map_count_is_corrupt() {
        assert!(matches!(
            decode_dense_map(&hostile_count(), 1),
            Err(DsiError::Corrupt(_))
        ));
    }

    #[test]
    fn hostile_sparse_map_counts_are_corrupt() {
        // The row's feature count, then one feature's id count.
        assert!(matches!(
            decode_sparse_map(&hostile_count(), 1),
            Err(DsiError::Corrupt(_))
        ));
        let mut ids = Vec::new();
        write_varint(&mut ids, 1); // one feature
        write_varint(&mut ids, 7); // its id
        write_varint(&mut ids, 1 << 58); // its id count
        write_varint(&mut ids, 0); // unscored
        assert!(matches!(
            decode_sparse_map(&ids, 1),
            Err(DsiError::Corrupt(_))
        ));
    }

    #[test]
    fn hostile_dedup_canonical_count_is_corrupt() {
        assert!(matches!(
            decode_dedup_sparse(&rle_encode(&[0]), &hostile_count(), 1),
            Err(DsiError::Corrupt(_))
        ));
    }

    #[test]
    fn labels_round_trip() {
        let rows = rows();
        let buf = encode_labels(&rows);
        let labels = decode_labels(&buf).unwrap();
        assert_eq!(labels.len(), 5);
        assert!((labels[3] - 0.3).abs() < 1e-6);
    }

    #[test]
    fn dense_map_round_trip() {
        let rows = rows();
        let buf = encode_dense_map(&rows);
        let decoded = decode_dense_map(&buf, 5).unwrap();
        assert_eq!(decoded[0], vec![(FeatureId(1), 0.0)]);
        assert!(decoded[2].is_empty());
    }

    #[test]
    fn sparse_map_round_trip() {
        let rows = rows();
        let buf = encode_sparse_map(&rows);
        let decoded = decode_sparse_map(&buf, 5).unwrap();
        assert_eq!(decoded[0].len(), 2); // f7 and f8
        let (fid, list) = &decoded[1][0];
        assert_eq!(*fid, FeatureId(8));
        assert_eq!(list.scores().unwrap(), &[1.0]);
    }

    #[test]
    fn stream_kind_tags_round_trip() {
        for kind in [
            StreamKind::Present,
            StreamKind::Length,
            StreamKind::Data,
            StreamKind::Score,
            StreamKind::DenseData,
            StreamKind::Label,
            StreamKind::DenseMap,
            StreamKind::SparseMap,
            StreamKind::Dict,
            StreamKind::DedupRefs,
            StreamKind::DedupData,
        ] {
            assert_eq!(StreamKind::from_tag(kind.tag()).unwrap(), kind);
        }
        assert!(StreamKind::from_tag(99).is_err());
    }

    fn sessionized_rows(runs: &[(u64, usize)]) -> Vec<Sample> {
        let mut out = Vec::new();
        for &(salt, n) in runs {
            for m in 0..n {
                let mut s = Sample::new(m as f32);
                s.set_dense(FeatureId(1), salt as f32 + m as f32);
                s.set_sparse(FeatureId(7), SparseList::from_ids(vec![salt, salt + 9]));
                s.set_sparse(
                    FeatureId(8),
                    SparseList::from_scored(vec![salt * 2], vec![0.5]),
                );
                out.push(s);
            }
        }
        out
    }

    #[test]
    fn dedup_sparse_round_trip() {
        let rows = sessionized_rows(&[(3, 4), (11, 1), (20, 6)]);
        let (refs, data, stats) = encode_dedup_sparse(&rows, 64);
        assert_eq!(stats.rows, 11);
        assert_eq!(stats.canonicals, 3);
        assert!(stats.bytes_saved > 0);
        let decoded = decode_dedup_sparse(&refs, &data, rows.len()).unwrap();
        let expected = decode_sparse_map(&encode_sparse_map(&rows), rows.len()).unwrap();
        assert_eq!(decoded, expected);
        // Duplicated rows shrink the byte path vs the plain map.
        let plain = encode_sparse_map(&rows).len();
        assert!(
            refs.len() + data.len() < plain / 2,
            "{} vs {plain}",
            refs.len() + data.len()
        );
    }

    #[test]
    fn dedup_sparse_no_duplication_round_trip() {
        let rows: Vec<Sample> = (0..8)
            .map(|i| {
                let mut s = Sample::new(0.0);
                s.set_sparse(FeatureId(7), SparseList::from_ids(vec![i * 1_000_003]));
                s
            })
            .collect();
        let (refs, data, stats) = encode_dedup_sparse(&rows, 64);
        assert_eq!(stats.canonicals, 8);
        assert_eq!(stats.bytes_saved, 0);
        let decoded = decode_dedup_sparse(&refs, &data, rows.len()).unwrap();
        let expected = decode_sparse_map(&encode_sparse_map(&rows), rows.len()).unwrap();
        assert_eq!(decoded, expected);
    }

    #[test]
    fn dedup_window_caps_lookback() {
        // A-B-A with window 1: the second A falls outside the window and is
        // re-stored rather than referenced.
        let rows = sessionized_rows(&[(1, 1), (2, 1), (1, 1)]);
        let (_, _, stats) = encode_dedup_sparse(&rows, 1);
        assert_eq!(stats.canonicals, 3);
        let (_, _, wide) = encode_dedup_sparse(&rows, 8);
        assert_eq!(wide.canonicals, 2);
    }

    #[test]
    fn corrupt_dedup_streams_detected() {
        let rows = sessionized_rows(&[(3, 3)]);
        let (refs, data, _) = encode_dedup_sparse(&rows, 64);
        // Row count mismatch.
        assert!(decode_dedup_sparse(&refs, &data, 5).is_err());
        // Out-of-range reference.
        let bad_refs = rle_encode(&[7, 7, 7]);
        assert!(decode_dedup_sparse(&bad_refs, &data, 3).is_err());
        // Truncated canonical table.
        assert!(decode_dedup_sparse(&refs, &data[..data.len() - 2], 3).is_err());
    }

    #[test]
    fn repetitive_ids_use_a_dictionary() {
        let mut rows2 = Vec::new();
        for i in 0..50u64 {
            let mut s = Sample::new(0.0);
            s.set_sparse(
                FeatureId(3),
                SparseList::from_ids(vec![i % 4, i % 4 + 100, 7]),
            );
            rows2.push(s);
        }
        let streams = encode_column(&rows2, FeatureId(3));
        let kinds: Vec<StreamKind> = streams.iter().map(|(k, _)| *k).collect();
        assert!(kinds.contains(&StreamKind::Dict), "dictionary expected");
        let data = &streams
            .iter()
            .find(|(k, _)| *k == StreamKind::Data)
            .expect("data")
            .1;
        let decoded = decode_column(FeatureId(3), &streams, 50).unwrap();
        assert_eq!(decoded.sparse[0].cells.ids[27..30], [1, 101, 7]);
        // Nine distinct ids: 150 indexes of 4 bits after a base and a width.
        assert_eq!(data.len(), 2 + 75);
    }

    #[test]
    fn unique_ids_skip_the_dictionary() {
        let mut rows2 = Vec::new();
        for i in 0..20u64 {
            let mut s = Sample::new(0.0);
            s.set_sparse(FeatureId(3), SparseList::from_ids(vec![i * 1_000_003]));
            rows2.push(s);
        }
        let streams = encode_column(&rows2, FeatureId(3));
        assert!(!streams.iter().any(|(k, _)| *k == StreamKind::Dict));
    }

    /// Puts `ids` through `table` and through the sort-based reference,
    /// asserts the two agree on the decision, the `Dict` bytes and the
    /// `Data` bytes, and that `table` is left empty; returns whether a
    /// dictionary was taken.
    fn same_dictionary(table: &mut DictTable, ids: &[u64]) -> bool {
        let (mut hashed, mut sorted) = (ids.to_vec(), ids.to_vec());
        let dict = table.encode(&mut hashed);
        assert_eq!(dict, dictionary_by_sorting(&mut sorted), "Dict bytes");
        let (mut hashed_data, mut sorted_data) = (Vec::new(), Vec::new());
        write_packed(&mut hashed_data, &hashed);
        write_packed(&mut sorted_data, &sorted);
        assert_eq!(hashed_data, sorted_data, "Data bytes");
        assert!(
            table.slots.iter().all(|&(_, tag)| tag == 0),
            "table left empty"
        );
        dict.is_some()
    }

    #[test]
    fn dictionary_decision_edges_match_the_sorting_rule() {
        let mut table = DictTable::new();
        // Distinct·2 = ids takes a dictionary; one distinct id more does not.
        assert!(same_dictionary(&mut table, &[1, 2, 1, 2]));
        assert!(!same_dictionary(&mut table, &[1, 2, 3, 1, 2]));
        let twice =
            |distinct: u64| -> Vec<u64> { (0..2 * distinct).map(|i| i % distinct * 7).collect() };
        assert!(same_dictionary(&mut table, &twice(MAX_DICT as u64)));
        let mut over = twice(MAX_DICT as u64 + 1);
        assert!(!same_dictionary(&mut table, &over));
        // Past the cap on the very last id: every id before it is restored.
        over.sort_unstable();
        assert!(!same_dictionary(&mut table, &over));
        assert!(!same_dictionary(&mut table, &[]));
        assert!(!same_dictionary(&mut table, &[5]));
        assert!(same_dictionary(&mut table, &[9; 100]));
        assert!(same_dictionary(
            &mut table,
            &[u64::MAX, 0, 0, u64::MAX, 3, 0]
        ));
        assert!(!same_dictionary(&mut table, &[u64::MAX, 0, 1, 2]));
    }

    #[test]
    fn colliding_dictionary_ids_probe_past_each_other() {
        // 64 ids: a cap of 32 distinct ids and a 64-slot table. Every id
        // below starts at the last slot, so the probes chain and wrap.
        let mut table = DictTable::new();
        let shift = 64 - 64u32.trailing_zeros();
        let colliding: Vec<u64> = (0..)
            .filter(|&id| table.home_slot(id, shift) == 63)
            .take(33)
            .collect();
        let column = |distinct: usize| -> Vec<u64> {
            (0..64).map(|i| colliding[(i * 5) % distinct]).collect()
        };
        assert!(same_dictionary(&mut table, &column(16)));
        assert!(same_dictionary(&mut table, &column(32)));
        assert!(!same_dictionary(&mut table, &column(33)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn hashed_dictionary_decision_matches_the_sorting_rule(
            columns in proptest::collection::vec(
                (
                    proptest::prelude::any::<u64>(),
                    1u64..5000,
                    proptest::collection::vec(proptest::prelude::any::<u64>(), 0..9000),
                ),
                1..6,
            ),
        ) {
            // Several columns through one table, as `encode_columns` does:
            // `alphabet` distinct ids at most, offset from `base` (which
            // wraps, so 0 and `u64::MAX` occur).
            let mut table = DictTable::new();
            for (base, alphabet, draws) in columns {
                let ids: Vec<u64> = draws
                    .iter()
                    .map(|&d| base.wrapping_add(d % alphabet))
                    .collect();
                same_dictionary(&mut table, &ids);
            }
        }
    }

    /// A one-row column of `n` ids whose `Data` and `Dict` are given.
    fn sparse_column(n: u64, data: Vec<u8>, dict: Vec<u8>) -> RawStreams {
        let present = all_present(1);
        vec![
            (StreamKind::Present, present),
            (StreamKind::Length, rle_encode(&[n])),
            (StreamKind::Data, data),
            (StreamKind::Dict, dict),
        ]
    }

    #[test]
    fn corrupt_dictionary_detected() {
        let mut bad_dict = Vec::new();
        write_varint(&mut bad_dict, 1); // one entry
        write_varint(&mut bad_dict, 42);
        let mut data = Vec::new();
        write_packed(&mut data, &[5]); // index 5 out of range
        assert!(decode_column(FeatureId(3), &sparse_column(1, data, bad_dict), 1).is_err());
    }

    #[test]
    fn dictionary_gap_overflow_is_corrupt() {
        let mut data = Vec::new();
        write_packed(&mut data, &[0, 1]);
        let mut dict = Vec::new();
        write_varint(&mut dict, 2);
        write_varints(&mut dict, &[u64::MAX, 1]);
        assert!(matches!(
            decode_column(FeatureId(3), &sparse_column(2, data.clone(), dict), 1),
            Err(DsiError::Corrupt(_))
        ));
        // The same gaps one short of the top decode.
        let mut dict = Vec::new();
        write_varint(&mut dict, 2);
        write_varints(&mut dict, &[u64::MAX - 1, 1]);
        let decoded = decode_column(FeatureId(3), &sparse_column(2, data, dict), 1).unwrap();
        assert_eq!(decoded.sparse[0].cells.ids, [u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn row_map_offset_overflow_is_corrupt() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1); // one feature
        write_varint(&mut buf, 7); // its id
        write_varint(&mut buf, 1); // one id
        write_varint(&mut buf, 0); // unscored
        write_varint(&mut buf, u64::MAX); // the list's base
        write_varint(&mut buf, 1); // its offset
        assert!(matches!(
            decode_sparse_map(&buf, 1),
            Err(DsiError::Corrupt(_))
        ));
    }

    #[test]
    fn row_map_ids_are_offsets_from_the_list_minimum() {
        let mut row = Sample::new(0.0);
        row.set_sparse(
            FeatureId(7),
            SparseList::from_ids(vec![7_000_021, 7_000_024, 7_000_021]),
        );
        row.set_sparse(FeatureId(8), SparseList::from_ids(vec![]));
        let mut buf = Vec::new();
        encode_row_sparse(&mut buf, &row);
        // Count, then per feature id · length · scored · base, and offsets.
        assert_eq!(buf.len(), 1 + (1 + 1 + 1 + 4 + 3) + (1 + 1 + 1 + 1));
        let mut pos = 0;
        let decoded = decode_row_sparse(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(decoded[0].1.ids(), [7_000_021, 7_000_024, 7_000_021]);
        assert!(decoded[1].1.is_empty());
    }

    #[test]
    fn corrupt_dense_column_detected() {
        let rows = rows();
        let mut streams = encode_column(&rows, FeatureId(1));
        // Chop a value off the data stream.
        let data = &mut streams[1].1;
        data.truncate(data.len() - 4);
        assert!(decode_column(FeatureId(1), &streams, 5).is_err());
    }
}
