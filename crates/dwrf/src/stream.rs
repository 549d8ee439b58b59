//! Logical column streams: how feature columns become byte streams.
//!
//! With **feature flattening** each feature is encoded as its own set of
//! streams (present bitmap, lengths, data, scores), so selective readers can
//! fetch only the features a job needs. The unflattened baseline encodes the
//! whole dense/sparse maps row-by-row into two monolithic streams, forcing
//! whole-row reads — the pre-optimization layout §VII's co-design work
//! replaced.

use crate::encoding::{
    packed_width, read_bitmap, read_f32s, read_f32s_xor, read_packed, read_varint,
    read_varints_into, rle_decode_capped, rle_encode, word_ones, write_f32s, write_f32s_xor,
    write_packed_offsets, write_varint, write_varints, Bitmap,
};
use dsi_types::{
    ColumnBatch, DenseColumn, DsiError, FeatureId, Result, Sample, SparseColumn, SparseList,
};

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

/// Re-exported so readers, writers, the wire codec and the benchmark
/// keep importing the stream checksum from here.
pub use dsi_types::rng::checksum64;

/// The raw (unencoded) streams produced for one column of one stripe.
pub type RawStreams = Vec<(StreamKind, Vec<u8>)>;

/// One feature's cells across the rows of a stripe, under a presence bit
/// per row. The writer keeps one for every feature it has met in a file,
/// fills it a row at a time, and empties it for the next stripe once the
/// stripe is encoded, so its buffers keep the size a stripe grew them to.
#[derive(Debug)]
struct Column<C> {
    feature: FeatureId,
    /// Presence bits, 64 rows to a word, bit `r % 64` of word `r / 64`;
    /// the words past the last present row so far are not there yet.
    present: Vec<u64>,
    cells: C,
}

impl<C> Column<C> {
    /// Marks `row` present.
    #[inline]
    fn set(&mut self, row: usize) {
        let word = row / 64;
        if self.present.len() <= word {
            self.present.resize(word + 1, 0);
        }
        self.present[word] |= 1 << (row % 64);
    }

    /// The `Present` stream of a stripe of `rows` rows, leaving the
    /// column with no bits set.
    fn take_present(&mut self, rows: usize) -> (StreamKind, Vec<u8>) {
        let mut words = std::mem::take(&mut self.present);
        words.resize(rows.div_ceil(64), 0);
        let mut buf = Vec::new();
        Bitmap::from_words(words, rows).write(&mut buf);
        (StreamKind::Present, buf)
    }
}

/// The column of `feature` in `columns`, which is kept in id order. A row's
/// features arrive in ascending id order, so the search resumes at
/// `*cursor` (where the row's previous feature left it) and the whole row
/// is one merge pass. A feature no column holds yet opens one in place.
#[inline]
fn column_of<'a, C: Default>(
    columns: &'a mut Vec<Column<C>>,
    cursor: &mut usize,
    feature: FeatureId,
) -> &'a mut Column<C> {
    while columns.get(*cursor).is_some_and(|c| c.feature < feature) {
        *cursor += 1;
    }
    if columns.get(*cursor).is_none_or(|c| c.feature != feature) {
        columns.insert(
            *cursor,
            Column {
                feature,
                present: Vec::new(),
                cells: C::default(),
            },
        );
    }
    let column = &mut columns[*cursor];
    *cursor += 1;
    column
}

/// The present cells of a sparse column, concatenated.
#[derive(Debug, PartialEq)]
struct SparseCells {
    lengths: Vec<u64>,
    ids: Vec<u64>,
    /// The smallest and largest of `ids`, found while they are copied in;
    /// `(u64::MAX, 0)` while there are none.
    bounds: (u64, u64),
    /// Aligned with `ids` when `scored`, empty otherwise.
    scores: Vec<f32>,
    scored: bool,
}

impl Default for SparseCells {
    fn default() -> Self {
        Self {
            lengths: Vec::new(),
            ids: Vec::new(),
            bounds: (u64::MAX, 0),
            scores: Vec::new(),
            scored: false,
        }
    }
}

impl SparseCells {
    /// Appends `list`. A column is scored once any of its lists is: the
    /// unscored lists before its first scored one get unit scores then, and
    /// every unscored list after it as it comes.
    #[inline]
    fn push(&mut self, list: &SparseList) {
        self.lengths.push(list.len() as u64);
        self.ids.extend_from_slice(list.ids());
        self.bounds = list
            .ids()
            .iter()
            .fold(self.bounds, |(lo, hi), &id| (lo.min(id), hi.max(id)));
        match list.scores() {
            Some(scores) => {
                if !self.scored {
                    self.scored = true;
                    self.scores.resize(self.ids.len() - scores.len(), 1.0);
                }
                self.scores.extend_from_slice(scores);
            }
            None if self.scored => self.scores.resize(self.ids.len(), 1.0),
            None => {}
        }
    }

    fn clear(&mut self) {
        self.lengths.clear();
        self.ids.clear();
        self.bounds = (u64::MAX, 0);
        self.scores.clear();
        self.scored = false;
    }
}

/// A stripe's feature columns, built a row at a time and encoded once the
/// stripe is complete. [`crate::FileWriter`] keeps one for the whole file
/// and pushes each row as it arrives, so a row's cells are copied while
/// they are still in cache, the row can be dropped right after, and every
/// column buffer, once grown to a stripe's cells, is reused by the next.
#[derive(Debug)]
pub(crate) struct StripeColumns {
    with_sparse: bool,
    /// Rows pushed since the last [`StripeColumns::encode`].
    rows: usize,
    dense: Vec<Column<Vec<f32>>>,
    sparse: Vec<Column<SparseCells>>,
    dict: DictTable,
}

impl StripeColumns {
    /// Empty columns; sparse features are left out unless `with_sparse`.
    pub(crate) fn new(with_sparse: bool) -> Self {
        Self {
            with_sparse,
            rows: 0,
            dense: Vec::new(),
            sparse: Vec::new(),
            dict: DictTable::new(),
        }
    }

    /// Appends `row`'s cells to their columns: one id-ordered merge pass
    /// over each of its maps.
    pub(crate) fn push(&mut self, row: &Sample) {
        let r = self.rows;
        self.rows += 1;
        let mut cursor = 0;
        for (feature, value) in row.dense_iter() {
            let column = column_of(&mut self.dense, &mut cursor, feature);
            column.set(r);
            column.cells.push(value);
        }
        if self.with_sparse {
            let mut cursor = 0;
            for (feature, list) in row.sparse_iter() {
                let column = column_of(&mut self.sparse, &mut cursor, feature);
                column.set(r);
                column.cells.push(list);
            }
        }
    }

    /// Encodes every column some pushed row holds — the dense columns in id
    /// order, then the sparse ones — and empties them all for the next
    /// stripe.
    pub(crate) fn encode(&mut self) -> Vec<(FeatureId, RawStreams)> {
        let rows = std::mem::take(&mut self.rows);
        let mut out = Vec::new();
        for column in self.dense.iter_mut().filter(|c| !c.cells.is_empty()) {
            let mut data = Vec::new();
            write_f32s_xor(&mut data, &column.cells);
            let streams = vec![column.take_present(rows), (StreamKind::DenseData, data)];
            out.push((column.feature, streams));
            column.cells.clear();
        }
        for column in self
            .sparse
            .iter_mut()
            .filter(|c| !c.cells.lengths.is_empty())
        {
            out.push((column.feature, column.encode(rows, &mut self.dict)));
            column.cells.clear();
        }
        out
    }
}

impl Column<SparseCells> {
    /// `Present`, `Length` (RLE), `Data` (bit-packed ids or dictionary
    /// indexes), a `Dict` when ids repeat ([`DictTable::encode_ids`]), and a
    /// `Score` stream when any list was scored.
    fn encode(&mut self, rows: usize, dict: &mut DictTable) -> RawStreams {
        let present = self.take_present(rows);
        let cells = &self.cells;
        let mut data = Vec::new();
        let dict_buf = dict.encode_ids(&cells.ids, cells.bounds, &mut data);
        let mut out = vec![
            present,
            (StreamKind::Length, rle_encode(&cells.lengths)),
            (StreamKind::Data, data),
        ];
        if let Some(dict_buf) = dict_buf {
            out.push((StreamKind::Dict, dict_buf));
        }
        if cells.scored {
            let mut sbuf = Vec::new();
            write_f32s(&mut sbuf, &cells.scores);
            out.push((StreamKind::Score, sbuf));
        }
        out
    }
}

/// The most distinct ids a `Dict` stream holds.
const MAX_DICT: usize = 4096;

/// The most words [`DictTable`] gives a bitmap with a bit per key of a
/// column's span: 512 KiB.
const MAX_DIRECT_WORDS: usize = 1 << 16;

/// The most bitmap words per id a column's span may take for the bitmap
/// to decide it; a sparser bitmap spreads the ids over more cache lines
/// than the hashed path touches.
const DIRECT_WORDS_PER_ID: usize = 4;

/// Widest radix digit [`DictTable`] sorts by: 2,048 buckets, so 64-bit
/// hashed ids sort in six passes.
const MAX_DIGIT_BITS: u32 = 11;

/// A slot of [`DictTable`]'s id index; it holds an id of the current column
/// only when its `generation` is the table's.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    id: u64,
    generation: u32,
    /// The id's first-seen index among the column's distinct ids.
    index: u32,
}

/// Scratch for the dictionary decision, reused by every sparse column a
/// [`StripeColumns`] encodes.
///
/// A column's ids are keyed relative to their minimum. When the keys'
/// span is narrow enough, a bitmap with a bit per key counts the distinct
/// ids exactly and holds them in order, so its prefix counts are the
/// ranks. Otherwise a hashed bitset gives a lower bound on the distinct
/// count that rejects most columns over the cap before any id is indexed;
/// the rest go through an open-addressed id → first-seen index table, and
/// a column that takes a dictionary radix-sorts its distinct keys.
#[derive(Debug)]
struct DictTable {
    /// Odd and drawn per table: ids come from logged samples, and a fixed
    /// multiplier would let chosen ids share a probe chain.
    multiplier: u64,
    /// A bit per key (narrow spans) or per hash (wide ones); all clear
    /// between columns.
    bits: Vec<u64>,
    /// A bit per word of `bits` that has a bit set.
    nonzero: Vec<u64>,
    /// Set bits before each word of `bits`: a key's rank, less the set
    /// bits below it in its own word.
    prefix: Vec<u32>,
    slots: Vec<Slot>,
    /// The current column's tag in `slots`; every other value is empty.
    generation: u32,
    /// The column's distinct ids as `(id − min, first-seen index)`, in
    /// first-seen order until sorted.
    distinct: Vec<(u64, u32)>,
    /// The radix sort's second buffer and its digit counts.
    sorted: Vec<(u64, u32)>,
    counts: Vec<u32>,
    /// Each id's first-seen index, in column order.
    firsts: Vec<u32>,
    /// First-seen index → rank in the sorted dictionary.
    ranks: Vec<u32>,
    /// The `Dict` stream's values: the first id, then the gaps.
    gaps: Vec<u64>,
}

impl DictTable {
    fn new() -> Self {
        use std::hash::{BuildHasher, Hasher};
        Self {
            multiplier: std::collections::hash_map::RandomState::new()
                .build_hasher()
                .finish()
                | 1,
            bits: Vec::new(),
            nonzero: Vec::new(),
            prefix: Vec::new(),
            slots: Vec::new(),
            generation: 0,
            distinct: Vec::new(),
            sorted: Vec::new(),
            counts: Vec::new(),
            firsts: Vec::new(),
            ranks: Vec::new(),
            gaps: Vec::new(),
        }
    }

    /// The slot `id` probes first in a table of `1 << (64 - shift)` slots.
    #[inline]
    fn home_slot(&self, id: u64, shift: u32) -> usize {
        (id.wrapping_mul(self.multiplier) >> shift) as usize
    }

    /// Appends the `Data` stream of a sparse column's `ids` to `data`, and
    /// dictionary-encodes them when they repeat enough to pay for the
    /// dictionary (hot categorical ids — page ids, topic ids — recur across
    /// samples): when there are ids, at most half as many distinct ones,
    /// and at most [`MAX_DICT`]. Then `data` holds each id's rank in the
    /// sorted dictionary and the `Dict` stream is returned; otherwise it
    /// holds the ids packed relative to their minimum. `(min, max)` are the
    /// smallest and largest of `ids`, `(u64::MAX, 0)` when there are none.
    fn encode_ids(
        &mut self,
        ids: &[u64],
        (min, max): (u64, u64),
        data: &mut Vec<u8>,
    ) -> Option<Vec<u8>> {
        let cap = (ids.len() / 2).min(MAX_DICT);
        // An empty column packs as base 0.
        let min = min.min(max);
        let span = max - min;
        let mut dict = None;
        if cap > 0 {
            let direct = (span >> 6) as usize + 1;
            if direct <= MAX_DIRECT_WORDS.min(DIRECT_WORDS_PER_ID * ids.len()) {
                if self.mark(ids, cap, direct, |id| (id - min) as usize) {
                    dict = Some(self.dictionary_from_bits(ids, min, data));
                }
            } else {
                // 16 bits per id the cap allows: a column well past the cap
                // is caught close to where an exact count would catch it.
                let hashed = (16 * cap).next_power_of_two().max(64);
                let shift = 64 - hashed.trailing_zeros();
                let multiplier = self.multiplier;
                let hash = |id: u64| (id.wrapping_mul(multiplier) >> shift) as usize;
                if self.mark(ids, cap, hashed / 64, hash) {
                    dict = self.dictionary(ids, cap, min, span, data);
                }
            }
            self.clear_bits();
        }
        if dict.is_none() {
            write_packed_offsets(
                data,
                min,
                packed_width(span),
                ids.iter().map(|&id| id - min),
            );
        }
        dict
    }

    /// Sets bit `bit(id)` of a `words`-word bitset for each of `ids`, and
    /// returns whether at most `cap` bits are set, stopping as soon as more
    /// are. Equal ids set the same bit, so the set bits never outnumber the
    /// distinct ids, and equal them when `bit` is one-to-one. Leaves the
    /// bits for [`DictTable::clear_bits`].
    fn mark(&mut self, ids: &[u64], cap: usize, words: usize, bit: impl Fn(u64) -> usize) -> bool {
        if self.bits.len() < words {
            self.bits.resize(words, 0);
            self.nonzero.resize(words.div_ceil(64), 0);
        }
        let mut set = 0;
        for chunk in ids.chunks(64) {
            for &id in chunk {
                let at = bit(id);
                let word = &mut self.bits[at / 64];
                let mask = 1 << (at % 64);
                set += usize::from(*word & mask == 0);
                *word |= mask;
                self.nonzero[at / 4096] |= 1 << (at / 64 % 64);
            }
            if set > cap {
                return false;
            }
        }
        true
    }

    /// The indexes of the words of `bits` with a bit set, ascending.
    fn nonzero_words(nonzero: &[u64]) -> impl Iterator<Item = usize> + '_ {
        nonzero
            .iter()
            .enumerate()
            .flat_map(|(at, &summary)| word_ones(summary).map(move |bit| 64 * at + bit))
    }

    /// Clears what [`DictTable::mark`] set: only the words it touched.
    fn clear_bits(&mut self) {
        for at in Self::nonzero_words(&self.nonzero) {
            self.bits[at] = 0;
        }
        self.nonzero.fill(0);
    }

    /// The `Dict` stream of `ids`, whose keys relative to `min` are the
    /// set bits of `bits`, with their ranks appended to `data`: the set
    /// bits are the dictionary in order, and a key's rank is the number of
    /// set bits below it.
    fn dictionary_from_bits(&mut self, ids: &[u64], min: u64, data: &mut Vec<u8>) -> Vec<u8> {
        // Only words some id fell in are read back, so only theirs are set.
        if self.prefix.len() < self.bits.len() {
            self.prefix.resize(self.bits.len(), 0);
        }
        self.gaps.clear();
        let mut below = 0;
        let mut last = None;
        for at in Self::nonzero_words(&self.nonzero) {
            self.prefix[at] = below;
            for bit in word_ones(self.bits[at]) {
                let key = (64 * at + bit) as u64;
                self.gaps.push(match last {
                    None => min + key,
                    Some(last) => key - last,
                });
                last = Some(key);
                below += 1;
            }
        }
        let (bits, prefix) = (&self.bits, &self.prefix);
        let ranks = ids.iter().map(|&id| {
            let key = (id - min) as usize;
            let lower = bits[key / 64] & ((1 << (key % 64)) - 1);
            u64::from(prefix[key / 64] + lower.count_ones())
        });
        self.dictionary_streams(ranks, data)
    }

    /// Appends `ranks` to `data` and returns the `Dict` stream of the ids
    /// `gaps` holds.
    fn dictionary_streams(
        &self,
        ranks: impl ExactSizeIterator<Item = u64>,
        data: &mut Vec<u8>,
    ) -> Vec<u8> {
        // Every rank occurs, so ranks pack from base 0 at the width of the
        // last one.
        let last = self.gaps.len() as u64 - 1;
        write_packed_offsets(data, 0, packed_width(last), ranks);
        let mut dict = Vec::with_capacity(10 + self.gaps.len());
        write_varint(&mut dict, self.gaps.len() as u64);
        write_varints(&mut dict, &self.gaps);
        dict
    }

    /// The `Dict` stream of `ids`, whose smallest id is `min` and whose
    /// keys span `span`, with their ranks appended to `data`; or `None`,
    /// with `data` untouched, once a distinct id past `cap` turns up.
    fn dictionary(
        &mut self,
        ids: &[u64],
        cap: usize,
        min: u64,
        span: u64,
        data: &mut Vec<u8>,
    ) -> Option<Vec<u8>> {
        // The table holds at most `cap` ids: a load factor of at most half.
        let size = (2 * cap).next_power_of_two();
        if self.slots.len() < size {
            self.slots.resize(size, Slot::default());
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.slots.fill(Slot::default());
            self.generation = 1;
        }
        let generation = self.generation;
        let shift = 64 - size.trailing_zeros();
        self.distinct.clear();
        self.firsts.clear();
        for &id in ids {
            let mut at = self.home_slot(id, shift);
            let index = loop {
                let slot = &mut self.slots[at];
                if slot.generation != generation {
                    if self.distinct.len() == cap {
                        return None;
                    }
                    let index = self.distinct.len() as u32;
                    *slot = Slot {
                        id,
                        generation,
                        index,
                    };
                    self.distinct.push((id - min, index));
                    break index;
                }
                if slot.id == id {
                    break slot.index;
                }
                at = (at + 1) & (size - 1);
            };
            self.firsts.push(index);
        }
        radix_sort(
            &mut self.distinct,
            &mut self.sorted,
            &mut self.counts,
            packed_width(span),
        );
        self.ranks.resize(self.distinct.len(), 0);
        for (rank, &(_, index)) in self.distinct.iter().enumerate() {
            self.ranks[index as usize] = rank as u32;
        }
        self.gaps.clear();
        self.gaps.push(min + self.distinct[0].0);
        self.gaps
            .extend(self.distinct.windows(2).map(|pair| pair[1].0 - pair[0].0));
        let ranks = self
            .firsts
            .iter()
            .map(|&f| u64::from(self.ranks[f as usize]));
        Some(self.dictionary_streams(ranks, data))
    }
}

/// Sorts `items` by key, every key below `2^width`: least-significant digit
/// first, in as few passes of at most [`MAX_DIGIT_BITS`] as `width` needs,
/// counting every pass's digits in one read of the keys and skipping a pass
/// whose digit all keys share. `sorted` and `counts` are scratch.
fn radix_sort(
    items: &mut Vec<(u64, u32)>,
    sorted: &mut Vec<(u64, u32)>,
    counts: &mut Vec<u32>,
    width: u32,
) {
    let passes = width.div_ceil(MAX_DIGIT_BITS).max(1);
    let digit_bits = width.div_ceil(passes).max(1);
    let buckets = 1usize << digit_bits;
    let digit = |key: u64, pass: u32| (key >> (pass * digit_bits)) as usize & (buckets - 1);
    counts.clear();
    counts.resize(passes as usize * buckets, 0);
    for &(key, _) in items.iter() {
        for pass in 0..passes {
            counts[pass as usize * buckets + digit(key, pass)] += 1;
        }
    }
    sorted.resize(items.len(), (0, 0));
    for pass in 0..passes {
        let counts = &mut counts[pass as usize * buckets..][..buckets];
        if counts[digit(items[0].0, pass)] as usize == items.len() {
            continue;
        }
        let mut next = 0;
        for count in counts.iter_mut() {
            let n = *count;
            *count = next;
            next += n;
        }
        for &item in items.iter() {
            let bucket = &mut counts[digit(item.0, pass)];
            sorted[*bucket as usize] = item;
            *bucket += 1;
        }
        std::mem::swap(items, sorted);
    }
}

/// The sort-based dictionary rule [`DictTable::encode_ids`] replaced: the
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

/// Transposes `rows` into per-feature columns — one id-ordered merge pass
/// per row — and encodes each: the dense columns in id order, then (when
/// `with_sparse`) the sparse columns in id order.
///
/// Scored-ness is a column-level property (as in the production schema):
/// if any row of the stripe carries scores, the whole column round-trips
/// as scored, with unscored rows canonicalized to unit scores.
pub fn encode_columns(rows: &[Sample], with_sparse: bool) -> Vec<(FeatureId, RawStreams)> {
    let mut columns = StripeColumns::new(with_sparse);
    for row in rows {
        columns.push(row);
    }
    columns.encode()
}

/// Decodes the streams of sparse column `feature` under `present`; a
/// dictionary, when there is one, is resolved in place.
fn decode_sparse(
    feature: FeatureId,
    present: Bitmap,
    lengths: &[u8],
    data: &[u8],
    dict: Option<&[u8]>,
    scores: Option<&[u8]>,
) -> Result<SparseColumn> {
    // The bitmap bounds the row count, so a corrupt length header cannot
    // force an allocation beyond one length per present row.
    let cells = present.count_ones();
    let lengths = rle_decode_capped(lengths, cells)?;
    if lengths.len() != cells {
        return Err(DsiError::corrupt(format!(
            "sparse column has {} lengths for {cells} present rows",
            lengths.len()
        )));
    }
    // A packed id is at least one bit.
    let total = lengths
        .iter()
        .try_fold(0u64, |sum, &n| sum.checked_add(n))
        .filter(|&total| total <= 8 * data.len() as u64)
        .ok_or_else(|| DsiError::corrupt("sparse data stream shorter than lengths"))?;
    let lengths = lengths
        .into_iter()
        .map(u32::try_from)
        .collect::<std::result::Result<Vec<u32>, _>>()
        .map_err(|_| DsiError::corrupt("sparse list longer than a tensor row"))?;
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
    let scores = scores.map(read_f32s).transpose()?;
    SparseColumn::new(feature, present, lengths, ids, scores)
}

/// A stripe's feature columns as [`decode_columns`] collects them, in
/// directory order.
#[derive(Default)]
struct Decoded {
    dense: Vec<DenseColumn>,
    sparse: Vec<SparseColumn>,
}

impl Decoded {
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
        if let Some(data) = stream(StreamKind::DenseData) {
            let values = read_f32s_xor(data)?;
            self.dense.push(DenseColumn::new(feature, present, values)?);
            return Ok(());
        }
        self.sparse.push(decode_sparse(
            feature,
            present,
            required(StreamKind::Length)?,
            required(StreamKind::Data)?,
            stream(StreamKind::Dict),
            stream(StreamKind::Score),
        )?);
        Ok(())
    }
}

/// Decodes a stripe's feature streams into a [`ColumnBatch`] with
/// `labels`, one row per label — the inverse of [`encode_columns`].
/// `streams` yields the decoded payloads in directory order: each
/// `Present` stream opens its feature's column group and the group's other
/// streams follow it. A group is decoded, and its payloads dropped, as soon
/// as the next one opens, so a caller producing payloads lazily holds one
/// group's worth at a time.
///
/// # Errors
///
/// Returns the first error `streams` yields, and [`DsiError::Corrupt`] if a
/// group is malformed, its streams disagree with each other, its bitmap
/// does not hold exactly one bit per label, or two groups hold one feature
/// as the same kind.
pub fn decode_columns<B: AsRef<[u8]>>(
    streams: impl IntoIterator<Item = Result<(FeatureId, StreamKind, B)>>,
    labels: Vec<f32>,
) -> Result<ColumnBatch> {
    let rows = labels.len();
    let mut out = Decoded::default();
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
    ColumnBatch::new(labels, out.dense, out.sparse)
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
    use crate::encoding::{min_max, write_packed};

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

    /// What one sparse column of a stripe holds, counted from the rows'
    /// list headers before any cell is copied.
    #[derive(Default)]
    struct SparseSize {
        lists: usize,
        ids: usize,
        scored: bool,
    }

    /// The two-pass sparse transpose [`StripeColumns::push`] replaced: a
    /// first pass over the rows' list headers sets the presence bits and
    /// counts each column's lists and ids, and a second copies the cells
    /// into buffers reserved to exactly that. The reference the one-pass
    /// builder is tested against.
    fn sparse_columns_by_two_passes(rows: &[Sample]) -> Vec<(FeatureId, Bitmap, SparseCells)> {
        let mut sized: Vec<(FeatureId, Bitmap, SparseSize)> = Vec::new();
        for (r, row) in rows.iter().enumerate() {
            for (feature, list) in row.sparse_iter() {
                let at = match sized.binary_search_by_key(&feature, |c| c.0) {
                    Ok(at) => at,
                    Err(at) => {
                        sized.insert(
                            at,
                            (feature, Bitmap::zeros(rows.len()), SparseSize::default()),
                        );
                        at
                    }
                };
                let (_, present, size) = &mut sized[at];
                present.set(r);
                size.lists += 1;
                size.ids += list.len();
                size.scored |= list.scores().is_some();
            }
        }
        let mut columns: Vec<(FeatureId, Bitmap, SparseCells)> = sized
            .into_iter()
            .map(|(feature, present, size)| {
                let cells = SparseCells {
                    lengths: Vec::with_capacity(size.lists),
                    ids: Vec::with_capacity(size.ids),
                    bounds: (u64::MAX, 0),
                    scores: Vec::with_capacity(if size.scored { size.ids } else { 0 }),
                    scored: size.scored,
                };
                (feature, present, cells)
            })
            .collect();
        for row in rows {
            for (feature, list) in row.sparse_iter() {
                let at = columns
                    .binary_search_by_key(&feature, |c| c.0)
                    .expect("sized");
                let cells = &mut columns[at].2;
                cells.lengths.push(list.len() as u64);
                cells.ids.extend_from_slice(list.ids());
                for &id in list.ids() {
                    cells.bounds = (cells.bounds.0.min(id), cells.bounds.1.max(id));
                }
                if cells.scored {
                    match list.scores() {
                        Some(scores) => cells.scores.extend_from_slice(scores),
                        None => cells.scores.resize(cells.ids.len(), 1.0),
                    }
                }
            }
        }
        columns
    }

    /// The sparse columns `columns` holds after pushing `rows`, as the
    /// reference returns them, leaving `columns` empty for the next stripe.
    fn one_pass_sparse(
        columns: &mut StripeColumns,
        rows: &[Sample],
    ) -> Vec<(FeatureId, Bitmap, SparseCells)> {
        for row in rows {
            columns.push(row);
        }
        let held = columns
            .sparse
            .iter_mut()
            .filter(|c| !c.cells.lengths.is_empty())
            .map(|c| {
                let mut words = std::mem::take(&mut c.present);
                words.resize(rows.len().div_ceil(64), 0);
                let cells = std::mem::take(&mut c.cells);
                (c.feature, Bitmap::from_words(words, rows.len()), cells)
            })
            .collect();
        columns.encode();
        held
    }

    #[test]
    fn one_pass_columns_hold_what_the_two_pass_sizing_copied() {
        let mut rows = rows();
        // An empty list, and a column whose first scored list comes last.
        rows[1].set_sparse(FeatureId(9), SparseList::from_ids(vec![]));
        rows[3].set_sparse(FeatureId(9), SparseList::from_ids(vec![4, 5]));
        rows[4].set_sparse(FeatureId(9), SparseList::from_scored(vec![6], vec![0.5]));
        let reference = sparse_columns_by_two_passes(&rows);
        let features: Vec<u64> = reference.iter().map(|c| c.0 .0).collect();
        assert_eq!(features, [7, 8, 9]);
        let late = &reference[2];
        assert_eq!(present_rows(&late.1), [1, 3, 4]);
        assert_eq!(late.2.lengths, [0, 2, 1]);
        assert_eq!(late.2.scores, [1.0, 1.0, 0.5]);
        // One builder across stripes: a column absent from a stripe, and
        // one a stripe opens, are neither carried over nor lost.
        let mut columns = StripeColumns::new(true);
        let stripes = [&rows[..], &rows[2..], &rows[..0], &rows[4..], &rows[1..4]];
        for stripe in stripes {
            let reference = sparse_columns_by_two_passes(stripe);
            assert_eq!(one_pass_sparse(&mut columns, stripe), reference);
        }
    }

    /// The encoded streams of the one column `rows` hold for `fid`.
    fn encode_column(rows: &[Sample], fid: FeatureId) -> RawStreams {
        let mut columns = encode_columns(rows, true);
        columns.retain(|(feature, _)| *feature == fid);
        assert_eq!(columns.len(), 1);
        columns.remove(0).1
    }

    /// Decodes the one column group `streams` hold for `fid`.
    fn decode_column(fid: FeatureId, streams: &RawStreams, rows: usize) -> Result<ColumnBatch> {
        decode_columns(
            streams.iter().map(|(kind, raw)| Ok((fid, *kind, raw))),
            vec![0.0; rows],
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
        assert_eq!(decoded.column_count(), 1);
        let column = decoded.dense(FeatureId(1)).unwrap();
        assert_eq!(present_rows(column.present()), vec![0, 1, 3, 4]);
        assert_eq!(column.values(), [0.0, 1.0, 3.0, 4.0]);
    }

    #[test]
    fn sparse_column_round_trip() {
        let rows = rows();
        let streams = encode_column(&rows, FeatureId(7));
        assert_eq!(streams.len(), 3); // no scores
        let decoded = decode_column(FeatureId(7), &streams, 5).unwrap();
        assert_eq!(decoded.column_count(), 1);
        let column = decoded.sparse(FeatureId(7)).unwrap();
        assert_eq!(present_rows(column.present()), vec![0, 2, 4]);
        assert_eq!(column.csr().offsets(), [0, 2, 2, 4, 4, 6]);
        assert_eq!(column.csr().values(), [0, 0, 2, 20, 4, 40]);
        assert!(column.csr().scores().is_none());
    }

    #[test]
    fn scored_sparse_column_round_trip() {
        let rows = rows();
        let streams = encode_column(&rows, FeatureId(8));
        assert_eq!(streams.len(), 4);
        let decoded = decode_column(FeatureId(8), &streams, 5).unwrap();
        let column = decoded.sparse(FeatureId(8)).unwrap();
        assert_eq!(column.csr().values()[3], 103);
        assert_eq!(column.csr().scores().unwrap()[3], 3.0);
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
        let decoded = decode_columns(streams.iter().cloned().map(Ok), vec![0.0; 5]).unwrap();
        assert_eq!(decoded.column_count(), 2);
        assert!(decoded.dense(FeatureId(1)).is_some());
        assert!(decoded.sparse(FeatureId(8)).is_some());
        // The first error the stream source yields is the result.
        let failing = streams
            .iter()
            .cloned()
            .map(Ok)
            .chain([Err(DsiError::corrupt("stream checksum mismatch"))]);
        assert!(matches!(
            decode_columns(failing, vec![0.0; 5]),
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
        assert!(decode_columns(stray, vec![0.0; 5]).is_err());
        let labelled = vec![dense[0].clone(), (StreamKind::Label, dense[1].1.clone())];
        assert!(decode_column(FeatureId(1), &labelled, 5).is_err());
        // One feature's group twice.
        let twice = dense
            .iter()
            .chain(&dense)
            .map(|(kind, raw)| Ok((FeatureId(1), *kind, raw)));
        assert!(decode_columns(twice, vec![0.0; 5]).is_err());
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
        let rows: Vec<f32> = rows().iter().map(Sample::label).collect();
        let mut buf = Vec::new();
        write_f32s_xor(&mut buf, &rows);
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
        assert_eq!(
            decoded.sparse(FeatureId(3)).unwrap().csr().values()[27..30],
            [1, 101, 7]
        );
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

    /// Puts `ids` through `table` and through the sort-based reference
    /// with the per-value packer, asserts the two agree on the decision,
    /// the `Dict` bytes and the `Data` bytes; returns whether a dictionary
    /// was taken.
    fn same_dictionary(table: &mut DictTable, ids: &[u64]) -> bool {
        let mut data = Vec::new();
        let dict = table.encode_ids(ids, min_max(ids), &mut data);
        let mut sorted = ids.to_vec();
        assert_eq!(dict, dictionary_by_sorting(&mut sorted), "Dict bytes");
        let mut sorted_data = Vec::new();
        crate::encoding::write_packed_by_value(&mut sorted_data, &sorted);
        assert_eq!(data, sorted_data, "Data bytes");
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
        fn dictionary_decision_matches_the_sorting_rule_on_narrow_and_wide_ids(
            columns in proptest::collection::vec(
                (
                    proptest::prelude::any::<u64>(),
                    1u64..5000,
                    proptest::prelude::any::<bool>(),
                    proptest::collection::vec(proptest::prelude::any::<u64>(), 0..9000),
                ),
                1..6,
            ),
        ) {
            // Several columns through one table, as `encode_columns` does:
            // `alphabet` distinct ids at most, offset from `base` (which
            // wraps, so 0 and `u64::MAX` occur) by one apart, or spread
            // over all of `u64` so the hashed path decides.
            let mut table = DictTable::new();
            for (base, alphabet, spread, draws) in columns {
                let stride = if spread { 0x9e37_79b9_7f4a_7c15 } else { 1 };
                let ids: Vec<u64> = draws
                    .iter()
                    .map(|&d| base.wrapping_add((d % alphabet).wrapping_mul(stride)))
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
        assert_eq!(
            decoded.sparse(FeatureId(3)).unwrap().csr().values(),
            [u64::MAX - 1, u64::MAX]
        );
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
