//! Column batches: a stripe's rows held as columns, the one in-memory
//! format between a DWRF stripe and a trainer's tensors.
//!
//! DWRF stores each feature as a column (present bits, then values or
//! lengths and ids), and the trainer takes each feature as a column (a
//! dense matrix column, a CSR tensor). A [`ColumnBatch`] keeps the rows in
//! that shape the whole way: a sparse column *is* a [`SparseTensor`] over
//! every row of the batch, beside its present bits and scored rows. The
//! reader decodes into one, `Sampling` is a row mask and a
//! [`ColumnBatch::gather`], and [`ColumnBatch::tensor`] cuts a mini-batch
//! out of it with [`SparseTensor::cut`]: an offset rebase and two slice
//! copies per sparse column. [`ColumnBatch::into_rows`] and
//! [`ColumnBatch::from_rows`] convert to and from [`Sample`]s for the code
//! that works on rows.

use crate::batch::{DenseMatrix, MiniBatchTensor, SparseTensor};
use crate::bitmap::{word_ones, Bitmap};
use crate::error::{DsiError, Result};
use crate::feature::{DenseValue, SparseList};
use crate::id::FeatureId;
use crate::sample::Sample;
use std::ops::Range;

/// One dense feature across a batch: a present bit per row and a value per
/// present row, in row order.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseColumn {
    feature: FeatureId,
    present: Bitmap,
    values: Vec<f32>,
}

impl DenseColumn {
    /// A column from its parts.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::Corrupt`] unless there is one value per present
    /// row.
    pub fn new(feature: FeatureId, present: Bitmap, values: Vec<f32>) -> Result<Self> {
        if present.count_ones() != values.len() {
            return Err(DsiError::corrupt(format!(
                "dense column {} has {} values for {} present rows",
                feature.0,
                values.len(),
                present.count_ones()
            )));
        }
        Ok(Self {
            feature,
            present,
            values,
        })
    }

    /// One bit per row: whether the row holds the feature.
    pub fn present(&self) -> &Bitmap {
        &self.present
    }

    /// The present rows' values, in row order.
    pub fn values(&self) -> &[f32] {
        &self.values
    }
}

/// One sparse feature across a batch: a present bit per row, the lists as
/// a CSR tensor over every row (an absent row is an empty list with a
/// clear present bit), and for a scored column the rows whose list carries
/// scores (the other rows' ids hold unit scores, as
/// [`SparseTensor::push_row`] backfills them).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseColumn {
    present: Bitmap,
    /// Present only when some row is scored; then the tensor is too.
    scored: Option<Bitmap>,
    csr: SparseTensor,
}

impl SparseColumn {
    /// A column from its parts: a length per present row, and the lists'
    /// ids in row order. With `scores`, every non-empty present list is
    /// scored: scored-ness is a column property in a stored file.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::Corrupt`] unless there is one length per present
    /// row, the lengths sum to the ids, and the scores align with the ids.
    pub fn new(
        feature: FeatureId,
        present: Bitmap,
        lengths: Vec<u32>,
        ids: Vec<u64>,
        scores: Option<Vec<f32>>,
    ) -> Result<Self> {
        let corrupt = |what: &str| DsiError::corrupt(format!("sparse column {} {what}", feature.0));
        if present.count_ones() != lengths.len() {
            return Err(corrupt("has a length count unlike its present count"));
        }
        if scores.as_ref().is_some_and(|s| s.len() != ids.len()) {
            return Err(corrupt("has scores misaligned with its ids"));
        }
        let rows = present.len();
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0u32);
        let mut scored = Bitmap::zeros(if scores.is_some() { rows } else { 0 });
        for (row, &len) in present.ones().zip(&lengths) {
            let end = *offsets.last().expect("offsets start at zero");
            offsets.resize(row + 1, end);
            let end = end.checked_add(len);
            offsets.push(end.ok_or_else(|| corrupt("has more ids than u32 offsets hold"))?);
            if scores.is_some() && len > 0 {
                scored.set(row);
            }
        }
        let end = *offsets.last().expect("offsets start at zero");
        if end as usize != ids.len() {
            return Err(corrupt("has lengths that do not sum to its ids"));
        }
        offsets.resize(rows + 1, end);
        let scores = scores.filter(|_| !ids.is_empty());
        Ok(Self {
            present,
            scored: scores.as_ref().map(|_| scored),
            csr: SparseTensor::from_csr(feature, offsets, ids, scores),
        })
    }

    /// An empty column of no rows, to push rows into.
    fn open(feature: FeatureId) -> Self {
        Self {
            present: Bitmap::default(),
            scored: None,
            csr: SparseTensor::new(feature),
        }
    }

    /// Appends absent rows until the column holds `rows`.
    fn pad(&mut self, rows: usize) {
        let n = rows - self.present.len();
        self.present.extend_zeros(n);
        if let Some(scored) = &mut self.scored {
            scored.extend_zeros(n);
        }
        self.csr.push_empty_rows(n);
    }

    /// Appends a present row holding `ids`, with `scores` where its list
    /// carries them.
    fn push(&mut self, ids: &[u64], scores: Option<&[f32]>) {
        let is_scored = scores.is_some() && !ids.is_empty();
        match &mut self.scored {
            Some(scored) => scored.push(is_scored),
            None if is_scored => {
                let mut scored = Bitmap::zeros(self.present.len());
                scored.push(true);
                self.scored = Some(scored);
            }
            None => {}
        }
        self.present.push(true);
        self.csr.push_ids(ids, scores);
    }

    /// The feature the column holds.
    pub fn feature(&self) -> FeatureId {
        self.csr.feature()
    }

    /// One bit per row: whether the row holds the feature.
    pub fn present(&self) -> &Bitmap {
        &self.present
    }

    /// The lists as a CSR tensor over every row of the batch.
    pub fn csr(&self) -> &SparseTensor {
        &self.csr
    }

    /// One bit per row: whether the row's list carries scores (the other
    /// rows of a scored column have unit scores), when any list does.
    pub fn scored_rows(&self) -> Option<&Bitmap> {
        self.scored.as_ref()
    }

    /// Row `row`'s ids, and its scores when its list carries them.
    fn list(&self, row: usize) -> (&[u64], Option<&[f32]>) {
        let offsets = self.csr.offsets();
        let ids = offsets[row] as usize..offsets[row + 1] as usize;
        let scored = self.scored.as_ref().is_some_and(|s| s.get(row));
        let scores = self.csr.scores().filter(|_| scored);
        (&self.csr.values()[ids.clone()], scores.map(|s| &s[ids]))
    }
}

/// A batch of rows held as columns: a label per row, and per feature a
/// dense or a sparse column with a present bit per row. Columns are kept
/// in feature-id order, at most one of each kind per feature, as a
/// [`Sample`]'s two maps hold them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnBatch {
    labels: Vec<f32>,
    dense: Vec<DenseColumn>,
    sparse: Vec<SparseColumn>,
}

impl ColumnBatch {
    /// A batch from decoded columns, put in feature-id order.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::Corrupt`] if a column's present bits do not
    /// cover exactly one bit per label, or two columns of one kind hold
    /// the same feature.
    pub fn new(
        labels: Vec<f32>,
        mut dense: Vec<DenseColumn>,
        mut sparse: Vec<SparseColumn>,
    ) -> Result<Self> {
        dense.sort_by_key(|column| column.feature);
        sparse.sort_by_key(SparseColumn::feature);
        let columns = dense
            .iter()
            .map(|c| (c.feature, &c.present))
            .chain(sparse.iter().map(|c| (c.feature(), &c.present)));
        for (feature, present) in columns {
            if present.len() != labels.len() {
                return Err(DsiError::corrupt(format!(
                    "feature {} present bitmap holds {} rows, batch has {}",
                    feature.0,
                    present.len(),
                    labels.len()
                )));
            }
        }
        let twice = (dense.windows(2).find(|w| w[0].feature == w[1].feature))
            .map(|w| w[0].feature)
            .or_else(|| {
                let pair = sparse.windows(2).find(|w| w[0].feature() == w[1].feature());
                pair.map(|w| w[0].feature())
            });
        if let Some(feature) = twice {
            return Err(DsiError::corrupt(format!(
                "feature {} has two columns of one kind",
                feature.0
            )));
        }
        Ok(Self {
            labels,
            dense,
            sparse,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of columns, dense and sparse.
    pub fn column_count(&self) -> usize {
        self.dense.len() + self.sparse.len()
    }

    /// The dense column of `feature`, if any row holds it.
    pub fn dense(&self, feature: FeatureId) -> Option<&DenseColumn> {
        let at = self.dense.binary_search_by_key(&feature, |c| c.feature);
        at.ok().map(|i| &self.dense[i])
    }

    /// The sparse column of `feature`, if any row holds it.
    pub fn sparse(&self, feature: FeatureId) -> Option<&SparseColumn> {
        let at = self
            .sparse
            .binary_search_by_key(&feature, SparseColumn::feature);
        at.ok().map(|i| &self.sparse[i])
    }

    /// Values the column buffers have room for. Hostile-stream tests hold
    /// it against the bytes that were decoded.
    pub fn reserved_values(&self) -> usize {
        let dense = self.dense.iter().map(|c| c.values.capacity());
        let sparse = self.sparse.iter().map(|c| c.csr.reserved_values());
        dense.chain(sparse).sum()
    }

    /// In-memory payload bytes, exactly the sum of
    /// [`Sample::payload_bytes`] over [`ColumnBatch::into_rows`]: a key and
    /// a value per dense cell, a key and the ids (and a scored list's
    /// scores) per sparse cell, and a label per row.
    pub fn payload_bytes(&self) -> usize {
        let key = std::mem::size_of::<FeatureId>();
        let dense: usize = self.dense.iter().map(|c| c.values.len()).sum();
        let sparse: usize = self
            .sparse
            .iter()
            .map(|c| {
                // Only a scored list's ids carry their scores.
                let scored = c.scored.iter().flat_map(Bitmap::ones);
                let scored_ids: usize = scored.map(|row| c.list(row).0.len()).sum();
                c.present.count_ones() * key
                    + c.csr.nnz() * std::mem::size_of::<u64>()
                    + scored_ids * std::mem::size_of::<f32>()
            })
            .sum();
        dense * (key + std::mem::size_of::<DenseValue>())
            + sparse
            + self.labels.len() * std::mem::size_of::<f32>()
    }

    /// The rows `mask` sets, in order.
    ///
    /// # Panics
    ///
    /// Panics unless `mask` has one bit per row.
    pub fn gather(&self, mask: &Bitmap) -> ColumnBatch {
        assert_eq!(mask.len(), self.len(), "one mask bit per row");
        stack(&[(self, Some(mask))])
    }

    /// This batch's rows, then `other`'s. A feature only one side holds is
    /// absent from the other side's rows; a sparse column scored on one
    /// side only gives the other side's ids unit scores.
    pub fn concat(self, other: ColumnBatch) -> ColumnBatch {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        stack(&[(&self, None), (&other, None)])
    }

    /// Rows `range` as a mini-batch tensor, bit for bit what
    /// [`MiniBatchTensor::from_samples`] makes of the same rows:
    /// `dense_ids` and `sparse_ids` fix the column order (a feature may
    /// appear twice, or under the other kind, where it reads as absent), an
    /// absent dense feature is `0.0` and an absent sparse one an empty
    /// list, and sparse feature `sparse_ids[i]` keeps at most `caps[i]` ids
    /// a row (an empty `caps` caps nothing).
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the batch, or if `caps` is neither
    /// empty nor aligned with `sparse_ids`.
    pub fn tensor(
        &self,
        range: Range<usize>,
        dense_ids: &[FeatureId],
        sparse_ids: &[FeatureId],
        caps: &[usize],
    ) -> MiniBatchTensor {
        assert!(
            caps.is_empty() || caps.len() == sparse_ids.len(),
            "caps must align with sparse_ids"
        );
        assert!(range.end <= self.len(), "rows {range:?} of {}", self.len());
        let rows = range.len();
        let cols = dense_ids.len();
        let mut data = vec![0.0; rows * cols];
        for (c, &feature) in dense_ids.iter().enumerate() {
            if let Some(column) = self.dense(feature) {
                let first = column.present.rank(range.start);
                let present = column.present.ones_in(range.clone());
                for (row, &value) in present.zip(&column.values[first..]) {
                    data[(row - range.start) * cols + c] = value;
                }
            }
        }
        let sparse = sparse_ids
            .iter()
            .enumerate()
            .map(|(slot, &feature)| match self.sparse(feature) {
                Some(column) => column.csr.cut(
                    range.clone(),
                    caps.get(slot).copied().unwrap_or(usize::MAX),
                    column.scored.as_ref(),
                ),
                None => SparseTensor::from_csr(feature, vec![0; rows + 1], Vec::new(), None),
            })
            .collect();
        MiniBatchTensor {
            dense: DenseMatrix::from_parts(rows, cols, data),
            sparse,
            labels: self.labels[range].to_vec(),
        }
    }

    /// `rows` as columns: [`ColumnBatch::into_rows`] gives them back as
    /// they were.
    pub fn from_rows(rows: &[Sample]) -> ColumnBatch {
        let n = rows.len();
        let mut dense: Vec<DenseColumn> = Vec::new();
        let mut sparse: Vec<SparseColumn> = Vec::new();
        for (r, row) in rows.iter().enumerate() {
            let mut cursor = 0;
            for (feature, value) in row.dense_iter() {
                let column = column_of(
                    &mut dense,
                    &mut cursor,
                    feature,
                    |c| c.feature,
                    || DenseColumn {
                        feature,
                        present: Bitmap::zeros(n),
                        values: Vec::new(),
                    },
                );
                column.present.set(r);
                column.values.push(value);
            }
            let mut cursor = 0;
            for (feature, list) in row.sparse_iter() {
                let column = column_of(
                    &mut sparse,
                    &mut cursor,
                    feature,
                    SparseColumn::feature,
                    || SparseColumn::open(feature),
                );
                column.pad(r);
                column.push(list.ids(), list.scores());
            }
        }
        for column in &mut sparse {
            column.pad(n);
        }
        ColumnBatch {
            labels: rows.iter().map(Sample::label).collect(),
            dense,
            sparse,
        }
    }

    /// The batch as rows, one per label. Each row is created with exactly
    /// the room its features take, so every `set_*` appends and no map
    /// regrows. The fill is row-major at the grain of a bitmap word: 64
    /// rows at a time, column by column, so a column's present bits cost
    /// one load per 64 rows and its cursor stays in a register, while the
    /// rows being appended to stay in cache until the block is done.
    pub fn into_rows(self) -> Vec<Sample> {
        let ColumnBatch {
            labels,
            dense,
            sparse,
        } = self;
        // How many columns hold each row.
        let row_counts = |present: &mut dyn Iterator<Item = &Bitmap>| {
            let mut counts = vec![0usize; labels.len()];
            for row in present.flat_map(Bitmap::ones) {
                counts[row] += 1;
            }
            counts
        };
        let dense_counts = row_counts(&mut dense.iter().map(|column| &column.present));
        let sparse_counts = row_counts(&mut sparse.iter().map(|column| &column.present));
        let mut samples: Vec<Sample> = labels
            .into_iter()
            .zip(dense_counts.into_iter().zip(sparse_counts))
            .map(|(label, (dense, sparse))| Sample::with_capacity(label, dense, sparse))
            .collect();
        // Per dense column: the next present cell.
        let mut dense_at = vec![0usize; dense.len()];
        for (block, rows) in samples.chunks_mut(64).enumerate() {
            for (column, at) in dense.iter().zip(&mut dense_at) {
                for row in word_ones(column.present.words()[block]) {
                    rows[row].set_dense(column.feature, column.values[*at]);
                    *at += 1;
                }
            }
            for column in &sparse {
                for row in word_ones(column.present.words()[block]) {
                    let list = match column.list(block * 64 + row) {
                        (ids, Some(scores)) => {
                            SparseList::from_scored(ids.to_vec(), scores.to_vec())
                        }
                        (ids, None) => SparseList::from_ids(ids.to_vec()),
                    };
                    rows[row].set_sparse(column.feature(), list);
                }
            }
        }
        samples
    }
}

/// The column of `feature` in `columns`, kept in feature order, opened by
/// `open` where no earlier row held the feature. A row's features arrive
/// in ascending id order, so the search resumes at `*cursor` (where the
/// row's previous feature left it) and the whole row is one merge pass.
fn column_of<'a, C>(
    columns: &'a mut Vec<C>,
    cursor: &mut usize,
    feature: FeatureId,
    key: impl Fn(&C) -> FeatureId,
    open: impl FnOnce() -> C,
) -> &'a mut C {
    while columns.get(*cursor).is_some_and(|c| key(c) < feature) {
        *cursor += 1;
    }
    if columns.get(*cursor).is_none_or(|c| key(c) != feature) {
        columns.insert(*cursor, open());
    }
    *cursor += 1;
    &mut columns[*cursor - 1]
}

/// A batch, and the mask of the rows to take from it (every row without
/// one).
type Part<'a> = (&'a ColumnBatch, Option<&'a Bitmap>);

/// A part's rows, ascending, each with whether it is taken.
fn part_rows<'a>((batch, mask): Part<'a>) -> impl Iterator<Item = (usize, bool)> + 'a {
    (0..batch.len()).map(move |row| (row, mask.is_none_or(|m| m.get(row))))
}

/// The batch of `parts`' rows in order: from each part, the rows its mask
/// sets, or every row without one. A column absent from a part is absent
/// from its rows, and a sparse column with a scored row among those taken
/// gives the other rows' ids unit scores.
fn stack(parts: &[Part<'_>]) -> ColumnBatch {
    let kept = |(batch, mask): Part<'_>| mask.map_or(batch.len(), Bitmap::count_ones);
    let features = |of: &dyn Fn(&ColumnBatch) -> Vec<FeatureId>| {
        let mut all: Vec<FeatureId> = parts.iter().flat_map(|&(b, _)| of(b)).collect();
        all.sort_unstable();
        all.dedup();
        all
    };
    let labels = parts
        .iter()
        .flat_map(|&part| {
            part_rows(part)
                .filter(|&(_, k)| k)
                .map(|(r, _)| part.0.labels[r])
        })
        .collect();
    let dense = features(&|b| b.dense.iter().map(|c| c.feature).collect())
        .into_iter()
        .map(|feature| {
            let mut out = DenseColumn {
                feature,
                present: Bitmap::default(),
                values: Vec::new(),
            };
            for &part in parts {
                let Some(column) = part.0.dense(feature) else {
                    out.present.extend_zeros(kept(part));
                    continue;
                };
                let mut cell = 0;
                for (row, keep) in part_rows(part) {
                    let held = column.present.get(row);
                    if keep {
                        out.present.push(held);
                        if held {
                            out.values.push(column.values[cell]);
                        }
                    }
                    cell += usize::from(held);
                }
            }
            out
        })
        .collect();
    let sparse = features(&|b| b.sparse.iter().map(SparseColumn::feature).collect())
        .into_iter()
        .map(|feature| {
            let mut out = SparseColumn::open(feature);
            for &part in parts {
                let Some(column) = part.0.sparse(feature) else {
                    out.pad(out.present.len() + kept(part));
                    continue;
                };
                for row in part_rows(part).filter(|&(_, k)| k).map(|(r, _)| r) {
                    if column.present.get(row) {
                        let (ids, scores) = column.list(row);
                        out.push(ids, scores);
                    } else {
                        out.pad(out.present.len() + 1);
                    }
                }
            }
            out
        })
        .collect();
    ColumnBatch {
        labels,
        dense,
        sparse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Sample> {
        (0..70u64)
            .map(|i| {
                let mut s = Sample::new(i as f32);
                if i % 3 != 0 {
                    s.set_dense(FeatureId(1), i as f32 * 0.5);
                }
                s.set_sparse(FeatureId(2), SparseList::from_ids((0..i % 4).collect()));
                if i % 5 == 1 {
                    s.set_sparse(
                        FeatureId(3),
                        SparseList::from_scored(vec![i], vec![-(i as f32)]),
                    );
                } else if i % 5 == 2 {
                    s.set_sparse(FeatureId(3), SparseList::from_ids(vec![i, i + 1]));
                }
                s
            })
            .collect()
    }

    #[test]
    fn rows_round_trip_and_bytes_match_the_rows() {
        let rows = rows();
        let batch = ColumnBatch::from_rows(&rows);
        assert_eq!(batch.len(), rows.len());
        assert_eq!(batch.column_count(), 3);
        let bytes: usize = rows.iter().map(Sample::payload_bytes).sum();
        assert_eq!(batch.payload_bytes(), bytes);
        assert_eq!(batch.into_rows(), rows);
    }

    #[test]
    fn tensors_match_the_row_materializer() {
        let rows = rows();
        let batch = ColumnBatch::from_rows(&rows);
        let dense = [FeatureId(1), FeatureId(2), FeatureId(1)];
        let sparse = [FeatureId(3), FeatureId(2), FeatureId(9), FeatureId(1)];
        for range in [0..70, 3..67, 6..8, 7..9, 65..70, 10..10] {
            for caps in [vec![], vec![0, 1, 3, usize::MAX], vec![1; 4]] {
                let want =
                    MiniBatchTensor::from_samples(&rows[range.clone()], &dense, &sparse, &caps);
                assert_eq!(
                    batch.tensor(range.clone(), &dense, &sparse, &caps),
                    want,
                    "{range:?} {caps:?}"
                );
            }
        }
    }

    #[test]
    fn gather_and_concat_keep_rows() {
        let rows = rows();
        let batch = ColumnBatch::from_rows(&rows);
        let mut mask = Bitmap::zeros(rows.len());
        for i in (0..rows.len()).filter(|i| i % 4 != 1) {
            mask.set(i);
        }
        let kept: Vec<Sample> = mask.ones().map(|i| rows[i].clone()).collect();
        let gathered = batch.gather(&mask);
        assert_eq!(gathered.clone().into_rows(), kept);
        let unscored = ColumnBatch::from_rows(&rows[2..3]);
        let joined = gathered.concat(unscored.clone()).concat(batch);
        let mut want = kept;
        want.extend_from_slice(&rows[2..3]);
        want.extend_from_slice(&rows);
        assert_eq!(joined.clone().into_rows(), want);
        assert_eq!(ColumnBatch::default().concat(unscored.clone()), unscored);
        let tail = want.len() - 5..want.len();
        assert_eq!(
            joined.tensor(tail.clone(), &[FeatureId(1)], &[FeatureId(3)], &[]),
            MiniBatchTensor::from_samples(&want[tail], &[FeatureId(1)], &[FeatureId(3)], &[])
        );
    }

    #[test]
    fn built_from_parts_the_invariants_are_checked() {
        let mut present = Bitmap::zeros(3);
        present.set(0);
        present.set(2);
        assert!(DenseColumn::new(FeatureId(1), present.clone(), vec![1.0]).is_err());
        let ok = |lengths: Vec<u32>, ids: Vec<u64>, scores: Option<Vec<f32>>| {
            SparseColumn::new(FeatureId(2), present.clone(), lengths, ids, scores).is_ok()
        };
        assert!(ok(vec![1, 0], vec![7], Some(vec![0.5])));
        // A length per present row: rows 0 and 2, row 1 is absent.
        let column = SparseColumn::new(FeatureId(2), present.clone(), vec![0, 2], vec![7, 8], None);
        assert_eq!(column.unwrap().csr().offsets(), [0, 0, 0, 2]);
        assert!(!ok(vec![1], vec![7], None));
        assert!(!ok(vec![1, 1], vec![7], None));
        assert!(!ok(vec![1, 0], vec![7], Some(vec![])));
        let column = |f: u64| DenseColumn::new(FeatureId(f), present.clone(), vec![1.0, 2.0]);
        let labels = vec![0.0; 3];
        assert!(ColumnBatch::new(
            labels.clone(),
            vec![column(2).unwrap(), column(1).unwrap()],
            vec![]
        )
        .is_ok());
        assert!(ColumnBatch::new(
            labels.clone(),
            vec![column(1).unwrap(), column(1).unwrap()],
            vec![]
        )
        .is_err());
        assert!(ColumnBatch::new(vec![0.0; 4], vec![column(1).unwrap()], vec![]).is_err());
    }
}
