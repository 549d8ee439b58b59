//! Mini-batches and materialized tensors.
//!
//! The load phase of online preprocessing batches transformed samples into
//! tensors laid out the way the trainer consumes them: a dense matrix
//! (`batch × features`) and, per sparse feature, a CSR-style
//! (offsets, values) pair — the *flatmap* layout the paper's co-design work
//! adopted to cut format conversions and memory-bandwidth demand.

use crate::feature::SparseList;
use crate::id::FeatureId;
use crate::sample::Sample;
use serde::{Deserialize, Serialize};

/// An ordered collection of samples awaiting batching.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Batch {
    samples: Vec<Sample>,
}

impl Batch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a batch from samples.
    pub fn from_samples(samples: Vec<Sample>) -> Self {
        Self { samples }
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// The samples in insertion order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Mutable access to the samples (transform phase operates in place).
    pub fn samples_mut(&mut self) -> &mut [Sample] {
        &mut self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Consumes the batch, returning its samples.
    pub fn into_samples(self) -> Vec<Sample> {
        self.samples
    }

    /// Total payload bytes across all samples.
    pub fn payload_bytes(&self) -> usize {
        self.samples.iter().map(Sample::payload_bytes).sum()
    }

    /// Materializes the batch into trainer-ready tensors.
    ///
    /// `dense_ids` and `sparse_ids` fix the column order; a sample missing a
    /// dense feature contributes `0.0`, and a missing sparse feature
    /// contributes an empty list (standard DLRM semantics for absent
    /// features).
    pub fn materialize(
        &self,
        dense_ids: &[FeatureId],
        sparse_ids: &[FeatureId],
    ) -> MiniBatchTensor {
        self.materialize_capped(dense_ids, sparse_ids, &[])
    }

    /// [`Batch::materialize`] with per-feature row caps: sparse feature
    /// `sparse_ids[i]` copies at most `caps[i]` values per row into the
    /// tensor (`usize::MAX` = uncapped; an empty `caps` slice means no
    /// caps at all). Equivalent to materializing uncapped and then
    /// truncating every row — without ever copying the truncated-away
    /// tail. Columnar execution uses this to hoist `FirstX` ops all the
    /// way into materialization: prefix truncation commutes with the
    /// per-element columnar kernels, so the downstream passes see only
    /// the bytes that survive.
    pub fn materialize_capped(
        &self,
        dense_ids: &[FeatureId],
        sparse_ids: &[FeatureId],
        caps: &[usize],
    ) -> MiniBatchTensor {
        MiniBatchTensor::from_samples(&self.samples, dense_ids, sparse_ids, caps)
    }
}

impl FromIterator<Sample> for Batch {
    fn from_iter<T: IntoIterator<Item = Sample>>(iter: T) -> Self {
        Self::from_samples(iter.into_iter().collect())
    }
}

impl Extend<Sample> for Batch {
    fn extend<T: IntoIterator<Item = Sample>>(&mut self, iter: T) {
        self.samples.extend(iter);
    }
}

/// A row-major `rows × cols` matrix of `f32` dense features.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Writes element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Reassembles a matrix from a row-major buffer (wire deserialization).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_parts(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major buffer shape mismatch");
        Self { rows, cols, data }
    }

    /// The backing row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of row `r` (materialization fills a whole row per
    /// sample, so one slice borrow replaces per-element index math).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Payload size in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Applies `f` to every element of column `c` in place (columnar
    /// normalization path).
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn map_col_in_place<F: FnMut(f32) -> f32>(&mut self, c: usize, mut f: F) {
        assert!(c < self.cols, "column out of bounds");
        for r in 0..self.rows {
            let i = r * self.cols + c;
            self.data[i] = f(self.data[i]);
        }
    }

    /// Applies `f` to column `c` only in rows where `rows[r]` is true
    /// (masked columnar path: the row path skips samples missing a dense
    /// feature, whose materialized zeros must stay untouched). Rows beyond
    /// `rows.len()` are left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn map_col_rows_in_place<F: FnMut(f32) -> f32>(
        &mut self,
        c: usize,
        rows: &[bool],
        mut f: F,
    ) {
        assert!(c < self.cols, "column out of bounds");
        for (r, &wanted) in rows.iter().enumerate().take(self.rows) {
            if wanted {
                let i = r * self.cols + c;
                self.data[i] = f(self.data[i]);
            }
        }
    }
}

/// CSR-style tensor for one sparse feature across a mini-batch.
///
/// `offsets` has `rows + 1` entries; row `r`'s values occupy
/// `values[offsets[r]..offsets[r + 1]]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseTensor {
    feature: FeatureId,
    offsets: Vec<u32>,
    values: Vec<u64>,
    scores: Vec<f32>,
    scored: bool,
}

impl SparseTensor {
    /// Creates an empty tensor for the given feature.
    pub fn new(feature: FeatureId) -> Self {
        Self {
            feature,
            offsets: vec![0],
            values: Vec::new(),
            scores: Vec::new(),
            scored: false,
        }
    }

    /// The feature this tensor holds.
    pub fn feature(&self) -> FeatureId {
        self.feature
    }

    /// Reassembles a tensor from its CSR parts (wire deserialization).
    /// `scores` of `None` rebuilds an unscored tensor; `Some(scores)` must
    /// be value-aligned. The round trip through
    /// [`SparseTensor::offsets`]/[`SparseTensor::values`]/[`SparseTensor::scores`]
    /// is bitwise exact.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty, does not start at 0, is not monotone,
    /// does not end at `values.len()`, or if scores are misaligned.
    pub fn from_parts(
        feature: FeatureId,
        offsets: Vec<u32>,
        values: Vec<u64>,
        scores: Option<Vec<f32>>,
    ) -> Self {
        assert!(!offsets.is_empty(), "offsets must have rows + 1 entries");
        assert_eq!(offsets[0], 0, "offsets must start at zero");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        assert_eq!(
            *offsets.last().unwrap() as usize,
            values.len(),
            "offsets must end at nnz"
        );
        let (scores, scored) = match scores {
            Some(s) => {
                assert_eq!(s.len(), values.len(), "scores must align with values");
                (s, true)
            }
            None => (Vec::new(), false),
        };
        Self {
            feature,
            offsets,
            values,
            scores,
            scored,
        }
    }

    /// Appends one sample's list as the next row.
    pub fn push_row(&mut self, list: &SparseList) {
        self.push_row_capped(list, usize::MAX);
    }

    /// [`SparseTensor::push_row`] keeping at most `cap` values — exactly
    /// equivalent to pushing `list.truncate(cap)` (including the canonical
    /// form: a row truncated to empty carries no scores) without cloning
    /// the list.
    pub fn push_row_capped(&mut self, list: &SparseList, cap: usize) {
        let keep = list.len().min(cap);
        if keep > 0 && list.scores().is_some() && !self.scored {
            // First scored row after unscored ones: backfill unit scores
            // for every value already pushed so scores stay value-aligned.
            self.scored = true;
            self.scores.resize(self.values.len(), 1.0);
        }
        self.values.extend_from_slice(&list.ids()[..keep]);
        match list.scores() {
            Some(scores) if keep > 0 => self.scores.extend_from_slice(&scores[..keep]),
            _ => {
                if self.scored {
                    // Keep scores aligned when a mix of scored/unscored
                    // rows appears.
                    self.scores.resize(self.values.len(), 1.0);
                }
            }
        }
        self.offsets.push(self.values.len() as u32);
    }

    /// Number of rows (samples).
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of categorical values across all rows.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row offsets (length `rows + 1`).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The concatenated categorical values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The concatenated scores, if any row carried scores.
    pub fn scores(&self) -> Option<&[f32]> {
        if self.scored {
            Some(&self.scores)
        } else {
            None
        }
    }

    /// Values of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[u64] {
        let start = self.offsets[r] as usize;
        let end = self.offsets[r + 1] as usize;
        &self.values[start..end]
    }

    /// Payload size in bytes (offsets + values + scores).
    pub fn payload_bytes(&self) -> usize {
        self.offsets.len() * 4 + self.values.len() * 8 + self.scores.len() * 4
    }

    /// Applies `f` to every categorical value in place (columnar
    /// normalization path — one pass over the flat buffer).
    pub fn map_values_in_place<F: FnMut(u64) -> u64>(&mut self, mut f: F) {
        for v in &mut self.values {
            *v = f(*v);
        }
    }

    /// Truncates every row to at most `x` values (columnar `FirstX`),
    /// rebuilding offsets and compacting values/scores in one pass.
    pub fn truncate_rows(&mut self, x: usize) {
        if self.values.is_empty() {
            // Canonical form: an empty tensor carries no scores.
            self.scored = false;
            self.scores.clear();
            return;
        }
        // Already within the cap everywhere (common when materialization
        // pre-capped the column): skip the rebuild entirely.
        if self.offsets.windows(2).all(|w| (w[1] - w[0]) as usize <= x) {
            return;
        }
        let rows = self.rows();
        let mut new_values = Vec::with_capacity(self.values.len().min(rows * x));
        let mut new_scores = Vec::new();
        let mut new_offsets = Vec::with_capacity(rows + 1);
        new_offsets.push(0u32);
        for r in 0..rows {
            let start = self.offsets[r] as usize;
            let end = self.offsets[r + 1] as usize;
            let keep = (end - start).min(x);
            new_values.extend_from_slice(&self.values[start..start + keep]);
            if self.scored {
                new_scores.extend_from_slice(&self.scores[start..start + keep]);
            }
            new_offsets.push(new_values.len() as u32);
        }
        self.values = new_values;
        self.scores = new_scores;
        self.offsets = new_offsets;
        // Canonical form: an empty list carries no scores, so a column whose
        // every row truncated away must come out unscored — exactly what the
        // row path produces via `SparseList::truncate`.
        if self.values.is_empty() {
            self.scored = false;
            self.scores.clear();
        }
    }

    /// The row offsets beside a mutable view of the values, for kernels
    /// that rewrite each value from its position in its row (columnar
    /// `Enumerate`).
    pub fn rows_mut(&mut self) -> (&[u32], &mut [u64]) {
        (&self.offsets, &mut self.values)
    }

    /// Rewrites every value through `f`, dropping those it maps to `None`
    /// together with their scores and closing the gaps in place (columnar
    /// `MapId`). `scored_rows[r]` says whether row `r` came from a scored
    /// list (the rest of a scored column holds unit backfills).
    pub fn filter_map_values<F: FnMut(u64) -> Option<u64>>(
        &mut self,
        mut f: F,
        scored_rows: &[bool],
    ) {
        let mut kept = 0;
        let mut start = 0;
        for r in 0..self.rows() {
            let end = self.offsets[r + 1] as usize;
            for i in start..end {
                if let Some(mapped) = f(self.values[i]) {
                    self.values[kept] = mapped;
                    if self.scored {
                        self.scores[kept] = self.scores[i];
                    }
                    kept += 1;
                }
            }
            start = end;
            self.offsets[r + 1] = kept as u32;
        }
        self.values.truncate(kept);
        if self.scored {
            self.scores.truncate(kept);
        }
        self.settle_scored(scored_rows.iter().copied());
    }

    /// Replaces the rows flagged in `written` with the same rows of the
    /// unscored CSR `(offsets, values)` — a columnar feature generator's
    /// output, whose rows outside `written` must be empty; every other row
    /// keeps what it held. A column that held nothing takes the new buffers
    /// as they are. `scored_rows` is as for
    /// [`SparseTensor::filter_map_values`].
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is not a CSR over this tensor's rows ending at
    /// `values.len()`.
    pub fn overwrite_rows(
        &mut self,
        offsets: Vec<u32>,
        values: Vec<u64>,
        written: &[bool],
        scored_rows: &[bool],
    ) {
        assert_eq!(offsets.len(), self.offsets.len(), "row count mismatch");
        assert_eq!(written.len(), self.rows(), "one flag per row");
        assert_eq!(
            offsets.last().map(|&o| o as usize),
            Some(values.len()),
            "offsets must end at nnz"
        );
        if self.values.is_empty() {
            // Nothing to keep: the new CSR is the column, unscored.
            *self = SparseTensor {
                offsets,
                values,
                ..SparseTensor::new(self.feature)
            };
            return;
        }
        let mut merged = SparseTensor::new(self.feature);
        merged.scored = self.scored;
        merged.offsets.reserve(self.rows());
        merged.values.reserve(self.values.len() + values.len());
        for (r, &fresh) in written.iter().enumerate() {
            let (offs, vals) = if fresh {
                (&offsets, &values)
            } else {
                (&self.offsets, &self.values)
            };
            let (start, end) = (offs[r] as usize, offs[r + 1] as usize);
            merged.values.extend_from_slice(&vals[start..end]);
            if self.scored && !fresh {
                merged.scores.extend_from_slice(&self.scores[start..end]);
            } else if self.scored {
                merged.scores.resize(merged.values.len(), 1.0);
            }
            merged.offsets.push(merged.values.len() as u32);
        }
        merged.settle_scored(scored_rows.iter().zip(written).map(|(&s, &w)| s && !w));
        *self = merged;
    }

    /// Canonical form once rows were dropped or replaced: a column stays
    /// scored only while some non-empty row that came from a scored list
    /// survives (`SparseList` turns an emptied scored list into an unscored
    /// one, so the row path's tensor would not carry scores either).
    fn settle_scored(&mut self, scored_rows: impl Iterator<Item = bool>) {
        let survives = self
            .offsets
            .windows(2)
            .zip(scored_rows)
            .any(|(w, scored)| scored && w[1] > w[0]);
        if self.scored && !survives {
            self.scored = false;
            self.scores.clear();
        }
    }

    /// Applies `f` to every score in place (columnar `ComputeScore`); no-op
    /// for unscored tensors.
    pub fn map_scores_in_place<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for v in &mut self.scores {
            *v = f(*v);
        }
    }

    /// Applies `f` to the scores of rows where `rows[r]` is true (masked
    /// columnar `ComputeScore`: the row path skips unscored samples, whose
    /// materialized scores are unit backfills that must stay untouched).
    /// Rows beyond `rows.len()` are left unchanged; no-op for unscored
    /// tensors.
    pub fn map_scores_rows_in_place<F: FnMut(f32) -> f32>(&mut self, rows: &[bool], mut f: F) {
        if !self.scored {
            return;
        }
        let n = self.rows();
        for (r, &wanted) in rows.iter().enumerate().take(n) {
            if !wanted {
                continue;
            }
            let start = self.offsets[r] as usize;
            let end = self.offsets[r + 1] as usize;
            for v in &mut self.scores[start..end] {
                *v = f(*v);
            }
        }
    }
}

/// A fully-materialized mini-batch ready to be loaded into trainer memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MiniBatchTensor {
    /// Dense features, `batch × dense_features`.
    pub dense: DenseMatrix,
    /// One CSR tensor per sparse feature.
    pub sparse: Vec<SparseTensor>,
    /// Per-sample labels.
    pub labels: Vec<f32>,
}

impl MiniBatchTensor {
    /// Materializes `samples` into tensors: the body of
    /// [`Batch::materialize_capped`], over a borrowed slice so that the
    /// columnar transform context can materialize the columns a session
    /// leaves out of its tensors with the same code.
    ///
    /// # Panics
    ///
    /// Panics if `caps` is neither empty nor aligned with `sparse_ids`.
    pub fn from_samples(
        samples: &[Sample],
        dense_ids: &[FeatureId],
        sparse_ids: &[FeatureId],
        caps: &[usize],
    ) -> MiniBatchTensor {
        assert!(
            caps.is_empty() || caps.len() == sparse_ids.len(),
            "caps must align with sparse_ids"
        );
        let rows = samples.len();
        // Sorted (feature, slot) indexes: the samples' feature maps iterate
        // in id order, so each row is one sequential merge-join instead of
        // one tree descent per column.
        let mut dense_cols: Vec<(FeatureId, usize)> =
            dense_ids.iter().enumerate().map(|(c, &f)| (f, c)).collect();
        dense_cols.sort_unstable();
        let mut sparse_slots: Vec<(FeatureId, usize)> = sparse_ids
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, i))
            .collect();
        sparse_slots.sort_unstable();

        let mut dense = DenseMatrix::zeros(rows, dense_ids.len());
        let mut sparse: Vec<SparseTensor> =
            sparse_ids.iter().map(|&id| SparseTensor::new(id)).collect();
        let empty = SparseList::new();
        for (r, s) in samples.iter().enumerate() {
            let row = dense.row_mut(r);
            let mut cols = dense_cols.iter().peekable();
            for (id, v) in s.dense_iter() {
                while cols.next_if(|&&(f, _)| f < id).is_some() {}
                while let Some(&(_, c)) = cols.next_if(|&&(f, _)| f == id) {
                    row[c] = v;
                }
            }
            let mut slots = sparse_slots.iter().peekable();
            for (id, list) in s.sparse_iter() {
                while let Some(&(_, slot)) = slots.next_if(|&&(f, _)| f < id) {
                    sparse[slot].push_row(&empty);
                }
                while let Some(&(_, slot)) = slots.next_if(|&&(f, _)| f == id) {
                    let cap = caps.get(slot).copied().unwrap_or(usize::MAX);
                    sparse[slot].push_row_capped(list, cap);
                }
            }
            for &(_, slot) in slots {
                sparse[slot].push_row(&empty);
            }
        }
        let labels = samples.iter().map(Sample::label).collect();
        MiniBatchTensor {
            dense,
            sparse,
            labels,
        }
    }

    /// Batch size (number of samples).
    pub fn batch_size(&self) -> usize {
        self.labels.len()
    }

    /// Total payload bytes across dense, sparse, and label tensors — the
    /// volume the DPP Worker ships to the trainer.
    pub fn payload_bytes(&self) -> usize {
        self.dense.payload_bytes()
            + self
                .sparse
                .iter()
                .map(SparseTensor::payload_bytes)
                .sum::<usize>()
            + self.labels.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_batch() -> Batch {
        let mut b = Batch::new();
        for i in 0..3 {
            let mut s = Sample::new(i as f32);
            s.set_dense(FeatureId(1), i as f32 * 0.1);
            if i != 1 {
                s.set_sparse(FeatureId(5), SparseList::from_ids(vec![i, i + 10]));
            }
            b.push(s);
        }
        b
    }

    #[test]
    fn materialize_shapes_and_defaults() {
        let b = make_batch();
        let t = b.materialize(&[FeatureId(1), FeatureId(2)], &[FeatureId(5)]);
        assert_eq!(t.batch_size(), 3);
        assert_eq!(t.dense.rows(), 3);
        assert_eq!(t.dense.cols(), 2);
        // Missing dense feature defaults to 0.
        assert_eq!(t.dense.get(0, 1), 0.0);
        assert!((t.dense.get(2, 0) - 0.2).abs() < 1e-6);
        // Missing sparse row is empty.
        let st = &t.sparse[0];
        assert_eq!(st.rows(), 3);
        assert_eq!(st.row(0), &[0, 10]);
        assert_eq!(st.row(1), &[] as &[u64]);
        assert_eq!(st.row(2), &[2, 12]);
        assert_eq!(st.nnz(), 4);
    }

    #[test]
    fn sparse_tensor_offsets_are_monotone() {
        let b = make_batch();
        let t = b.materialize(&[], &[FeatureId(5)]);
        let offs = t.sparse[0].offsets();
        assert_eq!(offs.len(), 4);
        assert!(offs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*offs.last().unwrap() as usize, t.sparse[0].nnz());
    }

    #[test]
    fn mixed_scored_rows_backfill_unit_scores() {
        let mut t = SparseTensor::new(FeatureId(9));
        t.push_row(&SparseList::from_scored(vec![1], vec![2.0]));
        t.push_row(&SparseList::from_ids(vec![3, 4]));
        assert_eq!(t.scores().unwrap(), &[2.0, 1.0, 1.0]);
    }

    #[test]
    fn payload_bytes_nonzero_for_materialized_batch() {
        let b = make_batch();
        let t = b.materialize(&[FeatureId(1)], &[FeatureId(5)]);
        // dense 3*1*4 + sparse (4*4 + 4*8) + labels 3*4
        assert_eq!(t.payload_bytes(), 12 + 16 + 32 + 12);
    }

    #[test]
    fn batch_collects_and_extends() {
        let samples = vec![Sample::new(0.0), Sample::new(1.0)];
        let mut b: Batch = samples.into_iter().collect();
        assert_eq!(b.len(), 2);
        b.extend(vec![Sample::new(2.0)]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }

    #[test]
    fn columnar_mutators() {
        let mut t = SparseTensor::new(FeatureId(1));
        t.push_row(&SparseList::from_ids(vec![1, 2, 3, 4]));
        t.push_row(&SparseList::from_ids(vec![5]));
        t.push_row(&SparseList::from_ids(vec![6, 7, 8]));
        t.map_values_in_place(|v| v * 10);
        assert_eq!(t.row(0), &[10, 20, 30, 40]);
        t.truncate_rows(2);
        assert_eq!(t.row(0), &[10, 20]);
        assert_eq!(t.row(1), &[50]);
        assert_eq!(t.row(2), &[60, 70]);
        assert_eq!(t.nnz(), 5);

        let mut m = DenseMatrix::zeros(2, 3);
        m.set(0, 1, 2.0);
        m.set(1, 1, 4.0);
        m.map_col_in_place(1, |v| v + 1.0);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 1), 5.0);
        assert_eq!(m.get(0, 0), 0.0); // other columns untouched
    }

    #[test]
    fn truncate_rows_keeps_scores_aligned() {
        let mut t = SparseTensor::new(FeatureId(1));
        t.push_row(&SparseList::from_scored(vec![1, 2, 3], vec![0.1, 0.2, 0.3]));
        t.push_row(&SparseList::from_scored(vec![4], vec![0.4]));
        t.truncate_rows(2);
        assert_eq!(t.values(), &[1, 2, 4]);
        assert_eq!(t.scores().unwrap(), &[0.1, 0.2, 0.4]);
        t.map_scores_in_place(|s| s * 10.0);
        assert!((t.scores().unwrap()[2] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn truncate_rows_to_empty_drops_scored_flag() {
        // Mirrors `SparseList`'s canonical form: once every row truncates
        // away, the column must look exactly like an unscored empty tensor
        // (what the row path produces via per-list `truncate`).
        let mut t = SparseTensor::new(FeatureId(1));
        t.push_row(&SparseList::from_scored(vec![1, 2], vec![0.1, 0.2]));
        t.push_row(&SparseList::from_scored(vec![3], vec![0.3]));
        t.truncate_rows(0);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.nnz(), 0);
        assert!(t.scores().is_none());
    }

    #[test]
    fn overwritten_and_dropped_rows_settle_the_scored_flag() {
        let scored = |ids: Vec<u64>| {
            let scores = ids.iter().map(|&i| i as f32).collect();
            SparseList::from_scored(ids, scores)
        };
        let mut t = SparseTensor::new(FeatureId(1));
        t.push_row(&scored(vec![1, 2]));
        t.push_row(&SparseList::from_ids(vec![3]));
        t.push_row(&scored(vec![4]));
        let from_scored = [true, false, true];

        // A generator writes rows 0 and 1: row 2 keeps its scores, the new
        // rows get unit backfills.
        let mut merged = t.clone();
        merged.overwrite_rows(
            vec![0, 1, 3, 3],
            vec![7, 8, 9],
            &[true, true, false],
            &from_scored,
        );
        assert_eq!(merged.offsets(), &[0, 1, 3, 4]);
        assert_eq!(merged.values(), &[7, 8, 9, 4]);
        assert_eq!(merged.scores().unwrap(), &[1.0, 1.0, 1.0, 4.0]);
        // It writes every row that came from a scored list: no scores left.
        let mut merged = t.clone();
        merged.overwrite_rows(
            vec![0, 1, 1, 1],
            vec![7],
            &[true, false, true],
            &from_scored,
        );
        assert_eq!(merged.values(), &[7, 3]);
        assert!(merged.scores().is_none());
        // Into an empty column the buffers move as they are.
        let mut empty = SparseTensor::new(FeatureId(2));
        empty.push_row(&SparseList::new());
        empty.push_row(&SparseList::new());
        empty.overwrite_rows(vec![0, 0, 2], vec![5, 6], &[false, true], &[]);
        assert_eq!(empty.row(1), &[5, 6]);
        assert!(empty.scores().is_none());

        // MapId dropping odd ids: row 0 keeps a scored id, rows 1 and 2
        // empty out.
        let mut mapped = t.clone();
        mapped.filter_map_values(|v| (v % 2 == 0).then_some(v * 10), &from_scored);
        assert_eq!(mapped.offsets(), &[0, 1, 1, 2]);
        assert_eq!(mapped.values(), &[20, 40]);
        assert_eq!(mapped.scores().unwrap(), &[2.0, 4.0]);
        // Dropping every id of the scored rows drops the scores with them.
        t.filter_map_values(|v| (v == 3).then_some(v), &from_scored);
        assert_eq!(t.values(), &[3]);
        assert!(t.scores().is_none());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn dense_matrix_bounds_checked() {
        let m = DenseMatrix::zeros(2, 2);
        let _ = m.get(2, 0);
    }

    #[test]
    fn from_parts_round_trips_bitwise() {
        let b = make_batch();
        let t = b.materialize(&[FeatureId(1)], &[FeatureId(5)]);
        let dense =
            DenseMatrix::from_parts(t.dense.rows(), t.dense.cols(), t.dense.as_slice().to_vec());
        assert_eq!(dense, t.dense);
        let st = &t.sparse[0];
        let rebuilt = SparseTensor::from_parts(
            st.feature(),
            st.offsets().to_vec(),
            st.values().to_vec(),
            st.scores().map(|s| s.to_vec()),
        );
        assert_eq!(&rebuilt, st);

        // Scored tensors round-trip with the scored flag preserved.
        let mut scored = SparseTensor::new(FeatureId(9));
        scored.push_row(&SparseList::from_scored(vec![1], vec![2.0]));
        scored.push_row(&SparseList::from_ids(vec![3, 4]));
        let rebuilt = SparseTensor::from_parts(
            scored.feature(),
            scored.offsets().to_vec(),
            scored.values().to_vec(),
            scored.scores().map(|s| s.to_vec()),
        );
        assert_eq!(rebuilt, scored);
    }

    #[test]
    #[should_panic(expected = "offsets must end at nnz")]
    fn from_parts_rejects_truncated_values() {
        let _ = SparseTensor::from_parts(FeatureId(1), vec![0, 2], vec![7], None);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn dense_from_parts_rejects_bad_shape() {
        let _ = DenseMatrix::from_parts(2, 2, vec![0.0; 3]);
    }
}
