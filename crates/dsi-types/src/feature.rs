//! Feature value representations: dense scalars and sparse categorical lists.
//!
//! Production DLRM tables store two kinds of features in map columns:
//!
//! * a **dense** feature maps a feature id to a continuous value
//!   (e.g. current time);
//! * a **sparse** feature maps a feature id to a variable-length list of
//!   categorical values (e.g. page ids), optionally weighted with a
//!   floating-point *score* per value (e.g. page creation time).

use std::fmt;

/// A dense (continuous) feature value.
pub type DenseValue = f32;

/// The kind of a feature column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    /// Continuous scalar, one `f32` per sample.
    Dense,
    /// Variable-length list of categorical ids per sample.
    Sparse,
    /// Sparse list where each id also carries an `f32` score.
    ScoredSparse,
}

impl FeatureKind {
    /// Whether this kind stores categorical id lists.
    pub fn is_sparse(self) -> bool {
        matches!(self, FeatureKind::Sparse | FeatureKind::ScoredSparse)
    }
}

impl fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FeatureKind::Dense => "dense",
            FeatureKind::Sparse => "sparse",
            FeatureKind::ScoredSparse => "scored-sparse",
        };
        f.write_str(s)
    }
}

/// A variable-length list of categorical values, optionally scored.
///
/// The invariant `scores.len() == ids.len()` holds whenever scores are
/// present; constructors and mutators preserve it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseList {
    ids: Vec<u64>,
    scores: Option<Vec<f32>>,
}

impl SparseList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a list of unscored categorical ids.
    pub fn from_ids(ids: Vec<u64>) -> Self {
        Self { ids, scores: None }
    }

    /// Creates a scored list.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != scores.len()`.
    pub fn from_scored(ids: Vec<u64>, scores: Vec<f32>) -> Self {
        assert_eq!(
            ids.len(),
            scores.len(),
            "scored sparse list requires one score per id"
        );
        // Canonical form: an empty list carries no scores (the distinction
        // is unobservable and would not survive columnar round trips).
        let scores = if ids.is_empty() { None } else { Some(scores) };
        Self { ids, scores }
    }

    /// The categorical ids.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The per-id scores, if this list is scored.
    pub fn scores(&self) -> Option<&[f32]> {
        self.scores.as_deref()
    }

    /// Number of categorical values in the list.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the list holds no values.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether each id carries a score.
    pub fn is_scored(&self) -> bool {
        self.scores.is_some()
    }

    /// Appends an unscored id.
    ///
    /// # Panics
    ///
    /// Panics if the list is scored; use [`SparseList::push_scored`] instead.
    pub fn push(&mut self, id: u64) {
        assert!(self.scores.is_none(), "scored list requires push_scored");
        self.ids.push(id);
    }

    /// Appends a scored id. Converts an empty unscored list into a scored one.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds unscored ids.
    pub fn push_scored(&mut self, id: u64, score: f32) {
        if self.scores.is_none() {
            assert!(
                self.ids.is_empty(),
                "cannot add scores to a non-empty unscored list"
            );
            self.scores = Some(Vec::new());
        }
        self.ids.push(id);
        self.scores.as_mut().expect("just initialized").push(score);
    }

    /// Truncates the list to at most `n` values (the `FirstX` primitive).
    pub fn truncate(&mut self, n: usize) {
        self.ids.truncate(n);
        if let Some(scores) = &mut self.scores {
            scores.truncate(n);
        }
        if self.ids.is_empty() {
            self.scores = None; // canonical form for empty lists
        }
    }

    /// Applies `f` to every id in place.
    pub fn map_ids_in_place<F: FnMut(u64) -> u64>(&mut self, mut f: F) {
        for id in &mut self.ids {
            *id = f(*id);
        }
    }

    /// In-memory footprint of the value payload in bytes (ids + scores).
    pub fn payload_bytes(&self) -> usize {
        self.ids.len() * std::mem::size_of::<u64>()
            + self
                .scores
                .as_ref()
                .map_or(0, |s| s.len() * std::mem::size_of::<f32>())
    }
}

impl FromIterator<u64> for SparseList {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        Self::from_ids(iter.into_iter().collect())
    }
}

impl Extend<u64> for SparseList {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        assert!(
            self.scores.is_none(),
            "cannot extend a scored list with ids"
        );
        self.ids.extend(iter);
    }
}

/// A feature value of any kind, as held in a sample's map columns.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureValue {
    /// A dense scalar.
    Dense(DenseValue),
    /// A sparse (possibly scored) id list.
    Sparse(SparseList),
}

impl FeatureValue {
    /// The kind of this value.
    pub fn kind(&self) -> FeatureKind {
        match self {
            FeatureValue::Dense(_) => FeatureKind::Dense,
            FeatureValue::Sparse(l) if l.is_scored() => FeatureKind::ScoredSparse,
            FeatureValue::Sparse(_) => FeatureKind::Sparse,
        }
    }

    /// In-memory footprint of the value payload in bytes.
    pub fn payload_bytes(&self) -> usize {
        match self {
            FeatureValue::Dense(_) => std::mem::size_of::<DenseValue>(),
            FeatureValue::Sparse(l) => l.payload_bytes(),
        }
    }
}

impl From<DenseValue> for FeatureValue {
    fn from(v: DenseValue) -> Self {
        FeatureValue::Dense(v)
    }
}

impl From<SparseList> for FeatureValue {
    fn from(l: SparseList) -> Self {
        FeatureValue::Sparse(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scored_list_keeps_lengths_in_sync() {
        let mut l = SparseList::new();
        l.push_scored(1, 0.5);
        l.push_scored(2, 0.7);
        assert_eq!(l.len(), 2);
        assert_eq!(l.scores().unwrap(), &[0.5, 0.7]);
        l.truncate(1);
        assert_eq!(l.ids(), &[1]);
        assert_eq!(l.scores().unwrap(), &[0.5]);
    }

    #[test]
    #[should_panic(expected = "one score per id")]
    fn from_scored_validates_lengths() {
        let _ = SparseList::from_scored(vec![1, 2], vec![0.1]);
    }

    #[test]
    fn kind_reflects_scoring() {
        assert_eq!(FeatureValue::Dense(1.0).kind(), FeatureKind::Dense);
        assert_eq!(
            FeatureValue::from(SparseList::from_ids(vec![1])).kind(),
            FeatureKind::Sparse
        );
        assert_eq!(
            FeatureValue::from(SparseList::from_scored(vec![1], vec![2.0])).kind(),
            FeatureKind::ScoredSparse
        );
    }

    #[test]
    fn payload_bytes_counts_ids_and_scores() {
        let l = SparseList::from_scored(vec![1, 2, 3], vec![0.0, 1.0, 2.0]);
        assert_eq!(l.payload_bytes(), 3 * 8 + 3 * 4);
        assert_eq!(FeatureValue::Dense(0.0).payload_bytes(), 4);
    }

    #[test]
    fn map_ids_in_place_applies() {
        let mut l = SparseList::from_ids(vec![1, 2, 3]);
        l.map_ids_in_place(|x| x * 10);
        assert_eq!(l.ids(), &[10, 20, 30]);
    }

    #[test]
    fn collect_into_sparse_list() {
        let l: SparseList = (0u64..4).collect();
        assert_eq!(l.ids(), &[0, 1, 2, 3]);
    }
}
