//! Training samples: schematized rows of dense/sparse feature maps plus a
//! label, as produced by offline ETL and stored in warehouse tables.

use crate::feature::{DenseValue, FeatureValue, SparseList};
use crate::id::FeatureId;
use serde::{Deserialize, Serialize};

/// A map from feature id to `V` held as one vector sorted by id, with no
/// two entries sharing an id. Rows are built and consumed in id order far
/// more often than they are probed, so contiguous entries beat a tree.
type FlatMap<V> = Vec<(FeatureId, V)>;

fn find<V>(map: &[(FeatureId, V)], id: FeatureId) -> Result<usize, usize> {
    map.binary_search_by_key(&id, |entry| entry.0)
}

fn get<V>(map: &[(FeatureId, V)], id: FeatureId) -> Option<&V> {
    find(map, id).ok().map(|i| &map[i].1)
}

fn insert<V>(map: &mut FlatMap<V>, id: FeatureId, value: V) {
    // Readers, the ETL join and derived-feature transforms insert in
    // ascending id order: past the last key is an append, not a search.
    if map.last().is_none_or(|last| last.0 < id) {
        map.push((id, value));
        return;
    }
    match find(map, id) {
        Ok(i) => map[i].1 = value,
        Err(i) => map.insert(i, (id, value)),
    }
}

fn remove<V>(map: &mut FlatMap<V>, id: FeatureId) -> Option<V> {
    find(map, id).ok().map(|i| map.remove(i).1)
}

/// One structured training sample (a table row).
///
/// Features live in two map columns keyed by [`FeatureId`] — mirroring the
/// production warehouse schema where dense and sparse features are stored as
/// maps so that the feature set can evolve without schema migrations.
/// Features account for the vast majority (>99%) of stored bytes; the label
/// is a single float.
///
/// Each map is a flat map: a vector of `(id, value)` entries kept strictly
/// ascending by id, so iteration is id-ordered and two samples holding the
/// same features compare equal however they were built.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Sample {
    dense: FlatMap<DenseValue>,
    sparse: FlatMap<SparseList>,
    label: f32,
}

impl Sample {
    /// Creates an empty sample with the given label.
    pub fn new(label: f32) -> Self {
        Self {
            dense: Vec::new(),
            sparse: Vec::new(),
            label,
        }
    }

    /// Creates an empty sample with room for `dense` dense and `sparse`
    /// sparse features, so a reader that knows the row's feature counts
    /// fills it without either map regrowing.
    pub fn with_capacity(label: f32, dense: usize, sparse: usize) -> Self {
        Self {
            dense: Vec::with_capacity(dense),
            sparse: Vec::with_capacity(sparse),
            label,
        }
    }

    /// The sample's label (e.g. click / no-click).
    pub fn label(&self) -> f32 {
        self.label
    }

    /// Sets the sample's label.
    pub fn set_label(&mut self, label: f32) {
        self.label = label;
    }

    /// Sets (or replaces) a dense feature.
    pub fn set_dense(&mut self, id: FeatureId, value: DenseValue) {
        insert(&mut self.dense, id, value);
    }

    /// Sets (or replaces) a sparse feature.
    pub fn set_sparse(&mut self, id: FeatureId, list: SparseList) {
        insert(&mut self.sparse, id, list);
    }

    /// Reads a dense feature.
    pub fn dense(&self, id: FeatureId) -> Option<DenseValue> {
        get(&self.dense, id).copied()
    }

    /// Reads a sparse feature.
    pub fn sparse(&self, id: FeatureId) -> Option<&SparseList> {
        get(&self.sparse, id)
    }

    /// Reads a feature of either kind.
    pub fn feature(&self, id: FeatureId) -> Option<FeatureValue> {
        if let Some(v) = self.dense(id) {
            return Some(FeatureValue::Dense(v));
        }
        self.sparse(id).cloned().map(FeatureValue::Sparse)
    }

    /// Sets a feature of either kind.
    pub fn set_feature(&mut self, id: FeatureId, value: FeatureValue) {
        match value {
            FeatureValue::Dense(v) => self.set_dense(id, v),
            FeatureValue::Sparse(l) => self.set_sparse(id, l),
        }
    }

    /// Removes a feature of either kind, returning it if present.
    pub fn remove(&mut self, id: FeatureId) -> Option<FeatureValue> {
        if let Some(v) = remove(&mut self.dense, id) {
            return Some(FeatureValue::Dense(v));
        }
        remove(&mut self.sparse, id).map(FeatureValue::Sparse)
    }

    /// Whether the sample holds the given feature.
    pub fn contains(&self, id: FeatureId) -> bool {
        find(&self.dense, id).is_ok() || find(&self.sparse, id).is_ok()
    }

    /// Iterates over the dense map in feature-id order.
    pub fn dense_iter(&self) -> impl Iterator<Item = (FeatureId, DenseValue)> + '_ {
        self.dense.iter().copied()
    }

    /// Iterates over the sparse map in feature-id order.
    pub fn sparse_iter(&self) -> impl Iterator<Item = (FeatureId, &SparseList)> {
        self.sparse.iter().map(|(k, v)| (*k, v))
    }

    /// Number of dense features present.
    pub fn dense_count(&self) -> usize {
        self.dense.len()
    }

    /// Number of sparse features present.
    pub fn sparse_count(&self) -> usize {
        self.sparse.len()
    }

    /// Total number of features present.
    pub fn feature_count(&self) -> usize {
        self.dense.len() + self.sparse.len()
    }

    /// Retains only the features selected by `keep` (a feature projection).
    pub fn project<F: Fn(FeatureId) -> bool>(&mut self, keep: F) {
        self.dense.retain(|entry| keep(entry.0));
        self.sparse.retain(|entry| keep(entry.0));
    }

    /// Approximate in-memory payload footprint: feature keys, values, and the
    /// label. Used for memory-bandwidth accounting in the hardware model.
    pub fn payload_bytes(&self) -> usize {
        let key = std::mem::size_of::<FeatureId>();
        let dense = self.dense.len() * (key + std::mem::size_of::<DenseValue>());
        let sparse: usize = self
            .sparse
            .iter()
            .map(|(_, l)| key + l.payload_bytes())
            .sum();
        dense + sparse + std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Sample {
        let mut s = Sample::new(1.0);
        s.set_dense(FeatureId(1), 0.25);
        s.set_dense(FeatureId(2), 0.5);
        s.set_sparse(FeatureId(10), SparseList::from_ids(vec![100, 200]));
        s.set_sparse(FeatureId(11), SparseList::from_scored(vec![7], vec![3.0]));
        s
    }

    #[test]
    fn round_trip_features() {
        let s = sample();
        assert_eq!(s.dense(FeatureId(1)), Some(0.25));
        assert_eq!(s.sparse(FeatureId(10)).unwrap().ids(), &[100, 200]);
        assert_eq!(s.feature_count(), 4);
        assert!(s.contains(FeatureId(11)));
        assert!(!s.contains(FeatureId(99)));
    }

    #[test]
    fn projection_drops_unselected_features() {
        let mut s = sample();
        s.project(|id| id.0 == 1 || id.0 == 10);
        assert_eq!(s.feature_count(), 2);
        assert!(s.contains(FeatureId(1)));
        assert!(s.contains(FeatureId(10)));
        assert!(!s.contains(FeatureId(2)));
    }

    #[test]
    fn feature_accessor_spans_both_maps() {
        let s = sample();
        assert!(matches!(
            s.feature(FeatureId(1)),
            Some(FeatureValue::Dense(_))
        ));
        assert!(matches!(
            s.feature(FeatureId(10)),
            Some(FeatureValue::Sparse(_))
        ));
        assert!(s.feature(FeatureId(99)).is_none());
    }

    #[test]
    fn remove_returns_value() {
        let mut s = sample();
        assert!(s.remove(FeatureId(1)).is_some());
        assert!(s.remove(FeatureId(1)).is_none());
        assert!(s.remove(FeatureId(10)).is_some());
        assert_eq!(s.feature_count(), 2);
    }

    #[test]
    fn payload_bytes_scales_with_content() {
        let empty = Sample::new(0.0);
        let s = sample();
        assert!(s.payload_bytes() > empty.payload_bytes());
        // 2 dense * (8 + 4) + sparse (8 + 16) + scored (8 + 8 + 4) + label 4
        assert_eq!(s.payload_bytes(), 2 * 12 + 24 + 20 + 4);
    }

    #[test]
    fn iterators_are_id_ordered() {
        let s = sample();
        let dense_ids: Vec<_> = s.dense_iter().map(|(id, _)| id.0).collect();
        assert_eq!(dense_ids, vec![1, 2]);
        let sparse_ids: Vec<_> = s.sparse_iter().map(|(id, _)| id.0).collect();
        assert_eq!(sparse_ids, vec![10, 11]);
    }
}
