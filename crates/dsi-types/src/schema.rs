//! Table schemas, feature definitions, lifecycle status, and projections.
//!
//! Industrial datasets log tens of thousands of features whose set changes
//! constantly: hundreds of features are proposed, promoted, and deprecated
//! each month. The schema tracks every feature's kind and lifecycle status;
//! a [`Projection`] is the per-job column filter selecting the ~10% of
//! features a training job actually reads.

use crate::feature::FeatureKind;
use crate::id::FeatureId;
use std::collections::BTreeMap;
use std::fmt;

/// Lifecycle status of a feature in a production dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureStatus {
    /// Proposed but not actively logged; may be back-filled or injected for
    /// exploratory jobs.
    Beta,
    /// Actively logged and used by combo or release-candidate jobs.
    Experimental,
    /// Used by the current production model; actively logged.
    Active,
    /// Superseded; still logged pending review/reaping.
    Deprecated,
}

impl FeatureStatus {
    /// Whether features with this status are actively written to storage.
    pub fn is_logged(self) -> bool {
        !matches!(self, FeatureStatus::Beta)
    }
}

impl fmt::Display for FeatureStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FeatureStatus::Beta => "beta",
            FeatureStatus::Experimental => "experimental",
            FeatureStatus::Active => "active",
            FeatureStatus::Deprecated => "deprecated",
        };
        f.write_str(s)
    }
}

/// Definition of one feature column in a table schema.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureDef {
    /// The feature's stable identifier.
    pub id: FeatureId,
    /// Dense, sparse, or scored-sparse.
    pub kind: FeatureKind,
    /// Lifecycle status.
    pub status: FeatureStatus,
    /// Fraction of samples in which the feature is present (coverage).
    pub coverage: f64,
    /// Mean list length for sparse features (1.0 for dense).
    pub avg_len: f64,
}

impl FeatureDef {
    /// Creates a dense feature definition with full coverage.
    pub fn dense(id: FeatureId) -> Self {
        Self {
            id,
            kind: FeatureKind::Dense,
            status: FeatureStatus::Active,
            coverage: 1.0,
            avg_len: 1.0,
        }
    }

    /// Creates a sparse feature definition.
    pub fn sparse(id: FeatureId, avg_len: f64) -> Self {
        Self {
            id,
            kind: FeatureKind::Sparse,
            status: FeatureStatus::Active,
            coverage: 1.0,
            avg_len,
        }
    }

    /// Sets the lifecycle status (builder-style).
    pub fn with_status(mut self, status: FeatureStatus) -> Self {
        self.status = status;
        self
    }

    /// Sets the coverage fraction (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is not within `[0, 1]`.
    pub fn with_coverage(mut self, coverage: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&coverage),
            "coverage must be in [0, 1]"
        );
        self.coverage = coverage;
        self
    }

    /// Expected stored payload bytes per sample for this feature,
    /// given its kind, coverage, and average length.
    pub fn expected_bytes_per_row(&self) -> f64 {
        let per_present = match self.kind {
            FeatureKind::Dense => 4.0,
            FeatureKind::Sparse => 8.0 * self.avg_len,
            FeatureKind::ScoredSparse => 12.0 * self.avg_len,
        };
        self.coverage * per_present
    }
}

/// A table schema: the full set of logged feature definitions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    features: BTreeMap<FeatureId, FeatureDef>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a feature definition.
    pub fn add(&mut self, def: FeatureDef) {
        self.features.insert(def.id, def);
    }

    /// Looks up a feature definition.
    pub fn feature(&self, id: FeatureId) -> Option<&FeatureDef> {
        self.features.get(&id)
    }

    /// Removes a feature (reaping), returning its definition.
    pub fn remove(&mut self, id: FeatureId) -> Option<FeatureDef> {
        self.features.remove(&id)
    }

    /// Iterates over all feature definitions in id order.
    pub fn iter(&self) -> impl Iterator<Item = &FeatureDef> {
        self.features.values()
    }

    /// Total number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the schema has no features.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of dense feature definitions.
    pub fn dense_count(&self) -> usize {
        self.features
            .values()
            .filter(|d| d.kind == FeatureKind::Dense)
            .count()
    }

    /// Number of sparse (incl. scored) feature definitions.
    pub fn sparse_count(&self) -> usize {
        self.features
            .values()
            .filter(|d| d.kind.is_sparse())
            .count()
    }

    /// Ids of all features of the given kind, in id order.
    pub fn ids_of_kind(&self, kind: FeatureKind) -> Vec<FeatureId> {
        self.features
            .values()
            .filter(|d| d.kind == kind)
            .map(|d| d.id)
            .collect()
    }

    /// Ids of features that are actively logged (everything but beta).
    pub fn logged_ids(&self) -> Vec<FeatureId> {
        self.features
            .values()
            .filter(|d| d.status.is_logged())
            .map(|d| d.id)
            .collect()
    }

    /// Count of features in each lifecycle status, keyed by status.
    pub fn status_counts(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for def in self.features.values() {
            *counts.entry(def.status.to_string()).or_insert(0) += 1;
        }
        counts
    }

    /// Expected stored payload bytes per row over all logged features.
    pub fn expected_bytes_per_row(&self) -> f64 {
        self.features
            .values()
            .filter(|d| d.status.is_logged())
            .map(FeatureDef::expected_bytes_per_row)
            .sum()
    }
}

impl FromIterator<FeatureDef> for Schema {
    fn from_iter<T: IntoIterator<Item = FeatureDef>>(iter: T) -> Self {
        let mut s = Schema::new();
        for def in iter {
            s.add(def);
        }
        s
    }
}

/// A per-job feature projection: the set of columns a training job reads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Projection {
    ids: Vec<FeatureId>,
}

impl Projection {
    /// Creates a projection over the given feature ids (deduplicated,
    /// sorted).
    pub fn new(mut ids: Vec<FeatureId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        Self { ids }
    }

    /// A projection selecting every feature in `schema`.
    pub fn all(schema: &Schema) -> Self {
        Self::new(schema.iter().map(|d| d.id).collect())
    }

    /// The selected feature ids, sorted.
    pub fn ids(&self) -> &[FeatureId] {
        &self.ids
    }

    /// Number of selected features.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no features are selected.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether the projection selects `id`.
    pub fn contains(&self, id: FeatureId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Fraction of `schema`'s features this projection selects.
    pub fn feature_fraction(&self, schema: &Schema) -> f64 {
        if schema.is_empty() {
            return 0.0;
        }
        let hits = self
            .ids
            .iter()
            .filter(|id| schema.feature(**id).is_some())
            .count();
        hits as f64 / schema.len() as f64
    }

    /// Fraction of `schema`'s expected stored bytes this projection selects.
    pub fn byte_fraction(&self, schema: &Schema) -> f64 {
        let total = schema.expected_bytes_per_row();
        if total == 0.0 {
            return 0.0;
        }
        let selected: f64 = self
            .ids
            .iter()
            .filter_map(|id| schema.feature(*id))
            .map(FeatureDef::expected_bytes_per_row)
            .sum();
        selected / total
    }
}

impl FromIterator<FeatureId> for Projection {
    fn from_iter<T: IntoIterator<Item = FeatureId>>(iter: T) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add(FeatureDef::dense(FeatureId(1)));
        s.add(FeatureDef::dense(FeatureId(2)).with_status(FeatureStatus::Beta));
        s.add(FeatureDef::sparse(FeatureId(10), 20.0));
        s.add(
            FeatureDef::sparse(FeatureId(11), 10.0)
                .with_coverage(0.5)
                .with_status(FeatureStatus::Deprecated),
        );
        s
    }

    #[test]
    fn counts_by_kind() {
        let s = schema();
        assert_eq!(s.len(), 4);
        assert_eq!(s.dense_count(), 2);
        assert_eq!(s.sparse_count(), 2);
    }

    #[test]
    fn beta_features_are_not_logged() {
        let s = schema();
        let logged = s.logged_ids();
        assert!(!logged.contains(&FeatureId(2)));
        assert_eq!(logged.len(), 3);
    }

    #[test]
    fn expected_bytes_accounts_for_coverage_and_length() {
        let s = schema();
        // dense f1: 4, sparse f10: 8*20=160, deprecated f11: 0.5*8*10=40
        let expected = 4.0 + 160.0 + 40.0;
        assert!((s.expected_bytes_per_row() - expected).abs() < 1e-9);
    }

    #[test]
    fn projection_fractions() {
        let s = schema();
        let p = Projection::new(vec![FeatureId(1), FeatureId(10)]);
        assert!((p.feature_fraction(&s) - 0.5).abs() < 1e-9);
        let bf = p.byte_fraction(&s);
        assert!((bf - 164.0 / 204.0).abs() < 1e-9);
    }

    #[test]
    fn projection_dedups_and_sorts() {
        let p = Projection::new(vec![FeatureId(5), FeatureId(1), FeatureId(5)]);
        assert_eq!(p.ids(), &[FeatureId(1), FeatureId(5)]);
        assert!(p.contains(FeatureId(5)));
        assert!(!p.contains(FeatureId(2)));
    }

    #[test]
    fn status_counts_tally() {
        let s = schema();
        let counts = s.status_counts();
        assert_eq!(counts["active"], 2);
        assert_eq!(counts["beta"], 1);
        assert_eq!(counts["deprecated"], 1);
    }

    #[test]
    #[should_panic(expected = "coverage must be in")]
    fn coverage_is_validated() {
        let _ = FeatureDef::dense(FeatureId(1)).with_coverage(1.5);
    }
}
