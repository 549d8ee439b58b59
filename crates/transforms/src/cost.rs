//! The per-op cycle cost model.
//!
//! §VI-D: dense normalization, sparse normalization, and feature generation
//! take roughly 5%, 20%, and 75% of transformation cycles. The model
//! assigns cycles-per-element weights per class (feature generation does
//! hashing and set work per element; normalizations are cheaper), from
//! which a plan's cycle estimate — and the class split — falls out of the
//! actual elements touched.

use crate::op::TransformOp;
use std::fmt;

/// Compute class of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Derives new features (Cartesian, NGram, Bucketize, MapId, ...).
    FeatureGeneration,
    /// Normalizes sparse features (SigridHash, FirstX, ...).
    SparseNormalization,
    /// Normalizes dense features (Logit, BoxCox, Onehot, Clamp, ...).
    DenseNormalization,
    /// Row filtering (Sampling).
    Filter,
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::FeatureGeneration => "feature-generation",
            OpClass::SparseNormalization => "sparse-normalization",
            OpClass::DenseNormalization => "dense-normalization",
            OpClass::Filter => "filter",
        };
        f.write_str(s)
    }
}

/// Cycle cost weights per element for each class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Cycles per element for feature generation (hash + alloc heavy).
    pub feature_generation: f64,
    /// Cycles per element for sparse normalization.
    pub sparse_normalization: f64,
    /// Cycles per element for dense normalization.
    pub dense_normalization: f64,
    /// Cycles per row for filtering.
    pub filter: f64,
    /// Memory-bandwidth bytes moved per element (read + write + alloc
    /// traffic); feature generation dominates LLC misses (§VI-C).
    pub membw_bytes_per_element: f64,
}

impl Default for OpCost {
    fn default() -> Self {
        Self {
            feature_generation: 160.0,
            sparse_normalization: 20.0,
            dense_normalization: 130.0,
            filter: 10.0,
            membw_bytes_per_element: 56.0,
        }
    }
}

impl OpCost {
    /// The class of an op.
    pub fn class_of(op: &TransformOp) -> OpClass {
        match op {
            TransformOp::Cartesian { .. }
            | TransformOp::Bucketize { .. }
            | TransformOp::IdListTransform { .. }
            | TransformOp::NGram { .. }
            | TransformOp::MapId { .. }
            | TransformOp::Enumerate { .. }
            | TransformOp::GetLocalHour { .. } => OpClass::FeatureGeneration,
            TransformOp::SigridHash { .. }
            | TransformOp::FirstX { .. }
            | TransformOp::PositiveModulus { .. }
            | TransformOp::ComputeScore { .. } => OpClass::SparseNormalization,
            TransformOp::BoxCox { .. }
            | TransformOp::Logit { .. }
            | TransformOp::Onehot { .. }
            | TransformOp::Clamp { .. } => OpClass::DenseNormalization,
            TransformOp::Sampling { .. } => OpClass::Filter,
        }
    }

    /// Cycles per element for a class.
    pub fn cycles_per_element(&self, class: OpClass) -> f64 {
        match class {
            OpClass::FeatureGeneration => self.feature_generation,
            OpClass::SparseNormalization => self.sparse_normalization,
            OpClass::DenseNormalization => self.dense_normalization,
            OpClass::Filter => self.filter,
        }
    }

    /// Cycle cost of applying `op` to a sample with `elements` touched.
    pub fn cycles(&self, op: &TransformOp, elements: u64) -> f64 {
        self.cycles_per_element(Self::class_of(op)) * elements as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::FeatureId;

    #[test]
    fn classes_assigned_per_table_xi() {
        assert_eq!(
            OpCost::class_of(&TransformOp::NGram {
                input: FeatureId(1),
                n: 2,
                output: FeatureId(2)
            }),
            OpClass::FeatureGeneration
        );
        assert_eq!(
            OpCost::class_of(&TransformOp::SigridHash {
                input: FeatureId(1),
                salt: 0,
                modulus: 10
            }),
            OpClass::SparseNormalization
        );
        assert_eq!(
            OpCost::class_of(&TransformOp::Logit {
                input: FeatureId(1)
            }),
            OpClass::DenseNormalization
        );
        assert_eq!(
            OpCost::class_of(&TransformOp::Sampling { rate: 0.5, seed: 0 }),
            OpClass::Filter
        );
    }

    #[test]
    fn feature_generation_is_most_expensive_per_element() {
        let c = OpCost::default();
        // Generation (hash + alloc per element) tops the list; dense
        // normalization is transcendental-heavy per element but touches one
        // element per feature; sparse normalization is cheap hashing.
        assert!(c.feature_generation > c.dense_normalization);
        assert!(c.dense_normalization > c.sparse_normalization);
    }

    #[test]
    fn cycles_scale_with_elements() {
        let c = OpCost::default();
        let op = TransformOp::SigridHash {
            input: FeatureId(1),
            salt: 0,
            modulus: 10,
        };
        assert_eq!(c.cycles(&op, 10), 10.0 * c.sparse_normalization);
        assert_eq!(c.cycles(&op, 0), 0.0);
    }
}
