//! Composable, serializable transform plans and per-RM presets.
//!
//! A [`TransformPlan`] is the unit the DPP Master ships to Workers at
//! session start (the analogue of the serialized, compiled PyTorch module
//! of §III-B1): an ordered list of [`TransformOp`]s applied locally to each
//! mini-batch.

use crate::cost::{OpClass, OpCost};
use crate::op::TransformOp;
use dsi_types::{Batch, DsiError, FeatureId, Projection, Result, Sample};
use std::collections::BTreeMap;

/// Derived features get ids in a dedicated range above raw feature ids.
pub const DERIVED_FEATURE_BASE: u64 = 1 << 32;

/// Cycle accounting for one plan application.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanCost {
    /// Total estimated CPU cycles.
    pub cycles: f64,
    /// Cycles spent deriving new features.
    pub feature_generation_cycles: f64,
    /// Cycles spent normalizing sparse features.
    pub sparse_normalization_cycles: f64,
    /// Cycles spent normalizing dense features.
    pub dense_normalization_cycles: f64,
    /// Elements touched across all ops.
    pub elements: u64,
    /// Memory-bandwidth bytes moved.
    pub membw_bytes: f64,
}

impl PlanCost {
    /// Charges `op` for touching `elements` elements under `model`: the one
    /// place cycles, their class split and memory traffic are accounted,
    /// for the row path, the columnar path and the dedup executor alike.
    pub fn charge(&mut self, model: &OpCost, op: &TransformOp, elements: u64) {
        let cycles = model.cycles(op, elements);
        self.cycles += cycles;
        self.elements += elements;
        self.membw_bytes += elements as f64 * model.membw_bytes_per_element;
        match OpCost::class_of(op) {
            OpClass::FeatureGeneration => self.feature_generation_cycles += cycles,
            OpClass::SparseNormalization => self.sparse_normalization_cycles += cycles,
            OpClass::DenseNormalization => self.dense_normalization_cycles += cycles,
            OpClass::Filter => {}
        }
    }

    /// Fraction of cycles in each class `(feature gen, sparse norm, dense
    /// norm)`.
    pub fn class_shares(&self) -> (f64, f64, f64) {
        if self.cycles == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.feature_generation_cycles / self.cycles,
            self.sparse_normalization_cycles / self.cycles,
            self.dense_normalization_cycles / self.cycles,
        )
    }
}

/// An ordered, serializable list of transform operations.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformPlan {
    ops: Vec<TransformOp>,
    cost_model: OpCost,
}

impl TransformPlan {
    /// Creates a plan from ops with the default cost model.
    pub fn new(ops: Vec<TransformOp>) -> Self {
        Self {
            ops,
            cost_model: OpCost::default(),
        }
    }

    /// An empty plan (extraction-only sessions).
    pub fn empty() -> Self {
        Self::new(Vec::new())
    }

    /// The plan's operations in application order.
    pub fn ops(&self) -> &[TransformOp] {
        &self.ops
    }

    /// The plan's cycle cost model (dedup-aware executors charge per-op
    /// costs through the same model this plan uses internally).
    pub fn cost_model(&self) -> &OpCost {
        &self.cost_model
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Rejects parameters no kernel can run on: a plan is deserialized and
    /// shipped Master → Worker, so these are checked once where a session
    /// is launched and both execution paths rely on them afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::InvalidSpec`] naming the first offending op: a
    /// zero `modulus`, `n` or `num_classes`, a `Sampling` rate outside
    /// `[0, 1]`, or `Bucketize` borders that are not ascending numbers.
    pub fn validate(&self) -> Result<()> {
        for (i, op) in self.ops.iter().enumerate() {
            let broken = match op {
                TransformOp::SigridHash { modulus: 0, .. }
                | TransformOp::PositiveModulus { modulus: 0, .. } => "modulus must be positive",
                TransformOp::NGram { n: 0, .. } => "n must be at least 1",
                TransformOp::Onehot { num_classes: 0, .. } => "num_classes must be positive",
                // A NaN rate is in no range.
                TransformOp::Sampling { rate, .. } if !(0.0..=1.0).contains(rate) => {
                    "rate must lie in [0, 1]"
                }
                // `w[0] <= w[1]` is false for NaN on either side.
                TransformOp::Bucketize { borders, .. }
                    if borders.iter().any(|b| b.is_nan())
                        || !borders.windows(2).all(|w| w[0] <= w[1]) =>
                {
                    "borders must be ascending numbers"
                }
                _ => continue,
            };
            return Err(DsiError::invalid_spec(format!(
                "transform op {i} ({op:?}): {broken}"
            )));
        }
        Ok(())
    }

    /// Number of ops that derive new features.
    pub fn derived_feature_count(&self) -> usize {
        self.ops.iter().filter(|o| o.derives_feature()).count()
    }

    /// Applies every op to one sample in order.
    pub fn apply_sample(&self, s: &mut Sample) {
        for op in &self.ops {
            op.apply(s);
        }
    }

    /// Applies every op to a sample while accounting cycles per class.
    pub fn apply_sample_with_cost(&self, s: &mut Sample) -> PlanCost {
        let mut cost = PlanCost::default();
        for op in &self.ops {
            cost.charge(&self.cost_model, op, op.elements_touched(s));
            op.apply(s);
        }
        cost
    }

    /// Applies the plan to a batch whose first row has dataset index
    /// `base_row`: sampling ops filter rows deterministically by dataset
    /// index, then every surviving sample is transformed. Returns the
    /// transformed batch and accumulated cost.
    pub fn apply_batch(&self, batch: Batch, base_row: u64) -> (Batch, PlanCost) {
        let sampling: Vec<&TransformOp> = self
            .ops
            .iter()
            .filter(|o| matches!(o, TransformOp::Sampling { .. }))
            .collect();
        let mut out = Batch::new();
        let mut cost = PlanCost::default();
        for (i, mut s) in batch.into_samples().into_iter().enumerate() {
            let row = base_row + i as u64;
            if !sampling.iter().all(|op| op.sample_survives(row)) {
                continue;
            }
            let c = self.apply_sample_with_cost(&mut s);
            cost.cycles += c.cycles;
            cost.feature_generation_cycles += c.feature_generation_cycles;
            cost.sparse_normalization_cycles += c.sparse_normalization_cycles;
            cost.dense_normalization_cycles += c.dense_normalization_cycles;
            cost.elements += c.elements;
            cost.membw_bytes += c.membw_bytes;
            out.push(s);
        }
        (out, cost)
    }

    /// Builds a production-shaped plan over the features of `projection`:
    /// every sparse feature is hash-normalized and truncated, every dense
    /// feature normalized, and `derived_fraction` of features derive new
    /// ones via NGram / Bucketize / Cartesian rotations.
    ///
    /// `sparse_ids`/`dense_ids` split the projection by kind (the schema
    /// knows; the plan builder does not guess).
    pub fn preset(
        projection: &Projection,
        sparse_ids: &[FeatureId],
        dense_ids: &[FeatureId],
        derived_fraction: f64,
        hash_modulus: u64,
    ) -> TransformPlan {
        let sparse: Vec<FeatureId> = sparse_ids
            .iter()
            .filter(|f| projection.contains(**f))
            .copied()
            .collect();
        let dense: Vec<FeatureId> = dense_ids
            .iter()
            .filter(|f| projection.contains(**f))
            .copied()
            .collect();
        let mut ops = Vec::new();
        // Sparse normalization: hash + truncate every sparse feature.
        for (i, &f) in sparse.iter().enumerate() {
            ops.push(TransformOp::SigridHash {
                input: f,
                salt: i as u64,
                modulus: hash_modulus,
            });
            ops.push(TransformOp::FirstX { input: f, x: 50 });
        }
        // Dense normalization: rotate through the normalizers.
        for (i, &f) in dense.iter().enumerate() {
            ops.push(match i % 3 {
                0 => TransformOp::Logit { input: f },
                1 => TransformOp::BoxCox {
                    input: f,
                    lambda: 0.5,
                },
                _ => TransformOp::Clamp {
                    input: f,
                    min: -10.0,
                    max: 10.0,
                },
            });
        }
        // Feature generation: ~3-5 distinct kernels per derived feature is
        // typical (§VII); here each derived feature is one generation op
        // plus the normalizations that follow it.
        let derived = ((sparse.len() + dense.len()) as f64 * derived_fraction).round() as usize;
        for d in 0..derived {
            let out = FeatureId(DERIVED_FEATURE_BASE + d as u64);
            // Rotation weighted like production mixes: n-grams and
            // bucketization are common; full Cartesian crosses (quadratic
            // cost) and list intersections are rarer.
            let bucketize = |input| TransformOp::Bucketize {
                input,
                borders: (0..16).map(|b| b as f64 * 0.5).collect(),
                output: out,
            };
            let op = match d % 6 {
                0 | 3 if !sparse.is_empty() => TransformOp::NGram {
                    input: sparse[d % sparse.len()],
                    n: 2,
                    output: out,
                },
                1 | 4 if !dense.is_empty() => bucketize(dense[d % dense.len()]),
                2 if sparse.len() >= 2 && d % 12 == 2 => TransformOp::Cartesian {
                    a: sparse[d % sparse.len()],
                    b: sparse[(d + 1) % sparse.len()],
                    output: out,
                },
                2 if !sparse.is_empty() => TransformOp::NGram {
                    input: sparse[d % sparse.len()],
                    n: 3,
                    output: out,
                },
                5 if sparse.len() >= 2 => TransformOp::IdListTransform {
                    a: sparse[d % sparse.len()],
                    b: sparse[(d + 1) % sparse.len()],
                    output: out,
                },
                _ if !dense.is_empty() => bucketize(dense[d % dense.len()]),
                _ if !sparse.is_empty() => TransformOp::NGram {
                    input: sparse[d % sparse.len()],
                    n: 2,
                    output: out,
                },
                _ => continue,
            };
            ops.push(op);
            // Derived sparse features are normalized too.
            ops.push(TransformOp::SigridHash {
                input: out,
                salt: 0xd0_0d + d as u64,
                modulus: hash_modulus,
            });
            ops.push(TransformOp::FirstX { input: out, x: 50 });
        }
        TransformPlan::new(ops)
    }

    /// Ids of all derived output features, in order.
    pub fn derived_feature_ids(&self) -> Vec<FeatureId> {
        let mut ids: Vec<FeatureId> = self
            .ops
            .iter()
            .filter(|o| o.derives_feature())
            .filter_map(TransformOp::output_feature)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Count of ops per class.
    pub fn class_counts(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for op in &self.ops {
            *counts.entry(OpCost::class_of(op).to_string()).or_insert(0) += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::SparseList;

    fn sample() -> Sample {
        let mut s = Sample::new(1.0);
        s.set_dense(FeatureId(0), 0.4);
        s.set_dense(FeatureId(1), 2.0);
        s.set_sparse(FeatureId(10), SparseList::from_ids(vec![5, 9, 14, 22]));
        s.set_sparse(FeatureId(11), SparseList::from_ids(vec![7, 9]));
        s
    }

    #[test]
    fn plan_applies_in_order() {
        // Hash then truncate differs from truncate then hash in membership.
        let plan = TransformPlan::new(vec![
            TransformOp::FirstX {
                input: FeatureId(10),
                x: 2,
            },
            TransformOp::SigridHash {
                input: FeatureId(10),
                salt: 1,
                modulus: 1_000_000,
            },
        ]);
        let mut s = sample();
        plan.apply_sample(&mut s);
        assert_eq!(s.sparse(FeatureId(10)).unwrap().len(), 2);
    }

    #[test]
    fn preset_covers_projection() {
        let sparse = vec![FeatureId(10), FeatureId(11)];
        let dense = vec![FeatureId(0), FeatureId(1)];
        let proj = Projection::new(vec![
            FeatureId(0),
            FeatureId(1),
            FeatureId(10),
            FeatureId(11),
        ]);
        let plan = TransformPlan::preset(&proj, &sparse, &dense, 0.25, 10_000);
        assert!(!plan.is_empty());
        assert_eq!(plan.derived_feature_count(), 1);
        let mut s = sample();
        plan.apply_sample(&mut s);
        // Derived feature materialized.
        assert!(s.feature(FeatureId(DERIVED_FEATURE_BASE)).is_some());
        // Sparse ids normalized into the hash space.
        assert!(s
            .sparse(FeatureId(10))
            .unwrap()
            .ids()
            .iter()
            .all(|&i| i < 10_000));
    }

    #[test]
    fn cost_shares_track_op_mix() {
        // A generation-heavy plan: Cartesian on two 4-element lists (16
        // elements at the generation weight) dwarfs the dense Clamp.
        let plan = TransformPlan::new(vec![
            TransformOp::Cartesian {
                a: FeatureId(10),
                b: FeatureId(11),
                output: FeatureId(60),
            },
            TransformOp::SigridHash {
                input: FeatureId(60),
                salt: 0,
                modulus: 100,
            },
            TransformOp::Clamp {
                input: FeatureId(0),
                min: 0.0,
                max: 1.0,
            },
        ]);
        let mut s = sample();
        let cost = plan.apply_sample_with_cost(&mut s);
        let (generation, sparse, dense) = cost.class_shares();
        assert!(
            generation > sparse && sparse > dense,
            "{generation} {sparse} {dense}"
        );
        assert!(cost.membw_bytes > 0.0);
        assert!((generation + sparse + dense - 1.0).abs() < 1e-9);
    }

    #[test]
    fn batch_sampling_filters_rows_deterministically() {
        let plan = TransformPlan::new(vec![TransformOp::Sampling { rate: 0.5, seed: 4 }]);
        let batch: Batch = (0..1000).map(|_| sample()).collect();
        let (out1, _) = plan.apply_batch(batch.clone(), 0);
        let (out2, _) = plan.apply_batch(batch.clone(), 0);
        assert_eq!(out1.len(), out2.len());
        assert!((400..600).contains(&out1.len()), "kept {}", out1.len());
        // Different base row -> different survivors.
        let (out3, _) = plan.apply_batch(batch, 1_000_000);
        assert_ne!(out1.samples(), out3.samples());
    }

    #[test]
    fn empty_plan_is_identity() {
        let plan = TransformPlan::empty();
        let mut s = sample();
        let before = s.clone();
        let cost = plan.apply_sample_with_cost(&mut s);
        assert_eq!(s, before);
        assert_eq!(cost.cycles, 0.0);
        assert!(plan.is_empty());
    }

    #[test]
    fn derived_ids_enumerated() {
        let proj = Projection::new(vec![FeatureId(0), FeatureId(10), FeatureId(11)]);
        let plan = TransformPlan::preset(
            &proj,
            &[FeatureId(10), FeatureId(11)],
            &[FeatureId(0)],
            0.7,
            1000,
        );
        let derived = plan.derived_feature_ids();
        assert_eq!(derived.len(), 2);
        assert!(derived.iter().all(|f| f.0 >= DERIVED_FEATURE_BASE));
        let counts = plan.class_counts();
        assert!(counts["feature-generation"] >= 2);
    }
}
