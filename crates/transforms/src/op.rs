//! The sixteen production preprocessing operations (Table XI).

use dsi_types::rng::{mix2, SplitMix64};
use dsi_types::{FeatureId, Sample, SparseList};
use std::collections::BTreeMap;

/// One preprocessing operation over a sample's features.
///
/// Operations never fail: missing inputs simply produce no output (absent
/// features are routine — coverage is well below 1.0 for most sparse
/// features).
#[derive(Debug, Clone, PartialEq)]
pub enum TransformOp {
    /// Cartesian product of two sparse features: every id pair hashes into
    /// a combined id in `output`.
    Cartesian {
        /// First sparse input.
        a: FeatureId,
        /// Second sparse input.
        b: FeatureId,
        /// Derived sparse output.
        output: FeatureId,
    },
    /// Shards a dense feature into a bucket index by border search.
    Bucketize {
        /// Dense input.
        input: FeatureId,
        /// Ascending bucket borders.
        borders: Vec<f64>,
        /// Derived sparse output holding the bucket index.
        output: FeatureId,
    },
    /// Arithmetic over a scored sparse feature's scores.
    ComputeScore {
        /// Scored sparse input (modified in place).
        input: FeatureId,
        /// Multiplier applied to each score.
        scale: f32,
        /// Offset added to each score.
        offset: f32,
    },
    /// Like Python `enumerate()`: each id is combined with its position.
    Enumerate {
        /// Sparse input (modified in place).
        input: FeatureId,
    },
    /// Positive modulus over each id of a sparse feature.
    PositiveModulus {
        /// Sparse input (modified in place).
        input: FeatureId,
        /// Modulus (> 0).
        modulus: u64,
    },
    /// Intersection of two sparse id lists.
    IdListTransform {
        /// First sparse input.
        a: FeatureId,
        /// Second sparse input.
        b: FeatureId,
        /// Derived sparse output (ids present in both).
        output: FeatureId,
    },
    /// Box–Cox normalization of a dense feature.
    BoxCox {
        /// Dense input (modified in place).
        input: FeatureId,
        /// Box–Cox lambda; `0` selects the log transform.
        lambda: f64,
    },
    /// Logit transform of a dense feature (input clamped into (0, 1)).
    Logit {
        /// Dense input (modified in place).
        input: FeatureId,
    },
    /// Maps feature ids to fixed values via a table.
    MapId {
        /// Sparse input (modified in place).
        input: FeatureId,
        /// Explicit id mapping.
        mapping: BTreeMap<u64, u64>,
        /// Value for unmapped ids (`None` drops them).
        default: Option<u64>,
    },
    /// Truncates a sparse list to its first `x` values.
    FirstX {
        /// Sparse input (modified in place).
        input: FeatureId,
        /// Maximum values retained.
        x: usize,
    },
    /// Computes the local hour-of-day from a UNIX-seconds dense feature.
    GetLocalHour {
        /// Dense input holding UNIX seconds (modified in place).
        input: FeatureId,
        /// Timezone offset in seconds.
        tz_offset_secs: i32,
    },
    /// Hashes each id of a sparse list into `[0, modulus)` — the standard
    /// sparse-id normalization before embedding lookup.
    SigridHash {
        /// Sparse input (modified in place).
        input: FeatureId,
        /// Hash salt.
        salt: u64,
        /// Output id space size (> 0).
        modulus: u64,
    },
    /// N-grams within a sparse list: each window of `n` consecutive ids
    /// hashes into one output id.
    NGram {
        /// Sparse input.
        input: FeatureId,
        /// Window length (≥ 1).
        n: usize,
        /// Derived sparse output.
        output: FeatureId,
    },
    /// One-hot encodes a dense feature: the value's class index becomes a
    /// single-id sparse output.
    Onehot {
        /// Dense input.
        input: FeatureId,
        /// Number of classes (> 0).
        num_classes: u32,
        /// Derived sparse output.
        output: FeatureId,
    },
    /// `std::clamp` over a dense feature.
    Clamp {
        /// Dense input (modified in place).
        input: FeatureId,
        /// Lower bound.
        min: f32,
        /// Upper bound.
        max: f32,
    },
    /// Randomly samples training rows: a row survives with probability
    /// `rate` (applied at the batch level by the plan executor).
    Sampling {
        /// Keep probability in `[0, 1]`.
        rate: f64,
        /// Determinism seed.
        seed: u64,
    },
}

impl TransformOp {
    /// The feature the op writes (same as input for in-place ops).
    pub fn output_feature(&self) -> Option<FeatureId> {
        match self {
            TransformOp::Cartesian { output, .. }
            | TransformOp::Bucketize { output, .. }
            | TransformOp::IdListTransform { output, .. }
            | TransformOp::NGram { output, .. }
            | TransformOp::Onehot { output, .. } => Some(*output),
            TransformOp::ComputeScore { input, .. }
            | TransformOp::Enumerate { input }
            | TransformOp::PositiveModulus { input, .. }
            | TransformOp::BoxCox { input, .. }
            | TransformOp::Logit { input }
            | TransformOp::MapId { input, .. }
            | TransformOp::FirstX { input, .. }
            | TransformOp::GetLocalHour { input, .. }
            | TransformOp::SigridHash { input, .. }
            | TransformOp::Clamp { input, .. } => Some(*input),
            TransformOp::Sampling { .. } => None,
        }
    }

    /// Whether this op reads any dense feature. Dense values vary per
    /// sample even inside a dedup session, so dense-reading ops can never
    /// be computed once per DedupSet and fanned out.
    pub fn reads_dense(&self) -> bool {
        matches!(
            self,
            TransformOp::Bucketize { .. }
                | TransformOp::BoxCox { .. }
                | TransformOp::Logit { .. }
                | TransformOp::GetLocalHour { .. }
                | TransformOp::Onehot { .. }
                | TransformOp::Clamp { .. }
        )
    }

    /// The sparse features this op reads (empty for dense-only ops and
    /// `Sampling`).
    pub fn sparse_inputs(&self) -> Vec<FeatureId> {
        match self {
            TransformOp::Cartesian { a, b, .. } | TransformOp::IdListTransform { a, b, .. } => {
                vec![*a, *b]
            }
            TransformOp::ComputeScore { input, .. }
            | TransformOp::Enumerate { input }
            | TransformOp::PositiveModulus { input, .. }
            | TransformOp::MapId { input, .. }
            | TransformOp::FirstX { input, .. }
            | TransformOp::SigridHash { input, .. }
            | TransformOp::NGram { input, .. } => vec![*input],
            _ => Vec::new(),
        }
    }

    /// Whether this op derives a *new* feature (feature generation class).
    pub fn derives_feature(&self) -> bool {
        matches!(
            self,
            TransformOp::Cartesian { .. }
                | TransformOp::Bucketize { .. }
                | TransformOp::IdListTransform { .. }
                | TransformOp::NGram { .. }
                | TransformOp::Onehot { .. }
        )
    }

    /// Applies the op to one sample. `Sampling` is a no-op here (it acts at
    /// batch level); use [`TransformOp::sample_survives`].
    pub fn apply(&self, s: &mut Sample) {
        match self {
            TransformOp::Cartesian { a, b, output } => {
                let (Some(la), Some(lb)) = (s.sparse(*a), s.sparse(*b)) else {
                    return;
                };
                let mut out = SparseList::new();
                for &ia in la.ids() {
                    for &ib in lb.ids() {
                        out.push(mix2(ia, ib));
                    }
                }
                s.set_sparse(*output, out);
            }
            TransformOp::Bucketize {
                input,
                borders,
                output,
            } => {
                let Some(v) = s.dense(*input) else { return };
                let bucket = borders.partition_point(|&b| b <= v as f64) as u64;
                s.set_sparse(*output, SparseList::from_ids(vec![bucket]));
            }
            TransformOp::ComputeScore {
                input,
                scale,
                offset,
            } => {
                let Some(list) = s.sparse(*input) else { return };
                if list.scores().is_none() {
                    return;
                }
                let ids = list.ids().to_vec();
                let scores: Vec<f32> = list
                    .scores()
                    .expect("checked above")
                    .iter()
                    .map(|&x| x * scale + offset)
                    .collect();
                s.set_sparse(*input, SparseList::from_scored(ids, scores));
            }
            TransformOp::Enumerate { input } => {
                let Some(list) = s.sparse(*input) else { return };
                let ids: Vec<u64> = list
                    .ids()
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| mix2(i as u64, id))
                    .collect();
                let new = match list.scores() {
                    Some(sc) => SparseList::from_scored(ids, sc.to_vec()),
                    None => SparseList::from_ids(ids),
                };
                s.set_sparse(*input, new);
            }
            TransformOp::PositiveModulus { input, modulus } => {
                debug_assert!(*modulus > 0, "modulus must be positive");
                if let Some(list) = s.sparse(*input) {
                    let mut list = list.clone();
                    list.map_ids_in_place(|id| id % modulus);
                    s.set_sparse(*input, list);
                }
            }
            TransformOp::IdListTransform { a, b, output } => {
                let (Some(la), Some(lb)) = (s.sparse(*a), s.sparse(*b)) else {
                    return;
                };
                let set: std::collections::BTreeSet<u64> = lb.ids().iter().copied().collect();
                let out: SparseList = la
                    .ids()
                    .iter()
                    .copied()
                    .filter(|id| set.contains(id))
                    .collect();
                s.set_sparse(*output, out);
            }
            TransformOp::BoxCox { input, lambda } => {
                if let Some(v) = s.dense(*input) {
                    let x = (v as f64).max(1e-9);
                    let t = if lambda.abs() < 1e-12 {
                        x.ln()
                    } else {
                        (x.powf(*lambda) - 1.0) / lambda
                    };
                    s.set_dense(*input, t as f32);
                }
            }
            TransformOp::Logit { input } => {
                if let Some(v) = s.dense(*input) {
                    let p = (v as f64).clamp(1e-6, 1.0 - 1e-6);
                    s.set_dense(*input, (p / (1.0 - p)).ln() as f32);
                }
            }
            TransformOp::MapId {
                input,
                mapping,
                default,
            } => {
                let Some(list) = s.sparse(*input) else { return };
                let mut ids = Vec::with_capacity(list.len());
                let mut scores = list.scores().map(|_| Vec::with_capacity(list.len()));
                for (i, &id) in list.ids().iter().enumerate() {
                    let mapped = mapping.get(&id).copied().or(*default);
                    if let Some(m) = mapped {
                        ids.push(m);
                        if let Some(sc) = &mut scores {
                            sc.push(list.scores().expect("scored")[i]);
                        }
                    }
                }
                let new = match scores {
                    Some(sc) => SparseList::from_scored(ids, sc),
                    None => SparseList::from_ids(ids),
                };
                s.set_sparse(*input, new);
            }
            TransformOp::FirstX { input, x } => {
                if let Some(list) = s.sparse(*input) {
                    let mut list = list.clone();
                    list.truncate(*x);
                    s.set_sparse(*input, list);
                }
            }
            TransformOp::GetLocalHour {
                input,
                tz_offset_secs,
            } => {
                if let Some(v) = s.dense(*input) {
                    let local = (v as i64).wrapping_add(i64::from(*tz_offset_secs));
                    let hour = local.rem_euclid(86_400) / 3_600;
                    s.set_dense(*input, hour as f32);
                }
            }
            TransformOp::SigridHash {
                input,
                salt,
                modulus,
            } => {
                debug_assert!(*modulus > 0, "modulus must be positive");
                if let Some(list) = s.sparse(*input) {
                    let mut list = list.clone();
                    list.map_ids_in_place(|id| mix2(*salt, id) % modulus);
                    s.set_sparse(*input, list);
                }
            }
            TransformOp::NGram { input, n, output } => {
                debug_assert!(*n >= 1, "n must be at least 1");
                let Some(list) = s.sparse(*input) else { return };
                if list.len() < *n {
                    s.set_sparse(*output, SparseList::new());
                    return;
                }
                let out: SparseList = list
                    .ids()
                    .windows(*n)
                    .map(|w| w.iter().fold(0u64, |acc, &id| mix2(acc, id)))
                    .collect();
                s.set_sparse(*output, out);
            }
            TransformOp::Onehot {
                input,
                num_classes,
                output,
            } => {
                debug_assert!(*num_classes > 0, "num_classes must be positive");
                if let Some(v) = s.dense(*input) {
                    let class = (v.max(0.0) as u64).min(*num_classes as u64 - 1);
                    s.set_sparse(*output, SparseList::from_ids(vec![class]));
                }
            }
            TransformOp::Clamp { input, min, max } => {
                if let Some(v) = s.dense(*input) {
                    s.set_dense(*input, v.clamp(*min, *max));
                }
            }
            TransformOp::Sampling { .. } => {}
        }
    }

    /// For `Sampling`: whether the `row_index`-th row survives. Always
    /// `true` for other ops.
    pub fn sample_survives(&self, row_index: u64) -> bool {
        match self {
            TransformOp::Sampling { rate, seed } => {
                let mut rng = SplitMix64::new(mix2(*seed, row_index));
                rng.chance(*rate)
            }
            _ => true,
        }
    }

    /// Number of elements this op touches in `s` (cost-model input).
    pub fn elements_touched(&self, s: &Sample) -> u64 {
        let sparse_len = |f: FeatureId| s.sparse(f).map_or(0, SparseList::len) as u64;
        match self {
            TransformOp::Cartesian { a, b, .. } => sparse_len(*a) * sparse_len(*b),
            TransformOp::Bucketize { input, borders, .. } => {
                if s.dense(*input).is_some() {
                    (borders.len() as f64).log2().ceil().max(1.0) as u64
                } else {
                    0
                }
            }
            TransformOp::ComputeScore { input, .. }
            | TransformOp::Enumerate { input }
            | TransformOp::PositiveModulus { input, .. }
            | TransformOp::MapId { input, .. }
            | TransformOp::FirstX { input, .. }
            | TransformOp::SigridHash { input, .. } => sparse_len(*input),
            TransformOp::IdListTransform { a, b, .. } => sparse_len(*a) + sparse_len(*b),
            TransformOp::NGram { input, n, .. } => {
                sparse_len(*input).saturating_sub(*n as u64 - 1) * *n as u64
            }
            TransformOp::BoxCox { input, .. }
            | TransformOp::Logit { input }
            | TransformOp::GetLocalHour { input, .. }
            | TransformOp::Onehot { input, .. }
            | TransformOp::Clamp { input, .. } => u64::from(s.dense(*input).is_some()),
            TransformOp::Sampling { .. } => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Sample {
        let mut s = Sample::new(0.0);
        s.set_dense(FeatureId(1), 0.5);
        s.set_dense(FeatureId(2), 100_000.0); // unix-ish timestamp
        s.set_sparse(FeatureId(10), SparseList::from_ids(vec![3, 7, 11, 7]));
        s.set_sparse(FeatureId(11), SparseList::from_ids(vec![7, 99]));
        s.set_sparse(
            FeatureId(12),
            SparseList::from_scored(vec![1, 2], vec![0.5, 1.5]),
        );
        s
    }

    #[test]
    fn cartesian_produces_all_pairs() {
        let mut s = sample();
        TransformOp::Cartesian {
            a: FeatureId(10),
            b: FeatureId(11),
            output: FeatureId(50),
        }
        .apply(&mut s);
        assert_eq!(s.sparse(FeatureId(50)).unwrap().len(), 4 * 2);
    }

    #[test]
    fn bucketize_finds_bucket() {
        let mut s = sample();
        TransformOp::Bucketize {
            input: FeatureId(1),
            borders: vec![0.0, 0.25, 0.75, 1.0],
            output: FeatureId(51),
        }
        .apply(&mut s);
        // 0.5 falls after borders 0.0, 0.25 -> bucket 2.
        assert_eq!(s.sparse(FeatureId(51)).unwrap().ids(), &[2]);
    }

    #[test]
    fn bucketize_is_monotone_in_input() {
        let borders = vec![0.0, 1.0, 2.0, 3.0];
        let mut last = 0;
        for i in 0..8 {
            let mut s = Sample::new(0.0);
            s.set_dense(FeatureId(1), i as f32 * 0.5);
            TransformOp::Bucketize {
                input: FeatureId(1),
                borders: borders.clone(),
                output: FeatureId(2),
            }
            .apply(&mut s);
            let b = s.sparse(FeatureId(2)).unwrap().ids()[0];
            assert!(b >= last, "bucket decreased");
            last = b;
        }
    }

    #[test]
    fn compute_score_scales_scores() {
        let mut s = sample();
        TransformOp::ComputeScore {
            input: FeatureId(12),
            scale: 2.0,
            offset: 1.0,
        }
        .apply(&mut s);
        assert_eq!(
            s.sparse(FeatureId(12)).unwrap().scores().unwrap(),
            &[2.0, 4.0]
        );
        // No-op on unscored lists.
        TransformOp::ComputeScore {
            input: FeatureId(10),
            scale: 2.0,
            offset: 0.0,
        }
        .apply(&mut s);
        assert!(s.sparse(FeatureId(10)).unwrap().scores().is_none());
    }

    #[test]
    fn enumerate_distinguishes_positions() {
        let mut s = Sample::new(0.0);
        s.set_sparse(FeatureId(1), SparseList::from_ids(vec![5, 5]));
        TransformOp::Enumerate {
            input: FeatureId(1),
        }
        .apply(&mut s);
        let ids = s.sparse(FeatureId(1)).unwrap().ids();
        assert_ne!(ids[0], ids[1], "same id at different positions must differ");
    }

    #[test]
    fn positive_modulus_bounds_ids() {
        let mut s = sample();
        TransformOp::PositiveModulus {
            input: FeatureId(10),
            modulus: 5,
        }
        .apply(&mut s);
        assert!(s
            .sparse(FeatureId(10))
            .unwrap()
            .ids()
            .iter()
            .all(|&i| i < 5));
    }

    #[test]
    fn id_list_transform_intersects() {
        let mut s = sample();
        TransformOp::IdListTransform {
            a: FeatureId(10),
            b: FeatureId(11),
            output: FeatureId(52),
        }
        .apply(&mut s);
        assert_eq!(s.sparse(FeatureId(52)).unwrap().ids(), &[7, 7]);
    }

    #[test]
    fn boxcox_and_logit_normalize() {
        let mut s = sample();
        TransformOp::BoxCox {
            input: FeatureId(1),
            lambda: 0.0,
        }
        .apply(&mut s);
        assert!((s.dense(FeatureId(1)).unwrap() - 0.5f32.ln()).abs() < 1e-6);

        let mut s2 = sample();
        TransformOp::Logit {
            input: FeatureId(1),
        }
        .apply(&mut s2);
        assert!(s2.dense(FeatureId(1)).unwrap().abs() < 1e-6); // logit(0.5) = 0
    }

    #[test]
    fn map_id_maps_and_drops() {
        let mut s = sample();
        let mapping: BTreeMap<u64, u64> = [(3, 300), (7, 700)].into_iter().collect();
        TransformOp::MapId {
            input: FeatureId(10),
            mapping,
            default: None,
        }
        .apply(&mut s);
        assert_eq!(s.sparse(FeatureId(10)).unwrap().ids(), &[300, 700, 700]);
    }

    #[test]
    fn first_x_truncates() {
        let mut s = sample();
        TransformOp::FirstX {
            input: FeatureId(10),
            x: 2,
        }
        .apply(&mut s);
        assert_eq!(s.sparse(FeatureId(10)).unwrap().ids(), &[3, 7]);
    }

    #[test]
    fn get_local_hour_wraps() {
        let mut s = sample();
        TransformOp::GetLocalHour {
            input: FeatureId(2),
            tz_offset_secs: -3600,
        }
        .apply(&mut s);
        // 100000 - 3600 = 96400 s -> 96400 % 86400 = 10000 s -> hour 2.
        assert_eq!(s.dense(FeatureId(2)), Some(2.0));
    }

    #[test]
    fn sigrid_hash_is_deterministic_and_bounded() {
        let mut a = sample();
        let mut b = sample();
        let op = TransformOp::SigridHash {
            input: FeatureId(10),
            salt: 9,
            modulus: 100,
        };
        op.apply(&mut a);
        op.apply(&mut b);
        assert_eq!(a.sparse(FeatureId(10)), b.sparse(FeatureId(10)));
        assert!(a
            .sparse(FeatureId(10))
            .unwrap()
            .ids()
            .iter()
            .all(|&i| i < 100));
        // Equal input ids hash equal.
        let ids = a.sparse(FeatureId(10)).unwrap().ids();
        assert_eq!(ids[1], ids[3]);
    }

    #[test]
    fn ngram_windows() {
        let mut s = sample();
        TransformOp::NGram {
            input: FeatureId(10),
            n: 2,
            output: FeatureId(53),
        }
        .apply(&mut s);
        assert_eq!(s.sparse(FeatureId(53)).unwrap().len(), 3);
        // Short lists produce empty output.
        let mut s2 = Sample::new(0.0);
        s2.set_sparse(FeatureId(10), SparseList::from_ids(vec![1]));
        TransformOp::NGram {
            input: FeatureId(10),
            n: 2,
            output: FeatureId(53),
        }
        .apply(&mut s2);
        assert!(s2.sparse(FeatureId(53)).unwrap().is_empty());
    }

    #[test]
    fn onehot_clamps_class() {
        let mut s = Sample::new(0.0);
        s.set_dense(FeatureId(1), 7.0);
        TransformOp::Onehot {
            input: FeatureId(1),
            num_classes: 5,
            output: FeatureId(2),
        }
        .apply(&mut s);
        assert_eq!(s.sparse(FeatureId(2)).unwrap().ids(), &[4]);
    }

    #[test]
    fn clamp_bounds_value() {
        let mut s = Sample::new(0.0);
        s.set_dense(FeatureId(1), 10.0);
        TransformOp::Clamp {
            input: FeatureId(1),
            min: -1.0,
            max: 1.0,
        }
        .apply(&mut s);
        assert_eq!(s.dense(FeatureId(1)), Some(1.0));
    }

    #[test]
    fn sampling_rate_is_respected() {
        let op = TransformOp::Sampling {
            rate: 0.25,
            seed: 3,
        };
        let survivors = (0..10_000).filter(|&i| op.sample_survives(i)).count();
        let frac = survivors as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.02, "survival {frac}");
        // Deterministic per row.
        assert_eq!(op.sample_survives(5), op.sample_survives(5));
    }

    #[test]
    fn missing_inputs_are_noops() {
        let mut s = Sample::new(0.0);
        let before = s.clone();
        for op in [
            TransformOp::Cartesian {
                a: FeatureId(1),
                b: FeatureId(2),
                output: FeatureId(3),
            },
            TransformOp::Logit {
                input: FeatureId(1),
            },
            TransformOp::SigridHash {
                input: FeatureId(1),
                salt: 0,
                modulus: 10,
            },
            TransformOp::FirstX {
                input: FeatureId(1),
                x: 1,
            },
        ] {
            op.apply(&mut s);
        }
        assert_eq!(s, before);
    }

    #[test]
    fn elements_touched_reflects_work() {
        let s = sample();
        let cart = TransformOp::Cartesian {
            a: FeatureId(10),
            b: FeatureId(11),
            output: FeatureId(50),
        };
        assert_eq!(cart.elements_touched(&s), 8);
        let clamp = TransformOp::Clamp {
            input: FeatureId(1),
            min: 0.0,
            max: 1.0,
        };
        assert_eq!(clamp.elements_touched(&s), 1);
        assert!(cart.derives_feature());
        assert!(!clamp.derives_feature());
    }
}
