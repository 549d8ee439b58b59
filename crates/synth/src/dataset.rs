//! Deterministic synthetic sample generation for any schema.

use dedup::DedupConfig;
use dsi_types::rng::SplitMix64;
use dsi_types::{FeatureId, FeatureKind, Sample, Schema, SparseList};

/// RecD-style session duplication state: while a session is open, members
/// reuse the canonical sparse payload; a dedicated RNG stream draws session
/// sizes so the base (dense/label) stream is independent of the config.
#[derive(Debug)]
struct DupState {
    cfg: DedupConfig,
    rng: SplitMix64,
    remaining: usize,
    canonical_sparse: Vec<(FeatureId, SparseList)>,
}

impl DupState {
    /// Session size: uniform in `[1, 2*ratio - 1]` (mean `ratio`), capped
    /// at the config's `max_set_size`.
    fn next_session_len(&mut self) -> usize {
        let span = (2.0 * self.cfg.duplication_ratio - 1.0).max(1.0).round() as u64;
        let len = 1 + self.rng.next_below(span) as usize;
        len.min(self.cfg.max_set_size.max(1))
    }
}

/// Generates samples whose per-feature presence, list lengths, and value
/// distributions follow the schema's [`dsi_types::FeatureDef`]s.
///
/// Categorical ids are drawn from a large space with reuse (the same ids
/// recur across samples), so downstream compression and hashing see
/// realistic repetition.
#[derive(Debug)]
pub struct SampleGenerator {
    schema: Schema,
    rng: SplitMix64,
    /// Click-through-style positive rate.
    positive_rate: f64,
    produced: u64,
    dup: Option<DupState>,
    hashed_ids: bool,
}

impl SampleGenerator {
    /// Creates a generator over `schema` with a deterministic seed.
    pub fn new(schema: &Schema, seed: u64) -> Self {
        Self {
            schema: schema.clone(),
            rng: SplitMix64::new(seed),
            positive_rate: 0.1,
            produced: 0,
            dup: None,
            hashed_ids: false,
        }
    }

    /// Sets the positive-label rate (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn with_positive_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate in [0, 1]");
        self.positive_rate = rate;
        self
    }

    /// Enables RecD-style session duplication (builder-style): consecutive
    /// samples form sessions whose members share one bit-identical sparse
    /// payload while dense features and labels stay fresh, with mean
    /// session length `config.duplication_ratio`. Session sizes are drawn
    /// from a dedicated RNG stream, so enabling duplication never perturbs
    /// the dense/label value sequence of the base generator.
    pub fn with_duplication(mut self, config: DedupConfig) -> Self {
        // Peek (without consuming) the base stream's state to derive an
        // independent session-size stream.
        let mut peek = self.rng;
        self.dup = Some(DupState {
            cfg: config,
            rng: SplitMix64::new(peek.next_u64() ^ 0x5e55_10ed_dedb_0b5eu64),
            remaining: 0,
            canonical_sparse: Vec::new(),
        });
        self
    }

    /// Logs categorical ids with production statistics (builder-style):
    /// ids are drawn from production-cardinality populations (a
    /// million-id hot set instead of the small-domain default) and passed
    /// through a 64-bit finalizer, modeling the logging tier where sparse
    /// ids are full-width hashes over huge entity spaces. RNG consumption
    /// per sample is unchanged, so dense values, labels, presence, and
    /// list lengths stay bit-identical to the default generator — only the
    /// id values differ. This is what gives sparse streams their dominant
    /// byte share on disk: per-stripe id cardinality exceeds any
    /// dictionary, as it does at production scale.
    pub fn with_hashed_ids(mut self) -> Self {
        self.hashed_ids = true;
        self
    }

    /// Number of samples produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Generates the next sample.
    pub fn next_sample(&mut self) -> Sample {
        self.produced += 1;
        let label = if self.rng.chance(self.positive_rate) {
            1.0
        } else {
            0.0
        };
        let mut s = Sample::new(label);
        // Iterate a snapshot of defs to avoid borrowing issues.
        let defs: Vec<_> = self.schema.iter().cloned().collect();
        for def in defs {
            if !def.status.is_logged() {
                continue;
            }
            if !self.rng.chance(def.coverage) {
                continue;
            }
            match def.kind {
                FeatureKind::Dense => {
                    // Mild log-normal-ish continuous values.
                    let v = self.rng.next_lognormal(1.0, 0.5) as f32;
                    s.set_dense(def.id, v);
                }
                FeatureKind::Sparse | FeatureKind::ScoredSparse => {
                    let len = self.sample_length(def.avg_len);
                    let mut list = SparseList::new();
                    let scored = def.kind == FeatureKind::ScoredSparse;
                    for _ in 0..len {
                        let id = self.sample_categorical(def.id.0);
                        if scored {
                            list.push_scored(id, self.rng.next_f64() as f32);
                        } else {
                            list.push(id);
                        }
                    }
                    s.set_sparse(def.id, list);
                }
            }
        }
        // Session duplication: members regenerate (keeping the base RNG
        // stream bit-identical to a duplication-free run) and then swap
        // their sparse map for the session's canonical payload.
        if let Some(dup) = &mut self.dup {
            if dup.remaining > 0 {
                dup.remaining -= 1;
                let own: Vec<FeatureId> = s.sparse_iter().map(|(f, _)| f).collect();
                for fid in own {
                    s.remove(fid);
                }
                for (fid, list) in &dup.canonical_sparse {
                    s.set_sparse(*fid, list.clone());
                }
            } else {
                dup.canonical_sparse = s.sparse_iter().map(|(f, l)| (f, l.clone())).collect();
                dup.remaining = dup.next_session_len() - 1;
            }
        }
        s
    }

    /// Generates `n` samples.
    pub fn take_samples(&mut self, n: usize) -> Vec<Sample> {
        (0..n).map(|_| self.next_sample()).collect()
    }

    fn sample_length(&mut self, mean: f64) -> usize {
        // Geometric-flavored length with the requested mean, at least 1.
        let len = self.rng.next_exp(mean.max(1.0)).round() as usize;
        len.clamp(1, (mean * 8.0).ceil() as usize)
    }

    fn sample_categorical(&mut self, feature_salt: u64) -> u64 {
        // 80/20 reuse: most draws come from a per-feature hot set. The
        // hot/cold populations scale with the id regime (small enumerated
        // domain by default, production-cardinality entity spaces under
        // `with_hashed_ids`); either way exactly one `chance` and one
        // `next_below` are consumed, keeping the two regimes' RNG streams
        // aligned draw for draw.
        let (hot, cold) = if self.hashed_ids {
            (1_000_000, 1_000_000_000)
        } else {
            (1_000, 1_000_000)
        };
        let id = if self.rng.chance(0.8) {
            feature_salt * 1_000_003 + self.rng.next_below(hot)
        } else {
            feature_salt * 1_000_003 + self.rng.next_below(cold)
        };
        if self.hashed_ids {
            // SplitMix64 finalizer: widens the id to the full 64-bit hash
            // domain without consuming RNG state.
            let mut z = id.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        } else {
            id
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::RmProfile;
    use dsi_types::{FeatureDef, FeatureId};

    fn small_schema() -> Schema {
        let mut s = Schema::new();
        s.add(FeatureDef::dense(FeatureId(0)));
        s.add(FeatureDef::sparse(FeatureId(1), 10.0));
        s.add(FeatureDef::sparse(FeatureId(2), 5.0).with_coverage(0.5));
        s
    }

    /// Sessions in a sample stream: runs of consecutive samples whose
    /// sparse maps are bit-identical.
    fn session_runs(samples: &[Sample]) -> usize {
        let sigs: Vec<Vec<u8>> = samples.iter().map(dedup::sparse_signature).collect();
        usize::from(!sigs.is_empty()) + sigs.windows(2).filter(|w| w[0] != w[1]).count()
    }

    #[test]
    fn deterministic_for_seed() {
        let schema = small_schema();
        let a: Vec<_> = SampleGenerator::new(&schema, 42).take_samples(10);
        let b: Vec<_> = SampleGenerator::new(&schema, 42).take_samples(10);
        assert_eq!(a, b);
        let c: Vec<_> = SampleGenerator::new(&schema, 43).take_samples(10);
        assert_ne!(a, c);
    }

    #[test]
    fn coverage_respected() {
        let schema = small_schema();
        let mut g = SampleGenerator::new(&schema, 7);
        let n = 2000;
        let mut f2_present = 0;
        for _ in 0..n {
            let s = g.next_sample();
            assert!(s.dense(FeatureId(0)).is_some()); // full coverage
            if s.sparse(FeatureId(2)).is_some() {
                f2_present += 1;
            }
        }
        let frac = f2_present as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "coverage {frac}");
    }

    #[test]
    fn sparse_lengths_near_mean() {
        let schema = small_schema();
        let mut g = SampleGenerator::new(&schema, 9);
        let mut total = 0usize;
        let mut count = 0usize;
        for _ in 0..2000 {
            let s = g.next_sample();
            if let Some(l) = s.sparse(FeatureId(1)) {
                total += l.len();
                count += 1;
            }
        }
        let mean = total as f64 / count as f64;
        assert!((mean - 10.0).abs() < 1.5, "mean length {mean}");
    }

    #[test]
    fn positive_rate_controls_labels() {
        let schema = small_schema();
        let mut g = SampleGenerator::new(&schema, 1).with_positive_rate(0.3);
        let n = 3000;
        let pos = (0..n).filter(|_| g.next_sample().label() > 0.0).count();
        let frac = pos as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.05, "positive rate {frac}");
    }

    #[test]
    fn categorical_ids_repeat_across_samples() {
        let schema = small_schema();
        let mut g = SampleGenerator::new(&schema, 2);
        let mut seen = std::collections::HashSet::new();
        let mut repeats = 0;
        for _ in 0..500 {
            let s = g.next_sample();
            if let Some(l) = s.sparse(FeatureId(1)) {
                for &id in l.ids() {
                    if !seen.insert(id) {
                        repeats += 1;
                    }
                }
            }
        }
        assert!(repeats > 100, "expected id reuse, saw {repeats} repeats");
    }

    #[test]
    fn hashed_ids_widen_values_without_perturbing_shape() {
        let schema = small_schema();
        let plain: Vec<_> = SampleGenerator::new(&schema, 42).take_samples(200);
        let hashed: Vec<_> = SampleGenerator::new(&schema, 42)
            .with_hashed_ids()
            .take_samples(200);
        let mut wide = 0usize;
        let mut total = 0usize;
        for (p, h) in plain.iter().zip(&hashed) {
            // Equal RNG consumption: dense/label streams and the sparse
            // shape (features present, list lengths) are bit-identical;
            // only the id values change regime.
            assert_eq!(p.label(), h.label());
            assert_eq!(
                p.dense_iter().collect::<Vec<_>>(),
                h.dense_iter().collect::<Vec<_>>()
            );
            for ((pf, pl), (hf, hl)) in p.sparse_iter().zip(h.sparse_iter()) {
                assert_eq!(pf, hf);
                assert_eq!(pl.len(), hl.len());
                total += hl.len();
                wide += hl
                    .ids()
                    .iter()
                    .filter(|&&b| b > u64::from(u32::MAX))
                    .count();
            }
        }
        assert!(
            wide * 2 > total,
            "hashed ids should span the 64-bit domain ({wide}/{total} wide)"
        );
    }

    #[test]
    fn hashed_ids_compose_with_duplication() {
        let schema = small_schema();
        let cfg = DedupConfig::with_ratio(4.0);
        let samples = SampleGenerator::new(&schema, 7)
            .with_duplication(cfg)
            .with_hashed_ids()
            .take_samples(2000);
        let ratio = samples.len() as f64 / session_runs(&samples) as f64;
        assert!((3.0..=5.0).contains(&ratio), "observed ratio {ratio}");
    }

    #[test]
    fn duplication_preserves_dense_label_stream() {
        let schema = small_schema();
        let plain: Vec<_> = SampleGenerator::new(&schema, 42).take_samples(200);
        let duped: Vec<_> = SampleGenerator::new(&schema, 42)
            .with_duplication(DedupConfig::default())
            .take_samples(200);
        for (p, d) in plain.iter().zip(&duped) {
            assert_eq!(p.label(), d.label());
            assert_eq!(
                p.dense_iter().collect::<Vec<_>>(),
                d.dense_iter().collect::<Vec<_>>()
            );
        }
        assert_ne!(plain, duped, "sparse payloads should be sessionized");
    }

    #[test]
    fn duplication_hits_requested_ratio() {
        let schema = small_schema();
        let cfg = DedupConfig::with_ratio(4.0);
        let samples = SampleGenerator::new(&schema, 7)
            .with_duplication(cfg)
            .take_samples(4000);
        let ratio = samples.len() as f64 / session_runs(&samples) as f64;
        assert!((3.0..=5.0).contains(&ratio), "observed ratio {ratio}");
    }

    #[test]
    fn unit_ratio_degenerates_to_singletons() {
        let schema = small_schema();
        let cfg = DedupConfig::with_ratio(1.0);
        let samples = SampleGenerator::new(&schema, 7)
            .with_duplication(cfg)
            .take_samples(500);
        assert_eq!(samples.len(), 500);
        let runs = session_runs(&samples);
        assert!(runs > 490, "near-singleton sessions, got {runs}");
    }

    #[test]
    fn works_with_profile_schema() {
        let schema = RmProfile::rm3().build_schema(50);
        let mut g = SampleGenerator::new(&schema, 11);
        let s = g.next_sample();
        assert!(s.feature_count() > 10);
        assert_eq!(g.produced(), 1);
    }
}
