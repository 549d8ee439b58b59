//! RecD-style end-to-end deduplication for DLRM training data.
//!
//! DLRM training samples are highly duplicated: many samples within a user
//! session are generated from the same request burst and carry **identical
//! sparse-feature payloads**, differing only in their dense features and
//! labels. RecD (Zhao et al., 2022) exploits this end to end — store the
//! shared payload once, preprocess it once, and ship it once — for large
//! storage, preprocessing-throughput, and power wins.
//!
//! This crate is the layer-independent core of that subsystem:
//!
//! * [`DedupConfig`] — session window, set-size cap, and the synthetic
//!   duplication ratio, threaded from workload generation to the trainer;
//! * [`DedupSet`] / [`cluster_sessions`] — the ETL-side clustering of a
//!   sample stream into one canonical copy plus per-member deltas;
//! * [`apply_batch_dedup`] — a dedup-aware [`TransformPlan`] executor that
//!   transforms each set's canonical copy once and fans the results out to
//!   members, provably bit-identical to [`TransformPlan::apply_batch`];
//! * [`deduped_tensor_bytes`] / [`shared_row_refs`] — shared-tensor
//!   accounting for batches shipped to trainers.
//!
//! The storage-side encoding (canonical payload stored once per stripe,
//! per-row back-references) lives in the `dwrf` crate; this crate holds
//! everything the byte format does not need.
//!
//! # Transform reuse is dataflow-checked
//!
//! Not every op result can be shared across a set: `Bucketize` and `Onehot`
//! derive *sparse* outputs from *dense* inputs, and dense values differ per
//! member. [`apply_batch_dedup`] walks the plan tracking which features are
//! member-invariant: an op is computed once per set only when every feature
//! it reads is invariant at that point in the plan; everything else runs per
//! member. This makes reuse safe for arbitrary plans, not just sparse-only
//! ones.

#![warn(missing_docs)]

use dsi_types::{Batch, FeatureId, FeatureValue, MiniBatchTensor, Sample};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use transforms::plan::PlanCost;
use transforms::{TransformOp, TransformPlan};

/// Configuration for the deduplication subsystem, threaded through workload
/// generation (`synth`), ETL (`scribe`), storage (`dwrf`), and the DPP data
/// plane (`dpp`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DedupConfig {
    /// How many recently-seen canonical payloads a writer or clusterer
    /// keeps in its lookback window when matching new rows. Sessions are
    /// temporally local, so a small window captures nearly all duplication.
    pub session_window: usize,
    /// Maximum logical rows per DedupSet (bounds fan-out amplification and
    /// the blast radius of a corrupt canonical).
    pub max_set_size: usize,
    /// Target mean logical rows per canonical payload when *generating*
    /// synthetic workloads (`synth`); read paths ignore it.
    pub duplication_ratio: f64,
}

impl Default for DedupConfig {
    fn default() -> Self {
        Self {
            session_window: 64,
            max_set_size: 32,
            duplication_ratio: 4.0,
        }
    }
}

impl DedupConfig {
    /// A config generating roughly `ratio` duplicates per canonical.
    pub fn with_ratio(ratio: f64) -> Self {
        Self {
            duplication_ratio: ratio.max(1.0),
            ..Self::default()
        }
    }
}

/// A deterministic byte signature of a sample's sparse map. Two samples
/// share a signature iff their sparse maps are bit-identical (feature ids,
/// id lists, scored-ness, and score bits all included).
pub fn sparse_signature(s: &Sample) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + s.payload_bytes());
    for (fid, list) in s.sparse_iter() {
        buf.extend_from_slice(&fid.0.to_le_bytes());
        buf.extend_from_slice(&(list.len() as u64).to_le_bytes());
        buf.push(u8::from(list.is_scored()));
        for &id in list.ids() {
            buf.extend_from_slice(&id.to_le_bytes());
        }
        if let Some(scores) = list.scores() {
            for &sc in scores {
                buf.extend_from_slice(&sc.to_bits().to_le_bytes());
            }
        }
    }
    buf
}

/// One member's non-shared payload: its label and dense features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemberDelta {
    /// The member's label.
    pub label: f32,
    /// The member's dense features (sparse features come from the
    /// canonical copy).
    pub dense: Vec<(FeatureId, f32)>,
}

impl MemberDelta {
    fn of(s: &Sample) -> Self {
        Self {
            label: s.label(),
            dense: s.dense_iter().collect(),
        }
    }
}

/// A cluster of logical rows sharing one sparse payload: the canonical
/// sample (the set's first member, stored in full) plus per-member deltas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DedupSet {
    canonical: Sample,
    deltas: Vec<MemberDelta>,
}

impl DedupSet {
    /// A set holding a single sample (the degenerate no-duplication case).
    pub fn singleton(canonical: Sample) -> Self {
        Self {
            canonical,
            deltas: Vec::new(),
        }
    }

    /// The canonical sample (first member, full payload).
    pub fn canonical(&self) -> &Sample {
        &self.canonical
    }

    /// Number of logical rows in the set (canonical included).
    pub fn len(&self) -> usize {
        1 + self.deltas.len()
    }

    /// Whether the set is empty (never true: a set always has a canonical).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Bytes of sparse payload this set stores once instead of
    /// [`DedupSet::len`] times.
    pub fn shared_payload_bytes(&self) -> usize {
        self.canonical
            .sparse_iter()
            .map(|(_, l)| std::mem::size_of::<FeatureId>() + l.payload_bytes())
            .sum()
    }

    /// Expands the set back into its logical rows, in original order.
    pub fn expand(&self) -> Vec<Sample> {
        let mut out = Vec::with_capacity(self.len());
        out.push(self.canonical.clone());
        for d in &self.deltas {
            let mut s = Sample::new(d.label);
            for (fid, list) in self.canonical.sparse_iter() {
                s.set_sparse(fid, list.clone());
            }
            for &(fid, v) in &d.dense {
                s.set_dense(fid, v);
            }
            out.push(s);
        }
        out
    }
}

/// Aggregate statistics from one clustering pass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DedupStats {
    /// Logical rows clustered.
    pub rows: u64,
    /// DedupSets formed (canonical payloads kept).
    pub sets: u64,
    /// Sparse-payload bytes the sets avoid storing (duplicate copies).
    pub bytes_saved: u64,
}

impl DedupStats {
    /// Logical rows per canonical payload (1.0 = no duplication).
    pub fn ratio(&self) -> f64 {
        if self.sets == 0 {
            return 1.0;
        }
        self.rows as f64 / self.sets as f64
    }
}

/// Clusters a sample stream into session DedupSets.
///
/// Consecutive samples with bit-identical sparse maps join the open set
/// (user sessions are temporally local, so duplicates arrive back to back
/// out of the ETL join), capped at `max_set_size` rows per set. Expanding
/// the returned sets in order reproduces `samples` exactly.
pub fn cluster_sessions(samples: &[Sample], cfg: &DedupConfig) -> (Vec<DedupSet>, DedupStats) {
    let cap = cfg.max_set_size.max(1);
    let mut sets: Vec<DedupSet> = Vec::new();
    let mut stats = DedupStats::default();
    let mut open_sig: Option<Vec<u8>> = None;
    for s in samples {
        stats.rows += 1;
        let sig = sparse_signature(s);
        let joins = match (&open_sig, sets.last()) {
            (Some(prev), Some(open)) => *prev == sig && open.len() < cap,
            _ => false,
        };
        if joins {
            let open = sets.last_mut().expect("open set exists");
            stats.bytes_saved += open.shared_payload_bytes() as u64;
            open.deltas.push(MemberDelta::of(s));
        } else {
            sets.push(DedupSet::singleton(s.clone()));
            stats.sets += 1;
            open_sig = Some(sig);
        }
    }
    (sets, stats)
}

/// Expands a slice of sets back into the flat logical row stream.
pub fn expand_sets(sets: &[DedupSet]) -> Vec<Sample> {
    sets.iter().flat_map(DedupSet::expand).collect()
}

/// Execution statistics from one dedup-aware transform pass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DedupExecStats {
    /// Surviving rows transformed.
    pub rows: u64,
    /// DedupSets encountered (canonical transforms performed).
    pub sets: u64,
    /// Op applications skipped by fanning a canonical result out to a
    /// member (the transform-reuse hit counter).
    pub reuse_hits: u64,
}

/// Which ops of `plan` can be computed once per DedupSet whose canonical
/// carries exactly `shared` sparse features, and fanned out to members.
///
/// Walks the plan in order tracking the member-invariant feature set: an op
/// is cacheable iff it reads no dense feature and every sparse feature it
/// reads is invariant at that point. Cacheable ops keep (or make) their
/// output invariant; everything else knocks its output out of the set.
fn cacheable_mask(plan: &TransformPlan, shared: &BTreeSet<FeatureId>) -> Vec<bool> {
    let mut invariant = shared.clone();
    let mut mask = Vec::with_capacity(plan.len());
    for op in plan.ops() {
        if matches!(op, TransformOp::Sampling { .. }) {
            mask.push(false);
            continue;
        }
        let cacheable =
            !op.reads_dense() && op.sparse_inputs().iter().all(|f| invariant.contains(f));
        if let Some(out) = op.output_feature() {
            if cacheable {
                invariant.insert(out);
            } else {
                invariant.remove(&out);
            }
        }
        mask.push(cacheable);
    }
    mask
}

/// Applies `plan` to a batch the way [`TransformPlan::apply_batch`] does —
/// same sampling filter, same per-row dataset indexing, bit-identical
/// output — but transforms each DedupSet's canonical copy once and fans
/// cacheable op results out to the set's members.
///
/// Sets are detected on the fly (consecutive rows with identical sparse
/// maps, capped at `cfg.max_set_size`), so the executor needs no
/// out-of-band set boundaries and degrades gracefully to the plain path on
/// duplication-free data.
pub fn apply_batch_dedup(
    plan: &TransformPlan,
    batch: Batch,
    base_row: u64,
    cfg: &DedupConfig,
) -> (Batch, PlanCost, DedupExecStats) {
    let model = *plan.cost_model();
    let sampling: Vec<&TransformOp> = plan
        .ops()
        .iter()
        .filter(|o| matches!(o, TransformOp::Sampling { .. }))
        .collect();
    let mut out = Batch::new();
    let mut cost = PlanCost::default();
    let mut stats = DedupExecStats::default();
    let cap = cfg.max_set_size.max(1);

    // Open-set state: the canonical's pre-transform signature, the
    // per-op cacheability mask, and each cacheable op's post-op output.
    let mut open_sig: Option<Vec<u8>> = None;
    let mut mask: Vec<bool> = Vec::new();
    let mut cache: Vec<Option<FeatureValue>> = Vec::new();
    let mut set_len = 0usize;

    for (i, mut s) in batch.into_samples().into_iter().enumerate() {
        let row = base_row + i as u64;
        if !sampling.iter().all(|op| op.sample_survives(row)) {
            continue;
        }
        stats.rows += 1;
        let sig = sparse_signature(&s);
        let member = open_sig.as_ref() == Some(&sig) && set_len < cap;
        if member {
            set_len += 1;
            for (k, op) in plan.ops().iter().enumerate() {
                // Cached ops fan the canonical result out — a memcpy, not a
                // recompute; charge only the bytes moved. A cacheable op that
                // produced no value (inputs absent) behaves identically on
                // every member, so falling through to a normal apply stays
                // bit-identical to the plain path.
                if mask[k] {
                    if let Some(v) = &cache[k] {
                        let outf = op.output_feature().expect("cacheable ops write a feature");
                        s.set_feature(outf, v.clone());
                        stats.reuse_hits += 1;
                        cost.membw_bytes += v.payload_bytes() as f64;
                        continue;
                    }
                }
                cost.charge(&model, op, op.elements_touched(&s));
                op.apply(&mut s);
            }
        } else {
            stats.sets += 1;
            set_len = 1;
            let shared: BTreeSet<FeatureId> = s.sparse_iter().map(|(fid, _)| fid).collect();
            mask = cacheable_mask(plan, &shared);
            cache.clear();
            for (k, op) in plan.ops().iter().enumerate() {
                cost.charge(&model, op, op.elements_touched(&s));
                op.apply(&mut s);
                cache.push(if mask[k] {
                    op.output_feature().and_then(|f| s.feature(f))
                } else {
                    None
                });
            }
            open_sig = Some(sig);
        }
        out.push(s);
    }
    (out, cost, stats)
}

/// Per-row back-references for a materialized batch: `refs[r]` is the first
/// row whose sparse tensors row `r` duplicates (`refs[r] == r` for
/// canonical rows). Consecutive rows only — matching the session clustering
/// the rest of the subsystem uses.
pub fn shared_row_refs(tensor: &MiniBatchTensor) -> Vec<u32> {
    let rows = tensor.batch_size();
    let mut refs = Vec::with_capacity(rows);
    for r in 0..rows {
        let dup_of_prev = r > 0
            && tensor.sparse.iter().all(|t| {
                t.row(r) == t.row(r - 1)
                    && t.scores().map(|s| {
                        let (a, b) = (t.offsets()[r] as usize, t.offsets()[r + 1] as usize);
                        let (pa, pb) = (t.offsets()[r - 1] as usize, t.offsets()[r] as usize);
                        s[a..b].iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                            == s[pa..pb].iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                    }) != Some(false)
            });
        if dup_of_prev {
            refs.push(refs[r - 1]);
        } else {
            refs.push(r as u32);
        }
    }
    refs
}

/// Payload bytes of a batch when shared sparse rows are shipped as
/// references instead of copies: canonical rows carry their values once;
/// duplicate rows cost one 4-byte reference per sparse tensor.
pub fn deduped_tensor_bytes(tensor: &MiniBatchTensor, refs: &[u32]) -> usize {
    let mut bytes = tensor.dense.payload_bytes() + tensor.labels.len() * std::mem::size_of::<f32>();
    for t in &tensor.sparse {
        bytes += t.offsets().len() * 4;
        for (r, &rf) in refs.iter().enumerate() {
            if rf as usize == r {
                let (a, b) = (t.offsets()[r] as usize, t.offsets()[r + 1] as usize);
                bytes += (b - a) * 8 + t.scores().map_or(0, |_| (b - a) * 4);
            } else {
                bytes += 4;
            }
        }
    }
    bytes
}

/// Checks the executor against the plain path on the same inputs — the
/// correctness invariant the integration tests assert end to end.
#[doc(hidden)]
pub fn matches_plain_apply(plan: &TransformPlan, batch: &Batch, base_row: u64) -> bool {
    let (plain, _) = plan.apply_batch(batch.clone(), base_row);
    let (deduped, _, _) = apply_batch_dedup(plan, batch.clone(), base_row, &DedupConfig::default());
    plain == deduped
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::{Projection, SparseList};

    fn sessionized(sets: &[(u64, usize)]) -> Vec<Sample> {
        // Each (salt, n) becomes n samples sharing a sparse payload derived
        // from salt, with distinct dense values and labels.
        let mut out = Vec::new();
        for &(salt, n) in sets {
            for m in 0..n {
                let mut s = Sample::new(m as f32);
                s.set_dense(FeatureId(1), salt as f32 + m as f32 * 0.25);
                s.set_dense(FeatureId(2), 0.25 + m as f32 * 0.01);
                s.set_sparse(
                    FeatureId(10),
                    SparseList::from_ids(vec![salt, salt * 3 + 1, salt + 7]),
                );
                s.set_sparse(
                    FeatureId(11),
                    SparseList::from_scored(vec![salt + 2, salt + 5], vec![0.5, 1.5]),
                );
                out.push(s);
            }
        }
        out
    }

    fn plan() -> TransformPlan {
        let sparse = vec![FeatureId(10), FeatureId(11)];
        let dense = vec![FeatureId(1), FeatureId(2)];
        let proj = Projection::new(vec![
            FeatureId(1),
            FeatureId(2),
            FeatureId(10),
            FeatureId(11),
        ]);
        TransformPlan::preset(&proj, &sparse, &dense, 0.8, 100_000)
    }

    #[test]
    fn cluster_then_expand_is_identity() {
        let samples = sessionized(&[(3, 4), (9, 1), (12, 6), (3, 2)]);
        let (sets, stats) = cluster_sessions(&samples, &DedupConfig::default());
        assert_eq!(stats.rows, 13);
        assert_eq!(stats.sets, 4);
        assert!(stats.bytes_saved > 0);
        assert!(stats.ratio() > 3.0);
        assert_eq!(expand_sets(&sets), samples);
    }

    #[test]
    fn set_size_cap_splits_long_sessions() {
        let samples = sessionized(&[(5, 10)]);
        let cfg = DedupConfig {
            max_set_size: 4,
            ..Default::default()
        };
        let (sets, stats) = cluster_sessions(&samples, &cfg);
        assert_eq!(stats.sets, 3); // 4 + 4 + 2
        assert!(sets.iter().all(|s| s.len() <= 4));
        assert_eq!(expand_sets(&sets), samples);
    }

    #[test]
    fn no_duplication_degenerates_to_singletons() {
        let samples = sessionized(&[(1, 1), (2, 1), (3, 1)]);
        let (sets, stats) = cluster_sessions(&samples, &DedupConfig::default());
        assert_eq!(stats.sets, 3);
        assert_eq!(stats.bytes_saved, 0);
        assert!((stats.ratio() - 1.0).abs() < 1e-9);
        assert_eq!(expand_sets(&sets), samples);
    }

    #[test]
    fn dedup_executor_is_bit_identical_to_plain() {
        let plan = plan();
        let batch = Batch::from_samples(sessionized(&[(3, 5), (9, 1), (12, 8), (4, 3)]));
        assert!(matches_plain_apply(&plan, &batch, 0));
        assert!(matches_plain_apply(&plan, &batch, 7_000_000));
    }

    #[test]
    fn dedup_executor_identical_with_sampling_filter() {
        let mut ops = plan().ops().to_vec();
        ops.push(TransformOp::Sampling { rate: 0.6, seed: 9 });
        let plan = TransformPlan::new(ops);
        let batch = Batch::from_samples(sessionized(&[(1, 6), (2, 6), (3, 6)]));
        assert!(matches_plain_apply(&plan, &batch, 0));
        assert!(matches_plain_apply(&plan, &batch, 1_000_000));
    }

    #[test]
    fn dense_derived_features_never_reused() {
        // Bucketize reads a member-varying dense feature: its output (and
        // the normalizations chained after it) must run per member.
        let plan = TransformPlan::new(vec![
            TransformOp::Bucketize {
                input: FeatureId(1),
                borders: (0..32).map(|b| f64::from(b) * 0.25).collect(),
                output: FeatureId(50),
            },
            TransformOp::SigridHash {
                input: FeatureId(50),
                salt: 1,
                modulus: 1000,
            },
        ]);
        let batch = Batch::from_samples(sessionized(&[(3, 4)]));
        let (out, _, stats) = apply_batch_dedup(&plan, batch.clone(), 0, &DedupConfig::default());
        assert_eq!(stats.reuse_hits, 0, "dense-derived ops must not be cached");
        let (plain, _) = plan.apply_batch(batch, 0);
        assert_eq!(out, plain);
        // Members landed in different buckets despite shared sparse maps.
        let buckets: BTreeSet<u64> = out
            .samples()
            .iter()
            .map(|s| s.sparse(FeatureId(50)).unwrap().ids()[0])
            .collect();
        assert!(buckets.len() > 1);
    }

    #[test]
    fn reuse_cuts_cycles_on_duplicated_batches() {
        let plan = plan();
        let dup = Batch::from_samples(sessionized(&[(3, 8), (9, 8)]));
        let uniq = Batch::from_samples(sessionized(
            &(0..16).map(|i| (100 + i, 1)).collect::<Vec<_>>(),
        ));
        let (_, dup_cost, dup_stats) = apply_batch_dedup(&plan, dup, 0, &DedupConfig::default());
        let (_, uniq_cost, uniq_stats) = apply_batch_dedup(&plan, uniq, 0, &DedupConfig::default());
        assert!(dup_stats.reuse_hits > 0);
        assert_eq!(uniq_stats.reuse_hits, 0);
        assert_eq!(dup_stats.sets, 2);
        assert!(
            dup_cost.cycles < uniq_cost.cycles * 0.6,
            "dedup cycles {} vs unique {}",
            dup_cost.cycles,
            uniq_cost.cycles
        );
    }

    #[test]
    fn shared_row_refs_and_byte_accounting() {
        let plan = TransformPlan::empty();
        let batch = Batch::from_samples(sessionized(&[(3, 4), (9, 2)]));
        let (out, _, _) = apply_batch_dedup(&plan, batch, 0, &DedupConfig::default());
        let tensor = out.materialize(
            &[FeatureId(1), FeatureId(2)],
            &[FeatureId(10), FeatureId(11)],
        );
        let refs = shared_row_refs(&tensor);
        assert_eq!(refs, vec![0, 0, 0, 0, 4, 4]);
        let deduped = deduped_tensor_bytes(&tensor, &refs);
        assert!(deduped < tensor.payload_bytes());
        // Unique rows gain nothing.
        let solo_refs: Vec<u32> = (0..tensor.batch_size() as u32).collect();
        assert_eq!(
            deduped_tensor_bytes(&tensor, &solo_refs),
            tensor.payload_bytes()
        );
    }
}
