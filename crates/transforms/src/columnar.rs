//! Columnar (flatmap) transform execution over materialized tensors.
//!
//! §VII: DWRF and tensor formats both represent feature values contiguously
//! across rows, so DPP Workers adopted in-memory flatmaps to avoid format
//! conversions; the TorchArrow/Velox efforts push further toward vectorized
//! columnar execution. This module is that execution path: every Table-XI
//! op except `Sampling` runs over [`MiniBatchTensor`] columns, one pass per
//! op per batch, with tensors and cycle accounting identical to the
//! per-sample row path ([`TransformOp::apply`], which stays as the
//! reference the property tests compare against).
//!
//! Normalization ops rewrite a column in place. Feature *generation* ops
//! (NGram, Cartesian, IdListTransform, Bucketize, Onehot) read CSR or dense
//! columns and build a new CSR column in one pass with one allocation,
//! already truncated to the `FirstX` that follows them. `Sampling` is a
//! batch-level row filter and is all that [`ColumnarPlan::split_plan`]
//! leaves on the row path.

use crate::cost::OpCost;
use crate::op::TransformOp;
use crate::plan::{PlanCost, TransformPlan};
use dsi_types::rng::mix2;
use dsi_types::{DenseMatrix, FeatureId, MiniBatchTensor, Sample, SparseTensor};
use std::collections::BTreeMap;

/// Kernel names for per-op timing attribution, indexed by
/// [`ColumnarPlan::kernel_slot`].
pub const COLUMNAR_KERNELS: [&str; 15] = [
    "sigrid_hash",
    "positive_modulus",
    "first_x",
    "compute_score",
    "clamp",
    "logit",
    "box_cox",
    "get_local_hour",
    "ngram",
    "cartesian",
    "id_list_transform",
    "bucketize",
    "onehot",
    "enumerate",
    "map_id",
];

/// Per-batch execution context captured from the samples before
/// materialization: what a tensor cannot say about the rows it was built
/// from. The row path skips a sample that lacks an op's input, so exact
/// columnar replay needs per-row presence and scored masks, the true
/// lengths of columns that materialize already truncated, and the values
/// of columns the session does not materialize but an op reads.
#[derive(Debug, Clone, Default)]
pub struct ColumnarCtx {
    /// Per dense input feature: `(present mask, present count)`.
    dense_present: BTreeMap<FeatureId, (Vec<bool>, u64)>,
    /// Per sparse feature a generator reads: rows that carry the feature.
    /// An absent list and an empty one materialize alike, but a generator
    /// writes an (empty) output for the second only.
    sparse_present: BTreeMap<FeatureId, Vec<bool>>,
    /// Per feature whose scores an op can touch or drop, when any row has
    /// them: rows whose list carries scores (the rest of a scored column
    /// is unit backfill that `ComputeScore` must leave alone).
    scored_rows: BTreeMap<FeatureId, Vec<bool>>,
    /// Per capped sparse feature: per-row lengths as the row path sees
    /// them. The column is born truncated, the row path charges every op
    /// before the `FirstX` the full length.
    shadow_lens: BTreeMap<FeatureId, Vec<u32>>,
    /// Scratch columns — features an op reads that the session leaves out
    /// of its tensors, materialized by the same code (and caps) as the
    /// tensor's own: the dense matrix's column order,
    scratch_dense_ids: Vec<FeatureId>,
    /// the dense matrix (generators' inputs only: a normalizer nothing
    /// reads after is charged, not run),
    scratch_dense: DenseMatrix,
    /// and one CSR column per sparse feature.
    scratch_sparse: Vec<SparseTensor>,
}

/// Result of a costed columnar application.
#[derive(Debug, Clone, Default)]
pub struct ColumnarApply {
    /// Cycle accounting, identical in shape to the row path's.
    pub cost: PlanCost,
    /// Wall nanoseconds per kernel, indexed like [`COLUMNAR_KERNELS`].
    pub kernel_nanos: [u64; COLUMNAR_KERNELS.len()],
}

/// What [`ColumnarPlan::capture_ctx`] records for one sparse feature.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SparseWant {
    feature: FeatureId,
    /// Materialization cap (`usize::MAX` = none).
    cap: usize,
    /// Some op reads the feature, so it needs a column: the tensor's, or
    /// a scratch one. (A generator output nothing reads needs neither.)
    read: bool,
    /// A generator reads it: presence decides the rows that get written.
    generator_input: bool,
    /// `ComputeScore` or `MapId` input, or a generator's output.
    scored: bool,
}

/// A transform plan compiled for columnar execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarPlan {
    ops: Vec<TransformOp>,
    /// Per op: the cap a generator's output is born with (`usize::MAX` for
    /// none, and for every other op).
    born_caps: Vec<usize>,
    /// Per feature: the cap its stored values materialize with.
    caps: BTreeMap<FeatureId, usize>,
    /// Dense features some op reads, ascending, and whether a generator is
    /// among the readers (then the values are needed, not just presence).
    dense_wants: Vec<(FeatureId, bool)>,
    /// Sparse features some op touches, ascending.
    sparse_wants: Vec<SparseWant>,
}

/// The dense feature an op reads, if any.
fn dense_input(op: &TransformOp) -> Option<FeatureId> {
    match op {
        TransformOp::Bucketize { input, .. }
        | TransformOp::Onehot { input, .. }
        | TransformOp::BoxCox { input, .. }
        | TransformOp::Logit { input }
        | TransformOp::GetLocalHour { input, .. }
        | TransformOp::Clamp { input, .. } => Some(*input),
        _ => None,
    }
}

/// Hoists every `FirstX` as far up the plan as prefix truncation commutes:
/// across the per-element ops, not across an op that reads the feature to
/// build another, rewrites it, or (`MapId`) drops ids from it. Returns the
/// caps that reach the start of the plan (stored values materialize with
/// them) and, per op, the cap that reaches a generator (its output is born
/// with it). One reverse pass; `pending` holds each feature's smallest `x`
/// since the last barrier.
fn hoist_caps(ops: &[TransformOp]) -> (BTreeMap<FeatureId, usize>, Vec<usize>) {
    let mut pending: BTreeMap<FeatureId, usize> = BTreeMap::new();
    let mut born = vec![usize::MAX; ops.len()];
    for (i, op) in ops.iter().enumerate().rev() {
        match op {
            TransformOp::FirstX { input, x } => {
                let cap = pending.entry(*input).or_insert(*x);
                *cap = (*cap).min(*x);
            }
            TransformOp::MapId { input, .. } => {
                pending.remove(input);
            }
            _ if op.derives_feature() => {
                let output = op.output_feature().expect("generators have an output");
                born[i] = pending.remove(&output).unwrap_or(usize::MAX);
                for f in op.sparse_inputs() {
                    pending.remove(&f);
                }
            }
            _ => {}
        }
    }
    (pending, born)
}

impl ColumnarPlan {
    fn new(ops: Vec<TransformOp>) -> Self {
        let (caps, born_caps) = hoist_caps(&ops);
        let mut sparse: BTreeMap<FeatureId, SparseWant> = BTreeMap::new();
        let mut dense: BTreeMap<FeatureId, bool> = BTreeMap::new();
        let mut want = |feature: FeatureId, read: bool, generator_input: bool, scored: bool| {
            let w = sparse.entry(feature).or_insert(SparseWant {
                feature,
                cap: caps.get(&feature).copied().unwrap_or(usize::MAX),
                read: false,
                generator_input: false,
                scored: false,
            });
            w.read |= read;
            w.generator_input |= generator_input;
            w.scored |= scored;
        };
        for op in &ops {
            let generator = op.derives_feature();
            let touches_scores = matches!(
                op,
                TransformOp::ComputeScore { .. } | TransformOp::MapId { .. }
            );
            for f in op.sparse_inputs() {
                want(f, true, generator, touches_scores);
            }
            if generator {
                let output = op.output_feature().expect("generators have an output");
                want(output, false, false, true);
            }
            if let Some(f) = dense_input(op) {
                *dense.entry(f).or_default() |= generator;
            }
        }
        ColumnarPlan {
            ops,
            born_caps,
            caps,
            dense_wants: dense.into_iter().collect(),
            sparse_wants: sparse.into_values().collect(),
        }
    }

    /// An empty plan (sessions that route everything through the row path).
    pub fn empty() -> Self {
        Self::new(Vec::new())
    }

    /// Whether an op can run columnar: everything but `Sampling`, which
    /// removes rows and so acts on the batch before it is a tensor.
    pub fn supports(op: &TransformOp) -> bool {
        !matches!(op, TransformOp::Sampling { .. })
    }

    /// Splits a plan into a row-path residue and a columnar plan such that
    /// applying the residue (per sample) and then the columnar plan (per
    /// tensor) is exactly equivalent to the original plan. The residue is
    /// the plan's `Sampling` ops — `TransformPlan::apply_batch` filters by
    /// them before any other op runs, wherever they stand — and the
    /// columnar plan is every other op in plan order.
    pub fn split_plan(plan: &TransformPlan) -> (TransformPlan, ColumnarPlan) {
        let (col, row): (Vec<_>, Vec<_>) = plan.ops().iter().cloned().partition(Self::supports);
        (TransformPlan::new(row), Self::new(col))
    }

    /// The plan's materialization caps aligned to a session's `sparse_ids`
    /// (`usize::MAX` = uncapped), ready to hand to
    /// `Batch::materialize_capped`: per feature, the smallest `x` of the
    /// `FirstX` ops that precede every op reading the feature to build
    /// another, writing it, or `MapId`-ing it. Returns an empty vec when
    /// nothing is capped so the uncapped path stays allocation-free.
    ///
    /// Prefix truncation commutes with the per-element kernels between
    /// materialization and such a `FirstX`, so materialization may drop the
    /// capped-away tail up front — the flat-buffer passes then touch only
    /// surviving bytes. Cost accounting stays row-path-exact via the true
    /// lengths captured in [`ColumnarCtx`].
    pub fn sparse_caps(&self, sparse_ids: &[FeatureId]) -> Vec<usize> {
        if sparse_ids.iter().any(|f| self.caps.contains_key(f)) {
            sparse_ids
                .iter()
                .map(|f| self.caps.get(f).copied().unwrap_or(usize::MAX))
                .collect()
        } else {
            Vec::new()
        }
    }

    /// The plan's ops.
    pub fn ops(&self) -> &[TransformOp] {
        &self.ops
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Timing slot of an op in [`COLUMNAR_KERNELS`].
    pub fn kernel_slot(op: &TransformOp) -> usize {
        match op {
            TransformOp::SigridHash { .. } => 0,
            TransformOp::PositiveModulus { .. } => 1,
            TransformOp::FirstX { .. } => 2,
            TransformOp::ComputeScore { .. } => 3,
            TransformOp::Clamp { .. } => 4,
            TransformOp::Logit { .. } => 5,
            TransformOp::BoxCox { .. } => 6,
            TransformOp::GetLocalHour { .. } => 7,
            TransformOp::NGram { .. } => 8,
            TransformOp::Cartesian { .. } => 9,
            TransformOp::IdListTransform { .. } => 10,
            TransformOp::Bucketize { .. } => 11,
            TransformOp::Onehot { .. } => 12,
            TransformOp::Enumerate { .. } => 13,
            TransformOp::MapId { .. } => 14,
            TransformOp::Sampling { .. } => unreachable!("Sampling stays on the row path"),
        }
    }

    /// Captures what this plan needs from the batch that is about to
    /// materialize. `samples` must be the post-row-path samples (the exact
    /// rows `Batch::materialize` will see); `dense_ids` / `sparse_ids` are
    /// the session's materialization lists.
    pub fn capture_ctx(
        &self,
        samples: &[Sample],
        dense_ids: &[FeatureId],
        sparse_ids: &[FeatureId],
    ) -> ColumnarCtx {
        let rows = samples.len();
        // A table per want, left empty where the want does not ask for it.
        let sized = |wanted: bool| if wanted { rows } else { 0 };
        let mut dense_masks: Vec<(Vec<bool>, u64)> = self
            .dense_wants
            .iter()
            .map(|_| (vec![false; rows], 0))
            .collect();
        let mut lens: Vec<Vec<u32>> = self
            .sparse_wants
            .iter()
            .map(|w| vec![0; sized(w.cap != usize::MAX)])
            .collect();
        let mut present: Vec<Vec<bool>> = self
            .sparse_wants
            .iter()
            .map(|w| vec![false; sized(w.generator_input)])
            .collect();
        // Allocated on the first scored row: most columns have none.
        let mut scored: Vec<Vec<bool>> = vec![Vec::new(); self.sparse_wants.len()];
        // Every mask fills in ONE id-ordered merge-join pass over the
        // samples (their feature maps iterate in id order); per-feature
        // `s.dense(f)` / `s.sparse(f)` probes would pay one search per
        // sample per feature.
        for (r, s) in samples.iter().enumerate() {
            let mut cols = self.dense_wants.iter().enumerate().peekable();
            for (id, _) in s.dense_iter() {
                while cols.next_if(|&(_, &(f, _))| f < id).is_some() {}
                if let Some((i, _)) = cols.next_if(|&(_, &(f, _))| f == id) {
                    dense_masks[i].0[r] = true;
                    dense_masks[i].1 += 1;
                }
            }
            let mut wants = self.sparse_wants.iter().enumerate().peekable();
            for (id, list) in s.sparse_iter() {
                while wants.next_if(|&(_, w)| w.feature < id).is_some() {}
                if let Some((i, w)) = wants.next_if(|&(_, w)| w.feature == id) {
                    if w.cap != usize::MAX {
                        lens[i][r] = list.len() as u32;
                    }
                    if w.generator_input {
                        present[i][r] = true;
                    }
                    if w.scored && list.scores().is_some() {
                        if scored[i].is_empty() {
                            scored[i] = vec![false; rows];
                        }
                        scored[i][r] = true;
                    }
                }
            }
        }

        let mut ctx = ColumnarCtx::default();
        for (&(f, _), mask) in self.dense_wants.iter().zip(dense_masks) {
            ctx.dense_present.insert(f, mask);
        }
        for (i, w) in self.sparse_wants.iter().enumerate() {
            if w.cap != usize::MAX {
                ctx.shadow_lens
                    .insert(w.feature, std::mem::take(&mut lens[i]));
            }
            if w.generator_input {
                ctx.sparse_present
                    .insert(w.feature, std::mem::take(&mut present[i]));
            }
            if !scored[i].is_empty() {
                ctx.scored_rows
                    .insert(w.feature, std::mem::take(&mut scored[i]));
            }
        }

        ctx.scratch_dense_ids = self
            .dense_wants
            .iter()
            .filter(|(f, values)| *values && !dense_ids.contains(f))
            .map(|&(f, _)| f)
            .collect();
        let (scratch_ids, scratch_caps): (Vec<FeatureId>, Vec<usize>) = self
            .sparse_wants
            .iter()
            .filter(|w| w.read && !sparse_ids.contains(&w.feature))
            .map(|w| (w.feature, w.cap))
            .unzip();
        if !(ctx.scratch_dense_ids.is_empty() && scratch_ids.is_empty()) {
            let scratch = MiniBatchTensor::from_samples(
                samples,
                &ctx.scratch_dense_ids,
                &scratch_ids,
                &scratch_caps,
            );
            ctx.scratch_dense = scratch.dense;
            ctx.scratch_sparse = scratch.sparse;
        }
        ctx
    }

    /// Applies the plan to a materialized mini-batch with row-path-exact
    /// masking and cycle accounting. Sparse ops run as single passes over
    /// the flat CSR buffers; dense ops run over contiguous column slices
    /// (whole-column when every row carries the feature, masked
    /// otherwise); generators build their output column in one pass.
    /// Returns the accumulated [`PlanCost`] — elements counted exactly as
    /// the row path counts them — plus wall time per kernel.
    pub fn apply_with_cost(
        &self,
        tensor: &mut MiniBatchTensor,
        dense_ids: &[FeatureId],
        ctx: &ColumnarCtx,
        cost_model: &OpCost,
    ) -> ColumnarApply {
        // The masks and true lengths evolve as ops apply (FirstX truncates,
        // generators write rows), exactly as the row path's samples would;
        // the caller's context stays as captured.
        let mut columns = Columns {
            tensor,
            dense_ids,
            ctx: ctx.clone(),
        };
        let mut out = ColumnarApply::default();
        for (op, &born_cap) in self.ops.iter().zip(&self.born_caps) {
            let start = std::time::Instant::now();
            let elements = columns.run(op, born_cap);
            out.kernel_nanos[Self::kernel_slot(op)] += start.elapsed().as_nanos() as u64;
            out.cost.charge(cost_model, op, elements);
        }
        out
    }
}

/// The columns one [`ColumnarPlan::apply_with_cost`] call works on: the
/// session's tensor and a working copy of the context (its scratch columns
/// and the per-row state that changes as ops apply).
struct Columns<'a> {
    tensor: &'a mut MiniBatchTensor,
    dense_ids: &'a [FeatureId],
    ctx: ColumnarCtx,
}

fn find_mut<'t>(
    tensor: &'t mut [SparseTensor],
    scratch: &'t mut [SparseTensor],
    f: FeatureId,
) -> Option<&'t mut SparseTensor> {
    tensor.iter_mut().chain(scratch).find(|t| t.feature() == f)
}

/// Where a dense feature's column is: `(in the scratch matrix, index)`.
fn dense_slot(
    dense_ids: &[FeatureId],
    scratch_ids: &[FeatureId],
    f: FeatureId,
) -> Option<(bool, usize)> {
    let at = |ids: &[FeatureId]| ids.iter().position(|&d| d == f);
    at(dense_ids)
        .map(|c| (false, c))
        .or_else(|| at(scratch_ids).map(|c| (true, c)))
}

fn row_lens(t: &SparseTensor) -> impl Iterator<Item = u64> + '_ {
    t.offsets().windows(2).map(|w| u64::from(w[1] - w[0]))
}

impl Columns<'_> {
    /// Applies one op, returning the elements it touched *before* it
    /// applied, as `TransformOp::elements_touched` counts them per row.
    fn run(&mut self, op: &TransformOp, born_cap: usize) -> u64 {
        match op {
            TransformOp::SigridHash {
                input,
                salt,
                modulus,
            } => self.in_place(*input, |t, _| {
                t.map_values_in_place(|v| mix2(*salt, v) % modulus)
            }),
            TransformOp::PositiveModulus { input, modulus } => {
                self.in_place(*input, |t, _| t.map_values_in_place(|v| v % modulus))
            }
            TransformOp::Enumerate { input } => self.in_place(*input, |t, _| {
                let (offsets, values) = t.rows_mut();
                for w in offsets.windows(2) {
                    let row = &mut values[w[0] as usize..w[1] as usize];
                    for (i, v) in row.iter_mut().enumerate() {
                        *v = mix2(i as u64, *v);
                    }
                }
            }),
            TransformOp::FirstX { input, x } => {
                // No-op on a column born at or below x; still truncates
                // when a smaller FirstX follows a barrier.
                let elements = self.in_place(*input, |t, _| t.truncate_rows(*x));
                if let Some(lens) = self.ctx.shadow_lens.get_mut(input) {
                    let cap = (*x).min(u32::MAX as usize) as u32;
                    for l in lens.iter_mut() {
                        *l = (*l).min(cap);
                    }
                }
                elements
            }
            TransformOp::ComputeScore {
                input,
                scale,
                offset,
            } => self.in_place(*input, |t, scored| {
                t.map_scores_rows_in_place(scored, |s| s * scale + offset)
            }),
            TransformOp::MapId {
                input,
                mapping,
                default,
            } => {
                let elements = self.in_place(*input, |t, scored| {
                    t.filter_map_values(|v| mapping.get(&v).copied().or(*default), scored)
                });
                // No FirstX hoists across MapId: from here the column's
                // own lengths are the true ones.
                self.ctx.shadow_lens.remove(input);
                elements
            }
            TransformOp::Clamp { input, min, max } => {
                self.dense_apply(*input, |v| v.clamp(*min, *max))
            }
            TransformOp::Logit { input } => self.dense_apply(*input, |v| {
                let p = (v as f64).clamp(1e-6, 1.0 - 1e-6);
                (p / (1.0 - p)).ln() as f32
            }),
            TransformOp::BoxCox { input, lambda } => self.dense_apply(*input, |v| {
                let x = (v as f64).max(1e-9);
                if lambda.abs() < 1e-12 {
                    x.ln() as f32
                } else {
                    ((x.powf(*lambda) - 1.0) / lambda) as f32
                }
            }),
            TransformOp::GetLocalHour {
                input,
                tz_offset_secs,
            } => {
                let tz = *tz_offset_secs as i64;
                self.dense_apply(*input, |v| {
                    ((v as i64 + tz).rem_euclid(86_400) / 3_600) as f32
                })
            }
            TransformOp::NGram { input, n, output } => {
                let Some(col) = self.sparse(*input) else {
                    return 0;
                };
                let n64 = *n as u64;
                let elements = row_lens(col).map(|l| l.saturating_sub(n64 - 1) * n64).sum();
                if self.sparse(*output).is_some() {
                    let fresh = ngram(col, *n, born_cap);
                    self.install(*output, fresh, self.written(&[*input]), born_cap);
                }
                elements
            }
            TransformOp::Cartesian { a, b, output } => {
                let (Some(ca), Some(cb)) = (self.sparse(*a), self.sparse(*b)) else {
                    return 0;
                };
                let elements = row_lens(ca).zip(row_lens(cb)).map(|(la, lb)| la * lb).sum();
                if self.sparse(*output).is_some() {
                    let fresh = cartesian(ca, cb, born_cap);
                    self.install(*output, fresh, self.written(&[*a, *b]), born_cap);
                }
                elements
            }
            TransformOp::IdListTransform { a, b, output } => {
                let (Some(ca), Some(cb)) = (self.sparse(*a), self.sparse(*b)) else {
                    return 0;
                };
                // Charged per list, whether or not the other is present.
                let elements = (ca.nnz() + cb.nnz()) as u64;
                if self.sparse(*output).is_some() {
                    let fresh = intersect(ca, cb, born_cap);
                    self.install(*output, fresh, self.written(&[*a, *b]), born_cap);
                }
                elements
            }
            TransformOp::Bucketize {
                input,
                borders,
                output,
            } => {
                let search_steps = (borders.len() as f64).log2().ceil().max(1.0) as u64;
                self.generate_from_dense(*input, *output, born_cap, search_steps, |v| {
                    borders.partition_point(|&b| b <= v as f64) as u64
                })
            }
            TransformOp::Onehot {
                input,
                num_classes,
                output,
            } => {
                let last = u64::from(*num_classes) - 1;
                self.generate_from_dense(*input, *output, born_cap, 1, |v| {
                    (v.max(0.0) as u64).min(last)
                })
            }
            TransformOp::Sampling { .. } => unreachable!("Sampling stays on the row path"),
        }
    }

    fn sparse(&self, f: FeatureId) -> Option<&SparseTensor> {
        let mut columns = self.tensor.sparse.iter().chain(&self.ctx.scratch_sparse);
        columns.find(|t| t.feature() == f)
    }

    /// Runs an in-place kernel over a sparse column (handing it the rows
    /// that came from scored lists) and returns what the row path charges
    /// for it: the true lengths when the column is capped, its own
    /// otherwise.
    fn in_place(&mut self, f: FeatureId, kernel: impl FnOnce(&mut SparseTensor, &[bool])) -> u64 {
        let elements = match self.ctx.shadow_lens.get(&f) {
            Some(lens) => lens.iter().map(|&l| u64::from(l)).sum(),
            None => self.sparse(f).map_or(0, |t| t.nnz() as u64),
        };
        if let Some(t) = find_mut(&mut self.tensor.sparse, &mut self.ctx.scratch_sparse, f) {
            kernel(
                t,
                self.ctx.scored_rows.get(&f).map_or(&[][..], Vec::as_slice),
            );
        }
        elements
    }

    /// Masked dense-column application: whole-column pass when every row
    /// carries the feature, per-row mask otherwise, skipped (cost still
    /// charged) when the column is neither materialized nor scratch.
    /// Returns elements touched (present-row count, exactly the row path's
    /// sum).
    fn dense_apply<F: FnMut(f32) -> f32>(&mut self, f: FeatureId, kernel: F) -> u64 {
        let Some((mask, count)) = self.ctx.dense_present.get(&f) else {
            return 0;
        };
        if let Some((scratch, c)) = dense_slot(self.dense_ids, &self.ctx.scratch_dense_ids, f) {
            let matrix = if scratch {
                &mut self.ctx.scratch_dense
            } else {
                &mut self.tensor.dense
            };
            if *count as usize == mask.len() {
                matrix.map_col_in_place(c, kernel);
            } else {
                matrix.map_col_rows_in_place(c, mask, kernel);
            }
        }
        *count
    }

    /// `Bucketize` / `Onehot`: one id per row that carries the dense input,
    /// charged `per_row` elements each.
    fn generate_from_dense(
        &mut self,
        input: FeatureId,
        output: FeatureId,
        born_cap: usize,
        per_row: u64,
        id_of: impl Fn(f32) -> u64,
    ) -> u64 {
        let Some((mask, count)) = self.ctx.dense_present.get(&input) else {
            return 0;
        };
        let elements = count * per_row;
        let slot = dense_slot(self.dense_ids, &self.ctx.scratch_dense_ids, input);
        if let (Some((scratch, c)), true) = (slot, self.sparse(output).is_some()) {
            let matrix = if scratch {
                &self.ctx.scratch_dense
            } else {
                &self.tensor.dense
            };
            let mut fresh = Fresh::with_capacity(mask.len(), *count as usize);
            for (r, &present) in mask.iter().enumerate() {
                if present && born_cap > 0 {
                    fresh.values.push(id_of(matrix.get(r, c)));
                }
                fresh.end_row(u64::from(present));
            }
            let written = mask.clone();
            self.install(output, fresh, written, born_cap);
        }
        elements
    }

    /// The rows a generator over `inputs` writes: those carrying them all.
    fn written(&self, inputs: &[FeatureId]) -> Vec<bool> {
        let mut rows = vec![true; self.tensor.labels.len()];
        for f in inputs {
            match self.ctx.sparse_present.get(f) {
                Some(mask) => rows.iter_mut().zip(mask).for_each(|(w, &p)| *w &= p),
                None => rows.fill(false),
            }
        }
        rows
    }

    /// Joins a generator's output to its column: the rows in `written` are
    /// replaced, now present and unscored; the rest keep what the column
    /// held — a stored value, or an earlier generator's output.
    fn install(
        &mut self,
        output: FeatureId,
        mut fresh: Fresh,
        written: Vec<bool>,
        born_cap: usize,
    ) {
        let column = find_mut(
            &mut self.tensor.sparse,
            &mut self.ctx.scratch_sparse,
            output,
        )
        .expect("the caller found the output column");
        // No FirstX hoists across a writer, so the column's own lengths
        // were the true ones; they stop being so only if this output is
        // itself born capped.
        if born_cap == usize::MAX {
            self.ctx.shadow_lens.remove(&output);
        } else {
            for ((full, &w), held) in fresh
                .full_lens
                .iter_mut()
                .zip(&written)
                .zip(row_lens(column))
            {
                if !w {
                    *full = held as u32;
                }
            }
            self.ctx.shadow_lens.insert(output, fresh.full_lens);
        }
        if let Some(scored) = self.ctx.scored_rows.get_mut(&output) {
            scored.iter_mut().zip(&written).for_each(|(s, &w)| *s &= !w);
        }
        let scored = self
            .ctx
            .scored_rows
            .get(&output)
            .map_or(&[][..], Vec::as_slice);
        column.overwrite_rows(fresh.offsets, fresh.values, &written, scored);
        if let Some(present) = self.ctx.sparse_present.get_mut(&output) {
            present.iter_mut().zip(&written).for_each(|(p, &w)| *p |= w);
        }
    }
}

/// A generator's output before it joins its column: a CSR over the whole
/// batch, each row cut at the cap the column is born with (rows the
/// generator skips are empty), and the rows' lengths before the cut.
struct Fresh {
    offsets: Vec<u32>,
    values: Vec<u64>,
    full_lens: Vec<u32>,
}

impl Fresh {
    fn with_capacity(rows: usize, nnz: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Fresh {
            offsets,
            values: Vec::with_capacity(nnz),
            full_lens: Vec::with_capacity(rows),
        }
    }

    /// Closes the current row; `full` is its length before the cap.
    fn end_row(&mut self, full: u64) {
        self.offsets.push(self.values.len() as u32);
        self.full_lens.push(full.min(u64::from(u32::MAX)) as u32);
    }
}

/// Windows of `n` ids a list of `len` has, at most `cap` of them kept.
fn windows_kept(len: usize, n: usize, cap: usize) -> usize {
    (len + 1).saturating_sub(n).min(cap)
}

/// `NGram`: each window of `n` consecutive ids of a row folds into one id.
/// An absent row is empty and has no windows, like a short one.
fn ngram(input: &SparseTensor, n: usize, cap: usize) -> Fresh {
    let rows = input.rows();
    let nnz = (0..rows)
        .map(|r| windows_kept(input.row(r).len(), n, cap))
        .sum();
    let mut out = Fresh::with_capacity(rows, nnz);
    for r in 0..rows {
        let row = input.row(r);
        let hashed = row.windows(n).take(cap);
        out.values
            .extend(hashed.map(|w| w.iter().fold(0u64, |acc, &id| mix2(acc, id))));
        out.end_row(windows_kept(row.len(), n, usize::MAX) as u64);
    }
    out
}

/// `Cartesian`: every id pair of a row, `a`-major, stopping at `cap` pairs.
fn cartesian(a: &SparseTensor, b: &SparseTensor, cap: usize) -> Fresh {
    let rows = a.rows();
    let pairs = |r: usize| a.row(r).len() as u64 * b.row(r).len() as u64;
    let nnz = (0..rows).map(|r| pairs(r).min(cap as u64) as usize).sum();
    let mut out = Fresh::with_capacity(rows, nnz);
    for r in 0..rows {
        let (row_a, row_b) = (a.row(r), b.row(r));
        let mut room = cap;
        for &ia in row_a {
            let take = room.min(row_b.len());
            out.values
                .extend(row_b[..take].iter().map(|&ib| mix2(ia, ib)));
            room -= take;
            if room == 0 {
                break;
            }
        }
        out.end_row(pairs(r));
    }
    out
}

/// `IdListTransform`: the ids of `a` that `b` holds too, in `a`'s order,
/// the first `cap` kept. Every match is still counted — later ops are
/// charged the uncut length.
fn intersect(a: &SparseTensor, b: &SparseTensor, cap: usize) -> Fresh {
    let rows = a.rows();
    // Intersections are short next to their inputs: let the values grow.
    let mut out = Fresh::with_capacity(rows, 0);
    let mut sorted_b: Vec<u64> = Vec::new();
    for r in 0..rows {
        let (row_a, row_b) = (a.row(r), b.row(r));
        let mut matches = 0u64;
        if !row_a.is_empty() && !row_b.is_empty() {
            sorted_b.clear();
            sorted_b.extend_from_slice(row_b);
            sorted_b.sort_unstable();
            for &id in row_a {
                if sorted_b.binary_search(&id).is_ok() {
                    if matches < cap as u64 {
                        out.values.push(id);
                    }
                    matches += 1;
                }
            }
        }
        out.end_row(matches);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::{Batch, SparseList};

    const DENSE: [FeatureId; 2] = [FeatureId(0), FeatureId(1)];

    /// 64 rows; every fourth lacks dense feature 0, every fifth lacks
    /// sparse feature 11, feature 12 is scored.
    fn batch() -> Batch {
        (0..64u64)
            .map(|i| {
                let mut s = Sample::new(0.0);
                if i % 4 != 3 {
                    s.set_dense(FeatureId(0), i as f32 / 64.0);
                }
                s.set_dense(FeatureId(1), i as f32 * 3_600.0);
                s.set_sparse(
                    FeatureId(10),
                    SparseList::from_ids((0..(i % 6 + 1)).map(|k| i * 31 + k).collect()),
                );
                if i % 5 != 4 {
                    s.set_sparse(
                        FeatureId(11),
                        SparseList::from_ids((0..(i % 3)).map(|k| i * 31 + 2 * k).collect()),
                    );
                }
                s.set_sparse(
                    FeatureId(12),
                    SparseList::from_scored(vec![i % 4, 7], vec![0.5, i as f32]),
                );
                s
            })
            .collect()
    }

    fn norm_plan() -> TransformPlan {
        TransformPlan::new(vec![
            TransformOp::SigridHash {
                input: FeatureId(10),
                salt: 5,
                modulus: 997,
            },
            TransformOp::FirstX {
                input: FeatureId(10),
                x: 3,
            },
            TransformOp::Logit {
                input: FeatureId(0),
            },
            TransformOp::Clamp {
                input: FeatureId(1),
                min: 0.0,
                max: 10_000.0,
            },
        ])
    }

    /// Runs `plan` both ways over [`batch`] — the whole plan per sample,
    /// and the worker's four calls — and checks tensors and cost agree.
    fn assert_matches_row_path(plan: &TransformPlan, sparse_ids: &[FeatureId]) -> MiniBatchTensor {
        let (row_out, row_cost) = plan.apply_batch(batch(), 0);
        let row_tensor = row_out.materialize(&DENSE, sparse_ids);

        let (residue, columnar) = ColumnarPlan::split_plan(plan);
        assert!(residue.is_empty());
        let batch = batch();
        let ctx = columnar.capture_ctx(batch.samples(), &DENSE, sparse_ids);
        let caps = columnar.sparse_caps(sparse_ids);
        let mut tensor = batch.materialize_capped(&DENSE, sparse_ids, &caps);
        let applied = columnar.apply_with_cost(&mut tensor, &DENSE, &ctx, plan.cost_model());

        assert_eq!(row_tensor, tensor);
        assert_eq!(row_cost, applied.cost);
        tensor
    }

    #[test]
    fn normalization_matches_row_path_exactly() {
        // Rows without dense feature 0 keep their materialized 0.0: the
        // row path never runs Logit on them.
        let tensor = assert_matches_row_path(&norm_plan(), &[FeatureId(10)]);
        assert_eq!(tensor.dense.get(3, 0), 0.0);
        assert_ne!(tensor.dense.get(0, 0), 0.0);
    }

    #[test]
    fn only_sampling_stays_on_the_row_path() {
        let mut ops = norm_plan().ops().to_vec();
        ops.insert(2, TransformOp::Sampling { rate: 0.5, seed: 1 });
        ops.push(TransformOp::NGram {
            input: FeatureId(10),
            n: 2,
            output: FeatureId(20),
        });
        let (row, col) = ColumnarPlan::split_plan(&TransformPlan::new(ops.clone()));
        assert_eq!(row.ops(), &ops[2..3]);
        ops.remove(2);
        assert_eq!(col.ops(), &ops[..]);
    }

    #[test]
    fn caps_hoist_only_across_ops_that_commute_with_truncation() {
        let first_x = |input, x| TransformOp::FirstX {
            input: FeatureId(input),
            x,
        };
        let plan = TransformPlan::new(vec![
            first_x(10, 9),
            TransformOp::Enumerate {
                input: FeatureId(10),
            },
            first_x(10, 4),
            // Reads 10 whole: the FirstX after it must wait its turn.
            TransformOp::NGram {
                input: FeatureId(10),
                n: 2,
                output: FeatureId(20),
            },
            first_x(10, 1),
            first_x(20, 7),
            TransformOp::MapId {
                input: FeatureId(20),
                mapping: BTreeMap::new(),
                default: Some(1),
            },
            first_x(20, 2),
            // Nothing between materialization and this one but a writer
            // of another feature.
            first_x(11, 5),
        ]);
        let (_, col) = ColumnarPlan::split_plan(&plan);
        let caps: Vec<(u64, usize)> = col.caps.iter().map(|(f, &c)| (f.0, c)).collect();
        assert_eq!(caps, vec![(10, 4), (11, 5)]);
        assert_eq!(col.born_caps[3], 7);
        assert!(col.born_caps.iter().filter(|&&c| c != usize::MAX).count() == 1);
        assert_matches_row_path(&plan, &[FeatureId(10), FeatureId(11), FeatureId(20)]);
    }

    #[test]
    fn generators_match_row_path_materialized_or_not() {
        let plan = TransformPlan::new(vec![
            TransformOp::NGram {
                input: FeatureId(10),
                n: 2,
                output: FeatureId(20),
            },
            TransformOp::Cartesian {
                a: FeatureId(10),
                b: FeatureId(11),
                output: FeatureId(21),
            },
            TransformOp::FirstX {
                input: FeatureId(21),
                x: 3,
            },
            TransformOp::IdListTransform {
                a: FeatureId(10),
                b: FeatureId(11),
                output: FeatureId(22),
            },
            TransformOp::Bucketize {
                input: FeatureId(0),
                borders: vec![0.25, 0.5, 0.75],
                output: FeatureId(23),
            },
            TransformOp::Onehot {
                input: FeatureId(1),
                num_classes: 24,
                output: FeatureId(24),
            },
            // A chain through a derived column, and a second writer of 20
            // that leaves the rows lacking 11 to the first.
            TransformOp::NGram {
                input: FeatureId(21),
                n: 1,
                output: FeatureId(25),
            },
            TransformOp::IdListTransform {
                a: FeatureId(11),
                b: FeatureId(10),
                output: FeatureId(20),
            },
            // An intersection longer than the cap it is born with: the
            // hash before the FirstX is charged every match, kept or not.
            TransformOp::IdListTransform {
                a: FeatureId(10),
                b: FeatureId(10),
                output: FeatureId(26),
            },
            TransformOp::SigridHash {
                input: FeatureId(26),
                salt: 1,
                modulus: 1_000,
            },
            TransformOp::FirstX {
                input: FeatureId(26),
                x: 2,
            },
        ]);
        let derived: Vec<FeatureId> = (20..27).map(FeatureId).collect();
        let tensor = assert_matches_row_path(&plan, &derived);
        // Row 4 lacks feature 11: Cartesian wrote nothing there.
        assert!(tensor.sparse[1].row(4).is_empty());
        assert_eq!(tensor.sparse[1].row(2).len(), 3);
        // With nothing materialized but the end of the chain, the inputs
        // and the link live in scratch columns.
        assert_matches_row_path(&plan, &[FeatureId(25)]);
        assert_matches_row_path(&plan, &[]);
    }

    #[test]
    fn map_id_and_enumerate_keep_scores_canonical() {
        let map_id = |default| TransformOp::MapId {
            input: FeatureId(12),
            mapping: [(0, 100), (1, 101)].into_iter().collect(),
            default,
        };
        let enumerate = TransformOp::Enumerate {
            input: FeatureId(12),
        };
        let score = TransformOp::ComputeScore {
            input: FeatureId(12),
            scale: 2.0,
            offset: 1.0,
        };
        let ids = [FeatureId(12)];
        // Enumerate first: no hashed id is a key, every row empties, and
        // the column must come out unscored.
        let plan = TransformPlan::new(vec![enumerate.clone(), map_id(None), score.clone()]);
        let tensor = assert_matches_row_path(&plan, &ids);
        assert_eq!(tensor.sparse[0].nnz(), 0);
        assert!(tensor.sparse[0].scores().is_none());
        // MapId first: the 7s and the ids 2 and 3 drop, so half the rows
        // keep one scored id and half empty out.
        let plan = TransformPlan::new(vec![map_id(None), enumerate.clone(), score.clone()]);
        let tensor = assert_matches_row_path(&plan, &ids);
        assert_eq!(tensor.sparse[0].nnz(), 32);
        assert!(tensor.sparse[0].scores().is_some());
        // With a default nothing drops.
        let plan = TransformPlan::new(vec![map_id(Some(9)), enumerate, score]);
        assert_eq!(assert_matches_row_path(&plan, &ids).sparse[0].nnz(), 128);
    }

    #[test]
    fn features_no_sample_carries_are_ignored() {
        let plan = TransformPlan::new(vec![
            TransformOp::SigridHash {
                input: FeatureId(99),
                salt: 0,
                modulus: 10,
            },
            TransformOp::Clamp {
                input: FeatureId(98),
                min: 0.0,
                max: 1.0,
            },
            TransformOp::NGram {
                input: FeatureId(99),
                n: 2,
                output: FeatureId(10),
            },
        ]);
        let before = batch().materialize(&DENSE, &[FeatureId(10)]);
        assert_eq!(assert_matches_row_path(&plan, &[FeatureId(10)]), before);
    }
}
