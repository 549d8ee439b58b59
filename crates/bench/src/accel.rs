//! The GPU-offload throughput model for preprocessing acceleration (§VII).
//!
//! Preprocessing can run on the training GPU, the trainer host CPU,
//! disaggregated CPUs, or disaggregated accelerators; the paper measured
//! GPU/CPU speedups of **11.9× for SigridHash** and only **1.3× for
//! Bucketize**, and notes that deriving one feature takes 3–5 distinct
//! kernels whose launch overheads are non-negligible. This model prices an
//! offloaded plan accordingly.

use transforms::{OpCost, TransformOp, TransformPlan};

/// GPU-offload cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelModel {
    /// Kernel launch overhead in CPU-cycle equivalents (≈5 µs at 2.5 GHz).
    pub launch_overhead_cycles: f64,
}

impl Default for AccelModel {
    fn default() -> Self {
        Self {
            launch_overhead_cycles: 12_500.0,
        }
    }
}

impl AccelModel {
    /// Measured/estimated GPU-over-CPU speedup for one op.
    ///
    /// SigridHash (11.9×) and Bucketize (1.3×) are the paper's measured
    /// points (V100 vs 20 CPU threads); the rest interpolate by how
    /// data-parallel and branch-free the op is.
    pub fn gpu_speedup(op: &TransformOp) -> f64 {
        match op {
            TransformOp::SigridHash { .. } => 11.9,
            TransformOp::Bucketize { .. } => 1.3,
            // Pure elementwise math: very GPU-friendly.
            TransformOp::BoxCox { .. }
            | TransformOp::Logit { .. }
            | TransformOp::Clamp { .. }
            | TransformOp::ComputeScore { .. }
            | TransformOp::GetLocalHour { .. } => 8.0,
            // Hash-per-element generation: GPU-friendly.
            TransformOp::Cartesian { .. }
            | TransformOp::NGram { .. }
            | TransformOp::Enumerate { .. }
            | TransformOp::PositiveModulus { .. } => 6.0,
            // Irregular set/lookup work: poorly suited.
            TransformOp::IdListTransform { .. } | TransformOp::MapId { .. } => 1.5,
            TransformOp::Onehot { .. } => 4.0,
            // Truncation is memcpy-bound; offload gains little.
            TransformOp::FirstX { .. } => 2.0,
            TransformOp::Sampling { .. } => 1.0,
        }
    }

    /// Effective speedup of running `plan` on a GPU for a mini-batch of
    /// `batch_size` samples with `elements_per_sample` mean elements:
    /// per-op speedups weighted by cycles, discounted by one kernel launch
    /// per op per batch.
    pub fn effective_plan_speedup(
        &self,
        plan: &TransformPlan,
        batch_size: u64,
        elements_per_sample: f64,
    ) -> f64 {
        if plan.is_empty() || batch_size == 0 {
            return 1.0;
        }
        let cost_model = OpCost::default();
        let mut cpu_cycles = 0.0;
        let mut gpu_cycles = 0.0;
        for op in plan.ops() {
            let class = OpCost::class_of(op);
            let per_element = cost_model.cycles_per_element(class);
            let op_cycles = per_element * elements_per_sample * batch_size as f64;
            cpu_cycles += op_cycles;
            gpu_cycles += op_cycles / Self::gpu_speedup(op) + self.launch_overhead_cycles;
        }
        cpu_cycles / gpu_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::FeatureId;

    fn hash_plan(n_ops: usize) -> TransformPlan {
        TransformPlan::new(
            (0..n_ops)
                .map(|i| TransformOp::SigridHash {
                    input: FeatureId(i as u64),
                    salt: i as u64,
                    modulus: 1000,
                })
                .collect(),
        )
    }

    #[test]
    fn paper_measured_speedups() {
        assert_eq!(
            AccelModel::gpu_speedup(&TransformOp::SigridHash {
                input: FeatureId(1),
                salt: 0,
                modulus: 10
            }),
            11.9
        );
        assert_eq!(
            AccelModel::gpu_speedup(&TransformOp::Bucketize {
                input: FeatureId(1),
                borders: vec![],
                output: FeatureId(2)
            }),
            1.3
        );
    }

    #[test]
    fn large_batches_amortize_launch_overhead() {
        let model = AccelModel::default();
        let plan = hash_plan(4);
        let small = model.effective_plan_speedup(&plan, 8, 25.0);
        let large = model.effective_plan_speedup(&plan, 8192, 25.0);
        assert!(large > small);
        assert!(
            large > 8.0,
            "large-batch speedup {large:.1} should approach 11.9"
        );
        assert!(
            small < 3.0,
            "small-batch speedup {small:.1} should be launch-bound"
        );
    }

    #[test]
    fn empty_plan_has_unit_speedup() {
        let model = AccelModel::default();
        assert_eq!(
            model.effective_plan_speedup(&TransformPlan::empty(), 100, 10.0),
            1.0
        );
        assert_eq!(model.effective_plan_speedup(&hash_plan(1), 0, 10.0), 1.0);
    }

    #[test]
    fn bucketize_heavy_plan_barely_benefits() {
        let model = AccelModel::default();
        let plan = TransformPlan::new(
            (0..4)
                .map(|i| TransformOp::Bucketize {
                    input: FeatureId(i),
                    borders: (0..16).map(f64::from).collect(),
                    output: FeatureId(100 + i),
                })
                .collect(),
        );
        let s = model.effective_plan_speedup(&plan, 8192, 25.0);
        assert!(s < 1.35, "bucketize plan speedup {s:.2}");
    }
}
