//! Datacenter capacity planning under a fixed power budget.
//!
//! Datacenter power budgets are fixed years in advance (§I); every watt the
//! DSI pipeline consumes is a watt unavailable to trainers, so *DSI power
//! directly constrains training capacity*. This module solves the planning
//! problem: given a budget and a model's per-trainer DSI footprint, how
//! many trainer nodes fit — and how much capacity a DSI efficiency
//! improvement (like §VII's 2.59× co-designed power reduction) buys back.

use super::provisioning::{ProvisionPlan, StorageNodeClass};
use crate::power::PowerModel;
use synth::RmProfile;

/// A capacity plan for one model within a power budget.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityPlan {
    /// Trainer nodes deployable within the budget.
    pub trainers: f64,
    /// Watts spent on trainers.
    pub training_w: f64,
    /// Watts spent on preprocessing.
    pub preproc_w: f64,
    /// Watts spent on storage.
    pub storage_w: f64,
    /// Fraction of the budget consumed by DSI.
    pub dsi_fraction: f64,
}

/// Solves for the trainer count that exactly fills `budget_watts`,
/// provisioning preprocessing per Table IX's workers-per-trainer ratio and
/// storage for the resulting IOPS demand (floored by dataset capacity).
///
/// `dsi_efficiency` divides the preprocessing and storage power (1.0 =
/// today's pipeline; §VII's co-design achieved ≈2.59).
///
/// # Panics
///
/// Panics if `budget_watts` or `dsi_efficiency` is not positive.
pub fn plan_capacity(
    profile: &RmProfile,
    budget_watts: f64,
    mean_io_size: u64,
    power: &PowerModel,
    dsi_efficiency: f64,
) -> CapacityPlan {
    assert!(budget_watts > 0.0, "budget must be positive");
    assert!(dsi_efficiency > 0.0, "efficiency must be positive");
    let class = StorageNodeClass::hdd();
    // Capacity floor: the replicated dataset must be held regardless of
    // trainer count.
    let capacity_nodes =
        profile.used_partitions.bytes() as f64 * 3.0 / class.capacity.bytes() as f64;
    let capacity_w = capacity_nodes * class.watts / dsi_efficiency;

    // Marginal DSI watts per trainer: preprocessing workers plus the
    // IOPS-driven share of storage.
    let preproc_per_trainer = profile.workers_per_trainer * power.preproc_node_w;
    let storage_demand_per_trainer = profile.workers_per_trainer * profile.worker_storage_rx;
    let iops_nodes_per_trainer = {
        let plan = ProvisionPlan::for_workload(
            &class,
            profile.used_partitions,
            3,
            storage_demand_per_trainer,
            mean_io_size,
        );
        plan.nodes_for_iops
    };
    let storage_per_trainer = iops_nodes_per_trainer * class.watts;
    let marginal =
        power.trainer_node_w + (preproc_per_trainer + storage_per_trainer) / dsi_efficiency;

    let trainers = ((budget_watts - capacity_w) / marginal).max(0.0);
    let preproc_w = trainers * preproc_per_trainer / dsi_efficiency;
    let storage_iops_w = trainers * storage_per_trainer / dsi_efficiency;
    let storage_w = capacity_w + storage_iops_w.max(0.0);
    // Storage is the max of capacity and IOPS provisioning, not the sum;
    // once IOPS nodes exceed capacity nodes they subsume them.
    let storage_w = storage_w.max(capacity_w).max(storage_iops_w);
    let training_w = trainers * power.trainer_node_w;
    let total = training_w + preproc_w + storage_w;
    CapacityPlan {
        trainers,
        training_w,
        preproc_w,
        storage_w,
        dsi_fraction: if total > 0.0 {
            (preproc_w + storage_w) / total
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUDGET: f64 = 10e6; // a 10 MW training datacenter
    const IO: u64 = 1 << 20;

    #[test]
    fn plan_fills_the_budget() {
        let power = PowerModel::production();
        for profile in RmProfile::all() {
            let plan = plan_capacity(&profile, BUDGET, IO, &power, 1.0);
            assert!(plan.trainers > 0.0, "{}: no capacity", profile.class);
            let total_w = plan.training_w + plan.preproc_w + plan.storage_w;
            assert!(
                (total_w - BUDGET).abs() / BUDGET < 0.02,
                "{}: planned {:.2} MW of {:.2} MW",
                profile.class,
                total_w / 1e6,
                BUDGET / 1e6
            );
        }
    }

    #[test]
    fn capacity_floor_respected() {
        // A budget barely above the dataset-capacity floor leaves almost
        // nothing for trainers.
        let power = PowerModel::production();
        let tiny = plan_capacity(&RmProfile::rm2(), 100e3, IO, &power, 1.0);
        let big = plan_capacity(&RmProfile::rm2(), BUDGET, IO, &power, 1.0);
        assert!(tiny.trainers < big.trainers * 0.05);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_rejected() {
        plan_capacity(&RmProfile::rm1(), 0.0, IO, &PowerModel::production(), 1.0);
    }
}
