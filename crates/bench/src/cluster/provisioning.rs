//! Storage provisioning: node classes, the throughput-to-storage gap, and
//! per-model DSI power roll-ups.
//!
//! §VII quantifies the central storage-provisioning tension: given
//! industry-scale dataset sizes, trainer throughput, preprocessing data
//! amplification, and small IO sizes on HDDs, the fleet must provision over
//! **8× more HDD capacity than the datasets need just to meet IOPS demand**
//! (after triplicate replication). SSD nodes flip the trade: 326% of the
//! IOPS per watt but only 9% of the capacity per watt. A tiered layout
//! placing the *popular* bytes (Fig. 7) on flash captures most of the IOPS
//! with a fraction of the flash capacity.
//!
//! Fig. 1 shows the headline result: for some production models, the
//! storage and preprocessing legs of the DSI pipeline consume **more power
//! than the GPU trainers themselves**. [`provision_model`] derives that
//! breakdown from first principles: trainer count → tensor demand → DPP
//! workers (Table IX) and storage nodes (IOPS-bound provisioning, above).

use crate::power::{PowerBreakdown, PowerModel};
use dsi_types::ByteSize;
use synth::RmProfile;

/// A class of storage node, characterized at the node (chassis) level.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageNodeClass {
    /// Usable capacity per node.
    pub capacity: ByteSize,
    /// Effective random-read IOPS per node under the service stack.
    pub iops: f64,
    /// Effective sustained read bandwidth per node (bytes/s) at the
    /// workload's mean IO size.
    pub read_bw: f64,
    /// Node power in watts.
    pub watts: f64,
}

impl StorageNodeClass {
    /// An HDD storage node: 36 × 18 TB disks, ~4.3k effective IOPS, 538 W.
    pub fn hdd() -> Self {
        Self {
            capacity: ByteSize::tib(36 * 18),
            iops: 4_320.0,
            read_bw: 2.0e9,
            watts: 538.0,
        }
    }

    /// An SSD storage node calibrated to §VII: 326% of the HDD node's IOPS
    /// per watt, 9% of its capacity per watt (at equal node power).
    pub fn ssd() -> Self {
        let hdd = Self::hdd();
        Self {
            capacity: hdd.capacity.scale(0.09),
            iops: hdd.iops * 3.26,
            read_bw: 6.0e9,
            watts: hdd.watts,
        }
    }

    /// IOPS per watt.
    pub fn iops_per_watt(&self) -> f64 {
        self.iops / self.watts
    }

    /// Capacity bytes per watt.
    pub fn capacity_per_watt(&self) -> f64 {
        self.capacity.bytes() as f64 / self.watts
    }
}

/// The result of provisioning storage for a training workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvisionPlan {
    /// Nodes needed to hold the (replicated) dataset.
    pub nodes_for_capacity: f64,
    /// Nodes needed to serve the IOPS demand.
    pub nodes_for_iops: f64,
    /// Nodes actually provisioned (the max of the two).
    pub nodes_provisioned: f64,
    /// `nodes_for_iops / nodes_for_capacity`: >1 means IOPS-bound — the
    /// paper's "throughput-to-storage gap".
    pub throughput_to_storage_gap: f64,
    /// Total provisioned watts.
    pub watts: f64,
}

impl ProvisionPlan {
    /// Provisions nodes of `class` for a dataset of `dataset_bytes`
    /// (logical), replicated `replication`×, that must serve
    /// `demand_bytes_per_sec` of reads at `mean_io_size` bytes per IO.
    ///
    /// # Panics
    ///
    /// Panics if `mean_io_size` is zero.
    pub fn for_workload(
        class: &StorageNodeClass,
        dataset_bytes: ByteSize,
        replication: u32,
        demand_bytes_per_sec: f64,
        mean_io_size: u64,
    ) -> ProvisionPlan {
        assert!(mean_io_size > 0, "mean IO size must be positive");
        let physical = dataset_bytes.bytes() as f64 * replication as f64;
        let nodes_for_capacity = physical / class.capacity.bytes() as f64;
        let iops_demand = demand_bytes_per_sec / mean_io_size as f64;
        let by_iops = iops_demand / class.iops;
        let by_bw = demand_bytes_per_sec / class.read_bw;
        let nodes_for_iops = by_iops.max(by_bw);
        let nodes_provisioned = nodes_for_capacity.max(nodes_for_iops);
        ProvisionPlan {
            nodes_for_capacity,
            nodes_for_iops,
            nodes_provisioned,
            throughput_to_storage_gap: nodes_for_iops / nodes_for_capacity,
            watts: nodes_provisioned * class.watts,
        }
    }
}

/// A tiered plan: hot (popular) bytes on SSD, the rest on HDD.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredPlacement {
    /// The HDD leg of the plan.
    pub cold: ProvisionPlan,
    /// The SSD leg of the plan.
    pub hot: ProvisionPlan,
}

impl TieredPlacement {
    /// Splits the workload: `hot_byte_fraction` of the dataset absorbs
    /// `hot_traffic_fraction` of the IO demand (from the popularity CDF of
    /// Fig. 7) and goes to SSD; the remainder goes to HDD.
    ///
    /// # Panics
    ///
    /// Panics if either fraction is outside `[0, 1]`.
    pub fn plan(
        dataset_bytes: ByteSize,
        replication: u32,
        demand_bytes_per_sec: f64,
        mean_io_size: u64,
        hot_byte_fraction: f64,
        hot_traffic_fraction: f64,
    ) -> TieredPlacement {
        assert!(
            (0.0..=1.0).contains(&hot_byte_fraction),
            "fraction in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&hot_traffic_fraction),
            "fraction in [0,1]"
        );
        let hot = ProvisionPlan::for_workload(
            &StorageNodeClass::ssd(),
            dataset_bytes.scale(hot_byte_fraction),
            replication,
            demand_bytes_per_sec * hot_traffic_fraction,
            mean_io_size,
        );
        let cold = ProvisionPlan::for_workload(
            &StorageNodeClass::hdd(),
            dataset_bytes.scale(1.0 - hot_byte_fraction),
            replication,
            demand_bytes_per_sec * (1.0 - hot_traffic_fraction),
            mean_io_size,
        );
        TieredPlacement { cold, hot }
    }

    /// Total provisioned power.
    pub fn watts(&self) -> f64 {
        self.cold.watts + self.hot.watts
    }
}

/// Provisioned node counts and power for one model's training deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProvisioning {
    /// DPP worker nodes.
    pub preproc_nodes: f64,
    /// Storage nodes.
    pub storage_nodes: f64,
    /// Throughput-to-storage gap on the storage leg.
    pub storage_gap: f64,
    /// Power breakdown.
    pub power: PowerBreakdown,
}

/// Provisions the DSI pipeline for `trainers` trainer nodes of one model.
///
/// * Preprocessing scales by Table IX's workers-per-trainer ratio.
/// * Storage must serve the fleet's aggregate *raw* read demand (tensor
///   demand amplified by the extract-side data reduction) at Table VI's
///   mean IO size, over the model's used partitions, with 3× replication.
pub fn provision_model(
    profile: &RmProfile,
    trainers: f64,
    mean_io_size: u64,
    power: &PowerModel,
) -> ModelProvisioning {
    let preproc_nodes = trainers * profile.workers_per_trainer;
    // Raw storage demand: each worker pulls `worker_storage_rx` compressed
    // bytes/s at saturation.
    let storage_demand = preproc_nodes * profile.worker_storage_rx;
    let plan = ProvisionPlan::for_workload(
        &StorageNodeClass::hdd(),
        profile.used_partitions,
        3,
        storage_demand,
        mean_io_size,
    );
    ModelProvisioning {
        preproc_nodes,
        storage_nodes: plan.nodes_provisioned,
        storage_gap: plan.throughput_to_storage_gap,
        power: power.breakdown(plan.nodes_provisioned, preproc_nodes, trainers),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RM1-flavoured workload used across provisioning tests: ~12 PB used
    /// partitions, many trainers pulling tens of GB/s from storage at
    /// Table VI's ~23 KiB mean IO size.
    fn rm1_demand() -> (ByteSize, f64, u64) {
        (ByteSize(12 * dsi_types::PIB), 64.0 * 0.8e9, 23_200)
    }

    #[test]
    fn ssd_class_matches_paper_ratios() {
        let hdd = StorageNodeClass::hdd();
        let ssd = StorageNodeClass::ssd();
        assert!((ssd.iops_per_watt() / hdd.iops_per_watt() - 3.26).abs() < 0.01);
        assert!((ssd.capacity_per_watt() / hdd.capacity_per_watt() - 0.09).abs() < 0.001);
    }

    #[test]
    fn hdd_provisioning_is_iops_bound_with_large_gap() {
        let (bytes, demand, io) = rm1_demand();
        let plan = ProvisionPlan::for_workload(&StorageNodeClass::hdd(), bytes, 3, demand, io);
        assert!(
            plan.throughput_to_storage_gap > 8.0,
            "gap {:.1} should exceed 8x",
            plan.throughput_to_storage_gap
        );
        assert_eq!(plan.nodes_provisioned, plan.nodes_for_iops);
    }

    #[test]
    fn pure_ssd_is_capacity_bound() {
        let (bytes, demand, io) = rm1_demand();
        let plan = ProvisionPlan::for_workload(&StorageNodeClass::ssd(), bytes, 3, demand, io);
        // The inverse problem: on SSD the dataset, not the IOPS, dominates.
        assert!(plan.throughput_to_storage_gap < 1.0);
        assert_eq!(plan.nodes_provisioned, plan.nodes_for_capacity);
    }

    #[test]
    fn tiering_popular_bytes_saves_power() {
        let (bytes, demand, io) = rm1_demand();
        let all_hdd = ProvisionPlan::for_workload(&StorageNodeClass::hdd(), bytes, 3, demand, io);
        // Fig. 7 for RM1: ~39% of bytes absorb ~80% of traffic.
        let tiered = TieredPlacement::plan(bytes, 3, demand, io, 0.39, 0.80);
        assert!(
            tiered.watts() < all_hdd.watts,
            "tiered {:.0} W should beat all-HDD {:.0} W",
            tiered.watts(),
            all_hdd.watts
        );
    }

    #[test]
    fn capacity_bound_workload_has_gap_below_one() {
        // Tiny demand, huge dataset: capacity-bound.
        let plan = ProvisionPlan::for_workload(
            &StorageNodeClass::hdd(),
            ByteSize(100 * dsi_types::PIB),
            3,
            1e6,
            1 << 20,
        );
        assert!(plan.throughput_to_storage_gap < 1.0);
    }

    #[test]
    #[should_panic(expected = "mean IO size")]
    fn zero_io_size_panics() {
        ProvisionPlan::for_workload(&StorageNodeClass::hdd(), ByteSize::gib(1), 3, 1e6, 0);
    }

    #[test]
    fn fig1_dsi_power_can_exceed_training_power() {
        let power = PowerModel::production();
        // RM3: 55 workers per trainer — DSI dominates.
        let rm3 = provision_model(&RmProfile::rm3(), 16.0, 23_200, &power);
        assert!(
            rm3.power.dsi_fraction() > 0.5,
            "RM3 DSI share {:.2}",
            rm3.power.dsi_fraction()
        );
        // RM2: ~9 workers per trainer — training dominates.
        let rm2 = provision_model(&RmProfile::rm2(), 16.0, 23_200, &power);
        assert!(
            rm2.power.dsi_fraction() < rm3.power.dsi_fraction(),
            "RM2 {:.2} vs RM3 {:.2}",
            rm2.power.dsi_fraction(),
            rm3.power.dsi_fraction()
        );
    }

    #[test]
    fn preproc_nodes_scale_with_table_ix() {
        let p = provision_model(&RmProfile::rm1(), 10.0, 23_200, &PowerModel::production());
        assert!((p.preproc_nodes - 241.6).abs() < 0.1);
    }

    #[test]
    fn storage_leg_is_iops_bound_for_rm1() {
        let p = provision_model(&RmProfile::rm1(), 64.0, 23_200, &PowerModel::production());
        assert!(
            p.storage_gap > 1.0,
            "storage should be IOPS-bound, gap {:.2}",
            p.storage_gap
        );
        assert!(p.storage_nodes > 0.0);
    }

    #[test]
    fn power_scales_linearly_with_trainers() {
        let power = PowerModel::production();
        let small = provision_model(&RmProfile::rm1(), 8.0, 23_200, &power);
        let large = provision_model(&RmProfile::rm1(), 16.0, 23_200, &power);
        assert!((large.power.preproc_w / small.power.preproc_w - 2.0).abs() < 1e-9);
        assert!((large.power.training_w / small.power.training_w - 2.0).abs() < 1e-9);
    }
}
