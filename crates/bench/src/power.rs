//! Fleet power accounting for storage, preprocessing, and training.
//!
//! Datacenter power budgets are fixed; every watt spent on the DSI pipeline
//! is a watt unavailable to trainers (§I, Fig. 1). The [`PowerModel`] rolls
//! node counts into a [`PowerBreakdown`] whose shares reproduce the paper's
//! headline observation that storage + preprocessing can exceed the power of
//! the GPU trainers themselves.

/// Power draw of one leg of the training fleet for a model, in watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// Storage-node power (capacity + IOPS provisioning).
    pub storage_w: f64,
    /// Preprocessing (DPP worker) power.
    pub preproc_w: f64,
    /// Trainer-node power (GPUs + host).
    pub training_w: f64,
}

impl PowerBreakdown {
    /// Total power across the three legs.
    pub fn total(&self) -> f64 {
        self.storage_w + self.preproc_w + self.training_w
    }

    /// Share of total power spent on DSI (storage + preprocessing).
    pub fn dsi_fraction(&self) -> f64 {
        if self.total() == 0.0 {
            return 0.0;
        }
        (self.storage_w + self.preproc_w) / self.total()
    }

    /// Percentage shares `(storage, preproc, training)` summing to 100.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            100.0 * self.storage_w / t,
            100.0 * self.preproc_w / t,
            100.0 * self.training_w / t,
        )
    }
}

/// Converts provisioned node counts into power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Watts per storage node (host + disks).
    pub storage_node_w: f64,
    /// Watts per preprocessing (DPP worker) node.
    pub preproc_node_w: f64,
    /// Watts per trainer node (host + all GPUs).
    pub trainer_node_w: f64,
}

impl PowerModel {
    /// Production-flavored defaults: storage host (250 W) + 36 HDDs (8 W
    /// each); C-v1 worker (300 W); 8-GPU trainer (800 W host + 8×300 W).
    pub fn production() -> Self {
        Self {
            storage_node_w: 250.0 + 36.0 * 8.0,
            preproc_node_w: 300.0,
            trainer_node_w: 800.0 + 8.0 * 300.0,
        }
    }

    /// Rolls node counts into a breakdown.
    pub fn breakdown(
        &self,
        storage_nodes: f64,
        preproc_nodes: f64,
        trainer_nodes: f64,
    ) -> PowerBreakdown {
        PowerBreakdown {
            storage_w: storage_nodes * self.storage_node_w,
            preproc_w: preproc_nodes * self.preproc_node_w,
            training_w: trainer_nodes * self.trainer_node_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages_sum_to_100() {
        let b = PowerModel::production().breakdown(10.0, 50.0, 4.0);
        let (s, p, t) = b.percentages();
        assert!((s + p + t - 100.0).abs() < 1e-9);
    }

    #[test]
    fn dsi_can_exceed_training_power() {
        // Fig. 1: with tens of preprocessing nodes per trainer (Table IX
        // shows up to 55 workers per trainer node), DSI power exceeds 50%.
        let m = PowerModel::production();
        let b = m.breakdown(8.0, 55.0, 1.0);
        assert!(
            b.dsi_fraction() > 0.5,
            "dsi fraction {:.2} should exceed 0.5",
            b.dsi_fraction()
        );
    }

    #[test]
    fn zero_total_is_safe() {
        let b = PowerBreakdown::default();
        assert_eq!(b.dsi_fraction(), 0.0);
        assert_eq!(b.percentages(), (0.0, 0.0, 0.0));
    }
}
