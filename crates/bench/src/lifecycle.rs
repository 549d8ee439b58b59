//! The feature lifecycle model behind Table II.
//!
//! Features are proposed (beta), promoted to experimental when used by
//! combo/RC jobs, become active if their release candidate ships, and are
//! deprecated as newer features supersede them. Table II counts the fates,
//! six months later, of 14,614 features proposed for RM1's dataset within a
//! six-month window: 10,148 beta, 883 experimental, 1,650 active, 1,933
//! deprecated.

use dsi_types::rng::SplitMix64;
use dsi_types::FeatureStatus;

/// Counts of features per lifecycle status at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LifecycleSnapshot {
    /// Proposed but not actively logged.
    pub beta: u32,
    /// Used by combo or release-candidate jobs.
    pub experimental: u32,
    /// Part of the production model.
    pub active: u32,
    /// Superseded, pending review/reaping.
    pub deprecated: u32,
}

impl LifecycleSnapshot {
    /// Total features across statuses.
    pub fn total(&self) -> u32 {
        self.beta + self.experimental + self.active + self.deprecated
    }

    /// The Table II reference snapshot for RM1.
    pub fn table_ii_reference() -> Self {
        Self {
            beta: 10_148,
            experimental: 883,
            active: 1_650,
            deprecated: 1_933,
        }
    }
}

/// A stochastic feature-lifecycle model.
///
/// Each month, new features are proposed; each existing feature transitions
/// between statuses with the model's monthly probabilities. The defaults
/// are fitted so that simulating 6 months of proposals and then aging the
/// population 6 more months lands near the Table II distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleModel {
    /// New features proposed per month.
    pub proposals_per_month: u32,
    /// P(beta → experimental) per month.
    pub p_beta_to_experimental: f64,
    /// P(experimental → active) per month (its RC shipped).
    pub p_experimental_to_active: f64,
    /// P(experimental → deprecated) per month (idea abandoned).
    pub p_experimental_to_deprecated: f64,
    /// P(active → deprecated) per month (superseded).
    pub p_active_to_deprecated: f64,
}

impl Default for LifecycleModel {
    fn default() -> Self {
        Self {
            proposals_per_month: 2_436, // ≈ 14,614 / 6 months
            p_beta_to_experimental: 0.045,
            p_experimental_to_active: 0.35,
            p_experimental_to_deprecated: 0.15,
            p_active_to_deprecated: 0.20,
        }
    }
}

impl LifecycleModel {
    /// Simulates `proposal_months` of new-feature proposals followed by
    /// `aging_months` of pure aging, returning the final status counts of
    /// every feature proposed in the window.
    pub fn simulate(
        &self,
        proposal_months: u32,
        aging_months: u32,
        seed: u64,
    ) -> LifecycleSnapshot {
        let mut rng = SplitMix64::new(seed);
        let mut statuses: Vec<FeatureStatus> = Vec::new();
        for month in 0..proposal_months + aging_months {
            // Age existing features.
            for s in &mut statuses {
                *s = match *s {
                    FeatureStatus::Beta if rng.chance(self.p_beta_to_experimental) => {
                        FeatureStatus::Experimental
                    }
                    FeatureStatus::Experimental if rng.chance(self.p_experimental_to_active) => {
                        FeatureStatus::Active
                    }
                    FeatureStatus::Experimental
                        if rng.chance(self.p_experimental_to_deprecated) =>
                    {
                        FeatureStatus::Deprecated
                    }
                    FeatureStatus::Active if rng.chance(self.p_active_to_deprecated) => {
                        FeatureStatus::Deprecated
                    }
                    other => other,
                };
            }
            // Propose new features only during the proposal window.
            if month < proposal_months {
                statuses.extend(std::iter::repeat_n(
                    FeatureStatus::Beta,
                    self.proposals_per_month as usize,
                ));
            }
        }
        let mut snap = LifecycleSnapshot::default();
        for s in statuses {
            match s {
                FeatureStatus::Beta => snap.beta += 1,
                FeatureStatus::Experimental => snap.experimental += 1,
                FeatureStatus::Active => snap.active += 1,
                FeatureStatus::Deprecated => snap.deprecated += 1,
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_lands_near_table_ii() {
        let model = LifecycleModel::default();
        let snap = model.simulate(6, 6, 42);
        let reference = LifecycleSnapshot::table_ii_reference();
        // Total equals proposals (no features vanish).
        assert_eq!(snap.total(), model.proposals_per_month * 6);
        // Each bucket within 35% relative of the reference: beta dominates,
        // deprecated > active > experimental ordering holds.
        let rel = |got: u32, want: u32| (got as f64 - want as f64).abs() / want as f64;
        assert!(rel(snap.beta, reference.beta) < 0.35, "beta {}", snap.beta);
        assert!(
            rel(snap.deprecated, reference.deprecated) < 0.5,
            "deprecated {}",
            snap.deprecated
        );
        assert!(snap.beta > snap.deprecated);
        assert!(snap.deprecated > snap.experimental);
    }

    #[test]
    fn aging_moves_mass_out_of_beta() {
        let model = LifecycleModel::default();
        let fresh = model.simulate(6, 0, 1);
        let aged = model.simulate(6, 12, 1);
        assert!(aged.beta < fresh.beta);
        assert!(aged.deprecated > fresh.deprecated);
        assert_eq!(fresh.total(), aged.total());
    }
}
