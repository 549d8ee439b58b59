//! Global multi-region scheduling and dataset placement (§IV-B, Fig. 6).
//!
//! The fleet spans several regions; the production scheduler balances each
//! model's jobs across regions, which forces **every region to hold a copy
//! of every scheduled model's dataset**. Bin-packing models onto fewer
//! regions cuts that replicated storage, with care that a model's peak
//! demand still fits.

use dsi_types::rng::SplitMix64;
use dsi_types::{ByteSize, RegionId};
use std::collections::BTreeMap;

/// One region of the global fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Region identity.
    pub id: RegionId,
    /// Compute capacity in normalized units.
    pub compute_capacity: f64,
}

/// How models are spread over regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// The production default: every model balanced across all regions.
    BalanceEverywhere,
    /// Bin-pack each model onto the fewest regions whose spare capacity
    /// covers its peak demand.
    BinPack,
}

/// The outcome of placing all models.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementSummary {
    /// Per-model compute demand per region (Fig. 6's bars).
    pub demand_by_model_region: BTreeMap<String, BTreeMap<RegionId, f64>>,
    /// Total dataset bytes stored across regions (replication included).
    pub stored_bytes: ByteSize,
    /// Dataset copies per model.
    pub copies_per_model: BTreeMap<String, u32>,
    /// Whether any region's capacity is exceeded at peak.
    pub feasible: bool,
}

/// A model to place.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelWorkload {
    /// Name (e.g. `"A"`).
    pub name: String,
    /// Peak compute demand in normalized units.
    pub peak_demand: f64,
    /// Dataset size (one copy).
    pub dataset_bytes: ByteSize,
}

/// The global training scheduler.
#[derive(Debug, Clone)]
pub struct GlobalScheduler {
    regions: Vec<Region>,
}

impl GlobalScheduler {
    /// Creates a scheduler over `regions`.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is empty.
    pub fn new(regions: Vec<Region>) -> Self {
        assert!(!regions.is_empty(), "need at least one region");
        Self { regions }
    }

    /// A five-region fleet with mildly heterogeneous capacity.
    pub fn five_regions(total_capacity: f64) -> Self {
        let shares = [0.3, 0.25, 0.2, 0.15, 0.1];
        Self::new(
            shares
                .iter()
                .enumerate()
                .map(|(i, s)| Region {
                    id: RegionId(i as u64 + 1),
                    compute_capacity: total_capacity * s,
                })
                .collect(),
        )
    }

    /// The regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Places `models` under `policy`.
    ///
    /// Balancing splits each model across all regions proportionally to
    /// region capacity (with deterministic jitter — real schedules are not
    /// perfectly proportional). Bin-packing greedily fills regions in
    /// capacity order, placing each model (largest first) on as few regions
    /// as cover its peak.
    pub fn place(
        &self,
        models: &[ModelWorkload],
        policy: PlacementPolicy,
        seed: u64,
    ) -> PlacementSummary {
        let mut rng = SplitMix64::new(seed);
        let mut demand_by_model_region = BTreeMap::new();
        let mut copies_per_model = BTreeMap::new();
        let mut stored = ByteSize::ZERO;
        let mut load: BTreeMap<RegionId, f64> = self.regions.iter().map(|r| (r.id, 0.0)).collect();

        match policy {
            PlacementPolicy::BalanceEverywhere => {
                let total_cap: f64 = self.regions.iter().map(|r| r.compute_capacity).sum();
                for m in models {
                    let mut per_region = BTreeMap::new();
                    let mut weights: Vec<f64> = self
                        .regions
                        .iter()
                        .map(|r| r.compute_capacity / total_cap * (0.7 + 0.6 * rng.next_f64()))
                        .collect();
                    let wsum: f64 = weights.iter().sum();
                    for w in &mut weights {
                        *w /= wsum;
                    }
                    for (r, w) in self.regions.iter().zip(weights) {
                        let d = m.peak_demand * w;
                        per_region.insert(r.id, d);
                        *load.get_mut(&r.id).expect("region exists") += d;
                    }
                    demand_by_model_region.insert(m.name.clone(), per_region);
                    copies_per_model.insert(m.name.clone(), self.regions.len() as u32);
                    stored += m.dataset_bytes * self.regions.len() as u64;
                }
            }
            PlacementPolicy::BinPack => {
                let mut order: Vec<&ModelWorkload> = models.iter().collect();
                order.sort_by(|a, b| b.peak_demand.partial_cmp(&a.peak_demand).expect("finite"));
                for m in order {
                    let mut per_region = BTreeMap::new();
                    let mut remaining = m.peak_demand;
                    let mut copies = 0u32;
                    // Fill regions with the most spare capacity first.
                    let mut regions: Vec<&Region> = self.regions.iter().collect();
                    regions.sort_by(|a, b| {
                        let spare_a = a.compute_capacity - load[&a.id];
                        let spare_b = b.compute_capacity - load[&b.id];
                        spare_b.partial_cmp(&spare_a).expect("finite")
                    });
                    let overflow_region = regions[0].id;
                    for r in regions {
                        if remaining <= 0.0 {
                            break;
                        }
                        let spare = (r.compute_capacity - load[&r.id]).max(0.0);
                        if spare <= 0.0 {
                            continue;
                        }
                        let take = spare.min(remaining);
                        per_region.insert(r.id, take);
                        *load.get_mut(&r.id).expect("region exists") += take;
                        remaining -= take;
                        copies += 1;
                    }
                    if remaining > 0.0 {
                        // No region has spare capacity: overcommit the
                        // largest region; the summary reports infeasibility.
                        *per_region.entry(overflow_region).or_insert(0.0) += remaining;
                        *load.get_mut(&overflow_region).expect("region exists") += remaining;
                        copies = copies.max(1);
                    }
                    demand_by_model_region.insert(m.name.clone(), per_region);
                    copies_per_model.insert(m.name.clone(), copies.max(1));
                    stored += m.dataset_bytes * copies.max(1) as u64;
                }
            }
        }
        let feasible = self
            .regions
            .iter()
            .all(|r| load[&r.id] <= r.compute_capacity * 1.0001);
        PlacementSummary {
            demand_by_model_region,
            stored_bytes: stored,
            copies_per_model,
            feasible,
        }
    }
}

/// The ten most-used models of Fig. 6, with demand normalized to model J
/// (descending A→J spans roughly an order of magnitude).
pub fn fig6_models(dataset_bytes: ByteSize) -> Vec<ModelWorkload> {
    let demands = [11.0, 8.5, 7.0, 5.2, 4.0, 3.1, 2.4, 1.8, 1.3, 1.0];
    demands
        .iter()
        .enumerate()
        .map(|(i, &d)| ModelWorkload {
            name: ((b'A' + i as u8) as char).to_string(),
            peak_demand: d,
            dataset_bytes,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models() -> Vec<ModelWorkload> {
        fig6_models(ByteSize::tib(10))
    }

    #[test]
    fn balancing_replicates_everywhere() {
        let sched = GlobalScheduler::five_regions(100.0);
        let summary = sched.place(&models(), PlacementPolicy::BalanceEverywhere, 1);
        assert!(summary.feasible);
        for copies in summary.copies_per_model.values() {
            assert_eq!(*copies, 5);
        }
        assert_eq!(
            summary.stored_bytes,
            ByteSize::tib(10) * 5 * 10 // 10 models × 5 copies
        );
        // Every model has demand in every region (Fig. 6 bars).
        for per_region in summary.demand_by_model_region.values() {
            assert_eq!(per_region.len(), 5);
            assert!(per_region.values().all(|&d| d > 0.0));
        }
    }

    #[test]
    fn bin_packing_cuts_replicated_storage() {
        let sched = GlobalScheduler::five_regions(100.0);
        let balanced = sched.place(&models(), PlacementPolicy::BalanceEverywhere, 1);
        let packed = sched.place(&models(), PlacementPolicy::BinPack, 1);
        assert!(packed.feasible);
        assert!(
            packed.stored_bytes < balanced.stored_bytes,
            "packed {} vs balanced {}",
            packed.stored_bytes,
            balanced.stored_bytes
        );
        // Most models should fit in very few regions.
        let mean_copies: f64 = packed
            .copies_per_model
            .values()
            .map(|&c| c as f64)
            .sum::<f64>()
            / packed.copies_per_model.len() as f64;
        assert!(mean_copies < 3.0, "mean copies {mean_copies:.1}");
    }

    #[test]
    fn placement_conserves_demand() {
        let sched = GlobalScheduler::five_regions(100.0);
        for policy in [PlacementPolicy::BalanceEverywhere, PlacementPolicy::BinPack] {
            let summary = sched.place(&models(), policy, 3);
            for m in models() {
                let placed: f64 = summary.demand_by_model_region[&m.name].values().sum();
                assert!(
                    (placed - m.peak_demand).abs() < 1e-6,
                    "{}: placed {placed} of {}",
                    m.name,
                    m.peak_demand
                );
            }
        }
    }

    #[test]
    fn oversubscribed_fleet_is_infeasible() {
        let sched = GlobalScheduler::five_regions(10.0); // demand sums to ~45
        let summary = sched.place(&models(), PlacementPolicy::BinPack, 1);
        assert!(!summary.feasible);
    }

    #[test]
    fn fig6_demand_spans_an_order_of_magnitude() {
        let m = models();
        assert_eq!(m.len(), 10);
        assert!(m[0].peak_demand / m[9].peak_demand >= 10.0);
        assert_eq!(m[0].name, "A");
        assert_eq!(m[9].name, "J");
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn empty_fleet_rejected() {
        GlobalScheduler::new(vec![]);
    }
}
