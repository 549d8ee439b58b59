//! Fleet-wide training demand over time (§IV-B, Fig. 5).
//!
//! Each model alternates explore baselines with combo bursts; summing the
//! collaborative jobs of all models over a year yields a demand series with
//! distinct peaks wherever several models' combo windows overlap. Combo
//! jobs are on the critical path of model release, so datacenters must be
//! provisioned for those peaks, not the average.

use super::release::{JobKind, ReleaseConfig, ReleaseProcess};

/// One point of the demand series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandPoint {
    /// Day index.
    pub day: u32,
    /// Total normalized compute demand.
    pub total: f64,
    /// Of which combo jobs.
    pub combo: f64,
}

/// Generates fleet demand from per-model release cadences.
#[derive(Debug, Clone)]
pub struct DemandModel {
    /// Number of models training collaboratively.
    pub models: u32,
    /// Days between release iterations per model.
    pub cadence_days: u32,
    /// Release-process shape shared by models.
    pub release: ReleaseConfig,
}

impl Default for DemandModel {
    fn default() -> Self {
        Self {
            models: 12,
            cadence_days: 56,
            release: ReleaseConfig::default(),
        }
    }
}

impl DemandModel {
    /// Simulates `days` of fleet demand. Models start their iterations at
    /// staggered offsets, but several share phase — producing the peaks of
    /// Fig. 5.
    pub fn series(&self, days: u32, seed: u64) -> Vec<DemandPoint> {
        let process = ReleaseProcess::new(self.release);
        let mut total = vec![0.0f64; days as usize];
        let mut combo = vec![0.0f64; days as usize];
        for m in 0..self.models {
            // Staggering: models cluster into a few phase groups (teams
            // align releases with company cycles), so peaks overlap.
            let group = m % 3;
            let offset = group * self.cadence_days / 3;
            let mut iteration = 0u64;
            let mut start = offset;
            while start < days {
                let jobs = process.generate_iteration(seed ^ (m as u64) << 32 ^ iteration);
                for job in jobs {
                    let s = start as f64 + job.submit_day;
                    let e = s + job.duration_days;
                    let rate = job.compute_units / job.duration_days.max(1e-9);
                    let lo = s.floor().max(0.0) as usize;
                    let hi = (e.ceil() as usize).min(days as usize);
                    for slot in lo..hi {
                        let day = slot as f64;
                        let overlap = (e.min(day + 1.0) - s.max(day)).clamp(0.0, 1.0);
                        total[slot] += rate * overlap;
                        if job.kind == JobKind::Combo {
                            combo[slot] += rate * overlap;
                        }
                    }
                }
                iteration += 1;
                start += self.cadence_days;
            }
        }
        let peak = total.iter().cloned().fold(0.0, f64::max).max(1e-9);
        (0..days)
            .map(|d| DemandPoint {
                day: d,
                total: total[d as usize] / peak,
                combo: combo[d as usize] / peak,
            })
            .collect()
    }

    /// Peak-to-mean ratio of a series — the over-provisioning factor peaks
    /// force on the fleet.
    pub fn peak_to_mean(series: &[DemandPoint]) -> f64 {
        let peak = series.iter().map(|p| p.total).fold(0.0, f64::max);
        let mean = series.iter().map(|p| p.total).sum::<f64>() / series.len().max(1) as f64;
        if mean == 0.0 {
            0.0
        } else {
            peak / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_is_normalized_with_peaks() {
        let series = DemandModel::default().series(364, 42);
        assert_eq!(series.len(), 364);
        let peak = series.iter().map(|p| p.total).fold(0.0, f64::max);
        assert!((peak - 1.0).abs() < 1e-9);
        let ratio = DemandModel::peak_to_mean(&series);
        assert!(
            ratio > 1.4,
            "fig 5 demand should be peaky, peak/mean {ratio:.2}"
        );
    }

    #[test]
    fn peaks_are_combo_driven() {
        let series = DemandModel::default().series(364, 7);
        // At the global peak, combo jobs dominate demand.
        let peak = series
            .iter()
            .max_by(|a, b| a.total.partial_cmp(&b.total).unwrap())
            .unwrap();
        assert!(
            peak.combo / peak.total > 0.6,
            "combo share at peak {:.2}",
            peak.combo / peak.total
        );
        // In the quietest decile, combo share is lower than at the peak.
        let mut sorted: Vec<&DemandPoint> = series.iter().collect();
        sorted.sort_by(|a, b| a.total.partial_cmp(&b.total).unwrap());
        let quiet_combo: f64 = sorted[..36]
            .iter()
            .map(|p| p.combo / p.total.max(1e-9))
            .sum::<f64>()
            / 36.0;
        assert!(quiet_combo < peak.combo / peak.total);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = DemandModel::default();
        assert_eq!(m.series(100, 1), m.series(100, 1));
    }

    #[test]
    fn more_models_smooth_relative_variance_but_keep_peaks() {
        let few = DemandModel {
            models: 3,
            ..Default::default()
        }
        .series(364, 9);
        let many = DemandModel {
            models: 24,
            ..Default::default()
        }
        .series(364, 9);
        assert!(DemandModel::peak_to_mean(&many) <= DemandModel::peak_to_mean(&few) * 1.5);
        assert!(DemandModel::peak_to_mean(&many) > 1.2);
    }
}
