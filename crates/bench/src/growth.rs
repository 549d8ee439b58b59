//! Dataset size and ingestion bandwidth growth (Fig. 2).
//!
//! Over the two years before publication, cumulative training dataset size
//! grew over 2× and online ingestion bandwidth over 4×, driven by organic
//! user growth, reduced downsampling, more engineered features, and faster
//! trainers. The model composes those drivers multiplicatively per quarter.

/// One quarter's normalized fleet-level DSI demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthPoint {
    /// Quarter index (0 = two years ago).
    pub quarter: u32,
    /// Dataset size relative to quarter 0.
    pub dataset_size: f64,
    /// Online ingestion bandwidth relative to quarter 0.
    pub ingestion_bandwidth: f64,
}

/// Multiplicative quarterly growth model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthModel {
    /// Quarterly growth of logged samples (organic users + downsampling
    /// reduction).
    pub samples_q: f64,
    /// Quarterly growth of bytes per sample (engineered features).
    pub bytes_per_sample_q: f64,
    /// Quarterly growth of trainer consumption speed (DSA + software
    /// improvements) on top of data growth.
    pub trainer_speed_q: f64,
}

impl Default for GrowthModel {
    fn default() -> Self {
        // Calibrated to Fig. 2: size 2x and bandwidth 4x over 8 quarters
        // (1.047 * 1.047)^8 ≈ 2.08; additional trainer speedup
        // (1.09)^8 ≈ 2.0 takes bandwidth to ≈ 4.2x.
        Self {
            samples_q: 1.047,
            bytes_per_sample_q: 1.047,
            trainer_speed_q: 1.09,
        }
    }
}

impl GrowthModel {
    /// The growth trajectory over `quarters` quarters (inclusive of 0).
    pub fn trajectory(&self, quarters: u32) -> Vec<GrowthPoint> {
        (0..=quarters)
            .map(|q| {
                let size = (self.samples_q * self.bytes_per_sample_q).powi(q as i32);
                let bandwidth = size * self.trainer_speed_q.powi(q as i32);
                GrowthPoint {
                    quarter: q,
                    dataset_size: size,
                    ingestion_bandwidth: bandwidth,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_year_growth_matches_fig2() {
        let traj = GrowthModel::default().trajectory(8);
        let last = traj.last().unwrap();
        assert!(
            (2.0..2.3).contains(&last.dataset_size),
            "size growth {:.2}",
            last.dataset_size
        );
        assert!(
            (4.0..4.6).contains(&last.ingestion_bandwidth),
            "bandwidth growth {:.2}",
            last.ingestion_bandwidth
        );
    }

    #[test]
    fn trajectory_is_monotone() {
        let traj = GrowthModel::default().trajectory(8);
        assert_eq!(traj.len(), 9);
        assert!(traj.windows(2).all(|w| {
            w[0].dataset_size < w[1].dataset_size
                && w[0].ingestion_bandwidth < w[1].ingestion_bandwidth
        }));
        assert_eq!(traj[0].dataset_size, 1.0);
        assert_eq!(traj[0].ingestion_bandwidth, 1.0);
    }
}
