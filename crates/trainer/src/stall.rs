//! The data-stall report a trainer run returns.
//!
//! The GPU stalls whenever no tensor is buffered at iteration start — the
//! condition DPP's buffered tensors are sized against (§III-B1:
//! "maintaining a non-zero number of buffered tensors").

use serde::{Deserialize, Serialize};

/// How long a trainer ran and how much of that it waited for data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StallReport {
    /// Batches consumed.
    pub batches: u64,
    /// Total seconds.
    pub elapsed_secs: f64,
    /// Seconds the GPU spent waiting for data.
    pub stalled_secs: f64,
    /// `stalled_secs / elapsed_secs`.
    pub stall_fraction: f64,
}

impl StallReport {
    /// Publishes this report into `registry` under `job` (the session the
    /// trainer consumes; sessions sharing a registry never collide): the
    /// data-stall fraction, stalled/elapsed wall-time gauges, the
    /// consumed-batch counter, and one `stall` stage observation carrying
    /// the total stalled time (so the pipeline report's stage table shows
    /// where the GPU waited).
    pub fn publish_metrics(&self, registry: &dsi_obs::Registry, job: &str) {
        use dsi_obs::names;
        let labels = [("job", job)];
        registry
            .gauge(names::TRAINER_STALL_FRACTION, &labels)
            .set(self.stall_fraction);
        registry
            .gauge(names::TRAINER_STALLED_SECONDS, &labels)
            .set(self.stalled_secs);
        registry
            .gauge(names::TRAINER_ELAPSED_SECONDS, &labels)
            .set(self.elapsed_secs);
        registry
            .counter(names::TRAINER_BATCHES_TOTAL, &labels)
            .add(self.batches);
        dsi_obs::observe_stage_seconds(registry, job, dsi_obs::stage::STALL, self.stalled_secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_publishes_stall_metrics() {
        use dsi_obs::names;
        let r = StallReport {
            batches: 1_000,
            elapsed_secs: 20.0,
            stalled_secs: 10.0,
            stall_fraction: 0.5,
        };
        let reg = dsi_obs::Registry::new();
        r.publish_metrics(&reg, "sess1");
        let job = [("job", "sess1")];
        assert!(
            (reg.gauge_value(names::TRAINER_STALL_FRACTION, &job) - r.stall_fraction).abs() < 1e-12
        );
        assert!(
            (reg.gauge_value(names::TRAINER_STALLED_SECONDS, &job) - r.stalled_secs).abs() < 1e-12
        );
        assert_eq!(reg.counter_value(names::TRAINER_BATCHES_TOTAL, &job), 1_000);
        // The stall stage carries the GPU's waiting time.
        let stall = reg
            .histogram(
                dsi_obs::span::STAGE_SECONDS,
                &[("job", "sess1"), ("stage", dsi_obs::stage::STALL)],
            )
            .snapshot();
        assert_eq!(stall.count, 1);
        assert!((stall.sum - r.stalled_secs).abs() < 1e-12);
    }
}
