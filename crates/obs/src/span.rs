//! Stage time: the stage names, the two stage series, and the one call
//! that records seconds against a `(job, stage)`.
//!
//! Three places start and stop a stage and call it: the worker loop's
//! bracket (`transform`, `load`), the DWRF reader's telemetry block
//! (`extract` = storage fetch, `decompress`, `deserialize` — disjoint, so
//! the three add up to what the worker calls extract), and the trainer's
//! stall publish (`stall`).

use crate::registry::Registry;

/// Canonical stage names, matching the paper's ETL/DPP breakdown.
pub mod stage {
    /// Reading bytes out of storage.
    pub const EXTRACT: &str = "extract";
    /// Feature preprocessing on raw rows.
    pub const TRANSFORM: &str = "transform";
    /// Batching and shipping tensors to trainers.
    pub const LOAD: &str = "load";
    /// Transport encryption (datacenter tax).
    pub const TLS: &str = "tls";
    /// Wire-format decode (datacenter tax).
    pub const DESERIALIZE: &str = "deserialize";
    /// Stripe decompression.
    pub const DECOMPRESS: &str = "decompress";
    /// Trainer waiting on input batches.
    pub const STALL: &str = "stall";
}

/// Series name for per-stage wall time (histogram of span durations).
pub const STAGE_SECONDS: &str = "dsi_stage_seconds";
/// Series name for per-stage simulated cycles (counter).
pub const STAGE_CYCLES_TOTAL: &str = "dsi_stage_cycles_total";

/// Records `seconds` into `dsi_stage_seconds{job, stage}`. `job` is the
/// session the caller runs for; a caller outside any session passes `""`
/// and lands on `{stage}` alone.
pub fn observe_stage_seconds(registry: &Registry, job: &str, stage: &str, seconds: f64) {
    registry
        .histogram(STAGE_SECONDS, &[("job", job), ("stage", stage)])
        .record(seconds);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricValue;

    #[test]
    fn observed_seconds_merge_with_timed_spans() {
        let r = Registry::new();
        observe_stage_seconds(&r, "", stage::DECOMPRESS, 0.25);
        observe_stage_seconds(&r, "", stage::DECOMPRESS, 0.75);
        observe_stage_seconds(&r, "sess1", stage::DECOMPRESS, 2.0);
        match r.value(STAGE_SECONDS, &[("stage", "decompress")]) {
            Some(MetricValue::Histogram(s)) => {
                assert_eq!(s.count, 2);
                assert!((s.sum - 1.0).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        let labeled = [("job", "sess1"), ("stage", "decompress")];
        match r.value(STAGE_SECONDS, &labeled) {
            Some(MetricValue::Histogram(s)) => assert_eq!((s.count, s.sum), (1, 2.0)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
