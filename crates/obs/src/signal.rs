//! Point-in-time tuner input signals sampled from a [`Registry`].
//!
//! A tuning policy reads one job's live metric stream — trainer stall
//! fraction, client fetch-latency tail, per-stage seconds — once per
//! control tick. [`SignalSnapshot`] is that read: one consistent-enough
//! sample of every signal a policy consumes, with every float routed
//! through [`finite_or_zero`] so a NaN published upstream (a 0/0 ratio,
//! an uninitialized gauge) can never poison a knob decision. A NaN that
//! reaches a comparison is false against every threshold, which is
//! exactly the failure that froze the old scaler on an empty fleet
//! (`empty_fleet_recovers_even_with_zero_min_workers`).

use crate::registry::{MetricValue, Registry};
use crate::{names, span, stage};

/// Maps non-finite readings (NaN, ±inf) to 0.0 — the tuner's "no signal"
/// value. Everything a [`SignalSnapshot`] exposes passes through here.
#[inline]
pub fn finite_or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// One control tick's view of one job, sampled from a registry: the
/// readings the tuning policies consume, nothing else.
///
/// Stage seconds are cumulative; a tuner diffing two snapshots should use
/// [`SignalSnapshot::delta`] to get per-tick movement. Absent series read
/// as zero, so sampling an empty registry yields an all-zero (never NaN)
/// snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SignalSnapshot {
    /// Fraction of trainer wall time spent data-stalled, in `[0, 1]`.
    pub stall_fraction: f64,
    /// Client batch-fetch latency p99, seconds.
    pub fetch_p99: f64,
    /// Cumulative extract-stage seconds (storage reads).
    pub extract_secs: f64,
    /// Cumulative transform-stage seconds (preprocessing).
    pub transform_secs: f64,
    /// Cumulative load-stage seconds (batching + shipping).
    pub load_secs: f64,
}

impl SignalSnapshot {
    /// Samples the series `job` wrote (`Registry::select` with `{job}`):
    /// two sessions sharing a registry each read their own. An empty `job`
    /// filters nothing — stage seconds sum over every job, the gauge and
    /// the quantile take the last and the worst series.
    pub fn sample(reg: &Registry, job: &str) -> Self {
        let series = |name: &str, stage: &str| {
            reg.select(name, &[("job", job), ("stage", stage)])
                .into_iter()
                .map(|(_, value)| value)
        };
        let stage_secs = |stage: &str| {
            finite_or_zero(series(span::STAGE_SECONDS, stage).map(|v| v.real()).sum())
        };
        Self {
            stall_fraction: series(names::TRAINER_STALL_FRACTION, "")
                .next_back()
                .map_or(0.0, |v| finite_or_zero(v.real()).clamp(0.0, 1.0)),
            fetch_p99: series(names::CLIENT_FETCH_SECONDS, "")
                .map(|v| match v {
                    MetricValue::Histogram(s) => finite_or_zero(s.p99),
                    _ => 0.0,
                })
                .fold(0.0, f64::max),
            extract_secs: stage_secs(stage::EXTRACT),
            transform_secs: stage_secs(stage::TRANSFORM),
            load_secs: stage_secs(stage::LOAD),
        }
    }

    /// Per-tick signal movement between `earlier` and `self`: cumulative
    /// stage sums become interval deltas (saturating at zero — a restarted
    /// registry never yields negative time), while the gauge and the
    /// quantile keep the newer reading.
    pub fn delta(&self, earlier: &SignalSnapshot) -> SignalSnapshot {
        SignalSnapshot {
            extract_secs: (self.extract_secs - earlier.extract_secs).max(0.0),
            transform_secs: (self.transform_secs - earlier.transform_secs).max(0.0),
            load_secs: (self.load_secs - earlier.load_secs).max(0.0),
            ..*self
        }
    }

    /// The pipeline stage carrying the most cumulative time, out of
    /// extract/transform/load. Returns `None` when no stage has run.
    pub fn dominant_stage(&self) -> Option<&'static str> {
        let rows = [
            (stage::EXTRACT, self.extract_secs),
            (stage::TRANSFORM, self.transform_secs),
            (stage::LOAD, self.load_secs),
        ];
        rows.iter()
            .filter(|(_, s)| *s > 0.0)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(name, _)| *name)
    }

    /// True when every field is exactly zero — the empty-registry (or
    /// not-yet-started pipeline) snapshot.
    pub fn is_zero(&self) -> bool {
        *self == SignalSnapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe_stage_seconds;

    #[test]
    fn empty_registry_snapshot_is_all_zero_never_nan() {
        let reg = Registry::new();
        let s = SignalSnapshot::sample(&reg, "sess1");
        assert!(s.is_zero(), "empty registry must read as zeros: {s:?}");
        assert_eq!(s.dominant_stage(), None);
    }

    #[test]
    fn empty_histogram_quantile_reads_zero() {
        // Registering the series without recording must behave like the
        // absent series: quantile(0.99) of nothing is 0.0, not NaN.
        let reg = Registry::new();
        reg.histogram(names::CLIENT_FETCH_SECONDS, &[("job", "sess1")]);
        let s = SignalSnapshot::sample(&reg, "sess1");
        assert_eq!(s.fetch_p99, 0.0);
        assert!(s.fetch_p99.is_finite());
    }

    #[test]
    fn nan_gauge_is_sanitized() {
        // A publisher computing 0/0 (e.g. a stall fraction over zero
        // elapsed time) must not freeze the tuner: NaN folds to 0.
        let reg = Registry::new();
        reg.gauge(names::TRAINER_STALL_FRACTION, &[]).set(f64::NAN);
        assert_eq!(SignalSnapshot::sample(&reg, "").stall_fraction, 0.0);
        reg.gauge(names::TRAINER_STALL_FRACTION, &[])
            .set(f64::INFINITY);
        assert_eq!(SignalSnapshot::sample(&reg, "").stall_fraction, 0.0);
    }

    #[test]
    fn populated_registry_round_trips_signals() {
        let reg = Registry::new();
        let job = [("job", "sess1")];
        reg.gauge(names::TRAINER_STALL_FRACTION, &job).set(0.4);
        observe_stage_seconds(&reg, "sess1", stage::EXTRACT, 3.0);
        observe_stage_seconds(&reg, "sess1", stage::TRANSFORM, 1.0);
        for _ in 0..100 {
            reg.histogram(names::CLIENT_FETCH_SECONDS, &job)
                .record(0.02);
        }
        let s = SignalSnapshot::sample(&reg, "sess1");
        assert!((s.stall_fraction - 0.4).abs() < 1e-12);
        assert_eq!((s.extract_secs, s.transform_secs), (3.0, 1.0));
        assert_eq!(s.dominant_stage(), Some(stage::EXTRACT));
        assert!(s.fetch_p99 > 0.0, "recorded latency surfaces in p99");
    }

    #[test]
    fn delta_yields_interval_rates_and_keeps_gauges() {
        let a = SignalSnapshot {
            load_secs: 2.0,
            stall_fraction: 0.5,
            ..Default::default()
        };
        let b = SignalSnapshot {
            load_secs: 2.5,
            stall_fraction: 0.2,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert!((d.load_secs - 0.5).abs() < 1e-12);
        assert_eq!(d.stall_fraction, 0.2, "gauge keeps newest reading");
        // Restarted registry (sums went backwards): clamp, no negatives.
        assert_eq!(a.delta(&b).load_secs, 0.0);
    }

    #[test]
    fn job_labeled_stall_fraction_is_read() {
        let reg = Registry::new();
        reg.gauge(names::TRAINER_STALL_FRACTION, &[("job", "rm1")])
            .set(0.7);
        observe_stage_seconds(&reg, "rm1", stage::LOAD, 2.0);
        observe_stage_seconds(&reg, "rm2", stage::LOAD, 5.0);
        let rm1 = SignalSnapshot::sample(&reg, "rm1");
        assert!((rm1.stall_fraction - 0.7).abs() < 1e-12);
        assert_eq!(rm1.load_secs, 2.0);
        let rm2 = SignalSnapshot::sample(&reg, "rm2");
        assert_eq!((rm2.stall_fraction, rm2.load_secs), (0.0, 5.0));
        // No job, no filter: the whole registry.
        assert_eq!(SignalSnapshot::sample(&reg, "").load_secs, 7.0);
    }
}
