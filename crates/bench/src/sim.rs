//! Virtual-time pipeline simulation for tuner evaluation.
//!
//! An analytic session in virtual time, built on a pipeline model
//! in which every knob matters: per-worker supply is the minimum of an
//! extract stage (storage fetch latency hidden by `read_ahead`), a
//! transform stage (no knob of its own: only more workers relieve it),
//! and a load stage (fixed per-batch overhead amortized by `batch_size`). The
//! trainer drains an aggregate sample buffer; a tick with an empty
//! buffer and a supply deficit is (fractionally) stalled. Each tick the
//! sim synthesizes the same [`TunerSignals`] a live session would
//! publish and lets a [`TunerPolicy`] move the knobs, so the static
//! watermark scaler and the closed-loop tuner compete on identical,
//! deterministic scenarios.

use dpp::{
    AutoScaler, KnobBounds, Knobs, OnlineTuner, ScalerConfig, TunerConfig, TunerPolicy,
    TunerSignals,
};
use dsi_obs::SignalSnapshot;

/// One benchmark scenario: a workload shape plus knob fences.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable scenario name for reports.
    pub name: &'static str,
    /// Trainer demand in samples/s (base; see `diurnal_amplitude`).
    pub demand_qps: f64,
    /// Per-worker extract throughput at full fetch/compute overlap.
    pub extract_qps: f64,
    /// Fraction of extract wall time blocked on storage fetch when
    /// `read_ahead == 0`; each read-ahead step overlaps one more fetch.
    pub fetch_duty: f64,
    /// Storage fetch latency, seconds (feeds the synthesized fetch p99).
    pub fetch_latency: f64,
    /// Per-worker transform throughput, samples/s.
    pub transform_qps: f64,
    /// Load-stage per-sample service time, seconds.
    pub load_per_sample: f64,
    /// Load-stage fixed overhead per produced batch, seconds.
    pub batch_overhead: f64,
    /// Relative diurnal swing of demand (0 = constant).
    pub diurnal_amplitude: f64,
    /// Diurnal period, virtual seconds.
    pub diurnal_period: f64,
    /// Optional mid-run hardware loss: at time `.0`, `.1` workers die.
    pub node_loss_at: Option<(f64, usize)>,
    /// Per-worker buffer capacity, in batches.
    pub buffer_batches: f64,
    /// Knob fences both competing policies honor.
    pub bounds: KnobBounds,
    /// Starting knob setting.
    pub initial: Knobs,
    /// Seconds between controller ticks.
    pub tick_secs: f64,
    /// Virtual run length, seconds.
    pub duration_secs: f64,
    /// Stall fraction under which the run counts as converged.
    pub stall_target: f64,
}

impl Scenario {
    fn base() -> Self {
        Self {
            name: "base",
            demand_qps: 100_000.0,
            extract_qps: 12_000.0,
            fetch_duty: 0.0,
            fetch_latency: 0.02,
            transform_qps: 20_000.0,
            load_per_sample: 1.0 / 50_000.0,
            batch_overhead: 0.0005,
            diurnal_amplitude: 0.0,
            diurnal_period: 600.0,
            node_loss_at: None,
            buffer_batches: 8.0,
            bounds: KnobBounds {
                workers: (1, 16),
                read_ahead: (0, 4),
                batch_size: (16, 256),
            },
            initial: Knobs {
                workers: 2,
                read_ahead: 0,
                batch_size: 32,
            },
            tick_secs: 5.0,
            duration_secs: 2_000.0,
            stall_target: 0.02,
        }
    }

    /// Extract-bound: storage fetch latency caps per-worker supply at
    /// 40% of its decode rate. Buying workers hits the fleet ceiling
    /// before meeting demand; hiding the fetch (`read_ahead`) fixes it.
    pub fn extract_bound() -> Self {
        Self {
            name: "extract-bound",
            fetch_duty: 0.6,
            ..Self::base()
        }
    }

    /// Trainer-bound: fixed per-batch overhead on the load/fetch path
    /// dominates at small batches; only `batch_size` amortizes it.
    pub fn trainer_bound() -> Self {
        Self {
            name: "trainer-bound",
            demand_qps: 120_000.0,
            extract_qps: 25_000.0,
            transform_qps: 25_000.0,
            load_per_sample: 1.0 / 16_000.0,
            batch_overhead: 0.004,
            ..Self::base()
        }
    }

    /// Diurnal load: demand swings ±40% on a 10-minute period; the
    /// controller must grow into every peak without stalling.
    pub fn diurnal() -> Self {
        Self {
            name: "diurnal",
            demand_qps: 80_000.0,
            extract_qps: 12_000.0,
            transform_qps: 15_000.0,
            diurnal_amplitude: 0.4,
            bounds: KnobBounds {
                workers: (1, 24),
                ..Self::base().bounds
            },
            duration_secs: 3_000.0,
            ..Self::base()
        }
    }

    /// One pipeline stage at `per_worker_qps` and no knob but the worker
    /// count: every other axis is frozen (no read-ahead, `batch_size`
    /// samples per batch), the fleet starts at one worker under
    /// the default ceiling, and the controller ticks every 10 s.
    /// Freeze the worker axis too and the run is a plain supply-vs-demand
    /// buffer whose stall fraction is `1 - supply/demand`.
    pub fn single_stage(
        name: &'static str,
        demand_qps: f64,
        per_worker_qps: f64,
        batch_size: usize,
    ) -> Self {
        let initial = Knobs {
            workers: 1,
            read_ahead: 0,
            batch_size,
        };
        Self {
            name,
            demand_qps,
            extract_qps: per_worker_qps,
            transform_qps: f64::INFINITY,
            load_per_sample: 0.0,
            batch_overhead: 0.0,
            bounds: KnobBounds {
                workers: KnobBounds::default().workers,
                read_ahead: (0, 0),
                batch_size: (batch_size, batch_size),
            },
            initial,
            tick_secs: 10.0,
            ..Self::base()
        }
    }

    /// The three benchmark scenarios, in report order.
    pub fn all() -> Vec<Scenario> {
        vec![
            Self::extract_bound(),
            Self::trainer_bound(),
            Self::diurnal(),
        ]
    }

    /// Shrinks the run for CI smoke (same shape, quarter duration).
    pub fn smoke(mut self) -> Self {
        self.duration_secs = (self.duration_secs / 4.0).max(400.0);
        self
    }

    /// The static watermark baseline for this scenario's worker fences.
    pub fn static_policy(&self) -> AutoScaler {
        AutoScaler::new(ScalerConfig {
            min_workers: self.bounds.workers.0,
            max_workers: self.bounds.workers.1,
            ..ScalerConfig::default()
        })
    }

    /// The closed-loop tuner under this scenario's fences and stall target.
    pub fn tuner(&self) -> OnlineTuner {
        OnlineTuner::new(TunerConfig {
            bounds: self.bounds,
            stall_target: self.stall_target,
            ..TunerConfig::default()
        })
    }

    /// Instantaneous demand at virtual time `t`.
    pub fn demand_at(&self, t: f64) -> f64 {
        if self.diurnal_amplitude == 0.0 {
            return self.demand_qps;
        }
        let phase = 2.0 * std::f64::consts::PI * t / self.diurnal_period;
        self.demand_qps * (1.0 + self.diurnal_amplitude * phase.sin())
    }

    /// Per-worker extract throughput at `read_ahead` depth: each step of
    /// read-ahead overlaps one more in-flight fetch with compute, until
    /// the fetch is fully hidden.
    pub fn extract_rate(&self, knobs: &Knobs) -> f64 {
        let overlap = ((1.0 - self.fetch_duty) * (1.0 + knobs.read_ahead as f64)).min(1.0);
        self.extract_qps * overlap
    }

    /// Per-worker load throughput at `batch_size`: the fixed per-batch
    /// overhead is amortized across the batch's samples.
    pub fn load_rate(&self, knobs: &Knobs) -> f64 {
        let b = knobs.batch_size.max(1) as f64;
        b / (self.batch_overhead + b * self.load_per_sample)
    }

    /// Per-worker supply: the slowest pipeline stage.
    pub fn per_worker_qps(&self, knobs: &Knobs) -> f64 {
        self.extract_rate(knobs)
            .min(self.transform_qps)
            .min(self.load_rate(knobs))
    }
}

/// One sampled controller tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunePoint {
    /// Virtual time, seconds.
    pub t: f64,
    /// Knobs in force during this tick.
    pub knobs: Knobs,
    /// Fraction of this tick the trainer spent stalled.
    pub stall: f64,
    /// Aggregate buffered samples at tick end.
    pub buffered: f64,
    /// Aggregate supply, samples/s.
    pub supply: f64,
}

/// Result of one policy's run over a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneTrace {
    /// Policy name the trace was produced by.
    pub policy: String,
    /// Sampled points, one per tick.
    pub points: Vec<TunePoint>,
    /// Stall fraction over the whole run.
    pub stall_fraction: f64,
    /// Mean stall fraction over the final third (steady state).
    pub steady_stall: f64,
    /// First virtual time after which the *remaining* run's mean stall
    /// stays under the scenario target; the full duration if never.
    pub time_to_converge: f64,
    /// Mean worker cost (worker-seconds per second).
    pub mean_workers: f64,
    /// Knobs at run end.
    pub final_knobs: Knobs,
}

impl TuneTrace {
    /// `initial` is what a zero-length run ends on: no tick ever moved it.
    fn from_points(
        points: Vec<TunePoint>,
        initial: Knobs,
        duration: f64,
        target: f64,
        policy: &str,
    ) -> Self {
        let n = points.len().max(1);
        let total: f64 = points.iter().map(|p| p.stall).sum();
        let tail = &points[points.len() - points.len().div_ceil(3)..];
        let steady = tail.iter().map(|p| p.stall).sum::<f64>() / tail.len().max(1) as f64;
        // Sliding-window means, scanned from the end: convergence is the
        // earliest time after which every window stays under target — an
        // isolated exploration blip is diluted by its window, sustained
        // residual stall is not (and a long calm tail cannot launder a
        // stalled warm-up the way a whole-suffix mean would).
        let w = (n / 20).max(3).min(n);
        let windowed = |i: usize| {
            let end = (i + w).min(points.len());
            points[i..end].iter().map(|p| p.stall).sum::<f64>() / (end - i) as f64
        };
        // A run with no ticks never stalled: converged at time 0.
        let mut time_to_converge = if points.is_empty() { 0.0 } else { duration };
        for (i, p) in points.iter().enumerate().rev() {
            if windowed(i) < target {
                time_to_converge = p.t;
            } else {
                break;
            }
        }
        let mean_workers = points.iter().map(|p| p.knobs.workers as f64).sum::<f64>() / n as f64;
        Self {
            policy: policy.to_string(),
            stall_fraction: total / n as f64,
            steady_stall: steady,
            time_to_converge,
            mean_workers,
            final_knobs: points.last().map_or(initial, |p| p.knobs),
            points,
        }
    }
}

/// Runs `policy` over `scenario` in virtual time, synthesizing the live
/// signal stream each tick. Fully deterministic.
pub fn run_scenario(scenario: &Scenario, policy: &mut dyn TunerPolicy) -> TuneTrace {
    let bounds = scenario.bounds;
    let initial = bounds.clamp(scenario.initial);
    let mut knobs = initial;
    let mut buffered = 0.0f64; // samples, aggregate
    let mut points = Vec::new();
    let mut lost = false;

    // Cumulative synthesized signal state.
    let mut extract_secs = 0.0f64;
    let mut transform_secs = 0.0f64;
    let mut load_secs = 0.0f64;

    let mut t = 0.0;
    while t < scenario.duration_secs {
        if let Some((at, k)) = scenario.node_loss_at {
            if !lost && t >= at {
                lost = true;
                knobs.workers = knobs.workers.saturating_sub(k).max(bounds.workers.0);
            }
        }
        let demand = scenario.demand_at(t);
        let per_worker = scenario.per_worker_qps(&knobs);
        let supply = knobs.workers as f64 * per_worker;
        let cap = knobs.workers as f64 * scenario.buffer_batches * knobs.batch_size as f64;

        // Integrate the buffer over the tick; a deficit first drains the
        // buffer, then stalls the trainer for the uncovered remainder.
        let net = (supply - demand) * scenario.tick_secs;
        let stall = if net >= 0.0 || buffered + net >= 0.0 {
            0.0
        } else {
            // Seconds of the tick the trainer had neither supply nor
            // buffer, as a fraction, weighted by the deficit depth.
            let uncovered = -(buffered + net);
            (uncovered / (demand * scenario.tick_secs)).clamp(0.0, 1.0)
        };
        buffered = (buffered + net).clamp(0.0, cap);

        // Synthesized per-stage busy time: samples served over each
        // stage's per-worker rate — the bottleneck stage accumulates the
        // most, exactly like real span telemetry.
        let served = demand * scenario.tick_secs * (1.0 - stall);
        let pw = knobs.workers.max(1) as f64;
        extract_secs += served / (scenario.extract_rate(&knobs) * pw);
        transform_secs += served / (scenario.transform_qps * pw);
        load_secs += served / (scenario.load_rate(&knobs) * pw);

        points.push(TunePoint {
            t,
            knobs,
            stall,
            buffered,
            supply,
        });

        // Controller tick over the synthesized signal stream.
        let fetch_hidden = ((1.0 - scenario.fetch_duty) * (1.0 + knobs.read_ahead as f64)).min(1.0);
        let snapshot = SignalSnapshot {
            stall_fraction: stall,
            fetch_p99: scenario.fetch_latency * (1.0 - fetch_hidden).max(0.0) * 10.0,
            extract_secs,
            transform_secs,
            load_secs,
        };
        let signals = TunerSignals {
            snapshot,
            mean_buffered: buffered / knobs.batch_size as f64 / pw,
            mean_utilization: (demand / supply.max(1e-9)).min(1.0),
            live_workers: knobs.workers,
        };
        knobs = bounds.clamp(policy.decide(&signals, &knobs));
        t += scenario.tick_secs;
    }
    TuneTrace::from_points(
        points,
        initial,
        scenario.duration_secs,
        scenario.stall_target,
        policy.name(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn static_scaler_right_sizes_a_worker_bound_fleet() {
        // Demand worth 24 workers, ramping from 1 (the `figures fleet`
        // shape).
        let s = Scenario {
            duration_secs: 4_000.0,
            ..Scenario::single_stage("worker-bound", 240_000.0, 10_000.0, 32)
        };
        let trace = run_scenario(&s, &mut s.static_policy());
        let ideal = s.demand_qps / s.per_worker_qps(&s.initial);
        let converged = trace.final_knobs.workers as f64;
        assert!(
            (ideal..=ideal * 1.8).contains(&converged),
            "final {converged} vs ideal {ideal:.1}"
        );
        // Early stalls while ramping, none once converged.
        let late = &trace.points[trace.points.len() / 2..];
        assert!(late.iter().all(|p| p.stall == 0.0), "stalls after ramp-up");
    }

    #[test]
    fn frozen_fleet_stalls_by_its_supply_deficit() {
        // A supply-vs-demand buffer with nothing to tune: the trainer is
        // stalled for exactly the share of demand the supply cannot cover.
        // The last row is Table VII's operating point (RM1 preprocessed on
        // the trainer host: supply 0.44x of demand, stalled 56%).
        for (supply, stall) in [(1000.0, 0.0), (50.0, 0.5), (44.0, 0.56)] {
            let mut s = Scenario::single_stage("frozen", 100.0, supply, 1);
            s.bounds = s.bounds.freeze(0, 1);
            let trace = run_scenario(&s, &mut s.static_policy());
            assert_eq!(trace.final_knobs, s.initial);
            assert!(
                (trace.stall_fraction - stall).abs() < 1e-9,
                "supply {supply}: stall {:.4}",
                trace.stall_fraction
            );
        }
    }

    #[test]
    fn static_scaler_cannot_fix_extract_bound() {
        let s = Scenario::extract_bound();
        let trace = run_scenario(&s, &mut s.static_policy());
        // Pegged at the fleet ceiling and still short of demand.
        assert_eq!(trace.final_knobs.workers, s.bounds.workers.1);
        assert!(
            trace.steady_stall > 0.1,
            "steady stall {:.3} should stay high",
            trace.steady_stall
        );
        assert_eq!(trace.time_to_converge, s.duration_secs, "never converges");
    }

    #[test]
    fn tuner_fixes_extract_bound_via_read_ahead() {
        let s = Scenario::extract_bound();
        let trace = run_scenario(&s, &mut s.tuner());
        assert!(
            trace.final_knobs.read_ahead > 0,
            "tuner should raise read_ahead, got {:?}",
            trace.final_knobs
        );
        assert!(
            trace.steady_stall < s.stall_target,
            "steady stall {:.4}",
            trace.steady_stall
        );
        assert!(trace.time_to_converge < s.duration_secs / 2.0);
    }

    #[test]
    fn tuner_fixes_trainer_bound_via_batch_size() {
        let s = Scenario::trainer_bound();
        let static_trace = run_scenario(&s, &mut s.static_policy());
        let tuned = run_scenario(&s, &mut s.tuner());
        assert!(
            tuned.final_knobs.batch_size > s.initial.batch_size,
            "{:?}",
            tuned.final_knobs
        );
        assert!(
            tuned.steady_stall < s.stall_target,
            "{:.4}",
            tuned.steady_stall
        );
        assert!(static_trace.steady_stall > 0.1);
    }

    #[test]
    fn diurnal_load_converges_for_both_policies() {
        let s = Scenario::diurnal();
        let static_trace = run_scenario(&s, &mut s.static_policy());
        let tuned = run_scenario(&s, &mut s.tuner());
        // Capacity is sufficient here; both policies must track the swing
        // and end converged (the tuner may trail slightly while it pays
        // for exploration, but not by a visible stall).
        assert!(
            static_trace.steady_stall < s.stall_target,
            "static {:.4}",
            static_trace.steady_stall
        );
        assert!(
            tuned.steady_stall < s.stall_target,
            "tuned {:.4}",
            tuned.steady_stall
        );
    }

    #[test]
    fn node_loss_mid_run_is_regrown() {
        let mut s = Scenario::diurnal();
        s.node_loss_at = Some((1_500.0, 6));
        let tuned = run_scenario(&s, &mut s.tuner());
        // Lost capacity comes back: the run still ends converged.
        assert!(
            tuned.steady_stall < 0.05,
            "steady stall {:.4} after node loss",
            tuned.steady_stall
        );
        assert!(tuned.final_knobs.workers >= s.bounds.workers.0);
    }

    #[test]
    fn bounds_hold_at_every_simulated_tick() {
        for s in Scenario::all() {
            let trace = run_scenario(&s, &mut s.tuner());
            for p in &trace.points {
                let b = s.bounds;
                assert!(p.knobs.workers >= b.workers.0 && p.knobs.workers <= b.workers.1);
                assert!(
                    p.knobs.read_ahead >= b.read_ahead.0 && p.knobs.read_ahead <= b.read_ahead.1
                );
                assert!(
                    p.knobs.batch_size >= b.batch_size.0 && p.knobs.batch_size <= b.batch_size.1
                );
            }
        }
    }

    #[test]
    fn zero_length_run_is_an_empty_trace_converged_at_zero() {
        for duration_secs in [0.0, -5.0] {
            let s = Scenario {
                duration_secs,
                ..Scenario::extract_bound()
            };
            let trace = run_scenario(&s, &mut s.tuner());
            assert!(trace.points.is_empty());
            assert_eq!(trace.time_to_converge, 0.0);
            assert_eq!(trace.stall_fraction, 0.0);
            assert_eq!(trace.steady_stall, 0.0);
            assert_eq!(trace.mean_workers, 0.0);
            assert_eq!(trace.final_knobs, s.bounds.clamp(s.initial));
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let s = Scenario::extract_bound();
        let a = run_scenario(&s, &mut s.tuner());
        let b = run_scenario(&s, &mut s.tuner());
        assert_eq!(a.points, b.points);
    }
}
