//! The Master's auto-scaling controller.
//!
//! The controller collects utilization (CPU, memory, network) statistics
//! and the number of buffered tensors from each Worker, then periodically
//! computes how many Workers to launch or drain, targeting a non-zero
//! buffered-tensor count (trainer demand met — no data stalls) at maximal
//! utilization (no over-provisioning) — §III-B1.
//!
//! [`AutoScaler`] is that rule as a [`TunerPolicy`]: it reads the two
//! fleet means and the live worker count out of [`TunerSignals`] and
//! moves only the worker axis. It is the baseline every joint-tuning
//! comparison (`figures autotune`, `figures fleet`) runs against.

use crate::tuning::{KnobBounds, Knobs, TunerPolicy, TunerSignals};
use serde::{Deserialize, Serialize};

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalerConfig {
    /// Never drop below this many workers.
    pub min_workers: usize,
    /// Never exceed this many workers.
    pub max_workers: usize,
    /// Scale up when mean buffered tensors per worker falls below this.
    pub low_buffer_watermark: f64,
    /// Consider scaling down when mean buffered tensors per worker
    /// exceeds this.
    pub high_buffer_watermark: f64,
    /// Only scale down when mean max-utilization is below this (workers
    /// are idle enough that fewer can carry the load).
    pub scale_down_utilization: f64,
    /// Fraction of the fleet added/removed per decision.
    pub step_fraction: f64,
}

impl Default for ScalerConfig {
    fn default() -> Self {
        Self {
            min_workers: 1,
            max_workers: 512,
            low_buffer_watermark: 1.0,
            high_buffer_watermark: 6.0,
            scale_down_utilization: 0.5,
            step_fraction: 0.25,
        }
    }
}

/// The auto-scaling controller.
#[derive(Debug, Clone)]
pub struct AutoScaler {
    config: ScalerConfig,
    /// Consecutive ticks that wanted a scale-down (hysteresis).
    down_streak: u32,
}

impl AutoScaler {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if the config is inconsistent (`min > max`, non-positive
    /// step, or watermarks out of order).
    pub fn new(config: ScalerConfig) -> Self {
        assert!(config.min_workers <= config.max_workers, "min <= max");
        assert!(config.step_fraction > 0.0, "step must be positive");
        assert!(
            config.low_buffer_watermark < config.high_buffer_watermark,
            "watermarks must be ordered"
        );
        Self {
            config,
            down_streak: 0,
        }
    }
}

impl Default for AutoScaler {
    fn default() -> Self {
        Self::new(ScalerConfig::default())
    }
}

impl TunerPolicy for AutoScaler {
    fn name(&self) -> &'static str {
        "static-watermark"
    }

    fn bounds(&self) -> KnobBounds {
        KnobBounds {
            workers: (self.config.min_workers, self.config.max_workers),
            ..KnobBounds::default()
        }
    }

    /// One tick of the watermark rule over the *observed* fleet: the
    /// worker count it returns is `signals.live_workers` plus or minus one
    /// step (or unchanged), whatever `current.workers` last asked for.
    /// Every other knob passes through.
    ///
    /// An empty fleet always scales up — to `min_workers`, or to a single
    /// worker when `min_workers` is 0 (a fleet with zero workers can never
    /// make progress, and every later watermark is undefined over it).
    fn decide(&mut self, signals: &TunerSignals, current: &Knobs) -> Knobs {
        let cfg = self.config;
        let n = signals.live_workers;
        let step = ((n as f64 * cfg.step_fraction).ceil() as usize).max(1);
        let over_provisioned = signals.mean_buffered > cfg.high_buffer_watermark
            && signals.mean_utilization < cfg.scale_down_utilization;
        let workers = if n < cfg.min_workers.max(1) {
            // Handled before the watermarks: the means over an empty fleet
            // carry no signal. `max_workers == 0` means scaling is off.
            self.down_streak = 0;
            cfg.min_workers.max(1).min(cfg.max_workers)
        } else if signals.mean_buffered < cfg.low_buffer_watermark {
            // Buffers draining: trainers are outpacing workers — the
            // data-stall precursor. Scale out.
            self.down_streak = 0;
            n + step.min(cfg.max_workers.saturating_sub(n))
        } else if over_provisioned {
            // Buffers full and workers idle: over-provisioned. Require two
            // consecutive ticks before draining (hysteresis). The streak
            // stays armed while the condition persists, so sustained
            // idleness drains every tick — resetting here made a
            // persistently idle fleet drain only on alternating ticks
            // (Hold/Down/Hold/Down), halving convergence.
            self.down_streak += 1;
            if self.down_streak >= 2 {
                n - step.min(n - cfg.min_workers)
            } else {
                n
            }
        } else {
            self.down_streak = 0;
            n
        };
        Knobs {
            workers,
            ..*current
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signals(n: usize, buffered: f64, util: f64) -> TunerSignals {
        TunerSignals {
            mean_buffered: buffered,
            mean_utilization: util,
            live_workers: n,
            ..TunerSignals::default()
        }
    }

    /// One tick over a fleet of `n` workers that was also last asked for
    /// `n`; returns the worker count the rule wants next.
    fn tick(s: &mut AutoScaler, n: usize, buffered: f64, util: f64) -> usize {
        let current = Knobs {
            workers: n,
            ..Knobs::default()
        };
        s.decide(&signals(n, buffered, util), &current).workers
    }

    #[test]
    fn empty_fleet_scales_to_minimum() {
        let mut s = AutoScaler::default();
        assert_eq!(tick(&mut s, 0, 0.0, 0.0), 1);
    }

    #[test]
    fn empty_fleet_recovers_even_with_zero_min_workers() {
        // Regression: with `min_workers: 0` an empty fleet used to reach
        // the watermark math, divide by n == 0, and produce NaN means —
        // NaN compares false everywhere, so the scaler held a dead fleet
        // at zero workers forever.
        let mut s = AutoScaler::new(ScalerConfig {
            min_workers: 0,
            ..Default::default()
        });
        assert_eq!(tick(&mut s, 0, 0.0, 0.0), 1);

        // A scaler whose max is also 0 has scaling disabled: hold at zero,
        // not a scale-up the session could never honor.
        let mut off = AutoScaler::new(ScalerConfig {
            min_workers: 0,
            max_workers: 0,
            ..Default::default()
        });
        assert_eq!(tick(&mut off, 0, 0.0, 0.0), 0);
    }

    #[test]
    fn fleet_under_the_floor_is_raised_to_it() {
        let mut s = AutoScaler::new(ScalerConfig {
            min_workers: 4,
            ..Default::default()
        });
        assert_eq!(tick(&mut s, 2, 3.0, 0.5), 4);
    }

    #[test]
    fn draining_buffers_scale_up() {
        let mut s = AutoScaler::default();
        assert_eq!(tick(&mut s, 8, 0.0, 0.95), 10); // 25% of 8
    }

    #[test]
    fn scale_up_respects_max() {
        let mut s = AutoScaler::new(ScalerConfig {
            max_workers: 9,
            ..Default::default()
        });
        assert_eq!(tick(&mut s, 8, 0.0, 0.9), 9);
        assert_eq!(tick(&mut s, 9, 0.0, 0.9), 9);
    }

    #[test]
    fn idle_full_buffers_scale_down_with_hysteresis() {
        let mut s = AutoScaler::default();
        assert_eq!(tick(&mut s, 8, 10.0, 0.2), 8); // first tick
        assert_eq!(tick(&mut s, 8, 10.0, 0.2), 6);
        // The over-provision condition still holds, so the streak stays
        // armed and draining continues tick over tick.
        assert_eq!(tick(&mut s, 8, 10.0, 0.2), 6);
    }

    #[test]
    fn sustained_idleness_drains_every_tick() {
        // Regression: the scaler used to reset its hysteresis streak after
        // each scale-down, so a persistently idle fleet drained on
        // alternating ticks only (Hold/Down/Hold/Down). After the initial
        // two-tick hysteresis, every subsequent idle tick must drain.
        let mut s = AutoScaler::default();
        let mut workers = 16usize;
        assert_eq!(tick(&mut s, workers, 10.0, 0.1), 16); // hysteresis tick
        for t in 0..7 {
            let next = tick(&mut s, workers, 10.0, 0.1);
            assert!(
                next < workers,
                "tick {t} after hysteresis should drain, got {workers} -> {next}"
            );
            workers = next;
        }
        assert_eq!(workers, 1, "seven drain ticks from 16 reach min_workers");
        // At the floor the rule holds, never below min.
        assert_eq!(tick(&mut s, workers, 10.0, 0.1), 1);
    }

    #[test]
    fn busy_workers_are_not_drained() {
        let mut s = AutoScaler::default();
        // Full buffers but highly utilized.
        assert_eq!(tick(&mut s, 8, 10.0, 0.9), 8);
        assert_eq!(tick(&mut s, 8, 10.0, 0.9), 8);
    }

    #[test]
    fn scale_down_respects_min() {
        let mut s = AutoScaler::new(ScalerConfig {
            min_workers: 4,
            ..Default::default()
        });
        tick(&mut s, 4, 10.0, 0.1);
        assert_eq!(tick(&mut s, 4, 10.0, 0.1), 4);
    }

    #[test]
    fn steady_state_holds() {
        let mut s = AutoScaler::default();
        // Buffers healthy (between watermarks): hold regardless of util.
        assert_eq!(tick(&mut s, 8, 3.0, 0.8), 8);
        assert_eq!(tick(&mut s, 8, 3.0, 0.2), 8);
    }

    #[test]
    #[should_panic(expected = "watermarks must be ordered")]
    fn bad_config_rejected() {
        AutoScaler::new(ScalerConfig {
            low_buffer_watermark: 9.0,
            high_buffer_watermark: 1.0,
            ..Default::default()
        });
    }

    #[test]
    fn convergence_under_simulated_load() {
        // A fleet that starts tiny converges upward under starved buffers,
        // then back down when demand vanishes.
        let mut s = AutoScaler::default();
        let mut workers = 1usize;
        for _ in 0..10 {
            workers = tick(&mut s, workers, 0.0, 0.9);
        }
        assert!(workers > 4, "should have grown, got {workers}");
        let grown = workers;
        for _ in 0..20 {
            workers = tick(&mut s, workers, 10.0, 0.1);
        }
        assert!(
            workers < grown,
            "should have shrunk from {grown}, got {workers}"
        );
        assert!(workers >= 1);
    }

    #[test]
    fn moves_only_the_worker_axis_and_counts_from_the_live_fleet() {
        let mut policy = AutoScaler::default();
        let current = Knobs {
            workers: 8,
            read_ahead: 2,
            batch_size: 64,
        };
        // Starved buffers: scale out by one step, everything else fixed.
        let next = policy.decide(&signals(8, 0.0, 0.9), &current);
        assert_eq!(
            next,
            Knobs {
                workers: 10,
                ..current
            }
        );
        // Two of the eight asked for are gone: the step is taken from the
        // six that are live, not from the stale wish.
        let next = policy.decide(&signals(6, 0.0, 0.9), &current);
        assert_eq!(next.workers, 8);
    }

    #[test]
    fn drains_every_tick_once_armed() {
        let mut policy = AutoScaler::default();
        assert_eq!(tick(&mut policy, 8, 10.0, 0.1), 8); // hysteresis tick
        assert_eq!(tick(&mut policy, 8, 10.0, 0.1), 6);
        assert_eq!(
            tick(&mut policy, 6, 10.0, 0.1),
            4,
            "drain continues without a Hold gap"
        );
    }

    #[test]
    fn reports_worker_bounds() {
        let policy = AutoScaler::new(ScalerConfig {
            min_workers: 2,
            max_workers: 32,
            ..Default::default()
        });
        assert_eq!(policy.bounds().workers, (2, 32));
        assert_eq!(policy.name(), "static-watermark");
    }
}
