//! The one control loop: the knob surface every tuning policy shares, and
//! the tick that applies a policy to a running session.
//!
//! The paper's DPP scales one resource (worker count) with a fixed-rule
//! watermark controller ([`crate::autoscale::AutoScaler`]). InTune-style
//! online tuning generalizes this: a policy reads live telemetry and
//! jointly moves every knob a [`DppSession`] can actuate — workers,
//! read-ahead depth, batch size. This module defines that shared
//! vocabulary ([`Knobs`], [`KnobBounds`], [`TunerSignals`]), the
//! [`TunerPolicy`] trait both the static scaler and the closed-loop
//! [`crate::online::OnlineTuner`] implement, and [`LiveTuner`], the tick
//! that samples a session, asks the policy and hands the answer to the
//! session's actuators — for a standalone session and, worker axis aside,
//! for a job under the fleet reconciler.

use crate::service::{DppSession, WorkerObservation};
use dsi_obs::SignalSnapshot;
use serde::{Deserialize, Serialize};

/// One joint setting of every tunable pipeline resource: exactly the
/// knobs a running [`DppSession`] has an actuator for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Knobs {
    /// DPP worker (preprocessing node) count.
    pub workers: usize,
    /// Splits each worker prefetches ahead of its transform stage
    /// (`SessionSpec::read_ahead`).
    pub read_ahead: usize,
    /// Samples per produced tensor batch (`SessionSpec::batch_size`).
    pub batch_size: usize,
}

impl Knobs {
    /// Number of knob axes a policy can move.
    pub const AXES: usize = 3;

    /// Reads the knob on one axis (0 = workers, 1 = read_ahead,
    /// 2 = batch_size).
    pub fn axis(&self, axis: usize) -> usize {
        match axis {
            0 => self.workers,
            1 => self.read_ahead,
            2 => self.batch_size,
            _ => panic!("knob axis {axis} out of range"),
        }
    }

    /// Returns a copy with one axis replaced.
    pub fn with_axis(mut self, axis: usize, value: usize) -> Self {
        match axis {
            0 => self.workers = value,
            1 => self.read_ahead = value,
            2 => self.batch_size = value,
            _ => panic!("knob axis {axis} out of range"),
        }
        self
    }
}

impl Default for Knobs {
    fn default() -> Self {
        Self {
            workers: 1,
            read_ahead: 0,
            batch_size: 64,
        }
    }
}

/// Hard per-knob `[min, max]` floors and ceilings a policy must never
/// cross — guarded exploration's outer fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnobBounds {
    /// Worker-count window.
    pub workers: (usize, usize),
    /// Read-ahead window.
    pub read_ahead: (usize, usize),
    /// Batch-size window.
    pub batch_size: (usize, usize),
}

impl KnobBounds {
    /// Bounds window for one axis (same numbering as [`Knobs::axis`]).
    pub fn axis(&self, axis: usize) -> (usize, usize) {
        match axis {
            0 => self.workers,
            1 => self.read_ahead,
            2 => self.batch_size,
            _ => panic!("knob axis {axis} out of range"),
        }
    }

    /// Clamps every knob into its window.
    pub fn clamp(&self, knobs: Knobs) -> Knobs {
        let c = |v: usize, (lo, hi): (usize, usize)| v.clamp(lo, hi.max(lo));
        Knobs {
            workers: c(knobs.workers, self.workers),
            read_ahead: c(knobs.read_ahead, self.read_ahead),
            batch_size: c(knobs.batch_size, self.batch_size),
        }
    }

    /// Freezes one axis at its current value (equal min/max), so a policy
    /// can be told "do not move this knob" — e.g. batch size during a
    /// bitwise-compared chaos run.
    pub fn freeze(mut self, axis: usize, at: usize) -> Self {
        match axis {
            0 => self.workers = (at, at),
            1 => self.read_ahead = (at, at),
            2 => self.batch_size = (at, at),
            _ => panic!("knob axis {axis} out of range"),
        }
        self
    }
}

impl Default for KnobBounds {
    fn default() -> Self {
        Self {
            workers: (1, 512),
            read_ahead: (0, 8),
            batch_size: (16, 512),
        }
    }
}

/// Everything a tuning policy sees on one control tick: the sampled
/// metric stream plus the session's own buffered-tensor telemetry
/// (which never transits the registry, so it cannot be NaN-poisoned).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TunerSignals {
    /// This job's registry sample — stall fraction, fetch tail and
    /// per-stage seconds, read through the job's own `{job}` series.
    pub snapshot: SignalSnapshot,
    /// Mean tensors buffered per live worker (the §III-B1 watermark
    /// signal).
    pub mean_buffered: f64,
    /// Mean worker utilization proxy in `[0, 1]`.
    pub mean_utilization: f64,
    /// Live (non-draining) workers observed this tick.
    pub live_workers: usize,
}

impl TunerSignals {
    /// Builds signals from a session's worker snapshot plus a registry
    /// sample. Only live workers count — one already flagged to drain is
    /// capacity leaving the fleet, and counting it once made back-to-back
    /// scale-down ticks each see the pre-drain fleet and drain it below
    /// the floor. Utilization is a proxy: a full buffer means the worker
    /// is ahead of demand, an empty one that it is saturated. Means over
    /// an empty fleet are 0, never NaN.
    pub fn from_observations(snapshot: SignalSnapshot, observed: &[WorkerObservation]) -> Self {
        let (mut n, mut buffered, mut utilization) = (0usize, 0.0, 0.0);
        for o in observed.iter().filter(|o| o.is_live()) {
            n += 1;
            buffered += o.buffered as f64;
            utilization += 1.0 - o.buffered as f64 / o.capacity.max(1) as f64;
        }
        let mean = |sum: f64| if n == 0 { 0.0 } else { sum / n as f64 };
        Self {
            snapshot,
            mean_buffered: mean(buffered),
            mean_utilization: mean(utilization),
            live_workers: n,
        }
    }
}

/// A pipeline-tuning policy: maps one tick of signals to the next joint
/// knob setting. Implementations must stay inside [`TunerPolicy::bounds`];
/// callers may re-clamp defensively.
pub trait TunerPolicy {
    /// Stable policy name for reports and bench artifacts.
    fn name(&self) -> &'static str;

    /// The hard knob fences this policy honors.
    fn bounds(&self) -> KnobBounds;

    /// One control tick: given signals and the currently-applied knobs,
    /// returns the knobs to apply next (possibly unchanged).
    fn decide(&mut self, signals: &TunerSignals, current: &Knobs) -> Knobs;
}

/// What one live control tick changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KnobDelta {
    /// Workers spawned this tick to grow the fleet.
    pub spawned: usize,
    /// Workers put into drain this tick to shrink the fleet.
    pub drained: usize,
    /// Whether a worker still running an older read-ahead / batch size was
    /// replaced by one spawned with the setting now in force.
    pub rotated: bool,
    /// The knob setting now in force.
    pub applied: Knobs,
}

/// Drives a [`TunerPolicy`] against a live session. The caller owns the
/// cadence: invoke [`LiveTuner::tick`] from wherever the control loop
/// lives (a trainer epoch boundary, a timer); the fleet reconciler calls
/// `LiveTuner::tick_managed` from its own pass.
pub struct LiveTuner {
    policy: Box<dyn TunerPolicy + Send>,
    /// The setting last asked for. Its worker count is a wish: the fleet
    /// observed on the next tick, not this number, is what gets diffed.
    knobs: Knobs,
    last: SignalSnapshot,
}

impl LiveTuner {
    /// Wraps `policy`, reading the session's current spec for the initial
    /// knob setting.
    pub fn new(policy: Box<dyn TunerPolicy + Send>, session: &DppSession) -> Self {
        let spec = session.effective_spec();
        Self {
            policy,
            knobs: Knobs {
                workers: session.worker_count().max(1),
                read_ahead: spec.read_ahead,
                batch_size: spec.batch_size,
            },
            last: SignalSnapshot::default(),
        }
    }

    /// The knob setting last asked for.
    pub fn knobs(&self) -> Knobs {
        self.knobs
    }

    /// One control tick: sample the registry the session holds, decide,
    /// apply.
    pub fn tick(&mut self, session: &DppSession) -> KnobDelta {
        let next = self.decide(session);
        self.apply(session, next)
    }

    /// The tick for a session whose workers an outer control plane owns
    /// ([`DppSession::launch_managed`]): everything but the worker axis.
    /// Depth knobs are installed as session overrides, which the control
    /// plane's own [`DppSession::scale_to`] rolls through the fleet; the
    /// returned `workers` is the job's demand, for the caller to
    /// arbitrate.
    pub(crate) fn tick_managed(&mut self, session: &DppSession) -> Knobs {
        let next = self.decide(session);
        self.install(session, next);
        next
    }

    /// Applies `next` to the session, returning what changed: installs
    /// the depth knobs, then one [`DppSession::scale_to`] against the
    /// fleet observed now — so workers that crashed, finished or were
    /// drained behind the tuner's back are made up for rather than
    /// carried as an error, and a depth move keeps rotating one worker
    /// per call until the whole fleet runs it. Exposed so harnesses
    /// (chaos tests) can force a setting and still reuse the actuation
    /// path.
    pub fn apply(&mut self, session: &DppSession, next: Knobs) -> KnobDelta {
        self.install(session, next);
        let (spawned, drained) = session.scale_to(next.workers, &session.observe());
        // Growing and shrinking exclude each other; a rotation is the one
        // step that does both.
        let rotations = spawned.min(drained);
        KnobDelta {
            spawned: spawned - rotations,
            drained: drained - rotations,
            rotated: rotations > 0,
            applied: next,
        }
    }

    /// Sample → window delta → signals → policy → clamp.
    fn decide(&mut self, session: &DppSession) -> Knobs {
        let cumulative = session.sample_signals();
        // Policies react to *recent* conditions: feed the delta since the
        // previous tick, not lifetime totals.
        let window = cumulative.delta(&self.last);
        self.last = cumulative;
        let signals = TunerSignals::from_observations(window, &session.observe());
        let next = self.policy.decide(&signals, &self.knobs);
        self.policy.bounds().clamp(next)
    }

    /// Records `next` as the setting asked for and installs its depth
    /// knobs as session overrides — the one `set_read_ahead` /
    /// `set_batch_size` site.
    fn install(&mut self, session: &DppSession, next: Knobs) {
        self.knobs = next;
        session.set_read_ahead(next.read_ahead);
        session.set_batch_size(next.batch_size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::WorkerId;

    #[test]
    fn bounds_clamp_and_freeze() {
        let bounds = KnobBounds::default().freeze(2, 64);
        let wild = Knobs {
            workers: 10_000,
            read_ahead: 99,
            batch_size: 4,
        };
        let clamped = bounds.clamp(wild);
        assert_eq!(clamped.workers, 512);
        assert_eq!(clamped.read_ahead, 8);
        assert_eq!(clamped.batch_size, 64, "frozen axis pins to its value");
    }

    #[test]
    fn signals_from_an_empty_fleet_are_zero() {
        let s = TunerSignals::from_observations(SignalSnapshot::default(), &[]);
        assert_eq!(s.mean_buffered, 0.0);
        assert_eq!(s.mean_utilization, 0.0);
        assert_eq!(s.live_workers, 0);
    }

    #[test]
    fn signals_average_live_workers_only() {
        let worker = |id, buffered, draining, finished| WorkerObservation {
            id: WorkerId(id),
            buffered,
            capacity: 4,
            draining,
            finished,
            stale: false,
        };
        let s = TunerSignals::from_observations(
            SignalSnapshot::default(),
            &[
                worker(0, 4, false, false),
                worker(1, 1, false, false),
                worker(2, 4, true, false),
                worker(3, 0, false, true),
            ],
        );
        assert_eq!(s.live_workers, 2);
        assert_eq!(s.mean_buffered, 2.5);
        assert_eq!(s.mean_utilization, 0.375); // (0 + 0.75) / 2
    }

    #[test]
    fn axis_accessors_round_trip() {
        let k = Knobs {
            workers: 3,
            read_ahead: 1,
            batch_size: 32,
        };
        for axis in 0..Knobs::AXES {
            assert_eq!(k.with_axis(axis, 7).axis(axis), 7);
        }
    }
}
