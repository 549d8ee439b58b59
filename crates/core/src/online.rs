//! The closed-loop online tuning policy.
//!
//! [`OnlineTuner`] is an InTune-style controller: each tick it reads the
//! sampled signal stream, scores the current configuration with a single
//! scalar objective (stall-dominant, resource-cost-shaving), and moves
//! *one* knob — chosen by matching signals to the knob that relieves
//! them, arbitrated by a per-(knob, direction) bandit credit learned
//! from past moves. Every move is guarded: the policy remembers the
//! pre-move knobs and the pre-move objective, and if the objective has
//! not improved within a patience window (or degrades sharply before
//! it), the move is reverted and its credit docked. Hard [`KnobBounds`]
//! are never crossed.
//!
//! Signal → knob table (see DESIGN.md §15):
//!
//! | signal                                   | knob          | direction |
//! |------------------------------------------|---------------|-----------|
//! | extract dominates stage time / fetch p99 | `read_ahead`  | up        |
//! | load dominates stage time                | `batch_size`  | up        |
//! | stall with buffers drained               | `workers`     | up (proportional to deficit) |
//! | zero stall, fat buffers, idle workers    | `workers`     | down      |
//!
//! Transform-dominated stage time implicates no depth knob — a worker has
//! one transform stage — so it falls through to the worker axis, which is
//! how the paper's DPP relieves it.

use crate::tuning::{KnobBounds, Knobs, TunerPolicy, TunerSignals};
use dsi_obs::stage;
use dsi_types::rng::SplitMix64;
use serde::{Deserialize, Serialize};

/// Knob-axis indices, matching [`Knobs::axis`].
const AXIS_WORKERS: usize = 0;
const AXIS_READ_AHEAD: usize = 1;
const AXIS_BATCH: usize = 2;

/// Tuner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TunerConfig {
    /// Hard per-knob fences.
    pub bounds: KnobBounds,
    /// Stall fraction the objective treats as converged; below it the
    /// tuner only shaves cost.
    pub stall_target: f64,
    /// Weight of normalized resource cost in the objective (stall has
    /// weight 1, so cost only decides between equally-unstalled configs).
    pub cost_weight: f64,
    /// Ticks a move is given to prove itself before it is judged.
    pub patience: u32,
    /// Ticks between guarded cost-shaving explorations while healthy.
    pub explore_every: u32,
    /// Buffered batches per worker required before the tuner risks a
    /// cost-shaving move (the §III-B1 non-zero-buffer guard).
    pub shave_buffer_floor: f64,
    /// Deterministic exploration seed.
    pub seed: u64,
}

impl Default for TunerConfig {
    fn default() -> Self {
        Self {
            bounds: KnobBounds::default(),
            stall_target: 0.02,
            cost_weight: 0.1,
            patience: 2,
            explore_every: 12,
            shave_buffer_floor: 6.0,
            seed: 0x7ee1,
        }
    }
}

/// One in-flight guarded move awaiting judgment.
#[derive(Debug, Clone, Copy)]
struct Pending {
    axis: usize,
    up: bool,
    prev: Knobs,
    baseline_obj: f64,
    judge_at: u64,
}

/// The closed-loop online tuner. Deterministic given its seed and the
/// signal sequence.
#[derive(Debug, Clone)]
pub struct OnlineTuner {
    cfg: TunerConfig,
    rng: SplitMix64,
    /// Bandit credit per `(axis, direction)`: successful moves add,
    /// reverted moves subtract; axes that keep failing stop being tried.
    credit: [[f64; 2]; Knobs::AXES],
    pending: Option<Pending>,
    tick: u64,
    last_explore: u64,
    /// Count of guarded moves that were reverted (exposed for reports).
    reverts: u64,
}

impl OnlineTuner {
    /// Creates a tuner with the given configuration.
    pub fn new(cfg: TunerConfig) -> Self {
        Self {
            cfg,
            rng: SplitMix64::new(cfg.seed),
            credit: [[0.0; 2]; Knobs::AXES],
            pending: None,
            tick: 0,
            last_explore: 0,
            reverts: 0,
        }
    }

    /// The tuner's configuration.
    pub fn config(&self) -> &TunerConfig {
        &self.cfg
    }

    /// Guarded moves reverted for failing to improve the objective.
    pub fn reverts(&self) -> u64 {
        self.reverts
    }

    /// The scalar objective (lower is better): stall fraction plus a
    /// small normalized resource-cost term, so among unstalled configs
    /// the cheapest wins but no amount of cost saving buys a stall.
    pub fn objective(&self, signals: &TunerSignals, knobs: &Knobs) -> f64 {
        let (_, max_workers) = self.cfg.bounds.workers;
        let (_, max_ra) = self.cfg.bounds.read_ahead;
        let (_, max_batch) = self.cfg.bounds.batch_size;
        let worker_cost = knobs.workers as f64 / max_workers.max(1) as f64;
        // Depth knobs cost memory: enough that a move which buys nothing
        // strictly worsens the objective (and gets reverted), far too
        // little to outweigh any real stall relief.
        let mem_cost = knobs.read_ahead as f64 / max_ra.max(1) as f64
            + knobs.batch_size as f64 / max_batch.max(1) as f64;
        // A buffer drained toward empty is a stall precursor: charging for
        // it makes a too-aggressive drain lose its judgment window before
        // the trainer actually starves.
        let starvation_risk = (1.0 - signals.mean_buffered).clamp(0.0, 1.0)
            * if signals.mean_utilization > 0.9 {
                0.5
            } else {
                0.0
            };
        signals.snapshot.stall_fraction
            + starvation_risk
            + self.cfg.cost_weight * (worker_cost + 0.05 * mem_cost)
    }

    fn credit_of(&self, axis: usize, up: bool) -> f64 {
        self.credit[axis][up as usize]
    }

    fn reward(&mut self, axis: usize, up: bool, delta: f64) {
        let c = &mut self.credit[axis][up as usize];
        *c = (*c + delta).clamp(-4.0, 4.0);
    }

    /// Applies a single-axis move with the policy's step size for that
    /// axis: workers move proportionally to the measured deficit, batch
    /// size moves multiplicatively, depth knobs move by one.
    fn step(&self, axis: usize, up: bool, signals: &TunerSignals, knobs: &Knobs) -> Knobs {
        let next = match (axis, up) {
            (AXIS_WORKERS, true) => {
                // stall = 1 - supply/demand, so demand/supply = 1/(1-stall):
                // jump straight to the fleet size that closes the deficit.
                let stall = signals.snapshot.stall_fraction.clamp(0.0, 0.9);
                let needed = (knobs.workers as f64 / (1.0 - stall)).ceil() as usize;
                knobs.workers.max(1) + (needed.saturating_sub(knobs.workers)).max(1)
            }
            (AXIS_WORKERS, false) => {
                let step = (knobs.workers as f64 * 0.25).ceil() as usize;
                knobs.workers.saturating_sub(step.max(1))
            }
            (AXIS_READ_AHEAD, true) => knobs.read_ahead + 1,
            (AXIS_READ_AHEAD, false) => knobs.read_ahead.saturating_sub(1),
            (AXIS_BATCH, true) => knobs.batch_size.saturating_mul(2),
            (AXIS_BATCH, false) => (knobs.batch_size / 2).max(1),
            _ => unreachable!("axis {axis} out of range"),
        };
        self.cfg.bounds.clamp(knobs.with_axis(axis, next))
    }

    /// Whether moving `axis` in `up` direction has any headroom left.
    fn has_headroom(&self, axis: usize, up: bool, knobs: &Knobs) -> bool {
        let (lo, hi) = self.cfg.bounds.axis(axis);
        let v = knobs.axis(axis);
        if up {
            v < hi
        } else {
            v > lo
        }
    }

    /// Candidate relief moves for a stalled pipeline, ordered by how
    /// directly the live signals implicate each knob. Pipeline-shape
    /// knobs come before buying workers — relieving the actual
    /// bottleneck is the whole point of joint tuning.
    fn stall_candidates(&self, signals: &TunerSignals, knobs: &Knobs) -> Vec<(usize, f64)> {
        let mut c: Vec<(usize, f64)> = Vec::new();
        let dominant = signals.snapshot.dominant_stage();
        if dominant == Some(stage::EXTRACT) || signals.snapshot.fetch_p99 > 0.05 {
            c.push((AXIS_READ_AHEAD, 2.0));
        }
        if dominant == Some(stage::LOAD) {
            c.push((AXIS_BATCH, 2.0));
        }
        // Buffers drained with saturated workers: the per-worker pipeline
        // is as fast as its shape allows — buy capacity.
        if signals.mean_buffered < 1.0 {
            c.push((AXIS_WORKERS, 1.0));
        }
        // Fallbacks so a stalled tuner is never out of ideas.
        for axis in [AXIS_READ_AHEAD, AXIS_BATCH, AXIS_WORKERS] {
            if !c.iter().any(|(a, _)| *a == axis) {
                c.push((axis, 0.0));
            }
        }
        c.retain(|(axis, _)| self.has_headroom(*axis, true, knobs));
        c
    }

    fn begin_move(
        &mut self,
        axis: usize,
        up: bool,
        signals: &TunerSignals,
        knobs: &Knobs,
        obj: f64,
    ) -> Knobs {
        let next = self.step(axis, up, signals, knobs);
        if next == *knobs {
            return *knobs;
        }
        self.pending = Some(Pending {
            axis,
            up,
            prev: *knobs,
            baseline_obj: obj,
            judge_at: self.tick + self.cfg.patience.max(1) as u64,
        });
        next
    }
}

impl TunerPolicy for OnlineTuner {
    fn name(&self) -> &'static str {
        "online-tuner"
    }

    fn bounds(&self) -> KnobBounds {
        self.cfg.bounds
    }

    fn decide(&mut self, signals: &TunerSignals, current: &Knobs) -> Knobs {
        self.tick += 1;
        let obj = self.objective(signals, current);

        // Judge (or emergency-revert) the in-flight guarded move first.
        if let Some(p) = self.pending {
            let erupted = obj > p.baseline_obj + 0.1;
            if erupted || self.tick >= p.judge_at {
                self.pending = None;
                if obj < p.baseline_obj - 1e-9 {
                    self.reward(p.axis, p.up, 0.5);
                } else {
                    self.reward(p.axis, p.up, -1.0);
                    self.reverts += 1;
                    // Worsened: put the knob back where it was.
                    if erupted || obj > p.baseline_obj + 1e-9 {
                        return self.cfg.bounds.clamp(p.prev);
                    }
                    // Objective flat: keep the setting but spend no more
                    // credit on this direction.
                }
            } else {
                return *current; // still inside the patience window
            }
        }

        let stalled = signals.snapshot.stall_fraction > self.cfg.stall_target;
        if stalled {
            // Pick the eligible relief move with the best signal score +
            // learned credit; a small epsilon explores the runners-up so a
            // misleading signal cannot pin the tuner on a dead knob.
            let mut candidates = self.stall_candidates(signals, current);
            if candidates.is_empty() {
                return *current; // every knob at its ceiling
            }
            let pick = if candidates.len() > 1 && self.rng.chance(0.1) {
                self.rng.next_below(candidates.len() as u64) as usize
            } else {
                candidates.sort_by(|a, b| {
                    let sa = a.1 + self.credit_of(a.0, true);
                    let sb = b.1 + self.credit_of(b.0, true);
                    sb.total_cmp(&sa)
                });
                0
            };
            let (axis, _) = candidates[pick];
            return self.begin_move(axis, true, signals, current, obj);
        }

        // Healthy: shave cost, but only with a full buffer cushion, idle
        // workers, and spaced-out attempts — and never below the floors.
        let idle = signals.mean_utilization < 0.5;
        let cushioned = signals.mean_buffered >= self.cfg.shave_buffer_floor;
        let cooled = self.tick - self.last_explore >= self.cfg.explore_every as u64;
        if idle
            && cushioned
            && cooled
            && self.has_headroom(AXIS_WORKERS, false, current)
            && self.credit_of(AXIS_WORKERS, false) > -3.0
        {
            self.last_explore = self.tick;
            return self.begin_move(AXIS_WORKERS, false, signals, current, obj);
        }
        *current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_obs::SignalSnapshot;

    fn stalled_signals(
        stall: f64,
        buffered: f64,
        extract: f64,
        transform: f64,
        load: f64,
    ) -> TunerSignals {
        TunerSignals {
            snapshot: SignalSnapshot {
                stall_fraction: stall,
                extract_secs: extract,
                transform_secs: transform,
                load_secs: load,
                ..Default::default()
            },
            mean_buffered: buffered,
            mean_utilization: 1.0,
            live_workers: 4,
        }
    }

    #[test]
    fn extract_dominance_raises_read_ahead() {
        let mut t = OnlineTuner::new(TunerConfig::default());
        let k = Knobs::default();
        let next = t.decide(&stalled_signals(0.3, 0.0, 10.0, 1.0, 1.0), &k);
        assert_eq!(next.read_ahead, k.read_ahead + 1, "{next:?}");
    }

    #[test]
    fn load_dominance_doubles_batch() {
        let mut t = OnlineTuner::new(TunerConfig::default());
        let k = Knobs::default();
        let next = t.decide(&stalled_signals(0.3, 0.0, 1.0, 1.0, 10.0), &k);
        assert_eq!(next.batch_size, k.batch_size * 2, "{next:?}");
    }

    #[test]
    fn failed_move_is_reverted_within_patience() {
        let cfg = TunerConfig {
            patience: 2,
            ..Default::default()
        };
        let mut t = OnlineTuner::new(cfg);
        let k = Knobs::default();
        let s = stalled_signals(0.3, 0.0, 10.0, 1.0, 1.0);
        let moved = t.decide(&s, &k);
        assert_ne!(moved, k);
        // Patience window: held, then judged against an unimproved (same
        // stall) objective — the move must come back out.
        let mid = t.decide(&s, &moved);
        assert_eq!(mid, moved, "held inside patience window");
        let judged = t.decide(&s, &moved);
        assert_eq!(judged.read_ahead, k.read_ahead, "unhelpful move reverted");
        assert_eq!(t.reverts(), 1);
    }

    #[test]
    fn improving_move_is_kept_and_credited() {
        let cfg = TunerConfig {
            patience: 1,
            ..Default::default()
        };
        let mut t = OnlineTuner::new(cfg);
        let k = Knobs::default();
        let moved = t.decide(&stalled_signals(0.3, 0.0, 10.0, 1.0, 1.0), &k);
        assert_eq!(moved.read_ahead, 1);
        // Next tick: stall collapsed — judged as success, knobs kept.
        let healthy = TunerSignals {
            snapshot: SignalSnapshot::default(),
            mean_buffered: 3.0,
            mean_utilization: 0.9,
            live_workers: 4,
        };
        let kept = t.decide(&healthy, &moved);
        assert_eq!(kept, moved);
        assert_eq!(t.reverts(), 0);
        assert!(t.credit_of(AXIS_READ_AHEAD, true) > 0.0);
    }

    #[test]
    fn bounds_are_never_violated() {
        let cfg = TunerConfig {
            bounds: KnobBounds {
                workers: (2, 6),
                read_ahead: (0, 2),
                batch_size: (16, 64),
            },
            patience: 1,
            ..Default::default()
        };
        let mut t = OnlineTuner::new(cfg);
        let mut k = Knobs {
            workers: 4,
            read_ahead: 0,
            batch_size: 32,
        };
        // Hammer the tuner with alternating panic/idle signals; no state
        // it reaches may cross the fences.
        for i in 0..200 {
            let s = if i % 3 == 0 {
                stalled_signals(0.6, 0.0, 5.0, 5.0, 5.0)
            } else {
                TunerSignals {
                    snapshot: SignalSnapshot::default(),
                    mean_buffered: 8.0,
                    mean_utilization: 0.1,
                    live_workers: k.workers,
                }
            };
            k = t.decide(&s, &k);
            assert!((2..=6).contains(&k.workers), "workers {k:?}");
            assert!(k.read_ahead <= 2, "{k:?}");
            assert!((16..=64).contains(&k.batch_size), "{k:?}");
        }
    }

    #[test]
    fn worker_step_is_proportional_to_deficit() {
        let t = OnlineTuner::new(TunerConfig::default());
        // 50% stall, buffers empty, no dominant stage: need 2x workers.
        let s = TunerSignals {
            snapshot: SignalSnapshot {
                stall_fraction: 0.5,
                ..Default::default()
            },
            mean_buffered: 0.0,
            mean_utilization: 1.0,
            live_workers: 8,
        };
        let k = Knobs {
            workers: 8,
            ..Knobs::default()
        };
        let next = t.step(AXIS_WORKERS, true, &s, &k);
        assert_eq!(next.workers, 16, "deficit-proportional jump");
    }

    #[test]
    fn healthy_tuner_shaves_workers_with_cushion_only() {
        let cfg = TunerConfig {
            explore_every: 1,
            patience: 1,
            ..Default::default()
        };
        let mut t = OnlineTuner::new(cfg);
        let k = Knobs {
            workers: 8,
            ..Knobs::default()
        };
        let thin = TunerSignals {
            snapshot: SignalSnapshot::default(),
            mean_buffered: 1.0, // below the cushion floor
            mean_utilization: 0.2,
            live_workers: 8,
        };
        assert_eq!(t.decide(&thin, &k), k, "no shave without buffer cushion");
        let fat = TunerSignals {
            mean_buffered: 8.0,
            ..thin
        };
        let next = t.decide(&fat, &k);
        assert!(next.workers < 8, "idle + cushioned fleet shaves cost");
    }
}
