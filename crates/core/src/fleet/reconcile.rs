//! The desired-vs-observed diff at the heart of the control plane.
//!
//! `plan` is a pure function: given what each job currently holds
//! (observed) and what the fair-share allocator says it should hold
//! (targets), emit the typed [`FleetAction`]s that move the world one step
//! closer. Purity is what makes the reconciler testable without threads
//! and idempotent in production — replanning from the same observation
//! yields the same actions, and a converged fleet plans nothing.

use super::fairshare::Demand;
use dsi_types::SessionId;

/// What the reconciler observed about one job at the start of a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedJob {
    /// The job.
    pub job: SessionId,
    /// Live workers serving the job (not draining, not finished).
    pub active: usize,
    /// Workers still finishing an in-flight split before exiting.
    pub draining: usize,
    /// Whether the job's epoch is complete (no more splits to serve).
    pub completed: bool,
}

/// One step the reconciler wants the data plane to take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetAction {
    /// Start one worker for `job` on the best-scoring node.
    Spawn {
        /// The under-allocated job.
        job: SessionId,
    },
    /// Gracefully drain `count` workers of `job` (surplus with no
    /// competing claimant — e.g. the job's demand ceiling dropped).
    Drain {
        /// The over-allocated job.
        job: SessionId,
        /// Workers to drain.
        count: usize,
    },
    /// Drain `count` workers of `victim` so `beneficiary` (strictly
    /// higher priority) can take the freed slots. Same mechanism as
    /// [`FleetAction::Drain`] — the split distinction keeps the metric
    /// honest: preemptions are charged to contention, drains are not.
    Preempt {
        /// The lower-priority job giving up workers.
        victim: SessionId,
        /// The higher-priority job the slots are freed for.
        beneficiary: SessionId,
        /// Workers to take.
        count: usize,
    },
    /// Move `count` worker slots between equal-or-lower-priority jobs as
    /// fair-share targets rebalance (e.g. after a job completes).
    Reassign {
        /// The shrinking job.
        from: SessionId,
        /// The growing job.
        to: SessionId,
        /// Slots to move.
        count: usize,
    },
}

impl FleetAction {
    /// Stable label for the `dsi_fleet_actions_total{action}` counter.
    pub fn kind(&self) -> &'static str {
        match self {
            FleetAction::Spawn { .. } => "spawn",
            FleetAction::Drain { .. } => "drain",
            FleetAction::Preempt { .. } => "preempt",
            FleetAction::Reassign { .. } => "reassign",
        }
    }
}

/// Diffs observed state against fair-share targets and emits the actions
/// that converge them.
///
/// Rules:
/// * A completed job never grows; its remaining workers drain.
/// * Growth is one [`FleetAction::Spawn`] per missing worker, so the
///   executor can place each on the best-scoring node independently.
/// * Shrink actions classify by why the slots are leaving: a strictly
///   higher-priority grower makes it a [`FleetAction::Preempt`], any other
///   grower a [`FleetAction::Reassign`], and no grower at all a plain
///   [`FleetAction::Drain`]. Workers already draining count against the
///   shrink quota, so a tick never re-drains the same surplus (that is the
///   no-oscillation property the regression test pins down).
pub fn plan(
    observed: &[ObservedJob],
    demands: &[Demand],
    targets: &[(SessionId, usize)],
) -> Vec<FleetAction> {
    let weight_of = |job: SessionId| -> u64 {
        demands
            .iter()
            .find(|d| d.job == job)
            .map(Demand::weight)
            .unwrap_or(1)
    };
    let target_of = |job: SessionId| -> usize {
        targets
            .iter()
            .find(|(j, _)| *j == job)
            .map(|(_, t)| *t)
            .unwrap_or(0)
    };

    // Growers: jobs whose live workers fall short of target. Sorted by
    // descending weight (then id) so preemption credits the most urgent
    // claimant first.
    let mut growers: Vec<(SessionId, usize)> = observed
        .iter()
        .filter(|o| !o.completed)
        .filter_map(|o| {
            let t = target_of(o.job);
            (o.active < t).then(|| (o.job, t - o.active))
        })
        .collect();
    growers.sort_by_key(|(job, _)| (std::cmp::Reverse(weight_of(*job)), job.0));

    // Shrinkers: jobs holding more live workers than target, or completed
    // jobs holding anything. `active` excludes workers already draining,
    // so a drain issued last tick never re-counts as surplus this tick —
    // that is the no-oscillation property the regression test pins down.
    let mut shrinkers: Vec<(SessionId, usize, bool)> = observed
        .iter()
        .filter_map(|o| {
            let t = if o.completed { 0 } else { target_of(o.job) };
            let surplus = o.active.saturating_sub(t);
            (surplus > 0).then_some((o.job, surplus, o.completed))
        })
        .collect();
    // Lowest weight loses first; completed jobs shed unconditionally.
    shrinkers.sort_by_key(|(job, _, completed)| (!completed, weight_of(*job), job.0));

    let mut actions = Vec::new();

    // Pair each shrinker's surplus with growers' needs.
    let mut grower_needs: Vec<(SessionId, usize)> = growers.clone();
    for (victim, mut surplus, completed) in shrinkers {
        while surplus > 0 {
            match grower_needs.iter_mut().find(|(_, need)| *need > 0) {
                Some((beneficiary, need)) => {
                    let take = surplus.min(*need);
                    *need -= take;
                    surplus -= take;
                    if !completed && weight_of(*beneficiary) > weight_of(victim) {
                        actions.push(FleetAction::Preempt {
                            victim,
                            beneficiary: *beneficiary,
                            count: take,
                        });
                    } else {
                        actions.push(FleetAction::Reassign {
                            from: victim,
                            to: *beneficiary,
                            count: take,
                        });
                    }
                }
                None => {
                    actions.push(FleetAction::Drain {
                        job: victim,
                        count: surplus,
                    });
                    surplus = 0;
                }
            }
        }
    }

    // Every grower spawns toward its full target regardless of where the
    // slots come from — freed slots materialize as the victims drain, and
    // the transient overshoot is bounded by the fleet's draining count.
    for (job, need) in growers {
        for _ in 0..need {
            actions.push(FleetAction::Spawn { job });
        }
    }

    actions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(job: u64, active: usize, draining: usize) -> ObservedJob {
        ObservedJob {
            job: SessionId(job),
            active,
            draining,
            completed: false,
        }
    }

    fn dem(job: u64, weight: u32) -> Demand {
        Demand {
            job: SessionId(job),
            weight,
            min: 0,
            max: 64,
        }
    }

    #[test]
    fn converged_world_plans_nothing() {
        let observed = [obs(1, 3, 0), obs(2, 3, 0)];
        let demands = [dem(1, 1), dem(2, 1)];
        let targets = [(SessionId(1), 3), (SessionId(2), 3)];
        assert!(plan(&observed, &demands, &targets).is_empty());
    }

    #[test]
    fn cold_start_spawns_to_target() {
        let observed = [obs(1, 0, 0)];
        let demands = [dem(1, 1)];
        let targets = [(SessionId(1), 2)];
        assert_eq!(
            plan(&observed, &demands, &targets),
            vec![FleetAction::Spawn { job: SessionId(1) }; 2]
        );
    }

    #[test]
    fn higher_priority_grower_preempts() {
        // Job 2 (weight 4) arrives needing 2; job 1 (weight 1) holds the
        // whole fleet and must shed 2.
        let observed = [obs(1, 4, 0), obs(2, 0, 0)];
        let demands = [dem(1, 1), dem(2, 4)];
        let targets = [(SessionId(1), 2), (SessionId(2), 2)];
        let actions = plan(&observed, &demands, &targets);
        assert!(actions.contains(&FleetAction::Preempt {
            victim: SessionId(1),
            beneficiary: SessionId(2),
            count: 2,
        }));
        let spawns = actions
            .iter()
            .filter(|a| matches!(a, FleetAction::Spawn { job } if job.0 == 2))
            .count();
        assert_eq!(spawns, 2);
    }

    #[test]
    fn equal_priority_rebalance_is_reassign_not_preempt() {
        let observed = [obs(1, 4, 0), obs(2, 0, 0)];
        let demands = [dem(1, 2), dem(2, 2)];
        let targets = [(SessionId(1), 2), (SessionId(2), 2)];
        let actions = plan(&observed, &demands, &targets);
        assert!(actions.iter().all(|a| a.kind() != "preempt"));
        assert!(actions.contains(&FleetAction::Reassign {
            from: SessionId(1),
            to: SessionId(2),
            count: 2,
        }));
    }

    #[test]
    fn in_flight_drains_suppress_re_draining() {
        // Job 1 must shed 2 and already has 2 draining: nothing to do on
        // the shrink side this tick.
        let observed = [obs(1, 2, 2), obs(2, 0, 0)];
        let demands = [dem(1, 1), dem(2, 4)];
        let targets = [(SessionId(1), 2), (SessionId(2), 2)];
        let actions = plan(&observed, &demands, &targets);
        assert!(actions.iter().all(|a| a.kind() == "spawn"));
    }

    #[test]
    fn surplus_without_grower_drains() {
        let observed = [obs(1, 5, 0)];
        let demands = [dem(1, 1)];
        let targets = [(SessionId(1), 3)];
        assert_eq!(
            plan(&observed, &demands, &targets),
            vec![FleetAction::Drain {
                job: SessionId(1),
                count: 2
            }]
        );
    }

    #[test]
    fn completed_job_sheds_everything_as_reassign() {
        let mut done = obs(1, 3, 0);
        done.completed = true;
        let observed = [done, obs(2, 0, 0)];
        let demands = [dem(1, 9), dem(2, 1)];
        let targets = [(SessionId(1), 0), (SessionId(2), 3)];
        let actions = plan(&observed, &demands, &targets);
        // Even though job 1 outweighs job 2, completion means release, and
        // the release is a reassign (no contention), never a preemption.
        assert!(actions.iter().all(|a| a.kind() != "preempt"));
        assert!(actions.contains(&FleetAction::Reassign {
            from: SessionId(1),
            to: SessionId(2),
            count: 3,
        }));
    }

    #[test]
    fn completed_job_never_grows() {
        let mut done = obs(1, 0, 0);
        done.completed = true;
        let observed = [done];
        let demands = [dem(1, 1)];
        let targets = [(SessionId(1), 4)];
        assert!(plan(&observed, &demands, &targets).is_empty());
    }
}
