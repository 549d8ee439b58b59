//! The reconciler itself: owns the managed sessions, runs the
//! observe → allocate → plan → execute loop, and publishes per-tenant
//! status + metrics after every tick.

use crate::fairshare::{self, Demand};
use crate::job::{JobPhase, JobRegistry, JobSpec, JobStatus};
use crate::reconcile::{plan, FleetAction, ObservedJob};
use chaos::FaultInjector;
use dpp::{Client, DppSession, Knobs, LiveTuner, TunerPolicy, WorkerObservation};
use dsi_obs::names;
use dsi_types::{Result, SessionId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use warehouse::Table;

/// Sizing of the shared worker fleet the reconciler arbitrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Compute nodes in the fleet.
    pub nodes: usize,
    /// Worker slots per node; total capacity is `nodes * slots_per_node`.
    pub slots_per_node: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            nodes: 4,
            slots_per_node: 4,
        }
    }
}

/// The multi-tenant control plane: a [`JobRegistry`] of desired state, the
/// shared fleet's slot capacity, and the managed [`DppSession`]s that are
/// handed worker targets instead of owning them.
///
/// Call [`FleetDriver::tick`] periodically (or from a dedicated thread);
/// each tick is one reconcile pass and is safe to run at any frequency —
/// a converged fleet executes nothing.
pub struct FleetDriver {
    registry: JobRegistry,
    capacity: usize,
    jobs: Mutex<HashMap<SessionId, DppSession>>,
    obs: Mutex<Option<dsi_obs::Registry>>,
    tuners: Mutex<HashMap<SessionId, LiveTuner>>,
}

impl FleetDriver {
    /// Builds a driver over a uniform fleet.
    pub fn new(config: FleetConfig) -> Self {
        Self {
            registry: JobRegistry::new(),
            capacity: config.nodes * config.slots_per_node,
            jobs: Mutex::new(HashMap::new()),
            obs: Mutex::new(None),
            tuners: Mutex::new(HashMap::new()),
        }
    }

    /// Total worker slots the fleet can host.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The desired/observed state registry.
    pub fn registry(&self) -> &JobRegistry {
        &self.registry
    }

    /// Attaches a metrics registry: every managed session launched after
    /// this publishes its job-labeled pipeline metrics here, and the
    /// driver publishes `dsi_fleet_*` per-tenant gauges each tick.
    pub fn attach_registry(&self, registry: &dsi_obs::Registry) {
        *self.obs.lock() = Some(registry.clone());
    }

    /// Submits a job: launches its session with *zero* workers (the next
    /// tick assigns capacity) and registers its desired state.
    ///
    /// # Errors
    ///
    /// Propagates [`DppSession::launch_managed`] validation failures; the
    /// job is not registered when launch fails.
    pub fn submit(&self, spec: JobSpec, table: Table) -> Result<()> {
        self.submit_with_chaos(spec, table, None)
    }

    /// Like [`FleetDriver::submit`], but installs a per-job chaos fault
    /// injector before any worker can spawn — the cross-tenant blast-radius
    /// harness: faults target exactly one tenant's session.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FleetDriver::submit`].
    pub fn submit_with_chaos(
        &self,
        spec: JobSpec,
        table: Table,
        injector: Option<Arc<FaultInjector>>,
    ) -> Result<()> {
        let obs = self.obs.lock().clone();
        let session =
            DppSession::launch_managed(table, spec.session.clone(), obs.as_ref(), injector)?;
        self.jobs.lock().insert(spec.id(), session);
        self.registry.submit(spec);
        Ok(())
    }

    /// Delegates this job's per-tick scaling to `policy`: instead of the
    /// static fair-share demand from [`JobSpec`], every reconcile pass runs
    /// one [`LiveTuner::tick_managed`] over the job's live signal stream —
    /// depth knobs (read-ahead, batch size) become session overrides, and
    /// the policy's worker target becomes the job's demand (still inside
    /// the spec's min/max window, still arbitrated by fair-share against
    /// other tenants).
    ///
    /// Returns `false` (and installs nothing) when the job is unknown.
    pub fn enable_autotune(&self, job: SessionId, policy: Box<dyn TunerPolicy + Send>) -> bool {
        let jobs = self.jobs.lock();
        let Some(session) = jobs.get(&job) else {
            return false;
        };
        self.tuners
            .lock()
            .insert(job, LiveTuner::new(policy, session));
        true
    }

    /// The knob setting the job's tuner currently wants, if autotuned.
    pub fn autotuned_knobs(&self, job: SessionId) -> Option<Knobs> {
        self.tuners.lock().get(&job).map(LiveTuner::knobs)
    }

    /// Creates a trainer-side client for a managed job. Clients created
    /// before the first tick park until workers are assigned.
    pub fn client(&self, job: SessionId) -> Option<Client> {
        self.jobs.lock().get(&job).map(DppSession::client)
    }

    /// Whether the job's epoch is fully delivered and acknowledged.
    pub fn is_complete(&self, job: SessionId) -> bool {
        self.jobs
            .lock()
            .get(&job)
            .is_some_and(DppSession::is_complete)
    }

    /// Detaches a job from the control plane, returning its session so the
    /// caller can [`DppSession::shutdown`] it and collect the report. Its
    /// slots return to the fleet on the way out: slots in use are counted
    /// from the sessions the driver still holds.
    pub fn remove(&self, job: SessionId) -> Option<DppSession> {
        self.registry.remove(job);
        self.tuners.lock().remove(&job);
        self.jobs.lock().remove(&job)
    }

    /// Runs one reconcile pass and returns the actions it executed.
    ///
    /// observe → fair-share → diff → execute → publish: the allocator
    /// recomputes targets from the registry's current demand, [`plan`]
    /// diffs, and the executor hands every session its worker target
    /// ([`DppSession::scale_to`]: spawns and drains ride the sessions'
    /// drain protocol, so preemption inherits exactly-once delivery for
    /// free).
    pub fn tick(&self) -> Vec<FleetAction> {
        let start = Instant::now();
        let specs = self.registry.specs();
        let jobs = self.jobs.lock();

        // Observe: one snapshot per job. A slot is in use while its worker
        // is live — an exited worker's slot is free again by construction.
        let mut observations: HashMap<SessionId, Vec<WorkerObservation>> = HashMap::new();
        let mut observed: Vec<ObservedJob> = Vec::new();
        for spec in &specs {
            let Some(session) = jobs.get(&spec.id()) else {
                continue;
            };
            let snapshot = session.observe();
            observed.push(ObservedJob {
                job: spec.id(),
                active: snapshot.iter().filter(|o| o.is_live()).count(),
                draining: snapshot
                    .iter()
                    .filter(|o| o.draining && !o.finished)
                    .count(),
                completed: session.is_complete(),
            });
            observations.insert(spec.id(), snapshot);
        }

        // Autotune: delegated jobs run the same tick a standalone session
        // does, minus the worker axis — that becomes the job's demand
        // below, so it is still arbitrated against the other tenants.
        let mut tuners = self.tuners.lock();
        for (spec, o) in specs.iter().zip(&observed) {
            if o.completed {
                continue;
            }
            if let (Some(tuner), Some(session)) = (tuners.get_mut(&spec.id()), jobs.get(&spec.id()))
            {
                tuner.tick_managed(session);
            }
        }

        // Allocate: fair-share targets over jobs that still want workers.
        // Autotuned jobs demand exactly what their policy asked for
        // (pinched into the spec's own min/max window).
        let demands: Vec<Demand> = specs
            .iter()
            .zip(&observed)
            .filter(|(_, o)| !o.completed)
            .map(|(s, _)| {
                let mut d = s.demand();
                if let Some(tuner) = tuners.get(&s.id()) {
                    // `floor()` settles an inverted window (the ceiling
                    // wins), which `usize::clamp` would panic on.
                    let want = tuner.knobs().workers.max(d.floor()).min(d.max);
                    d.min = want;
                    d.max = want;
                }
                d
            })
            .collect();
        drop(tuners);
        let obs = self.obs.lock().clone();
        let targets = fairshare::fair_share(self.capacity, &demands);

        // Diff and execute. The actions say why workers move; what each
        // session is asked for is the net: its live count plus the spawns
        // the fleet has a free slot for, minus its drains. A draining
        // worker is committed to leave, so its slot is granted to a
        // beneficiary in the same tick (physical overshoot is bounded by
        // the draining count) — `plan` emits every shrink before the
        // first spawn.
        let actions = plan(&observed, &demands, &targets);
        let mut wanted: HashMap<SessionId, usize> =
            observed.iter().map(|o| (o.job, o.active)).collect();
        let mut in_use: usize = observed.iter().map(|o| o.active).sum();
        for action in &actions {
            match *action {
                FleetAction::Spawn { job } => {
                    if in_use < self.capacity {
                        *wanted.entry(job).or_default() += 1;
                        in_use += 1;
                    }
                }
                FleetAction::Drain { job, count }
                | FleetAction::Reassign {
                    from: job, count, ..
                }
                | FleetAction::Preempt {
                    victim: job, count, ..
                } => {
                    *wanted.entry(job).or_default() -= count;
                    in_use -= count;
                }
            }
        }
        for (job, snapshot) in &observations {
            jobs[job].scale_to(wanted[job], snapshot);
        }

        // Publish status + metrics.
        for (spec, o) in specs.iter().zip(&observed) {
            let target = targets
                .iter()
                .find(|(j, _)| *j == spec.id())
                .map(|(_, t)| *t)
                .unwrap_or(0);
            let preempted: u64 = actions
                .iter()
                .filter_map(|a| match a {
                    FleetAction::Preempt { victim, count, .. } if *victim == spec.id() => {
                        Some(*count as u64)
                    }
                    _ => None,
                })
                .sum();
            let prior = self.registry.status(spec.id()).unwrap_or_default();
            let status = JobStatus {
                phase: if o.completed {
                    JobPhase::Completed
                } else if o.active + o.draining > 0 {
                    JobPhase::Running
                } else {
                    JobPhase::Pending
                },
                desired_workers: target,
                allocated_workers: o.active,
                draining_workers: o.draining,
                preemptions: prior.preemptions + preempted,
                fair_share_deficit: if o.completed {
                    0
                } else {
                    fairshare::deficit(&spec.demand(), target)
                },
            };
            self.registry.publish(spec.id(), status);
            if let Some(reg) = obs.as_ref() {
                let job = spec.id().to_string();
                let tenant = spec.tenant.to_string();
                let labels = [("job", job.as_str()), ("tenant", tenant.as_str())];
                reg.gauge(names::FLEET_ALLOCATED_WORKERS, &labels)
                    .set(status.allocated_workers as f64);
                reg.gauge(names::FLEET_DESIRED_WORKERS, &labels)
                    .set(status.desired_workers as f64);
                reg.gauge(names::FLEET_FAIR_SHARE_DEFICIT, &labels)
                    .set(status.fair_share_deficit as f64);
                reg.counter(names::FLEET_PREEMPTIONS_TOTAL, &labels)
                    .advance_to(status.preemptions);
            }
        }
        if let Some(reg) = obs.as_ref() {
            for action in &actions {
                reg.counter(names::FLEET_ACTIONS_TOTAL, &[("action", action.kind())])
                    .inc();
            }
            reg.gauge(names::FLEET_JOBS, &[]).set(specs.len() as f64);
            reg.histogram(names::FLEET_RECONCILE_SECONDS, &[])
                .record(start.elapsed().as_secs_f64());
        }
        actions
    }
}
