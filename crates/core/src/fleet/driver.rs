//! The reconciler itself: owns the job table, runs the
//! observe → allocate → plan → execute loop, and publishes per-tenant
//! status + metrics after every tick.

use super::fairshare::{self, Demand};
use super::job::{JobPhase, JobSpec, JobStatus};
use super::reconcile::{plan, FleetAction, ObservedJob};
use crate::{Client, DppSession, Knobs, LiveTuner, TunerPolicy};
use chaos::FaultInjector;
use dsi_obs::names;
use dsi_types::{DsiError, Result, SessionId};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use warehouse::Table;

/// Everything the control plane holds for one job: what the tenant asked
/// for, what the last tick published, the managed session, and the tuner
/// its scaling is delegated to, if any.
struct Job {
    spec: JobSpec,
    status: JobStatus,
    session: DppSession,
    tuner: Option<LiveTuner>,
}

/// The multi-tenant control plane: one job table of desired state,
/// published status and managed [`DppSession`]s (handed worker targets
/// instead of owning them), inside the shared fleet's worker capacity.
///
/// Call [`FleetDriver::tick`] periodically (or from a dedicated thread);
/// each tick is one reconcile pass and is safe to run at any frequency —
/// a converged fleet executes nothing.
pub struct FleetDriver {
    capacity: usize,
    obs: Mutex<Option<dsi_obs::Registry>>,
    jobs: Mutex<BTreeMap<SessionId, Job>>,
}

impl FleetDriver {
    /// Builds a driver over a fleet of `capacity` worker slots. Workers
    /// are threads of one process, so the fleet is a capacity, not a
    /// placement.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            obs: Mutex::new(None),
            jobs: Mutex::new(BTreeMap::new()),
        }
    }

    /// The status the latest tick published for `job`, if submitted.
    pub fn status(&self, job: SessionId) -> Option<JobStatus> {
        self.jobs.lock().get(&job).map(|j| j.status)
    }

    /// Attaches a metrics registry: every managed session launched after
    /// this publishes its job-labeled pipeline metrics here, and the
    /// driver publishes `dsi_fleet_*` per-tenant gauges each tick.
    pub fn attach_registry(&self, registry: &dsi_obs::Registry) {
        *self.obs.lock() = Some(registry.clone());
    }

    /// Submits a job: launches its session with *zero* workers (the next
    /// tick assigns capacity) and adds it to the job table.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::InvalidSpec`] when the job's id is already in
    /// the table — to change a job, [`FleetDriver::remove`] it and submit
    /// again — and propagates [`DppSession::launch_managed`] validation
    /// failures; in both cases nothing is added.
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
        let mut jobs = self.jobs.lock();
        if jobs.contains_key(&spec.id()) {
            return Err(DsiError::invalid_spec(format!(
                "job {} is already submitted",
                spec.id()
            )));
        }
        let session =
            DppSession::launch_managed(table, spec.session.clone(), obs.as_ref(), injector)?;
        jobs.insert(
            spec.id(),
            Job {
                spec,
                status: JobStatus::default(),
                session,
                tuner: None,
            },
        );
        Ok(())
    }

    /// Delegates this job's per-tick scaling to `policy`: instead of the
    /// static fair-share demand from [`JobSpec`], every reconcile pass runs
    /// one `LiveTuner::tick_managed` over the job's live signal stream —
    /// depth knobs (read-ahead, batch size) become session overrides, and
    /// the policy's worker target becomes the job's demand (still inside
    /// the spec's min/max window, still arbitrated by fair-share against
    /// other tenants).
    ///
    /// Returns `false` (and installs nothing) when the job is unknown.
    pub fn enable_autotune(&self, job: SessionId, policy: Box<dyn TunerPolicy + Send>) -> bool {
        let mut jobs = self.jobs.lock();
        let Some(job) = jobs.get_mut(&job) else {
            return false;
        };
        job.tuner = Some(LiveTuner::new(policy, &job.session));
        true
    }

    /// The knob setting the job's tuner currently wants, if autotuned.
    pub fn autotuned_knobs(&self, job: SessionId) -> Option<Knobs> {
        let jobs = self.jobs.lock();
        jobs.get(&job)?.tuner.as_ref().map(LiveTuner::knobs)
    }

    /// Creates a trainer-side client for a managed job. Clients created
    /// before the first tick park until workers are assigned.
    pub fn client(&self, job: SessionId) -> Option<Client> {
        self.jobs.lock().get(&job).map(|j| j.session.client())
    }

    /// Whether the job's epoch is fully delivered and acknowledged.
    pub fn is_complete(&self, job: SessionId) -> bool {
        self.jobs
            .lock()
            .get(&job)
            .is_some_and(|j| j.session.is_complete())
    }

    /// Detaches a job from the control plane, returning its session so the
    /// caller can [`DppSession::shutdown`] it and collect the report. Its
    /// slots return to the fleet on the way out: slots in use are counted
    /// from the sessions the table still holds.
    pub fn remove(&self, job: SessionId) -> Option<DppSession> {
        self.jobs.lock().remove(&job).map(|j| j.session)
    }

    /// Runs one reconcile pass and returns the actions it executed.
    ///
    /// observe → fair-share → diff → execute → publish, walking the job
    /// table in id order: the allocator recomputes targets from each job's
    /// current demand, [`plan`] diffs, and the executor hands every
    /// session its worker target ([`DppSession::scale_to`]: spawns and
    /// drains ride the sessions' drain protocol, so preemption inherits
    /// exactly-once delivery for free).
    pub fn tick(&self) -> Vec<FleetAction> {
        let start = Instant::now();
        let mut jobs = self.jobs.lock();

        // Observe: one snapshot per job. A slot is in use while its worker
        // is live — an exited worker's slot is free again by construction.
        // Autotuned jobs run the same tick a standalone session does, minus
        // the worker axis: that becomes the job's demand, pinched into the
        // spec's own min/max window, so it is still arbitrated against the
        // other tenants.
        let mut snapshots = Vec::with_capacity(jobs.len());
        let mut observed = Vec::with_capacity(jobs.len());
        let mut demands: Vec<Demand> = Vec::with_capacity(jobs.len());
        for (&id, job) in jobs.iter_mut() {
            let snapshot = job.session.observe();
            let o = ObservedJob {
                job: id,
                active: snapshot.iter().filter(|o| o.is_live()).count(),
                draining: snapshot
                    .iter()
                    .filter(|o| o.draining && !o.finished)
                    .count(),
                completed: job.session.is_complete(),
            };
            if !o.completed {
                let mut d = job.spec.demand();
                if let Some(tuner) = job.tuner.as_mut() {
                    // `floor()` settles an inverted window (the ceiling
                    // wins), which `usize::clamp` would panic on.
                    let want = tuner.tick_managed(&job.session).workers;
                    let want = want.max(d.floor()).min(d.max);
                    d.min = want;
                    d.max = want;
                }
                demands.push(d);
            }
            observed.push(o);
            snapshots.push(snapshot);
        }
        let targets = fairshare::fair_share(self.capacity, &demands);

        // Diff. The actions say why workers move; what each session is
        // asked for is its target, or nothing once its epoch is complete —
        // exactly where `plan`'s actions move it. A draining worker is
        // committed to leave, so its slot is granted to a beneficiary in
        // the same tick (physical overshoot is bounded by the draining
        // count).
        let actions = plan(&observed, &demands, &targets);

        // Execute, then publish status + metrics.
        let obs = self.obs.lock().clone();
        for ((job, o), snapshot) in jobs.values_mut().zip(&observed).zip(&snapshots) {
            let target = targets
                .iter()
                .find(|(j, _)| *j == o.job)
                .map(|(_, t)| *t)
                .unwrap_or(0);
            job.session
                .scale_to(if o.completed { 0 } else { target }, snapshot);
            let preempted: u64 = actions
                .iter()
                .filter_map(|a| match a {
                    FleetAction::Preempt { victim, count, .. } if *victim == o.job => {
                        Some(*count as u64)
                    }
                    _ => None,
                })
                .sum();
            job.status = JobStatus {
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
                preemptions: job.status.preemptions + preempted,
                fair_share_deficit: if o.completed {
                    0
                } else {
                    fairshare::deficit(&job.spec.demand(), target)
                },
            };
            if let Some(reg) = obs.as_ref() {
                let id = o.job.to_string();
                let tenant = job.spec.tenant.to_string();
                let labels = [("job", id.as_str()), ("tenant", tenant.as_str())];
                let status = &job.status;
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
            reg.gauge(names::FLEET_JOBS, &[]).set(jobs.len() as f64);
            reg.histogram(names::FLEET_RECONCILE_SECONDS, &[])
                .record(start.elapsed().as_secs_f64());
        }
        actions
    }
}
