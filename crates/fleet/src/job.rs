//! Declarative job state: what each tenant asked for, and what the
//! reconciler last observed.
//!
//! The registry is the control plane's source of truth. Tenants submit a
//! [`JobSpec`] (a `SessionSpec` plus tenant identity, priority, and a
//! min/max worker demand window); the reconciler publishes a [`JobStatus`]
//! back after every tick.

use dpp::SessionSpec;
use dsi_types::SessionId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

/// Identifies the tenant (team / model family) that owns a job.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TenantId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A tenant's declarative request: run this session with a worker count
/// somewhere in `[min_workers, max_workers]`, arbitrated by `priority`.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The full data-pipeline description (table range, projection,
    /// batching, transport) — exactly what a standalone `DppSession`
    /// would be launched with.
    pub session: SessionSpec,
    /// Owning tenant; stamped on every per-job metric.
    pub tenant: TenantId,
    /// Fair-share weight. Higher priorities both earn a larger share and
    /// may preempt lower-priority workers when the fleet is full.
    pub priority: u32,
    /// Guaranteed worker floor (satisfied before any water-filling).
    pub min_workers: usize,
    /// Worker demand ceiling — the job never asks for more than this.
    pub max_workers: usize,
}

impl JobSpec {
    /// Creates a spec with the given fleet-facing knobs.
    pub fn new(
        session: SessionSpec,
        tenant: TenantId,
        priority: u32,
        min_workers: usize,
        max_workers: usize,
    ) -> Self {
        Self {
            session,
            tenant,
            priority,
            min_workers,
            max_workers,
        }
    }

    /// The job's identity — its session id.
    pub fn id(&self) -> SessionId {
        self.session.id
    }

    /// This spec's demand row for the fair-share allocator.
    pub fn demand(&self) -> crate::fairshare::Demand {
        crate::fairshare::Demand {
            job: self.id(),
            weight: self.priority,
            min: self.min_workers,
            max: self.max_workers,
        }
    }
}

/// Where a job sits in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobPhase {
    /// Submitted but not yet holding any workers.
    Pending,
    /// Reconciler is actively assigning workers.
    Running,
    /// The session's epoch finished; its workers have been released.
    Completed,
}

/// The reconciler's last published view of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Fair-share target from the latest tick.
    pub desired_workers: usize,
    /// Live (non-draining, non-finished) workers currently assigned.
    pub allocated_workers: usize,
    /// Workers finishing their in-flight split before exiting.
    pub draining_workers: usize,
    /// Cumulative workers taken from this job to serve higher priorities.
    pub preemptions: u64,
    /// Workers short of the job's full `max_workers` demand under the
    /// current allocation — the paper's contention signal.
    pub fair_share_deficit: usize,
}

impl Default for JobStatus {
    fn default() -> Self {
        Self {
            phase: JobPhase::Pending,
            desired_workers: 0,
            allocated_workers: 0,
            draining_workers: 0,
            preemptions: 0,
            fair_share_deficit: 0,
        }
    }
}

struct Entry {
    spec: JobSpec,
    status: JobStatus,
}

/// Registry of every job the control plane knows about.
///
/// Desired state ([`JobSpec`]) comes from tenants; observed state
/// ([`JobStatus`]) comes from the reconciler.
#[derive(Default)]
pub struct JobRegistry {
    jobs: Mutex<BTreeMap<SessionId, Entry>>,
}

impl JobRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a job. Re-submitting an existing id replaces its spec but
    /// keeps accumulated status (preemption counts survive spec updates).
    pub fn submit(&self, spec: JobSpec) {
        let mut jobs = self.jobs.lock().unwrap();
        let id = spec.id();
        match jobs.get_mut(&id) {
            Some(entry) => entry.spec = spec,
            None => {
                jobs.insert(
                    id,
                    Entry {
                        spec,
                        status: JobStatus::default(),
                    },
                );
            }
        }
    }

    /// Removes a job, returning whether it existed.
    pub fn remove(&self, id: SessionId) -> bool {
        self.jobs.lock().unwrap().remove(&id).is_some()
    }

    /// The spec for `id`, if registered.
    pub fn spec(&self, id: SessionId) -> Option<JobSpec> {
        self.jobs.lock().unwrap().get(&id).map(|e| e.spec.clone())
    }

    /// The last published status for `id`, if registered.
    pub fn status(&self, id: SessionId) -> Option<JobStatus> {
        self.jobs.lock().unwrap().get(&id).map(|e| e.status)
    }

    /// All registered jobs' specs, ordered by session id.
    pub fn specs(&self) -> Vec<JobSpec> {
        self.jobs
            .lock()
            .unwrap()
            .values()
            .map(|e| e.spec.clone())
            .collect()
    }

    /// All `(spec, status)` pairs, ordered by session id.
    pub fn snapshot(&self) -> Vec<(JobSpec, JobStatus)> {
        self.jobs
            .lock()
            .unwrap()
            .values()
            .map(|e| (e.spec.clone(), e.status))
            .collect()
    }

    /// Publishes a fresh status for `id` (no-op when unregistered).
    pub fn publish(&self, id: SessionId, status: JobStatus) {
        if let Some(entry) = self.jobs.lock().unwrap().get_mut(&id) {
            entry.status = status;
        }
    }

    /// Number of registered jobs.
    pub fn len(&self) -> usize {
        self.jobs.lock().unwrap().len()
    }

    /// Whether the registry holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.lock().unwrap().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpp::SessionSpec;

    fn spec(id: u64, priority: u32) -> JobSpec {
        let session = SessionSpec::builder(SessionId(id)).build();
        JobSpec::new(session, TenantId(id), priority, 1, 4)
    }

    #[test]
    fn submit_and_publish() {
        let reg = JobRegistry::new();
        reg.submit(spec(1, 2));
        assert_eq!(reg.status(SessionId(1)).unwrap().phase, JobPhase::Pending);

        reg.publish(
            SessionId(1),
            JobStatus {
                phase: JobPhase::Running,
                desired_workers: 3,
                allocated_workers: 3,
                ..JobStatus::default()
            },
        );
        assert_eq!(reg.status(SessionId(1)).unwrap().allocated_workers, 3);
    }

    #[test]
    fn resubmit_keeps_status() {
        let reg = JobRegistry::new();
        reg.submit(spec(1, 2));
        reg.publish(
            SessionId(1),
            JobStatus {
                preemptions: 5,
                ..JobStatus::default()
            },
        );
        reg.submit(spec(1, 9));
        assert_eq!(reg.spec(SessionId(1)).unwrap().priority, 9);
        assert_eq!(reg.status(SessionId(1)).unwrap().preemptions, 5);
    }

    #[test]
    fn remove_and_emptiness() {
        let reg = JobRegistry::new();
        assert!(reg.is_empty());
        reg.submit(spec(1, 1));
        reg.submit(spec(2, 1));
        assert_eq!(reg.len(), 2);
        assert!(reg.remove(SessionId(1)));
        assert!(!reg.remove(SessionId(1)));
        assert_eq!(reg.specs().len(), 1);
    }
}
