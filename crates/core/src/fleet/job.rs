//! Declarative job state: what each tenant asked for, and what the
//! reconciler last observed.
//!
//! Tenants submit a [`JobSpec`] (a `SessionSpec` plus tenant identity,
//! priority, and a min/max worker demand window); the reconciler
//! publishes a [`JobStatus`] back into the driver's job table after
//! every tick.

use super::fairshare::Demand;
use crate::SessionSpec;
use dsi_types::SessionId;
use std::fmt;

/// Identifies the tenant (team / model family) that owns a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
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
    pub fn demand(&self) -> Demand {
        Demand {
            job: self.id(),
            weight: self.priority,
            min: self.min_workers,
            max: self.max_workers,
        }
    }
}

/// Where a job sits in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Submitted but not yet holding any workers.
    Pending,
    /// Reconciler is actively assigning workers.
    Running,
    /// The session's epoch finished; its workers have been released.
    Completed,
}

/// The reconciler's last published view of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
