//! The DPP Master: split distribution, progress tracking, checkpointing,
//! worker health, and replicated failover.
//!
//! The Master breaks the whole preprocessing workload into independent,
//! self-contained **splits** (successive rows of the dataset) and serves
//! them to Workers on request, tracking progress as splits complete
//! (§III-B1). Workers are stateless, so a failed worker's in-flight splits
//! are simply requeued; the Master itself checkpoints its reader state
//! periodically and is replicated to avoid a single point of failure.

use dsi_obs::{next_span_id, now_ns, SpanKind, TraceContext, TraceSpan};
use dsi_trace::TraceConfig;
use dsi_types::{DsiError, Result, SessionId, WorkerId};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use warehouse::Split;

/// Progress state of one split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitState {
    /// Waiting in the queue.
    Pending,
    /// Handed to a worker, not yet completed.
    InFlight(WorkerId),
    /// Completed.
    Done,
}

/// A restorable snapshot of the Master's reader state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MasterCheckpoint {
    /// The owning session.
    pub session: SessionId,
    /// Indices of completed splits.
    pub completed: BTreeSet<u64>,
    /// Total splits in the session.
    pub total: u64,
}

impl MasterCheckpoint {
    /// Fraction of splits completed.
    pub fn progress(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.completed.len() as f64 / self.total as f64
    }
}

#[derive(Debug)]
struct MasterState {
    queue: VecDeque<u64>,
    splits: Vec<Split>,
    state: Vec<SplitState>,
    in_flight: HashMap<WorkerId, BTreeSet<u64>>,
    registered: BTreeSet<WorkerId>,
    next_worker_id: u64,
    completed_count: u64,
    /// The attached registry and the `job` label (the session id) every
    /// series this Master writes carries.
    registry: Option<(dsi_obs::Registry, String)>,
    trace: TraceConfig,
}

impl MasterState {
    /// Publishes queue depth, worker count, and split progress. The
    /// registry lives inside the shared state so every Master clone
    /// (replica) reports into the same series.
    fn publish_metrics(&self) {
        let Some((reg, job)) = &self.registry else {
            return;
        };
        use dsi_obs::names;
        let labels = [("job", job.as_str())];
        reg.gauge(names::MASTER_QUEUE_DEPTH, &labels)
            .set(self.queue.len() as f64);
        reg.gauge(names::MASTER_WORKERS, &labels)
            .set(self.registered.len() as f64);
        reg.counter(names::MASTER_SPLITS_TOTAL, &labels)
            .advance_to(self.splits.len() as u64);
        reg.counter(names::MASTER_SPLITS_COMPLETED_TOTAL, &labels)
            .advance_to(self.completed_count);
    }
}

/// The session Master (cheaply cloneable; clones share state, which also
/// models the replicated-master pair — both replicas observe one durable
/// state).
#[derive(Clone)]
pub struct Master {
    session: SessionId,
    state: Arc<Mutex<MasterState>>,
}

impl std::fmt::Debug for Master {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("Master")
            .field("session", &self.session)
            .field("total", &s.splits.len())
            .field("completed", &s.completed_count)
            .field("queued", &s.queue.len())
            .finish()
    }
}

impl Master {
    /// Creates a Master over the session's splits (dataset order).
    pub fn new(session: SessionId, splits: Vec<Split>) -> Self {
        let n = splits.len();
        Self {
            session,
            state: Arc::new(Mutex::new(MasterState {
                queue: (0..n as u64).collect(),
                state: vec![SplitState::Pending; n],
                splits,
                in_flight: HashMap::new(),
                registered: BTreeSet::new(),
                next_worker_id: 0,
                completed_count: 0,
                registry: None,
                trace: TraceConfig::off(),
            })),
        }
    }

    /// Enables distributed tracing for split serves. Like
    /// [`Master::attach_registry`], setting it through any replica covers
    /// all clones — and must be re-applied after [`Master::restore`]
    /// (checkpoints do not carry tracing state), so re-served splits after
    /// a failover land in the same deterministic traces.
    pub fn set_trace_config(&self, trace: TraceConfig) {
        self.state.lock().trace = trace;
    }

    /// The owning session.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Attaches a metrics registry: queue depth, worker count, split
    /// progress, and checkpoint counts are published into it from then on.
    /// Clones share state, so attaching through any replica covers all.
    pub fn attach_registry(&self, registry: &dsi_obs::Registry) {
        let mut s = self.state.lock();
        s.registry = Some((registry.clone(), self.session.to_string()));
        s.publish_metrics();
    }

    /// Registers a new worker, returning its id.
    pub fn register_worker(&self) -> WorkerId {
        let mut s = self.state.lock();
        let id = WorkerId(s.next_worker_id);
        s.next_worker_id += 1;
        s.registered.insert(id);
        s.in_flight.insert(id, BTreeSet::new());
        s.publish_metrics();
        id
    }

    /// Deregisters a failed or aborting worker: its in-flight
    /// (not-yet-consumed) splits are requeued and late completions from it
    /// are rejected.
    pub fn deregister_worker(&self, worker: WorkerId) {
        let mut s = self.state.lock();
        s.registered.remove(&worker);
        if let Some(splits) = s.in_flight.remove(&worker) {
            for idx in splits {
                s.state[idx as usize] = SplitState::Pending;
                s.queue.push_front(idx);
            }
        }
        s.publish_metrics();
    }

    /// Gracefully drains a worker: it stops receiving new splits, but
    /// splits it has already processed and buffered stay in flight so
    /// Clients can finish consuming (and acknowledging) them.
    pub fn drain_worker(&self, worker: WorkerId) {
        let mut s = self.state.lock();
        s.registered.remove(&worker);
        s.publish_metrics();
    }

    /// Marks a worker failed (hard crash): identical effect to
    /// [`Master::deregister_worker`] — its unconsumed splits replay
    /// elsewhere. Stateless workers need no checkpoint restore.
    pub fn fail_worker(&self, worker: WorkerId) {
        self.deregister_worker(worker);
    }

    /// Serves the next split to `worker`, or `None` when the queue is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::InvalidState`] for unregistered workers.
    pub fn request_split(&self, worker: WorkerId) -> Result<Option<Split>> {
        Ok(self.request_split_ctx(worker)?.map(|(split, _)| split))
    }

    /// [`Master::request_split`] plus the split's trace context.
    ///
    /// When the split is sampled (deterministic in session and split
    /// index) and a registry is attached, serving it records a top-level
    /// `Schedule` span and returns the context the worker's spans parent
    /// under. A split re-served after a worker failure or master restore
    /// gets a *fresh* `Schedule` span in the *same* trace — replayed
    /// executions appear as sibling subtrees.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::InvalidState`] for unregistered workers.
    pub fn request_split_ctx(&self, worker: WorkerId) -> Result<Option<(Split, TraceContext)>> {
        let mut s = self.state.lock();
        if !s.registered.contains(&worker) {
            return Err(DsiError::InvalidState(format!(
                "worker {worker} is not registered"
            )));
        }
        match s.queue.pop_front() {
            Some(idx) => {
                s.state[idx as usize] = SplitState::InFlight(worker);
                s.in_flight
                    .get_mut(&worker)
                    .expect("registered worker has in-flight set")
                    .insert(idx);
                let split = s.splits[idx as usize].clone();
                s.publish_metrics();
                let mut ctx = TraceContext::NONE;
                let trace_id = s.trace.trace_id(self.session, idx);
                if trace_id != 0 {
                    if let Some((reg, _)) = &s.registry {
                        let span_id = next_span_id();
                        let now = now_ns();
                        reg.record_span(TraceSpan {
                            trace_id,
                            span_id,
                            parent_id: 0,
                            kind: SpanKind::Schedule,
                            start_ns: now,
                            end_ns: now,
                            split: idx,
                            worker: worker.0,
                            seq: 0,
                            flags: 0,
                        });
                        ctx = TraceContext { trace_id, span_id };
                    }
                }
                Ok(Some((split, ctx)))
            }
            None => Ok(None),
        }
    }

    /// Records a split completion.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::InvalidState`] if the split was not in flight at
    /// this worker (e.g. it was requeued after a presumed failure).
    pub fn complete_split(&self, worker: WorkerId, split_index: u64) -> Result<()> {
        let mut s = self.state.lock();
        let owned = s
            .in_flight
            .get_mut(&worker)
            .is_some_and(|set| set.remove(&split_index));
        if !owned {
            return Err(DsiError::InvalidState(format!(
                "split {split_index} is not in flight at {worker}"
            )));
        }
        s.state[split_index as usize] = SplitState::Done;
        s.completed_count += 1;
        s.publish_metrics();
        Ok(())
    }

    /// State of one split.
    ///
    /// # Panics
    ///
    /// Panics if `split_index` is out of range.
    pub fn split_state(&self, split_index: u64) -> SplitState {
        self.state.lock().state[split_index as usize]
    }

    /// Total splits in the session.
    pub fn total_splits(&self) -> u64 {
        self.state.lock().splits.len() as u64
    }

    /// Completed splits.
    pub fn completed_splits(&self) -> u64 {
        self.state.lock().completed_count
    }

    /// Whether every split has completed.
    pub fn is_complete(&self) -> bool {
        let s = self.state.lock();
        s.completed_count == s.splits.len() as u64
    }

    /// Currently registered workers.
    pub fn worker_count(&self) -> usize {
        self.state.lock().registered.len()
    }

    /// Takes a checkpoint of reader progress.
    pub fn checkpoint(&self) -> MasterCheckpoint {
        let s = self.state.lock();
        if let Some((reg, job)) = &s.registry {
            reg.counter(dsi_obs::names::MASTER_CHECKPOINTS_TOTAL, &[("job", job)])
                .inc();
        }
        let completed = s
            .state
            .iter()
            .enumerate()
            .filter(|(_, st)| **st == SplitState::Done)
            .map(|(i, _)| i as u64)
            .collect();
        MasterCheckpoint {
            session: self.session,
            completed,
            total: s.splits.len() as u64,
        }
    }

    /// Restores a Master from a checkpoint and the (re-planned) splits:
    /// completed splits stay done; in-flight work from the failed Master is
    /// requeued.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::InvalidSpec`] if the checkpoint does not match
    /// the split count or session, or if it marks a split index outside
    /// the planned range as completed (a corrupt or foreign checkpoint
    /// would otherwise inflate the completion count and end the session
    /// early — or never).
    pub fn restore(checkpoint: &MasterCheckpoint, splits: Vec<Split>) -> Result<Master> {
        if checkpoint.total != splits.len() as u64 {
            return Err(DsiError::invalid_spec(format!(
                "checkpoint covers {} splits, scan planned {}",
                checkpoint.total,
                splits.len()
            )));
        }
        if let Some(&bad) = checkpoint
            .completed
            .iter()
            .find(|&&i| i >= splits.len() as u64)
        {
            return Err(DsiError::invalid_spec(format!(
                "checkpoint marks split {bad} completed but only {} splits exist",
                splits.len()
            )));
        }
        let n = splits.len() as u64;
        let mut state = vec![SplitState::Pending; splits.len()];
        let mut queue = VecDeque::new();
        for i in 0..n {
            if checkpoint.completed.contains(&i) {
                state[i as usize] = SplitState::Done;
            } else {
                queue.push_back(i);
            }
        }
        Ok(Master {
            session: checkpoint.session,
            state: Arc::new(Mutex::new(MasterState {
                queue,
                state,
                completed_count: checkpoint.completed.len() as u64,
                splits,
                in_flight: HashMap::new(),
                registered: BTreeSet::new(),
                next_worker_id: 0,
                registry: None,
                trace: TraceConfig::off(),
            })),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::{PartitionId, Projection, Sample, TableId};
    use warehouse::{Table, TableConfig};

    fn make_splits(n: usize) -> Vec<Split> {
        // Build a real table to get genuine splits.
        let cluster = tectonic::TectonicCluster::new(tectonic::ClusterConfig::small());
        let opts = dwrf::WriterOptions {
            rows_per_stripe: 5,
            ..Default::default()
        };
        let table = Table::create(
            cluster,
            TableConfig::new(TableId(1), "m").with_writer_options(opts),
        )
        .unwrap();
        let samples: Vec<Sample> = (0..n * 5)
            .map(|i| {
                let mut s = Sample::new(i as f32);
                s.set_dense(dsi_types::FeatureId(1), i as f32);
                s
            })
            .collect();
        table.write_partition(PartitionId::new(0), samples).unwrap();
        table
            .scan(
                PartitionId::new(0)..PartitionId::new(1),
                Projection::new(vec![dsi_types::FeatureId(1)]),
            )
            .plan_splits()
    }

    #[test]
    fn splits_served_exactly_once() {
        let master = Master::new(SessionId(1), make_splits(4));
        let w = master.register_worker();
        let mut seen = Vec::new();
        while let Some(split) = master.request_split(w).unwrap() {
            seen.push(split.index);
            master.complete_split(w, split.index).unwrap();
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert!(master.is_complete());
        assert_eq!(master.completed_splits(), 4);
    }

    #[test]
    fn unregistered_worker_rejected() {
        let master = Master::new(SessionId(1), make_splits(1));
        assert!(master.request_split(WorkerId(99)).is_err());
    }

    #[test]
    fn failed_worker_splits_requeued() {
        let master = Master::new(SessionId(1), make_splits(3));
        let w1 = master.register_worker();
        let s1 = master.request_split(w1).unwrap().unwrap();
        let _s2 = master.request_split(w1).unwrap().unwrap();
        assert_eq!(master.split_state(s1.index), SplitState::InFlight(w1));

        master.fail_worker(w1);
        assert_eq!(master.split_state(s1.index), SplitState::Pending);
        assert_eq!(master.worker_count(), 0);

        // A fresh worker picks the requeued work; stale completions from
        // the failed worker are rejected.
        assert!(master.complete_split(w1, s1.index).is_err());
        let w2 = master.register_worker();
        let mut count = 0;
        while let Some(split) = master.request_split(w2).unwrap() {
            master.complete_split(w2, split.index).unwrap();
            count += 1;
        }
        assert_eq!(count, 3);
        assert!(master.is_complete());
    }

    #[test]
    fn checkpoint_restore_resumes() {
        let splits = make_splits(4);
        let master = Master::new(SessionId(2), splits.clone());
        let w = master.register_worker();
        // Complete two splits, leave one in flight.
        for _ in 0..2 {
            let s = master.request_split(w).unwrap().unwrap();
            master.complete_split(w, s.index).unwrap();
        }
        let _in_flight = master.request_split(w).unwrap().unwrap();
        let ckpt = master.checkpoint();
        assert_eq!(ckpt.completed.len(), 2);
        assert!((ckpt.progress() - 0.5).abs() < 1e-9);

        // "Master failure": restore from the checkpoint.
        let restored = Master::restore(&ckpt, splits).unwrap();
        let w2 = restored.register_worker();
        let mut remaining = Vec::new();
        while let Some(s) = restored.request_split(w2).unwrap() {
            remaining.push(s.index);
            restored.complete_split(w2, s.index).unwrap();
        }
        // The two incomplete splits (including the in-flight one) replay.
        assert_eq!(remaining.len(), 2);
        assert!(restored.is_complete());
    }

    #[test]
    fn restore_validates_split_count() {
        let splits = make_splits(2);
        let ckpt = MasterCheckpoint {
            session: SessionId(1),
            completed: BTreeSet::new(),
            total: 99,
        };
        assert!(Master::restore(&ckpt, splits).is_err());
    }

    #[test]
    fn restore_rejects_out_of_range_completed_split() {
        let splits = make_splits(2);
        let ckpt = MasterCheckpoint {
            session: SessionId(1),
            completed: [7u64].into_iter().collect(),
            total: splits.len() as u64,
        };
        let err = Master::restore(&ckpt, splits).unwrap_err();
        assert!(matches!(err, DsiError::InvalidSpec(_)), "{err:?}");
    }

    #[test]
    fn restore_from_zero_completed_checkpoint_replays_everything() {
        // A checkpoint taken before any split finished (e.g. the master
        // died during the first splits) restores to a full replay.
        let splits = make_splits(3);
        let master = Master::new(SessionId(3), splits.clone());
        let w = master.register_worker();
        let _in_flight = master.request_split(w).unwrap().unwrap();
        let ckpt = master.checkpoint();
        assert!(ckpt.completed.is_empty());
        assert_eq!(ckpt.progress(), 0.0);

        let restored = Master::restore(&ckpt, splits).unwrap();
        assert_eq!(restored.completed_splits(), 0);
        assert!(!restored.is_complete());
        let w2 = restored.register_worker();
        let mut served = 0;
        while let Some(s) = restored.request_split(w2).unwrap() {
            restored.complete_split(w2, s.index).unwrap();
            served += 1;
        }
        assert_eq!(served, 3, "every split replays");
        assert!(restored.is_complete());
    }

    #[test]
    fn restore_after_every_worker_failed_serves_all_remaining_work() {
        // All workers die with work in flight; a checkpoint taken *after*
        // the carnage still restores to a master that finishes the epoch.
        let splits = make_splits(4);
        let master = Master::new(SessionId(4), splits.clone());
        let w1 = master.register_worker();
        let w2 = master.register_worker();
        let done = master.request_split(w1).unwrap().unwrap();
        master.complete_split(w1, done.index).unwrap();
        let _f1 = master.request_split(w1).unwrap().unwrap();
        let _f2 = master.request_split(w2).unwrap().unwrap();
        master.fail_worker(w1);
        master.fail_worker(w2);
        assert_eq!(master.worker_count(), 0);
        let ckpt = master.checkpoint();
        assert_eq!(ckpt.completed.len(), 1);

        let restored = Master::restore(&ckpt, splits).unwrap();
        assert_eq!(restored.worker_count(), 0, "restore registers nobody");
        let w = restored.register_worker();
        let mut served = Vec::new();
        while let Some(s) = restored.request_split(w).unwrap() {
            served.push(s.index);
            restored.complete_split(w, s.index).unwrap();
        }
        served.sort_unstable();
        assert_eq!(served.len(), 3, "the completed split does not replay");
        assert!(!served.contains(&done.index));
        assert!(restored.is_complete());
    }

    #[test]
    fn double_restore_from_same_checkpoint_is_independent() {
        // Restoring twice from one checkpoint (e.g. a botched failover
        // that started two replacement masters) must yield two masters
        // with disjoint state: progress on one never leaks into the other.
        let splits = make_splits(3);
        let master = Master::new(SessionId(5), splits.clone());
        let w = master.register_worker();
        let s = master.request_split(w).unwrap().unwrap();
        master.complete_split(w, s.index).unwrap();
        let ckpt = master.checkpoint();

        let a = Master::restore(&ckpt, splits.clone()).unwrap();
        let b = Master::restore(&ckpt, splits).unwrap();
        let wa = a.register_worker();
        while let Some(s) = a.request_split(wa).unwrap() {
            a.complete_split(wa, s.index).unwrap();
        }
        assert!(a.is_complete());
        // Master B saw none of A's completions.
        assert_eq!(b.completed_splits(), 1);
        assert!(!b.is_complete());
        let wb = b.register_worker();
        let mut served = 0;
        while let Some(s) = b.request_split(wb).unwrap() {
            b.complete_split(wb, s.index).unwrap();
            served += 1;
        }
        assert_eq!(served, 2);
        assert!(b.is_complete());
    }

    #[test]
    fn replicated_handles_share_state() {
        let master = Master::new(SessionId(1), make_splits(2));
        let replica = master.clone();
        let w = master.register_worker();
        let s = master.request_split(w).unwrap().unwrap();
        replica.complete_split(w, s.index).unwrap();
        assert_eq!(master.completed_splits(), 1);
    }

    #[test]
    fn metrics_track_queue_depth_and_progress() {
        use dsi_obs::names;
        let master = Master::new(SessionId(1), make_splits(3));
        let reg = dsi_obs::Registry::new();
        master.attach_registry(&reg);
        let job = [("job", "sess1")];
        assert_eq!(reg.counter_value(names::MASTER_SPLITS_TOTAL, &job), 3);
        assert!((reg.gauge_value(names::MASTER_QUEUE_DEPTH, &job) - 3.0).abs() < 1e-9);

        let w = master.register_worker();
        assert!((reg.gauge_value(names::MASTER_WORKERS, &job) - 1.0).abs() < 1e-9);
        let s = master.request_split(w).unwrap().unwrap();
        assert!((reg.gauge_value(names::MASTER_QUEUE_DEPTH, &job) - 2.0).abs() < 1e-9);
        master.complete_split(w, s.index).unwrap();
        assert_eq!(
            reg.counter_value(names::MASTER_SPLITS_COMPLETED_TOTAL, &job),
            1
        );

        // A failed worker's in-flight split returns to the queue.
        let s2 = master.request_split(w).unwrap().unwrap();
        assert_eq!(s2.index, 1);
        master.fail_worker(w);
        assert!((reg.gauge_value(names::MASTER_QUEUE_DEPTH, &job) - 2.0).abs() < 1e-9);
        assert!((reg.gauge_value(names::MASTER_WORKERS, &job) - 0.0).abs() < 1e-9);

        master.checkpoint();
        master.checkpoint();
        assert_eq!(reg.counter_value(names::MASTER_CHECKPOINTS_TOTAL, &job), 2);
    }

    #[test]
    fn traced_serves_record_schedule_spans_with_sibling_replays() {
        let master = Master::new(SessionId(6), make_splits(3));
        let reg = dsi_obs::Registry::new();
        master.attach_registry(&reg);
        master.set_trace_config(TraceConfig::all());
        let w = master.register_worker();
        let (s0, ctx) = master.request_split_ctx(w).unwrap().unwrap();
        assert!(ctx.is_sampled());

        // The worker dies: the split requeues and is re-served — same
        // deterministic trace, fresh sibling Schedule span.
        master.fail_worker(w);
        let w2 = master.register_worker();
        let (s0b, ctx2) = master.request_split_ctx(w2).unwrap().unwrap();
        assert_eq!(s0b.index, s0.index);
        assert_eq!(ctx2.trace_id, ctx.trace_id, "replay stays in one trace");
        assert_ne!(ctx2.span_id, ctx.span_id, "each serve is its own span");

        let spans = reg.trace_spans();
        let schedules: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Schedule && s.split == s0.index)
            .collect();
        assert_eq!(schedules.len(), 2);
        assert!(schedules.iter().all(|s| s.parent_id == 0), "siblings");

        // Without a trace config (or when not sampled) the context is NONE
        // and nothing further is recorded.
        master.set_trace_config(TraceConfig::off());
        let (_, none_ctx) = master.request_split_ctx(w2).unwrap().unwrap();
        assert!(!none_ctx.is_sampled());
    }

    #[test]
    fn concurrent_workers_partition_the_queue() {
        let master = Master::new(SessionId(1), make_splits(20));
        let counted = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let master = master.clone();
                let counted = &counted;
                scope.spawn(move || {
                    let w = master.register_worker();
                    while let Some(split) = master.request_split(w).unwrap() {
                        master.complete_split(w, split.index).unwrap();
                        counted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(counted.load(std::sync::atomic::Ordering::Relaxed), 20);
        assert!(master.is_complete());
    }
}
