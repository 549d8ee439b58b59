//! The DPP Master: split distribution, progress tracking, checkpointing,
//! worker health, and replicated failover.
//!
//! The Master breaks the whole preprocessing workload into independent,
//! self-contained **splits** (successive rows of the dataset) and serves
//! them to Workers on request, tracking progress as splits complete
//! (§III-B1). Workers are stateless, so a failed worker's in-flight splits
//! are simply requeued; the Master itself checkpoints its reader state
//! periodically and is replicated to avoid a single point of failure.
//!
//! Every delivery fact lives in its [`SplitLedger`]; the Master adds one
//! lock, the split payloads, metrics and `Schedule` spans.

use crate::ledger::{Delivery, MasterCheckpoint, SplitLedger};
use dsi_obs::{next_span_id, now_ns, SpanKind, TraceContext, TraceSpan};
use dsi_trace::TraceConfig;
use dsi_types::{Result, SessionId, WorkerId};
use parking_lot::Mutex;
use std::sync::Arc;
use warehouse::Split;

struct Inner {
    ledger: SplitLedger,
    splits: Vec<Split>,
    /// The attached registry and the `job` label (the session id) every
    /// series this Master writes carries.
    registry: Option<(dsi_obs::Registry, String)>,
    trace: TraceConfig,
}

impl Inner {
    /// What the published series read.
    fn gauges(&self) -> (usize, usize, u64) {
        let l = &self.ledger;
        (l.queued(), l.workers(), l.completed())
    }

    /// Publishes queue depth, worker count, and split progress. The
    /// registry lives inside the shared state so every Master clone
    /// (replica) reports into the same series.
    fn publish_metrics(&self) {
        let Some((reg, job)) = &self.registry else {
            return;
        };
        use dsi_obs::names;
        let labels = [("job", job.as_str())];
        let (queued, workers, completed) = self.gauges();
        reg.gauge(names::MASTER_QUEUE_DEPTH, &labels)
            .set(queued as f64);
        reg.gauge(names::MASTER_WORKERS, &labels)
            .set(workers as f64);
        reg.counter(names::MASTER_SPLITS_TOTAL, &labels)
            .advance_to(self.splits.len() as u64);
        reg.counter(names::MASTER_SPLITS_COMPLETED_TOTAL, &labels)
            .advance_to(completed);
    }

    /// Records the instant `Schedule` span of serving `split` to `worker`
    /// when the split is sampled and a registry is attached, returning the
    /// context the worker's spans parent under (`NONE` otherwise).
    fn schedule_span(&self, session: SessionId, worker: WorkerId, split: u64) -> TraceContext {
        let trace_id = self.trace.trace_id(session, split);
        let Some((reg, _)) = self.registry.as_ref().filter(|_| trace_id != 0) else {
            return TraceContext::NONE;
        };
        let span_id = next_span_id();
        let now = now_ns();
        reg.record_span(TraceSpan {
            trace_id,
            span_id,
            parent_id: 0,
            kind: SpanKind::Schedule,
            start_ns: now,
            end_ns: now,
            split,
            worker: worker.0,
            seq: 0,
            flags: 0,
        });
        TraceContext { trace_id, span_id }
    }
}

/// The session Master (cheaply cloneable; clones share state, which also
/// models the replicated-master pair — both replicas observe one durable
/// state).
#[derive(Clone)]
pub struct Master {
    session: SessionId,
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for Master {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.inner.lock();
        f.debug_struct("Master")
            .field("session", &self.session)
            .field("total", &s.splits.len())
            .field("completed", &s.ledger.completed())
            .field("queued", &s.ledger.queued())
            .finish()
    }
}

impl Master {
    /// Creates a Master over the session's splits (dataset order).
    pub fn new(session: SessionId, splits: Vec<Split>) -> Self {
        Self::over(session, SplitLedger::new(splits.len()), splits)
    }

    fn over(session: SessionId, ledger: SplitLedger, splits: Vec<Split>) -> Self {
        Self {
            session,
            inner: Arc::new(Mutex::new(Inner {
                ledger,
                splits,
                registry: None,
                trace: TraceConfig::off(),
            })),
        }
    }

    /// Applies one transition under the lock and republishes the series
    /// it moved.
    fn transition<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        let mut s = self.inner.lock();
        let before = s.gauges();
        let out = f(&mut s);
        if s.gauges() != before {
            s.publish_metrics();
        }
        out
    }

    /// Enables distributed tracing for split serves. Like
    /// [`Master::attach_registry`], setting it through any replica covers
    /// all clones — and must be re-applied after [`Master::restore`]
    /// (checkpoints do not carry tracing state), so re-served splits after
    /// a failover land in the same deterministic traces.
    pub fn set_trace_config(&self, trace: TraceConfig) {
        self.inner.lock().trace = trace;
    }

    /// The owning session.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Attaches a metrics registry: queue depth, worker count, split
    /// progress, and checkpoint counts are published into it from then on.
    /// Clones share state, so attaching through any replica covers all.
    pub fn attach_registry(&self, registry: &dsi_obs::Registry) {
        let mut s = self.inner.lock();
        s.registry = Some((registry.clone(), self.session.to_string()));
        s.publish_metrics();
    }

    /// [`SplitLedger::register`].
    pub fn register_worker(&self) -> WorkerId {
        self.transition(|s| s.ledger.register())
    }

    /// [`SplitLedger::drain`].
    pub fn drain_worker(&self, worker: WorkerId) {
        self.transition(|s| s.ledger.drain(worker));
    }

    /// [`SplitLedger::fail_worker`], for a crashed, failed or aborting
    /// worker. Stateless workers need no checkpoint restore.
    pub fn fail_worker(&self, worker: WorkerId) {
        self.transition(|s| s.ledger.fail_worker(worker));
    }

    /// [`SplitLedger::request`], returning the split with its trace
    /// context. When the split is sampled (deterministic in session and split
    /// index) and a registry is attached, serving it records a top-level
    /// `Schedule` span and returns the context the worker's spans parent
    /// under. A split re-served after a worker failure or master restore
    /// gets a *fresh* `Schedule` span in the *same* trace — replayed
    /// executions appear as sibling subtrees.
    ///
    /// # Errors
    ///
    /// As [`SplitLedger::request`].
    pub fn request_split(&self, worker: WorkerId) -> Result<Option<(Split, TraceContext)>> {
        self.transition(|s| {
            let Some(i) = s.ledger.request(worker)? else {
                return Ok(None);
            };
            let ctx = s.schedule_span(self.session, worker, i);
            Ok(Some((s.splits[i as usize].clone(), ctx)))
        })
    }

    /// [`SplitLedger::complete`].
    ///
    /// # Errors
    ///
    /// As [`SplitLedger::complete`].
    pub fn complete_split(&self, worker: WorkerId, split: u64) -> Result<()> {
        self.transition(|s| s.ledger.complete(worker, split))
    }

    /// [`SplitLedger::deliver`].
    pub fn deliver(&self, worker: WorkerId, split: u64, seq: u32, last: bool) -> Delivery {
        self.transition(|s| s.ledger.deliver(worker, split, seq, last))
    }

    /// Reads the ledger under the lock — split states, counts, workers
    /// (e.g. `master.ledger(SplitLedger::is_complete)`).
    pub fn ledger<R>(&self, read: impl FnOnce(&SplitLedger) -> R) -> R {
        read(&self.inner.lock().ledger)
    }

    /// [`SplitLedger::checkpoint`], counted in the registry.
    pub fn checkpoint(&self) -> MasterCheckpoint {
        let s = self.inner.lock();
        if let Some((reg, job)) = &s.registry {
            reg.counter(dsi_obs::names::MASTER_CHECKPOINTS_TOTAL, &[("job", job)])
                .inc();
        }
        s.ledger.checkpoint(self.session)
    }

    /// A Master over the (re-planned) splits, from [`SplitLedger::restore`].
    ///
    /// # Errors
    ///
    /// As [`SplitLedger::restore`].
    pub fn restore(checkpoint: &MasterCheckpoint, splits: Vec<Split>) -> Result<Master> {
        let ledger = SplitLedger::restore(checkpoint, splits.len())?;
        Ok(Self::over(checkpoint.session, ledger, splits))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ledger::SplitState;
    use dsi_types::DsiError;
    use dsi_types::{PartitionId, Projection, Sample, TableId};
    use std::collections::{BTreeMap, BTreeSet};
    use warehouse::{Table, TableConfig};

    /// `n` genuine one-stripe splits of a real table.
    pub(crate) fn make_splits(n: usize) -> Vec<Split> {
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
        while let Some((split, _)) = master.request_split(w).unwrap() {
            seen.push(split.index);
            master.complete_split(w, split.index).unwrap();
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert!(master.ledger(SplitLedger::is_complete));
        assert_eq!(master.ledger(SplitLedger::completed), 4);
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
        let (s1, _) = master.request_split(w1).unwrap().unwrap();
        let _s2 = master.request_split(w1).unwrap().unwrap();
        assert_eq!(
            master.ledger(|l| l.state(s1.index)),
            SplitState::InFlight(w1)
        );

        master.fail_worker(w1);
        assert_eq!(master.ledger(|l| l.state(s1.index)), SplitState::Pending);
        assert_eq!(master.ledger(SplitLedger::workers), 0);

        // A fresh worker picks the requeued work; stale completions from
        // the failed worker are rejected.
        assert!(master.complete_split(w1, s1.index).is_err());
        let w2 = master.register_worker();
        let mut count = 0;
        while let Some((split, _)) = master.request_split(w2).unwrap() {
            master.complete_split(w2, split.index).unwrap();
            count += 1;
        }
        assert_eq!(count, 3);
        assert!(master.ledger(SplitLedger::is_complete));
    }

    #[test]
    fn checkpoint_restore_resumes() {
        let splits = make_splits(4);
        let master = Master::new(SessionId(2), splits.clone());
        let w = master.register_worker();
        // Complete two splits, leave one in flight.
        for _ in 0..2 {
            let (s, _) = master.request_split(w).unwrap().unwrap();
            master.complete_split(w, s.index).unwrap();
        }
        let _in_flight = master.request_split(w).unwrap().unwrap();
        let ckpt = master.checkpoint();
        assert_eq!(ckpt.completed.len(), 2);
        assert_eq!(2 * ckpt.completed.len() as u64, ckpt.total, "half done");

        // "Master failure": restore from the checkpoint.
        let restored = Master::restore(&ckpt, splits).unwrap();
        let w2 = restored.register_worker();
        let mut remaining = Vec::new();
        while let Some((s, _)) = restored.request_split(w2).unwrap() {
            remaining.push(s.index);
            restored.complete_split(w2, s.index).unwrap();
        }
        // The two incomplete splits (including the in-flight one) replay.
        assert_eq!(remaining.len(), 2);
        assert!(restored.ledger(SplitLedger::is_complete));
    }

    #[test]
    fn checkpoint_carries_delivered_tensors_through_restore() {
        let splits = make_splits(2);
        let master = Master::new(SessionId(2), splits.clone());
        let w = master.register_worker();
        let (s, _) = master.request_split(w).unwrap().unwrap();
        assert_eq!(master.deliver(w, s.index, 0, false), Delivery::Fresh);
        let ckpt = master.checkpoint();
        assert_eq!(
            ckpt.delivered,
            [(s.index, BTreeSet::from([0]))].into_iter().collect()
        );
        assert!(ckpt.completed.is_empty());

        // The replacement replays the split: the delivered tensor dedups
        // and the rest of the split completes it.
        let restored = Master::restore(&ckpt, splits).unwrap();
        let w2 = restored.register_worker();
        let (again, _) = restored.request_split(w2).unwrap().unwrap();
        assert_eq!(again.index, s.index);
        assert_eq!(restored.deliver(w2, s.index, 0, false), Delivery::Duplicate);
        assert_eq!(restored.deliver(w2, s.index, 1, true), Delivery::Fresh);
        assert_eq!(restored.ledger(|l| l.state(s.index)), SplitState::Done);
    }

    #[test]
    fn restore_validates_split_count() {
        let splits = make_splits(2);
        let ckpt = MasterCheckpoint {
            session: SessionId(1),
            completed: BTreeSet::new(),
            total: 99,
            delivered: BTreeMap::new(),
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
            delivered: BTreeMap::new(),
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
        assert_eq!((ckpt.completed.len(), ckpt.total), (0, 3), "none done");

        let restored = Master::restore(&ckpt, splits).unwrap();
        assert_eq!(restored.ledger(SplitLedger::completed), 0);
        assert!(!restored.ledger(SplitLedger::is_complete));
        let w2 = restored.register_worker();
        let mut served = 0;
        while let Some((s, _)) = restored.request_split(w2).unwrap() {
            restored.complete_split(w2, s.index).unwrap();
            served += 1;
        }
        assert_eq!(served, 3, "every split replays");
        assert!(restored.ledger(SplitLedger::is_complete));
    }

    #[test]
    fn restore_after_every_worker_failed_serves_all_remaining_work() {
        // All workers die with work in flight; a checkpoint taken *after*
        // the carnage still restores to a master that finishes the epoch.
        let splits = make_splits(4);
        let master = Master::new(SessionId(4), splits.clone());
        let w1 = master.register_worker();
        let w2 = master.register_worker();
        let (done, _) = master.request_split(w1).unwrap().unwrap();
        master.complete_split(w1, done.index).unwrap();
        let _f1 = master.request_split(w1).unwrap().unwrap();
        let _f2 = master.request_split(w2).unwrap().unwrap();
        master.fail_worker(w1);
        master.fail_worker(w2);
        assert_eq!(master.ledger(SplitLedger::workers), 0);
        let ckpt = master.checkpoint();
        assert_eq!(ckpt.completed.len(), 1);

        let restored = Master::restore(&ckpt, splits).unwrap();
        assert_eq!(
            restored.ledger(SplitLedger::workers),
            0,
            "restore registers nobody"
        );
        let w = restored.register_worker();
        let mut served = Vec::new();
        while let Some((s, _)) = restored.request_split(w).unwrap() {
            served.push(s.index);
            restored.complete_split(w, s.index).unwrap();
        }
        served.sort_unstable();
        assert_eq!(served.len(), 3, "the completed split does not replay");
        assert!(!served.contains(&done.index));
        assert!(restored.ledger(SplitLedger::is_complete));
    }

    #[test]
    fn double_restore_from_same_checkpoint_is_independent() {
        // Restoring twice from one checkpoint (e.g. a botched failover
        // that started two replacement masters) must yield two masters
        // with disjoint state: progress on one never leaks into the other.
        let splits = make_splits(3);
        let master = Master::new(SessionId(5), splits.clone());
        let w = master.register_worker();
        let (s, _) = master.request_split(w).unwrap().unwrap();
        master.complete_split(w, s.index).unwrap();
        let ckpt = master.checkpoint();

        let a = Master::restore(&ckpt, splits.clone()).unwrap();
        let b = Master::restore(&ckpt, splits).unwrap();
        let wa = a.register_worker();
        while let Some((s, _)) = a.request_split(wa).unwrap() {
            a.complete_split(wa, s.index).unwrap();
        }
        assert!(a.ledger(SplitLedger::is_complete));
        // Master B saw none of A's completions.
        assert_eq!(b.ledger(SplitLedger::completed), 1);
        assert!(!b.ledger(SplitLedger::is_complete));
        let wb = b.register_worker();
        let mut served = 0;
        while let Some((s, _)) = b.request_split(wb).unwrap() {
            b.complete_split(wb, s.index).unwrap();
            served += 1;
        }
        assert_eq!(served, 2);
        assert!(b.ledger(SplitLedger::is_complete));
    }

    #[test]
    fn replicated_handles_share_state() {
        let master = Master::new(SessionId(1), make_splits(2));
        let replica = master.clone();
        let w = master.register_worker();
        let (s, _) = master.request_split(w).unwrap().unwrap();
        replica.complete_split(w, s.index).unwrap();
        assert_eq!(master.ledger(SplitLedger::completed), 1);
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
        let (s, _) = master.request_split(w).unwrap().unwrap();
        assert!((reg.gauge_value(names::MASTER_QUEUE_DEPTH, &job) - 2.0).abs() < 1e-9);
        master.complete_split(w, s.index).unwrap();
        assert_eq!(
            reg.counter_value(names::MASTER_SPLITS_COMPLETED_TOTAL, &job),
            1
        );

        // A failed worker's in-flight split returns to the queue.
        let (s2, _) = master.request_split(w).unwrap().unwrap();
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
        let (s0, ctx) = master.request_split(w).unwrap().unwrap();
        assert!(ctx.is_sampled());

        // The worker dies: the split requeues and is re-served — same
        // deterministic trace, fresh sibling Schedule span.
        master.fail_worker(w);
        let w2 = master.register_worker();
        let (s0b, ctx2) = master.request_split(w2).unwrap().unwrap();
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
        let (_, none_ctx) = master.request_split(w2).unwrap().unwrap();
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
                    while let Some((split, _)) = master.request_split(w).unwrap() {
                        master.complete_split(w, split.index).unwrap();
                        counted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(counted.load(std::sync::atomic::Ordering::Relaxed), 20);
        assert!(master.ledger(SplitLedger::is_complete));
    }
}
