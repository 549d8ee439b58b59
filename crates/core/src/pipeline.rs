//! The one worker loop: extract → transform → load as three stage
//! functions, run at a depth.
//!
//! [`crate::session::SessionSpec::read_ahead`] is the depth. At depth 0
//! the worker's own thread calls the stages back to back — no channel, no
//! extra thread. At depth ≥ 1 fetch and transform move to their own
//! threads, so storage I/O overlaps CPU work:
//!
//! ```text
//!   fetch+decode ──bounded(depth)──▶ transform ──bounded(2)──▶ load/deliver
//!   (storage I/O)                    (CPU)                     (worker thread)
//! ```
//!
//! Either way the same three functions run. Fetch is the only stage that
//! *requests* work from the Master, deliver is the only one that
//! *acknowledges* or ships it, and transform is stateless (its accounting
//! travels downstream as a [`WorkerReport`] delta), so the exactly-once
//! envelope protocol does not depend on depth: a split is in flight from
//! `request_split` until the client acks its last tensor, wherever it sits
//! in the pipe. The stream ends with an [`EndReason`], which flows through
//! the same path as the items and is settled with the Master in one place.

use crate::client::Envelope;
use crate::master::Master;
use crate::service::ChaosSlot;
use crate::session::SessionSpec;
use crate::worker::{ExecPlan, ExtractCostModel, Worker, WorkerReport};
use chaos::{FaultKind, HookPoint};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use dsi_obs::{
    names, next_span_id, now_ns, observe_stage_seconds, stage, Registry, SpanKind, TraceContext,
    TraceSpan,
};
use dsi_types::{Batch, Sample, WorkerId};
use dwrf::IoPlan;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use warehouse::{Split, TableScan};

/// Why a worker's stream of splits ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EndReason {
    /// The Master handed out `None`: every split is assigned or done.
    Exhausted,
    /// The drain flag was observed between splits.
    Drained,
    /// The kill flag was observed: a simulated hard crash, which neither
    /// deregisters nor acknowledges — the health monitor requeues.
    Killed,
    /// `read_split` failed, or a stage thread died; the worker's splits
    /// must be requeued elsewhere.
    StageFailed,
    /// An injected `WorkerCrash` fired.
    Crashed,
    /// The Master rejected the request (worker deregistered concurrently).
    MasterGone,
    /// The session dropped the tensor buffer under us.
    ShutDown,
}

/// A split fetched and decoded, waiting for the transform stage.
struct Fetched {
    split: Split,
    rows: Vec<Sample>,
    plan: IoPlan,
    /// Trace context of the split's `Schedule` span (NONE when unsampled);
    /// each stage parents its span under it.
    trace: TraceContext,
    /// When decode finished — at depth ≥ 1 the gap until transform picks
    /// the item up is time the stages genuinely overlapped.
    ready_at: Instant,
}

/// A transformed split, waiting for the deliver stage.
struct Transformed {
    split: Split,
    batch: Batch,
    delta: WorkerReport,
    trace: TraceContext,
}

/// What the stages of one worker read but never write; cloned into the
/// stage threads. The carry and the report stay with the [`Worker`], which
/// only the deliver stage touches.
#[derive(Clone)]
struct Stages {
    master: Master,
    id: WorkerId,
    kill: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    obs: Arc<Mutex<Option<Registry>>>,
    /// The `job` label (the session id) on everything the stages record.
    job: Arc<str>,
    chaos: ChaosSlot,
    scan: TableScan,
    spec: Arc<SessionSpec>,
    exec: Arc<ExecPlan>,
    cost: ExtractCostModel,
}

/// A stage that has started; [`OpenStage::close`] records it. This is the
/// one bracket around a worker stage: it feeds `dsi_stage_seconds` on
/// every split and the trace ring on sampled ones.
struct OpenStage<'a> {
    reg: Registry,
    job: &'a str,
    /// The `dsi_stage_seconds` stage this bracket times, and since when.
    timed: Option<(&'static str, Instant)>,
    /// The trace span, when the split is sampled.
    span: Option<TraceSpan>,
}

impl OpenStage<'_> {
    /// The context child spans (storage reads, envelopes) hang under.
    fn ctx(&self) -> TraceContext {
        self.span.map_or(TraceContext::NONE, |span| TraceContext {
            trace_id: span.trace_id,
            span_id: span.span_id,
        })
    }

    fn close(mut self) -> TraceContext {
        if let Some((stage, started)) = self.timed {
            observe_stage_seconds(&self.reg, self.job, stage, started.elapsed().as_secs_f64());
        }
        if let Some(span) = &mut self.span {
            span.end_ns = now_ns();
            self.reg.record_span(*span);
        }
        self.ctx()
    }
}

impl Stages {
    /// Starts a stage under the split's schedule context, or `None` when
    /// no registry is attached — nothing below the slot read runs then, so
    /// an unobserved session reads no clock. Transform and load are timed
    /// here on every split; extract's seconds are the reader's to record
    /// (storage fetch, decompress and deserialize, three disjoint stages),
    /// so its bracket exists only to carry a sampled split's span. The
    /// slot is re-read per stage so a registry attached after launch still
    /// collects this worker's stages.
    fn open(&self, trace: TraceContext, kind: SpanKind, split: u64) -> Option<OpenStage<'_>> {
        let reg = self.obs.lock().clone()?;
        let timed = match kind {
            SpanKind::Transform => Some(stage::TRANSFORM),
            SpanKind::Load => Some(stage::LOAD),
            _ => None,
        };
        if timed.is_none() && !trace.is_sampled() {
            return None;
        }
        let span = trace.is_sampled().then(|| TraceSpan {
            trace_id: trace.trace_id,
            span_id: next_span_id(),
            parent_id: trace.span_id,
            kind,
            start_ns: now_ns(),
            end_ns: 0,
            split,
            worker: self.id.0,
            seq: 0,
            flags: 0,
        });
        Some(OpenStage {
            reg,
            job: &self.job,
            timed: timed.map(|stage| (stage, Instant::now())),
            span,
        })
    }

    /// Stage 1: asks the Master for a split and reads + decodes it. The
    /// only place the kill and drain flags stop the stream between splits.
    fn fetch(&self) -> Result<Fetched, EndReason> {
        if self.kill.load(Ordering::SeqCst) {
            return Err(EndReason::Killed);
        }
        if self.drain.load(Ordering::SeqCst) {
            // Graceful drain: stop taking new work; splits already buffered
            // stay in flight until clients consume and acknowledge them.
            return Err(EndReason::Drained);
        }
        let (split, trace) = match self.master.request_split(self.id) {
            Ok(Some(next)) => next,
            Ok(None) => return Err(EndReason::Exhausted),
            Err(_) => return Err(EndReason::MasterGone),
        };
        // Traced reads hang the storage subtree under the Extract span; a
        // failed read records none.
        let stage = self.open(trace, SpanKind::Extract, split.index);
        let read = match &stage {
            Some(s) => self.scan.read_split_traced(&split, s.ctx(), &s.reg),
            None => self.scan.read_split(&split),
        };
        let (rows, plan) = read.map_err(|_| EndReason::StageFailed)?;
        if let Some(s) = stage {
            s.close();
        }
        Ok(Fetched {
            split,
            rows,
            plan,
            trace,
            ready_at: Instant::now(),
        })
    }

    /// Stage 2: extract accounting plus the row-path transform plan (on
    /// the fast path that is the `Sampling` filter alone; the columnar
    /// kernels run in [`Worker::load_stage`], on the worker's own thread).
    fn transform(&self, f: Fetched) -> Transformed {
        let stage = self.open(f.trace, SpanKind::Transform, f.split.index);
        let (batch, delta) = Worker::transform_stage(
            &self.spec, &self.exec, &self.cost, &f.split, f.rows, &f.plan,
        );
        if let Some(s) = stage {
            s.close();
        }
        Transformed {
            split: f.split,
            batch,
            delta,
            trace: f.trace,
        }
    }

    /// Stage 3: batches the split into tensors and ships them. Always on
    /// the worker's own thread — it owns the carry and the report.
    fn deliver(
        &self,
        worker: &mut Worker,
        t: Transformed,
        tx: &Sender<Envelope>,
    ) -> Result<(), EndReason> {
        self.fire_worker_chaos()?;
        let stage = self.open(t.trace, SpanKind::Load, t.split.index);
        let mut tensors = worker.load_stage(t.batch, t.delta);
        // Per-split flush keeps replay exact under failures (no cross-split
        // rows inside any delivered tensor).
        tensors.extend(worker.flush());
        // All of a split's envelopes carry the Load span as their parent,
        // so wire/client spans attach per delivered tensor.
        let parent = stage.map_or(TraceContext::NONE, OpenStage::close);
        if self.kill.load(Ordering::SeqCst) {
            // Crash before delivering: the split replays on another worker,
            // so rows are still delivered exactly once.
            return Err(EndReason::Killed);
        }
        if tensors.is_empty() {
            // Nothing to deliver (e.g. sampling filtered every row): safe
            // to acknowledge immediately.
            let _ = self.master.complete_split(self.id, t.split.index);
            return Ok(());
        }
        let total = tensors.len();
        for (seq, tensor) in tensors.into_iter().enumerate() {
            let env = Envelope {
                split: t.split.index,
                seq: seq as u32,
                last: seq + 1 == total,
                worker: self.id,
                trace_id: parent.trace_id,
                parent_span: parent.span_id,
                tensor,
            };
            if tx.send(env).is_err() {
                return Err(EndReason::ShutDown);
            }
        }
        // Completion is acknowledged by the Client that consumes the
        // split's last tensor — not here.
        Ok(())
    }

    /// Fires the `WorkerSplit` chaos hook: once per split, after extract
    /// and transform, before load. `WorkerHang` and `SlowTransform` stall
    /// the worker's thread in place; `WorkerCrash` ends the stream, and
    /// every split this worker still holds — in the pipe or undelivered —
    /// requeues when the reason is settled.
    fn fire_worker_chaos(&self) -> Result<(), EndReason> {
        let guard = self.chaos.read();
        let Some(injector) = guard.as_ref() else {
            return Ok(());
        };
        let mut fate = Ok(());
        for kind in injector.fire(HookPoint::WorkerSplit) {
            match kind {
                FaultKind::WorkerCrash => fate = Err(EndReason::Crashed),
                FaultKind::WorkerHang { micros } | FaultKind::SlowTransform { micros } => {
                    std::thread::sleep(Duration::from_micros(micros));
                }
                _ => {}
            }
        }
        fate
    }

    /// Delivers items from `next` until the stream ends.
    fn deliver_all(
        &self,
        worker: &mut Worker,
        tx: &Sender<Envelope>,
        mut next: impl FnMut() -> Result<Transformed, EndReason>,
    ) -> EndReason {
        loop {
            if let Err(end) = next().and_then(|t| self.deliver(worker, t, tx)) {
                return end;
            }
        }
    }

    /// Depth ≥ 1: starts fetch and transform on their own threads and
    /// returns the channel the deliver stage reads. The end reason travels
    /// the channels behind the last item.
    fn spawn_upstream(
        &self,
        depth: usize,
        threads: &mut Vec<JoinHandle<()>>,
    ) -> Receiver<Result<Transformed, EndReason>> {
        let (fetch_tx, fetch_rx) = bounded::<Result<Fetched, EndReason>>(depth);
        let (t_tx, t_rx) = bounded(2);

        let stages = self.clone();
        threads.push(std::thread::spawn(move || loop {
            let item = stages.fetch();
            let last = item.is_err();
            // A failed send means downstream is gone; it decides why.
            if fetch_tx.send(item).is_err() || last {
                return;
            }
        }));

        let stages = self.clone();
        threads.push(std::thread::spawn(move || {
            while let Ok(item) = fetch_rx.recv() {
                let out = item.map(|f| {
                    if let Some(reg) = stages.obs.lock().clone() {
                        let labels = [("job", &*stages.job)];
                        // Depth of the decode read-ahead buffer *behind*
                        // this item: how far fetch has run ahead.
                        reg.gauge(names::FASTPATH_PREFETCH_DEPTH, &labels)
                            .set(fetch_rx.len() as f64);
                        reg.histogram(names::FASTPATH_STAGE_OVERLAP_SECONDS, &labels)
                            .record(f.ready_at.elapsed().as_secs_f64());
                    }
                    stages.transform(f)
                });
                if t_tx.send(out).is_err() {
                    return;
                }
            }
        }));
        t_rx
    }

    /// Settles the end of the stream with the Master.
    fn settle(&self, end: EndReason) {
        match end {
            EndReason::Exhausted | EndReason::Drained => self.master.drain_worker(self.id),
            EndReason::StageFailed | EndReason::Crashed | EndReason::ShutDown => {
                self.master.fail_worker(self.id)
            }
            EndReason::Killed | EndReason::MasterGone => {}
        }
    }
}

/// Deliver-thread poll slice while waiting on the transform thread; bounds
/// how stale a kill observation can get when the pipe is idle.
const POLL_SLICE: Duration = Duration::from_millis(5);

/// Runs one worker until its stream of splits ends, `depth` splits of
/// read-ahead between fetch and transform.
#[allow(clippy::too_many_arguments)]
pub(crate) fn worker_loop(
    master: Master,
    mut worker: Worker,
    tx: Sender<Envelope>,
    kill: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    depth: usize,
    obs: Arc<Mutex<Option<Registry>>>,
    chaos: ChaosSlot,
) -> WorkerReport {
    let stages = Stages {
        job: master.session().to_string().into(),
        master,
        id: worker.id(),
        kill,
        drain,
        obs,
        chaos,
        scan: worker.scan.clone(),
        spec: Arc::clone(&worker.spec),
        exec: Arc::clone(&worker.exec),
        cost: worker.cost,
    };
    let mut stage_threads = Vec::new();
    let end = if depth == 0 {
        stages.deliver_all(&mut worker, &tx, || {
            stages.fetch().map(|f| stages.transform(f))
        })
    } else {
        let transformed = stages.spawn_upstream(depth, &mut stage_threads);
        stages.deliver_all(&mut worker, &tx, || loop {
            if stages.kill.load(Ordering::SeqCst) {
                return Err(EndReason::Killed);
            }
            match transformed.recv_timeout(POLL_SLICE) {
                Ok(item) => return item,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return Err(EndReason::StageFailed),
            }
        })
        // Dropping `transformed` here fails the transform thread's next
        // send, whose exit in turn fails the fetch thread's.
    };
    stages.settle(end);
    if !stages.kill.load(Ordering::SeqCst) {
        // Only a hard crash detaches its stage threads. Every other exit
        // waits for them, so no read is still charging the cluster after
        // the worker is gone. A stage thread that panicked has already
        // ended the stream as `StageFailed`.
        for thread in stage_threads {
            let _ = thread.join();
        }
    }
    worker.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::{Projection, SessionId, TableId};

    #[test]
    fn bracket_needs_a_registry_and_times_transform_and_load_on_every_split() {
        let cluster = tectonic::TectonicCluster::new(tectonic::ClusterConfig::small());
        let table = warehouse::Table::create(cluster, warehouse::TableConfig::new(TableId(1), "t"))
            .unwrap();
        let spec = Arc::new(SessionSpec::builder(SessionId(4)).build());
        let stages = Stages {
            master: Master::new(spec.id, Vec::new()),
            id: WorkerId(0),
            kill: Arc::default(),
            drain: Arc::default(),
            obs: Arc::default(),
            job: "sess4".into(),
            chaos: Arc::default(),
            scan: table.scan(spec.partitions(), Projection::new(Vec::new())),
            exec: Arc::new(ExecPlan::for_spec(&spec)),
            spec,
            cost: ExtractCostModel::default(),
        };
        let sampled = TraceContext {
            trace_id: 7,
            span_id: 1,
        };
        let kinds = [SpanKind::Extract, SpanKind::Transform, SpanKind::Load];

        // Empty slot: even a sampled split opens no bracket.
        for kind in kinds {
            assert!(stages.open(sampled, kind, 0).is_none(), "{kind:?}");
        }

        let reg = Registry::new();
        *stages.obs.lock() = Some(reg.clone());
        // Unsampled split: transform and load are timed, nothing is traced,
        // and extract (the reader times it) has nothing to bracket.
        assert!(stages
            .open(TraceContext::NONE, SpanKind::Extract, 0)
            .is_none());
        for kind in [SpanKind::Transform, SpanKind::Load] {
            let open = stages.open(TraceContext::NONE, kind, 0).unwrap();
            assert_eq!(open.close(), TraceContext::NONE);
        }
        assert!(reg.trace_spans().is_empty());
        // Sampled split: all three close into the trace ring as well.
        for kind in kinds {
            let ctx = stages.open(sampled, kind, 0).unwrap().close();
            assert_eq!(ctx.trace_id, 7);
        }
        assert_eq!(reg.trace_spans().len(), 3);
        for (stage, spans) in [("extract", 0), ("transform", 2), ("load", 2)] {
            let labels = [("job", "sess4"), ("stage", stage)];
            let seen = reg.select(dsi_obs::STAGE_SECONDS, &labels);
            assert_eq!(seen.len(), usize::from(spans > 0), "{stage}");
            for (_, value) in seen {
                match value {
                    dsi_obs::MetricValue::Histogram(h) => assert_eq!(h.count, spans, "{stage}"),
                    other => panic!("{stage}: {other:?}"),
                }
            }
        }
    }
}
