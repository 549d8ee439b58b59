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
use dsi_obs::{names, next_span_id, now_ns, Registry, SpanKind, TraceContext, TraceSpan};
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
    chaos: ChaosSlot,
    scan: TableScan,
    spec: Arc<SessionSpec>,
    exec: Arc<ExecPlan>,
    cost: ExtractCostModel,
}

/// A stage span that has started; [`OpenSpan::close`] records it.
struct OpenSpan {
    reg: Registry,
    span: TraceSpan,
}

impl OpenSpan {
    /// The context child spans (storage reads, envelopes) hang under.
    fn ctx(&self) -> TraceContext {
        TraceContext {
            trace_id: self.span.trace_id,
            span_id: self.span.span_id,
        }
    }

    fn close(mut self) -> TraceContext {
        self.span.end_ns = now_ns();
        self.reg.record_span(self.span);
        self.ctx()
    }
}

impl Stages {
    /// Starts a stage span under the split's schedule context, or `None`
    /// when the split is unsampled or no registry is attached. The slot is
    /// re-read per stage so a registry attached after launch still
    /// collects this worker's spans.
    fn open_span(&self, trace: TraceContext, kind: SpanKind, split: &Split) -> Option<OpenSpan> {
        if !trace.is_sampled() {
            return None;
        }
        let reg = self.obs.lock().clone()?;
        let span = TraceSpan {
            trace_id: trace.trace_id,
            span_id: next_span_id(),
            parent_id: trace.span_id,
            kind,
            start_ns: now_ns(),
            end_ns: 0,
            split: split.index,
            worker: self.id.0,
            seq: 0,
            flags: 0,
        };
        Some(OpenSpan { reg, span })
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
        let (split, trace) = match self.master.request_split_ctx(self.id) {
            Ok(Some(next)) => next,
            Ok(None) => return Err(EndReason::Exhausted),
            Err(_) => return Err(EndReason::MasterGone),
        };
        // Traced reads hang the storage subtree under the Extract span; a
        // failed read records none.
        let span = self.open_span(trace, SpanKind::Extract, &split);
        let read = match &span {
            Some(s) => self.scan.read_split_traced(&split, s.ctx(), &s.reg),
            None => self.scan.read_split(&split),
        };
        let (rows, plan) = read.map_err(|_| EndReason::StageFailed)?;
        if let Some(s) = span {
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
        let span = self.open_span(f.trace, SpanKind::Transform, &f.split);
        let (batch, delta) = Worker::transform_stage(
            &self.spec, &self.exec, &self.cost, &f.split, f.rows, &f.plan,
        );
        if let Some(s) = span {
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
        let span = self.open_span(t.trace, SpanKind::Load, &t.split);
        let mut tensors = worker.load_stage(t.batch, t.delta);
        // Per-split flush keeps replay exact under failures (no cross-split
        // rows inside any delivered tensor).
        tensors.extend(worker.flush());
        // All of a split's envelopes carry the Load span as their parent,
        // so wire/client spans attach per delivered tensor.
        let parent = span.map_or(TraceContext::NONE, OpenSpan::close);
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
        // Sessions share registries under the fleet control plane, so the
        // per-worker pipeline gauges carry the job label like every other
        // session-scoped metric.
        let job = self.master.session().to_string();
        threads.push(std::thread::spawn(move || {
            while let Ok(item) = fetch_rx.recv() {
                let out = item.map(|f| {
                    if let Some(reg) = stages.obs.lock().clone() {
                        let labels = [("job", job.as_str())];
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
            EndReason::StageFailed | EndReason::Crashed => self.master.fail_worker(self.id),
            EndReason::ShutDown => self.master.deregister_worker(self.id),
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
