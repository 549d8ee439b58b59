//! The one worker loop: fetch → decode → transform → load as stage
//! functions, run at a depth.
//!
//! [`crate::session::SessionSpec::read_ahead`] is the depth. At depth 0
//! the worker's own thread calls the stages back to back — no channel, no
//! extra thread. At depth ≥ 1 the worker thread fetches and delivers its
//! first split itself, then moves fetch to a thread of its own, so the
//! storage I/O of the next splits overlaps the CPU work on this one. When
//! the hand-off already holds `depth` splits, the worker thread is the
//! bottleneck, so the fetch thread decodes the split it just read before
//! it waits for room; the worker thread decodes only what arrives raw:
//!
//! ```text
//!   fetch [→ decode] ──bounded(depth)──▶ [decode →] transform → load/deliver
//!   (fetch thread: storage I/O;           (worker thread: CPU)
//!    decode only when the pipe is full)
//! ```
//!
//! Load streams: each tensor is sent as soon as it is cut and its columnar
//! kernels have run, so the consumer takes a split's first tensor while
//! the rest are still being built.
//!
//! Either way the same functions run. Fetch is the only stage that
//! *requests* work from the Master and touches nothing of the [`Worker`];
//! deliver, on the worker thread, transforms and loads with the worker's
//! carry and report and is the only stage that *acknowledges* or ships a
//! split, so the exactly-once envelope protocol does not depend on
//! depth: a split is in flight from `request_split` until the client acks
//! its last tensor, wherever it sits in the pipe. The stream ends with an
//! [`EndReason`], which flows through the same path as the items and is
//! settled with the Master in one place.

use crate::client::Envelope;
use crate::master::Master;
use crate::service::ChaosSlot;
use crate::worker::{Tail, Worker, WorkerReport};
use chaos::{FaultKind, HookPoint};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use dsi_obs::{
    names, next_span_id, now_ns, observe_stage_seconds, stage, Registry, SpanKind, TraceContext,
    TraceSpan,
};
use dsi_types::{ColumnBatch, WorkerId};
use dwrf::IoPlan;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use warehouse::{FetchedSplit, Split, TableScan};

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
    /// A split failed to fetch or decode, or the fetch thread died; the
    /// worker's splits must be requeued elsewhere.
    StageFailed,
    /// An injected `WorkerCrash` fired.
    Crashed,
    /// The Master rejected the request (worker deregistered concurrently).
    MasterGone,
    /// The session dropped the tensor buffer under us.
    ShutDown,
}

/// A split read from storage, on its way to the worker thread.
struct Fetched {
    split: Split,
    stripe: Stripe,
    /// Trace context of the split's `Schedule` span (NONE when unsampled);
    /// each stage parents its span under it.
    trace: TraceContext,
    /// When the read (and a fetch-thread decode) finished — at depth ≥ 1
    /// the gap until the worker thread takes the item is time the stages
    /// genuinely overlapped.
    ready_at: Instant,
}

/// A fetched split's stripe: as read, or already decoded by the fetch
/// thread, which found its hand-off full.
enum Stripe {
    Raw(FetchedSplit),
    Decoded(ColumnBatch, IoPlan),
}

/// What the stages of one worker read but never write; cloned into the
/// fetch thread. The session spec, plan, carry and report stay with the
/// [`Worker`], which only the deliver stage touches.
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
    /// (storage fetch at fetch, decompress and deserialize at decode, three
    /// disjoint stages), so its bracket exists only to carry a sampled
    /// split's span. The slot is re-read per stage so a registry attached
    /// after launch still collects this worker's stages.
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

    /// Stage 1: asks the Master for a split and reads its stripe from
    /// storage, decoding nothing. The only place the kill and drain flags
    /// stop the stream between splits.
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
        // Traced reads hang the storage subtree and, once decoded, the
        // decode span under the Extract span; a failed read records none.
        let stage = self.open(trace, SpanKind::Extract, split.index);
        let stripe = self
            .scan
            .fetch_split(&split, stage.as_ref().map(|s| (s.ctx(), &s.reg)))
            .map_err(|_| EndReason::StageFailed)?;
        if let Some(s) = stage {
            s.close();
        }
        Ok(Fetched {
            split,
            stripe: Stripe::Raw(stripe),
            trace,
            ready_at: Instant::now(),
        })
    }

    /// Decodes a raw stripe; a decoded one passes through. A stripe that
    /// does not decode — a stream failing its checksum — ends the stream.
    fn decode(&self, stripe: Stripe) -> Result<(ColumnBatch, IoPlan), EndReason> {
        match stripe {
            Stripe::Raw(raw) => self
                .scan
                .decode_split(raw)
                .map_err(|_| EndReason::StageFailed),
            Stripe::Decoded(columns, plan) => Ok((columns, plan)),
        }
    }

    /// Decode on the fetch thread, run when its hand-off is full: the
    /// split goes down the pipe decoded, and ready from now.
    fn decode_ahead(&self, f: Fetched) -> Result<Fetched, EndReason> {
        let decoded = self.decode(f.stripe);
        if let Some(reg) = self.obs.lock().clone() {
            reg.counter(
                names::FASTPATH_FETCH_DECODED_SPLITS_TOTAL,
                &[("job", &*self.job)],
            )
            .inc();
        }
        let (columns, plan) = decoded?;
        Ok(Fetched {
            stripe: Stripe::Decoded(columns, plan),
            ready_at: Instant::now(),
            ..f
        })
    }

    /// Stage 2, on the worker's own thread: decodes the stripe if it
    /// arrived raw, runs extract accounting plus the row-path transform
    /// plan (on the fast path that is the `Sampling` filter alone), then
    /// cuts the split into tensors and ships each one as soon as its
    /// columnar kernels have run, so the consumer takes the first while
    /// the rest are being built.
    fn deliver(
        &self,
        worker: &mut Worker,
        f: Fetched,
        tx: &Sender<Envelope>,
    ) -> Result<(), EndReason> {
        let (columns, plan) = self.decode(f.stripe)?;
        let stage = self.open(f.trace, SpanKind::Transform, f.split.index);
        let batch = worker.transform_stage(&f.split, columns, &plan);
        if let Some(s) = stage {
            s.close();
        }
        self.fire_worker_chaos()?;
        // Every split ships its own tail (no cross-split rows inside any
        // delivered tensor keeps replay exact under failures), so the carry
        // is empty here and the split's tensor count is known before the
        // first send.
        let total = batch.len().div_ceil(worker.spec.batch_size);
        if total == 0 {
            if self.kill.load(Ordering::SeqCst) {
                return Err(EndReason::Killed);
            }
            // Nothing to deliver (e.g. sampling filtered every row): safe
            // to acknowledge immediately.
            let _ = self.master.complete_split(self.id, f.split.index);
            return Ok(());
        }
        let mut seq = 0;
        let mut stage = self.open(f.trace, SpanKind::Load, f.split.index);
        worker.load_stage(batch, Tail::Ship, |tensor| {
            // One Load span per tensor, closed before the send: it is the
            // envelope's parent, and time blocked on a full buffer is not
            // load time.
            let parent = stage.take().map_or(TraceContext::NONE, OpenStage::close);
            if self.kill.load(Ordering::SeqCst) {
                // Crash before delivering the rest: the split replays on
                // another worker, and the ledger drops the tensors already
                // delivered, so rows still arrive exactly once.
                return Err(EndReason::Killed);
            }
            let env = Envelope {
                split: f.split.index,
                seq: seq as u32,
                last: seq + 1 == total,
                worker: self.id,
                trace_id: parent.trace_id,
                parent_span: parent.span_id,
                tensor,
            };
            tx.send(env).map_err(|_| EndReason::ShutDown)?;
            seq += 1;
            if seq < total {
                stage = self.open(f.trace, SpanKind::Load, f.split.index);
            }
            Ok(())
        })
        // Completion is acknowledged by the Client that consumes the
        // split's last tensor — not here.
    }

    /// Fires the `WorkerSplit` chaos hook: once per split, after decode
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
        mut next: impl FnMut() -> Result<Fetched, EndReason>,
    ) -> EndReason {
        loop {
            if let Err(end) = next().and_then(|f| self.deliver(worker, f, tx)) {
                return end;
            }
        }
    }

    /// Depth ≥ 1: starts fetch on its own thread and returns the channel
    /// the worker thread reads. A split fetched while the channel holds
    /// `depth` items is decoded before it is sent, so the thread works
    /// instead of waiting for room. The end reason — a failed decode's
    /// too — travels the channel behind the last item.
    fn spawn_fetch(&self, depth: usize) -> (Receiver<Result<Fetched, EndReason>>, JoinHandle<()>) {
        let (fetch_tx, fetch_rx) = bounded(depth);
        let stages = self.clone();
        let thread = std::thread::spawn(move || loop {
            let mut item = stages.fetch();
            if fetch_tx.len() >= depth {
                item = item.and_then(|f| stages.decode_ahead(f));
            }
            let last = item.is_err();
            // A failed send means downstream is gone; it decides why.
            if fetch_tx.send(item).is_err() || last {
                return;
            }
        });
        (fetch_rx, thread)
    }

    /// Samples the read-ahead as the worker thread takes a fetched split:
    /// `behind` is how many more fetch has already read, and the overlap
    /// is how long this one waited once read (and decoded, if it was).
    fn observe_prefetch(&self, f: &Fetched, behind: usize) {
        if let Some(reg) = self.obs.lock().clone() {
            let labels = [("job", &*self.job)];
            reg.gauge(names::FASTPATH_PREFETCH_DEPTH, &labels)
                .set(behind as f64);
            reg.histogram(names::FASTPATH_STAGE_OVERLAP_SECONDS, &labels)
                .record(f.ready_at.elapsed().as_secs_f64());
        }
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

/// Worker-thread poll slice while waiting on the fetch thread; bounds how
/// stale a kill observation can get when the pipe is idle.
const POLL_SLICE: Duration = Duration::from_millis(5);

/// Runs one worker until its stream of splits ends, `depth` splits of
/// read-ahead between fetch and decode.
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
    };
    let (end, fetch_thread) = if depth == 0 {
        (
            stages.deliver_all(&mut worker, &tx, || stages.fetch()),
            None,
        )
    } else if let Err(end) = stages
        .fetch()
        .and_then(|f| stages.deliver(&mut worker, f, &tx))
    {
        (end, None)
    } else {
        // The first split was fetched and delivered right here: it does
        // not wait on a thread that has only just been spawned.
        let (fetched, thread) = stages.spawn_fetch(depth);
        let end = stages.deliver_all(&mut worker, &tx, || loop {
            if stages.kill.load(Ordering::SeqCst) {
                return Err(EndReason::Killed);
            }
            match fetched.recv_timeout(POLL_SLICE) {
                Ok(item) => {
                    if let Ok(f) = &item {
                        stages.observe_prefetch(f, fetched.len());
                    }
                    return item;
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return Err(EndReason::StageFailed),
            }
        });
        // Dropping `fetched` here fails the fetch thread's next send.
        (end, Some(thread))
    };
    stages.settle(end);
    if !stages.kill.load(Ordering::SeqCst) {
        // Only a hard crash detaches the fetch thread. Every other exit
        // waits for it, so no read is still charging the cluster after the
        // worker is gone. A fetch thread that panicked has already ended
        // the stream as `StageFailed`.
        if let Some(thread) = fetch_thread {
            let _ = thread.join();
        }
    }
    worker.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionSpec;
    use dsi_types::{Projection, SessionId, TableId};

    #[test]
    fn bracket_needs_a_registry_and_times_transform_and_load_on_every_split() {
        let cluster = tectonic::TectonicCluster::new(tectonic::ClusterConfig::small());
        let table = warehouse::Table::create(cluster, warehouse::TableConfig::new(TableId(1), "t"))
            .unwrap();
        let spec = SessionSpec::builder(SessionId(4)).build();
        let stages = Stages {
            master: Master::new(spec.id, Vec::new()),
            id: WorkerId(0),
            kill: Arc::default(),
            drain: Arc::default(),
            obs: Arc::default(),
            job: "sess4".into(),
            chaos: Arc::default(),
            scan: table.scan(spec.partitions(), Projection::new(Vec::new())),
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
