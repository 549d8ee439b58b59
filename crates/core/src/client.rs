//! DPP Clients: the trainer-side hook that fetches preprocessed tensors.
//!
//! A Client runs on each training node; the training runtime calls
//! [`Client::next_batch`] to obtain the next mini-batch tensor, which the
//! Client transparently fetches from Worker buffers. Clients use
//! **partitioned round-robin routing**: each polls a capped window of the
//! worker fleet so connection counts stay bounded as both sides scale
//! (§III-B1).
//!
//! Delivery is exactly-once: tensors travel in envelopes tagged with their
//! split and sequence number, and a Client hands each one to the Master's
//! [`crate::SplitLedger::deliver`], which drops replayed duplicates and
//! acknowledges a split only once its last tensor is *consumed*. A crashed
//! worker's unconsumed splits therefore replay on its replacement without
//! loss or duplication. The Client itself holds no delivery state.

use crate::ledger::{Delivery, SplitLedger};
use crate::master::Master;
use crossbeam::channel::{Receiver, Select, TryRecvError};
use dsi_types::{MiniBatchTensor, WorkerId};
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on one parked wait. Wakeups for new data arrive eagerly via
/// channel signals; the slice only bounds how long session-level changes the
/// channels cannot signal (completion by another client, autoscaler growth)
/// go unobserved.
const WAIT_SLICE: Duration = Duration::from_millis(5);

/// A tensor in flight from a Worker to a Client. Shared with the TCP
/// transport so both the in-process and wire data planes carry the exact
/// same cargo (and the wire path can replay it through the same dedup).
pub(crate) use wire::WireEnvelope as Envelope;

/// A worker endpoint visible to clients.
#[derive(Debug, Clone)]
pub(crate) struct Endpoint {
    pub(crate) id: WorkerId,
    pub(crate) receiver: Receiver<Envelope>,
    pub(crate) capacity: usize,
}

/// A trainer-side tensor fetcher.
#[derive(Debug, Clone)]
pub struct Client {
    registry: Arc<RwLock<Vec<Endpoint>>>,
    master: Master,
    /// Maximum simultaneous worker connections (round-robin partition).
    fanout: usize,
    /// This client's partition offset into the worker list.
    offset: usize,
    cursor: usize,
    obs: Option<dsi_obs::Registry>,
    /// `job` label value for session-scoped metrics, so two concurrent
    /// sessions publishing into one registry never collide.
    job: String,
    /// Trace context of the most recently delivered tensor's `Deliver`
    /// span; the trainer's `Consume` span parents under it.
    last_trace: dsi_obs::TraceContext,
}

impl Client {
    pub(crate) fn new(
        registry: Arc<RwLock<Vec<Endpoint>>>,
        master: Master,
        fanout: usize,
        offset: usize,
    ) -> Self {
        let job = master.session().to_string();
        Self {
            registry,
            master,
            fanout: fanout.max(1),
            offset,
            cursor: 0,
            obs: None,
            job,
            last_trace: dsi_obs::TraceContext::NONE,
        }
    }

    /// The connection cap.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Attaches a metrics registry: fetch latency, delivered batches, and
    /// starved polls (fan-out starvation, §III-B1) are published into it.
    pub fn attach_registry(&mut self, registry: &dsi_obs::Registry) {
        self.obs = Some(registry.clone());
    }

    /// Records a successful fetch: latency since `start` plus the batch.
    fn note_batch(&self, start: Instant) {
        if let Some(reg) = &self.obs {
            let labels = [("job", self.job.as_str())];
            reg.histogram(dsi_obs::names::CLIENT_FETCH_SECONDS, &labels)
                .record(start.elapsed().as_secs_f64());
            reg.counter(dsi_obs::names::CLIENT_BATCHES_TOTAL, &labels)
                .inc();
        }
    }

    /// Records a poll that found every polled buffer empty — the trainer
    /// would have stalled on this poll.
    fn note_starved(&self) {
        if let Some(reg) = &self.obs {
            reg.counter(
                dsi_obs::names::CLIENT_STARVED_POLLS_TOTAL,
                &[("job", self.job.as_str())],
            )
            .inc();
        }
    }

    /// Trace context of the most recently delivered (non-duplicate) tensor,
    /// i.e. its `Deliver` span. `NONE` until a sampled tensor arrives.
    pub fn last_trace(&self) -> dsi_obs::TraceContext {
        self.last_trace
    }

    /// The `job` label value (the session id) this client stamps on its
    /// session-scoped metrics; trainers reuse it for theirs.
    pub fn job(&self) -> &str {
        &self.job
    }

    /// Records a `Deliver` span for a sampled envelope the ledger did not
    /// reject. Duplicates are flagged so they show up as sibling spans
    /// under the same worker-side `Load` span rather than vanishing from
    /// the trace.
    fn note_deliver(&mut self, env: &Envelope, delivery: Delivery) {
        if env.trace_id == 0 || delivery == Delivery::Rejected {
            return;
        }
        let Some(reg) = &self.obs else { return };
        let duplicate = delivery == Delivery::Duplicate;
        let now = dsi_obs::now_ns();
        let span_id = dsi_obs::next_span_id();
        reg.record_span(dsi_obs::TraceSpan {
            trace_id: env.trace_id,
            span_id,
            parent_id: env.parent_span,
            kind: dsi_obs::SpanKind::Deliver,
            start_ns: now,
            end_ns: now,
            split: env.split,
            worker: env.worker.0,
            seq: env.seq,
            flags: if duplicate { dsi_obs::FLAG_REPLAY } else { 0 },
        });
        if !duplicate {
            self.last_trace = dsi_obs::TraceContext {
                trace_id: env.trace_id,
                span_id,
            };
        }
    }

    /// Fetches the next tensor batch, blocking until one is available or
    /// the session completes. Returns `None` at end of session.
    pub fn next_batch(&mut self) -> Option<MiniBatchTensor> {
        self.next_batch_deadline(Duration::MAX)
    }

    /// Like [`Client::next_batch`] but gives up after `deadline`.
    pub fn next_batch_deadline(&mut self, deadline: Duration) -> Option<MiniBatchTensor> {
        let start = Instant::now();
        loop {
            match self.poll_once() {
                Poll::Batch(t) => {
                    self.note_batch(start);
                    return Some(t);
                }
                Poll::Finished => return None,
                Poll::Pending => {
                    self.note_starved();
                    let elapsed = start.elapsed();
                    if elapsed > deadline {
                        return None;
                    }
                    self.wait_for_data(WAIT_SLICE.min(deadline - elapsed));
                }
            }
        }
    }

    /// Parks until some endpoint this client can see has data (or its
    /// worker hangs up), capped at `cap`. The endpoint list is
    /// re-snapshotted on every call so workers added by the autoscaler are
    /// picked up, and the cap bounds how stale a completion flip (e.g. a
    /// *different* client consuming the session's last tensor) can go
    /// unnoticed. Spurious wakeups are harmless: the caller re-polls.
    fn wait_for_data(&self, cap: Duration) {
        // Clone out of the registry so the autoscaler's write lock is not
        // held off for the duration of the park.
        let endpoints = self.registry.read().clone();
        let mut sel = Select::new();
        for e in endpoints.iter() {
            // Exhausted endpoints (drained + hung up) are permanently
            // "ready"; selecting on them would spin. Nothing more can
            // arrive from them, so leave them out of the wait set.
            if !(e.receiver.is_disconnected() && e.receiver.is_empty()) {
                sel.recv(&e.receiver);
            }
        }
        let _ = sel.ready_timeout(cap);
    }

    /// Non-blocking fetch.
    pub fn try_next_batch(&mut self) -> Option<MiniBatchTensor> {
        let start = Instant::now();
        match self.poll_once() {
            Poll::Batch(t) => {
                self.note_batch(start);
                Some(t)
            }
            Poll::Pending => {
                self.note_starved();
                None
            }
            Poll::Finished => None,
        }
    }

    /// Hands an envelope to the ledger; only a fresh tensor reaches the
    /// trainer.
    fn accept(&mut self, env: Envelope) -> Option<MiniBatchTensor> {
        let delivery = self
            .master
            .deliver(env.worker, env.split, env.seq, env.last);
        self.note_deliver(&env, delivery);
        (delivery == Delivery::Fresh).then_some(env.tensor)
    }

    fn poll_once(&mut self) -> Poll {
        let endpoints = self.registry.read().clone();
        if endpoints.is_empty() {
            return if self.master.ledger(SplitLedger::is_complete) {
                Poll::Finished
            } else {
                Poll::Pending
            };
        }
        let n = endpoints.len();
        let window = self.fanout.min(n);
        let mut disconnected = 0;
        for k in 0..window {
            let i = (self.offset + self.cursor + k) % n;
            loop {
                match endpoints[i].receiver.try_recv() {
                    Ok(env) => {
                        if let Some(t) = self.accept(env) {
                            self.cursor = (self.cursor + k + 1) % n.max(1);
                            return Poll::Batch(t);
                        }
                        // Duplicate dropped: keep draining this endpoint.
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        disconnected += 1;
                        break;
                    }
                }
            }
        }
        // Every polled endpoint dead and the dataset fully consumed:
        // nothing more will arrive through this client's partition.
        if disconnected == window && self.master.ledger(SplitLedger::is_complete) {
            // Widen to all endpoints once the session is done, in case the
            // partition missed stragglers.
            for e in &endpoints {
                while let Ok(env) = e.receiver.try_recv() {
                    if let Some(t) = self.accept(env) {
                        return Poll::Batch(t);
                    }
                }
            }
            return Poll::Finished;
        }
        // Rotate the partition window so capped-fanout clients cover the
        // whole fleet over successive polls (partitioned round-robin).
        self.cursor = (self.cursor + 1) % n;
        Poll::Pending
    }
}

enum Poll {
    Batch(MiniBatchTensor),
    Pending,
    Finished,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::tests::make_splits;
    use crossbeam::channel::bounded;
    use dsi_types::{Batch, Sample, SessionId};

    fn envelope(split: u64, seq: u32, last: bool, label: f32) -> Envelope {
        Envelope {
            split,
            seq,
            last,
            worker: WorkerId(0),
            trace_id: 0,
            parent_span: 0,
            tensor: Batch::from_samples(vec![Sample::new(label)]).materialize(&[], &[]),
        }
    }

    /// A master over six real splits, all completed: finished like a
    /// master with no splits, with splits 0..6 for envelopes to name.
    fn finished_master() -> Master {
        let master = Master::new(SessionId(1), make_splits(6));
        let w = master.register_worker();
        while let Some((split, _)) = master.request_split(w).unwrap() {
            master.complete_split(w, split.index).unwrap();
        }
        master
    }

    fn client(endpoints: Vec<Endpoint>, master: Master, fanout: usize) -> Client {
        Client::new(Arc::new(RwLock::new(endpoints)), master, fanout, 0)
    }

    #[test]
    fn round_robin_across_endpoints() {
        let (tx1, rx1) = bounded(4);
        let (tx2, rx2) = bounded(4);
        let endpoints = vec![
            Endpoint {
                id: WorkerId(0),
                receiver: rx1,
                capacity: 4,
            },
            Endpoint {
                id: WorkerId(1),
                receiver: rx2,
                capacity: 4,
            },
        ];
        tx1.send(envelope(0, 0, false, 1.0)).unwrap();
        tx1.send(envelope(0, 1, true, 2.0)).unwrap();
        tx2.send(envelope(1, 0, true, 3.0)).unwrap();
        let mut c = client(endpoints, finished_master(), usize::MAX);
        let mut labels = Vec::new();
        for _ in 0..3 {
            labels.push(c.try_next_batch().unwrap().labels[0]);
        }
        labels.sort_by(f32::total_cmp);
        assert_eq!(labels, vec![1.0, 2.0, 3.0]);
        drop((tx1, tx2));
    }

    #[test]
    fn duplicates_from_replay_are_dropped() {
        let (tx, rx) = bounded(8);
        let endpoints = vec![Endpoint {
            id: WorkerId(0),
            receiver: rx,
            capacity: 8,
        }];
        // Original delivery of seq 0, then a full replay of the split.
        tx.send(envelope(5, 0, false, 1.0)).unwrap();
        tx.send(envelope(5, 0, false, 1.0)).unwrap(); // replayed seq 0
        tx.send(envelope(5, 1, true, 2.0)).unwrap();
        drop(tx);
        let mut c = client(endpoints, finished_master(), usize::MAX);
        assert_eq!(c.try_next_batch().unwrap().labels[0], 1.0);
        // The duplicate seq 0 is skipped; seq 1 comes through.
        assert_eq!(c.try_next_batch().unwrap().labels[0], 2.0);
        assert!(c.try_next_batch().is_none());
    }

    #[test]
    fn finishes_when_complete_and_disconnected() {
        let (tx, rx) = bounded::<Envelope>(1);
        let endpoints = vec![Endpoint {
            id: WorkerId(0),
            receiver: rx,
            capacity: 1,
        }];
        let master = finished_master();
        assert!(master.ledger(SplitLedger::is_complete));
        tx.send(envelope(0, 0, false, 5.0)).unwrap();
        drop(tx);
        let mut c = client(endpoints, master, usize::MAX);
        assert_eq!(c.next_batch().unwrap().labels[0], 5.0);
        assert!(c.next_batch().is_none());
    }

    #[test]
    fn deadline_elapses_while_pending() {
        let (_tx, rx) = bounded::<Envelope>(1);
        let endpoints = vec![Endpoint {
            id: WorkerId(0),
            receiver: rx,
            capacity: 1,
        }];
        let mut c = client(endpoints, finished_master(), usize::MAX);
        // Master is complete but the channel is alive (worker running):
        // empty channel + live sender -> Pending until deadline.
        let got = c.next_batch_deadline(Duration::from_millis(20));
        assert!(got.is_none());
    }

    #[test]
    fn zero_deadline_returns_buffered_batch() {
        // A zero-duration deadline still polls once: an already-buffered
        // batch is returned rather than timing out before looking.
        let (tx, rx) = bounded::<Envelope>(2);
        let endpoints = vec![Endpoint {
            id: WorkerId(0),
            receiver: rx,
            capacity: 2,
        }];
        tx.send(envelope(0, 0, true, 4.0)).unwrap();
        let mut c = client(endpoints, finished_master(), usize::MAX);
        let got = c.next_batch_deadline(Duration::ZERO);
        assert_eq!(got.unwrap().labels[0], 4.0);
        drop(tx);
    }

    #[test]
    fn zero_deadline_on_empty_buffer_times_out_immediately() {
        let (_tx, rx) = bounded::<Envelope>(1);
        let endpoints = vec![Endpoint {
            id: WorkerId(0),
            receiver: rx,
            capacity: 1,
        }];
        let mut c = client(endpoints, finished_master(), usize::MAX);
        let start = Instant::now();
        assert!(c.next_batch_deadline(Duration::ZERO).is_none());
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "zero deadline must not park for a full wait slice cycle"
        );
    }

    #[test]
    fn deadline_timeout_charges_starved_polls_not_batches() {
        use dsi_obs::names;
        let (_tx, rx) = bounded::<Envelope>(1);
        let endpoints = vec![Endpoint {
            id: WorkerId(0),
            receiver: rx,
            capacity: 1,
        }];
        let mut c = client(endpoints, finished_master(), usize::MAX);
        let reg = dsi_obs::Registry::new();
        c.attach_registry(&reg);
        assert!(c.next_batch_deadline(Duration::from_millis(20)).is_none());
        // Every Pending poll before the deadline counts as a starved poll;
        // nothing is charged to the batch counter or fetch histogram. All
        // session-scoped client metrics carry the session's `job` label.
        let job = [("job", "sess1")];
        let starved = reg.counter_value(names::CLIENT_STARVED_POLLS_TOTAL, &job);
        assert!(starved >= 1, "timeout produced no starved polls");
        assert_eq!(reg.counter_value(names::CLIENT_BATCHES_TOTAL, &job), 0);
        let snap = reg.histogram(names::CLIENT_FETCH_SECONDS, &job).snapshot();
        assert_eq!(snap.count, 0);
    }

    #[test]
    fn fanout_widens_at_completion() {
        // A client partitioned away from the only productive worker still
        // drains it once the session completes.
        let (tx1, rx1) = bounded::<Envelope>(2);
        let (tx2, rx2) = bounded::<Envelope>(2);
        let endpoints = vec![
            Endpoint {
                id: WorkerId(0),
                receiver: rx1,
                capacity: 2,
            },
            Endpoint {
                id: WorkerId(1),
                receiver: rx2,
                capacity: 2,
            },
        ];
        tx2.send(envelope(0, 0, true, 9.0)).unwrap();
        drop(tx1);
        drop(tx2);
        let mut c = client(endpoints, finished_master(), 1);
        assert_eq!(c.fanout(), 1);
        assert_eq!(c.next_batch().unwrap().labels[0], 9.0);
        assert!(c.next_batch().is_none());
    }

    #[test]
    fn metrics_count_batches_and_starved_polls() {
        use dsi_obs::names;
        let (tx, rx) = bounded(4);
        let endpoints = vec![Endpoint {
            id: WorkerId(0),
            receiver: rx,
            capacity: 4,
        }];
        tx.send(envelope(0, 0, true, 1.0)).unwrap();
        let mut c = client(endpoints, finished_master(), usize::MAX);
        let reg = dsi_obs::Registry::new();
        c.attach_registry(&reg);
        assert!(c.try_next_batch().is_some());
        // Channel empty but the sender is alive: a starved poll.
        assert!(c.try_next_batch().is_none());
        let job = [("job", "sess1")];
        assert_eq!(reg.counter_value(names::CLIENT_BATCHES_TOTAL, &job), 1);
        assert_eq!(
            reg.counter_value(names::CLIENT_STARVED_POLLS_TOTAL, &job),
            1
        );
        let snap = reg.histogram(names::CLIENT_FETCH_SECONDS, &job).snapshot();
        assert_eq!(snap.count, 1);
        drop(tx);
    }

    #[test]
    fn deliver_spans_parent_under_envelope_and_flag_replays() {
        let (tx, rx) = bounded(8);
        let endpoints = vec![Endpoint {
            id: WorkerId(0),
            receiver: rx,
            capacity: 8,
        }];
        let mut traced = envelope(3, 0, true, 1.0);
        traced.trace_id = 0xFACE;
        traced.parent_span = 77;
        tx.send(traced.clone()).unwrap();
        tx.send(traced).unwrap(); // replayed duplicate
        tx.send(envelope(4, 0, true, 2.0)).unwrap(); // unsampled
        drop(tx);
        let mut c = client(endpoints, finished_master(), usize::MAX);
        let reg = dsi_obs::Registry::new();
        c.attach_registry(&reg);
        assert!(c.next_batch().is_some());
        assert!(c.next_batch().is_some());
        assert!(c.next_batch().is_none());

        let spans = reg.trace_spans();
        assert_eq!(spans.len(), 2, "one original + one replayed Deliver");
        for s in &spans {
            assert_eq!(s.kind, dsi_obs::SpanKind::Deliver);
            assert_eq!(s.trace_id, 0xFACE);
            assert_eq!(s.parent_id, 77);
            assert_eq!(s.split, 3);
        }
        assert_eq!(
            spans.iter().filter(|s| s.is_replay()).count(),
            1,
            "the duplicate is flagged as a replay sibling"
        );
        assert_ne!(spans[0].span_id, spans[1].span_id);
        // The client's last-delivered context points at the original span.
        let original = spans.iter().find(|s| !s.is_replay()).unwrap();
        assert_eq!(c.last_trace().trace_id, 0xFACE);
        assert_eq!(c.last_trace().span_id, original.span_id);
    }

    #[test]
    fn envelope_naming_an_unknown_split_is_rejected() {
        let (tx, rx) = bounded(4);
        let endpoints = vec![Endpoint {
            id: WorkerId(0),
            receiver: rx,
            capacity: 4,
        }];
        let mut unknown = envelope(6, 0, true, 1.0); // the session has 0..6
        unknown.trace_id = 0xFACE;
        tx.send(unknown).unwrap();
        tx.send(envelope(u64::MAX, u32::MAX, false, 2.0)).unwrap();
        tx.send(envelope(5, 0, true, 3.0)).unwrap();
        drop(tx);
        let mut c = client(endpoints, finished_master(), usize::MAX);
        let reg = dsi_obs::Registry::new();
        c.attach_registry(&reg);
        // Neither unknown split reaches the trainer or the trace ring.
        assert_eq!(c.next_batch().unwrap().labels[0], 3.0);
        assert!(c.next_batch().is_none());
        assert!(reg.trace_spans().is_empty());
    }

    #[test]
    fn consuming_last_tensor_acks_master() {
        // A master with one real split: the client's ack completes it.
        let master = Master::new(SessionId(1), make_splits(1));
        let w = master.register_worker();
        let (split, _) = master.request_split(w).unwrap().unwrap();
        assert!(!master.ledger(SplitLedger::is_complete));

        let (tx, rx) = bounded(2);
        let endpoints = vec![Endpoint {
            id: w,
            receiver: rx,
            capacity: 2,
        }];
        tx.send(Envelope {
            split: split.index,
            seq: 0,
            last: true,
            worker: w,
            trace_id: 0,
            parent_span: 0,
            tensor: Batch::from_samples(vec![Sample::new(1.0)]).materialize(&[], &[]),
        })
        .unwrap();
        drop(tx);
        let mut c = client(endpoints, master.clone(), usize::MAX);
        assert!(c.next_batch().is_some());
        assert!(master.ledger(SplitLedger::is_complete));
        assert!(c.next_batch().is_none());
    }
}
