//! The split ledger: the one owner of the exactly-once delivery contract,
//! as a pure state machine — no lock, clock, channel, registry or split
//! payload. [`crate::Master`] wraps it in one lock and turns its
//! transitions into metrics and spans. `tests/ledger.rs` checks it
//! exhaustively.

use dsi_types::{DsiError, Result, WorkerId};
use std::collections::{BTreeSet, VecDeque};

/// Progress state of one split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SplitState {
    /// Waiting in the queue.
    Pending,
    /// Handed to a worker, not yet completed.
    InFlight(WorkerId),
    /// Completed.
    Done,
}

/// What [`SplitLedger::deliver`] made of one tensor envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// First sight of this `(split, seq)`: hand the tensor to the trainer.
    Fresh,
    /// Already delivered — a replayed split or a wire resend: drop it.
    Duplicate,
    /// The envelope names a split the session does not have: drop it.
    Rejected,
}

/// Split states, workers, queue and delivered tensors of one session.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitLedger {
    state: Vec<SplitState>,
    /// The `seq`s each split has delivered, in whatever order its clients
    /// took them off the endpoint.
    delivered: Vec<BTreeSet<u32>>,
    /// Each split's final `seq`, once its final tensor was delivered.
    last: Vec<Option<u32>>,
    queue: VecDeque<u64>,
    registered: BTreeSet<WorkerId>,
    next_worker: u64,
    completed: u64,
}

impl SplitLedger {
    /// A ledger over `total` splits, all pending in index order.
    pub fn new(total: usize) -> Self {
        Self {
            state: vec![SplitState::Pending; total],
            delivered: vec![BTreeSet::new(); total],
            last: vec![None; total],
            queue: (0..total as u64).collect(),
            registered: BTreeSet::new(),
            next_worker: 0,
            completed: 0,
        }
    }

    /// Registers a new worker, returning its id.
    pub fn register(&mut self) -> WorkerId {
        let id = WorkerId(self.next_worker);
        self.next_worker += 1;
        self.registered.insert(id);
        id
    }

    /// Hands the next pending split to `worker`.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::InvalidState`] for unregistered workers.
    pub fn request(&mut self, worker: WorkerId) -> Result<Option<u64>> {
        if !self.registered.contains(&worker) {
            return Err(DsiError::InvalidState(format!(
                "worker {worker} is not registered"
            )));
        }
        let split = self.queue.pop_front();
        if let Some(i) = split {
            self.state[i as usize] = SplitState::InFlight(worker);
        }
        Ok(split)
    }

    /// Records one tensor envelope reaching a client: a `seq` already in
    /// the split's delivered set is a duplicate. Two clients polling one
    /// endpoint may deliver a split's tensors out of order, so the split
    /// acks its worker once its final `seq` is known and every `seq` up to
    /// it is delivered — whichever tensor, fresh or duplicate, closes that
    /// set. A split replays when its worker was presumed dead, possibly
    /// after every tensor was delivered but before (or racing) the ack,
    /// and without the re-ack the replay would stay in flight forever. A
    /// stale or double ack is refused harmlessly.
    pub fn deliver(&mut self, worker: WorkerId, split: u64, seq: u32, last: bool) -> Delivery {
        let i = split as usize;
        let Some(seqs) = self.delivered.get_mut(i) else {
            return Delivery::Rejected;
        };
        let delivery = if seqs.insert(seq) {
            Delivery::Fresh
        } else {
            Delivery::Duplicate
        };
        if last {
            self.last[i] = Some(seq);
        }
        let closed =
            self.last[i].is_some_and(|end| seqs.range(..=end).count() as u64 == u64::from(end) + 1);
        if closed {
            let _ = self.complete(worker, split);
        }
        delivery
    }

    /// Completes a split directly — one whose tensors were all filtered out.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::InvalidState`] if the split is not in flight at
    /// `worker` (e.g. it was requeued after a presumed failure).
    pub fn complete(&mut self, worker: WorkerId, split: u64) -> Result<()> {
        if self.state.get(split as usize) != Some(&SplitState::InFlight(worker)) {
            return Err(DsiError::InvalidState(format!(
                "split {split} is not in flight at {worker}"
            )));
        }
        self.state[split as usize] = SplitState::Done;
        self.completed += 1;
        Ok(())
    }

    /// Gracefully drains a worker: it is served nothing more, but its
    /// splits stay in flight so their buffered tensors can still ack.
    pub fn drain(&mut self, worker: WorkerId) {
        self.registered.remove(&worker);
    }

    /// Deregisters a failed worker and requeues, at the front, every split
    /// in flight at it; its late acks are refused from then on.
    pub fn fail_worker(&mut self, worker: WorkerId) {
        self.registered.remove(&worker);
        for (i, state) in self.state.iter_mut().enumerate() {
            if *state == SplitState::InFlight(worker) {
                *state = SplitState::Pending;
                self.queue.push_front(i as u64);
            }
        }
    }

    /// The ledger a restarted master resumes from: completed splits and
    /// delivered `seq` sets are kept, every other split is pending again
    /// and queued in index order, no worker is registered (ids restart at
    /// 0) and no final `seq` is known. A replayed tensor already in its
    /// split's delivered set is then a duplicate.
    pub fn checkpoint(&self) -> Self {
        let done = |i: u64| self.state(i) == SplitState::Done;
        let state = (0..self.total())
            .map(|i| {
                if done(i) {
                    SplitState::Done
                } else {
                    SplitState::Pending
                }
            })
            .collect();
        Self {
            state,
            delivered: self.delivered.clone(),
            last: vec![None; self.state.len()],
            queue: (0..self.total()).filter(|&i| !done(i)).collect(),
            registered: BTreeSet::new(),
            next_worker: 0,
            completed: self.completed,
        }
    }

    /// State of one split; panics if `split` is out of range.
    pub fn state(&self, split: u64) -> SplitState {
        self.state[split as usize]
    }

    /// Total splits.
    pub fn total(&self) -> u64 {
        self.state.len() as u64
    }

    /// Completed splits.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Whether every split has completed.
    pub fn is_complete(&self) -> bool {
        self.completed == self.total()
    }

    /// Splits waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Currently registered workers.
    pub fn workers(&self) -> usize {
        self.registered.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_split_is_rejected_and_changes_nothing() {
        let mut ledger = SplitLedger::new(2);
        let w = ledger.register();
        let before = ledger.clone();
        assert_eq!(ledger.deliver(w, 2, 0, true), Delivery::Rejected);
        assert_eq!(
            ledger.deliver(w, u64::MAX, u32::MAX, false),
            Delivery::Rejected
        );
        assert!(ledger.complete(w, 9).is_err());
        assert_eq!(ledger, before);
    }

    #[test]
    fn delivery_rule() {
        let mut ledger = SplitLedger::new(1);
        let (a, b) = (ledger.register(), ledger.register());
        assert_eq!(ledger.request(a).unwrap(), Some(0));
        assert_eq!(ledger.deliver(a, 0, 0, false), Delivery::Fresh);
        assert_eq!(ledger.deliver(a, 0, 0, false), Delivery::Duplicate);
        // `a` dies after its last tensor left but before the client took
        // it: the fresh final tensor's ack is refused...
        ledger.fail_worker(a);
        assert_eq!(ledger.deliver(a, 0, 1, true), Delivery::Fresh);
        assert_eq!(ledger.state(0), SplitState::Pending);
        // ...and the replay's duplicate final tensor re-acks `b`.
        assert_eq!(ledger.request(b).unwrap(), Some(0));
        assert_eq!(ledger.deliver(b, 0, 0, false), Delivery::Duplicate);
        assert_eq!(ledger.deliver(b, 0, 1, true), Delivery::Duplicate);
        assert!(ledger.is_complete());
        assert!(ledger.request(a).is_err(), "failed workers stay out");
    }

    #[test]
    fn tensors_delivered_out_of_order_are_both_fresh() {
        // Two clients on one endpoint: one takes `seq 0`, the other takes
        // `seq 1` and delivers it first.
        let mut ledger = SplitLedger::new(1);
        let w = ledger.register();
        assert_eq!(ledger.request(w).unwrap(), Some(0));
        assert_eq!(ledger.deliver(w, 0, 1, true), Delivery::Fresh);
        assert_eq!(ledger.state(0), SplitState::InFlight(w), "seq 0 is out");
        assert_eq!(ledger.deliver(w, 0, 0, false), Delivery::Fresh);
        assert_eq!(ledger.state(0), SplitState::Done);
        assert_eq!(ledger.completed(), 1);
        assert_eq!(ledger.deliver(w, 0, 1, true), Delivery::Duplicate);
        assert_eq!(ledger.completed(), 1, "the split completes once");
    }
}
