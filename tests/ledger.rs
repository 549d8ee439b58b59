//! Exhaustive check of the exactly-once contract on [`dpp::SplitLedger`].
//!
//! A small world drives the ledger the way a session does. Workers
//! register, request splits and buffer each split's tensors in a FIFO
//! endpoint; a client takes envelopes off the endpoints and delivers
//! them in one step. A second client polls the same endpoints and takes
//! and delivers in two steps, so the first can deliver a split's later
//! tensor while the second still holds an earlier one. The faults are:
//! - a worker crash: the ledger fails the worker and its buffer is lost,
//!   except the envelope the client may already have taken off it;
//! - a duplicate delivery: a wire reconnect resends the last envelope;
//! - a master kill: the ledger is replaced by its checkpoint, and the
//!   session's workers, buffers and clients go with it — the second
//!   client's held envelope too.
//!
//! Graceful drains, and a worker's own drain when the queue runs dry, are
//! ordinary events. Every state reachable within the bounds is visited
//! once and checked:
//! - each `(split, seq)` is yielded at most once, and a split is done only
//!   once every one of its tensors was yielded;
//! - the queue holds exactly the pending splits;
//! - `checkpoint(s)` is `s` with every split not done pending again and
//!   queued in index order, no worker registered and every delivered
//!   tensor kept; checkpointing it again changes nothing, and a fresh
//!   worker on it is `WorkerId(0)`, served the pending splits in order;
//! - once faults stop, one fresh worker and a fault-free schedule reach
//!   "all done": every split done and every tensor yielded exactly once.

use dpp::{Delivery, SplitLedger, SplitState};
use dsi::types::WorkerId;
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};

/// `(worker, split, seq, last)`.
type Envelope = (WorkerId, u64, u32, bool);

#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct Endpoint {
    buffer: VecDeque<Envelope>,
    crashed: bool,
    drained: bool,
    /// The last envelope delivered from this endpoint: what a wire
    /// reconnect resends.
    resend: Option<Envelope>,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct World {
    ledger: SplitLedger,
    /// By worker id; ids restart at 0 after a restore.
    endpoints: Vec<Endpoint>,
    yielded: BTreeSet<(u64, u32)>,
    /// The envelope the second client took off an endpoint and has not
    /// delivered yet.
    held: Option<Envelope>,
    restores_left: u8,
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Spawn,
    Request(usize),
    Deliver(usize),
    Take(usize),
    Give,
    Drain(usize),
    Resend(usize),
    Crash(usize),
    Restore,
}

#[derive(Clone, Copy)]
struct Bounds {
    /// Workers per ledger incarnation.
    workers: usize,
    /// Tensors each split yields; a 0 is a split sampling filtered out.
    tensors: &'static [u32],
    restores: u8,
    /// Envelopes a worker may hold buffered and still request.
    buffer: usize,
    /// Whether the second client polls the endpoints.
    second_client: bool,
}

/// What the exploration saw, so a check that passes cannot be vacuous.
#[derive(Debug, Default)]
struct Coverage {
    states: usize,
    /// A duplicate final tensor re-acked a replayed split.
    reacks: usize,
    /// A fresh final tensor did not ack (its worker had failed, or an
    /// earlier tensor of its split was still out).
    refused_acks: usize,
    /// A fresh tensor was delivered after a later one of its split.
    overtaken: usize,
    restores: usize,
}

impl World {
    fn new(b: Bounds) -> Self {
        World {
            ledger: SplitLedger::new(b.tensors.len()),
            endpoints: Vec::new(),
            yielded: BTreeSet::new(),
            held: None,
            restores_left: b.restores,
        }
    }

    fn steps(&self, b: Bounds) -> Vec<Step> {
        let mut steps = Vec::new();
        if self.endpoints.len() < b.workers {
            steps.push(Step::Spawn);
        }
        for (w, e) in self.endpoints.iter().enumerate() {
            let live = !e.crashed && !e.drained;
            if live && e.buffer.len() < b.buffer {
                steps.push(Step::Request(w));
            }
            if !e.buffer.is_empty() {
                steps.push(Step::Deliver(w));
                if b.second_client && self.held.is_none() {
                    steps.push(Step::Take(w));
                }
            }
            if live {
                steps.push(Step::Drain(w));
            }
            if !e.crashed && e.resend.is_some() {
                steps.push(Step::Resend(w));
            }
            if !e.crashed {
                steps.push(Step::Crash(w));
            }
        }
        if self.held.is_some() {
            steps.push(Step::Give);
        }
        if self.restores_left > 0 {
            steps.push(Step::Restore);
        }
        steps
    }

    fn apply(&mut self, step: Step, b: Bounds, cov: &mut Coverage) -> Result<(), String> {
        let id = |w: usize| WorkerId(w as u64);
        match step {
            Step::Spawn => {
                let w = self.ledger.register();
                assert_eq!(w, id(self.endpoints.len()));
                self.endpoints.push(Endpoint::default());
            }
            Step::Request(w) => match self.ledger.request(id(w)) {
                Err(e) => return Err(format!("live worker {w} refused: {e}")),
                // The worker's stream ends; it drains itself.
                Ok(None) => {
                    self.ledger.drain(id(w));
                    self.endpoints[w].drained = true;
                }
                Ok(Some(split)) => {
                    let n = b.tensors[split as usize];
                    if n == 0 {
                        self.ledger
                            .complete(id(w), split)
                            .map_err(|e| format!("filtered split {split} refused: {e}"))?;
                    }
                    let buffer = &mut self.endpoints[w].buffer;
                    buffer.extend((0..n).map(|seq| (id(w), split, seq, seq + 1 == n)));
                }
            },
            Step::Deliver(w) => {
                let env = self.endpoints[w].buffer.pop_front().expect("enabled");
                self.deliver(env, cov)?;
                if !self.endpoints[w].crashed {
                    self.endpoints[w].resend = Some(env);
                }
            }
            Step::Take(w) => {
                self.held = self.endpoints[w].buffer.pop_front();
            }
            Step::Give => {
                let env = self.held.take().expect("enabled");
                self.deliver(env, cov)?;
            }
            Step::Resend(w) => {
                let env = self.endpoints[w].resend.expect("enabled");
                self.deliver(env, cov)?;
            }
            Step::Drain(w) => {
                self.ledger.drain(id(w));
                self.endpoints[w].drained = true;
            }
            Step::Crash(w) => {
                self.ledger.fail_worker(id(w));
                let e = &mut self.endpoints[w];
                e.crashed = true;
                e.buffer.truncate(1);
                e.resend = None;
            }
            Step::Restore => {
                self.ledger = self.ledger.checkpoint();
                self.endpoints.clear();
                self.held = None;
                self.restores_left -= 1;
                cov.restores += 1;
            }
        }
        Ok(())
    }

    /// One client delivery; a fresh tensor is yielded to the trainer.
    fn deliver(&mut self, env: Envelope, cov: &mut Coverage) -> Result<(), String> {
        let (worker, split, seq, last) = env;
        let overtaken = self
            .yielded
            .range((split, seq + 1)..(split + 1, 0))
            .next()
            .is_some();
        let before = self.ledger.completed();
        let delivery = self.ledger.deliver(worker, split, seq, last);
        let acked = self.ledger.completed() > before;
        match delivery {
            Delivery::Fresh if !self.yielded.insert((split, seq)) => {
                return Err(format!("({split}, {seq}) yielded twice"));
            }
            Delivery::Fresh => {
                cov.refused_acks += usize::from(last && !acked);
                cov.overtaken += usize::from(overtaken);
            }
            Delivery::Duplicate => cov.reacks += usize::from(acked),
            Delivery::Rejected => return Err(format!("known split {split} rejected")),
        }
        Ok(())
    }

    fn check(&self, b: Bounds, cov: &mut Coverage) -> Result<(), String> {
        let n = b.tensors.len() as u64;
        let mut pending = 0;
        for split in 0..n {
            match self.ledger.state(split) {
                SplitState::Pending => pending += 1,
                SplitState::Done => {
                    if let Some(seq) = (0..b.tensors[split as usize])
                        .find(|&q| !self.yielded.contains(&(split, q)))
                    {
                        return Err(format!(
                            "split {split} done before ({split}, {seq}) yielded"
                        ));
                    }
                }
                SplitState::InFlight(_) => {}
            }
        }
        if self.ledger.queued() != pending {
            return Err(format!(
                "{} queued but {pending} pending",
                self.ledger.queued()
            ));
        }

        let ckpt = self.ledger.checkpoint();
        let requeued = |s| match s {
            SplitState::Done => SplitState::Done,
            _ => SplitState::Pending,
        };
        let requeues = (0..n).all(|i| ckpt.state(i) == requeued(self.ledger.state(i)))
            && ckpt.completed() == self.ledger.completed()
            && ckpt.queued() as u64 == n - self.ledger.completed()
            && ckpt.workers() == 0;
        if !requeues {
            return Err("checkpoint(s) is not s with in-flight work requeued".into());
        }
        if ckpt.checkpoint() != ckpt {
            return Err("checkpoint(checkpoint(s)) != checkpoint(s)".into());
        }
        let mut resumed = ckpt.clone();
        if let Some(&(split, seq)) = self.yielded.iter().find(|&&(split, seq)| {
            resumed.deliver(WorkerId(0), split, seq, false) != Delivery::Duplicate
        }) {
            return Err(format!(
                "checkpoint(s) forgot that ({split}, {seq}) was delivered"
            ));
        }
        let mut resumed = ckpt.clone();
        let fresh = resumed.register();
        if fresh != WorkerId(0) {
            return Err(format!("first worker on checkpoint(s) is {fresh}"));
        }
        let served: Vec<u64> =
            std::iter::from_fn(|| resumed.request(fresh).expect("registered")).collect();
        let pending: Vec<u64> = (0..n)
            .filter(|&i| ckpt.state(i) == SplitState::Pending)
            .collect();
        if served != pending {
            return Err(format!(
                "checkpoint(s) serves {served:?}, pending {pending:?}"
            ));
        }

        self.clone().settle(b, cov)
    }

    /// Faults stop: the control plane spawns one fresh worker, the second
    /// client delivers what it holds, the first drains every buffer, and
    /// the worker serves until the queue is dry.
    fn settle(mut self, b: Bounds, cov: &mut Coverage) -> Result<(), String> {
        if let Some(env) = self.held.take() {
            self.deliver(env, cov)?;
        }
        let fresh = self.endpoints.len();
        self.endpoints.push(Endpoint::default());
        let registered = self.ledger.register();
        assert_eq!(registered, WorkerId(fresh as u64));
        loop {
            for w in 0..self.endpoints.len() {
                while let Some(env) = self.endpoints[w].buffer.pop_front() {
                    self.deliver(env, cov)?;
                }
            }
            if self.endpoints[fresh].drained {
                break;
            }
            self.apply(Step::Request(fresh), b, cov)?;
        }
        let missing = (0..b.tensors.len() as u64)
            .flat_map(|s| (0..b.tensors[s as usize]).map(move |q| (s, q)))
            .find(|pair| !self.yielded.contains(pair));
        match missing {
            _ if !self.ledger.is_complete() => Err(format!(
                "livelock: {} of {} splits done once faults stop",
                self.ledger.completed(),
                b.tensors.len()
            )),
            Some((s, q)) => Err(format!("({s}, {q}) never yielded")),
            None => Ok(()),
        }
    }
}

/// A 128-bit fingerprint of a world: the visited set keeps these rather
/// than the worlds, which holds the full bound's millions of states in
/// ~0.4 GB.
fn fingerprint(world: &World) -> u128 {
    let half = |salt: u8| {
        let mut h = DefaultHasher::new();
        salt.hash(&mut h);
        world.hash(&mut h);
        h.finish()
    };
    (u128::from(half(0)) << 64) | u128::from(half(1))
}

/// Visits every state reachable within `b`, checking each; panics with
/// the step sequence that reached the first violation.
fn explore(b: Bounds) -> Coverage {
    let mut cov = Coverage::default();
    let mut seen = HashSet::new();
    let mut path = Vec::new();
    visit(World::new(b), b, &mut seen, &mut path, &mut cov);
    cov.states = seen.len();
    cov
}

fn visit(
    world: World,
    b: Bounds,
    seen: &mut HashSet<u128>,
    path: &mut Vec<Step>,
    cov: &mut Coverage,
) {
    if !seen.insert(fingerprint(&world)) {
        return;
    }
    let fail = |why: String, path: &[Step]| -> ! { panic!("{why}\n  after {path:?}") };
    if let Err(why) = world.check(b, cov) {
        fail(why, path);
    }
    for step in world.steps(b) {
        let mut next = world.clone();
        path.push(step);
        if let Err(why) = next.apply(step, b, cov) {
            fail(why, path);
        }
        visit(next, b, seen, path, cov);
        path.pop();
    }
}

fn assert_covered(cov: &Coverage, b: Bounds) {
    assert!(cov.reacks > 0, "no duplicate final re-acked: {cov:?}");
    if b.second_client {
        assert!(cov.overtaken > 0, "no tensor overtaken: {cov:?}");
    }
    assert!(cov.refused_acks > 0, "no fresh final ack refused: {cov:?}");
    assert!(cov.restores > 0, "no restore: {cov:?}");
}

#[test]
fn ledger_is_exactly_once_and_live_over_small_interleavings() {
    // The second client multiplies the states about fivefold, so it runs
    // on the smallest world (whose one-client interleavings it includes).
    for (workers, tensors, second_client) in [
        (2, &[2, 1, 0][..], true),
        (2, &[1, 2, 2][..], false),
        (3, &[2, 1][..], false),
    ] {
        let b = Bounds {
            workers,
            tensors,
            restores: 1,
            buffer: 2,
            second_client,
        };
        let cov = explore(b);
        println!("{workers} workers, {tensors:?}, second client {second_client}: {cov:?}");
        assert_covered(&cov, b);
    }
}

/// The full bound: 3 workers, 4 splits, up to 2 tensors per split. Run
/// with `cargo test --release --test ledger -- --ignored`.
#[test]
#[ignore]
fn ledger_is_exactly_once_and_live_at_the_full_bound() {
    for tensors in [&[2, 2, 2, 2][..], &[2, 1, 0, 2][..]] {
        let b = Bounds {
            workers: 3,
            tensors,
            restores: 1,
            buffer: 2,
            second_client: false,
        };
        let cov = explore(b);
        println!("{tensors:?}: {cov:?}");
        assert_covered(&cov, b);
    }
}
