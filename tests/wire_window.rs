//! Exhaustive check of the wire flow-control and replay protocol on
//! [`wire::SendWindow`].
//!
//! A small world runs the protocol the way `WireServer` and `wire::connect`
//! do. The server is one thread around a `SendWindow`: while the window has
//! room it takes the next frame off its source, writes it and admits it;
//! with the window full, or the source closed, it reads one credit. Each
//! connection is a FIFO each way. The client reads frames into a bounded
//! channel, granting one credit per frame, and a consumer drains the
//! channel. The events are:
//! - admit (the window is offered a frame whether or not it has room),
//!   source close, credit read, `Goodbye`;
//! - client read, consume;
//! - a connection drop (the fault): both FIFOs are lost, and with them any
//!   credits the server had not read yet;
//! - reconnect: the client dials again and the server writes every frame
//!   `reconnect` hands back.
//!
//! Every state reachable within the bounds is visited once and checked:
//! - in flight (admitted and not retired) ≤ window;
//! - a retired frame has reached the client channel at least once;
//! - a replay is every unacked frame, in admission order;
//! - an over-credit, probed in every state with a live connection,
//!   retires only frames written on that connection and leaves no excess
//!   for frames admitted after it;
//! - `Goodbye` goes out only once every admitted frame was received;
//! - once faults stop, a fault-free schedule reaches `Goodbye`, with every
//!   admitted frame received.
//!
//! A smoke test then runs the real thing once: a `WireServer` and
//! `wire::connect` over localhost TCP, with one connection drop mid-stream.

use std::collections::{HashSet, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use chaos::{FaultEvent, FaultInjector, FaultKind, FaultPlan, HookPoint};
use crossbeam::channel::{bounded, RecvTimeoutError};
use dsi_obs::{names, Registry};
use dsi_types::{Batch, FeatureId, Sample, SparseList, WorkerId};
use wire::{SendWindow, WireChaos, WireConfig, WireEnvelope, WireObs, WireServer};

/// A data frame is its admission index.
type Frame = u8;

fn bit(f: Frame) -> u32 {
    1 << f
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ToClient {
    Data(Frame),
    Goodbye,
}

#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct Conn {
    to_client: VecDeque<ToClient>,
    /// Credit frames on their way to the server.
    credits: u8,
    /// Frames written on this connection.
    written: u32,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct World {
    window: SendWindow<Frame>,
    /// What the window should hold: admitted and not retired, oldest
    /// first.
    unacked: VecDeque<Frame>,
    /// Frames the source has handed over; the next one is this index.
    admitted: Frame,
    source_closed: bool,
    /// `None` while the connection is down.
    conn: Option<Conn>,
    /// The server wrote `Goodbye` and exited.
    server_done: bool,
    /// Envelopes in the client's bounded channel.
    queued: u8,
    /// Frames that reached the client channel at least once.
    received: u32,
    /// The client's stream ended: it read `Goodbye`, or the server is gone.
    client_done: bool,
    drops_left: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Admit,
    Close,
    ReadCredit,
    Goodbye,
    ClientRead,
    Consume,
    Drop,
    Reconnect,
}

#[derive(Clone, Copy)]
struct Bounds {
    window: usize,
    /// Frames the source can hand over before it has no more.
    frames: Frame,
    /// The client channel's capacity.
    channel: u8,
    drops: u8,
}

/// What the exploration saw, so a check that passes cannot be vacuous.
#[derive(Debug, Default)]
struct Coverage {
    states: usize,
    /// A full window refused a frame.
    refusals: usize,
    /// A reconnect replayed at least one frame.
    replays: usize,
    /// The client read a frame it had already received.
    duplicates: usize,
    /// An over-credit probe retired a written frame the client had not
    /// read yet.
    unread_over_credits: usize,
    goodbyes: usize,
}

impl World {
    fn new(b: Bounds) -> Self {
        World {
            window: SendWindow::new(b.window),
            unacked: VecDeque::new(),
            admitted: 0,
            source_closed: false,
            conn: Some(Conn::default()),
            server_done: false,
            queued: 0,
            received: 0,
            client_done: false,
            drops_left: b.drops,
        }
    }

    /// The server is in its send loop on a live connection.
    fn serving(&self) -> bool {
        self.conn.is_some() && !self.server_done
    }

    fn steps(&self, b: Bounds) -> Vec<Step> {
        let mut steps = Vec::new();
        if self.serving() {
            let room = self.window.has_room();
            if self.window.finished() {
                steps.push(Step::Goodbye);
            } else if !room && self.conn.as_ref().is_some_and(|c| c.credits > 0) {
                steps.push(Step::ReadCredit);
            }
            if !self.source_closed && self.admitted < b.frames {
                steps.push(Step::Admit);
            }
            if room {
                steps.push(Step::Close);
            }
        }
        if let Some(conn) = &self.conn {
            match conn.to_client.front() {
                Some(ToClient::Data(_)) if self.queued < b.channel => steps.push(Step::ClientRead),
                Some(ToClient::Goodbye) => steps.push(Step::ClientRead),
                _ => {}
            }
            if self.drops_left > 0 {
                steps.push(Step::Drop);
            }
        } else if !self.client_done {
            steps.push(Step::Reconnect);
        }
        if self.queued > 0 {
            steps.push(Step::Consume);
        }
        steps
    }

    fn apply(&mut self, step: Step, cov: &mut Coverage) -> Result<(), String> {
        match step {
            Step::Admit => {
                let f = self.admitted;
                let had_room = self.window.has_room();
                match self.window.admit(f) {
                    Ok(()) => {
                        self.admitted += 1;
                        self.unacked.push_back(f);
                        let conn = self.conn.as_mut().expect("enabled");
                        conn.to_client.push_back(ToClient::Data(f));
                        conn.written |= bit(f);
                    }
                    Err(back) if back != f => return Err(format!("admit({f}) handed back {back}")),
                    Err(_) if had_room => return Err(format!("frame {f} refused with room")),
                    Err(_) => cov.refusals += 1,
                }
            }
            Step::Close => {
                self.window.close();
                self.source_closed = true;
            }
            Step::ReadCredit => {
                let conn = self.conn.as_mut().expect("enabled");
                conn.credits -= 1;
                let written = conn.written;
                let retired = self.window.credit(1);
                if retired != 1 {
                    return Err(format!("one credit retired {retired} frames"));
                }
                let f = self
                    .unacked
                    .pop_front()
                    .ok_or("a credit with nothing unacked")?;
                if self.received & bit(f) == 0 {
                    return Err(format!("frame {f} retired before it reached the client"));
                }
                if written & bit(f) == 0 {
                    return Err(format!("frame {f} retired unwritten on this connection"));
                }
            }
            Step::Goodbye => {
                if let Some(f) = (0..self.admitted).find(|&f| self.received & bit(f) == 0) {
                    return Err(format!("Goodbye before frame {f} was received"));
                }
                let conn = self.conn.as_mut().expect("enabled");
                conn.to_client.push_back(ToClient::Goodbye);
                self.server_done = true;
                cov.goodbyes += 1;
            }
            Step::ClientRead => {
                let conn = self.conn.as_mut().expect("enabled");
                match conn.to_client.pop_front().expect("enabled") {
                    ToClient::Data(f) => {
                        conn.credits += 1;
                        self.queued += 1;
                        cov.duplicates += usize::from(self.received & bit(f) != 0);
                        self.received |= bit(f);
                    }
                    ToClient::Goodbye => {
                        self.conn = None;
                        self.client_done = true;
                    }
                }
            }
            Step::Consume => self.queued -= 1,
            Step::Drop => {
                self.conn = None;
                self.drops_left -= 1;
                // Redials find no server once it said Goodbye: the
                // client's stream ends there.
                self.client_done = self.server_done;
            }
            Step::Reconnect => {
                let replay: VecDeque<Frame> = self.window.reconnect().copied().collect();
                if replay != self.unacked {
                    return Err(format!(
                        "replay {replay:?}, but {:?} are unacked",
                        self.unacked
                    ));
                }
                cov.replays += usize::from(!replay.is_empty());
                self.conn = Some(Conn {
                    written: replay.iter().fold(0, |w, &f| w | bit(f)),
                    to_client: replay.into_iter().map(ToClient::Data).collect(),
                    credits: 0,
                });
            }
        }
        Ok(())
    }

    fn check(&self, b: Bounds, cov: &mut Coverage) -> Result<(), String> {
        if self.unacked.len() > b.window {
            return Err(format!(
                "{} frames in flight, window {}",
                self.unacked.len(),
                b.window
            ));
        }
        if !self.window.reconnect().eq(self.unacked.iter()) {
            return Err(format!(
                "the window holds {:?}, but {:?} are unacked",
                self.window.reconnect().collect::<Vec<_>>(),
                self.unacked
            ));
        }
        if let (Some(conn), false) = (&self.conn, self.server_done) {
            self.probe_over_credit(conn, cov)?;
        }
        // Steps taken while settling are not exploration: they count for
        // nothing.
        self.clone().settle(b, &mut Coverage::default())
    }

    /// Credits the window far past anything sent, on a copy: every
    /// unacked frame goes and was written on this connection, and the
    /// excess is not kept for a frame admitted after it.
    fn probe_over_credit(&self, conn: &Conn, cov: &mut Coverage) -> Result<(), String> {
        let mut probe = self.window.clone();
        let retired = probe.credit(u64::MAX);
        if retired != self.unacked.len() {
            return Err(format!(
                "an over-credit retired {retired} of {} unacked",
                self.unacked.len()
            ));
        }
        if let Some(f) = self.unacked.iter().find(|&&f| conn.written & bit(f) == 0) {
            return Err(format!("an over-credit retired unwritten frame {f}"));
        }
        cov.unread_over_credits +=
            usize::from(self.unacked.iter().any(|&f| self.received & bit(f) == 0));
        let next = self.admitted;
        if probe.admit(next).is_ok()
            && (probe.credit(0) != 0 || !probe.reconnect().eq([next].iter()))
        {
            return Err(format!("an over-credit left credit for frame {next}"));
        }
        Ok(())
    }

    /// Faults stop: the client redials if it must and reads and consumes
    /// all it can, and the server admits until the source is dry, closes
    /// it and serves credits until `Goodbye`.
    fn settle(mut self, b: Bounds, cov: &mut Coverage) -> Result<(), String> {
        self.drops_left = 0;
        let order = [
            Step::Reconnect,
            Step::ClientRead,
            Step::Consume,
            Step::Goodbye,
            Step::ReadCredit,
            Step::Admit,
            Step::Close,
        ];
        while !self.client_done {
            let steps = self.steps(b);
            let room = self.window.has_room();
            let next = order
                .into_iter()
                .find(|s| steps.contains(s) && (*s != Step::Admit || room))
                .ok_or_else(|| {
                    format!("livelock once faults stop: nothing enabled in {steps:?}")
                })?;
            self.apply(next, cov)?;
        }
        match (0..self.admitted).find(|&f| self.received & bit(f) == 0) {
            Some(f) => Err(format!("stream ended without frame {f}")),
            None => Ok(()),
        }
    }
}

/// A 128-bit fingerprint of a world: the visited set keeps these rather
/// than the worlds.
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
        if let Err(why) = next.apply(step, cov) {
            fail(why, path);
        }
        visit(next, b, seen, path, cov);
        path.pop();
    }
}

fn assert_covered(cov: &Coverage) {
    assert!(cov.refusals > 0, "no full window refused a frame: {cov:?}");
    assert!(cov.replays > 0, "no reconnect replayed a frame: {cov:?}");
    assert!(
        cov.duplicates > 0,
        "no replay resent a received frame: {cov:?}"
    );
    assert!(
        cov.unread_over_credits > 0,
        "no over-credit probe met an unread frame: {cov:?}"
    );
    assert!(cov.goodbyes > 0, "no Goodbye: {cov:?}");
}

#[test]
fn send_window_delivers_every_frame_over_small_interleavings() {
    for (window, frames, channel, drops) in [(1, 3, 1, 2), (2, 4, 1, 2), (3, 6, 2, 2)] {
        let b = Bounds {
            window,
            frames,
            channel,
            drops,
        };
        let cov = explore(b);
        println!("window {window}, {frames} frames, channel {channel}, {drops} drops: {cov:?}");
        assert_covered(&cov);
    }
}

/// The full bound. Run with
/// `cargo test --release --test wire_window -- --ignored`.
#[test]
#[ignore]
fn send_window_delivers_every_frame_at_the_full_bound() {
    for (window, frames, channel, drops) in [(6, 28, 4, 6), (12, 30, 6, 4)] {
        let b = Bounds {
            window,
            frames,
            channel,
            drops,
        };
        let cov = explore(b);
        println!("window {window}, {frames} frames, channel {channel}, {drops} drops: {cov:?}");
        assert_covered(&cov);
    }
}

fn envelope(split: u64) -> WireEnvelope {
    let mut batch = Batch::new();
    for i in 0..8u64 {
        let mut s = Sample::new((split * 10 + i) as f32);
        s.set_dense(FeatureId(1), split as f32 * 0.5 + i as f32);
        s.set_sparse(
            FeatureId(2),
            SparseList::from_ids(vec![i, split, split * i]),
        );
        batch.push(s);
    }
    WireEnvelope {
        split,
        seq: 0,
        last: true,
        worker: WorkerId(3),
        trace_id: 0,
        parent_span: 0,
        tensor: batch.materialize(&[FeatureId(1)], &[FeatureId(2)]),
    }
}

/// One connection drop over real TCP, ciphered and compressed: the server
/// severs the connection instead of writing frame `DROP_AT`. The client
/// re-dials once, and the server writes every frame still unacked again
/// before the rest. So the stream the client sees is `0..a` from the first
/// connection and `j..N` from the second, where the replay start `j` is no
/// later than `a` (only received frames are credited) and no earlier than
/// `DROP_AT + 1 - WINDOW` (the window had room for frame `DROP_AT`): the
/// only duplicates are frames that were unacked at the drop.
#[test]
fn tcp_reconnect_replays_only_unacked_frames_bitwise() {
    const N: u64 = 24;
    const WINDOW: u64 = 4;
    const DROP_AT: u64 = 10;
    // `nth` counts writes from 1, replays included; none precede the drop.
    let plan = FaultPlan::named(vec![FaultEvent::new(
        HookPoint::WireFrame,
        DROP_AT + 1,
        FaultKind::ConnDrop,
    )]);
    let chaos = WireChaos::default();
    *chaos.write() = Some(FaultInjector::new(plan));
    let reg = Registry::new();
    let obs = WireObs::default();
    *obs.lock() = Some(reg.clone());
    let cfg = WireConfig {
        encrypt: true,
        compress: true,
        key: 0x5EED,
    };

    let (tx, rx) = bounded(WINDOW as usize);
    let server = WireServer::serve(rx, cfg, WINDOW as usize, Arc::clone(&obs), chaos, "")
        .expect("bind a localhost wire server");
    let out = wire::connect(server.port(), cfg, WINDOW as usize, obs, "");
    let producer = thread::spawn(move || {
        for split in 0..N {
            tx.send(envelope(split))
                .expect("the server takes every envelope");
        }
    });
    // A bug that loses a frame leaves both ends waiting on each other, so
    // a stall fails the test instead of hanging it.
    let mut got = Vec::new();
    loop {
        match out.recv_timeout(Duration::from_secs(5)) {
            Ok(env) => {
                assert!(
                    env == envelope(env.split),
                    "split {} changed on the wire",
                    env.split
                );
                got.push(env.split);
            }
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => panic!("the stream stalled after {got:?}"),
        }
    }
    producer.join().expect("producer");
    server.join();

    let a = got.iter().zip(0..).take_while(|(s, i)| *s == i).count() as u64;
    let j = got.get(a as usize).copied().expect("frames after the drop");
    assert_eq!(got[a as usize..], (j..N).collect::<Vec<_>>()[..], "{got:?}");
    assert!(
        a <= DROP_AT,
        "frame {DROP_AT} went out on the dropped connection: {got:?}"
    );
    assert!(
        DROP_AT + 1 - WINDOW <= j && j <= a,
        "replay from {j} after {a} received: {got:?}"
    );
    assert_eq!(reg.counter_value(names::WIRE_RECONNECTS_TOTAL, &[]), 1);
}
