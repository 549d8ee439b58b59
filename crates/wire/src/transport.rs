//! TCP transport threads: one [`WireServer`] per Worker, one reader thread
//! per Client connection.
//!
//! ## Flow control
//!
//! The in-process data plane backpressures Workers through a bounded
//! channel of `buffer_capacity` envelopes. The wire path mirrors that with
//! credits: the server keeps at most `window` frames un-acknowledged; the
//! client grants one credit per envelope it has pushed into its local
//! bounded channel. A slow trainer therefore stalls the Worker exactly as
//! it does in process — no unbounded socket queueing.
//!
//! ## Reconnect with replay
//!
//! Encoded data frames stay in the server's `unacked` ring until credited.
//! When a connection dies (fault injection, torn frame, checksum
//! mismatch), the client dials again and the server replays every unacked
//! frame before sending new ones. Replay can duplicate envelopes the
//! client had received but not yet credited; the DPP `Client::accept`
//! sequence-number dedup drops those, preserving exactly-once end to end.
//!
//! ## Shutdown
//!
//! [`WireServer::stop`] flips a flag polled by every loop (reads and
//! writes are timeout-bounded), so `join` never hangs on a blocked socket.
//! A graceful end of stream — the source channel disconnected and every
//! frame credited — sends a `Goodbye` frame; the client reader drops its
//! channel sender, which the DPP client observes exactly like an
//! in-process worker exiting.

use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use chaos::{FaultInjector, FaultKind, HookPoint};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use dsi_obs::{names, next_span_id, now_ns, Registry, SpanKind, TraceSpan, FLAG_REPLAY};
use dwrf::cipher::StreamCipher;
use dwrf::compress;
use parking_lot::{Mutex, RwLock};

use crate::codec::{decode_envelope, encode_envelope_into, WireEnvelope};
use crate::frame::{
    encode_frame, fill_header, read_frame, read_frame_into, write_all_retry, FrameKind, Header,
    FLAG_COMPRESSED, FLAG_ENCRYPTED, HEADER_LEN,
};
use crate::WireConfig;
use fastpath::ByteView;

/// Shared optional metrics registry, shaped like the DPP session's slot so
/// the session can hand its own `Arc` straight through.
pub type WireObs = Arc<Mutex<Option<Registry>>>;

/// Shared optional fault injector, shaped like the DPP session's chaos
/// slot for the same reason.
pub type WireChaos = Arc<RwLock<Option<Arc<FaultInjector>>>>;

const ACCEPT_POLL: Duration = Duration::from_millis(1);
const SOURCE_POLL: Duration = Duration::from_millis(2);
/// Fallback timeout while parked on the credit-wake channel with a full
/// window; the wake normally arrives well before this (it is only a guard
/// against a lost edge trigger around connection teardown).
const CREDIT_POLL: Duration = Duration::from_millis(2);
const IO_TIMEOUT: Duration = Duration::from_millis(25);
const CONNECT_RETRY: Duration = Duration::from_millis(2);
/// Consecutive failed dials before the client reader concludes the server
/// is gone for good (~500ms of refusals).
const MAX_DIAL_FAILURES: u32 = 250;

fn with_registry(obs: &WireObs, f: impl FnOnce(&Registry)) {
    if let Some(reg) = obs.lock().as_ref() {
        f(reg);
    }
}

/// Like [`with_registry`], but also hands the closure the session-scoped
/// label set: `{job="sessN"}` when the transport belongs to a session;
/// standalone/test transfers pass an empty job, which the registry reads
/// as no label. Sessions share registries under the fleet control plane,
/// so the `dsi_wire_*` counters must not collide across tenants.
fn with_job_registry(obs: &WireObs, job: &str, f: impl FnOnce(&Registry, &[(&str, &str)])) {
    if let Some(reg) = obs.lock().as_ref() {
        f(reg, &[("job", job)]);
    }
}

/// One encoded data frame held in the server's unacked ring, plus the
/// trace coordinates needed to record replayed sends as sibling spans.
struct UnackedFrame {
    bytes: ByteView,
    trace_id: u64,
    parent_span: u64,
    split: u64,
    seq: u32,
    worker: u64,
}

/// Record a `WireSend`/`WireRecv`/`Deliver`-style span for one frame if
/// the split is sampled. Fresh span id per call: a frame sent twice (the
/// replay path) shows up as two sibling spans under the same parent.
#[allow(clippy::too_many_arguments)]
fn record_wire_span(
    obs: &WireObs,
    kind: SpanKind,
    trace_id: u64,
    parent_span: u64,
    start_ns: u64,
    split: u64,
    seq: u32,
    worker: u64,
    flags: u8,
) {
    if trace_id == 0 {
        return;
    }
    with_registry(obs, |reg| {
        reg.record_span(TraceSpan {
            trace_id,
            span_id: next_span_id(),
            parent_id: parent_span,
            kind,
            start_ns,
            end_ns: now_ns(),
            split,
            worker,
            seq,
            flags,
        });
    });
}

/// Serialize an envelope into a ready-to-send data frame, built in place
/// inside one buffer: header bytes reserved up front, envelope serialized
/// directly behind them, compression/encryption applied over the payload
/// span, header back-filled last. Zero intermediate copies on the
/// plaintext path. Serialize, compress, and encrypt time are charged to
/// separate counters so no stage is ever double-billed.
fn encode_data_frame(
    env: &WireEnvelope,
    nonce: u64,
    cfg: &WireConfig,
    obs: &WireObs,
    job: &str,
) -> ByteView {
    let mut buf = Vec::with_capacity(HEADER_LEN + 64 + env.tensor.payload_bytes());
    buf.resize(HEADER_LEN, 0);
    let start = Instant::now();
    encode_envelope_into(env, &mut buf);
    let serialize_ns = start.elapsed().as_nanos() as u64;
    let logical_bytes = (buf.len() - HEADER_LEN) as u64;
    let mut flags = 0u8;
    let mut compress_ns = 0u64;
    if cfg.compress {
        let zip_start = Instant::now();
        // Compress straight into a second frame, behind its header.
        let mut zipped = Vec::with_capacity(HEADER_LEN + (buf.len() - HEADER_LEN) / 2 + 16);
        zipped.resize(HEADER_LEN, 0);
        compress::compress_into(&buf[HEADER_LEN..], &mut zipped);
        buf = zipped;
        flags |= FLAG_COMPRESSED;
        compress_ns = zip_start.elapsed().as_nanos() as u64;
    }
    let mut encrypt_ns = 0u64;
    if cfg.encrypt {
        let enc_start = Instant::now();
        StreamCipher::new(cfg.key).apply_in_place(nonce, &mut buf[HEADER_LEN..]);
        flags |= FLAG_ENCRYPTED;
        encrypt_ns = enc_start.elapsed().as_nanos() as u64;
    }
    let len = (buf.len() - HEADER_LEN) as u32;
    let checksum = dwrf::stream::checksum64(&buf[HEADER_LEN..]);
    fill_header(&mut buf, FrameKind::Data, flags, nonce, len, checksum);
    with_job_registry(obs, job, |reg, labels| {
        reg.counter(names::WIRE_PAYLOAD_BYTES_TOTAL, labels)
            .add(logical_bytes);
        reg.counter(names::WIRE_SERIALIZE_NANOS_TOTAL, labels)
            .add(serialize_ns);
        if compress_ns > 0 {
            reg.counter(names::WIRE_COMPRESS_NANOS_TOTAL, labels)
                .add(compress_ns);
        }
        if encrypt_ns > 0 {
            reg.counter(names::WIRE_ENCRYPT_NANOS_TOTAL, labels)
                .add(encrypt_ns);
        }
    });
    ByteView::from(buf)
}

/// Reverse [`encode_data_frame`]: decrypt, decompress, and deserialize a
/// received data frame, charging decrypt time to the encrypt counter (the
/// cipher runs on both directions) and the rest to deserialize.
fn decode_data_frame(
    header: &Header,
    payload: &mut [u8],
    cfg: &WireConfig,
    obs: &WireObs,
    job: &str,
) -> io::Result<WireEnvelope> {
    let mismatch = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    if header.flags & FLAG_ENCRYPTED != 0 && !cfg.encrypt {
        return Err(mismatch("peer sent encrypted frame to plaintext session"));
    }
    if header.flags & FLAG_ENCRYPTED == 0 && cfg.encrypt {
        return Err(mismatch("peer sent plaintext frame to encrypted session"));
    }
    if header.flags & FLAG_COMPRESSED != 0 && !cfg.compress {
        return Err(mismatch("unexpected compressed frame"));
    }
    let mut encrypt_ns = 0u64;
    if cfg.encrypt {
        let start = Instant::now();
        StreamCipher::new(cfg.key).apply_in_place(header.nonce, payload);
        encrypt_ns = start.elapsed().as_nanos() as u64;
    }
    let start = Instant::now();
    let env = if header.flags & FLAG_COMPRESSED != 0 {
        let unzipped = compress::decompress(payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        decode_envelope(&unzipped)
    } else {
        decode_envelope(payload)
    }
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let deserialize_ns = start.elapsed().as_nanos() as u64;
    with_job_registry(obs, job, |reg, labels| {
        if encrypt_ns > 0 {
            reg.counter(names::WIRE_ENCRYPT_NANOS_TOTAL, labels)
                .add(encrypt_ns);
        }
        reg.counter(names::WIRE_DESERIALIZE_NANOS_TOTAL, labels)
            .add(deserialize_ns);
    });
    Ok(env)
}

/// The worker-side half of a wire connection: owns the listener and the
/// serialize-and-send thread for one Worker's envelope stream.
pub struct WireServer {
    port: u16,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Bind a fresh localhost port and start serving `source`'s envelopes
    /// to whichever client dials in. `window` is the credit window — the
    /// maximum number of unacknowledged frames in flight, mirroring the
    /// in-process `buffer_capacity`. `job` labels this server's wire
    /// metrics (the owning session id; empty for unlabeled standalone
    /// transfers).
    pub fn serve(
        source: Receiver<WireEnvelope>,
        cfg: WireConfig,
        window: usize,
        obs: WireObs,
        chaos: WireChaos,
        job: &str,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let port = listener.local_addr()?.port();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let window = window.max(1);
        let job = job.to_string();
        let thread = thread::Builder::new()
            .name(format!("wire-server-{port}"))
            .spawn(move || server_loop(listener, source, cfg, window, stop2, obs, chaos, job))
            .expect("spawn wire server thread");
        Ok(Self {
            port,
            stop,
            thread: Some(thread),
        })
    }

    /// The localhost port clients should dial.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Signal the server thread to exit. Returns immediately; pair with
    /// [`WireServer::join`] (or drop) to wait for it.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Stop and wait for the server thread to exit.
    pub fn join(mut self) {
        self.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

enum SendOutcome {
    Sent,
    ConnDead,
    Stopped,
}

/// Fire the `WireFrame` chaos hook and write one encoded data frame,
/// applying any injected faults: `ConnDrop` severs the connection before
/// the write, `PartialFrame` writes half a frame then severs, `SlowSocket`
/// sleeps first (the frame still goes out whole).
fn send_data_frame(
    stream: &mut TcpStream,
    bytes: &[u8],
    chaos: &WireChaos,
    obs: &WireObs,
    stop: &Arc<AtomicBool>,
    job: &str,
) -> SendOutcome {
    // Fire the hook only when an injector is installed: the common
    // (chaos-free) poll must not allocate a faults Vec per frame.
    let faults = {
        let guard = chaos.read();
        guard
            .as_ref()
            .map(|injector| injector.fire(HookPoint::WireFrame))
    };
    let mut drop_conn = false;
    let mut partial = false;
    for fault in faults.into_iter().flatten() {
        match fault {
            FaultKind::ConnDrop => drop_conn = true,
            FaultKind::PartialFrame => partial = true,
            FaultKind::SlowSocket { micros } => {
                thread::sleep(Duration::from_micros(micros));
            }
            _ => {}
        }
    }
    let stop_check = || stop.load(Ordering::SeqCst);
    if drop_conn {
        let _ = stream.shutdown(Shutdown::Both);
        return SendOutcome::ConnDead;
    }
    if partial {
        let _ = write_all_retry(stream, &bytes[..bytes.len() / 2], &stop_check);
        let _ = stream.shutdown(Shutdown::Both);
        return SendOutcome::ConnDead;
    }
    match write_all_retry(stream, bytes, &stop_check) {
        Ok(true) => {
            with_job_registry(obs, job, |reg, labels| {
                reg.counter(names::WIRE_FRAMES_TOTAL, labels).inc();
                reg.counter(names::WIRE_TX_BYTES_TOTAL, labels)
                    .add(bytes.len() as u64);
            });
            SendOutcome::Sent
        }
        Ok(false) => SendOutcome::Stopped,
        Err(_) => SendOutcome::ConnDead,
    }
}

/// Per-connection credit reader: bumps `acked` once per credit received,
/// flips `alive` off on EOF or a socket error so the writer reconnects.
/// Each credit also edge-triggers `wake` (capacity 1, `try_send`) so a
/// writer parked on a full window resumes immediately instead of sleeping
/// through a poll interval.
fn credit_reader(
    mut stream: TcpStream,
    alive: Arc<AtomicBool>,
    acked: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    wake: Sender<()>,
) {
    let stop_check = || stop.load(Ordering::SeqCst) || !alive.load(Ordering::SeqCst);
    loop {
        match read_frame(&mut stream, &stop_check) {
            Ok(Some(frame)) if frame.kind == FrameKind::Credit => {
                acked.fetch_add(frame.nonce.max(1), Ordering::SeqCst);
                let _ = wake.try_send(());
            }
            Ok(Some(_)) => {}
            Ok(None) => return,
            Err(_) => {
                alive.store(false, Ordering::SeqCst);
                return;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn server_loop(
    listener: TcpListener,
    source: Receiver<WireEnvelope>,
    cfg: WireConfig,
    window: usize,
    stop: Arc<AtomicBool>,
    obs: WireObs,
    chaos: WireChaos,
    job: String,
) {
    // Encoded frames sent but not yet credited, oldest first. Survives
    // across connections: a reconnecting client gets them all replayed.
    let mut unacked: VecDeque<UnackedFrame> = VecDeque::new();
    let mut source_done = false;
    let mut nonce: u64 = 0;

    'accept: while !stop.load(Ordering::SeqCst) {
        let mut stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                thread::sleep(ACCEPT_POLL);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        let reader_stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        let _ = reader_stream.set_read_timeout(Some(IO_TIMEOUT));
        let alive = Arc::new(AtomicBool::new(true));
        let acked = Arc::new(AtomicU64::new(0));
        let (wake_tx, wake_rx) = bounded::<()>(1);
        let reader = {
            let alive = alive.clone();
            let acked = acked.clone();
            let stop = stop.clone();
            thread::Builder::new()
                .name("wire-credit-reader".into())
                .spawn(move || credit_reader(reader_stream, alive, acked, stop, wake_tx))
                .expect("spawn credit reader")
        };
        let mut popped: u64 = 0;

        // Replay everything still unacked from the previous connection.
        // The credit reader only pops via `popped` below, so the window is
        // stable here even if credits race in.
        for frame in &unacked {
            let send_start = now_ns();
            match send_data_frame(&mut stream, &frame.bytes, &chaos, &obs, &stop, &job) {
                SendOutcome::Sent => {
                    record_wire_span(
                        &obs,
                        SpanKind::WireSend,
                        frame.trace_id,
                        frame.parent_span,
                        send_start,
                        frame.split,
                        frame.seq,
                        frame.worker,
                        FLAG_REPLAY,
                    );
                }
                SendOutcome::ConnDead => {
                    alive.store(false, Ordering::SeqCst);
                    break;
                }
                SendOutcome::Stopped => {
                    alive.store(false, Ordering::SeqCst);
                    let _ = reader.join();
                    return;
                }
            }
        }

        loop {
            if stop.load(Ordering::SeqCst) {
                alive.store(false, Ordering::SeqCst);
                let _ = reader.join();
                return;
            }
            let credited = acked.load(Ordering::SeqCst);
            while popped < credited {
                if unacked.pop_front().is_none() {
                    break; // over-credit from a confused peer; ignore
                }
                popped += 1;
            }
            if !alive.load(Ordering::SeqCst) {
                let _ = reader.join();
                continue 'accept;
            }
            if source_done && unacked.is_empty() {
                // Every envelope delivered and credited: graceful close.
                let goodbye = encode_frame(FrameKind::Goodbye, 0, 0, &[]);
                let stop_check = || stop.load(Ordering::SeqCst);
                let _ = write_all_retry(&mut stream, &goodbye, &stop_check);
                alive.store(false, Ordering::SeqCst);
                let _ = reader.join();
                return;
            }
            if unacked.len() < window && !source_done {
                match source.recv_timeout(SOURCE_POLL) {
                    Ok(env) => {
                        let bytes = encode_data_frame(&env, nonce, &cfg, &obs, &job);
                        nonce += 1;
                        let send_start = now_ns();
                        let outcome =
                            send_data_frame(&mut stream, &bytes, &chaos, &obs, &stop, &job);
                        // Push after sending (a ByteView is cheap to move,
                        // and sending first avoids re-borrowing the ring);
                        // the frame stays unacked either way, so a dead
                        // connection still replays it.
                        unacked.push_back(UnackedFrame {
                            bytes,
                            trace_id: env.trace_id,
                            parent_span: env.parent_span,
                            split: env.split,
                            seq: env.seq,
                            worker: env.worker.0,
                        });
                        match outcome {
                            SendOutcome::Sent => {
                                record_wire_span(
                                    &obs,
                                    SpanKind::WireSend,
                                    env.trace_id,
                                    env.parent_span,
                                    send_start,
                                    env.split,
                                    env.seq,
                                    env.worker.0,
                                    0,
                                );
                            }
                            SendOutcome::ConnDead => alive.store(false, Ordering::SeqCst),
                            SendOutcome::Stopped => {
                                alive.store(false, Ordering::SeqCst);
                                let _ = reader.join();
                                return;
                            }
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => source_done = true,
                }
            } else {
                // Window full: park until the credit reader signals (or the
                // guard timeout lapses) rather than sleeping blind — on a
                // busy box the wake lands as soon as the peer credits.
                let _ = wake_rx.recv_timeout(CREDIT_POLL);
            }
        }
    }
}

/// Dial a [`WireServer`] and return the receiving end of a bounded channel
/// fed by a background reader thread. The channel has `capacity` slots, so
/// the trainer-side backpressure matches the in-process path; the reader
/// grants one flow-control credit per envelope it enqueues.
///
/// The reader reconnects on any connection failure (counting
/// `dsi_wire_reconnects_total`) and exits — dropping its sender, which the
/// DPP client observes as the endpoint disconnecting — on a `Goodbye`
/// frame, on channel teardown, or once the server stops answering dials.
///
/// `job` labels this client's wire metrics (the owning session id; empty
/// for unlabeled standalone transfers).
pub fn connect(
    port: u16,
    cfg: WireConfig,
    capacity: usize,
    obs: WireObs,
    job: &str,
) -> Receiver<WireEnvelope> {
    let (tx, rx) = bounded(capacity.max(1));
    let job = job.to_string();
    thread::Builder::new()
        .name(format!("wire-client-{port}"))
        .spawn(move || client_loop(port, cfg, tx, obs, job))
        .expect("spawn wire client thread");
    rx
}

fn client_loop(port: u16, cfg: WireConfig, tx: Sender<WireEnvelope>, obs: WireObs, job: String) {
    let mut connected_before = false;
    let mut failed_dials = 0u32;
    'dial: loop {
        let mut stream = match TcpStream::connect(("127.0.0.1", port)) {
            Ok(s) => s,
            Err(_) => {
                failed_dials += 1;
                if failed_dials >= MAX_DIAL_FAILURES {
                    return; // server is gone; drop tx to disconnect the endpoint
                }
                thread::sleep(CONNECT_RETRY);
                continue;
            }
        };
        failed_dials = 0;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        if connected_before {
            with_job_registry(&obs, &job, |reg, labels| {
                reg.counter(names::WIRE_RECONNECTS_TOTAL, labels).inc();
            });
        }
        connected_before = true;
        // Payload buffer reused across this connection's frames: steady
        // state reads straight into warm memory, no per-frame allocation.
        let mut payload = Vec::new();
        loop {
            // The reader has no independent stop flag: the server closing
            // the socket (EOF) or refusing dials is its exit signal, and a
            // dropped endpoint surfaces as a send error below.
            let header = match read_frame_into(&mut stream, &|| false, &mut payload) {
                Ok(Some(h)) => h,
                Ok(None) => unreachable!("stop predicate is constant false"),
                Err(_) => continue 'dial,
            };
            match header.kind {
                FrameKind::Data => {
                    let recv_start = now_ns();
                    let env = match decode_data_frame(
                        &header,
                        &mut payload[..header.len],
                        &cfg,
                        &obs,
                        &job,
                    ) {
                        Ok(env) => env,
                        Err(_) => continue 'dial,
                    };
                    record_wire_span(
                        &obs,
                        SpanKind::WireRecv,
                        env.trace_id,
                        env.parent_span,
                        recv_start,
                        env.split,
                        env.seq,
                        env.worker.0,
                        0,
                    );
                    if tx.send(env).is_err() {
                        return; // endpoint dropped; session is shutting down
                    }
                    let credit = encode_frame(FrameKind::Credit, 0, 1, &[]);
                    if write_all_retry(&mut stream, &credit, &|| false).is_err() {
                        continue 'dial;
                    }
                }
                FrameKind::Goodbye => return,
                FrameKind::Credit => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos::{FaultEvent, FaultPlan};
    use dsi_types::{Batch, FeatureId, Sample, SparseList, WorkerId};
    use std::collections::HashSet;

    fn envelope(split: u64, seq: u32, last: bool) -> WireEnvelope {
        let mut batch = Batch::new();
        for i in 0..4u64 {
            let mut s = Sample::new((split * 100 + seq as u64 * 10 + i) as f32);
            s.set_dense(FeatureId(1), i as f32 + split as f32);
            s.set_sparse(FeatureId(2), SparseList::from_ids(vec![i, i + split]));
            batch.push(s);
        }
        WireEnvelope {
            split,
            seq,
            last,
            worker: WorkerId(0),
            trace_id: 0,
            parent_span: 0,
            tensor: batch.materialize(&[FeatureId(1)], &[FeatureId(2)]),
        }
    }

    fn no_obs() -> WireObs {
        Arc::new(Mutex::new(None))
    }

    fn no_chaos() -> WireChaos {
        Arc::new(RwLock::new(None))
    }

    fn run_transfer(cfg: WireConfig, n: u64) -> Vec<WireEnvelope> {
        let (tx, rx) = bounded::<WireEnvelope>(4);
        let server = WireServer::serve(rx, cfg, 4, no_obs(), no_chaos(), "").expect("serve");
        let out = connect(server.port(), cfg, 4, no_obs(), "");
        let producer = thread::spawn(move || {
            for i in 0..n {
                tx.send(envelope(i, 0, true)).expect("send");
            }
        });
        let mut got = Vec::new();
        while let Ok(env) = out.recv() {
            got.push(env);
        }
        producer.join().expect("producer");
        server.join();
        got
    }

    #[test]
    fn delivers_everything_then_goodbye() {
        let got = run_transfer(WireConfig::plaintext(), 12);
        assert_eq!(got.len(), 12);
        for (i, env) in got.iter().enumerate() {
            assert_eq!(*env, envelope(i as u64, 0, true));
        }
    }

    #[test]
    fn encrypted_and_compressed_round_trip_bitwise() {
        let cfg = WireConfig {
            encrypt: true,
            compress: true,
            key: 0xFEED_BEEF,
        };
        let got = run_transfer(cfg, 8);
        assert_eq!(got.len(), 8);
        for (i, env) in got.iter().enumerate() {
            assert_eq!(*env, envelope(i as u64, 0, true));
        }
    }

    #[test]
    fn key_mismatch_never_delivers_garbage() {
        let (tx, rx) = bounded::<WireEnvelope>(2);
        let server_cfg = WireConfig::encrypted(0xAAAA);
        let client_cfg = WireConfig::encrypted(0xBBBB);
        let server = WireServer::serve(rx, server_cfg, 2, no_obs(), no_chaos(), "").expect("serve");
        let out = connect(server.port(), client_cfg, 2, no_obs(), "");
        tx.send(envelope(1, 0, true)).expect("send");
        drop(tx);
        // Wrong-key decryption yields garbage that fails the codec, so the
        // client keeps reconnecting and replays keep failing; nothing
        // valid is ever delivered. Eventually stopping the server makes
        // the client give up and disconnect.
        let premature = out.recv_timeout(Duration::from_millis(150));
        assert!(premature.is_err(), "garbage must not decode");
        server.join();
        assert!(out.recv_timeout(Duration::from_secs(5)).is_err());
    }

    #[test]
    fn credit_window_limits_run_ahead() {
        let (tx, rx) = bounded::<WireEnvelope>(64);
        for i in 0..32 {
            tx.send(envelope(i, 0, true)).expect("send");
        }
        let cfg = WireConfig::plaintext();
        let server = WireServer::serve(rx, cfg, 2, no_obs(), no_chaos(), "").expect("serve");
        let out = connect(server.port(), cfg, 2, no_obs(), "");
        // Client channel (2) + credit window (2): at most ~5 envelopes can
        // leave the source while nobody consumes (one may sit in the
        // server's recv hand-off).
        thread::sleep(Duration::from_millis(200));
        assert!(
            tx.len() >= 32 - 5,
            "server ran ahead of credit window: {} left of 32",
            tx.len()
        );
        drop(tx);
        let mut got = 0;
        while out.recv().is_ok() {
            got += 1;
        }
        assert_eq!(got, 32);
        server.join();
    }

    #[test]
    fn chaos_drops_force_reconnect_and_replay_covers_all() {
        let plan = FaultPlan::named(vec![
            FaultEvent::new(HookPoint::WireFrame, 2, FaultKind::ConnDrop),
            FaultEvent::new(HookPoint::WireFrame, 7, FaultKind::PartialFrame),
            FaultEvent::new(
                HookPoint::WireFrame,
                12,
                FaultKind::SlowSocket { micros: 300 },
            ),
            FaultEvent::new(HookPoint::WireFrame, 15, FaultKind::ConnDrop),
        ]);
        let injector = FaultInjector::new(plan);
        let chaos: WireChaos = Arc::new(RwLock::new(Some(injector)));
        let obs: WireObs = Arc::new(Mutex::new(Some(Registry::new())));

        let (tx, rx) = bounded::<WireEnvelope>(4);
        let cfg = WireConfig::plaintext();
        let server = WireServer::serve(rx, cfg, 4, obs.clone(), chaos, "").expect("serve");
        let out = connect(server.port(), cfg, 4, obs.clone(), "");
        let producer = thread::spawn(move || {
            for i in 0..24 {
                tx.send(envelope(i, 0, true)).expect("send");
            }
        });
        // Replay may duplicate envelopes; wire-level delivery is
        // at-least-once, exactly-once is restored by the DPP client dedup.
        let mut seen: HashSet<u64> = HashSet::new();
        while let Ok(env) = out.recv() {
            assert_eq!(
                env,
                envelope(env.split, 0, true),
                "cargo must survive chaos"
            );
            seen.insert(env.split);
        }
        producer.join().expect("producer");
        server.join();
        assert_eq!(seen.len(), 24, "every envelope must arrive at least once");
    }

    #[test]
    fn traced_frames_record_send_recv_spans_and_replay_siblings() {
        // Sever the connection at the second frame: that frame stays
        // unacked and is replayed on reconnect, which must surface as a
        // sibling WireSend span flagged as a replay.
        let plan = FaultPlan::named(vec![FaultEvent::new(
            HookPoint::WireFrame,
            1,
            FaultKind::ConnDrop,
        )]);
        let chaos: WireChaos = Arc::new(RwLock::new(Some(FaultInjector::new(plan))));
        let reg = Registry::new();
        let obs: WireObs = Arc::new(Mutex::new(Some(reg.clone())));

        let (tx, rx) = bounded::<WireEnvelope>(4);
        let cfg = WireConfig::plaintext();
        let server = WireServer::serve(rx, cfg, 4, obs.clone(), chaos, "").expect("serve");
        let out = connect(server.port(), cfg, 4, obs.clone(), "");
        let producer = thread::spawn(move || {
            for i in 0..4u64 {
                let mut env = envelope(i, 0, true);
                env.trace_id = 100 + i;
                env.parent_span = 7 + i;
                tx.send(env).expect("send");
            }
        });
        let mut delivered = HashSet::new();
        while let Ok(env) = out.recv() {
            delivered.insert(env.split);
        }
        producer.join().expect("producer");
        server.join();
        assert_eq!(delivered.len(), 4);

        let spans = reg.trace_spans();
        let sends: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::WireSend)
            .collect();
        let recvs: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::WireRecv)
            .collect();
        assert!(sends.len() >= 4, "one send per frame, got {}", sends.len());
        assert!(
            recvs.len() >= 4,
            "one recv per delivery, got {}",
            recvs.len()
        );
        assert!(
            sends.iter().any(|s| s.is_replay()),
            "replayed frame must be flagged"
        );
        for s in sends.iter().chain(recvs.iter()) {
            assert_eq!(s.parent_id, 7 + s.split, "spans parent under the envelope");
            assert_eq!(s.trace_id, 100 + s.split);
        }
        // A replayed send shares trace and parent with the original — a
        // sibling, not a child (span ids are fresh per send).
        let replay = sends.iter().find(|s| s.is_replay()).expect("replay span");
        let original = sends
            .iter()
            .find(|s| !s.is_replay() && s.split == replay.split);
        if let Some(orig) = original {
            assert_ne!(orig.span_id, replay.span_id);
            assert_eq!(orig.parent_id, replay.parent_id);
        }
    }

    #[test]
    fn stop_unblocks_stalled_worker_sender() {
        let (tx, rx) = bounded::<WireEnvelope>(1);
        let cfg = WireConfig::plaintext();
        let server = WireServer::serve(rx, cfg, 1, no_obs(), no_chaos(), "").expect("serve");
        let out = connect(server.port(), cfg, 1, no_obs(), "");
        // Nobody consumes `out`: the producer below fills client channel +
        // window + source channel and then blocks in send.
        let producer = thread::spawn(move || {
            let mut sent = 0;
            for i in 0..16 {
                if tx.send(envelope(i, 0, true)).is_err() {
                    break;
                }
                sent += 1;
            }
            sent
        });
        thread::sleep(Duration::from_millis(100));
        server.join(); // must not hang, and must release the producer
        drop(out);
        let sent = producer.join().expect("producer");
        assert!(sent < 16, "backpressure never engaged");
    }
}
