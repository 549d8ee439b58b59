//! Distributed-tracing primitives: span records and the bounded ring
//! that collects them.
//!
//! These are the *mechanisms* only — the deterministic sampling rule and
//! the structural check live in the `dsi-trace` crate. Keeping the record
//! types and the collector here lets every instrumented crate (tectonic,
//! dwrf, wire, the trainer) emit spans through the [`crate::Registry`]
//! handle it already holds, without a new dependency edge.
//!
//! Spans are recorded only for sampled splits, so the collector is a
//! plain lock around a bounded queue: the lock is off every unsampled
//! path, and a registry that never records a span pays nothing — the
//! ring allocates lazily.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The causal context carried along a batch's journey: which trace the
/// current work belongs to and which span is its parent.
///
/// `trace_id == 0` means *not sampled*: every recording site checks
/// [`TraceContext::is_sampled`] and becomes a no-op, so unsampled splits
/// pay only a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Deterministic id of the whole trace (one per sampled split).
    pub trace_id: u64,
    /// Span id the next recorded span should parent under.
    pub span_id: u64,
}

impl TraceContext {
    /// The unsampled context: carried everywhere a sampled one could be,
    /// making every recording site a cheap branch.
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
    };

    /// Whether spans should be recorded for this context.
    #[inline]
    pub fn is_sampled(&self) -> bool {
        self.trace_id != 0
    }

    /// A context for work causally under `span_id` in the same trace.
    #[inline]
    pub fn child(&self, span_id: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id,
        }
    }
}

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A split was handed to a worker by the Master (top-level span;
    /// re-serves after a failure create sibling `Schedule` spans).
    Schedule,
    /// Worker extract stage: storage fetch + decode of one split.
    Extract,
    /// The storage-fetch phase inside extract (Tectonic reads).
    StorageRead,
    /// One chunk read served by the Tectonic cluster.
    TectonicIo,
    /// The DWRF stripe-decode phase inside extract.
    DwrfDecode,
    /// Worker transform stage over one split.
    Transform,
    /// Worker load stage: batching + tensor materialization.
    Load,
    /// A data frame written to the TCP wire (replays flagged).
    WireSend,
    /// A data frame received and decoded from the TCP wire.
    WireRecv,
    /// An envelope arriving at `Client::accept` (replays flagged).
    Deliver,
    /// The trainer consuming the delivered batch (simulated GPU step).
    Consume,
}

impl SpanKind {
    /// Stable lower-case name, used by exporters and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Schedule => "schedule",
            SpanKind::Extract => "extract",
            SpanKind::StorageRead => "storage_read",
            SpanKind::TectonicIo => "tectonic_io",
            SpanKind::DwrfDecode => "dwrf_decode",
            SpanKind::Transform => "transform",
            SpanKind::Load => "load",
            SpanKind::WireSend => "wire_send",
            SpanKind::WireRecv => "wire_recv",
            SpanKind::Deliver => "deliver",
            SpanKind::Consume => "consume",
        }
    }
}

/// Flag bit: this span is a replayed execution (wire replay after a
/// reconnect, or a duplicate delivery deduped by the client).
pub const FLAG_REPLAY: u8 = 1;

/// One completed span; `seq`/`split`/`worker` carry enough payload to
/// label exported traces without a side table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// Unique id of this span (process-wide, never 0).
    pub span_id: u64,
    /// Parent span id; 0 for top-level spans.
    pub parent_id: u64,
    /// Kind of work measured.
    pub kind: SpanKind,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process trace epoch.
    pub end_ns: u64,
    /// Split index the work belonged to.
    pub split: u64,
    /// Worker id (0 where not applicable).
    pub worker: u64,
    /// Envelope sequence number (0 where not applicable).
    pub seq: u32,
    /// Flag bits ([`FLAG_REPLAY`]).
    pub flags: u8,
}

impl TraceSpan {
    /// Span duration in nanoseconds (0 for instant spans).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Whether the replay flag is set.
    pub fn is_replay(&self) -> bool {
        self.flags & FLAG_REPLAY != 0
    }
}

static TRACE_EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the process trace epoch (first call).
/// All spans in a process share this clock, so cross-thread spans order
/// correctly in exported traces.
pub fn now_ns() -> u64 {
    TRACE_EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh process-unique span id (never 0; 0 means "no parent").
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Bounded span collector: the newest spans behind one lock. A push
/// into a full ring evicts the oldest span, counted in
/// [`SpanRing::dropped`].
#[derive(Debug)]
pub struct SpanRing {
    capacity: usize,
    spans: Mutex<VecDeque<TraceSpan>>,
    dropped: AtomicU64,
}

impl SpanRing {
    /// Default ring capacity in spans.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates a ring holding up to `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> SpanRing {
        assert!(capacity > 0, "span ring capacity must be positive");
        SpanRing {
            capacity,
            spans: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Spans evicted to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records one span, evicting the oldest when the ring is full.
    pub fn push(&self, span: TraceSpan) {
        let mut spans = self.spans.lock();
        if spans.len() == self.capacity {
            spans.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        spans.push_back(span);
    }

    /// Every span in the ring, sorted by start time.
    pub fn snapshot(&self) -> Vec<TraceSpan> {
        let mut out: Vec<TraceSpan> = self.spans.lock().iter().copied().collect();
        out.sort_by_key(|s| (s.start_ns, s.span_id));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, start: u64) -> TraceSpan {
        TraceSpan {
            trace_id: trace,
            span_id: id,
            parent_id: parent,
            kind: SpanKind::Extract,
            start_ns: start,
            end_ns: start + 10,
            split: 3,
            worker: 1,
            seq: 2,
            flags: 0,
        }
    }

    #[test]
    fn span_interval_and_replay_flag() {
        let mut s = span(7, 8, 9, 100);
        assert!(!s.is_replay());
        s.flags = FLAG_REPLAY;
        assert!(s.is_replay());
        assert_eq!(s.duration_ns(), 10);
    }

    #[test]
    fn ring_collects_and_sorts_by_start() {
        let ring = SpanRing::new(8);
        ring.push(span(1, 2, 0, 50));
        ring.push(span(1, 3, 2, 10));
        let got = ring.snapshot();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].span_id, 3);
        assert_eq!(got[1].span_id, 2);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_evicts_oldest_when_full() {
        let ring = SpanRing::new(4);
        for i in 0..10u64 {
            ring.push(span(1, i + 1, 0, i));
        }
        let got = ring.snapshot();
        // Only the newest four survive; the other six were evicted.
        let ids: Vec<u64> = got.iter().map(|s| s.span_id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
        assert_eq!(ring.dropped(), 6);
    }

    #[test]
    fn concurrent_pushes_never_corrupt() {
        let ring = SpanRing::new(64);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        ring.push(span(t + 1, t * 10_000 + i + 1, 0, i));
                    }
                });
            }
            // Concurrent reader: every snapshot holds whole spans.
            for _ in 0..50 {
                let got = ring.snapshot();
                assert!(got.len() <= 64);
                for s in got {
                    assert!(s.trace_id >= 1 && s.trace_id <= 4);
                    assert_eq!(s.span_id / 10_000, s.trace_id - 1);
                    assert_eq!(s.duration_ns(), 10);
                }
            }
        });
        // Every push is either still held or counted as evicted.
        assert_eq!(ring.snapshot().len(), 64);
        assert_eq!(ring.dropped(), 4000 - 64);
    }

    #[test]
    fn context_sampling_and_children() {
        assert!(!TraceContext::NONE.is_sampled());
        let ctx = TraceContext {
            trace_id: 9,
            span_id: 4,
        };
        assert!(ctx.is_sampled());
        let child = ctx.child(77);
        assert_eq!(child.trace_id, 9);
        assert_eq!(child.span_id, 77);
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let a = next_span_id();
        let b = next_span_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn now_ns_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
