//! # fastpath — zero-copy buffers and pooled decode scratch
//!
//! The DSI hot path moves stripe bytes from Tectonic storage nodes through
//! the DWRF decoder into DPP worker transforms. Historically every hop
//! copied: storage reads assembled fresh `Vec`s, per-stream fetches
//! `to_vec()`'d their window, and decode scratch was allocated per stream.
//! This crate provides the two primitives that remove those copies:
//!
//! * [`ByteView`] — an immutable, reference-counted view over either
//!   storage bytes ([`bytes::Bytes`]) or a pooled scratch buffer, with
//!   cheap zero-copy sub-slicing. Stripe buffers are sliced into stream
//!   payloads instead of copied.
//! * [`BufferPool`] — a size-classed pool with thread-local free lists
//!   backing the decode scratch that must still be owned (decrypt output,
//!   decompress output). A frozen scratch buffer returns to the pool only
//!   when the *last* [`ByteView`] over it drops, so live views can never
//!   alias a recycled buffer.
//!
//! [`SourceChunk`] pairs a view with the number of bytes that were
//! physically memcpy'd to produce it, which is how the pipeline keeps its
//! `dsi_fastpath_bytes_copied_total` ledger honest: zero-copy reads report
//! 0; multi-block assembly and corruption-forced copies report their true
//! cost.

use bytes::Bytes;
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Smallest pooled size class (1 KiB).
const MIN_CLASS_SHIFT: u32 = 10;
/// Largest pooled size class (4 MiB, one Tectonic block).
const MAX_CLASS_SHIFT: u32 = 22;
/// Number of power-of-two size classes.
#[cfg(test)]
const NUM_CLASSES: usize = (MAX_CLASS_SHIFT - MIN_CLASS_SHIFT + 1) as usize;
/// Free buffers retained per (pool, class) per thread.
const MAX_FREE_PER_CLASS: usize = 8;

fn class_bytes(class: usize) -> usize {
    1usize << (MIN_CLASS_SHIFT + class as u32)
}

/// Smallest class whose buffers hold at least `min_capacity` bytes, or
/// `None` when the request is larger than the biggest class.
fn class_for(min_capacity: usize) -> Option<usize> {
    let cap = min_capacity.max(1 << MIN_CLASS_SHIFT).next_power_of_two();
    let shift = cap.trailing_zeros();
    (shift <= MAX_CLASS_SHIFT).then(|| (shift - MIN_CLASS_SHIFT) as usize)
}

/// Largest class whose buffers a `capacity`-byte allocation can serve
/// (round down), or `None` when it is below the smallest class.
fn class_of_capacity(capacity: usize) -> Option<usize> {
    if capacity < 1 << MIN_CLASS_SHIFT {
        return None;
    }
    let shift = (usize::BITS - 1 - capacity.leading_zeros()).min(MAX_CLASS_SHIFT);
    Some((shift - MIN_CLASS_SHIFT) as usize)
}

// ---------------------------------------------------------------------------
// ByteView
// ---------------------------------------------------------------------------

/// An immutable, cheaply-cloneable view over shared bytes.
///
/// A view is an `Arc`-backed allocation plus a `[start, end)` window;
/// [`ByteView::slice`] narrows the window without touching the bytes.
/// The backing allocation is either storage bytes ([`Bytes`]) or a frozen
/// pool scratch buffer — the latter returns to its [`BufferPool`] when the
/// last view over it drops.
#[derive(Clone)]
pub struct ByteView {
    repr: Repr,
    start: usize,
    end: usize,
}

#[derive(Clone)]
enum Repr {
    Shared(Bytes),
    Pooled(Arc<PooledBuf>),
}

/// A pool-owned allocation kept alive by the views over it. Dropping the
/// last view returns the buffer to the pool's thread-local free list.
struct PooledBuf {
    buf: Vec<u8>,
    pool: BufferPool,
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        self.pool.recycle(std::mem::take(&mut self.buf));
    }
}

impl ByteView {
    /// An empty view.
    pub fn empty() -> Self {
        Self::from(Bytes::new())
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy sub-view. Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> ByteView {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "slice {begin}..{end} inverted");
        assert!(end <= len, "slice {begin}..{end} out of bounds of {len}");
        ByteView {
            repr: self.repr.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// The bytes of this view.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Shared(b) => &b.as_slice()[self.start..self.end],
            Repr::Pooled(p) => &p.buf[self.start..self.end],
        }
    }

    /// Copies the view out into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl From<Bytes> for ByteView {
    fn from(b: Bytes) -> Self {
        let end = b.len();
        Self {
            repr: Repr::Shared(b),
            start: 0,
            end,
        }
    }
}

impl From<Vec<u8>> for ByteView {
    fn from(v: Vec<u8>) -> Self {
        Self::from(Bytes::from(v))
    }
}

impl Deref for ByteView {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for ByteView {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for ByteView {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ByteView {}

impl std::fmt::Debug for ByteView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.repr {
            Repr::Shared(_) => "shared",
            Repr::Pooled(_) => "pooled",
        };
        write!(f, "ByteView<{kind}>[{} bytes]", self.len())
    }
}

// ---------------------------------------------------------------------------
// SourceChunk
// ---------------------------------------------------------------------------

/// Bytes produced by a storage source, with an honest copy ledger.
///
/// `copied_bytes` counts the bytes that were physically memcpy'd to
/// materialize `view` — 0 for a zero-copy slice of resident storage
/// bytes, `view.len()` when the source had to assemble or duplicate.
#[derive(Clone, Debug)]
pub struct SourceChunk {
    /// The produced bytes.
    pub view: ByteView,
    /// Bytes memcpy'd while producing `view`.
    pub copied_bytes: u64,
}

impl SourceChunk {
    /// A chunk produced without copying (slice of resident bytes).
    pub fn zero_copy(view: ByteView) -> Self {
        Self {
            view,
            copied_bytes: 0,
        }
    }

    /// A chunk whose every byte was copied to assemble it.
    pub fn copied(view: ByteView) -> Self {
        let copied_bytes = view.len() as u64;
        Self { view, copied_bytes }
    }
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

struct PoolStats {
    id: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
}

/// Free buffers of one `(pool id, size class)` bucket.
type FreeLists = HashMap<(u64, usize), Vec<Vec<u8>>>;

thread_local! {
    /// Per-thread free lists keyed by `(pool id, size class)`. Thread-local
    /// so the hot decode loop recycles without synchronization.
    static FREE_LISTS: RefCell<FreeLists> = RefCell::new(HashMap::new());
}

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(0);

/// A size-classed scratch-buffer pool with thread-local free lists.
///
/// [`BufferPool::take`] hands out a [`ScratchBuf`] with at least the
/// requested capacity, reusing a previously-recycled buffer of the same
/// power-of-two class when one is free on this thread. Scratch buffers
/// recycle on drop, or — after [`ScratchBuf::freeze`] — when the last
/// [`ByteView`] over them drops, so a live view can never alias a reused
/// buffer. Clones share hit/miss statistics and free lists.
#[derive(Clone)]
pub struct BufferPool {
    stats: Arc<PoolStats>,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self {
            stats: Arc::new(PoolStats {
                id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                recycled: AtomicU64::new(0),
            }),
        }
    }

    /// Takes a cleared scratch buffer with capacity ≥ `min_capacity`.
    pub fn take(&self, min_capacity: usize) -> ScratchBuf {
        let buf = match class_for(min_capacity) {
            Some(class) => {
                let reused = FREE_LISTS.with(|fl| {
                    fl.borrow_mut()
                        .get_mut(&(self.stats.id, class))
                        .and_then(Vec::pop)
                });
                match reused {
                    Some(buf) => {
                        self.stats.hits.fetch_add(1, Ordering::Relaxed);
                        buf
                    }
                    None => {
                        self.stats.misses.fetch_add(1, Ordering::Relaxed);
                        Vec::with_capacity(class_bytes(class))
                    }
                }
            }
            None => {
                // Oversize requests bypass the classes entirely.
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(min_capacity)
            }
        };
        ScratchBuf {
            buf,
            pool: self.clone(),
        }
    }

    /// Returns `buf` to this thread's free list (classed by capacity).
    fn recycle(&self, mut buf: Vec<u8>) {
        let Some(class) = class_of_capacity(buf.capacity()) else {
            return; // sub-class or zero capacity: let it drop
        };
        buf.clear();
        FREE_LISTS.with(|fl| {
            let mut fl = fl.borrow_mut();
            let list = fl.entry((self.stats.id, class)).or_default();
            if list.len() < MAX_FREE_PER_CLASS {
                list.push(buf);
                self.stats.recycled.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// Pool takes served from a free list.
    pub fn hits(&self) -> u64 {
        self.stats.hits.load(Ordering::Relaxed)
    }

    /// Pool takes that had to allocate.
    pub fn misses(&self) -> u64 {
        self.stats.misses.load(Ordering::Relaxed)
    }

    /// Buffers returned to free lists over the pool's lifetime.
    pub fn recycled(&self) -> u64 {
        self.stats.recycled.load(Ordering::Relaxed)
    }

    /// Fraction of takes served from a free list (0 when unused).
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Publishes the pool's hit ratio and take counters into `registry`
    /// as `job`'s view of the pool: sessions share registries under the
    /// fleet control plane, and the label keeps one tenant's view of the
    /// shared pool from clobbering another's. Counters use `advance_to`,
    /// so repeated publishing is idempotent.
    pub fn publish_metrics(&self, registry: &dsi_obs::Registry, job: &str) {
        use dsi_obs::names;
        let labels = [("job", job)];
        registry
            .gauge(names::FASTPATH_POOL_HIT_RATIO, &labels)
            .set(self.hit_ratio());
        registry
            .counter(names::FASTPATH_POOL_HITS_TOTAL, &labels)
            .advance_to(self.hits());
        registry
            .counter(names::FASTPATH_POOL_MISSES_TOTAL, &labels)
            .advance_to(self.misses());
    }
}

/// The process-wide decode scratch pool.
pub fn global_pool() -> &'static BufferPool {
    static GLOBAL: OnceLock<BufferPool> = OnceLock::new();
    GLOBAL.get_or_init(BufferPool::new)
}

// ---------------------------------------------------------------------------
// ScratchBuf
// ---------------------------------------------------------------------------

/// An owned, mutable scratch buffer checked out of a [`BufferPool`].
///
/// Dereferences to `Vec<u8>` for in-place decode work. Dropping it
/// recycles the allocation; [`ScratchBuf::freeze`] instead converts it
/// into an immutable [`ByteView`] that recycles when the last view drops.
pub struct ScratchBuf {
    buf: Vec<u8>,
    pool: BufferPool,
}

impl ScratchBuf {
    /// Freezes the buffer into an immutable shared view. The allocation
    /// returns to the pool when the last view over it drops.
    pub fn freeze(mut self) -> ByteView {
        let buf = std::mem::take(&mut self.buf);
        let end = buf.len();
        ByteView {
            repr: Repr::Pooled(Arc::new(PooledBuf {
                buf,
                pool: self.pool.clone(),
            })),
            start: 0,
            end,
        }
    }
}

impl Deref for ScratchBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for ScratchBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for ScratchBuf {
    fn drop(&mut self) {
        // After `freeze` the Vec was taken (capacity 0): nothing to do.
        if self.buf.capacity() > 0 {
            self.pool.recycle(std::mem::take(&mut self.buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_slice_without_copying() {
        let v = ByteView::from((0u8..100).collect::<Vec<u8>>());
        let s = v.slice(10..20);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 10);
        let ss = s.slice(5..);
        assert_eq!(ss.as_slice(), &[15, 16, 17, 18, 19]);
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn size_classes_round_sensibly() {
        assert_eq!(class_for(1), Some(0));
        assert_eq!(class_for(1024), Some(0));
        assert_eq!(class_for(1025), Some(1));
        assert_eq!(class_for(4 << 20), Some(NUM_CLASSES - 1));
        assert_eq!(class_for((4 << 20) + 1), None);
        assert_eq!(class_of_capacity(1023), None);
        assert_eq!(class_of_capacity(2048), Some(1));
        assert_eq!(class_of_capacity(3000), Some(1));
        assert_eq!(class_of_capacity(64 << 20), Some(NUM_CLASSES - 1));
    }

    #[test]
    fn pool_reuses_dropped_scratch() {
        let pool = BufferPool::new();
        let a = pool.take(4096);
        assert_eq!(pool.misses(), 1);
        drop(a);
        let b = pool.take(4096);
        assert_eq!(pool.hits(), 1, "second take reuses the recycled buffer");
        assert!(b.capacity() >= 4096);
        assert!(b.is_empty(), "recycled buffers come back cleared");
    }

    #[test]
    fn frozen_buffers_recycle_only_after_last_view_drops() {
        let pool = BufferPool::new();
        let mut scratch = pool.take(1024);
        scratch.extend_from_slice(b"payload");
        let view = scratch.freeze();
        let alias = view.slice(0..3);
        drop(view);
        // `alias` still holds the allocation: a take now must miss.
        let fresh = pool.take(1024);
        assert_eq!(pool.hits(), 0, "live view pins its buffer");
        assert_eq!(alias.as_slice(), b"pay");
        drop(alias);
        drop(fresh);
        let _reused = pool.take(1024);
        assert!(pool.hits() >= 1, "buffer returned once all views dropped");
    }

    #[test]
    fn oversize_takes_bypass_classes() {
        let pool = BufferPool::new();
        let big = pool.take((4 << 20) + 1);
        assert!(big.capacity() > 4 << 20);
        drop(big); // recycles into the top class (round-down)
        assert_eq!(pool.recycled(), 1);
    }

    #[test]
    fn hit_ratio_tracks_reuse() {
        let pool = BufferPool::new();
        assert_eq!(pool.hit_ratio(), 0.0);
        for _ in 0..4 {
            let b = pool.take(2048);
            drop(b);
        }
        assert!(pool.hit_ratio() >= 0.74, "ratio {}", pool.hit_ratio());
        let reg = dsi_obs::Registry::new();
        pool.publish_metrics(&reg, "sess1");
        assert_eq!(
            reg.counter_value(
                dsi_obs::names::FASTPATH_POOL_HITS_TOTAL,
                &[("job", "sess1")]
            ),
            pool.hits()
        );
    }

    #[test]
    fn stress_no_aliasing_of_live_buffers() {
        // Hammer one pool from several threads: every thread fills its
        // scratch with a unique pattern, freezes it, re-checks the view
        // after more pool churn, and verifies the bytes never changed —
        // i.e. no recycled buffer was handed out while a view was live.
        let pool = BufferPool::new();
        let threads: Vec<_> = (0..8u8)
            .map(|t| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    let mut held: Vec<(ByteView, u8)> = Vec::new();
                    for round in 0..200u32 {
                        let tag = t.wrapping_mul(31).wrapping_add(round as u8);
                        let len = 512 + (round as usize * 97) % 8192;
                        let mut scratch = pool.take(len);
                        scratch.resize(len, tag);
                        let view = scratch.freeze();
                        held.push((view.slice(len / 4..len / 2), tag));
                        // Churn: take and immediately drop to force reuse.
                        drop(pool.take(len));
                        if held.len() > 4 {
                            let (view, tag) = held.remove(0);
                            assert!(
                                view.iter().all(|&b| b == tag),
                                "live view mutated: thread {t} round {round}"
                            );
                        }
                    }
                    for (view, tag) in held {
                        assert!(view.iter().all(|&b| b == tag));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(pool.hits() > 0, "stress run should exercise reuse");
    }
}
