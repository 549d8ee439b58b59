//! # fastpath — zero-copy byte views
//!
//! The DSI hot path moves stripe bytes from Tectonic storage nodes through
//! the DWRF decoder into DPP worker transforms. Historically every hop
//! copied: storage reads assembled fresh `Vec`s and per-stream fetches
//! `to_vec()`'d their window. This crate provides the primitive that
//! removes those copies:
//!
//! * [`ByteView`] — an immutable, reference-counted view over either
//!   storage bytes ([`bytes::Bytes`]) or one owned buffer (decrypt or
//!   decompress output, an assembled multi-block read), with cheap
//!   zero-copy sub-slicing. Stripe buffers are sliced into stream payloads
//!   instead of copied.
//!
//! [`SourceChunk`] pairs a view with the number of bytes that were
//! physically memcpy'd to produce it, which is how the pipeline keeps its
//! `dsi_fastpath_bytes_copied_total` ledger honest: zero-copy reads report
//! 0; multi-block assembly and corruption-forced copies report their true
//! cost.

use bytes::Bytes;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// ByteView
// ---------------------------------------------------------------------------

/// An immutable, cheaply-cloneable view over shared bytes.
///
/// A view is an `Arc`-backed allocation plus a `[start, end)` window;
/// [`ByteView::slice`] narrows the window without touching the bytes.
/// The backing allocation is either storage bytes ([`Bytes`]) or one owned
/// `Vec` taken over without copying; it is freed when the last view over
/// it drops.
#[derive(Clone)]
pub struct ByteView {
    repr: Repr,
    start: usize,
    end: usize,
}

#[derive(Clone)]
enum Repr {
    Shared(Bytes),
    Owned(Arc<Vec<u8>>),
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
            Repr::Owned(v) => &v[self.start..self.end],
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
    /// Takes `v` over as the view's backing allocation, without copying.
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self {
            repr: Repr::Owned(Arc::new(v)),
            start: 0,
            end,
        }
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
            Repr::Owned(_) => "owned",
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
    fn owned_views_keep_their_buffer() {
        let v: Vec<u8> = (0u8..64).collect();
        let ptr = v.as_ptr();
        let view = ByteView::from(v);
        assert_eq!(view.as_ptr(), ptr, "the vector is taken over, not copied");
        let tail = view.slice(60..);
        drop(view);
        assert_eq!(tail.as_slice(), &[60, 61, 62, 63]);
    }
}
