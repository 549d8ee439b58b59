//! Offline shim of the `bytes` crate.
//!
//! This workspace vendors minimal, dependency-free stand-ins for the
//! handful of external crates it uses, because the build environment has
//! no network access to a registry. Only the API surface the workspace
//! actually exercises is provided: [`Bytes`] as an `Arc`-backed,
//! zero-copy-sliceable immutable byte container.

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply-cloneable immutable byte buffer with zero-copy slicing.
///
/// Clones share one allocation; [`Bytes::slice`] returns a view over the
/// same allocation with adjusted bounds, matching the semantics of the
/// real `bytes::Bytes` for the operations this workspace uses. A `Vec`
/// becomes `Bytes` in place: its buffer is kept, not copied.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::from(data.to_vec())
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy sub-view. Panics if the range is out of bounds, like
    /// the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => len,
        };
        assert!(begin <= end, "slice {begin}..{end} inverted");
        assert!(end <= len, "slice {begin}..{end} out of bounds of {len}");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// The bytes of this view.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copies the view out into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Self::copy_from_slice(v.as_bytes())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(32) {
            write!(f, "\\x{b:02x}")?;
        }
        if self.len() > 32 {
            write!(f, "..")?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::iter::FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Self::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slicing_is_zero_copy_and_bounded() {
        let b = Bytes::from((0u8..100).collect::<Vec<u8>>());
        let s = b.slice(10..20);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 10);
        let ss = s.slice(5..);
        assert_eq!(ss.as_slice(), &[15, 16, 17, 18, 19]);
        assert_eq!(b.len(), 100);
    }

    #[test]
    fn a_vec_becomes_bytes_without_a_copy() {
        let mut v = Vec::with_capacity(64);
        v.extend_from_slice(b"landed file");
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at);
        assert_eq!(b.slice(7..).as_ptr(), at.wrapping_add(7));
        assert_eq!(b, b"landed file".to_vec());
    }

    #[test]
    fn clones_share_and_compare_by_content() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        Bytes::from(vec![1, 2, 3]).slice(0..4);
    }
}
