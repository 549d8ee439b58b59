//! LogDevice-style append-only, trimmable, segmented log streams.
//!
//! Scribe groups logs into record-oriented logical streams stored in
//! LogDevice — a reliable distributed store for append-only streams built on
//! an LSM store. This simulation keeps the essential semantics: monotone
//! log sequence numbers (LSNs), segmented storage, range reads, and
//! trimming of consumed prefixes.

use crate::record::ScribeRecord;
use dsi_types::{DsiError, Result};

/// A log sequence number: position of a record within a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The next sequence number.
    pub fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }
}

const SEGMENT_CAPACITY: usize = 1024;

#[derive(Debug, Default)]
struct Segment {
    base: u64,
    records: Vec<ScribeRecord>,
}

/// An append-only, trimmable stream of records.
#[derive(Debug, Default)]
pub struct LogStream {
    segments: Vec<Segment>,
    next_lsn: u64,
    trim_point: u64,
}

impl LogStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record, returning its LSN.
    pub fn append(&mut self, record: ScribeRecord) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        match self.segments.last_mut() {
            Some(seg) if seg.records.len() < SEGMENT_CAPACITY => seg.records.push(record),
            _ => self.segments.push(Segment {
                base: lsn,
                records: vec![record],
            }),
        }
        Lsn(lsn)
    }

    /// LSN the next append will receive (== current length including
    /// trimmed records).
    pub fn tail(&self) -> Lsn {
        Lsn(self.next_lsn)
    }

    /// Oldest readable LSN.
    pub fn head(&self) -> Lsn {
        Lsn(self.trim_point)
    }

    /// Number of readable (untrimmed) records.
    pub fn len(&self) -> usize {
        (self.next_lsn - self.trim_point) as usize
    }

    /// Whether no readable records remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes the records in `[from, to)`, clamped to the readable range,
    /// out of the stream, and trims everything before `to`: records in
    /// `[head, from)` are released unread. Each record is moved, never
    /// cloned; a segment the range ends inside keeps its later records,
    /// at the same LSNs, for the next take.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::InvalidState`] if `from` precedes the trim point.
    pub fn take_range(&mut self, from: Lsn, to: Lsn) -> Result<Vec<ScribeRecord>> {
        if from.0 < self.trim_point {
            return Err(DsiError::InvalidState(format!(
                "lsn {} precedes trim point {}",
                from.0, self.trim_point
            )));
        }
        let to = to.0.min(self.next_lsn).max(self.trim_point);
        let mut out = Vec::with_capacity(to.saturating_sub(from.0) as usize);
        let mut emptied = 0;
        for seg in &mut self.segments {
            if seg.base >= to {
                break;
            }
            let end = ((to - seg.base) as usize).min(seg.records.len());
            let skip = (from.0.saturating_sub(seg.base) as usize).min(end);
            out.extend(seg.records.drain(..end).skip(skip));
            seg.base += end as u64;
            emptied += usize::from(seg.records.is_empty());
        }
        // Only a prefix of segments can have been emptied: the one the
        // range ends inside stops the loop.
        self.segments.drain(..emptied);
        self.trim_point = to;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EventRecord;

    fn ev(i: u64) -> ScribeRecord {
        ScribeRecord::Event(EventRecord::positive(i, i))
    }

    #[test]
    fn append_assigns_monotone_lsns() {
        let mut s = LogStream::new();
        assert_eq!(s.append(ev(0)), Lsn(0));
        assert_eq!(s.append(ev(1)), Lsn(1));
        assert_eq!(s.tail(), Lsn(2));
        assert_eq!(s.len(), 2);
    }

    fn ids(records: &[ScribeRecord]) -> Vec<u64> {
        records
            .iter()
            .map(|r| match r {
                ScribeRecord::Event(e) => e.request_id,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    /// Records the stream still holds in its segments: a take must release
    /// what it took, not just move the head.
    fn retained(s: &LogStream) -> usize {
        s.segments.iter().map(|seg| seg.records.len()).sum()
    }

    #[test]
    fn take_range_spans_segments_in_order() {
        let mut s = LogStream::new();
        let cap = SEGMENT_CAPACITY as u64;
        for i in 0..(cap * 2 + 10) {
            s.append(ev(i));
        }
        let got = s.take_range(Lsn(cap - 5), Lsn(cap + 5)).unwrap();
        assert_eq!(ids(&got), (cap - 5..cap + 5).collect::<Vec<_>>());
        // Everything before the range went with it.
        assert_eq!(s.head(), Lsn(cap + 5));
        assert_eq!(s.len(), cap as usize + 5);
        assert_eq!(retained(&s), cap as usize + 5);
    }

    #[test]
    fn take_clamps_to_tail() {
        let mut s = LogStream::new();
        s.append(ev(0));
        assert_eq!(ids(&s.take_range(Lsn(0), Lsn(100)).unwrap()), [0]);
        assert_eq!(s.head(), Lsn(1));
        assert!(s.is_empty());
        assert!(s.take_range(Lsn(5), Lsn(10)).unwrap().is_empty());
        assert_eq!(s.head(), Lsn(1), "the trim point stops at the tail");
        assert_eq!(s.append(ev(1)), Lsn(1));
        assert_eq!(ids(&s.take_range(Lsn(1), Lsn(2)).unwrap()), [1]);
    }

    #[test]
    fn take_before_the_trim_point_is_invalid_state() {
        let mut s = LogStream::new();
        for i in 0..(SEGMENT_CAPACITY as u64 + 100) {
            s.append(ev(i));
        }
        s.take_range(Lsn(0), Lsn(SEGMENT_CAPACITY as u64)).unwrap();
        assert_eq!(s.head(), Lsn(SEGMENT_CAPACITY as u64));
        assert!(matches!(
            s.take_range(Lsn(0), Lsn(1)),
            Err(DsiError::InvalidState(_))
        ));
        // A refused take changes nothing.
        assert_eq!(s.len(), 100);
        // The trim point cannot move backwards; taking nothing still
        // trims to `to`.
        assert!(s.take_range(s.tail(), Lsn(0)).unwrap().is_empty());
        assert_eq!((s.head(), s.len()), (Lsn(SEGMENT_CAPACITY as u64), 100));
        assert!(s.take_range(s.tail(), s.tail()).unwrap().is_empty());
        assert_eq!(s.head(), s.tail());
    }

    #[test]
    fn take_ending_mid_segment_leaves_the_rest_at_their_lsns() {
        let mut s = LogStream::new();
        for i in 0..10 {
            s.append(ev(i));
        }
        assert_eq!(ids(&s.take_range(Lsn(2), Lsn(6)).unwrap()), [2, 3, 4, 5]);
        assert_eq!((s.head(), s.tail(), s.len()), (Lsn(6), Lsn(10), 4));
        assert_eq!(retained(&s), 4);
        // Appends after a partial take land behind the rest.
        assert_eq!(s.append(ev(10)), Lsn(10));
        assert_eq!(ids(&s.take_range(Lsn(7), s.tail()).unwrap()), [7, 8, 9, 10]);
        assert!(s.is_empty());
    }
}
