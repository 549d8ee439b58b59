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

    /// Reads records in `[from, to)`, clamped to the readable range.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::InvalidState`] if `from` precedes the trim point.
    pub fn read_range(&self, from: Lsn, to: Lsn) -> Result<Vec<ScribeRecord>> {
        if from.0 < self.trim_point {
            return Err(DsiError::InvalidState(format!(
                "lsn {} precedes trim point {}",
                from.0, self.trim_point
            )));
        }
        let to = to.0.min(self.next_lsn);
        let mut out = Vec::new();
        if from.0 >= to {
            return Ok(out);
        }
        for seg in &self.segments {
            let seg_end = seg.base + seg.records.len() as u64;
            if seg_end <= from.0 || seg.base >= to {
                continue;
            }
            let lo = from.0.max(seg.base) - seg.base;
            let hi = to.min(seg_end) - seg.base;
            out.extend(seg.records[lo as usize..hi as usize].iter().cloned());
        }
        Ok(out)
    }

    /// Trims (releases) every record before `upto`. Trimming past the tail
    /// clamps to the tail.
    pub fn trim(&mut self, upto: Lsn) {
        let upto = upto.0.min(self.next_lsn).max(self.trim_point);
        self.trim_point = upto;
        self.segments.retain(|seg| {
            let seg_end = seg.base + seg.records.len() as u64;
            seg_end > upto
        });
    }

    /// Approximate retained record count across segments (for memory
    /// accounting; trimming drops whole segments lazily).
    pub fn retained_records(&self) -> usize {
        self.segments.iter().map(|s| s.records.len()).sum()
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

    #[test]
    fn read_range_spans_segments() {
        let mut s = LogStream::new();
        for i in 0..(SEGMENT_CAPACITY as u64 * 2 + 10) {
            s.append(ev(i));
        }
        let got = s
            .read_range(
                Lsn(SEGMENT_CAPACITY as u64 - 5),
                Lsn(SEGMENT_CAPACITY as u64 + 5),
            )
            .unwrap();
        assert_eq!(got.len(), 10);
        match &got[0] {
            ScribeRecord::Event(e) => assert_eq!(e.request_id, SEGMENT_CAPACITY as u64 - 5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn read_clamps_to_tail() {
        let mut s = LogStream::new();
        s.append(ev(0));
        let got = s.read_range(Lsn(0), Lsn(100)).unwrap();
        assert_eq!(got.len(), 1);
        assert!(s.read_range(Lsn(5), Lsn(10)).unwrap().is_empty());
    }

    #[test]
    fn trim_releases_prefix() {
        let mut s = LogStream::new();
        for i in 0..(SEGMENT_CAPACITY as u64 + 100) {
            s.append(ev(i));
        }
        s.trim(Lsn(SEGMENT_CAPACITY as u64));
        assert_eq!(s.head(), Lsn(SEGMENT_CAPACITY as u64));
        assert_eq!(s.len(), 100);
        // Whole trimmed segments are dropped.
        assert!(s.retained_records() <= SEGMENT_CAPACITY + 100);
        assert!(s.read_range(Lsn(0), Lsn(1)).is_err());
        let got = s
            .read_range(Lsn(SEGMENT_CAPACITY as u64), s.tail())
            .unwrap();
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn trim_is_idempotent_and_clamped() {
        let mut s = LogStream::new();
        s.append(ev(0));
        s.trim(Lsn(100));
        assert_eq!(s.head(), Lsn(1));
        s.trim(Lsn(0)); // cannot move backwards
        assert_eq!(s.head(), Lsn(1));
        assert!(s.is_empty());
    }
}
