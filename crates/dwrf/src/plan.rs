//! The read planner: turning wanted streams into IO requests.
//!
//! Heavy feature filtering over columnar storage yields many small reads
//! (Table VI shows a median IO around 1 KiB), which cripples HDD IOPS. The
//! production fix is **coalescing**: streams within a window (1.25 MiB) are
//! fetched in one IO, amortizing seeks at the cost of *over-reading* the
//! unwanted bytes between them (§VII). [`IoPlan`] captures both effects.

/// Default coalescing window: 1.25 MiB.
pub const DEFAULT_COALESCE_WINDOW: u64 = 1_310_720;

/// How wanted byte ranges become IO requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoalescePolicy {
    /// One IO per wanted range (the pre-optimization baseline).
    None,
    /// Merge ranges whose gap is at most the window into one IO.
    Window(u64),
}

impl CoalescePolicy {
    /// The production default window (1.25 MiB).
    pub fn default_window() -> Self {
        CoalescePolicy::Window(DEFAULT_COALESCE_WINDOW)
    }
}

impl Default for CoalescePolicy {
    fn default() -> Self {
        Self::default_window()
    }
}

/// One planned IO request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedRead {
    /// Byte offset within the file.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl PlannedRead {
    /// End offset (exclusive).
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// Whether this read fully covers `[offset, offset + len)`.
    pub fn covers(&self, offset: u64, len: u64) -> bool {
        offset >= self.offset && offset + len <= self.end()
    }
}

/// A set of IO requests plus over-read accounting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IoPlan {
    /// The IO requests, sorted by offset.
    pub reads: Vec<PlannedRead>,
    /// Bytes actually wanted by the reader.
    pub wanted_bytes: u64,
    /// Bytes that will be transferred (≥ `wanted_bytes` when coalescing).
    pub read_bytes: u64,
    /// Bytes of decompressed stream payload produced when the plan was
    /// executed (0 for an unexecuted plan). Map-format files decompress
    /// whole rows here even when the projection keeps only a few features.
    pub uncompressed_bytes: u64,
    /// Bytes physically memcpy'd while executing the plan (0 for an
    /// unexecuted plan). Decode slices storage buffers instead of copying;
    /// only source reads that span storage blocks and in-flight corruption
    /// copy, so this is usually 0.
    pub copied_bytes: u64,
}

impl IoPlan {
    /// Builds a plan from wanted `(offset, len)` ranges under `policy`.
    ///
    /// Overlapping or duplicate ranges are merged before planning. Every
    /// range's end must fit in a `u64`; `decode_footer` rejects a footer
    /// whose streams do not.
    pub fn build(mut wanted: Vec<(u64, u64)>, policy: CoalescePolicy) -> IoPlan {
        wanted.retain(|&(_, len)| len > 0);
        if wanted.is_empty() {
            return IoPlan::default();
        }
        wanted.sort_unstable();
        // Merge overlaps/adjacency first so wanted_bytes counts each byte once.
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(wanted.len());
        for (off, len) in wanted {
            match merged.last_mut() {
                Some(last) if off <= last.0 + last.1 => {
                    let end = (off + len).max(last.0 + last.1);
                    last.1 = end - last.0;
                }
                _ => merged.push((off, len)),
            }
        }
        let wanted_bytes: u64 = merged.iter().map(|&(_, l)| l).sum();

        let gap_limit = match policy {
            CoalescePolicy::None => 0,
            CoalescePolicy::Window(w) => w,
        };
        let mut reads: Vec<PlannedRead> = Vec::new();
        for (off, len) in merged {
            match reads.last_mut() {
                Some(last) if policy != CoalescePolicy::None && off - last.end() <= gap_limit => {
                    last.len = off + len - last.offset;
                }
                _ => reads.push(PlannedRead { offset: off, len }),
            }
        }
        let read_bytes = reads.iter().map(|r| r.len).sum();
        IoPlan {
            reads,
            wanted_bytes,
            read_bytes,
            uncompressed_bytes: 0,
            copied_bytes: 0,
        }
    }

    /// Bytes transferred but not wanted (coalescing cost).
    pub fn over_read_bytes(&self) -> u64 {
        self.read_bytes - self.wanted_bytes
    }

    /// Ratio of transferred to wanted bytes (1.0 = no over-read).
    pub fn amplification(&self) -> f64 {
        if self.wanted_bytes == 0 {
            return 1.0;
        }
        self.read_bytes as f64 / self.wanted_bytes as f64
    }

    /// Number of IO operations.
    pub fn io_count(&self) -> usize {
        self.reads.len()
    }

    /// Merges another plan's accounting into this one (multi-stripe totals).
    pub fn merge(&mut self, other: &IoPlan) {
        self.reads.extend_from_slice(&other.reads);
        self.wanted_bytes += other.wanted_bytes;
        self.read_bytes += other.read_bytes;
        self.uncompressed_bytes += other.uncompressed_bytes;
        self.copied_bytes += other.copied_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_coalescing_is_one_io_per_range() {
        let plan = IoPlan::build(vec![(0, 10), (100, 10), (50, 10)], CoalescePolicy::None);
        assert_eq!(plan.io_count(), 3);
        assert_eq!(plan.wanted_bytes, 30);
        assert_eq!(plan.read_bytes, 30);
        assert_eq!(plan.over_read_bytes(), 0);
        // Sorted by offset.
        assert_eq!(plan.reads[1].offset, 50);
    }

    #[test]
    fn window_merges_nearby_ranges() {
        let plan = IoPlan::build(vec![(0, 10), (30, 10)], CoalescePolicy::Window(25));
        assert_eq!(plan.io_count(), 1);
        assert_eq!(plan.reads[0], PlannedRead { offset: 0, len: 40 });
        assert_eq!(plan.wanted_bytes, 20);
        assert_eq!(plan.over_read_bytes(), 20);
        assert!((plan.amplification() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gap_beyond_window_stays_separate() {
        let plan = IoPlan::build(vec![(0, 10), (1000, 10)], CoalescePolicy::Window(25));
        assert_eq!(plan.io_count(), 2);
        assert_eq!(plan.over_read_bytes(), 0);
    }

    #[test]
    fn overlapping_ranges_deduplicate() {
        let plan = IoPlan::build(vec![(0, 10), (5, 10), (15, 5)], CoalescePolicy::None);
        assert_eq!(plan.io_count(), 1);
        assert_eq!(plan.wanted_bytes, 20);
    }

    #[test]
    fn empty_and_zero_length() {
        let plan = IoPlan::build(vec![], CoalescePolicy::default());
        assert_eq!(plan.io_count(), 0);
        assert_eq!(plan.amplification(), 1.0);
        let plan = IoPlan::build(vec![(10, 0)], CoalescePolicy::None);
        assert_eq!(plan.io_count(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = IoPlan::build(vec![(0, 10)], CoalescePolicy::None);
        let b = IoPlan::build(vec![(100, 20)], CoalescePolicy::None);
        a.merge(&b);
        assert_eq!(a.io_count(), 2);
        assert_eq!(a.wanted_bytes, 30);
    }

    #[test]
    fn default_window_is_1_25_mib() {
        assert_eq!(DEFAULT_COALESCE_WINDOW, (1.25 * 1024.0 * 1024.0) as u64);
    }
}
