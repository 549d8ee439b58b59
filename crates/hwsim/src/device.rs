//! Storage device models: HDD and SSD seek, rotation and transfer timing.
//!
//! The paper's storage layer runs on HDD storage nodes whose IOPS — not
//! capacity — constrain training reads: heavy feature filtering produces
//! small, scattered IOs (Table VI), and each seek costs milliseconds. The
//! SSD model has no mechanical latency, so the same reads cost
//! microseconds there.

use dsi_types::ByteSize;

/// A single read request against a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Byte offset within the device's logical address space.
    pub offset: u64,
    /// Number of bytes to transfer.
    pub len: u64,
}

impl IoRequest {
    /// Creates a request.
    pub fn new(offset: u64, len: u64) -> Self {
        Self { offset, len }
    }
}

/// Cumulative telemetry for one device.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceStats {
    /// Number of IO operations served.
    pub ios: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Total device-busy time in nanoseconds.
    pub busy_ns: u64,
    /// Number of IOs that required a seek (non-sequential).
    pub seeks: u64,
}

impl DeviceStats {
    /// Mean IO size in bytes (0 when no IO has occurred).
    pub fn mean_io_size(&self) -> f64 {
        if self.ios == 0 {
            0.0
        } else {
            self.bytes as f64 / self.ios as f64
        }
    }
}

/// An analytic disk model with seek/rotation/transfer timing.
///
/// Timing for a request: if the request does not continue sequentially from
/// the previous IO's end offset, it pays `seek + rotational` latency; all
/// requests pay `len / sequential_bw` transfer time.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskModel {
    capacity: ByteSize,
    /// Average seek time in nanoseconds (0 for SSD).
    seek_ns: u64,
    /// Average rotational latency in nanoseconds (0 for SSD).
    rotation_ns: u64,
    /// Sequential transfer bandwidth in bytes per second.
    seq_bw: u64,
    stats: DeviceStats,
    next_sequential_offset: u64,
}

impl DiskModel {
    /// A nearline datacenter HDD: ~8 ms access, 200 MB/s sequential, 18 TB.
    pub fn hdd() -> Self {
        Self {
            capacity: ByteSize::tib(18),
            seek_ns: 6_000_000,
            rotation_ns: 2_000_000,
            seq_bw: 200 * 1024 * 1024,
            stats: DeviceStats::default(),
            next_sequential_offset: u64::MAX,
        }
    }

    /// A datacenter NVMe SSD: no mechanical latency, 60 µs access, 3 GB/s
    /// sequential, 4 TB.
    pub fn ssd() -> Self {
        Self {
            capacity: ByteSize::tib(4),
            seek_ns: 60_000,
            rotation_ns: 0,
            seq_bw: 3 * 1024 * 1024 * 1024,
            stats: DeviceStats::default(),
            next_sequential_offset: u64::MAX,
        }
    }

    /// Builds a custom device model.
    ///
    /// # Panics
    ///
    /// Panics if `seq_bw == 0`.
    pub fn custom(capacity: ByteSize, seek_ns: u64, rotation_ns: u64, seq_bw: u64) -> Self {
        assert!(seq_bw > 0, "sequential bandwidth must be positive");
        Self {
            capacity,
            seek_ns,
            rotation_ns,
            seq_bw,
            stats: DeviceStats::default(),
            next_sequential_offset: u64::MAX,
        }
    }

    /// Device capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Time to serve one request, in nanoseconds, without recording it.
    pub fn service_time_ns(&self, req: IoRequest) -> u64 {
        let positioning = if req.offset == self.next_sequential_offset {
            0
        } else {
            self.seek_ns + self.rotation_ns
        };
        let transfer = (req.len as f64 / self.seq_bw as f64 * 1e9).round() as u64;
        positioning + transfer
    }

    /// Serves a request: records telemetry and returns the service time in
    /// nanoseconds.
    pub fn serve(&mut self, req: IoRequest) -> u64 {
        let ns = self.service_time_ns(req);
        let seeked = req.offset != self.next_sequential_offset;
        self.stats.ios += 1;
        self.stats.bytes += req.len;
        self.stats.busy_ns += ns;
        if seeked {
            self.stats.seeks += 1;
        }
        self.next_sequential_offset = req.offset + req.len;
        ns
    }

    /// Cumulative telemetry.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Resets telemetry (keeps the model parameters).
    pub fn reset_stats(&mut self) {
        self.stats = DeviceStats::default();
        self.next_sequential_offset = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_small_random_reads_are_seek_dominated() {
        let hdd = DiskModel::hdd();
        // 4 KiB random read: ~8 ms positioning dominates ~20 µs transfer.
        let t = hdd.service_time_ns(IoRequest::new(1 << 30, 4096));
        assert!(t > 7_000_000, "positioning should dominate: {t} ns");
    }

    #[test]
    fn sequential_reads_skip_positioning() {
        let mut hdd = DiskModel::hdd();
        let first = hdd.serve(IoRequest::new(0, 1024 * 1024));
        let second = hdd.serve(IoRequest::new(1024 * 1024, 1024 * 1024));
        assert!(second < first, "sequential follow-up must be cheaper");
        assert_eq!(hdd.stats().seeks, 1);
        assert_eq!(hdd.stats().ios, 2);
    }

    #[test]
    fn stats_aggregate() {
        let mut d = DiskModel::ssd();
        d.serve(IoRequest::new(0, 1000));
        d.serve(IoRequest::new(5000, 3000));
        let s = d.stats();
        assert_eq!(s.ios, 2);
        assert_eq!(s.bytes, 4000);
        assert!(s.mean_io_size() == 2000.0);
        d.reset_stats();
        assert_eq!(d.stats().ios, 0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn custom_validates() {
        let _ = DiskModel::custom(ByteSize::tib(1), 0, 0, 0);
    }
}
