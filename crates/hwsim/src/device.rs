//! Storage device models: HDD and SSD timing, IOPS, and power accounting.
//!
//! The paper's storage layer runs on HDD storage nodes whose IOPS — not
//! capacity — constrain training reads: heavy feature filtering produces
//! small, scattered IOs (Table VI), and each seek costs milliseconds. The
//! fleet's SSD nodes trade the opposite way: per watt they deliver 326% of
//! the IOPS but only 9% of the capacity of HDD nodes (§VII). These device
//! models expose exactly that tension.

use dsi_types::ByteSize;
use std::fmt;

/// Kind of storage medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Rotational disk: cheap capacity, seek-dominated small IO.
    Hdd,
    /// Flash: high IOPS per watt, expensive capacity.
    Ssd,
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceKind::Hdd => f.write_str("hdd"),
            DeviceKind::Ssd => f.write_str("ssd"),
        }
    }
}

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
    kind: DeviceKind,
    capacity: ByteSize,
    /// Average seek time in nanoseconds (0 for SSD).
    seek_ns: u64,
    /// Average rotational latency in nanoseconds (0 for SSD).
    rotation_ns: u64,
    /// Sequential transfer bandwidth in bytes per second.
    seq_bw: u64,
    /// Device power draw in watts.
    watts: f64,
    /// Random-IO operations per second ceiling.
    max_iops: f64,
    stats: DeviceStats,
    next_sequential_offset: u64,
}

impl DiskModel {
    /// A nearline datacenter HDD: ~8 ms access, 200 MB/s sequential, 18 TB,
    /// ~8 W. Random IOPS ceiling ≈ 120.
    pub fn hdd() -> Self {
        Self {
            kind: DeviceKind::Hdd,
            capacity: ByteSize::tib(18),
            seek_ns: 6_000_000,
            rotation_ns: 2_000_000,
            seq_bw: 200 * 1024 * 1024,
            watts: 8.0,
            max_iops: 120.0,
            stats: DeviceStats::default(),
            next_sequential_offset: u64::MAX,
        }
    }

    /// A datacenter NVMe SSD: no mechanical latency, 60 µs access, 3 GB/s
    /// sequential, 4 TB, ~12 W. Random IOPS ceiling ≈ 500k.
    ///
    /// Relative to [`DiskModel::hdd`] this yields roughly 326% of the
    /// IOPS per watt and 9% of the capacity per watt quoted in §VII once
    /// node-level packaging is applied (see `dsi_bench::provisioning`).
    pub fn ssd() -> Self {
        Self {
            kind: DeviceKind::Ssd,
            capacity: ByteSize::tib(4),
            seek_ns: 60_000,
            rotation_ns: 0,
            seq_bw: 3 * 1024 * 1024 * 1024,
            watts: 12.0,
            max_iops: 500_000.0,
            stats: DeviceStats::default(),
            next_sequential_offset: u64::MAX,
        }
    }

    /// Builds a custom device model.
    ///
    /// # Panics
    ///
    /// Panics if `seq_bw == 0` or `max_iops <= 0`.
    pub fn custom(
        kind: DeviceKind,
        capacity: ByteSize,
        seek_ns: u64,
        rotation_ns: u64,
        seq_bw: u64,
        watts: f64,
        max_iops: f64,
    ) -> Self {
        assert!(seq_bw > 0, "sequential bandwidth must be positive");
        assert!(max_iops > 0.0, "IOPS ceiling must be positive");
        Self {
            kind,
            capacity,
            seek_ns,
            rotation_ns,
            seq_bw,
            watts,
            max_iops,
            stats: DeviceStats::default(),
            next_sequential_offset: u64::MAX,
        }
    }

    /// The medium kind.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Device capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Device power draw in watts.
    pub fn watts(&self) -> f64 {
        self.watts
    }

    /// Random-IO operations per second ceiling.
    pub fn max_iops(&self) -> f64 {
        self.max_iops
    }

    /// Sequential bandwidth in bytes per second.
    pub fn seq_bw(&self) -> u64 {
        self.seq_bw
    }

    /// Random IOPS per watt — the heterogeneous-storage efficiency metric.
    pub fn iops_per_watt(&self) -> f64 {
        self.max_iops / self.watts
    }

    /// Capacity (bytes) per watt.
    pub fn capacity_per_watt(&self) -> f64 {
        self.capacity.bytes() as f64 / self.watts
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

    /// Maximum sustainable throughput in bytes/second for a random-read
    /// workload with the given mean IO size: the device serves
    /// `min(max_iops, 1/io_time)` IOs per second.
    pub fn random_read_bytes_per_sec(&self, io_size: u64) -> f64 {
        let io_time_s =
            (self.seek_ns + self.rotation_ns) as f64 / 1e9 + io_size as f64 / self.seq_bw as f64;
        let iops = (1.0 / io_time_s).min(self.max_iops);
        iops * io_size as f64
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
        // Same read at 1.25 MiB amortizes the seek substantially.
        let big = hdd.random_read_bytes_per_sec(1_310_720);
        let small = hdd.random_read_bytes_per_sec(4096);
        assert!(
            big / small > 50.0,
            "coalescing should win big on HDD: {big} vs {small}"
        );
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
    fn ssd_iops_per_watt_far_exceeds_hdd() {
        let hdd = DiskModel::hdd();
        let ssd = DiskModel::ssd();
        assert!(ssd.iops_per_watt() / hdd.iops_per_watt() > 100.0);
        assert!(ssd.capacity_per_watt() < hdd.capacity_per_watt());
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
    fn random_read_respects_iops_ceiling() {
        let ssd = DiskModel::ssd();
        // Tiny IOs: bounded by the 500k IOPS ceiling, not transfer time.
        let bps = ssd.random_read_bytes_per_sec(512);
        assert!(bps <= 500_000.0 * 512.0 + 1.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn custom_validates() {
        let _ = DiskModel::custom(DeviceKind::Hdd, ByteSize::tib(1), 0, 0, 0, 1.0, 10.0);
    }
}
