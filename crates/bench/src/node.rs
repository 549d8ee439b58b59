//! Compute-node catalog and the analytic resource model.
//!
//! Table X of the paper lists the general-purpose compute servers DPP runs
//! on; the trainer front-end is a 2-socket, 8-GPU node. `figures` expresses
//! each measured stage's cost as a [`ResourceVector`] — CPU cycles,
//! memory-bandwidth bytes, NIC bytes, and resident memory per item — and a
//! [`NodeSpec`] converts that cost into achievable throughput, per-resource
//! utilization, and the binding bottleneck.
//!
//! Memory bandwidth saturates at ≈70% of nominal (§VI-B), which the model
//! applies as a usable-fraction derate.

use std::fmt;

/// Fraction of nominal memory bandwidth that is practically achievable.
pub const MEMBW_USABLE_FRACTION: f64 = 0.70;

/// A hardware resource on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// CPU cycles across all cores.
    Cpu,
    /// Memory bandwidth.
    MemBw,
    /// NIC receive direction.
    NicRx,
    /// NIC transmit direction.
    NicTx,
    /// Memory capacity (resident working set).
    MemCapacity,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resource::Cpu => "cpu",
            Resource::MemBw => "membw",
            Resource::NicRx => "nic-rx",
            Resource::NicTx => "nic-tx",
            Resource::MemCapacity => "mem-capacity",
        };
        f.write_str(s)
    }
}

/// Per-item resource demand of a workload stage.
///
/// All fields are *per processed item* (sample, batch, or byte — the caller
/// chooses the unit consistently). `resident_bytes` is memory held while an
/// item is in flight; together with `residency_secs` it imposes a
/// memory-capacity rate ceiling of `capacity / (resident_bytes ×
/// residency_secs)` items/s.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVector {
    /// CPU cycles per item.
    pub cpu_cycles: f64,
    /// Bytes moved through the memory system per item.
    pub membw_bytes: f64,
    /// Bytes received from the network per item.
    pub nic_rx_bytes: f64,
    /// Bytes transmitted to the network per item.
    pub nic_tx_bytes: f64,
    /// Bytes of memory held while the item is in flight.
    pub resident_bytes: f64,
    /// How long an item stays resident, in seconds.
    pub residency_secs: f64,
}

impl ResourceVector {
    /// Component-wise sum of two demand vectors.
    pub fn plus(&self, other: &ResourceVector) -> ResourceVector {
        ResourceVector {
            cpu_cycles: self.cpu_cycles + other.cpu_cycles,
            membw_bytes: self.membw_bytes + other.membw_bytes,
            nic_rx_bytes: self.nic_rx_bytes + other.nic_rx_bytes,
            nic_tx_bytes: self.nic_tx_bytes + other.nic_tx_bytes,
            resident_bytes: self.resident_bytes + other.resident_bytes,
            residency_secs: self.residency_secs.max(other.residency_secs),
        }
    }

    /// Scales every demand by a factor.
    pub fn scaled(&self, factor: f64) -> ResourceVector {
        ResourceVector {
            cpu_cycles: self.cpu_cycles * factor,
            membw_bytes: self.membw_bytes * factor,
            nic_rx_bytes: self.nic_rx_bytes * factor,
            nic_tx_bytes: self.nic_tx_bytes * factor,
            resident_bytes: self.resident_bytes * factor,
            residency_secs: self.residency_secs,
        }
    }
}

/// Per-resource utilization at a given operating rate, each in `[0, ∞)`
/// (values above 1.0 mean the demand is infeasible on this node).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Utilization {
    /// CPU utilization fraction.
    pub cpu: f64,
    /// Memory-bandwidth utilization fraction (of nominal bandwidth).
    pub membw: f64,
    /// NIC receive utilization fraction.
    pub nic_rx: f64,
    /// NIC transmit utilization fraction.
    pub nic_tx: f64,
    /// Memory-capacity utilization fraction.
    pub mem_capacity: f64,
}

/// Specification of a compute node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Human-readable model name (e.g. `"C-v1"`).
    pub name: String,
    /// Physical core count.
    pub cores: u32,
    /// Core clock in GHz.
    pub ghz: f64,
    /// NIC line rate per direction, in gigabits per second.
    pub nic_gbps: f64,
    /// Memory capacity in bytes.
    pub mem_bytes: u64,
    /// Nominal memory bandwidth in bytes per second.
    pub membw_bytes_per_sec: f64,
}

impl NodeSpec {
    /// C-v1 compute server (Table X): 18 cores, 12.5 Gbps, 64 GB, 75 GB/s.
    pub fn c_v1() -> Self {
        Self {
            name: "C-v1".into(),
            cores: 18,
            ghz: 2.5,
            nic_gbps: 12.5,
            mem_bytes: 64 << 30,
            membw_bytes_per_sec: 75e9,
        }
    }

    /// C-v2 compute server (Table X): 26 cores, 25 Gbps, 64 GB, 92 GB/s.
    pub fn c_v2() -> Self {
        Self {
            name: "C-v2".into(),
            cores: 26,
            ghz: 2.5,
            nic_gbps: 25.0,
            mem_bytes: 64 << 30,
            membw_bytes_per_sec: 92e9,
        }
    }

    /// C-v3 compute server (Table X): 36 cores, 25 Gbps, 64 GB, 83 GB/s.
    pub fn c_v3() -> Self {
        Self {
            name: "C-v3".into(),
            cores: 36,
            ghz: 2.5,
            nic_gbps: 25.0,
            mem_bytes: 64 << 30,
            membw_bytes_per_sec: 83e9,
        }
    }

    /// The 2-socket, 8-GPU trainer node of §VI: 2×28 cores, 2×100 Gbps
    /// front-end NICs, 150 GB/s aggregate memory bandwidth.
    pub fn trainer() -> Self {
        Self {
            name: "trainer-8gpu".into(),
            cores: 56,
            ghz: 2.5,
            nic_gbps: 200.0,
            mem_bytes: 512 << 30,
            membw_bytes_per_sec: 150e9,
        }
    }

    /// Total CPU cycles per second across all cores.
    pub fn cycles_per_sec(&self) -> f64 {
        self.cores as f64 * self.ghz * 1e9
    }

    /// NIC capacity per direction in bytes per second.
    pub fn nic_bytes_per_sec(&self) -> f64 {
        self.nic_gbps * 1e9 / 8.0
    }

    /// Usable memory bandwidth (nominal × the ≈70% saturation derate).
    pub fn usable_membw(&self) -> f64 {
        self.membw_bytes_per_sec * MEMBW_USABLE_FRACTION
    }

    /// Maximum sustainable item rate for a per-item demand vector: the
    /// minimum over each resource of `capacity / demand`.
    ///
    /// Returns `f64::INFINITY` when the demand vector is all-zero.
    pub fn max_rate(&self, per_item: &ResourceVector) -> f64 {
        let mut rate = f64::INFINITY;
        if per_item.cpu_cycles > 0.0 {
            rate = rate.min(self.cycles_per_sec() / per_item.cpu_cycles);
        }
        if per_item.membw_bytes > 0.0 {
            rate = rate.min(self.usable_membw() / per_item.membw_bytes);
        }
        if per_item.nic_rx_bytes > 0.0 {
            rate = rate.min(self.nic_bytes_per_sec() / per_item.nic_rx_bytes);
        }
        if per_item.nic_tx_bytes > 0.0 {
            rate = rate.min(self.nic_bytes_per_sec() / per_item.nic_tx_bytes);
        }
        if per_item.resident_bytes > 0.0 && per_item.residency_secs > 0.0 {
            rate = rate
                .min(self.mem_bytes as f64 / (per_item.resident_bytes * per_item.residency_secs));
        }
        rate
    }

    /// Per-resource utilization when operating at `rate` items/second.
    pub fn utilization_at(&self, per_item: &ResourceVector, rate: f64) -> Utilization {
        Utilization {
            cpu: rate * per_item.cpu_cycles / self.cycles_per_sec(),
            membw: rate * per_item.membw_bytes / self.membw_bytes_per_sec,
            nic_rx: rate * per_item.nic_rx_bytes / self.nic_bytes_per_sec(),
            nic_tx: rate * per_item.nic_tx_bytes / self.nic_bytes_per_sec(),
            mem_capacity: per_item.resident_bytes * per_item.residency_secs * rate
                / self.mem_bytes as f64,
        }
    }

    /// The resource that binds first for this demand vector.
    pub fn bottleneck(&self, per_item: &ResourceVector) -> Resource {
        let rate = self.max_rate(per_item);
        if !rate.is_finite() {
            return Resource::Cpu;
        }
        // Evaluate utilization at (just below) the max rate; the component
        // closest to saturation is the bottleneck. Memory bandwidth is
        // compared against its *usable* fraction.
        let u = self.utilization_at(per_item, rate);
        let pairs = [
            (Resource::Cpu, u.cpu),
            (Resource::MemBw, u.membw / MEMBW_USABLE_FRACTION),
            (Resource::NicRx, u.nic_rx),
            (Resource::NicTx, u.nic_tx),
            (Resource::MemCapacity, u.mem_capacity),
        ];
        pairs
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("utilization is finite"))
            .expect("non-empty")
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table_x() {
        let v1 = NodeSpec::c_v1();
        assert_eq!((v1.cores, v1.nic_gbps as u32), (18, 12));
        let v2 = NodeSpec::c_v2();
        assert_eq!((v2.cores, v2.nic_gbps as u32), (26, 25));
        let v3 = NodeSpec::c_v3();
        assert_eq!((v3.cores, v3.nic_gbps as u32), (36, 25));
        // Memory bandwidth grows far slower than cores/NIC across versions.
        let core_growth = v3.cores as f64 / v1.cores as f64;
        let membw_growth = v3.membw_bytes_per_sec / v1.membw_bytes_per_sec;
        assert!(core_growth > 1.8 && membw_growth < 1.2);
    }

    #[test]
    fn max_rate_takes_binding_minimum() {
        let node = NodeSpec::c_v1();
        // NIC-bound demand: 1 byte rx per item, negligible everything else.
        let v = ResourceVector {
            nic_rx_bytes: 1.0,
            ..Default::default()
        };
        let r = node.max_rate(&v);
        assert!((r - node.nic_bytes_per_sec()).abs() / r < 1e-9);
        assert_eq!(node.bottleneck(&v), Resource::NicRx);
    }

    #[test]
    fn membw_derate_applies() {
        let node = NodeSpec::c_v1();
        let v = ResourceVector {
            membw_bytes: 1.0,
            ..Default::default()
        };
        let r = node.max_rate(&v);
        assert!((r - 75e9 * 0.70).abs() < 1.0);
        assert_eq!(node.bottleneck(&v), Resource::MemBw);
    }

    #[test]
    fn memory_capacity_caps_rate() {
        let node = NodeSpec::c_v1();
        let v = ResourceVector {
            resident_bytes: (1u64 << 30) as f64, // 1 GiB held per item
            residency_secs: 8.0,                 // for 8 seconds
            ..Default::default()
        };
        let r = node.max_rate(&v);
        assert!((r - 8.0).abs() < 1e-9); // 64 GiB / (1 GiB × 8 s)
        assert_eq!(node.bottleneck(&v), Resource::MemCapacity);
    }

    #[test]
    fn utilization_is_linear_in_rate() {
        let node = NodeSpec::c_v2();
        let v = ResourceVector {
            cpu_cycles: 1000.0,
            membw_bytes: 10.0,
            ..Default::default()
        };
        let u1 = node.utilization_at(&v, 1e6);
        let u2 = node.utilization_at(&v, 2e6);
        assert!((u2.cpu - 2.0 * u1.cpu).abs() < 1e-12);
        assert!((u2.membw - 2.0 * u1.membw).abs() < 1e-12);
    }

    #[test]
    fn zero_demand_is_unbounded() {
        let node = NodeSpec::c_v3();
        assert!(node.max_rate(&ResourceVector::default()).is_infinite());
    }

    #[test]
    fn vector_algebra() {
        let a = ResourceVector {
            cpu_cycles: 1.0,
            membw_bytes: 2.0,
            ..Default::default()
        };
        let b = ResourceVector {
            cpu_cycles: 3.0,
            nic_tx_bytes: 4.0,
            ..Default::default()
        };
        let s = a.plus(&b);
        assert_eq!(s.cpu_cycles, 4.0);
        assert_eq!(s.membw_bytes, 2.0);
        assert_eq!(s.nic_tx_bytes, 4.0);
        let d = s.scaled(2.0);
        assert_eq!(d.cpu_cycles, 8.0);
    }
}
