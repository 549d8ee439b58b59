//! The "datacenter tax": host-side costs of moving data over the network.
//!
//! Even without extraction or transformation, production data loading pays
//! for the network stack, memory management, TLS decryption, and
//! Thrift-style wire deserialization (§VI-B, [Kanev et al., ISCA'15]).
//! TLS in particular amplifies memory-bandwidth demand ≈3× (§VII). This
//! module prices those costs as [`ResourceVector`]s per payload byte so that
//! trainer- and worker-side models charge them uniformly.

use crate::node::ResourceVector;

/// Cost coefficients for datacenter-tax operations, per payload byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatacenterTax {
    /// CPU cycles per byte for TLS record decryption/encryption.
    pub tls_cycles_per_byte: f64,
    /// Memory-bandwidth amplification factor of TLS (bytes moved per
    /// payload byte: read ciphertext, write plaintext, key schedule traffic).
    pub tls_membw_amplification: f64,
    /// CPU cycles per byte for wire-format (Thrift-style) deserialization.
    pub deser_cycles_per_byte: f64,
    /// Bytes moved per payload byte during deserialization (parse + copy).
    pub deser_membw_amplification: f64,
    /// CPU cycles per byte for kernel/user network-stack processing.
    pub netstack_cycles_per_byte: f64,
    /// Bytes moved per payload byte by the network stack (DMA + copy).
    pub netstack_membw_amplification: f64,
}

impl DatacenterTax {
    /// Production-calibrated coefficients.
    ///
    /// Chosen so that a trainer node loading preprocessed tensors at the
    /// highest per-node demand in Table VIII (≈16.5 GB/s) lands at ≈40% CPU
    /// and ≈55% memory-bandwidth utilization (Fig. 8), and so that TLS
    /// amplifies memory bandwidth ≈3× (§VII).
    pub fn production() -> Self {
        Self {
            tls_cycles_per_byte: 1.6,
            tls_membw_amplification: 3.0,
            deser_cycles_per_byte: 0.9,
            deser_membw_amplification: 1.2,
            netstack_cycles_per_byte: 0.9,
            netstack_membw_amplification: 0.8,
        }
    }

    /// Total CPU cycles per received payload byte.
    pub fn rx_cycles_per_byte(&self) -> f64 {
        self.tls_cycles_per_byte + self.deser_cycles_per_byte + self.netstack_cycles_per_byte
    }

    /// Total memory-bandwidth bytes moved per received payload byte.
    pub fn rx_membw_per_byte(&self) -> f64 {
        self.tls_membw_amplification
            + self.deser_membw_amplification
            + self.netstack_membw_amplification
    }

    /// Resource demand for *receiving* `payload_bytes` over the network
    /// (TLS decrypt + deserialize + network stack + the NIC bytes
    /// themselves).
    pub fn rx_cost(&self, payload_bytes: f64) -> ResourceVector {
        ResourceVector {
            cpu_cycles: payload_bytes * self.rx_cycles_per_byte(),
            membw_bytes: payload_bytes * self.rx_membw_per_byte(),
            nic_rx_bytes: payload_bytes,
            ..Default::default()
        }
    }

    /// Resource demand for *sending* `payload_bytes` over the network
    /// (serialize + TLS encrypt + network stack + NIC bytes). Send-side
    /// serialization is slightly cheaper than parse-side.
    pub fn tx_cost(&self, payload_bytes: f64) -> ResourceVector {
        ResourceVector {
            cpu_cycles: payload_bytes
                * (self.tls_cycles_per_byte
                    + 0.6 * self.deser_cycles_per_byte
                    + self.netstack_cycles_per_byte),
            membw_bytes: payload_bytes
                * (self.tls_membw_amplification
                    + 0.6 * self.deser_membw_amplification
                    + self.netstack_membw_amplification),
            nic_tx_bytes: payload_bytes,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSpec;

    #[test]
    fn tls_dominates_membw_amplification() {
        let tax = DatacenterTax::production();
        assert!((tax.tls_membw_amplification - 3.0).abs() < 1e-12);
        assert!(tax.tls_membw_amplification > tax.deser_membw_amplification);
    }

    #[test]
    fn rx_cost_charges_all_resources() {
        let tax = DatacenterTax::production();
        let c = tax.rx_cost(1000.0);
        assert_eq!(c.nic_rx_bytes, 1000.0);
        assert!(c.cpu_cycles > 0.0);
        assert!(c.membw_bytes >= 3000.0); // at least the TLS amplification
    }

    #[test]
    fn fig8_calibration_point() {
        // At ~16.5 GB/s loading (RM1 node demand, Table VIII), the trainer
        // front-end should show roughly 40% CPU and 55% membw utilization.
        let node = NodeSpec::trainer();
        let tax = DatacenterTax::production();
        let per_byte = tax.rx_cost(1.0);
        let u = node.utilization_at(&per_byte, 16.5e9);
        assert!(
            (0.30..=0.50).contains(&u.cpu),
            "cpu utilization {:.2} outside Fig. 8 band",
            u.cpu
        );
        assert!(
            (0.45..=0.65).contains(&u.membw),
            "membw utilization {:.2} outside Fig. 8 band",
            u.membw
        );
    }

    #[test]
    fn tx_cheaper_than_rx() {
        let tax = DatacenterTax::production();
        assert!(tax.tx_cost(1.0).cpu_cycles < tax.rx_cost(1.0).cpu_cycles);
    }
}
