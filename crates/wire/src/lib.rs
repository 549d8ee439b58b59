//! Framed TCP transport for the DPP data plane.
//!
//! In production DSI deployments the DPP Workers and the trainer-side
//! Clients live on different hosts, so every mini-batch pays the
//! "datacenter tax": serialization, optional TLS, framing, kernel socket
//! copies, and deserialization on the far side. The paper's figures price
//! that tax analytically (`dsi_bench::tax::DatacenterTax`); this crate makes
//! it *measurable* by actually shipping tensors over a socket:
//!
//! - [`codec`] serializes [`WireEnvelope`]s (the Worker→Client unit of
//!   delivery) into a compact binary form built on the DWRF varint
//!   primitives — the serde shim is a no-op, so the codec is hand-rolled.
//! - [`frame`] wraps payloads in a 24-byte header (magic, kind, flags,
//!   nonce, length, FNV-1a checksum) so torn writes and corruption are
//!   detected instead of silently mis-parsed.
//! - [`window`] is the server's [`SendWindow`]: the frames written and not
//!   yet credited, as a pure value that owns every flow-control and replay
//!   decision.
//! - [`transport`] runs one [`WireServer`] thread per Worker around that
//!   window, reading the client's credits off the socket it sends on, and
//!   one client reader thread per connection, with credit-based flow
//!   control mirroring the bounded-channel backpressure of the in-process
//!   path and reconnect-with-replay of unacked envelopes. Replays can
//!   duplicate envelopes; exactly-once delivery is restored end-to-end by
//!   the DPP Client's sequence-number dedup.
//!
//! Encryption is a stream-cipher TLS stand-in ([`dwrf::cipher`]) keyed per
//! session and nonced per frame; compression reuses the DWRF block codec.
//! Both are toggled by [`WireConfig`] and charged to `dsi_wire_*` metrics
//! so the pipeline report can print a measured tax breakdown.

#![warn(missing_docs)]

pub mod codec;
pub mod frame;
pub mod transport;
pub mod window;

pub use codec::WireEnvelope;
pub use frame::{FrameKind, HEADER_LEN, MAGIC};
pub use transport::{connect, WireChaos, WireObs, WireServer};
pub use window::SendWindow;

/// Tunables for a wire transport session. Both endpoints of a connection
/// must agree on the config (it is carried in the `SessionSpec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireConfig {
    /// Encrypt frame payloads with the DWRF stream cipher (TLS stand-in).
    pub encrypt: bool,
    /// Compress frame payloads with the DWRF block codec before encryption.
    pub compress: bool,
    /// Session key for the stream cipher; ignored unless `encrypt` is set.
    pub key: u64,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            encrypt: false,
            compress: false,
            key: 0xD51_F00D,
        }
    }
}

impl WireConfig {
    /// Plain TCP: framing and checksums only.
    pub fn plaintext() -> Self {
        Self::default()
    }

    /// TCP with the stream-cipher TLS stand-in enabled under `key`.
    pub fn encrypted(key: u64) -> Self {
        Self {
            encrypt: true,
            compress: false,
            key,
        }
    }
}
