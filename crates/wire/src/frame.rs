//! Length-prefixed frame layer with per-frame checksums.
//!
//! Every message on a wire connection — data envelopes, flow-control
//! credits, and the end-of-stream goodbye — travels as one frame:
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0xD51F (little-endian)
//! 2       1     kind: 0 = Data, 1 = Credit, 2 = Goodbye
//! 3       1     flags: bit0 = compressed, bit1 = encrypted
//! 4       8     nonce (frame id; doubles as the cipher nonce)
//! 12      4     payload length
//! 16      8     FNV-1a checksum of the payload *as sent*
//! 24      ...   payload
//! ```
//!
//! The checksum covers the post-compression, post-encryption bytes, so a
//! flipped bit anywhere on the socket is caught before the cipher or the
//! codec ever see it. Reads are timeout-tolerant: the helpers here retry
//! `WouldBlock`/`TimedOut` while polling a caller-supplied stop predicate,
//! so a blocked read never wedges shutdown.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use dwrf::stream::checksum64;

/// Frame magic, first two bytes of every frame.
pub const MAGIC: u16 = 0xD51F;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 24;

/// Largest payload a peer will accept; anything bigger is treated as
/// corruption (a real envelope is a handful of megabytes at most).
pub const MAX_PAYLOAD: usize = 1 << 30;

/// Payload flag bit: the payload is DWRF-block-compressed.
pub const FLAG_COMPRESSED: u8 = 0b01;
/// Payload flag bit: the payload is stream-cipher encrypted.
pub const FLAG_ENCRYPTED: u8 = 0b10;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A serialized [`crate::WireEnvelope`].
    Data,
    /// Flow-control credit from client to server, one per envelope the
    /// client hands on. The nonce field holds the count, 1; the server
    /// counts the frame as one credit whatever it holds, since the
    /// checksum does not cover the header.
    Credit,
    /// Graceful end-of-stream from the server; no more data will come.
    Goodbye,
}

impl FrameKind {
    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::Credit),
            2 => Some(FrameKind::Goodbye),
            _ => None,
        }
    }

    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Credit => 1,
            FrameKind::Goodbye => 2,
        }
    }
}

/// Encode a complete frame (header + payload) into one buffer, ready for a
/// single `write_all`.
pub fn encode_frame(kind: FrameKind, flags: u8, nonce: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; HEADER_LEN];
    out.reserve(payload.len());
    out.extend_from_slice(payload);
    fill_header(
        &mut out,
        kind,
        flags,
        nonce,
        payload.len() as u32,
        checksum64(payload),
    );
    out
}

/// Write the 24-byte header into `buf[..HEADER_LEN]` in place. The caller
/// has already laid the payload down at `buf[HEADER_LEN..]` (the send path
/// serializes payload-first, then back-fills the header), so the whole
/// frame is ready for a single `write_all` with zero extra copies.
///
/// # Panics
///
/// Panics if `buf` is shorter than [`HEADER_LEN`].
pub fn fill_header(
    buf: &mut [u8],
    kind: FrameKind,
    flags: u8,
    nonce: u64,
    len: u32,
    checksum: u64,
) {
    buf[0..2].copy_from_slice(&MAGIC.to_le_bytes());
    buf[2] = kind.to_byte();
    buf[3] = flags;
    buf[4..12].copy_from_slice(&nonce.to_le_bytes());
    buf[12..16].copy_from_slice(&len.to_le_bytes());
    buf[16..24].copy_from_slice(&checksum.to_le_bytes());
}

/// Parsed header fields: kind, flags, nonce, payload length, checksum.
#[derive(Debug)]
pub struct Header {
    /// Frame kind.
    pub kind: FrameKind,
    /// Flag bits.
    pub flags: u8,
    /// Frame nonce.
    pub nonce: u64,
    /// Declared payload length.
    pub len: usize,
    /// Declared payload checksum.
    pub checksum: u64,
}

/// Parse and validate a fixed-size header buffer.
pub fn parse_header(buf: &[u8; HEADER_LEN]) -> io::Result<Header> {
    let magic = u16::from_le_bytes([buf[0], buf[1]]);
    if magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame magic {magic:#06x}"),
        ));
    }
    let kind = FrameKind::from_byte(buf[2]).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame kind {:#04x}", buf[2]),
        )
    })?;
    let flags = buf[3];
    let nonce = u64::from_le_bytes(buf[4..12].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload of {len} bytes exceeds cap"),
        ));
    }
    let checksum = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
    Ok(Header {
        kind,
        flags,
        nonce,
        len,
        checksum,
    })
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Fill `buf` from the stream, retrying read timeouts while `stop` stays
/// false. Returns `Ok(false)` if stopped mid-read, `Ok(true)` on success.
pub fn read_exact_retry(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &dyn Fn() -> bool,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        if stop() {
            return Ok(false);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Write all of `buf`, retrying write timeouts while `stop` stays false.
/// Returns `Ok(false)` if stopped mid-write, `Ok(true)` on success.
pub fn write_all_retry(
    stream: &mut TcpStream,
    buf: &[u8],
    stop: &dyn Fn() -> bool,
) -> io::Result<bool> {
    let mut written = 0;
    while written < buf.len() {
        if stop() {
            return Ok(false);
        }
        match stream.write(&buf[written..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "connection closed mid-write",
                ))
            }
            Ok(n) => written += n,
            Err(e) if is_timeout(&e) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read one whole frame from the stream into a caller-reused payload
/// buffer, verifying magic, length cap, and payload checksum: the payload
/// lands in `payload[..header.len]` and the validated header is returned.
/// `Ok(None)` means `stop` turned true while waiting; any corruption
/// surfaces as `InvalidData` so the caller can tear down and reconnect.
/// The buffer only grows (it is never shrunk or zeroed beyond the first
/// fill), so a steady-state reader of similar-size frames does no per-frame
/// allocation or memset.
pub fn read_frame_into(
    stream: &mut TcpStream,
    stop: &dyn Fn() -> bool,
    payload: &mut Vec<u8>,
) -> io::Result<Option<Header>> {
    let mut header = [0u8; HEADER_LEN];
    if !read_exact_retry(stream, &mut header, stop)? {
        return Ok(None);
    }
    let h = parse_header(&header)?;
    if payload.len() < h.len {
        payload.resize(h.len, 0);
    }
    if !read_exact_retry(stream, &mut payload[..h.len], stop)? {
        return Ok(None);
    }
    if checksum64(&payload[..h.len]) != h.checksum {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame checksum mismatch",
        ));
    }
    Ok(Some(h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        for s in [&client, &server] {
            s.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
        }
        (client, server)
    }

    #[test]
    fn frame_round_trips_over_socket() {
        let (mut a, mut b) = socket_pair();
        let payload = b"hello datacenter tax".to_vec();
        let bytes = encode_frame(FrameKind::Data, FLAG_ENCRYPTED, 9, &payload);
        write_all_retry(&mut a, &bytes, &|| false).expect("write");
        let mut got = Vec::new();
        let h = read_frame_into(&mut b, &|| false, &mut got)
            .expect("read")
            .expect("frame");
        assert_eq!(h.kind, FrameKind::Data);
        assert_eq!(h.flags, FLAG_ENCRYPTED);
        assert_eq!(h.nonce, 9);
        assert_eq!(got[..h.len], payload);
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let (mut a, mut b) = socket_pair();
        let mut bytes = encode_frame(FrameKind::Data, 0, 1, b"payload");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        write_all_retry(&mut a, &bytes, &|| false).expect("write");
        let err = read_frame_into(&mut b, &|| false, &mut Vec::new()).expect_err("must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_magic_rejected() {
        let (mut a, mut b) = socket_pair();
        let mut bytes = encode_frame(FrameKind::Credit, 0, 1, &[]);
        bytes[0] = 0x00;
        write_all_retry(&mut a, &bytes, &|| false).expect("write");
        assert!(read_frame_into(&mut b, &|| false, &mut Vec::new()).is_err());
    }

    #[test]
    fn partial_frame_then_close_is_eof() {
        let (mut a, mut b) = socket_pair();
        let bytes = encode_frame(FrameKind::Data, 0, 1, b"will be torn");
        write_all_retry(&mut a, &bytes[..bytes.len() / 2], &|| false).expect("write");
        drop(a);
        let err = read_frame_into(&mut b, &|| false, &mut Vec::new()).expect_err("torn frame");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn stop_predicate_aborts_idle_read() {
        let (_a, mut b) = socket_pair();
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let stop = Arc::new(AtomicBool::new(false));
        let s2 = stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            s2.store(true, Ordering::SeqCst);
        });
        let got = read_frame_into(&mut b, &|| stop.load(Ordering::SeqCst), &mut Vec::new())
            .expect("no io error");
        assert!(got.is_none());
    }
}
