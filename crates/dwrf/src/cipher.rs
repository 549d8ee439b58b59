//! Stream encryption for DWRF streams.
//!
//! Production streams are encrypted at rest; decryption is part of the
//! extraction cost every DPP Worker pays (§III-B1). This module provides a
//! splitmix64-keystream XOR cipher: it is **not cryptographically secure**
//! (the repository is a systems simulation, not a security product), but it
//! forces readers to touch and transform every byte, which is what the
//! performance characterization needs.

use dsi_types::rng::mix2;

/// A symmetric keystream cipher keyed by `(file_key, stream_nonce)`.
///
/// Encryption and decryption are the same XOR operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCipher {
    key: u64,
}

impl StreamCipher {
    /// Creates a cipher with the given file key.
    pub fn new(key: u64) -> Self {
        Self { key }
    }

    /// The file key.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Encrypts or decrypts `data` in place under the given stream nonce.
    pub fn apply_in_place(&self, nonce: u64, data: &mut [u8]) {
        let stream_key = mix2(self.key, nonce);
        let mut counter = 0u64;
        let mut chunks = data.chunks_exact_mut(8);
        for chunk in &mut chunks {
            let ks = mix2(stream_key, counter).to_le_bytes();
            for (b, k) in chunk.iter_mut().zip(ks) {
                *b ^= k;
            }
            counter += 1;
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let ks = mix2(stream_key, counter).to_le_bytes();
            for (b, k) in rem.iter_mut().zip(ks) {
                *b ^= k;
            }
        }
    }

    /// Encrypts or decrypts `src` out of place into `out` (whatever it held
    /// is replaced), a keystream word at a time. The hot decode path uses
    /// this to write keystream output straight into a fresh buffer instead
    /// of first memcpy'ing the ciphertext into an owned buffer.
    pub fn apply_to(&self, nonce: u64, src: &[u8], out: &mut Vec<u8>) {
        let stream_key = mix2(self.key, nonce);
        out.clear();
        out.reserve(src.len());
        let mut counter = 0u64;
        let mut chunks = src.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            out.extend_from_slice(&(word ^ mix2(stream_key, counter)).to_le_bytes());
            counter += 1;
        }
        let ks = mix2(stream_key, counter).to_le_bytes();
        out.extend(chunks.remainder().iter().zip(ks).map(|(b, k)| b ^ k));
    }

    /// Encrypts `data`, returning a new buffer.
    pub fn encrypt(&self, nonce: u64, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply_in_place(nonce, &mut out);
        out
    }

    /// Decrypts `data`, returning a new buffer.
    pub fn decrypt(&self, nonce: u64, data: &[u8]) -> Vec<u8> {
        // XOR keystream: decryption is identical to encryption.
        self.encrypt(nonce, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let c = StreamCipher::new(0xdead_beef);
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let enc = c.encrypt(7, &data);
        assert_ne!(enc, data);
        assert_eq!(c.decrypt(7, &enc), data);
    }

    #[test]
    fn nonce_separates_streams() {
        let c = StreamCipher::new(1);
        let data = vec![0u8; 64];
        assert_ne!(c.encrypt(1, &data), c.encrypt(2, &data));
    }

    #[test]
    fn key_separates_files() {
        let data = vec![0u8; 64];
        assert_ne!(
            StreamCipher::new(1).encrypt(0, &data),
            StreamCipher::new(2).encrypt(0, &data)
        );
    }

    #[test]
    fn out_of_place_matches_in_place() {
        let c = StreamCipher::new(0x5eed);
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let data: Vec<u8> = (0..n).map(|i| (i * 37) as u8).collect();
            let mut expect = data.clone();
            c.apply_in_place(11, &mut expect);
            let mut out = vec![0xff; 3]; // apply_to clears stale content
            c.apply_to(11, &data, &mut out);
            assert_eq!(out, expect, "len {n}");
        }
    }

    #[test]
    fn non_multiple_of_eight_lengths() {
        let c = StreamCipher::new(99);
        for n in [0usize, 1, 7, 8, 9, 15, 17] {
            let data: Vec<u8> = (0..n as u8).collect();
            assert_eq!(c.decrypt(3, &c.encrypt(3, &data)), data, "len {n}");
        }
    }

    #[test]
    fn keystream_looks_uniform() {
        let c = StreamCipher::new(42);
        let zeros = vec![0u8; 8192];
        let ks = c.encrypt(0, &zeros);
        // Crude balance check: each bit position ~50% set.
        let ones: u32 = ks.iter().map(|b| b.count_ones()).sum();
        let total = (ks.len() * 8) as f64;
        let frac = ones as f64 / total;
        assert!((0.48..0.52).contains(&frac), "bit balance {frac}");
    }
}
