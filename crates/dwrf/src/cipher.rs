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

    /// Encrypts or decrypts `data` in place under the given stream nonce,
    /// four keystream words at a time; a last short block is ciphered in a
    /// zero-padded copy.
    pub fn apply_in_place(&self, nonce: u64, data: &mut [u8]) {
        let stream_key = mix2(self.key, nonce);
        let mut blocks = data.chunks_exact_mut(BLOCK);
        let mut counter = 0;
        for block in &mut blocks {
            xor_block(stream_key, counter, block.try_into().expect("full block"));
            counter += (BLOCK / 8) as u64;
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            let mut last = [0u8; BLOCK];
            last[..tail.len()].copy_from_slice(tail);
            xor_block(stream_key, counter, &mut last);
            tail.copy_from_slice(&last[..tail.len()]);
        }
    }

    /// Encrypts or decrypts `src` out of place into `out` (whatever it held
    /// is replaced): one copy, then [`StreamCipher::apply_in_place`]'s block
    /// loop over it. The hot decode path uses this to decrypt straight into
    /// a buffer it owns.
    pub fn apply_to(&self, nonce: u64, src: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(src);
        self.apply_in_place(nonce, out);
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

/// Bytes ciphered per step: four independent keystream words, which
/// overlap in the pipeline where one word a step would wait on each
/// `mix2` in turn.
const BLOCK: usize = 32;

/// XORs keystream words `counter..counter + 4` into `block`, little-endian.
#[inline(always)]
fn xor_block(stream_key: u64, counter: u64, block: &mut [u8; BLOCK]) {
    for (i, chunk) in (0u64..).zip(block.chunks_exact_mut(8)) {
        let word = u64::from_le_bytes((&*chunk).try_into().expect("8-byte chunk"));
        chunk.copy_from_slice(&(word ^ mix2(stream_key, counter + i)).to_le_bytes());
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
        let stream_key = mix2(0x5eed, 11);
        for n in (0usize..=72).chain([1000, 4095, 4096, 4097, 65_543]) {
            let data: Vec<u8> = (0..n).map(|i| (i * 37) as u8).collect();
            // Byte `i` is XORed with byte `i % 8` of keystream word `i / 8`.
            let expect: Vec<u8> = data
                .iter()
                .enumerate()
                .map(|(i, b)| b ^ mix2(stream_key, (i / 8) as u64).to_le_bytes()[i % 8])
                .collect();
            let mut in_place = data.clone();
            c.apply_in_place(11, &mut in_place);
            assert_eq!(in_place, expect, "in place, len {n}");
            let mut out = vec![0xff; 3]; // apply_to clears stale content
            c.apply_to(11, &data, &mut out);
            assert_eq!(out, expect, "out of place, len {n}");
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
