//! Small deterministic PRNG and hashing primitives shared across the
//! workspace.
//!
//! The pipeline needs cheap, seedable, dependency-free randomness in hot
//! paths (stream ciphers, hash transforms, placement) where pulling in a full
//! `rand` generator would be overkill. [`SplitMix64`] is the standard
//! splitmix64 generator; [`mix64`] is its finalizer usable as a hash, and
//! [`checksum64`] is the one integrity sum over byte ranges.

/// Finalizer of splitmix64 — a fast, well-distributed 64-bit mixer.
///
/// Used as the hash function behind `SigridHash`, block placement, and the
/// stream cipher keystream.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Combines two 64-bit values into one hash.
#[inline]
pub fn mix2(a: u64, b: u64) -> u64 {
    mix64(a ^ mix64(b))
}

/// Integrity checksum for stored DWRF streams and footers, wire frames and
/// Tectonic's in-memory page sums. Not cryptographic — it guards against
/// bit rot and injected corruption, not adversaries (the stream cipher
/// handles privacy).
///
/// FNV-style xor-multiply folding, but over four independent 64-bit lanes
/// of 8-byte words instead of single bytes: byte-at-a-time FNV-1a is a
/// strict serial dependency chain (~3 cycles *latency* per byte on the
/// multiply), which showed up as a per-frame tax on the wire hot path.
/// Four lanes keep the multiplier pipeline full, folding 32 bytes per
/// round; the tail and the total length fold in byte-wise.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [
        SEED,
        SEED ^ PRIME,
        SEED.rotate_left(17),
        SEED.rotate_left(31),
    ];
    let mut chunks = bytes.chunks_exact(32);
    for c in &mut chunks {
        for (lane, w) in lanes.iter_mut().zip(c.chunks_exact(8)) {
            let v = u64::from_le_bytes(w.try_into().expect("8-byte word"));
            *lane = (*lane ^ v).wrapping_mul(PRIME);
        }
    }
    let mut h = lanes[0];
    for &lane in &lanes[1..] {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    (h ^ bytes.len() as u64).wrapping_mul(PRIME)
}

/// The splitmix64 pseudo-random generator.
///
/// Deterministic, `Copy`-cheap, and sufficient for simulation decisions; not
/// cryptographically secure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift rejection-free mapping (slight bias acceptable for
        // simulation use).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A draw from `Exp(1/mean)` (exponential with the given mean).
    #[inline]
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.next_f64(); // avoid ln(0)
        -mean * u.ln()
    }

    /// A draw from a log-normal with the given median and sigma (of the
    /// underlying normal).
    pub fn next_lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        let n = self.next_normal();
        median * (sigma * n).exp()
    }

    /// A standard normal draw (Box–Muller).
    pub fn next_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn exp_mean_approximately_right() {
        let mut r = SplitMix64::new(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.next_exp(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    fn normal_mean_and_var_reasonable() {
        let mut r = SplitMix64::new(11);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| r.next_normal()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.1, "var was {var}");
    }

    #[test]
    fn mix64_changes_with_input() {
        assert_ne!(mix64(0), mix64(1));
        assert_eq!(mix64(123), mix64(123));
        assert_ne!(mix2(1, 2), mix2(2, 1));
    }

    #[test]
    fn checksum64_detects_single_bit_flips() {
        let mut data = vec![0u8; 4096];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let clean = checksum64(&data);
        assert_eq!(clean, checksum64(&data), "deterministic");
        for pos in [0usize, 7, 8, 100, 4090, 4095] {
            let mut bad = data.clone();
            bad[pos] ^= 0x40;
            assert_ne!(clean, checksum64(&bad), "flip at {pos} undetected");
        }
        // Length folding: a trailing zero byte changes the sum.
        assert_ne!(checksum64(b"abc"), checksum64(b"abc\0"));
        assert_ne!(checksum64(b""), checksum64(b"\0"));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }
}
