//! Primitive codecs: LEB128 varints, zigzag, run-length encoding, float
//! arrays, and a tiny binary metadata writer/reader used for stripe and file
//! footers.

use dsi_types::{DsiError, Result};

/// Appends a LEB128 varint encoding of `v` to `out`.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from `buf` starting at `*pos`, advancing `*pos`.
///
/// Dispatches to a single-byte fast path (headers, lengths, small ids are
/// one byte), then an unrolled bounds-check-free decode over a 10-byte
/// window when the buffer has slack, falling back to the byte-at-a-time
/// scalar loop only near the end of the buffer.
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] on truncated or over-long input.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    if let Some(&b) = buf.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Ok(b as u64);
        }
    }
    read_varint_multi(buf, pos)
}

/// Multi-byte continuation of [`read_varint`]. A varint is at most 10
/// bytes; when that whole window is in-bounds the decode runs over a fixed
/// `[u8; 10]` with constant indices (no per-byte bounds checks).
fn read_varint_multi(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let tail = &buf[(*pos).min(buf.len())..];
    if tail.len() >= 10 {
        let w: [u8; 10] = tail[..10].try_into().expect("length checked");
        let mut v = (w[0] & 0x7f) as u64;
        macro_rules! step {
            ($i:literal) => {
                v |= ((w[$i] & 0x7f) as u64) << (7 * $i);
                if w[$i] & 0x80 == 0 {
                    *pos += $i + 1;
                    return Ok(v);
                }
            };
        }
        if w[0] & 0x80 == 0 {
            *pos += 1;
            return Ok(v);
        }
        step!(1);
        step!(2);
        step!(3);
        step!(4);
        step!(5);
        step!(6);
        step!(7);
        step!(8);
        step!(9);
        return Err(DsiError::corrupt("varint overflow"));
    }
    read_varint_scalar(buf, pos)
}

/// The scalar reference decoder: byte-at-a-time with per-byte bounds and
/// overflow checks. The chunked paths above must match it bit-for-bit
/// (property-tested in `tests/props.rs`).
pub fn read_varint_scalar(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| DsiError::corrupt("truncated varint"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(DsiError::corrupt("varint overflow"));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Decodes `n` consecutive varints into `out`, a little-endian word at a
/// time where possible. When the next 8 bytes are all single-byte varints
/// (no continuation bit anywhere in the word) all 8 decode in one step —
/// the common case for dictionary indexes, lengths, and small ids. When
/// all 8 continue, the varint is the 9- or 10-byte encoding of a value of
/// 57 bits or more — a hashed 64-bit id — and its low 56 bits are the word
/// with the continuation bits squeezed out; the last one or two bytes are
/// folded in without a branch on which it is, since for hashed ids that is
/// a coin flip. Everything else, and the last bytes of the buffer, go
/// through [`read_varint`].
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] on truncated or over-long input.
pub fn read_varints_into(buf: &[u8], pos: &mut usize, n: usize, out: &mut Vec<u64>) -> Result<()> {
    /// Bit 7 of every byte: the continuation bits.
    const CONTINUES: u64 = 0x8080_8080_8080_8080;
    out.reserve(n);
    let mut remaining = n;
    while remaining > 0 {
        // A 10-byte window holds the longest varint.
        if let Some(window) = buf.get(*pos..*pos + 10) {
            let word = u64::from_le_bytes(window[..8].try_into().expect("8 of 10 bytes"));
            if remaining >= 8 && word & CONTINUES == 0 {
                for k in 0..8 {
                    out.push((word >> (8 * k)) & 0x7f);
                }
                *pos += 8;
                remaining -= 8;
                continue;
            }
            if word & CONTINUES == CONTINUES {
                let (ninth, tenth) = (window[8] as u64, window[9] as u64);
                // 1 when the tenth byte belongs to this varint, else 0.
                let long = ninth >> 7;
                if long & (tenth >> 7) != 0 {
                    return Err(DsiError::corrupt("varint overflow"));
                }
                out.push(
                    squeeze_continuation_bits(word)
                        | (ninth & 0x7f) << 56
                        | (long * (tenth & 0x7f)) << 63,
                );
                *pos += 9 + long as usize;
                remaining -= 1;
                continue;
            }
        }
        out.push(read_varint(buf, pos)?);
        remaining -= 1;
    }
    Ok(())
}

/// The 56 payload bits of eight LEB128 bytes held in a little-endian word:
/// drops bit 7 of every byte and closes the gaps, pairing 7-bit groups
/// into 14, 28 and then 56 bits.
#[inline]
fn squeeze_continuation_bits(word: u64) -> u64 {
    let x = word & 0x7f7f_7f7f_7f7f_7f7f;
    let x = ((x & 0x7f00_7f00_7f00_7f00) >> 1) | (x & 0x007f_007f_007f_007f);
    let x = ((x & 0x3fff_0000_3fff_0000) >> 2) | (x & 0x0000_3fff_0000_3fff);
    ((x & 0x0fff_ffff_0000_0000) >> 4) | (x & 0x0000_0000_0fff_ffff)
}

/// Bulk varint writer: encodes `values` into a stack slab flushed with one
/// `extend_from_slice` per window instead of one `Vec::push` per byte.
/// Eight consecutive values that are all single-byte (the common case for
/// dictionary indexes, CSR offsets deltas, and small hashed ids) store as
/// a straight 8-byte copy. Byte-for-byte identical to repeated
/// [`write_varint`] (property-tested in `tests/props.rs`).
pub fn write_varints(out: &mut Vec<u8>, values: &[u64]) {
    // A varint is at most 10 bytes; keep a whole worst-case chunk of slack
    // so the inner loops never bounds-check the slab.
    let mut slab = [0u8; 256];
    let mut fill = 0usize;
    out.reserve(values.len());
    for chunk in values.chunks(8) {
        if fill + 80 > slab.len() {
            out.extend_from_slice(&slab[..fill]);
            fill = 0;
        }
        if chunk.len() == 8 && chunk.iter().all(|&v| v < 0x80) {
            for (cell, &v) in slab[fill..fill + 8].iter_mut().zip(chunk) {
                *cell = v as u8;
            }
            fill += 8;
            continue;
        }
        for &v in chunk {
            let mut v = v;
            loop {
                let byte = (v & 0x7f) as u8;
                v >>= 7;
                if v == 0 {
                    slab[fill] = byte;
                    fill += 1;
                    break;
                }
                slab[fill] = byte | 0x80;
                fill += 1;
            }
        }
    }
    out.extend_from_slice(&slab[..fill]);
}

/// Zigzag-encodes a signed value so small magnitudes become small varints.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Run-length encodes a u64 slice as `(run_len, value)` varint pairs,
/// falling back to literal runs for non-repeating data.
///
/// Layout per group: a varint header `h`. If `h & 1 == 0`, a repeat run of
/// `h >> 1` copies of the next varint value; else a literal run of `h >> 1`
/// varint values.
pub fn rle_encode(values: &[u64]) -> Vec<u8> {
    // Worst case is one all-literal run: a header plus up to 10 varint
    // bytes per value. Reserving `values.len()` (the old hint) forced
    // repeated reallocation on literal-heavy columns.
    let mut out = Vec::with_capacity(16 + values.len().saturating_mul(10));
    let mut i = 0;
    while i < values.len() {
        // Count the repeat run at i.
        let mut run = 1;
        while i + run < values.len() && values[i + run] == values[i] {
            run += 1;
        }
        if run >= 3 {
            write_varint(&mut out, (run as u64) << 1);
            write_varint(&mut out, values[i]);
            i += run;
        } else {
            // Gather a literal run until the next repeat run of >= 3.
            let start = i;
            i += run;
            while i < values.len() {
                let mut r = 1;
                while i + r < values.len() && values[i + r] == values[i] {
                    r += 1;
                }
                if r >= 3 {
                    break;
                }
                i += r;
            }
            let lit = &values[start..i];
            write_varint(&mut out, ((lit.len() as u64) << 1) | 1);
            for &v in lit {
                write_varint(&mut out, v);
            }
        }
    }
    out
}

/// Default decoded-length cap for [`rle_decode`] — far above any stripe's
/// row count, guards only against corrupt headers requesting absurd
/// expansions. Callers that know the expected count should use
/// [`rle_decode_capped`] with a tight bound.
pub const RLE_DEFAULT_MAX_VALUES: usize = 1 << 26;

/// Decodes a buffer produced by [`rle_encode`] with the default length cap.
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] on malformed input.
pub fn rle_decode(buf: &[u8]) -> Result<Vec<u64>> {
    rle_decode_capped(buf, RLE_DEFAULT_MAX_VALUES)
}

/// Decodes a buffer produced by [`rle_encode`], rejecting any run header
/// whose decoded length would push the output past `max_values` *before*
/// allocating — a 12-byte adversarial buffer cannot force a multi-hundred-
/// megabyte reservation. Repeat runs extend via `resize` (one fill, no
/// per-element pushes); literal runs bulk-decode through
/// [`read_varints_into`].
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] on malformed input or when the decoded
/// length would exceed `max_values`.
pub fn rle_decode_capped(buf: &[u8], max_values: usize) -> Result<Vec<u64>> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < buf.len() {
        let header = read_varint(buf, &mut pos)?;
        let count = (header >> 1) as usize;
        if out.len().saturating_add(count) > max_values {
            return Err(DsiError::corrupt("rle output too long"));
        }
        if header & 1 == 0 {
            let value = read_varint(buf, &mut pos)?;
            out.resize(out.len() + count, value);
        } else {
            // Each literal varint is at least one byte, so a literal header
            // larger than the remaining buffer is corrupt — reject before
            // reserving.
            if count > buf.len() - pos {
                return Err(DsiError::corrupt("rle literal run exceeds buffer"));
            }
            read_varints_into(buf, &mut pos, count, &mut out)?;
        }
    }
    Ok(out)
}

/// Appends little-endian `f32`s.
pub fn write_f32s(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(4 * values.len());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes a buffer of little-endian `f32`s.
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] if the buffer length is not a multiple of 4.
pub fn read_f32s(buf: &[u8]) -> Result<Vec<f32>> {
    if !buf.len().is_multiple_of(4) {
        return Err(DsiError::corrupt("f32 stream length not multiple of 4"));
    }
    Ok(buf
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Encodes `f32`s as varint XOR deltas: each value's bits are XORed with
/// the previous value's (first against zero). Repeated values (labels,
/// constant columns) collapse to one byte; slowly-varying columns keep
/// their shared sign/exponent bits out of the stream.
pub fn write_f32s_xor(out: &mut Vec<u8>, values: &[f32]) {
    write_varint(out, values.len() as u64);
    let mut prev = 0u32;
    for v in values {
        let bits = v.to_bits();
        write_varint(out, (bits ^ prev) as u64);
        prev = bits;
    }
}

/// Decodes a buffer produced by [`write_f32s_xor`].
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] on truncated or malformed input.
pub fn read_f32s_xor(buf: &[u8]) -> Result<Vec<f32>> {
    let mut pos = 0;
    let n = read_varint(buf, &mut pos)?;
    // A delta is at least one byte, so the bytes left bound the count — and
    // with it what a corrupt header can make this reserve.
    if n > (buf.len() - pos) as u64 {
        return Err(DsiError::corrupt("f32 xor count exceeds buffer"));
    }
    let mut out = Vec::with_capacity(n as usize);
    let mut prev = 0u32;
    for _ in 0..n {
        let delta = read_varint(buf, &mut pos)?;
        if delta > u32::MAX as u64 {
            return Err(DsiError::corrupt("f32 xor delta out of range"));
        }
        prev ^= delta as u32;
        out.push(f32::from_bits(prev));
    }
    if pos != buf.len() {
        return Err(DsiError::corrupt("trailing bytes in f32 xor stream"));
    }
    Ok(out)
}

/// Packs a boolean presence vector into bits (LSB-first within each byte).
pub fn write_bitmap(out: &mut Vec<u8>, bits: &[bool]) {
    write_varint(out, bits.len() as u64);
    let mut byte = 0u8;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !bits.is_empty() && !bits.len().is_multiple_of(8) {
        out.push(byte);
    }
}

/// A presence bitmap kept packed the way [`write_bitmap`] stores it, 64
/// rows to a little-endian word: bit `i` is bit `i % 64` of word `i / 64`,
/// and the bits past `len` are zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bits, 64 to a word.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The indexes of the set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(at, &word)| word_ones(word).map(move |bit| at * 64 + bit))
    }
}

/// The positions of the set bits of `word`, ascending.
pub fn word_ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// Decodes a whole buffer produced by [`write_bitmap`], leaving it packed.
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] unless the buffer is exactly the bit
/// count and the bytes that many bits take.
pub fn read_bitmap(buf: &[u8]) -> Result<Bitmap> {
    let mut pos = 0;
    let len = usize::try_from(read_varint(buf, &mut pos)?)
        .map_err(|_| DsiError::corrupt("bitmap too long"))?;
    let bytes = &buf[pos..];
    if bytes.len() != len.div_ceil(8) {
        return Err(DsiError::corrupt(
            "bitmap length disagrees with its bit count",
        ));
    }
    let mut words: Vec<u64> = bytes
        .chunks(8)
        .map(|chunk| {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(word)
        })
        .collect();
    // A hostile tail must not count as rows.
    if let Some(last) = words.last_mut().filter(|_| len % 64 != 0) {
        *last &= (1 << (len % 64)) - 1;
    }
    Ok(Bitmap { words, len })
}

/// A growable little-endian binary writer for footers and metadata.
#[derive(Debug, Default, Clone)]
pub struct MetaWriter {
    buf: Vec<u8>,
}

impl MetaWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a varint.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        write_varint(&mut self.buf, v);
        self
    }

    /// Appends a length-prefixed byte slice.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        write_varint(&mut self.buf, b.len() as u64);
        self.buf.extend_from_slice(b);
        self
    }

    /// Appends a little-endian `f64`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor-style reader matching [`MetaWriter`].
#[derive(Debug)]
pub struct MetaReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> MetaReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Reads a varint.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::Corrupt`] on truncation.
    pub fn u64(&mut self) -> Result<u64> {
        read_varint(self.buf, &mut self.pos)
    }

    /// Reads a length-prefixed byte slice.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::Corrupt`] on truncation.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(DsiError::corrupt("truncated bytes field"));
        }
        let s = &self.buf[self.pos..self.pos + n as usize];
        self.pos += n as usize;
        Ok(s)
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::Corrupt`] on truncation.
    pub fn f64(&mut self) -> Result<f64> {
        if self.pos + 8 > self.buf.len() {
            return Err(DsiError::corrupt("truncated f64 field"));
        }
        let mut a = [0u8; 8];
        a.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_le_bytes(a))
    }

    /// Bytes not yet consumed: a bound on how many more fields a declared
    /// count can really hold, since every field takes at least one byte.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Whether the cursor has consumed the whole buffer.
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncation_errors() {
        let buf = [0x80u8, 0x80]; // never-terminated varint
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos).is_err());
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [-5i64, -1, 0, 1, 5, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn rle_round_trip_mixed() {
        let values = vec![7, 7, 7, 7, 1, 2, 3, 9, 9, 9, 4];
        let enc = rle_encode(&values);
        assert_eq!(rle_decode(&enc).unwrap(), values);
        // The run of 7s compresses well versus literals.
        let runs = rle_encode(&vec![5u64; 1000]);
        assert!(runs.len() < 10);
    }

    #[test]
    fn rle_long_repeat_runs_decode() {
        // A constant column over a large stripe is one tiny repeat run —
        // regression test for a guard that rejected it as corrupt.
        for n in [1024usize, 100_000] {
            let values = vec![7u64; n];
            let enc = rle_encode(&values);
            assert!(enc.len() < 8);
            assert_eq!(rle_decode(&enc).unwrap(), values);
        }
    }

    #[test]
    fn rle_rejects_absurd_runs() {
        let mut buf = Vec::new();
        write_varint(&mut buf, (1u64 << 60) << 1); // repeat run of 2^60
        write_varint(&mut buf, 1);
        assert!(rle_decode(&buf).is_err());
    }

    #[test]
    fn rle_empty_and_singleton() {
        assert!(rle_decode(&rle_encode(&[])).unwrap().is_empty());
        assert_eq!(rle_decode(&rle_encode(&[42])).unwrap(), vec![42]);
    }

    #[test]
    fn f32_round_trip() {
        let vals = vec![0.0f32, -1.5, 3.25, f32::MAX];
        let mut buf = Vec::new();
        write_f32s(&mut buf, &vals);
        assert_eq!(read_f32s(&buf).unwrap(), vals);
        assert!(read_f32s(&buf[..3]).is_err());
    }

    #[test]
    fn f32_xor_round_trip_and_compactness() {
        let cases: Vec<Vec<f32>> = vec![
            vec![],
            vec![0.0],
            vec![1.0; 500], // constant labels
            (0..100).map(|i| i as f32 * 0.01).collect(),
            vec![f32::MAX, f32::MIN, 0.0, -0.0, 1e-38],
        ];
        for vals in cases {
            let mut buf = Vec::new();
            write_f32s_xor(&mut buf, &vals);
            let got = read_f32s_xor(&buf).unwrap();
            assert_eq!(got.len(), vals.len());
            for (a, b) in got.iter().zip(&vals) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Constant streams collapse: 500 repeats ≈ 2 + 5 + 499 bytes vs 2000 raw.
        let mut buf = Vec::new();
        write_f32s_xor(&mut buf, &vec![1.0f32; 500]);
        assert!(buf.len() < 520, "xor labels stream {} bytes", buf.len());
    }

    #[test]
    fn f32_xor_rejects_corruption() {
        assert!(read_f32s_xor(&[0x80]).is_err()); // truncated varint
        let mut buf = Vec::new();
        write_f32s_xor(&mut buf, &[1.0]);
        buf.push(0); // trailing byte
        assert!(read_f32s_xor(&buf).is_err());
    }

    #[test]
    fn bitmap_round_trip() {
        for n in [0usize, 1, 7, 8, 9, 64, 100] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut buf = Vec::new();
            write_bitmap(&mut buf, &bits);
            let packed = read_bitmap(&buf).unwrap();
            assert_eq!(packed.len(), n);
            assert_eq!(packed.words().len(), n.div_ceil(64));
            assert_eq!(packed.count_ones(), n.div_ceil(3));
            let ones: Vec<usize> = (0..n).filter(|i| i % 3 == 0).collect();
            assert_eq!(packed.ones().collect::<Vec<_>>(), ones);
            // Truncated, and with a byte the bit count does not cover.
            assert!(n == 0 || read_bitmap(&buf[..buf.len() - 1]).is_err());
            buf.push(0);
            assert!(read_bitmap(&buf).is_err());
        }
    }

    #[test]
    fn bitmap_ignores_bits_past_its_length() {
        let mut buf = Vec::new();
        write_bitmap(&mut buf, &[true, false, true]);
        *buf.last_mut().unwrap() |= 0xf8;
        let packed = read_bitmap(&buf).unwrap();
        assert_eq!(packed.count_ones(), 2);
        assert_eq!(packed.ones().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn f32_xor_count_is_capped_by_the_bytes_left() {
        // Five bytes declaring 2^26 values used to reserve 256 MiB.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1 << 26);
        buf.push(0);
        assert!(matches!(read_f32s_xor(&buf), Err(DsiError::Corrupt(_))));
    }

    #[test]
    fn meta_round_trip() {
        let mut w = MetaWriter::new();
        w.u64(7).bytes(b"hello").f64(2.5).u64(u64::MAX);
        let buf = w.into_bytes();
        let mut r = MetaReader::new(&buf);
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.f64().unwrap(), 2.5);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert!(r.is_exhausted());
    }
}
