//! An LZ77-style block compressor for DWRF streams.
//!
//! Streams are compressed before encryption. The codec favors encode speed
//! over ratio (storage bytes in the paper's tables are "compressed sizes",
//! and extraction cost includes decompression, so the work must be real).
//!
//! Format: a 1-byte mode tag (`0` = stored, `1` = LZ), then for LZ blocks a
//! varint uncompressed length followed by a token stream. Each token is a
//! control byte: `0x00..=0x7f` means a literal run of `ctl + 1` bytes;
//! `0x80..=0xff` means a match of length `(ctl & 0x7f) + MIN_MATCH` at a
//! varint back-distance.

use crate::encoding::{read_varint, write_varint};
use dsi_types::{DsiError, Result};
use std::cell::RefCell;

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 0x7f + MIN_MATCH;
const HASH_BITS: u32 = 15;

#[inline]
fn hash_word(v: u32) -> usize {
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn word_at(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().expect("4-byte window"))
}

/// The match finder's hash table, one per thread and reused by every call.
///
/// A slot holds `stamp << 32 | word`: the stamp `base + position + 1` for
/// the call that wrote it, and the four bytes at that position, so a probe
/// compares words without reading the candidate's bytes. Each call takes a
/// `base` at or above everything earlier calls stored, so a slot whose
/// stamp is at or below `base` reads as empty and no call clears or
/// allocates the table. Only when `base + input.len()` would leave `u32` is
/// the table zeroed and `base` restarted from 0 — once per 4 GiB compressed.
struct MatchTable {
    slots: Box<[u64; 1 << HASH_BITS]>,
    /// The next call's `base`.
    next_base: u32,
}

thread_local! {
    static TABLE: RefCell<MatchTable> = RefCell::new(MatchTable {
        slots: Box::new([0; 1 << HASH_BITS]),
        next_base: 0,
    });
}

impl MatchTable {
    /// Starts a call over `len` input bytes and returns its `base`.
    fn begin(&mut self, len: u32) -> u32 {
        let base = match self.next_base.checked_add(len) {
            Some(_) => self.next_base,
            None => {
                self.slots.fill(0);
                0
            }
        };
        self.next_base = base + len;
        base
    }
}

/// Compresses `input`, returning the encoded block.
///
/// Falls back to a stored block when compression does not help.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    compress_into(input, &mut out);
    out
}

/// Appends the block [`compress`] would return to `out`, leaving the bytes
/// already there untouched, so a frame or file can be built in place.
///
/// Inputs of 4 GiB or more are stored: match positions are `u32`.
pub fn compress_into(input: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    let lz_len = u32::try_from(input.len())
        .ok()
        .filter(|_| input.len() >= MIN_MATCH * 2);
    if let Some(len) = lz_len {
        TABLE.with(|table| {
            let table = &mut *table.borrow_mut();
            let base = table.begin(len);
            lz_block(input, &mut table.slots, base, out);
        });
        if out.len() - start <= input.len() {
            return;
        }
        out.truncate(start);
    }
    out.push(0u8);
    out.extend_from_slice(input);
}

/// The LZ parse. The hash, the single-candidate rule, `MIN_MATCH`/`MAX_MATCH`
/// and the every-other-byte indexing inside a match are
/// [`compress_scalar`]'s, so the tokens are too; only the table (which
/// carries each position's word) and the width of the loads differ.
fn lz_block(input: &[u8], slots: &mut [u64; 1 << HASH_BITS], base: u32, out: &mut Vec<u8>) {
    out.push(1u8);
    write_varint(out, input.len() as u64);
    // Positions fit `u32` (checked by the caller) and `base + input.len()`
    // does not overflow (`MatchTable::begin`).
    let entry = |pos: usize, word: u32| u64::from(base + pos as u32 + 1) << 32 | u64::from(word);
    let mut i = 0;
    let mut literal_start = 0;
    while i + MIN_MATCH <= input.len() {
        let word = word_at(input, i);
        let slot = &mut slots[hash_word(word)];
        let seen = *slot;
        *slot = entry(i, word);
        // Every live slot was stamped at a position before `i`, with the
        // word the input still holds there.
        let seen_pos = (seen >> 32) as u32;
        match (seen_pos > base && seen as u32 == word).then(|| (seen_pos - base - 1) as usize) {
            Some(candidate) => {
                let limit = MAX_MATCH.min(input.len() - i);
                let len = MIN_MATCH
                    + common_prefix(
                        &input[candidate + MIN_MATCH..candidate + limit],
                        &input[i + MIN_MATCH..i + limit],
                    );
                flush_literals(out, &input[literal_start..i]);
                out.push(0x80 | (len - MIN_MATCH) as u8);
                write_varint(out, (i - candidate) as u64);
                // Index a few positions inside the match to keep the table warm.
                let end = i + len;
                let mut j = i + 1;
                while j + MIN_MATCH <= input.len() && j < end {
                    let word = word_at(input, j);
                    slots[hash_word(word)] = entry(j, word);
                    j += 2;
                }
                i = end;
                literal_start = i;
            }
            None => i += 1,
        }
    }
    flush_literals(out, &input[literal_start..]);
}

/// Length of the common prefix of two equally long slices, eight bytes a
/// step: the first differing byte is the lowest set bit of the XOR.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + a[n..]
        .iter()
        .zip(&b[n..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// The reference compressor: a fresh table per call, byte-wise compares.
/// [`compress`] must produce exactly these bytes; property tests and
/// benches compare against it and nothing else calls it.
pub fn compress_scalar(input: &[u8]) -> Vec<u8> {
    fn hash4(data: &[u8]) -> usize {
        hash_word(u32::from_le_bytes([data[0], data[1], data[2], data[3]]))
    }
    fn stored_block(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() + 1);
        out.push(0u8);
        out.extend_from_slice(input);
        out
    }
    if input.len() < MIN_MATCH * 2 {
        return stored_block(input);
    }
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.push(1u8);
    write_varint(&mut out, input.len() as u64);

    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut i = 0;
    let mut literal_start = 0;
    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..]);
        let candidate = table[h];
        table[h] = i;
        if candidate != usize::MAX
            && candidate < i
            && input[candidate..candidate + MIN_MATCH] == input[i..i + MIN_MATCH]
        {
            // Extend the match.
            let mut len = MIN_MATCH;
            while i + len < input.len()
                && len < MAX_MATCH
                && input[candidate + len] == input[i + len]
            {
                len += 1;
            }
            flush_literals(&mut out, &input[literal_start..i]);
            let dist = i - candidate;
            out.push(0x80 | (len - MIN_MATCH) as u8);
            write_varint(&mut out, dist as u64);
            let end = i + len;
            let mut j = i + 1;
            while j + MIN_MATCH <= input.len() && j < end {
                table[hash4(&input[j..])] = j;
                j += 2;
            }
            i = end;
            literal_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, &input[literal_start..]);

    if out.len() > input.len() {
        stored_block(input)
    } else {
        out
    }
}

fn flush_literals(out: &mut Vec<u8>, mut lits: &[u8]) {
    while !lits.is_empty() {
        let n = lits.len().min(0x80);
        out.push((n - 1) as u8);
        out.extend_from_slice(&lits[..n]);
        lits = &lits[n..];
    }
}

/// If `block` is a stored (uncompressed) block, returns the byte range of
/// its payload within `block`. Zero-copy readers slice this range out of
/// the shared stripe buffer instead of decompressing into fresh scratch.
pub fn stored_payload_range(block: &[u8]) -> Option<std::ops::Range<usize>> {
    (block.first() == Some(&0)).then_some(1..block.len())
}

/// Decompresses a block produced by [`compress`].
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] on malformed input.
pub fn decompress(block: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    decompress_into(block, &mut out)?;
    Ok(out)
}

/// Width of the fixed copy the inflate uses for short runs and matches.
const COPY: usize = 16;

/// Decompresses a block produced by [`compress`] into `out` (whatever it
/// held is replaced), so the caller owns the output allocation.
///
/// `out` is sized to the declared length once and written by index. A
/// literal run or a match that does not reach into its own output, of at
/// most `COPY` (16) bytes, is copied as one fixed-width block when both
/// the block and the output have `COPY` bytes left: the bytes past the
/// token's own are overwritten by the tokens that follow, and a block
/// whose tokens stop short of the declared length is rejected, so none of
/// them survive into an `Ok`.
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] on malformed input, including a declared
/// length the block's tokens cannot produce — checked before any memory is
/// reserved for it — or do not produce exactly.
pub fn decompress_into(block: &[u8], out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    let (&mode, rest) = block
        .split_first()
        .ok_or_else(|| DsiError::corrupt("empty compressed block"))?;
    match mode {
        0 => {
            out.extend_from_slice(rest);
            Ok(())
        }
        1 => {
            let mut pos = 0;
            let declared = read_varint(rest, &mut pos)?;
            // A token byte yields at most MAX_MATCH output bytes.
            let expect = usize::try_from(declared)
                .ok()
                .filter(|&n| n <= rest.len().saturating_mul(MAX_MATCH))
                .ok_or_else(|| {
                    DsiError::corrupt("declared length exceeds what the block can hold")
                })?;
            out.resize(expect, 0);
            let overrun = || DsiError::corrupt(format!("block decompresses past {expect} bytes"));
            // Bytes of `out` produced so far.
            let mut at = 0;
            while pos < rest.len() {
                let ctl = rest[pos];
                pos += 1;
                if ctl & 0x80 == 0 {
                    let n = ctl as usize + 1;
                    if n > rest.len() - pos {
                        return Err(DsiError::corrupt("truncated literal run"));
                    }
                    if n > expect - at {
                        return Err(overrun());
                    }
                    if n <= COPY && rest.len() - pos >= COPY && expect - at >= COPY {
                        out[at..at + COPY].copy_from_slice(&rest[pos..pos + COPY]);
                    } else {
                        out[at..at + n].copy_from_slice(&rest[pos..pos + n]);
                    }
                    pos += n;
                    at += n;
                } else {
                    let len = (ctl & 0x7f) as usize + MIN_MATCH;
                    let dist = read_varint(rest, &mut pos)?;
                    if dist == 0 || dist > at as u64 {
                        return Err(DsiError::corrupt("match distance out of range"));
                    }
                    if len > expect - at {
                        return Err(overrun());
                    }
                    let dist = dist as usize;
                    let start = at - dist;
                    if dist < len {
                        // The match runs into its own output (a repeating
                        // pattern of period `dist`).
                        for i in at..at + len {
                            out[i] = out[i - dist];
                        }
                    } else if len <= COPY && expect - at >= COPY {
                        let chunk: [u8; COPY] =
                            out[start..start + COPY].try_into().expect("COPY bytes");
                        out[at..at + COPY].copy_from_slice(&chunk);
                    } else {
                        out.copy_within(start..start + len, at);
                    }
                    at += len;
                }
            }
            if at != expect {
                return Err(DsiError::corrupt(format!(
                    "decompressed {at} bytes, expected {expect}"
                )));
            }
            Ok(())
        }
        _ => Err(DsiError::corrupt("unknown compression mode")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::rng::SplitMix64;

    fn round_trip(data: &[u8]) {
        let enc = compress(data);
        let dec = decompress(&enc).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn empty_and_tiny() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
    }

    #[test]
    fn repetitive_data_compresses() {
        let data: Vec<u8> = b"featurefeaturefeature".repeat(100);
        let enc = compress(&data);
        assert!(
            enc.len() < data.len() / 3,
            "len {} vs {}",
            enc.len(),
            data.len()
        );
        round_trip(&data);
    }

    #[test]
    fn random_data_stored_without_blowup() {
        let mut r = SplitMix64::new(1);
        let data: Vec<u8> = (0..4096).map(|_| r.next_u64() as u8).collect();
        let enc = compress(&data);
        assert!(enc.len() <= data.len() + 1);
        round_trip(&data);
    }

    #[test]
    fn overlapping_match_round_trip() {
        // "abab" repeated produces distance-2 overlapping matches.
        let data = b"ab".repeat(500);
        round_trip(&data);
    }

    #[test]
    fn structured_columnar_like_data() {
        // Simulates varint-heavy columnar content: small ints with runs.
        let mut data = Vec::new();
        for i in 0u32..2000 {
            data.extend_from_slice(&(i % 17).to_le_bytes());
        }
        let enc = compress(&data);
        assert!(enc.len() < data.len());
        round_trip(&data);
    }

    #[test]
    fn stored_payload_range_identifies_stored_blocks() {
        let stored = compress(&[7u8; 4]); // too short to match: stored
        let range = stored_payload_range(&stored).expect("stored block");
        assert_eq!(&stored[range], &[7u8; 4]);
        let lz = compress(&b"featurefeaturefeature".repeat(50));
        assert!(stored_payload_range(&lz).is_none());
        assert!(stored_payload_range(&[]).is_none());
    }

    #[test]
    fn decompress_into_reuses_and_clears_scratch() {
        let data = b"ab".repeat(300);
        let enc = compress(&data);
        let mut scratch = vec![0xee; 17];
        decompress_into(&enc, &mut scratch).unwrap();
        assert_eq!(scratch, data);
    }

    #[test]
    fn matches_the_scalar_reference_across_a_table_wrap() {
        let mut r = SplitMix64::new(7);
        let data: Vec<u8> = (0..5000).map(|_| (r.next_u64() % 6) as u8).collect();
        let want = compress_scalar(&data);
        assert_eq!(want[0], 1, "compressible input takes the LZ branch");
        assert_eq!(compress(&data), want);
        // Leave less room than one input: the next call must restart the
        // stamps, and the slots the calls above left behind must not match.
        TABLE.with(|t| t.borrow_mut().next_base = u32::MAX - 100);
        assert_eq!(compress(&data), want);
        assert_eq!(TABLE.with(|t| t.borrow().next_base), data.len() as u32);
        assert_eq!(compress(&data[1..]), compress_scalar(&data[1..]));
    }

    #[test]
    fn colliding_words_match_only_themselves_across_a_table_wrap() {
        // Two different words that share a slot: each overwrites the other,
        // and only the word the slot carries may match.
        let first = 0x0403_0201u32;
        let second = (first + 1..)
            .find(|&w| hash_word(w) == hash_word(first))
            .expect("a colliding word");
        let mut r = SplitMix64::new(11);
        let mut data = Vec::new();
        for k in 0..2000u32 {
            let word = if r.next_u64().is_multiple_of(3) {
                first
            } else {
                second
            };
            data.extend_from_slice(&word.to_le_bytes());
            // A filler byte now and then shifts the next word off the
            // four-byte grid.
            if k.is_multiple_of(5) {
                data.push(r.next_u64() as u8);
            }
        }
        let want = compress_scalar(&data);
        assert_eq!(want[0], 1, "compressible input takes the LZ branch");
        assert_eq!(compress(&data), want);
        TABLE.with(|t| t.borrow_mut().next_base = u32::MAX - 100);
        assert_eq!(compress(&data), want);
        assert_eq!(compress(&data[3..]), compress_scalar(&data[3..]));
    }

    #[test]
    fn compress_into_appends_after_the_prefix() {
        for data in [&b"ab".repeat(300)[..], b"abc", b"incompressible!?"] {
            let mut out = b"header".to_vec();
            compress_into(data, &mut out);
            assert_eq!(&out[..6], b"header");
            assert_eq!(&out[6..], &compress_scalar(data)[..]);
        }
    }

    #[test]
    fn declared_length_is_checked_before_reserving() {
        // Twelve bytes claiming 2^60: used to reserve first and abort.
        let mut bomb = vec![1u8];
        write_varint(&mut bomb, 1 << 60);
        bomb.extend_from_slice(&[0x00, b'x']);
        bomb.resize(12, 0x00);
        assert!(matches!(decompress(&bomb), Err(DsiError::Corrupt(_))));
        // The largest claim the check lets through still fails cleanly.
        let mut tight = vec![1u8];
        write_varint(&mut tight, (3 * MAX_MATCH) as u64);
        tight.extend_from_slice(&[0x00, b'x']);
        assert!(decompress(&tight).is_err());
    }

    #[test]
    fn corrupt_inputs_error() {
        assert!(decompress(&[]).is_err());
        assert!(decompress(&[9, 1, 2]).is_err());
        // LZ block claiming length but with bad match distance.
        let mut bad = vec![1u8];
        write_varint(&mut bad, 8);
        bad.push(0x80); // match of MIN_MATCH at distance...
        write_varint(&mut bad, 99); // ...out of range
        assert!(decompress(&bad).is_err());
    }
}
