//! Binary codec for envelopes crossing the Worker→Client wire.
//!
//! The workspace's serde shim erases `#[derive(Serialize)]` into nothing,
//! so the wire format is hand-rolled on the DWRF varint primitives:
//! varints for counts/ids, delta-encoded varints for CSR offsets (row
//! lengths are single-byte, so the 8-wide bulk kernels apply), and raw
//! little-endian bytes for `f32` runs. The
//! layout is self-describing enough to reject truncation and garbage with
//! a `DsiError::Corrupt` instead of panicking — the transport treats any
//! decode failure as a torn frame and forces a reconnect.

use dsi_types::{
    DenseMatrix, DsiError, FeatureId, MiniBatchTensor, Result, SparseTensor, WorkerId,
};
use dwrf::encoding::{read_varint, read_varints_into, write_varint, write_varints};

/// A tensor in flight from a Worker to a Client, tagged with everything the
/// exactly-once protocol needs: the split it came from, its sequence number
/// within the split, and whether it is the split's final tensor.
///
/// This is the unit of delivery on both the in-process path (bounded
/// channels) and the TCP path (one data frame per envelope); `dpp` aliases
/// its internal `Envelope` to this type so the two transports carry
/// byte-identical cargo.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEnvelope {
    /// Split the tensor was cooked from.
    pub split: u64,
    /// Sequence number of this tensor within the split, starting at 0.
    pub seq: u32,
    /// Whether this is the last tensor of the split (acking it completes
    /// the split at the master).
    pub last: bool,
    /// Worker that produced the tensor.
    pub worker: WorkerId,
    /// Distributed-trace id for the split's trace (0 = not sampled).
    pub trace_id: u64,
    /// Span id of the worker-side span this delivery continues under
    /// (the split's `Load` span); receiver-side spans parent beneath it.
    pub parent_span: u64,
    /// The materialized mini-batch itself.
    pub tensor: MiniBatchTensor,
}

/// Width of the stack staging buffer for bulk little-endian f32 writes:
/// 64 floats fill one 256-byte slab per `extend_from_slice`, so a dense
/// column costs one bulk copy per slab instead of one per element.
const F32_SLAB: usize = 64;

fn write_f32_slab(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(values.len() * 4);
    let mut slab = [0u8; F32_SLAB * 4];
    for chunk in values.chunks(F32_SLAB) {
        for (cell, v) in slab.chunks_exact_mut(4).zip(chunk) {
            cell.copy_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&slab[..chunk.len() * 4]);
    }
}

fn write_f32_seq(out: &mut Vec<u8>, values: &[f32]) {
    write_varint(out, values.len() as u64);
    write_f32_slab(out, values);
}

fn read_f32_seq(buf: &[u8], pos: &mut usize) -> Result<Vec<f32>> {
    let n = read_varint(buf, pos)? as usize;
    let bytes = n
        .checked_mul(4)
        .ok_or_else(|| DsiError::corrupt("f32 sequence length overflow"))?;
    let end = pos
        .checked_add(bytes)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| DsiError::corrupt("f32 sequence truncated"))?;
    let mut out = Vec::with_capacity(n);
    out.extend(
        buf[*pos..end]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
    );
    *pos = end;
    Ok(out)
}

/// Sequence encodings for [`write_u64_seq`]: LEB128 varints, or a fixed
/// 4-byte little-endian slab when every value fits in a `u32`. Hashed ids
/// (the dominant sparse payload) land mid-range after the modulus, where
/// varints average ~3 bytes but decode byte-at-a-time; the u32 slab pays
/// one extra byte per id for a bulk-copy decode.
const SEQ_VARINT: u8 = 0;
const SEQ_U32_SLAB: u8 = 1;

fn write_u64_seq(out: &mut Vec<u8>, values: &[u64]) {
    write_varint(out, values.len() as u64);
    if values.iter().all(|&v| v <= u32::MAX as u64) {
        out.push(SEQ_U32_SLAB);
        out.reserve(values.len() * 4);
        let mut slab = [0u8; F32_SLAB * 4];
        for chunk in values.chunks(F32_SLAB) {
            for (cell, &v) in slab.chunks_exact_mut(4).zip(chunk) {
                cell.copy_from_slice(&(v as u32).to_le_bytes());
            }
            out.extend_from_slice(&slab[..chunk.len() * 4]);
        }
    } else {
        out.push(SEQ_VARINT);
        write_varints(out, values);
    }
}

fn read_u64_seq(buf: &[u8], pos: &mut usize) -> Result<Vec<u64>> {
    let n = read_varint(buf, pos)? as usize;
    if n > buf.len().saturating_sub(*pos) {
        // Each element takes at least one byte; an impossible count means
        // a truncated or corrupt buffer, so bail before allocating.
        return Err(DsiError::corrupt("u64 sequence truncated"));
    }
    match read_u8(buf, pos)? {
        SEQ_VARINT => {
            let mut out = Vec::new();
            read_varints_into(buf, pos, n, &mut out)?;
            Ok(out)
        }
        SEQ_U32_SLAB => {
            let bytes = n
                .checked_mul(4)
                .ok_or_else(|| DsiError::corrupt("u32 slab length overflow"))?;
            let end = pos
                .checked_add(bytes)
                .filter(|&e| e <= buf.len())
                .ok_or_else(|| DsiError::corrupt("u32 slab truncated"))?;
            let mut out = Vec::with_capacity(n);
            out.extend(
                buf[*pos..end]
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")) as u64),
            );
            *pos = end;
            Ok(out)
        }
        other => Err(DsiError::corrupt(format!("bad u64 seq mode {other:#x}"))),
    }
}

/// Serialize an envelope into the wire byte layout.
pub fn encode_envelope(env: &WireEnvelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + env.tensor.payload_bytes());
    encode_envelope_into(env, &mut out);
    out
}

/// [`encode_envelope`] into a caller-supplied buffer (appended), so the
/// transport can serialize straight into its frame buffer without an
/// intermediate allocation.
pub fn encode_envelope_into(env: &WireEnvelope, out: &mut Vec<u8>) {
    out.reserve(64 + env.tensor.payload_bytes());
    write_varint(out, env.split);
    write_varint(out, env.seq as u64);
    out.push(env.last as u8);
    write_varint(out, env.worker.0);
    write_varint(out, env.trace_id);
    write_varint(out, env.parent_span);

    let t = &env.tensor;
    write_varint(out, t.dense.rows() as u64);
    write_varint(out, t.dense.cols() as u64);
    write_f32_slab(out, t.dense.as_slice());
    write_f32_seq(out, &t.labels);

    write_varint(out, t.sparse.len() as u64);
    let mut deltas: Vec<u64> = Vec::new();
    for s in &t.sparse {
        write_varint(out, s.feature().0);
        write_varint(out, s.offsets().len() as u64);
        // CSR offsets go out delta-encoded: each delta is a row length,
        // typically a single-byte varint (post-FirstX rows are short), so
        // the 8-wide bulk varint paths hit on both ends — absolute
        // offsets grow into multi-byte varints that defeat them.
        deltas.clear();
        deltas.reserve(s.offsets().len());
        let mut prev = 0u64;
        for &o in s.offsets() {
            // Monotonicity is a SparseTensor invariant, so this cannot
            // underflow.
            deltas.push(o as u64 - prev);
            prev = o as u64;
        }
        write_varints(out, &deltas);
        write_u64_seq(out, s.values());
        match s.scores() {
            Some(scores) => {
                out.push(1);
                write_f32_seq(out, scores);
            }
            None => out.push(0),
        }
    }
}

fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| DsiError::corrupt("envelope truncated"))?;
    *pos += 1;
    Ok(b)
}

/// Deserialize an envelope from the wire byte layout, reconstructing the
/// tensors bitwise-identically via the validated `from_parts` constructors.
pub fn decode_envelope(buf: &[u8]) -> Result<WireEnvelope> {
    let pos = &mut 0usize;
    let split = read_varint(buf, pos)?;
    let seq = u32::try_from(read_varint(buf, pos)?)
        .map_err(|_| DsiError::corrupt("envelope seq exceeds u32"))?;
    let last = match read_u8(buf, pos)? {
        0 => false,
        1 => true,
        other => {
            return Err(DsiError::corrupt(format!(
                "bad last-tensor flag {other:#x}"
            )))
        }
    };
    let worker = WorkerId(read_varint(buf, pos)?);
    let trace_id = read_varint(buf, pos)?;
    let parent_span = read_varint(buf, pos)?;

    let rows = read_varint(buf, pos)? as usize;
    let cols = read_varint(buf, pos)? as usize;
    let cells = rows
        .checked_mul(cols)
        .ok_or_else(|| DsiError::corrupt("dense shape overflow"))?;
    let end = cells
        .checked_mul(4)
        .and_then(|bytes| pos.checked_add(bytes))
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| DsiError::corrupt("dense matrix truncated"))?;
    let mut data = Vec::with_capacity(cells);
    data.extend(
        buf[*pos..end]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
    );
    *pos = end;
    let dense = DenseMatrix::from_parts(rows, cols, data);
    let labels = read_f32_seq(buf, pos)?;

    let n_sparse = read_varint(buf, pos)? as usize;
    if n_sparse > buf.len().saturating_sub(*pos) {
        return Err(DsiError::corrupt("sparse tensor count truncated"));
    }
    let mut sparse = Vec::with_capacity(n_sparse);
    let mut deltas: Vec<u64> = Vec::new();
    for _ in 0..n_sparse {
        let feature = FeatureId(read_varint(buf, pos)?);
        // Offsets arrive delta-encoded (see `encode_envelope_into`);
        // prefix-summing non-negative deltas makes them monotone by
        // construction, so only the start-at-0 and u32-range checks
        // remain.
        let n_off = read_varint(buf, pos)? as usize;
        if n_off > buf.len().saturating_sub(*pos) {
            return Err(DsiError::corrupt("CSR offsets truncated"));
        }
        deltas.clear();
        read_varints_into(buf, pos, n_off, &mut deltas)?;
        let mut offsets = Vec::with_capacity(n_off);
        let mut acc: u64 = 0;
        for &d in &deltas {
            acc = acc
                .checked_add(d)
                .filter(|&a| a <= u32::MAX as u64)
                .ok_or_else(|| DsiError::corrupt("CSR offset exceeds u32"))?;
            offsets.push(acc as u32);
        }
        let values = read_u64_seq(buf, pos)?;
        let scores = match read_u8(buf, pos)? {
            0 => None,
            1 => Some(read_f32_seq(buf, pos)?),
            other => return Err(DsiError::corrupt(format!("bad scores flag {other:#x}"))),
        };
        // Validate CSR shape here (rather than letting `from_parts`
        // assert) so wire garbage surfaces as an error, not a panic.
        if offsets.is_empty() || offsets[0] != 0 {
            return Err(DsiError::corrupt("CSR offsets must start at 0"));
        }
        if *offsets.last().expect("non-empty") as usize != values.len() {
            return Err(DsiError::corrupt("CSR offsets do not cover values"));
        }
        if let Some(s) = &scores {
            if s.len() != values.len() {
                return Err(DsiError::corrupt("CSR scores misaligned with values"));
            }
        }
        sparse.push(SparseTensor::from_parts(feature, offsets, values, scores));
    }

    if *pos != buf.len() {
        return Err(DsiError::corrupt(format!(
            "envelope has {} trailing bytes",
            buf.len() - *pos
        )));
    }
    if labels.len() != rows {
        return Err(DsiError::corrupt("labels misaligned with dense rows"));
    }
    Ok(WireEnvelope {
        split,
        seq,
        last,
        worker,
        trace_id,
        parent_span,
        tensor: MiniBatchTensor {
            dense,
            sparse,
            labels,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::{Batch, Sample, SparseList};

    fn sample_envelope(seed: u64) -> WireEnvelope {
        let mut batch = Batch::new();
        for i in 0..5u64 {
            let mut s = Sample::new((seed + i) as f32 * 0.5);
            s.set_dense(FeatureId(1), i as f32 * 1.25 + seed as f32);
            s.set_dense(FeatureId(2), -(i as f32));
            if i != 2 {
                s.set_sparse(
                    FeatureId(7),
                    SparseList::from_ids(vec![seed + i, seed + i + 100]),
                );
            }
            if i % 2 == 0 {
                s.set_sparse(
                    FeatureId(9),
                    SparseList::from_scored(vec![i], vec![0.25 * i as f32]),
                );
            }
            batch.push(s);
        }
        let tensor =
            batch.materialize(&[FeatureId(1), FeatureId(2)], &[FeatureId(7), FeatureId(9)]);
        WireEnvelope {
            split: 42 + seed,
            seq: 7,
            last: seed.is_multiple_of(2),
            worker: WorkerId(3),
            trace_id: 0xABCD_EF00 + seed,
            parent_span: 17 + seed,
            tensor,
        }
    }

    #[test]
    fn round_trips_bitwise() {
        for seed in 0..4 {
            let env = sample_envelope(seed);
            let bytes = encode_envelope(&env);
            let back = decode_envelope(&bytes).expect("decode");
            assert_eq!(back, env);
        }
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let env = sample_envelope(1);
        let bytes = encode_envelope(&env);
        for cut in 0..bytes.len() {
            assert!(
                decode_envelope(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let env = sample_envelope(2);
        let mut bytes = encode_envelope(&env);
        bytes.push(0xFF);
        assert!(decode_envelope(&bytes).is_err());
    }

    #[test]
    fn seq_beyond_u32_is_corrupt() {
        let env = sample_envelope(4);
        let bytes = encode_envelope(&env);
        // Rewrite the one-byte seq 7 as 2^32 + 7.
        let mut pos = 0;
        read_varint(&bytes, &mut pos).unwrap();
        assert_eq!(bytes[pos], 7);
        let mut hostile = bytes[..pos].to_vec();
        write_varint(&mut hostile, (1 << 32) + 7);
        hostile.extend_from_slice(&bytes[pos + 1..]);
        assert!(matches!(
            decode_envelope(&hostile),
            Err(DsiError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_flag_bytes_error_not_panic() {
        let env = sample_envelope(3);
        let bytes = encode_envelope(&env);
        // Flip every byte one at a time: decode must never panic, and the
        // result is either an error or a (differently-valued) envelope.
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x5A;
            let _ = decode_envelope(&mutated);
        }
    }
}
