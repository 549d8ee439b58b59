//! Property-based tests on core invariants: DWRF round-trips for arbitrary
//! data, codec round-trips, transform invariants, and planner laws.

use bytes::Bytes;
use dsi::prelude::*;
use dsi::types::FeatureValue;
use dwrf::layout::StreamOrder;
use dwrf::plan::IoPlan;
use dwrf::{cipher::StreamCipher, compress, FileReader};
use proptest::prelude::*;

fn arb_unscored_list() -> impl Strategy<Value = SparseList> {
    proptest::collection::vec(any::<u64>(), 0..20).prop_map(SparseList::from_ids)
}

fn arb_scored_list() -> impl Strategy<Value = SparseList> {
    proptest::collection::vec((any::<u64>(), -1e6f32..1e6f32), 0..20).prop_map(|pairs| {
        let (ids, scores): (Vec<u64>, Vec<f32>) = pairs.into_iter().unzip();
        SparseList::from_scored(ids, scores)
    })
}

/// Samples respecting the schema invariant that scored-ness is a property
/// of the feature column: ids 40..60 are unscored sparse, 60..80 scored.
fn arb_sample() -> impl Strategy<Value = Sample> {
    (
        -1e6f32..1e6f32,
        proptest::collection::btree_map(0u64..40, -1e6f32..1e6f32, 0..10),
        proptest::collection::btree_map(40u64..60, arb_unscored_list(), 0..6),
        proptest::collection::btree_map(60u64..80, arb_scored_list(), 0..6),
    )
        .prop_map(|(label, dense, unscored, scored)| {
            let mut s = Sample::new(label);
            for (id, v) in dense {
                s.set_dense(FeatureId(id), v);
            }
            for (id, l) in unscored.into_iter().chain(scored) {
                s.set_sparse(FeatureId(id), l);
            }
            s
        })
}

/// Features the random plans and [`arb_hot_sample`] agree to crowd onto, so
/// that a dozen random ops chain, collide and find their inputs present
/// often enough for 64 cases to reach every kernel: two dense columns, one
/// materialized (3) and one not (38); stored sparse columns unscored (44,
/// 45, 59) and scored (60, 75), 75 outside the materialized set; and
/// derived columns materialized (81, 82) or not (88).
const HOT: [u64; 10] = [3, 38, 44, 45, 59, 60, 75, 81, 82, 88];

/// A feature of `range`: two draws in three land on one of [`HOT`].
fn arb_feature(range: std::ops::Range<u64>) -> impl Strategy<Value = FeatureId> {
    let hot: Vec<u64> = HOT.into_iter().filter(|f| range.contains(f)).collect();
    (range, 0..3 * hot.len().max(1)).prop_map(move |(uniform, pick)| {
        let crowded = hot
            .get(pick % hot.len().max(1))
            .filter(|_| pick < 2 * hot.len());
        FeatureId(crowded.copied().unwrap_or(uniform))
    })
}

/// [`arb_sample`] with each stored [`HOT`] feature set in two rows of three.
fn arb_hot_sample() -> impl Strategy<Value = Sample> {
    (
        arb_sample(),
        proptest::collection::vec((0usize..3, -2.0f32..2.0), 2..3),
        proptest::collection::vec((0usize..3, arb_unscored_list()), 3..4),
        proptest::collection::vec((0usize..3, arb_scored_list()), 2..3),
    )
        .prop_map(|(mut s, dense, unscored, scored)| {
            for (&id, (skip, v)) in [3, 38].iter().zip(dense) {
                if skip != 0 {
                    s.set_dense(FeatureId(id), v);
                }
            }
            let stored = [44, 45, 59, 60, 75];
            for (&id, (skip, l)) in stored.iter().zip(unscored.into_iter().chain(scored)) {
                if skip != 0 {
                    s.set_sparse(FeatureId(id), l);
                }
            }
            s
        })
}

/// Where a random generator op writes: the derived range 80..90 three times
/// in four (few hot ids, so outputs collide and chain), else on top of a
/// stored column, unscored (58, 59) or scored (60, 61).
fn arb_output() -> impl Strategy<Value = FeatureId> {
    prop_oneof![
        arb_feature(80..90),
        arb_feature(80..90),
        arb_feature(80..90),
        arb_feature(58..62)
    ]
}

/// Random transform ops over the [`arb_sample`] feature id space: sparse
/// normalization on 40..90 (stored and derived columns alike), dense
/// normalization on 0..40, generation ops deriving into [`arb_output`]
/// from stored columns the test materializes (40..72) or not (72..80) and
/// from earlier generators' outputs (80..90), and sampling (the row-path
/// residue).
fn arb_plan_op() -> impl Strategy<Value = TransformOp> {
    prop_oneof![
        (arb_feature(40..90), any::<u64>(), 1u64..100_000).prop_map(|(input, salt, modulus)| {
            TransformOp::SigridHash {
                input,
                salt,
                modulus,
            }
        }),
        (arb_feature(40..90), 1u64..1_000)
            .prop_map(|(input, modulus)| TransformOp::PositiveModulus { input, modulus }),
        (arb_feature(40..90), 0usize..15).prop_map(|(input, x)| TransformOp::FirstX { input, x }),
        // Twice more, small: where a cap may hoist to is the subtle part.
        (arb_feature(40..90), 0usize..4).prop_map(|(input, x)| TransformOp::FirstX { input, x }),
        (arb_feature(40..90), 0usize..4).prop_map(|(input, x)| TransformOp::FirstX { input, x }),
        (arb_feature(58..90), -2.0f32..2.0, -1.0f32..1.0).prop_map(|(input, scale, offset)| {
            TransformOp::ComputeScore {
                input,
                scale,
                offset,
            }
        }),
        arb_feature(40..90).prop_map(|input| TransformOp::Enumerate { input }),
        // Ids are arbitrary u64s, so an explicit mapping rarely hits: with
        // a default every id survives, without one nearly every id drops —
        // except after a PositiveModulus / Bucketize / Onehot, whose small
        // ids the mapping's keys do reach.
        (
            prop_oneof![arb_feature(58..90), arb_feature(60..80)],
            proptest::collection::btree_map(0u64..8, any::<u64>(), 0..6),
            prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        )
            .prop_map(|(input, mapping, default)| TransformOp::MapId {
                input,
                mapping,
                default,
            }),
        (arb_feature(0..40), -10.0f32..0.0, 0.0f32..10.0)
            .prop_map(|(input, min, max)| TransformOp::Clamp { input, min, max }),
        arb_feature(0..40).prop_map(|input| TransformOp::Logit { input }),
        (arb_feature(0..40), 0.1f64..3.0)
            .prop_map(|(input, lambda)| TransformOp::BoxCox { input, lambda }),
        (arb_feature(0..40), -43_200i32..43_200).prop_map(|(input, tz_offset_secs)| {
            TransformOp::GetLocalHour {
                input,
                tz_offset_secs,
            }
        }),
        (arb_feature(40..90), arb_feature(40..90), arb_output())
            .prop_map(|(a, b, output)| TransformOp::Cartesian { a, b, output }),
        (arb_feature(40..90), arb_feature(40..90), arb_output())
            .prop_map(|(a, b, output)| TransformOp::IdListTransform { a, b, output }),
        (arb_feature(40..90), 1usize..4, arb_output())
            .prop_map(|(input, n, output)| TransformOp::NGram { input, n, output }),
        (arb_feature(0..40), arb_output()).prop_map(|(input, output)| TransformOp::Bucketize {
            input,
            borders: vec![-0.5, 0.0, 0.5],
            output,
        }),
        (arb_feature(0..40), 1u32..6, arb_output()).prop_map(|(input, num_classes, output)| {
            TransformOp::Onehot {
                input,
                num_classes,
                output,
            }
        }),
        (0.3f64..1.0, any::<u64>()).prop_map(|(rate, seed)| TransformOp::Sampling { rate, seed }),
    ]
}

/// Inputs the LZ branch of the block compressor actually runs on (uniform
/// bytes never match): small alphabets, a window repeated with a few bytes
/// changed, and byte runs alternating with literal runs whose lengths
/// straddle `MAX_MATCH` (131) and the 128-byte literal-run limit. Lengths
/// reach 70 k so a call's table positions pass `u16` and consecutive calls
/// on the test thread find the table full of the previous input's stamps.
fn arb_compressible() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (1u8..6, proptest::collection::vec(any::<u8>(), 0..70_000))
            .prop_map(|(alphabet, bytes)| bytes.into_iter().map(|b| b % alphabet).collect()),
        (
            proptest::collection::vec(any::<u8>(), 1..300),
            1usize..230,
            proptest::collection::vec((any::<usize>(), any::<u8>()), 0..8),
        )
            .prop_map(|(window, repeats, edits)| {
                let mut data = window.repeat(repeats);
                for (at, byte) in edits {
                    let at = at % data.len();
                    data[at] = byte;
                }
                data
            }),
        proptest::collection::vec(
            (
                any::<u8>(),
                120usize..140,
                proptest::collection::vec(any::<u8>(), 120..140),
            ),
            0..40,
        )
        .prop_map(|segments| {
            let mut data = Vec::new();
            for (byte, run, literals) in segments {
                data.extend(std::iter::repeat_n(byte, run));
                data.extend(literals);
            }
            data
        }),
        // Literal runs, then a pattern of period 1..=16 repeated (a match
        // that runs into its own output), both with lengths either side of
        // the inflate's 16-byte copy, the 128-byte run and 131-byte match.
        proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 1..17),
                edge_length(),
                edge_length(),
            ),
            0..12,
        )
        .prop_map(|segments| {
            let mut data = Vec::new();
            for (i, (pattern, literals, repeated)) in segments.into_iter().enumerate() {
                // Bytes no earlier window repeats: a literal run.
                data.extend((0..literals).map(|k| (i * 31 + k * 7 + k / 3) as u8));
                data.extend(pattern.iter().cycle().take(pattern.len() + repeated));
            }
            data
        }),
    ]
}

/// Lengths around the inflate kernel's edges: the 16-byte fixed copy, the
/// 128-byte literal-run limit and the 131-byte match limit.
fn edge_length() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..20, 125usize..135]
}

/// One token of an LZ block assembled by hand, so the inflate meets shapes
/// whatever the compressor's parse would have chosen.
#[derive(Debug, Clone)]
enum LzToken {
    Literals(Vec<u8>),
    Match { len: usize, dist: usize },
}

fn arb_lz_token() -> impl Strategy<Value = LzToken> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..20).prop_map(LzToken::Literals),
        proptest::collection::vec(any::<u8>(), 125..129).prop_map(LzToken::Literals),
        // Every overlapping distance, and distances clear of the match.
        (
            prop_oneof![4usize..20, 125usize..132],
            prop_oneof![1usize..17, 17usize..400]
        )
            .prop_map(|(len, dist)| LzToken::Match { len, dist }),
    ]
}

/// The token bytes of `tokens` and the output they stand for, copied a
/// byte at a time. A match reaching before the start is pulled in range.
fn assemble_lz(tokens: &[LzToken]) -> (Vec<u8>, Vec<u8>) {
    let mut bytes = Vec::new();
    let mut output: Vec<u8> = Vec::new();
    for token in tokens {
        match token {
            LzToken::Literals(run) => {
                bytes.push((run.len() - 1) as u8);
                bytes.extend_from_slice(run);
                output.extend_from_slice(run);
            }
            LzToken::Match { .. } if output.is_empty() => {}
            LzToken::Match { len, dist } => {
                let dist = (*dist).min(output.len());
                bytes.push(0x80 | (len - 4) as u8);
                dwrf::encoding::write_varint(&mut bytes, dist as u64);
                for _ in 0..*len {
                    output.push(output[output.len() - dist]);
                }
            }
        }
    }
    (bytes, output)
}

/// An LZ block declaring `declared` output bytes ahead of `tokens`.
fn lz_block(declared: usize, tokens: &[u8]) -> Vec<u8> {
    let mut block = vec![1u8];
    dwrf::encoding::write_varint(&mut block, declared as u64);
    block.extend_from_slice(tokens);
    block
}

/// `decompress` and `decompress_into` (over stale scratch) on one block:
/// the same bytes or both an error.
fn inflate_both_ways(block: &[u8], stale: &[u8]) -> Option<Vec<u8>> {
    let fresh = compress::decompress(block).ok();
    let mut scratch = stale.to_vec();
    let reused = compress::decompress_into(block, &mut scratch)
        .ok()
        .map(|()| scratch);
    assert_eq!(fresh, reused, "decompress and decompress_into disagree");
    fresh
}

/// One step of the [`Sample`]-against-`BTreeMap` model check.
#[derive(Debug, Clone)]
enum SampleOp {
    SetDense(u64, f32),
    SetSparse(u64, SparseList),
    SetFeature(u64, FeatureValue),
    Remove(u64),
    /// `project` keeping ids with `id % modulus != residue`.
    Project(u64, u64),
}

impl SampleOp {
    fn id(&self) -> u64 {
        match self {
            SampleOp::SetDense(id, _)
            | SampleOp::SetSparse(id, _)
            | SampleOp::SetFeature(id, _)
            | SampleOp::Remove(id) => *id,
            SampleOp::Project(_, residue) => *residue,
        }
    }
}

/// Ids come from 0..24, so keys repeat within one sequence.
fn arb_sample_op() -> impl Strategy<Value = SampleOp> {
    let list = || prop_oneof![arb_unscored_list(), arb_scored_list()];
    prop_oneof![
        (0u64..24, -1e6f32..1e6f32).prop_map(|(id, v)| SampleOp::SetDense(id, v)),
        (0u64..24, list()).prop_map(|(id, l)| SampleOp::SetSparse(id, l)),
        (
            0u64..24,
            prop_oneof![
                (-1e6f32..1e6f32).prop_map(FeatureValue::Dense),
                list().prop_map(FeatureValue::Sparse),
            ],
        )
            .prop_map(|(id, v)| SampleOp::SetFeature(id, v)),
        (0u64..24).prop_map(SampleOp::Remove),
        (2u64..5, 0u64..5).prop_map(|(m, r)| SampleOp::Project(m, r % m)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dwrf_round_trips_arbitrary_samples(
        samples in proptest::collection::vec(arb_sample(), 1..60),
        rows_per_stripe in 1usize..40,
        flattened: bool,
        compressed: bool,
        encrypted: bool,
        popular in proptest::collection::vec(0u64..80, 0..12),
    ) {
        let order = if popular.is_empty() {
            StreamOrder::ById
        } else {
            StreamOrder::Popularity(popular.into_iter().map(FeatureId).collect())
        };
        let opts = WriterOptions {
            flattened,
            compressed,
            encrypted,
            rows_per_stripe,
            order,
            ..Default::default()
        };
        let mut w = FileWriter::new(opts);
        for s in &samples {
            w.push(s.clone());
        }
        let file = w.finish().expect("non-empty file");
        let reader = FileReader::open(file.bytes().clone()).expect("valid file");
        let decoded = reader.read_all_unprojected().expect("decodable");
        prop_assert_eq!(&decoded, &samples);
    }

    #[test]
    fn dwrf_projection_is_a_filter(
        samples in proptest::collection::vec(arb_sample(), 1..30),
        keep in proptest::collection::btree_set(0u64..80, 0..20),
    ) {
        let mut w = FileWriter::new(WriterOptions::default());
        for s in &samples {
            w.push(s.clone());
        }
        let file = w.finish().expect("non-empty file");
        let reader = FileReader::open(file.bytes().clone()).expect("valid file");
        let projection = Projection::new(keep.iter().map(|&k| FeatureId(k)).collect());
        let decoded = reader.read_all(&projection).expect("decodable");
        for (orig, got) in samples.iter().zip(&decoded) {
            let mut expect = orig.clone();
            expect.project(|id| projection.contains(id));
            prop_assert_eq!(&expect, got);
        }
    }

    #[test]
    fn compression_round_trips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let enc = compress::compress(&data);
        prop_assert!(enc.len() <= data.len() + 16);
        prop_assert_eq!(compress::decompress(&enc).expect("decompressable"), data);
    }

    #[test]
    fn lz_kernel_is_byte_identical_to_the_scalar_reference(
        data in arb_compressible(),
        prefix in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let want = compress::compress_scalar(&data);
        prop_assert_eq!(&compress::compress(&data), &want);
        let mut out = prefix.clone();
        compress::compress_into(&data, &mut out);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..], "compress_into touched the prefix");
        prop_assert_eq!(&out[prefix.len()..], &want[..]);
        // Whatever the scratch held before is gone.
        prop_assert_eq!(inflate_both_ways(&want, &prefix), Some(data));
    }

    #[test]
    fn inflate_matches_a_bytewise_copy_on_hand_built_blocks(
        tokens in proptest::collection::vec(arb_lz_token(), 0..12),
        stale in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        // A dozen tokens at most, so most blocks end inside the 16-byte
        // window the fixed-width copy needs clear on both sides.
        let (bytes, output) = assemble_lz(&tokens);
        prop_assert_eq!(inflate_both_ways(&lz_block(output.len(), &bytes), &stale), Some(output.clone()));
        // A declared length one long or one short of the tokens' output.
        prop_assert_eq!(inflate_both_ways(&lz_block(output.len() + 1, &bytes), &stale), None);
        if let Some(short) = output.len().checked_sub(1) {
            prop_assert_eq!(inflate_both_ways(&lz_block(short, &bytes), &stale), None);
        }
    }

    #[test]
    fn decompress_survives_hostile_blocks(
        mode in 0u8..3,
        junk in proptest::collection::vec(any::<u8>(), 0..300),
        data in arb_compressible(),
        tokens in proptest::collection::vec(arb_lz_token(), 1..12),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
    ) {
        // Arbitrary bytes behind every mode tag, then a compressed and a
        // hand-built block with a few bits flipped (length header, control
        // bytes and distances included): each call returns, `Ok` or `Err`,
        // without panicking or reserving what the block's own size rules
        // out, the same through `decompress` and `decompress_into`.
        let mut block = vec![mode];
        block.extend(&junk);
        inflate_both_ways(&block, &junk);
        let (bytes, output) = assemble_lz(&tokens);
        for mut block in [compress::compress(&data), lz_block(output.len(), &bytes)] {
            for &(at, bit) in &flips {
                let at = at % block.len();
                block[at] ^= 1 << bit;
            }
            if let Some(out) = inflate_both_ways(&block, &junk) {
                prop_assert!(out.len() <= block.len() * 131);
            }
        }
    }

    #[test]
    fn decode_columns_survives_hostile_streams(
        samples in proptest::collection::vec(arb_sample(), 1..40),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
        target in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 0..4),
    ) {
        use dwrf::stream::{decode_columns, encode_columns};
        use dwrf::StreamKind;
        let rows = samples.len();
        let mut streams: Vec<(FeatureId, StreamKind, Vec<u8>)> = encode_columns(&samples, true)
            .into_iter()
            .flat_map(|(feature, streams)| {
                streams.into_iter().map(move |(kind, raw)| (feature, kind, raw))
            })
            .collect();
        let columns = streams.iter().filter(|s| s.1 == StreamKind::Present).count();
        let decode = |streams: &[(FeatureId, StreamKind, Vec<u8>)]| {
            decode_columns(streams.iter().map(|(f, k, raw)| Ok((*f, *k, raw))), rows)
        };
        prop_assert_eq!(decode(&streams).expect("valid streams").len(), columns);
        // One stream of a valid stripe with a few bits flipped, or (no
        // flips drawn) replaced by arbitrary bytes: `Ok` or `Err`, never a
        // panic, and never room for more than the streams could hold — one
        // length per bitmap bit, one id or value per byte, times the
        // doubling a growing buffer may have left behind. A length, a
        // count or a run header that declares more is refused first.
        let target = target % streams.len().max(1);
        if let Some((_, _, victim)) = streams.get_mut(target) {
            if flips.is_empty() || victim.is_empty() {
                *victim = junk;
            }
            for (at, bit) in flips {
                if !victim.is_empty() {
                    let at = at % victim.len();
                    victim[at] ^= 1 << bit;
                }
            }
        }
        let (mut bitmap_bytes, mut other_bytes) = (0, 0);
        for (_, kind, raw) in &streams {
            match kind {
                StreamKind::Present => bitmap_bytes += raw.len(),
                _ => other_bytes += raw.len(),
            }
        }
        if let Ok(decoded) = decode(&streams) {
            prop_assert!(decoded.reserved_values() <= 2 * (8 * bitmap_bytes + other_bytes));
        }
    }

    #[test]
    fn sample_matches_a_btreemap_model(
        ops in proptest::collection::vec(arb_sample_op(), 0..60),
        arrangement in 0u8..3,
        label in -1e6f32..1e6f32,
    ) {
        use std::collections::BTreeMap;
        let mut ops = ops;
        match arrangement {
            0 => ops.sort_by_key(SampleOp::id),
            1 => ops.sort_by_key(|op| std::cmp::Reverse(op.id())),
            _ => {} // as drawn: shuffled
        }
        let mut sample = Sample::new(label);
        let mut dense: BTreeMap<u64, f32> = BTreeMap::new();
        let mut sparse: BTreeMap<u64, SparseList> = BTreeMap::new();
        for op in ops {
            match op {
                SampleOp::SetDense(id, v) => {
                    sample.set_dense(FeatureId(id), v);
                    dense.insert(id, v);
                }
                SampleOp::SetSparse(id, list) => {
                    sample.set_sparse(FeatureId(id), list.clone());
                    sparse.insert(id, list);
                }
                SampleOp::SetFeature(id, value) => {
                    sample.set_feature(FeatureId(id), value.clone());
                    match value {
                        FeatureValue::Dense(v) => drop(dense.insert(id, v)),
                        FeatureValue::Sparse(list) => drop(sparse.insert(id, list)),
                    }
                }
                SampleOp::Remove(id) => {
                    let want = match dense.remove(&id) {
                        Some(v) => Some(FeatureValue::Dense(v)),
                        None => sparse.remove(&id).map(FeatureValue::Sparse),
                    };
                    prop_assert_eq!(sample.remove(FeatureId(id)), want);
                }
                SampleOp::Project(modulus, residue) => {
                    sample.project(|f| f.0 % modulus != residue);
                    dense.retain(|id, _| id % modulus != residue);
                    sparse.retain(|id, _| id % modulus != residue);
                }
            }
            // Order, lookups, counts and footprint agree after every step.
            prop_assert_eq!(
                sample.dense_iter().collect::<Vec<_>>(),
                dense.iter().map(|(&id, &v)| (FeatureId(id), v)).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                sample.sparse_iter().collect::<Vec<_>>(),
                sparse.iter().map(|(&id, l)| (FeatureId(id), l)).collect::<Vec<_>>()
            );
            for id in 0..24 {
                let f = FeatureId(id);
                prop_assert_eq!(sample.dense(f), dense.get(&id).copied());
                prop_assert_eq!(sample.sparse(f), sparse.get(&id));
                prop_assert_eq!(
                    sample.contains(f),
                    dense.contains_key(&id) || sparse.contains_key(&id)
                );
                let want = match dense.get(&id) {
                    Some(&v) => Some(FeatureValue::Dense(v)),
                    None => sparse.get(&id).cloned().map(FeatureValue::Sparse),
                };
                prop_assert_eq!(sample.feature(f), want);
            }
            prop_assert_eq!(sample.dense_count(), dense.len());
            prop_assert_eq!(sample.sparse_count(), sparse.len());
            prop_assert_eq!(sample.feature_count(), dense.len() + sparse.len());
            let sparse_bytes: usize = sparse.values().map(|l| 8 + l.payload_bytes()).sum();
            prop_assert_eq!(sample.payload_bytes(), dense.len() * 12 + sparse_bytes + 4);
        }
        // Equality is by content, not by the route taken to it.
        let mut rebuilt = Sample::new(label);
        for (&id, &v) in &dense {
            rebuilt.set_dense(FeatureId(id), v);
        }
        for (&id, l) in sparse.iter().rev() {
            rebuilt.set_sparse(FeatureId(id), l.clone());
        }
        prop_assert_eq!(&sample, &rebuilt);
        rebuilt.set_dense(FeatureId(99), 0.0);
        prop_assert!(sample != rebuilt);
    }

    #[test]
    fn cipher_round_trips(key: u64, nonce: u64, data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let c = StreamCipher::new(key);
        let enc = c.encrypt(nonce, &data);
        prop_assert_eq!(c.decrypt(nonce, &enc), data);
    }

    #[test]
    fn io_plan_covers_every_wanted_byte(
        ranges in proptest::collection::vec((0u64..100_000, 1u64..5_000), 1..40),
        window in prop_oneof![Just(None), (0u64..1_000_000).prop_map(Some)],
    ) {
        let policy = match window {
            None => CoalescePolicy::None,
            Some(w) => CoalescePolicy::Window(w),
        };
        let plan = IoPlan::build(ranges.clone(), policy);
        // Every wanted byte is covered by some read.
        for (off, len) in &ranges {
            let covered = plan.reads.iter().any(|r| r.covers(*off, *len))
                // A range may be split across merged reads only if reads
                // are contiguous over it; verify byte-wise on endpoints.
                || {
                    let mut pos = *off;
                    let end = off + len;
                    let mut ok = true;
                    while pos < end {
                        match plan.reads.iter().find(|r| r.offset <= pos && pos < r.end()) {
                            Some(r) => pos = r.end(),
                            None => { ok = false; break; }
                        }
                    }
                    ok
                };
            prop_assert!(covered, "range ({off}, {len}) not covered");
        }
        // Reads are disjoint and sorted.
        for w in plan.reads.windows(2) {
            prop_assert!(w[0].end() <= w[1].offset);
        }
        prop_assert!(plan.read_bytes >= plan.wanted_bytes);
        if matches!(policy, CoalescePolicy::None) {
            prop_assert_eq!(plan.over_read_bytes(), 0);
        }
    }

    #[test]
    fn sigrid_hash_bounds_and_determinism(
        ids in proptest::collection::vec(any::<u64>(), 0..30),
        salt: u64,
        modulus in 1u64..1_000_000,
    ) {
        let op = TransformOp::SigridHash { input: FeatureId(1), salt, modulus };
        let mut a = Sample::new(0.0);
        a.set_sparse(FeatureId(1), SparseList::from_ids(ids.clone()));
        let mut b = a.clone();
        op.apply(&mut a);
        op.apply(&mut b);
        prop_assert_eq!(a.sparse(FeatureId(1)), b.sparse(FeatureId(1)));
        prop_assert!(a.sparse(FeatureId(1)).expect("list present").ids().iter().all(|&i| i < modulus));
        prop_assert_eq!(a.sparse(FeatureId(1)).expect("list present").len(), ids.len());
    }

    #[test]
    fn first_x_never_grows(
        ids in proptest::collection::vec(any::<u64>(), 0..40),
        x in 0usize..50,
    ) {
        let op = TransformOp::FirstX { input: FeatureId(1), x };
        let mut s = Sample::new(0.0);
        s.set_sparse(FeatureId(1), SparseList::from_ids(ids.clone()));
        op.apply(&mut s);
        let got = s.sparse(FeatureId(1)).expect("list present");
        prop_assert_eq!(got.len(), ids.len().min(x));
        prop_assert_eq!(got.ids(), &ids[..ids.len().min(x)]);
    }

    #[test]
    fn positive_modulus_stays_in_range(
        ids in proptest::collection::vec(any::<u64>(), 0..40),
        modulus in 1u64..1_000,
    ) {
        let op = TransformOp::PositiveModulus { input: FeatureId(1), modulus };
        let mut s = Sample::new(0.0);
        s.set_sparse(FeatureId(1), SparseList::from_ids(ids));
        op.apply(&mut s);
        prop_assert!(s.sparse(FeatureId(1)).expect("list present").ids().iter().all(|&i| i < modulus));
    }

    #[test]
    fn clamp_is_idempotent_and_bounded(
        v in -1e9f32..1e9f32,
        (min, max) in (-100f32..0.0, 0f32..100.0),
    ) {
        let op = TransformOp::Clamp { input: FeatureId(1), min, max };
        let mut s = Sample::new(0.0);
        s.set_dense(FeatureId(1), v);
        op.apply(&mut s);
        let once = s.dense(FeatureId(1)).expect("value present");
        prop_assert!((min..=max).contains(&once));
        op.apply(&mut s);
        prop_assert_eq!(s.dense(FeatureId(1)).expect("value present"), once);
    }

    #[test]
    fn dedup_stream_round_trips_sessionized_samples(
        samples in proptest::collection::vec(arb_sample(), 1..40),
        session_len in 1usize..6,
        rows_per_stripe in 1usize..40,
        window in 1usize..80,
    ) {
        // Expand each sample into a session whose members share its sparse
        // payload (session_len == 1 is the degenerate no-duplication case:
        // every row is its own canonical payload and the refs stream is
        // the identity).
        let rows: Vec<Sample> = samples
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                (0..session_len).map(move |m| {
                    let mut member = s.clone();
                    member.set_dense(FeatureId(90), (i * 7 + m) as f32);
                    member
                })
            })
            .collect();
        let mut w = FileWriter::new(WriterOptions {
            dedup: true,
            dedup_window: window,
            rows_per_stripe,
            ..Default::default()
        });
        for s in &rows {
            w.push(s.clone());
        }
        let file = w.finish().expect("non-empty file");
        let reader = FileReader::open(file.bytes().clone()).expect("valid file");
        let decoded = reader.read_all_unprojected().expect("decodable");
        prop_assert_eq!(&decoded, &rows);
        let stats = file.dedup_stats();
        prop_assert_eq!(stats.rows, rows.len() as u64);
        prop_assert!(stats.canonicals <= stats.rows);
        // Dedup is per-stripe: savings are only guaranteed when a whole
        // session (consecutive rows sharing a payload) fits in one stripe.
        // session_len == 1 is the degenerate no-duplication case — nothing
        // to save, but the round trip above must still be exact.
        if session_len > 1 && rows_per_stripe >= session_len {
            prop_assert!(stats.canonicals < stats.rows);
        }
    }

    #[test]
    fn dedup_codec_round_trips_and_saves_exactly(
        samples in proptest::collection::vec(arb_sample(), 1..30),
        window in 1usize..64,
    ) {
        use dwrf::stream::{decode_dedup_sparse, encode_dedup_sparse};
        let (refs, data, stats) = encode_dedup_sparse(&samples, window);
        let decoded = decode_dedup_sparse(&refs, &data, samples.len()).expect("decodable");
        for (row, got) in samples.iter().zip(&decoded) {
            let expect: Vec<(FeatureId, SparseList)> =
                row.sparse_iter().map(|(f, l)| (f, l.clone())).collect();
            prop_assert_eq!(&expect, got);
        }
        prop_assert_eq!(stats.rows, samples.len() as u64);
        prop_assert!(stats.canonicals >= 1);
        prop_assert!(stats.canonicals <= stats.rows);
    }

    #[test]
    fn cluster_sessions_expand_is_lossless(
        samples in proptest::collection::vec(arb_sample(), 0..40),
        session_window in 1usize..8,
        max_set_size in 1usize..12,
    ) {
        let cfg = dedup::DedupConfig {
            session_window,
            max_set_size,
            ..Default::default()
        };
        let (sets, stats) = dedup::cluster_sessions(&samples, &cfg);
        prop_assert_eq!(dedup::expand_sets(&sets), samples.clone());
        prop_assert_eq!(stats.rows, samples.len() as u64);
        prop_assert_eq!(stats.sets, sets.len() as u64);
        for set in &sets {
            prop_assert!(set.len() <= max_set_size);
        }
    }

    #[test]
    fn dictionary_encoding_round_trips_repetitive_ids(
        hot in proptest::collection::vec(0u64..16, 1..8),
        rows in 8usize..80,
    ) {
        // Every row draws from a small hot set: the encoder should pick a
        // dictionary and the round trip must be exact.
        let samples: Vec<Sample> = (0..rows)
            .map(|r| {
                let mut s = Sample::new(r as f32);
                let ids: Vec<u64> = hot.iter().map(|&h| h * 1_000_003).collect();
                s.set_sparse(FeatureId(1), SparseList::from_ids(ids));
                s
            })
            .collect();
        let mut w = FileWriter::new(WriterOptions::default());
        for s in &samples {
            w.push(s.clone());
        }
        let file = w.finish().expect("non-empty");
        let reader = FileReader::open(file.bytes().clone()).expect("valid");
        let decoded = reader.read_all_unprojected().expect("decodable");
        prop_assert_eq!(&decoded, &samples);
    }

    #[test]
    fn columnar_equals_row_path_for_normalization(
        ids in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..12), 1..40),
        salt: u64,
        modulus in 1u64..100_000,
        x in 1usize..10,
        dense_vals in proptest::collection::vec(0.01f32..0.99, 1..40),
    ) {
        use dsi_types::Batch;
        use transforms::ColumnarPlan;
        let n = ids.len().min(dense_vals.len());
        let batch: Batch = (0..n)
            .map(|i| {
                let mut s = Sample::new(0.0);
                s.set_dense(FeatureId(0), dense_vals[i]);
                s.set_sparse(FeatureId(1), SparseList::from_ids(ids[i].clone()));
                s
            })
            .collect();
        let plan = TransformPlan::new(vec![
            TransformOp::SigridHash { input: FeatureId(1), salt, modulus },
            TransformOp::FirstX { input: FeatureId(1), x },
            TransformOp::Logit { input: FeatureId(0) },
        ]);
        let dense_ids = [FeatureId(0)];
        let sparse_ids = [FeatureId(1)];
        let mut row_batch = batch.clone();
        for s in row_batch.samples_mut() {
            plan.apply_sample(s);
        }
        let row = row_batch.materialize(&dense_ids, &sparse_ids);
        let (residue, columnar) = ColumnarPlan::split_plan(&plan);
        prop_assert!(residue.is_empty());
        let ctx = columnar.capture_ctx(batch.samples(), &dense_ids, &sparse_ids);
        let mut col = batch.materialize(&dense_ids, &sparse_ids);
        columnar.apply_with_cost(&mut col, &dense_ids, &ctx, plan.cost_model());
        prop_assert_eq!(row, col);
    }

    #[test]
    fn unrolled_varint_matches_scalar_reference(
        data in proptest::collection::vec(any::<u8>(), 0..32),
        start in 0usize..32,
    ) {
        use dwrf::encoding::{read_varint, read_varint_scalar};
        // Arbitrary bytes from an arbitrary start: exercises truncated,
        // over-long, and boundary-straddling windows (start near the end
        // forces the scalar fallback; start deep inside hits the unrolled
        // 10-byte path).
        let start = start.min(data.len());
        let mut fast_pos = start;
        let mut slow_pos = start;
        let fast = read_varint(&data, &mut fast_pos);
        let slow = read_varint_scalar(&data, &mut slow_pos);
        match (fast, slow) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a, b);
                prop_assert_eq!(fast_pos, slow_pos);
            }
            // Error *messages* may differ (the unrolled path reports
            // overflow where the scalar runs off the buffer first), but
            // Ok-vs-Err must agree on every input.
            (a, b) => prop_assert_eq!(a.is_err(), b.is_err()),
        }
    }

    #[test]
    fn chunked_varint_sequence_matches_scalar_reference(
        values in proptest::collection::vec(
            prop_oneof![0u64..128, any::<u64>()], // single-byte heavy: trigger the 8-wide word path
            0..64,
        ),
        trailing in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        use dwrf::encoding::{read_varint_scalar, read_varints_into, write_varint};
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        buf.extend_from_slice(&trailing); // slack after the sequence must not confuse the word path
        let mut pos = 0;
        let mut chunked = Vec::new();
        read_varints_into(&buf, &mut pos, values.len(), &mut chunked).expect("valid sequence");
        let mut ref_pos = 0;
        let scalar: Vec<u64> = (0..values.len())
            .map(|_| read_varint_scalar(&buf, &mut ref_pos).expect("valid sequence"))
            .collect();
        prop_assert_eq!(&chunked, &scalar);
        prop_assert_eq!(&chunked, &values);
        prop_assert_eq!(pos, ref_pos);
        // Truncation: asking for one more varint than encoded must fail
        // once the slack runs out of decodable bytes.
        if trailing.is_empty() {
            let mut p = 0;
            let mut over = Vec::new();
            prop_assert!(
                read_varints_into(&buf, &mut p, values.len() + 1, &mut over).is_err()
            );
        }
    }

    #[test]
    fn bulk_varint_writer_matches_scalar_reference(
        values in proptest::collection::vec(
            prop_oneof![0u64..128, any::<u64>()], // single-byte heavy: trigger the 8-wide slab path
            0..300, // cross the 256-byte slab flush boundary
        ),
        prefix in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        use dwrf::encoding::{write_varint, write_varints};
        let mut scalar = prefix.clone();
        for &v in &values {
            write_varint(&mut scalar, v);
        }
        let mut bulk = prefix; // appends after existing bytes, like the codec does
        write_varints(&mut bulk, &values);
        prop_assert_eq!(&bulk, &scalar);
    }

    #[test]
    fn rle_decode_matches_reference_and_caps_before_alloc(
        values in proptest::collection::vec(
            prop_oneof![0u64..4, any::<u64>()], // small domain: force repeat runs
            0..120,
        ),
    ) {
        use dwrf::encoding::{read_varint_scalar, rle_decode, rle_decode_capped, rle_encode};
        let buf = rle_encode(&values);
        // Scalar reference decoder: byte-at-a-time varints, per-element pushes.
        let mut reference = Vec::new();
        let mut pos = 0;
        while pos < buf.len() {
            let header = read_varint_scalar(&buf, &mut pos).expect("header");
            let count = (header >> 1) as usize;
            if header & 1 == 0 {
                let v = read_varint_scalar(&buf, &mut pos).expect("value");
                for _ in 0..count {
                    reference.push(v);
                }
            } else {
                for _ in 0..count {
                    reference.push(read_varint_scalar(&buf, &mut pos).expect("literal"));
                }
            }
        }
        prop_assert_eq!(&reference, &values);
        prop_assert_eq!(&rle_decode(&buf).expect("decodable"), &values);
        prop_assert_eq!(&rle_decode_capped(&buf, values.len()).expect("decodable"), &values);
        if !values.is_empty() {
            // A cap below the true count must reject (before allocating).
            prop_assert!(rle_decode_capped(&buf, values.len() - 1).is_err());
        }
        // Truncating the encoded buffer anywhere must never panic.
        for cut in 0..buf.len() {
            let _ = rle_decode_capped(&buf[..cut], values.len());
        }
    }

    #[test]
    fn f32_stream_round_trips_and_rejects_ragged_tails(
        values in proptest::collection::vec(any::<f32>(), 0..80),
    ) {
        use dwrf::encoding::{read_f32s, write_f32s};
        let mut buf = Vec::new();
        write_f32s(&mut buf, &values);
        let decoded = read_f32s(&buf).expect("aligned stream");
        prop_assert_eq!(decoded.len(), values.len());
        // Bitwise comparison (NaN-safe): the chunked reader must preserve
        // every payload exactly, including NaN bit patterns.
        for (a, b) in decoded.iter().zip(&values) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        if !values.is_empty() {
            for ragged in 1..4 {
                prop_assert!(read_f32s(&buf[..buf.len() - ragged]).is_err());
            }
        }
    }

    #[test]
    fn tectonic_read_returns_written_bytes(
        len in 1usize..20_000,
        reads in proptest::collection::vec((0.0f64..1.0, 0u64..700, 1u64..4, 1u64..701), 1..10),
    ) {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let bs = 700u64;
        let cluster = TectonicCluster::new(ClusterConfig {
            nodes: 5,
            block_size: bs,
            replication: 3,
            hdd: true,
        });
        cluster.append("f", Bytes::from(data.clone())).expect("capacity available");
        let (flen, blocks) = (len as u64, (len as u64).div_ceil(bs));
        for (frac, start, span, stop) in reads {
            // A range from `start` into block `first` to `stop` into block
            // `first + span - 1`, both clamped to the file so the partial
            // tail block is read too; within one block the ends may swap.
            let span = span.min(blocks);
            let first = (frac * (blocks - span + 1) as f64) as u64;
            let a = (first * bs + start).min(flen - 1);
            let b = ((first + span - 1) * bs + stop).min(flen);
            let (off, end) = (a.min(b - 1), a.max(b));
            let want = &data[off as usize..end as usize];
            let rlen = end - off;
            let copied = if span == 1 { 0 } else { rlen };

            let before = cluster.total_stats();
            prop_assert_eq!(&cluster.read_uncharged("f", off, rlen).expect("in range")[..], want);
            let chunk = cluster.read_view_uncharged("f", off, rlen).expect("in range");
            prop_assert_eq!(chunk.view.as_slice(), want);
            prop_assert_eq!(chunk.copied_bytes, copied);
            prop_assert_eq!(cluster.total_stats(), before, "uncharged reads charge nothing");

            prop_assert_eq!(&cluster.read("f", off, rlen).expect("in range")[..], want);
            let by_read = cluster.total_stats();
            let chunk = cluster.read_view("f", off, rlen).expect("in range");
            prop_assert_eq!(chunk.view.as_slice(), want);
            prop_assert_eq!(chunk.copied_bytes, copied);
            let by_view = cluster.total_stats();
            prop_assert_eq!(by_read.ios - before.ios, by_view.ios - by_read.ios);
            prop_assert_eq!(by_read.bytes - before.bytes, by_view.bytes - by_read.bytes);
            prop_assert_eq!(by_read.ios - before.ios, span);
        }
    }
}

proptest! {
    // Its own block: cases here are cheap (a few dozen rows through a dozen
    // ops), and it takes a few hundred for the rarer pairings — a FirstX
    // landing on either side of a reader or a MapId of the same column, an
    // intersection longer than the cap it is born with — to come up.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn split_plan_columnar_equals_row_path_over_random_plans(
        samples in proptest::collection::vec(arb_hot_sample(), 1..24),
        ops in proptest::collection::vec(arb_plan_op(), 0..16),
        base_row in 0u64..1_000_000,
    ) {
        use dsi_types::Batch;
        use transforms::ColumnarPlan;
        let plan = TransformPlan::new(ops);
        // Materialize only part of each id space: dense 36..40, stored
        // sparse 72..80 and derived 86..90 stay out of the tensor, so an
        // op that reads one works on a scratch column and an output
        // nothing reads is charged without being computed.
        let dense_ids: Vec<FeatureId> = (0..36).map(FeatureId).collect();
        let sparse_ids: Vec<FeatureId> = (40..72).chain(80..86).map(FeatureId).collect();
        let batch: Batch = samples.into_iter().collect();

        let (full_out, full_cost) = plan.apply_batch(batch.clone(), base_row);
        let row_tensor = full_out.materialize(&dense_ids, &sparse_ids);

        let (residue, columnar) = ColumnarPlan::split_plan(&plan);
        prop_assert!(
            residue.ops().iter().all(|op| matches!(op, TransformOp::Sampling { .. })),
            "only the batch-level filter stays on the row path"
        );
        let (half_out, half_cost) = residue.apply_batch(batch, base_row);
        let ctx = columnar.capture_ctx(half_out.samples(), &dense_ids, &sparse_ids);
        let mut col_tensor = half_out.materialize(&dense_ids, &sparse_ids);
        let applied = columnar.apply_with_cost(
            &mut col_tensor,
            &dense_ids,
            &ctx,
            plan.cost_model(),
        );

        prop_assert_eq!(&row_tensor, &col_tensor, "split execution must be bitwise-equal");
        prop_assert_eq!(
            full_cost.elements,
            half_cost.elements + applied.cost.elements,
            "element accounting must be exact across the split"
        );
        let split_cycles = half_cost.cycles + applied.cost.cycles;
        prop_assert!(
            (full_cost.cycles - split_cycles).abs() <= 1e-6 * full_cost.cycles.max(1.0),
            "cycle accounting must match: {} vs {}",
            full_cost.cycles,
            split_cycles
        );

        // The production path additionally pushes the columnar plan's
        // FirstX caps into materialization (prefix truncation commutes
        // with every columnar kernel): same bitwise result, same exact
        // cost accounting, without ever copying the truncated-away tail.
        let caps = columnar.sparse_caps(&sparse_ids);
        let mut capped_tensor = half_out.materialize_capped(&dense_ids, &sparse_ids, &caps);
        let capped = columnar.apply_with_cost(
            &mut capped_tensor,
            &dense_ids,
            &ctx,
            plan.cost_model(),
        );
        prop_assert_eq!(
            &row_tensor,
            &capped_tensor,
            "capped materialization must stay bitwise-equal"
        );
        prop_assert_eq!(
            applied.cost.elements,
            capped.cost.elements,
            "capped materialization must not change cost accounting"
        );
        prop_assert!(
            (applied.cost.cycles - capped.cost.cycles).abs()
                <= 1e-6 * applied.cost.cycles.max(1.0),
            "capped cycles must match uncapped: {} vs {}",
            applied.cost.cycles,
            capped.cost.cycles
        );
    }
}

/// A DWRF footer whose checksum is valid but whose declared counts its bytes
/// cannot hold, or whose stream ranges overflow `u64` or run into the
/// footer, is `Corrupt` — not a capacity-overflow or add-overflow panic —
/// and so is every truncation of a valid file's tail.
#[test]
fn hostile_dwrf_footers_are_corrupt_not_panics() {
    use dsi_types::DsiError;
    use dwrf::encoding::write_varint;
    use dwrf::stream::checksum64;
    use dwrf::writer::{encode_footer, FileFooter, MAGIC};

    let mut w = FileWriter::new(WriterOptions {
        rows_per_stripe: 8,
        ..Default::default()
    });
    for i in 0..20u64 {
        let mut s = Sample::new(i as f32);
        s.set_dense(FeatureId(1), i as f32);
        s.set_sparse(FeatureId(2), SparseList::from_ids(vec![i, i + 1]));
        w.push(s);
    }
    let file = w.finish().expect("non-empty file");
    let footer = file.footer();
    let footer_bytes = encode_footer(footer);
    let streams_end = file.len() - footer_bytes.len() - 24;
    // `encoded` framed after the file's streams under a valid checksum.
    let frame = |encoded: &[u8]| {
        let mut bytes = file.bytes()[..streams_end].to_vec();
        bytes.extend_from_slice(encoded);
        bytes.extend_from_slice(&checksum64(encoded).to_le_bytes());
        bytes.extend_from_slice(&(encoded.len() as u64).to_le_bytes());
        bytes.extend_from_slice(MAGIC);
        Bytes::from(bytes)
    };
    let read_all = |bytes: Bytes| FileReader::open(bytes)?.read_all_unprojected();
    assert!(read_all(frame(&footer_bytes)).is_ok(), "re-framed original");
    // `prefix` ends in a one-byte count of 0; `rest` is what follows the
    // real count. The count becomes ~2^61 with the real entries after it.
    let huge_count = |prefix: Vec<u8>, rest: &[u8]| {
        let mut out = prefix[..prefix.len() - 1].to_vec();
        write_varint(&mut out, 1 << 61);
        out.extend_from_slice(rest);
        out
    };

    let no_stripes = encode_footer(&FileFooter {
        stripes: Vec::new(),
        ..footer.clone()
    });
    let huge_stripes = huge_count(no_stripes.clone(), &footer_bytes[no_stripes.len()..]);

    let mut one_stripe = footer.clone();
    one_stripe.stripes.truncate(1);
    let with_streams = encode_footer(&one_stripe);
    one_stripe.stripes[0].streams.clear();
    let no_streams = encode_footer(&one_stripe);
    let huge_streams = huge_count(no_streams.clone(), &with_streams[no_streams.len()..]);

    let mut overflowing = footer.clone();
    for stream in overflowing.stripes[0].streams.iter_mut().take(2) {
        stream.offset = u64::MAX - 3;
        stream.len = 8;
    }
    let mut into_footer = footer.clone();
    into_footer.stripes[0].streams[0].offset = streams_end as u64 - 1;
    into_footer.stripes[0].streams[0].len = 2;

    for (name, encoded) in [
        ("huge stripe count", huge_stripes),
        ("huge stream count", huge_streams),
        ("overflowing stream ranges", encode_footer(&overflowing)),
        ("stream past the footer", encode_footer(&into_footer)),
    ] {
        match read_all(frame(&encoded)) {
            Err(DsiError::Corrupt(_)) => {}
            other => panic!("{name}: expected Corrupt, got {other:?}"),
        }
    }

    for cut in streams_end..file.len() {
        match FileReader::open(file.bytes().slice(..cut)) {
            Err(DsiError::Corrupt(_)) => {}
            other => panic!("file cut at {cut}: expected Corrupt, got {other:?}"),
        }
    }
    for cut in 0..footer_bytes.len() {
        match read_all(frame(&footer_bytes[..cut])) {
            Err(DsiError::Corrupt(_)) => {}
            other => panic!("footer cut at {cut}: expected Corrupt, got {other:?}"),
        }
    }
}
