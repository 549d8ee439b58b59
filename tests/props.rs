//! Property-based tests on core invariants: DWRF round-trips for arbitrary
//! data, codec round-trips, transform invariants, and planner laws.

use bytes::Bytes;
use dsi::prelude::*;
use dsi::types::FeatureValue;
use dwrf::layout::StreamOrder;
use dwrf::plan::IoPlan;
use dwrf::{cipher::StreamCipher, compress, FileReader, StreamKind};
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

/// Samples whose sparse features 40..80 each hold a scored or an unscored
/// list row by row (a row transform can leave a column so), and whose
/// dense features 0..45 share 40..45 with the sparse ones.
fn arb_mixed_sample() -> impl Strategy<Value = Sample> {
    (
        -1e6f32..1e6f32,
        proptest::collection::btree_map(0u64..45, -1e6f32..1e6f32, 0..10),
        proptest::collection::btree_map(
            40u64..80,
            prop_oneof![arb_unscored_list(), arb_scored_list()],
            0..8,
        ),
    )
        .prop_map(|(label, dense, sparse)| {
            let mut s = Sample::new(label);
            for (id, v) in dense {
                s.set_dense(FeatureId(id), v);
            }
            for (id, l) in sparse {
                s.set_sparse(FeatureId(id), l);
            }
            s
        })
}

/// `rows` with every scored list's scores dropped.
fn unscored(rows: &[Sample]) -> Vec<Sample> {
    rows.iter()
        .map(|row| {
            let mut row = row.clone();
            let lists: Vec<(FeatureId, SparseList)> = row
                .sparse_iter()
                .map(|(f, l)| (f, SparseList::from_ids(l.ids().to_vec())))
                .collect();
            for (f, list) in lists {
                row.set_sparse(f, list);
            }
            row
        })
        .collect()
}

/// Rows `start..start + len` of `n`, both folded into range.
fn sub_range(n: usize, start: usize, len: usize) -> std::ops::Range<usize> {
    let start = start % (n + 1);
    start..start + len % (n - start + 1)
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
        // Moduli small enough that hashed ids collide and reach MapId's
        // keys, every other positive `u64`, and the powers of two.
        (
            arb_feature(40..90),
            any::<u64>(),
            prop_oneof![
                1u64..100_000,
                any::<u64>().prop_map(|m| m.max(1)),
                (0u32..64).prop_map(|k| 1u64 << k)
            ]
        )
            .prop_map(|(input, salt, modulus)| TransformOp::SigridHash {
                input,
                salt,
                modulus,
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
        // Up to 5: windows longer than most rows, and NGram's column-wide
        // level passes reading across row ends.
        (arb_feature(40..90), 1usize..6, arb_output())
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
/// changed, byte runs alternating with literal runs whose lengths
/// straddle `MAX_MATCH` (131) and the 128-byte literal-run limit, and
/// tensor-frame-shaped bytes. Lengths reach 70 k so a call's table
/// positions pass `u16` and consecutive calls on the test thread find the
/// table full of the previous input's stamps.
fn arb_compressible() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Frame-shaped: short words (4–8 bytes) recurring at random
        // distances between a few random bytes, so most probes find a live
        // slot and only the word it carries decides whether it matches.
        (
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 4..9), 1..24),
            proptest::collection::vec(
                (any::<usize>(), proptest::collection::vec(any::<u8>(), 0..5)),
                0..3000,
            ),
        )
            .prop_map(|(words, pieces)| {
                let mut data = Vec::new();
                for (pick, noise) in pieces {
                    data.extend_from_slice(&words[pick % words.len()]);
                    data.extend(noise);
                }
                data
            }),
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

/// A stripe shaped for the writer's sizing pass, and the rows it must
/// decode to. On top of [`arb_sample`] rows (which already hold empty
/// lists and features absent from arbitrary rows):
/// - feature `hole` is taken out of the first and the last row;
/// - dense feature 92 is held by the middle rows only;
/// - sparse feature 91 holds only empty lists;
/// - sparse feature 90 holds unscored lists (some empty) until row `late`,
///   a non-empty scored list there, and either kind after it. Scored-ness is a
///   column property, so its unscored lists decode with unit scores.
fn arb_shaped_stripe() -> impl Strategy<Value = (Vec<Sample>, Vec<Sample>)> {
    (
        proptest::collection::vec(arb_sample(), 2..40),
        0u64..80,
        0usize..40,
        proptest::collection::vec(any::<bool>(), 40..41),
    )
        .prop_map(|(mut rows, hole, late, scored_after)| {
            let n = rows.len();
            let late = late % n;
            for at in [0, n - 1] {
                rows[at].remove(FeatureId(hole));
            }
            let mut expected = rows.clone();
            for (r, (row, want)) in rows.iter_mut().zip(&mut expected).enumerate() {
                if r > 0 && r + 1 < n {
                    row.set_dense(FeatureId(92), r as f32);
                    want.set_dense(FeatureId(92), r as f32);
                }
                if r % 2 == 0 {
                    row.set_sparse(FeatureId(91), SparseList::from_ids(vec![]));
                    want.set_sparse(FeatureId(91), SparseList::from_ids(vec![]));
                }
                // An empty list carries no scores, so the first scored one
                // holds an id.
                let len = r % 3 + usize::from(r == late);
                let ids: Vec<u64> = (0..len as u64).map(|k| r as u64 * 7 + k).collect();
                let unit = vec![1.0; ids.len()];
                let scores: Vec<f32> = ids.iter().map(|&id| id as f32 / 2.0).collect();
                let list = if r == late || (r > late && scored_after[r]) {
                    SparseList::from_scored(ids.clone(), scores.clone())
                } else {
                    SparseList::from_ids(ids.clone())
                };
                row.set_sparse(FeatureId(90), list);
                let decoded = if r == late || (r > late && scored_after[r]) {
                    SparseList::from_scored(ids, scores)
                } else {
                    SparseList::from_scored(ids, unit)
                };
                want.set_sparse(FeatureId(90), decoded);
            }
            (rows, expected)
        })
}

/// The old `write_bitmap`, bit by bit: a varint count, then the bits
/// LSB-first, a byte per eight.
fn bitmap_by_bits(out: &mut Vec<u8>, bits: &[bool]) {
    dwrf::encoding::write_varint(out, bits.len() as u64);
    let mut byte = 0u8;
    for (i, &b) in bits.iter().enumerate() {
        byte |= u8::from(b) << (i % 8);
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        out.push(byte);
    }
}

/// One step of a random Tectonic schedule: files and nodes are indices
/// the test maps onto its cluster.
#[derive(Debug, Clone)]
enum HealOp {
    Append(usize, usize),
    Fail(u64),
    Recover(u64),
    Tick,
    Pump(u64),
    Delete(usize),
    /// At-rest corruption of one live copy of a file's block.
    Corrupt(usize, u64),
}

/// Appends and beats come twice as often as the rest, so nodes get
/// declared dead and files outlive their deletes.
fn arb_heal_op() -> impl Strategy<Value = HealOp> {
    let append = || (0usize..3, 1usize..300).prop_map(|(f, len)| HealOp::Append(f, len));
    prop_oneof![
        append(),
        append(),
        (0u64..6).prop_map(HealOp::Fail),
        (0u64..6).prop_map(HealOp::Recover),
        Just(HealOp::Tick),
        Just(HealOp::Tick),
        (1u64..17).prop_map(HealOp::Pump),
        (0usize..3).prop_map(HealOp::Delete),
        (0usize..3, 0u64..8).prop_map(|(f, b)| HealOp::Corrupt(f, b)),
    ]
}

/// `f32` bit patterns the XOR writer must carry exactly: arbitrary words,
/// ±0, subnormals and NaN payloads of either sign.
fn arb_f32_bits() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        Just(0u32),
        Just(0x8000_0000u32),
        1u32..0x0080_0000,
        0x7f80_0001u32..0x8000_0000,
        0xff80_0001u32..u32::MAX,
        Just(u32::MAX),
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
            decode_columns(streams.iter().map(|(f, k, raw)| Ok((*f, *k, raw))), vec![0.0; rows])
        };
        prop_assert_eq!(decode(&streams).expect("valid streams").column_count(), columns);
        // One stream of a valid stripe with a few bits flipped, or (no
        // flips drawn) replaced by arbitrary bytes: `Ok` or `Err`, never a
        // panic, and never room for more than the streams could hold — one
        // length per bitmap bit, one id per `Data` bit (a packed id can be
        // one bit wide), one value per other byte, times the doubling a
        // growing buffer may have left behind. A length, a count or a run
        // header that declares more is refused first.
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
        let (mut bit_bytes, mut other_bytes) = (0, 0);
        for (_, kind, raw) in &streams {
            match kind {
                StreamKind::Present | StreamKind::Data => bit_bytes += raw.len(),
                _ => other_bytes += raw.len(),
            }
        }
        if let Ok(decoded) = decode(&streams) {
            prop_assert!(decoded.reserved_values() <= 2 * (8 * bit_bytes + other_bytes));
        }
    }

    #[test]
    fn sized_columns_round_trip_the_shapes_sizing_must_count(
        (rows, expected) in arb_shaped_stripe(),
    ) {
        use dwrf::stream::{decode_columns, encode_columns};
        use dwrf::StreamKind;
        let features: std::collections::BTreeSet<FeatureId> = rows
            .iter()
            .flat_map(|row| row.dense_iter().map(|(f, _)| f).chain(row.sparse_iter().map(|(f, _)| f)))
            .collect();
        let streams: Vec<(FeatureId, StreamKind, Vec<u8>)> = encode_columns(&rows, true)
            .into_iter()
            .flat_map(|(feature, streams)| {
                streams.into_iter().map(move |(kind, raw)| (feature, kind, raw))
            })
            .collect();
        let labels = vec![0.0; rows.len()];
        let decoded = decode_columns(streams.iter().map(|(f, k, raw)| Ok((*f, *k, raw))), labels)
            .expect("valid streams");
        prop_assert_eq!(decoded.column_count(), features.len());
        // One flattened stripe, so the column-level scored-ness is the
        // stripe's, then every cell back through the reader.
        let mut w = FileWriter::new(WriterOptions {
            rows_per_stripe: rows.len(),
            ..Default::default()
        });
        for row in &rows {
            w.push(row.clone());
        }
        let file = w.finish().expect("non-empty file");
        let reader = FileReader::open(file.bytes().clone()).expect("valid file");
        let got = reader.read_all_unprojected().expect("decodable");
        prop_assert_eq!(got.len(), expected.len());
        for (r, (got, want)) in got.iter().zip(&expected).enumerate() {
            for &f in &features {
                prop_assert_eq!((r, f, got.feature(f)), (r, f, want.feature(f)));
            }
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn column_batch_holds_rows_and_slices_them_as_from_samples_does(
        rows in proptest::collection::vec(arb_mixed_sample(), 0..150),
        keep in proptest::collection::vec(any::<bool>(), 150..151),
        cut in any::<usize>(),
        (start, len) in (any::<usize>(), any::<usize>()),
        caps in proptest::collection::vec(
            prop_oneof![Just(0usize), Just(1), Just(3), Just(usize::MAX)],
            7..8,
        ),
        capped: bool,
    ) {
        use dsi_types::{Bitmap, ColumnBatch};
        let batch = ColumnBatch::from_rows(&rows);
        let bytes: usize = rows.iter().map(Sample::payload_bytes).sum();
        prop_assert_eq!(batch.payload_bytes(), bytes);
        prop_assert_eq!(&batch.clone().into_rows(), &rows);

        // A column twice in a list, features of the other kind (5 is only
        // dense, 60 and 75 only sparse, 40..45 either) and one nobody holds.
        let dense_ids: Vec<FeatureId> = [0, 7, 7, 42, 60, 81].map(FeatureId).to_vec();
        let sparse_ids: Vec<FeatureId> = [41, 60, 60, 5, 75, 81, 43].map(FeatureId).to_vec();
        let caps = if capped { caps } else { Vec::new() };
        let tensor_eq = |batch: &ColumnBatch, rows: &[Sample], range: std::ops::Range<usize>| {
            let got = batch.tensor(range.clone(), &dense_ids, &sparse_ids, &caps);
            let want = MiniBatchTensor::from_samples(&rows[range], &dense_ids, &sparse_ids, &caps);
            got == want
        };
        let range = sub_range(rows.len(), start, len);
        prop_assert!(tensor_eq(&batch, &rows, range.clone()), "rows {:?}", range);

        let mut mask = Bitmap::zeros(rows.len());
        for row in (0..rows.len()).filter(|&r| keep[r]) {
            mask.set(row);
        }
        let kept: Vec<Sample> = mask.ones().map(|r| rows[r].clone()).collect();
        prop_assert_eq!(&batch.gather(&mask).into_rows(), &kept);

        // A batch whose columns carry scores joined with one whose lists
        // carry none, either way round: unit scores fill the unscored
        // side's ids, as `push_row_capped` backfills them.
        let cut = cut % (rows.len() + 1);
        let (scored, plain) = (rows[..cut].to_vec(), unscored(&rows[cut..]));
        for (a, b) in [(&scored, &plain), (&plain, &scored)] {
            let joined = ColumnBatch::from_rows(a).concat(ColumnBatch::from_rows(b));
            let want: Vec<Sample> = a.iter().chain(b).cloned().collect();
            prop_assert!(tensor_eq(&joined, &want, range.clone()), "rows {:?}", range);
            prop_assert_eq!(&joined.into_rows(), &want);
        }
    }

    #[test]
    fn column_stage_equals_row_stage_over_random_plans(
        samples in proptest::collection::vec(arb_hot_sample(), 1..100),
        ops in proptest::collection::vec(arb_plan_op(), 0..16),
        base_row in 0u64..1_000_000,
        (start, len) in (any::<usize>(), any::<usize>()),
    ) {
        use dsi_types::{Batch, ColumnBatch};
        use transforms::ColumnarPlan;
        let plan = TransformPlan::new(ops);
        // The id spaces of `split_plan_columnar_equals_row_path_over_random_plans`.
        let dense_ids: Vec<FeatureId> = (0..36).map(FeatureId).collect();
        let sparse_ids: Vec<FeatureId> = (40..72).chain(80..86).map(FeatureId).collect();
        let batch: Batch = samples.into_iter().collect();
        let (residue, columnar) = ColumnarPlan::split_plan(&plan);

        // Sampling as a row mask: the rows and the cost `apply_batch` gives.
        let (rows, rows_cost) = residue.apply_batch(batch.clone(), base_row);
        let (survivors, cost) = residue.sample_rows(batch.len(), base_row);
        prop_assert_eq!(cost, rows_cost);
        let columns = ColumnBatch::from_rows(batch.samples()).gather(&survivors);
        prop_assert_eq!(&columns.clone().into_rows(), rows.samples());

        // The context read off the columns is the one captured from rows,
        // and so is the tensor, over any rows of the batch.
        let range = sub_range(columns.len(), start, len);
        let rows = &rows.samples()[range.clone()];
        prop_assert_eq!(
            columnar.columns_ctx(&columns, range.clone(), &dense_ids, &sparse_ids),
            columnar.capture_ctx(rows, &dense_ids, &sparse_ids)
        );
        let caps = columnar.sparse_caps(&sparse_ids);
        prop_assert!(
            columns.tensor(range, &dense_ids, &sparse_ids, &caps)
                == MiniBatchTensor::from_samples(rows, &dense_ids, &sparse_ids, &caps)
        );
    }

    #[test]
    fn read_stripe_columns_is_read_stripe_from_as_columns(
        samples in proptest::collection::vec(arb_sample(), 1..40),
        rows_per_stripe in 1usize..20,
        layout in 0usize..3,
        sealed: bool,
        keep in proptest::collection::btree_set(0u64..80, 0..20),
        project: bool,
    ) {
        use dwrf::SliceSource;
        // Flattened, row maps, or flattened with deduplicated sparse rows;
        // plain, or encrypted and compressed.
        let mut w = FileWriter::new(WriterOptions {
            flattened: layout != 1,
            dedup: layout == 2,
            compressed: sealed,
            encrypted: sealed,
            rows_per_stripe,
            ..Default::default()
        });
        for s in &samples {
            w.push(s.clone());
        }
        let file = w.finish().expect("non-empty file");
        let reader = FileReader::open(file.bytes().clone()).expect("valid file");
        let projection = project.then(|| Projection::new(keep.iter().map(|&k| FeatureId(k)).collect()));
        let policy = CoalescePolicy::default_window();
        for stripe in 0..reader.num_stripes() {
            let mut source = SliceSource::new(file.bytes().clone());
            let (rows, plan) = reader
                .read_stripe_from(stripe, projection.as_ref(), policy, &mut source)
                .expect("decodable");
            let mut source = SliceSource::new(file.bytes().clone());
            let (columns, columns_plan) = reader
                .read_stripe_columns(stripe, projection.as_ref(), policy, &mut source)
                .expect("decodable");
            prop_assert_eq!(&columns_plan, &plan);
            let bytes: usize = rows.iter().map(Sample::payload_bytes).sum();
            prop_assert_eq!(columns.payload_bytes(), bytes);
            prop_assert_eq!(&columns.into_rows(), &rows);
        }
    }

    #[test]
    fn read_stripe_columns_survives_hostile_streams(
        samples in proptest::collection::vec(arb_sample(), 1..40),
        encrypted: bool,
        junk in proptest::collection::vec(any::<u8>(), 1..64),
        target in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 0..4),
    ) {
        use dsi_types::DsiError;
        use dwrf::stream::checksum64;
        use dwrf::writer::{encode_footer, MAGIC};
        use dwrf::{SliceSource, StreamKind};
        // Uncompressed, so that the stored bytes are the bytes decoded (a
        // stream cipher flips the same bits it is handed).
        let mut w = FileWriter::new(WriterOptions {
            compressed: false,
            encrypted,
            rows_per_stripe: samples.len(),
            ..Default::default()
        });
        for s in &samples {
            w.push(s.clone());
        }
        let file = w.finish().expect("non-empty file");
        let mut footer = file.footer().clone();
        let streams_end = file.len() - encode_footer(&footer).len() - 24;
        let mut bytes = file.bytes()[..streams_end].to_vec();
        // One stream with a few bits flipped, or (no flips drawn) its bytes
        // replaced, under a checksum that matches: the decoders, not the
        // integrity gate, meet the hostile bytes.
        let streams = &mut footer.stripes[0].streams;
        let target = target % streams.len();
        let info = &mut streams[target];
        let at = info.offset as usize..(info.offset + info.len) as usize;
        let victim = &mut bytes[at.clone()];
        if flips.is_empty() {
            for (byte, &j) in victim.iter_mut().zip(junk.iter().cycle()) {
                *byte = j;
            }
        }
        for (pos, bit) in flips {
            if !victim.is_empty() {
                let pos = pos % victim.len();
                victim[pos] ^= 1 << bit;
            }
        }
        info.checksum = checksum64(&bytes[at]);
        let (mut bit_bytes, mut other_bytes) = (0, 0);
        for info in streams.iter() {
            match info.kind {
                StreamKind::Present | StreamKind::Data => bit_bytes += info.len as usize,
                _ => other_bytes += info.len as usize,
            }
        }
        let encoded = encode_footer(&footer);
        bytes.extend_from_slice(&encoded);
        bytes.extend_from_slice(&checksum64(&encoded).to_le_bytes());
        bytes.extend_from_slice(&(encoded.len() as u64).to_le_bytes());
        bytes.extend_from_slice(MAGIC);
        let bytes = Bytes::from(bytes);
        let reader = FileReader::open(bytes.clone()).expect("the footer is intact");
        let mut source = SliceSource::new(bytes);
        // `Corrupt`, or columns with no more room than the streams could
        // fill (as `decode_columns_survives_hostile_streams` bounds it).
        match reader.read_stripe_columns(0, None, CoalescePolicy::None, &mut source) {
            Ok((columns, _)) => prop_assert!(
                columns.reserved_values() <= 2 * (8 * bit_bytes + other_bytes)
            ),
            Err(DsiError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "expected Corrupt, got {:?}", other),
        }
    }

    #[test]
    fn bitmap_writer_matches_a_bit_by_bit_reference(
        bits in proptest::collection::vec(any::<bool>(), 0..300),
        prefix in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        use dwrf::encoding::{read_bitmap, Bitmap};
        let mut bitmap = Bitmap::zeros(bits.len());
        for (i, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
            bitmap.set(i);
        }
        let mut reference = prefix.clone();
        bitmap_by_bits(&mut reference, &bits);
        let mut written = prefix.clone();
        bitmap.write(&mut written);
        prop_assert_eq!(&written, &reference);
        let read = read_bitmap(&written[prefix.len()..]).expect("its own bytes");
        let ones: Vec<usize> = (0..bits.len()).filter(|&i| bits[i]).collect();
        prop_assert_eq!(read.ones().collect::<Vec<_>>(), ones);
        prop_assert_eq!(&read, &bitmap);
    }

    #[test]
    fn word_xor_writer_matches_the_per_value_reference(
        draws in proptest::collection::vec((arb_f32_bits(), any::<bool>()), 0..200),
        prefix in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        use dwrf::encoding::{read_f32s_xor, write_f32s_xor, write_varint};
        // A flagged draw complements its predecessor: a u32::MAX delta.
        let mut bits: Vec<u32> = Vec::with_capacity(draws.len());
        for (draw, complement) in draws {
            let next = match bits.last() {
                Some(&prev) if complement => !prev,
                _ => draw,
            };
            bits.push(next);
        }
        let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut reference = prefix.clone();
        write_varint(&mut reference, values.len() as u64);
        let mut prev = 0u32;
        for &b in &bits {
            write_varint(&mut reference, u64::from(b ^ prev));
            prev = b;
        }
        let mut written = prefix.clone();
        write_f32s_xor(&mut written, &values);
        prop_assert_eq!(&written, &reference);
        let read: Vec<u32> = read_f32s_xor(&written[prefix.len()..])
            .expect("its own bytes")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        prop_assert_eq!(&read, &bits);
    }

    #[test]
    fn row_map_decoders_survive_hostile_streams(
        samples in proptest::collection::vec(arb_sample(), 1..20),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 0..4),
        window in 1usize..16,
    ) {
        use dwrf::stream::{
            decode_dedup_sparse, decode_dense_map, decode_sparse_map, encode_dedup_sparse,
            encode_dense_map, encode_sparse_map,
        };
        // The unflattened maps and a dedup stripe's canonical table, valid
        // and then with a few bits flipped (or, no flips drawn, replaced by
        // arbitrary bytes): `Ok` or `Err`, never a panic, and a map never
        // decodes more entries than it has bytes.
        let rows = samples.len();
        let hostile = |mut bytes: Vec<u8>| {
            if flips.is_empty() || bytes.is_empty() {
                return junk.clone();
            }
            for &(at, bit) in &flips {
                let at = at % bytes.len();
                bytes[at] ^= 1 << bit;
            }
            bytes
        };
        let sparse = encode_sparse_map(&samples);
        let want: Vec<Vec<(FeatureId, SparseList)>> = samples
            .iter()
            .map(|s| s.sparse_iter().map(|(f, l)| (f, l.clone())).collect())
            .collect();
        prop_assert_eq!(&decode_sparse_map(&sparse, rows).expect("valid map"), &want);
        let sparse = hostile(sparse);
        if let Ok(decoded) = decode_sparse_map(&sparse, rows) {
            let ids: usize = decoded.iter().flatten().map(|(_, list)| list.len()).sum();
            prop_assert!(ids <= sparse.len());
        }
        let dense = encode_dense_map(&samples);
        prop_assert!(decode_dense_map(&dense, rows).is_ok());
        let dense = hostile(dense);
        if let Ok(decoded) = decode_dense_map(&dense, rows) {
            prop_assert!(decoded.iter().map(Vec::len).sum::<usize>() <= dense.len());
        }
        let (refs, data, _) = encode_dedup_sparse(&samples, window);
        prop_assert_eq!(&decode_dedup_sparse(&refs, &data, rows).expect("valid stripe"), &want);
        let _ = decode_dedup_sparse(&refs, &hostile(data.clone()), rows);
        let _ = decode_dedup_sparse(&hostile(refs), &data, rows);
    }

    #[test]
    fn packed_ids_round_trip_at_every_width(
        seed: u64,
        offsets in proptest::collection::vec(any::<u64>(), 0..70),
        shape in 0u8..4,
    ) {
        use dwrf::encoding::{read_packed, read_varint, write_packed};
        // At every width, values `base + (offset & mask)` with `base`
        // anywhere up to `u64::MAX − mask`: arbitrary, all equal, spanning
        // the whole width (its minimum and maximum both present), or based
        // at the top.
        for width in 1u32..=64 {
            let mask = u64::MAX >> (64 - width);
            let top = u64::MAX - mask;
            let base = match shape {
                3 => top,
                _ => top.checked_add(1).map_or(seed, |bases| seed % bases),
            };
            let mut values: Vec<u64> = offsets.iter().map(|&o| base + (o & mask)).collect();
            if shape == 1 {
                let first = values.first().copied().unwrap_or(base);
                values.fill(first);
            }
            if shape == 2 && values.len() >= 2 {
                values[0] = base;
                values[1] = base + mask;
            }
            let mut buf = Vec::new();
            write_packed(&mut buf, &values);
            // The header is the minimum and the width of the largest offset.
            let (min, max) = (values.iter().min().copied(), values.iter().max().copied());
            let span = max.zip(min).map_or(0, |(hi, lo)| hi - lo);
            let mut pos = 0;
            prop_assert_eq!(read_varint(&buf, &mut pos).expect("base"), min.unwrap_or(0));
            let stored = u32::from(buf[pos]);
            prop_assert_eq!(stored, (64 - span.leading_zeros()).max(1));
            if shape == 2 && values.len() >= 2 {
                prop_assert_eq!(stored, width);
            }
            let bytes = &buf[pos + 1..];
            prop_assert_eq!(bytes.len(), (values.len() * stored as usize).div_ceil(8));
            // A bit at a time, LSB-first.
            let base = min.unwrap_or(0);
            let bitwise: Vec<u64> = (0..values.len())
                .map(|i| {
                    let offset = (0..stored as usize).fold(0, |v, b| {
                        let bit = i * stored as usize + b;
                        v | u64::from(bytes[bit / 8] >> (bit % 8) & 1) << b
                    });
                    base + offset
                })
                .collect();
            let mut unpacked = Vec::new();
            read_packed(&buf, values.len(), &mut unpacked).expect("valid block");
            prop_assert_eq!(&bitwise, &values);
            prop_assert_eq!(&unpacked, &values);
        }
    }

    #[test]
    fn wire_decoders_survive_hostile_bytes(
        samples in proptest::collection::vec(arb_sample(), 1..12),
        junk in proptest::collection::vec(any::<u8>(), 0..300),
        header in proptest::collection::vec(any::<u8>(), 24..25),
        row_bits in 0u32..63,
        flip in 1u8..255,
        split: u64,
        trace_id: u64,
    ) {
        use dsi::types::WorkerId;
        use dwrf::encoding::write_varint;
        use wire::codec::{decode_envelope, encode_envelope};
        use wire::frame::{parse_header, HEADER_LEN};
        use wire::WireEnvelope;
        // Arbitrary bytes through both client-side decoders, then every
        // truncation and every single-byte flip of a valid envelope: each
        // returns `Ok` or a typed `Err`, and never panics.
        let _ = decode_envelope(&junk);
        let header: [u8; HEADER_LEN] = header.try_into().expect("24 bytes");
        let _ = parse_header(&header);
        let dense: Vec<FeatureId> = (0..8).map(FeatureId).collect();
        let sparse: Vec<FeatureId> = [40, 41, 60, 61].map(FeatureId).to_vec();
        let env = WireEnvelope {
            split,
            seq: 3,
            last: split.is_multiple_of(2),
            worker: WorkerId(1),
            trace_id,
            parent_span: 7,
            tensor: samples.into_iter().collect::<Batch>().materialize(&dense, &sparse),
        };
        let bytes = encode_envelope(&env);
        prop_assert_eq!(&decode_envelope(&bytes).expect("valid envelope"), &env);
        for cut in 0..bytes.len() {
            prop_assert!(decode_envelope(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= flip;
            let _ = decode_envelope(&flipped);
        }
        // A 24-byte envelope whose declared dense shape is 2^62 cells: the
        // shape fits a `u64`, its byte size does not.
        let mut hostile = vec![0u8; 6];
        write_varint(&mut hostile, 1 << row_bits);
        write_varint(&mut hostile, 1 << (62 - row_bits));
        hostile.resize(24, 0);
        prop_assert!(decode_envelope(&hostile).is_err());
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
    fn tectonic_heals_every_chunk_to_r_once_every_node_is_back(
        nodes in 4usize..7,
        ops in proptest::collection::vec(arb_heal_op(), 0..80),
    ) {
        use dsi_types::NodeId;
        use std::collections::{BTreeMap, BTreeSet};
        let (bs, r) = (128u64, 3usize);
        let cluster = TectonicCluster::new(ClusterConfig {
            nodes,
            block_size: bs,
            replication: r,
            hdd: true,
        });
        let mut files: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        // Chunks with a copy corrupted since their last repair: at most one
        // copy of a chunk is bad at a time, so no chunk can be lost.
        let mut corrupted: BTreeSet<(String, u64)> = BTreeSet::new();
        for op in ops {
            match op {
                HealOp::Append(f, len) => {
                    let path = format!("f{f}");
                    let old = files.get(&path).map_or(0, Vec::len);
                    let data: Vec<u8> = (old..old + len).map(|i| (i * 7 + f) as u8).collect();
                    let tail = (path.clone(), old as u64 / bs);
                    match cluster.append(&path, Bytes::from(data.clone())) {
                        Ok(()) => {
                            files.entry(path).or_default().extend(data);
                            // Every listed holder of the tail now has the
                            // longer block.
                            corrupted.remove(&tail);
                        }
                        // Every holder of the tail block is down, or the
                        // one live holder is the corrupt copy: nothing is
                        // written.
                        Err(e) => prop_assert!(
                            matches!(e, DsiError::Unavailable(_))
                                || (matches!(e, DsiError::Corrupt(_)) && corrupted.contains(&tail)),
                            "{e}"
                        ),
                    }
                }
                HealOp::Corrupt(f, b) => {
                    let path = format!("f{f}");
                    let failed = cluster.failed_nodes();
                    let live = cluster
                        .stat(&path)
                        .and_then(|meta| meta.blocks.get(b as usize).cloned())
                        .map_or(0, |rs| rs.iter().filter(|n| !failed.contains(n)).count());
                    if live >= 2 && corrupted.insert((path.clone(), b)) {
                        prop_assert!(cluster.corrupt_replica(&path, b, 0x5A).is_some());
                    }
                }
                HealOp::Fail(n) => {
                    // At most R-1 nodes down at once.
                    if cluster.failed_nodes().len() < r - 1 {
                        cluster.fail_node(NodeId(n % nodes as u64));
                    }
                }
                HealOp::Recover(n) => cluster.recover_node(NodeId(n % nodes as u64)),
                HealOp::Tick => {
                    cluster.heartbeat_tick();
                }
                HealOp::Pump(b) => {
                    cluster.pump_rebuild(b);
                }
                HealOp::Delete(f) => {
                    let path = format!("f{f}");
                    prop_assert_eq!(cluster.delete(&path).is_ok(), files.remove(&path).is_some());
                    corrupted.retain(|(p, _)| *p != path);
                }
            }
        }
        for n in 0..nodes as u64 {
            cluster.recover_node(NodeId(n));
        }
        for _ in 0..tectonic::HEARTBEAT_K {
            cluster.heartbeat_tick();
        }
        let chunks: u64 = files.values().map(|d| (d.len() as u64).div_ceil(bs)).sum();
        let budget = 1 + chunks % 16;
        let mut remaining = cluster.pump_rebuild(budget).remaining;
        for _ in 0..chunks {
            if remaining == 0 {
                break;
            }
            remaining = cluster.pump_rebuild(budget).remaining;
        }
        prop_assert_eq!(remaining, 0, "rebuild did not converge in {} pumps", chunks + 1);
        prop_assert!(cluster.under_replicated_chunks().is_empty());
        for (path, data) in &files {
            let meta = cluster.stat(path).expect("appended file");
            prop_assert_eq!(meta.len, data.len() as u64);
            for (b, replicas) in meta.blocks.iter().enumerate() {
                let mut distinct = replicas.clone();
                distinct.sort();
                distinct.dedup();
                prop_assert_eq!(distinct.len(), r, "{} block {}: {:?}", path, b, replicas);
                // R reads in a row rotate through every replica.
                let off = b as u64 * bs;
                let len = bs.min(data.len() as u64 - off);
                for _ in 0..r {
                    let got = cluster.read_view(path, off, len).expect("every node is live");
                    prop_assert_eq!(got.view.as_slice(), &data[off as usize..(off + len) as usize]);
                }
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

            let chunk = cluster.read_view("f", off, rlen).expect("in range");
            prop_assert_eq!(chunk.view.as_slice(), want);
            prop_assert_eq!(chunk.copied_bytes, copied);
            let by_view = cluster.total_stats();
            prop_assert_eq!(by_view.ios - before.ios, span, "one IO per block touched");
            prop_assert_eq!(by_view.bytes - before.bytes, rlen);
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

/// A xorshift stream for building one stripe from a drawn seed: the shapes
/// below are easier to state as a procedure than as combined strategies.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// `count` distinct ids: a narrow run (a base and a stride) or spread over
/// all of `u64` (an odd multiple of the index, which is one-to-one), with 0
/// and `u64::MAX` among the spread ones.
fn distinct_ids(d: &mut Draws, count: usize) -> Vec<u64> {
    if d.chance(50) {
        let stride = [1, 3, 1000][d.below(3) as usize];
        let base = d.below(1 << 40);
        return (0..count as u64).map(|k| base + k * stride).collect();
    }
    let odd = d.next() | 1;
    let mut ids: Vec<u64> = (0..count as u64).map(|k| k.wrapping_mul(odd)).collect();
    if count >= 2 {
        // `0 * odd` is 0 already; `u64::MAX` is the odd multiple of
        // `odd`'s inverse, so swap it in for index 1.
        ids[1] = u64::MAX;
        ids[1..].sort_unstable();
        ids.dedup();
        while ids.len() < count {
            let id = d.next();
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
    }
    ids
}

/// One sparse column's ids in list order: `total` ids holding exactly
/// `distinct` different ones, or free draws from `base` + an alphabet.
fn column_ids(d: &mut Draws, total: usize) -> Vec<u64> {
    match d.below(3) {
        // Exactly ⌊n/2⌋ or ⌊n/2⌋ + 1 distinct: the cap's edge.
        0 if total > 0 => {
            let distinct = (total / 2 + d.below(2) as usize).clamp(1, total);
            let values = distinct_ids(d, distinct);
            let mut ids = values.clone();
            while ids.len() < total {
                ids.push(values[d.below(values.len() as u64) as usize]);
            }
            for i in (1..ids.len()).rev() {
                ids.swap(i, d.below(i as u64 + 1) as usize);
            }
            ids
        }
        _ => {
            let alphabet = [1, 2, 5, 100, 1 << 20, 1 << 40, u64::MAX][d.below(7) as usize];
            let base = [0, u64::MAX - 3, d.next()][d.below(3) as usize];
            (0..total)
                .map(|_| base.wrapping_add(d.next() % alphabet))
                .collect()
        }
    }
}

/// A stripe of 0 to 3 or a few dozen rows. Dense and sparse features are
/// present or absent per row; lists may be empty; a sparse column is
/// unscored, scored throughout, scored on its last list only, or mixed;
/// ids come from [`column_ids`]. With `wide`, one column holds 8,194 ids
/// and exactly 4,096 or 4,097 distinct ones: the dictionary's size limit.
fn stripe_from(seed: u64, wide: bool) -> Vec<Sample> {
    let mut d = Draws(seed | 1);
    let n = if d.chance(40) {
        d.below(4)
    } else {
        4 + d.below(40)
    } as usize;
    let mut rows: Vec<Sample> = (0..n)
        .map(|_| Sample::new(f32::from_bits(d.next() as u32)))
        .collect();
    for feature in 0..d.below(5) {
        let percent = [0, 50, 100][d.below(3) as usize];
        for row in &mut rows {
            if d.chance(percent) {
                row.set_dense(FeatureId(feature), f32::from_bits(d.next() as u32));
            }
        }
    }
    for column in 0..d.below(6) + u64::from(wide) {
        let percent = [30, 80, 100][d.below(3) as usize];
        let present: Vec<usize> = (0..n).filter(|_| d.chance(percent)).collect();
        if present.is_empty() {
            continue;
        }
        let ids = if wide && column == 0 {
            let distinct = 4096 + d.below(2) as usize;
            let values = distinct_ids(&mut d, distinct);
            let mut ids = values.clone();
            ids.extend((0..8194 - values.len()).map(|i| values[i % 7]));
            ids
        } else {
            let total = d.below(8 * present.len() as u64 + 1) as usize;
            column_ids(&mut d, total)
        };
        // Cut the ids into one list per present row, some of them empty.
        let mut cuts: Vec<usize> = (1..present.len())
            .map(|_| d.below(ids.len() as u64 + 1) as usize)
            .collect();
        cuts.sort_unstable();
        let scoring = d.below(4);
        let last = present.len() - 1;
        let mut start = 0;
        for (i, &row) in present.iter().enumerate() {
            let end = cuts.get(i).copied().unwrap_or(ids.len());
            let list = ids[start..end].to_vec();
            start = end;
            let scored = match scoring {
                0 => false,
                1 => true,
                2 => i == last,
                _ => d.chance(50),
            };
            let list = if scored {
                let scores = list.iter().map(|_| d.below(1000) as f32 / 7.0).collect();
                SparseList::from_scored(list, scores)
            } else {
                SparseList::from_ids(list)
            };
            rows[row].set_sparse(FeatureId(100 + column), list);
        }
    }
    rows
}

/// A feature's streams: `(feature, kind, raw bytes)`.
type Streams = Vec<(u64, StreamKind, Vec<u8>)>;

/// The per-value frame-of-reference packer: `varint base · u8 width ·`
/// the offsets LSB-first, gathered a value at a time in a `u128`.
fn packed_by_value(values: &[u64]) -> Vec<u8> {
    let base = values.iter().copied().min().unwrap_or(0);
    let max = values.iter().copied().max().unwrap_or(0);
    let width = (64 - (max - base).leading_zeros()).max(1);
    let mut out = Vec::new();
    dwrf::encoding::write_varint(&mut out, base);
    out.push(width as u8);
    let (mut acc, mut bits) = (0u128, 0);
    for &v in values {
        acc |= u128::from(v - base) << bits;
        bits += width;
        if bits >= 64 {
            out.extend_from_slice(&(acc as u64).to_le_bytes());
            acc >>= 64;
            bits -= 64;
        }
    }
    out.extend_from_slice(&(acc as u64).to_le_bytes()[..bits.div_ceil(8) as usize]);
    out
}

/// The per-value XOR float writer: one varint per delta.
fn xor_by_value(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::new();
    dwrf::encoding::write_varint(&mut out, values.len() as u64);
    let mut prev = 0u32;
    for v in values {
        dwrf::encoding::write_varint(&mut out, u64::from(v.to_bits() ^ prev));
        prev = v.to_bits();
    }
    out
}

/// The sort-based dictionary rule: `Some(Dict stream)` with `ids` replaced
/// by their ranks when there are ids, at most half as many distinct ones
/// and at most 4,096; `None` and `ids` untouched otherwise.
fn dictionary_by_sorting(ids: &mut [u64]) -> Option<Vec<u8>> {
    let mut distinct = ids.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if ids.is_empty() || distinct.len() * 2 > ids.len() || distinct.len() > 4096 {
        return None;
    }
    let mut dict = Vec::new();
    dwrf::encoding::write_varint(&mut dict, distinct.len() as u64);
    let mut prev = 0;
    for &id in &distinct {
        dwrf::encoding::write_varint(&mut dict, id - prev);
        prev = id;
    }
    for id in ids {
        *id = distinct.binary_search(id).expect("its own id") as u64;
    }
    Some(dict)
}

/// What the column encoder must write for `rows`, a row and a value at a
/// time: each dense column (in id order) as its presence bitmap and XOR
/// floats, then each sparse column as presence, RLE lengths, packed ids or
/// ranks, the dictionary when the sorting rule takes one, and unit-filled
/// scores when any of its lists is scored.
fn columns_by_rows(rows: &[Sample]) -> Streams {
    use dwrf::encoding::{rle_encode, write_f32s, Bitmap};
    use std::collections::BTreeMap;
    let present = |held: &[usize]| {
        let mut bits = Bitmap::zeros(rows.len());
        held.iter().for_each(|&r| bits.set(r));
        let mut buf = Vec::new();
        bits.write(&mut buf);
        buf
    };
    let mut dense: BTreeMap<u64, (Vec<usize>, Vec<f32>)> = BTreeMap::new();
    let mut sparse: BTreeMap<u64, (Vec<usize>, Vec<&SparseList>)> = BTreeMap::new();
    for (r, row) in rows.iter().enumerate() {
        for (feature, value) in row.dense_iter() {
            let column = dense.entry(feature.0).or_default();
            column.0.push(r);
            column.1.push(value);
        }
        for (feature, list) in row.sparse_iter() {
            let column = sparse.entry(feature.0).or_default();
            column.0.push(r);
            column.1.push(list);
        }
    }
    let mut out = Streams::new();
    for (feature, (held, values)) in dense {
        out.push((feature, StreamKind::Present, present(&held)));
        out.push((feature, StreamKind::DenseData, xor_by_value(&values)));
    }
    for (feature, (held, lists)) in sparse {
        let lengths: Vec<u64> = lists.iter().map(|l| l.len() as u64).collect();
        let mut ids: Vec<u64> = lists.iter().flat_map(|l| l.ids().iter().copied()).collect();
        out.push((feature, StreamKind::Present, present(&held)));
        out.push((feature, StreamKind::Length, rle_encode(&lengths)));
        let dict = dictionary_by_sorting(&mut ids);
        out.push((feature, StreamKind::Data, packed_by_value(&ids)));
        if let Some(dict) = dict {
            out.push((feature, StreamKind::Dict, dict));
        }
        if lists.iter().any(|l| l.is_scored()) {
            let scores: Vec<f32> = lists
                .iter()
                .flat_map(|l| match l.scores() {
                    Some(scores) => scores.to_vec(),
                    None => vec![1.0; l.len()],
                })
                .collect();
            let mut buf = Vec::new();
            write_f32s(&mut buf, &scores);
            out.push((feature, StreamKind::Score, buf));
        }
    }
    out
}

/// The first stream where `got` and `want` differ, named without dumping
/// either (a wide column's streams are tens of kilobytes).
fn first_difference(got: &Streams, want: &Streams) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} streams, want {}", got.len(), want.len()));
    }
    got.iter()
        .zip(want)
        .find(|(g, w)| g != w)
        .map(|(g, w)| format!("feature {} {:?} (want feature {} {:?})", g.0, g.1, w.0, w.1))
}

proptest! {
    // Its own block: a case with a 4,097-id column sorts 8 k ids in the
    // reference, so fewer cases carry one.
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn stripe_encoder_is_byte_identical_to_row_at_a_time_references(
        seed in any::<u64>(),
        wide in 0u8..8,
        rows_per_stripe in 1usize..12,
    ) {
        use dwrf::stream::{encode_columns, FILE_LEVEL};
        let rows = stripe_from(seed, wide == 0);
        let encoded: Streams = encode_columns(&rows, true)
            .into_iter()
            .flat_map(|(f, streams)| streams.into_iter().map(move |(k, raw)| (f.0, k, raw)))
            .collect();
        let differs = first_difference(&encoded, &columns_by_rows(&rows));
        prop_assert!(differs.is_none(), "{:?}", differs);
        // Through the writer, stored raw: one set of column builders fills
        // every stripe, and each stripe's stored streams are its rows'
        // reference streams in id order, then its labels.
        let mut writer = FileWriter::new(WriterOptions {
            compressed: false,
            encrypted: false,
            rows_per_stripe,
            ..Default::default()
        });
        for row in rows.clone() {
            writer.push(row);
        }
        // An empty file is refused, and has no stripes to compare.
        let Ok(file) = writer.finish() else {
            prop_assert!(rows.is_empty());
            continue;
        };
        let bytes = file.bytes();
        let mut first = 0;
        for stripe in &file.footer().stripes {
            let end = first + stripe.row_count as usize;
            let mut want = columns_by_rows(&rows[first..end]);
            want.sort_by_key(|s| s.0);
            let labels: Vec<f32> = rows[first..end].iter().map(Sample::label).collect();
            want.push((FILE_LEVEL, StreamKind::Label, xor_by_value(&labels)));
            let stored: Streams = stripe
                .streams
                .iter()
                .map(|s| {
                    let at = s.offset as usize..(s.offset + s.len) as usize;
                    (s.feature, s.kind, bytes[at].to_vec())
                })
                .collect();
            let differs = first_difference(&stored, &want);
            prop_assert!(differs.is_none(), "stripe at row {}: {:?}", first, differs);
            first = end;
        }
        prop_assert_eq!(first, rows.len());
    }
}
