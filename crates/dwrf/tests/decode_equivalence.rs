//! Property tests: the zero-copy decode returns the rows written over
//! random schemas, writer configurations (compression, encryption,
//! flattening, dedup) and row counts; a projected stripe decodes the same
//! under every coalescing policy; and decoding an in-memory source never
//! memcpys.

use dsi_types::{FeatureId, Projection, Sample, SparseList};
use dwrf::{CoalescePolicy, FileReader, FileWriter, SliceSource, StreamOrder, WriterOptions};
use proptest::collection::vec;
use proptest::prelude::*;

const DENSE_IDS: std::ops::Range<u64> = 0..6;
const SPARSE_IDS: std::ops::Range<u64> = 6..12;

/// One generated row: label, dense values, and per-feature sparse payload
/// pool indices (drawing payloads from a small pool gives the dedup
/// encoder real duplicates to fold).
fn row_strategy() -> impl Strategy<Value = (f32, Vec<f32>, Vec<u8>)> {
    (
        -1.0f32..1.0,
        vec(
            (-100.0f32..100.0).prop_map(|v| v),
            0..DENSE_IDS.end as usize,
        ),
        vec(any::<u8>(), 0..(SPARSE_IDS.end - SPARSE_IDS.start) as usize),
    )
}

fn payload_pool() -> Vec<SparseList> {
    (0..8u64)
        .map(|p| {
            if p % 2 == 0 {
                SparseList::from_ids((0..p + 1).map(|k| p * 1_000 + k * 17).collect())
            } else {
                SparseList::from_scored(
                    (0..p + 1).map(|k| p * 999 + k).collect(),
                    (0..p + 1).map(|k| k as f32 * 0.25).collect(),
                )
            }
        })
        .collect()
}

fn build_rows(raw: &[(f32, Vec<f32>, Vec<u8>)]) -> Vec<Sample> {
    let pool = payload_pool();
    raw.iter()
        .map(|(label, dense, sparse_picks)| {
            let mut s = Sample::new(*label);
            for (i, v) in dense.iter().enumerate() {
                s.set_dense(FeatureId(DENSE_IDS.start + i as u64), *v);
            }
            for (i, pick) in sparse_picks.iter().enumerate() {
                let payload = pool[*pick as usize % pool.len()].clone();
                s.set_sparse(FeatureId(SPARSE_IDS.start + i as u64), payload);
            }
            s
        })
        .collect()
}

fn options_strategy() -> impl Strategy<Value = WriterOptions> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        1usize..48,
        prop_oneof![
            Just(StreamOrder::ById),
            Just(StreamOrder::Popularity(vec![
                FeatureId(7),
                FeatureId(2),
                FeatureId(9),
            ])),
        ],
    )
        .prop_map(
            |(flattened, compressed, encrypted, dedup, rows_per_stripe, order)| WriterOptions {
                flattened,
                compressed,
                encrypted,
                rows_per_stripe,
                order,
                dedup,
                ..Default::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decode_returns_the_rows_written(
        raw in vec(row_strategy(), 1..120),
        opts in options_strategy(),
    ) {
        let rows = build_rows(&raw);
        let mut w = FileWriter::new(opts);
        for s in &rows {
            w.push(s.clone());
        }
        let file = w.finish().unwrap();
        let decoded = FileReader::open(file.bytes().clone())
            .unwrap()
            .read_all_unprojected()
            .unwrap();
        // The decoder canonicalizes unscored sparse lists into explicit
        // uniform scores, so compare round-trip structure rather than the
        // raw input: row count, labels, dense maps, and sparse ids.
        prop_assert_eq!(decoded.len(), rows.len());
        for (got, want) in decoded.iter().zip(&rows) {
            prop_assert_eq!(got.label(), want.label());
            for (id, v) in want.dense_iter() {
                prop_assert_eq!(got.dense(id), Some(v), "dense {:?}", id);
            }
            prop_assert_eq!(got.dense_count(), want.dense_count());
            prop_assert_eq!(got.sparse_count(), want.sparse_count());
            for (id, list) in want.sparse_iter() {
                let decoded = got.sparse(id).expect("sparse feature survived");
                prop_assert_eq!(decoded.ids(), list.ids(), "sparse {:?}", id);
            }
        }
    }

    #[test]
    fn projected_stripe_reads_match_across_policies(
        raw in vec(row_strategy(), 1..100),
        opts in options_strategy(),
        picks in vec(any::<u8>(), 1..6),
        window in prop_oneof![
            Just(CoalescePolicy::None),
            Just(CoalescePolicy::default_window()),
            (1u64..4096).prop_map(CoalescePolicy::Window),
        ],
    ) {
        let rows = build_rows(&raw);
        let mut w = FileWriter::new(opts);
        for s in &rows {
            w.push(s.clone());
        }
        let file = w.finish().unwrap();
        let ids: Vec<FeatureId> = picks
            .iter()
            .map(|p| FeatureId(*p as u64 % SPARSE_IDS.end))
            .collect();
        let projection = Projection::new(ids);
        let reader = FileReader::open(file.bytes().clone()).unwrap();
        let read = |stripe: usize, policy: CoalescePolicy| {
            let mut src = SliceSource::new(file.bytes().clone());
            reader
                .read_stripe_from(stripe, Some(&projection), policy, &mut src)
                .unwrap()
        };
        for stripe in 0..reader.num_stripes() {
            let (base_rows, base_plan) = read(stripe, CoalescePolicy::None);
            let (got, plan) = read(stripe, window);
            prop_assert_eq!(got, base_rows, "stripe {} diverged", stripe);
            // Zero-copy over an in-memory source never memcpys.
            prop_assert_eq!(plan.copied_bytes, 0);
            prop_assert_eq!(base_plan.copied_bytes, 0);
            // Coalescing changes what is read, never what is wanted.
            prop_assert_eq!(plan.wanted_bytes, base_plan.wanted_bytes);
            prop_assert!(plan.read_bytes >= plan.wanted_bytes);
        }
    }
}
