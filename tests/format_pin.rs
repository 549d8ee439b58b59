//! Pins the on-disk DWRF bytes: a change to the row type, the stripe
//! encoder or the block compressor must leave every file byte-identical.
//! The constants were taken at commit 22455c6 (the `BTreeMap` rows, the
//! per-feature column lookups and the table-per-call compressor); a
//! deliberate format change re-pins them and says so.

use dsi::prelude::*;
use dwrf::layout::StreamOrder;
use dwrf::stream::checksum64;

const ROWS: usize = 96;
const ROWS_PER_STRIPE: usize = 48;
/// Sparse column whose rows alternate scored and unscored lists.
const MIXED: FeatureId = FeatureId(1_000);
/// Dense and sparse features that first appear mid-way through stripe 0.
const LATE_DENSE: FeatureId = FeatureId(1_001);
const LATE_SPARSE: FeatureId = FeatureId(1_002);
/// A feature that only stripe 1 holds.
const SECOND_STRIPE_ONLY: FeatureId = FeatureId(1_003);

fn rows(duplicated: bool) -> Vec<Sample> {
    let schema = RmProfile::rm1().build_schema(60);
    let mut generator = SampleGenerator::new(&schema, 0x0d51_f11e).with_hashed_ids();
    if duplicated {
        generator = generator.with_duplication(DedupConfig::with_ratio(3.0));
    }
    let mut rows = generator.take_samples(ROWS);
    for (i, row) in rows.iter_mut().enumerate() {
        let n = i as u64;
        match i % 3 {
            0 => row.set_sparse(MIXED, SparseList::from_ids(vec![n, n % 5])),
            1 => row.set_sparse(
                MIXED,
                SparseList::from_scored(vec![n % 7, 3], vec![0.25, n as f32]),
            ),
            _ => {}
        }
        if i >= 10 {
            row.set_dense(LATE_DENSE, n as f32 * 0.5);
            row.set_sparse(LATE_SPARSE, SparseList::from_ids(vec![n % 4; 1 + i % 3]));
        }
        if i >= ROWS_PER_STRIPE + 5 {
            row.set_sparse(
                SECOND_STRIPE_ONLY,
                SparseList::from_ids(vec![n * 1_000_003]),
            );
        }
    }
    rows
}

fn file_checksum(opts: WriterOptions, rows: Vec<Sample>) -> u64 {
    let mut writer = FileWriter::new(WriterOptions {
        rows_per_stripe: ROWS_PER_STRIPE,
        ..opts
    });
    for row in rows {
        writer.push(row);
    }
    let file = writer.finish().expect("non-empty file");
    assert_eq!(file.footer().stripes.len(), 2);
    checksum64(file.bytes())
}

#[test]
fn dwrf_file_bytes_are_pinned() {
    let raw = WriterOptions {
        compressed: false,
        encrypted: false,
        ..Default::default()
    };
    let popularity = WriterOptions {
        // Ranks a sparse, a late, an absent and a dense feature ahead of
        // the id-ordered rest.
        order: StreamOrder::Popularity(vec![
            FeatureId(7),
            LATE_SPARSE,
            FeatureId(5_000),
            FeatureId(2),
            MIXED,
        ]),
        ..Default::default()
    };
    let cases: [(&str, WriterOptions, bool, u64); 6] = [
        (
            "default",
            WriterOptions::default(),
            false,
            0xda3f_8a01_b557_fbdc,
        ),
        ("raw", raw, false, 0x9412_3f68_29ff_de6b),
        (
            "unflattened",
            WriterOptions::unflattened_baseline(),
            false,
            0xafb3_6195_9b42_ebdb,
        ),
        (
            "deduped",
            WriterOptions::deduped(),
            true,
            0x3222_f54e_15d2_90ad,
        ),
        ("popularity", popularity, false, 0xe5f4_7d96_c063_b2e8),
        (
            "unflattened_deduped",
            WriterOptions {
                dedup: true,
                ..WriterOptions::unflattened_baseline()
            },
            true,
            0x7e55_b784_f3b9_3cef,
        ),
    ];
    let got: Vec<(&str, u64)> = cases
        .iter()
        .map(|(name, opts, duplicated, _)| (*name, file_checksum(opts.clone(), rows(*duplicated))))
        .collect();
    let want: Vec<(&str, u64)> = cases.iter().map(|c| (c.0, c.3)).collect();
    assert_eq!(
        got,
        want,
        "DWRF bytes changed; got (hex): {:x?}",
        got.iter().map(|g| g.1).collect::<Vec<_>>()
    );
}
