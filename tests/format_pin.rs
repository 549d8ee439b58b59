//! Pins the on-disk DWRF bytes: a change to the row type, the stripe
//! encoder or the block compressor must leave every file byte-identical.
//! The constants were taken at commit 22455c6 (the `BTreeMap` rows, the
//! per-feature column lookups and the table-per-call compressor); a
//! deliberate format change re-pins them and says so.
//!
//! The read pin is the other half: every pinned file reads back to
//! exactly the rows that were written, whole and under a projection.

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

fn write_file(opts: WriterOptions, rows: Vec<Sample>) -> dwrf::DwrfFile {
    let mut writer = FileWriter::new(WriterOptions {
        rows_per_stripe: ROWS_PER_STRIPE,
        ..opts
    });
    for row in rows {
        writer.push(row);
    }
    let file = writer.finish().expect("non-empty file");
    assert_eq!(file.footer().stripes.len(), 2);
    file
}

/// The six pinned writer configurations: name, options, whether the rows
/// are session-duplicated, and the checksum of the file.
fn cases() -> [(&'static str, WriterOptions, bool, u64); 6] {
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
    [
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
    ]
}

#[test]
fn dwrf_file_bytes_are_pinned() {
    let cases = cases();
    let got: Vec<(&str, u64)> = cases
        .iter()
        .map(|(name, opts, duplicated, _)| {
            let file = write_file(opts.clone(), rows(*duplicated));
            (*name, checksum64(file.bytes()))
        })
        .collect();
    let want: Vec<(&str, u64)> = cases.iter().map(|c| (c.0, c.3)).collect();
    assert_eq!(
        got,
        want,
        "DWRF bytes changed; got (hex): {:x?}",
        got.iter().map(|g| g.1).collect::<Vec<_>>()
    );
}

#[test]
fn dwrf_files_read_back_the_rows_written() {
    for (name, opts, duplicated, _) in cases() {
        let mut written = rows(duplicated);
        if opts.flattened && !opts.dedup {
            // A sparse column stream is scored as a whole: both stripes
            // hold scored `MIXED` lists, so its unscored ones come back
            // with unit scores. Map and dedup files keep each list as is.
            for row in &mut written {
                if let Some(list) = row.sparse(MIXED).filter(|list| !list.is_scored()) {
                    let canonical =
                        SparseList::from_scored(list.ids().to_vec(), vec![1.0; list.len()]);
                    row.set_sparse(MIXED, canonical);
                }
            }
        }
        let file = write_file(opts, rows(duplicated));
        let reader = FileReader::open(file.bytes().clone()).expect("valid file");
        // Late and second-stripe-only features are absent from the rows
        // that never held them: row equality covers it.
        assert_eq!(
            reader.read_all_unprojected().expect("decodable"),
            written,
            "{name}"
        );
        assert!(written[9].dense(LATE_DENSE).is_none() && written[10].dense(LATE_DENSE).is_some());
        assert!(written[ROWS_PER_STRIPE + 4]
            .sparse(SECOND_STRIPE_ONLY)
            .is_none());

        let features: std::collections::BTreeSet<FeatureId> = written
            .iter()
            .flat_map(|row| {
                let dense = row.dense_iter().map(|(feature, _)| feature);
                dense.chain(row.sparse_iter().map(|(feature, _)| feature))
            })
            .collect();
        let projection = Projection::new(features.into_iter().step_by(2).collect());
        for row in &mut written {
            row.project(|feature| projection.contains(feature));
        }
        assert_eq!(
            reader.read_all(&projection).expect("decodable"),
            written,
            "{name}, every other feature"
        );
    }
}
