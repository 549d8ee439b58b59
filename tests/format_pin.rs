//! Pins the on-disk DWRF bytes: a change to the row type, the stripe
//! encoder or the block compressor must leave every file byte-identical.
//! The constants pin the v2 layout, where every sparse id is stored
//! relative to a base: `Data` streams are frame-of-reference bit-packed,
//! `Dict` streams hold the gaps between sorted ids, and each row-map list
//! stores its minimum and then varint offsets from it. A deliberate format
//! change re-pins them and says so.
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
            0xacc9_e438_42aa_a020,
        ),
        ("raw", raw, false, 0xd368_33db_747e_dd2d),
        (
            "unflattened",
            WriterOptions::unflattened_baseline(),
            false,
            0xcff3_6660_4a54_7da2,
        ),
        (
            "deduped",
            WriterOptions::deduped(),
            true,
            0xfed3_609f_b3c2_d748,
        ),
        ("popularity", popularity, false, 0x34dd_fa9f_bd42_07a3),
        (
            "unflattened_deduped",
            WriterOptions {
                dedup: true,
                ..WriterOptions::unflattened_baseline()
            },
            true,
            0x364e_1717_4040_eeae,
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

/// Stripes in [`many_stripe_file_bytes_are_pinned`]'s file: ten full ones
/// and a short last one.
const MANY_STRIPES: usize = 11;

/// A compressed, encrypted file of eleven stripes. The writer encodes each
/// stripe on its own thread while the next stripe's rows are pushed; the
/// file must still hold every offset and nonce that one thread writing the
/// stripes back to back gives it. The constant was taken from the writer
/// that encoded every stripe on the caller's thread.
#[test]
fn many_stripe_file_bytes_are_pinned() {
    let schema = RmProfile::rm1().build_schema(60);
    let rows = SampleGenerator::new(&schema, 0x057e_19e5)
        .with_hashed_ids()
        .take_samples((MANY_STRIPES - 1) * ROWS_PER_STRIPE + 7);
    let mut writer = FileWriter::new(WriterOptions {
        rows_per_stripe: ROWS_PER_STRIPE,
        ..Default::default()
    });
    for row in rows.clone() {
        writer.push(row);
    }
    let file = writer.finish().expect("non-empty file");
    let footer = file.footer();
    assert!(footer.compressed && footer.encrypted);
    assert_eq!(footer.stripes.len(), MANY_STRIPES);
    let nonces: Vec<u64> = footer
        .stripes
        .iter()
        .flat_map(|stripe| stripe.streams.iter().map(|stream| stream.nonce))
        .collect();
    assert_eq!(nonces, (0..nonces.len() as u64).collect::<Vec<_>>());
    let checksum = checksum64(file.bytes());
    assert_eq!(
        checksum, 0xf80e_926c_e36e_4d1c,
        "DWRF bytes changed; got {checksum:#x}"
    );
    let reader = FileReader::open(file.bytes().clone()).expect("valid file");
    assert_eq!(reader.read_all_unprojected().expect("decodable"), rows);
}
