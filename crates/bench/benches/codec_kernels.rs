//! Micro-benchmarks for the batched codec kernels: chunked varint decode,
//! frame-of-reference bit packing, run-aware RLE, bulk little-endian f32 streams, envelope serialization
//! (fresh and reused buffer), the LZ block kernel, the stripe encoder and
//! the stripe decoder — the hot loops behind the fastpath, wire, ingest and
//! extract numbers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dsi_types::{Batch, FeatureId, FeatureKind, MiniBatchTensor, Sample, SparseList, WorkerId};
use dwrf::compress::{compress_into, compress_scalar, decompress_into};
use dwrf::encoding::{
    read_f32s, read_packed, read_varint, read_varints_into, rle_decode, rle_encode, write_f32s,
    write_f32s_xor, write_packed, write_varint, write_varints,
};
use dwrf::stream::encode_columns;
use dwrf::{CoalescePolicy, FileReader, FileWriter, SliceSource, WriterOptions};
use std::hint::black_box;
use synth::{RmProfile, SampleGenerator};
use wire::codec::{decode_envelope, encode_envelope, encode_envelope_into};
use wire::WireEnvelope;

const N: usize = 4096;

/// Mixed-width values: mostly single-byte (the common hashed-id residue),
/// with multi-byte stragglers so the chunked word path and the scalar tail
/// both run.
fn varint_values() -> Vec<u64> {
    (0..N as u64)
        .map(|i| {
            if i % 7 == 0 {
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            } else {
                i % 128
            }
        })
        .collect()
}

fn bench_varint(c: &mut Criterion) {
    let values = varint_values();
    let mut encoded = Vec::new();
    for &v in &values {
        write_varint(&mut encoded, v);
    }
    let mut group = c.benchmark_group("codec_varint");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("encode", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(encoded.len());
            for &v in &values {
                write_varint(&mut out, v);
            }
            black_box(out)
        })
    });
    group.bench_function("decode_scalar_loop", |b| {
        b.iter(|| {
            let mut pos = 0;
            let mut out = Vec::with_capacity(N);
            for _ in 0..N {
                out.push(read_varint(&encoded, &mut pos).expect("valid"));
            }
            black_box(out)
        })
    });
    group.bench_function("decode_chunked", |b| {
        b.iter(|| {
            let mut pos = 0;
            let mut out = Vec::with_capacity(N);
            read_varints_into(&encoded, &mut pos, N, &mut out).expect("valid");
            black_box(out)
        })
    });
    // Delta-encoded CSR offsets are almost entirely single-byte varints —
    // the shape the 8-wide probe is built for.
    let small: Vec<u64> = (0..N as u64).map(|i| i % 96).collect();
    let mut encoded_small = Vec::new();
    write_varints(&mut encoded_small, &small);
    group.bench_function("decode_scalar_loop_small", |b| {
        b.iter(|| {
            let mut pos = 0;
            let mut out = Vec::with_capacity(N);
            for _ in 0..N {
                out.push(read_varint(&encoded_small, &mut pos).expect("valid"));
            }
            black_box(out)
        })
    });
    group.bench_function("decode_chunked_small", |b| {
        b.iter(|| {
            let mut pos = 0;
            let mut out = Vec::with_capacity(N);
            read_varints_into(&encoded_small, &mut pos, N, &mut out).expect("valid");
            black_box(out)
        })
    });
    group.finish();
}

/// `Data` stream packing at the widths RM1 stores: 20-bit ids once a
/// feature's `salt × 1,000,003` base is taken off, and 12-bit dictionary
/// indexes (dictionaries of up to 4,096 ids).
fn bench_packed(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_packed");
    group.throughput(Throughput::Elements(N as u64));
    for width in [20u32, 12] {
        let base = 17 * 1_000_003;
        let values: Vec<u64> = (0..N as u64)
            .map(|i| base + (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - width)))
            .collect();
        let mut packed = Vec::new();
        write_packed(&mut packed, &values);
        group.bench_function(format!("pack_{width}bit"), |b| {
            let mut out = Vec::with_capacity(packed.len());
            b.iter(|| {
                out.clear();
                write_packed(&mut out, black_box(&values));
                black_box(out.len())
            })
        });
        group.bench_function(format!("unpack_{width}bit"), |b| {
            let mut out = Vec::with_capacity(N);
            b.iter(|| {
                out.clear();
                read_packed(black_box(&packed), N, &mut out).expect("valid");
                black_box(out.len())
            })
        });
    }
    group.finish();
}

fn bench_rle(c: &mut Criterion) {
    // Run-heavy (offsets of mostly-empty rows) and run-free (hashed ids)
    // inputs hit the repeat and literal arms respectively.
    let runs: Vec<u64> = (0..N as u64).map(|i| (i / 64) * 3).collect();
    let literals: Vec<u64> = (0..N as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut group = c.benchmark_group("codec_rle");
    group.throughput(Throughput::Elements(N as u64));
    for (name, data) in [("runs", &runs), ("literals", &literals)] {
        let encoded = rle_encode(data);
        group.bench_function(format!("encode_{name}"), |b| {
            b.iter(|| black_box(rle_encode(black_box(data))))
        });
        group.bench_function(format!("decode_{name}"), |b| {
            b.iter(|| black_box(rle_decode(black_box(&encoded)).expect("valid")))
        });
    }
    group.finish();
}

fn bench_f32(c: &mut Criterion) {
    let values: Vec<f32> = (0..N).map(|i| (i as f32) * 0.37 - 100.0).collect();
    // write_f32s emits raw little-endian bytes; read_f32s takes the same stream.
    let mut raw = Vec::new();
    write_f32s(&mut raw, &values);
    let mut group = c.benchmark_group("codec_f32");
    group.throughput(Throughput::Bytes((values.len() * 4) as u64));
    group.bench_function("encode", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            write_f32s(&mut out, black_box(&values));
            black_box(out)
        })
    });
    group.bench_function("decode", |b| {
        b.iter(|| black_box(read_f32s(black_box(&raw)).expect("valid")))
    });
    // The `DenseData` and `Label` writer: varint XOR deltas.
    group.bench_function("encode_xor", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            write_f32s_xor(&mut out, black_box(&values));
            black_box(out.len())
        })
    });
    group.finish();
}

fn sample_envelope() -> WireEnvelope {
    let mut batch = Batch::new();
    for i in 0..256u64 {
        let mut s = Sample::new((i % 2) as f32);
        for f in 0..32u64 {
            s.set_dense(FeatureId(f), (i ^ f) as f32 * 0.01);
        }
        for f in 32..48u64 {
            s.set_sparse(
                FeatureId(f),
                SparseList::from_ids((0..8).map(|k| i * 31 + k * f).collect()),
            );
        }
        batch.push(s);
    }
    let dense: Vec<FeatureId> = (0..32).map(FeatureId).collect();
    let sparse: Vec<FeatureId> = (32..48).map(FeatureId).collect();
    envelope_of(batch.materialize(&dense, &sparse))
}

fn envelope_of(tensor: MiniBatchTensor) -> WireEnvelope {
    WireEnvelope {
        split: 7,
        seq: 0,
        last: false,
        worker: WorkerId(1),
        trace_id: 0,
        parent_span: 0,
        tensor,
    }
}

fn bench_envelope(c: &mut Criterion) {
    let env = sample_envelope();
    let bytes = encode_envelope(&env);
    let mut group = c.benchmark_group("codec_envelope");
    group.sample_size(30);
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("serialize_fresh_alloc", |b| {
        b.iter(|| black_box(encode_envelope(black_box(&env))))
    });
    group.bench_function("serialize_reused_buf", |b| {
        let mut buf = Vec::with_capacity(bytes.len());
        b.iter(|| {
            buf.clear();
            encode_envelope_into(black_box(&env), &mut buf);
            black_box(buf.len())
        })
    });
    group.bench_function("deserialize", |b| {
        b.iter(|| black_box(decode_envelope(black_box(&bytes)).expect("valid")))
    });
    group.finish();
}

/// The shape dsibench stores and ships: 120 logged RM1 features.
fn rm1_rows(n: usize) -> (dsi_types::Schema, Vec<Sample>) {
    let schema = RmProfile::rm1().build_schema(120);
    let rows = SampleGenerator::new(&schema, 0xbe7c).take_samples(n);
    (schema, rows)
}

/// The block compressor against its scalar reference (same bytes out) on
/// the two sizes it meets. On a few-KiB column stream the reference's
/// per-call table allocation and fill is most of a call, and reuse shows.
/// On a ~700 KiB tensor frame that is amortised; what is left is the probe
/// on every byte whose slot is live, which compares the word the slot
/// carries instead of loading the candidate's bytes from elsewhere in the
/// input, so the same match search runs faster without changing a byte.
///
/// One column stream compressed over and over is not what the writer
/// does, and the two disagree: `lz_rm1_stripe_streams` compresses every
/// stream of one RM1 stripe in turn, as `FileWriter` does.
fn bench_lz(c: &mut Criterion) {
    let (schema, rows) = rm1_rows(1024);
    let streams: Vec<Vec<u8>> = encode_columns(&rows, true)
        .into_iter()
        .flat_map(|(_, streams)| streams)
        .map(|(_, raw)| raw)
        .collect();
    let column_stream = streams
        .iter()
        .filter(|raw| compress_scalar(raw)[0] == 1) // an LZ block, not stored
        .min_by_key(|raw| raw.len().abs_diff(2048))
        .expect("an RM1 stripe has compressible columns")
        .clone();
    let mut batch = Batch::new();
    for row in &rows[..600] {
        batch.push(row.clone());
    }
    let tensor_frame = encode_envelope(&envelope_of(batch.materialize(
        &schema.ids_of_kind(FeatureKind::Dense),
        &schema.ids_of_kind(FeatureKind::Sparse),
    )));
    for (name, input) in [
        ("column_stream", &column_stream),
        ("tensor_frame", &tensor_frame),
    ] {
        let block = compress_scalar(input);
        let mut group = c.benchmark_group(format!("lz_{name}_{}B", input.len()));
        group.sample_size(30);
        group.throughput(Throughput::Bytes(input.len() as u64));
        group.bench_function("compress_scalar", |b| {
            b.iter(|| black_box(compress_scalar(black_box(input))))
        });
        group.bench_function("compress_into", |b| {
            let mut out = Vec::new();
            b.iter(|| {
                out.clear();
                compress_into(black_box(input), &mut out);
                black_box(out.len())
            })
        });
        group.bench_function("decompress_into", |b| {
            let mut out = Vec::new();
            b.iter(|| {
                decompress_into(black_box(&block), &mut out).expect("valid");
                black_box(out.len())
            })
        });
        group.finish();
    }
    let mut group = c.benchmark_group("lz_rm1_stripe_streams");
    group.sample_size(30);
    group.throughput(Throughput::Bytes(
        streams.iter().map(|s| s.len() as u64).sum(),
    ));
    group.bench_function("compress_scalar", |b| {
        b.iter(|| {
            for stream in &streams {
                black_box(compress_scalar(black_box(stream)));
            }
        })
    });
    group.bench_function("compress_into", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            for stream in &streams {
                out.clear();
                compress_into(black_box(stream), &mut out);
                black_box(out.len());
            }
        })
    });
    group.finish();
}

/// `rows` with their dense features dropped.
fn sparse_only(rows: &[Sample]) -> Vec<Sample> {
    rows.iter()
        .map(|row| {
            let mut s = Sample::new(row.label());
            for (feature, list) in row.sparse_iter() {
                s.set_sparse(feature, list.clone());
            }
            s
        })
        .collect()
}

/// The dictionary decision alone: the 15 sparse columns of one 1,024-row
/// stripe (dense features dropped) through `encode_columns`, where each
/// column decides whether its ids take a `Dict` and those that do are
/// rewritten as ranks. `rm1` is the RM1 stripe dsibench stores (ids below
/// 10^6, 10 of 15 columns take a `Dict`); `hashed` is the same schema with
/// 64-bit hashed ids, as production logs them and `tests/format_pin.rs`
/// writes them, where a radix pass per key byte would show.
fn bench_dict_decision(c: &mut Criterion) {
    let (schema, rows) = rm1_rows(1024);
    let hashed = SampleGenerator::new(&schema, 0xbe7c)
        .with_hashed_ids()
        .take_samples(1024);
    let mut group = c.benchmark_group("dict_decision");
    group.sample_size(20);
    group.throughput(Throughput::Elements(rows.len() as u64));
    for (name, rows) in [
        ("rm1_1024_rows_sparse", rows),
        ("hashed_1024_rows_sparse", hashed),
    ] {
        let sparse_rows = sparse_only(&rows);
        group.bench_function(name, |b| {
            b.iter(|| black_box(encode_columns(black_box(&sparse_rows), true).len()))
        });
    }
    group.finish();
}

/// One 1,024-row RM1 stripe through `FileWriter` (transpose, encode,
/// compress, encrypt, checksum): the unit of `dwrf.encode_s` on `ingest`.
/// `push` takes rows by value, so each iteration also clones them in.
fn bench_stripe_encode(c: &mut Criterion) {
    let (_, rows) = rm1_rows(1024);
    let mut group = c.benchmark_group("stripe_encode");
    group.sample_size(20);
    group.throughput(Throughput::Elements(rows.len() as u64));
    group.bench_function("rm1_1024_rows", |b| {
        b.iter(|| {
            let mut writer = FileWriter::new(WriterOptions::default());
            for row in &rows {
                writer.push(row.clone());
            }
            black_box(writer.finish().expect("non-empty").len())
        })
    });
    group.finish();
}

/// The column encoder alone on borrowed rows: one 1,024-row RM1 stripe,
/// dense features included, through `encode_columns` (transpose, dictionary
/// decision, packing, XOR floats; no LZ, cipher or row clone), so a writer
/// gain is not diluted by `stripe_encode`'s per-iteration clone.
fn bench_column_encode(c: &mut Criterion) {
    let (_, rows) = rm1_rows(1024);
    let mut group = c.benchmark_group("column_encode");
    group.sample_size(20);
    group.throughput(Throughput::Elements(rows.len() as u64));
    group.bench_function("rm1_1024_rows", |b| {
        b.iter(|| black_box(encode_columns(black_box(&rows), true).len()))
    });
    group.finish();
}

/// One 1,024-row stripe through `FileReader::read_stripe_from` (checksum,
/// decrypt, inflate, column decode, row assembly), unprojected: the unit
/// of `dwrf.decode_self_s`. RM1 and RM3 as dsibench stores them, encoded
/// (compressed + encrypted, `train_rm1_secure` / `extract_bound`) and raw
/// (`transform_bound` / `wire_bound`), where only column decode and row
/// assembly are left.
fn bench_stripe_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("stripe_decode");
    group.sample_size(20);
    group.throughput(Throughput::Elements(1024));
    for (name, profile) in [("rm1", RmProfile::rm1()), ("rm3", RmProfile::rm3())] {
        let schema = profile.build_schema(120);
        let rows = SampleGenerator::new(&schema, 0xbe7c).take_samples(1024);
        for (storage, encoded) in [("encoded", true), ("raw", false)] {
            let mut writer = FileWriter::new(WriterOptions {
                compressed: encoded,
                encrypted: encoded,
                ..Default::default()
            });
            for row in &rows {
                writer.push(row.clone());
            }
            let file = writer.finish().expect("non-empty");
            let reader = FileReader::open(file.bytes().clone()).expect("valid file");
            let mut source = SliceSource::new(file.bytes().clone());
            group.bench_function(format!("{name}_{storage}"), |b| {
                b.iter(|| {
                    let (rows, _) = reader
                        .read_stripe_from(0, None, CoalescePolicy::default_window(), &mut source)
                        .expect("valid stripe");
                    black_box(rows.len())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_varint,
    bench_packed,
    bench_rle,
    bench_f32,
    bench_envelope,
    bench_lz,
    bench_dict_decision,
    bench_stripe_encode,
    bench_column_encode,
    bench_stripe_decode
);
criterion_main!(benches);
