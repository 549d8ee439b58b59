//! Simulated storage-node service: random reads at Table VI-like IO sizes
//! versus coalesced 1.25 MiB reads, and client-path throughput.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hwsim::{DiskModel, IoRequest};
use std::hint::black_box;
use tectonic::{ClusterConfig, TectonicCluster};

fn bench_device_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdd_model");
    group.sample_size(30);
    // Model arithmetic itself (the per-IO bookkeeping DPP pays).
    group.bench_function("serve_1k_random_ios", |b| {
        b.iter(|| {
            let mut hdd = DiskModel::hdd();
            let mut total = 0u64;
            for i in 0..1_000u64 {
                total += hdd.serve(IoRequest::new((i * 7_919_333) % (1 << 40), 23_200));
            }
            black_box(total)
        })
    });
    group.finish();
}

fn bench_cluster_reads(c: &mut Criterion) {
    let cluster = TectonicCluster::new(ClusterConfig {
        nodes: 8,
        block_size: 4 << 20,
        replication: 3,
        hdd: true,
    });
    let file: Vec<u8> = (0..(16u32 << 20)).map(|i| (i % 251) as u8).collect();
    cluster
        .append("bench/file", Bytes::from(file))
        .expect("capacity");

    let mut group = c.benchmark_group("tectonic_read");
    group.sample_size(20);
    for (name, io) in [("small_23k", 23_200u64), ("coalesced_1m", 1 << 20)] {
        let reads = 64u64;
        group.throughput(Throughput::Bytes(io * reads));
        group.bench_function(name, |b| {
            b.iter(|| {
                for i in 0..reads {
                    let off = (i * 104_729) % ((16 << 20) - io);
                    black_box(cluster.read_view("bench/file", off, io).expect("in range"));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_device_model, bench_cluster_reads);
criterion_main!(benches);
