//! Criterion micro-benchmarks for the storage engine and hashing: view
//! probe/append throughput and xxHash64 over frame-sized buffers.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;

use eva_bench::car_chunk;
use eva_common::hash::xxhash64;
use eva_common::{DataType, Field, FrameId, Schema, SimClock};
use eva_storage::{StorageEngine, ViewKey, ViewKeyKind};

fn bench_views(c: &mut Criterion) {
    let eng = StorageEngine::new();
    let clock = SimClock::new();
    let schema = Arc::new(Schema::new(vec![Field::new("label", DataType::Str)]).unwrap());
    let view = eng.create_view("bench", ViewKeyKind::Frame, schema);
    let (entries, chunk) = car_chunk(0, 10_000);
    eng.view_append(view, &entries, &chunk, &clock).unwrap();

    let probe_keys: Vec<ViewKey> = (0..1024u64)
        .map(|i| ViewKey::frame(FrameId(i * 7)))
        .collect();
    let mut group = c.benchmark_group("storage");
    group.throughput(Throughput::Elements(probe_keys.len() as u64));
    group.bench_function("view_probe_1024", |b| {
        b.iter(|| {
            black_box(
                eng.view_probe(view, black_box(&probe_keys), &clock)
                    .unwrap(),
            )
        })
    });
    group.bench_function("view_append_1024_new", |b| {
        let mut next = 100_000u64;
        b.iter(|| {
            let (entries, chunk) = car_chunk(next, 1024);
            next += 1024;
            eng.view_append(view, &entries, &chunk, &clock).unwrap();
        })
    });
    group.finish();
}

fn bench_hash(c: &mut Criterion) {
    let frame: Vec<u8> = (0..1_555_200usize).map(|i| (i * 31) as u8).collect(); // 960×540×3
    let mut group = c.benchmark_group("xxhash64");
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function("frame_payload", |b| {
        b.iter(|| black_box(xxhash64(black_box(&frame), 0)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_views, bench_hash
}
criterion_main!(benches);
