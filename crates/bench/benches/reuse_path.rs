//! Criterion micro-benchmarks for the reuse hot path: view probe
//! and append throughput (single- and multi-threaded) plus FunCache hit
//! throughput. The multi-threaded variants hammer one shared
//! `StorageEngine` from several OS threads, exercising the sharded
//! registry and per-view read locks.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;

use eva_bench::{car_chunk, funcache_car_batch};
use eva_common::{DataType, Field, FrameId, Schema, SimClock};
use eva_exec::FunCacheTable;
use eva_storage::{StorageEngine, ViewKey, ViewKeyKind};

const N_KEYS: u64 = 10_000;
const PROBE_BATCH: u64 = 1024;
const N_THREADS: usize = 4;

fn out_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![Field::new("label", DataType::Str)]).unwrap())
}

fn seeded_engine() -> (StorageEngine, eva_common::ViewId) {
    let eng = StorageEngine::new();
    let clock = SimClock::new();
    let view = eng.create_view("bench", ViewKeyKind::Frame, out_schema());
    let (entries, chunk) = car_chunk(0, N_KEYS);
    eng.view_append(view, &entries, &chunk, &clock).unwrap();
    (eng, view)
}

fn probe_keys(offset: u64) -> Vec<ViewKey> {
    (0..PROBE_BATCH)
        .map(|i| ViewKey::frame(FrameId((offset + i * 7) % N_KEYS)))
        .collect()
}

fn bench_probe(c: &mut Criterion) {
    let (eng, view) = seeded_engine();
    let clock = SimClock::new();
    let keys = probe_keys(0);

    // Sanity: gathered hit rows equal the appended rows.
    let hits = eng.view_probe_uncharged(view, &keys).unwrap();
    assert_eq!(hits.columns, car_chunk(0, PROBE_BATCH).1);

    let mut group = c.benchmark_group("reuse_path/probe");
    group.throughput(Throughput::Elements(PROBE_BATCH));
    group.bench_function("single_thread_1024", |b| {
        b.iter(|| black_box(eng.view_probe(view, black_box(&keys), &clock).unwrap()))
    });
    group.throughput(Throughput::Elements(PROBE_BATCH * N_THREADS as u64));
    group.bench_function("four_threads_1024_each", |b| {
        b.iter(|| {
            let handles: Vec<_> = (0..N_THREADS)
                .map(|t| {
                    let eng = eng.clone();
                    let keys = probe_keys(t as u64 * 131);
                    std::thread::spawn(move || {
                        let clock = SimClock::new();
                        eng.view_probe(view, &keys, &clock).unwrap().n_rows()
                    })
                })
                .collect();
            let n: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            black_box(n)
        })
    });
    group.finish();
}

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("reuse_path/append");
    group.throughput(Throughput::Elements(PROBE_BATCH));
    group.bench_function("single_thread_1024_new", |b| {
        let (eng, view) = seeded_engine();
        let clock = SimClock::new();
        let mut next = N_KEYS;
        b.iter(|| {
            let (entries, chunk) = car_chunk(next, PROBE_BATCH);
            next += PROBE_BATCH;
            eng.view_append(view, &entries, &chunk, &clock).unwrap();
        })
    });
    group.throughput(Throughput::Elements(PROBE_BATCH * N_THREADS as u64));
    group.bench_function("four_threads_private_views", |b| {
        let eng = StorageEngine::new();
        let views: Vec<_> = (0..N_THREADS)
            .map(|t| eng.create_view(format!("w{t}"), ViewKeyKind::Frame, out_schema()))
            .collect();
        let mut round = 0u64;
        b.iter(|| {
            let base = round * PROBE_BATCH;
            round += 1;
            let handles: Vec<_> = views
                .iter()
                .map(|&view| {
                    let eng = eng.clone();
                    std::thread::spawn(move || {
                        let clock = SimClock::new();
                        let (entries, chunk) = car_chunk(base, PROBE_BATCH);
                        eng.view_append(view, &entries, &chunk, &clock).unwrap();
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        })
    });
    group.finish();
}

fn bench_funcache(c: &mut Criterion) {
    let cache = FunCacheTable::new();
    funcache_car_batch(&cache, 0..N_KEYS);
    let mut group = c.benchmark_group("reuse_path/funcache");
    group.throughput(Throughput::Elements(PROBE_BATCH));
    group.bench_function("hit_1024", |b| {
        b.iter(|| {
            let ids = (0..PROBE_BATCH).map(|i| (i * 7) % N_KEYS);
            black_box(funcache_car_batch(&cache, ids))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_probe, bench_append, bench_funcache);
criterion_main!(benches);
