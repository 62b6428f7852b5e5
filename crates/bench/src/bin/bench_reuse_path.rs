//! Wall-clock snapshot of the reuse hot path, written to
//! `experiments_out/BENCH_reuse_path.json` by the experiment suite.
//!
//! Unlike the paper-figure binaries (which report *simulated* time), this
//! one measures real throughput of the concurrent view store and FunCache:
//! probe and append ops/sec single-threaded and across threads hammering
//! one shared `StorageEngine`. It is the repeatable record that the sharded
//! registry actually scales — compare snapshots across commits.

use std::sync::Arc;
use std::time::Instant;

use eva_bench::{banner, car_chunk, funcache_car_batch, write_json_with_metrics, TextTable};
use eva_common::{DataType, Field, FrameId, MetricsSnapshot, Schema, SimClock};
use eva_exec::FunCacheTable;
use eva_storage::{StorageEngine, ViewKey, ViewKeyKind};

const N_KEYS: u64 = 10_000;
const BATCH: u64 = 1024;
const ROUNDS: u64 = 200;
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

fn keys(offset: u64) -> Vec<ViewKey> {
    (0..BATCH)
        .map(|i| ViewKey::frame(FrameId((offset + i * 7) % N_KEYS)))
        .collect()
}

/// Keys probed per second, single caller.
fn probe_single() -> (f64, MetricsSnapshot) {
    let (eng, view) = seeded_engine();
    let clock = SimClock::new();
    let ks = keys(0);
    // Sanity: gathered hit rows equal the appended rows.
    let hits = eng.view_probe_uncharged(view, &ks).unwrap();
    assert_eq!(hits.columns, car_chunk(0, BATCH).1);
    let start = Instant::now();
    for _ in 0..ROUNDS {
        let out = eng.view_probe(view, &ks, &clock).unwrap();
        assert_eq!(out.n_rows(), ks.len());
    }
    let ops = (ROUNDS * BATCH) as f64 / start.elapsed().as_secs_f64();
    (ops, eng.metrics().snapshot())
}

/// Keys probed per second, `N_THREADS` callers on one shared engine.
fn probe_multi() -> (f64, MetricsSnapshot) {
    let (eng, view) = seeded_engine();
    let start = Instant::now();
    let handles: Vec<_> = (0..N_THREADS)
        .map(|t| {
            let eng = eng.clone();
            std::thread::spawn(move || {
                let clock = SimClock::new();
                let ks = keys(t as u64 * 131);
                for _ in 0..ROUNDS {
                    eng.view_probe(view, &ks, &clock).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let ops = (N_THREADS as u64 * ROUNDS * BATCH) as f64 / start.elapsed().as_secs_f64();
    (ops, eng.metrics().snapshot())
}

/// Rows appended per second, single caller.
fn append_single() -> (f64, MetricsSnapshot) {
    let (eng, view) = seeded_engine();
    let clock = SimClock::new();
    let start = Instant::now();
    let mut next = N_KEYS;
    for _ in 0..ROUNDS {
        let (entries, chunk) = car_chunk(next, BATCH);
        next += BATCH;
        eng.view_append(view, &entries, &chunk, &clock).unwrap();
    }
    let ops = (ROUNDS * BATCH) as f64 / start.elapsed().as_secs_f64();
    (ops, eng.metrics().snapshot())
}

/// Rows appended per second, each thread on its own view (no contention).
fn append_multi() -> (f64, MetricsSnapshot) {
    let eng = StorageEngine::new();
    let views: Vec<_> = (0..N_THREADS)
        .map(|t| eng.create_view(format!("w{t}"), ViewKeyKind::Frame, out_schema()))
        .collect();
    let start = Instant::now();
    let handles: Vec<_> = views
        .into_iter()
        .map(|view| {
            let eng = eng.clone();
            std::thread::spawn(move || {
                let clock = SimClock::new();
                let mut next = 0u64;
                for _ in 0..ROUNDS {
                    let (entries, chunk) = car_chunk(next, BATCH);
                    next += BATCH;
                    eng.view_append(view, &entries, &chunk, &clock).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let ops = (N_THREADS as u64 * ROUNDS * BATCH) as f64 / start.elapsed().as_secs_f64();
    (ops, eng.metrics().snapshot())
}

/// FunCache hits per second (hash + lookup + the batch's gather), single
/// caller. The raw table records no engine metrics (the apply operator does
/// that in real queries), so its snapshot is empty.
fn funcache_hits() -> (f64, MetricsSnapshot) {
    let cache = FunCacheTable::new();
    funcache_car_batch(&cache, 0..N_KEYS);
    let start = Instant::now();
    let mut hits = 0u64;
    for _ in 0..ROUNDS {
        hits += funcache_car_batch(&cache, (0..BATCH).map(|i| (i * 7) % N_KEYS)) as u64;
    }
    assert_eq!(hits, ROUNDS * BATCH);
    let ops = (ROUNDS * BATCH) as f64 / start.elapsed().as_secs_f64();
    (ops, MetricsSnapshot::default())
}

fn main() {
    banner("BENCH reuse path: concurrent view store throughput");
    let results = [
        ("probe_single_thread", probe_single()),
        ("probe_4_threads", probe_multi()),
        ("append_single_thread", append_single()),
        ("append_4_threads_private", append_multi()),
        ("funcache_hit_single_thread", funcache_hits()),
    ];

    let mut table = TextTable::new(vec!["case", "ops/sec"]);
    for (name, (ops, _)) in &results {
        table.row(vec![name.to_string(), format!("{ops:.0}")]);
    }
    println!("{}", table.render());

    let mut metrics = MetricsSnapshot::default();
    let json: Vec<serde_json::Value> = results
        .iter()
        .map(|(name, (ops, m))| {
            metrics = metrics.plus(m);
            serde_json::json!({
                "case": name,
                "ops_per_sec": ops,
                "batch": BATCH,
                "threads": if name.contains("4_threads") { N_THREADS } else { 1 },
            })
        })
        .collect();
    write_json_with_metrics("BENCH_reuse_path", &json, &metrics);
}
