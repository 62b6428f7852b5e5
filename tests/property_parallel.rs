//! Morsel-driven parallelism: parallel == serial identity (DESIGN.md §4g).
//!
//! The executor's contract is that engaging the parallel pipeline changes
//! *nothing observable* except wall-clock time and the three new
//! scheduling counters:
//!
//! * results are byte-identical to a serial run with
//!   `batch_size == morsel_rows` — including row order and float values
//!   (per-morsel partial aggregates merge in morsel order, reproducing the
//!   serial per-batch fold exactly);
//! * the simulated `CostBreakdown` is bit-identical (all clock charges are
//!   replayed on the caller thread, morsel by morsel), whatever the
//!   session clock already read when the query started;
//! * deterministic metrics and per-operator `EXPLAIN ANALYZE` stats match
//!   the serial run, and none of it varies with the worker count;
//! * `morsels_dispatched` / `parallel_pipelines` depend only on the plan
//!   shape and configuration, never on scheduling.

use std::sync::Arc;

use eva_common::{CostCategory, DataType, Field, MetricsSnapshot, Schema, SimClock};
use eva_exec::{execute_with_pool, ExecConfig, FunCacheTable, QueryOutput, WorkerPool};
use eva_expr::{AggFunc, Expr};
use eva_planner::PhysPlan;
use eva_storage::StorageEngine;
use eva_udf::{InvocationStats, UdfRegistry};
use eva_video::generator::generate;
use eva_video::VideoConfig;

const N: u64 = 6_000;

fn storage_with_dataset() -> StorageEngine {
    let storage = StorageEngine::new();
    storage.load_dataset(generate(VideoConfig {
        name: "pp".into(),
        n_frames: N,
        width: 100,
        height: 60,
        fps: 25.0,
        target_density: 3.0,
        person_fraction: 0.0,
        seed: 11,
    }));
    storage
}

fn scan_schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("timestamp", DataType::Int),
            Field::new("frame", DataType::Int),
        ])
        .unwrap(),
    )
}

fn scan(range: (u64, u64)) -> PhysPlan {
    PhysPlan::ScanFrames {
        id: eva_common::OpId::UNSET,
        table: "video".into(),
        dataset: "pp".into(),
        range,
        schema: scan_schema(),
    }
}

/// `Filter(id in [lo, hi)) → Project(id, ts)` — a concat-mode segment.
fn concat_plan(lo: u64, hi: u64) -> PhysPlan {
    let filt = PhysPlan::Filter {
        id: eva_common::OpId::UNSET,
        input: Box::new(scan((0, N))),
        predicate: Expr::col("id")
            .ge(lo as i64)
            .and(Expr::col("id").lt(hi as i64)),
    };
    PhysPlan::Project {
        id: eva_common::OpId::UNSET,
        input: Box::new(filt),
        items: vec![
            (Expr::col("id"), "id".into()),
            (Expr::col("timestamp"), "ts".into()),
        ],
        schema: Arc::new(
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("ts", DataType::Int),
            ])
            .unwrap(),
        ),
    }
}

/// The same segment capped by an aggregate pipeline breaker.
fn breaker_plan(lo: u64, hi: u64) -> PhysPlan {
    PhysPlan::Aggregate {
        id: eva_common::OpId::UNSET,
        input: Box::new(concat_plan(lo, hi)),
        group_by: vec![],
        aggs: vec![
            (AggFunc::Count, None, "n".into()),
            (AggFunc::Sum, Some(Expr::col("id")), "s".into()),
            (AggFunc::Min, Some(Expr::col("ts")), "lo_ts".into()),
            (AggFunc::Max, Some(Expr::col("ts")), "hi_ts".into()),
            (AggFunc::Avg, Some(Expr::col("id")), "a".into()),
        ],
        schema: Arc::new(
            Schema::new(vec![
                Field::new("n", DataType::Int),
                Field::new("s", DataType::Float),
                Field::new("lo_ts", DataType::Int),
                Field::new("hi_ts", DataType::Int),
                Field::new("a", DataType::Float),
            ])
            .unwrap(),
        ),
    }
}

/// Session clock readings a query may start from: zero, and a balance that
/// is no whole number of any cost unit, as mid-session.
const STARTS_NS: [u64; 2] = [0, 1_234_567_891];

fn run(
    storage: &StorageEngine,
    plan: &PhysPlan,
    config: ExecConfig,
    pool: Option<&WorkerPool>,
) -> QueryOutput {
    run_from(storage, plan, config, pool, 0)
}

/// [`run`] on a session clock that already reads `start_ns`.
fn run_from(
    storage: &StorageEngine,
    plan: &PhysPlan,
    config: ExecConfig,
    pool: Option<&WorkerPool>,
    start_ns: u64,
) -> QueryOutput {
    let registry = UdfRegistry::new();
    let stats = InvocationStats::new();
    let clock = SimClock::new();
    clock.charge(CostCategory::Other, start_ns);
    let funcache = FunCacheTable::new();
    execute_with_pool(
        plan, storage, &registry, &stats, &clock, &funcache, config, pool,
    )
    .expect("query execution")
}

fn serial_cfg(batch: usize) -> ExecConfig {
    ExecConfig {
        batch_size: batch,
        parallel_scan_min_rows: 0, // parallelism disabled
        ..ExecConfig::default()
    }
}

fn parallel_cfg(morsel: usize) -> ExecConfig {
    ExecConfig {
        morsel_rows: morsel,
        parallel_scan_min_rows: 1, // always engage
        ..ExecConfig::default()
    }
}

/// Deterministic counters with the parallel-only ones cleared, so serial
/// and parallel snapshots can be compared field-for-field.
fn core_counters(m: &MetricsSnapshot) -> MetricsSnapshot {
    let mut d = m.deterministic();
    d.morsels_dispatched = 0;
    d.parallel_pipelines = 0;
    d
}

/// The identity every (plan, morsel size, worker count) combination must
/// satisfy against the serial run with `batch_size == morsel_rows`.
fn assert_identical(serial: &QueryOutput, par: &QueryOutput, what: &str) {
    assert_eq!(serial.batch.rows(), par.batch.rows(), "{what}: result rows");
    assert_eq!(serial.breakdown, par.breakdown, "{what}: CostBreakdown");
    assert_eq!(
        core_counters(&serial.metrics),
        core_counters(&par.metrics),
        "{what}: deterministic metrics"
    );
    assert_eq!(
        serial.op_stats, par.op_stats,
        "{what}: EXPLAIN ANALYZE stats"
    );
}

#[test]
fn parallel_matches_serial_across_morsel_sizes_and_worker_counts() {
    let storage = storage_with_dataset();
    for (name, plan) in [
        ("concat", concat_plan(500, 4_700)),
        ("breaker", breaker_plan(500, 4_700)),
    ] {
        let mut plan = plan;
        plan.assign_op_ids();
        for (morsel, start_ns) in [1usize, 7, 64, 4096]
            .into_iter()
            .flat_map(|m| STARTS_NS.map(|s| (m, s)))
        {
            let serial = run_from(&storage, &plan, serial_cfg(morsel), None, start_ns);
            assert_eq!(serial.metrics.parallel_pipelines, 0, "serial stayed serial");
            let mut per_worker: Vec<QueryOutput> = Vec::new();
            for workers in [1usize, 2, 8] {
                let pool = WorkerPool::new(workers);
                let par = run_from(&storage, &plan, parallel_cfg(morsel), Some(&pool), start_ns);
                let what = format!("{name}, morsel={morsel}, workers={workers}, from {start_ns}ns");
                assert_identical(&serial, &par, &what);
                // Engagement and morsel count are deterministic: exactly one
                // pipeline, ceil(range / morsel) morsels, at any width.
                assert_eq!(par.metrics.parallel_pipelines, 1, "{what}");
                assert_eq!(
                    par.metrics.morsels_dispatched,
                    N.div_ceil(morsel as u64),
                    "{what}"
                );
                per_worker.push(par);
            }
            // Everything observable is identical across worker counts too.
            for par in &per_worker[1..] {
                assert_identical(&per_worker[0], par, name);
            }
        }
    }
}

/// Steal-heavy shape: thousands of single-row morsels flood an 8-wide pool,
/// forcing constant deque stealing — the stitched output must not care.
#[test]
fn steal_heavy_single_row_morsels_stay_deterministic() {
    let storage = storage_with_dataset();
    let mut plan = breaker_plan(0, N);
    plan.assign_op_ids();
    let serial = run(&storage, &plan, serial_cfg(1), None);
    let pool = WorkerPool::new(8);
    let par = run(&storage, &plan, parallel_cfg(1), Some(&pool));
    assert_identical(&serial, &par, "steal-heavy");
    assert_eq!(par.metrics.morsels_dispatched, N);
    // Stolen morsels are scheduling-dependent and must be masked.
    assert_eq!(par.metrics.deterministic().morsels_stolen, 0);
}

/// Concurrent queries hammering one shared pool: every query's rows must
/// come back identical to the serial reference, and the shared counters
/// must add up exactly (they are charged once per query on caller threads).
#[test]
fn concurrent_queries_share_the_pool_safely() {
    let storage = storage_with_dataset();
    let mut plan = breaker_plan(100, 5_900);
    plan.assign_op_ids();
    let reference = run(&storage, &plan, serial_cfg(256), None);
    let before = storage.metrics().snapshot();

    let pool = Arc::new(WorkerPool::new(4));
    let n_queries = 8;
    let results: Vec<QueryOutput> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..n_queries {
            let storage = storage.clone();
            let plan = &plan;
            let pool = Arc::clone(&pool);
            handles.push(s.spawn(move || run(&storage, plan, parallel_cfg(256), Some(&pool))));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for out in &results {
        assert_eq!(out.batch.rows(), reference.batch.rows());
        assert_eq!(out.breakdown, reference.breakdown);
    }
    // Session-total deltas: concurrent queries interleave, but the counters
    // are atomic sums charged once per query, so the totals are exact.
    let delta = storage.metrics().snapshot().since(&before);
    assert_eq!(delta.parallel_pipelines, n_queries as u64);
    assert_eq!(delta.morsels_dispatched, n_queries as u64 * N.div_ceil(256));
}
