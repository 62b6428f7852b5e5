//! Property tests for the runtime-metrics counters (DESIGN.md
//! §Observability): whatever random exploratory workload runs, the counter
//! algebra must hold exactly.
//!
//! * `probes == probe_hits + probe_misses` — a probe either hits or
//!   misses; the fuzzy phase refines the *same* probe, it never adds one.
//! * `udf_calls_requested == udf_calls_executed + udf_calls_avoided` —
//!   every requested invocation is either run or served from reuse.
//! * `fuzzy_hits <= probe_hits` — fuzzy hits are a subset of hits.
//! * Under `ReuseStrategy::NoReuse`, nothing is ever avoided.
//! * `plus` and `since` add and subtract every counter, and queries from
//!   several threads on one engine sum exactly.

use eva_common::metrics::{Counter, CounterClass};
use eva_common::rng::SmallRng;
use eva_common::testutil::{for_cases, vec_of};
use eva_common::{MetricsSnapshot, SimClock};
use eva_exec::{execute, ExecConfig, FunCacheTable, QueryOutput};
use eva_harness::test_session;
use eva_parser::{parse, Statement};
use eva_planner::ReuseStrategy;
use eva_storage::StorageEngine;
use eva_udf::{InvocationStats, UdfRegistry};

const N: u64 = 90;

#[derive(Debug, Clone)]
struct WindowQuery {
    lo: u64,
    hi: u64,
    cartype: Option<&'static str>,
}

impl WindowQuery {
    fn sql(&self) -> String {
        let mut preds = vec![
            format!("id >= {}", self.lo),
            format!("id < {}", self.hi),
            "label = 'car'".to_string(),
        ];
        if let Some(t) = self.cartype {
            preds.push(format!("cartype(frame, bbox) = '{t}'"));
        }
        format!(
            "SELECT id, bbox FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
             WHERE {}",
            preds.join(" AND ")
        )
    }
}

fn arb_query(rng: &mut SmallRng) -> WindowQuery {
    // A start and a length, clipped to the video: never an empty window.
    let a = rng.gen_range(0..N);
    let len = rng.gen_range(1..N);
    let cartype = rng
        .gen_bool(0.5)
        .then(|| *rng.pick(&["Nissan", "Toyota", "Honda"]));
    WindowQuery {
        lo: a.min(N - 1),
        hi: (a + len).min(N),
        cartype,
    }
}

// Each case runs several full queries; keep the case count low.
const SESSION_CASES: u32 = 8;

#[test]
fn counter_algebra_holds_on_random_workloads() {
    for_cases(81, SESSION_CASES, |rng| {
        let queries = vec_of(rng, 2..5, arb_query);
        let mut db = test_session(ReuseStrategy::Eva, rng.gen_range(1..1000), N);
        for q in &queries {
            let out = db.execute_sql(&q.sql()).unwrap().rows().unwrap();
            // Per-query delta invariants.
            let m = &out.metrics;
            assert_eq!(m.probes, m.probe_hits + m.probe_misses);
            assert_eq!(
                m.udf_calls_requested,
                m.udf_calls_executed + m.udf_calls_avoided
            );
            assert!(m.fuzzy_hits <= m.probe_hits);
        }
        // Session-total invariants.
        let m = db.metrics_snapshot();
        assert_eq!(m.probes, m.probe_hits + m.probe_misses);
        assert_eq!(
            m.udf_calls_requested,
            m.udf_calls_executed + m.udf_calls_avoided
        );
        assert!(m.fuzzy_hits <= m.probe_hits);
        assert!(m.udf_calls_requested > 0);
    });
}

#[test]
fn no_reuse_never_avoids_calls() {
    for_cases(82, SESSION_CASES, |rng| {
        let queries = vec_of(rng, 2..4, arb_query);
        let mut db = test_session(ReuseStrategy::NoReuse, rng.gen_range(1..1000), N);
        for q in &queries {
            db.execute_sql(&q.sql()).unwrap().rows().unwrap();
        }
        let m = db.metrics_snapshot();
        assert_eq!(m.udf_calls_avoided, 0);
        assert_eq!(m.probe_hits, 0);
        assert_eq!(m.rows_served_zero_copy, 0);
        assert_eq!(m.udf_calls_requested, m.udf_calls_executed);
    });
}

#[test]
fn snapshot_algebra_is_consistent() {
    for_cases(83, 256, |rng| {
        // Every counter of the table at random, then the structural
        // invariants the compound `record_*` helpers keep.
        let mut fill = || {
            let m = MetricsSnapshot::from_fn(|_| rng.gen_range(0..1_000_000));
            MetricsSnapshot {
                udf_calls_requested: m.udf_calls_executed + m.udf_calls_avoided,
                probes: m.probe_hits + m.probe_misses,
                fuzzy_hits: m.fuzzy_hits.min(m.probe_hits),
                ..m
            }
        };
        let (x, y) = (fill(), fill());
        // plus adds and since subtracts, counter by counter, for every
        // counter of the table — so they are inverses…
        let sum = x.plus(&y);
        for &c in Counter::ALL {
            assert_eq!(sum.get(c), x.get(c) + y.get(c), "{c:?}");
            assert_eq!(sum.since(&x).get(c), y.get(c), "{c:?}");
            assert_eq!(sum.since(&y).get(c), x.get(c), "{c:?}");
        }
        assert_eq!(sum.since(&y), x);
        assert_eq!(x.since(&x), MetricsSnapshot::default());
        // …and plus preserves the structural invariants.
        assert_eq!(sum.probes, sum.probe_hits + sum.probe_misses);
        assert_eq!(
            sum.udf_calls_requested,
            sum.udf_calls_executed + sum.udf_calls_avoided
        );
        assert!(sum.fuzzy_hits <= sum.probe_hits);
        // deterministic() clears exactly the scheduling-dependent counters;
        // governance outcomes and every other deterministic counter survive
        // it.
        let det = sum.deterministic();
        for &c in Counter::ALL {
            let kept = c.class() == CounterClass::Deterministic;
            assert_eq!(det.get(c), if kept { sum.get(c) } else { 0 }, "{c:?}");
        }
        assert_eq!(det.shard_lock_contention, 0);
        assert_eq!(det.degraded_queries, sum.degraded_queries);
    });
}

/// Queries from several threads interleaving on one shared storage engine:
/// each answers like a query run alone, and the engine's counters, charged
/// once per query by the thread that runs it, add up exactly.
#[test]
fn concurrent_queries_on_one_engine_add_up_exactly() {
    let db = test_session(ReuseStrategy::NoReuse, 7, 3_000);
    let sql = "SELECT COUNT(*), SUM(id), MIN(timestamp), MAX(timestamp), AVG(id) \
               FROM video WHERE id >= 100 AND id < 2900";
    let Statement::Select(stmt) = parse(sql).unwrap() else {
        panic!("a SELECT")
    };
    let plan = db.plan_select(&stmt).unwrap();
    let run = |storage: &StorageEngine| {
        execute(
            &plan,
            storage,
            &UdfRegistry::new(),
            &InvocationStats::new(),
            &SimClock::new(),
            &FunCacheTable::new(),
            ExecConfig {
                batch_size: 256,
                ..ExecConfig::default()
            },
        )
        .expect("query execution")
    };
    let reference = run(db.storage());
    let before = db.storage().metrics().snapshot();
    let n_queries = 4;
    let results: Vec<QueryOutput> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_queries)
            .map(|_| {
                let storage = db.storage().clone();
                let run = &run;
                s.spawn(move || run(&storage))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for out in &results {
        assert_eq!(out.batch.rows(), reference.batch.rows());
        assert_eq!(out.breakdown, reference.breakdown);
    }
    let delta = db
        .storage()
        .metrics()
        .snapshot()
        .since(&before)
        .deterministic();
    let want = reference.metrics.deterministic();
    for &c in Counter::ALL {
        assert_eq!(delta.get(c), n_queries * want.get(c), "{c:?}");
    }
    assert!(delta.frames_scanned > 0);
}
