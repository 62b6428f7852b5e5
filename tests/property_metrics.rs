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

use eva_common::metrics::{Counter, CounterClass};
use eva_common::rng::SmallRng;
use eva_common::testutil::{for_cases, vec_of};
use eva_common::MetricsSnapshot;
use eva_harness::test_session;
use eva_planner::ReuseStrategy;

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
        // plus/since are inverses…
        assert_eq!(x.plus(&y).since(&y), x);
        // …and plus preserves the structural invariants.
        let sum = x.plus(&y);
        assert_eq!(sum.probes, sum.probe_hits + sum.probe_misses);
        assert_eq!(
            sum.udf_calls_requested,
            sum.udf_calls_executed + sum.udf_calls_avoided
        );
        assert!(sum.fuzzy_hits <= sum.probe_hits);
        // deterministic() clears exactly the scheduling-dependent counters
        // and the gauges; governance outcomes, the morsel count and every
        // other deterministic counter survive it.
        let det = sum.deterministic();
        for &c in Counter::ALL {
            let kept = c.class() == CounterClass::Deterministic;
            assert_eq!(det.get(c), if kept { sum.get(c) } else { 0 }, "{c:?}");
        }
        assert_eq!(det.shard_lock_contention, 0);
        assert_eq!(det.morsels_stolen, 0);
        assert_eq!(det.n_workers, 0);
        assert_eq!(det.degraded_queries, sum.degraded_queries);
        assert_eq!(det.morsels_dispatched, sum.morsels_dispatched);
    });
}
