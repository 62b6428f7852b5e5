//! Result equivalence and relative-cost ordering across every system under
//! test: all strategies must return identical rows; only their simulated
//! costs may differ — and must differ in the directions the paper reports.

use eva_harness::{test_dataset, test_session};
use eva_planner::ReuseStrategy;
use eva_vbench::{run_workload, vbench_high, DetectorKind, Workload};

const STRATEGIES: [ReuseStrategy; 4] = [
    ReuseStrategy::NoReuse,
    ReuseStrategy::Eva,
    ReuseStrategy::HashStash,
    ReuseStrategy::FunCache,
];

#[test]
fn all_strategies_agree_on_full_workload() {
    let n = 200;
    let workload = Workload::new(
        "equiv",
        vbench_high(n, DetectorKind::Physical("fasterrcnn_resnet50"), false),
    );
    let mut counts: Option<Vec<usize>> = None;
    for strategy in STRATEGIES {
        let mut db = test_session(strategy, 301, n);
        let report = run_workload(&mut db, &workload).unwrap();
        match &counts {
            Some(c) => assert_eq!(c, &report.row_counts(), "strategy {strategy:?}"),
            None => counts = Some(report.row_counts()),
        }
    }
}

#[test]
fn rankings_do_not_change_results() {
    let n = 150;
    let sql = "SELECT id, bbox FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
               WHERE id < 100 AND label = 'car' AND cartype(frame, bbox) = 'Nissan' \
               AND colordet(frame, bbox) = 'Gray' ORDER BY id";
    let mut rows: Option<Vec<eva_common::Row>> = None;
    for ranking in [
        eva_planner::RankingKind::Canonical,
        eva_planner::RankingKind::MaterializationAware,
    ] {
        let mut db = test_session(ReuseStrategy::Eva, 302, n);
        let mut cfg = db.config();
        cfg.planner.ranking = ranking;
        db.set_config(cfg);
        // Warm up with a partial query so the rankings actually diverge.
        db.execute_sql(
            "SELECT id FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
             WHERE id < 100 AND label = 'car' AND cartype(frame, bbox) = 'Nissan'",
        )
        .unwrap()
        .rows()
        .unwrap();
        let out = db.execute_sql(sql).unwrap().rows().unwrap();
        match &rows {
            Some(r) => assert_eq!(r, out.batch.rows(), "ranking {ranking:?}"),
            None => rows = Some(out.batch.rows().to_vec()),
        }
    }
}

#[test]
fn eva_dominates_baselines_on_repetition() {
    // Three repetitions of the same query: EVA and FunCache fully reuse,
    // HashStash reuses the detector, No-Reuse pays thrice.
    let n = 120;
    let sql = "SELECT id FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
               WHERE id < 100 AND label = 'car' AND cartype(frame, bbox) = 'Honda'";
    let mut totals = std::collections::BTreeMap::new();
    for strategy in STRATEGIES {
        let mut db = test_session(strategy, 303, n);
        for _ in 0..3 {
            db.execute_sql(sql).unwrap().rows().unwrap();
        }
        totals.insert(format!("{strategy:?}"), db.cost_snapshot().total_ms());
    }
    let no = totals["NoReuse"];
    let eva = totals["Eva"];
    let hs = totals["HashStash"];
    let fc = totals["FunCache"];
    assert!(eva < hs, "EVA {eva} must beat HashStash {hs}");
    assert!(eva < fc, "EVA {eva} must beat FunCache {fc}");
    assert!(hs < no, "HashStash {hs} must beat No-Reuse {no}");
    assert!(fc < no, "FunCache {fc} must beat No-Reuse {no} here");
}

#[test]
fn funcache_pays_hashing_even_on_misses() {
    let n = 60;
    let mut db = test_session(ReuseStrategy::FunCache, 304, n);
    let out = db
        .execute_sql(
            "SELECT id FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
             WHERE id < 50 AND label = 'car'",
        )
        .unwrap()
        .rows()
        .unwrap();
    let hash_ns = out.breakdown.get_ns(eva_common::CostCategory::HashInput);
    assert!(hash_ns > 0, "cold run still hashes all inputs");
    // Hash cost for 50 frame-sized arguments at the configured rate.
    let per_frame =
        eva_storage::IoCostModel::default().hash_cost_ns(test_dataset(304, n).frame_bytes());
    assert_eq!(hash_ns, 50 * per_frame);
}

#[test]
fn hashstash_recycler_vs_eva_signature_granularity() {
    // The defining difference: after a predicate-only change, HashStash
    // reuses the detector operator but re-evaluates predicate UDFs; EVA
    // reuses both.
    let n = 100;
    let q1 = "SELECT id FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
              WHERE id < 80 AND label = 'car' AND colordet(frame, bbox) = 'Red'";
    let q2 = "SELECT id FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
              WHERE id < 80 AND label = 'car' AND colordet(frame, bbox) = 'Blue'";
    for (strategy, expect_color_reuse) in [
        (ReuseStrategy::HashStash, false),
        (ReuseStrategy::Eva, true),
    ] {
        let mut db = test_session(strategy, 305, n);
        db.execute_sql(q1).unwrap().rows().unwrap();
        db.execute_sql(q2).unwrap().rows().unwrap();
        let cd = db.invocation_stats().get("colordet");
        assert_eq!(
            cd.reused_invocations > 0,
            expect_color_reuse,
            "{strategy:?}: colordet reuse = {}",
            cd.reused_invocations
        );
    }
}
