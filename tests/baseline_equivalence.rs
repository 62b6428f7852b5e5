//! Result equivalence and relative-cost ordering across every system under
//! test: all strategies must return identical rows; only their simulated
//! costs may differ — and must differ in the directions the paper reports.

use eva_common::CostCategory;
use eva_core::{EvaDb, SessionConfig};
use eva_harness::test_session;
use eva_planner::ReuseStrategy;
use eva_vbench::{run_workload, vbench_high, DetectorKind, Workload};
use eva_video::generator::{generate, test_dataset};
use eva_video::VideoConfig;

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
    let hash_ns = out.breakdown.get_ns(CostCategory::HashInput);
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

/// A 100-frame session for the per-strategy reuse checks below.
fn small_session(config: SessionConfig) -> EvaDb {
    let mut db = EvaDb::new(config).unwrap();
    db.load_video(
        generate(VideoConfig {
            name: "v".into(),
            n_frames: 100,
            width: 96,
            height: 54,
            fps: 25.0,
            target_density: 5.0,
            person_fraction: 0.0,
            seed: 4,
        }),
        "video",
    )
    .unwrap();
    db
}

fn strategy_session(strategy: ReuseStrategy) -> EvaDb {
    small_session(SessionConfig::for_strategy(strategy))
}

const Q1: &str = "SELECT id FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
                  WHERE id < 80 AND label = 'car' AND cartype(frame, bbox) = 'Toyota'";
const Q2: &str = "SELECT id FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
                  WHERE id < 80 AND label = 'car' AND cartype(frame, bbox) = 'Honda'";

#[test]
fn hashstash_reuses_detector_but_not_box_udfs() {
    let mut db = strategy_session(ReuseStrategy::HashStash);
    db.execute_sql(Q1).unwrap().rows().unwrap();
    db.execute_sql(Q2).unwrap().rows().unwrap();
    let det = db.invocation_stats().get("fasterrcnn_resnet50");
    let ct = db.invocation_stats().get("cartype");
    assert!(det.reused_invocations > 0, "detector should recycle");
    assert_eq!(ct.reused_invocations, 0, "box UDFs must not recycle");
}

#[test]
fn eva_reuses_both() {
    let mut db = strategy_session(ReuseStrategy::Eva);
    db.execute_sql(Q1).unwrap().rows().unwrap();
    db.execute_sql(Q2).unwrap().rows().unwrap();
    let det = db.invocation_stats().get("fasterrcnn_resnet50");
    let ct = db.invocation_stats().get("cartype");
    assert!(det.reused_invocations > 0);
    assert!(ct.reused_invocations > 0, "EVA reuses predicate UDFs too");
}

#[test]
fn funcache_matches_eva_hit_percentage() {
    let mut eva = strategy_session(ReuseStrategy::Eva);
    let mut fc = strategy_session(ReuseStrategy::FunCache);
    for q in [Q1, Q2, Q1] {
        eva.execute_sql(q).unwrap().rows().unwrap();
        fc.execute_sql(q).unwrap().rows().unwrap();
    }
    let he = eva.invocation_stats().hit_percentage();
    let hf = fc.invocation_stats().hit_percentage();
    assert!(
        (he - hf).abs() < 1e-6,
        "Table 2: FunCache and EVA have identical (optimal) hit %: {he} vs {hf}"
    );
    // But FunCache pays hashing cost; EVA does not.
    let hash_ms = fc.cost_snapshot().get(CostCategory::HashInput);
    assert!(hash_ms > 0.0);
    assert_eq!(eva.cost_snapshot().get(CostCategory::HashInput), 0.0);
}

#[test]
fn min_cost_substitutes_cheapest_model() {
    // Min-Cost (Fig. 10): the cheapest eligible model, without Algorithm 2's
    // cross-model view cover.
    let mut cfg = SessionConfig::for_strategy(ReuseStrategy::Eva);
    cfg.planner.logical_set_cover = false;
    let mut db = small_session(cfg);
    let q = "SELECT id FROM video CROSS APPLY objectdetector(frame) ACCURACY 'LOW' \
             WHERE id < 50 AND label = 'car'";
    db.execute_sql(q).unwrap().rows().unwrap();
    let yolo = db.invocation_stats().get("yolo_tiny");
    assert!(yolo.total_invocations > 0, "cheapest model (yolo) runs");
    assert_eq!(
        db.invocation_stats()
            .get("fasterrcnn_resnet50")
            .total_invocations,
        0
    );
}

#[test]
fn eva_set_cover_reuses_high_accuracy_view_for_low_query() {
    let mut db = strategy_session(ReuseStrategy::Eva);
    // A HIGH-accuracy query materializes rcnn101 results…
    db.execute_sql(
        "SELECT id FROM video CROSS APPLY objectdetector(frame) ACCURACY 'HIGH' \
         WHERE id < 50 AND label = 'car'",
    )
    .unwrap()
    .rows()
    .unwrap();
    // …then a LOW-accuracy query over the same frames reads that view
    // instead of running yolo (the paper's Q4 motivating example).
    db.execute_sql(
        "SELECT id FROM video CROSS APPLY objectdetector(frame) ACCURACY 'LOW' \
         WHERE id < 50 AND label = 'car'",
    )
    .unwrap()
    .rows()
    .unwrap();
    let rcnn101 = db.invocation_stats().get("fasterrcnn_resnet101");
    assert!(
        rcnn101.reused_invocations > 0,
        "low-accuracy query must reuse the high-accuracy view"
    );
    assert_eq!(
        db.invocation_stats().get("yolo_tiny").total_invocations,
        0,
        "no fresh yolo runs needed"
    );
}
