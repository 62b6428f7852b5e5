//! Persistence integration tests: materialized views survive a save/load
//! round trip through the storage engine and keep serving reuse.

use eva_common::testutil::rows_of;
use eva_common::{BBox, Column, FrameId, SimClock, Value, ViewId};
use eva_harness::test_session;
use eva_planner::ReuseStrategy;
use eva_storage::{StorageEngine, ViewKey, ViewKeyKind};
use std::sync::Arc;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    eva_common::testutil::unique_temp_dir(&format!("persist_{tag}"))
}

#[test]
fn session_views_round_trip_to_disk() {
    let dir = temp_dir("session");
    let n = 80;
    let mut db = test_session(ReuseStrategy::Eva, 501, n);
    db.execute_sql(
        "SELECT id FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
         WHERE id < 60 AND label = 'car'",
    )
    .unwrap()
    .rows()
    .unwrap();
    let bytes_before = db.storage().total_view_bytes();
    assert!(bytes_before > 0);
    db.storage().save_views(&dir).unwrap();

    // A brand-new engine loads the views byte-identically.
    let fresh = StorageEngine::new();
    fresh.load_views(&dir).unwrap();
    assert_eq!(fresh.total_view_bytes(), bytes_before);
    for def in db.storage().view_defs() {
        assert_eq!(
            fresh.view_n_keys(def.id).unwrap(),
            db.storage().view_n_keys(def.id).unwrap(),
            "view {} must round trip",
            def.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loaded_views_serve_probes() {
    let dir = temp_dir("probe");
    let engine = StorageEngine::new();
    let clock = SimClock::new();
    let schema = Arc::new(
        eva_common::Schema::new(vec![eva_common::Field::new(
            "label",
            eva_common::DataType::Str,
        )])
        .unwrap(),
    );
    let view = engine.create_view("det", ViewKeyKind::Frame, schema);
    let label = |i: u64| Value::from(if i % 2 == 0 { "car" } else { "bus" });
    let entries: Vec<_> = (0..500u64)
        .map(|i| (ViewKey::frame(FrameId(i)), 1))
        .collect();
    let labels: Vec<Value> = (0..500).map(label).collect();
    let chunk = [Column::from_values(&labels)];
    engine.view_append(view, &entries, &chunk, &clock).unwrap();
    engine.save_views(&dir).unwrap();

    let restored = StorageEngine::new();
    restored.load_views(&dir).unwrap();
    let keys: Vec<ViewKey> = (0..600u64).map(|i| ViewKey::frame(FrameId(i))).collect();
    let probed = restored.view_probe(view, &keys, &clock).unwrap();
    for (i, len) in probed.lens.iter().enumerate() {
        let want = ((i as u64) < 500).then_some(1);
        assert_eq!(*len, want, "key {i}: only 0..500 were materialized");
    }
    assert_eq!(probed.columns, chunk, "hit rows equal the appended rows");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Load a golden store whole.
fn load_golden(dir: &std::path::Path) -> StorageEngine {
    let engine = StorageEngine::new();
    let report = engine.load_views(dir).unwrap();
    assert!(
        report.quarantined.is_empty() && !report.manifest_fallback,
        "{report}"
    );
    assert_eq!(report.loaded, vec![ViewId(1), ViewId(2)]);
    engine
}

/// The golden store's contents, probed.
fn assert_golden_probes(engine: &StorageEngine) {
    // View 1: a detector view with a zero-row key, NULLs in every column
    // and an Int in the FLOAT column.
    let clock = SimClock::new();
    let b = |i: u64| BBox::new(0.05 * i as f32, 0.1, 0.05 * i as f32 + 0.3, 0.55);
    let keys: Vec<ViewKey> = (0..6).map(|f| ViewKey::frame(FrameId(f))).collect();
    let hits = engine.view_probe(ViewId(1), &keys, &clock).unwrap();
    assert_eq!(
        hits.lens,
        vec![Some(2), Some(0), Some(1), None, None, Some(3)]
    );
    let want = vec![
        vec![Value::from("car"), Value::Box(b(0)), Value::Float(0.91)],
        vec![Value::from("bus"), Value::Box(b(1)), Value::Float(0.62)],
        vec![Value::Null, Value::Box(b(2)), Value::Int(1)],
        vec![Value::from("truck"), Value::Box(b(3)), Value::Float(0.5)],
        vec![Value::from("car"), Value::Null, Value::Null],
        vec![Value::from("car"), Value::Box(b(4)), Value::Float(0.77)],
    ];
    let got = rows_of(&hits.columns);
    assert_eq!(got, want);
    assert!(matches!(got[2][2], Value::Int(1)), "the Int tag survives");
    // View 2: box-keyed.
    let keys = [(0, 0), (0, 1), (5, 4), (5, 3)].map(|(f, i)| ViewKey::frame_box(FrameId(f), &b(i)));
    let hits = engine.view_probe(ViewId(2), &keys, &clock).unwrap();
    assert_eq!(hits.lens, vec![Some(1), Some(1), Some(1), None]);
    let want = ["Toyota", "Volvo", "Nissan"].map(|t| vec![Value::from(t)]);
    assert_eq!(rows_of(&hits.columns), want);
}

/// Every file of the saved store `dir` equals the golden's, byte for byte.
/// The files of `tests/goldens/segments_v2/`.
const GOLDEN_FILES: [&str; 3] = ["view_1.seg", "view_2.seg", "views.manifest"];

fn assert_same_files(golden: &std::path::Path, dir: &std::path::Path) {
    for file in GOLDEN_FILES {
        let (old, new) = (
            std::fs::read(golden.join(file)),
            std::fs::read(dir.join(file)),
        );
        assert_eq!(
            old.unwrap(),
            new.unwrap(),
            "{file} must re-encode byte for byte"
        );
    }
}

/// `tests/goldens/segments_v2/` holds a two-view store in segment format 2.
/// It loads and probes correctly, re-saves to itself byte for byte, and the
/// re-saved store loads back to the same probes — so the format-2 layout is
/// pinned, not assumed.
#[test]
fn golden_segments_load_and_re_encode_byte_for_byte() {
    let v2 =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/segments_v2");
    // Recovery renames a corrupt segment aside, so it loads a copy: a broken
    // golden fails this test without changing the checkout.
    let copy = temp_dir("golden_copy");
    for file in GOLDEN_FILES {
        std::fs::copy(v2.join(file), copy.join(file))
            .unwrap_or_else(|e| panic!("golden {file}: {e}"));
    }
    let engine = load_golden(&copy);
    assert_golden_probes(&engine);

    let resaved = temp_dir("golden_resaved");
    engine.save_views(&resaved).unwrap();
    assert_same_files(&v2, &resaved);
    let reloaded = load_golden(&resaved);
    assert_golden_probes(&reloaded);
    assert_eq!(reloaded.total_view_bytes(), engine.total_view_bytes());
    let _ = std::fs::remove_dir_all(&resaved);
    let _ = std::fs::remove_dir_all(&copy);
}

/// Full session round trip: a new session restoring saved state reuses the
/// prior session's work immediately — including the *symbolic* state (the
/// aggregated predicates that drive cost decisions).
#[test]
fn session_state_round_trip_preserves_reuse() {
    let dir = temp_dir("state");
    let n = 70;
    let q = "SELECT id FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
             WHERE id < 60 AND label = 'car' AND cartype(frame, bbox) = 'Toyota'";
    let mut first = test_session(ReuseStrategy::Eva, 502, n);
    first.execute_sql(q).unwrap().rows().unwrap();
    first.save_state(&dir).unwrap();

    // A fresh session (same dataset seed) restores and reuses everything.
    let mut second = test_session(ReuseStrategy::Eva, 502, n);
    second.load_state(&dir).unwrap();
    let out = second.execute_sql(q).unwrap().rows().unwrap();
    let det = second.invocation_stats().get("fasterrcnn_resnet50");
    assert_eq!(det.reused_invocations, 60, "all detector results restored");
    assert_eq!(
        det.total_invocations - det.reused_invocations,
        0,
        "no fresh inference needed"
    );
    // Symbolic state restored too: the aggregated predicate covers id < 60.
    let sig = eva_udf::UdfSignature::new("fasterrcnn_resnet50", "video", &["frame"]);
    let agg = second.manager().aggregated(&sig);
    assert!(!agg.is_false(), "aggregated predicate restored: {agg}");
    // And results equal the first session's.
    let out1 = first.execute_sql(q).unwrap().rows().unwrap();
    assert_eq!(out1.batch.rows(), out.batch.rows());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restored state must be *metrically* equivalent to staying warm: a query
/// repeated after a save/load round trip reports the same probe-hit and
/// UDF-avoided counters as repeating it in the original session.
#[test]
fn restored_sessions_report_identical_hit_counters() {
    let dir = temp_dir("metrics");
    let n = 70;
    let q = "SELECT id FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
             WHERE id < 60 AND label = 'car'";
    let mut first = test_session(ReuseStrategy::Eva, 503, n);
    first.execute_sql(q).unwrap().rows().unwrap();
    first.save_state(&dir).unwrap();

    // Warm repeat in the original session.
    let warm = first.execute_sql(q).unwrap().rows().unwrap();
    assert!(warm.metrics.probe_hits > 0, "{:?}", warm.metrics);

    // Same repeat in a restored session.
    let mut second = test_session(ReuseStrategy::Eva, 503, n);
    second.load_state(&dir).unwrap();
    let restored = second.execute_sql(q).unwrap().rows().unwrap();
    assert_eq!(
        warm.metrics.deterministic(),
        restored.metrics.deterministic(),
        "a restored session must serve the query with the same counters"
    );
    assert_eq!(restored.metrics.probe_hits, 60);
    assert_eq!(restored.metrics.udf_calls_avoided, 60);
    assert_eq!(restored.metrics.udf_calls_executed, 0);

    // The loaded session's cumulative counters only contain that one warm
    // query — loading state does not import the saving session's history.
    // (The recovery pass itself is this session's history: it recovered the
    // detector view.)
    let mut total = second.metrics_snapshot();
    assert_eq!(total.views_recovered, 1, "{total:?}");
    total.views_recovered = 0;
    assert_eq!(
        total.deterministic(),
        restored.metrics.deterministic(),
        "session totals == the single query's delta"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `load_state` replaces the session's reuse state instead of merging into
/// it. The live session's view 1 belongs to `yolo_tiny`; the store's view 1
/// belongs to `fasterrcnn_resnet50`. After the load, `yolo_tiny`'s
/// aggregated predicate must not survive pointing at an id whose rows are now
/// another detector's, so its next query answers what no-reuse answers.
#[test]
fn load_state_replaces_the_sessions_views_and_predicates() {
    let dir = temp_dir("replace");
    let n = 60;
    let x = "SELECT id, label FROM video CROSS APPLY fasterrcnn_resnet50(frame) WHERE id < 40";
    let y = "SELECT id, label FROM video CROSS APPLY yolo_tiny(frame) WHERE id < 40";
    let sorted = |db: &mut eva_core::EvaDb| {
        let out = db.execute_sql(y).unwrap().rows().unwrap();
        let mut rows: Vec<String> = out.batch.rows().iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    };

    let mut saver = test_session(ReuseStrategy::Eva, 504, n);
    saver.execute_sql(x).unwrap().rows().unwrap();
    saver.save_state(&dir).unwrap();

    let mut live = test_session(ReuseStrategy::Eva, 504, n);
    let before = sorted(&mut live);
    assert_eq!(live.storage().view_defs()[0].id, ViewId(1));
    live.load_state(&dir).unwrap();
    let after = sorted(&mut live);

    let want = sorted(&mut test_session(ReuseStrategy::NoReuse, 504, n));
    assert_eq!(before, want);
    assert!(
        after == want,
        "yolo_tiny was served another detector's rows: {} rows, no-reuse answers {}",
        after.len(),
        want.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_directory_is_an_io_error() {
    let engine = StorageEngine::new();
    let err = engine
        .load_views(std::path::Path::new("/definitely/not/a/dir"))
        .unwrap_err();
    assert_eq!(err.stage(), "io");
}
