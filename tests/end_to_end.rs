//! End-to-end integration tests: the full parse → bind → optimize → execute
//! lifecycle over the public API, covering the statement surface of EVA-QL.

use std::sync::Arc;

use eva_common::{
    BBox, CellRef, CostCategory, DataType, Field, GovernorConfig, Row, Schema, Value,
};
use eva_core::{EvaDb, SessionConfig, StatementResult};
use eva_exec::ExecConfig;
use eva_harness::{test_dataset, test_session};
use eva_planner::ReuseStrategy;
use eva_storage::ViewKeyKind;

#[test]
fn full_lifecycle_with_projection_udf() {
    let mut db = test_session(ReuseStrategy::Eva, 101, 120);
    let out = db
        .execute_sql(
            "SELECT id, bbox, colordet(frame, bbox) AS color FROM video \
             CROSS APPLY fasterrcnn_resnet50(frame) \
             WHERE id >= 10 AND id < 90 AND label = 'car' \
             ORDER BY id LIMIT 25",
        )
        .unwrap()
        .rows()
        .unwrap();
    assert!(out.n_rows() > 0 && out.n_rows() <= 25);
    let schema = out.batch.schema().clone();
    assert_eq!(schema.fields()[2].name, "color");
    // Ordered by id ascending.
    let ids: Vec<i64> = out
        .batch
        .rows()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted);
    // All ids within the scan range.
    assert!(ids.iter().all(|&i| (10..90).contains(&i)));
    // Colors are real values.
    for row in out.batch.rows() {
        assert!(matches!(&row[2], Value::Str(_)));
    }
}

#[test]
fn aggregation_counts_per_label() {
    let mut db = test_session(ReuseStrategy::Eva, 102, 80);
    let out = db
        .execute_sql(
            "SELECT label, COUNT(*) AS n FROM video CROSS APPLY \
             fasterrcnn_resnet50(frame) WHERE id < 60 GROUP BY label",
        )
        .unwrap()
        .rows()
        .unwrap();
    assert!(out.n_rows() >= 1);
    let mut total = 0i64;
    for row in out.batch.rows() {
        total += row[1].as_int().unwrap();
    }
    // Cross-check against a plain projection.
    let all = db
        .execute_sql("SELECT label FROM video CROSS APPLY fasterrcnn_resnet50(frame) WHERE id < 60")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(total as usize, all.n_rows());
}

#[test]
fn ddl_statements_round_trip() {
    let mut db = test_session(ReuseStrategy::Eva, 103, 20);
    match db.execute_sql("SHOW UDFS").unwrap() {
        StatementResult::Ack(s) => {
            assert!(s.contains("fasterrcnn_resnet50"));
            assert!(s.contains("cartype"));
        }
        other => panic!("unexpected {other:?}"),
    }
    db.execute_sql(
        "CREATE UDF night_det INPUT = (frame FRAME) OUTPUT = (label STR, bbox BBOX, \
         score FLOAT) IMPL = 'sim/yolo_tiny' LOGICAL_TYPE = objectdetector \
         PROPERTIES = ('ACCURACY' = 'LOW')",
    )
    .unwrap();
    let out = db
        .execute_sql(
            "SELECT id FROM video CROSS APPLY night_det(frame) WHERE id < 10 AND label='car'",
        )
        .unwrap()
        .rows()
        .unwrap();
    assert!(out.n_rows() > 0);
    db.execute_sql("DROP UDF night_det").unwrap();
    assert!(db
        .execute_sql("SELECT id FROM video CROSS APPLY night_det(frame) WHERE id < 10")
        .is_err());
}

#[test]
fn error_paths_report_stages() {
    let mut db = test_session(ReuseStrategy::Eva, 104, 20);
    let parse_err = db.execute_sql("SELEC oops").unwrap_err();
    assert_eq!(parse_err.stage(), "parse");
    let binder_err = db.execute_sql("SELECT nope FROM video").unwrap_err();
    assert_eq!(binder_err.stage(), "bind");
    let catalog_err = db.execute_sql("SELECT id FROM missing").unwrap_err();
    assert_eq!(catalog_err.stage(), "catalog");
}

#[test]
fn scan_range_pushdown_limits_read_cost() {
    let mut db = test_session(ReuseStrategy::NoReuse, 105, 200);
    let narrow = db
        .execute_sql("SELECT id FROM video WHERE id >= 50 AND id < 60")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(narrow.n_rows(), 10);
    let read_ms = narrow.breakdown.get(CostCategory::ReadVideo);
    // 10 frames × 1.8 ms — pushdown means we did not scan all 200 frames.
    assert!((read_ms - 18.0).abs() < 1e-6, "read_ms = {read_ms}");
}

#[test]
fn timestamps_follow_fps() {
    let mut db = test_session(ReuseStrategy::NoReuse, 106, 50);
    let out = db
        .execute_sql("SELECT id, timestamp FROM video WHERE id < 3 ORDER BY id")
        .unwrap()
        .rows()
        .unwrap();
    let ts: Vec<i64> = out
        .batch
        .rows()
        .iter()
        .map(|r| r[1].as_int().unwrap())
        .collect();
    assert_eq!(ts, vec![0, 40, 80], "25 fps ⇒ 40 ms per frame");
}

/// An ungrouped aggregate answers with exactly one row even when its window
/// holds no frame or its filter keeps none — in one batch and in batches of
/// eight (every one of which filters empty), under each reuse strategy — and
/// a budget trip on a non-empty window still degrades to the ungoverned
/// answer. A grouped aggregate over nothing has no group.
#[test]
fn ungrouped_aggregate_over_an_empty_window_returns_one_row() {
    let one_batch = ExecConfig::default();
    let small_batches = ExecConfig {
        batch_size: 8,
        ..one_batch
    };
    let nothing = [Value::Int(0), Value::Null, Value::Null];
    for strategy in [
        ReuseStrategy::NoReuse,
        ReuseStrategy::Eva,
        ReuseStrategy::HashStash,
        ReuseStrategy::FunCache,
    ] {
        for exec in [one_batch, small_batches] {
            let mut cfg = SessionConfig::for_strategy(strategy);
            cfg.exec = exec;
            let mut db = EvaDb::new(cfg).unwrap();
            db.load_video(test_dataset(108, 40), "video").unwrap();
            for window in ["id >= 5 AND id < 5", "id > 10 AND id < 5", "timestamp < 0"] {
                let what = format!("{strategy:?} {exec:?} {window}");
                let sql = format!("SELECT COUNT(*), MIN(id), MAX(id) FROM video WHERE {window}");
                let out = db.execute_sql(&sql).unwrap().rows().unwrap();
                assert_eq!(out.batch.rows(), [nothing.to_vec()], "{what}");
                let sql = format!(
                    "SELECT timestamp, COUNT(*) FROM video WHERE {window} GROUP BY timestamp"
                );
                let out = db.execute_sql(&sql).unwrap().rows().unwrap();
                assert_eq!(out.n_rows(), 0, "{what}");
            }
            let sql = "SELECT COUNT(*), MIN(id), MAX(id) FROM video WHERE id >= 3";
            let whole = db.execute_sql(sql).unwrap().rows().unwrap();
            assert_eq!(
                whole.batch.rows(),
                [vec![Value::Int(37), Value::Int(3), Value::Int(39)]]
            );
            db.set_governor(GovernorConfig {
                budget_bytes: Some(32),
                ..GovernorConfig::default()
            });
            let degraded = db.execute_sql(sql).unwrap().rows().unwrap();
            assert_eq!(degraded.metrics.degraded_queries, 1);
            assert_eq!(degraded.batch.rows(), whole.batch.rows());
        }
    }
}

/// A detector whose `label` is NULL on every third frame and whose `score`
/// is an `Int` on even ones — the output columns `ORDER BY` finds hardest.
struct PatchyDetector {
    schema: Arc<Schema>,
}

impl eva_udf::SimUdf for PatchyDetector {
    fn impl_id(&self) -> &str {
        "test/patchy"
    }
    fn cost_ns(&self) -> u64 {
        2_000_000
    }
    fn output_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }
    fn key_kind(&self) -> ViewKeyKind {
        ViewKeyKind::Frame
    }
    fn eval_into(
        &self,
        ctx: &eva_udf::UdfEvalContext<'_>,
        out: &mut [eva_common::ColumnBuilder],
    ) -> eva_common::Result<u32> {
        let f = ctx.frame.raw();
        let n = 1 + f % 2;
        for j in 0..n {
            match (f + j) % 3 {
                0 => out[0].push_cell(CellRef::Null),
                m => out[0].push_str(&format!("kind{m}")),
            }
            out[1].push_cell(CellRef::BBox(BBox::new(
                0.1,
                0.1,
                0.2 + j as f32 / 10.0,
                0.3,
            )));
            out[2].push_cell(match f % 2 {
                0 => CellRef::Int((f % 5) as i64),
                _ => CellRef::Float((f % 7) as f64 / 2.0),
            });
        }
        Ok(n as u32)
    }
}

/// `ORDER BY` on a nullable, mixed-tag UDF output, end to end: NULL labels
/// sort first ascending and last descending, numbers compare across `Int`
/// and `Float`, ties keep the unsorted query's order, and `LIMIT` returns
/// the sorted prefix.
#[test]
fn order_by_a_nullable_udf_output() {
    let mut db = test_session(ReuseStrategy::Eva, 109, 60);
    let fields = vec![
        Field::new("label", DataType::Str),
        Field::new("bbox", DataType::BBox),
        Field::new("score", DataType::Float),
    ];
    db.registry().register(Arc::new(PatchyDetector {
        schema: Arc::new(Schema::new(fields).unwrap()),
    }));
    db.execute_sql(
        "CREATE UDF patchy INPUT = (frame FRAME) OUTPUT = (label STR, bbox BBOX, score FLOAT) \
         IMPL = 'test/patchy' LOGICAL_TYPE = objectdetector",
    )
    .unwrap();
    let from = "SELECT id, label, score FROM video CROSS APPLY patchy(frame) WHERE id < 48";
    let mut rows = |tail: &str| -> Vec<Row> {
        let out = db.execute_sql(&format!("{from} {tail}")).unwrap();
        out.rows().unwrap().batch.into_rows()
    };
    let unsorted = rows("");
    assert!(unsorted.iter().any(|r| r[1].is_null()));
    let cmp = |a: &Value, b: &Value| CellRef::from_value(a).sort_cmp(CellRef::from_value(b));

    let mut want = unsorted.clone();
    want.sort_by(|a, b| cmp(&a[1], &b[1]).then(cmp(&a[2], &b[2])));
    let asc = rows("ORDER BY label, score");
    assert_eq!(asc, want);
    let nulls = unsorted.iter().filter(|r| r[1].is_null()).count();
    assert!(asc[..nulls].iter().all(|r| r[1].is_null()));
    assert!(asc[nulls..].iter().all(|r| !r[1].is_null()));
    assert_eq!(rows("ORDER BY label, score LIMIT 9"), want[..9]);

    want.sort_by(|a, b| cmp(&b[1], &a[1]).then(cmp(&a[2], &b[2])));
    let desc = rows("ORDER BY label DESC, score");
    assert_eq!(desc, want);
    assert!(desc[desc.len() - nulls..].iter().all(|r| r[1].is_null()));
}

/// A `LIMIT` directly above a `Sort` bounds it: the sort hands up `k` rows,
/// not its whole input, and the answer is the full sort's first `k`.
#[test]
fn limit_bounds_the_sort_below_it() {
    let mut db = test_session(ReuseStrategy::NoReuse, 110, 60);
    let sql = "SELECT id, timestamp FROM video WHERE id >= 4 ORDER BY id DESC";
    let full = db.execute_sql(sql).unwrap().rows().unwrap();
    assert_eq!(full.n_rows(), 56);
    let (text, top) = db.explain_analyze_query(&format!("{sql} LIMIT 7")).unwrap();
    assert_eq!(top.batch.rows(), &full.batch.rows()[..7]);
    assert_eq!(top.metrics.rows_pivoted, 7);
    let rows_of = |op: &str| {
        let line = text.lines().find(|l| l.trim_start().starts_with(op));
        let line = line.unwrap_or_else(|| panic!("no {op} in\n{text}"));
        line.split("rows=")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .to_string()
    };
    assert_eq!(rows_of("Limit"), "7");
    assert_eq!(rows_of("Sort"), "7");
    let (text, _) = db
        .explain_analyze_query(&format!("{sql} LIMIT 99"))
        .unwrap();
    assert!(text
        .lines()
        .any(|l| l.trim_start().starts_with("Sort") && l.contains("rows=56 ")));
}
