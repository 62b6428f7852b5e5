//! Unit tests for the physical operators.
#![cfg(test)]

use std::sync::Arc;

use eva_common::testutil::rows_of;
use eva_common::{Column, CostCategory, DataType, Field, FrameId, Schema, Value, ViewId};
use eva_expr::{AggFunc, Expr};
use eva_planner::{ApplyReuse, ApplySpec, Segment};
use eva_storage::{ViewKey, ViewKeyKind};

use crate::ops::aggregate::AggregateOp;
use crate::ops::apply::ApplyOp;
use crate::ops::filter::FilterOp;
use crate::ops::project::ProjectOp;
use crate::ops::scan::ScanFramesOp;
use crate::ops::sort_limit::{LimitOp, SortOp};
use crate::ops::BoxedOp;
use crate::testing::{ColumnarValuesOp, TestEnv, ValuesOp};

/// STORE row-form entries into a view as one chunk.
fn store_rows(env: &TestEnv, view: ViewId, entries: &[(ViewKey, Vec<Vec<Value>>)]) {
    let lens: Vec<(ViewKey, u32)> = entries
        .iter()
        .map(|(k, rows)| (*k, rows.len() as u32))
        .collect();
    let width = env.storage.view_def(view).unwrap().output_schema.len();
    let rows = entries.iter().flat_map(|(_, rows)| rows.iter());
    let chunk = Column::from_rows(width, 0, rows.map(Vec::as_slice));
    env.storage
        .view_append(view, &lens, &chunk, &env.clock)
        .unwrap();
}

/// What a view holds for each of `keys`, in row form (`None`: not
/// materialized).
fn stored_rows(env: &TestEnv, view: ViewId, keys: &[ViewKey]) -> Vec<Option<Vec<Vec<Value>>>> {
    let hits = env.storage.view_probe_uncharged(view, keys).unwrap();
    let mut rows = rows_of(&hits.columns).into_iter();
    let mut take = |n: u32| rows.by_ref().take(n as usize).collect();
    hits.lens.iter().map(|len| len.map(&mut take)).collect()
}

fn int_schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
        ])
        .unwrap(),
    )
}

fn values(rows: Vec<(i64, &str)>) -> ValuesOp {
    ValuesOp::new(
        int_schema(),
        rows.into_iter()
            .map(|(a, b)| vec![Value::Int(a), Value::from(b)])
            .collect(),
    )
}

#[test]
fn scan_batches_and_charges() {
    let env = TestEnv::new(1, 50);
    let scan = ScanFramesOp::new(
        "t".into(),
        (5, 45),
        Arc::new(eva_storage::engine::video_table_schema()),
    );
    let out = env.drain(Box::new(scan)).unwrap();
    assert_eq!(out.len(), 40);
    assert_eq!(out.value(0, "id").unwrap(), &Value::Int(5));
    let read = env.clock.snapshot().get(CostCategory::ReadVideo);
    assert!((read - 40.0 * 1.8).abs() < 1e-9);
}

#[test]
fn filter_keeps_matching_rows_only() {
    let env = TestEnv::new(2, 10);
    let src = values(vec![(1, "x"), (5, "y"), (9, "x")]);
    let op = FilterOp::new(Box::new(src), Expr::col("b").eq_val("x"));
    let out = env.drain(Box::new(op)).unwrap();
    assert_eq!(out.len(), 2);
    assert!(out.rows().iter().all(|r| r[1] == Value::from("x")));
}

#[test]
fn project_computes_expressions() {
    let env = TestEnv::new(3, 10);
    let src = values(vec![(2, "x"), (7, "y")]);
    let schema = Arc::new(
        Schema::new(vec![
            Field::new("is_small", DataType::Bool),
            Field::new("b", DataType::Str),
        ])
        .unwrap(),
    );
    let op = ProjectOp::new(
        Box::new(src),
        vec![
            (Expr::col("a").lt(5), "is_small".into()),
            (Expr::col("b"), "b".into()),
        ],
        schema,
    );
    let out = env.drain(Box::new(op)).unwrap();
    assert_eq!(out.value(0, "is_small").unwrap(), &Value::Bool(true));
    assert_eq!(out.value(1, "is_small").unwrap(), &Value::Bool(false));
}

#[test]
fn aggregate_group_count_sum_min_max_avg() {
    let env = TestEnv::new(4, 10);
    let src = values(vec![(1, "x"), (3, "x"), (10, "y")]);
    let schema = Arc::new(
        Schema::new(vec![
            Field::new("b", DataType::Str),
            Field::new("n", DataType::Int),
            Field::new("s", DataType::Float),
            Field::new("mn", DataType::Float),
            Field::new("mx", DataType::Float),
            Field::new("av", DataType::Float),
        ])
        .unwrap(),
    );
    let op = AggregateOp::new(
        Box::new(src),
        vec!["b".into()],
        vec![
            (AggFunc::Count, None, "n".into()),
            (AggFunc::Sum, Some(Expr::col("a")), "s".into()),
            (AggFunc::Min, Some(Expr::col("a")), "mn".into()),
            (AggFunc::Max, Some(Expr::col("a")), "mx".into()),
            (AggFunc::Avg, Some(Expr::col("a")), "av".into()),
        ],
        schema,
    );
    let out = env.drain(Box::new(op)).unwrap();
    assert_eq!(out.len(), 2);
    // Groups sorted by key bytes: "x" < "y".
    assert_eq!(out.value(0, "b").unwrap(), &Value::from("x"));
    assert_eq!(out.value(0, "n").unwrap(), &Value::Int(2));
    assert_eq!(out.value(0, "s").unwrap(), &Value::Float(4.0));
    assert_eq!(out.value(0, "mn").unwrap(), &Value::Int(1));
    assert_eq!(out.value(0, "mx").unwrap(), &Value::Int(3));
    assert_eq!(out.value(0, "av").unwrap(), &Value::Float(2.0));
    assert_eq!(out.value(1, "n").unwrap(), &Value::Int(1));
}

#[test]
fn aggregate_without_groups_yields_single_row() {
    let env = TestEnv::new(5, 10);
    let src = values(vec![(1, "x"), (2, "y")]);
    let schema = Arc::new(Schema::new(vec![Field::new("n", DataType::Int)]).unwrap());
    let op = AggregateOp::new(
        Box::new(src),
        vec![],
        vec![(AggFunc::Count, None, "n".into())],
        schema,
    );
    let out = env.drain(Box::new(op)).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.value(0, "n").unwrap(), &Value::Int(2));
}

#[test]
fn sort_and_limit() {
    let env = TestEnv::new(6, 10);
    let src = values(vec![(5, "c"), (1, "a"), (9, "b")]);
    let sorted = SortOp::new(Box::new(src), vec![("a".into(), true)]);
    let limited = LimitOp::new(Box::new(sorted), 2);
    let out = env.drain(Box::new(limited)).unwrap();
    assert_eq!(out.len(), 2);
    assert_eq!(out.value(0, "a").unwrap(), &Value::Int(9));
    assert_eq!(out.value(1, "a").unwrap(), &Value::Int(5));
}

// ---------------------------------------------------------------------------
// Columnar == row identity
// ---------------------------------------------------------------------------

/// NULL-bearing rows that force `Mixed` column storage, so the identity
/// tests cover the validity-bitmap paths as well as the typed fast paths.
fn null_rows() -> Vec<Vec<Value>> {
    vec![
        vec![Value::Int(1), Value::from("x")],
        vec![Value::Null, Value::from("y")],
        vec![Value::Int(2), Value::Null],
        vec![Value::Int(9), Value::from("x")],
        vec![Value::Int(4), Value::from("x")],
        vec![Value::Int(7), Value::from("y")],
    ]
}

fn source(columnar: bool) -> BoxedOp {
    if columnar {
        Box::new(ColumnarValuesOp::new(int_schema(), null_rows()))
    } else {
        Box::new(ValuesOp::new(int_schema(), null_rows()))
    }
}

/// The vectorized filter/project path must produce bit-identical rows to
/// the row-at-a-time path, including NULL predicate results (unknown
/// rejects the row) and NULLs surviving into projected output.
#[test]
fn columnar_filter_project_matches_row_path() {
    let run = |columnar: bool| {
        let env = TestEnv::new(20, 4);
        let filt = FilterOp::new(source(columnar), Expr::col("a").lt(8));
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("b", DataType::Str),
                Field::new("small", DataType::Bool),
            ])
            .unwrap(),
        );
        let proj = ProjectOp::new(
            Box::new(filt),
            vec![
                (Expr::col("b"), "b".into()),
                (Expr::col("a").lt(5), "small".into()),
            ],
            schema,
        );
        env.drain(Box::new(proj)).unwrap()
    };
    let row = run(false);
    let col = run(true);
    assert_eq!(row.rows(), col.rows());
    assert_eq!(row.len(), 4, "NULL `a` is unknown and filtered out");
    // The NULL `b` cell survives projection intact.
    assert!(row.rows().iter().any(|r| r[0] == Value::Null));
}

/// Aggregation over a columnar source must group, sort and fold exactly
/// like the row path — group keys are encoded with the same byte encoding
/// on both sides, and NULL arguments are skipped by SUM/MIN/MAX/AVG.
#[test]
fn columnar_aggregate_matches_row_path() {
    let run = |columnar: bool| {
        let env = TestEnv::new(21, 4);
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("b", DataType::Str),
                Field::new("n", DataType::Int),
                Field::new("s", DataType::Float),
                Field::new("mn", DataType::Float),
                Field::new("mx", DataType::Float),
                Field::new("av", DataType::Float),
            ])
            .unwrap(),
        );
        let op = AggregateOp::new(
            source(columnar),
            vec!["b".into()],
            vec![
                (AggFunc::Count, None, "n".into()),
                (AggFunc::Sum, Some(Expr::col("a")), "s".into()),
                (AggFunc::Min, Some(Expr::col("a")), "mn".into()),
                (AggFunc::Max, Some(Expr::col("a")), "mx".into()),
                (AggFunc::Avg, Some(Expr::col("a")), "av".into()),
            ],
            schema,
        );
        env.drain(Box::new(op)).unwrap()
    };
    let row = run(false);
    let col = run(true);
    assert_eq!(row.rows(), col.rows());
    // Three groups: NULL, "x", "y" (NULL key bytes sort first).
    assert_eq!(row.len(), 3);
    assert_eq!(row.value(0, "b").unwrap(), &Value::Null);
    assert_eq!(row.value(1, "b").unwrap(), &Value::from("x"));
    // Group "x" holds a = {1, 9, 4} → sum 14.
    assert_eq!(row.value(1, "s").unwrap(), &Value::Float(14.0));
}

/// LIMIT on a columnar batch truncates through the selection vector
/// without pivoting to rows.
#[test]
fn limit_truncates_columnar_batches_via_selection() {
    let env = TestEnv::new(22, 4);
    let src = ColumnarValuesOp::new(int_schema(), null_rows());
    let op = LimitOp::new(Box::new(src), 2);
    let out = env.drain(Box::new(op)).unwrap();
    assert_eq!(out.len(), 2);
    assert_eq!(out.value(0, "a").unwrap(), &Value::Int(1));
    assert_eq!(out.value(1, "a").unwrap(), &Value::Null);
    // Only the two surviving rows were pivoted at the drain boundary.
    assert_eq!(env.storage.metrics().snapshot().rows_pivoted, 2);
}

/// `rows_pivoted` is the observable cost of leaving the columnar path: a
/// columnar flow charges it at the drain boundary, a row flow never does.
#[test]
fn pivot_counter_charges_only_columnar_flows() {
    let env = TestEnv::new(23, 4);
    let out = env.drain(source(true)).unwrap();
    assert_eq!(out.len(), 6);
    assert_eq!(env.storage.metrics().snapshot().rows_pivoted, 6);

    let env = TestEnv::new(23, 4);
    env.drain(source(false)).unwrap();
    assert_eq!(env.storage.metrics().snapshot().rows_pivoted, 0);
}

// ---------------------------------------------------------------------------
// The fused apply operator
// ---------------------------------------------------------------------------

fn frame_source(env: &TestEnv, n: u64) -> Box<ScanFramesOp> {
    let _ = env;
    Box::new(ScanFramesOp::new(
        "t".into(),
        (0, n),
        Arc::new(eva_storage::engine::video_table_schema()),
    ))
}

fn detector_spec(env: &TestEnv, reuse: ApplyReuse) -> ApplySpec {
    let def = env.catalog.udf("fasterrcnn_resnet50").unwrap();
    ApplySpec {
        display_name: def.name.clone(),
        args: vec![Expr::col("frame")],
        reuse,
        output: Arc::new(def.output.clone()),
    }
}

fn apply_schema(env: &TestEnv) -> Arc<Schema> {
    let def = env.catalog.udf("fasterrcnn_resnet50").unwrap();
    Arc::new(eva_storage::engine::video_table_schema().join(&def.output))
}

#[test]
fn apply_plain_mode_fans_out_detections() {
    let env = TestEnv::new(7, 20);
    let def = env.catalog.udf("fasterrcnn_resnet50").unwrap();
    let spec = detector_spec(&env, ApplyReuse::None { udf: def.clone() });
    let op = ApplyOp::new(frame_source(&env, 20), spec, apply_schema(&env)).unwrap();
    let out = env.drain(Box::new(op)).unwrap();
    assert!(out.len() > 20, "multiple detections per frame expected");
    // Every output row carries the original frame columns plus outputs.
    assert_eq!(out.schema().len(), 6);
    let counters = env.stats.get("fasterrcnn_resnet50");
    assert_eq!(counters.total_invocations, 20);
    assert_eq!(counters.reused_invocations, 0);
    let udf_ms = env.clock.snapshot().get(CostCategory::Udf);
    assert!((udf_ms - 20.0 * 99.0).abs() < 1e-6);
    // APPLY reads its keys from the columns and emits columnar batches:
    // the only pivot is the drain's, over the joined output rows.
    assert_eq!(
        env.storage.metrics().snapshot().rows_pivoted,
        out.len() as u64
    );
}

#[test]
fn apply_views_mode_probes_then_stores() {
    let env = TestEnv::new(8, 20);
    let def = env.catalog.udf("fasterrcnn_resnet50").unwrap();
    let view = env
        .storage
        .create_view("det", ViewKeyKind::Frame, Arc::new(def.output.clone()));
    // Pre-materialize frames 0..10 with sentinel rows.
    let entries: Vec<_> = (0..10u64)
        .map(|i| {
            let row = vec![
                Value::from("sentinel"),
                Value::from(eva_common::BBox::new(0.0, 0.0, 0.5, 0.5)),
                Value::Float(1.0),
            ];
            (ViewKey::frame(FrameId(i)), vec![row])
        })
        .collect();
    store_rows(&env, view, &entries);

    let spec = detector_spec(
        &env,
        ApplyReuse::Views {
            segments: vec![Segment {
                udf: def.clone(),
                view: Some(view),
                eval: true,
            }],
            store: true,
        },
    );
    let op = ApplyOp::new(frame_source(&env, 20), spec, apply_schema(&env)).unwrap();
    let out = env.drain(Box::new(op)).unwrap();

    // Frames 0..10 produced the sentinel; 10..20 fresh detections.
    let sentinels = out
        .rows()
        .iter()
        .filter(|r| r[3] == Value::from("sentinel"))
        .count();
    assert_eq!(sentinels, 10);
    let counters = env.stats.get("fasterrcnn_resnet50");
    assert_eq!(counters.reused_invocations, 10);
    assert_eq!(counters.total_invocations, 20);
    // STORE appended the fresh frames: the view now covers all 20.
    assert_eq!(env.storage.view_n_keys(view).unwrap(), 20);
    // Re-running reuses everything.
    let spec = detector_spec(
        &env,
        ApplyReuse::Views {
            segments: vec![Segment {
                udf: def,
                view: Some(view),
                eval: true,
            }],
            store: true,
        },
    );
    let op = ApplyOp::new(frame_source(&env, 20), spec, apply_schema(&env)).unwrap();
    env.drain(Box::new(op)).unwrap();
    let counters = env.stats.get("fasterrcnn_resnet50");
    assert_eq!(counters.reused_invocations, 30);
}

#[test]
fn apply_multi_segment_probes_in_order() {
    let env = TestEnv::new(9, 12);
    let rcnn101 = env.catalog.udf("fasterrcnn_resnet101").unwrap();
    let yolo = env.catalog.udf("yolo_tiny").unwrap();
    let schema_out = Arc::new(rcnn101.output.clone());
    let v101 = env
        .storage
        .create_view("rcnn101", ViewKeyKind::Frame, Arc::clone(&schema_out));
    // rcnn101 view covers frames 0..6.
    let entries: Vec<_> = (0..6u64)
        .map(|i| {
            let row = vec![
                Value::from("from101"),
                Value::from(eva_common::BBox::new(0.0, 0.0, 0.2, 0.2)),
                Value::Float(0.9),
            ];
            (ViewKey::frame(FrameId(i)), vec![row])
        })
        .collect();
    store_rows(&env, v101, &entries);
    let vy = env
        .storage
        .create_view("yolo", ViewKeyKind::Frame, Arc::clone(&schema_out));

    let spec = ApplySpec {
        display_name: "objectdetector".into(),
        args: vec![Expr::col("frame")],
        reuse: ApplyReuse::Views {
            segments: vec![
                Segment {
                    udf: rcnn101.clone(),
                    view: Some(v101),
                    eval: false, // view-only (Algorithm 2 ReadView choice)
                },
                Segment {
                    udf: yolo.clone(),
                    view: Some(vy),
                    eval: true, // fallback
                },
            ],
            store: true,
        },
        output: Arc::clone(&schema_out),
    };
    let op = ApplyOp::new(frame_source(&env, 12), spec, apply_schema(&env)).unwrap();
    let out = env.drain(Box::new(op)).unwrap();
    let from101 = out
        .rows()
        .iter()
        .filter(|r| r[3] == Value::from("from101"))
        .count();
    assert_eq!(from101, 6, "covered frames come from the 101 view");
    assert_eq!(env.stats.get("fasterrcnn_resnet101").reused_invocations, 6);
    let y = env.stats.get("yolo_tiny");
    assert_eq!(y.total_invocations - y.reused_invocations, 6);
    // Fresh yolo results stored into yolo's own view, not rcnn101's.
    assert_eq!(env.storage.view_n_keys(vy).unwrap(), 6);
    assert_eq!(env.storage.view_n_keys(v101).unwrap(), 6);
}

#[test]
fn apply_funcache_mode_hits_and_charges_hash() {
    let env = TestEnv::new(10, 10);
    let def = env.catalog.udf("fasterrcnn_resnet50").unwrap();
    let spec = detector_spec(&env, ApplyReuse::FunCache { udf: def });
    let op = ApplyOp::new(frame_source(&env, 10), spec.clone(), apply_schema(&env)).unwrap();
    env.drain(Box::new(op)).unwrap();
    let hash1 = env.clock.snapshot().get(CostCategory::HashInput);
    assert!(hash1 > 0.0);
    assert_eq!(env.funcache.len(), 10);

    let op = ApplyOp::new(frame_source(&env, 10), spec, apply_schema(&env)).unwrap();
    env.drain(Box::new(op)).unwrap();
    let c = env.stats.get("fasterrcnn_resnet50");
    assert_eq!(c.reused_invocations, 10);
    // Hashing is paid again on the hit path.
    let hash2 = env.clock.snapshot().get(CostCategory::HashInput);
    assert!((hash2 - 2.0 * hash1).abs() < 1e-6);
}

#[test]
fn apply_box_level_uses_frame_box_keys() {
    let env = TestEnv::new(11, 128);
    let det = env.catalog.udf("fasterrcnn_resnet50").unwrap();
    let ct = env.catalog.udf("cartype").unwrap();
    // Scan far enough that the detector emits a box whatever stream the
    // video generator's RNG produced (the first six frames can be empty).
    let model = env.registry.get(&det.impl_id).unwrap();
    let detects = |f: u64| {
        let input = eva_udf::UdfEvalContext {
            dataset: &env.dataset,
            frame: FrameId(f),
            bbox: None,
        };
        !model.eval(&input).unwrap().is_empty()
    };
    let first_hit = (0..128).find(|&f| detects(f)).expect("a detection");
    let n = (first_hit + 1).max(6);
    // Build detector rows first (plain), then cartype with views+store.
    let det_spec = detector_spec(&env, ApplyReuse::None { udf: det });
    let det_op = ApplyOp::new(frame_source(&env, n), det_spec, apply_schema(&env)).unwrap();

    let view = env.storage.create_view(
        "cartype",
        ViewKeyKind::FrameBox,
        Arc::new(ct.output.clone()),
    );
    let ct_schema = Arc::new(apply_schema(&env).join(&ct.output));
    let ct_spec = ApplySpec {
        display_name: "cartype".into(),
        args: vec![Expr::col("frame"), Expr::col("bbox")],
        reuse: ApplyReuse::Views {
            segments: vec![Segment {
                udf: ct,
                view: Some(view),
                eval: true,
            }],
            store: true,
        },
        output: Arc::new(env.catalog.udf("cartype").unwrap().output.clone()),
    };
    let ct_op = ApplyOp::new(Box::new(det_op), ct_spec, ct_schema).unwrap();
    let out = env.drain(Box::new(ct_op)).unwrap();
    assert!(!out.is_empty());
    let c = env.stats.get("cartype");
    assert_eq!(c.reused_invocations, 0);
    assert_eq!(env.storage.view_n_keys(view).unwrap(), c.distinct_inputs);
    // Output column present and populated.
    let idx = out.schema().index_of("cartype").unwrap();
    assert!(out.rows().iter().all(|r| matches!(&r[idx], Value::Str(_))));
}

#[test]
fn apply_rejects_non_column_args() {
    let env = TestEnv::new(12, 5);
    let def = env.catalog.udf("fasterrcnn_resnet50").unwrap();
    let spec = ApplySpec {
        display_name: "bad".into(),
        args: vec![Expr::lit(1)],
        reuse: ApplyReuse::None { udf: def },
        output: Arc::new(Schema::empty()),
    };
    assert!(ApplyOp::new(frame_source(&env, 5), spec, apply_schema(&env)).is_err());
}

// ---------------------------------------------------------------------------
// The columnar cross-apply join
// ---------------------------------------------------------------------------

/// A detector-shaped model whose output is a pure function of the frame id:
/// frame `f` yields `f % 4` rows (so every fourth frame fans out to
/// nothing), with a NULL label on odd rows and an `Int` score on row 0 —
/// the join must carry NULLs and value tags through unchanged.
struct FanoutSim {
    schema: Arc<Schema>,
}

impl eva_udf::SimUdf for FanoutSim {
    fn impl_id(&self) -> &str {
        "test/fanout"
    }
    fn cost_ms(&self) -> f64 {
        7.3
    }
    fn output_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }
    fn key_kind(&self) -> ViewKeyKind {
        ViewKeyKind::Frame
    }
    fn eval(&self, ctx: &eva_udf::UdfEvalContext<'_>) -> eva_common::Result<Vec<Vec<Value>>> {
        Ok(fanout_rows(ctx.frame.raw()))
    }
}

fn fanout_rows(f: u64) -> Vec<Vec<Value>> {
    (0..f % 4)
        .map(|j| {
            let x = (f as f32 + j as f32) / 64.0;
            vec![
                if j % 2 == 1 {
                    Value::Null
                } else {
                    Value::from(format!("obj{f}_{j}"))
                },
                Value::from(eva_common::BBox::new(x, x, x + 0.1, x + 0.1)),
                if j == 0 {
                    Value::Int(1)
                } else {
                    Value::Float(0.5 + j as f64 / 8.0)
                },
            ]
        })
        .collect()
}

/// How the join tests hand the same frames to `ApplyOp`.
#[derive(Debug, Clone, Copy)]
enum InputForm {
    Rows,
    Columnar,
    /// A 16-row columnar batch with only the wanted frames selected.
    Selected,
}

/// Frames fed to the join tests, deliberately out of order; 0, 12 and 4
/// have zero detections under [`FanoutSim`].
const JOIN_FRAMES: [u32; 7] = [7, 3, 0, 12, 4, 9, 6];

fn frame_row(f: u32) -> Vec<Value> {
    vec![
        Value::Int(f as i64),
        Value::Int(f as i64 * 40),
        Value::Int(f as i64),
    ]
}

fn join_source(form: InputForm) -> BoxedOp {
    let schema = Arc::new(eva_storage::engine::video_table_schema());
    let wanted = || JOIN_FRAMES.iter().map(|&f| frame_row(f)).collect();
    match form {
        InputForm::Rows => Box::new(ValuesOp::new(schema, wanted())),
        InputForm::Columnar => Box::new(ColumnarValuesOp::new(schema, wanted())),
        InputForm::Selected => Box::new(ColumnarValuesOp::with_selection(
            schema,
            (0..16).map(frame_row).collect(),
            JOIN_FRAMES.to_vec(),
        )),
    }
}

/// Frames the *interleaved* join runs find already materialized: in a
/// second detector's view (probed first, never evaluated) and in the
/// fallback's own view. The rest of [`JOIN_FRAMES`] — 3, 12, 4 — are
/// evaluated fresh, so in input order the keys resolve alt, fresh, own,
/// fresh, fresh, alt, own, and each of the three chunks holds rows: no
/// single chunk has them in key order.
const IN_ALT_VIEW: [u64; 2] = [7, 9];
const IN_OWN_VIEW: [u64; 2] = [0, 6];

/// Everything observable about a cold pass followed by a warm pass (all
/// keys hit) over [`JOIN_FRAMES`]. Cold means all keys miss (evaluate and
/// STORE), or, `interleaved`, that they resolve from two views and fresh
/// evaluation in turn.
#[derive(Debug, PartialEq)]
struct JoinRun {
    cold: Vec<Vec<Value>>,
    warm: Vec<Vec<Value>>,
    cost: eva_common::CostBreakdown,
    metrics: eva_common::MetricsSnapshot,
    op_stats: std::collections::BTreeMap<eva_common::OpId, eva_common::OpStats>,
    counters: (u64, u64, u64),
    view: Vec<Option<Vec<Vec<Value>>>>,
}

fn run_join(form: InputForm, interleaved: bool) -> JoinRun {
    let env = TestEnv::new(30, 16);
    let det = env.catalog.udf("fasterrcnn_resnet50").unwrap();
    let output = Arc::new(det.output.clone());
    env.registry.register(Arc::new(FanoutSim {
        schema: Arc::clone(&output),
    }));
    let udf = eva_catalog::UdfDef {
        name: "fanout".into(),
        impl_id: "test/fanout".into(),
        cost_ms: Some(7.3),
        ..det
    };
    let alt = eva_catalog::UdfDef {
        name: "fanout_alt".into(),
        ..udf.clone()
    };
    let alt_view = env
        .storage
        .create_view("fanout_alt", ViewKeyKind::Frame, Arc::clone(&output));
    let view = env
        .storage
        .create_view("fanout", ViewKeyKind::Frame, Arc::clone(&output));
    if interleaved {
        let entries =
            |frames: [u64; 2]| frames.map(|f| (ViewKey::frame(FrameId(f)), fanout_rows(f)));
        store_rows(&env, alt_view, &entries(IN_ALT_VIEW));
        store_rows(&env, view, &entries(IN_OWN_VIEW));
        env.clock.reset();
        env.storage.metrics().reset();
    }
    let pass = || {
        let spec = ApplySpec {
            display_name: "fanout".into(),
            args: vec![Expr::col("frame")],
            reuse: ApplyReuse::Views {
                segments: vec![
                    Segment {
                        udf: alt.clone(),
                        view: Some(alt_view),
                        eval: false,
                    },
                    Segment {
                        udf: udf.clone(),
                        view: Some(view),
                        eval: true,
                    },
                ],
                store: true,
            },
            output: Arc::clone(&output),
        };
        let op = ApplyOp::new(join_source(form), spec, apply_schema(&env)).unwrap();
        env.drain(Box::new(op)).unwrap().into_rows()
    };
    let n_alt = if interleaved {
        IN_ALT_VIEW.len() as u64
    } else {
        0
    };
    let n_own = if interleaved {
        IN_OWN_VIEW.len() as u64
    } else {
        0
    };
    let n = JOIN_FRAMES.len() as u64;
    let cold = pass();
    let reused = |udf: &str| env.stats.get(udf).reused_invocations;
    assert_eq!((reused("fanout_alt"), reused("fanout")), (n_alt, n_own));
    let c = env.stats.get("fanout");
    assert_eq!(
        c.total_invocations - c.reused_invocations,
        n - n_alt - n_own
    );
    let warm = pass();
    let c = env.stats.get("fanout");
    assert_eq!(
        reused("fanout_alt") + c.reused_invocations,
        n + n_alt + n_own
    );
    // Between them the two views hold each input exactly once.
    let keys: Vec<ViewKey> = (0..16).map(|f| ViewKey::frame(FrameId(f))).collect();
    let stored = stored_rows(&env, view, &keys)
        .into_iter()
        .zip(stored_rows(&env, alt_view, &keys))
        .map(|(own, alt)| {
            assert!(own.is_none() || alt.is_none());
            own.or(alt)
        })
        .collect();
    let m = env.storage.metrics().snapshot().deterministic();
    JoinRun {
        cold,
        warm,
        cost: env.clock.snapshot(),
        metrics: eva_common::MetricsSnapshot {
            columnar_batches: 0,
            columnar_rows: 0,
            rows_pivoted: 0,
            ..m
        },
        op_stats: env.op_stats.snapshot(),
        counters: (c.total_invocations, c.distinct_inputs, c.reused_invocations),
        view: stored,
    }
}

/// One join, three input forms: row batches (lifted once), columnar
/// batches, and columnar batches under a non-trivial selection must be
/// indistinguishable — rows in order, simulated cost, counters, per-op
/// stats and what STORE left in the view. And one join, however the keys
/// resolve: a batch served from two views and fresh evaluation in turn
/// (chunks concatenated, then permuted into key order) must produce the
/// rows and leave the view contents of the all-fresh run.
#[test]
fn apply_join_is_identical_across_input_forms() {
    let rows = run_join(InputForm::Rows, false);
    // The expected output, spelled out: input order, each frame × its
    // `f % 4` result rows, zero-detection frames dropped.
    let expected: Vec<Vec<Value>> = JOIN_FRAMES
        .iter()
        .flat_map(|&f| {
            fanout_rows(f as u64)
                .into_iter()
                .map(move |udf_row| [frame_row(f), udf_row].concat())
        })
        .collect();
    assert_eq!(expected.len(), 3 + 3 + 1 + 2);
    assert_eq!(rows.cold, expected);
    assert_eq!(rows.warm, expected, "served from the view, same join");
    // Tags survive the typed output columns: row 0's score stays an Int.
    assert!(matches!(rows.cold[0][5], Value::Int(1)));
    assert!(matches!(rows.cold[1][3], Value::Null));
    // Zero-detection frames are still materialized (as empty results).
    assert_eq!(rows.view[0], Some(vec![]));
    assert_eq!(rows.view[1], None, "frame 1 was never an input");
    assert_eq!(rows.counters, (14, 7, 7));

    assert_eq!(rows, run_join(InputForm::Columnar, false));
    assert_eq!(rows, run_join(InputForm::Selected, false));

    let mixed = run_join(InputForm::Rows, true);
    assert_eq!(mixed.cold, expected, "two views and fresh rows interleaved");
    assert_eq!(mixed.warm, expected, "two views interleaved");
    assert_eq!(mixed.view, rows.view);
    // Cold: 3 fresh calls, 2 + 2 hits on 7 + 5 probes. Warm: 2 + 5 hits.
    assert_eq!(mixed.counters, (3 + 2 + 5, 5, 2 + 5));
    let m = &mixed.metrics;
    assert_eq!((m.udf_calls_executed, m.udf_calls_avoided), (3, 4 + 7));
    assert_eq!((m.probes, m.probe_hits), (7 + 5 + 7 + 5, 4 + 7));
    assert_eq!(mixed, run_join(InputForm::Columnar, true));
    assert_eq!(mixed, run_join(InputForm::Selected, true));
}

/// A NULL or wrong-typed `frame`/`bbox` cell is reported exactly as the
/// row engine's `Value::as_int`/`as_bbox` report it, whichever form the
/// batch arrives in.
#[test]
fn apply_reports_key_type_errors_like_value_accessors() {
    let env = TestEnv::new(31, 4);
    let det = env.catalog.udf("fasterrcnn_resnet50").unwrap();
    let ct = env.catalog.udf("cartype").unwrap();
    let schema = Arc::new(
        Schema::new(vec![
            Field::new("frame", DataType::Frame),
            Field::new("bbox", DataType::BBox),
        ])
        .unwrap(),
    );
    let good_box = Value::from(eva_common::BBox::new(0.1, 0.1, 0.2, 0.2));
    let run = |spec: &ApplySpec, bad: Vec<Value>, columnar: bool| {
        let rows = vec![vec![Value::Int(1), good_box.clone()], bad];
        let src: BoxedOp = if columnar {
            Box::new(ColumnarValuesOp::new(Arc::clone(&schema), rows))
        } else {
            Box::new(ValuesOp::new(Arc::clone(&schema), rows))
        };
        let out = Arc::new(schema.join(&spec.output));
        env.drain(Box::new(ApplyOp::new(src, spec.clone(), out).unwrap()))
            .unwrap_err()
    };
    let frame_spec = detector_spec(&env, ApplyReuse::None { udf: det });
    let box_spec = ApplySpec {
        display_name: "cartype".into(),
        args: vec![Expr::col("frame"), Expr::col("bbox")],
        output: Arc::new(ct.output.clone()),
        reuse: ApplyReuse::None { udf: ct },
    };
    for columnar in [false, true] {
        for bad in [Value::Null, Value::from("seven"), Value::Float(7.0)] {
            let want = bad.as_int().unwrap_err();
            assert!(matches!(want, eva_common::EvaError::Type(_)));
            let got = run(&frame_spec, vec![bad, good_box.clone()], columnar);
            assert_eq!(got, want, "frame cell, columnar={columnar}");
        }
        for bad in [Value::Null, Value::Int(3), Value::from("box")] {
            let want = bad.as_bbox().unwrap_err();
            assert!(matches!(want, eva_common::EvaError::Type(_)));
            let got = run(&box_spec, vec![Value::Int(2), bad], columnar);
            assert_eq!(got, want, "bbox cell, columnar={columnar}");
        }
    }
}

/// Run the standard views-mode detector query under a given config and
/// return the cost breakdown plus the drained output rows.
struct ViewsRun {
    cost: eva_common::CostBreakdown,
    rows: Vec<Vec<Value>>,
    metrics: eva_common::MetricsSnapshot,
    op_stats: std::collections::BTreeMap<eva_common::OpId, eva_common::OpStats>,
}

fn run_views_query(config: crate::config::ExecConfig) -> ViewsRun {
    run_views_query_faulty(config, &|_| {})
}

/// Like [`run_views_query`], arming failpoints on the engine before the
/// query runs (fault-injection tests).
fn run_views_query_faulty(
    config: crate::config::ExecConfig,
    arm: &dyn Fn(&eva_common::FailpointRegistry),
) -> ViewsRun {
    let env = TestEnv::new(42, 64);
    arm(env.storage.failpoints());
    let def = env.catalog.udf("fasterrcnn_resnet50").unwrap();
    let view = env
        .storage
        .create_view("det", ViewKeyKind::Frame, Arc::new(def.output.clone()));
    // Pre-materialize half the frames so both the probe-hit and the
    // evaluate-and-store paths run.
    let entries: Vec<_> = (0..32u64)
        .map(|i| {
            let row = vec![
                Value::from("sentinel"),
                Value::from(eva_common::BBox::new(0.0, 0.0, 0.5, 0.5)),
                Value::Float(1.0),
            ];
            (ViewKey::frame(FrameId(i)), vec![row])
        })
        .collect();
    store_rows(&env, view, &entries);
    env.clock.reset();

    let spec = detector_spec(
        &env,
        ApplyReuse::Views {
            segments: vec![Segment {
                udf: def,
                view: Some(view),
                eval: true,
            }],
            store: true,
        },
    );
    let mut op: Box<dyn crate::ops::Operator> =
        Box::new(ApplyOp::new(frame_source(&env, 64), spec, apply_schema(&env)).unwrap());
    let ctx = env.ctx_with(config);
    let mut rows = Vec::new();
    while let Some(b) = op.next(&ctx).unwrap() {
        rows.extend(b.into_batch().into_rows());
    }
    ViewsRun {
        cost: env.clock.snapshot(),
        rows,
        metrics: env.storage.metrics().snapshot(),
        op_stats: env.op_stats.snapshot(),
    }
}

/// The standard views query runs both halves of the fused apply — probe hits
/// on the pre-materialized frames, evaluate-and-store on the rest — and the
/// counters it leaves obey the sink's invariants, with the per-operator
/// stats agreeing with the session totals.
#[test]
fn views_apply_charges_both_paths_and_keeps_counter_invariants() {
    let run = run_views_query(crate::config::ExecConfig {
        batch_size: 64,
        ..Default::default()
    });
    assert!(
        run.cost.get(CostCategory::ReadView) > 0.0,
        "probe path exercised"
    );
    assert!(run.cost.get(CostCategory::Udf) > 0.0, "eval path exercised");
    let m = &run.metrics;
    assert!(m.probe_hits > 0, "{m:?}");
    assert!(m.udf_calls_executed > 0, "{m:?}");
    assert!(m.udf_calls_avoided > 0, "{m:?}");
    assert_eq!(m.probes, m.probe_hits + m.probe_misses, "{m:?}");
    assert_eq!(
        m.udf_calls_requested,
        m.udf_calls_executed + m.udf_calls_avoided,
        "{m:?}"
    );
    assert!(
        m.rows_served_zero_copy > 0,
        "probe hits serve zero-copy rows"
    );
    let op = &run.op_stats[&eva_common::OpId::UNSET];
    assert_eq!(
        (op.probes, op.probe_hits, op.udf_executed, op.udf_avoided),
        (
            m.probes,
            m.probe_hits,
            m.udf_calls_executed,
            m.udf_calls_avoided
        ),
        "the one apply's stats are the session totals"
    );
}

// ---------------------------------------------------------------------------
// Transient-failure retry (the udf_transient failpoint)
// ---------------------------------------------------------------------------

/// Select ~40% of keys, each failing its first attempt — every selected key
/// recovers within the default retry budget of 2.
fn arm_flaky(fp: &eva_common::FailpointRegistry) {
    fp.set_seed(7);
    fp.arm(
        eva_common::Failpoint::UdfTransient,
        eva_common::FireRule::Keyed {
            prob_permille: 400,
            fails: 1,
        },
    );
}

#[test]
fn transient_udf_failures_retry_and_recover() {
    let config = crate::config::ExecConfig {
        batch_size: 64,
        ..Default::default()
    };
    let clean = run_views_query(config);
    let flaky = run_views_query_faulty(config, &arm_flaky);
    assert_eq!(
        clean.rows, flaky.rows,
        "retried evaluations must not change the answer"
    );
    assert!(flaky.metrics.udf_retries > 0, "{:?}", flaky.metrics);
    assert_eq!(flaky.metrics.udf_gave_up, 0, "{:?}", flaky.metrics);
    // Each retry backs off 5ms (base · 2^0), charged to Apply.
    let extra = flaky.cost.get(CostCategory::Apply) - clean.cost.get(CostCategory::Apply);
    let expected = flaky.metrics.udf_retries as f64 * 5.0;
    assert!(
        (extra - expected).abs() < 1e-6,
        "backoff charge {extra} != {expected}"
    );
    // The failure set is keyed, not ordinal: a second run injects the same
    // faults and charges the same cost, bit for bit.
    let again = run_views_query_faulty(config, &arm_flaky);
    assert_eq!(flaky.cost, again.cost);
    assert_eq!(flaky.metrics.deterministic(), again.metrics.deterministic());
}

#[test]
fn transient_udf_failure_exhausts_budget_and_errors() {
    let env = TestEnv::new(13, 8);
    env.storage.failpoints().arm(
        eva_common::Failpoint::UdfTransient,
        eva_common::FireRule::Keyed {
            prob_permille: 1000,
            fails: 10,
        },
    );
    let def = env.catalog.udf("fasterrcnn_resnet50").unwrap();
    let spec = detector_spec(&env, ApplyReuse::None { udf: def });
    let op = ApplyOp::new(frame_source(&env, 8), spec, apply_schema(&env)).unwrap();
    let err = env.drain(Box::new(op)).unwrap_err();
    assert_eq!(err.stage(), "exec");
    assert!(
        err.to_string().contains("retry budget"),
        "error names the cause: {err}"
    );
    let m = env.storage.metrics().snapshot();
    assert_eq!(m.udf_gave_up, 1, "{m:?}");
    assert_eq!(m.udf_retries, 2, "budget of 2 retries was spent: {m:?}");
}

#[test]
fn transient_failures_hit_the_funcache_miss_path_only() {
    let env = TestEnv::new(14, 12);
    arm_flaky(env.storage.failpoints());
    let def = env.catalog.udf("fasterrcnn_resnet50").unwrap();
    let spec = detector_spec(&env, ApplyReuse::FunCache { udf: def });
    let op = ApplyOp::new(frame_source(&env, 12), spec.clone(), apply_schema(&env)).unwrap();
    env.drain(Box::new(op)).unwrap();
    let retries_cold = env.storage.metrics().snapshot().udf_retries;
    assert!(retries_cold > 0, "misses invoke the model and can fail");
    // A fully warm cache never invokes the model, so nothing can fail.
    let op = ApplyOp::new(frame_source(&env, 12), spec, apply_schema(&env)).unwrap();
    env.drain(Box::new(op)).unwrap();
    let m = env.storage.metrics().snapshot();
    assert_eq!(m.udf_retries, retries_cold, "{m:?}");
    assert_eq!(m.udf_gave_up, 0, "{m:?}");
}
