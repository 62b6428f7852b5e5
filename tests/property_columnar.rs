//! Property tests for the columnar execution layer (DESIGN.md §4f).
//!
//! * **Round trip** — pivoting a row batch to columnar form and back is
//!   lossless, and every cell's canonical byte encoding
//!   ([`Value::write_bytes`] vs [`eva_common::Column::write_value_bytes`])
//!   is bit-identical, NULLs included. Group keys and hash keys are built
//!   from these encodings, so bit-identity here is what guarantees the
//!   columnar aggregate groups exactly like the row aggregate.
//! * **Selection compaction** — for random predicates over random
//!   (NULL-bearing) data, filtering via selection vectors and compacting
//!   yields exactly the rows the row-at-a-time `eval_predicate` keeps,
//!   including when the input batch already carries a selection.
//! * **Deterministic counters** — the columnar flow counters reported by
//!   `EXPLAIN ANALYZE` sessions are reproducible run to run.
//! * **One pivot** — UDF-free and `CROSS APPLY` queries alike pivot only
//!   their result rows (`rows_pivoted == result rows`); `force_row_path`
//!   answers the same with the same simulated cost.

use std::sync::Arc;

use proptest::prelude::*;

use eva_common::{BBox, Batch, ColumnarBatch, DataType, Field, Schema, Value};
use eva_core::{EvaDb, SessionConfig};
use eva_exec::ExecConfig;
use eva_expr::{filter_columnar, Expr, NoUdfs, RowContext};
use eva_harness::{test_dataset, test_session};
use eva_planner::ReuseStrategy;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        2 => any::<bool>().prop_map(Value::Bool),
        3 => (-1_000_000i64..1_000_000).prop_map(Value::Int),
        3 => (-1.0e6f64..1.0e6).prop_map(Value::Float),
        2 => "[a-z]{0,8}".prop_map(Value::from),
        1 => (0.0f32..0.9, 0.0f32..0.9)
            .prop_map(|(x, y)| Value::from(BBox::new(x, y, x + 0.1, y + 0.1))),
    ]
}

fn mixed_schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(vec![
            Field::new("c0", DataType::Int),
            Field::new("c1", DataType::Float),
            Field::new("c2", DataType::Str),
        ])
        .unwrap(),
    )
}

/// Predicate leaves over the `(a: Int?, b: Str)` filter-test table, chosen
/// so every comparison is well-typed while still exercising NULL handling.
#[derive(Debug, Clone)]
enum Leaf {
    Lt(i64),
    Gt(i64),
    EqA(i64),
    EqB(&'static str),
}

impl Leaf {
    fn expr(&self) -> Expr {
        match self {
            Leaf::Lt(k) => Expr::col("a").lt(*k),
            Leaf::Gt(k) => Expr::col("a").gt(*k),
            Leaf::EqA(k) => Expr::col("a").eq_val(*k),
            Leaf::EqB(s) => Expr::col("b").eq_val(*s),
        }
    }
}

fn arb_leaf() -> impl Strategy<Value = Leaf> {
    prop_oneof![
        (-50i64..50).prop_map(Leaf::Lt),
        (-50i64..50).prop_map(Leaf::Gt),
        (-50i64..50).prop_map(Leaf::EqA),
        prop::sample::select(vec!["x", "y", "zz"]).prop_map(Leaf::EqB),
    ]
}

/// Fold 1–4 leaves into one predicate with alternating AND/OR and an
/// optional outer NOT — deep enough to hit the vectorized short-circuit
/// masks, shallow enough to shrink well.
fn build_pred(leaves: &[Leaf], negate: bool) -> Expr {
    let mut it = leaves.iter();
    let mut e = it.next().expect("at least one leaf").expr();
    for (i, l) in it.enumerate() {
        e = if i % 2 == 0 {
            e.and(l.expr())
        } else {
            e.or(l.expr())
        };
    }
    if negate {
        e.not()
    } else {
        e
    }
}

fn filter_schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
        ])
        .unwrap(),
    )
}

fn arb_filter_row() -> impl Strategy<Value = Vec<Value>> {
    (
        prop_oneof![
            4 => (-50i64..50).prop_map(Value::Int),
            1 => Just(Value::Null),
        ],
        prop::sample::select(vec!["x", "y", "zz"]).prop_map(Value::from),
    )
        .prop_map(|(a, b)| vec![a, b])
}

/// The row-at-a-time reference: SQL `WHERE` semantics, NULL rejects.
fn row_filter(schema: &Schema, rows: &[Vec<Value>], pred: &Expr) -> Vec<Vec<Value>> {
    rows.iter()
        .filter(|r| {
            pred.eval_predicate(&RowContext::new(schema, r, &NoUdfs))
                .expect("well-typed predicate")
        })
        .cloned()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn row_columnar_round_trip_is_bit_identical(
        rows in prop::collection::vec(prop::collection::vec(arb_value(), 3), 0..40),
    ) {
        let schema = mixed_schema();
        let batch = Batch::new(Arc::clone(&schema), rows.clone());
        let cb = ColumnarBatch::from_batch(&batch);
        prop_assert_eq!(cb.len(), rows.len());
        let back = cb.to_batch();
        prop_assert_eq!(back.rows(), batch.rows());
        // Cell-level canonical encodings agree byte for byte.
        for (i, row) in rows.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                let mut want = Vec::new();
                v.write_bytes(&mut want);
                let mut got = Vec::new();
                cb.column(j).write_value_bytes(i, &mut got);
                prop_assert_eq!(
                    &want, &got,
                    "cell ({}, {}) encoding drifted: {:?}", i, j, v
                );
            }
        }
    }

    #[test]
    fn selection_compaction_matches_row_filter(
        rows in prop::collection::vec(arb_filter_row(), 0..60),
        leaves in prop::collection::vec(arb_leaf(), 1..5),
        negate in any::<bool>(),
    ) {
        let schema = filter_schema();
        let pred = build_pred(&leaves, negate);
        let expected = row_filter(&schema, &rows, &pred);

        let batch = Batch::new(Arc::clone(&schema), rows.clone());
        let cb = ColumnarBatch::from_batch(&batch);
        let sel = filter_columnar(&pred, &cb).expect("well-typed predicate");
        let got = cb.with_selection(sel).to_batch();
        prop_assert_eq!(got.rows(), expected.as_slice());
    }

    #[test]
    fn selection_compaction_composes_with_prior_selection(
        rows in prop::collection::vec(arb_filter_row(), 0..60),
        leaves in prop::collection::vec(arb_leaf(), 1..5),
    ) {
        let schema = filter_schema();
        let pred = build_pred(&leaves, false);
        // Reference: filter only the even-index rows, row-at-a-time.
        let evens: Vec<Vec<Value>> = rows.iter().step_by(2).cloned().collect();
        let expected = row_filter(&schema, &evens, &pred);

        let batch = Batch::new(Arc::clone(&schema), rows.clone());
        let pre: Vec<u32> = (0..rows.len() as u32).step_by(2).collect();
        let cb = ColumnarBatch::from_batch(&batch).with_selection(pre);
        let sel = filter_columnar(&pred, &cb).expect("well-typed predicate");
        let got = cb.with_selection(sel).to_batch();
        prop_assert_eq!(got.rows(), expected.as_slice());
    }
}

/// The columnar hot path's counters in `EXPLAIN ANALYZE` sessions are
/// deterministic: two fresh sessions running the same non-UDF query
/// report identical result rows and identical deterministic counters —
/// with the columnar flow actually exercised (batches emitted columnar,
/// rows pivoted only at the output boundary).
#[test]
fn columnar_counters_are_deterministic_across_sessions() {
    const Q: &str = "SELECT id FROM video WHERE id >= 10 AND id < 50";
    let run = || {
        let mut db = test_session(ReuseStrategy::Eva, 99, 60);
        let out = db.execute_sql(Q).unwrap().rows().unwrap();
        let text = db.explain_analyze(Q).unwrap();
        (out.batch.rows().to_vec(), out.metrics, text)
    };
    let (rows_a, m_a, text_a) = run();
    let (rows_b, m_b, text_b) = run();
    assert_eq!(rows_a, rows_b, "result rows must be reproducible");
    assert_eq!(rows_a.len(), 40);
    assert_eq!(
        m_a.deterministic(),
        m_b.deterministic(),
        "columnar counters must be reproducible"
    );
    assert!(
        m_a.columnar_batches > 0,
        "non-UDF query flows columnar: {m_a:?}"
    );
    assert_eq!(
        m_a.rows_pivoted, 40,
        "only the final output crosses the pivot boundary: {m_a:?}"
    );
    // The EXPLAIN ANALYZE plan tree is identical too (the runtime footer
    // carries wall-clock latencies, so compare the plan section only).
    let plan = |t: &str| t.split("-- runtime --").next().unwrap().to_string();
    assert_eq!(plan(&text_a), plan(&text_b));
}

/// UDF queries stay columnar through APPLY: the cross-apply join reads its
/// keys from the `frame`/`bbox` columns and emits columnar batches, so the
/// post-detector filter and projection run vectorized and — cold (evaluate
/// and STORE) and warm (served from the views) alike — only the result
/// rows cross the pivot boundary, not every scanned frame. The
/// `force_row_path` arm, which pivots the scan's and each APPLY's output,
/// must agree on rows and simulated cost.
#[test]
fn cross_apply_pivots_only_result_rows() {
    const Q: &str = "SELECT id, label, cartype FROM video \
                     CROSS APPLY fasterrcnn_resnet50(frame) CROSS APPLY cartype(frame, bbox) \
                     WHERE id >= 10 AND id < 50 AND score > 0.55";
    let session = |exec: ExecConfig| {
        let mut db = EvaDb::new(SessionConfig {
            exec,
            ..SessionConfig::for_strategy(ReuseStrategy::Eva)
        })
        .unwrap();
        db.load_video(test_dataset(99, 60), "video").unwrap();
        let cold = db.execute_sql(Q).unwrap().rows().unwrap();
        let warm = db.execute_sql(Q).unwrap().rows().unwrap();
        (cold, warm)
    };
    let (cold, warm) = session(ExecConfig::default());
    assert!(!cold.batch.is_empty(), "the query selects something");
    assert_eq!(cold.batch.rows(), warm.batch.rows());
    assert!(cold.metrics.udf_calls_executed > 0, "{:?}", cold.metrics);
    assert_eq!(warm.metrics.udf_calls_executed, 0, "{:?}", warm.metrics);
    for out in [&cold, &warm] {
        let m = &out.metrics;
        assert_eq!(m.frames_scanned, 40, "{m:?}");
        assert_eq!(
            m.rows_pivoted,
            out.batch.len() as u64,
            "only the final output crosses the pivot boundary: {m:?}"
        );
        // Scan, both applies and the operators above them emit columnar.
        assert!(m.columnar_rows > m.frames_scanned, "{m:?}");
    }

    let (row_cold, row_warm) = session(ExecConfig {
        force_row_path: true,
        ..ExecConfig::default()
    });
    for (col, row) in [(&cold, &row_cold), (&warm, &row_warm)] {
        assert_eq!(col.batch.rows(), row.batch.rows());
        assert_eq!(col.breakdown, row.breakdown);
    }
    assert!(row_cold.metrics.rows_pivoted > cold.metrics.rows_pivoted);
}
