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
//! * **Projection kernel** — for random expressions over random
//!   (NULL-bearing, `Mixed`) data, with and without a selection,
//!   `eval_columnar` yields the values and errors of per-row `Expr::eval`.
//! * **Deterministic counters** — the columnar flow counters reported by
//!   `EXPLAIN ANALYZE` sessions are reproducible run to run.
//! * **One pivot** — UDF-free and `CROSS APPLY` queries alike pivot only
//!   their result rows (`rows_pivoted == result rows`), cold and warm.

use std::sync::Arc;

use eva_common::rng::SmallRng;
use eva_common::testutil::{for_cases, vec_of};
use eva_common::{BBox, Batch, ColumnarBatch, DataType, Field, Schema, Value};
use eva_expr::{eval_columnar, filter_columnar, CmpOp, Expr, NoUdfs, RowContext};
use eva_harness::test_session;
use eva_planner::ReuseStrategy;

fn arb_value(rng: &mut SmallRng) -> Value {
    // Weights 1 : 2 : 3 : 3 : 2 : 1, as NULL : Bool : Int : Float : Str : Box.
    match rng.gen_range(0..12) {
        0 => Value::Null,
        1..=2 => Value::Bool(rng.gen_bool(0.5)),
        3..=5 => Value::Int(rng.gen_range(-1_000_000i64..1_000_000)),
        6..=8 => Value::Float(rng.gen_range(-1.0e6..1.0e6)),
        9..=10 => {
            let len = rng.gen_range(0..9);
            Value::from(
                (0..len)
                    .map(|_| rng.gen_range(b'a'..b'z' + 1) as char)
                    .collect::<String>(),
            )
        }
        _ => {
            let (x, y) = (rng.gen_range(0.0f32..0.9), rng.gen_range(0.0f32..0.9));
            Value::from(BBox::new(x, y, x + 0.1, y + 0.1))
        }
    }
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

const B_VALUES: [&str; 3] = ["x", "y", "zz"];

fn arb_leaf(rng: &mut SmallRng) -> Leaf {
    match rng.gen_range(0..4) {
        0 => Leaf::Lt(rng.gen_range(-50..50)),
        1 => Leaf::Gt(rng.gen_range(-50..50)),
        2 => Leaf::EqA(rng.gen_range(-50..50)),
        _ => Leaf::EqB(B_VALUES[rng.gen_range(0..B_VALUES.len())]),
    }
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

fn arb_filter_row(rng: &mut SmallRng) -> Vec<Value> {
    // `a` is NULL one time in five.
    let a = if rng.gen_range(0..5) == 0 {
        Value::Null
    } else {
        Value::Int(rng.gen_range(-50..50))
    };
    vec![a, Value::from(*rng.pick(&B_VALUES))]
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

#[test]
fn row_columnar_round_trip_is_bit_identical() {
    for_cases(101, 64, |rng| {
        let rows = vec_of(rng, 0..40, |r| {
            (0..3).map(|_| arb_value(r)).collect::<Vec<_>>()
        });
        let schema = mixed_schema();
        let batch = Batch::new(Arc::clone(&schema), rows.clone());
        let cb = ColumnarBatch::from_batch(&batch);
        assert_eq!(cb.len(), rows.len());
        let back = cb.to_batch();
        assert_eq!(back.rows(), batch.rows());
        // Cell-level canonical encodings agree byte for byte.
        for (i, row) in rows.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                let mut want = Vec::new();
                v.write_bytes(&mut want);
                let mut got = Vec::new();
                cb.column(j).write_value_bytes(i, &mut got);
                assert_eq!(want, got, "cell ({i}, {j}) encoding drifted: {v:?}");
            }
        }
    });
}

#[test]
fn selection_compaction_matches_row_filter() {
    for_cases(102, 64, |rng| {
        let rows = vec_of(rng, 0..60, arb_filter_row);
        let leaves = vec_of(rng, 1..5, arb_leaf);
        let negate = rng.gen_bool(0.5);
        let schema = filter_schema();
        let pred = build_pred(&leaves, negate);
        let expected = row_filter(&schema, &rows, &pred);

        let batch = Batch::new(Arc::clone(&schema), rows.clone());
        let cb = ColumnarBatch::from_batch(&batch);
        let sel = filter_columnar(&pred, &cb).expect("well-typed predicate");
        let got = cb.with_selection(sel).to_batch();
        assert_eq!(got.rows(), expected.as_slice(), "predicate {pred}");
    });
}

#[test]
fn selection_compaction_composes_with_prior_selection() {
    for_cases(103, 64, |rng| {
        let rows = vec_of(rng, 0..60, arb_filter_row);
        let leaves = vec_of(rng, 1..5, arb_leaf);
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
        assert_eq!(got.rows(), expected.as_slice(), "predicate {pred}");
    });
}

/// `(a: Int?, f: Float?, b: Str?, t: Bool?)`: `f` also carries `Int`s, so
/// it is a `Mixed` column whenever a batch holds both tags.
fn project_schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("b", DataType::Str),
            Field::new("t", DataType::Bool),
        ])
        .unwrap(),
    )
}

fn arb_project_row(rng: &mut SmallRng) -> Vec<Value> {
    let null_or = |rng: &mut SmallRng, v: Value| {
        if rng.gen_range(0..5) == 0 {
            Value::Null
        } else {
            v
        }
    };
    let a = Value::Int(rng.gen_range(-5..5));
    let f = if rng.gen_bool(0.3) {
        Value::Int(rng.gen_range(-5..5))
    } else {
        Value::Float(rng.gen_range(-5.0..5.0))
    };
    let b = Value::from(*rng.pick(&B_VALUES));
    let t = Value::Bool(rng.gen_bool(0.5));
    vec![
        null_or(rng, a),
        null_or(rng, f),
        null_or(rng, b),
        null_or(rng, t),
    ]
}

fn arb_literal(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..5) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen_range(-5..5)),
        3 => Value::Float(rng.gen_range(-5.0..5.0)),
        _ => Value::from(*rng.pick(&B_VALUES)),
    }
}

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// A random projection item over [`project_schema`]: columns (now and then
/// an unknown one), literals, comparisons, `AND`/`OR`/`NOT` and `IS [NOT]
/// NULL`, up to `depth` levels. The grammar has no arithmetic operators.
/// Connectives usually get boolean operands, and sometimes not, so type
/// errors and short circuits over them both occur.
fn arb_project_expr(rng: &mut SmallRng, depth: u32) -> Expr {
    let leaf = |rng: &mut SmallRng| match rng.gen_range(0..10) {
        0..=5 => Expr::col(*rng.pick(&["a", "f", "b", "t", "a", "f"])),
        6 if rng.gen_bool(0.2) => Expr::col("missing"),
        _ => Expr::lit(arb_literal(rng)),
    };
    if depth == 0 || rng.gen_range(0..4) == 0 {
        return leaf(rng);
    }
    let boolean = |rng: &mut SmallRng| {
        if rng.gen_bool(0.85) {
            let e = arb_project_expr(rng, depth - 1);
            match e {
                Expr::Column(_) | Expr::Literal(_) if rng.gen_bool(0.7) => {
                    Expr::cmp(e, *rng.pick(&CMP_OPS), leaf(rng))
                }
                e => e,
            }
        } else {
            leaf(rng)
        }
    };
    match rng.gen_range(0..5) {
        0 => Expr::cmp(
            arb_project_expr(rng, depth - 1),
            *rng.pick(&CMP_OPS),
            arb_project_expr(rng, depth - 1),
        ),
        1 => boolean(rng).and(boolean(rng)),
        2 => boolean(rng).or(boolean(rng)),
        3 => boolean(rng).not(),
        _ => Expr::IsNull {
            expr: Box::new(arb_project_expr(rng, depth - 1)),
            negated: rng.gen_bool(0.5),
        },
    }
}

/// A value spelled with its tag and, for floats, its bits.
fn tagged(v: &Value) -> String {
    match v {
        Value::Float(x) => format!("Float({:#018x})", x.to_bits()),
        other => format!("{other:?}"),
    }
}

/// The projection kernel against the scalar evaluator: for random items
/// over random NULL-bearing (and `Mixed`) data, with and without a prior
/// selection, `eval_columnar` yields one cell per visible row equal, tag
/// and bits included, to `Expr::eval` on that row. When some row's scalar
/// evaluation fails, the kernel fails too, with the `EvaError` of one of
/// the failing rows; on a one-row batch it is that row's error exactly.
#[test]
fn projection_kernel_matches_scalar_eval() {
    let mut outcomes = [0u32; 2];
    for_cases(104, 256, |rng| {
        let rows = vec_of(rng, 1..40, arb_project_row);
        let expr = arb_project_expr(rng, 3);
        let schema = project_schema();
        let all = ColumnarBatch::from_batch(&Batch::new(Arc::clone(&schema), rows.clone()));
        let sel: Vec<u32> = (0..rows.len() as u32)
            .filter(|_| rng.gen_bool(0.6))
            .collect();
        let mut batches = vec![all.clone()];
        if !sel.is_empty() {
            batches.push(all.with_selection(sel));
        }
        for cb in batches {
            let active = cb.physical_indices();
            let want: Vec<_> = active
                .iter()
                .map(|&i| expr.eval(&RowContext::new(&schema, &rows[i as usize], &NoUdfs)))
                .collect();
            let got = eval_columnar(&expr, &cb, &active);
            let what = format!("{expr} over {} visible row(s)", active.len());
            match (got, want.iter().find_map(|w| w.as_ref().err())) {
                (Ok(col), None) => {
                    assert_eq!(col.len(), active.len(), "{what}");
                    for (i, w) in want.iter().enumerate() {
                        let w = w.as_ref().unwrap();
                        assert_eq!(tagged(&col.value_at(i)), tagged(w), "{what}, row {i}");
                    }
                    outcomes[0] += 1;
                }
                (Err(e), Some(first)) => {
                    assert!(
                        want.iter().any(|w| w.as_ref().err() == Some(&e)),
                        "{what}: kernel error {e} is no row's error"
                    );
                    if active.len() == 1 {
                        assert_eq!(&e, first, "{what}");
                    }
                    outcomes[1] += 1;
                }
                (got, first) => panic!("{what}: kernel {got:?}, scalar error {first:?}"),
            }
        }
    });
    // Both branches carry weight.
    assert!(outcomes.iter().all(|&n| n > 50), "{outcomes:?}");
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
/// rows cross the pivot boundary, not every scanned frame.
#[test]
fn cross_apply_pivots_only_result_rows() {
    const Q: &str = "SELECT id, label, cartype FROM video \
                     CROSS APPLY fasterrcnn_resnet50(frame) CROSS APPLY cartype(frame, bbox) \
                     WHERE id >= 10 AND id < 50 AND score > 0.55";
    let mut db = test_session(ReuseStrategy::Eva, 99, 60);
    let cold = db.execute_sql(Q).unwrap().rows().unwrap();
    let warm = db.execute_sql(Q).unwrap().rows().unwrap();
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
}
