//! Unit tests for the physical operators.
#![cfg(test)]

use std::sync::Arc;

use eva_common::testutil::rows_of;
use eva_common::{
    CellRef, Column, CostCategory, DataType, Field, FrameId, GovernorConfig, QueryGovernor, Schema,
    Value, ViewId,
};
use eva_expr::{AggFunc, Expr, NoUdfs, RowContext};
use eva_planner::{ApplyReuse, ApplySpec, PhysPlan, Segment};
use eva_storage::{ViewKey, ViewKeyKind};
use eva_udf::runtime::DetRng;

use crate::ops::aggregate::{AggregateOp, AGG_GROUP_BYTES};
use crate::ops::apply::ApplyOp;
use crate::ops::filter::FilterOp;
use crate::ops::project::ProjectOp;
use crate::ops::scan::ScanFramesOp;
use crate::ops::sort_limit::{LimitOp, SortOp};
use crate::ops::BoxedOp;
use crate::testing::{TestEnv, ValuesOp};

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
// Operators == the row-at-a-time references
// ---------------------------------------------------------------------------

/// NULL-bearing rows, so the reference tests cover the validity-bitmap paths
/// as well as the typed fast paths.
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

/// The vectorized filter and projection produce bit-identical rows to the
/// row-at-a-time path — the scalar evaluator run row by row — including
/// NULL predicate results (unknown rejects the row) and NULLs surviving
/// into projected output.
#[test]
fn columnar_filter_project_matches_row_path() {
    let env = TestEnv::new(20, 4);
    let predicate = Expr::col("a").lt(8);
    let items = vec![
        (Expr::col("b"), "b".to_string()),
        (Expr::col("a").lt(5), "small".to_string()),
    ];
    let in_schema = int_schema();
    let want: Vec<Vec<Value>> = null_rows()
        .iter()
        .filter_map(|row| {
            let rc = RowContext::new(&in_schema, row, &NoUdfs);
            let keep = predicate.eval_predicate(&rc).unwrap();
            keep.then(|| items.iter().map(|(e, _)| e.eval(&rc).unwrap()).collect())
        })
        .collect();
    let schema = Arc::new(
        Schema::new(vec![
            Field::new("b", DataType::Str),
            Field::new("small", DataType::Bool),
        ])
        .unwrap(),
    );
    let filt = FilterOp::new(
        Box::new(ValuesOp::new(int_schema(), null_rows())),
        predicate,
    );
    let proj = ProjectOp::new(Box::new(filt), items, schema);
    let got = env.drain(Box::new(proj)).unwrap();
    assert_eq!(got.rows(), want);
    assert_eq!(got.len(), 4, "NULL `a` is unknown and filtered out");
    // The NULL `b` cell survives projection intact.
    assert!(got.rows().iter().any(|r| r[0] == Value::Null));
}

/// Aggregation groups, sorts and folds exactly like the row fold
/// ([`reference_aggregate`]) — group keys are encoded with the same byte
/// encoding on both sides, and NULL arguments are skipped by
/// SUM/MIN/MAX/AVG.
#[test]
fn columnar_aggregate_matches_row_path() {
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
    let funcs = [
        (AggFunc::Count, None),
        (AggFunc::Sum, Some(0)),
        (AggFunc::Min, Some(0)),
        (AggFunc::Max, Some(0)),
        (AggFunc::Avg, Some(0)),
    ];
    let aggs = funcs
        .iter()
        .zip(["n", "s", "mn", "mx", "av"])
        .map(|(&(func, arg), name)| (func, arg.map(|_| Expr::col("a")), name.to_string()))
        .collect();
    let src = ValuesOp::new(int_schema(), null_rows());
    let op = AggregateOp::new(Box::new(src), vec!["b".into()], aggs, schema);
    let got = env.drain(Box::new(op)).unwrap();
    let want = reference_aggregate(&[null_rows()], &[1], &funcs);
    assert_eq!(bitwise(got.rows()), bitwise(&want));
    // Three groups: NULL, "x", "y" (NULL key bytes sort first).
    assert_eq!(got.len(), 3);
    assert_eq!(got.value(0, "b").unwrap(), &Value::Null);
    assert_eq!(got.value(1, "b").unwrap(), &Value::from("x"));
    // Group "x" holds a = {1, 9, 4} → sum 14.
    assert_eq!(got.value(1, "s").unwrap(), &Value::Float(14.0));
}

/// LIMIT on a columnar batch truncates through the selection vector
/// without pivoting to rows.
#[test]
fn limit_truncates_columnar_batches_via_selection() {
    let env = TestEnv::new(22, 4);
    let src = ValuesOp::new(int_schema(), null_rows());
    let op = LimitOp::new(Box::new(src), 2);
    let out = env.drain(Box::new(op)).unwrap();
    assert_eq!(out.len(), 2);
    assert_eq!(out.value(0, "a").unwrap(), &Value::Int(1));
    assert_eq!(out.value(1, "a").unwrap(), &Value::Null);
    // Only the two surviving rows were pivoted at the drain boundary.
    assert_eq!(env.storage.metrics().snapshot().rows_pivoted, 2);
}

/// `rows_pivoted` is the observable cost of leaving columnar form: the
/// drain boundary charges it for the visible rows it pivots, and a row a
/// selection hides is never built.
#[test]
fn pivot_counter_charges_only_columnar_flows() {
    let env = TestEnv::new(23, 4);
    let out = env.drain(Box::new(ValuesOp::new(int_schema(), null_rows())));
    assert_eq!(out.unwrap().len(), 6);
    assert_eq!(env.storage.metrics().snapshot().rows_pivoted, 6);

    let env = TestEnv::new(23, 4);
    let src = ValuesOp::with_selection(int_schema(), null_rows(), vec![4, 0]);
    let out = env.drain(Box::new(src)).unwrap();
    assert_eq!(out.value(0, "a").unwrap(), &Value::Int(4));
    assert_eq!(env.storage.metrics().snapshot().rows_pivoted, 2);
}

// ---------------------------------------------------------------------------
// Pipeline breakers: aggregate, sort, top-k
// ---------------------------------------------------------------------------

/// The breaker tests' only randomness: a seeded SplitMix64 stream.
fn rng(seed: u64) -> DetRng {
    DetRng::new(seed, FrameId(0), 0)
}

fn below(r: &mut DetRng, n: u64) -> u64 {
    r.next_u64() % n
}

/// `(k, j, a, b, f)`: `k` (strings) and `j` (small integers) are nullable
/// keys that recur; `a` is a nullable FLOAT column that also carries `Int`s
/// — a `Mixed` array, or a nullable or plain `Int`/`Float` one in a batch
/// that happens to hold a single tag; `b` and `f` are NULL-free typed arrays.
fn breaker_schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("j", DataType::Int),
            Field::new("a", DataType::Float),
            Field::new("b", DataType::Int),
            Field::new("f", DataType::Float),
        ])
        .unwrap(),
    )
}

fn breaker_rows(r: &mut DetRng, n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|_| {
            vec![
                match below(r, 5) {
                    0 => Value::Null,
                    k => Value::from(format!("k{k}")),
                },
                match below(r, 4) {
                    0 => Value::Null,
                    j => Value::Int(j as i64 - 2),
                },
                match below(r, 4) {
                    0 => Value::Null,
                    1 => Value::Int(below(r, 9) as i64 - 4),
                    _ => Value::Float(r.next_signed() * 8.0),
                },
                Value::Int(below(r, 50) as i64 - 25),
                Value::Float(r.next_signed() * 100.0),
            ]
        })
        .collect()
}

/// How the breaker tests hand the same visible rows to an operator.
#[derive(Debug, Clone, Copy)]
enum BatchForm {
    Columnar,
    /// Columnar batches of twice the rows, every other one selected.
    Selected,
}

const BATCH_FORMS: [BatchForm; 2] = [BatchForm::Columnar, BatchForm::Selected];

fn breaker_source(form: BatchForm, batches: &[Vec<Vec<Value>>]) -> BoxedOp {
    let schema = breaker_schema();
    match form {
        BatchForm::Columnar => Box::new(ValuesOp::batches(
            schema,
            batches.iter().map(|b| (b.clone(), None)).collect(),
        )),
        BatchForm::Selected => {
            let mut decoys = rng(99);
            let padded = batches.iter().map(|b| {
                let hidden = breaker_rows(&mut decoys, b.len());
                let rows = hidden.into_iter().zip(b.iter().cloned());
                let sel = (0..b.len() as u32).map(|i| 2 * i + 1).collect();
                (rows.flat_map(|(h, v)| [h, v]).collect(), Some(sel))
            });
            Box::new(ValuesOp::batches(schema, padded.collect()))
        }
    }
}

/// Three splits of the same rows: one batch, batches of seven, and seeded
/// sizes from 0 (an empty batch) to 40.
fn splits(rows: &[Vec<Value>]) -> Vec<Vec<Vec<Vec<Value>>>> {
    let mut r = rng(5);
    let mut ragged = Vec::new();
    let mut rest = rows;
    while !rest.is_empty() {
        let (head, tail) = rest.split_at((below(&mut r, 41) as usize).min(rest.len()));
        ragged.push(head.to_vec());
        rest = tail;
    }
    vec![
        vec![rows.to_vec()],
        rows.chunks(7).map(<[_]>::to_vec).collect(),
        ragged,
    ]
}

/// Rows with every float spelled by its bits, so `assert_eq!` compares
/// `SUM`/`AVG` to the last one.
fn bitwise(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("Float({:#018x})", f.to_bits()),
        other => format!("{other:?}"),
    };
    rows.iter().map(|r| r.iter().map(cell).collect()).collect()
}

/// Every function's state at once, row at a time over `Value`s.
#[derive(Clone, Default)]
struct RefState {
    count: i64,
    sum: f64,
    n: u64,
    min: Option<Value>,
    max: Option<Value>,
}

impl RefState {
    fn extreme(cur: &mut Option<Value>, v: &Value, want: std::cmp::Ordering) {
        if cur.as_ref().is_none_or(|c| v.sql_cmp(c) == Some(want)) {
            *cur = Some(v.clone());
        }
    }

    /// `None` is `COUNT(*)`'s missing argument.
    fn update(&mut self, arg: Option<&Value>) {
        match arg {
            None => self.count += 1,
            Some(v) if v.is_null() => {}
            Some(v) => {
                self.count += 1;
                if let Some(x) = CellRef::from_value(v).as_number() {
                    self.sum += x;
                    self.n += 1;
                }
                Self::extreme(&mut self.min, v, std::cmp::Ordering::Less);
                Self::extreme(&mut self.max, v, std::cmp::Ordering::Greater);
            }
        }
    }

    fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => Value::Float(self.sum),
            AggFunc::Avg if self.n == 0 => Value::Null,
            AggFunc::Avg => Value::Float(self.sum / self.n as f64),
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// What the aggregate documents, as a row fold: every row of every batch
/// folds, in arrival order, into one table (which fixes the float
/// accumulation order), groups come out in key-byte order, and no
/// `GROUP BY` means exactly one row.
fn reference_aggregate(
    batches: &[Vec<Vec<Value>>],
    keys: &[usize],
    aggs: &[(AggFunc, Option<usize>)],
) -> Vec<Vec<Value>> {
    let fresh = || vec![RefState::default(); aggs.len()];
    let mut table = std::collections::BTreeMap::<Vec<u8>, (Vec<Value>, Vec<RefState>)>::new();
    for row in batches.iter().flatten() {
        let mut key = Vec::new();
        keys.iter().for_each(|&k| row[k].write_bytes(&mut key));
        let group = table
            .entry(key)
            .or_insert_with(|| (keys.iter().map(|&k| row[k].clone()).collect(), fresh()));
        for (state, (_, arg)) in group.1.iter_mut().zip(aggs) {
            state.update(arg.map(|i| &row[i]));
        }
    }
    if keys.is_empty() && table.is_empty() {
        table.insert(Vec::new(), (Vec::new(), fresh()));
    }
    let finish = |(mut row, states): (Vec<Value>, Vec<RefState>)| {
        row.extend(states.iter().zip(aggs).map(|(s, (f, _))| s.finish(*f)));
        row
    };
    table.into_values().map(finish).collect()
}

/// All five functions over the `Mixed`, `Int` and `Float` columns, and a
/// string `MIN`.
const BREAKER_AGGS: [(AggFunc, Option<usize>); 11] = [
    (AggFunc::Count, None),
    (AggFunc::Count, Some(2)),
    (AggFunc::Sum, Some(2)),
    (AggFunc::Avg, Some(2)),
    (AggFunc::Min, Some(2)),
    (AggFunc::Max, Some(2)),
    (AggFunc::Sum, Some(3)),
    (AggFunc::Min, Some(3)),
    (AggFunc::Max, Some(4)),
    (AggFunc::Avg, Some(4)),
    (AggFunc::Min, Some(0)),
];

fn breaker_aggregate(input: BoxedOp, keys: &[usize]) -> AggregateOp {
    let schema = breaker_schema();
    let name = |i: usize| schema.fields()[i].name.clone();
    let mut fields: Vec<Field> = keys.iter().map(|&k| schema.fields()[k].clone()).collect();
    let mut aggs = Vec::new();
    for (nth, (func, arg)) in BREAKER_AGGS.iter().enumerate() {
        fields.push(Field::new(format!("agg{nth}"), DataType::Float));
        aggs.push((*func, arg.map(|i| Expr::col(name(i))), format!("agg{nth}")));
    }
    AggregateOp::new(
        input,
        keys.iter().map(|&k| name(k)).collect(),
        aggs,
        Arc::new(Schema::new(fields).unwrap()),
    )
}

/// The aggregate equals the row-fold reference — rows in order, `SUM`/`AVG`
/// to the bit — for no key, a string key, a two-column key and an integer
/// key, over three splits of the same rows (the reference ignores the
/// split: one table folds every row in arrival order), in each input form,
/// and over no batch at all.
#[test]
fn aggregate_matches_a_row_fold_reference_across_splits_and_forms() {
    let rows = breaker_rows(&mut rng(1), 400);
    let mut inputs = splits(&rows);
    inputs.push(Vec::new());
    for keys in [&[][..], &[0], &[0, 1], &[3]] {
        for batches in &inputs {
            let want = reference_aggregate(batches, keys, &BREAKER_AGGS);
            assert_eq!(want.is_empty(), batches.is_empty() && !keys.is_empty());
            for form in BATCH_FORMS {
                let env = TestEnv::new(40, 4);
                let op = breaker_aggregate(breaker_source(form, batches), keys);
                let got = env.drain(Box::new(op)).unwrap();
                assert_eq!(
                    bitwise(got.rows()),
                    bitwise(&want),
                    "keys {keys:?}, {} batch(es), {form:?}",
                    batches.len()
                );
            }
        }
    }
}

/// An ungrouped aggregate owes exactly one row whatever arrives: `COUNT` 0,
/// a fresh `SUM`, NULL for the rest. A grouped one over nothing has no
/// group to report.
#[test]
fn ungrouped_aggregate_over_empty_input_yields_one_row() {
    let aggs = || {
        vec![
            (AggFunc::Count, None, "n".to_string()),
            (AggFunc::Min, Some(Expr::col("a")), "mn".to_string()),
            (AggFunc::Max, Some(Expr::col("a")), "mx".to_string()),
            (AggFunc::Avg, Some(Expr::col("a")), "av".to_string()),
            (AggFunc::Sum, Some(Expr::col("a")), "s".to_string()),
        ]
    };
    let out_schema = |grouped: bool| {
        let mut fields = vec![Field::new("b", DataType::Str)];
        fields.truncate(grouped as usize);
        fields.extend(
            aggs()
                .into_iter()
                .map(|(_, _, n)| Field::new(n, DataType::Float)),
        );
        Arc::new(Schema::new(fields).unwrap())
    };
    let empty_sources = || -> Vec<BoxedOp> {
        vec![
            Box::new(ValuesOp::batches(int_schema(), vec![])),
            Box::new(ValuesOp::new(int_schema(), vec![])),
            Box::new(ValuesOp::batches(
                int_schema(),
                vec![(vec![], None), (vec![], None)],
            )),
            // A batch a filter left nothing of.
            Box::new(ValuesOp::with_selection(int_schema(), null_rows(), vec![])),
        ]
    };
    for src in empty_sources() {
        let env = TestEnv::new(41, 4);
        let op = AggregateOp::new(src, vec![], aggs(), out_schema(false));
        let out = env.drain(Box::new(op)).unwrap();
        let nothing = vec![
            Value::Int(0),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Float(0.0),
        ];
        assert_eq!(out.rows(), [nothing]);
    }
    for src in empty_sources() {
        let env = TestEnv::new(41, 4);
        let op = AggregateOp::new(src, vec!["b".into()], aggs(), out_schema(true));
        assert_eq!(env.drain(Box::new(op)).unwrap().len(), 0);
    }
}

/// What stable sort + `take(k)` returns under the sort's order.
fn reference_sort(
    mut rows: Vec<Vec<Value>>,
    keys: &[(usize, bool)],
    k: Option<usize>,
) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        let by_key = keys.iter().map(|&(i, desc)| {
            let ord = CellRef::from_value(&a[i]).sort_cmp(CellRef::from_value(&b[i]));
            if desc {
                ord.reverse()
            } else {
                ord
            }
        });
        by_key
            .into_iter()
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows.truncate(k.unwrap_or(usize::MAX));
    rows
}

/// Top-k equals stable sort + `take(k)` for every interesting `k`, over
/// ties, `DESC`, a nullable `Mixed` key and two keys, on multi-batch input
/// in each form — and builds rows for nothing but the result.
#[test]
fn top_k_matches_stable_sort_then_take() {
    let rows = breaker_rows(&mut rng(2), 300);
    let batches = splits(&rows).pop().unwrap();
    assert!(batches.len() > 8);
    let n = rows.len();
    let name = |i: usize| breaker_schema().fields()[i].name.clone();
    for keys in [
        &[(3, false)][..],
        &[(3, true)],
        &[(2, false)],
        &[(0, true), (3, false)],
    ] {
        for k in [None, Some(0), Some(1), Some(n - 1), Some(n), Some(n + 1)] {
            let want = reference_sort(rows.clone(), keys, k);
            for form in BATCH_FORMS {
                let env = TestEnv::new(42, 4);
                let by = keys.iter().map(|&(i, desc)| (name(i), desc)).collect();
                let sort = SortOp::new(breaker_source(form, &batches), by);
                let op: BoxedOp = match k {
                    Some(k) => {
                        Box::new(LimitOp::new(Box::new(sort.with_limit(k as u64)), k as u64))
                    }
                    None => Box::new(sort),
                };
                let got = env.drain(op).unwrap();
                assert_eq!(
                    bitwise(got.rows()),
                    bitwise(&want),
                    "{keys:?} k={k:?} {form:?}"
                );
                assert_eq!(
                    env.storage.metrics().snapshot().rows_pivoted,
                    want.len() as u64
                );
            }
        }
    }
}

/// `ORDER BY` over NULLs and mixed tags. `sql_cmp` read as "`None` is
/// equal" is not an order (NULL equals both 1 and 2), which `sort_by` may
/// answer with a panic; the sort's own order is total. Three hundred seeded
/// columns, a third NULL: the output ascends (descends) under
/// [`CellRef::sort_cmp`], ties keep arrival order, and no row is lost.
#[test]
fn sort_is_total_over_nullable_and_mixed_columns() {
    let schema = Arc::new(
        Schema::new(vec![
            Field::new("v", DataType::Float),
            Field::new("at", DataType::Int),
        ])
        .unwrap(),
    );
    let mut r = rng(3);
    for case in 0..300u64 {
        let len = 50 + below(&mut r, 2601) as usize;
        let cell = |r: &mut DetRng| match (below(r, 3), case % 3) {
            (0, _) => Value::Null,
            (_, 0) => Value::Int(below(r, 40) as i64),
            (1, _) => Value::Float(below(r, 80) as f64 / 2.0),
            (_, 1) => Value::Int(below(r, 40) as i64),
            _ => match below(r, 3) {
                0 => Value::from(format!("s{}", below(r, 9))),
                1 => Value::Bool(below(r, 2) == 1),
                _ => Value::Float(f64::NAN),
            },
        };
        let rows: Vec<Vec<Value>> = (0..len)
            .map(|at| vec![cell(&mut r), Value::Int(at as i64)])
            .collect();
        let desc = case % 2 == 1;
        let env = TestEnv::new(43, 4);
        let src = ValuesOp::new(Arc::clone(&schema), rows);
        let sort = SortOp::new(Box::new(src), vec![("v".into(), desc)]);
        let out = env.drain(Box::new(sort)).unwrap();
        for pair in out.rows().windows(2) {
            let ord = CellRef::from_value(&pair[0][0]).sort_cmp(CellRef::from_value(&pair[1][0]));
            let ord = if desc { ord.reverse() } else { ord };
            let in_arrival_order = pair[0][1].as_int().unwrap() < pair[1][1].as_int().unwrap();
            assert!(
                ord.is_lt() || (ord.is_eq() && in_arrival_order),
                "case {case}: {:?} before {:?}",
                pair[0],
                pair[1]
            );
        }
        let mut seen: Vec<i64> = out.rows().iter().map(|r| r[1].as_int().unwrap()).collect();
        seen.sort_unstable();
        assert!(seen.into_iter().eq(0..len as i64), "case {case}");
        // NULLs lead ascending and trail descending.
        let nulls = out.rows().iter().filter(|r| r[0].is_null()).count();
        let block = if desc {
            &out.rows()[len - nulls..]
        } else {
            &out.rows()[..nulls]
        };
        assert!(block.iter().all(|r| r[0].is_null()), "case {case}");
    }
}

/// `Scan → Filter → Project`, under an aggregate unless `group_by` is
/// `None`, over the test video's 100 frames.
fn segment_plan(predicate: Expr, group_by: Option<&[&str]>) -> PhysPlan {
    let id = eva_common::OpId::UNSET;
    let scan = PhysPlan::ScanFrames {
        id,
        table: "video".into(),
        dataset: "t".into(),
        range: (0, 100),
        schema: Arc::new(eva_storage::engine::video_table_schema()),
    };
    let filter = PhysPlan::Filter {
        id,
        input: Box::new(scan),
        predicate,
    };
    let fields = vec![
        Field::new("id", DataType::Int),
        Field::new("timestamp", DataType::Int),
        Field::new("early", DataType::Bool),
    ];
    let project = PhysPlan::Project {
        id,
        input: Box::new(filter),
        items: vec![
            (Expr::col("id"), "id".into()),
            (Expr::col("timestamp"), "timestamp".into()),
            (Expr::col("id").lt(37), "early".into()),
        ],
        schema: Arc::new(Schema::new(fields.clone()).unwrap()),
    };
    let Some(group_by) = group_by else {
        let mut plan = project;
        plan.assign_op_ids();
        return plan;
    };
    let aggs = vec![
        (AggFunc::Count, None, "n".to_string()),
        (AggFunc::Sum, Some(Expr::col("id")), "s".to_string()),
        (AggFunc::Avg, Some(Expr::col("timestamp")), "av".to_string()),
        (AggFunc::Min, Some(Expr::col("timestamp")), "mn".to_string()),
        (AggFunc::Max, Some(Expr::col("id")), "mx".to_string()),
    ];
    let mut out: Vec<Field> = fields
        .into_iter()
        .filter(|f| group_by.contains(&f.name.as_str()))
        .collect();
    out.extend(
        aggs.iter()
            .map(|(_, _, n)| Field::new(n.clone(), DataType::Float)),
    );
    let mut plan = PhysPlan::Aggregate {
        id,
        input: Box::new(project),
        group_by: group_by.iter().map(|g| g.to_string()).collect(),
        aggs,
        schema: Arc::new(Schema::new(out).unwrap()),
    };
    plan.assign_op_ids();
    plan
}

/// Run `plan` on a fresh 100-frame environment whose clock already reads
/// `clock_ns`, in batches of `batch` frames.
fn run_segment(
    plan: &PhysPlan,
    batch: usize,
    clock_ns: u64,
    governor: GovernorConfig,
) -> eva_common::Result<crate::engine::QueryOutput> {
    let env = TestEnv::new(44, 100);
    env.clock.charge(CostCategory::ReadVideo, clock_ns);
    let config = crate::config::ExecConfig {
        batch_size: batch,
        ..crate::config::ExecConfig::default()
    };
    crate::engine::execute_governed(
        plan,
        &env.storage,
        &env.registry,
        &env.stats,
        &env.clock,
        &env.funcache,
        config,
        QueryGovernor::new(governor, env.clock.total_ms()),
        None,
    )
}

/// Everything a degraded run must share with an in-memory one: rows to the
/// bit, cost, per-operator stats and every deterministic counter but
/// `degraded_queries`.
fn observable(out: &crate::engine::QueryOutput) -> impl PartialEq + std::fmt::Debug {
    let mut counters = out.metrics.deterministic();
    counters.degraded_queries = 0;
    (
        bitwise(out.batch.rows()),
        out.breakdown,
        out.op_stats.clone(),
        counters,
    )
}

/// A byte budget that trips on the first batch's groups degrades the
/// aggregate — it stops charging and keeps folding into its one table — and
/// the result equals the never-degraded fold — rows to the bit, cost, per-operator stats, counters — for no
/// key, a recurring key, an all-distinct key and a filter that leaves
/// nothing.
#[test]
fn degraded_aggregate_matches_in_memory_at_every_shape() {
    let kept = || Expr::col("id").ge(3).and(Expr::col("id").lt(95));
    let nothing = || Expr::col("timestamp").lt(0);
    let tight = GovernorConfig {
        budget_bytes: Some(AGG_GROUP_BYTES),
        ..GovernorConfig::default()
    };
    for (predicate, group_by) in [
        (kept(), &[][..]),
        (kept(), &["early"]),
        (kept(), &["timestamp"]),
        (kept(), &["early", "id"]),
        (nothing(), &[]),
        (nothing(), &["early"]),
    ] {
        let plan = segment_plan(predicate, Some(group_by));
        let free = run_segment(&plan, 10, 0, GovernorConfig::default()).unwrap();
        assert_eq!(
            free.batch.len(),
            match (group_by, free.metrics.columnar_rows > 200) {
                ([], _) => 1,
                (_, false) => 0,
                (["early"], true) => 2,
                _ => 92,
            }
        );
        let degraded = run_segment(&plan, 10, 0, tight).unwrap();
        // Only a grouping with more than one group outgrows the budget.
        let trips = !group_by.is_empty() && free.batch.len() > 1;
        assert_eq!(degraded.metrics.degraded_queries, trips as u64);
        assert_eq!(
            format!("{:?}", observable(&degraded)),
            format!("{:?}", observable(&free)),
            "group by {group_by:?}"
        );
    }
}

/// A wrapper books a stage's cost as one clock difference spanning every
/// batch the filter above the scan skipped. On the integer ledger that
/// difference, and every other per-query figure, is the same whatever the
/// session clock read when the query started.
#[test]
fn operator_costs_do_not_depend_on_the_starting_clock() {
    let sparse = Expr::col("timestamp")
        .ge(400)
        .and(Expr::col("timestamp").lt(600));
    for group_by in [None, Some(&["early"][..])] {
        let plan = segment_plan(sparse.clone(), group_by);
        let free = GovernorConfig::default;
        let at_zero = run_segment(&plan, 1, 0, free()).unwrap();
        assert!(at_zero.op_stats.values().any(|s| s.batches > 1));
        for clock_ns in [100_000, 700_001, 3_300_000, 1_234_567_891] {
            let later = run_segment(&plan, 1, clock_ns, free()).unwrap();
            assert_eq!(
                format!("{:?}", observable(&later)),
                format!("{:?}", observable(&at_zero)),
                "aggregate {group_by:?}, clock at {clock_ns}ns"
            );
        }
    }
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

/// A segment list that does not end in an evaluating segment, over a view
/// that holds only half the inputs: the uncovered rows must fail the query —
/// in release builds too, where a `debug_assert!` once let the join drop
/// them from the answer.
#[test]
fn apply_refuses_to_drop_rows_no_segment_resolved() {
    let env = TestEnv::new(8, 20);
    let def = env.catalog.udf("fasterrcnn_resnet50").unwrap();
    let view = env
        .storage
        .create_view("det", ViewKeyKind::Frame, Arc::new(def.output.clone()));
    let row = vec![
        Value::from("sentinel"),
        Value::from(eva_common::BBox::new(0.0, 0.0, 0.5, 0.5)),
        Value::Float(1.0),
    ];
    let entries: Vec<_> = (0..10u64)
        .map(|i| (ViewKey::frame(FrameId(i)), vec![row.clone()]))
        .collect();
    store_rows(&env, view, &entries);
    let probe_only = |n: u64| {
        let reuse = ApplyReuse::Views {
            segments: vec![Segment {
                udf: def.clone(),
                view: Some(view),
                eval: false,
            }],
            store: true,
        };
        let op = ApplyOp::new(
            frame_source(&env, n),
            detector_spec(&env, reuse),
            apply_schema(&env),
        );
        env.drain(Box::new(op.unwrap()))
    };
    // Fully covered inputs are served from the view alone.
    assert_eq!(probe_only(10).unwrap().len(), 10);
    let err = probe_only(20).unwrap_err();
    assert_eq!(err.stage(), "exec", "{err}");
    let msg = err.message();
    assert!(msg.contains("fasterrcnn_resnet50"), "{msg}");
    // The test context's batches hold 16 rows: frames 10..16 of the first.
    assert!(msg.contains("left 6 input rows unresolved"), "{msg}");
    assert_eq!(env.storage.view_n_keys(view).unwrap(), 10);
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
    fn cost_ns(&self) -> u64 {
        7_300_000
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
        let rows = fanout_rows(ctx.frame.raw());
        for row in &rows {
            out.iter_mut().zip(row).for_each(|(b, v)| b.push(v));
        }
        Ok(rows.len() as u32)
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
        InputForm::Columnar => Box::new(ValuesOp::new(schema, wanted())),
        InputForm::Selected => Box::new(ValuesOp::with_selection(
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

/// One join, two input forms: columnar batches with every row visible and
/// under a non-trivial selection must be indistinguishable — rows in order, simulated cost, counters, per-op
/// stats and what STORE left in the view. And one join, however the keys
/// resolve: a batch served from two views and fresh evaluation in turn
/// (chunks concatenated, then permuted into key order) must produce the
/// rows and leave the view contents of the all-fresh run.
#[test]
fn apply_join_is_identical_across_input_forms() {
    let rows = run_join(InputForm::Columnar, false);
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

    assert_eq!(rows, run_join(InputForm::Selected, false));

    let mixed = run_join(InputForm::Columnar, true);
    assert_eq!(mixed.cold, expected, "two views and fresh rows interleaved");
    assert_eq!(mixed.warm, expected, "two views interleaved");
    assert_eq!(mixed.view, rows.view);
    // Cold: 3 fresh calls, 2 + 2 hits on 7 + 5 probes. Warm: 2 + 5 hits.
    assert_eq!(mixed.counters, (3 + 2 + 5, 5, 2 + 5));
    let m = &mixed.metrics;
    assert_eq!((m.udf_calls_executed, m.udf_calls_avoided), (3, 4 + 7));
    assert_eq!((m.probes, m.probe_hits), (7 + 5 + 7 + 5, 4 + 7));
    assert_eq!(mixed, run_join(InputForm::Selected, true));
}

/// A NULL or wrong-typed `frame`/`bbox` cell is reported exactly as the
/// row engine's `Value::as_int`/`as_bbox` report it, with every row of the
/// batch visible and under a selection that hides a leading row.
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
    let run = |spec: &ApplySpec, bad: Vec<Value>, selected: bool| {
        let rows = vec![vec![Value::Int(1), good_box.clone()], bad];
        let src = if selected {
            let hidden = vec![Value::Int(0), good_box.clone()];
            let rows = std::iter::once(hidden).chain(rows).collect();
            ValuesOp::with_selection(Arc::clone(&schema), rows, vec![1, 2])
        } else {
            ValuesOp::new(Arc::clone(&schema), rows)
        };
        let src: BoxedOp = Box::new(src);
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
    for selected in [false, true] {
        for bad in [Value::Null, Value::from("seven"), Value::Float(7.0)] {
            let want = bad.as_int().unwrap_err();
            assert!(matches!(want, eva_common::EvaError::Type(_)));
            let got = run(&frame_spec, vec![bad, good_box.clone()], selected);
            assert_eq!(got, want, "frame cell, selected={selected}");
        }
        for bad in [Value::Null, Value::Int(3), Value::from("box")] {
            let want = bad.as_bbox().unwrap_err();
            assert!(matches!(want, eva_common::EvaError::Type(_)));
            let got = run(&box_spec, vec![Value::Int(2), bad], selected);
            assert_eq!(got, want, "bbox cell, selected={selected}");
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
        rows.extend(b.to_batch().into_rows());
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

/// A FunCache lookup that gives up part way through a batch still pays for
/// the work it did: every key hashed up to and including the failing one,
/// and the evaluation of every miss before it (on a cold cache, all of
/// them).
#[test]
fn funcache_lookup_failing_part_way_pays_for_its_work() {
    let env = TestEnv::new(14, 12);
    env.storage.failpoints().set_seed(7);
    env.storage.failpoints().arm(
        eva_common::Failpoint::UdfTransient,
        eva_common::FireRule::Keyed {
            prob_permille: 400,
            fails: 10,
        },
    );
    let def = env.catalog.udf("fasterrcnn_resnet50").unwrap();
    let spec = detector_spec(&env, ApplyReuse::FunCache { udf: def });
    let op = ApplyOp::new(frame_source(&env, 12), spec, apply_schema(&env)).unwrap();
    let err = env.drain(Box::new(op)).unwrap_err();
    assert!(err.to_string().contains("retry budget"), "{err}");
    let cost = env.clock.snapshot();
    let per_key = env
        .storage
        .cost_model()
        .hash_cost_ns(env.dataset.frame_bytes());
    let hashed = cost.get_ns(CostCategory::HashInput) / per_key;
    assert_eq!(cost.get_ns(CostCategory::HashInput), hashed * per_key);
    assert!((1..=12).contains(&hashed), "{cost:?}");
    assert_eq!(
        cost.get_ns(CostCategory::Udf),
        (hashed - 1) * 99_000_000,
        "every key before the failing one was a miss and was evaluated"
    );
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
