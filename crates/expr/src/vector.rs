//! Vectorized expression evaluation over [`ColumnarBatch`]es.
//!
//! The scalar path ([`crate::eval`]) evaluates one expression tree per row,
//! boxing every intermediate in a [`Value`]. This module evaluates the same
//! trees column-at-a-time: comparisons run typed loops over the columns'
//! arrays, boolean connectives combine *tri-state masks*, and filters
//! return selection vectors instead of copying rows.
//!
//! ## Semantics parity
//!
//! Every kernel mirrors the row path bit-for-bit (pinned by the
//! equivalence property tests in `tests/property_columnar.rs`):
//!
//! * comparisons go through [`CellRef::sql_cmp`], which replicates
//!   [`Value::sql_cmp`] including the numeric-via-`f64` rule;
//! * `AND`/`OR` keep SQL short-circuit behaviour — the right operand is
//!   evaluated only over the *active subset* of rows whose left operand
//!   did not already decide the result, so `FALSE AND <error>` does not
//!   error, exactly like the scalar evaluator;
//! * NULL is UNKNOWN: masks are `Option<bool>` per row, and
//!   [`filter_columnar`] keeps only `Some(true)` rows (`WHERE` semantics).

use eva_common::{
    CellRef, Column, ColumnBuilder, ColumnData, ColumnarBatch, EvaError, Result, Value,
};

use crate::expr::{CmpOp, Expr};

/// Per-row tri-state result, parallel to the active index list it was
/// evaluated over: `Some(bool)` is TRUE/FALSE, `None` is UNKNOWN (NULL).
type TriMask = Vec<Option<bool>>;

/// Evaluate `pred` as a filter over the batch's visible rows, returning the
/// surviving *physical* row indices (a selection vector narrowing the
/// batch's current selection). No rows are copied.
pub fn filter_columnar(pred: &Expr, batch: &ColumnarBatch) -> Result<Vec<u32>> {
    let active = batch.physical_indices();
    let mask = eval_pred_tri(pred, batch, &active)?;
    let mut out = Vec::with_capacity(active.len());
    for (i, m) in mask.iter().enumerate() {
        if *m == Some(true) {
            out.push(active[i]);
        }
    }
    Ok(out)
}

/// Evaluate an expression over the rows at `active` (physical indices)
/// into a *compact* column of length `active.len()` — the computed-
/// projection and aggregate-argument path.
pub fn eval_columnar(expr: &Expr, batch: &ColumnarBatch, active: &[u32]) -> Result<Column> {
    match expr {
        Expr::Column(_) | Expr::Literal(_) => match eval_vals(expr, batch, active)? {
            Vals::Shared(col) => Ok(col.gather(active)),
            Vals::Owned(col) => Ok(col),
            Vals::Const(v) => {
                let mut b = ColumnBuilder::new();
                for _ in 0..active.len() {
                    b.push(v);
                }
                Ok(b.finish())
            }
        },
        _ => {
            // Boolean-valued trees (and the errors for everything else)
            // share the tri-state path.
            let mask = eval_tri(expr, batch, active)?;
            Ok(mask_to_column(&mask))
        }
    }
}

/// Operand of a vectorized kernel.
enum Vals<'a> {
    /// A batch column at full physical length: index with `active[i]`.
    Shared(&'a Column),
    /// A computed compact column: index with `i`.
    Owned(Column),
    /// A broadcast literal.
    Const(&'a Value),
}

impl Vals<'_> {
    /// Cell for output position `i` (whose physical row is `active[i]`).
    #[inline]
    fn cell(&self, i: usize, active: &[u32]) -> CellRef<'_> {
        match self {
            Vals::Shared(c) => c.cell(active[i] as usize),
            Vals::Owned(c) => c.cell(i),
            Vals::Const(v) => CellRef::from_value(v),
        }
    }
}

fn eval_vals<'a>(expr: &'a Expr, batch: &'a ColumnarBatch, active: &[u32]) -> Result<Vals<'a>> {
    match expr {
        Expr::Column(c) => {
            let idx = batch
                .schema()
                .index_of(c)
                .ok_or_else(|| EvaError::Binder(format!("unknown column '{c}'")))?;
            Ok(Vals::Shared(batch.column(idx).as_ref()))
        }
        Expr::Literal(v) => Ok(Vals::Const(v)),
        Expr::Udf(u) => Err(EvaError::Exec(format!(
            "unexpected UDF call '{}' in post-rewrite expression",
            u.name
        ))),
        Expr::Agg { .. } => Err(EvaError::Exec(
            "aggregate expression evaluated outside GROUP BY operator".into(),
        )),
        // Boolean-valued subtree: evaluate to a compact Bool column with
        // NULLs as invalid slots.
        _ => Ok(Vals::Owned(mask_to_column(&eval_tri(expr, batch, active)?))),
    }
}

fn mask_to_column(mask: &TriMask) -> Column {
    let mut b = ColumnBuilder::new();
    for m in mask {
        match m {
            Some(v) => b.push(&Value::Bool(*v)),
            None => b.push(&Value::Null),
        }
    }
    b.finish()
}

/// Top-level predicate evaluation. Identical to [`eval_tri`] except that a
/// non-boolean *result* reports "predicate evaluated to non-boolean", the
/// wording of the scalar `eval_predicate` — only a bare column or literal
/// can surface one (connectives and comparisons always yield tri-state).
fn eval_pred_tri(pred: &Expr, batch: &ColumnarBatch, active: &[u32]) -> Result<TriMask> {
    match pred {
        Expr::Literal(v) if !matches!(v, Value::Bool(_) | Value::Null) => Err(EvaError::Type(
            format!("predicate evaluated to non-boolean {v}"),
        )),
        Expr::Column(_) => {
            let vals = eval_vals(pred, batch, active)?;
            let mut out = Vec::with_capacity(active.len());
            for i in 0..active.len() {
                out.push(match vals.cell(i, active) {
                    CellRef::Bool(b) => Some(b),
                    CellRef::Null => None,
                    other => {
                        return Err(EvaError::Type(format!(
                            "predicate evaluated to non-boolean {}",
                            other.to_value()
                        )))
                    }
                });
            }
            Ok(out)
        }
        _ => eval_tri(pred, batch, active),
    }
}

/// Tri-state evaluation of a boolean expression over the rows at `active`.
fn eval_tri(expr: &Expr, batch: &ColumnarBatch, active: &[u32]) -> Result<TriMask> {
    match expr {
        Expr::Literal(Value::Bool(b)) => Ok(vec![Some(*b); active.len()]),
        Expr::Literal(Value::Null) => Ok(vec![None; active.len()]),
        Expr::Literal(other) => Err(EvaError::Type(format!(
            "expected boolean operand, got {other}"
        ))),
        Expr::Column(_) => {
            let vals = eval_vals(expr, batch, active)?;
            let mut out = Vec::with_capacity(active.len());
            for i in 0..active.len() {
                out.push(cell_to_tristate(vals.cell(i, active))?);
            }
            Ok(out)
        }
        Expr::Cmp { op, lhs, rhs } => eval_cmp_tri(*op, lhs, rhs, batch, active),
        Expr::And(a, b) => {
            let l = eval_tri(a, batch, active)?;
            // Short circuit: rows whose lhs is FALSE are decided; the rhs is
            // evaluated only over the remainder (so it cannot error there).
            let mut sub_active = Vec::with_capacity(active.len());
            let mut sub_pos = Vec::with_capacity(active.len());
            for (i, lv) in l.iter().enumerate() {
                if *lv != Some(false) {
                    sub_active.push(active[i]);
                    sub_pos.push(i);
                }
            }
            let mut out = vec![Some(false); active.len()];
            if !sub_active.is_empty() {
                let r = eval_tri(b, batch, &sub_active)?;
                for (j, &i) in sub_pos.iter().enumerate() {
                    out[i] = match (l[i], r[j]) {
                        (_, Some(false)) => Some(false),
                        (Some(true), Some(true)) => Some(true),
                        _ => None,
                    };
                }
            }
            Ok(out)
        }
        Expr::Or(a, b) => {
            let l = eval_tri(a, batch, active)?;
            let mut sub_active = Vec::with_capacity(active.len());
            let mut sub_pos = Vec::with_capacity(active.len());
            for (i, lv) in l.iter().enumerate() {
                if *lv != Some(true) {
                    sub_active.push(active[i]);
                    sub_pos.push(i);
                }
            }
            let mut out = vec![Some(true); active.len()];
            if !sub_active.is_empty() {
                let r = eval_tri(b, batch, &sub_active)?;
                for (j, &i) in sub_pos.iter().enumerate() {
                    out[i] = match (l[i], r[j]) {
                        (_, Some(true)) => Some(true),
                        (Some(false), Some(false)) => Some(false),
                        _ => None,
                    };
                }
            }
            Ok(out)
        }
        Expr::Not(e) => {
            let mut m = eval_tri(e, batch, active)?;
            for v in &mut m {
                *v = v.map(|b| !b);
            }
            Ok(m)
        }
        Expr::IsNull { expr, negated } => {
            let vals = eval_vals(expr, batch, active)?;
            let mut out = Vec::with_capacity(active.len());
            for i in 0..active.len() {
                out.push(Some(vals.cell(i, active).is_null() != *negated));
            }
            Ok(out)
        }
        Expr::Udf(u) => Err(EvaError::Exec(format!(
            "unexpected UDF call '{}' in post-rewrite expression",
            u.name
        ))),
        Expr::Agg { .. } => Err(EvaError::Exec(
            "aggregate expression evaluated outside GROUP BY operator".into(),
        )),
    }
}

/// Mirror of the scalar `to_tristate` over cells.
fn cell_to_tristate(c: CellRef<'_>) -> Result<Option<bool>> {
    match c {
        CellRef::Bool(b) => Ok(Some(b)),
        CellRef::Null => Ok(None),
        other => Err(EvaError::Type(format!(
            "expected boolean operand, got {}",
            other.to_value()
        ))),
    }
}

fn eval_cmp_tri(
    op: CmpOp,
    lhs: &Expr,
    rhs: &Expr,
    batch: &ColumnarBatch,
    active: &[u32],
) -> Result<TriMask> {
    let lv = eval_vals(lhs, batch, active)?;
    let rv = eval_vals(rhs, batch, active)?;
    // Typed fast paths for the dominant `column op literal` shape (either
    // orientation — the flipped operator swaps sides).
    if let Some(mask) = cmp_col_lit(op, &lv, &rv, active) {
        return Ok(mask);
    }
    if let Some(mask) = cmp_col_lit(op.flipped(), &rv, &lv, active) {
        return Ok(mask);
    }
    let mut out = Vec::with_capacity(active.len());
    for i in 0..active.len() {
        out.push(op.test(lv.cell(i, active).sql_cmp(rv.cell(i, active))));
    }
    Ok(out)
}

/// Typed loop for `<shared column> op <literal>`; `None` when the shapes
/// don't match the fast path.
fn cmp_col_lit(op: CmpOp, col: &Vals<'_>, lit: &Vals<'_>, active: &[u32]) -> Option<TriMask> {
    let (Vals::Shared(col), Vals::Const(lit)) = (col, lit) else {
        return None;
    };
    let validity = col.validity();
    match (col.data(), lit) {
        // Numeric comparison replicates sql_cmp: both sides through f64.
        (ColumnData::Int(vals), Value::Int(_) | Value::Float(_)) => {
            let lit = match lit {
                Value::Int(i) => *i as f64,
                Value::Float(f) => *f,
                _ => unreachable!(),
            };
            Some(
                active
                    .iter()
                    .map(|&i| {
                        let i = i as usize;
                        if !validity.get(i) {
                            return None;
                        }
                        op.test((vals[i] as f64).partial_cmp(&lit))
                    })
                    .collect(),
            )
        }
        (ColumnData::Float(vals), Value::Int(_) | Value::Float(_)) => {
            let lit = match lit {
                Value::Int(i) => *i as f64,
                Value::Float(f) => *f,
                _ => unreachable!(),
            };
            Some(
                active
                    .iter()
                    .map(|&i| {
                        let i = i as usize;
                        if !validity.get(i) {
                            return None;
                        }
                        op.test(vals[i].partial_cmp(&lit))
                    })
                    .collect(),
            )
        }
        (ColumnData::Str(vals), Value::Str(lit)) => Some(
            active
                .iter()
                .map(|&i| {
                    let i = i as usize;
                    if !validity.get(i) {
                        return None;
                    }
                    op.test(Some((*vals[i]).cmp(lit.as_str())))
                })
                .collect(),
        ),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::NoUdfs;
    use crate::RowContext;
    use eva_common::{Batch, DataType, Field, Row, Schema};
    use std::sync::Arc;

    fn batch() -> ColumnarBatch {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("label", DataType::Str),
                Field::new("score", DataType::Float),
            ])
            .unwrap(),
        );
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::from("car"), Value::Float(0.9)],
            vec![Value::Int(2), Value::Null, Value::Float(0.4)],
            vec![Value::Int(3), Value::from("bus"), Value::Null],
            vec![Value::Int(4), Value::from("car"), Value::Float(0.7)],
        ];
        ColumnarBatch::from_batch(&Batch::new(schema, rows))
    }

    fn row_filter(pred: &Expr, b: &ColumnarBatch) -> Vec<u32> {
        let rows = b.to_batch();
        let schema = Arc::clone(rows.schema());
        let mut keep = Vec::new();
        for (i, row) in rows.rows().iter().enumerate() {
            let rc = RowContext::new(&schema, row, &NoUdfs);
            if pred.eval_predicate(&rc).unwrap() {
                keep.push(b.physical_indices()[i]);
            }
        }
        keep
    }

    #[test]
    fn filter_matches_row_path() {
        let b = batch();
        for pred in [
            Expr::col("id").lt(3i64),
            Expr::col("label").eq_val("car"),
            Expr::col("score").ge(0.5).and(Expr::col("id").gt(1i64)),
            Expr::col("label")
                .eq_val("car")
                .or(Expr::col("score").lt(0.5)),
            Expr::col("label").ne_val("car").not(),
            Expr::IsNull {
                expr: Box::new(Expr::col("score")),
                negated: false,
            },
        ] {
            assert_eq!(
                filter_columnar(&pred, &b).unwrap(),
                row_filter(&pred, &b),
                "{pred}"
            );
        }
    }

    #[test]
    fn filter_composes_with_selection() {
        let b = batch().with_selection(vec![1, 2, 3]);
        let sel = filter_columnar(&Expr::col("id").gt(1i64), &b).unwrap();
        assert_eq!(sel, vec![1, 2, 3]);
        let narrowed = b.with_selection(sel);
        let sel2 = filter_columnar(&Expr::col("label").eq_val("car"), &narrowed).unwrap();
        assert_eq!(sel2, vec![3]);
    }

    #[test]
    fn short_circuit_skips_errors_on_decided_rows() {
        let b = batch();
        // FALSE AND <error> must not error.
        let bad = Expr::cmp(Expr::col("missing"), CmpOp::Eq, Expr::lit(1i64));
        let pred = Expr::false_().and(bad.clone());
        assert_eq!(filter_columnar(&pred, &b).unwrap(), Vec::<u32>::new());
        // TRUE OR <error> must not error either.
        let pred = Expr::true_().or(bad.clone());
        assert_eq!(filter_columnar(&pred, &b).unwrap(), vec![0, 1, 2, 3]);
        // …but TRUE AND <error> must surface it.
        assert!(filter_columnar(&Expr::true_().and(bad), &b).is_err());
    }

    #[test]
    fn null_is_unknown_and_rejects() {
        let b = batch();
        // label = 'car' is UNKNOWN on the NULL label row — it must not pass
        // even under NOT.
        let sel = filter_columnar(&Expr::col("label").eq_val("car").not(), &b).unwrap();
        assert_eq!(sel, vec![2]);
    }

    #[test]
    fn eval_columnar_gathers_and_computes() {
        let b = batch().with_selection(vec![0, 3]);
        let active = b.physical_indices();
        let col = eval_columnar(&Expr::col("id"), &b, &active).unwrap();
        assert_eq!(col.len(), 2);
        assert_eq!(col.value_at(0), Value::Int(1));
        assert_eq!(col.value_at(1), Value::Int(4));
        let lit = eval_columnar(&Expr::lit("x"), &b, &active).unwrap();
        assert_eq!(lit.value_at(1), Value::from("x"));
        let cmp = eval_columnar(&Expr::col("id").gt(2i64), &b, &active).unwrap();
        assert_eq!(cmp.value_at(0), Value::Bool(false));
        assert_eq!(cmp.value_at(1), Value::Bool(true));
    }

    #[test]
    fn type_errors_mirror_row_path() {
        let b = batch();
        // label AND true → type error (string operand), like the scalar path.
        let pred = Expr::col("label").and(Expr::true_());
        assert!(filter_columnar(&pred, &b).is_err());
        // UDF calls are rejected.
        let pred = Expr::Udf(crate::UdfCall::new("x", vec![]));
        assert!(filter_columnar(&pred, &b).is_err());
    }
}
