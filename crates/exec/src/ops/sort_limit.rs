//! Sort and limit.
//!
//! [`SortOp`] buffers its input as one columnar batch — a single batch is
//! used where it stands, several are concatenated column by column
//! ([`Column::gather`] through each batch's selection, then
//! [`Column::append`]) — and orders a *selection vector* over it: key cells
//! are compared in place, no row is built, `rows_pivoted` is untouched.
//!
//! The order is total: [`CellRef::sort_cmp`] on each key in turn (reversed
//! for `DESC`), then arrival position. So an unstable sort returns what a
//! stable sort by the keys would, and when a `LIMIT k` sits directly above,
//! selecting the `k` smallest first (`select_nth_unstable_by`, O(n)
//! comparisons) and sorting only those returns exactly the stable sort's
//! first `k` rows.

use std::cmp::Ordering;
use std::sync::Arc;

use eva_common::{Column, ColumnarBatch, EvaError, Result, Schema};

use crate::context::ExecCtx;
use crate::ops::{BoxedOp, Operator};

/// Blocking sort by column keys, optionally bounded to the first `k` rows of
/// the order (see the module docs).
pub struct SortOp {
    input: BoxedOp,
    keys: Vec<(String, bool)>,
    limit: Option<u64>,
    done: bool,
}

impl SortOp {
    /// New sort (`(column, descending)` keys).
    pub fn new(input: BoxedOp, keys: Vec<(String, bool)>) -> SortOp {
        SortOp {
            input,
            keys,
            limit: None,
            done: false,
        }
    }

    /// Emit only the first `k` rows of the order — for a `LIMIT k` directly
    /// above, which then passes them through.
    pub fn with_limit(mut self, k: u64) -> SortOp {
        self.limit = Some(k);
        self
    }
}

/// All of `batches`' visible rows, in arrival order, as one columnar batch.
fn concat(schema: Arc<Schema>, mut batches: Vec<ColumnarBatch>) -> ColumnarBatch {
    if batches.len() == 1 {
        return batches.pop().expect("one batch");
    }
    let columns: Vec<Arc<Column>> = (0..schema.len())
        .map(|i| {
            let mut parts = batches.iter().map(|cb| match cb.selection() {
                Some(sel) => cb.column(i).gather(sel),
                None => Column::clone(cb.column(i)),
            });
            let mut all = parts
                .next()
                .unwrap_or_else(|| Column::from_ints(Vec::new()));
            parts.for_each(|part| all.append(&part));
            Arc::new(all)
        })
        .collect();
    let n_rows = batches.iter().map(ColumnarBatch::len).sum();
    ColumnarBatch::new(schema, columns, n_rows)
}

impl Operator for SortOp {
    fn schema(&self) -> Arc<Schema> {
        self.input.schema()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ColumnarBatch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let schema = self.input.schema();
        let keys: Vec<(usize, bool)> = self
            .keys
            .iter()
            .map(|(c, desc)| match schema.index_of(c) {
                Some(i) => Ok((i, *desc)),
                None => Err(EvaError::Exec(format!("unknown sort column '{c}'"))),
            })
            .collect::<Result<_>>()?;
        let mut batches = Vec::new();
        while let Some(cb) = self.input.next(ctx)? {
            batches.push(cb);
        }
        let cb = concat(schema, batches);
        // Visible row `i` (arrival position) sits in physical slot `sel[i]`.
        let sel = cb.physical_indices();
        let keys: Vec<(&Column, bool)> = keys
            .iter()
            .map(|&(i, desc)| (&**cb.column(i), desc))
            .collect();
        let by_keys_then_arrival = |a: &u32, b: &u32| -> Ordering {
            let (slot_a, slot_b) = (sel[*a as usize] as usize, sel[*b as usize] as usize);
            for &(col, desc) in &keys {
                let ord = col.cell(slot_a).sort_cmp(col.cell(slot_b));
                if ord != Ordering::Equal {
                    return if desc { ord.reverse() } else { ord };
                }
            }
            a.cmp(b)
        };
        let mut order: Vec<u32> = (0..sel.len() as u32).collect();
        let k = self
            .limit
            .map_or(order.len(), |k| k.min(order.len() as u64) as usize);
        if k < order.len() {
            if k > 0 {
                order.select_nth_unstable_by(k - 1, by_keys_then_arrival);
            }
            order.truncate(k);
        }
        order.sort_unstable_by(by_keys_then_arrival);
        let sorted = order.into_iter().map(|i| sel[i as usize]).collect();
        Ok(Some(cb.with_selection(sorted)))
    }
}

/// Streaming limit.
pub struct LimitOp {
    input: BoxedOp,
    remaining: u64,
}

impl LimitOp {
    /// New limit.
    pub fn new(input: BoxedOp, n: u64) -> LimitOp {
        LimitOp {
            input,
            remaining: n,
        }
    }
}

impl Operator for LimitOp {
    fn schema(&self) -> Arc<Schema> {
        self.input.schema()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ColumnarBatch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let Some(cb) = self.input.next(ctx)? else {
            return Ok(None);
        };
        let take = (self.remaining as usize).min(cb.len());
        self.remaining -= take as u64;
        if take == cb.len() {
            return Ok(Some(cb));
        }
        // Truncating is a selection shrink — columns stay shared.
        let keep = cb.physical_indices().into_iter().take(take).collect();
        Ok(Some(cb.with_selection(keep)))
    }
}
