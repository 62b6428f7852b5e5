//! Selection over UDF-free predicates.

use std::sync::Arc;

use eva_common::{Batch, ExecBatch, Result, Schema};
use eva_expr::eval::NoUdfs;
use eva_expr::vector::filter_columnar;
use eva_expr::{Expr, RowContext};

use crate::context::ExecCtx;
use crate::ops::{BoxedOp, Operator};

/// Filters rows by a predicate. The optimizer guarantees no UDF calls
/// remain in post-rewrite predicates (they were lowered to applies).
///
/// Columnar input is filtered *in place*: the vectorized evaluator returns
/// the surviving physical indices and the batch is narrowed to that
/// selection — no row is copied. Row input (test sources, `force_row_path`)
/// falls back to the scalar per-row evaluator.
pub struct FilterOp {
    input: BoxedOp,
    predicate: Expr,
}

impl FilterOp {
    /// New filter.
    pub fn new(input: BoxedOp, predicate: Expr) -> FilterOp {
        FilterOp { input, predicate }
    }
}

impl Operator for FilterOp {
    fn schema(&self) -> Arc<Schema> {
        self.input.schema()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ExecBatch>> {
        loop {
            let Some(batch) = self.input.next(ctx)? else {
                return Ok(None);
            };
            // Skip empty batches but keep pulling (don't signal end early).
            match batch {
                ExecBatch::Columnar(cb) => {
                    let sel = filter_columnar(&self.predicate, &cb)?;
                    if !sel.is_empty() {
                        return Ok(Some(ExecBatch::Columnar(cb.with_selection(sel))));
                    }
                }
                ExecBatch::Rows(batch) => {
                    let schema = batch.schema().clone();
                    let mut kept = Vec::with_capacity(batch.len());
                    for row in batch.into_rows() {
                        let rc = RowContext::new(&schema, &row, &NoUdfs);
                        if self.predicate.eval_predicate(&rc)? {
                            kept.push(row);
                        }
                    }
                    if !kept.is_empty() {
                        return Ok(Some(ExecBatch::Rows(Batch::new(schema, kept))));
                    }
                }
            }
        }
    }
}
