//! Selection over UDF-free predicates.

use std::sync::Arc;

use eva_common::{ColumnarBatch, Result, Schema};
use eva_expr::vector::filter_columnar;
use eva_expr::Expr;

use crate::context::ExecCtx;
use crate::ops::{BoxedOp, Operator};

/// Filters rows by a predicate. The optimizer guarantees no UDF calls
/// remain in post-rewrite predicates (they were lowered to applies).
///
/// Batches are filtered *in place*: the vectorized evaluator returns the
/// surviving physical indices and the batch is narrowed to that selection —
/// no row is copied.
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

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ColumnarBatch>> {
        loop {
            let Some(cb) = self.input.next(ctx)? else {
                return Ok(None);
            };
            // Skip emptied batches but keep pulling (don't signal end early).
            let sel = filter_columnar(&self.predicate, &cb)?;
            if !sel.is_empty() {
                return Ok(Some(cb.with_selection(sel)));
            }
        }
    }
}
