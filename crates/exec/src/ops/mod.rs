//! Physical operators.

pub mod aggregate;
pub mod apply;
pub mod filter;
pub mod project;
pub mod scan;
pub mod sort_limit;

use eva_common::metrics::Counter;
use eva_common::{Batch, ColumnarBatch, Result, Schema};
use std::sync::Arc;

use crate::context::ExecCtx;

/// A pull-based operator producing batches until exhausted.
///
/// Every operator consumes and produces [`ColumnarBatch`]es: the planned
/// pipeline — scan → filter → apply → filter → project → aggregate → sort
/// → limit — never leaves columnar form, and only the final output
/// collection pivots to rows, through [`into_rows`].
pub trait Operator {
    /// Output schema.
    fn schema(&self) -> Arc<Schema>;
    /// Produce the next batch, or `None` when done.
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ColumnarBatch>>;
}

/// Boxed operator alias.
pub type BoxedOp = Box<dyn Operator>;

/// Pivot a batch to row form at the output boundary, charging the
/// `rows_pivoted` counter — the observable cost of leaving columnar form.
pub(crate) fn into_rows(ctx: &ExecCtx<'_>, cb: ColumnarBatch) -> Batch {
    ctx.metrics().add(Counter::rows_pivoted, cb.len() as u64);
    cb.to_batch()
}
