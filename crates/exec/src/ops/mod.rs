//! Physical operators.

pub mod aggregate;
pub mod apply;
pub mod filter;
pub mod parallel;
pub mod project;
pub mod scan;
pub mod sort_limit;

use eva_common::{Batch, ExecBatch, Result, Schema};
use std::sync::Arc;

use crate::context::ExecCtx;

/// A pull-based operator producing batches until exhausted.
///
/// Batches flow in one of two forms (see [`ExecBatch`]). Every planned
/// pipeline — scan → filter → apply → filter → project → aggregate → sort
/// → limit — stays columnar; only the final output collection pivots
/// through [`into_rows`]. Row batches enter from test sources and under
/// `force_row_path` ([`PivotRowsOp`]).
pub trait Operator {
    /// Output schema.
    fn schema(&self) -> Arc<Schema>;
    /// Produce the next batch, or `None` when done.
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ExecBatch>>;
}

/// Boxed operator alias.
pub type BoxedOp = Box<dyn Operator>;

/// Pivot a batch to row form at a row-oriented boundary (final output
/// collection, `force_row_path`), charging the `rows_pivoted` counter — the
/// observable cost of leaving the columnar path.
pub(crate) fn into_rows(ctx: &ExecCtx<'_>, b: ExecBatch) -> Batch {
    match b {
        ExecBatch::Rows(b) => b,
        ExecBatch::Columnar(cb) => {
            ctx.metrics().record_rows_pivoted(cb.len() as u64);
            cb.to_batch()
        }
    }
}

/// Forces row-oriented flow by pivoting every columnar batch its input
/// produces. Filter and project downstream then take their row-at-a-time
/// paths — this is how benchmarks compare the legacy row pipeline against
/// the vectorized one over the same plan — while APPLY, aggregate and sort
/// lift row batches back once. `force_row_path` wraps the two columnar
/// producers, the scan and APPLY.
pub struct PivotRowsOp {
    input: BoxedOp,
}

impl PivotRowsOp {
    /// Wrap `input`, pivoting its output to rows.
    pub fn new(input: BoxedOp) -> PivotRowsOp {
        PivotRowsOp { input }
    }
}

impl Operator for PivotRowsOp {
    fn schema(&self) -> Arc<Schema> {
        self.input.schema()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ExecBatch>> {
        Ok(self
            .input
            .next(ctx)?
            .map(|b| ExecBatch::Rows(into_rows(ctx, b))))
    }
}
