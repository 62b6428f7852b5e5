//! Projection.

use std::sync::Arc;

use eva_common::{ColumnarBatch, Result, Schema};
use eva_expr::vector::eval_columnar;
use eva_expr::Expr;

use crate::context::ExecCtx;
use crate::ops::{BoxedOp, Operator};

/// How the projection executes, resolved once against the input schema
/// instead of re-binding column names per row.
enum ProjPlan {
    /// Every item is a bare input column: reorder by position, zero-copy
    /// (`Arc`-shared columns, selection carried through).
    Reorder(Vec<usize>),
    /// General expressions: evaluate per item.
    Compute,
}

impl ProjPlan {
    /// `Reorder` when every item is a resolvable bare column. Unknown
    /// columns fall back to `Compute` so the evaluator reports them with
    /// the standard binder error.
    fn resolve(items: &[(Expr, String)], in_schema: &Schema) -> ProjPlan {
        let mut idx = Vec::with_capacity(items.len());
        for (expr, _) in items {
            match expr {
                Expr::Column(c) => match in_schema.index_of(c) {
                    Some(i) => idx.push(i),
                    None => return ProjPlan::Compute,
                },
                _ => return ProjPlan::Compute,
            }
        }
        ProjPlan::Reorder(idx)
    }

    /// The columnar projection kernel: pure compute, no clock, no metrics.
    fn apply_columnar(
        &self,
        items: &[(Expr, String)],
        schema: &Arc<Schema>,
        cb: &ColumnarBatch,
    ) -> Result<ColumnarBatch> {
        match self {
            ProjPlan::Reorder(idx) => Ok(cb.project(Arc::clone(schema), idx)),
            ProjPlan::Compute => {
                let active = cb.physical_indices();
                let mut columns = Vec::with_capacity(items.len());
                for (expr, _) in items {
                    columns.push(Arc::new(eval_columnar(expr, cb, &active)?));
                }
                Ok(ColumnarBatch::new(
                    Arc::clone(schema),
                    columns,
                    active.len(),
                ))
            }
        }
    }
}

/// Evaluates projection expressions; bare-column projections reduce to a
/// positional reorder.
pub struct ProjectOp {
    input: BoxedOp,
    items: Vec<(Expr, String)>,
    schema: Arc<Schema>,
    plan: ProjPlan,
}

impl ProjectOp {
    /// New projection.
    pub fn new(input: BoxedOp, items: Vec<(Expr, String)>, schema: Arc<Schema>) -> ProjectOp {
        let in_schema = input.schema();
        let plan = ProjPlan::resolve(&items, &in_schema);
        ProjectOp {
            input,
            items,
            schema,
            plan,
        }
    }
}

impl Operator for ProjectOp {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ColumnarBatch>> {
        let Some(cb) = self.input.next(ctx)? else {
            return Ok(None);
        };
        let out = self.plan.apply_columnar(&self.items, &self.schema, &cb)?;
        Ok(Some(out))
    }
}
