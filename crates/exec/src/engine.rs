//! Plan building and execution driver.

use std::collections::BTreeMap;
use std::sync::Arc;

use eva_common::{
    Batch, ColumnarBatch, CostBreakdown, EvaError, MetricsSnapshot, OpId, OpStats, QueryGovernor,
    QueryTrace, Result, Schema, SimClock, SpanKind, SpanRef,
};
use eva_planner::PhysPlan;
use eva_storage::StorageEngine;
use eva_udf::{InvocationStats, UdfRegistry};

use crate::config::ExecConfig;
use crate::context::{ExecCtx, OpStatsCollector};
use crate::funcache::FunCacheTable;
use crate::ops::aggregate::AggregateOp;
use crate::ops::apply::ApplyOp;
use crate::ops::filter::FilterOp;
use crate::ops::project::ProjectOp;
use crate::ops::scan::ScanFramesOp;
use crate::ops::sort_limit::{LimitOp, SortOp};
use crate::ops::{into_rows, BoxedOp, Operator};

/// The result of one query execution.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// All result rows in one batch.
    pub batch: Batch,
    /// Simulated-cost delta attributable to this query (per category).
    pub breakdown: CostBreakdown,
    /// Real wall-clock milliseconds spent executing.
    pub wall_ms: f64,
    /// Real wall-clock milliseconds spent binding and optimizing the query
    /// (0 when the caller planned it elsewhere). Wall time, never charged to
    /// the simulated clock.
    pub plan_wall_ms: f64,
    /// Per-operator runtime statistics, keyed by the plan's operator ids
    /// (feed to [`PhysPlan::explain_analyze`]).
    pub op_stats: BTreeMap<OpId, OpStats>,
    /// Session-metrics delta attributable to this query (probe hits, UDF
    /// calls avoided, …).
    pub metrics: MetricsSnapshot,
    /// The query's span tree and per-kind latency histograms (empty when
    /// the engine's trace sink is disabled).
    pub trace: QueryTrace,
}

impl QueryOutput {
    /// Number of result rows.
    pub fn n_rows(&self) -> usize {
        self.batch.len()
    }

    /// Total simulated seconds.
    pub fn sim_secs(&self) -> f64 {
        self.breakdown.total_secs()
    }
}

/// Wraps every operator built from a plan node, attributing rows, batches
/// and cumulative subtree cost to the node's [`OpId`].
///
/// The clock delta around `inner.next()` includes the charges of every
/// operator *below* this one (they run nested inside the call), so `cum` is
/// the Postgres-style cumulative subtree cost. All accounting happens on the
/// caller thread — the wrapper adds no synchronization and cannot perturb
/// the cost model.
struct InstrumentedOp {
    id: OpId,
    label: &'static str,
    /// Cached trace span, so every `next()` call accumulates into one
    /// [`SpanKind::Operator`] span per plan node (invalidated across
    /// queries by the sink's epoch).
    span: Option<SpanRef>,
    inner: BoxedOp,
}

impl Operator for InstrumentedOp {
    fn schema(&self) -> Arc<Schema> {
        self.inner.schema()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ColumnarBatch>> {
        let (token, span) =
            ctx.trace()
                .enter(self.span, SpanKind::Operator, self.label, Some(self.id));
        if span.is_some() {
            self.span = span;
        }
        let before = ctx.clock.snapshot();
        let out = self.inner.next(ctx);
        let delta = ctx.clock.snapshot().since(&before);
        let rows = match &out {
            Ok(Some(batch)) => batch.len() as u64,
            _ => 0,
        };
        // Close the span before propagating errors so the scope stack stays
        // balanced even when execution aborts mid-tree.
        ctx.trace().exit(token, delta.total_ns(), rows);
        let out = out?;
        // Columnar-flow accounting happens here — once per planned
        // operator emission, on the caller thread like every other counter.
        if let Some(cb) = &out {
            ctx.metrics().record_columnar_batch(cb.len() as u64);
        }
        ctx.op_stats.update(self.id, |s| {
            s.cum = s.cum.plus(&delta);
            if let Some(cb) = &out {
                s.rows_out += cb.len() as u64;
                s.batches += 1;
            }
        });
        Ok(out)
    }
}

/// Stable operator name for trace spans (the full describe() line lives in
/// `EXPLAIN`; spans keep the short variant name).
fn op_label(plan: &PhysPlan) -> &'static str {
    match plan {
        PhysPlan::ScanFrames { .. } => "ScanFrames",
        PhysPlan::Filter { .. } => "Filter",
        PhysPlan::Apply { .. } => "Apply",
        PhysPlan::Project { .. } => "Project",
        PhysPlan::Aggregate { .. } => "Aggregate",
        PhysPlan::Sort { .. } => "Sort",
        PhysPlan::Limit { .. } => "Limit",
    }
}

/// Build the operator tree for a physical plan. Every node is wrapped in an
/// [`InstrumentedOp`] carrying the plan node's operator id.
fn build(plan: &PhysPlan) -> Result<BoxedOp> {
    build_node(plan, None)
}

/// [`build`], where `limit` is the row bound of a `Limit` directly above
/// `plan` (used by a `Sort`, ignored by every other node).
fn build_node(plan: &PhysPlan, limit: Option<u64>) -> Result<BoxedOp> {
    let inner: BoxedOp = match plan {
        PhysPlan::ScanFrames {
            dataset,
            range,
            schema,
            ..
        } => Box::new(ScanFramesOp::new(
            dataset.clone(),
            *range,
            Arc::clone(schema),
        )),
        PhysPlan::Filter {
            input, predicate, ..
        } => Box::new(FilterOp::new(build(input)?, predicate.clone())),
        PhysPlan::Apply {
            input,
            spec,
            schema,
            ..
        } => Box::new(
            ApplyOp::new(build(input)?, spec.clone(), Arc::clone(schema))?.with_op_id(plan.op_id()),
        ),
        PhysPlan::Project {
            input,
            items,
            schema,
            ..
        } => Box::new(ProjectOp::new(
            build(input)?,
            items.clone(),
            Arc::clone(schema),
        )),
        PhysPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
            ..
        } => Box::new(AggregateOp::new(
            build(input)?,
            group_by.clone(),
            aggs.clone(),
            Arc::clone(schema),
        )),
        PhysPlan::Sort { input, keys, .. } => {
            let sort = SortOp::new(build(input)?, keys.clone());
            Box::new(match limit {
                Some(k) => sort.with_limit(k),
                None => sort,
            })
        }
        PhysPlan::Limit { input, n, .. } => {
            // A sort directly below needs only the first `n` of its order.
            let bound = matches!(**input, PhysPlan::Sort { .. }).then_some(*n);
            Box::new(LimitOp::new(build_node(input, bound)?, *n))
        }
    };
    Ok(Box::new(InstrumentedOp {
        id: plan.op_id(),
        label: op_label(plan),
        span: None,
        inner,
    }))
}

fn dataset_of(plan: &PhysPlan) -> Result<&str> {
    let mut node = plan;
    loop {
        if let PhysPlan::ScanFrames { dataset, .. } = node {
            return Ok(dataset);
        }
        node = node
            .input()
            .ok_or_else(|| EvaError::Exec("plan has no scan".into()))?;
    }
}

/// Execute a physical plan to completion, ungoverned, on the caller's
/// thread.
pub fn execute(
    plan: &PhysPlan,
    storage: &StorageEngine,
    registry: &UdfRegistry,
    stats: &InvocationStats,
    clock: &SimClock,
    funcache: &FunCacheTable,
    config: ExecConfig,
) -> Result<QueryOutput> {
    execute_governed(
        plan,
        storage,
        registry,
        stats,
        clock,
        funcache,
        config,
        QueryGovernor::ungoverned(),
    )
}

/// Deterministic estimate of the retained bytes one result row costs the
/// memory accountant. Deliberately crude: the budget verdict must be a pure
/// function of the row count, never of allocator behavior.
pub const RESULT_ROW_BYTES: u64 = 64;

/// [`execute`] under a [`QueryGovernor`] — the session's governed entry
/// point. The governor's token/deadline is checked at every batch boundary
/// of the engine's pull loop (and inside the cooperating operators), and
/// the retained result buffer is charged to the memory accountant;
/// exceeding the budget here has no degradation path, so it cancels with
/// `Cancelled { Budget }`.
#[allow(clippy::too_many_arguments)]
pub fn execute_governed(
    plan: &PhysPlan,
    storage: &StorageEngine,
    registry: &UdfRegistry,
    stats: &InvocationStats,
    clock: &SimClock,
    funcache: &FunCacheTable,
    config: ExecConfig,
    governor: QueryGovernor,
) -> Result<QueryOutput> {
    let started = std::time::Instant::now();
    let before = clock.snapshot();
    let metrics_before = storage.metrics().snapshot();
    // Root the query's span tree at the plan's top operator description.
    let explain = plan.explain();
    storage
        .trace()
        .begin_query(explain.lines().next().unwrap_or("query").trim());
    let dataset = storage.dataset(dataset_of(plan)?)?;
    let op_stats = OpStatsCollector::new();
    let ctx = ExecCtx {
        storage,
        registry,
        stats,
        clock,
        dataset,
        funcache,
        op_stats: &op_stats,
        config,
        governor: governor.clone(),
    };
    let mut root = build(plan)?;
    let schema = root.schema();
    let mut out = Batch::empty(schema);
    // The engine's pull loop is the outermost batch boundary: check the
    // governor between batches and charge the retained result buffer. The
    // charge tracks the buffer's high-water row count in a deterministic
    // per-row estimate, so the budget verdict cannot depend on scheduling.
    let budgeted = governor.config().budget_bytes.is_some();
    let mut result_charged = 0u64;
    while let Some(batch) = root.next(&ctx)? {
        governor.check(clock)?;
        out.extend(into_rows(&ctx, batch))?;
        // A degraded query already gave up materialization and bounded its
        // aggregation state; cancelling it at result buffering would turn
        // graceful degradation back into failure, so the charge stops.
        if budgeted && !governor.is_degraded() {
            let want = out.len() as u64 * RESULT_ROW_BYTES;
            if want > result_charged {
                if !governor.charge_bytes(want - result_charged) {
                    return Err(governor.budget_exceeded());
                }
                result_charged = want;
            }
        }
    }
    governor.release_bytes(result_charged);
    let breakdown = clock.snapshot().since(&before);
    let metrics = storage.metrics().snapshot().since(&metrics_before);
    storage
        .trace()
        .end_query(breakdown.total_ns(), out.len() as u64);
    Ok(QueryOutput {
        batch: out,
        breakdown,
        wall_ms: started.elapsed().as_secs_f64() * 1000.0,
        plan_wall_ms: 0.0,
        op_stats: op_stats.snapshot(),
        metrics,
        trace: storage.trace().last_query(),
    })
}
