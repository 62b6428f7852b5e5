//! Morsel-driven parallel execution of UDF-free pipeline segments.
//!
//! [`ParallelPipelineOp`] replaces a planner-marked
//! [`ParallelSegment`](eva_planner::ParallelSegment) — `Scan ←
//! (Filter | Project)*`, optionally capped by an `Aggregate` pipeline
//! breaker — at executor build time. The plan itself is never rewritten, so
//! `EXPLAIN` output and operator ids are untouched.
//!
//! ## Execution model
//!
//! The scan range is partitioned into fixed-size frame-range morsels
//! (`StorageEngine::scan_morsels`); one pipeline instance runs per worker on
//! the work-stealing pool (`WorkerPool::run_stealing`), each morsel flowing
//! scan → filter → project (→ partial aggregate) entirely on its worker.
//! Workers are **pure compute**: they use the uncharged scan and never touch
//! the clock, the metrics sink, the op-stats collector, or the trace sink.
//!
//! ## Determinism
//!
//! Results come back indexed by morsel, so everything the caller derives
//! happens in *morsel order* regardless of which lane ran what:
//!
//! - non-aggregating segments emit surviving batches in morsel order —
//!   bit-identical to a serial run with `batch_size = morsel_rows`;
//! - an aggregate breaker merges the per-morsel group tables in morsel
//!   order into one total sized for them up front, with the same merge the
//!   serial operator applies per batch — states update in place, only new
//!   groups append, no row moves — so even float accumulation order
//!   matches, and emits the same single columnar batch (one row for an
//!   ungrouped aggregate whose every morsel filtered empty);
//! - all accounting (IO charges, counters, per-op stats) is *replayed* on
//!   the caller thread, morsel by morsel, recording what the instrumented
//!   serial operators would have recorded for the same batch boundaries.
//!   The clock is an integer ledger, so each stage's cumulative cost is
//!   simply the sum of the morsel charges it consumed — every morsel passes
//!   through every stage's pending `next()` call. The only new counters are
//!   `morsels_dispatched` / `parallel_pipelines` (deterministic) and
//!   `morsels_stolen` (scheduling-dependent, masked by
//!   `MetricsSnapshot::deterministic`).

use std::sync::Arc;

use eva_common::metrics::Counter;
use eva_common::{ColumnarBatch, CostBreakdown, Result, Schema, SpanKind, SpanRef};
use eva_expr::vector::filter_columnar;
use eva_expr::Expr;
use eva_planner::{ParallelSegment, ParallelStage};
use eva_storage::StorageEngine;

use crate::context::ExecCtx;
use crate::ops::aggregate::{AggPlan, Groups};
use crate::ops::project::ProjPlan;
use crate::ops::Operator;

/// A stage kernel resolved against its concrete input schema, shared with
/// the workers through an `Arc`.
enum StageKernel {
    Filter {
        predicate: Expr,
    },
    Project {
        items: Vec<(Expr, String)>,
        schema: Arc<Schema>,
        plan: ProjPlan,
    },
}

/// What one morsel produced, shipped back from its worker.
struct MorselOut {
    /// Frames the morsel scanned.
    scanned: u64,
    /// Surviving row count after each stage, aligned with the segment's
    /// stage list. Once a filter zeroes it, later stages never ran.
    stage_rows: Vec<u64>,
    /// The final batch (`None` once filtered empty) — concat mode only.
    batch: Option<ColumnarBatch>,
    /// Per-morsel partial aggregate states — breaker mode only.
    partial: Option<Groups>,
}

/// Run one morsel through the pipeline on a worker thread. Pure compute:
/// no clock, no counters, no tracing.
fn run_morsel(
    storage: &StorageEngine,
    dataset: &str,
    kernels: &[StageKernel],
    agg: Option<&AggPlan>,
    range: (u64, u64),
) -> Result<MorselOut> {
    let cb = storage.scan_frames_columnar_uncharged(dataset, range.0, range.1)?;
    let scanned = cb.len() as u64;
    let mut stage_rows = Vec::with_capacity(kernels.len());
    let mut cur = Some(cb);
    for kernel in kernels {
        let Some(cb) = cur.take() else {
            stage_rows.push(0);
            continue;
        };
        cur = match kernel {
            StageKernel::Filter { predicate } => {
                let sel = filter_columnar(predicate, &cb)?;
                if sel.is_empty() {
                    None
                } else {
                    Some(cb.with_selection(sel))
                }
            }
            StageKernel::Project {
                items,
                schema,
                plan,
            } => Some(plan.apply_columnar(items, schema, &cb)?),
        };
        stage_rows.push(cur.as_ref().map_or(0, |c| c.len() as u64));
    }
    // Breaker mode: a morsel filtered empty ships an empty partial.
    let partial = match agg {
        Some(plan) => {
            let mut groups = plan.new_groups();
            if let Some(cb) = &cur {
                plan.consume(cb, &mut groups)?;
            }
            Some(groups)
        }
        None => None,
    };
    Ok(MorselOut {
        scanned,
        stage_rows,
        batch: if agg.is_none() { cur } else { None },
        partial,
    })
}

/// Replay one morsel's accounting on the caller thread: the IO charge, the
/// `frames_scanned` / `columnar_*` counters, and the subsumed operators'
/// per-op stats — what the instrumented serial pipeline would have recorded
/// for the same batch boundaries. Every stage's serial `next()` call spans
/// the scan charge of each morsel it pulls, emitted or filtered empty, so
/// each stage's cumulative cost grows by the morsel's charge. Returns that
/// charge.
fn replay_morsel(ctx: &ExecCtx<'_>, seg: &ParallelSegment, m: &MorselOut) -> CostBreakdown {
    let before = ctx.clock.snapshot();
    ctx.storage.charge_frame_scan(m.scanned, ctx.clock);
    let delta = ctx.clock.snapshot().since(&before);
    // The scan's emission: serial scans only reach their instrumented
    // wrapper with non-empty batches (ranges are clamped to the dataset).
    if m.scanned > 0 {
        ctx.metrics().record_columnar_batch(m.scanned);
    }
    ctx.op_stats.update(seg.scan_op_id, |s| {
        s.cum = s.cum.plus(&delta);
        if m.scanned > 0 {
            s.rows_out += m.scanned;
            s.batches += 1;
        }
    });
    for (stage, &rows) in seg.stages.iter().zip(&m.stage_rows) {
        if rows > 0 {
            ctx.metrics().record_columnar_batch(rows);
        }
        ctx.op_stats.update(stage.op_id(), |s| {
            s.cum = s.cum.plus(&delta);
            if rows > 0 {
                s.rows_out += rows;
                s.batches += 1;
            }
        });
    }
    delta
}

/// Results of the (single) dispatch, drained incrementally by `next()`.
struct RunState {
    /// Per-morsel outputs, in morsel order.
    results: Vec<MorselOut>,
    /// Next morsel whose accounting has not been replayed yet.
    cursor: usize,
    /// The merged aggregate output, if this segment has a breaker.
    agg_batch: Option<ColumnarBatch>,
}

/// Executor-internal operator running a parallel-safe segment morsel-wise.
/// Built *instead of* the segment's serial operators when the scan range
/// clears `parallel_scan_min_rows`; carries no instrumentation wrapper and
/// replays the subsumed operators' accounting itself.
pub struct ParallelPipelineOp {
    seg: ParallelSegment,
    out_schema: Arc<Schema>,
    /// Cached `Pipeline` trace span, one per plan position like the serial
    /// wrappers' operator spans.
    span: Option<SpanRef>,
    state: Option<RunState>,
    done: bool,
}

impl ParallelPipelineOp {
    /// New parallel pipeline over a marked segment.
    pub fn new(seg: ParallelSegment) -> ParallelPipelineOp {
        let mut out_schema = Arc::clone(&seg.scan_schema);
        for stage in &seg.stages {
            if let ParallelStage::Project { schema, .. } = stage {
                out_schema = Arc::clone(schema);
            }
        }
        if let Some(b) = &seg.breaker {
            out_schema = Arc::clone(&b.schema);
        }
        ParallelPipelineOp {
            seg,
            out_schema,
            span: None,
            state: None,
            done: false,
        }
    }

    /// Resolve stage kernels bottom-up, tracking the evolving schema, and
    /// the breaker's aggregation plan against the chain's output schema.
    fn resolve(&self) -> Result<(Vec<StageKernel>, Option<AggPlan>)> {
        let mut schema = Arc::clone(&self.seg.scan_schema);
        let mut kernels = Vec::with_capacity(self.seg.stages.len());
        for stage in &self.seg.stages {
            match stage {
                ParallelStage::Filter { predicate, .. } => kernels.push(StageKernel::Filter {
                    predicate: predicate.clone(),
                }),
                ParallelStage::Project {
                    items, schema: out, ..
                } => {
                    let plan = ProjPlan::resolve(items, &schema);
                    kernels.push(StageKernel::Project {
                        items: items.clone(),
                        schema: Arc::clone(out),
                        plan,
                    });
                    schema = Arc::clone(out);
                }
            }
        }
        let agg = match &self.seg.breaker {
            Some(b) => Some(AggPlan::resolve(&b.group_by, &b.aggs, &schema)?),
            None => None,
        };
        Ok((kernels, agg))
    }

    /// Dispatch every morsel onto the work-stealing pool and stitch the
    /// results back in morsel order. Runs once, on the first `next()`.
    fn dispatch(&mut self, ctx: &ExecCtx<'_>) -> Result<()> {
        let (kernels, agg) = self.resolve()?;
        let agg = agg.map(Arc::new);
        let morsels = ctx.storage.scan_morsels(
            &self.seg.dataset,
            self.seg.range.0,
            self.seg.range.1,
            ctx.config.morsel_rows.max(1) as u64,
            &ctx.governor,
        )?;
        let n_morsels = morsels.len();
        let (outs, reports) = if n_morsels == 0 {
            (Vec::new(), Vec::new())
        } else {
            // The workers get their own handles: the storage engine clones
            // cheaply (`Arc`-backed), kernels and the aggregation plan ride
            // in `Arc`s. Everything they touch is pure compute — except the
            // governor, which is the designed exception: lanes observe the
            // cancellation token between morsels (`morsel_gate` /
            // `lane_break`) but never charge or record anything.
            let storage: StorageEngine = ctx.storage.clone();
            let dataset = self.seg.dataset.clone();
            let kernels = Arc::new(kernels);
            let agg_w = agg.clone();
            let gate = ctx.governor.clone();
            let lanes = ctx.governor.clone();
            ctx.pool().run_stealing_cancellable(
                n_morsels,
                move || lanes.lane_break(),
                move |i| {
                    if !gate.morsel_gate(i as u64) {
                        return None;
                    }
                    Some(run_morsel(
                        &storage,
                        &dataset,
                        &kernels,
                        agg_w.as_deref(),
                        morsels[i],
                    ))
                },
            )
        };
        // Walk the outputs in morsel order. The contiguous completed prefix
        // is kept; the first gap (a refused or unran morsel) or the
        // lowest-indexed error decides the outcome — exactly the boundary a
        // serial run with the same morsel schedule would have stopped at.
        let mut results = Vec::with_capacity(outs.len());
        let mut failure: Option<eva_common::EvaError> = None;
        for out in outs {
            match out.flatten() {
                Some(Ok(m)) => results.push(m),
                Some(Err(e)) => {
                    failure = Some(e);
                    break;
                }
                None => {
                    // A morsel the gate refused or no lane ran: surface the
                    // governor's cancellation (the gate always trips the
                    // token before refusing).
                    failure = Some(match ctx.governor.check_token() {
                        Err(e) => e,
                        Ok(()) => ctx.governor.cancel_error(),
                    });
                    break;
                }
            }
        }
        if let Some(err) = failure {
            // Replay the completed prefix's accounting (IO charges, scan
            // counters, per-op stats) before unwinding, so the deterministic
            // counters of a cancelled run cover exactly the morsels that
            // completed — bit-identical at any worker-pool width.
            for m in &results {
                replay_morsel(ctx, &self.seg, m);
            }
            return Err(err);
        }
        // Counters — on the caller thread, once per engaged pipeline. The
        // morsel count is deterministic (plan shape + config + row count);
        // the steal count depends on scheduling and is masked by
        // `MetricsSnapshot::deterministic`.
        ctx.metrics().record_parallel_pipeline(results.len() as u64);
        let stolen: u64 = reports.iter().map(|r| r.stolen).sum();
        ctx.metrics().add(Counter::morsels_stolen, stolen);
        // Per-lane spans under the pipeline span, recorded by the caller
        // (workers never touch the sink). Wall time is real; simulated cost
        // is zero here because the charges are replayed per morsel.
        for (lane, r) in reports.iter().enumerate() {
            ctx.trace().leaf(
                SpanKind::Operator,
                &format!("worker-{lane}"),
                0,
                r.wall_ns,
                r.executed,
            );
        }
        // Breaker mode: merge per-morsel partials in morsel order (states
        // update in place, only new groups append) and finalize — the same
        // fold the serial operator applies per batch.
        let agg_batch = match (&agg, &self.seg.breaker) {
            (Some(plan), Some(b)) => {
                let partials = results.iter_mut().filter_map(|m| m.partial.take());
                let partials: Vec<Groups> = partials.collect();
                let mut total = plan.new_groups();
                // The partials' group counts bound the total's: size its
                // index once instead of regrowing it through the merge.
                total.reserve(partials.iter().map(Groups::len).sum());
                for partial in partials {
                    plan.merge_into(&mut total, partial);
                }
                Some(plan.finish(total, &b.schema))
            }
            _ => None,
        };
        self.state = Some(RunState {
            results,
            cursor: 0,
            agg_batch,
        });
        Ok(())
    }

    /// The un-traced body of `next()`; adds the simulated cost replayed
    /// during this call to `sim`.
    fn next_inner(
        &mut self,
        ctx: &ExecCtx<'_>,
        sim: &mut CostBreakdown,
    ) -> Result<Option<ColumnarBatch>> {
        if self.state.is_none() {
            self.dispatch(ctx)?;
        }
        let seg = &self.seg;
        let state = self.state.as_mut().expect("dispatched");
        // Replay morsels in order. Without a breaker, stop at the first one
        // that produced output and emit it; trailing empty morsels are
        // replayed on the final call.
        while state.cursor < state.results.len() {
            let idx = state.cursor;
            *sim = sim.plus(&replay_morsel(ctx, seg, &state.results[idx]));
            state.cursor += 1;
            if let Some(cb) = state.results[idx].batch.take() {
                return Ok(Some(cb));
            }
        }
        self.done = true;
        let Some(b) = &seg.breaker else {
            return Ok(None);
        };
        // Breaker mode: the aggregate consumed every morsel inside this one
        // `next()` call, so its cumulative cost is all of theirs, and it
        // emits the single merged batch.
        let batch = state.agg_batch.take().expect("one aggregate emission");
        ctx.metrics().record_columnar_batch(batch.len() as u64);
        ctx.op_stats.update(b.op_id, |s| {
            s.cum = s.cum.plus(sim);
            s.rows_out += batch.len() as u64;
            s.batches += 1;
        });
        Ok(Some(batch))
    }
}

impl Operator for ParallelPipelineOp {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.out_schema)
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ColumnarBatch>> {
        if self.done {
            return Ok(None);
        }
        let (token, span) = ctx.trace().enter(
            self.span,
            SpanKind::Pipeline,
            "ParallelPipeline",
            Some(self.seg.root_op_id),
        );
        if span.is_some() {
            self.span = span;
        }
        let mut sim = CostBreakdown::default();
        let out = self.next_inner(ctx, &mut sim);
        let rows = match &out {
            Ok(Some(batch)) => batch.len() as u64,
            _ => 0,
        };
        // Close the span before propagating errors so the scope stack stays
        // balanced even when execution aborts mid-pipeline.
        ctx.trace().exit(token, sim.total_ns(), rows);
        out
    }
}
