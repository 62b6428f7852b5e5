//! The fused apply operator — the heart of the execution engine.
//!
//! Implements the paper's two transformation rules at run time:
//!
//! * **Rule I** (Fig. 3): the operator appends UDF output columns to each
//!   input row (cross-apply semantics: a detector's k detections fan a frame
//!   out into k rows; zero detections drop the frame).
//! * **Rule II** (Fig. 4): for each input tuple the operator walks the
//!   reuse *segments* — probing materialized views first (the LEFT OUTER
//!   JOIN read), then evaluating the fallback model only for tuples whose
//!   probe came back NULL (the conditional APPLY's pass-through guard), and
//!   finally appending fresh results to the fallback's view (STORE).
//!
//! The FunCache baseline routes through the same operator with a hash-keyed
//! in-memory cache instead of views, paying the per-invocation hashing cost.
//!
//! The operator is columnar in and out, and so is everything it handles in
//! between. Probe keys are read straight from the typed `frame`/`bbox`
//! columns through the batch's selection. UDF results are typed column
//! *chunks*: a probe hands back its hit rows already gathered out of the
//! view's columns, and each eval batch lends the model one set of column
//! builders to write its fresh rows into (`SimUdf::eval_into`), finished
//! into a chunk that is lent to STORE and then joined — no `Value` or row
//! is built on the way. Per input key the operator records which rows of
//! which chunk are its results, and the cross-apply join is a *selection
//! expansion*: a repeat-index vector gathers the input columns, and the
//! output columns are the source chunk itself when one chunk holds the rows
//! in key order (all hits, or all fresh), or the chunks concatenated and
//! permuted by one gather when hits and fresh rows interleave — so
//! downstream filters and projections stay vectorized.
//! Probe and evaluation run inline on the caller thread, which is also where
//! every simulated-cost charge, counter and span is recorded.

use std::sync::Arc;

use eva_common::clock::ns_from_ms;
use eva_common::metrics::Counter;
use eva_common::{
    BBox, CellRef, Column, ColumnBuilder, ColumnarBatch, CostCategory, EvaError, Failpoint,
    FrameId, OpId, Result, Schema, SpanKind,
};
use eva_expr::Expr;
use eva_planner::{ApplyReuse, ApplySpec, Segment};
use eva_storage::{ViewHits, ViewKey};
use eva_udf::UdfEvalContext;

use crate::context::ExecCtx;
use crate::ops::{BoxedOp, Operator};

/// One UDF input: the logical `(frame, box)` pair and its view key.
type ApplyKey = (FrameId, Option<BBox>, ViewKey);

/// The UDF results of one input batch: typed column chunks, and per input
/// key the `(chunk, first row, row count)` of its results. Every chunk row
/// belongs to exactly one key.
struct Resolved {
    chunks: Vec<Vec<Column>>,
    chunk_rows: Vec<u32>,
    /// `None` while a key is still unresolved; the join refuses one.
    slots: Vec<Option<(u32, u32, u32)>>,
}

impl Resolved {
    fn new(n_keys: usize) -> Resolved {
        Resolved {
            chunks: Vec::new(),
            chunk_rows: Vec::new(),
            slots: vec![None; n_keys],
        }
    }

    /// Take in a chunk whose rows belong, in order, to the keys `owners`
    /// yields as `(key index, row count)`.
    fn push_chunk(&mut self, columns: Vec<Column>, owners: impl IntoIterator<Item = (usize, u32)>) {
        let chunk = self.chunks.len() as u32;
        let mut at = 0u32;
        for (key, len) in owners {
            self.slots[key] = Some((chunk, at, len));
            at += len;
        }
        self.chunks.push(columns);
        self.chunk_rows.push(at);
    }
}

/// The fused probe/evaluate/store apply.
pub struct ApplyOp {
    input: BoxedOp,
    spec: ApplySpec,
    schema: Arc<Schema>,
    frame_idx: usize,
    bbox_idx: Option<usize>,
    /// Plan-node id the operator's probe/UDF counters are attributed to
    /// ([`OpId::UNSET`] outside a planned query, e.g. in unit tests).
    op_id: OpId,
}

impl ApplyOp {
    /// Build, resolving argument columns against the input schema.
    pub fn new(input: BoxedOp, spec: ApplySpec, schema: Arc<Schema>) -> Result<ApplyOp> {
        let in_schema = input.schema();
        let col_idx = |e: &Expr| -> Result<usize> {
            match e {
                Expr::Column(c) => in_schema
                    .index_of(c)
                    .ok_or_else(|| EvaError::Exec(format!("unknown apply argument '{c}'"))),
                other => Err(EvaError::Exec(format!(
                    "apply arguments must be columns, got '{other}'"
                ))),
            }
        };
        let frame_idx = col_idx(
            spec.args
                .first()
                .ok_or_else(|| EvaError::Exec("apply needs a frame argument".into()))?,
        )?;
        let bbox_idx = match spec.args.get(1) {
            Some(e) => Some(col_idx(e)?),
            None => None,
        };
        Ok(ApplyOp {
            input,
            spec,
            schema,
            frame_idx,
            bbox_idx,
            op_id: OpId::UNSET,
        })
    }

    /// Attribute this operator's counters to a plan node id.
    pub fn with_op_id(mut self, id: OpId) -> ApplyOp {
        self.op_id = id;
        self
    }

    /// The batch's UDF inputs, one per *visible* row, read from the typed
    /// argument columns. A NULL or wrong-typed cell reports the same
    /// [`EvaError::Type`] as [`eva_common::Value::as_int`]/`as_bbox`.
    fn keys_of(&self, cb: &ColumnarBatch) -> Result<Vec<ApplyKey>> {
        let frames = cb.column(self.frame_idx);
        let boxes = self.bbox_idx.map(|i| cb.column(i));
        let mut keys = Vec::with_capacity(cb.len());
        for i in 0..cb.len() {
            let phys = cb.physical_index(i);
            let frame = FrameId(match frames.cell(phys) {
                CellRef::Int(f) => f,
                other => other.to_value().as_int()?,
            } as u64);
            keys.push(match boxes {
                Some(col) => {
                    let b = match col.cell(phys) {
                        CellRef::BBox(b) => b,
                        other => other.to_value().as_bbox()?,
                    };
                    (frame, Some(b), ViewKey::frame_box(frame, &b))
                }
                None => (frame, None, ViewKey::frame(frame)),
            });
        }
        Ok(keys)
    }

    /// The `udf_fail` failpoint, hit once per evaluation (each eval batch,
    /// each FunCache miss) before the model runs: when it fires the query
    /// fails, with nothing charged, counted or stored for that evaluation.
    fn check_udf_fail(ctx: &ExecCtx<'_>, udf_name: &str) -> Result<()> {
        let site = Failpoint::UdfFail;
        if ctx.storage.failpoints().should_fire(site) {
            return Err(EvaError::Exec(format!(
                "udf '{udf_name}' failed (failpoint {})",
                site.name()
            )));
        }
        Ok(())
    }

    /// One eval batch: run `udf_def`'s model on the keys at `which`, in that
    /// order, into one set of column builders, and resolve those keys with
    /// the finished chunk — after lending it to STORE when `store_into`
    /// names a view. The `udf_fail` check, the batch's `Udf` charge,
    /// counters and the `udf_eval` leaf span all happen here.
    fn eval_rows(
        &self,
        ctx: &ExecCtx<'_>,
        udf_def: &eva_catalog::UdfDef,
        keys: &[ApplyKey],
        which: &[usize],
        store_into: Option<eva_common::ViewId>,
        resolved: &mut Resolved,
    ) -> Result<()> {
        let udf = ctx.registry.get(&udf_def.impl_id)?;
        let eval_started = std::time::Instant::now();
        let eval_clock = ctx.clock.snapshot();
        Self::check_udf_fail(ctx, &udf_def.name)?;
        let mut builders: Vec<ColumnBuilder> = (0..self.spec.output.len())
            .map(|_| ColumnBuilder::with_capacity(which.len()))
            .collect();
        let mut owners = Vec::with_capacity(which.len());
        for &i in which {
            let input = UdfEvalContext {
                dataset: &ctx.dataset,
                frame: keys[i].0,
                bbox: keys[i].1,
            };
            owners.push((i, udf.eval_into(&input, &mut builders)?));
        }
        let n_eval = owners.len() as u64;
        ctx.metrics().record_udf_calls(n_eval, 0, 0);
        ctx.op_stats
            .update(self.op_id, |s| s.udf_executed += n_eval);
        ctx.clock.charge_n(CostCategory::Udf, n_eval, udf.cost_ns());
        // One leaf span per eval batch: evaluations + the Udf charge, before
        // any STORE append.
        ctx.trace().leaf(
            SpanKind::UdfEval,
            &udf_def.name,
            ctx.clock.snapshot().since(&eval_clock).total_ns(),
            eval_started.elapsed().as_nanos() as u64,
            n_eval,
        );
        let evaluated = which.iter().map(|&i| keys[i].2);
        ctx.stats
            .record_batch(&udf_def.name, evaluated, udf.cost_ns(), false);
        let chunk: Vec<Column> = builders.into_iter().map(ColumnBuilder::finish).collect();
        if let Some(view) = store_into {
            let entries: Vec<_> = owners.iter().map(|&(i, n)| (keys[i].2, n)).collect();
            ctx.storage.view_append(view, &entries, &chunk, ctx.clock)?;
        }
        resolved.push_chunk(chunk, owners);
        Ok(())
    }

    /// Inputs no segment resolved: a plan whose segment list does not end in
    /// an evaluating segment met a key its views do not hold. Dropping those
    /// rows would change the answer, so the query fails instead.
    fn unresolved_error(&self, n_unresolved: usize) -> EvaError {
        EvaError::Exec(format!(
            "apply of '{}' left {n_unresolved} input rows unresolved: \
             no segment of the plan evaluates the UDF",
            self.spec.display_name
        ))
    }

    fn process_views(
        &self,
        ctx: &ExecCtx<'_>,
        keys: &[ApplyKey],
        segments: &[Segment],
        store: bool,
    ) -> Result<Resolved> {
        // A degraded query stops growing materialized state: fresh UDF
        // results still serve the query but are no longer appended to views
        // (and the session drops the pending coverage commits, so partial
        // appends are never claimed). Deterministic: the degradation point
        // is itself deterministic.
        let store = store && !ctx.governor.is_degraded();
        let n = keys.len();
        let mut resolved = Resolved::new(n);
        let mut unresolved: Vec<usize> = (0..n).collect();
        for seg in segments {
            if unresolved.is_empty() {
                break;
            }
            // Probe this segment's view for unresolved rows. One *probe* is
            // counted per row attempted against the segment (the fuzzy
            // lookup below is a second phase of the same probe, not a new
            // one), so `probes == hits + misses` holds by construction.
            if let Some(view) = seg.view {
                let probes = unresolved.len() as u64;
                let mut hit_idx: Vec<usize> = Vec::new();
                let probe_started = std::time::Instant::now();
                let probe_clock = ctx.clock.snapshot();
                let probe_keys: Vec<ViewKey> = unresolved.iter().map(|&i| keys[i].2).collect();
                let mut still = Vec::with_capacity(unresolved.len());
                let ViewHits { lens, columns } =
                    ctx.storage.view_probe(view, &probe_keys, ctx.clock)?;
                let mut owners = Vec::with_capacity(lens.len());
                for (len, &i) in lens.into_iter().zip(&unresolved) {
                    match len {
                        Some(n) => {
                            hit_idx.push(i);
                            owners.push((i, n));
                        }
                        None => still.push(i),
                    }
                }
                resolved.push_chunk(columns, owners);
                let exact_hits = hit_idx.len() as u64;
                // §6 future work: fuzzy bbox matching — an exact-key miss
                // may still reuse the result of a near-identical stored box
                // (opt-in; trades exactness for more reuse).
                if let (Some(min_iou), true) = (ctx.config.fuzzy_box_iou, self.bbox_idx.is_some()) {
                    let mut misses = Vec::with_capacity(still.len());
                    for &i in &still {
                        let (frame, bbox, _) = keys[i];
                        let hit = match bbox {
                            Some(b) => ctx
                                .storage
                                .view_probe_fuzzy(view, frame, &b, min_iou, ctx.clock)?,
                            None => None,
                        };
                        match hit {
                            Some(hit) => {
                                hit_idx.push(i);
                                let n_rows = hit.n_rows() as u32;
                                resolved.push_chunk(hit.columns, [(i, n_rows)]);
                            }
                            None => misses.push(i),
                        }
                    }
                    still = misses;
                }
                unresolved = still;
                // One leaf span per probe batch (exact + fuzzy phases); the
                // sim delta is the view-read cost charged above.
                ctx.trace().leaf(
                    SpanKind::ViewProbe,
                    &seg.udf.name,
                    ctx.clock.snapshot().since(&probe_clock).total_ns(),
                    probe_started.elapsed().as_nanos() as u64,
                    probes,
                );
                // Every hit is a UDF call this segment avoided. Recorded on
                // the caller thread, once per probe batch (and outside the
                // probe span, which times the store alone).
                let hits = hit_idx.len() as u64;
                let fuzzy_hits = hits - exact_hits;
                let avoided_ns = ns_from_ms(seg.udf.cost_ms.unwrap_or(0.0));
                ctx.stats.record_batch(
                    &seg.udf.name,
                    hit_idx.iter().map(|&i| keys[i].2),
                    avoided_ns,
                    true,
                );
                ctx.metrics().record_probe_batch(probes, hits, fuzzy_hits);
                ctx.metrics().record_udf_calls(0, hits, avoided_ns * hits);
                ctx.op_stats.update(self.op_id, |s| {
                    s.probes += probes;
                    s.probe_hits += hits;
                    s.fuzzy_hits += fuzzy_hits;
                    s.udf_avoided += hits;
                });
            }
            // Evaluate the fallback for the rest.
            if seg.eval && !unresolved.is_empty() {
                let store_into = seg.view.filter(|_| store);
                self.eval_rows(ctx, &seg.udf, keys, &unresolved, store_into, &mut resolved)?;
                unresolved.clear();
            }
        }
        if !unresolved.is_empty() {
            return Err(self.unresolved_error(unresolved.len()));
        }
        Ok(resolved)
    }

    fn process_funcache(
        &self,
        ctx: &ExecCtx<'_>,
        keys: &[ApplyKey],
        udf_def: &eva_catalog::UdfDef,
    ) -> Result<Resolved> {
        let udf = ctx.registry.get(&udf_def.impl_id)?;
        let frame_bytes = ctx.dataset.frame_bytes();
        let lookup_started = std::time::Instant::now();
        let lookup_clock = ctx.clock.snapshot();
        // Hits name rows the table already holds, misses are evaluated into
        // the batch's builders; `finish` answers all of them with one gather.
        let mut batch = ctx.funcache.batch(&udf_def.name, self.spec.output.len());
        let (mut hit_keys, mut miss_keys) = (Vec::new(), Vec::new());
        let mut rows_shared = 0u64;
        // Keys hashed so far, and how many of them carried a box.
        let (mut hashed, mut boxed) = (0u64, 0u64);
        let mut lookup = || -> Result<()> {
            for &(frame, bbox, vkey) in keys {
                // Hash the input arguments: the frame payload, plus the
                // box's quantized corners for a box-level UDF.
                let digest = ctx.dataset.frame_digest(frame);
                let mut arg_bytes = Vec::with_capacity(digest.len() + 16);
                arg_bytes.extend_from_slice(&digest);
                if let Some(b) = bbox {
                    for k in b.key() {
                        arg_bytes.extend_from_slice(&k.to_le_bytes());
                    }
                    boxed += 1;
                }
                hashed += 1;
                let hit = batch.answer(&arg_bytes, |out| {
                    Self::check_udf_fail(ctx, &udf_def.name)?;
                    let input = UdfEvalContext {
                        dataset: &ctx.dataset,
                        frame,
                        bbox,
                    };
                    udf.eval_into(&input, out)
                })?;
                match hit {
                    Some(n_rows) => {
                        hit_keys.push(vkey);
                        rows_shared += u64::from(n_rows);
                    }
                    None => miss_keys.push(vkey),
                }
            }
            Ok(())
        };
        let looked_up = lookup();
        let (cache_hits, cache_misses) = (hit_keys.len() as u64, miss_keys.len() as u64);
        // Hashing is charged for the full frame payload on every invocation
        // (the baseline's defining overhead), plus 8 bytes of box corners;
        // each evaluated miss also pays its evaluation. A lookup that fails
        // part way still pays for the work it did.
        let cost = ctx.storage.cost_model();
        ctx.clock.charge_n(
            CostCategory::HashInput,
            boxed,
            cost.hash_cost_ns(frame_bytes + 8),
        );
        ctx.clock.charge_n(
            CostCategory::HashInput,
            hashed - boxed,
            cost.hash_cost_ns(frame_bytes),
        );
        ctx.clock
            .charge_n(CostCategory::Udf, cache_misses, udf.cost_ns());
        looked_up?;
        // One leaf span per lookup batch: hashing, probes, and the misses'
        // evaluations.
        ctx.trace().leaf(
            SpanKind::CacheLookup,
            &udf_def.name,
            ctx.clock.snapshot().since(&lookup_clock).total_ns(),
            lookup_started.elapsed().as_nanos() as u64,
            hashed,
        );
        ctx.stats
            .record_batch(&udf_def.name, hit_keys, udf.cost_ns(), true);
        ctx.stats
            .record_batch(&udf_def.name, miss_keys, udf.cost_ns(), false);
        // Cache hits serve rows the table already held and each one avoided
        // a model invocation; charged once per batch on the caller thread.
        ctx.metrics().add(Counter::funcache_hits, cache_hits);
        ctx.metrics().add(Counter::funcache_misses, cache_misses);
        ctx.metrics()
            .add(Counter::rows_served_zero_copy, rows_shared);
        ctx.metrics()
            .record_udf_calls(cache_misses, cache_hits, udf.cost_ns() * cache_hits);
        ctx.op_stats.update(self.op_id, |s| {
            s.udf_executed += cache_misses;
            s.udf_avoided += cache_hits;
        });
        let (lens, chunk) = batch.finish();
        let mut resolved = Resolved::new(keys.len());
        resolved.push_chunk(chunk, lens.into_iter().enumerate());
        Ok(resolved)
    }

    /// Cross-apply join by selection expansion: input row × each of its
    /// result rows, in input order. `repeat` names every output row's
    /// physical input row, so the input columns are one [`Column::gather`]
    /// each. `order` names every output row's place among the result chunks
    /// laid end to end: when that is already `0, 1, 2, …` — one chunk, or
    /// chunks that resolved the keys in key order — the output columns *are*
    /// the (concatenated) chunks, otherwise one more gather permutes them.
    /// `None` when the batch fanned out to nothing (zero detections
    /// everywhere); an error when a key was left unresolved.
    fn join(&self, cb: &ColumnarBatch, resolved: Resolved) -> Result<Option<ColumnarBatch>> {
        let Resolved {
            chunks,
            chunk_rows,
            slots,
        } = resolved;
        // Where each chunk starts once the chunks are laid end to end.
        let mut offsets = Vec::with_capacity(chunk_rows.len());
        let mut n_out = 0usize;
        for &n in &chunk_rows {
            offsets.push(n_out as u32);
            n_out += n as usize;
        }
        let mut repeat: Vec<u32> = Vec::with_capacity(n_out);
        let mut order: Vec<u32> = Vec::with_capacity(n_out);
        for (i, slot) in slots.iter().enumerate() {
            let Some((chunk, start, len)) = *slot else {
                let n_unresolved = slots.iter().filter(|s| s.is_none()).count();
                return Err(self.unresolved_error(n_unresolved));
            };
            let first = offsets[chunk as usize] + start;
            repeat.extend(std::iter::repeat(cb.physical_index(i) as u32).take(len as usize));
            order.extend(first..first + len);
        }
        debug_assert_eq!(order.len(), n_out, "a chunk row without an owner");
        if n_out == 0 {
            return Ok(None);
        }
        let mut parts = chunks
            .into_iter()
            .zip(&chunk_rows)
            .filter_map(|(chunk, &n)| (n > 0).then_some(chunk));
        let mut outputs = parts.next().expect("n_out > 0");
        for part in parts {
            for (out, more) in outputs.iter_mut().zip(&part) {
                out.append(more);
            }
        }
        if order
            .iter()
            .enumerate()
            .any(|(at, &row)| row as usize != at)
        {
            outputs = outputs.iter().map(|c| c.gather(&order)).collect();
        }
        let columns: Vec<Arc<Column>> = cb
            .columns()
            .iter()
            .map(|c| c.gather(&repeat))
            .chain(outputs)
            .map(Arc::new)
            .collect();
        Ok(Some(ColumnarBatch::new(
            Arc::clone(&self.schema),
            columns,
            n_out,
        )))
    }
}

impl Operator for ApplyOp {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ColumnarBatch>> {
        loop {
            let Some(cb) = self.input.next(ctx)? else {
                return Ok(None);
            };
            // Cooperative governance check at the operator's batch boundary
            // — before the batch's UDF work, where cancellation saves the
            // most simulated (and real) time.
            ctx.governor.check(ctx.clock)?;
            ctx.clock.charge_n(
                CostCategory::Apply,
                cb.len() as u64,
                ctx.config.apply_overhead_ns,
            );
            let keys = self.keys_of(&cb)?;
            let resolved = match &self.spec.reuse {
                ApplyReuse::None { udf } => {
                    let mut resolved = Resolved::new(keys.len());
                    let all: Vec<usize> = (0..keys.len()).collect();
                    self.eval_rows(ctx, udf, &keys, &all, None, &mut resolved)?;
                    resolved
                }
                ApplyReuse::FunCache { udf } => self.process_funcache(ctx, &keys, udf)?,
                ApplyReuse::Views { segments, store } => {
                    self.process_views(ctx, &keys, segments, *store)?
                }
            };
            if let Some(joined) = self.join(&cb, resolved)? {
                return Ok(Some(joined));
            }
        }
    }
}
