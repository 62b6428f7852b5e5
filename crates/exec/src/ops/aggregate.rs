//! Hash aggregation (GROUP BY) over typed columns.
//!
//! Aggregation is structured around *mergeable partial states*: every input
//! batch folds into a fresh partial [`Groups`] table which is then merged
//! into the running total in batch-arrival order. The budget-degraded mode
//! streams those partials into a spill through the same merge
//! ([`AggPlan::merge_into`]/[`AggState::merge`]), so its result is
//! *bit-identical* to the in-memory fold — including float accumulation
//! order.
//!
//! The fold has two shapes:
//!
//! - **No `GROUP BY`:** no hash table. The one state vector folds each
//!   argument column at a time — a loop over the `i64`/`f64` slice through
//!   the selection, or cell by cell for nullable and `Mixed` columns — and
//!   the aggregate always emits exactly one row, over empty input too.
//! - **With keys:** [`Groups`] is a flat table. A group is found through its
//!   key's [`Column::write_value_bytes`] encoding, written into one reused
//!   scratch buffer and hashed with [`KeyHasher`]; key bytes live in one
//!   arena, key cells once in a [`ColumnBuilder`] per key column, states in
//!   one vector of stride `n_aggs`. A fold allocates only when a group is
//!   new, a merge updates states in place, and [`AggPlan::finish`] sorts
//!   group *ids* by key bytes and gathers straight into a columnar batch.

use std::cmp::Ordering;
use std::hash::Hasher;
use std::sync::Arc;

use eva_common::hash::KeyHasher;
use eva_common::metrics::Counter;
use eva_common::{
    CellRef, Column, ColumnBuilder, ColumnData, ColumnarBatch, EvaError, Result, Schema, Value,
};
use eva_expr::vector::eval_columnar;
use eva_expr::{AggFunc, Expr};

use crate::context::ExecCtx;
use crate::ops::{BoxedOp, Operator};

/// One aggregate's running state. `Min`/`Max` keep the winning cell with its
/// tag, so an `Int` stored in a `FLOAT` column comes back an `Int`.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    Sum(f64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: u64 },
}

/// Numeric view of a cell, with [`Value::as_float`]'s exact error wording.
fn cell_float(c: CellRef<'_>) -> Result<f64> {
    c.as_number()
        .ok_or_else(|| EvaError::Type(format!("expected FLOAT, got {}", c.to_value())))
}

/// A non-NULL cell of an `Int` or `Float` array.
trait Number: Copy {
    fn as_f64(self) -> f64;
    fn cell(self) -> CellRef<'static>;
}

impl Number for i64 {
    fn as_f64(self) -> f64 {
        self as f64
    }
    fn cell(self) -> CellRef<'static> {
        CellRef::Int(self)
    }
}

impl Number for f64 {
    fn as_f64(self) -> f64 {
        self
    }
    fn cell(self) -> CellRef<'static> {
        CellRef::Float(self)
    }
}

/// `MIN`/`MAX` step: `c` replaces the current extreme only when it compares
/// strictly `want` to it, so the earlier cell wins ties.
fn update_extreme(m: &mut Option<Value>, c: CellRef<'_>, want: Ordering) {
    let replace = match m {
        Some(cur) => c.sql_cmp(CellRef::from_value(cur)) == Some(want),
        None => true,
    };
    if replace {
        *m = Some(c.to_value());
    }
}

/// [`update_extreme`] over a run of numbers, comparing `f64`s in a register
/// (how `sql_cmp` compares any two numbers) and storing the winner once.
fn fold_extreme<T: Number>(m: &mut Option<Value>, mut xs: impl Iterator<Item = T>, want: Ordering) {
    let mut cur = match m.as_ref().map(|v| CellRef::from_value(v).as_number()) {
        Some(Some(cur)) => cur,
        // A non-numeric extreme: some earlier cell was no number.
        Some(None) => return xs.for_each(|x| update_extreme(m, x.cell(), want)),
        None => match xs.next() {
            Some(first) => {
                *m = Some(first.cell().to_value());
                first.as_f64()
            }
            None => return,
        },
    };
    let mut best = None;
    for x in xs {
        if x.as_f64().partial_cmp(&cur) == Some(want) {
            cur = x.as_f64();
            best = Some(x);
        }
    }
    if let Some(x) = best {
        *m = Some(x.cell().to_value());
    }
}

impl AggState {
    fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(0.0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
        }
    }

    /// `COUNT(*)` over `rows` rows (a no-op for any other function, which
    /// never has a star argument).
    fn count_rows(&mut self, rows: usize) {
        if let AggState::Count(n) = self {
            *n += rows as i64;
        }
    }

    /// Update from one argument cell. NULL arguments are skipped by every
    /// function.
    fn update_cell(&mut self, c: CellRef<'_>) -> Result<()> {
        if c.is_null() {
            return Ok(());
        }
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(s) => *s += cell_float(c)?,
            AggState::Min(m) => update_extreme(m, c, Ordering::Less),
            AggState::Max(m) => update_extreme(m, c, Ordering::Greater),
            AggState::Avg { sum, n } => {
                *sum += cell_float(c)?;
                *n += 1;
            }
        }
        Ok(())
    }

    /// [`AggState::update_cell`] for each of `xs` in order, with the state
    /// matched once and the accumulator in a register.
    fn fold_numbers<T: Number>(&mut self, xs: impl Iterator<Item = T>) {
        match self {
            AggState::Count(n) => *n += xs.count() as i64,
            AggState::Sum(s) => xs.for_each(|x| *s += x.as_f64()),
            AggState::Min(m) => fold_extreme(m, xs, Ordering::Less),
            AggState::Max(m) => fold_extreme(m, xs, Ordering::Greater),
            AggState::Avg { sum, n } => xs.for_each(|x| {
                *sum += x.as_f64();
                *n += 1;
            }),
        }
    }

    /// Fold a later partial into this one. Merging is the associative half
    /// of the aggregate algebra; determinism comes from the *caller*
    /// merging partials in batch order. Min/Max replace only on a strict
    /// inequality, so the earlier partial wins ties exactly like the
    /// sequential fold.
    fn merge(&mut self, later: AggState) {
        match (self, later) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a), AggState::Sum(b)) => *a += b,
            (AggState::Min(a), AggState::Min(Some(v))) => {
                update_extreme(a, CellRef::from_value(&v), Ordering::Less)
            }
            (AggState::Max(a), AggState::Max(Some(v))) => {
                update_extreme(a, CellRef::from_value(&v), Ordering::Greater)
            }
            (AggState::Min(_), AggState::Min(None)) | (AggState::Max(_), AggState::Max(None)) => {}
            (AggState::Avg { sum: a, n: an }, AggState::Avg { sum: b, n: bn }) => {
                *a += b;
                *an += bn;
            }
            _ => unreachable!("merging mismatched aggregate states"),
        }
    }

    /// The aggregate's result cell.
    fn finish(&self) -> CellRef<'_> {
        match self {
            AggState::Count(c) => CellRef::Int(*c),
            AggState::Sum(s) => CellRef::Float(*s),
            AggState::Min(m) | AggState::Max(m) => {
                m.as_ref().map_or(CellRef::Null, CellRef::from_value)
            }
            AggState::Avg { n: 0, .. } => CellRef::Null,
            AggState::Avg { sum, n } => CellRef::Float(sum / *n as f64),
        }
    }
}

/// One aggregate's argument, resolved once against the input schema so the
/// fold never re-binds names.
enum ArgPlan {
    /// `COUNT(*)`.
    Star,
    /// A bare input column, read positionally.
    Col(usize),
    /// A general expression.
    Expr(Expr),
}

/// The group table: every group seen so far, numbered in order of first
/// appearance. Without `GROUP BY` it holds at most the one group of the
/// empty key.
struct Groups {
    /// Open-addressing index over the groups: `id + 1`, or 0 for a free
    /// slot. A power of two long and at most half full.
    slots: Vec<u32>,
    /// Each group's key hash (what `slots` is probed and regrown by).
    hashes: Vec<u64>,
    /// Every group's encoded key, back to back.
    key_bytes: Vec<u8>,
    /// Where each group's key ends in `key_bytes`.
    key_ends: Vec<usize>,
    /// Each group's key cells, one builder per key column.
    key_cells: Vec<ColumnBuilder>,
    /// Each group's aggregate states, `n_aggs` per group.
    states: Vec<AggState>,
}

fn hash_key(key: &[u8]) -> u64 {
    let mut h = KeyHasher::default();
    h.write(key);
    h.finish()
}

impl Groups {
    /// Number of groups.
    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn key(&self, id: usize) -> &[u8] {
        let start = if id == 0 { 0 } else { self.key_ends[id - 1] };
        &self.key_bytes[start..self.key_ends[id]]
    }

    /// The id of the group whose encoded key is `key` (hashing to `hash`),
    /// or `Err(id)` of the group just opened for it — whose key cells and
    /// states the caller must push.
    fn find_or_open(&mut self, hash: u64, key: &[u8]) -> std::result::Result<usize, usize> {
        self.reserve(1);
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.slots[at] {
                0 => break,
                slot => {
                    let id = slot as usize - 1;
                    if self.hashes[id] == hash && self.key(id) == key {
                        return Ok(id);
                    }
                }
            }
            at = (at + 1) & mask;
        }
        let id = self.len();
        self.slots[at] = u32::try_from(id + 1).expect("fewer than 2^32 groups");
        self.hashes.push(hash);
        self.key_bytes.extend_from_slice(key);
        self.key_ends.push(self.key_bytes.len());
        Err(id)
    }

    /// Make room for `additional` more groups without regrowing.
    fn reserve(&mut self, additional: usize) {
        if self.slots.len() < 2 * (self.len() + additional) {
            self.regrow(self.len() + additional);
        }
    }

    /// Regrow the index to hold `groups` groups at most half full (from the
    /// hashes alone: no key is read).
    fn regrow(&mut self, groups: usize) {
        let len = (2 * groups).next_power_of_two().max(16);
        self.slots.clear();
        self.slots.resize(len, 0);
        for (id, hash) in self.hashes.iter().enumerate() {
            let mut at = *hash as usize & (len - 1);
            while self.slots[at] != 0 {
                at = (at + 1) & (len - 1);
            }
            self.slots[at] = id as u32 + 1;
        }
    }
}

/// A resolved aggregation: group-key positions and argument plans bound
/// against a concrete input schema. [`AggregateOp`] folds each batch into a
/// partial [`Groups`] through this and merges partials in arrival order.
struct AggPlan {
    funcs: Vec<AggFunc>,
    key_idx: Vec<usize>,
    args: Vec<ArgPlan>,
}

impl AggPlan {
    /// Bind `group_by` names and aggregate arguments against `in_schema`.
    fn resolve(
        group_by: &[String],
        aggs: &[(AggFunc, Option<Expr>, String)],
        in_schema: &Schema,
    ) -> Result<AggPlan> {
        let key_idx: Vec<usize> = group_by
            .iter()
            .map(|g| {
                in_schema
                    .index_of(g)
                    .ok_or_else(|| EvaError::Exec(format!("unknown group column '{g}'")))
            })
            .collect::<Result<_>>()?;
        // Resolve argument positions once; unresolvable columns stay
        // expressions so the evaluator reports the standard binder error.
        let args: Vec<ArgPlan> = aggs
            .iter()
            .map(|(_, arg, _)| match arg {
                None => ArgPlan::Star,
                Some(Expr::Column(c)) => match in_schema.index_of(c) {
                    Some(i) => ArgPlan::Col(i),
                    None => ArgPlan::Expr(Expr::Column(c.clone())),
                },
                Some(e) => ArgPlan::Expr(e.clone()),
            })
            .collect();
        Ok(AggPlan {
            funcs: aggs.iter().map(|(f, _, _)| *f).collect(),
            key_idx,
            args,
        })
    }

    /// An empty group table for this aggregation.
    fn new_groups(&self) -> Groups {
        Groups {
            slots: Vec::new(),
            hashes: Vec::new(),
            key_bytes: Vec::new(),
            key_ends: Vec::new(),
            key_cells: self.key_idx.iter().map(|_| ColumnBuilder::new()).collect(),
            states: Vec::new(),
        }
    }

    fn push_fresh_states(&self, groups: &mut Groups) {
        groups
            .states
            .extend(self.funcs.iter().map(|f| AggState::new(*f)));
    }

    /// Without `GROUP BY`, every row belongs to the group of the empty key.
    fn open_global_group(&self, groups: &mut Groups) {
        if groups.find_or_open(hash_key(&[]), &[]).is_err() {
            self.push_fresh_states(groups);
        }
    }

    /// Fold one batch into `groups`. Each visible row is resolved to its
    /// group first (keys encode exactly like [`Value::write_bytes`], the
    /// order `finish` sorts by); then every aggregate folds its argument
    /// column into the states of those groups, in row order.
    fn consume(&self, cb: &ColumnarBatch, groups: &mut Groups) -> Result<()> {
        let active = cb.physical_indices();
        if active.is_empty() {
            return Ok(());
        }
        // `None`: no GROUP BY, and no row is hashed.
        let group_of: Option<Vec<usize>> = if self.key_idx.is_empty() {
            self.open_global_group(groups);
            None
        } else {
            let keys: Vec<&Column> = self.key_idx.iter().map(|&i| &**cb.column(i)).collect();
            let mut group_of = Vec::with_capacity(active.len());
            // The batch's one key buffer.
            let mut scratch = Vec::new();
            for &phys in &active {
                scratch.clear();
                for key in &keys {
                    key.write_value_bytes(phys as usize, &mut scratch);
                }
                group_of.push(match groups.find_or_open(hash_key(&scratch), &scratch) {
                    Ok(id) => id,
                    Err(id) => {
                        for (cells, key) in groups.key_cells.iter_mut().zip(&keys) {
                            cells.push_cell(key.cell(phys as usize));
                        }
                        self.push_fresh_states(groups);
                        id
                    }
                });
            }
            Some(group_of)
        };
        let stride = self.args.len();
        // A computed argument is a compact column: visible row `i` sits at
        // its position `i`.
        let mut compact: Option<Vec<u32>> = None;
        for (nth, arg) in self.args.iter().enumerate() {
            let computed;
            let (col, rows): (&Column, &[u32]) = match arg {
                ArgPlan::Star => {
                    match &group_of {
                        None => groups.states[nth].count_rows(active.len()),
                        Some(ids) => ids
                            .iter()
                            .for_each(|id| groups.states[id * stride + nth].count_rows(1)),
                    }
                    continue;
                }
                ArgPlan::Col(i) => (&**cb.column(*i), &active[..]),
                ArgPlan::Expr(e) => {
                    computed = eval_columnar(e, cb, &active)?;
                    let all = compact.get_or_insert_with(|| (0..active.len() as u32).collect());
                    (&computed, &all[..])
                }
            };
            // Group `id`'s state for this aggregate.
            let states = &mut groups.states[nth..];
            let group_of = group_of.as_deref();
            match (col.data(), col.validity().is_all_valid()) {
                (ColumnData::Int(v), true) => {
                    let xs = rows.iter().map(|&r| v[r as usize]);
                    fold_numbers(states, stride, group_of, xs)
                }
                (ColumnData::Float(v), true) => {
                    let xs = rows.iter().map(|&r| v[r as usize]);
                    fold_numbers(states, stride, group_of, xs)
                }
                _ => {
                    for (i, &row) in rows.iter().enumerate() {
                        let id = group_of.map_or(0, |ids| ids[i]);
                        states[id * stride].update_cell(col.cell(row as usize))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Merge a *later* partial into the running total, its groups in their
    /// order of first appearance: states of known groups update in place,
    /// new groups append. Determinism needs only that the caller present
    /// partials in batch order.
    fn merge_into(&self, total: &mut Groups, later: Groups) {
        // An empty total with no more room reserved than `later` has.
        if total.len() == 0 && total.slots.len() <= later.slots.len() {
            *total = later;
            return;
        }
        let stride = self.args.len();
        let later_keys: Vec<Column> = later
            .key_cells
            .into_iter()
            .map(ColumnBuilder::finish)
            .collect();
        let mut later_states = later.states.into_iter();
        let mut start = 0;
        for (id, (&hash, &end)) in later.hashes.iter().zip(&later.key_ends).enumerate() {
            match total.find_or_open(hash, &later.key_bytes[start..end]) {
                Ok(known) => {
                    for cur in &mut total.states[known * stride..][..stride] {
                        cur.merge(later_states.next().expect("one state per aggregate"));
                    }
                }
                Err(_) => {
                    for (cells, key) in total.key_cells.iter_mut().zip(&later_keys) {
                        cells.push_cell(key.cell(id));
                    }
                    total.states.extend(later_states.by_ref().take(stride));
                }
            }
            start = end;
        }
    }

    /// Finalize: one output row per group, sorted by key bytes for
    /// reproducibility — and, without `GROUP BY`, exactly one row even when
    /// no input row arrived.
    fn finish(&self, mut groups: Groups, out_schema: &Arc<Schema>) -> ColumnarBatch {
        if self.key_idx.is_empty() {
            self.open_global_group(&mut groups);
        }
        // Order ids by key bytes. A key's first eight bytes read as a
        // big-endian word (zero-padded, which puts a key before its
        // extensions, as byte order does) decide nearly every comparison
        // without touching the arena.
        let prefix = |id: usize| {
            let key = groups.key(id);
            let mut word = [0u8; 8];
            let n = key.len().min(8);
            word[..n].copy_from_slice(&key[..n]);
            u64::from_be_bytes(word)
        };
        let mut order: Vec<(u64, u32)> = (0..groups.len())
            .map(|id| (prefix(id), id as u32))
            .collect();
        order.sort_unstable_by(|a, b| {
            let by_key = || groups.key(a.1 as usize).cmp(groups.key(b.1 as usize));
            a.0.cmp(&b.0).then_with(by_key)
        });
        let ids: Vec<u32> = order.into_iter().map(|(_, id)| id).collect();
        let stride = self.args.len();
        let keys = std::mem::take(&mut groups.key_cells);
        let keys = keys.into_iter().map(|cells| cells.finish().gather(&ids));
        let results = (0..stride).map(|nth| {
            let mut out = ColumnBuilder::with_capacity(ids.len());
            for &id in &ids {
                out.push_cell(groups.states[id as usize * stride + nth].finish());
            }
            out.finish()
        });
        let columns = keys.chain(results).map(Arc::new).collect();
        ColumnarBatch::new(Arc::clone(out_schema), columns, ids.len())
    }
}

/// Fold a run of non-NULL numbers into one aggregate's states (group `id`'s
/// at `states[id * stride]`): the whole run at once without `GROUP BY`,
/// visible row `i`'s number into its group `group_of[i]`'s state with.
fn fold_numbers<T: Number>(
    states: &mut [AggState],
    stride: usize,
    group_of: Option<&[usize]>,
    xs: impl Iterator<Item = T>,
) {
    match group_of {
        None => states[0].fold_numbers(xs),
        Some(ids) => xs
            .zip(ids)
            .for_each(|(x, id)| states[id * stride].fold_numbers(std::iter::once(x))),
    }
}

/// Deterministic estimate of the retained bytes one aggregation group
/// charges the memory accountant. Crude on purpose: the budget verdict must
/// be a pure function of the group count, never of allocator behavior.
pub(crate) const AGG_GROUP_BYTES: u64 = 64;

/// Blocking hash aggregation: drains its input, then emits one columnar
/// batch of groups, sorted by key bytes for reproducibility. Each input
/// batch folds into a fresh partial table merged in arrival order — see the
/// module docs for why.
///
/// ## Graceful degradation
///
/// Under a governed query with a byte budget, the operator charges its
/// retained group state to the memory accountant per batch. When the budget
/// trips it does **not** fail: it enters a streaming/merging mode — the
/// group table is flushed into a spill after every batch, so in-flight
/// state stays bounded by one batch's groups. The spill is a second group
/// table (it stands in for a run on disk) and the flush is the same
/// in-order merge the in-memory fold uses, so the degraded result is
/// bit-identical to the never-degraded one; only `degraded_queries` (and
/// the planner's materialization-skip) reveal the downgrade.
pub struct AggregateOp {
    input: BoxedOp,
    group_by: Vec<String>,
    aggs: Vec<(AggFunc, Option<Expr>, String)>,
    schema: Arc<Schema>,
    done: bool,
}

impl AggregateOp {
    /// New aggregation.
    pub fn new(
        input: BoxedOp,
        group_by: Vec<String>,
        aggs: Vec<(AggFunc, Option<Expr>, String)>,
        schema: Arc<Schema>,
    ) -> AggregateOp {
        AggregateOp {
            input,
            group_by,
            aggs,
            schema,
            done: false,
        }
    }
}

impl Operator for AggregateOp {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ColumnarBatch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;

        let plan = AggPlan::resolve(&self.group_by, &self.aggs, &self.input.schema())?;
        let governor = &ctx.governor;
        let budgeted = governor.config().budget_bytes.is_some();
        let mut total = plan.new_groups();
        let mut spill: Option<Groups> = None;
        let mut charged = 0u64;
        while let Some(cb) = self.input.next(ctx)? {
            governor.check(ctx.clock)?;
            let mut partial = plan.new_groups();
            plan.consume(&cb, &mut partial)?;
            if let Some(sp) = spill.as_mut() {
                // Already degraded: every batch's groups stream into the
                // spill, so no table in memory outgrows one batch.
                plan.merge_into(sp, partial);
                continue;
            }
            plan.merge_into(&mut total, partial);
            if budgeted {
                let want = total.len() as u64 * AGG_GROUP_BYTES;
                if want > charged {
                    if governor.charge_bytes(want - charged) {
                        charged = want;
                    } else {
                        // Budget tripped: degrade to streaming/merging mode
                        // instead of failing the query.
                        if governor.enter_degraded() {
                            ctx.metrics().add(Counter::degraded_queries, 1);
                        }
                        governor.release_bytes(want);
                        charged = 0;
                        spill = Some(std::mem::replace(&mut total, plan.new_groups()));
                    }
                }
            }
        }
        governor.release_bytes(charged);
        let groups = spill.unwrap_or(total);
        Ok(Some(plan.finish(groups, &self.schema)))
    }
}
