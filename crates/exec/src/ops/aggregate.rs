//! Hash aggregation (GROUP BY) over typed columns.
//!
//! One query folds every input batch, in arrival order, into one group
//! table, so each group's `SUM`/`AVG` accumulates its rows in the order they
//! arrive — the row fold a one-thread engine naturally computes. The
//! budget-degraded mode keeps folding into the same table (it only stops
//! charging the memory accountant), so its result is bit-identical to the
//! never-degraded one.
//!
//! The fold has two shapes:
//!
//! - **No `GROUP BY`:** no hash table. The one state vector folds each
//!   argument column at a time — a loop over the `i64`/`f64` slice through
//!   the selection, or cell by cell for nullable and `Mixed` columns — and
//!   the aggregate always emits exactly one row, over empty input too.
//! - **With keys:** [`Groups`] is a flat table. A group is found through its
//!   key's [`Column::write_value_bytes`] encoding hashed with [`KeyHasher`]:
//!   a lone all-valid `Int` key column writes its 9 bytes in a typed loop
//!   ([`int_keys`]), every other key is written cell by cell into one reused
//!   scratch buffer. Key bytes live in one arena, key cells once in a
//!   [`ColumnBuilder`] per key column, states in one vector of stride
//!   `n_aggs`. A fold allocates only when a group is new, and
//!   [`AggPlan::finish`] sorts group *ids* by key bytes and gathers straight
//!   into a columnar batch.

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

/// One aggregate's result column over `states`, in output order: `COUNT`
/// fills its `Int` array directly, every other function goes through a
/// builder.
fn result_column<'s>(func: AggFunc, states: impl ExactSizeIterator<Item = &'s AggState>) -> Column {
    if let AggFunc::Count = func {
        let count = |s: &AggState| match *s {
            AggState::Count(c) => c,
            _ => unreachable!("a COUNT state"),
        };
        return Column::from_ints(states.map(count).collect());
    }
    let mut out = ColumnBuilder::with_capacity(states.len());
    states.for_each(|s| out.push_cell(s.finish()));
    out.finish()
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

/// The keys the typed loop reads: a lone, all-valid `Int` key column. Every
/// other key (NULLs, `Mixed`, floats, strings, more columns) is written cell
/// by cell.
fn int_keys<'a>(keys: &[&'a Column]) -> Option<&'a [i64]> {
    match keys {
        [key] if key.validity().is_all_valid() => match key.data() {
            ColumnData::Int(v) => Some(v),
            _ => None,
        },
        _ => None,
    }
}

impl Groups {
    /// Number of groups.
    fn len(&self) -> usize {
        self.key_ends.len()
    }

    fn key(&self, id: usize) -> &[u8] {
        let start = if id == 0 { 0 } else { self.key_ends[id - 1] };
        &self.key_bytes[start..self.key_ends[id]]
    }

    /// The id of the group whose encoded key is `key` (hashing to `hash`),
    /// or `Err(id)` of the group just opened for it — whose key cells and
    /// states the caller must push. The caller has reserved room for it.
    fn find_or_open(&mut self, hash: u64, key: &[u8]) -> std::result::Result<usize, usize> {
        debug_assert!(self.slots.len() >= 2 * (self.len() + 1), "room reserved");
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
/// against a concrete input schema. [`AggregateOp`] folds every batch into
/// its one [`Groups`] through this.
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

    /// The id of the group whose key encodes as `key` (hashing to `hash`);
    /// a new group takes `cells` as its key cells, and fresh states.
    fn group_id<'c>(
        &self,
        groups: &mut Groups,
        hash: u64,
        key: &[u8],
        cells: impl Iterator<Item = CellRef<'c>>,
    ) -> usize {
        groups.find_or_open(hash, key).unwrap_or_else(|id| {
            groups
                .key_cells
                .iter_mut()
                .zip(cells)
                .for_each(|(builder, cell)| builder.push_cell(cell));
            self.push_fresh_states(groups);
            id
        })
    }

    /// Without `GROUP BY`, every row belongs to the group of the empty key.
    fn open_global_group(&self, groups: &mut Groups) {
        groups.reserve(1);
        self.group_id(groups, hash_key(&[]), &[], std::iter::empty());
    }

    /// Each visible row's group, opening groups for new keys. Keys encode
    /// exactly like [`Value::write_bytes`], the order `finish` sorts by.
    fn group_rows(&self, cb: &ColumnarBatch, active: &[u32], groups: &mut Groups) -> Vec<usize> {
        groups.reserve(active.len());
        let keys: Vec<&Column> = self.key_idx.iter().map(|&i| &**cb.column(i)).collect();
        let mut group_of = Vec::with_capacity(active.len());
        match int_keys(&keys) {
            Some(v) => group_of.extend(active.iter().map(|&phys| {
                let x = v[phys as usize];
                // `write_value_bytes` of an `Int`: tag 2, then the bytes.
                let mut key = [2; 9];
                key[1..].copy_from_slice(&x.to_le_bytes());
                self.group_id(
                    groups,
                    hash_key(&key),
                    &key,
                    std::iter::once(CellRef::Int(x)),
                )
            })),
            None => {
                // The batch's one key buffer.
                let mut scratch = Vec::new();
                for &phys in active {
                    scratch.clear();
                    for key in &keys {
                        key.write_value_bytes(phys as usize, &mut scratch);
                    }
                    let cells = keys.iter().map(|key| key.cell(phys as usize));
                    group_of.push(self.group_id(groups, hash_key(&scratch), &scratch, cells));
                }
            }
        }
        group_of
    }

    /// Fold one batch into `groups`: each visible row is resolved to its
    /// group first, then every aggregate folds its argument column into the
    /// states of those groups, in row order.
    fn consume(&self, cb: &ColumnarBatch, groups: &mut Groups) -> Result<()> {
        let active = cb.physical_indices();
        if active.is_empty() {
            return Ok(());
        }
        // `None`: no GROUP BY, and no row is hashed.
        let group_of = if self.key_idx.is_empty() {
            self.open_global_group(groups);
            None
        } else {
            Some(self.group_rows(cb, &active, groups))
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

    /// Finalize: one output row per group, sorted by key bytes for
    /// reproducibility — and, without `GROUP BY`, exactly one row even when
    /// no input row arrived.
    fn finish(&self, mut groups: Groups, out_schema: &Arc<Schema>) -> ColumnarBatch {
        if self.key_idx.is_empty() {
            self.open_global_group(&mut groups);
        }
        // No key is looked up any more: free the index before the sort
        // allocates its buffer.
        (groups.slots, groups.hashes) = (Vec::new(), Vec::new());
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
        let results = self.funcs.iter().enumerate().map(|(nth, &func)| {
            let states = ids
                .iter()
                .map(|&id| &groups.states[id as usize * stride + nth]);
            result_column(func, states)
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

/// Blocking hash aggregation: drains its input into one group table, then
/// emits one columnar batch of groups, sorted by key bytes for
/// reproducibility.
///
/// ## Graceful degradation
///
/// Under a governed query with a byte budget, the operator charges its
/// retained group state to the memory accountant per batch. When the budget
/// trips it does **not** fail: it marks the query degraded, releases what it
/// charged and charges nothing more, and keeps folding into the same table.
/// The result is therefore bit-identical to the never-degraded one; only
/// `degraded_queries` (and the planner's materialization-skip) reveal the
/// downgrade.
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
        let mut groups = plan.new_groups();
        let mut charged = 0u64;
        let mut degraded = false;
        while let Some(cb) = self.input.next(ctx)? {
            governor.check(ctx.clock)?;
            plan.consume(&cb, &mut groups)?;
            if !budgeted || degraded {
                continue;
            }
            let want = groups.len() as u64 * AGG_GROUP_BYTES;
            if want > charged {
                if governor.charge_bytes(want - charged) {
                    charged = want;
                } else {
                    // Budget tripped: degrade instead of failing the query.
                    if governor.enter_degraded() {
                        ctx.metrics().add(Counter::degraded_queries, 1);
                    }
                    governor.release_bytes(want);
                    charged = 0;
                    degraded = true;
                }
            }
        }
        governor.release_bytes(charged);
        Ok(Some(plan.finish(groups, &self.schema)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_common::rng::SplitMix64;
    use eva_common::{BBox, Bitmap, DataType, Field};

    /// A `COUNT(*)` plan grouped by every column of `columns`, and one batch
    /// holding them.
    fn grouped(columns: Vec<Column>) -> (AggPlan, ColumnarBatch) {
        let n = columns[0].len();
        let fields = (0..columns.len()).map(|i| Field::new(format!("k{i}"), DataType::Int));
        let schema = Schema::new(fields.collect()).unwrap();
        let names: Vec<String> = schema.fields().iter().map(|f| f.name.clone()).collect();
        let plan =
            AggPlan::resolve(&names, &[(AggFunc::Count, None, "n".into())], &schema).unwrap();
        let columns = columns.into_iter().map(Arc::new).collect();
        (plan, ColumnarBatch::new(Arc::new(schema), columns, n))
    }

    /// Fold `columns` as one batch's keys and check the group table against
    /// the cell encoding: every row's group holds the row's
    /// `write_value_bytes` key and its `hash_key`, and distinct keys have
    /// distinct groups.
    fn fold_keys(columns: Vec<Column>) {
        let (plan, cb) = grouped(columns);
        let mut groups = plan.new_groups();
        let active = cb.physical_indices();
        let group_of = plan.group_rows(&cb, &active, &mut groups);
        let mut seen = std::collections::HashMap::new();
        for (&phys, &id) in active.iter().zip(&group_of) {
            let mut key = Vec::new();
            for c in cb.columns() {
                c.write_value_bytes(phys as usize, &mut key);
            }
            assert_eq!(groups.key(id), &key[..], "row {phys}");
            assert_eq!(groups.hashes[id], hash_key(&key), "row {phys}");
            assert_eq!(*seen.entry(key).or_insert(id), id, "row {phys}");
        }
        assert_eq!(groups.len(), seen.len());
    }

    fn floats(vals: Vec<f64>) -> Column {
        let n = vals.len();
        Column::new(ColumnData::Float(vals), Bitmap::all_valid(n))
    }

    /// An all-valid `Int` key column takes the typed loop, which writes the
    /// cell path's key bytes and hash: seeded draws, repeats, and the edges.
    #[test]
    fn typed_keys_match_the_cell_encoding_byte_for_byte_and_hash_for_hash() {
        let mut rng = SplitMix64::new(39);
        let mut ints = vec![0, -1, 1, i64::MIN, i64::MAX, i64::MIN + 1];
        ints.extend((0..500).map(|_| match rng.below(3) {
            0 => rng.next_u64() as i64,
            _ => rng.below(40) as i64 - 20,
        }));
        let int_col = Column::from_ints(ints);
        assert!(int_keys(&[&int_col]).is_some());
        fold_keys(vec![int_col]);
    }

    /// Keys the typed loop does not take — floats (both zeros, NaNs,
    /// infinities among them), NULL-bearing, `Mixed`, strings, booleans,
    /// boxes, two columns — go cell by cell and group the same way.
    #[test]
    fn other_keys_take_the_cell_path() {
        let mut rng = SplitMix64::new(40);
        let mut fl = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
        ];
        fl.extend((0..300).map(|_| match rng.below(3) {
            0 => f64::from_bits(rng.next_u64()),
            _ => rng.below(40) as f64 / 4.0,
        }));
        let mut draw = |f: &dyn Fn(u64) -> Value| -> Column {
            let vals: Vec<Value> = (0..300)
                .map(|_| match rng.below(5) {
                    0 => Value::Null,
                    _ => f(rng.below(12)),
                })
                .collect();
            Column::from_values(&vals)
        };
        let cases = vec![
            vec![floats(fl)],
            vec![draw(&|x| Value::Int(x as i64))],
            vec![draw(&|x| Value::Float(x as f64))],
            vec![draw(&|x| match x % 2 {
                0 => Value::Int(x as i64),
                _ => Value::Float(x as f64),
            })],
            vec![draw(&|x| Value::from(format!("k{x}")))],
            vec![draw(&|x| Value::Bool(x % 2 == 0))],
            vec![draw(&|x| {
                Value::Box(BBox::new(0.0, 0.0, x as f32 / 12.0, 0.5))
            })],
            vec![
                Column::from_ints((0..300).map(|i| i % 7).collect()),
                floats((0..300).map(|i| (i % 5) as f64).collect()),
            ],
        ];
        for columns in cases {
            let keys: Vec<&Column> = columns.iter().collect();
            assert!(int_keys(&keys).is_none(), "{:?}", columns[0].data());
            fold_keys(columns);
        }
    }
}
