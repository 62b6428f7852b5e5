//! The FunCache baseline's tuple-level function cache (§5.1).
//!
//! An in-memory hash table mapping `(udf, 128-bit xxHash of the input
//! arguments)` to the UDF's output rows. The defining overhead of this
//! approach — hashing the raw frame bytes on **every** invocation, hit or
//! miss — is charged to the virtual clock by the apply operator.
//!
//! The table is laid out like a materialized view: per UDF one append-only
//! typed [`Column`] per output field, behind an index from key to the
//! `(first row, row count)` range that key's rows occupy. The apply operator
//! answers one input batch through a [`FunCacheBatch`]: hits name ranges the
//! table already holds, misses are evaluated straight into the batch's
//! column builders (`SimUdf::eval_into`), and `finish` appends the fresh
//! chunk and gathers every input's rows in one pass per column.

use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::Arc;

use eva_common::hash::xxhash128;
use eva_common::{Column, ColumnBuilder, EvaError, Result};

/// Shared tuple-level cache. Cheap to clone; contents live for a workload.
#[derive(Debug, Clone, Default)]
pub struct FunCacheTable {
    store: Arc<Mutex<Store>>,
}

#[derive(Debug, Default)]
struct Store {
    /// `(udf id, argument hash)` → `(first row, row count)` in its columns.
    index: HashMap<(usize, u64, u64), (u32, u32)>,
    /// Per UDF, by id: its name and one append-only column per output field.
    udfs: Vec<(String, Vec<Column>)>,
}

impl FunCacheTable {
    /// Fresh empty cache.
    pub fn new() -> FunCacheTable {
        FunCacheTable::default()
    }

    /// Start answering one batch of `udf`'s inputs, whose output rows have
    /// `width` fields. Holds the table's lock until the batch is finished
    /// or dropped.
    pub fn batch(&self, udf: &str, width: usize) -> FunCacheBatch<'_> {
        let mut store = self.store.lock();
        let known = store.udfs.iter().position(|(name, _)| name == udf);
        let udf = known.unwrap_or_else(|| {
            let columns = vec![Column::from_ints(Vec::new()); width];
            store.udfs.push((udf.to_string(), columns));
            store.udfs.len() - 1
        });
        FunCacheBatch {
            next_row: store.udfs[udf].1.first().map_or(0, Column::len) as u32,
            store,
            udf,
            fresh: (0..width).map(|_| ColumnBuilder::new()).collect(),
            ranges: Vec::new(),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.store.lock().index.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop everything (workload restart).
    pub fn clear(&self) {
        *self.store.lock() = Store::default();
    }
}

/// One input batch against the table, answered input by input. The rows its
/// misses evaluated join the table when the batch finishes — or is dropped
/// on an error path, so what was evaluated before the error stays cached and
/// the index never names a row the columns do not hold.
#[derive(Debug)]
pub struct FunCacheBatch<'a> {
    store: MutexGuard<'a, Store>,
    udf: usize,
    /// The rows evaluated in this batch, not yet appended to the table.
    fresh: Vec<ColumnBuilder>,
    /// Where the next fresh row will sit in the UDF's columns.
    next_row: u32,
    /// Per answered input, its `(first row, row count)`.
    ranges: Vec<(u32, u32)>,
}

impl FunCacheBatch<'_> {
    /// Answer the next input, identified by its raw argument bytes: from
    /// the cache (`Some(row count)`; earlier misses of this batch count),
    /// or, on a miss (`None`), with the rows `eval` appends to the builders
    /// it is handed — one per output field — and reports the count of.
    pub fn answer(
        &mut self,
        arg_bytes: &[u8],
        eval: impl FnOnce(&mut [ColumnBuilder]) -> Result<u32>,
    ) -> Result<Option<u32>> {
        let (lo, hi) = xxhash128(arg_bytes);
        let key = (self.udf, lo, hi);
        if let Some(&range) = self.store.index.get(&key) {
            self.ranges.push(range);
            return Ok(Some(range.1));
        }
        let n_rows = eval(&mut self.fresh)?;
        let range = (self.next_row, n_rows);
        self.next_row = (self.next_row.checked_add(n_rows))
            .ok_or_else(|| EvaError::Exec("function cache row index overflow".into()))?;
        self.store.index.insert(key, range);
        self.ranges.push(range);
        Ok(None)
    }

    /// Append the fresh rows to the table (once).
    fn commit(&mut self) {
        let columns = &mut self.store.udfs[self.udf].1;
        for (stored, fresh) in columns.iter_mut().zip(self.fresh.drain(..)) {
            stored.append(&fresh.finish());
        }
    }

    /// Per answered input its row count, and every input's rows gathered,
    /// in input order, into one column per output field.
    pub fn finish(mut self) -> (Vec<u32>, Vec<Column>) {
        self.commit();
        let rows: Vec<u32> = (self.ranges.iter())
            .flat_map(|&(start, len)| start..start + len)
            .collect();
        let columns = &self.store.udfs[self.udf].1;
        let gathered = columns.iter().map(|c| c.gather(&rows)).collect();
        (self.ranges.iter().map(|&(_, len)| len).collect(), gathered)
    }
}

impl Drop for FunCacheBatch<'_> {
    fn drop(&mut self) {
        self.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_common::testutil::rows_of;
    use eva_common::{CellRef, Value};

    /// Answer `inputs`: argument bytes, and the rows a miss evaluates to.
    /// Returns which inputs hit, and the batch's answer.
    fn answer(c: &FunCacheTable, inputs: &[(&[u8], &[i64])]) -> (Vec<bool>, Vec<u32>, Vec<Column>) {
        let mut batch = c.batch("det", 1);
        let mut hits = Vec::new();
        for (bytes, rows) in inputs {
            let eval = |out: &mut [ColumnBuilder]| {
                rows.iter().for_each(|&v| out[0].push_cell(CellRef::Int(v)));
                Ok(rows.len() as u32)
            };
            hits.push(batch.answer(bytes, eval).unwrap().is_some());
        }
        let (lens, columns) = batch.finish();
        (hits, lens, columns)
    }

    fn ints(vals: &[i64]) -> Vec<Vec<Value>> {
        vals.iter().map(|&v| vec![Value::Int(v)]).collect()
    }

    #[test]
    fn round_trip() {
        let c = FunCacheTable::new();
        let (hits, lens, columns) = answer(&c, &[(b"frame-0", &[1, 2]), (b"frame-1", &[])]);
        assert_eq!((hits, lens), (vec![false, false], vec![2, 0]));
        assert_eq!(rows_of(&columns), ints(&[1, 2]));
        assert_eq!(c.len(), 2);
        // Hits come back in input order, whatever order the rows were
        // stored in; a zero-row entry is a hit too.
        let (hits, lens, columns) = answer(
            &c,
            &[(b"frame-1", &[]), (b"frame-2", &[3]), (b"frame-0", &[9])],
        );
        assert_eq!((hits, lens), (vec![true, false, true], vec![0, 1, 2]));
        assert_eq!(rows_of(&columns), ints(&[3, 1, 2]));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(answer(&c, &[(b"frame-0", &[7])]).0, vec![false]);
    }

    #[test]
    fn a_repeat_inside_one_batch_is_a_hit() {
        let c = FunCacheTable::new();
        let (hits, lens, columns) = answer(&c, &[(b"x", &[5]), (b"y", &[6]), (b"x", &[0])]);
        assert_eq!((hits, lens), (vec![false, false, true], vec![1, 1, 1]));
        assert_eq!(rows_of(&columns), ints(&[5, 6, 5]));
    }

    #[test]
    fn a_failed_batch_keeps_what_it_evaluated() {
        let c = FunCacheTable::new();
        {
            let mut batch = c.batch("det", 1);
            let one = |out: &mut [ColumnBuilder]| {
                out[0].push_cell(CellRef::Int(4));
                Ok(1)
            };
            assert_eq!(batch.answer(b"x", one).unwrap(), None);
            let failing = |_: &mut [ColumnBuilder]| Err(EvaError::Exec("model down".into()));
            assert!(batch.answer(b"y", failing).is_err());
            // The error path: the batch is dropped without `finish`.
        }
        let (hits, _, columns) = answer(&c, &[(b"x", &[0]), (b"y", &[8])]);
        assert_eq!(hits, vec![true, false]);
        assert_eq!(rows_of(&columns), ints(&[4, 8]));
    }

    #[test]
    fn udfs_do_not_share_entries() {
        let c = FunCacheTable::new();
        assert_eq!(answer(&c, &[(b"x", &[1])]).0, vec![false]);
        let mut other = c.batch("other", 1);
        let eval = |out: &mut [ColumnBuilder]| {
            out[0].push_str("car");
            Ok(1)
        };
        assert_eq!(
            other.answer(b"x", eval).unwrap(),
            None,
            "same bytes, other UDF"
        );
        let (_, columns) = other.finish();
        assert_eq!(rows_of(&columns), vec![vec![Value::from("car")]]);
        assert_eq!(c.len(), 2);
        c.clear();
        assert_eq!(answer(&c, &[(b"x", &[2])]).0, vec![false]);
    }
}
