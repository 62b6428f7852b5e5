//! Batches of tuples.
//!
//! EVA's execution engine processes video tuples in batches (the paper uses
//! GPU batch size 20 and a 200 MiB materialization batch). A
//! [`ColumnarBatch`] is the one batch type that flows between physical
//! operators (DESIGN.md §4f). A [`Batch`] pairs a shared [`Schema`] with a
//! vector of rows: the form query results are returned in, and test data is
//! written in.

use crate::column::Column;
use crate::error::{EvaError, Result};
use crate::schema::Schema;
use crate::value::Value;
use std::sync::Arc;

/// A single tuple.
pub type Row = Vec<Value>;

/// A batch of rows sharing one schema.
#[derive(Debug, Clone)]
pub struct Batch {
    schema: Arc<Schema>,
    rows: Vec<Row>,
}

impl Batch {
    /// Create a batch. In debug builds, every row is validated against the
    /// schema arity.
    pub fn new(schema: Arc<Schema>, rows: Vec<Row>) -> Self {
        debug_assert!(
            rows.iter().all(|r| r.len() == schema.len()),
            "row arity mismatch with schema {schema}"
        );
        Batch { schema, rows }
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        Batch {
            schema,
            rows: Vec::new(),
        }
    }

    /// The schema shared by all rows.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Mutable access to rows (used by operators that edit in place).
    pub fn rows_mut(&mut self) -> &mut Vec<Row> {
        &mut self.rows
    }

    /// Consume into rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Value at `(row, column-name)`.
    pub fn value(&self, row: usize, col: &str) -> Result<&Value> {
        let idx = self
            .schema
            .index_of(col)
            .ok_or_else(|| EvaError::Binder(format!("unknown column '{col}'")))?;
        self.rows
            .get(row)
            .map(|r| &r[idx])
            .ok_or_else(|| EvaError::Exec(format!("row index {row} out of bounds")))
    }

    /// Append all rows from another batch (schemas must match). Schema
    /// equality is checked by `Arc` pointer first — operators pass one
    /// shared schema down the tree, so the structural comparison only runs
    /// on a pointer miss.
    pub fn extend(&mut self, other: Batch) -> Result<()> {
        if !Arc::ptr_eq(&self.schema, &other.schema) && *other.schema != *self.schema {
            return Err(EvaError::Exec(format!(
                "cannot extend batch {} with batch {}",
                self.schema, other.schema
            )));
        }
        self.rows.extend(other.rows);
        Ok(())
    }
}

/// A batch in columnar form: one shared [`Column`] per schema field plus an
/// optional *selection vector* of surviving physical row indices.
///
/// Filters never copy survivors — they narrow the selection. Columns are
/// `Arc`-shared, so projection (column reordering) and selection narrowing
/// are both zero-copy; data is compacted only at boundaries that need rows
/// ([`ColumnarBatch::to_batch`]) or fresh columns (computed projections).
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    schema: Arc<Schema>,
    columns: Vec<Arc<Column>>,
    /// Physical row indices that survive, in order; `None` means all rows.
    selection: Option<Arc<[u32]>>,
    /// Physical row count (columns may be empty when the schema is).
    n_rows: usize,
}

impl ColumnarBatch {
    /// Build from columns (all of length `n_rows`), no selection.
    pub fn new(schema: Arc<Schema>, columns: Vec<Arc<Column>>, n_rows: usize) -> ColumnarBatch {
        debug_assert_eq!(columns.len(), schema.len(), "column arity");
        debug_assert!(
            columns.iter().all(|c| c.len() == n_rows),
            "column length mismatch"
        );
        ColumnarBatch {
            schema,
            columns,
            selection: None,
            n_rows,
        }
    }

    /// Pivot a row batch into columns (see [`crate::column::ColumnBuilder`] for how the
    /// physical representation is inferred).
    pub fn from_batch(batch: &Batch) -> ColumnarBatch {
        let n = batch.len();
        let rows = batch.rows().iter().map(Vec::as_slice);
        let columns = Column::from_rows(batch.schema().len(), n, rows);
        ColumnarBatch {
            schema: Arc::clone(batch.schema()),
            columns: columns.into_iter().map(Arc::new).collect(),
            selection: None,
            n_rows: n,
        }
    }

    /// Pivot back to rows, applying the selection (compaction point).
    pub fn to_batch(&self) -> Batch {
        let mut rows = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            let phys = self.physical_index(i);
            rows.push(
                self.columns
                    .iter()
                    .map(|c| c.value_at(phys))
                    .collect::<Row>(),
            );
        }
        Batch::new(Arc::clone(&self.schema), rows)
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The shared columns (full physical length; index through the
    /// selection).
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &Arc<Column> {
        &self.columns[i]
    }

    /// The selection vector, if any.
    pub fn selection(&self) -> Option<&[u32]> {
        self.selection.as_deref()
    }

    /// Number of *visible* rows (selection length, or physical count).
    pub fn len(&self) -> usize {
        match &self.selection {
            Some(s) => s.len(),
            None => self.n_rows,
        }
    }

    /// True when no rows are visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical row index of visible row `i`.
    #[inline]
    pub fn physical_index(&self, i: usize) -> usize {
        match &self.selection {
            Some(s) => s[i] as usize,
            None => i,
        }
    }

    /// The visible physical indices as an owned vector (what vectorized
    /// kernels iterate).
    pub fn physical_indices(&self) -> Vec<u32> {
        match &self.selection {
            Some(s) => s.to_vec(),
            None => (0..self.n_rows as u32).collect(),
        }
    }

    /// Replace the selection with `sel` (physical indices — callers derive
    /// them from [`ColumnarBatch::physical_indices`], so narrowing
    /// composes). Columns are shared, not copied.
    pub fn with_selection(&self, sel: Vec<u32>) -> ColumnarBatch {
        debug_assert!(
            sel.iter().all(|&i| (i as usize) < self.n_rows),
            "selection index out of bounds"
        );
        ColumnarBatch {
            schema: Arc::clone(&self.schema),
            columns: self.columns.clone(),
            selection: Some(sel.into()),
            n_rows: self.n_rows,
        }
    }

    /// Reorder/slice columns by position under a new schema, keeping the
    /// selection — the zero-copy projection path.
    pub fn project(&self, schema: Arc<Schema>, cols: &[usize]) -> ColumnarBatch {
        debug_assert_eq!(schema.len(), cols.len());
        ColumnarBatch {
            schema,
            columns: cols.iter().map(|&i| Arc::clone(&self.columns[i])).collect(),
            selection: self.selection.clone(),
            n_rows: self.n_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field};

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("label", DataType::Str),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn value_lookup() {
        let b = Batch::new(schema(), vec![vec![Value::Int(1), Value::from("car")]]);
        assert_eq!(b.value(0, "label").unwrap(), &Value::from("car"));
        assert!(b.value(0, "nope").is_err());
        assert!(b.value(5, "id").is_err());
    }

    #[test]
    fn extend_checks_schema() {
        let mut a = Batch::new(schema(), vec![vec![Value::Int(1), Value::from("x")]]);
        let b = Batch::new(schema(), vec![vec![Value::Int(2), Value::from("y")]]);
        a.extend(b).unwrap();
        assert_eq!(a.len(), 2);

        let other = Arc::new(Schema::new(vec![Field::new("z", DataType::Int)]).unwrap());
        let c = Batch::new(other, vec![vec![Value::Int(3)]]);
        assert!(a.extend(c).is_err());
    }

    #[test]
    fn empty_batch() {
        let b = Batch::empty(schema());
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }

    fn sample_rows() -> Vec<Row> {
        vec![
            vec![Value::Int(1), Value::from("car")],
            vec![Value::Int(2), Value::Null],
            vec![Value::Int(3), Value::from("bus")],
        ]
    }

    #[test]
    fn columnar_round_trip_is_identical() {
        let b = Batch::new(schema(), sample_rows());
        let cb = ColumnarBatch::from_batch(&b);
        assert_eq!(cb.len(), 3);
        let back = cb.to_batch();
        assert_eq!(back.rows(), b.rows());
    }

    #[test]
    fn selection_narrows_without_copying_columns() {
        let b = Batch::new(schema(), sample_rows());
        let cb = ColumnarBatch::from_batch(&b);
        let sel = cb.with_selection(vec![2, 0]);
        assert_eq!(sel.len(), 2);
        assert!(Arc::ptr_eq(sel.column(0), cb.column(0)));
        let rows = sel.to_batch();
        assert_eq!(rows.rows()[0][0], Value::Int(3));
        assert_eq!(rows.rows()[1][0], Value::Int(1));
        // Narrowing composes through physical indices.
        let phys = sel.physical_indices();
        let narrower = sel.with_selection(vec![phys[1]]);
        assert_eq!(narrower.to_batch().rows()[0][0], Value::Int(1));
    }

    #[test]
    fn project_shares_columns_and_selection() {
        let b = Batch::new(schema(), sample_rows());
        let cb = ColumnarBatch::from_batch(&b).with_selection(vec![0, 2]);
        let out_schema = Arc::new(Schema::new(vec![Field::new("label", DataType::Str)]).unwrap());
        let p = cb.project(out_schema, &[1]);
        assert_eq!(p.len(), 2);
        assert!(Arc::ptr_eq(p.column(0), cb.column(1)));
        let rows = p.to_batch();
        assert_eq!(rows.rows()[0][0], Value::from("car"));
        assert_eq!(rows.rows()[1][0], Value::from("bus"));
    }
}
