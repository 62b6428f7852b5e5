//! Typed column arrays — the columnar half of the execution engine.
//!
//! The operator pipeline (scan → filter → apply → project → aggregate) runs
//! over [`Column`]s instead of `Vec<Row>`: one contiguous typed vector per
//! column plus a validity [`Bitmap`], in the DataChunk/ArrayImpl style of
//! vectorized engines. Predicates produce *selection vectors* instead of
//! copying rows; see [`crate::batch::ColumnarBatch`].
//!
//! ## Round-trip fidelity
//!
//! The row engine is dynamically typed: a `FLOAT` column legally carries
//! `Value::Int` (see [`crate::DataType::admits`]), and group-by keys hash
//! the *value tag* (`Int(1)` ≠ `Float(1.0)`). A typed `Vec<f64>` would
//! silently widen and change those semantics, so the builder infers the
//! physical representation from the values themselves and falls back to
//! [`ColumnData::Mixed`] whenever a column mixes numeric tags. Pivoting
//! rows → columns → rows is therefore **bit-identical** (property-tested
//! in `tests/property_columnar.rs`).

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use crate::value::{BBox, Value};

/// A packed validity bitmap: bit `i` set ⇔ slot `i` holds a (non-NULL)
/// value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitmap {
    bits: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap {
            bits: Vec::new(),
            len: 0,
        }
    }

    /// An empty bitmap with room for `cap` slots.
    fn with_capacity(cap: usize) -> Bitmap {
        Bitmap {
            bits: Vec::with_capacity(cap.div_ceil(64)),
            len: 0,
        }
    }

    /// A bitmap of `len` slots, all valid. Bits past `len` stay clear, like
    /// the ones [`Bitmap::push`] builds, so equal bitmaps compare equal.
    pub fn all_valid(len: usize) -> Bitmap {
        let mut bits = vec![u64::MAX; len.div_ceil(64)];
        if len % 64 != 0 {
            *bits.last_mut().expect("len > 0") = (1u64 << (len % 64)) - 1;
        }
        Bitmap { bits, len }
    }

    /// Append one slot.
    pub fn push(&mut self, valid: bool) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if word == self.bits.len() {
            self.bits.push(0);
        }
        if valid {
            self.bits[word] |= 1u64 << bit;
        }
        self.len += 1;
    }

    /// Whether slot `i` is valid.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bitmap index {i} out of bounds {}", self.len);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of valid slots.
    pub fn count_valid(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when every slot is valid.
    pub fn is_all_valid(&self) -> bool {
        self.count_valid() == self.len
    }
}

impl Default for Bitmap {
    fn default() -> Self {
        Bitmap::new()
    }
}

/// The physical array behind one column. Typed variants hold a default in
/// invalid slots; [`ColumnData::Mixed`] preserves exact [`Value`]s for
/// columns that mix numeric tags (e.g. a `FLOAT` column carrying `Int`s).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// UTF-8 strings.
    Str(Vec<String>),
    /// Bounding boxes.
    BBox(Vec<BBox>),
    /// Tag-preserving fallback for heterogeneous columns.
    Mixed(Vec<Value>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::BBox(v) => v.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }
}

/// A borrowed view of one cell — what vectorized kernels compare without
/// materializing a [`Value`].
#[derive(Debug, Clone, Copy)]
pub enum CellRef<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String slice.
    Str(&'a str),
    /// Bounding box.
    BBox(BBox),
}

impl<'a> CellRef<'a> {
    /// Borrowing view of a [`Value`].
    pub fn from_value(v: &'a Value) -> CellRef<'a> {
        match v {
            Value::Null => CellRef::Null,
            Value::Bool(b) => CellRef::Bool(*b),
            Value::Int(i) => CellRef::Int(*i),
            Value::Float(f) => CellRef::Float(*f),
            Value::Str(s) => CellRef::Str(s),
            Value::Box(b) => CellRef::BBox(*b),
        }
    }

    /// Materialize an owned [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            CellRef::Null => Value::Null,
            CellRef::Bool(b) => Value::Bool(b),
            CellRef::Int(i) => Value::Int(i),
            CellRef::Float(f) => Value::Float(f),
            CellRef::Str(s) => Value::Str(s.to_string()),
            CellRef::BBox(b) => Value::Box(b),
        }
    }

    /// True iff NULL.
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, CellRef::Null)
    }

    /// Numeric view (`Int` widens to `f64`, like [`Value::as_float`]).
    #[inline]
    pub fn as_number(self) -> Option<f64> {
        match self {
            CellRef::Int(i) => Some(i as f64),
            CellRef::Float(f) => Some(f),
            _ => None,
        }
    }

    /// SQL three-valued comparison, mirroring [`Value::sql_cmp`] exactly
    /// (numeric cross-type comparison goes through `f64`, like the row
    /// path).
    pub fn sql_cmp(self, other: CellRef<'_>) -> Option<Ordering> {
        match (self, other) {
            (CellRef::Null, _) | (_, CellRef::Null) => None,
            (CellRef::Bool(a), CellRef::Bool(b)) => Some(a.cmp(&b)),
            (CellRef::Str(a), CellRef::Str(b)) => Some(a.cmp(b)),
            (CellRef::BBox(a), CellRef::BBox(b)) => {
                if a == b {
                    Some(Ordering::Equal)
                } else {
                    a.key().partial_cmp(&b.key())
                }
            }
            _ => {
                let (a, b) = (self.as_number()?, other.as_number()?);
                a.partial_cmp(&b)
            }
        }
    }
}

/// One column: a typed array plus validity. Immutable once built — batches
/// share columns by `Arc`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    data: ColumnData,
    validity: Bitmap,
}

impl Column {
    /// Build from parts. Lengths must agree.
    pub fn new(data: ColumnData, validity: Bitmap) -> Column {
        debug_assert_eq!(data.len(), validity.len(), "column/validity length");
        Column { data, validity }
    }

    /// An all-valid integer column (the scan's id/timestamp/frame shape).
    pub fn from_ints(vals: Vec<i64>) -> Column {
        let validity = Bitmap::all_valid(vals.len());
        Column {
            data: ColumnData::Int(vals),
            validity,
        }
    }

    /// Build from values, inferring the tightest physical representation.
    pub fn from_values<'a>(vals: impl IntoIterator<Item = &'a Value>) -> Column {
        let mut b = ColumnBuilder::new();
        for v in vals {
            b.push(v);
        }
        b.finish()
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// The physical array.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The validity bitmap.
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// Whether slot `i` holds a value.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.get(i)
    }

    /// Borrowed view of slot `i`.
    #[inline]
    pub fn cell(&self, i: usize) -> CellRef<'_> {
        if !self.validity.get(i) {
            return CellRef::Null;
        }
        match &self.data {
            ColumnData::Int(v) => CellRef::Int(v[i]),
            ColumnData::Float(v) => CellRef::Float(v[i]),
            ColumnData::Bool(v) => CellRef::Bool(v[i]),
            ColumnData::Str(v) => CellRef::Str(&v[i]),
            ColumnData::BBox(v) => CellRef::BBox(v[i]),
            ColumnData::Mixed(v) => CellRef::from_value(&v[i]),
        }
    }

    /// Owned [`Value`] of slot `i`.
    pub fn value_at(&self, i: usize) -> Value {
        self.cell(i).to_value()
    }

    /// Append slot `i`'s [`Value::write_bytes`] encoding to `out` — the
    /// stable byte form group-by keys hash, without materializing a value.
    pub fn write_value_bytes(&self, i: usize, out: &mut Vec<u8>) {
        if !self.validity.get(i) {
            out.push(0);
            return;
        }
        match &self.data {
            ColumnData::Int(v) => {
                out.push(2);
                out.extend_from_slice(&v[i].to_le_bytes());
            }
            ColumnData::Float(v) => {
                out.push(3);
                out.extend_from_slice(&v[i].to_le_bytes());
            }
            ColumnData::Bool(v) => {
                out.push(1);
                out.push(v[i] as u8);
            }
            ColumnData::Str(v) => {
                let s = &v[i];
                out.push(4);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            ColumnData::BBox(v) => {
                out.push(5);
                for k in v[i].key() {
                    out.extend_from_slice(&k.to_le_bytes());
                }
            }
            ColumnData::Mixed(v) => v[i].write_bytes(out),
        }
    }

    /// Compact the slots at `idx` (physical indices, repeats allowed) into
    /// a fresh column. An all-valid source — the scan's and every detector
    /// output's shape — skips the bit-by-bit validity rebuild.
    pub fn gather(&self, idx: &[u32]) -> Column {
        let validity = if self.validity.is_all_valid() {
            Bitmap::all_valid(idx.len())
        } else {
            let mut validity = Bitmap::with_capacity(idx.len());
            for &i in idx {
                validity.push(self.validity.get(i as usize));
            }
            validity
        };
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Float(v) => ColumnData::Float(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Str(v) => {
                ColumnData::Str(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
            ColumnData::BBox(v) => ColumnData::BBox(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Mixed(v) => {
                ColumnData::Mixed(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
        };
        Column { data, validity }
    }
}

/// Incremental [`Column`] builder: starts optimistically typed on the
/// first non-null value and demotes to [`ColumnData::Mixed`] on the first
/// tag mismatch (preserving everything pushed so far).
#[derive(Debug)]
pub struct ColumnBuilder {
    data: Option<ColumnData>,
    validity: Bitmap,
    /// Slots to reserve once the first non-null value picks the array type.
    capacity: usize,
}

impl ColumnBuilder {
    /// Fresh, empty builder.
    pub fn new() -> ColumnBuilder {
        ColumnBuilder::with_capacity(0)
    }

    /// Empty builder that allocates its array once for `capacity` slots.
    pub fn with_capacity(capacity: usize) -> ColumnBuilder {
        ColumnBuilder {
            data: None,
            validity: Bitmap::with_capacity(capacity),
            capacity,
        }
    }

    /// Append one value.
    pub fn push(&mut self, v: &Value) {
        let n = self.validity.len();
        self.validity.push(!v.is_null());
        if v.is_null() {
            // Placeholder in whatever representation exists (or stays
            // pending until the first non-null value decides one).
            match &mut self.data {
                None => {}
                Some(ColumnData::Int(vec)) => vec.push(0),
                Some(ColumnData::Float(vec)) => vec.push(0.0),
                Some(ColumnData::Bool(vec)) => vec.push(false),
                Some(ColumnData::Str(vec)) => vec.push(String::new()),
                Some(ColumnData::BBox(vec)) => vec.push(BBox::new(0.0, 0.0, 0.0, 0.0)),
                Some(ColumnData::Mixed(vec)) => vec.push(Value::Null),
            }
            return;
        }
        // Late initialization: backfill placeholders for the nulls seen
        // before the first non-null value.
        if self.data.is_none() {
            fn filled<T: Clone>(fill: T, n: usize, capacity: usize) -> Vec<T> {
                let mut vec = Vec::with_capacity(capacity.max(n + 1));
                vec.resize(n, fill);
                vec
            }
            let cap = self.capacity;
            self.data = Some(match v {
                Value::Int(_) => ColumnData::Int(filled(0, n, cap)),
                Value::Float(_) => ColumnData::Float(filled(0.0, n, cap)),
                Value::Bool(_) => ColumnData::Bool(filled(false, n, cap)),
                Value::Str(_) => ColumnData::Str(filled(String::new(), n, cap)),
                Value::Box(_) => ColumnData::BBox(filled(BBox::new(0.0, 0.0, 0.0, 0.0), n, cap)),
                Value::Null => unreachable!(),
            });
        }
        match (self.data.as_mut().unwrap(), v) {
            (ColumnData::Int(vec), Value::Int(i)) => vec.push(*i),
            (ColumnData::Float(vec), Value::Float(f)) => vec.push(*f),
            (ColumnData::Bool(vec), Value::Bool(b)) => vec.push(*b),
            (ColumnData::Str(vec), Value::Str(s)) => vec.push(s.clone()),
            (ColumnData::BBox(vec), Value::Box(b)) => vec.push(*b),
            (ColumnData::Mixed(vec), v) => vec.push(v.clone()),
            (_, v) => {
                self.demote();
                if let Some(ColumnData::Mixed(vec)) = &mut self.data {
                    vec.push(v.clone());
                }
            }
        }
    }

    /// Rebuild the accumulated slots as `Mixed`, restoring NULLs from the
    /// validity bitmap.
    fn demote(&mut self) {
        let typed = self.data.take().unwrap();
        let n = typed.len();
        let mut vals = Vec::with_capacity(n + 1);
        for i in 0..n {
            if !self.validity.get(i) {
                vals.push(Value::Null);
                continue;
            }
            vals.push(match &typed {
                ColumnData::Int(v) => Value::Int(v[i]),
                ColumnData::Float(v) => Value::Float(v[i]),
                ColumnData::Bool(v) => Value::Bool(v[i]),
                ColumnData::Str(v) => Value::Str(v[i].clone()),
                ColumnData::BBox(v) => Value::Box(v[i]),
                ColumnData::Mixed(_) => unreachable!("demoting a mixed column"),
            });
        }
        self.data = Some(ColumnData::Mixed(vals));
    }

    /// Finish the column. All-null columns get an `Int` carcass with every
    /// slot invalid (the representation is unobservable through NULLs).
    pub fn finish(self) -> Column {
        let n = self.validity.len();
        Column {
            data: self.data.unwrap_or_else(|| ColumnData::Int(vec![0; n])),
            validity: self.validity,
        }
    }
}

impl Default for ColumnBuilder {
    fn default() -> Self {
        ColumnBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_push_get_count() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 != 0);
        }
        assert_eq!(b.len(), 130);
        assert!(!b.get(0));
        assert!(b.get(1));
        assert!(!b.get(129));
        assert_eq!(b.count_valid(), (0..130).filter(|i| i % 3 != 0).count());
        assert!(!b.is_all_valid());
        assert!(Bitmap::all_valid(70).is_all_valid());
        assert_eq!(Bitmap::all_valid(70).count_valid(), 70);
        let mut pushed = Bitmap::new();
        (0..70).for_each(|_| pushed.push(true));
        assert_eq!(pushed, Bitmap::all_valid(70));
    }

    #[test]
    fn builder_infers_typed_arrays() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(3)];
        let c = Column::from_values(&vals);
        assert!(matches!(c.data(), ColumnData::Int(_)));
        assert_eq!(c.value_at(0), Value::Int(1));
        assert!(c.value_at(1).is_null());
        assert_eq!(c.value_at(2), Value::Int(3));
    }

    #[test]
    fn builder_demotes_on_mixed_tags() {
        let vals = vec![Value::Int(1), Value::Float(2.5), Value::Null];
        let c = Column::from_values(&vals);
        assert!(matches!(c.data(), ColumnData::Mixed(_)));
        // Tags survive bit-exactly.
        assert!(matches!(c.value_at(0), Value::Int(1)));
        assert!(matches!(c.value_at(1), Value::Float(f) if f == 2.5));
        assert!(c.value_at(2).is_null());
    }

    #[test]
    fn all_null_column_round_trips() {
        let vals = vec![Value::Null, Value::Null];
        let c = Column::from_values(&vals);
        assert!(c.value_at(0).is_null());
        assert!(c.value_at(1).is_null());
        assert_eq!(c.validity().count_valid(), 0);
    }

    #[test]
    fn write_value_bytes_matches_value_encoding() {
        let vals = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(1.25),
            Value::from("car"),
            Value::Box(BBox::new(0.1, 0.2, 0.3, 0.4)),
        ];
        // Mixed representation (tags differ).
        let c = Column::from_values(&vals);
        for (i, v) in vals.iter().enumerate() {
            let mut a = Vec::new();
            let mut b = Vec::new();
            c.write_value_bytes(i, &mut a);
            v.write_bytes(&mut b);
            assert_eq!(a, b, "slot {i}");
        }
        // Typed representations too.
        for vals in [
            vec![Value::Int(5), Value::Null],
            vec![Value::from("x"), Value::from("y")],
            vec![Value::Bool(false)],
            vec![Value::Float(0.5)],
        ] {
            let c = Column::from_values(&vals);
            for (i, v) in vals.iter().enumerate() {
                let mut a = Vec::new();
                let mut b = Vec::new();
                c.write_value_bytes(i, &mut a);
                v.write_bytes(&mut b);
                assert_eq!(a, b, "slot {i} of {vals:?}");
            }
        }
    }

    #[test]
    fn cell_cmp_mirrors_value_cmp() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(2),
            Value::Float(2.0),
            Value::from("car"),
            Value::Box(BBox::new(0.1, 0.1, 0.4, 0.4)),
        ];
        for a in &vals {
            for b in &vals {
                assert_eq!(
                    CellRef::from_value(a).sql_cmp(CellRef::from_value(b)),
                    a.sql_cmp(b),
                    "{a} vs {b}"
                );
            }
        }
    }

    /// `gather` must agree with `value_at` slot by slot — on the all-valid
    /// fast path, the nullable path and the tag-preserving `Mixed` path,
    /// with repeated and out-of-order indices (the cross-apply's shape).
    #[test]
    fn gather_matches_value_at_for_every_representation() {
        let idx = [2u32, 2, 0, 3, 3, 3, 1];
        let cases = [
            vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)],
            vec![
                Value::from("car"),
                Value::Null,
                Value::from("bus"),
                Value::from("van"),
            ],
            vec![Value::Int(1), Value::Float(2.5), Value::Null, Value::Int(4)],
        ];
        for vals in cases {
            let c = Column::from_values(&vals);
            let g = c.gather(&idx);
            assert_eq!(g.len(), idx.len());
            assert_eq!(
                g.validity().is_all_valid(),
                idx.iter().all(|&i| c.is_valid(i as usize))
            );
            for (slot, &i) in idx.iter().enumerate() {
                assert_eq!(
                    g.value_at(slot),
                    c.value_at(i as usize),
                    "{vals:?} slot {slot}"
                );
                assert_eq!(
                    std::mem::discriminant(&g.value_at(slot)),
                    std::mem::discriminant(&vals[i as usize]),
                    "tag preserved at slot {slot}"
                );
            }
        }
        assert!(Column::from_ints(vec![5, 6]).gather(&[]).is_empty());
    }

    #[test]
    fn builder_with_capacity_builds_the_same_column() {
        let vals = vec![Value::Null, Value::from("a"), Value::Null, Value::from("b")];
        let mut b = ColumnBuilder::with_capacity(vals.len());
        for v in &vals {
            b.push(v);
        }
        assert_eq!(b.finish(), Column::from_values(&vals));
    }

    #[test]
    fn gather_compacts_with_validity() {
        let vals = vec![Value::Int(10), Value::Null, Value::Int(30), Value::Int(40)];
        let c = Column::from_values(&vals);
        let g = c.gather(&[3, 1, 0]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.value_at(0), Value::Int(40));
        assert!(g.value_at(1).is_null());
        assert_eq!(g.value_at(2), Value::Int(10));
    }
}
