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
use std::sync::{Arc, OnceLock};

use crate::value::{BBox, Value};

/// A packed validity bitmap: bit `i` set ⇔ slot `i` holds a (non-NULL)
/// value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    bits: Vec<u64>,
    len: usize,
    /// Set bits among the first `len` — kept beside them so the all-valid
    /// test a gather starts with does not scan a view-sized bitmap.
    valid: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap {
            bits: Vec::new(),
            len: 0,
            valid: 0,
        }
    }

    /// An empty bitmap with room for `cap` slots.
    fn with_capacity(cap: usize) -> Bitmap {
        Bitmap {
            bits: Vec::with_capacity(cap.div_ceil(64)),
            len: 0,
            valid: 0,
        }
    }

    /// A bitmap of `len` slots, all valid. Bits past `len` stay clear, like
    /// the ones [`Bitmap::push`] builds, so equal bitmaps compare equal.
    pub fn all_valid(len: usize) -> Bitmap {
        let mut bits = vec![u64::MAX; len.div_ceil(64)];
        if len % 64 != 0 {
            *bits.last_mut().expect("len > 0") = (1u64 << (len % 64)) - 1;
        }
        Bitmap {
            bits,
            len,
            valid: len,
        }
    }

    /// A bitmap of `len` slots from its packed words — what
    /// [`Bitmap::words`] returns. `None` unless there are exactly
    /// `len.div_ceil(64)` words and every bit past `len` is clear.
    pub(crate) fn from_words(bits: Vec<u64>, len: usize) -> Option<Bitmap> {
        let tail_clear = match (bits.last(), len % 64) {
            (Some(&last), tail) if tail != 0 => last >> tail == 0,
            _ => true,
        };
        if bits.len() != len.div_ceil(64) || !tail_clear {
            return None;
        }
        let valid = bits.iter().map(|w| w.count_ones() as usize).sum();
        Some(Bitmap { bits, len, valid })
    }

    /// The packed words, slot `i` at bit `i % 64` of word `i / 64`; bits
    /// past [`Bitmap::len`] are clear.
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits[..self.len.div_ceil(64)]
    }

    /// Append one slot.
    pub fn push(&mut self, valid: bool) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if word == self.bits.len() {
            self.bits.push(0);
        }
        if valid {
            self.bits[word] |= 1u64 << bit;
            self.valid += 1;
        }
        self.len += 1;
    }

    /// Append every slot of `other`, a word at a time (both sides keep the
    /// bits past their length clear).
    pub fn extend(&mut self, other: &Bitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.bits.extend_from_slice(&other.bits);
        } else {
            for &word in &other.bits {
                *self.bits.last_mut().expect("a partial word exists") |= word << shift;
                self.bits.push(word >> (64 - shift));
            }
        }
        self.len += other.len;
        self.valid += other.valid;
        self.bits.truncate(self.len.div_ceil(64));
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
        self.valid
    }

    /// True when every slot is valid.
    pub fn is_all_valid(&self) -> bool {
        self.valid == self.len
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
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// UTF-8 strings. Cells are shared: gathering, appending and dropping
    /// a string column moves refcounts, never string bytes.
    Str(Vec<Arc<str>>),
    /// Bounding boxes.
    BBox(Vec<BBox>),
    /// Tag-preserving fallback for heterogeneous columns.
    Mixed(Vec<Value>),
}

/// The placeholder held in invalid slots of a string column (one shared
/// allocation for the whole process).
fn empty_str() -> Arc<str> {
    static EMPTY: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from("")))
}

impl ColumnData {
    /// `n` invalid-slot placeholders in the representation of `like`.
    fn placeholders(like: &ColumnData, n: usize) -> ColumnData {
        match like {
            ColumnData::Int(_) => ColumnData::Int(vec![0; n]),
            ColumnData::Float(_) => ColumnData::Float(vec![0.0; n]),
            ColumnData::Bool(_) => ColumnData::Bool(vec![false; n]),
            ColumnData::Str(_) => ColumnData::Str(vec![empty_str(); n]),
            ColumnData::BBox(_) => ColumnData::BBox(vec![BBox::new(0.0, 0.0, 0.0, 0.0); n]),
            ColumnData::Mixed(_) => ColumnData::Mixed(vec![Value::Null; n]),
        }
    }

    /// Typed extend; `false` (and `self` untouched) when the two arrays
    /// differ in representation.
    fn extend_same(&mut self, other: &ColumnData) -> bool {
        match (self, other) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a.extend_from_slice(b),
            (ColumnData::Float(a), ColumnData::Float(b)) => a.extend_from_slice(b),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend_from_slice(b),
            (ColumnData::Str(a), ColumnData::Str(b)) => a.extend_from_slice(b),
            (ColumnData::BBox(a), ColumnData::BBox(b)) => a.extend_from_slice(b),
            (ColumnData::Mixed(a), ColumnData::Mixed(b)) => a.extend_from_slice(b),
            _ => return false,
        }
        true
    }

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

    /// The order `ORDER BY` sorts by: like [`CellRef::sql_cmp`] wherever
    /// that decides, and decided everywhere else, so that it is a weak order
    /// a sort may rely on (`sql_cmp`'s `None` read as "equal" is not: NULL
    /// would equal both 1 and 2). NULL sorts before every value, numbers
    /// compare through `f64::total_cmp` (NaN after every number), boxes by
    /// their quantized key, and cells of different kinds by a fixed rank:
    /// NULL, booleans, numbers, strings, boxes.
    pub fn sort_cmp(self, other: CellRef<'_>) -> Ordering {
        fn rank(c: CellRef<'_>) -> u8 {
            match c {
                CellRef::Null => 0,
                CellRef::Bool(_) => 1,
                CellRef::Int(_) | CellRef::Float(_) => 2,
                CellRef::Str(_) => 3,
                CellRef::BBox(_) => 4,
            }
        }
        match (self, other) {
            (CellRef::Bool(a), CellRef::Bool(b)) => a.cmp(&b),
            (CellRef::Str(a), CellRef::Str(b)) => a.cmp(b),
            (CellRef::BBox(a), CellRef::BBox(b)) => a.key().cmp(&b.key()),
            _ => match (self.as_number(), other.as_number()) {
                (Some(a), Some(b)) => a.total_cmp(&b),
                _ => rank(self).cmp(&rank(other)),
            },
        }
    }
}

/// One column: a typed array plus validity. Immutable once built — batches
/// share columns by `Arc`.
#[derive(Debug, Clone, PartialEq)]
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

    /// Pivot rows of `width` values into one column per field, each with
    /// its representation inferred from its values; `capacity` sizes the
    /// arrays (the row count, when the caller knows it).
    pub fn from_rows<'a>(
        width: usize,
        capacity: usize,
        rows: impl IntoIterator<Item = &'a [Value]>,
    ) -> Vec<Column> {
        let mut builders: Vec<ColumnBuilder> = (0..width)
            .map(|_| ColumnBuilder::with_capacity(capacity))
            .collect();
        for row in rows {
            debug_assert_eq!(row.len(), width, "row arity");
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v);
            }
        }
        builders.into_iter().map(ColumnBuilder::finish).collect()
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
                ColumnData::Str(idx.iter().map(|&i| Arc::clone(&v[i as usize])).collect())
            }
            ColumnData::BBox(v) => ColumnData::BBox(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Mixed(v) => {
                ColumnData::Mixed(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
        };
        Column { data, validity }
    }

    /// Append every slot of `other` — the view store's STORE path and the
    /// cross-apply's chunk concatenation. Arrays of one representation
    /// extend in place (string cells by refcount). A side with no valid
    /// slot — empty, or all NULL, whose array is an unobservable carcass —
    /// takes the other side's representation, so an all-NULL chunk never
    /// demotes a typed column. Any other pairing mixes value tags and
    /// becomes [`ColumnData::Mixed`], which keeps every tag bit-exact.
    pub fn append(&mut self, other: &Column) {
        if !self.data.extend_same(&other.data) {
            if self.validity.count_valid() == 0 {
                self.data = ColumnData::placeholders(&other.data, self.len());
            }
            if other.validity.count_valid() == 0 {
                let pad = ColumnData::placeholders(&self.data, other.len());
                self.data.extend_same(&pad);
            } else if !self.data.extend_same(&other.data) {
                let mut vals = mixed_values(&self.data, &self.validity);
                vals.extend(mixed_values(&other.data, &other.validity));
                self.data = ColumnData::Mixed(vals);
            }
        }
        self.validity.extend(&other.validity);
    }

    /// Summed length of every slot's [`Value::write_bytes`] encoding (see
    /// [`Value::encoded_len`]) — the view store's footprint counter, taken
    /// per appended chunk without materializing a value.
    pub fn encoded_len(&self) -> u64 {
        let valid = self.validity.count_valid() as u64;
        let nulls = self.len() as u64 - valid;
        // Invalid slots hold placeholders: the empty string in a `Str`
        // array, `Value::Null` (one byte, like any NULL) in a `Mixed` one.
        match &self.data {
            ColumnData::Int(_) | ColumnData::Float(_) | ColumnData::BBox(_) => nulls + 9 * valid,
            ColumnData::Bool(_) => nulls + 2 * valid,
            ColumnData::Str(v) => nulls + 5 * valid + v.iter().map(|s| s.len() as u64).sum::<u64>(),
            ColumnData::Mixed(v) => v.iter().map(|x| x.encoded_len() as u64).sum(),
        }
    }
}

/// The slots of a typed array as exact [`Value`]s, NULLs restored from the
/// validity bitmap — the demotion to [`ColumnData::Mixed`].
fn mixed_values(data: &ColumnData, validity: &Bitmap) -> Vec<Value> {
    let cell = |i: usize| -> Value {
        if !validity.get(i) {
            return Value::Null;
        }
        match data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].to_string()),
            ColumnData::BBox(v) => Value::Box(v[i]),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    };
    (0..data.len()).map(cell).collect()
}

/// Slots in a builder's string-cell cache. A constant, not a setting: the
/// columns this engine builds draw their strings from a vocabulary of a
/// dozen words (labels, makes, colours) or from no vocabulary at all (plates).
const INTERN_SLOTS: usize = 32;

/// The cache slot `s` maps to: its first eight bytes and its length, mixed
/// by one multiply. Cheap enough that a column of all-distinct strings pays
/// next to nothing for the cache it cannot use.
#[inline]
fn intern_slot(s: &str) -> usize {
    let bytes = s.as_bytes();
    let mut word = [0u8; 8];
    let n = bytes.len().min(8);
    word[..n].copy_from_slice(&bytes[..n]);
    let h =
        (u64::from_le_bytes(word) ^ (bytes.len() as u64) << 56).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> (64 - INTERN_SLOTS.trailing_zeros())) as usize
}

/// The shared cell for `s` out of a direct-mapped cache: the slot's cell
/// when it holds `s`, otherwise a fresh allocation that takes the slot over
/// — one probe and one compare either way, and a miss allocates exactly
/// what `Arc::from(s)` does.
fn intern(cache: &mut Vec<Option<Arc<str>>>, s: &str) -> Arc<str> {
    if cache.is_empty() {
        cache.resize(INTERN_SLOTS, None);
    }
    let slot = &mut cache[intern_slot(s)];
    match slot {
        Some(cell) if **cell == *s => Arc::clone(cell),
        _ => {
            let cell: Arc<str> = Arc::from(s);
            *slot = Some(Arc::clone(&cell));
            cell
        }
    }
}

/// Incremental [`Column`] builder: starts optimistically typed on the
/// first non-null value and demotes to [`ColumnData::Mixed`] on the first
/// tag mismatch (preserving everything pushed so far). String cells are
/// interned per builder, so a chunk of repeated words holds one allocation
/// per distinct word, not one per row.
#[derive(Debug)]
pub struct ColumnBuilder {
    data: Option<ColumnData>,
    validity: Bitmap,
    /// Slots to reserve once the first non-null value picks the array type.
    capacity: usize,
    /// Direct-mapped cache of the string cells pushed so far; empty until
    /// the first string arrives.
    interned: Vec<Option<Arc<str>>>,
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
            interned: Vec::new(),
        }
    }

    /// Slots pushed so far.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Append one string — what [`ColumnBuilder::push_cell`] does with a
    /// [`CellRef::Str`], minus the dispatch when the column is already a
    /// string array (every push but a column's first).
    #[inline]
    pub fn push_str(&mut self, s: &str) {
        match &mut self.data {
            Some(ColumnData::Str(vec)) => {
                self.validity.push(true);
                vec.push(intern(&mut self.interned, s));
            }
            _ => self.push_cell(CellRef::Str(s)),
        }
    }

    /// Append one value.
    pub fn push(&mut self, v: &Value) {
        self.push_cell(CellRef::from_value(v));
    }

    /// Append one borrowed cell (what the segment decoder reads straight
    /// out of the file buffer).
    pub fn push_cell(&mut self, cell: CellRef<'_>) {
        let n = self.validity.len();
        self.validity.push(!cell.is_null());
        if cell.is_null() {
            // Placeholder in whatever representation exists (or stays
            // pending until the first non-null value decides one).
            match &mut self.data {
                None => {}
                Some(ColumnData::Int(vec)) => vec.push(0),
                Some(ColumnData::Float(vec)) => vec.push(0.0),
                Some(ColumnData::Bool(vec)) => vec.push(false),
                Some(ColumnData::Str(vec)) => vec.push(empty_str()),
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
            self.data = Some(match cell {
                CellRef::Int(_) => ColumnData::Int(filled(0, n, cap)),
                CellRef::Float(_) => ColumnData::Float(filled(0.0, n, cap)),
                CellRef::Bool(_) => ColumnData::Bool(filled(false, n, cap)),
                CellRef::Str(_) => ColumnData::Str(filled(empty_str(), n, cap)),
                CellRef::BBox(_) => ColumnData::BBox(filled(BBox::new(0.0, 0.0, 0.0, 0.0), n, cap)),
                CellRef::Null => unreachable!(),
            });
        }
        match (self.data.as_mut().unwrap(), cell) {
            (ColumnData::Int(vec), CellRef::Int(i)) => vec.push(i),
            (ColumnData::Float(vec), CellRef::Float(f)) => vec.push(f),
            (ColumnData::Bool(vec), CellRef::Bool(b)) => vec.push(b),
            (ColumnData::Str(vec), CellRef::Str(s)) => vec.push(intern(&mut self.interned, s)),
            (ColumnData::BBox(vec), CellRef::BBox(b)) => vec.push(b),
            (ColumnData::Mixed(vec), cell) => vec.push(cell.to_value()),
            (typed, cell) => {
                let mut vals = mixed_values(typed, &self.validity);
                // `validity` already holds the new slot; `typed` does not.
                vals.push(cell.to_value());
                *typed = ColumnData::Mixed(vals);
            }
        }
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

    /// `sort_cmp` is a weak order over every kind of cell — the comparator
    /// contract `slice::sort_by` checks — and says what `sql_cmp` says
    /// wherever `sql_cmp` says anything (NaN and the zeros' signs aside).
    #[test]
    fn sort_cmp_is_a_weak_order_that_extends_sql_cmp() {
        let cells = [
            CellRef::Null,
            CellRef::Bool(false),
            CellRef::Bool(true),
            CellRef::Int(-3),
            CellRef::Int(2),
            CellRef::Float(2.0),
            CellRef::Float(2.5),
            CellRef::Float(f64::NAN),
            CellRef::Int(i64::MAX),
            CellRef::Int(i64::MAX - 1),
            CellRef::Str("a"),
            CellRef::Str("b"),
            CellRef::BBox(BBox::new(0.1, 0.1, 0.2, 0.2)),
            CellRef::BBox(BBox::new(0.1, 0.1, 0.3, 0.2)),
        ];
        for a in cells {
            assert_eq!(a.sort_cmp(a), Ordering::Equal, "{a:?}");
            for b in cells {
                assert_eq!(a.sort_cmp(b), b.sort_cmp(a).reverse(), "{a:?} {b:?}");
                if let Some(ord) = a.sql_cmp(b) {
                    assert_eq!(a.sort_cmp(b), ord, "{a:?} {b:?}");
                }
                for c in cells {
                    if a.sort_cmp(b).is_le() && b.sort_cmp(c).is_le() {
                        assert!(a.sort_cmp(c).is_le(), "{a:?} {b:?} {c:?}");
                    }
                }
            }
        }
        assert_eq!(
            CellRef::Null.sort_cmp(CellRef::Int(i64::MIN)),
            Ordering::Less
        );
        assert_eq!(
            CellRef::Float(f64::NAN).sort_cmp(CellRef::Int(9)),
            Ordering::Greater
        );
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

    /// `append` must agree with concatenating `value_at` — values *and*
    /// tags — for every pair of representations, the all-NULL carcass and
    /// empty columns included; a side without a valid slot must not cost
    /// the other its typed array.
    #[test]
    fn append_matches_value_concatenation_for_every_representation_pair() {
        let cases: Vec<Vec<Value>> = vec![
            vec![],
            vec![Value::Null, Value::Null],
            vec![Value::Int(1), Value::Null, Value::Int(3)],
            vec![Value::Float(0.5), Value::Float(-0.0)],
            vec![Value::Bool(true), Value::Null],
            vec![Value::from("car"), Value::Null, Value::from("")],
            vec![Value::Box(BBox::new(0.1, 0.2, 0.3, 0.4))],
            vec![Value::Int(1), Value::Float(2.5), Value::Null],
        ];
        let is_mixed = |c: &Column| matches!(c.data(), ColumnData::Mixed(_));
        for left in &cases {
            for right in &cases {
                let (a, b) = (Column::from_values(left), Column::from_values(right));
                let mut joined = a.clone();
                joined.append(&b);
                let want: Vec<&Value> = left.iter().chain(right).collect();
                assert_eq!(joined.len(), want.len(), "{left:?} + {right:?}");
                for (i, v) in want.iter().enumerate() {
                    let got = joined.value_at(i);
                    assert_eq!(&got, *v, "{left:?} + {right:?} slot {i}");
                    assert_eq!(std::mem::discriminant(&got), std::mem::discriminant(*v));
                }
                let valid = want.iter().filter(|v| !v.is_null()).count();
                assert_eq!(joined.validity().count_valid(), valid);
                // Whatever the pair, the result is what the builder would
                // have inferred from the concatenated values.
                let inferred = Column::from_values(want.iter().copied());
                assert_eq!(
                    is_mixed(&joined),
                    is_mixed(&inferred),
                    "{left:?} + {right:?}: Mixed iff the values mix tags"
                );
                let bytes: usize = want.iter().map(|v| v.encoded_len()).sum();
                assert_eq!(joined.encoded_len(), bytes as u64);
            }
        }
    }

    #[test]
    fn bitmap_extend_matches_pushes_at_every_alignment() {
        for head in [0usize, 1, 63, 64, 65, 130] {
            for tail in [0usize, 1, 63, 64, 65, 200] {
                let bit = |i: usize| i % 3 != 1;
                let mut want = Bitmap::new();
                (0..head + tail).for_each(|i| want.push(bit(i)));
                let (mut a, mut b) = (Bitmap::new(), Bitmap::new());
                (0..head).for_each(|i| a.push(bit(i)));
                (head..head + tail).for_each(|i| b.push(bit(i)));
                a.extend(&b);
                assert_eq!(a, want, "head {head} tail {tail}");
            }
        }
    }

    #[test]
    fn from_rows_pivots_each_field() {
        let rows = [
            vec![Value::Int(1), Value::from("a")],
            vec![Value::Null, Value::from("b")],
        ];
        let cols = Column::from_rows(2, rows.len(), rows.iter().map(Vec::as_slice));
        assert_eq!(cols[0], Column::from_values(&[Value::Int(1), Value::Null]));
        assert_eq!(
            cols[1],
            Column::from_values(&[Value::from("a"), Value::from("b")])
        );
        assert_eq!(crate::testutil::rows_of(&cols), rows);
        assert_eq!(
            Column::from_rows(2, 0, []).len(),
            2,
            "one empty column per field"
        );
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

    /// The column the builder's inference rules give `vals`, assembled by
    /// hand with one fresh allocation per string cell — what `push_cell`
    /// built before string cells were interned.
    fn uninterned(vals: &[Value]) -> Column {
        let mut validity = Bitmap::new();
        vals.iter().for_each(|v| validity.push(!v.is_null()));
        let all_str = vals
            .iter()
            .all(|v| matches!(v, Value::Null | Value::Str(_)));
        let data = if validity.count_valid() == 0 {
            ColumnData::Int(vec![0; vals.len()])
        } else if all_str {
            let cell = |v: &Value| Arc::from(v.as_str().unwrap_or(""));
            ColumnData::Str(vals.iter().map(cell).collect())
        } else {
            ColumnData::Mixed(vals.to_vec())
        };
        Column::new(data, validity)
    }

    /// Interned pushes (`push_str`, and `push_cell`'s string arm) build the
    /// same column, cell for cell, as uninterned ones: NULLs before the
    /// first string, more distinct strings than the cache has slots, two
    /// words fighting over one slot, and a `Mixed` demotion mid-column.
    #[test]
    fn interned_pushes_build_the_uninterned_column() {
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: usize| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize % bound
        };
        let words: Vec<String> = (0..4 * INTERN_SLOTS).map(|i| format!("w{i}")).collect();
        let (a, b) = (0..words.len())
            .flat_map(|i| (0..i).map(move |j| (j, i)))
            .find(|&(j, i)| intern_slot(&words[j]) == intern_slot(&words[i]))
            .expect("more words than slots");
        let mut cases: Vec<Vec<Value>> = Vec::new();
        for vocabulary in [3, INTERN_SLOTS, words.len()] {
            let mut vals = vec![Value::Null; next(4)];
            vals.extend((0..600).map(|_| match next(7) {
                0 => Value::Null,
                _ => Value::from(words[next(vocabulary)].as_str()),
            }));
            cases.push(vals);
        }
        cases.push(
            (0..200)
                .map(|i| Value::from(words[[a, b][i % 2]].as_str()))
                .collect(),
        );
        let mut demoted = cases[0].clone();
        demoted.insert(300, Value::Int(7));
        cases.push(demoted);
        cases.push(vec![Value::Null; 5]);

        for vals in &cases {
            let (mut by_str, mut by_cell) = (ColumnBuilder::new(), ColumnBuilder::with_capacity(9));
            for v in vals {
                match v {
                    Value::Str(s) => by_str.push_str(s),
                    other => by_str.push(other),
                }
                by_cell.push_cell(CellRef::from_value(v));
            }
            assert_eq!(by_str.len(), vals.len());
            let (by_str, want) = (by_str.finish(), uninterned(vals));
            assert_eq!(by_str, want);
            assert_eq!(by_cell.finish(), want);
            let bytes: usize = vals.iter().map(Value::encoded_len).sum();
            assert_eq!(by_str.encoded_len(), bytes as u64);
            for (i, v) in vals.iter().enumerate() {
                let (mut got, mut expect) = (Vec::new(), Vec::new());
                by_str.write_value_bytes(i, &mut got);
                v.write_bytes(&mut expect);
                assert_eq!(got, expect, "slot {i}");
                assert_eq!(
                    std::mem::discriminant(&by_str.value_at(i)),
                    std::mem::discriminant(v)
                );
            }
        }
    }

    #[test]
    fn a_chunk_of_repeated_words_shares_their_cells() {
        let mut b = ColumnBuilder::new();
        for i in 0..1000 {
            b.push_str(["car", "bus", "truck"][i % 3]);
        }
        let column = b.finish();
        let ColumnData::Str(cells) = column.data() else {
            panic!("a string column");
        };
        let distinct: std::collections::HashSet<*const u8> =
            cells.iter().map(|c| c.as_ptr()).collect();
        assert!(distinct.len() <= 3, "{} allocations", distinct.len());
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
