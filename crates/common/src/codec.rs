//! Hand-written binary codec for the persistence layer.
//!
//! Every byte that EVA-RS writes to disk goes through this module: a small
//! little-endian [`ByteWriter`]/[`ByteReader`] pair plus encoders for the
//! vocabulary types (cells, [`Schema`], whole [`Column`]s as typed blocks).
//! The format is explicit and versioned so the recovery pass can *validate*
//! persisted bytes instead of trusting them — every read is bounds-checked
//! and returns [`EvaError::Corrupt`] on truncation or malformed data, never
//! panics.
//!
//! [`seal`]/[`unseal`] wrap a payload in the common file envelope used by
//! view segments, the store manifest and the UDF-manager state:
//!
//! ```text
//! magic(4) | format_version(u32) | payload_len(u64) | payload | xxhash64(u64)
//! ```
//!
//! The trailing checksum covers everything before it, so a torn write, a
//! short write or a single flipped bit anywhere in the file is detected on
//! load. A `format_version` greater than the reader's is reported as
//! corruption ("from the future") rather than misparsed.

use std::collections::HashMap;
use std::sync::Arc;

use crate::column::{Bitmap, CellRef, Column, ColumnData};
use crate::error::{EvaError, Result};
use crate::hash::xxhash64;
use crate::schema::{DataType, Field, Schema};
use crate::value::BBox;

/// Seed for envelope checksums — any fixed value works; this one makes EVA
/// envelopes distinguishable from other xxhash64 uses in the codebase.
const ENVELOPE_SEED: u64 = 0xE7A5_EA1E_D000_0001;

/// Bytes of envelope framing around a payload: magic + version + len + checksum.
pub const ENVELOPE_OVERHEAD: usize = 4 + 4 + 8 + 8;

fn corrupt(what: impl Into<String>) -> EvaError {
    EvaError::Corrupt(what.into())
}

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader
// ---------------------------------------------------------------------------

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter { buf: Vec::new() }
    }

    /// Writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The accumulated bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, yielding the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u16` (little-endian).
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64` (little-endian two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f32` (little-endian IEEE-754 bits — lossless).
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` (little-endian IEEE-754 bits — lossless).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a length-prefixed UTF-8 string (u32 byte length).
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a length-prefixed byte blob (u32 byte length).
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Write an element count (u64).
    pub fn count(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Write a `u64` as LEB128: seven bits a byte, low bits first.
    pub fn uvarint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Write a block: a u64 byte length, then whatever `body` writes.
    pub fn block(&mut self, body: impl FnOnce(&mut ByteWriter)) {
        let at = self.buf.len();
        self.u64(0);
        body(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
}

/// Bounds-checked little-endian byte source. Every accessor returns
/// [`EvaError::Corrupt`] instead of panicking when the buffer runs out.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a single byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f32`.
    pub fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read an `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a bool byte; anything other than 0/1 is corruption.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("invalid bool byte {b:#x}"))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        self.str_ref().map(str::to_string)
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the buffer.
    pub fn str_ref(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| corrupt("string payload is not valid UTF-8"))
    }

    /// Read a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Read an element count, rejecting counts that could not possibly fit
    /// in the remaining bytes (guards `Vec::with_capacity` against absurd
    /// allocations from corrupted length fields).
    pub fn count(&mut self) -> Result<usize> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(corrupt(format!(
                "count {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// Read a LEB128 `u64` written by [`ByteWriter::uvarint`]; more than 64
    /// bits of payload is corruption.
    pub fn uvarint(&mut self) -> Result<u64> {
        // One byte is the common case: deltas between sorted keys and row
        // counts are small.
        if let Some(&byte) = self.buf.get(self.pos) {
            if byte < 0x80 {
                self.pos += 1;
                return Ok(u64::from(byte));
            }
        }
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                break;
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return Ok(v);
            }
        }
        Err(corrupt("varint overflows 64 bits"))
    }

    /// Read a block written by [`ByteWriter::block`]: its length is checked
    /// against the bytes that remain, and the block's body comes back as a
    /// reader of its own.
    pub fn block(&mut self) -> Result<ByteReader<'a>> {
        let len = self.u64()?;
        if len > self.remaining() as u64 {
            return Err(corrupt(format!(
                "block of {len} bytes overruns the {} that remain",
                self.remaining()
            )));
        }
        Ok(ByteReader::new(self.take(len as usize)?))
    }

    /// Assert the buffer is fully consumed (trailing garbage is corruption).
    pub fn expect_end(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(corrupt(format!("{} trailing bytes", self.remaining())))
        }
    }
}

// ---------------------------------------------------------------------------
// File envelope
// ---------------------------------------------------------------------------

/// Wrap `payload` in the checksummed file envelope.
pub fn seal(magic: [u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(payload.len() + ENVELOPE_OVERHEAD);
    w.buf.extend_from_slice(&magic);
    w.u32(version);
    w.u64(payload.len() as u64);
    w.buf.extend_from_slice(payload);
    let sum = xxhash64(w.as_slice(), ENVELOPE_SEED);
    w.u64(sum);
    w.into_bytes()
}

/// Validate an envelope and return `(version, payload)`.
///
/// Checks, in order: minimum length, magic, version ≤ `max_version`,
/// payload length vs. actual file size, and the trailing checksum. Every
/// failure is [`EvaError::Corrupt`] with a reason suitable for a
/// quarantine report.
pub fn unseal(bytes: &[u8], magic: [u8; 4], max_version: u32) -> Result<(u32, &[u8])> {
    if bytes.len() < ENVELOPE_OVERHEAD {
        return Err(corrupt(format!(
            "file too small for envelope: {} bytes",
            bytes.len()
        )));
    }
    let mut r = ByteReader::new(bytes);
    let got_magic = r.take(4)?;
    if got_magic != magic {
        return Err(corrupt(format!(
            "bad magic {:02x?} (expected {:02x?})",
            got_magic, magic
        )));
    }
    let version = r.u32()?;
    if version > max_version {
        return Err(corrupt(format!(
            "format version {version} is from the future (reader understands ≤ {max_version})"
        )));
    }
    let payload_len = r.u64()? as usize;
    let body_end = bytes.len() - 8;
    let have = body_end.saturating_sub(4 + 4 + 8);
    if payload_len != have {
        return Err(corrupt(format!(
            "payload length mismatch: header says {payload_len}, file holds {have}"
        )));
    }
    let expect = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
    let actual = xxhash64(&bytes[..body_end], ENVELOPE_SEED);
    if expect != actual {
        return Err(corrupt(format!(
            "checksum mismatch: stored {expect:#018x}, computed {actual:#018x}"
        )));
    }
    Ok((version, &bytes[16..body_end]))
}

// ---------------------------------------------------------------------------
// Vocabulary-type encoders
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_BOX: u8 = 5;

/// Encode one cell. Unlike [`crate::Value::write_bytes`] (which quantizes
/// boxes for hashing), this encoding is lossless: boxes keep full f32
/// precision.
pub fn write_cell(w: &mut ByteWriter, cell: CellRef<'_>) {
    match cell {
        CellRef::Null => w.u8(TAG_NULL),
        CellRef::Bool(b) => {
            w.u8(TAG_BOOL);
            w.bool(b);
        }
        CellRef::Int(i) => {
            w.u8(TAG_INT);
            w.i64(i);
        }
        CellRef::Float(f) => {
            w.u8(TAG_FLOAT);
            w.f64(f);
        }
        CellRef::Str(s) => {
            w.u8(TAG_STR);
            w.str(s);
        }
        CellRef::BBox(b) => {
            w.u8(TAG_BOX);
            write_bbox(w, b);
        }
    }
}

/// Decode one cell written by [`write_cell`]; strings borrow the buffer.
pub fn read_cell<'a>(r: &mut ByteReader<'a>) -> Result<CellRef<'a>> {
    match r.u8()? {
        TAG_NULL => Ok(CellRef::Null),
        TAG_BOOL => Ok(CellRef::Bool(r.bool()?)),
        TAG_INT => Ok(CellRef::Int(r.i64()?)),
        TAG_FLOAT => Ok(CellRef::Float(r.f64()?)),
        TAG_STR => Ok(CellRef::Str(r.str_ref()?)),
        TAG_BOX => Ok(CellRef::BBox(bbox_from(r.take(16)?))),
        t => Err(corrupt(format!("unknown value tag {t:#x}"))),
    }
}

/// A box as its four raw `f32` corners.
fn write_bbox(w: &mut ByteWriter, b: BBox) {
    for v in [b.x1, b.y1, b.x2, b.y2] {
        w.f32(v);
    }
}

/// A box from the 16 bytes [`write_bbox`] writes.
fn bbox_from(bytes: &[u8]) -> BBox {
    let f = |i: usize| f32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
    BBox {
        x1: f(0),
        y1: f(4),
        x2: f(8),
        y2: f(12),
    }
}

// ---------------------------------------------------------------------------
// Column blocks
// ---------------------------------------------------------------------------

const REP_INT: u8 = 0;
const REP_FLOAT: u8 = 1;
const REP_BOOL: u8 = 2;
const REP_STR: u8 = 3;
const REP_BBOX: u8 = 4;
const REP_MIXED: u8 = 5;

/// Bytes per dictionary code: the narrowest of 1, 2 or 4 that numbers
/// `n_strings` entries. Derived from the dictionary, never written.
fn code_width(n_strings: usize) -> usize {
    match n_strings {
        0..=0x100 => 1,
        0x101..=0x1_0000 => 2,
        _ => 4,
    }
}

/// Encode a column as its representation tag and one [block]
/// (`ByteWriter::block`): the validity bitmap's words as stored, then every
/// slot, invalid ones' placeholders included, so a column decodes to
/// exactly itself. `Int`, `Float` and `BBox` slots are raw little-endian,
/// `Bool` one byte each, `Str` a dictionary of its distinct strings (in
/// first-seen order) followed by one code per slot, and `Mixed` one
/// [`write_cell`] per slot.
pub fn write_column(w: &mut ByteWriter, column: &Column) {
    let data = column.data();
    w.u8(match data {
        ColumnData::Int(_) => REP_INT,
        ColumnData::Float(_) => REP_FLOAT,
        ColumnData::Bool(_) => REP_BOOL,
        ColumnData::Str(_) => REP_STR,
        ColumnData::BBox(_) => REP_BBOX,
        ColumnData::Mixed(_) => REP_MIXED,
    });
    w.block(|w| {
        for &word in column.validity().words() {
            w.u64(word);
        }
        match data {
            ColumnData::Int(v) => v.iter().for_each(|&x| w.i64(x)),
            ColumnData::Float(v) => v.iter().for_each(|&x| w.f64(x)),
            ColumnData::Bool(v) => v.iter().for_each(|&x| w.bool(x)),
            ColumnData::BBox(v) => v.iter().for_each(|&b| write_bbox(w, b)),
            ColumnData::Str(v) => write_dictionary(w, v),
            ColumnData::Mixed(_) => (0..column.len()).for_each(|i| write_cell(w, column.cell(i))),
        }
    });
}

/// A string column as a dictionary plus codes. Equal strings mostly share
/// one interned cell, so a small cache keyed by cell address settles most
/// slots before the dictionary is hashed.
fn write_dictionary(w: &mut ByteWriter, cells: &[Arc<str>]) {
    const RECENT: usize = 64;
    let mut dictionary: Vec<&str> = Vec::new();
    let mut codes_of: HashMap<&str, u32> = HashMap::new();
    let mut recent: [Option<(&Arc<str>, u32)>; RECENT] = [None; RECENT];
    let codes: Vec<u32> = (cells.iter())
        .map(|cell| {
            let slot = &mut recent[(Arc::as_ptr(cell) as *const u8 as usize >> 4) % RECENT];
            match *slot {
                Some((seen, code)) if Arc::ptr_eq(seen, cell) => code,
                _ => {
                    let next = dictionary.len() as u32;
                    let code = *codes_of.entry(cell).or_insert_with(|| {
                        dictionary.push(cell);
                        next
                    });
                    *slot = Some((cell, code));
                    code
                }
            }
        })
        .collect();
    w.count(dictionary.len());
    for s in &dictionary {
        w.str(s);
    }
    match code_width(dictionary.len()) {
        1 => w.buf.extend(codes.iter().map(|&c| c as u8)),
        2 => codes.iter().for_each(|&c| w.u16(c as u16)),
        _ => codes.iter().for_each(|&c| w.u32(c)),
    }
}

/// Decode a column of `len` slots written by [`write_column`]. The block's
/// length is checked against the bytes that remain before anything is
/// read, and every allocation is sized from that checked length: a fixed-
/// width block must be exactly as long as `len` slots need, and a
/// dictionary or `Mixed` block must hold at least a byte per slot. Unknown
/// tags, validity bits set past `len`, dictionary codes past the
/// dictionary, a `Mixed` cell that disagrees with its validity bit, and
/// trailing bytes are all [`EvaError::Corrupt`].
pub fn read_column(r: &mut ByteReader, len: usize) -> Result<Column> {
    let tag = r.u8()?;
    // Bytes per slot, and whether the block holds exactly that many: a
    // dictionary code or a tagged cell takes at least one byte.
    let (slot_bytes, exact) = match tag {
        REP_INT | REP_FLOAT => (8, true),
        REP_BOOL => (1, true),
        REP_BBOX => (16, true),
        REP_STR | REP_MIXED => (1, false),
        t => return Err(corrupt(format!("unknown column representation {t:#x}"))),
    };
    let mut body = r.block()?;
    let bitmap_bytes = len.div_ceil(64) * 8;
    let need = (len.checked_mul(slot_bytes)).and_then(|n| n.checked_add(bitmap_bytes));
    let fits =
        need.is_some_and(|need| need == body.remaining() || (!exact && need < body.remaining()));
    if !fits {
        return Err(corrupt(format!(
            "column block of {} bytes cannot hold {len} slots",
            body.remaining()
        )));
    }
    let words = body
        .take(bitmap_bytes)?
        .chunks_exact(8)
        .map(u64_from)
        .collect();
    let validity = Bitmap::from_words(words, len)
        .ok_or_else(|| corrupt(format!("validity bits set past the column's {len} slots")))?;
    let data = match tag {
        REP_INT => ColumnData::Int(slots(&mut body, len, 8, |b| u64_from(b) as i64)?),
        REP_FLOAT => ColumnData::Float(slots(&mut body, len, 8, |b| f64::from_bits(u64_from(b)))?),
        REP_BBOX => ColumnData::BBox(slots(&mut body, len, 16, bbox_from)?),
        REP_BOOL => {
            let bytes = body.take(len)?;
            if let Some(b) = bytes.iter().find(|&&b| b > 1) {
                return Err(corrupt(format!("invalid bool byte {b:#x}")));
            }
            ColumnData::Bool(bytes.iter().map(|&b| b == 1).collect())
        }
        REP_STR => ColumnData::Str(read_dictionary(&mut body, len)?),
        _ => {
            let mut values = Vec::with_capacity(len);
            for i in 0..len {
                let cell = read_cell(&mut body)?;
                if cell.is_null() == validity.get(i) {
                    return Err(corrupt(format!("slot {i} disagrees with its validity bit")));
                }
                values.push(cell.to_value());
            }
            ColumnData::Mixed(values)
        }
    };
    body.expect_end()?;
    Ok(Column::new(data, validity))
}

fn u64_from(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

/// `len` fixed-width slots, each decoded from its `width` bytes.
fn slots<T>(
    r: &mut ByteReader,
    len: usize,
    width: usize,
    f: impl Fn(&[u8]) -> T,
) -> Result<Vec<T>> {
    Ok(r.take(len * width)?.chunks_exact(width).map(f).collect())
}

/// The dictionary and codes [`write_dictionary`] writes: every slot clones
/// its entry's cell, so a string is allocated once per segment column.
fn read_dictionary(r: &mut ByteReader, len: usize) -> Result<Vec<Arc<str>>> {
    let n = r.count()?;
    let mut dictionary: Vec<Arc<str>> = Vec::with_capacity(n);
    for _ in 0..n {
        dictionary.push(Arc::from(r.str_ref()?));
    }
    let width = code_width(n);
    let codes = r.take(
        len.checked_mul(width)
            .ok_or_else(|| corrupt("code block overflows"))?,
    )?;
    let code = |bytes: &[u8]| -> usize {
        let mut word = [0u8; 4];
        word[..width].copy_from_slice(bytes);
        u32::from_le_bytes(word) as usize
    };
    if let Some(c) = codes.chunks_exact(width).map(code).find(|&c| c >= n) {
        return Err(corrupt(format!(
            "dictionary code {c} past a dictionary of {n} strings"
        )));
    }
    Ok(match width {
        1 => codes
            .iter()
            .map(|&c| Arc::clone(&dictionary[usize::from(c)]))
            .collect(),
        _ => (codes.chunks_exact(width))
            .map(|bytes| Arc::clone(&dictionary[code(bytes)]))
            .collect(),
    })
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
        DataType::BBox => 4,
        DataType::Frame => 5,
    }
}

fn dtype_from_tag(t: u8) -> Result<DataType> {
    match t {
        0 => Ok(DataType::Bool),
        1 => Ok(DataType::Int),
        2 => Ok(DataType::Float),
        3 => Ok(DataType::Str),
        4 => Ok(DataType::BBox),
        5 => Ok(DataType::Frame),
        t => Err(corrupt(format!("unknown dtype tag {t:#x}"))),
    }
}

/// Encode a [`Schema`] (count-prefixed `name, dtype` fields).
pub fn write_schema(w: &mut ByteWriter, schema: &Schema) {
    w.count(schema.len());
    for f in schema.fields() {
        w.str(&f.name);
        w.u8(dtype_tag(f.dtype));
    }
}

/// Decode a [`Schema`] written by [`write_schema`]. Re-runs [`Schema::new`]
/// validation, so a corrupted duplicate-field schema is rejected.
pub fn read_schema(r: &mut ByteReader) -> Result<Schema> {
    let n = r.count()?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let dtype = dtype_from_tag(r.u8()?)?;
        fields.push(Field { name, dtype });
    }
    Schema::new(fields).map_err(|e| corrupt(format!("invalid persisted schema: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn scalar_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(65_000);
        w.u32(4_000_000_000);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f32(1.25);
        w.f64(-0.333);
        w.bool(true);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        w.count(9);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.take(2).unwrap(), 65_000u16.to_le_bytes());
        assert_eq!(r.u32().unwrap(), 4_000_000_000);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f32().unwrap(), 1.25);
        assert_eq!(r.f64().unwrap(), -0.333);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        // count() is bounds-checked against remaining bytes, which is 0 here.
        assert!(r.count().is_err());
    }

    #[test]
    fn reader_truncation_is_corrupt_not_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        let err = r.u64().unwrap_err();
        assert_eq!(err.stage(), "corrupt");
        // The failed read consumed nothing extra; small reads still work.
        assert_eq!(r.take(2).unwrap(), &[1, 2]);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn absurd_count_rejected() {
        let mut w = ByteWriter::new();
        w.count(u64::MAX as usize);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.count().unwrap_err().stage(), "corrupt");
    }

    #[test]
    fn invalid_bool_and_utf8_rejected() {
        let mut r = ByteReader::new(&[9]);
        assert_eq!(r.bool().unwrap_err().stage(), "corrupt");
        let mut w = ByteWriter::new();
        w.u32(2);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.str().unwrap_err().stage(), "corrupt");
    }

    #[test]
    fn value_round_trip_lossless() {
        let values = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Float(std::f64::consts::PI),
            Value::Str("a car".into()),
            // Coordinates chosen to NOT survive the hashing quantization, so
            // this test proves the codec is lossless where write_bytes isn't.
            Value::Box(BBox {
                x1: 0.123_456_79,
                y1: 0.987_654_3,
                x2: 1.000_000_1,
                y2: 7.5e-7,
            }),
        ];
        let mut w = ByteWriter::new();
        for v in &values {
            write_cell(&mut w, CellRef::from_value(v));
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for v in &values {
            assert_eq!(&read_cell(&mut r).unwrap().to_value(), v);
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn row_and_schema_round_trip() {
        let row = [Value::Int(3), Value::Str("x".into()), Value::Null];
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("label", DataType::Str),
            Field::new("bbox", DataType::BBox),
            Field::new("frame", DataType::Frame),
            Field::new("score", DataType::Float),
            Field::new("ok", DataType::Bool),
        ])
        .unwrap();
        let mut w = ByteWriter::new();
        for v in &row {
            write_cell(&mut w, CellRef::from_value(v));
        }
        write_schema(&mut w, &schema);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for v in &row {
            assert_eq!(&read_cell(&mut r).unwrap().to_value(), v);
        }
        assert_eq!(read_schema(&mut r).unwrap(), schema);
        r.expect_end().unwrap();
    }

    #[test]
    fn varint_round_trip_and_overflow() {
        let values = [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        let mut w = ByteWriter::new();
        values.iter().for_each(|&v| w.uvarint(v));
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 1 + 1 + 2 + 2 + 5 + 10);
        let mut r = ByteReader::new(&bytes);
        for v in values {
            assert_eq!(r.uvarint().unwrap(), v);
        }
        r.expect_end().unwrap();
        for bad in [
            &[0xff; 10][..],
            &[0x80; 3][..],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02][..],
        ] {
            assert_eq!(
                ByteReader::new(bad).uvarint().unwrap_err().stage(),
                "corrupt"
            );
        }
    }

    /// One column of every representation, NULLs in each, an all-NULL
    /// carcass, an empty column and a dictionary too wide for 1-byte codes.
    fn every_representation() -> Vec<Column> {
        let with_nulls = |vals: Vec<Value>| {
            let mut vals = vals;
            vals.insert(1, Value::Null);
            Column::from_values(&vals)
        };
        let bbox = |i: i32| Value::Box(BBox::new(0.1, 0.2, 0.3 + i as f32 / 1e4, 0.4));
        let plates: Vec<Value> = (0..300)
            .map(|i| Value::from(format!("P{i:04}").as_str()))
            .collect();
        vec![
            with_nulls(vec![Value::Int(-4), Value::Int(i64::MAX)]),
            with_nulls(vec![Value::Float(0.5), Value::Float(f64::NAN)]),
            with_nulls(vec![Value::Bool(true), Value::Bool(false)]),
            with_nulls(["car", "bus", "car", "car"].map(Value::from).to_vec()),
            with_nulls(vec![bbox(1), bbox(2)]),
            with_nulls(vec![
                Value::Float(0.5),
                Value::Int(1),
                Value::from("x"),
                bbox(3),
            ]),
            Column::from_values(&[Value::Null, Value::Null]),
            Column::from_values(&[]),
            Column::from_values(plates.iter().chain(&plates)),
        ]
    }

    fn encoded(column: &Column) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_column(&mut w, column);
        w.into_bytes()
    }

    #[test]
    fn columns_round_trip_in_their_own_representation() {
        for column in every_representation() {
            let bytes = encoded(&column);
            let mut r = ByteReader::new(&bytes);
            let back = read_column(&mut r, column.len()).unwrap();
            r.expect_end().unwrap();
            // Bit for bit (NaN included), representation and placeholders too.
            assert_eq!(format!("{back:?}"), format!("{column:?}"));
            assert_eq!(encoded(&back), bytes);
        }
    }

    #[test]
    fn string_cells_share_their_dictionary_entry() {
        let column = Column::from_values(&["car", "bus", "car"].map(Value::from));
        let bytes = encoded(&column);
        let back = read_column(&mut ByteReader::new(&bytes), 3).unwrap();
        let ColumnData::Str(cells) = back.data() else {
            panic!("{back:?}")
        };
        assert!(Arc::ptr_eq(&cells[0], &cells[2]));
    }

    #[test]
    fn hostile_column_blocks_are_corrupt() {
        let decode = |bytes: &[u8], len: usize| {
            let err = read_column(&mut ByteReader::new(bytes), len).unwrap_err();
            assert_eq!(err.stage(), "corrupt");
            err.message().to_string()
        };
        let ints = encoded(&Column::from_ints(vec![1, 2, 3]));
        // Wrong slot count for the block, either way, and a huge one.
        for len in [2, 4, usize::MAX / 2] {
            assert!(decode(&ints, len).contains("cannot hold"), "{len}");
        }
        // A block length past the end of the input.
        let mut long = ints.clone();
        long[1..9].copy_from_slice(&1000u64.to_le_bytes());
        assert!(decode(&long, 3).contains("overruns"));
        // An unknown representation tag.
        let mut tag = ints.clone();
        tag[0] = 9;
        assert!(decode(&tag, 3).contains("representation"));
        // Validity bits set past the column's length.
        let mut bits = ints.clone();
        bits[9] |= 1 << 5;
        assert!(decode(&bits, 3).contains("past the column"));
        // A dictionary code past the dictionary.
        let mut strs = encoded(&Column::from_values(&["car", "bus"].map(Value::from)));
        *strs.last_mut().unwrap() = 2;
        assert!(decode(&strs, 2).contains("dictionary code 2"));
        // A Mixed cell that contradicts its validity bit.
        let mixed = Column::from_values(&[Value::Int(1), Value::Float(2.0)]);
        let mut lying = encoded(&mixed);
        lying[9] = 0b01;
        assert!(decode(&lying, 2).contains("validity bit"));
        // A Bool byte that is neither 0 nor 1.
        let mut bools = encoded(&Column::from_values(&[Value::Bool(true)]));
        *bools.last_mut().unwrap() = 7;
        assert!(decode(&bools, 1).contains("bool"));
    }

    #[test]
    fn envelope_round_trip() {
        let sealed = seal(*b"TEST", 3, b"payload bytes");
        let (version, payload) = unseal(&sealed, *b"TEST", 3).unwrap();
        assert_eq!(version, 3);
        assert_eq!(payload, b"payload bytes");
    }

    #[test]
    fn envelope_rejects_every_tampering() {
        let sealed = seal(*b"TEST", 1, b"some payload");

        // Wrong magic.
        let err = unseal(&sealed, *b"ELSE", 1).unwrap_err();
        assert!(err.message().contains("bad magic"), "{err}");

        // Future version.
        let future = seal(*b"TEST", 2, b"some payload");
        let err = unseal(&future, *b"TEST", 1).unwrap_err();
        assert!(err.message().contains("future"), "{err}");

        // Truncation at every length below full.
        for cut in 0..sealed.len() {
            let err = unseal(&sealed[..cut], *b"TEST", 1).unwrap_err();
            assert_eq!(err.stage(), "corrupt", "cut={cut}");
        }

        // Trailing garbage.
        let mut long = sealed.clone();
        long.push(0);
        assert_eq!(unseal(&long, *b"TEST", 1).unwrap_err().stage(), "corrupt");

        // A single flipped bit anywhere in the file.
        for byte in 0..sealed.len() {
            let mut flipped = sealed.clone();
            flipped[byte] ^= 0x10;
            assert!(
                unseal(&flipped, *b"TEST", 1).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn empty_payload_seals() {
        let sealed = seal(*b"EMTY", 1, &[]);
        assert_eq!(sealed.len(), ENVELOPE_OVERHEAD);
        let (_, payload) = unseal(&sealed, *b"EMTY", 1).unwrap();
        assert!(payload.is_empty());
    }
}
