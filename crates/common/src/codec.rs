//! Hand-written binary codec for the persistence layer.
//!
//! Every byte that EVA-RS writes to disk goes through this module: a small
//! little-endian [`ByteWriter`]/[`ByteReader`] pair plus encoders for the
//! vocabulary types ([`Value`], [`Schema`], rows). The format is explicit and
//! versioned so the recovery pass can *validate* persisted bytes instead of
//! trusting them — every read is bounds-checked and returns
//! [`EvaError::Corrupt`] on truncation or malformed data, never panics.
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

use crate::batch::Row;
use crate::column::CellRef;
use crate::error::{EvaError, Result};
use crate::hash::xxhash64;
use crate::schema::{DataType, Field, Schema};
use crate::value::{BBox, Value};

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

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
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

/// Encode a [`Value`]. Unlike [`Value::write_bytes`] (which quantizes boxes
/// for hashing), this encoding is lossless: boxes keep full f32 precision.
pub fn write_value(w: &mut ByteWriter, v: &Value) {
    write_cell(w, CellRef::from_value(v));
}

/// Encode one column cell — byte for byte what [`write_value`] writes for
/// the cell's [`Value`], so a columnar store writes the same segments a
/// row store did.
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
            w.f32(b.x1);
            w.f32(b.y1);
            w.f32(b.x2);
            w.f32(b.y2);
        }
    }
}

/// Decode a [`Value`] written by [`write_value`].
pub fn read_value(r: &mut ByteReader) -> Result<Value> {
    read_cell(r).map(CellRef::to_value)
}

/// Decode one cell written by [`write_cell`]; strings borrow the buffer.
pub fn read_cell<'a>(r: &mut ByteReader<'a>) -> Result<CellRef<'a>> {
    match r.u8()? {
        TAG_NULL => Ok(CellRef::Null),
        TAG_BOOL => Ok(CellRef::Bool(r.bool()?)),
        TAG_INT => Ok(CellRef::Int(r.i64()?)),
        TAG_FLOAT => Ok(CellRef::Float(r.f64()?)),
        TAG_STR => Ok(CellRef::Str(r.str_ref()?)),
        TAG_BOX => Ok(CellRef::BBox(BBox {
            x1: r.f32()?,
            y1: r.f32()?,
            x2: r.f32()?,
            y2: r.f32()?,
        })),
        t => Err(corrupt(format!("unknown value tag {t:#x}"))),
    }
}

/// Encode a row (count-prefixed values).
pub fn write_row(w: &mut ByteWriter, row: &Row) {
    w.count(row.len());
    for v in row {
        write_value(w, v);
    }
}

/// Decode a row written by [`write_row`].
pub fn read_row(r: &mut ByteReader) -> Result<Row> {
    let n = r.count()?;
    let mut row = Row::with_capacity(n);
    for _ in 0..n {
        row.push(read_value(r)?);
    }
    Ok(row)
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
        assert_eq!(r.u16().unwrap(), 65_000);
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
        assert_eq!(r.u16().unwrap(), u16::from_le_bytes([1, 2]));
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
            write_value(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for v in &values {
            assert_eq!(&read_value(&mut r).unwrap(), v);
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn row_and_schema_round_trip() {
        let row: Row = vec![Value::Int(3), Value::Str("x".into()), Value::Null];
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
        write_row(&mut w, &row);
        write_schema(&mut w, &schema);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_row(&mut r).unwrap(), row);
        assert_eq!(read_schema(&mut r).unwrap(), schema);
        r.expect_end().unwrap();
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
