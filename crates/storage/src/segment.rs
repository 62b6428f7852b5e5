//! Versioned, checksummed on-disk segment format for materialized views.
//!
//! One view per segment file (`view_<id>.seg`), framed by the common
//! [`eva_common::codec`] envelope:
//!
//! ```text
//! magic "EVAS" | format_version | payload_len | payload | xxhash64
//! ```
//!
//! Format 2 lays a view out the way the store holds it — an index plus one
//! typed array per output field:
//!
//! ```text
//! view_id | name | key_kind | output_schema | n_keys | n_rows
//!   | key block | one column block per schema field
//! ```
//!
//! The *key block* is a length-prefixed run of the keys in sorted order,
//! each followed by its row count (a varint): frame ids are varint deltas
//! from the previous key's, and box keys add their four quantized corners
//! as raw `u16`s. Rows are laid out in key order, so each key's rows are
//! the `count` rows after those of every earlier key, and the decoder
//! rebuilds the `(start, len)` index in one pass. Each *column block* is
//! [`codec::write_column`]'s: a representation tag, a length, the validity
//! bitmap's words as stored, then raw little-endian `Int`/`Float`/`BBox`
//! slots, one byte per `Bool`, a dictionary plus codes for `Str` (decoded
//! cells share their dictionary entry's allocation), or tagged cells for
//! `Mixed`. The encoder sorts the index once and gathers each column into
//! key order — a view decoded from a segment already is, and is written
//! without a gather — so byte output is deterministic for a given view.
//!
//! Decoding validates instead of trusting: the view id against the file
//! name, each block's length against the bytes that remain (every
//! allocation is sized from a checked block length, never a header count),
//! keys strictly increasing, row counts summing to `n_rows`, and each
//! column block exactly what its slots need, with no validity bit past the
//! column and no dictionary code past the dictionary. Any mismatch is
//! [`EvaError::Corrupt`] and the recovery pass quarantines the file.
//!
//! Writes go through [`write_atomic`]: bytes land in a `.tmp` sibling,
//! are fsynced, and are renamed over the destination; the directory is
//! fsynced after the rename. A crash at any point leaves either the old
//! file or the new one, never a half-written mix — the mix is only
//! reachable through the deliberately-injected failpoints, which is
//! exactly what the chaos suite exercises.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use eva_common::codec::{self, ByteReader, ByteWriter};
use eva_common::hash::xxhash64;
use eva_common::{Column, EvaError, Failpoint, FailpointRegistry, Result, ViewId};

use crate::view::{MaterializedView, ViewDef, ViewKey, ViewKeyKind};

/// Magic for view segment files.
pub const SEGMENT_MAGIC: [u8; 4] = *b"EVAS";
/// Magic for the store manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"EVAM";
/// Segment/manifest format version: the one every save writes and the only
/// segment format a load accepts (format 1, row-form, is no longer read).
pub const FORMAT_VERSION: u32 = 2;
/// Manifest file name, written last so its presence implies a complete save.
pub const MANIFEST_FILE: &str = "views.manifest";
/// Suffix given to quarantined segment files.
pub const QUARANTINE_SUFFIX: &str = ".quarantined";
/// Suffix of in-flight temporary files (cleaned up on recovery).
pub const TMP_SUFFIX: &str = ".tmp";

/// File name for a view's segment.
pub fn segment_file_name(id: ViewId) -> String {
    format!("view_{}.seg", id.raw())
}

/// Parse `view_<id>.seg` back to the raw view id.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("view_")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

fn key_kind_tag(kind: ViewKeyKind) -> u8 {
    match kind {
        ViewKeyKind::Frame => 0,
        ViewKeyKind::FrameBox => 1,
    }
}

fn key_kind_from_tag(tag: u8) -> Result<ViewKeyKind> {
    match tag {
        0 => Ok(ViewKeyKind::Frame),
        1 => Ok(ViewKeyKind::FrameBox),
        t => Err(EvaError::Corrupt(format!("unknown key-kind tag {t:#x}"))),
    }
}

/// Encode a view into a sealed format-2 segment (deterministic: keys in
/// key order, rows in their keys' order).
pub fn encode_segment(view: &MaterializedView) -> Vec<u8> {
    let def = view.def();
    let entries = view.sorted_entries();
    let mut w = ByteWriter::with_capacity(view.approx_bytes() as usize + 256);
    w.u64(def.id.raw());
    w.str(&def.name);
    w.u8(key_kind_tag(def.key_kind));
    codec::write_schema(&mut w, &def.output_schema);
    w.u64(view.n_keys());
    w.u64(view.n_rows());
    w.block(|w| {
        let mut prev = 0;
        for &(key, _, len) in &entries {
            let frame = key.frame_id().raw();
            w.uvarint(frame - prev);
            prev = frame;
            if let ViewKey::FrameBox(_, corners) = key {
                corners.iter().for_each(|&c| w.u16(c));
            }
            w.uvarint(u64::from(len));
        }
    });
    let mut next = 0;
    let in_key_order = entries.iter().all(|&(_, start, len)| {
        let contiguous = start == next;
        next += len;
        contiguous
    });
    if in_key_order {
        view.columns()
            .iter()
            .for_each(|column| codec::write_column(&mut w, column));
    } else {
        let rows: Vec<u32> = (entries.iter())
            .flat_map(|&(_, start, len)| start..start + len)
            .collect();
        for column in view.columns() {
            codec::write_column(&mut w, &column.gather(&rows));
        }
    }
    codec::seal(SEGMENT_MAGIC, FORMAT_VERSION, w.as_slice())
}

/// Decode and fully validate a format-2 segment. `expect_id` (from the file
/// name) must match the id stored inside the segment; header key/row counts
/// must match what was actually decoded.
pub fn decode_segment(bytes: &[u8], expect_id: Option<ViewId>) -> Result<MaterializedView> {
    let (version, payload) = codec::unseal(bytes, SEGMENT_MAGIC, FORMAT_VERSION)?;
    if version != FORMAT_VERSION {
        return Err(EvaError::Corrupt(format!(
            "segment format version {version} is no longer read"
        )));
    }
    let mut r = ByteReader::new(payload);
    let id = ViewId(r.u64()?);
    if let Some(expect) = expect_id {
        if id != expect {
            return Err(EvaError::Corrupt(format!(
                "segment holds view {id} but the file name says {expect}"
            )));
        }
    }
    let name = r.str()?;
    let key_kind = key_kind_from_tag(r.u8()?)?;
    let output_schema = Arc::new(codec::read_schema(&mut r)?);
    let width = output_schema.len();
    let n_keys = r.u64()?;
    let n_rows = r.u64()?;
    let entries = read_keys(&mut r, key_kind, n_keys)?;
    check_counts(&entries, n_keys, n_rows)?;
    // `check_counts` bounds `n_rows` by what the keys name.
    let columns = (0..width)
        .map(|_| codec::read_column(&mut r, n_rows as usize))
        .collect::<Result<Vec<Column>>>()?;
    r.expect_end()?;
    let def = ViewDef {
        id,
        name,
        key_kind,
        output_schema,
    };
    MaterializedView::from_parts(def, &entries, columns)
        .map_err(|e| EvaError::Corrupt(format!("inconsistent segment entries: {e}")))
}

/// The header's key and row counts against the decoded entries.
fn check_counts(entries: &[(ViewKey, u32)], n_keys: u64, n_rows: u64) -> Result<()> {
    let rows: u64 = entries.iter().map(|&(_, n)| u64::from(n)).sum();
    if entries.len() as u64 != n_keys || rows != n_rows {
        return Err(EvaError::Corrupt(format!(
            "header claims {n_keys} keys / {n_rows} rows, segment holds {} / {rows}",
            entries.len()
        )));
    }
    Ok(())
}

/// The key block: `n_keys` keys, strictly increasing, each with
/// its row count.
fn read_keys(r: &mut ByteReader, kind: ViewKeyKind, n_keys: u64) -> Result<Vec<(ViewKey, u32)>> {
    let mut block = r.block()?;
    // A key is at least a one-byte delta and a one-byte count.
    if n_keys > block.remaining() as u64 / 2 {
        return Err(EvaError::Corrupt(format!(
            "key block of {} bytes cannot hold {n_keys} keys",
            block.remaining()
        )));
    }
    let mut entries: Vec<(ViewKey, u32)> = Vec::with_capacity(n_keys as usize);
    let mut frame = 0u64;
    for i in 0..n_keys {
        let delta = block.uvarint()?;
        frame = (frame.checked_add(delta))
            .ok_or_else(|| EvaError::Corrupt("frame id overflows".into()))?;
        let key = match kind {
            ViewKeyKind::Frame => ViewKey::Frame(frame),
            ViewKeyKind::FrameBox => {
                let c = block.take(8)?;
                let corner = |i: usize| u16::from_le_bytes([c[2 * i], c[2 * i + 1]]);
                ViewKey::FrameBox(frame, [corner(0), corner(1), corner(2), corner(3)])
            }
        };
        // A zero delta repeats the previous key's frame: only a box key
        // with larger corners may follow on it.
        if i > 0 && delta == 0 {
            let prev = entries[entries.len() - 1].0;
            if key <= prev {
                return Err(EvaError::Corrupt(format!(
                    "keys not strictly increasing: {key:?} after {prev:?}"
                )));
            }
        }
        let count = block.uvarint()?;
        let count = u32::try_from(count)
            .map_err(|_| EvaError::Corrupt(format!("entry of {count} rows")))?;
        entries.push((key, count));
    }
    block.expect_end()?;
    Ok(entries)
}

/// Encode the store manifest: the id allocator's high-water mark plus the
/// ids of every segment the save wrote.
pub fn encode_manifest(next_view_id: u64, ids: &[u64]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(16 + ids.len() * 8);
    w.u64(next_view_id);
    w.count(ids.len());
    for id in ids {
        w.u64(*id);
    }
    codec::seal(MANIFEST_MAGIC, FORMAT_VERSION, w.as_slice())
}

/// Decode and validate the manifest: `(next_view_id, segment ids)`.
pub fn decode_manifest(bytes: &[u8]) -> Result<(u64, Vec<u64>)> {
    let (_, payload) = codec::unseal(bytes, MANIFEST_MAGIC, FORMAT_VERSION)?;
    let mut r = ByteReader::new(payload);
    let next = r.u64()?;
    let n = r.count()?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(r.u64()?);
    }
    r.expect_end()?;
    Ok((next, ids))
}

/// Write `bytes` to `dir/file_name` crash-safely: tmp file → fsync →
/// atomic rename → directory fsync. The [`FailpointRegistry`] sites model
/// the failures this protocol defends against:
///
/// * [`Failpoint::TornWrite`] — "crash" (an `Io` error) after half the
///   bytes reach the tmp file; the destination is untouched.
/// * [`Failpoint::ShortWrite`] — the tail of the file is silently lost but
///   the write is acknowledged; the checksum catches it on load.
/// * [`Failpoint::RenameFail`] — "crash" after the tmp file is durable but
///   before the rename; the destination is untouched.
/// * [`Failpoint::BitFlip`] — one deterministically-chosen bit of the
///   renamed file is flipped (latent media corruption); the checksum
///   catches it on load.
pub fn write_atomic(
    dir: &Path,
    file_name: &str,
    bytes: &[u8],
    failpoints: &FailpointRegistry,
) -> Result<()> {
    let tmp = dir.join(format!("{file_name}{TMP_SUFFIX}"));
    let dst = dir.join(file_name);

    if failpoints.should_fire(Failpoint::TornWrite) {
        let half = bytes.len() / 2;
        std::fs::write(&tmp, &bytes[..half])?;
        return Err(EvaError::Io(format!(
            "failpoint torn_write: simulated crash after {half} of {} bytes of {file_name}",
            bytes.len()
        )));
    }

    let short = failpoints.should_fire(Failpoint::ShortWrite);
    let to_write = if short {
        &bytes[..bytes.len().saturating_sub((bytes.len() / 4).max(1))]
    } else {
        bytes
    };
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(to_write)?;
        f.sync_all()?;
    }

    if failpoints.should_fire(Failpoint::RenameFail) {
        return Err(EvaError::Io(format!(
            "failpoint rename_fail: simulated crash before renaming {file_name} into place"
        )));
    }
    std::fs::rename(&tmp, &dst)?;
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }

    if failpoints.should_fire(Failpoint::BitFlip) {
        let mut data = std::fs::read(&dst)?;
        if !data.is_empty() {
            let bit = xxhash64(file_name.as_bytes(), 0) % (data.len() as u64 * 8);
            data[(bit / 8) as usize] ^= 1 << (bit % 8);
            std::fs::write(&dst, &data)?;
        }
    }
    Ok(())
}

/// Quarantine a damaged segment: rename it aside so the next save can
/// write a fresh file, keeping the evidence for inspection. Returns the
/// quarantine path (best effort — if even the rename fails, the original
/// path is returned and the file is simply left in place).
pub fn quarantine_file(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(QUARANTINE_SUFFIX);
    let target = path.with_file_name(name);
    match std::fs::rename(path, &target) {
        Ok(()) => target,
        Err(_) => path.to_path_buf(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_common::{Column, DataType, Field, FireRule, FrameId, Schema, Value};

    fn demo_view(id: u64) -> MaterializedView {
        let mut v = MaterializedView::new(ViewDef {
            id: ViewId(id),
            name: "objectdetector(frame)".into(),
            key_kind: ViewKeyKind::FrameBox,
            output_schema: Arc::new(
                Schema::new(vec![
                    Field::new("label", DataType::Str),
                    Field::new("score", DataType::Float),
                ])
                .unwrap(),
            ),
        });
        for f in 0..5u64 {
            let bbox = eva_common::BBox::new(0.1, 0.1, 0.4, 0.4 + f as f32 * 0.01);
            let row = [Value::from("car"), Value::Float(0.9)];
            let chunk = Column::from_rows(2, 1, [row.as_slice()]);
            v.append(&[(ViewKey::frame_box(FrameId(f), &bbox), 1)], &chunk)
                .unwrap();
        }
        v
    }

    #[test]
    fn segment_round_trip() {
        let v = demo_view(3);
        let bytes = encode_segment(&v);
        let back = decode_segment(&bytes, Some(ViewId(3))).unwrap();
        assert_eq!(back.def(), v.def());
        assert_eq!(back.n_keys(), v.n_keys());
        assert_eq!(back.n_rows(), v.n_rows());
        assert_eq!(back.approx_bytes(), v.approx_bytes());
        let keys: Vec<ViewKey> = v.sorted_entries().iter().map(|e| e.0).collect();
        assert_eq!(back.probe(&keys), v.probe(&keys));
    }

    #[test]
    fn segment_encoding_is_deterministic() {
        let v = demo_view(3);
        assert_eq!(encode_segment(&v), encode_segment(&v));
    }

    #[test]
    fn segment_id_mismatch_is_corrupt() {
        let bytes = encode_segment(&demo_view(3));
        let err = decode_segment(&bytes, Some(ViewId(4))).unwrap_err();
        assert_eq!(err.stage(), "corrupt");
        assert!(err.message().contains("file name"), "{err}");
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        let bytes = encode_segment(&demo_view(1));
        // Exhaustive over bytes (one bit per byte) keeps the test fast while
        // covering header, schema, entries and checksum regions.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x04;
            assert!(
                decode_segment(&bad, Some(ViewId(1))).is_err(),
                "flip in byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode_segment(&demo_view(1));
        for cut in 0..bytes.len() {
            let err = decode_segment(&bytes[..cut], Some(ViewId(1))).unwrap_err();
            assert_eq!(err.stage(), "corrupt", "cut at {cut}");
        }
    }

    #[test]
    fn manifest_round_trip_and_validation() {
        let bytes = encode_manifest(9, &[1, 2, 5]);
        let (next, ids) = decode_manifest(&bytes).unwrap();
        assert_eq!(next, 9);
        assert_eq!(ids, vec![1, 2, 5]);
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(decode_manifest(&bad).is_err());
        // A segment is not a manifest.
        assert!(decode_manifest(&encode_segment(&demo_view(1))).is_err());
    }

    #[test]
    fn file_names_round_trip() {
        assert_eq!(segment_file_name(ViewId(12)), "view_12.seg");
        assert_eq!(parse_segment_file_name("view_12.seg"), Some(12));
        assert_eq!(parse_segment_file_name("view_x.seg"), None);
        assert_eq!(parse_segment_file_name("views.manifest"), None);
        assert_eq!(parse_segment_file_name("view_12.seg.tmp"), None);
    }

    #[test]
    fn write_atomic_fault_injection_matrix() {
        let dir = eva_common::testutil::unique_temp_dir("segment_fi");
        let bytes = encode_segment(&demo_view(1));
        let fp = FailpointRegistry::new();

        // Clean write round-trips.
        write_atomic(&dir, "view_1.seg", &bytes, &fp).unwrap();
        let read = std::fs::read(dir.join("view_1.seg")).unwrap();
        decode_segment(&read, Some(ViewId(1))).unwrap();

        // Torn write: destination untouched, tmp half-written, Io error.
        fp.arm(Failpoint::TornWrite, FireRule::Always);
        let err = write_atomic(&dir, "view_1.seg", &bytes, &fp).unwrap_err();
        assert_eq!(err.stage(), "io");
        assert!(dir.join("view_1.seg.tmp").exists());
        decode_segment(&std::fs::read(dir.join("view_1.seg")).unwrap(), None)
            .expect("old segment intact after torn write");
        fp.disarm_all();

        // Short write: acknowledged, but the segment fails validation.
        fp.arm(Failpoint::ShortWrite, FireRule::Always);
        write_atomic(&dir, "view_1.seg", &bytes, &fp).unwrap();
        let short = std::fs::read(dir.join("view_1.seg")).unwrap();
        assert!(short.len() < bytes.len());
        assert!(decode_segment(&short, Some(ViewId(1))).is_err());
        fp.disarm_all();

        // Rename failure: tmp durable, destination now the short file still.
        write_atomic(&dir, "view_1.seg", &bytes, &fp).unwrap(); // restore good
        fp.arm(Failpoint::RenameFail, FireRule::Always);
        let err = write_atomic(&dir, "view_1.seg", &bytes, &fp).unwrap_err();
        assert_eq!(err.stage(), "io");
        decode_segment(&std::fs::read(dir.join("view_1.seg")).unwrap(), None)
            .expect("old segment intact after rename failure");
        fp.disarm_all();

        // Bit flip: acknowledged, checksum catches it on load,
        // deterministically for a fixed seed.
        fp.arm(Failpoint::BitFlip, FireRule::Always);
        write_atomic(&dir, "view_1.seg", &bytes, &fp).unwrap();
        let flipped_a = std::fs::read(dir.join("view_1.seg")).unwrap();
        assert!(decode_segment(&flipped_a, Some(ViewId(1))).is_err());
        fp.arm(Failpoint::BitFlip, FireRule::Always);
        write_atomic(&dir, "view_1.seg", &bytes, &fp).unwrap();
        let flipped_b = std::fs::read(dir.join("view_1.seg")).unwrap();
        assert_eq!(flipped_a, flipped_b, "same seed flips the same bit");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_renames_aside() {
        let dir = eva_common::testutil::unique_temp_dir("quarantine");
        let p = dir.join("view_9.seg");
        std::fs::write(&p, b"junk").unwrap();
        let q = quarantine_file(&p);
        assert!(!p.exists());
        assert!(q.exists());
        assert!(q.to_string_lossy().ends_with(".seg.quarantined"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
