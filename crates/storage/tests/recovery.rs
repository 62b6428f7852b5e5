//! Malformed-store recovery tests: every way a segment file can be damaged
//! must yield quarantine-and-continue — never a panic, never a half-loaded
//! engine, never an aborted load.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use eva_common::codec::{self, ByteWriter};
use eva_common::{CellRef, Column, DataType, Field, FrameId, Schema, SimClock, Value, ViewId};
use eva_storage::segment;
use eva_storage::{StorageEngine, ViewKey, ViewKeyKind};

fn unique_dir(tag: &str) -> PathBuf {
    eva_common::testutil::unique_temp_dir(&format!("recovery_{tag}"))
}

fn out_schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(vec![
            Field::new("label", DataType::Str),
            Field::new("score", DataType::Float),
        ])
        .unwrap(),
    )
}

/// Build a store with three views (ids 1..=3, one entry per frame 0..N).
fn saved_store(dir: &Path) -> StorageEngine {
    let eng = StorageEngine::new();
    let clock = SimClock::new();
    for v in 0..3u64 {
        let id = eng.create_view(format!("det{v}"), ViewKeyKind::Frame, out_schema());
        let entries: Vec<(ViewKey, u32)> = (0..4 + v)
            .map(|f| (ViewKey::frame(FrameId(f)), 1))
            .collect();
        let row = [Value::from("car"), Value::Float(0.5 + v as f64)];
        let chunk = Column::from_rows(2, entries.len(), entries.iter().map(|_| row.as_slice()));
        eng.view_append(id, &entries, &chunk, &clock).unwrap();
    }
    eng.save_views(dir).unwrap();
    eng
}

/// Load the store and assert the damaged view (and only it) was
/// quarantined, while the other two keep serving probes.
fn assert_quarantines_only(dir: &Path, damaged: ViewId, expect_reason_fragment: &str) {
    let eng = StorageEngine::new();
    let report = eng.load_views(dir).unwrap();
    assert_eq!(
        report.quarantined.len(),
        1,
        "exactly the damaged segment quarantines: {report}"
    );
    assert_eq!(report.quarantined[0].view_id, Some(damaged));
    assert!(
        report.quarantined[0]
            .reason
            .contains(expect_reason_fragment),
        "reason {:?} should mention {:?}",
        report.quarantined[0].reason,
        expect_reason_fragment
    );
    assert_eq!(report.loaded.len(), 2, "{report}");
    // The engine is not half-loaded: survivors serve probes…
    let clock = SimClock::new();
    for id in &report.loaded {
        let probed = eng
            .view_probe(*id, &[ViewKey::frame(FrameId(0))], &clock)
            .unwrap();
        assert_eq!(probed.lens, vec![Some(1)], "view {id} lost its entries");
    }
    // …the quarantined view is simply cold (unknown to the engine)…
    assert!(eng.view_n_keys(damaged).is_err());
    // …and the counters reflect the outcome.
    let m = eng.metrics().snapshot();
    assert_eq!(m.views_recovered, 2);
    assert_eq!(m.views_quarantined, 1);
    // New view ids never collide with quarantined ids.
    let fresh = eng.create_view("fresh", ViewKeyKind::Frame, out_schema());
    assert!(fresh.raw() > damaged.raw().max(3));
}

#[test]
fn truncated_segment_quarantines_at_every_cut() {
    let dir = unique_dir("truncate");
    saved_store(&dir);
    let victim = dir.join("view_2.seg");
    let original = std::fs::read(&victim).unwrap();
    // Fuzz-style sweep: cut the file at a spread of positions covering the
    // magic, header, payload and checksum regions.
    for step in 0..16 {
        let cut = step * original.len() / 16;
        std::fs::write(&victim, &original[..cut]).unwrap();
        assert_quarantines_only(&dir, ViewId(2), "");
        // The recovery pass moved the file aside; put a fresh copy back.
        let _ = std::fs::remove_file(dir.join("view_2.seg.quarantined"));
        std::fs::write(&victim, &original).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_segment_quarantines_at_every_position() {
    let dir = unique_dir("bitflip");
    saved_store(&dir);
    let victim = dir.join("view_1.seg");
    let original = std::fs::read(&victim).unwrap();
    for step in 0..32 {
        let byte = step * original.len() / 32;
        let mut bad = original.clone();
        bad[byte] ^= 1 << (step % 8);
        std::fs::write(&victim, &bad).unwrap();
        assert_quarantines_only(&dir, ViewId(1), "");
        let _ = std::fs::remove_file(dir.join("view_1.seg.quarantined"));
        std::fs::write(&victim, &original).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_segment_quarantines() {
    let dir = unique_dir("empty");
    saved_store(&dir);
    std::fs::write(dir.join("view_3.seg"), b"").unwrap();
    assert_quarantines_only(&dir, ViewId(3), "too small");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn future_format_version_quarantines() {
    let dir = unique_dir("future");
    saved_store(&dir);
    // A well-formed envelope from a "newer" writer: magic and checksum are
    // valid, only the version is beyond what this reader understands.
    let sealed = codec::seal(
        segment::SEGMENT_MAGIC,
        segment::FORMAT_VERSION + 7,
        b"who knows",
    );
    std::fs::write(dir.join("view_2.seg"), sealed).unwrap();
    assert_quarantines_only(&dir, ViewId(2), "future");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checksum-valid format-1 segment, every header field in order, whose
/// one row carries fewer or more values than the segment's own schema has
/// columns. Nothing but the decoder's arity check stands between it and the
/// store (the envelope is sealed correctly), so that check must hold in
/// release builds: the segment quarantines and the view is simply cold.
#[test]
fn ragged_row_segment_quarantines() {
    for n_values in [1usize, 3] {
        let dir = unique_dir("ragged");
        saved_store(&dir);
        let mut w = ByteWriter::new();
        w.u64(2); // view id
        w.str("det1");
        w.u8(0); // key kind: Frame
        codec::write_schema(&mut w, &out_schema());
        w.u64(1); // keys
        w.u64(1); // rows
        w.u8(0); // key tag: Frame
        w.u64(0);
        w.count(1);
        w.count(n_values);
        for _ in 0..n_values {
            codec::write_cell(&mut w, CellRef::Float(0.5));
        }
        let sealed = codec::seal(segment::SEGMENT_MAGIC, segment::FORMAT_V1, w.as_slice());
        let err = segment::decode_segment(&sealed, Some(ViewId(2))).unwrap_err();
        assert_eq!(err.stage(), "corrupt", "{err}");
        std::fs::write(dir.join("view_2.seg"), sealed).unwrap();
        assert_quarantines_only(&dir, ViewId(2), "schema has 2 columns");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Format-2 representation tags (`eva_common::codec::write_column`).
const REP_FLOAT: u8 = 1;
const REP_STR: u8 = 3;

/// A checksum-valid format-2 segment for view 2 of [`saved_store`]'s
/// schema, written field by field so a test can break exactly one thing:
/// `keys` writes the key block's body, `columns` everything after it.
fn v2_segment(
    kind: u8,
    n_keys: u64,
    n_rows: u64,
    keys: impl FnOnce(&mut ByteWriter),
    columns: impl FnOnce(&mut ByteWriter),
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(2);
    w.str("det1");
    w.u8(kind);
    codec::write_schema(&mut w, &out_schema());
    w.u64(n_keys);
    w.u64(n_rows);
    w.block(keys);
    columns(&mut w);
    codec::seal(
        segment::SEGMENT_MAGIC,
        segment::FORMAT_VERSION,
        w.as_slice(),
    )
}

/// Frames 0 and 1, one row each.
fn two_frame_keys(w: &mut ByteWriter) {
    for delta in [0, 1] {
        w.uvarint(delta);
        w.uvarint(1);
    }
}

/// `label` = "car", "car" and `score` = 0.5, 0.5, both all valid.
fn two_rows(w: &mut ByteWriter) {
    w.u8(REP_STR);
    w.block(|w| {
        w.u64(0b11);
        w.count(1);
        w.str("car");
        w.u8(0);
        w.u8(0);
    });
    w.u8(REP_FLOAT);
    w.block(|w| {
        w.u64(0b11);
        w.f64(0.5);
        w.f64(0.5);
    });
}

/// Decode `sealed` (it must be `Corrupt`), then load it as view 2 of a
/// saved store: it quarantines alone, naming `reason`.
fn assert_v2_quarantines(tag: &str, sealed: Vec<u8>, reason: &str) {
    let err = segment::decode_segment(&sealed, Some(ViewId(2))).unwrap_err();
    assert_eq!(err.stage(), "corrupt", "{tag}: {err}");
    assert!(err.message().contains(reason), "{tag}: {err}");
    let dir = unique_dir(tag);
    saved_store(&dir);
    std::fs::write(dir.join("view_2.seg"), sealed).unwrap();
    assert_quarantines_only(&dir, ViewId(2), reason);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checksum-valid format-2 segments that lie about their contents: each
/// fails to decode and quarantines, and none can make the decoder allocate
/// from a header count.
#[test]
fn hostile_v2_segments_quarantine() {
    // The well-formed baseline the cases below each break once.
    let good = v2_segment(0, 2, 2, two_frame_keys, two_rows);
    let view = segment::decode_segment(&good, Some(ViewId(2))).unwrap();
    assert_eq!((view.n_keys(), view.n_rows()), (2, 2));

    let code_past_dictionary = v2_segment(0, 2, 2, two_frame_keys, |w| {
        w.u8(REP_STR);
        w.block(|w| {
            w.u64(0b11);
            w.count(1);
            w.str("car");
            w.u8(0);
            w.u8(1);
        });
    });
    assert_v2_quarantines("v2_code", code_past_dictionary, "dictionary code 1");

    let counts_disagree = v2_segment(0, 2, 3, two_frame_keys, two_rows);
    assert_v2_quarantines("v2_counts", counts_disagree, "header claims");

    let duplicate_key = v2_segment(
        0,
        2,
        2,
        |w| {
            for _ in 0..2 {
                w.uvarint(0);
                w.uvarint(1);
            }
        },
        two_rows,
    );
    assert_v2_quarantines("v2_duplicate", duplicate_key, "strictly increasing");

    // Box keys on one frame, the second with smaller corners.
    let unordered_boxes = v2_segment(
        1,
        2,
        2,
        |w| {
            for corners in [[5u16, 5, 9, 9], [1, 1, 9, 9]] {
                w.uvarint(0);
                corners.iter().for_each(|&c| w.u16(c));
                w.uvarint(1);
            }
        },
        two_rows,
    );
    assert_v2_quarantines("v2_unordered", unordered_boxes, "strictly increasing");

    let block_overruns = v2_segment(0, 2, 2, two_frame_keys, |w| {
        w.u8(REP_STR);
        w.u64(1 << 40);
    });
    assert_v2_quarantines("v2_overrun", block_overruns, "overruns");

    let bits_past_len = v2_segment(0, 2, 2, two_frame_keys, |w| {
        w.u8(REP_FLOAT);
        w.block(|w| {
            w.u64(0b111);
            w.f64(0.5);
            w.f64(0.5);
        });
    });
    assert_v2_quarantines("v2_bits", bits_past_len, "past the column");

    let unknown_tag = v2_segment(0, 2, 2, two_frame_keys, |w| {
        w.u8(0x7f);
        w.block(|w| w.u64(0b11));
    });
    assert_v2_quarantines("v2_tag", unknown_tag, "representation");

    // Header counts no block could hold: rejected by the block lengths
    // before anything is reserved for them.
    let absurd_keys = v2_segment(0, u64::MAX / 2, 2, two_frame_keys, two_rows);
    assert_v2_quarantines("v2_absurd", absurd_keys, "cannot hold");
}

#[test]
fn garbage_header_quarantines() {
    let dir = unique_dir("garbage");
    saved_store(&dir);
    std::fs::write(dir.join("view_1.seg"), vec![0xAB; 512]).unwrap();
    assert_quarantines_only(&dir, ViewId(1), "bad magic");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_view_id_inside_segment_quarantines() {
    let dir = unique_dir("swap");
    saved_store(&dir);
    // Simulate an operator mistake: view 3's bytes under view 1's name.
    std::fs::copy(dir.join("view_3.seg"), dir.join("view_1.seg")).unwrap();
    let eng = StorageEngine::new();
    let report = eng.load_views(&dir).unwrap();
    assert_eq!(report.quarantined.len(), 1, "{report}");
    assert!(report.quarantined[0].reason.contains("file name"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_manifest_falls_back_to_directory_scan() {
    let dir = unique_dir("no_manifest");
    saved_store(&dir);
    std::fs::remove_file(dir.join(segment::MANIFEST_FILE)).unwrap();
    let eng = StorageEngine::new();
    let report = eng.load_views(&dir).unwrap();
    assert!(report.manifest_fallback, "{report}");
    assert_eq!(report.loaded.len(), 3, "{report}");
    assert!(report.quarantined.is_empty(), "{report}");
    // The id allocator recovered its high-water mark from the scan.
    let fresh = eng.create_view("fresh", ViewKeyKind::Frame, out_schema());
    assert_eq!(fresh, ViewId(4));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_manifest_falls_back_to_directory_scan() {
    let dir = unique_dir("bad_manifest");
    saved_store(&dir);
    let path = dir.join(segment::MANIFEST_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, bytes).unwrap();
    let eng = StorageEngine::new();
    let report = eng.load_views(&dir).unwrap();
    assert!(report.manifest_fallback, "{report}");
    assert_eq!(report.loaded.len(), 3, "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn leftover_tmp_files_are_cleaned() {
    let dir = unique_dir("tmp");
    saved_store(&dir);
    std::fs::write(dir.join("view_9.seg.tmp"), b"half a segment").unwrap();
    std::fs::write(dir.join("views.manifest.tmp"), b"half a manifest").unwrap();
    let eng = StorageEngine::new();
    let report = eng.load_views(&dir).unwrap();
    assert_eq!(report.tmp_cleaned, 2, "{report}");
    assert_eq!(report.loaded.len(), 3, "{report}");
    assert!(!dir.join("view_9.seg.tmp").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn segment_listed_in_manifest_but_missing_quarantines() {
    let dir = unique_dir("missing_seg");
    saved_store(&dir);
    std::fs::remove_file(dir.join("view_2.seg")).unwrap();
    let eng = StorageEngine::new();
    let report = eng.load_views(&dir).unwrap();
    assert_eq!(report.loaded.len(), 2, "{report}");
    assert_eq!(report.quarantined.len(), 1, "{report}");
    assert!(report.quarantined[0].reason.contains("unreadable"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_directory_is_io_not_corrupt() {
    let eng = StorageEngine::new();
    let err = eng
        .load_views(Path::new("/definitely/not/a/real/dir"))
        .unwrap_err();
    assert_eq!(err.stage(), "io");
}

#[test]
fn whole_store_corrupt_yields_empty_engine_not_panic() {
    let dir = unique_dir("total_loss");
    saved_store(&dir);
    for entry in std::fs::read_dir(&dir).unwrap() {
        let p = entry.unwrap().path();
        std::fs::write(&p, b"\x00\x01garbage").unwrap();
    }
    let eng = StorageEngine::new();
    let report = eng.load_views(&dir).unwrap();
    assert!(report.manifest_fallback);
    assert!(report.loaded.is_empty(), "{report}");
    assert_eq!(report.quarantined.len(), 3, "{report}");
    assert_eq!(
        eng.view_defs().len(),
        0,
        "engine stays empty, not half-loaded"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
