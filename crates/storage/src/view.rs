//! Materialized views of UDF results.
//!
//! A view is keyed by the identity of the UDF's input tuple:
//! * frame-level UDFs (object detectors) key on the frame id;
//! * box-level UDFs (CarType, ColorDet, License, Area) key on
//!   `(frame id, quantized bbox)` — two different detectors produce
//!   different boxes, so their downstream results do not collide.
//!
//! Each key maps to the *list* of output rows the UDF produced for that
//! input (a detector emits one row per detected object, possibly zero —
//! which still records "this frame was processed").
//!
//! The store is columnar, like the Parquet files the paper keeps its views
//! in: one append-only typed [`Column`] per output field, and a hash index
//! from key to the contiguous `(first row, row count)` range that key's rows
//! occupy. STORE appends a whole evaluated chunk with one typed extend per
//! column; a probe resolves its keys through the index and gathers the hit
//! ranges into fresh typed columns ([`ViewHits`]) — the form the cross-apply
//! join consumes — so no `Value` is built on the reuse path and string cells
//! move by refcount. Ranges never leave this module: a probe gathers while
//! the caller holds the view's lock, so nothing a concurrent append or
//! `clear_views` does can invalidate what it returns. The index hashes with
//! [`KeyBuildHasher`] (keys are engine-derived integers). Fuzzy probes
//! (opt-in) scan only the boxes stored on the probed frame, through a
//! per-frame index the first fuzzy probe builds; a view never probed
//! fuzzily never builds or maintains it. String cells arrive interned per
//! chunk ([`eva_common::ColumnBuilder::push_str`]): a handful of
//! allocations per chunk, which [`MaterializedView::approx_bytes`] — the
//! *encoded* footprint — does not see.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use eva_common::hash::KeyBuildHasher;
use eva_common::{BBox, Column, EvaError, FrameId, Result, Schema, ViewId};

/// The kind of key a view uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewKeyKind {
    /// Keyed by frame id (frame-level UDFs).
    Frame,
    /// Keyed by (frame id, quantized bbox) (box-level UDFs).
    FrameBox,
}

/// A concrete view key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViewKey {
    /// Frame-level key.
    Frame(u64),
    /// Box-level key (frame id + quantized box corners).
    FrameBox(u64, [u16; 4]),
}

/// One word per component (the derive would also hash the discriminant and
/// the corner array's length): a table only ever holds one kind of key, and
/// equal keys still hash equally.
impl Hash for ViewKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            ViewKey::Frame(f) => state.write_u64(*f),
            ViewKey::FrameBox(f, corners) => {
                state.write_u64(*f);
                let [a, b, c, d] = corners.map(u64::from);
                state.write_u64(a | b << 16 | c << 32 | d << 48);
            }
        }
    }
}

impl ViewKey {
    /// Build a frame key.
    pub fn frame(id: FrameId) -> ViewKey {
        ViewKey::Frame(id.raw())
    }

    /// Build a frame+box key (box is quantized via [`BBox::key`]).
    pub fn frame_box(id: FrameId, bbox: &BBox) -> ViewKey {
        ViewKey::FrameBox(id.raw(), bbox.key())
    }

    /// Which kind of key this is.
    pub fn kind(&self) -> ViewKeyKind {
        match self {
            ViewKey::Frame(_) => ViewKeyKind::Frame,
            ViewKey::FrameBox(..) => ViewKeyKind::FrameBox,
        }
    }

    /// The frame id component.
    pub fn frame_id(&self) -> FrameId {
        match self {
            ViewKey::Frame(f) | ViewKey::FrameBox(f, _) => FrameId(*f),
        }
    }

    /// Serialized size of the key (part of the footprint counter).
    fn encoded_len(&self) -> u64 {
        match self {
            ViewKey::Frame(_) => 8,
            ViewKey::FrameBox(..) => 16,
        }
    }

    /// One integer that orders the keys of one kind as [`Ord`] does: the
    /// frame id above the corners, packed most significant first.
    fn sort_key(&self) -> u128 {
        match self {
            ViewKey::Frame(f) => u128::from(*f) << 64,
            ViewKey::FrameBox(f, corners) => {
                let [a, b, c, d] = corners.map(u128::from);
                u128::from(*f) << 64 | a << 48 | b << 32 | c << 16 | d
            }
        }
    }

    /// The key of `kind` whose [`ViewKey::sort_key`] is `packed`.
    fn from_sort_key(kind: ViewKeyKind, packed: u128) -> ViewKey {
        let frame = (packed >> 64) as u64;
        match kind {
            ViewKeyKind::Frame => ViewKey::Frame(frame),
            ViewKeyKind::FrameBox => {
                let corner = |shift: u32| (packed >> shift) as u16;
                ViewKey::FrameBox(frame, [corner(48), corner(32), corner(16), corner(0)])
            }
        }
    }
}

/// View metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    /// View id assigned by the storage engine.
    pub id: ViewId,
    /// Owner UDF signature rendering (for introspection).
    pub name: String,
    /// Key kind.
    pub key_kind: ViewKeyKind,
    /// Schema of the stored output rows.
    pub output_schema: Arc<Schema>,
}

/// What a probe hands back: per probed key whether it is materialized, and
/// the hit rows gathered, in key order, into one typed column per output
/// field.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewHits {
    /// Per probed key: `None` when the key is not materialized, otherwise
    /// how many of the gathered rows are its (`Some(0)`: the UDF ran on this
    /// input and produced nothing).
    pub lens: Vec<Option<u32>>,
    /// The hit rows: key `i`'s rows follow those of every earlier hit.
    pub columns: Vec<Column>,
}

impl ViewHits {
    /// Rows gathered into [`ViewHits::columns`].
    pub fn n_rows(&self) -> usize {
        self.lens.iter().flatten().map(|&n| n as usize).sum()
    }

    /// Rows the probe read, as the IO model counts them: a hit on an empty
    /// entry still reads its "processed" marker.
    pub fn rows_read(&self) -> usize {
        self.lens.iter().flatten().map(|&n| n.max(1) as usize).sum()
    }
}

/// A materialized view: a key index over append-only typed columns.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    def: ViewDef,
    /// Key → `(first row, row count)` in `columns`.
    index: HashMap<ViewKey, (u32, u32), KeyBuildHasher>,
    /// One column per output field; all of length `total_rows`.
    columns: Vec<Column>,
    /// Frame id → box keys stored on that frame, sorted (first key in key
    /// order wins among equal-IoU candidates). Built from `index` by the
    /// first [`MaterializedView::fuzzy_probe`]; `append` maintains it only
    /// once it exists.
    by_frame: OnceLock<HashMap<u64, Vec<ViewKey>, KeyBuildHasher>>,
    total_rows: u32,
    approx_bytes: u64,
}

impl MaterializedView {
    /// New empty view.
    pub fn new(def: ViewDef) -> MaterializedView {
        let columns = vec![Column::from_ints(Vec::new()); def.output_schema.len()];
        MaterializedView {
            def,
            index: HashMap::default(),
            columns,
            by_frame: OnceLock::new(),
            total_rows: 0,
            approx_bytes: 0,
        }
    }

    /// A view over `columns` whose rows belong to `entries` in order: each
    /// entry owns the `len` rows after those of every earlier entry. The
    /// index is built once, sized for every key — the segment decoder's
    /// constructor. Rejects what [`MaterializedView::append`] rejects, and a
    /// key named twice.
    pub(crate) fn from_parts(
        def: ViewDef,
        entries: &[(ViewKey, u32)],
        columns: Vec<Column>,
    ) -> Result<MaterializedView> {
        let malformed =
            |what: String| EvaError::Storage(format!("{what} building view '{}'", def.name));
        if entries.iter().any(|(k, _)| k.kind() != def.key_kind) {
            return Err(malformed("key kind mismatch".into()));
        }
        if columns.len() != def.output_schema.len() {
            return Err(malformed(format!(
                "{} columns for a schema of {}",
                columns.len(),
                def.output_schema.len()
            )));
        }
        let rows: u64 = entries.iter().map(|&(_, n)| u64::from(n)).sum();
        let total_rows = u32::try_from(rows).map_err(|_| malformed("row index overflow".into()))?;
        if columns.iter().any(|c| c.len() as u64 != rows) {
            return Err(malformed(format!(
                "entries name {rows} rows, columns disagree"
            )));
        }
        let mut index = HashMap::with_capacity_and_hasher(entries.len(), KeyBuildHasher::default());
        let mut start = 0u32;
        let mut key_bytes = 0u64;
        for &(key, len) in entries {
            if index.insert(key, (start, len)).is_some() {
                return Err(malformed(format!("key {key:?} named twice")));
            }
            start += len;
            key_bytes += key.encoded_len();
        }
        let value_bytes: u64 = columns.iter().map(Column::encoded_len).sum();
        Ok(MaterializedView {
            def,
            index,
            columns,
            by_frame: OnceLock::new(),
            total_rows,
            approx_bytes: key_bytes + value_bytes,
        })
    }

    /// View metadata.
    pub fn def(&self) -> &ViewDef {
        &self.def
    }

    /// Number of distinct keys materialized.
    pub fn n_keys(&self) -> u64 {
        self.index.len() as u64
    }

    /// Total stored output rows.
    pub fn n_rows(&self) -> u64 {
        u64::from(self.total_rows)
    }

    /// Record one evaluated chunk: `entries` names, in chunk order, each
    /// input key and how many consecutive rows of `chunk` the UDF produced
    /// for it. A key that is already materialized — by an earlier append or
    /// earlier in this chunk — is skipped (results are deterministic per
    /// input), which makes STORE idempotent under plan retries. A malformed
    /// chunk is rejected whole, before anything is stored.
    pub fn append(&mut self, entries: &[(ViewKey, u32)], chunk: &[Column]) -> Result<()> {
        let malformed = |what: String| {
            EvaError::Storage(format!("{what} appending to view '{}'", self.def.name))
        };
        if entries.iter().any(|(k, _)| k.kind() != self.def.key_kind) {
            return Err(malformed("key kind mismatch".into()));
        }
        if chunk.len() != self.columns.len() {
            return Err(malformed(format!(
                "chunk of {} columns for a schema of {}",
                chunk.len(),
                self.columns.len()
            )));
        }
        let chunk_rows: u64 = entries.iter().map(|&(_, n)| u64::from(n)).sum();
        if chunk.iter().any(|c| c.len() as u64 != chunk_rows) {
            return Err(malformed(format!(
                "entries name {chunk_rows} rows, columns disagree"
            )));
        }
        if u64::from(self.total_rows) + chunk_rows > u64::from(u32::MAX) {
            return Err(malformed("row index overflow".into()));
        }

        // Index the new keys; `kept` lists the chunk rows that get stored.
        let mut kept: Vec<u32> = Vec::with_capacity(chunk_rows as usize);
        let mut key_bytes = 0u64;
        let mut at = 0u32;
        let mut by_frame = self.by_frame.get_mut();
        for &(key, len) in entries {
            let start = self.total_rows + kept.len() as u32;
            if let std::collections::hash_map::Entry::Vacant(e) = self.index.entry(key) {
                e.insert((start, len));
                key_bytes += key.encoded_len();
                kept.extend(at..at + len);
                if let (Some(by_frame), ViewKey::FrameBox(frame, _)) = (by_frame.as_mut(), key) {
                    let keys = by_frame.entry(frame).or_default();
                    if let Err(pos) = keys.binary_search(&key) {
                        keys.insert(pos, key);
                    }
                }
            }
            at += len;
        }
        let all_kept = kept.len() as u64 == chunk_rows;
        let mut value_bytes = 0u64;
        for (stored, fresh) in self.columns.iter_mut().zip(chunk) {
            if all_kept {
                value_bytes += fresh.encoded_len();
                stored.append(fresh);
            } else {
                let fresh = fresh.gather(&kept);
                value_bytes += fresh.encoded_len();
                stored.append(&fresh);
            }
        }
        self.total_rows += kept.len() as u32;
        self.approx_bytes += key_bytes + value_bytes;
        Ok(())
    }

    /// Resolve `keys` through the index and gather the hit rows into typed
    /// columns, in key order.
    pub fn probe(&self, keys: &[ViewKey]) -> ViewHits {
        let mut rows: Vec<u32> = Vec::with_capacity(keys.len());
        let lens = keys
            .iter()
            .map(|key| {
                let &(start, len) = self.index.get(key)?;
                rows.extend(start..start + len);
                Some(len)
            })
            .collect();
        ViewHits {
            lens,
            columns: self.columns.iter().map(|c| c.gather(&rows)).collect(),
        }
    }

    /// Fuzzy lookup for box-level views (§6 future work): find the stored
    /// box on the same frame with the highest IoU against `bbox`, if it
    /// clears `min_iou`. Returns the one-key probe of the matched box and
    /// the number of candidate keys scanned (for IO accounting). Only the
    /// boxes indexed under `frame` are scanned, not the whole view.
    pub fn fuzzy_probe(
        &self,
        frame: FrameId,
        bbox: &BBox,
        min_iou: f32,
    ) -> (Option<ViewHits>, usize) {
        debug_assert_eq!(self.def.key_kind, ViewKeyKind::FrameBox);
        let by_frame = self.by_frame.get_or_init(|| {
            let mut by_frame: HashMap<u64, Vec<ViewKey>, KeyBuildHasher> = HashMap::default();
            for (key, ..) in self.sorted_entries() {
                if let ViewKey::FrameBox(frame, _) = key {
                    by_frame.entry(frame).or_default().push(key);
                }
            }
            by_frame
        });
        let candidates = by_frame.get(&frame.raw()).map_or(&[][..], Vec::as_slice);
        let mut best: Option<(ViewKey, f32)> = None;
        for key in candidates {
            let ViewKey::FrameBox(_, corners) = key else {
                continue;
            };
            let iou = BBox::from_key(*corners).iou(bbox);
            if iou >= min_iou && best.map(|(_, b)| iou > b).unwrap_or(true) {
                best = Some((*key, iou));
            }
        }
        (best.map(|(key, _)| self.probe(&[key])), candidates.len())
    }

    /// Every entry as `(key, first row, row count)`, in key order — the
    /// deterministic order segments are written in.
    pub(crate) fn sorted_entries(&self) -> Vec<(ViewKey, u32, u32)> {
        let mut entries: Vec<(u128, u32, u32)> = (self.index.iter())
            .map(|(key, &(start, len))| (key.sort_key(), start, len))
            .collect();
        entries.sort_unstable_by_key(|entry| entry.0);
        let kind = self.def.key_kind;
        (entries.into_iter())
            .map(|(packed, start, len)| (ViewKey::from_sort_key(kind, packed), start, len))
            .collect()
    }

    /// The stored columns, one per output field.
    pub(crate) fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Approximate storage footprint in bytes (the Table "storage overhead"
    /// metric): serialized key + values. O(1) — maintained incrementally by
    /// [`MaterializedView::append`].
    pub fn approx_bytes(&self) -> u64 {
        self.approx_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_common::testutil::rows_of;
    use eva_common::{ColumnData, DataType, Field, Row, Value};
    use std::hash::BuildHasher;

    fn demo_view(kind: ViewKeyKind) -> MaterializedView {
        MaterializedView::new(ViewDef {
            id: ViewId(1),
            name: "objectdetector(frame)".into(),
            key_kind: kind,
            output_schema: Arc::new(
                Schema::new(vec![
                    Field::new("label", DataType::Str),
                    Field::new("score", DataType::Float),
                ])
                .unwrap(),
            ),
        })
    }

    /// Append row-form entries as one chunk (the shape STORE hands over).
    fn append_rows(v: &mut MaterializedView, entries: &[(ViewKey, Vec<Row>)]) -> Result<()> {
        let lens: Vec<(ViewKey, u32)> = entries
            .iter()
            .map(|(k, rows)| (*k, rows.len() as u32))
            .collect();
        let rows = entries.iter().flat_map(|(_, rows)| rows.iter());
        let width = v.def().output_schema.len();
        let chunk = Column::from_rows(width, 0, rows.map(Vec::as_slice));
        v.append(&lens, &chunk)
    }

    /// The rows a probe of one key gathers, `None` on a miss.
    fn rows_at(v: &MaterializedView, key: ViewKey) -> Option<Vec<Row>> {
        let hits = v.probe(&[key]);
        hits.lens[0].map(|_| rows_of(&hits.columns))
    }

    fn car(score: f64) -> Row {
        vec![Value::from("car"), Value::Float(score)]
    }

    #[test]
    fn append_and_probe() {
        let mut v = demo_view(ViewKeyKind::Frame);
        let key = ViewKey::frame(FrameId(3));
        append_rows(&mut v, &[(key, vec![car(0.9)])]).unwrap();
        assert_eq!(rows_at(&v, key), Some(vec![car(0.9)]));
        assert_eq!(v.n_keys(), 1);
        assert_eq!(v.n_rows(), 1);
        assert_eq!(rows_at(&v, ViewKey::frame(FrameId(4))), None);
    }

    #[test]
    fn probe_gathers_hit_rows_in_key_order() {
        let mut v = demo_view(ViewKeyKind::Frame);
        let k = |f| ViewKey::frame(FrameId(f));
        append_rows(
            &mut v,
            &[
                (k(0), vec![car(0.1), car(0.2)]),
                (k(1), vec![]),
                (k(2), vec![car(0.3)]),
            ],
        )
        .unwrap();
        // Out of storage order, with a miss, a repeat and an empty entry.
        let hits = v.probe(&[k(2), k(9), k(0), k(1), k(2)]);
        assert_eq!(hits.lens, vec![Some(1), None, Some(2), Some(0), Some(1)]);
        assert_eq!(
            rows_of(&hits.columns),
            vec![car(0.3), car(0.1), car(0.2), car(0.3)],
            "gathered hit rows equal the appended rows"
        );
        assert_eq!(hits.n_rows(), 4);
        assert_eq!(hits.rows_read(), 5, "an empty hit still reads its marker");
    }

    #[test]
    fn empty_result_still_marks_processed() {
        let mut v = demo_view(ViewKeyKind::Frame);
        let key = ViewKey::frame(FrameId(9));
        append_rows(&mut v, &[(key, vec![])]).unwrap();
        assert_eq!(rows_at(&v, key), Some(vec![]));
        assert_eq!(v.n_rows(), 0);
    }

    #[test]
    fn reappend_is_idempotent() {
        let mut v = demo_view(ViewKeyKind::Frame);
        let key = ViewKey::frame(FrameId(1));
        append_rows(&mut v, &[(key, vec![car(0.9)])]).unwrap();
        let bytes = v.approx_bytes();
        let bus = vec![Value::from("bus"), Value::Float(0.5)];
        append_rows(&mut v, &[(key, vec![bus])]).unwrap();
        assert_eq!(v.n_rows(), 1);
        assert_eq!(v.approx_bytes(), bytes, "no-op append leaves bytes alone");
        assert_eq!(rows_at(&v, key), Some(vec![car(0.9)]));
    }

    #[test]
    fn malformed_chunks_are_rejected_whole() {
        let mut v = demo_view(ViewKeyKind::Frame);
        let good = ViewKey::frame(FrameId(0));
        let bad = ViewKey::frame_box(FrameId(0), &BBox::new(0.0, 0.0, 0.1, 0.1));
        // A wrong-kind key anywhere in the chunk stores nothing.
        assert!(append_rows(&mut v, &[(good, vec![car(0.9)]), (bad, vec![])]).is_err());
        assert_eq!(rows_at(&v, good), None);
        // Entries that name more rows than the columns hold.
        let chunk = Column::from_rows(2, 1, [car(0.9).as_slice()]);
        assert!(v.append(&[(good, 2)], &chunk).is_err());
        // A chunk of the wrong width.
        assert!(v.append(&[(good, 1)], &chunk[..1]).is_err());
        assert_eq!((v.n_keys(), v.n_rows(), v.approx_bytes()), (0, 0, 0));
    }

    #[test]
    fn frame_box_keys_distinguish_boxes() {
        let mut v = demo_view(ViewKeyKind::FrameBox);
        let b1 = BBox::new(0.0, 0.0, 0.1, 0.1);
        let b2 = BBox::new(0.5, 0.5, 0.9, 0.9);
        append_rows(&mut v, &[(ViewKey::frame_box(FrameId(0), &b1), vec![])]).unwrap();
        assert_eq!(
            rows_at(&v, ViewKey::frame_box(FrameId(0), &b1)),
            Some(vec![])
        );
        assert_eq!(rows_at(&v, ViewKey::frame_box(FrameId(0), &b2)), None);
        assert_eq!(rows_at(&v, ViewKey::frame_box(FrameId(1), &b1)), None);
    }

    #[test]
    fn fuzzy_probe_scans_only_the_probed_frame() {
        let mut v = demo_view(ViewKeyKind::FrameBox);
        let near = BBox::new(0.10, 0.10, 0.40, 0.40);
        let far = BBox::new(0.60, 0.60, 0.90, 0.90);
        let labelled = |l: &str| vec![vec![Value::from(l), Value::Float(1.0)]];
        append_rows(
            &mut v,
            &[
                (ViewKey::frame_box(FrameId(0), &near), labelled("near")),
                (ViewKey::frame_box(FrameId(0), &far), labelled("far")),
                (
                    ViewKey::frame_box(FrameId(5), &near),
                    labelled("other-frame"),
                ),
            ],
        )
        .unwrap();

        let probe = BBox::new(0.11, 0.11, 0.41, 0.41);
        let (hit, scanned) = v.fuzzy_probe(FrameId(0), &probe, 0.5);
        assert_eq!(rows_of(&hit.unwrap().columns), labelled("near"));
        assert_eq!(scanned, 2, "only frame 0's boxes are candidates");

        let (miss, scanned) = v.fuzzy_probe(FrameId(7), &probe, 0.5);
        assert!(miss.is_none());
        assert_eq!(scanned, 0, "unindexed frames scan nothing");
    }

    /// The frame index is built by the first fuzzy probe, whenever that
    /// comes: before any append (so every append maintains it), between
    /// appends, after all of them, on a clone, or on a decoded segment —
    /// answers and scanned counts are the same, and neither the footprint
    /// nor the segment bytes can tell whether the index exists.
    #[test]
    fn fuzzy_probe_is_the_same_whenever_the_frame_index_is_built() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };
        // Jittered copies of a few base boxes per frame, so several stored
        // candidates clear the IoU bar and the best one has to win.
        let mut jittered = |n_frames: u64| {
            let frame = next(n_frames);
            let base = 0.1 + 0.2 * (frame % 3) as f32;
            let d = next(300) as f32 / 1000.0;
            let bbox = BBox::new(base + d, base, base + 0.3, base + 0.3 + d);
            (FrameId(frame), bbox)
        };
        let chunks: Vec<Vec<(ViewKey, Vec<Row>)>> = (0..3)
            .map(|chunk| {
                (0..12)
                    .map(|i| {
                        let (frame, bbox) = jittered(6);
                        let key = ViewKey::frame_box(frame, &bbox);
                        (key, vec![car((chunk * 12 + i) as f64)])
                    })
                    .collect()
            })
            .collect();
        let probes: Vec<(FrameId, BBox)> = (0..60).map(|_| jittered(8)).collect();
        let answers = |v: &MaterializedView| -> Vec<(Option<Vec<Row>>, usize)> {
            let probe = |(frame, bbox): &(FrameId, BBox)| {
                let (hit, scanned) = v.fuzzy_probe(*frame, bbox, 0.9);
                (hit.map(|h| rows_of(&h.columns)), scanned)
            };
            probes.iter().map(probe).collect()
        };

        let mut views = [(); 3].map(|_| demo_view(ViewKeyKind::FrameBox));
        let [eager, between, lazy] = &mut views;
        assert!(matches!(
            eager.fuzzy_probe(probes[0].0, &probes[0].1, 0.9),
            (None, 0)
        ));
        for (i, chunk) in chunks.iter().enumerate() {
            for v in [&mut *eager, &mut *between, &mut *lazy] {
                append_rows(v, chunk).unwrap();
            }
            if i == 0 {
                between.fuzzy_probe(probes[0].0, &probes[0].1, 0.9);
            }
        }
        let unbuilt_clone = lazy.clone();
        let bytes = crate::segment::encode_segment(lazy);
        let decoded = crate::segment::decode_segment(&bytes, Some(ViewId(1))).unwrap();

        let want = answers(eager);
        assert!(want.iter().filter(|(hit, _)| hit.is_some()).count() > 10);
        assert!(want
            .iter()
            .any(|(hit, scanned)| hit.is_none() && *scanned > 0));
        let built_clone = eager.clone();
        for v in [&*between, &*lazy, &unbuilt_clone, &built_clone, &decoded] {
            assert_eq!(answers(v), want);
            assert_eq!(v.approx_bytes(), eager.approx_bytes());
            assert_eq!(crate::segment::encode_segment(v), bytes);
        }
    }

    #[test]
    fn approx_bytes_grows_and_matches_encoding() {
        let mut v = demo_view(ViewKeyKind::Frame);
        assert_eq!(v.approx_bytes(), 0);
        let rows = vec![car(0.9), vec![Value::Null, Value::Int(1)]];
        append_rows(&mut v, &[(ViewKey::frame(FrameId(0)), rows.clone())]).unwrap();
        // Running counter must equal the serialized size: 8 key bytes plus
        // each value's write_bytes encoding.
        let mut expected = 8u64;
        for row in &rows {
            for val in row {
                let mut buf = Vec::new();
                val.write_bytes(&mut buf);
                expected += buf.len() as u64;
            }
        }
        assert_eq!(v.approx_bytes(), expected);
    }

    #[test]
    fn sort_keys_order_like_ord_and_round_trip() {
        // Corners whose little-endian packing would order them backwards.
        let mut keys = [
            ViewKey::FrameBox(3, [1, 0, 0, 0]),
            ViewKey::FrameBox(3, [0, 0, 0, 2]),
            ViewKey::FrameBox(2, [9, 9, 9, 9]),
            ViewKey::FrameBox(u64::MAX, [0, 0, 0, 0]),
            ViewKey::FrameBox(3, [0, 1, 0, 0]),
        ];
        let by_packed: Vec<u128> = keys.iter().map(ViewKey::sort_key).collect();
        for (key, packed) in keys.iter().zip(&by_packed) {
            assert_eq!(ViewKey::from_sort_key(ViewKeyKind::FrameBox, *packed), *key);
        }
        let mut sorted = by_packed.clone();
        sorted.sort_unstable();
        keys.sort_unstable();
        assert_eq!(
            sorted,
            keys.iter().map(ViewKey::sort_key).collect::<Vec<_>>()
        );
        let frame = ViewKey::Frame(7);
        assert_eq!(
            ViewKey::from_sort_key(ViewKeyKind::Frame, frame.sort_key()),
            frame
        );
    }

    #[test]
    fn from_parts_matches_append_and_rejects_malformed_parts() {
        let k = |f| ViewKey::frame(FrameId(f));
        let rows = [car(0.1), car(0.2), car(0.3)];
        let chunk = Column::from_rows(2, 3, rows.iter().map(Vec::as_slice));
        let entries = [(k(1), 2), (k(4), 0), (k(6), 1)];
        let mut appended = demo_view(ViewKeyKind::Frame);
        appended.append(&entries, &chunk).unwrap();
        let built =
            MaterializedView::from_parts(appended.def().clone(), &entries, chunk.clone()).unwrap();
        assert_eq!(built.n_keys(), 3);
        assert_eq!(built.n_rows(), 3);
        assert_eq!(built.approx_bytes(), appended.approx_bytes());
        let probe: Vec<ViewKey> = (0..8).map(k).collect();
        assert_eq!(built.probe(&probe), appended.probe(&probe));

        let def = || demo_view(ViewKeyKind::Frame).def().clone();
        let twice = [(k(1), 2), (k(1), 1)];
        let wrong_kind = [(
            ViewKey::frame_box(FrameId(1), &BBox::new(0.0, 0.0, 0.1, 0.1)),
            3,
        )];
        for (entries, columns, why) in [
            (&twice[..], chunk.clone(), "named twice"),
            (&wrong_kind[..], chunk.clone(), "key kind"),
            (&entries[..2], chunk.clone(), "columns disagree"),
            (&entries[..], chunk[..1].to_vec(), "schema of 2"),
        ] {
            let err = MaterializedView::from_parts(def(), entries, columns).unwrap_err();
            assert!(err.message().contains(why), "{err}");
        }
    }

    #[test]
    fn key_ordering_by_frame() {
        let k1 = ViewKey::frame(FrameId(1));
        let k2 = ViewKey::frame(FrameId(2));
        assert!(k1 < k2);
        assert_eq!(k1.frame_id(), FrameId(1));
        let kb = ViewKey::frame_box(FrameId(7), &BBox::new(0.0, 0.0, 0.1, 0.1));
        assert_eq!(kb.frame_id(), FrameId(7));
        assert_eq!(kb.kind(), ViewKeyKind::FrameBox);
    }

    #[test]
    fn segment_round_trip_preserves_counters() {
        let mut v = demo_view(ViewKeyKind::FrameBox);
        let b1 = BBox::new(0.0, 0.0, 0.1, 0.1);
        append_rows(
            &mut v,
            &[(ViewKey::frame_box(FrameId(2), &b1), vec![car(0.9)])],
        )
        .unwrap();
        let bytes = crate::segment::encode_segment(&v);
        let back = crate::segment::decode_segment(&bytes, Some(ViewId(1))).unwrap();
        assert_eq!(back.n_keys(), v.n_keys());
        assert_eq!(back.n_rows(), v.n_rows());
        assert_eq!(back.approx_bytes(), v.approx_bytes());
        let (hit, _) = back.fuzzy_probe(FrameId(2), &b1, 0.9);
        assert!(hit.is_some(), "frame index rebuilt on load");
    }

    /// The columnar store against a row-form reference (`Vec<Row>` per key):
    /// generated chunks with zero-row keys, keys repeated inside one chunk
    /// and across chunks, NULLs, all-NULL chunks and `Int`s in the `FLOAT`
    /// column. Probes, counters and the footprint must agree after every
    /// append, and value tags must survive bit for bit.
    #[test]
    fn columnar_store_matches_a_row_form_reference() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };
        let mut v = demo_view(ViewKeyKind::Frame);
        let mut reference: std::collections::BTreeMap<ViewKey, Vec<Row>> = Default::default();
        let mut ref_bytes = 0u64;
        for chunk_no in 0..60 {
            // Chunk 0 is all NULL (the store must adopt a type later), and
            // later all-NULL chunks must not demote the typed columns.
            let all_null = chunk_no % 7 == 0;
            let entries: Vec<(ViewKey, Vec<Row>)> = (0..next(6) + 1)
                .map(|_| {
                    let key = ViewKey::frame(FrameId(next(200)));
                    let rows = (0..next(4))
                        .map(|_| {
                            let label = match next(4) {
                                _ if all_null => Value::Null,
                                0 => Value::Null,
                                n => Value::from(["car", "bus", "van"][n as usize - 1]),
                            };
                            let score = match next(8) {
                                _ if all_null => Value::Null,
                                0 => Value::Null,
                                // Int-in-FLOAT, only once the column is typed.
                                1 if chunk_no > 30 => Value::Int(next(5) as i64),
                                n => Value::Float(n as f64 / 8.0),
                            };
                            vec![label, score]
                        })
                        .collect();
                    (key, rows)
                })
                .collect();
            append_rows(&mut v, &entries).unwrap();
            for (key, rows) in entries {
                if let std::collections::btree_map::Entry::Vacant(e) = reference.entry(key) {
                    let values = rows.iter().flatten();
                    ref_bytes += 8 + values.map(|x| x.encoded_len() as u64).sum::<u64>();
                    e.insert(rows);
                }
            }
            if chunk_no == 30 {
                let typed = |c: &Column| !matches!(c.data(), ColumnData::Mixed(_));
                assert!(
                    v.columns().iter().all(typed),
                    "all-NULL chunks demoted a column"
                );
            }
            assert_eq!(v.n_keys(), reference.len() as u64);
            assert_eq!(
                v.n_rows(),
                reference.values().map(|r| r.len() as u64).sum::<u64>()
            );
            assert_eq!(v.approx_bytes(), ref_bytes);
            let keys: Vec<ViewKey> = (0..205).map(|f| ViewKey::frame(FrameId(f))).collect();
            let hits = v.probe(&keys);
            let want_lens: Vec<Option<u32>> = keys
                .iter()
                .map(|k| reference.get(k).map(|rows| rows.len() as u32))
                .collect();
            assert_eq!(hits.lens, want_lens);
            let want_rows: Vec<Row> = keys
                .iter()
                .filter_map(|k| reference.get(k))
                .flatten()
                .cloned()
                .collect();
            let got_rows = rows_of(&hits.columns);
            assert_eq!(got_rows, want_rows);
            // `Value`'s equality is strict about tags already; pin it anyway.
            for (got, want) in got_rows.iter().flatten().zip(want_rows.iter().flatten()) {
                assert_eq!(std::mem::discriminant(got), std::mem::discriminant(want));
            }
        }
        assert!(
            matches!(v.columns()[1].data(), ColumnData::Mixed(_)),
            "the generator never stored an Int in the FLOAT column"
        );
        // And the whole view survives its own segment, byte for byte.
        let bytes = crate::segment::encode_segment(&v);
        let back = crate::segment::decode_segment(&bytes, Some(ViewId(1))).unwrap();
        assert_eq!(crate::segment::encode_segment(&back), bytes);
        assert_eq!(back.approx_bytes(), v.approx_bytes());
    }

    /// Share of `keys` in the fullest of `2^bits` buckets, relative to a
    /// uniform spread, for the bits hashbrown uses: the low ones pick the
    /// bucket, the top seven are the control byte.
    fn worst_load(keys: &[ViewKey], bits: u32) -> (f64, f64) {
        let build = KeyBuildHasher::default();
        let mut low = vec![0u32; 1 << bits];
        let mut high = vec![0u32; 1 << 7];
        for key in keys {
            let h = build.hash_one(key);
            low[(h & ((1 << bits) - 1)) as usize] += 1;
            high[(h >> 57) as usize] += 1;
        }
        let load = |counts: &[u32]| {
            let uniform = keys.len() as f64 / counts.len() as f64;
            f64::from(*counts.iter().max().unwrap()) / uniform
        };
        (load(&low), load(&high))
    }

    #[test]
    fn key_hasher_spreads_view_keys() {
        let build = KeyBuildHasher::default();
        let k = ViewKey::frame(FrameId(12345));
        assert_eq!(build.hash_one(k), build.hash_one(k), "deterministic");
        assert_eq!(
            build.hash_one(k),
            KeyBuildHasher::default().hash_one(k),
            "no per-table seed"
        );
        // Sequential frame ids — a detector view's whole key set.
        let frames: Vec<ViewKey> = (0..1u64 << 14)
            .map(|f| ViewKey::frame(FrameId(f)))
            .collect();
        // (At a mean of 4 keys per bucket a random spread already peaks
        // above 3x uniform, hence the wider bound for 2^12 buckets.)
        for (bits, bound) in [(4, 1.5), (8, 1.5), (12, 4.0)] {
            let (low, high) = worst_load(&frames, bits);
            assert!(
                low <= bound,
                "2^{bits} buckets: fullest holds {low:.2}x uniform"
            );
            assert!(
                high <= 1.5,
                "control bytes: fullest holds {high:.2}x uniform"
            );
        }
        // The boxes of one frame — what a box-level view sees per frame —
        // and the same small boxes across many frames.
        let boxes: Vec<ViewKey> = (0..1u32 << 10)
            .map(|i| {
                let (x, y) = (
                    f32::from((i % 32) as u8) / 40.0,
                    f32::from((i / 32) as u8) / 40.0,
                );
                ViewKey::frame_box(FrameId(77), &BBox::new(x, y, x + 0.1, y + 0.15))
            })
            .collect();
        for bits in [4, 8] {
            let (low, high) = worst_load(&boxes, bits);
            assert!(
                low <= 2.5,
                "2^{bits} buckets: fullest holds {low:.2}x uniform"
            );
            assert!(
                high <= 2.5,
                "control bytes: fullest holds {high:.2}x uniform"
            );
        }
        let distinct: std::collections::HashSet<u64> = frames
            .iter()
            .chain(&boxes)
            .map(|k| build.hash_one(k))
            .collect();
        assert_eq!(
            distinct.len(),
            frames.len() + boxes.len(),
            "no full-hash collision"
        );
    }
}
