//! The storage engine: datasets, video tables, and the view store.
//!
//! The view store is built for concurrent sessions: views live behind
//! per-view locks in a sharded registry, so probes and appends on
//! different views never contend, and probes on the *same* view share a
//! read lock. Registry shards are only locked for the instant it takes to
//! look up a view's handle. A probe gathers its hit rows out of the view's
//! columns into typed chunks while it holds that read lock, so what it
//! returns is the caller's own: no stored range outlives the lock, and a
//! concurrent append or `clear_views` cannot invalidate a result.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eva_common::metrics::Counter;
use eva_common::sync::RwLock;
use eva_common::{
    Column, ColumnarBatch, CostCategory, DataType, EvaError, FailpointRegistry, Field, FrameId,
    MetricsSink, Result, Schema, SimClock, SpanKind, TraceSink, ViewId,
};
use eva_video::VideoDataset;

use crate::cost::IoCostModel;
use crate::recovery::RecoveryReport;
use crate::segment;
use crate::view::{MaterializedView, ViewDef, ViewHits, ViewKey, ViewKeyKind};

/// Number of registry shards. Sequential view ids round-robin across
/// shards, so concurrent sessions touching different views hit different
/// shard locks even before reaching the per-view locks.
const N_SHARDS: usize = 16;

/// The schema every loaded video table exposes:
/// `(id INT, timestamp INT, frame FRAME)`.
pub fn video_table_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("timestamp", DataType::Int),
        Field::new("frame", DataType::Frame),
    ])
    .expect("static schema is valid")
}

/// A view behind its own lock; handles are shared out of the registry so
/// operations on the view never hold a registry shard lock.
type ViewHandle = Arc<RwLock<MaterializedView>>;

/// One registry shard: view id → view handle.
type Shard = RwLock<BTreeMap<ViewId, ViewHandle>>;

/// Thread-safe storage engine. Cheap to clone (shared state).
#[derive(Debug, Clone, Default)]
pub struct StorageEngine {
    shared: Arc<Shared>,
    cost: IoCostModel,
}

#[derive(Debug)]
struct Shared {
    datasets: RwLock<BTreeMap<String, Arc<VideoDataset>>>,
    shards: [Shard; N_SHARDS],
    next_view_id: AtomicU64,
    /// Engine-wide observability counters. Shared by reference with the
    /// session and executor so storage-level traffic (rows read/written,
    /// frames scanned, shard contention) lands in the same snapshot as the
    /// reuse counters.
    metrics: MetricsSink,
    /// Deterministic fault-injection sites, armed from `EVA_FAILPOINTS` (or
    /// programmatically by chaos tests). Disarmed sites cost one atomic
    /// load on the persistence paths and nothing on the query paths.
    failpoints: FailpointRegistry,
    /// Engine-wide trace sink. Owned here (like the metrics sink) so the
    /// executor's operator spans, the shard-wait spans below and the
    /// segment-IO spans of the persistence path all land in one tree.
    trace: TraceSink,
}

impl Default for Shared {
    fn default() -> Shared {
        Shared {
            datasets: RwLock::new(BTreeMap::new()),
            shards: std::array::from_fn(|_| RwLock::new(BTreeMap::new())),
            next_view_id: AtomicU64::new(0),
            metrics: MetricsSink::new(),
            failpoints: FailpointRegistry::from_env(),
            trace: TraceSink::new(),
        }
    }
}

impl Shared {
    fn shard_of(&self, id: ViewId) -> &Shard {
        &self.shards[id.raw() as usize % N_SHARDS]
    }

    /// Look up a view's handle; the shard lock is released on return.
    /// A contended shard lock is counted before blocking (the only
    /// scheduling-dependent counter — see `MetricsSnapshot::deterministic`).
    fn view(&self, id: ViewId) -> Result<ViewHandle> {
        let shard = self.shard_of(id);
        let guard = match shard.try_read() {
            Some(g) => g,
            None => {
                self.metrics.add(Counter::shard_lock_contention, 1);
                let waited = std::time::Instant::now();
                let g = shard.read();
                self.trace.leaf(
                    SpanKind::ShardWait,
                    "registry_shard",
                    0,
                    waited.elapsed().as_nanos() as u64,
                    1,
                );
                g
            }
        };
        guard
            .get(&id)
            .cloned()
            .ok_or_else(|| EvaError::Storage(format!("unknown view {id}")))
    }
}

impl StorageEngine {
    /// New engine with the default IO cost model.
    pub fn new() -> StorageEngine {
        StorageEngine::default()
    }

    /// New engine with a custom IO cost model.
    pub fn with_cost_model(cost: IoCostModel) -> StorageEngine {
        StorageEngine {
            shared: Arc::default(),
            cost,
        }
    }

    /// The IO cost model in effect.
    pub fn cost_model(&self) -> &IoCostModel {
        &self.cost
    }

    /// The engine-wide metrics sink. Sessions share this sink so storage
    /// traffic and executor reuse counters land in one snapshot.
    pub fn metrics(&self) -> &MetricsSink {
        &self.shared.metrics
    }

    /// The engine-wide trace sink. The executor opens the per-query span
    /// tree through this handle; storage contributes shard-wait and
    /// segment-IO leaf spans to whichever query is active.
    pub fn trace(&self) -> &TraceSink {
        &self.shared.trace
    }

    /// The engine's fault-injection registry. The executor reaches retryable
    /// UDF failures through here too, so one registry (and one seed) governs
    /// a whole session's injected faults.
    pub fn failpoints(&self) -> &FailpointRegistry {
        &self.shared.failpoints
    }

    /// Register a synthetic video dataset (the `LOAD VIDEO` path).
    pub fn load_dataset(&self, dataset: VideoDataset) -> Arc<VideoDataset> {
        let ds = Arc::new(dataset);
        self.shared
            .datasets
            .write()
            .insert(ds.name().to_string(), Arc::clone(&ds));
        ds
    }

    /// Fetch a dataset by name.
    pub fn dataset(&self, name: &str) -> Result<Arc<VideoDataset>> {
        self.shared
            .datasets
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| EvaError::Storage(format!("unknown dataset '{name}'")))
    }

    /// Scan a contiguous frame-id range `[from, to)` of a dataset (clamped
    /// to its length) as three contiguous all-valid `i64` arrays — `(id,
    /// timestamp, frame)` — charging frame-read IO and the `frames_scanned`
    /// counter. An empty range charges nothing.
    pub fn scan_frames_columnar(
        &self,
        dataset: &str,
        from: u64,
        to: u64,
        clock: &SimClock,
    ) -> Result<ColumnarBatch> {
        let ds = self.dataset(dataset)?;
        let to = to.min(ds.len());
        let schema = Arc::new(video_table_schema());
        let n = to.saturating_sub(from) as usize;
        let mut ids = Vec::with_capacity(n);
        let mut timestamps = Vec::with_capacity(n);
        let mut frames = Vec::with_capacity(n);
        for id in from..to {
            let f = ds
                .frame(FrameId(id))
                .ok_or_else(|| EvaError::Storage(format!("missing frame {id}")))?;
            ids.push(id as i64);
            timestamps.push(f.timestamp_ms);
            frames.push(id as i64); // frame payload carried by reference
        }
        if n > 0 {
            clock.charge_n(CostCategory::ReadVideo, n as u64, self.cost.frame_read_ns);
            self.shared.metrics.add(Counter::frames_scanned, n as u64);
        }
        Ok(ColumnarBatch::new(
            schema,
            vec![
                Arc::new(Column::from_ints(ids)),
                Arc::new(Column::from_ints(timestamps)),
                Arc::new(Column::from_ints(frames)),
            ],
            n,
        ))
    }

    /// Create a new, empty materialized view.
    pub fn create_view(
        &self,
        name: impl Into<String>,
        key_kind: ViewKeyKind,
        output_schema: Arc<Schema>,
    ) -> ViewId {
        let id = ViewId(self.shared.next_view_id.fetch_add(1, Ordering::Relaxed) + 1);
        let def = ViewDef {
            id,
            name: name.into(),
            key_kind,
            output_schema,
        };
        self.shared
            .shard_of(id)
            .write()
            .insert(id, Arc::new(RwLock::new(MaterializedView::new(def))));
        id
    }

    /// View metadata.
    pub fn view_def(&self, id: ViewId) -> Result<ViewDef> {
        Ok(self.shared.view(id)?.read().def().clone())
    }

    /// Number of materialized keys in a view.
    pub fn view_n_keys(&self, id: ViewId) -> Result<u64> {
        Ok(self.shared.view(id)?.read().n_keys())
    }

    /// Total output rows in a view.
    pub fn view_n_rows(&self, id: ViewId) -> Result<u64> {
        Ok(self.shared.view(id)?.read().n_rows())
    }

    /// Append one evaluated chunk (STORE operator), charging materialization
    /// IO: `entries` names, in chunk order, each input key and how many
    /// consecutive rows of `chunk` (one typed column per output field) are
    /// its results — see [`MaterializedView::append`]. The chunk is
    /// borrowed: the caller goes on to join the very columns it stored.
    pub fn view_append(
        &self,
        id: ViewId,
        entries: &[(ViewKey, u32)],
        chunk: &[Column],
        clock: &SimClock,
    ) -> Result<()> {
        let handle = self.shared.view(id)?;
        let mut view = match handle.try_write() {
            Some(g) => g,
            None => {
                self.shared.metrics.add(Counter::shard_lock_contention, 1);
                let waited = std::time::Instant::now();
                let g = handle.write();
                self.shared.trace.leaf(
                    SpanKind::ShardWait,
                    "view_write",
                    0,
                    waited.elapsed().as_nanos() as u64,
                    1,
                );
                g
            }
        };
        view.append(entries, chunk)?;
        let written: usize = entries.iter().map(|&(_, n)| n.max(1) as usize).sum();
        clock.charge_n(
            CostCategory::Materialize,
            written as u64,
            self.cost.view_row_write_ns,
        );
        self.shared
            .metrics
            .add(Counter::view_rows_written, written as u64);
        Ok(())
    }

    /// Probe a batch of keys against a view (the LEFT OUTER JOIN read path),
    /// charging `view_join_factor ×` the per-row read cost for probed keys,
    /// per Eq. 3's `3·C_M` model.
    ///
    /// Returns, per key, `Some(row count)` when materialized and `None` when
    /// missing (the conditional-APPLY guard then fires), plus the hit rows
    /// gathered in key order into typed columns — see [`ViewHits`].
    pub fn view_probe(&self, id: ViewId, keys: &[ViewKey], clock: &SimClock) -> Result<ViewHits> {
        let hits = self.view_probe_uncharged(id, keys)?;
        self.charge_view_read(hits.rows_read(), clock);
        Ok(hits)
    }

    /// The probe itself, without touching a clock or a counter — what the
    /// micro-benchmarks time. Index lookups and the gather both run under
    /// the view's one read lock.
    pub fn view_probe_uncharged(&self, id: ViewId, keys: &[ViewKey]) -> Result<ViewHits> {
        let handle = self.shared.view(id)?;
        let hits = handle.read().probe(keys);
        Ok(hits)
    }

    /// Charge the view-read IO for `rows_read` probed rows (the `3·C_M`
    /// model applied by [`StorageEngine::view_probe`]), and record them in
    /// the metrics sink. Probe hits are gathered column to column, so every
    /// row read here was also served without materialising a `Row` (the
    /// `rows_zero_copy` counter). Called on the *caller* thread, like every
    /// clock charge.
    pub fn charge_view_read(&self, rows_read: usize, clock: &SimClock) {
        let rows_read = rows_read as u64;
        let row_ns = self.cost.view_join_factor * self.cost.view_row_read_ns;
        clock.charge_n(CostCategory::ReadView, rows_read, row_ns);
        self.shared.metrics.add(Counter::view_rows_read, rows_read);
        self.shared
            .metrics
            .add(Counter::rows_served_zero_copy, rows_read);
    }

    /// Fuzzy probe of a box-level view (§6 future work): highest-IoU stored
    /// box on the same frame. Charges view-read IO for the candidates
    /// scanned plus the matched rows.
    pub fn view_probe_fuzzy(
        &self,
        id: ViewId,
        frame: FrameId,
        bbox: &eva_common::BBox,
        min_iou: f32,
        clock: &SimClock,
    ) -> Result<Option<ViewHits>> {
        let handle = self.shared.view(id)?;
        let (hits, scanned) = handle.read().fuzzy_probe(frame, bbox, min_iou);
        let matched = hits.as_ref().map_or(0, ViewHits::n_rows);
        let read = scanned + matched;
        clock.charge_n(
            CostCategory::ReadView,
            read as u64,
            self.cost.view_row_read_ns,
        );
        self.shared
            .metrics
            .add(Counter::view_rows_read, read as u64);
        self.shared
            .metrics
            .add(Counter::rows_served_zero_copy, matched as u64);
        Ok(hits)
    }

    /// Does the view contain the key? (No IO charge — membership is answered
    /// by the in-memory hash/index.)
    pub fn view_contains(&self, id: ViewId, key: &ViewKey) -> Result<bool> {
        Ok(self.shared.view(id)?.read().contains(key))
    }

    /// Total approximate bytes across all views (the storage-footprint
    /// metric of §5.2). O(number of views): each view keeps a running
    /// counter.
    pub fn total_view_bytes(&self) -> u64 {
        self.shared
            .shards
            .iter()
            .map(|shard| {
                shard
                    .read()
                    .values()
                    .map(|v| v.read().approx_bytes())
                    .sum::<u64>()
            })
            .sum()
    }

    /// Snapshot of all view definitions, in view-id order.
    pub fn view_defs(&self) -> Vec<ViewDef> {
        let mut defs: Vec<ViewDef> = self
            .shared
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .read()
                    .values()
                    .map(|v| v.read().def().clone())
                    .collect::<Vec<_>>()
            })
            .collect();
        defs.sort_by_key(|d| d.id);
        defs
    }

    /// Drop every view (clean-state workload restarts).
    pub fn clear_views(&self) {
        for shard in &self.shared.shards {
            shard.write().clear();
        }
    }

    /// Persist all views to a directory as checksummed segment files (one
    /// per view, see [`segment`]), each written crash-safely via tmp-file +
    /// fsync + atomic rename. The manifest is written **last**, so a crash
    /// at any point leaves either the previous store or the new one —
    /// segments from the interrupted save self-validate and are picked up
    /// by the recovery scan. Datasets are *not* persisted — they regenerate
    /// from seeds.
    pub fn save_views(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        let fp = &self.shared.failpoints;
        let mut handles: Vec<(ViewId, ViewHandle)> = Vec::new();
        for shard in &self.shared.shards {
            for (id, handle) in shard.read().iter() {
                handles.push((*id, Arc::clone(handle)));
            }
        }
        handles.sort_by_key(|(id, _)| *id);
        let mut index = Vec::new();
        for (id, handle) in handles {
            let started = std::time::Instant::now();
            let name = segment::segment_file_name(id);
            let bytes = segment::encode_segment(&handle.read());
            let n_bytes = bytes.len() as u64;
            segment::write_atomic(dir, &name, &bytes, fp)?;
            self.shared.trace.leaf(
                SpanKind::SegmentIo,
                &name,
                0,
                started.elapsed().as_nanos() as u64,
                n_bytes,
            );
            index.push(id.raw());
        }
        let next_id = self.shared.next_view_id.load(Ordering::Relaxed);
        let manifest = segment::encode_manifest(next_id, &index);
        let started = std::time::Instant::now();
        let n_bytes = manifest.len() as u64;
        segment::write_atomic(dir, segment::MANIFEST_FILE, &manifest, fp)?;
        self.shared.trace.leaf(
            SpanKind::SegmentIo,
            segment::MANIFEST_FILE,
            0,
            started.elapsed().as_nanos() as u64,
            n_bytes,
        );
        Ok(())
    }

    /// Load views previously saved with [`StorageEngine::save_views`] — as a
    /// *recovery pass*: leftover `.tmp` files are removed, every segment's
    /// checksum and header are verified, and segments that fail validation
    /// are renamed aside (quarantined) instead of aborting the load. A
    /// quarantined view is simply cold: the planner's conditional-APPLY
    /// path recomputes it on demand. When the manifest itself is missing or
    /// damaged, the pass falls back to scanning the directory for segment
    /// files. A missing directory is still an `Io` error — there is nothing
    /// to recover from.
    ///
    /// The load *replaces* the engine's views: once the directory opens,
    /// every live view is dropped, so a restored view never shares an id
    /// with one the store did not hold. (A missing directory leaves the
    /// engine untouched.)
    pub fn load_views(&self, dir: &Path) -> Result<RecoveryReport> {
        let mut report = RecoveryReport::new(dir);
        let mut seg_files: Vec<u64> = Vec::new();
        let listing = std::fs::read_dir(dir)?;
        self.clear_views();
        for entry in listing {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(segment::TMP_SUFFIX) {
                // Leftover from a write that never reached its rename.
                if std::fs::remove_file(entry.path()).is_ok() {
                    report.tmp_cleaned += 1;
                }
            } else if let Some(raw) = segment::parse_segment_file_name(&name) {
                seg_files.push(raw);
            }
        }
        seg_files.sort_unstable();

        // Prefer the manifest; fall back to the directory scan when it is
        // absent or fails validation (e.g. the crash hit the manifest write).
        let mut next_id = 0u64;
        let ids = match std::fs::read(dir.join(segment::MANIFEST_FILE))
            .map_err(EvaError::from)
            .and_then(|bytes| segment::decode_manifest(&bytes))
        {
            Ok((next, ids)) => {
                next_id = next;
                ids
            }
            Err(_) => {
                report.manifest_fallback = true;
                seg_files.clone()
            }
        };

        for raw in ids {
            let id = ViewId(raw);
            let name = segment::segment_file_name(id);
            let path = dir.join(&name);
            let started = std::time::Instant::now();
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    report.quarantine(Some(id), path, format!("segment unreadable: {e}"));
                    continue;
                }
            };
            self.shared.trace.leaf(
                SpanKind::SegmentIo,
                &name,
                0,
                started.elapsed().as_nanos() as u64,
                bytes.len() as u64,
            );
            match segment::decode_segment(&bytes, Some(id)) {
                Ok(view) => {
                    self.shared
                        .shard_of(id)
                        .write()
                        .insert(id, Arc::new(RwLock::new(view)));
                    report.loaded.push(id);
                    next_id = next_id.max(raw);
                }
                Err(e) => {
                    let moved = segment::quarantine_file(&path);
                    report.quarantine(Some(id), moved, e.message().to_string());
                    next_id = next_id.max(raw);
                }
            }
        }
        self.shared
            .next_view_id
            .fetch_max(next_id, Ordering::Relaxed);
        let metrics = &self.shared.metrics;
        metrics.add(Counter::views_recovered, report.loaded.len() as u64);
        metrics.add(Counter::views_quarantined, report.quarantined.len() as u64);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_common::Value;
    use eva_video::generator::generate;
    use eva_video::VideoConfig;

    fn tiny_dataset(name: &str) -> VideoDataset {
        generate(VideoConfig {
            name: name.into(),
            n_frames: 100,
            width: 100,
            height: 100,
            fps: 25.0,
            target_density: 2.0,
            person_fraction: 0.0,
            seed: 5,
        })
    }

    fn out_schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![Field::new("label", DataType::Str)]).unwrap())
    }

    /// A one-column chunk of labels, one row each.
    fn labels(labels: &[&str]) -> Vec<Column> {
        let values: Vec<Value> = labels.iter().map(|l| Value::from(*l)).collect();
        vec![Column::from_values(&values)]
    }

    #[test]
    fn scan_charges_read_cost() {
        let eng = StorageEngine::new();
        eng.load_dataset(tiny_dataset("v"));
        let clock = SimClock::new();
        let b = eng.scan_frames_columnar("v", 10, 20, &clock).unwrap();
        assert_eq!(b.len(), 10);
        assert_eq!(b.column(0).value_at(0), Value::Int(10));
        assert_eq!(clock.snapshot().get(CostCategory::ReadVideo), 18.0);
        // Out-of-range scans clamp, and an empty range is free.
        let b = eng.scan_frames_columnar("v", 95, 200, &clock).unwrap();
        assert_eq!(b.len(), 5);
        let b = eng.scan_frames_columnar("v", 300, 400, &clock).unwrap();
        assert!(b.is_empty());
        assert_eq!(
            clock.snapshot().get_ns(CostCategory::ReadVideo),
            15 * 1_800_000
        );
        assert_eq!(eng.metrics().snapshot().frames_scanned, 15);
        assert!(eng.scan_frames_columnar("missing", 0, 1, &clock).is_err());
    }

    #[test]
    fn view_lifecycle_and_probe_costs() {
        let eng = StorageEngine::new();
        let clock = SimClock::new();
        let id = eng.create_view("det", ViewKeyKind::Frame, out_schema());
        let k0 = ViewKey::frame(FrameId(0));
        let k1 = ViewKey::frame(FrameId(1));
        eng.view_append(id, &[(k0, 1)], &labels(&["car"]), &clock)
            .unwrap();
        assert_eq!(eng.view_n_keys(id).unwrap(), 1);
        assert_eq!(eng.view_n_rows(id).unwrap(), 1);

        let probed = eng.view_probe(id, &[k0, k1], &clock).unwrap();
        assert_eq!(probed.lens, vec![Some(1), None]);
        let s = clock.snapshot();
        assert!(s.get(CostCategory::Materialize) > 0.0);
        assert!(s.get(CostCategory::ReadView) > 0.0);
        // Join factor of 3 applied to one row read at 0.05ms.
        assert_eq!(s.get_ns(CostCategory::ReadView), 150_000);
    }

    #[test]
    fn probe_hits_equal_the_appended_rows() {
        let eng = StorageEngine::new();
        let clock = SimClock::new();
        let id = eng.create_view("det", ViewKeyKind::Frame, out_schema());
        let keys: Vec<ViewKey> = (0..3).map(|f| ViewKey::frame(FrameId(f))).collect();
        let chunk = labels(&["car", "bus", "van"]);
        // Key 1 produced nothing; key 2 owns the last two rows.
        let entries = [(keys[0], 1), (keys[1], 0), (keys[2], 2)];
        eng.view_append(id, &entries, &chunk, &clock).unwrap();
        let hits = eng.view_probe(id, &keys, &clock).unwrap();
        assert_eq!(hits.lens, vec![Some(1), Some(0), Some(2)]);
        assert_eq!(
            hits.columns, chunk,
            "gathered hit rows equal the appended rows"
        );
        // A probe's result is its own: a later append or clear leaves it be.
        eng.clear_views();
        assert_eq!(hits.columns, chunk);
    }

    #[test]
    fn uncharged_probe_reports_rows_read() {
        let eng = StorageEngine::new();
        let clock = SimClock::new();
        let id = eng.create_view("det", ViewKeyKind::Frame, out_schema());
        let k0 = ViewKey::frame(FrameId(0));
        let k1 = ViewKey::frame(FrameId(1));
        eng.view_append(id, &[(k0, 1)], &labels(&["car"]), &clock)
            .unwrap();
        let before = clock.snapshot();
        let hits = eng.view_probe_uncharged(id, &[k0, k1]).unwrap();
        assert_eq!(hits.lens.len(), 2);
        assert_eq!(hits.rows_read(), 1);
        assert_eq!(
            clock.snapshot().get(CostCategory::ReadView),
            before.get(CostCategory::ReadView),
            "uncharged probe must not touch the clock"
        );
        eng.charge_view_read(hits.rows_read(), &clock);
        assert_eq!(clock.snapshot().get(CostCategory::ReadView), 0.15);
    }

    #[test]
    fn metrics_record_storage_traffic() {
        let eng = StorageEngine::new();
        eng.load_dataset(tiny_dataset("v"));
        let clock = SimClock::new();
        eng.scan_frames_columnar("v", 0, 10, &clock).unwrap();
        let id = eng.create_view("det", ViewKeyKind::Frame, out_schema());
        let k0 = ViewKey::frame(FrameId(0));
        let k1 = ViewKey::frame(FrameId(1));
        eng.view_append(id, &[(k0, 1)], &labels(&["car"]), &clock)
            .unwrap();
        eng.view_probe(id, &[k0, k1], &clock).unwrap();
        let m = eng.metrics().snapshot();
        assert_eq!(m.frames_scanned, 10);
        assert_eq!(m.view_rows_written, 1);
        assert_eq!(m.view_rows_read, 1);
        assert_eq!(m.rows_served_zero_copy, 1);
        eng.metrics().reset();
        assert_eq!(eng.metrics().snapshot(), Default::default());
    }

    #[test]
    fn unknown_view_errors() {
        let eng = StorageEngine::new();
        let clock = SimClock::new();
        assert!(eng.view_probe(ViewId(99), &[], &clock).is_err());
        assert!(eng.view_n_keys(ViewId(99)).is_err());
        assert!(eng.view_append(ViewId(99), &[], &[], &clock).is_err());
    }

    #[test]
    fn footprint_accumulates_across_views() {
        let eng = StorageEngine::new();
        let clock = SimClock::new();
        let a = eng.create_view("a", ViewKeyKind::Frame, out_schema());
        let b = eng.create_view("b", ViewKeyKind::Frame, out_schema());
        let k0 = ViewKey::frame(FrameId(0));
        eng.view_append(a, &[(k0, 1)], &labels(&["car"]), &clock)
            .unwrap();
        eng.view_append(b, &[(k0, 1)], &labels(&["bus"]), &clock)
            .unwrap();
        assert!(eng.total_view_bytes() > 0);
        assert_eq!(eng.view_defs().len(), 2);
        eng.clear_views();
        assert_eq!(eng.total_view_bytes(), 0);
    }

    #[test]
    fn view_ids_are_unique_across_threads() {
        let eng = StorageEngine::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let eng = eng.clone();
            handles.push(std::thread::spawn(move || {
                (0..32)
                    .map(|i| eng.create_view(format!("v{i}"), ViewKeyKind::Frame, out_schema()))
                    .collect::<Vec<_>>()
            }));
        }
        let mut ids: Vec<ViewId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        ids.sort();
        ids.dedup();
        assert_eq!(
            ids.len(),
            4 * 32,
            "concurrent create_view must not reuse ids"
        );
        assert_eq!(eng.view_defs().len(), 4 * 32);
    }

    #[test]
    fn persistence_round_trip() {
        let dir = eva_common::testutil::unique_temp_dir("engine_persistence_round_trip");
        let eng = StorageEngine::new();
        let clock = SimClock::new();
        let id = eng.create_view("det", ViewKeyKind::Frame, out_schema());
        let k7 = ViewKey::frame(FrameId(7));
        eng.view_append(id, &[(k7, 1)], &labels(&["car"]), &clock)
            .unwrap();
        eng.save_views(&dir).unwrap();

        let eng2 = StorageEngine::new();
        eng2.load_views(&dir).unwrap();
        assert_eq!(eng2.view_n_keys(id).unwrap(), 1);
        let probed = eng2.view_probe(id, &[k7], &clock).unwrap();
        assert_eq!(probed.lens, vec![Some(1)]);
        assert_eq!(probed.columns, labels(&["car"]));
        // New views get fresh ids after load.
        let id2 = eng2.create_view("x", ViewKeyKind::Frame, out_schema());
        assert!(id2.raw() > id.raw());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
