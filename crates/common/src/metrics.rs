//! Runtime observability counters.
//!
//! The paper's argument is entirely about *where time goes* — UDF cost
//! avoided through materialized-view reuse — so the engine keeps a set of
//! always-on counters next to the [`SimClock`](crate::SimClock): UDF
//! invocations executed vs. avoided, view probe hits/misses/fuzzy hits, rows
//! served zero-copy, and storage-level traffic. `EXPLAIN ANALYZE` and the
//! benchmark JSON exporters both read from here.
//!
//! ## Caller-thread charging rule
//!
//! Counters follow the same discipline as the virtual clock: **worker threads
//! never record metrics**. Uncharged helpers (e.g.
//! `StorageEngine::view_probe_uncharged`) return the counts they observed and
//! the *caller* records them exactly once. This makes parallel and serial
//! executions of the same workload report bit-identical counter totals, which
//! is what the identity tests pin down. The only exception is
//! [`shard_lock_contention`](MetricsSnapshot::shard_lock_contention), which is
//! inherently scheduling-dependent; [`MetricsSnapshot::deterministic`] masks
//! it for comparisons.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock::CostBreakdown;
use crate::json::Json;

/// Immutable snapshot of the engine-wide counters.
///
/// This is the `metrics` section embedded in every `BENCH_*.json` and the
/// totals footer of `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// UDF invocations the plan asked for: executed + avoided.
    pub udf_calls_requested: u64,
    /// Invocations that actually ran the (simulated) model.
    pub udf_calls_executed: u64,
    /// Invocations satisfied from a materialized view or cache.
    pub udf_calls_avoided: u64,
    /// Simulated milliseconds the avoided invocations would have cost.
    pub udf_ms_avoided: f64,
    /// View probe keys looked up (exact + fuzzy passes).
    pub probes: u64,
    /// Probe keys resolved from materialized state.
    pub probe_hits: u64,
    /// Probe keys that missed and fell through to evaluation.
    pub probe_misses: u64,
    /// Subset of `probe_hits` resolved by the fuzzy (IoU) fallback.
    pub fuzzy_hits: u64,
    /// Rows served from stored columns without materialising a `Row`: view
    /// hits are gathered column to column (FunCache hits, which count here
    /// too, share the table's rows).
    pub rows_served_zero_copy: u64,
    /// FunCache baseline lookups that hit.
    pub funcache_hits: u64,
    /// FunCache baseline lookups that missed.
    pub funcache_misses: u64,
    /// Rows read out of materialized views.
    pub view_rows_read: u64,
    /// Rows appended to materialized views (STORE).
    pub view_rows_written: u64,
    /// Video frames decoded by scans.
    pub frames_scanned: u64,
    /// Batches emitted in columnar form by executor operators. Deterministic:
    /// depends only on the plan, the data, and the configured batch size.
    pub columnar_batches: u64,
    /// Rows carried by those columnar batches (post-selection counts).
    pub columnar_rows: u64,
    /// Rows materialized from columnar to row form at the output boundary
    /// (the engine's result collection).
    pub rows_pivoted: u64,
    /// View segments loaded and checksum-verified by a recovery pass.
    pub views_recovered: u64,
    /// View segments quarantined (corrupt, torn, or unreadable) by a
    /// recovery pass. Quarantined views are simply cold: the conditional
    /// APPLY path recomputes and re-stores them.
    pub views_quarantined: u64,
    /// Transient UDF failures that were retried.
    pub udf_retries: u64,
    /// UDF invocations abandoned after exhausting the retry budget.
    pub udf_gave_up: u64,
    /// Morsels dispatched by parallel pipelines. Deterministic: the morsel
    /// count depends only on the scan range and the configured morsel size,
    /// never on worker scheduling.
    pub morsels_dispatched: u64,
    /// Morsels executed by a lane other than the one they were assigned to
    /// (work stealing). **Nondeterministic** — depends on thread scheduling;
    /// masked by [`deterministic`](MetricsSnapshot::deterministic).
    pub morsels_stolen: u64,
    /// Pipeline segments that ran morsel-parallel (one per engaged
    /// `ParallelPipelineOp` execution). Deterministic: engagement depends
    /// only on the plan shape, the config thresholds, and the row count.
    pub parallel_pipelines: u64,
    /// Queries that entered graceful degradation instead of failing when
    /// their memory budget tripped (streaming aggregation, materialization
    /// skipped). Deterministic: the budget verdict is a pure function of
    /// the workload and the configured budget.
    pub degraded_queries: u64,
    /// View-materialization commits dropped because the owning query
    /// degraded (or was cancelled) — the coverage predicate was never
    /// claimed, so later plans recompute instead of trusting partial state.
    pub materialization_skipped: u64,
    /// UDF circuit-breaker transitions to *open* (fail-fast) after K
    /// consecutive retry-budget exhaustions. Deterministic: driven by the
    /// seeded failpoint schedule and the SimClock cooldown timer.
    pub udf_breaker_open: u64,
    /// UDF circuit-breaker transitions to *half-open* (one probe allowed)
    /// once the SimClock cooldown elapses.
    pub udf_breaker_halfopen: u64,
    /// Queries granted an admission slot (recorded outside the per-query
    /// metrics window, so per-query deltas are unaffected).
    pub queries_admitted: u64,
    /// Queries refused by the admission controller: queue overflow past the
    /// high-water mark, or a queue-deadline timeout.
    pub queries_shed: u64,
    /// Worker-pool size the session ran with — a gauge, not a counter, so
    /// experiments record the core count behind their wall numbers.
    /// **Machine-dependent**; masked by
    /// [`deterministic`](MetricsSnapshot::deterministic) and excluded from
    /// [`named_counters`](MetricsSnapshot::named_counters).
    pub n_workers: u64,
    /// Times a shard lock was observed contended (`try_read`/`try_write`
    /// failed and the caller had to block). **Nondeterministic** — depends on
    /// thread scheduling; excluded from identity comparisons via
    /// [`deterministic`](MetricsSnapshot::deterministic).
    pub shard_lock_contention: u64,
}

impl MetricsSnapshot {
    /// Counter-wise difference (`self - earlier`); attributes activity to a
    /// single query by snapshotting before and after, like
    /// [`CostBreakdown::since`].
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            udf_calls_requested: self.udf_calls_requested - earlier.udf_calls_requested,
            udf_calls_executed: self.udf_calls_executed - earlier.udf_calls_executed,
            udf_calls_avoided: self.udf_calls_avoided - earlier.udf_calls_avoided,
            udf_ms_avoided: (self.udf_ms_avoided - earlier.udf_ms_avoided).max(0.0),
            probes: self.probes - earlier.probes,
            probe_hits: self.probe_hits - earlier.probe_hits,
            probe_misses: self.probe_misses - earlier.probe_misses,
            fuzzy_hits: self.fuzzy_hits - earlier.fuzzy_hits,
            rows_served_zero_copy: self.rows_served_zero_copy - earlier.rows_served_zero_copy,
            funcache_hits: self.funcache_hits - earlier.funcache_hits,
            funcache_misses: self.funcache_misses - earlier.funcache_misses,
            view_rows_read: self.view_rows_read - earlier.view_rows_read,
            view_rows_written: self.view_rows_written - earlier.view_rows_written,
            frames_scanned: self.frames_scanned - earlier.frames_scanned,
            columnar_batches: self.columnar_batches - earlier.columnar_batches,
            columnar_rows: self.columnar_rows - earlier.columnar_rows,
            rows_pivoted: self.rows_pivoted - earlier.rows_pivoted,
            views_recovered: self.views_recovered - earlier.views_recovered,
            views_quarantined: self.views_quarantined - earlier.views_quarantined,
            udf_retries: self.udf_retries - earlier.udf_retries,
            udf_gave_up: self.udf_gave_up - earlier.udf_gave_up,
            morsels_dispatched: self.morsels_dispatched - earlier.morsels_dispatched,
            morsels_stolen: self.morsels_stolen.saturating_sub(earlier.morsels_stolen),
            parallel_pipelines: self.parallel_pipelines - earlier.parallel_pipelines,
            degraded_queries: self.degraded_queries - earlier.degraded_queries,
            materialization_skipped: self.materialization_skipped - earlier.materialization_skipped,
            udf_breaker_open: self.udf_breaker_open - earlier.udf_breaker_open,
            udf_breaker_halfopen: self.udf_breaker_halfopen - earlier.udf_breaker_halfopen,
            queries_admitted: self.queries_admitted - earlier.queries_admitted,
            queries_shed: self.queries_shed - earlier.queries_shed,
            n_workers: self.n_workers.saturating_sub(earlier.n_workers),
            shard_lock_contention: self
                .shard_lock_contention
                .saturating_sub(earlier.shard_lock_contention),
        }
    }

    /// Counter-wise sum.
    pub fn plus(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            udf_calls_requested: self.udf_calls_requested + other.udf_calls_requested,
            udf_calls_executed: self.udf_calls_executed + other.udf_calls_executed,
            udf_calls_avoided: self.udf_calls_avoided + other.udf_calls_avoided,
            udf_ms_avoided: self.udf_ms_avoided + other.udf_ms_avoided,
            probes: self.probes + other.probes,
            probe_hits: self.probe_hits + other.probe_hits,
            probe_misses: self.probe_misses + other.probe_misses,
            fuzzy_hits: self.fuzzy_hits + other.fuzzy_hits,
            rows_served_zero_copy: self.rows_served_zero_copy + other.rows_served_zero_copy,
            funcache_hits: self.funcache_hits + other.funcache_hits,
            funcache_misses: self.funcache_misses + other.funcache_misses,
            view_rows_read: self.view_rows_read + other.view_rows_read,
            view_rows_written: self.view_rows_written + other.view_rows_written,
            frames_scanned: self.frames_scanned + other.frames_scanned,
            columnar_batches: self.columnar_batches + other.columnar_batches,
            columnar_rows: self.columnar_rows + other.columnar_rows,
            rows_pivoted: self.rows_pivoted + other.rows_pivoted,
            views_recovered: self.views_recovered + other.views_recovered,
            views_quarantined: self.views_quarantined + other.views_quarantined,
            udf_retries: self.udf_retries + other.udf_retries,
            udf_gave_up: self.udf_gave_up + other.udf_gave_up,
            morsels_dispatched: self.morsels_dispatched + other.morsels_dispatched,
            morsels_stolen: self.morsels_stolen + other.morsels_stolen,
            parallel_pipelines: self.parallel_pipelines + other.parallel_pipelines,
            degraded_queries: self.degraded_queries + other.degraded_queries,
            materialization_skipped: self.materialization_skipped + other.materialization_skipped,
            udf_breaker_open: self.udf_breaker_open + other.udf_breaker_open,
            udf_breaker_halfopen: self.udf_breaker_halfopen + other.udf_breaker_halfopen,
            queries_admitted: self.queries_admitted + other.queries_admitted,
            queries_shed: self.queries_shed + other.queries_shed,
            n_workers: self.n_workers + other.n_workers,
            shard_lock_contention: self.shard_lock_contention + other.shard_lock_contention,
        }
    }

    /// Fraction of probes that hit, in `[0, 1]`; 0 when nothing was probed.
    pub fn probe_hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.probe_hits as f64 / self.probes as f64
        }
    }

    /// Fraction of requested UDF calls that were avoided, in `[0, 1]`.
    pub fn reuse_rate(&self) -> f64 {
        if self.udf_calls_requested == 0 {
            0.0
        } else {
            self.udf_calls_avoided as f64 / self.udf_calls_requested as f64
        }
    }

    /// Copy with the scheduling-dependent counters zeroed, safe to compare
    /// bit-for-bit between parallel and serial runs.
    pub fn deterministic(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            shard_lock_contention: 0,
            morsels_stolen: 0,
            n_workers: 0,
            ..*self
        }
    }

    /// Every counter as a `(stable_name, value)` pair, in declaration
    /// order — the single source of truth for the Prometheus exporter and
    /// the perf-gate baseline diff, so adding a counter automatically
    /// surfaces it everywhere.
    pub fn named_counters(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("udf_calls_requested", self.udf_calls_requested as f64),
            ("udf_calls_executed", self.udf_calls_executed as f64),
            ("udf_calls_avoided", self.udf_calls_avoided as f64),
            ("udf_ms_avoided", self.udf_ms_avoided),
            ("probes", self.probes as f64),
            ("probe_hits", self.probe_hits as f64),
            ("probe_misses", self.probe_misses as f64),
            ("fuzzy_hits", self.fuzzy_hits as f64),
            ("rows_served_zero_copy", self.rows_served_zero_copy as f64),
            ("funcache_hits", self.funcache_hits as f64),
            ("funcache_misses", self.funcache_misses as f64),
            ("view_rows_read", self.view_rows_read as f64),
            ("view_rows_written", self.view_rows_written as f64),
            ("frames_scanned", self.frames_scanned as f64),
            ("columnar_batches", self.columnar_batches as f64),
            ("columnar_rows", self.columnar_rows as f64),
            ("rows_pivoted", self.rows_pivoted as f64),
            ("views_recovered", self.views_recovered as f64),
            ("views_quarantined", self.views_quarantined as f64),
            ("udf_retries", self.udf_retries as f64),
            ("udf_gave_up", self.udf_gave_up as f64),
            ("morsels_dispatched", self.morsels_dispatched as f64),
            ("morsels_stolen", self.morsels_stolen as f64),
            ("parallel_pipelines", self.parallel_pipelines as f64),
            // `n_workers` is deliberately absent: it is a machine-dependent
            // gauge, and this list feeds the cross-machine perf-gate diff.
            ("degraded_queries", self.degraded_queries as f64),
            (
                "materialization_skipped",
                self.materialization_skipped as f64,
            ),
            ("udf_breaker_open", self.udf_breaker_open as f64),
            ("udf_breaker_halfopen", self.udf_breaker_halfopen as f64),
            ("queries_admitted", self.queries_admitted as f64),
            ("queries_shed", self.queries_shed as f64),
            ("shard_lock_contention", self.shard_lock_contention as f64),
        ]
    }

    /// The `metrics` section of the benchmark JSON artifacts: every named
    /// counter (integers, except the simulated `udf_ms_avoided`) plus the
    /// `n_workers` gauge the wall numbers were taken with.
    pub fn to_json(&self) -> Json {
        let counters = self.named_counters().into_iter().map(|(name, v)| {
            let v = if name == "udf_ms_avoided" {
                Json::Num(v)
            } else {
                Json::U64(v as u64)
            };
            (name, v)
        });
        Json::obj(counters.chain([("n_workers", Json::U64(self.n_workers))]))
    }
}

#[derive(Debug, Default)]
struct Inner {
    udf_calls_requested: AtomicU64,
    udf_calls_executed: AtomicU64,
    udf_calls_avoided: AtomicU64,
    /// f64 bit pattern; updated by CAS (eva-common has no mutex dependency).
    udf_ms_avoided_bits: AtomicU64,
    probes: AtomicU64,
    probe_hits: AtomicU64,
    probe_misses: AtomicU64,
    fuzzy_hits: AtomicU64,
    rows_served_zero_copy: AtomicU64,
    funcache_hits: AtomicU64,
    funcache_misses: AtomicU64,
    view_rows_read: AtomicU64,
    view_rows_written: AtomicU64,
    frames_scanned: AtomicU64,
    columnar_batches: AtomicU64,
    columnar_rows: AtomicU64,
    rows_pivoted: AtomicU64,
    views_recovered: AtomicU64,
    views_quarantined: AtomicU64,
    udf_retries: AtomicU64,
    udf_gave_up: AtomicU64,
    morsels_dispatched: AtomicU64,
    morsels_stolen: AtomicU64,
    parallel_pipelines: AtomicU64,
    degraded_queries: AtomicU64,
    materialization_skipped: AtomicU64,
    udf_breaker_open: AtomicU64,
    udf_breaker_halfopen: AtomicU64,
    queries_admitted: AtomicU64,
    queries_shed: AtomicU64,
    n_workers: AtomicU64,
    shard_lock_contention: AtomicU64,
}

/// Engine-wide metrics sink: atomic counters shared by the session, the
/// executor and the storage engine. Cheap to clone (`Arc` inside), `Sync`.
///
/// Despite being thread-safe, the charging discipline is single-threaded by
/// convention — see the module docs. Thread safety exists so one sink can be
/// *owned* by shared structures (the storage engine), not so workers can race
/// on it.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    inner: Arc<Inner>,
}

impl MetricsSink {
    /// Fresh sink at zero.
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }

    /// Record the outcome of one batched probe pass: `probes` keys looked
    /// up, `hits` of them resolved (of which `fuzzy_hits` via the IoU
    /// fallback). Misses are derived (`probes - hits`).
    pub fn record_probe_batch(&self, probes: u64, hits: u64, fuzzy_hits: u64) {
        debug_assert!(hits <= probes, "more hits than probes");
        debug_assert!(fuzzy_hits <= hits, "fuzzy hits exceed hits");
        self.inner.probes.fetch_add(probes, Ordering::Relaxed);
        self.inner.probe_hits.fetch_add(hits, Ordering::Relaxed);
        self.inner
            .probe_misses
            .fetch_add(probes - hits, Ordering::Relaxed);
        self.inner
            .fuzzy_hits
            .fetch_add(fuzzy_hits, Ordering::Relaxed);
    }

    /// Record UDF invocations: `executed` ran the model, `avoided` were
    /// served from materialized state, `ms_avoided` is the simulated cost
    /// the avoided calls would have paid. Requested = executed + avoided.
    pub fn record_udf_calls(&self, executed: u64, avoided: u64, ms_avoided: f64) {
        self.inner
            .udf_calls_requested
            .fetch_add(executed + avoided, Ordering::Relaxed);
        self.inner
            .udf_calls_executed
            .fetch_add(executed, Ordering::Relaxed);
        self.inner
            .udf_calls_avoided
            .fetch_add(avoided, Ordering::Relaxed);
        if ms_avoided > 0.0 {
            self.add_ms_avoided(ms_avoided);
        }
    }

    /// Record rows served from stored columns without materialising a `Row`.
    pub fn record_zero_copy_rows(&self, rows: u64) {
        self.inner
            .rows_served_zero_copy
            .fetch_add(rows, Ordering::Relaxed);
    }

    /// Record FunCache lookup outcomes.
    pub fn record_funcache(&self, hits: u64, misses: u64) {
        self.inner.funcache_hits.fetch_add(hits, Ordering::Relaxed);
        self.inner
            .funcache_misses
            .fetch_add(misses, Ordering::Relaxed);
    }

    /// Record rows read from a materialized view.
    pub fn record_view_rows_read(&self, rows: u64) {
        self.inner.view_rows_read.fetch_add(rows, Ordering::Relaxed);
    }

    /// Record rows appended to a materialized view.
    pub fn record_view_rows_written(&self, rows: u64) {
        self.inner
            .view_rows_written
            .fetch_add(rows, Ordering::Relaxed);
    }

    /// Record decoded video frames.
    pub fn record_frames_scanned(&self, frames: u64) {
        self.inner
            .frames_scanned
            .fetch_add(frames, Ordering::Relaxed);
    }

    /// Record one batch emitted in columnar form by an executor operator
    /// (`rows` = its post-selection row count). Charged on the caller
    /// thread like every other counter.
    pub fn record_columnar_batch(&self, rows: u64) {
        self.inner.columnar_batches.fetch_add(1, Ordering::Relaxed);
        self.inner.columnar_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Record rows materialized from columnar to row form at the output
    /// boundary (the engine's result collection).
    pub fn record_rows_pivoted(&self, rows: u64) {
        self.inner.rows_pivoted.fetch_add(rows, Ordering::Relaxed);
    }

    /// Record a recovery pass over a persisted store: `recovered` segments
    /// loaded and verified, `quarantined` segments set aside as corrupt.
    pub fn record_recovery(&self, recovered: u64, quarantined: u64) {
        self.inner
            .views_recovered
            .fetch_add(recovered, Ordering::Relaxed);
        self.inner
            .views_quarantined
            .fetch_add(quarantined, Ordering::Relaxed);
    }

    /// Record transient-UDF retry outcomes: `retries` attempts repeated,
    /// `gave_up` invocations abandoned after the budget ran out.
    pub fn record_udf_retries(&self, retries: u64, gave_up: u64) {
        self.inner.udf_retries.fetch_add(retries, Ordering::Relaxed);
        self.inner.udf_gave_up.fetch_add(gave_up, Ordering::Relaxed);
    }

    /// Record one engaged parallel pipeline segment and the morsels it
    /// dispatched. Charged once, on the caller thread, after the workers
    /// have returned — both values are deterministic.
    pub fn record_parallel_pipeline(&self, morsels: u64) {
        self.inner
            .parallel_pipelines
            .fetch_add(1, Ordering::Relaxed);
        self.inner
            .morsels_dispatched
            .fetch_add(morsels, Ordering::Relaxed);
    }

    /// Record morsels that were stolen across lanes. Nondeterministic by
    /// nature (pure scheduling); see [`MetricsSnapshot::deterministic`].
    pub fn record_morsels_stolen(&self, stolen: u64) {
        self.inner
            .morsels_stolen
            .fetch_add(stolen, Ordering::Relaxed);
    }

    /// Record the worker-pool size the session is running with (a gauge:
    /// the latest value wins).
    pub fn set_n_workers(&self, n: u64) {
        self.inner.n_workers.store(n, Ordering::Relaxed);
    }

    /// Note one contended shard-lock acquisition. Nondeterministic by nature;
    /// see [`MetricsSnapshot::deterministic`].
    pub fn note_shard_contention(&self) {
        self.inner
            .shard_lock_contention
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record one query entering graceful degradation (budget tripped; the
    /// engine switched to streaming aggregation / skipped materialization
    /// instead of failing).
    pub fn record_degraded_query(&self) {
        self.inner.degraded_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` view-materialization commits dropped because the owning
    /// query degraded or was cancelled.
    pub fn record_materialization_skipped(&self, n: u64) {
        self.inner
            .materialization_skipped
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record the UDF circuit breaker tripping open.
    pub fn record_udf_breaker_open(&self) {
        self.inner.udf_breaker_open.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the UDF circuit breaker transitioning to half-open.
    pub fn record_udf_breaker_halfopen(&self) {
        self.inner
            .udf_breaker_halfopen
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record one query admitted by the admission controller.
    pub fn record_query_admitted(&self) {
        self.inner.queries_admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one query shed by the admission controller.
    pub fn record_query_shed(&self) {
        self.inner.queries_shed.fetch_add(1, Ordering::Relaxed);
    }

    fn add_ms_avoided(&self, ms: f64) {
        let cell = &self.inner.udf_ms_avoided_bits;
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + ms).to_bits();
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current counter values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let i = &self.inner;
        MetricsSnapshot {
            udf_calls_requested: i.udf_calls_requested.load(Ordering::Relaxed),
            udf_calls_executed: i.udf_calls_executed.load(Ordering::Relaxed),
            udf_calls_avoided: i.udf_calls_avoided.load(Ordering::Relaxed),
            udf_ms_avoided: f64::from_bits(i.udf_ms_avoided_bits.load(Ordering::Relaxed)),
            probes: i.probes.load(Ordering::Relaxed),
            probe_hits: i.probe_hits.load(Ordering::Relaxed),
            probe_misses: i.probe_misses.load(Ordering::Relaxed),
            fuzzy_hits: i.fuzzy_hits.load(Ordering::Relaxed),
            rows_served_zero_copy: i.rows_served_zero_copy.load(Ordering::Relaxed),
            funcache_hits: i.funcache_hits.load(Ordering::Relaxed),
            funcache_misses: i.funcache_misses.load(Ordering::Relaxed),
            view_rows_read: i.view_rows_read.load(Ordering::Relaxed),
            view_rows_written: i.view_rows_written.load(Ordering::Relaxed),
            frames_scanned: i.frames_scanned.load(Ordering::Relaxed),
            columnar_batches: i.columnar_batches.load(Ordering::Relaxed),
            columnar_rows: i.columnar_rows.load(Ordering::Relaxed),
            rows_pivoted: i.rows_pivoted.load(Ordering::Relaxed),
            views_recovered: i.views_recovered.load(Ordering::Relaxed),
            views_quarantined: i.views_quarantined.load(Ordering::Relaxed),
            udf_retries: i.udf_retries.load(Ordering::Relaxed),
            udf_gave_up: i.udf_gave_up.load(Ordering::Relaxed),
            morsels_dispatched: i.morsels_dispatched.load(Ordering::Relaxed),
            morsels_stolen: i.morsels_stolen.load(Ordering::Relaxed),
            parallel_pipelines: i.parallel_pipelines.load(Ordering::Relaxed),
            degraded_queries: i.degraded_queries.load(Ordering::Relaxed),
            materialization_skipped: i.materialization_skipped.load(Ordering::Relaxed),
            udf_breaker_open: i.udf_breaker_open.load(Ordering::Relaxed),
            udf_breaker_halfopen: i.udf_breaker_halfopen.load(Ordering::Relaxed),
            queries_admitted: i.queries_admitted.load(Ordering::Relaxed),
            queries_shed: i.queries_shed.load(Ordering::Relaxed),
            n_workers: i.n_workers.load(Ordering::Relaxed),
            shard_lock_contention: i.shard_lock_contention.load(Ordering::Relaxed),
        }
    }

    /// Reset every counter to zero (clean workload state).
    pub fn reset(&self) {
        let i = &self.inner;
        i.udf_calls_requested.store(0, Ordering::Relaxed);
        i.udf_calls_executed.store(0, Ordering::Relaxed);
        i.udf_calls_avoided.store(0, Ordering::Relaxed);
        i.udf_ms_avoided_bits.store(0, Ordering::Relaxed);
        i.probes.store(0, Ordering::Relaxed);
        i.probe_hits.store(0, Ordering::Relaxed);
        i.probe_misses.store(0, Ordering::Relaxed);
        i.fuzzy_hits.store(0, Ordering::Relaxed);
        i.rows_served_zero_copy.store(0, Ordering::Relaxed);
        i.funcache_hits.store(0, Ordering::Relaxed);
        i.funcache_misses.store(0, Ordering::Relaxed);
        i.view_rows_read.store(0, Ordering::Relaxed);
        i.view_rows_written.store(0, Ordering::Relaxed);
        i.frames_scanned.store(0, Ordering::Relaxed);
        i.columnar_batches.store(0, Ordering::Relaxed);
        i.columnar_rows.store(0, Ordering::Relaxed);
        i.rows_pivoted.store(0, Ordering::Relaxed);
        i.views_recovered.store(0, Ordering::Relaxed);
        i.views_quarantined.store(0, Ordering::Relaxed);
        i.udf_retries.store(0, Ordering::Relaxed);
        i.udf_gave_up.store(0, Ordering::Relaxed);
        i.morsels_dispatched.store(0, Ordering::Relaxed);
        i.morsels_stolen.store(0, Ordering::Relaxed);
        i.parallel_pipelines.store(0, Ordering::Relaxed);
        i.degraded_queries.store(0, Ordering::Relaxed);
        i.materialization_skipped.store(0, Ordering::Relaxed);
        i.udf_breaker_open.store(0, Ordering::Relaxed);
        i.udf_breaker_halfopen.store(0, Ordering::Relaxed);
        i.queries_admitted.store(0, Ordering::Relaxed);
        i.queries_shed.store(0, Ordering::Relaxed);
        i.n_workers.store(0, Ordering::Relaxed);
        i.shard_lock_contention.store(0, Ordering::Relaxed);
    }
}

/// Per-operator runtime statistics collected during one query execution,
/// keyed by the plan node's [`OpId`](crate::ids::OpId). Rendered by
/// `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpStats {
    /// Rows emitted by this operator.
    pub rows_out: u64,
    /// Batches emitted by this operator.
    pub batches: u64,
    /// Cumulative simulated cost of this operator's *subtree* (self cost is
    /// derived at render time: `cum - Σ children.cum`).
    pub cum: CostBreakdown,
    /// Probe keys this operator looked up (APPLY only).
    pub probes: u64,
    /// Probe keys resolved from materialized state (APPLY only).
    pub probe_hits: u64,
    /// Hits resolved via the fuzzy (IoU) fallback (APPLY only).
    pub fuzzy_hits: u64,
    /// UDF invocations this operator executed (APPLY only).
    pub udf_executed: u64,
    /// UDF invocations this operator avoided (APPLY only).
    pub udf_avoided: u64,
}

impl OpStats {
    /// Fold `other` into `self` (used when one operator reports in several
    /// increments over its lifetime).
    pub fn absorb(&mut self, other: &OpStats) {
        self.rows_out += other.rows_out;
        self.batches += other.batches;
        self.cum = self.cum.plus(&other.cum);
        self.probes += other.probes;
        self.probe_hits += other.probe_hits;
        self.fuzzy_hits += other.fuzzy_hits;
        self.udf_executed += other.udf_executed;
        self.udf_avoided += other.udf_avoided;
    }

    /// Fraction of probes that hit, in `[0, 1]`; 0 when nothing was probed.
    pub fn probe_hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.probe_hits as f64 / self.probes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{CostCategory, SimClock};

    #[test]
    fn probe_batches_keep_the_invariant() {
        let m = MetricsSink::new();
        m.record_probe_batch(10, 7, 2);
        m.record_probe_batch(5, 0, 0);
        let s = m.snapshot();
        assert_eq!(s.probes, 15);
        assert_eq!(s.probe_hits, 7);
        assert_eq!(s.probe_misses, 8);
        assert_eq!(s.fuzzy_hits, 2);
        assert_eq!(s.probe_hits + s.probe_misses, s.probes);
        assert!((s.probe_hit_rate() - 7.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn udf_calls_sum_to_requested() {
        let m = MetricsSink::new();
        m.record_udf_calls(3, 0, 0.0);
        m.record_udf_calls(0, 4, 4.0 * 99.0);
        let s = m.snapshot();
        assert_eq!(s.udf_calls_requested, 7);
        assert_eq!(s.udf_calls_executed, 3);
        assert_eq!(s.udf_calls_avoided, 4);
        assert_eq!(
            s.udf_calls_executed + s.udf_calls_avoided,
            s.udf_calls_requested
        );
        assert!((s.udf_ms_avoided - 396.0).abs() < 1e-9);
        assert!((s.reuse_rate() - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn since_attributes_deltas() {
        let m = MetricsSink::new();
        m.record_udf_calls(2, 1, 99.0);
        let before = m.snapshot();
        m.record_udf_calls(0, 5, 495.0);
        m.record_zero_copy_rows(12);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.udf_calls_avoided, 5);
        assert_eq!(delta.udf_calls_executed, 0);
        assert_eq!(delta.rows_served_zero_copy, 12);
        assert!((delta.udf_ms_avoided - 495.0).abs() < 1e-9);
    }

    #[test]
    fn plus_merges_counterwise() {
        let a = MetricsSink::new();
        a.record_funcache(1, 2);
        let b = MetricsSink::new();
        b.record_funcache(10, 20);
        b.record_frames_scanned(7);
        let sum = a.snapshot().plus(&b.snapshot());
        assert_eq!(sum.funcache_hits, 11);
        assert_eq!(sum.funcache_misses, 22);
        assert_eq!(sum.frames_scanned, 7);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = MetricsSink::new();
        m.record_probe_batch(4, 4, 1);
        m.record_udf_calls(1, 1, 2.0);
        m.record_view_rows_read(3);
        m.record_view_rows_written(3);
        m.note_shard_contention();
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn deterministic_masks_scheduling_dependent_counters_only() {
        let m = MetricsSink::new();
        m.record_probe_batch(2, 1, 0);
        m.note_shard_contention();
        m.note_shard_contention();
        m.record_parallel_pipeline(8);
        m.record_morsels_stolen(3);
        m.set_n_workers(4);
        let s = m.snapshot();
        assert_eq!(s.shard_lock_contention, 2);
        assert_eq!(s.morsels_stolen, 3);
        assert_eq!(s.n_workers, 4);
        let d = s.deterministic();
        assert_eq!(d.shard_lock_contention, 0);
        assert_eq!(d.morsels_stolen, 0);
        assert_eq!(d.n_workers, 0);
        // The deterministic parallel counters survive the mask.
        assert_eq!(d.morsels_dispatched, 8);
        assert_eq!(d.parallel_pipelines, 1);
        assert_eq!(d.probes, 2);
        assert_eq!(d.probe_hits, 1);
    }

    #[test]
    fn parallel_counters_round_trip() {
        let m = MetricsSink::new();
        m.record_parallel_pipeline(10);
        m.record_parallel_pipeline(3);
        m.record_morsels_stolen(2);
        m.set_n_workers(8);
        let s = m.snapshot();
        assert_eq!(s.parallel_pipelines, 2);
        assert_eq!(s.morsels_dispatched, 13);
        assert_eq!(s.morsels_stolen, 2);
        assert_eq!(s.n_workers, 8);
        // set_n_workers is a gauge: the latest value wins.
        m.set_n_workers(2);
        assert_eq!(m.snapshot().n_workers, 2);
        let before = s;
        m.record_parallel_pipeline(5);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.parallel_pipelines, 1);
        assert_eq!(delta.morsels_dispatched, 5);
        // n_workers went down (8 → 2): since() saturates instead of wrapping.
        assert_eq!(delta.n_workers, 0);
        // The gauge stays out of the exported counter list.
        let names: Vec<&str> = s.named_counters().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"morsels_dispatched"));
        assert!(names.contains(&"morsels_stolen"));
        assert!(names.contains(&"parallel_pipelines"));
        assert!(!names.contains(&"n_workers"));
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn recovery_and_retry_counters_round_trip() {
        let m = MetricsSink::new();
        m.record_recovery(3, 1);
        m.record_udf_retries(5, 2);
        let s = m.snapshot();
        assert_eq!(s.views_recovered, 3);
        assert_eq!(s.views_quarantined, 1);
        assert_eq!(s.udf_retries, 5);
        assert_eq!(s.udf_gave_up, 2);
        let before = s;
        m.record_recovery(0, 4);
        m.record_udf_retries(1, 0);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.views_quarantined, 4);
        assert_eq!(delta.udf_retries, 1);
        assert_eq!(delta.views_recovered, 0);
        let sum = before.plus(&delta);
        assert_eq!(sum, m.snapshot());
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn columnar_counters_round_trip() {
        let m = MetricsSink::new();
        m.record_columnar_batch(1024);
        m.record_columnar_batch(512);
        m.record_rows_pivoted(512);
        let s = m.snapshot();
        assert_eq!(s.columnar_batches, 2);
        assert_eq!(s.columnar_rows, 1536);
        assert_eq!(s.rows_pivoted, 512);
        let before = s;
        m.record_columnar_batch(8);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.columnar_batches, 1);
        assert_eq!(delta.columnar_rows, 8);
        assert_eq!(delta.rows_pivoted, 0);
        assert_eq!(before.plus(&delta), m.snapshot());
        // Columnar counters are deterministic — they survive the mask.
        assert_eq!(m.snapshot().deterministic().columnar_rows, 1544);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn governance_counters_round_trip() {
        let m = MetricsSink::new();
        m.record_degraded_query();
        m.record_materialization_skipped(2);
        m.record_udf_breaker_open();
        m.record_udf_breaker_halfopen();
        m.record_query_admitted();
        m.record_query_admitted();
        m.record_query_shed();
        let s = m.snapshot();
        assert_eq!(s.degraded_queries, 1);
        assert_eq!(s.materialization_skipped, 2);
        assert_eq!(s.udf_breaker_open, 1);
        assert_eq!(s.udf_breaker_halfopen, 1);
        assert_eq!(s.queries_admitted, 2);
        assert_eq!(s.queries_shed, 1);
        let before = s;
        m.record_query_shed();
        m.record_degraded_query();
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.queries_shed, 1);
        assert_eq!(delta.degraded_queries, 1);
        assert_eq!(delta.queries_admitted, 0);
        assert_eq!(before.plus(&delta), m.snapshot());
        // Governance counters are deterministic — they survive the mask.
        let d = m.snapshot().deterministic();
        assert_eq!(d.degraded_queries, 2);
        assert_eq!(d.queries_shed, 2);
        // And they are exported for the perf gate.
        let names: Vec<&str> = s.named_counters().iter().map(|(n, _)| *n).collect();
        for name in [
            "degraded_queries",
            "materialization_skipped",
            "udf_breaker_open",
            "udf_breaker_halfopen",
            "queries_admitted",
            "queries_shed",
        ] {
            assert!(names.contains(&name), "missing counter {name}");
        }
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn clones_share_the_sink() {
        let a = MetricsSink::new();
        let b = a.clone();
        b.record_zero_copy_rows(9);
        assert_eq!(a.snapshot().rows_served_zero_copy, 9);
    }

    #[test]
    fn snapshot_is_plain_data() {
        let m = MetricsSink::new();
        m.record_probe_batch(3, 2, 0);
        let s = m.snapshot();
        assert_eq!(s.probes, 3);
        assert_eq!(s.probe_hits, 2);
        // Snapshots are plain Copy data: copying detaches from the sink.
        let frozen = s;
        m.record_probe_batch(1, 0, 0);
        assert_eq!(frozen.probes, 3);
        assert_eq!(m.snapshot().probes, 4);
    }

    #[test]
    fn json_section_names_every_counter_and_the_worker_gauge() {
        let m = MetricsSink::new();
        m.record_udf_calls(3, 7, 693.5);
        m.record_probe_batch(10, 7, 0);
        let s = MetricsSnapshot {
            n_workers: 2,
            ..m.snapshot()
        };
        let json = Json::parse(&s.to_json().pretty()).unwrap();
        for (name, _) in s.named_counters() {
            assert!(json.get(name).is_some(), "{name} missing");
        }
        assert_eq!(json.get("udf_calls_avoided"), Some(&Json::U64(7)));
        assert_eq!(json.get("udf_ms_avoided"), Some(&Json::Num(693.5)));
        assert_eq!(json.get("probe_misses"), Some(&Json::U64(3)));
        assert_eq!(json.get("n_workers"), Some(&Json::U64(2)));
    }

    #[test]
    fn op_stats_absorb_and_rate() {
        let clock = SimClock::new();
        clock.charge(CostCategory::Apply, 5.0);
        let mut a = OpStats {
            rows_out: 10,
            batches: 1,
            cum: clock.snapshot(),
            probes: 8,
            probe_hits: 6,
            ..OpStats::default()
        };
        let b = OpStats {
            rows_out: 5,
            batches: 1,
            probes: 2,
            probe_hits: 0,
            udf_executed: 2,
            ..OpStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.rows_out, 15);
        assert_eq!(a.batches, 2);
        assert_eq!(a.probes, 10);
        assert!((a.probe_hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(a.cum.get(CostCategory::Apply), 5.0);
    }
}
