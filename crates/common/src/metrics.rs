//! Runtime observability counters.
//!
//! The paper's argument is entirely about *where time goes* — UDF cost
//! avoided through materialized-view reuse — so the engine keeps a set of
//! always-on counters next to the [`SimClock`](crate::SimClock): UDF
//! invocations executed vs. avoided, view probe hits/misses/fuzzy hits, rows
//! served zero-copy, and storage-level traffic. `EXPLAIN ANALYZE` and the
//! benchmark JSON exporters both read from here.
//!
//! ## One table
//!
//! Every counter is declared once, in the `counters!` table below: its name,
//! its doc and its [`CounterClass`]. The table derives the [`Counter`] enum,
//! the [`MetricsSnapshot`] fields, the sink's atomics, and every operation
//! over them (`since`, `plus`, `deterministic`, `named_counters`, `to_json`,
//! `snapshot`, `reset`). A single counter is bumped with
//! [`MetricsSink::add`]; the `record_*` helpers exist only where several
//! counters must move together to keep an invariant.
//!
//! ## Determinism
//!
//! Counters follow the same discipline as the virtual clock: a query runs on
//! its caller's thread and records each count exactly once, so two runs of
//! the same workload report bit-identical counter totals, which is what the
//! identity tests pin down. The exceptions are the
//! [`Scheduling`](CounterClass::Scheduling) counters, which
//! [`MetricsSnapshot::deterministic`] masks for comparisons.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock::ms_from_ns;
use crate::json::Json;

/// How a counter behaves across runs of the same workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterClass {
    /// A pure function of the workload and the configuration: bit-identical
    /// between runs.
    Deterministic,
    /// Counts scheduling events (lock contention between sessions): masked
    /// by [`MetricsSnapshot::deterministic`].
    Scheduling,
}

/// The counter table. One entry per counter: its doc, its name, its class,
/// and — for a nanosecond quantity — the key it is exported under in
/// milliseconds.
macro_rules! counters {
    (@key $name:ident) => { stringify!($name) };
    (@key $name:ident $key:literal) => { $key };
    (@in_ms) => { false };
    (@in_ms $key:literal) => { true };
    ($( $(#[$doc:meta])* $name:ident: $class:ident $(, ms $key:literal)?; )*) => {
        /// One engine counter, named like its [`MetricsSnapshot`] field.
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $( $(#[$doc])* $name, )*
        }

        impl Counter {
            /// Every counter, in declaration order.
            pub const ALL: &'static [Counter] = &[$(Counter::$name),*];

            /// The stable exported name (JSON key, Prometheus suffix).
            pub fn name(self) -> &'static str {
                match self { $(Counter::$name => counters!(@key $name $($key)?),)* }
            }

            /// How the counter behaves across runs.
            pub fn class(self) -> CounterClass {
                match self { $(Counter::$name => CounterClass::$class,)* }
            }

            /// Whether the counter holds nanoseconds exported as milliseconds.
            fn in_ms(self) -> bool {
                match self { $(Counter::$name => counters!(@in_ms $($key)?),)* }
            }
        }

        /// Immutable snapshot of the engine-wide counters.
        ///
        /// This is the `metrics` section embedded in every `BENCH_*.json` and
        /// the totals footer of `EXPLAIN ANALYZE`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct MetricsSnapshot {
            $( $(#[$doc])* pub $name: u64, )*
        }

        impl MetricsSnapshot {
            /// The value of one counter.
            pub fn get(&self, counter: Counter) -> u64 {
                match counter { $(Counter::$name => self.$name,)* }
            }

            /// A snapshot whose every counter is `value(counter)`.
            pub fn from_fn(mut value: impl FnMut(Counter) -> u64) -> MetricsSnapshot {
                MetricsSnapshot { $($name: value(Counter::$name),)* }
            }
        }
    };
}

counters! {
    /// UDF invocations the plan asked for: executed + avoided.
    udf_calls_requested: Deterministic;
    /// Invocations that actually ran the (simulated) model.
    udf_calls_executed: Deterministic;
    /// Invocations satisfied from a materialized view or cache.
    udf_calls_avoided: Deterministic;
    /// Simulated nanoseconds the avoided invocations would have cost.
    udf_ns_avoided: Deterministic, ms "udf_ms_avoided";
    /// View probe keys looked up (exact + fuzzy passes).
    probes: Deterministic;
    /// Probe keys resolved from materialized state.
    probe_hits: Deterministic;
    /// Probe keys that missed and fell through to evaluation.
    probe_misses: Deterministic;
    /// Subset of `probe_hits` resolved by the fuzzy (IoU) fallback.
    fuzzy_hits: Deterministic;
    /// Rows served from stored columns without materialising a `Row`: view
    /// hits are gathered column to column (FunCache hits, which count here
    /// too, share the table's rows).
    rows_served_zero_copy: Deterministic;
    /// FunCache baseline lookups that hit.
    funcache_hits: Deterministic;
    /// FunCache baseline lookups that missed.
    funcache_misses: Deterministic;
    /// Rows read out of materialized views.
    view_rows_read: Deterministic;
    /// Rows appended to materialized views (STORE).
    view_rows_written: Deterministic;
    /// Video frames decoded by scans.
    frames_scanned: Deterministic;
    /// Batches emitted in columnar form by executor operators: depends only
    /// on the plan, the data, and the configured batch size.
    columnar_batches: Deterministic;
    /// Rows carried by those columnar batches (post-selection counts).
    columnar_rows: Deterministic;
    /// Rows materialized from columnar to row form at the output boundary
    /// (the engine's result collection).
    rows_pivoted: Deterministic;
    /// View segments loaded and checksum-verified by a recovery pass.
    views_recovered: Deterministic;
    /// View segments quarantined (corrupt, torn, or unreadable) by a
    /// recovery pass. Quarantined views are simply cold: the conditional
    /// APPLY path recomputes and re-stores them.
    views_quarantined: Deterministic;
    /// Always 0: UDF evaluation never retries. It stays only because the
    /// benchmark harness (`crates/perfbench`) still reports it as
    /// `udf.retries`, and goes with `morsels_dispatched` when that harness
    /// next changes (ROADMAP item 1).
    udf_retries: Deterministic;
    /// Always 0: the engine has no morsel-parallel scans. It stays only
    /// because the benchmark harness (`crates/perfbench`) still reports it
    /// as `exec.morsels_dispatched`, and goes when that harness next
    /// changes.
    morsels_dispatched: Deterministic;
    /// Queries that entered graceful degradation instead of failing when
    /// their memory budget tripped (streaming aggregation, materialization
    /// skipped).
    degraded_queries: Deterministic;
    /// View-materialization commits dropped because the owning query
    /// degraded (or was cancelled) — the coverage predicate was never
    /// claimed, so later plans recompute instead of trusting partial state.
    materialization_skipped: Deterministic;
    /// Queries granted an admission slot (recorded outside the per-query
    /// metrics window, so per-query deltas are unaffected).
    queries_admitted: Deterministic;
    /// Queries refused by the admission controller: queue overflow past the
    /// high-water mark, or a queue-deadline timeout.
    queries_shed: Deterministic;
    /// Times a shard lock was observed contended (`try_read`/`try_write`
    /// failed and the caller had to block).
    shard_lock_contention: Scheduling;
}

impl MetricsSnapshot {
    /// Counter-wise difference (`self - earlier`); attributes activity to a
    /// single query by snapshotting before and after, like
    /// [`CostBreakdown::since`].
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot::from_fn(|c| self.get(c) - earlier.get(c))
    }

    /// Counter-wise sum.
    pub fn plus(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot::from_fn(|c| self.get(c) + other.get(c))
    }

    /// `part / whole` as a fraction, 0 when `whole` is 0 (a hit rate, a
    /// reuse rate).
    pub fn ratio(&self, part: Counter, whole: Counter) -> f64 {
        match self.get(whole) {
            0 => 0.0,
            n => self.get(part) as f64 / n as f64,
        }
    }

    /// Copy with every non-[`Deterministic`](CounterClass::Deterministic)
    /// counter zeroed, safe to compare bit-for-bit between runs.
    pub fn deterministic(&self) -> MetricsSnapshot {
        MetricsSnapshot::from_fn(|c| match c.class() {
            CounterClass::Deterministic => self.get(c),
            _ => 0,
        })
    }

    /// One counter as exported: milliseconds for a nanosecond quantity, the
    /// count otherwise.
    fn exported(&self, c: Counter) -> f64 {
        if c.in_ms() {
            ms_from_ns(self.get(c))
        } else {
            self.get(c) as f64
        }
    }

    /// Every counter as a `(stable_name, value)` pair, in declaration order
    /// — what the Prometheus exporter and the perf-gate baseline diff read,
    /// so a counter added to the table surfaces everywhere.
    pub fn named_counters(&self) -> Vec<(&'static str, f64)> {
        (Counter::ALL.iter())
            .map(|&c| (c.name(), self.exported(c)))
            .collect()
    }

    /// The `metrics` section of the benchmark JSON artifacts: every counter
    /// in declaration order (integers, except the milliseconds of a
    /// nanosecond quantity).
    pub fn to_json(&self) -> Json {
        Json::obj(Counter::ALL.iter().map(|&c| {
            let v = if c.in_ms() {
                Json::Num(self.exported(c))
            } else {
                Json::U64(self.get(c))
            };
            (c.name(), v)
        }))
    }
}

/// Engine-wide metrics sink: atomic counters shared by the session, the
/// executor and the storage engine. Cheap to clone (`Arc` inside), `Sync`.
///
/// Thread safety exists so one sink can be *owned* by shared structures (the
/// storage engine) that several sessions may use at once.
#[derive(Debug, Clone)]
pub struct MetricsSink {
    /// One atomic per [`Counter`], indexed by its declaration order.
    inner: Arc<[AtomicU64]>,
}

impl Default for MetricsSink {
    fn default() -> Self {
        MetricsSink {
            inner: Counter::ALL.iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl MetricsSink {
    /// Fresh sink at zero.
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }

    /// Add `n` to one counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.inner[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Record the outcome of one batched probe pass: `probes` keys looked
    /// up, `hits` of them resolved (of which `fuzzy_hits` via the IoU
    /// fallback). Misses are derived, so `probes == hits + misses`.
    pub fn record_probe_batch(&self, probes: u64, hits: u64, fuzzy_hits: u64) {
        debug_assert!(hits <= probes, "more hits than probes");
        debug_assert!(fuzzy_hits <= hits, "fuzzy hits exceed hits");
        self.add(Counter::probes, probes);
        self.add(Counter::probe_hits, hits);
        self.add(Counter::probe_misses, probes - hits);
        self.add(Counter::fuzzy_hits, fuzzy_hits);
    }

    /// Record UDF invocations: `executed` ran the model, `avoided` were
    /// served from materialized state, `ns_avoided` is the simulated cost
    /// the avoided calls would have paid. Requested = executed + avoided.
    pub fn record_udf_calls(&self, executed: u64, avoided: u64, ns_avoided: u64) {
        self.add(Counter::udf_calls_requested, executed + avoided);
        self.add(Counter::udf_calls_executed, executed);
        self.add(Counter::udf_calls_avoided, avoided);
        self.add(Counter::udf_ns_avoided, ns_avoided);
    }

    /// Record one batch emitted in columnar form by an executor operator
    /// (`rows` = its post-selection row count).
    pub fn record_columnar_batch(&self, rows: u64) {
        self.add(Counter::columnar_batches, 1);
        self.add(Counter::columnar_rows, rows);
    }

    /// Current counter values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::from_fn(|c| self.inner[c as usize].load(Ordering::Relaxed))
    }

    /// Reset every counter to zero (clean workload state).
    pub fn reset(&self) {
        self.inner
            .iter()
            .for_each(|a| a.store(0, Ordering::Relaxed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{CostCategory, SimClock, NS_PER_MS};
    use crate::op_stats::OpStats;

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
        let rate = s.ratio(Counter::probe_hits, Counter::probes);
        assert!((rate - 7.0 / 15.0).abs() < 1e-12);
        assert_eq!(
            MetricsSnapshot::default().ratio(Counter::probe_hits, Counter::probes),
            0.0
        );
    }

    #[test]
    fn udf_calls_sum_to_requested() {
        let m = MetricsSink::new();
        m.record_udf_calls(3, 0, 0);
        m.record_udf_calls(0, 4, 4 * 99 * NS_PER_MS);
        let s = m.snapshot();
        assert_eq!(s.udf_calls_requested, 7);
        assert_eq!(s.udf_calls_executed, 3);
        assert_eq!(s.udf_calls_avoided, 4);
        assert_eq!(
            s.udf_calls_executed + s.udf_calls_avoided,
            s.udf_calls_requested
        );
        assert_eq!(s.udf_ns_avoided, 396 * NS_PER_MS);
        let reuse = s.ratio(Counter::udf_calls_avoided, Counter::udf_calls_requested);
        assert!((reuse - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn since_attributes_deltas() {
        let m = MetricsSink::new();
        m.record_udf_calls(2, 1, 99 * NS_PER_MS);
        let before = m.snapshot();
        m.record_udf_calls(0, 5, 495 * NS_PER_MS);
        m.add(Counter::rows_served_zero_copy, 12);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.udf_calls_avoided, 5);
        assert_eq!(delta.udf_calls_executed, 0);
        assert_eq!(delta.rows_served_zero_copy, 12);
        assert_eq!(delta.udf_ns_avoided, 495 * NS_PER_MS);
    }

    #[test]
    fn plus_merges_counterwise() {
        let a = MetricsSink::new();
        a.add(Counter::funcache_hits, 1);
        a.add(Counter::funcache_misses, 2);
        let b = MetricsSink::new();
        b.add(Counter::funcache_hits, 10);
        b.add(Counter::funcache_misses, 20);
        b.add(Counter::frames_scanned, 7);
        let sum = a.snapshot().plus(&b.snapshot());
        assert_eq!(sum.funcache_hits, 11);
        assert_eq!(sum.funcache_misses, 22);
        assert_eq!(sum.frames_scanned, 7);
    }

    /// Every counter of the table, bumped by a distinct amount through
    /// [`MetricsSink::add`], reads back in its own field — and reset zeroes
    /// them all.
    #[test]
    fn reset_zeroes_everything() {
        let m = MetricsSink::new();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            m.add(c, i as u64 + 1);
        }
        let s = m.snapshot();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(s.get(c), i as u64 + 1, "{c:?}");
        }
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn deterministic_masks_scheduling_dependent_counters_only() {
        let m = MetricsSink::new();
        m.record_probe_batch(2, 1, 0);
        m.add(Counter::shard_lock_contention, 2);
        let s = m.snapshot();
        assert_eq!(s.shard_lock_contention, 2);
        let d = s.deterministic();
        assert_eq!(d.shard_lock_contention, 0);
        assert_eq!(d.probes, 2);
        assert_eq!(d.probe_hits, 1);
        // Exactly the scheduling-dependent counters are masked.
        let masked: Vec<&str> = (Counter::ALL.iter())
            .filter(|c| c.class() != CounterClass::Deterministic)
            .map(|c| c.name())
            .collect();
        assert_eq!(masked, ["shard_lock_contention"]);
    }

    #[test]
    fn recovery_and_retry_counters_round_trip() {
        let m = MetricsSink::new();
        m.add(Counter::views_recovered, 3);
        m.add(Counter::views_quarantined, 1);
        let s = m.snapshot();
        assert_eq!(s.views_recovered, 3);
        assert_eq!(s.views_quarantined, 1);
        let before = s;
        m.add(Counter::views_quarantined, 4);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.views_quarantined, 4);
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
        m.add(Counter::rows_pivoted, 512);
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
        m.add(Counter::degraded_queries, 1);
        m.add(Counter::materialization_skipped, 2);
        m.add(Counter::queries_admitted, 2);
        m.add(Counter::queries_shed, 1);
        let s = m.snapshot();
        assert_eq!(s.degraded_queries, 1);
        assert_eq!(s.materialization_skipped, 2);
        assert_eq!(s.queries_admitted, 2);
        assert_eq!(s.queries_shed, 1);
        let before = s;
        m.add(Counter::queries_shed, 1);
        m.add(Counter::degraded_queries, 1);
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
        b.add(Counter::rows_served_zero_copy, 9);
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
    fn json_section_names_every_counter() {
        let m = MetricsSink::new();
        m.record_udf_calls(3, 7, 693_500_000);
        m.record_probe_batch(10, 7, 0);
        let s = m.snapshot();
        let json = Json::parse(&s.to_json().pretty()).unwrap();
        for (name, _) in s.named_counters() {
            assert!(json.get(name).is_some(), "{name} missing");
        }
        assert_eq!(json.get("udf_calls_avoided"), Some(&Json::U64(7)));
        assert_eq!(json.get("udf_ms_avoided"), Some(&Json::Num(693.5)));
        assert_eq!(json.get("probe_misses"), Some(&Json::U64(3)));
        // Counters in declaration order.
        let Json::Obj(fields) = s.to_json() else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(keys, names);
    }

    #[test]
    fn op_stats_absorb_and_rate() {
        let clock = SimClock::new();
        clock.charge(CostCategory::Apply, 5 * NS_PER_MS);
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
