//! Query-scoped structured tracing.
//!
//! PR 3's counters answer *how much* (UDF calls avoided, probe hits); this
//! module answers *where and how long*: a [`TraceSink`] records a span tree
//! per query — which operator probed which view, which probe waited on a
//! shard lock, how segment IO behaved during save/load — and feeds
//! per-[`SpanKind`] wall-clock [`LatencyHistogram`]s so p50/p95/p99 can be
//! reported per span kind across thousands of probes.
//!
//! ## Sim-cost vs wall-clock rule
//!
//! Every span carries **two** durations, never mixed:
//!
//! * `sim_ns` — the virtual-clock delta attributed to the span, charged by
//!   the existing caller-thread discipline. Tracing only *copies* these
//!   deltas; it never touches the [`SimClock`](crate::SimClock) or the
//!   [`MetricsSink`](crate::MetricsSink), so a traced run's
//!   `CostBreakdown` and metrics equal an untraced one's by construction.
//! * `wall_ns` — measured wall time. Inherently nondeterministic; the
//!   latency histograms are built from it, and
//!   [`QueryTrace::deterministic`] masks it (plus `start_ns`) for golden
//!   comparisons, mirroring `MetricsSnapshot::deterministic`.
//!
//! A query runs on its caller's thread, which records every span, so the
//! tree shape of a query is deterministic. The sink itself is `Sync` (a mutex inside) so
//! shared structures (the storage engine) can own one; concurrent callers
//! outside a query (e.g. the storage concurrency tests) interleave safely but
//! attribute their leaf spans on a best-effort basis.
//!
//! The span store is query-scoped: `begin_query` folds the previous query's
//! histograms into the session-cumulative set and clears the tree, so
//! memory stays bounded no matter how long the session runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::clock::ms_from_ns;
use crate::hist::LatencyHistogram;
use crate::ids::OpId;
use crate::json::Json;
use crate::metrics::MetricsSnapshot;

/// Hard cap on spans retained per query — a runaway loop cannot exhaust
/// memory; drops are counted in [`QueryTrace::dropped`].
const MAX_SPANS: usize = 65_536;

/// What a span measures. Each kind owns one latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One whole query execution (the tree root).
    Query,
    /// One operator's `next()` lifetime within a query (cumulative,
    /// subtree-inclusive, like `EXPLAIN ANALYZE` costs).
    Operator,
    /// A batch of (simulated) UDF evaluations.
    UdfEval,
    /// A batched materialized-view probe (exact or fuzzy pass).
    ViewProbe,
    /// A FunCache lookup batch (hash + probe).
    CacheLookup,
    /// Time spent blocked on a contended shard or view lock.
    ShardWait,
    /// One persisted-segment read or write (save/load/recovery path).
    SegmentIo,
}

impl SpanKind {
    /// All kinds, in reporting order.
    pub const ALL: [SpanKind; 7] = [
        SpanKind::Query,
        SpanKind::Operator,
        SpanKind::UdfEval,
        SpanKind::ViewProbe,
        SpanKind::CacheLookup,
        SpanKind::ShardWait,
        SpanKind::SegmentIo,
    ];

    /// Stable snake_case label (histogram keys, Prometheus series,
    /// Chrome-trace categories).
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Operator => "operator",
            SpanKind::UdfEval => "udf_eval",
            SpanKind::ViewProbe => "view_probe",
            SpanKind::CacheLookup => "cache_lookup",
            SpanKind::ShardWait => "shard_wait",
            SpanKind::SegmentIo => "segment_io",
        }
    }

    fn index(&self) -> usize {
        match self {
            SpanKind::Query => 0,
            SpanKind::Operator => 1,
            SpanKind::UdfEval => 2,
            SpanKind::ViewProbe => 3,
            SpanKind::CacheLookup => 4,
            SpanKind::ShardWait => 5,
            SpanKind::SegmentIo => 6,
        }
    }
}

/// One latency histogram per [`SpanKind`], recording wall-clock nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanHists {
    hists: [LatencyHistogram; 7],
}

impl SpanHists {
    /// The histogram for one span kind.
    pub fn get(&self, kind: SpanKind) -> &LatencyHistogram {
        &self.hists[kind.index()]
    }

    /// Record a wall-clock sample for a span kind.
    pub fn record(&mut self, kind: SpanKind, wall_ns: u64) {
        self.hists[kind.index()].record(wall_ns);
    }

    /// Merge another set in (bucket-wise; associative and commutative).
    pub fn merge(&mut self, other: &SpanHists) {
        for i in 0..self.hists.len() {
            self.hists[i].merge(&other.hists[i]);
        }
    }

    /// `(kind, histogram)` pairs for the kinds that saw at least one sample.
    pub fn non_empty(&self) -> Vec<(SpanKind, &LatencyHistogram)> {
        SpanKind::ALL
            .iter()
            .filter(|k| !self.get(**k).is_empty())
            .map(|k| (*k, self.get(*k)))
            .collect()
    }

    /// Multi-line human rendering (one line per non-empty kind), values in
    /// milliseconds. Empty string when nothing was recorded.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (kind, h) in self.non_empty() {
            out.push_str(&format!(
                "{:<12} {}\n",
                kind.label(),
                h.summary(fmt_ns_as_ms)
            ));
        }
        out
    }
}

fn fmt_ns_as_ms(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

/// One recorded span. Plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within its query (1-based; the root query span is 1).
    pub id: u64,
    /// Parent span id (`None` for the root).
    pub parent: Option<u64>,
    /// What this span measures.
    pub kind: SpanKind,
    /// Human label (operator description, UDF name, segment file…).
    pub label: String,
    /// The plan operator this span belongs to, when known.
    pub op: Option<OpId>,
    /// Virtual-clock nanoseconds attributed to this span (deterministic;
    /// subtree-cumulative for scope spans).
    pub sim_ns: u64,
    /// Measured wall-clock nanoseconds (nondeterministic; masked by
    /// [`QueryTrace::deterministic`]).
    pub wall_ns: u64,
    /// Wall-clock offset of the span's first entry from the sink's origin,
    /// in nanoseconds (for Chrome trace timelines; masked like `wall_ns`).
    pub start_ns: u64,
    /// Unit count: rows emitted, keys probed, invocations run, bytes
    /// written — whatever the kind's natural unit is.
    pub count: u64,
    /// Times the span was entered (a pull-based operator is entered once
    /// per `next()` call; leaves are entered once).
    pub calls: u64,
}

/// An immutable snapshot of one query's span tree plus the per-kind
/// latency histograms collected while it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// The label `begin_query` was given (usually the SQL text).
    pub label: String,
    /// All spans, root first, in creation (pre-)order.
    pub spans: Vec<Span>,
    /// Per-kind wall-clock histograms for this query.
    pub hists: SpanHists,
    /// Spans discarded because the per-query cap was hit.
    pub dropped: u64,
}

impl QueryTrace {
    /// Copy with every wall-clock field zeroed (span `wall_ns`/`start_ns`
    /// and the histograms), safe to compare or golden across runs — the
    /// tree shape, labels, counts and sim costs are deterministic.
    pub fn deterministic(&self) -> QueryTrace {
        QueryTrace {
            label: self.label.clone(),
            spans: self
                .spans
                .iter()
                .map(|s| Span {
                    wall_ns: 0,
                    start_ns: 0,
                    ..s.clone()
                })
                .collect(),
            hists: SpanHists::default(),
            dropped: self.dropped,
        }
    }

    /// The root span, if any spans were recorded.
    pub fn root(&self) -> Option<&Span> {
        self.spans.first()
    }

    /// Indented tree rendering (the repl's `\trace`).
    pub fn render(&self) -> String {
        let mut out = format!("trace: {}\n", self.label);
        // Children in creation order, grouped under their parents.
        let mut children: std::collections::BTreeMap<u64, Vec<&Span>> = Default::default();
        let mut roots: Vec<&Span> = Vec::new();
        for s in &self.spans {
            match s.parent {
                Some(p) => children.entry(p).or_default().push(s),
                None => roots.push(s),
            }
        }
        fn go(
            s: &Span,
            depth: usize,
            children: &std::collections::BTreeMap<u64, Vec<&Span>>,
            out: &mut String,
        ) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!(
                "{} {} [sim={:.3}ms wall={:.3}ms calls={} count={}]\n",
                s.kind.label(),
                s.label,
                ms_from_ns(s.sim_ns),
                s.wall_ns as f64 / 1e6,
                s.calls,
                s.count
            ));
            for c in children.get(&s.id).into_iter().flatten() {
                go(c, depth + 1, children, out);
            }
        }
        for r in roots {
            go(r, 1, &children, &mut out);
        }
        if self.dropped > 0 {
            out.push_str(&format!("  … {} span(s) dropped (cap)\n", self.dropped));
        }
        out
    }

    /// Chrome trace-event JSON (the "JSON Array Format") — load the string
    /// written to a file via `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let event = |s: &Span| {
            Json::obj([
                ("name", Json::from(s.label.as_str())),
                ("cat", Json::from(s.kind.label())),
                ("ph", Json::from("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.wall_ns as f64 / 1e3).max(0.001))),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(1)),
                (
                    "args",
                    Json::obj([
                        ("span", Json::U64(s.id)),
                        ("parent", Json::from(s.parent)),
                        ("op", Json::from(s.op.map(|o| o.to_string()))),
                        ("sim_ms", Json::Num(ms_from_ns(s.sim_ns))),
                        ("count", Json::U64(s.count)),
                        ("calls", Json::U64(s.calls)),
                    ]),
                ),
            ])
        };
        Json::arr(self.spans.iter().map(event)).pretty()
    }
}

/// Token returned by [`TraceSink::enter`]; pass it back to
/// [`TraceSink::exit`] when the scope closes.
#[derive(Debug)]
pub struct ScopeToken {
    /// Index into the span store (`usize::MAX` ⇒ dropped/disabled).
    idx: usize,
    /// Whether the span was pushed onto the parent stack.
    pushed: bool,
    /// Kind, re-recorded at exit into the histograms.
    kind: SpanKind,
    started: Option<Instant>,
}

/// A stable reference to a scope span, letting an operator re-enter the
/// same span across repeated `next()` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRef {
    epoch: u64,
    idx: usize,
}

#[derive(Debug, Default)]
struct TraceState {
    spans: Vec<Span>,
    stack: Vec<usize>,
    query_hists: SpanHists,
    session_hists: SpanHists,
    label: String,
    dropped: u64,
    /// Bumped by `begin_query`; invalidates outstanding [`SpanRef`]s.
    epoch: u64,
}

/// The per-session trace sink. Cheap to clone (`Arc` inside); owned by the
/// storage engine (like the metrics sink) so the executor, the shard
/// guards and the persistence path all record into one tree.
#[derive(Debug, Clone)]
pub struct TraceSink {
    inner: Arc<TraceInner>,
}

#[derive(Debug)]
struct TraceInner {
    state: Mutex<TraceState>,
    enabled: AtomicBool,
    origin: Instant,
}

impl Default for TraceSink {
    fn default() -> TraceSink {
        TraceSink {
            inner: Arc::new(TraceInner {
                state: Mutex::new(TraceState::default()),
                enabled: AtomicBool::new(true),
                origin: Instant::now(),
            }),
        }
    }
}

impl TraceSink {
    /// Fresh sink, enabled.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// Turn recording on/off (histograms and spans both). Off costs one
    /// atomic load per call site.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Is recording enabled?
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.inner.origin.elapsed().as_nanos() as u64
    }

    /// Start a new query tree: the previous query's histograms fold into
    /// the session-cumulative set, the span store resets, and a root
    /// [`SpanKind::Query`] span opens. Close it with [`TraceSink::end_query`].
    pub fn begin_query(&self, label: impl Into<String>) {
        if !self.is_enabled() {
            return;
        }
        let start_ns = self.now_ns();
        let mut st = self.inner.state.lock().expect("trace lock");
        let prev = st.query_hists;
        st.session_hists.merge(&prev);
        st.query_hists = SpanHists::default();
        st.spans.clear();
        st.stack.clear();
        st.dropped = 0;
        st.epoch += 1;
        st.label = label.into();
        let label = st.label.clone();
        let span = Span {
            id: 1,
            parent: None,
            kind: SpanKind::Query,
            label,
            op: None,
            sim_ns: 0,
            wall_ns: 0,
            start_ns,
            count: 0,
            calls: 1,
        };
        st.spans.push(span);
        st.stack.push(0);
    }

    /// Close the root query span, attributing the query's total simulated
    /// cost and result-row count. The wall duration is measured from
    /// `begin_query`.
    pub fn end_query(&self, sim_ns: u64, rows: u64) {
        if !self.is_enabled() {
            return;
        }
        let now = self.now_ns();
        let mut st = self.inner.state.lock().expect("trace lock");
        if let Some(root) = st.spans.first_mut() {
            root.sim_ns += sim_ns;
            root.wall_ns = now.saturating_sub(root.start_ns);
            root.count = rows;
            let wall = root.wall_ns;
            st.query_hists.record(SpanKind::Query, wall);
        }
        // Pop the root if it is still the innermost scope.
        if st.stack.last() == Some(&0) {
            st.stack.pop();
        }
    }

    /// Enter a scope span. When `existing` refers to a span created earlier
    /// in the *same* query (an operator re-entered on its next `next()`
    /// call), the span accumulates; otherwise a fresh span is created under
    /// the current innermost scope. Returns the token for
    /// [`TraceSink::exit`] plus the (possibly new) [`SpanRef`] to cache.
    pub fn enter(
        &self,
        existing: Option<SpanRef>,
        kind: SpanKind,
        label: &str,
        op: Option<OpId>,
    ) -> (ScopeToken, Option<SpanRef>) {
        if !self.is_enabled() {
            return (
                ScopeToken {
                    idx: usize::MAX,
                    pushed: false,
                    kind,
                    started: None,
                },
                None,
            );
        }
        let start_ns = self.now_ns();
        let mut st = self.inner.state.lock().expect("trace lock");
        let epoch = st.epoch;
        let idx = match existing.filter(|r| r.epoch == epoch && r.idx < st.spans.len()) {
            Some(r) => r.idx,
            None => {
                if st.spans.len() >= MAX_SPANS {
                    st.dropped += 1;
                    return (
                        ScopeToken {
                            idx: usize::MAX,
                            pushed: false,
                            kind,
                            started: Some(Instant::now()),
                        },
                        None,
                    );
                }
                let parent = st.stack.last().map(|&i| st.spans[i].id);
                let id = st.spans.len() as u64 + 1;
                st.spans.push(Span {
                    id,
                    parent,
                    kind,
                    label: label.to_string(),
                    op,
                    sim_ns: 0,
                    wall_ns: 0,
                    start_ns,
                    count: 0,
                    calls: 0,
                });
                st.spans.len() - 1
            }
        };
        st.stack.push(idx);
        (
            ScopeToken {
                idx,
                pushed: true,
                kind,
                started: Some(Instant::now()),
            },
            Some(SpanRef { epoch, idx }),
        )
    }

    /// Close a scope opened by [`TraceSink::enter`], attributing the
    /// simulated-cost delta and unit count for this entry. The wall time of
    /// the entry is measured here and recorded into the kind's histogram.
    pub fn exit(&self, token: ScopeToken, sim_ns: u64, count: u64) {
        let Some(started) = token.started else {
            return; // disabled at enter
        };
        let wall_ns = started.elapsed().as_nanos() as u64;
        let mut st = self.inner.state.lock().expect("trace lock");
        st.query_hists.record(token.kind, wall_ns);
        if token.pushed {
            // Tolerant pop: only remove if we are still the innermost scope
            // (concurrent callers outside a query may interleave).
            if st.stack.last() == Some(&token.idx) {
                st.stack.pop();
            } else if let Some(pos) = st.stack.iter().rposition(|&i| i == token.idx) {
                st.stack.remove(pos);
            }
        }
        if token.idx < st.spans.len() {
            let s = &mut st.spans[token.idx];
            s.sim_ns += sim_ns;
            s.wall_ns += wall_ns;
            s.count += count;
            s.calls += 1;
        }
    }

    /// Record a completed leaf span under the current innermost scope, with
    /// an explicitly measured wall duration (the caller timed the work).
    pub fn leaf(&self, kind: SpanKind, label: &str, sim_ns: u64, wall_ns: u64, count: u64) {
        if !self.is_enabled() {
            return;
        }
        let now = self.now_ns();
        let mut st = self.inner.state.lock().expect("trace lock");
        st.query_hists.record(kind, wall_ns);
        if st.spans.len() >= MAX_SPANS {
            st.dropped += 1;
            return;
        }
        let parent = st.stack.last().map(|&i| st.spans[i].id);
        let id = st.spans.len() as u64 + 1;
        st.spans.push(Span {
            id,
            parent,
            kind,
            label: label.to_string(),
            op: None,
            sim_ns,
            wall_ns,
            start_ns: now.saturating_sub(wall_ns),
            count,
            calls: 1,
        });
    }

    /// Snapshot of the current (most recent) query's trace.
    pub fn last_query(&self) -> QueryTrace {
        let st = self.inner.state.lock().expect("trace lock");
        QueryTrace {
            label: st.label.clone(),
            spans: st.spans.clone(),
            hists: st.query_hists,
            dropped: st.dropped,
        }
    }

    /// Session-cumulative per-kind histograms (all finished queries merged
    /// with the current one).
    pub fn session_histograms(&self) -> SpanHists {
        let st = self.inner.state.lock().expect("trace lock");
        let mut out = st.session_hists;
        out.merge(&st.query_hists);
        out
    }

    /// Drop everything — span tree and both histogram sets.
    pub fn reset(&self) {
        let mut st = self.inner.state.lock().expect("trace lock");
        *st = TraceState {
            epoch: st.epoch + 1,
            ..TraceState::default()
        };
    }
}

/// Render a metrics snapshot plus span-kind histograms in the Prometheus
/// text exposition format (counters as `counter`, latency distributions as
/// `histogram` with le-bucket bounds in seconds).
pub fn prometheus_text(metrics: &MetricsSnapshot, hists: &SpanHists) -> String {
    let mut out = String::new();
    for (name, value) in metrics.named_counters() {
        out.push_str(&format!("# TYPE eva_{name} counter\neva_{name} {value}\n"));
    }
    out.push_str("# TYPE eva_span_latency_seconds histogram\n");
    for kind in SpanKind::ALL {
        let h = hists.get(kind);
        if h.is_empty() {
            continue;
        }
        let label = kind.label();
        for (ub, cum) in h.cumulative_buckets() {
            out.push_str(&format!(
                "eva_span_latency_seconds_bucket{{kind=\"{label}\",le=\"{}\"}} {cum}\n",
                ub as f64 / 1e9
            ));
        }
        out.push_str(&format!(
            "eva_span_latency_seconds_bucket{{kind=\"{label}\",le=\"+Inf\"}} {}\n",
            h.count()
        ));
        out.push_str(&format!(
            "eva_span_latency_seconds_sum{{kind=\"{label}\"}} {}\n",
            h.sum() as f64 / 1e9
        ));
        out.push_str(&format!(
            "eva_span_latency_seconds_count{{kind=\"{label}\"}} {}\n",
            h.count()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::NS_PER_MS;

    #[test]
    fn query_tree_nests_scopes_and_leaves() {
        let t = TraceSink::new();
        t.begin_query("SELECT 1");
        let (op_tok, op_ref) = t.enter(None, SpanKind::Operator, "Scan", Some(OpId(2)));
        t.leaf(SpanKind::ViewProbe, "v1", NS_PER_MS / 2, 1_000, 10);
        t.exit(op_tok, 3 * NS_PER_MS / 2, 100);
        // Re-entering with the cached ref accumulates into the same span.
        let (tok2, _) = t.enter(op_ref, SpanKind::Operator, "Scan", Some(OpId(2)));
        t.exit(tok2, NS_PER_MS / 2, 50);
        t.end_query(2 * NS_PER_MS, 150);

        let q = t.last_query();
        assert_eq!(q.label, "SELECT 1");
        assert_eq!(q.spans.len(), 3, "{q:?}");
        let root = q.root().unwrap();
        assert_eq!(root.kind, SpanKind::Query);
        assert_eq!(root.count, 150);
        assert_eq!(root.sim_ns, 2 * NS_PER_MS);
        let op = &q.spans[1];
        assert_eq!(op.parent, Some(root.id));
        assert_eq!(op.calls, 2);
        assert_eq!(op.count, 150);
        assert_eq!(op.sim_ns, 2 * NS_PER_MS);
        let probe = &q.spans[2];
        assert_eq!(probe.kind, SpanKind::ViewProbe);
        assert_eq!(probe.parent, Some(op.id));
        assert_eq!(probe.count, 10);
        // Histograms saw one sample per scope entry / leaf.
        assert_eq!(q.hists.get(SpanKind::Operator).count(), 2);
        assert_eq!(q.hists.get(SpanKind::ViewProbe).count(), 1);
        assert_eq!(q.hists.get(SpanKind::Query).count(), 1);
    }

    #[test]
    fn begin_query_resets_spans_but_accumulates_histograms() {
        let t = TraceSink::new();
        t.begin_query("q1");
        t.leaf(SpanKind::UdfEval, "det", 99 * NS_PER_MS, 5_000, 1);
        t.end_query(99 * NS_PER_MS, 1);
        t.begin_query("q2");
        t.leaf(SpanKind::UdfEval, "det", 99 * NS_PER_MS, 7_000, 1);
        t.end_query(99 * NS_PER_MS, 1);

        let q = t.last_query();
        assert_eq!(q.label, "q2");
        assert_eq!(q.spans.len(), 2, "old spans cleared");
        assert_eq!(q.hists.get(SpanKind::UdfEval).count(), 1);
        let session = t.session_histograms();
        assert_eq!(session.get(SpanKind::UdfEval).count(), 2);
        assert_eq!(session.get(SpanKind::Query).count(), 2);
    }

    #[test]
    fn deterministic_masks_wall_fields_only() {
        let t = TraceSink::new();
        t.begin_query("q");
        t.leaf(SpanKind::SegmentIo, "v1.seg", 0, 123_456, 64);
        t.end_query(0, 0);
        let q = t.last_query();
        let d = q.deterministic();
        assert!(d.spans.iter().all(|s| s.wall_ns == 0 && s.start_ns == 0));
        assert_eq!(d.spans[1].count, 64, "counts survive masking");
        assert_eq!(d.spans[1].label, "v1.seg");
        assert_eq!(d.hists, SpanHists::default());
        // Two identical runs of deterministic() compare equal.
        assert_eq!(d, q.deterministic());
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let t = TraceSink::new();
        t.set_enabled(false);
        t.begin_query("q");
        let (tok, r) = t.enter(None, SpanKind::Operator, "x", None);
        assert!(r.is_none());
        t.exit(tok, NS_PER_MS, 1);
        t.leaf(SpanKind::UdfEval, "det", NS_PER_MS, 1, 1);
        t.end_query(NS_PER_MS, 1);
        assert!(t.last_query().spans.is_empty());
        t.set_enabled(true);
        t.begin_query("q2");
        assert_eq!(t.last_query().spans.len(), 1);
    }

    #[test]
    fn render_shows_tree_and_chrome_json_parses() {
        let t = TraceSink::new();
        t.begin_query("SELECT x");
        let (tok, _) = t.enter(None, SpanKind::Operator, "Apply det", Some(OpId(3)));
        t.leaf(SpanKind::UdfEval, "det", 99 * NS_PER_MS, 2_000_000, 20);
        t.exit(tok, 100 * NS_PER_MS, 20);
        t.end_query(100 * NS_PER_MS, 20);
        let q = t.last_query();
        let text = q.render();
        assert!(text.contains("query SELECT x"), "{text}");
        assert!(text.contains("  operator Apply det"), "{text}");
        assert!(text.contains("    udf_eval det"), "{text}");
        let parsed = Json::parse(&q.to_chrome_json()).expect("chrome JSON is valid");
        let events = parsed.as_array().expect("an array of events");
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph"), Some(&Json::from("X")));
        assert_eq!(
            events[2].get("args").and_then(|a| a.get("parent")),
            Some(&Json::U64(2))
        );
    }

    #[test]
    fn prometheus_text_exports_counters_and_histograms() {
        let sink = crate::metrics::MetricsSink::new();
        sink.record_udf_calls(3, 7, 693 * NS_PER_MS);
        let mut hists = SpanHists::default();
        hists.record(SpanKind::ViewProbe, 1_000);
        hists.record(SpanKind::ViewProbe, 2_000);
        let text = prometheus_text(&sink.snapshot(), &hists);
        assert!(text.contains("eva_udf_calls_avoided 7"), "{text}");
        // A nanosecond counter keeps its millisecond export.
        assert!(text.contains("eva_udf_ms_avoided 693\n"), "{text}");
        assert!(
            text.contains("eva_span_latency_seconds_count{kind=\"view_probe\"} 2"),
            "{text}"
        );
        assert!(text.contains("le=\"+Inf\"} 2"), "{text}");
    }

    #[test]
    fn span_cap_drops_and_counts() {
        let t = TraceSink::new();
        t.begin_query("q");
        for i in 0..(MAX_SPANS + 10) {
            t.leaf(SpanKind::ViewProbe, "k", 0, i as u64, 1);
        }
        let q = t.last_query();
        assert_eq!(q.spans.len(), MAX_SPANS);
        assert_eq!(q.dropped, 11);
        // Histograms still saw every sample.
        assert_eq!(
            q.hists.get(SpanKind::ViewProbe).count(),
            (MAX_SPANS + 10) as u64
        );
    }
}
