//! Structural tests for query-scoped tracing (DESIGN.md §Tracing &
//! latency model): every query must leave behind a well-formed span tree
//! whose per-span unit counts reconcile exactly with the runtime-metrics
//! counters, and whose deterministic projection is bit-identical across
//! fresh sessions.
//!
//! What is locked, and what deliberately is not:
//!
//! * **Tree shape** — one root `query` span with id 1, every other span's
//!   parent created before it (spans are stored in creation pre-order).
//! * **Count reconciliation** (under `ReuseStrategy::Eva`, where the
//!   conditional-APPLY path is the only UDF driver): the `udf_eval` span
//!   counts sum to `udf_calls_executed` and the `view_probe` span counts
//!   sum to `probes` — the trace and the counters are two views of the
//!   same events, so they cannot disagree.
//! * **Histogram accounting** — each span exit records exactly one
//!   wall-clock sample, so per-kind histogram counts equal the summed
//!   `calls` of that kind's spans (as long as no span was dropped).
//! * **Wall-clock values are never asserted** — they are nondeterministic
//!   by design; [`QueryTrace::deterministic`] masks them, and the golden
//!   below locks only the digit-redacted rendering of that projection.
//!
//! Bless mode: `EVA_BLESS=1 cargo test --test trace_tree` re-records the
//! golden under `tests/goldens/trace_tree/`. Without it a missing golden
//! fails, so a golden path that points at the wrong place cannot pass by
//! recording a fresh file.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use eva_common::{QueryTrace, SpanKind};
use eva_harness::test_session;
use eva_planner::ReuseStrategy;

const N: u64 = 100;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/trace_tree")
}

fn window_sql(lo: u64, hi: u64) -> String {
    format!(
        "SELECT id, bbox FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
         WHERE id >= {lo} AND id < {hi} AND label = 'car'"
    )
}

/// Replace every digit run (including decimals) with `#`, leaving digits
/// embedded in identifiers (`fasterrcnn_resnet50`) alone — same redaction
/// the EXPLAIN ANALYZE goldens use.
fn redact(text: &str) -> String {
    let mut out = String::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let prev_is_word = out
            .chars()
            .last()
            .is_some_and(|p| p.is_ascii_alphanumeric() || p == '_');
        if c.is_ascii_digit() && !prev_is_word {
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                i += 1;
            }
            out.push('#');
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// Assert the span tree is well-formed and return per-kind `(Σ count,
/// Σ calls)` totals for reconciliation.
fn check_tree(trace: &QueryTrace) -> BTreeMap<&'static str, (u64, u64)> {
    assert!(!trace.spans.is_empty(), "query left no spans");
    assert_eq!(trace.dropped, 0, "test queries must fit the span cap");
    let root = &trace.spans[0];
    assert_eq!(root.id, 1, "root span id");
    assert_eq!(root.parent, None, "root has no parent");
    assert_eq!(root.kind, SpanKind::Query, "root kind");
    let mut seen = std::collections::BTreeSet::new();
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in &trace.spans {
        assert!(seen.insert(s.id), "duplicate span id {}", s.id);
        if let Some(p) = s.parent {
            assert!(
                seen.contains(&p),
                "span {} references parent {p} created after it",
                s.id
            );
        } else {
            assert_eq!(s.id, 1, "only the root may be parentless");
        }
        assert!(s.calls >= 1, "span {} was never entered", s.id);
        let t = totals.entry(s.kind.label()).or_default();
        t.0 += s.count;
        t.1 += s.calls;
    }
    totals
}

#[test]
fn span_counts_reconcile_with_metrics() {
    let mut db = test_session(ReuseStrategy::Eva, 424, N);

    // Cold window: every frame is evaluated, none probed from a view yet
    // (the probe batch still runs and reports misses).
    let cold = db.execute_sql(&window_sql(0, 60)).unwrap().rows().unwrap();
    let totals = check_tree(&cold.trace);
    let sum = |totals: &BTreeMap<&'static str, (u64, u64)>, label: &str| {
        totals.get(label).map(|t| t.0).unwrap_or(0)
    };
    let m = &cold.metrics;
    assert_eq!(sum(&totals, "udf_eval"), m.udf_calls_executed, "{m:?}");
    assert_eq!(sum(&totals, "view_probe"), m.probes, "{m:?}");
    assert!(m.udf_calls_executed > 0, "{m:?}");

    // Warm overlapping window: probes hit for the overlap, evals only for
    // the new frames — the same reconciliation must keep holding.
    let warm = db
        .execute_sql(&window_sql(30, 100))
        .unwrap()
        .rows()
        .unwrap();
    let totals = check_tree(&warm.trace);
    let m = &warm.metrics;
    assert_eq!(sum(&totals, "view_probe"), m.probes, "{m:?}");
    assert_eq!(sum(&totals, "udf_eval"), m.udf_calls_executed, "{m:?}");
    assert!(m.probe_hits > 0, "{m:?}");

    // Fully covered window: all reuse, so no udf_eval span at all.
    let full = db.execute_sql(&window_sql(0, 100)).unwrap().rows().unwrap();
    let totals = check_tree(&full.trace);
    let m = &full.metrics;
    assert_eq!(m.udf_calls_executed, 0, "{m:?}");
    assert_eq!(
        sum(&totals, "udf_eval"),
        0,
        "no evals → no udf_eval span counts"
    );
    assert_eq!(sum(&totals, "view_probe"), m.probes, "{m:?}");
}

#[test]
fn histogram_counts_equal_span_entries() {
    let mut db = test_session(ReuseStrategy::Eva, 525, N);
    for (lo, hi) in [(0, 50), (25, 75), (0, 100)] {
        let out = db.execute_sql(&window_sql(lo, hi)).unwrap().rows().unwrap();
        let totals = check_tree(&out.trace);
        for (kind, h) in out.trace.hists.non_empty() {
            let calls = totals.get(kind.label()).map(|t| t.1).unwrap_or(0);
            assert_eq!(
                h.count(),
                calls,
                "[{lo},{hi}) {}: one histogram sample per span entry",
                kind.label()
            );
        }
        // And no kind has spans without histogram samples.
        for (label, (_, calls)) in &totals {
            let kind = SpanKind::ALL
                .iter()
                .find(|k| k.label() == *label)
                .expect("known kind");
            assert_eq!(
                out.trace.hists.get(*kind).count(),
                *calls,
                "[{lo},{hi}) {label}"
            );
        }
    }
}

#[test]
fn deterministic_projection_is_identical_across_sessions() {
    let run = || {
        let mut db = test_session(ReuseStrategy::Eva, 626, N);
        let mut traces = Vec::new();
        for (lo, hi) in [(0, 40), (20, 80), (0, 100)] {
            let out = db.execute_sql(&window_sql(lo, hi)).unwrap().rows().unwrap();
            traces.push(out.trace.deterministic());
        }
        traces
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "masked traces must be bit-identical across sessions");
    // The masked projection really is masked: rendering it twice from the
    // same session state is stable text.
    for t in &a {
        assert_eq!(t.render(), t.render());
        for s in &t.spans {
            assert_eq!(s.wall_ns, 0);
            assert_eq!(s.start_ns, 0);
        }
    }
}

#[test]
fn trace_tree_structure_matches_golden() {
    let mut db = test_session(ReuseStrategy::Eva, 727, N);
    let mut rendered = String::new();
    for (lo, hi) in [(0, 60), (30, 100)] {
        let out = db.execute_sql(&window_sql(lo, hi)).unwrap().rows().unwrap();
        rendered.push_str(&format!("== window [{lo}, {hi}) ==\n"));
        rendered.push_str(&out.trace.deterministic().render());
    }
    let redacted = redact(&rendered);
    let path = golden_dir().join("warm_cold_windows.golden");
    if std::env::var("EVA_BLESS").is_ok() {
        fs::create_dir_all(golden_dir()).unwrap();
        fs::write(&path, redacted.trim_end()).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with EVA_BLESS=1 to record",
            path.display()
        )
    });
    assert_eq!(
        expected.trim_end(),
        redacted.trim_end(),
        "trace tree structure drifted (EVA_BLESS=1 to re-record)"
    );
}
