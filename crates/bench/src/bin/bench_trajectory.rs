//! The perf-trajectory harness: run the vBENCH-HIGH workload under the
//! full EVA strategy and *append* one `{commit, counters, quantiles}`
//! record to `experiments_out/BENCH_trajectory.json`, so the file
//! accumulates a per-commit history of the reuse path's behaviour instead
//! of a single overwritten snapshot.
//!
//! The counters are the deterministic reuse counters (scheduling-dependent
//! ones masked — see `MetricsSnapshot::deterministic`), which is what the
//! CI perf gate diffs across commits. The quantiles are wall-clock
//! latencies per span kind — machine-dependent, recorded for trend
//! plotting, never gated.
//!
//! Side products of the same run: a Prometheus text snapshot
//! (`BENCH_trajectory.prom`) and a Chrome trace of the workload's last
//! query (`BENCH_trajectory.trace.json`).

use eva_bench::{
    append_json_record, banner, medium_dataset, session_with, write_chrome_trace, write_prometheus,
    Json, TextTable,
};
use eva_planner::ReuseStrategy;
use eva_vbench::{run_workload, vbench_high, DetectorKind, Workload};

/// Commit id for the record: `EVA_COMMIT` when set (CI passes it), else
/// `git rev-parse --short HEAD`, else `"unknown"`.
fn commit_id() -> String {
    if let Ok(c) = std::env::var("EVA_COMMIT") {
        if !c.trim().is_empty() {
            return c.trim().to_string();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    banner("BENCH trajectory: reuse counters + latency quantiles per commit");
    let ds = medium_dataset();
    let mut db = session_with(ReuseStrategy::Eva, &ds).expect("session");
    let workload = Workload::new(
        "vbench-high",
        vbench_high(
            ds.len(),
            DetectorKind::Physical("fasterrcnn_resnet50"),
            false,
        ),
    );
    let report = run_workload(&mut db, &workload).expect("workload");

    let counters = report.metrics.deterministic();
    let hists = db.session_latency();
    let mut table = TextTable::new(vec!["span kind", "n", "p50", "p95", "p99", "max"]);
    let fmt_ms = |ns: u64| format!("{:.3}ms", ns as f64 / 1e6);
    let mut quantiles = Vec::new();
    for (kind, h) in hists.non_empty() {
        table.row(vec![
            kind.label().to_string(),
            h.count().to_string(),
            fmt_ms(h.p50()),
            fmt_ms(h.p95()),
            fmt_ms(h.p99()),
            fmt_ms(h.max()),
        ]);
        quantiles.push((
            kind.label(),
            Json::obj([
                ("n", Json::from(h.count())),
                ("p50_ns", Json::from(h.p50())),
                ("p95_ns", Json::from(h.p95())),
                ("p99_ns", Json::from(h.p99())),
                ("max_ns", Json::from(h.max())),
            ]),
        ));
    }
    println!("{}", table.render());
    println!(
        "workload {}: {:.1}s simulated, {} UDF calls avoided, {} probe hits",
        report.workload, report.total_sim_secs, counters.udf_calls_avoided, counters.probe_hits
    );

    let commit = commit_id();
    append_json_record(
        "BENCH_trajectory",
        Json::obj([
            ("commit", Json::from(commit.as_str())),
            ("workload", Json::from(report.workload.as_str())),
            ("total_sim_secs", Json::from(report.total_sim_secs)),
            ("counters", counters.to_json()),
            ("quantiles", Json::obj(quantiles)),
        ]),
    );
    write_prometheus("BENCH_trajectory", &db.metrics_snapshot(), &hists);
    write_chrome_trace("BENCH_trajectory", &db.last_trace());
    println!("appended trajectory record for commit {commit}");
}
