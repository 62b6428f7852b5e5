//! Run the full experiment suite (every table and figure) in sequence.
//!
//! Equivalent to invoking each binary individually; results land both on
//! stdout and in `experiments_out/*.json`. After the runs, every expected
//! JSON artifact is validated — present, parsable, and non-empty — so a
//! binary that silently stops writing its output (the way
//! `BENCH_reuse_path.json` once regressed to nothing) fails the suite
//! instead of slipping through.

use std::process::Command;

use eva_bench::Json;

/// `(binary, expected JSON artifact)` for every experiment in the suite.
const EXPERIMENTS: [(&str, &str); 16] = [
    ("tab2_hit_percentage", "tab2_hit_percentage.json"),
    ("fig5_workload_speedup", "fig5_workload_speedup.json"),
    ("tab3_udf_statistics", "tab3_udf_statistics.json"),
    ("fig6_time_breakdown", "fig6_time_breakdown.json"),
    ("tab4_q8_breakdown", "tab4_q8_breakdown.json"),
    ("fig7_symbolic_reduction", "fig7_symbolic_reduction.json"),
    ("fig8_query_order", "fig8_query_order.json"),
    (
        "fig9_predicate_reordering",
        "fig9_predicate_reordering.json",
    ),
    ("fig10_logical_reuse", "fig10_logical_reuse.json"),
    ("tab5_model_zoo", "tab5_model_zoo.json"),
    ("fig11_video_content", "fig11_video_content.json"),
    ("fig12_video_length", "fig12_video_length.json"),
    (
        "sec56_specialized_filters",
        "sec56_specialized_filters.json",
    ),
    ("ablations", "ablations.json"),
    ("bench_reuse_path", "BENCH_reuse_path.json"),
    ("bench_trajectory", "BENCH_trajectory.json"),
];

/// Validate one artifact: it must exist, parse as JSON, and carry data (an
/// empty object/array means the experiment wrote a husk). Returns an error
/// description, or `None` when the artifact is healthy.
fn check_artifact(path: &std::path::Path) -> Option<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return Some(format!("missing ({e})")),
    };
    let value = match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => return Some(format!("unparsable ({e})")),
    };
    let empty = match &value {
        Json::Arr(a) => a.is_empty(),
        Json::Obj(o) => o.is_empty(),
        Json::Null => true,
        _ => false,
    };
    if empty {
        return Some("empty result".to_string());
    }
    // The reuse-path bench must carry a populated metrics section — the
    // counters the CI perf gate diffs.
    if path
        .file_name()
        .is_some_and(|n| n == "BENCH_reuse_path.json")
    {
        let rows_read = value
            .get("metrics")
            .and_then(|m| m.get("view_rows_read"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        if rows_read == 0 {
            return Some("metrics.view_rows_read is 0 — reuse path measured nothing".to_string());
        }
    }
    None
}

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut failed = Vec::new();
    for (name, _) in EXPERIMENTS {
        let path = dir.join(name);
        let status = if path.exists() {
            Command::new(&path).status()
        } else {
            // Fall back to cargo when running via `cargo run` in-tree.
            Command::new("cargo")
                .args(["run", "--release", "-p", "eva-bench", "--bin", name])
                .status()
        };
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("experiment {name} failed: {other:?}");
                failed.push(name);
            }
        }
    }
    let out = eva_bench::out_dir();
    for (name, artifact) in EXPERIMENTS {
        if failed.contains(&name) {
            continue; // already reported
        }
        if let Some(problem) = check_artifact(&out.join(artifact)) {
            eprintln!("artifact {artifact}: {problem}");
            failed.push(name);
        }
    }
    if failed.is_empty() {
        println!("\nAll experiments completed and artifacts validated. JSON in experiments_out/.");
    } else {
        eprintln!("\nFailed experiments: {failed:?}");
        std::process::exit(1);
    }
}
