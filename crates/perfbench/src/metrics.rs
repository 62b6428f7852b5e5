//! The benchmark's metric tables: every name it may print, with its unit and
//! direction. `BENCHMARK.json` at the repository root mirrors these tables;
//! a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may get worse before a change counts as a regression.
    pub bound: Option<f64>,
    /// Whether two runs on one seed must agree to the last bit.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
    }
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Printed with `--trace 0`.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("query_wall_ms_p50", "ms", Lower, 0.20, false),
    e2e("query_wall_ms_p90", "ms", Lower, 0.20, false),
    e2e("queries_per_s", "1/s", Higher, 0.15, false),
    e2e("sim_speedup_x", "x", Higher, 0.05, true),
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("peak_rss_mb", "MiB", Lower, 0.15, false),
];

/// Single layers, from the traced run. Printed with `--trace 1`.
pub const PER_LAYER: [MetricSpec; 62] = [
    timed("video.generate_ms", "ms", Lower),
    timed("core.load_video_ms", "ms", Lower),
    timed("core.session_residue_us_p50", "us", Lower),
    timed("core.session_residue_us_p90", "us", Lower),
    timed("parser.parse_us_p50", "us", Lower),
    timed("planner.bind_us_p50", "us", Lower),
    timed("planner.optimize_us_p50", "us", Lower),
    timed("planner.optimize_us_p90", "us", Lower),
    timed("planner.optimize_growth_x", "x", Lower),
    timed("planner.share_pct", "%", Lower),
    exact("symbolic.agg_conjuncts_max", "count", Lower),
    exact("symbolic.agg_atoms_max", "count", Lower),
    timed("symbolic.op_us_p50", "us", Lower),
    timed("symbolic.op_us_p90", "us", Lower),
    timed("exec.execute_ms_p50", "ms", Lower),
    timed("exec.share_pct", "%", Lower),
    timed("exec.scan_self_ms", "ms", Lower),
    timed("exec.filter_project_self_ms", "ms", Lower),
    timed("exec.apply_self_ms", "ms", Lower),
    timed("exec.agg_sort_self_ms", "ms", Lower),
    timed("exec.pipeline_ms", "ms", Lower),
    exact("exec.frames_scanned", "count", Lower),
    exact("exec.columnar_rows", "count", Higher),
    exact("exec.rows_pivoted", "count", Lower),
    exact("exec.morsels_dispatched", "count", Higher),
    exact("exec.n_workers", "count", Higher),
    timed("exec.frames_per_s", "1/s", Higher),
    timed("udf.eval_ms", "ms", Lower),
    exact("udf.calls_executed", "count", Lower),
    exact("udf.calls_avoided", "count", Higher),
    exact("udf.retries", "count", Lower),
    timed("udf.eval_us_per_call", "us", Lower),
    exact("udf.hit_pct", "%", Higher),
    timed("storage.probe_ms", "ms", Lower),
    timed("storage.shard_wait_ms", "ms", Lower),
    exact("storage.probes", "count", Lower),
    exact("storage.probe_hit_ratio", "ratio", Higher),
    exact("storage.view_rows_read", "count", Lower),
    exact("storage.view_rows_written", "count", Lower),
    exact("storage.rows_zero_copy", "count", Higher),
    exact("storage.view_bytes", "B", Lower),
    timed("storage.probe_ns_per_key", "ns", Lower),
    exact("storage.view_mem_bytes_per_row", "B", Lower),
    exact("storage.saved_bytes", "B", Lower),
    exact("storage.view_disk_bytes_per_row", "B", Lower),
    timed("storage.resume_ms_p50", "ms", Lower),
    timed("storage.save_ms_p50", "ms", Lower),
    timed("storage.save_mb_per_s", "MiB/s", Higher),
    timed("storage.recover_mb_per_s", "MiB/s", Higher),
    timed("storage.segment_io_ms", "ms", Lower),
    exact("storage.views_recovered", "count", Higher),
    exact("storage.views_quarantined", "count", Lower),
    exact("sim.udf_s", "s", Lower),
    exact("sim.read_video_s", "s", Lower),
    exact("sim.read_view_s", "s", Lower),
    exact("sim.materialize_s", "s", Lower),
    exact("sim.apply_s", "s", Lower),
    timed("sim.optimize_wall_ms", "ms", Lower),
    timed("common.trace_spans_per_query", "count", Lower),
    exact("common.trace_spans_dropped", "count", Lower),
    timed("common.trace_overhead_pct", "%", Lower),
    timed("bench.span_overhead_pct", "%", Lower),
];

pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .unwrap()
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} in {entry}"))
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let file = benchmark_json();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = file.get(key).unwrap().as_array();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, spec) in listed.iter().zip(table) {
                assert_eq!(field(entry, "name"), spec.name);
                assert_eq!(field(entry, "unit"), spec.unit, "{}", spec.name);
                assert_eq!(
                    field(entry, "better"),
                    spec.better.as_str(),
                    "{}",
                    spec.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    spec.bound,
                    "{}",
                    spec.name
                );
            }
        }
        let workloads: Vec<&str> = file
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(spec.name), "{} is listed twice", spec.name);
            assert!(spec.name.len() <= 64 && spec.unit.len() <= 16);
            assert!(spec
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(spec
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
