//! Workload execution and reporting.

use eva_common::json::Json;
use eva_common::{CostBreakdown, MetricsSnapshot, Result};
use eva_core::EvaDb;

use crate::queries::QuerySpec;

/// A named list of queries run back-to-back from a clean state.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload label (e.g. `vbench-high`).
    pub name: String,
    /// Queries in execution order.
    pub queries: Vec<QuerySpec>,
}

impl Workload {
    /// Construct from a query set.
    pub fn new(name: impl Into<String>, queries: Vec<QuerySpec>) -> Workload {
        Workload {
            name: name.into(),
            queries,
        }
    }
}

/// Per-query outcome.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Query label.
    pub name: String,
    /// Result row count (used to validate result equivalence across
    /// strategies).
    pub n_rows: usize,
    /// Simulated seconds spent on this query.
    pub sim_secs: f64,
    /// Per-category breakdown (Fig. 6a / Table 4).
    pub breakdown: CostBreakdown,
    /// Wall-clock milliseconds actually spent executing.
    pub wall_ms: f64,
    /// Wall-clock milliseconds the planner spent binding and optimizing
    /// (Fig. 6's optimization overhead). Wall time: planning is real work,
    /// never charged to the simulated clock.
    pub optimize_wall_ms: f64,
}

/// Whole-workload outcome.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload label.
    pub workload: String,
    /// Per-query reports in execution order.
    pub per_query: Vec<QueryReport>,
    /// Total simulated seconds.
    pub total_sim_secs: f64,
    /// Aggregate hit percentage (Table 2).
    pub hit_percentage: f64,
    /// Total materialized-view bytes at the end (§5.2 storage footprint).
    pub view_bytes: u64,
    /// Total / distinct UDF invocation counts (Eq. 7 inputs).
    pub total_invocations: u64,
    /// Distinct UDF invocations.
    pub distinct_invocations: u64,
    /// Runtime-metrics snapshot for the whole workload (probe hit rates,
    /// UDF calls avoided, zero-copy rows — see DESIGN.md §Observability).
    pub metrics: MetricsSnapshot,
}

/// Run a workload from a clean reuse state, capturing all metrics. The
/// session's strategy determines which system under test this measures.
pub fn run_workload(db: &mut EvaDb, workload: &Workload) -> Result<WorkloadReport> {
    db.reset_reuse_state();
    let metrics_before = db.metrics_snapshot();
    let mut per_query = Vec::with_capacity(workload.queries.len());
    for q in &workload.queries {
        let out = db.execute_sql(&q.sql)?.rows()?;
        per_query.push(QueryReport {
            name: q.name.clone(),
            n_rows: out.n_rows(),
            sim_secs: out.sim_secs(),
            breakdown: out.breakdown,
            wall_ms: out.wall_ms,
            optimize_wall_ms: out.plan_wall_ms,
        });
    }
    let (total_invocations, distinct_invocations) = db.invocation_stats().totals();
    Ok(WorkloadReport {
        workload: workload.name.clone(),
        per_query,
        total_sim_secs: db.cost_snapshot().total_secs(),
        hit_percentage: db.invocation_stats().hit_percentage(),
        view_bytes: db.storage().total_view_bytes(),
        total_invocations,
        distinct_invocations,
        metrics: db.metrics_snapshot().since(&metrics_before),
    })
}

impl WorkloadReport {
    /// Speedup of this report relative to a reference (No-Reuse) report.
    pub fn speedup_over(&self, reference: &WorkloadReport) -> f64 {
        if self.total_sim_secs <= 0.0 {
            return 1.0;
        }
        reference.total_sim_secs / self.total_sim_secs
    }

    /// Result-cardinality fingerprint for cross-strategy validation.
    pub fn row_counts(&self) -> Vec<usize> {
        self.per_query.iter().map(|q| q.n_rows).collect()
    }

    /// The report as the experiment artifacts record it: simulated numbers,
    /// the deterministic counters, and two labelled wall-clock fields per
    /// query (`wall_ms`, `optimize_wall_ms`).
    pub fn to_json(&self) -> Json {
        let query = |q: &QueryReport| {
            Json::obj([
                ("name", Json::from(q.name.as_str())),
                ("n_rows", Json::from(q.n_rows)),
                ("sim_secs", Json::Num(q.sim_secs)),
                ("breakdown", q.breakdown.to_json()),
                ("wall_ms", Json::Num(q.wall_ms)),
                ("optimize_wall_ms", Json::Num(q.optimize_wall_ms)),
            ])
        };
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("per_query", Json::arr(self.per_query.iter().map(query))),
            ("total_sim_secs", Json::Num(self.total_sim_secs)),
            ("hit_percentage", Json::Num(self.hit_percentage)),
            ("view_bytes", Json::from(self.view_bytes)),
            ("total_invocations", Json::from(self.total_invocations)),
            (
                "distinct_invocations",
                Json::from(self.distinct_invocations),
            ),
            ("metrics", self.metrics.deterministic().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{vbench_high, DetectorKind};
    use eva_common::CostCategory;
    use eva_core::SessionConfig;
    use eva_planner::ReuseStrategy;
    use eva_video::generator::generate;
    use eva_video::VideoConfig;

    fn tiny_db(strategy: ReuseStrategy) -> EvaDb {
        let mut db = EvaDb::new(SessionConfig::for_strategy(strategy)).unwrap();
        db.load_video(
            generate(VideoConfig {
                name: "v".into(),
                n_frames: 200,
                width: 96,
                height: 54,
                fps: 25.0,
                target_density: 6.0,
                person_fraction: 0.0,
                seed: 9,
            }),
            "video",
        )
        .unwrap();
        db
    }

    fn tiny_workload() -> Workload {
        Workload::new(
            "tiny-high",
            vbench_high(200, DetectorKind::Physical("fasterrcnn_resnet50"), false),
        )
    }

    #[test]
    fn eva_beats_no_reuse_on_high_overlap() {
        let w = tiny_workload();
        let mut no = tiny_db(ReuseStrategy::NoReuse);
        let r_no = run_workload(&mut no, &w).unwrap();
        let mut eva = tiny_db(ReuseStrategy::Eva);
        let r_eva = run_workload(&mut eva, &w).unwrap();
        assert_eq!(
            r_no.row_counts(),
            r_eva.row_counts(),
            "strategies must agree on results"
        );
        let speedup = r_eva.speedup_over(&r_no);
        assert!(speedup > 2.0, "EVA speedup on high-reuse: {speedup}");
        assert!(r_eva.hit_percentage > 30.0);
        assert_eq!(r_no.hit_percentage, 0.0);
        assert!(r_eva.view_bytes > 0);

        let json = Json::parse(&r_eva.to_json().pretty()).unwrap();
        let per_query = json.get("per_query").and_then(Json::as_array).unwrap();
        assert_eq!(per_query.len(), w.queries.len());
        let udf_ms = per_query[0].get("breakdown").and_then(|b| b.get("udf"));
        let want = r_eva.per_query[0].breakdown.get(CostCategory::Udf);
        assert_eq!(udf_ms.and_then(Json::as_f64), Some(want));
        let avoided = json.get("metrics").and_then(|m| m.get("udf_calls_avoided"));
        assert_eq!(avoided, Some(&Json::U64(r_eva.metrics.udf_calls_avoided)));
    }

    #[test]
    fn report_carries_workload_name_and_metrics() {
        let w = Workload::new("w", vec![]);
        let mut db = tiny_db(ReuseStrategy::NoReuse);
        let r = run_workload(&mut db, &w).unwrap();
        assert_eq!(r.workload, "w");
        // An empty workload still embeds a (zeroed) metrics snapshot.
        assert_eq!(r.metrics.udf_calls_requested, 0);
        let copy = r.metrics;
        assert_eq!(copy, r.metrics, "snapshot is plain copyable data");
    }

    #[test]
    fn report_metrics_reflect_reuse() {
        let w = tiny_workload();
        let mut eva = tiny_db(ReuseStrategy::Eva);
        let r = run_workload(&mut eva, &w).unwrap();
        let m = &r.metrics;
        assert!(m.probe_hits > 0, "{m:?}");
        assert!(m.udf_calls_avoided > 0, "{m:?}");
        assert_eq!(m.probes, m.probe_hits + m.probe_misses, "{m:?}");
        assert_eq!(
            m.udf_calls_requested,
            m.udf_calls_executed + m.udf_calls_avoided,
            "{m:?}"
        );

        let mut no = tiny_db(ReuseStrategy::NoReuse);
        let r_no = run_workload(&mut no, &w).unwrap();
        assert_eq!(r_no.metrics.udf_calls_avoided, 0, "{:?}", r_no.metrics);
        assert_eq!(r_no.metrics.probe_hits, 0, "{:?}", r_no.metrics);
    }
}
