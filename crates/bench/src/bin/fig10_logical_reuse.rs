//! **Figure 10** — Impact of logical UDF reuse (Algorithm 2): per-query
//! execution time of Min-Cost-NoReuse, Min-Cost, and EVA on VBENCH-HIGH
//! with the detector expressed as the logical `ObjectDetector` task.
//!
//! Paper shape: EVA is ~6.6× faster on the LOW-accuracy query (it reuses
//! the high-accuracy view instead of running YOLO-tiny), 1.2–3.2× faster on
//! the later queries (multi-view reuse), and ~2× *slower* on one query where
//! the reused high-accuracy view detects more objects, inflating dependent
//! UDF work (§6's chained-function-calls limitation).

use eva_bench::{
    banner, fmt_f, medium_dataset, row, session_with_config, write_json_with_metrics, TextTable,
};
use eva_core::SessionConfig;
use eva_planner::ReuseStrategy;
use eva_vbench::{run_workload, vbench_high, DetectorKind, Workload};

fn main() -> eva_common::Result<()> {
    banner("Figure 10: Logical UDF reuse (times in seconds, per query)");
    let ds = medium_dataset();
    let queries = vbench_high(ds.len(), DetectorKind::Logical, false);
    let workload = Workload::new("vbench-high-logical", queries.clone());

    // Min-Cost resolves each logical UDF to its cheapest eligible model with
    // Algorithm 2's cross-model view cover off; Min-Cost-NoReuse also
    // disables reuse.
    let config = |strategy, logical_set_cover| {
        let mut cfg = SessionConfig::for_strategy(strategy);
        cfg.planner.logical_set_cover = logical_set_cover;
        cfg
    };
    let mut reports = Vec::new();
    let mut labels = Vec::new();
    for (label, cfg) in [
        ("Min-cost-noreuse", config(ReuseStrategy::NoReuse, false)),
        ("Min-cost", config(ReuseStrategy::Eva, false)),
        ("EVA", config(ReuseStrategy::Eva, true)),
    ] {
        let mut db = session_with_config(cfg, &ds)?;
        reports.push(run_workload(&mut db, &workload)?);
        labels.push(label);
    }

    let mut header = vec!["query".to_string(), "accuracy".to_string()];
    header.extend(labels.iter().map(|l| format!("{l} (s)")));
    header.push("EVA vs Min-cost".into());
    let mut table = TextTable::new(header);
    let mut json = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let times: Vec<f64> = reports.iter().map(|r| r.per_query[i].sim_secs).collect();
        let mut row = vec![q.name.clone(), q.accuracy.to_string()];
        row.extend(times.iter().map(|t| fmt_f(*t, 1)));
        row.push(format!("{:.2}x", times[1] / times[2].max(1e-9)));
        table.row(row);
        json.push(row![q.name.as_str(), times]);
    }
    println!("{}", table.render());
    // reports[2] is the EVA system (see the loop above).
    write_json_with_metrics("fig10_logical_reuse", json, &reports[2].metrics);
    Ok(())
}
