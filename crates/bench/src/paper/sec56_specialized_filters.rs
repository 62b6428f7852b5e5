//! **§5.6** — Impact of specialized filters: VBENCH-HIGH on Jackson with
//! reuse enabled, with and without a lightweight 2-conv specialized filter
//! (`specialized_filter(frame) = 'true'`) prepended to every query's WHERE
//! clause. The filter's own results are materialized like any UDF's.
//!
//! Paper values: EVA 1393 s vs EVA+Filter 1075 s (≈1.3× on top of reuse) —
//! filtering and reuse are complementary.

use crate::{
    banner, fmt_f, jackson_dataset, row, session_with, with_metrics, Json, TextTable,
};
use eva_common::MetricsSnapshot;
use eva_planner::ReuseStrategy;
use eva_vbench::{run_workload, vbench_high, DetectorKind, Workload};

pub fn run() -> eva_common::Result<Json> {
    banner("Section 5.6: Reuse + specialized filters (Jackson, VBENCH-HIGH)");
    let ds = jackson_dataset();
    let det = DetectorKind::Physical("fasterrcnn_resnet50");

    let mut table = TextTable::new(vec!["config", "execution time (s)"]);
    let mut times = Vec::new();
    let mut eva_metrics = MetricsSnapshot::default();
    for (label, with_filter) in [("EVA", false), ("EVA+Filter", true)] {
        let workload = Workload::new(label, vbench_high(ds.len(), det.clone(), with_filter));
        let mut db = session_with(ReuseStrategy::Eva, &ds)?;
        let r = run_workload(&mut db, &workload)?;
        table.row(vec![label.to_string(), fmt_f(r.total_sim_secs, 0)]);
        times.push(r.total_sim_secs);
        eva_metrics = eva_metrics.plus(&r.metrics);
    }
    println!("{}", table.render());
    println!(
        "filter gain on top of reuse: {:.2}x",
        times[0] / times[1].max(1e-9)
    );
    let rows = vec![row!["EVA", times[0]], row!["EVA+Filter", times[1]]];
    Ok(with_metrics(rows, &eva_metrics))
}
