//! **Figure 6** — (a) per-query time breakdown of VBENCH-HIGH under EVA
//! (log-scale in the paper; we print seconds) and (b) the distribution of
//! the overhead sources: materialization, optimization, the apply operator,
//! and reads.
//!
//! Every column is simulated time except optimization, which is the
//! planner's measured wall time (`QueryReport::optimize_wall_ms`): planning
//! is real work here, not simulated work, so it is never charged to the
//! virtual clock and varies from run to run.
//!
//! Paper shape: the first few queries pay full UDF cost, later queries are
//! much faster; reuse overheads are far below UDF savings; reading
//! dominates among the overheads.

use crate::{banner, fmt_f, medium_dataset, session_with, with_metrics, Json, TextTable};
use eva_common::CostCategory;
use eva_planner::ReuseStrategy;
use eva_vbench::{run_workload, vbench_high, DetectorKind, QueryReport, Workload};

/// A Fig. 6b overhead source: its label and its milliseconds in one query.
type Source = (&'static str, fn(&QueryReport) -> f64);

pub fn run() -> eva_common::Result<Json> {
    banner("Figure 6a: Per-query time breakdown (VBENCH-HIGH under EVA)");
    let ds = medium_dataset();
    let workload = Workload::new(
        "vbench-high",
        vbench_high(
            ds.len(),
            DetectorKind::Physical("fasterrcnn_resnet50"),
            false,
        ),
    );
    let mut db = session_with(ReuseStrategy::Eva, &ds)?;
    let report = run_workload(&mut db, &workload)?;

    let mut table = TextTable::new(vec![
        "query",
        "total (s)",
        "udf (s)",
        "reuse = read_view+mat+apply (s)",
        "read_video (s)",
        "optimize, wall (s)",
    ]);
    for q in &report.per_query {
        let b = &q.breakdown;
        let reuse = b.get(CostCategory::ReadView)
            + b.get(CostCategory::Materialize)
            + b.get(CostCategory::Apply);
        table.row(vec![
            q.name.clone(),
            fmt_f(q.sim_secs, 1),
            fmt_f(b.get(CostCategory::Udf) / 1000.0, 1),
            fmt_f(reuse / 1000.0, 1),
            fmt_f(b.get(CostCategory::ReadVideo) / 1000.0, 1),
            fmt_f(q.optimize_wall_ms / 1000.0, 3),
        ]);
    }
    println!("{}", table.render());

    banner("Figure 6b: Overhead sources across queries (min / median / max, s)");
    let mut table = TextTable::new(vec!["source", "min", "median", "max"]);
    let sources: [Source; 4] = [
        ("materialization", |q| {
            q.breakdown.get(CostCategory::Materialize)
        }),
        ("optimization (wall)", |q| q.optimize_wall_ms),
        ("apply", |q| q.breakdown.get(CostCategory::Apply)),
        ("read (video+view)", |q| {
            q.breakdown.get(CostCategory::ReadVideo) + q.breakdown.get(CostCategory::ReadView)
        }),
    ];
    for (label, value) in sources {
        let mut vals: Vec<f64> = report.per_query.iter().map(|q| value(q) / 1000.0).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        table.row(vec![
            label.to_string(),
            fmt_f(vals[0], 2),
            fmt_f(vals[vals.len() / 2], 2),
            fmt_f(*vals.last().unwrap(), 2),
        ]);
    }
    println!("{}", table.render());
    Ok(with_metrics(report.to_json(), &report.metrics))
}
