//! **Table 4** — Fine-grained time breakdown of Q8 (VBENCH-HIGH) under
//! No-Reuse and EVA: UDF evaluation, reading video, reading views,
//! materializing, and other.
//!
//! Paper values (for shape): No-Reuse = 997 s UDF + 22 s read-video;
//! EVA = 5 s UDF + 19 s read-video + 10 s read-view + 2 s materialize —
//! i.e. EVA replaces ~1000 s of inference with ~15 s of view IO.

use crate::{
    banner, fmt_f, medium_dataset, row, session_with, with_metrics, Json, TextTable,
};
use eva_common::CostCategory;
use eva_common::MetricsSnapshot;
use eva_planner::ReuseStrategy;
use eva_vbench::{run_workload, vbench_high, DetectorKind, Workload};

pub fn run() -> eva_common::Result<Json> {
    banner("Table 4: Time breakdown of Q8 (VBENCH-HIGH)");
    let ds = medium_dataset();
    let workload = Workload::new(
        "vbench-high",
        vbench_high(
            ds.len(),
            DetectorKind::Physical("fasterrcnn_resnet50"),
            false,
        ),
    );

    let mut table = TextTable::new(vec![
        "Latency (s)",
        "UDF",
        "Read Video",
        "Read View",
        "Mat",
        "Other",
    ]);
    let mut json = Vec::new();
    let mut eva_metrics = MetricsSnapshot::default();
    for (label, strategy) in [
        ("No-Reuse", ReuseStrategy::NoReuse),
        ("EVA", ReuseStrategy::Eva),
    ] {
        let mut db = session_with(strategy, &ds)?;
        let report = run_workload(&mut db, &workload)?;
        let q8 = report.per_query.last().expect("workload has queries");
        let b = &q8.breakdown;
        let other = b.get(CostCategory::Apply) + b.get(CostCategory::Other);
        table.row(vec![
            label.to_string(),
            fmt_f(b.get(CostCategory::Udf) / 1000.0, 1),
            fmt_f(b.get(CostCategory::ReadVideo) / 1000.0, 1),
            fmt_f(b.get(CostCategory::ReadView) / 1000.0, 1),
            fmt_f(b.get(CostCategory::Materialize) / 1000.0, 1),
            fmt_f(other / 1000.0, 1),
        ]);
        json.push(row![label, b.to_json()]);
        if strategy == ReuseStrategy::Eva {
            eva_metrics = report.metrics;
        }
    }
    println!("{}", table.render());
    Ok(with_metrics(json, &eva_metrics))
}
