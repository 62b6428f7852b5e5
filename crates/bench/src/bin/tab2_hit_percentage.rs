//! **Table 2** — Hit percentage of HashStash / FunCache / EVA on the
//! VBENCH-LOW and VBENCH-HIGH workloads (medium UA-DETRAC).
//!
//! Paper values: LOW 2.02 / 24.68 / 24.68; HIGH 5.62 / 66.01 / 66.01.
//! Expected shape: EVA ≫ HashStash on both workloads; FunCache close to EVA.

use eva_bench::{banner, medium_dataset, row, session_with, write_json_with_metrics, TextTable};
use eva_common::MetricsSnapshot;
use eva_planner::ReuseStrategy;
use eva_vbench::{run_workload, vbench_high, vbench_low, DetectorKind, Workload};

fn main() -> eva_common::Result<()> {
    banner("Table 2: Hit Percentage");
    let ds = medium_dataset();
    let det = DetectorKind::Physical("fasterrcnn_resnet50");

    let workloads = [
        (
            "vbench-low",
            Workload::new("vbench-low", vbench_low(ds.len(), det.clone(), false)),
        ),
        (
            "vbench-high",
            Workload::new("vbench-high", vbench_high(ds.len(), det, false)),
        ),
    ];
    let systems = [
        ("HashStash", ReuseStrategy::HashStash),
        ("FunCache", ReuseStrategy::FunCache),
        ("EVA", ReuseStrategy::Eva),
    ];

    let mut table = TextTable::new(vec!["Hit Percentage (%)", "HashStash", "FunCache", "EVA"]);
    let mut json = Vec::new();
    let mut eva_metrics = MetricsSnapshot::default();
    for (wname, workload) in &workloads {
        let mut row = vec![wname.to_string()];
        for (sname, strategy) in systems {
            let mut db = session_with(strategy, &ds)?;
            let report = run_workload(&mut db, workload)?;
            row.push(format!("{:.2}", report.hit_percentage));
            if strategy == ReuseStrategy::Eva {
                eva_metrics = eva_metrics.plus(&report.metrics);
            }
            json.push(row![*wname, sname, report.hit_percentage]);
        }
        table.row(row);
    }
    println!("{}", table.render());
    write_json_with_metrics("tab2_hit_percentage", json, &eva_metrics);
    Ok(())
}
