//! **Figure 11** — Impact of video content: workload speedups of all four
//! systems on the Jackson dataset (sparse night street, ~0.1 vehicles per
//! frame).
//!
//! Paper shape: EVA still wins but the gaps shrink relative to UA-DETRAC —
//! sparse video means far fewer CarType/ColorDet invocations to reuse.

use eva_bench::{
    banner, fmt_x, jackson_dataset, row, session_with, write_json_with_metrics, TextTable,
};
use eva_common::MetricsSnapshot;
use eva_planner::ReuseStrategy;
use eva_vbench::{run_workload, vbench_high, vbench_low, DetectorKind, Workload};

fn main() -> eva_common::Result<()> {
    banner("Figure 11: Workload speedup on Jackson");
    let ds = jackson_dataset();
    println!(
        "jackson: {} frames, {:.2} vehicles/frame",
        ds.len(),
        ds.stats().vehicles_per_frame
    );
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

    let mut table = TextTable::new(vec![
        "workload",
        "no-reuse (h)",
        "HashStash",
        "FunCache",
        "EVA",
    ]);
    let mut json = Vec::new();
    let mut eva_metrics = MetricsSnapshot::default();
    for (wname, workload) in &workloads {
        let mut no = session_with(ReuseStrategy::NoReuse, &ds)?;
        let base = run_workload(&mut no, workload)?;
        let mut cells = vec![
            wname.to_string(),
            format!("{:.2}", base.total_sim_secs / 3600.0),
        ];
        for strategy in [
            ReuseStrategy::HashStash,
            ReuseStrategy::FunCache,
            ReuseStrategy::Eva,
        ] {
            let mut db = session_with(strategy, &ds)?;
            let r = run_workload(&mut db, workload)?;
            cells.push(fmt_x(r.speedup_over(&base)));
            if strategy == ReuseStrategy::Eva {
                eva_metrics = eva_metrics.plus(&r.metrics);
            }
            json.push(row![*wname, format!("{strategy:?}"), r.speedup_over(&base)]);
        }
        table.row(cells);
    }
    println!("{}", table.render());
    write_json_with_metrics("fig11_video_content", json, &eva_metrics);
    Ok(())
}
