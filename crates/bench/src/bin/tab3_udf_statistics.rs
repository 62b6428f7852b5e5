//! **Table 3** — UDF statistics under VBENCH-HIGH on medium UA-DETRAC:
//! per-tuple cost `C_u`, distinct invocations `#DI`, total invocations
//! `#TI`, and device, plus the §5.2 storage-footprint numbers.
//!
//! Paper values (for shape): FasterRCNN-RN50 99 ms 13,820 / 72,457 GPU;
//! CarType 6 ms 114,431 / 414,119 GPU; ColorDet 5 ms 111,631 / 219,264 CPU.
//! Storage footprint ≈ 14.3 MiB vs a 16 GiB video (~0.09%).

use eva_bench::{banner, medium_dataset, row, session_with, write_json_with_metrics, TextTable};
use eva_planner::ReuseStrategy;
use eva_vbench::{run_workload, vbench_high, DetectorKind, Workload};

fn main() -> eva_common::Result<()> {
    banner("Table 3: UDF Statistics (VBENCH-HIGH, medium UA-DETRAC)");
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

    let mut table = TextTable::new(vec!["UDF", "C_u (ms)", "#DI", "#TI", "GPU/CPU"]);
    let mut json = Vec::new();
    for (name, counters) in db.invocation_stats().all() {
        let def = db.catalog().udf(&name)?;
        if !counters.countable() {
            continue; // AREA-class UDFs are not reported by the paper
        }
        table.row(vec![
            name.clone(),
            format!("{:.0}", def.cost_ms.unwrap_or(0.0)),
            counters.distinct_inputs.to_string(),
            counters.total_invocations.to_string(),
            if def.gpu { "GPU" } else { "CPU" }.to_string(),
        ]);
        json.push(row![
            name,
            def.cost_ms.unwrap_or(0.0),
            counters.distinct_inputs,
            counters.total_invocations
        ]);
    }
    println!("{}", table.render());

    // §5.2 storage footprint.
    let view_mib = report.view_bytes as f64 / (1024.0 * 1024.0);
    let video_gib = (ds.frame_bytes() * ds.len()) as f64 / (1024.0 * 1024.0 * 1024.0);
    println!(
        "Storage footprint: views = {view_mib:.1} MiB, video = {video_gib:.1} GiB \
         (overhead {:.3}%)",
        view_mib / (video_gib * 1024.0) * 100.0
    );
    write_json_with_metrics("tab3_udf_statistics", json, &report.metrics);
    Ok(())
}
