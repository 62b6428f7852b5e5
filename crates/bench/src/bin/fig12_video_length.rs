//! **Figure 12** — Impact of video length: EVA's VBENCH-HIGH speedup on
//! SHORT / MEDIUM / LONG UA-DETRAC (query id-ranges scale with the video),
//! alongside the average vehicles per frame.
//!
//! Paper shape: speedup does not drop with longer video — it rises slightly
//! with LONG's higher vehicle density.

use eva_bench::{
    banner, fmt_f, fmt_x, row, session_with, sized_dataset, write_json_with_metrics, TextTable,
};
use eva_common::MetricsSnapshot;
use eva_planner::ReuseStrategy;
use eva_vbench::{run_workload, vbench_high, DetectorKind, Workload};
use eva_video::UaDetracSize;

fn main() -> eva_common::Result<()> {
    banner("Figure 12: Impact of video length (VBENCH-HIGH)");
    let mut table = TextTable::new(vec![
        "dataset",
        "frames",
        "vehicles/frame",
        "no-reuse (h)",
        "EVA speedup",
    ]);
    let mut json = Vec::new();
    let mut eva_metrics = MetricsSnapshot::default();
    for size in [
        UaDetracSize::Short,
        UaDetracSize::Medium,
        UaDetracSize::Long,
    ] {
        let ds = sized_dataset(size);
        let workload = Workload::new(
            size.name(),
            vbench_high(
                ds.len(),
                DetectorKind::Physical("fasterrcnn_resnet50"),
                false,
            ),
        );
        let mut no = session_with(ReuseStrategy::NoReuse, &ds)?;
        let base = run_workload(&mut no, &workload)?;
        let mut eva = session_with(ReuseStrategy::Eva, &ds)?;
        let r = run_workload(&mut eva, &workload)?;
        eva_metrics = eva_metrics.plus(&r.metrics);
        let stats = ds.stats();
        table.row(vec![
            size.name().to_string(),
            ds.len().to_string(),
            fmt_f(stats.vehicles_per_frame, 2),
            fmt_f(base.total_sim_secs / 3600.0, 2),
            fmt_x(r.speedup_over(&base)),
        ]);
        json.push(row![
            size.name(),
            stats.vehicles_per_frame,
            r.speedup_over(&base)
        ]);
    }
    println!("{}", table.render());
    write_json_with_metrics("fig12_video_length", json, &eva_metrics);
    Ok(())
}
