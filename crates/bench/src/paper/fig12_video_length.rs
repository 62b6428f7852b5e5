//! **Figure 12** — Impact of video length: EVA's VBENCH-HIGH speedup on
//! SHORT / MEDIUM / LONG UA-DETRAC (query id-ranges scale with the video),
//! alongside the average vehicles per frame.
//!
//! Paper shape: speedup does not drop with longer video — it rises slightly
//! with LONG's higher vehicle density.

use crate::{
    banner, fmt_f, fmt_x, row, session_with, sized_dataset, with_metrics, Json, TextTable,
};
use eva_common::MetricsSnapshot;
use eva_planner::ReuseStrategy;
use eva_vbench::{run_workload, vbench_high, DetectorKind, Workload};
use eva_video::UaDetracSize;

pub fn run() -> eva_common::Result<Json> {
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
    Ok(with_metrics(json, &eva_metrics))
}

#[cfg(test)]
mod tests {
    use crate::paper::committed;

    #[test]
    fn speedup_is_flat_within_5_percent_across_lengths() {
        let speedups: Vec<f64> = committed::rows("fig12_video_length")
            .iter()
            .map(|r| r[2].as_f64().expect("a speedup"))
            .collect();
        let max = speedups.iter().copied().fold(f64::MIN, f64::max);
        let min = speedups.iter().copied().fold(f64::MAX, f64::min);
        assert!(max / min <= 1.05, "{speedups:?}");
    }
}
