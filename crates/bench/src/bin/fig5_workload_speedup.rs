//! **Figure 5** — Workload speedup of No-Reuse / HashStash / FunCache / EVA
//! on VBENCH-LOW and VBENCH-HIGH over medium UA-DETRAC, plus the **Eq. 7**
//! upper bound and the achieved fraction.
//!
//! Paper shape: EVA ≈ 4× on HIGH and best on LOW; FunCache *below 1×* on
//! LOW (hashing overhead); EVA within ~0.9× of the Eq. 7 bound.

use eva_bench::{
    banner, fmt_x, medium_dataset, row, session_with, write_json_with_metrics, TextTable,
};
use eva_common::MetricsSnapshot;
use eva_planner::ReuseStrategy;
use eva_vbench::{eq7_upper_bound, run_workload, vbench_high, vbench_low, DetectorKind, Workload};

fn main() -> eva_common::Result<()> {
    banner("Figure 5: Workload Speedup (medium UA-DETRAC)");
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

    let mut table = TextTable::new(vec![
        "workload",
        "no-reuse (h)",
        "HashStash",
        "FunCache",
        "EVA",
        "Eq.7 bound",
        "EVA/bound",
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
        let mut eva_speedup = 0.0;
        let mut bound = 1.0;
        for strategy in [
            ReuseStrategy::HashStash,
            ReuseStrategy::FunCache,
            ReuseStrategy::Eva,
        ] {
            let mut db = session_with(strategy, &ds)?;
            let report = run_workload(&mut db, workload)?;
            assert_eq!(
                report.row_counts(),
                base.row_counts(),
                "results must match no-reuse"
            );
            let speedup = report.speedup_over(&base);
            cells.push(fmt_x(speedup));
            if strategy == ReuseStrategy::Eva {
                eva_speedup = speedup;
                bound = eq7_upper_bound(&db);
                eva_metrics = eva_metrics.plus(&report.metrics);
            }
            json.push(row![*wname, format!("{strategy:?}"), speedup]);
        }
        cells.push(fmt_x(bound));
        cells.push(format!("{:.2}", eva_speedup / bound));
        table.row(cells);
    }
    println!("{}", table.render());
    write_json_with_metrics("fig5_workload_speedup", json, &eva_metrics);
    Ok(())
}
