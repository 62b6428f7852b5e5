//! **Figure 5** — Workload speedup of No-Reuse / HashStash / FunCache / EVA
//! on VBENCH-LOW and VBENCH-HIGH over medium UA-DETRAC, plus the **Eq. 7**
//! upper bound and the achieved fraction.
//!
//! Paper shape: EVA ≈ 4× on HIGH and best on LOW; FunCache *below 1×* on
//! LOW (hashing overhead); EVA within ~0.9× of the Eq. 7 bound.

use crate::{
    banner, fmt_x, medium_dataset, row, session_with, with_metrics, Json, TextTable,
};
use eva_common::MetricsSnapshot;
use eva_planner::ReuseStrategy;
use eva_vbench::{eq7_upper_bound, run_workload, vbench_high, vbench_low, DetectorKind, Workload};

pub fn run() -> eva_common::Result<Json> {
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
        json.push(row![*wname, "Eq7Bound", bound]);
        cells.push(fmt_x(bound));
        cells.push(format!("{:.2}", eva_speedup / bound));
        table.row(cells);
    }
    println!("{}", table.render());
    Ok(with_metrics(json, &eva_metrics))
}

#[cfg(test)]
mod tests {
    use crate::paper::committed;

    /// The committed speedup of `system` (or the `Eq7Bound`) on `workload`.
    fn speedup(workload: &str, system: &str) -> f64 {
        committed::rows("fig5_workload_speedup")
            .iter()
            .find(|r| r[0].as_str() == Some(workload) && r[1].as_str() == Some(system))
            .and_then(|r| r[2].as_f64())
            .unwrap_or_else(|| panic!("no {system} row for {workload}"))
    }

    #[test]
    fn funcache_is_below_1x_on_vbench_low() {
        let x = speedup("vbench-low", "FunCache");
        assert!(x < 1.0, "FunCache on VBENCH-LOW: {x}");
    }

    #[test]
    fn eva_is_at_least_hashstash_everywhere_and_beats_funcache_on_high() {
        for workload in ["vbench-low", "vbench-high"] {
            let (eva, hashstash) = (speedup(workload, "Eva"), speedup(workload, "HashStash"));
            assert!(eva >= hashstash, "{workload}: EVA {eva} < HashStash {hashstash}");
        }
        let (eva, funcache) = (speedup("vbench-high", "Eva"), speedup("vbench-high", "FunCache"));
        assert!(eva > funcache, "VBENCH-HIGH: EVA {eva} <= FunCache {funcache}");
    }

    #[test]
    fn eva_reaches_85_percent_of_the_eq7_bound() {
        for workload in ["vbench-low", "vbench-high"] {
            let fraction = speedup(workload, "Eva") / speedup(workload, "Eq7Bound");
            assert!(fraction >= 0.85, "{workload}: EVA/bound {fraction}");
        }
    }
}
