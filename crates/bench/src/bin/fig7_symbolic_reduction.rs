//! **Figure 7** — Effectiveness of EVA's symbolic predicate reduction vs
//! the `simplify`-style baseline: the number of atomic formulae in the
//! intersection / difference / union predicates computed for each candidate
//! UDF while executing VBENCH-HIGH.
//!
//! Paper shape: EVA's counts stay flat and small; `simplify`'s counts grow
//! query over query — dramatically for the polyadic predicates of
//! CarType/ColorDet, mildly for the detector's monadic `id` predicates.

use eva_bench::{
    banner, medium_dataset, row, session_with, symbolic_reduction_history, write_json_with_metrics,
    TextTable,
};
use eva_planner::ReuseStrategy;
use eva_vbench::{vbench_high, DetectorKind, Workload};

fn main() -> eva_common::Result<()> {
    banner("Figure 7: Symbolic predicate reduction vs `simplify`");
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
    let history = symbolic_reduction_history(&mut db, &workload)?;
    let mut json = Vec::new();
    for (sig, points) in &history {
        println!("\nUDF {sig} — atomic formulae per analysis (inter/diff/union):");
        let mut table = TextTable::new(vec![
            "analysis#",
            "EVA inter",
            "EVA diff",
            "EVA union",
            "simplify inter",
            "simplify diff",
            "simplify union",
        ]);
        for (i, p) in points.iter().enumerate() {
            table.row(vec![
                (i + 1).to_string(),
                p.eva[0].to_string(),
                p.eva[1].to_string(),
                p.eva[2].to_string(),
                p.naive[0].to_string(),
                p.naive[1].to_string(),
                p.naive[2].to_string(),
            ]);
            json.push(row![sig.to_string(), i, p.eva.to_vec(), p.naive.to_vec()]);
        }
        println!("{}", table.render());
        let last = points
            .last()
            .expect("a signature enters the history with its first point");
        let eva_max = last.eva.into_iter().max().expect("three counts");
        let naive_max = last.naive.into_iter().max().expect("three counts");
        println!("  final: EVA max {eva_max} atoms vs simplify max {naive_max} atoms");
    }
    write_json_with_metrics("fig7_symbolic_reduction", json, &db.metrics_snapshot());
    Ok(())
}
