//! **Figure 7** — Effectiveness of EVA's symbolic predicate reduction vs
//! the `simplify`-style baseline: the number of atomic formulae in the
//! intersection / difference / union predicates computed for each candidate
//! UDF while executing VBENCH-HIGH.
//!
//! Paper shape: EVA's counts stay flat and small; `simplify`'s counts grow
//! query over query — dramatically for the polyadic predicates of
//! CarType/ColorDet, mildly for the detector's monadic `id` predicates.

use crate::{
    banner, medium_dataset, row, session_with, symbolic_reduction_history, with_metrics, Json,
    TextTable,
};
use eva_planner::ReuseStrategy;
use eva_vbench::{vbench_high, DetectorKind, Workload};

pub fn run() -> eva_common::Result<Json> {
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
    Ok(with_metrics(json, &db.metrics_snapshot()))
}

#[cfg(test)]
mod tests {
    use crate::paper::committed;
    use crate::Json;

    fn counts(cell: &Json) -> Vec<u64> {
        let counts = cell.as_array().expect("[inter, diff, union]");
        counts.iter().map(|n| n.as_u64().expect("a count")).collect()
    }

    #[test]
    fn eva_never_needs_more_atoms_than_simplify() {
        let rows = committed::rows("fig7_symbolic_reduction");
        assert!(!rows.is_empty());
        for row in &rows {
            let (eva, naive) = (counts(&row[2]), counts(&row[3]));
            assert!(eva.iter().zip(&naive).all(|(e, n)| e <= n), "{row:?}");
        }
    }

    /// A measured deviation, not a claim: the paper has `simplify`'s counts
    /// grow query over query, but CarType's union counts here run 3, 2, 2,
    /// 5, 9, 11. If they become monotone, EXPERIMENTS.md's Fig. 7 section
    /// should say so.
    #[test]
    fn simplify_union_counts_are_not_monotone() {
        let unions: Vec<u64> = committed::rows("fig7_symbolic_reduction")
            .iter()
            .filter(|r| r[0].as_str().is_some_and(|sig| sig.starts_with("cartype@")))
            .map(|r| counts(&r[3])[2])
            .collect();
        assert!(unions.windows(2).any(|w| w[1] < w[0]), "{unions:?}");
    }
}
