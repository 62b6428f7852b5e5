//! **Figure 9** — Impact of materialization-aware predicate reordering:
//! per-query speedup of the materialization-aware ranking (Eq. 4) over the
//! canonical ranking (Eq. 2), for the multi-UDF-predicate queries across
//! the four permutations of VBENCH-HIGH.
//!
//! Paper shape: 3–6× on most multi-predicate queries; ~1× where both
//! rankings pick the same order.

use crate::{
    banner, medium_dataset, row, session_with_config, with_metrics, Json, TextTable,
};
use eva_common::MetricsSnapshot;
use eva_core::SessionConfig;
use eva_planner::{RankingKind, ReuseStrategy};
use eva_vbench::{run_workload, vbench_high, DetectorKind, Workload};

pub fn run() -> eva_common::Result<Json> {
    banner("Figure 9: Canonical vs materialization-aware predicate reordering");
    let ds = medium_dataset();
    let base_queries = vbench_high(
        ds.len(),
        DetectorKind::Physical("fasterrcnn_resnet50"),
        false,
    );

    let mut table = TextTable::new(vec!["query", "canonical (s)", "mat-aware (s)", "speedup"]);
    let mut json = Vec::new();
    let mut eva_metrics = MetricsSnapshot::default();
    for perm_seed in 1..=4u64 {
        let queries = eva_vbench::queries::permute(&base_queries, perm_seed);
        let workload = Workload::new(format!("perm{perm_seed}"), queries.clone());

        let mut reports = Vec::new();
        for ranking in [RankingKind::Canonical, RankingKind::MaterializationAware] {
            let mut cfg = SessionConfig::for_strategy(ReuseStrategy::Eva);
            cfg.planner.ranking = ranking;
            let mut db = session_with_config(cfg, &ds)?;
            reports.push(run_workload(&mut db, &workload)?);
        }
        let (canonical, mat_aware) = (&reports[0], &reports[1]);
        eva_metrics = eva_metrics.plus(&mat_aware.metrics);
        for (i, q) in queries.iter().enumerate() {
            if q.n_udf_preds < 2 {
                continue; // only multi-UDF-predicate queries are affected
            }
            let c = canonical.per_query[i].sim_secs;
            let m = mat_aware.per_query[i].sim_secs;
            let global_id = (perm_seed - 1) * 8 + i as u64 + 1;
            table.row(vec![
                format!("Q{global_id} ({} in perm {perm_seed})", q.name),
                format!("{c:.1}"),
                format!("{m:.1}"),
                format!("{:.2}x", c / m.max(1e-9)),
            ]);
            json.push((global_id, c, m));
        }
    }
    println!("{}", table.render());
    let best = json
        .iter()
        .map(|(_, c, m)| c / m.max(1e-9))
        .fold(f64::MIN, f64::max);
    println!("max reordering speedup: {best:.2}x");
    let rows: Vec<Json> = json.into_iter().map(|(id, c, m)| row![id, c, m]).collect();
    Ok(with_metrics(rows, &eva_metrics))
}

#[cfg(test)]
mod tests {
    use crate::paper::committed;

    /// Q7 sits last in permutations 1 and 2 (global ids 8 and 16), where
    /// Eq. 4's order costs 33.5 s against Eq. 2's 29.1 s: a measured
    /// deviation from "never worse than Eq. 2", pinned so that a fix shows.
    const SLOWER_UNDER_EQ4: [u64; 2] = [8, 16];

    #[test]
    fn eq4_ranking_is_never_worse_than_eq2_except_the_named_queries() {
        for row in committed::rows("fig9_predicate_reordering") {
            let id = row[0].as_u64().expect("a global query id");
            let (canonical, mat_aware) = (row[1].as_f64().unwrap(), row[2].as_f64().unwrap());
            let speedup = canonical / mat_aware;
            if SLOWER_UNDER_EQ4.contains(&id) {
                assert!(speedup < 1.0, "Q{id} is no longer slower: {speedup}");
            } else {
                assert!(speedup >= 1.0, "Q{id}: {speedup}");
            }
        }
    }
}
