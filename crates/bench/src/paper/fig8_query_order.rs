//! **Figure 8** — Impact of query order: (a) execution time of four random
//! permutations of VBENCH-HIGH under HashStash and EVA; (b) how the
//! materialized UDF results converge over the queries of the fourth
//! permutation.
//!
//! Paper shape: EVA is ≥1.8× faster than HashStash on every permutation;
//! view coverage rises monotonically toward 100%.

use crate::{
    banner, fmt_f, medium_dataset, row, session_with, with_metrics, Json, TextTable,
};
use eva_common::MetricsSnapshot;
use eva_planner::ReuseStrategy;
use eva_vbench::{run_workload, vbench_high, DetectorKind, Workload};

pub fn run() -> eva_common::Result<Json> {
    banner("Figure 8a: Execution time across query permutations (hours)");
    let ds = medium_dataset();
    let base_queries = vbench_high(
        ds.len(),
        DetectorKind::Physical("fasterrcnn_resnet50"),
        false,
    );

    let mut table = TextTable::new(vec!["workload", "HashStash (h)", "EVA (h)", "EVA gain"]);
    let mut json = Vec::new();
    let mut eva_metrics = MetricsSnapshot::default();
    let mut last_perm = None;
    for perm_seed in 1..=4u64 {
        let queries = eva_vbench::queries::permute(&base_queries, perm_seed);
        let workload = Workload::new(format!("vbench-high-{perm_seed}"), queries.clone());
        let mut hs = session_with(ReuseStrategy::HashStash, &ds)?;
        let r_hs = run_workload(&mut hs, &workload)?;
        let mut eva = session_with(ReuseStrategy::Eva, &ds)?;
        let r_eva = run_workload(&mut eva, &workload)?;
        table.row(vec![
            format!("perm {perm_seed}"),
            fmt_f(r_hs.total_sim_secs / 3600.0, 2),
            fmt_f(r_eva.total_sim_secs / 3600.0, 2),
            format!("{:.2}x", r_hs.total_sim_secs / r_eva.total_sim_secs),
        ]);
        json.push(row![perm_seed, r_hs.total_sim_secs, r_eva.total_sim_secs]);
        eva_metrics = eva_metrics.plus(&r_eva.metrics);
        last_perm = Some(queries);
    }
    println!("{}", table.render());

    banner("Figure 8b: Materialized-result convergence (4th permutation)");
    let queries = last_perm.expect("four permutations ran");
    let mut db = session_with(ReuseStrategy::Eva, &ds)?;
    db.reset_reuse_state();
    // Final coverage per signature (run once to learn the totals).
    let mut probe = session_with(ReuseStrategy::Eva, &ds)?;
    run_workload(&mut probe, &Workload::new("probe", queries.clone()))?;
    let finals = probe.manager().view_sizes();

    let mut table = TextTable::new(vec!["after query", "signature", "coverage (%)"]);
    let mut json_b = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        db.execute_sql(&q.sql)?.rows()?;
        for (sig, n) in db.manager().view_sizes() {
            let total = finals.get(&sig).copied().unwrap_or(0).max(1);
            let pct = n as f64 / total as f64 * 100.0;
            table.row(vec![
                format!("{} ({})", i + 1, q.name),
                sig.to_string(),
                fmt_f(pct, 1),
            ]);
            json_b.push(row![i, sig.to_string(), pct]);
        }
    }
    println!("{}", table.render());
    Ok(with_metrics(row![json, json_b], &eva_metrics))
}
