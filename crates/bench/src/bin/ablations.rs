//! **Ablations** (beyond the paper's figures) — how much each design choice
//! contributes on VBENCH-HIGH:
//!
//! * materialization off (reuse machinery without STORE),
//! * canonical instead of materialization-aware ranking,
//! * Algorithm 2 off (Min-Cost logical substitution),
//! * fuzzy bbox matching on (the §6 future-work extension) — including how
//!   many extra hits it buys.

use eva_bench::{
    banner, fmt_x, medium_dataset, row, session_with_config, write_json_with_metrics, TextTable,
};
use eva_common::MetricsSnapshot;
use eva_core::SessionConfig;
use eva_planner::RankingKind;
use eva_planner::ReuseStrategy;
use eva_vbench::{run_workload, vbench_high, DetectorKind, Workload};

fn main() -> eva_common::Result<()> {
    banner("Ablations (VBENCH-HIGH, medium UA-DETRAC)");
    let ds = medium_dataset();
    let physical = Workload::new(
        "high",
        vbench_high(
            ds.len(),
            DetectorKind::Physical("fasterrcnn_resnet50"),
            false,
        ),
    );
    let logical = Workload::new(
        "high-logical",
        vbench_high(ds.len(), DetectorKind::Logical, false),
    );

    let base_cfg = SessionConfig::for_strategy(ReuseStrategy::NoReuse);
    let mut no = session_with_config(base_cfg, &ds)?;
    let base = run_workload(&mut no, &physical)?;
    let mut no_l = session_with_config(base_cfg, &ds)?;
    let base_logical = run_workload(&mut no_l, &logical)?;

    let mut table = TextTable::new(vec!["configuration", "speedup", "hit %"]);
    let mut json = Vec::new();
    // Summed over every ablation configuration that ran.
    let mut metrics = MetricsSnapshot::default();

    let mut run = |_label: &str,
                   cfg: SessionConfig,
                   workload: &Workload,
                   reference: &eva_vbench::WorkloadReport|
     -> eva_common::Result<(f64, f64)> {
        let mut db = session_with_config(cfg, &ds)?;
        let r = run_workload(&mut db, workload)?;
        metrics = metrics.plus(&r.metrics);
        Ok((r.speedup_over(reference), r.hit_percentage))
    };

    let full = SessionConfig::for_strategy(ReuseStrategy::Eva);
    let (s, h) = run("full EVA", full, &physical, &base)?;
    table.row(vec!["full EVA".to_string(), fmt_x(s), format!("{h:.1}")]);
    json.push(row!["full", s, h]);

    let mut cfg = full;
    cfg.planner.materialize = false;
    let (s, h) = run("no materialization", cfg, &physical, &base)?;
    table.row(vec![
        "− materialization (STORE off)".to_string(),
        fmt_x(s),
        format!("{h:.1}"),
    ]);
    json.push(row!["no_store", s, h]);

    let mut cfg = full;
    cfg.planner.ranking = RankingKind::Canonical;
    let (s, h) = run("canonical ranking", cfg, &physical, &base)?;
    table.row(vec![
        "− mat-aware ranking (Eq. 2)".to_string(),
        fmt_x(s),
        format!("{h:.1}"),
    ]);
    json.push(row!["canonical_ranking", s, h]);

    let mut cfg = full;
    cfg.exec.fuzzy_box_iou = Some(0.85);
    let (s, h) = run("fuzzy", cfg, &physical, &base)?;
    table.row(vec![
        "+ fuzzy bbox reuse (IoU ≥ 0.85, §6)".to_string(),
        fmt_x(s),
        format!("{h:.1}"),
    ]);
    json.push(row!["fuzzy", s, h]);

    // Logical workload: Algorithm 2 on vs off.
    let (s, h) = run("alg2", full, &logical, &base_logical)?;
    table.row(vec![
        "logical: with Algorithm 2".to_string(),
        fmt_x(s),
        format!("{h:.1}"),
    ]);
    json.push(row!["alg2_on", s, h]);
    let mut cfg = full;
    cfg.planner.logical_set_cover = false;
    let (s, h) = run("mincost", cfg, &logical, &base_logical)?;
    table.row(vec![
        "logical: − Algorithm 2 (Min-Cost)".to_string(),
        fmt_x(s),
        format!("{h:.1}"),
    ]);
    json.push(row!["alg2_off", s, h]);

    println!("{}", table.render());
    write_json_with_metrics("ablations", json, &metrics);
    Ok(())
}
