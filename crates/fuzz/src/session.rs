//! Deterministic replay of a [`FuzzCase`].
//!
//! Every oracle in [`crate::oracles`] is "replay the same session twice
//! under conditions that must be observably equivalent, then diff".
//! This module owns the replay half: a fresh [`EvaDb`] per side, the case's
//! dataset loaded as `video`, and the statement list executed in order with
//! deterministic semantics for the statements that can fail by design
//! (faulted saves) or that only make sense conditionally (loads).
//!
//! Replay rules that keep the two arms of an oracle symmetric:
//!
//! * Failpoints are disarmed right after session construction — CI exports
//!   `EVA_FAILPOINTS=all` for the chaos suite, and an env-armed registry
//!   would desynchronize the two sides' fault schedules.
//! * `Save` may fail (a generated fault plan can be armed); the error is
//!   swallowed and the session only counts a *successful* save. Both sides
//!   replay the same statements against the same deterministic fault
//!   schedule, so they agree on which saves succeeded.
//! * `Load` replays only after a successful save. This keeps every
//!   statement *subset* replayable, which the shrinker depends on.
//! * A SELECT error is a hard replay error — the oracles treat "fails to
//!   execute" as its own failure kind, distinct from "wrong answer".

use std::collections::BTreeMap;

use eva_common::testutil::TempDir;
use eva_common::{CostBreakdown, GovernorConfig, MetricsSnapshot, OpId, OpStats, Row};
use eva_core::{EvaDb, SessionConfig};
use eva_exec::QueryOutput;
use eva_parser::{parse, SelectStmt, Statement};
use eva_planner::ReuseStrategy;
use eva_video::generator::test_dataset;

use crate::gen::{FuzzCase, FuzzStmt, Sabotage};

/// What one SELECT produced, in the representation the oracles compare.
#[derive(Debug, Clone)]
pub struct SelectObs {
    /// Result rows, in emission order.
    pub rows: Vec<Row>,
    /// Per-query simulated-cost delta.
    pub breakdown: CostBreakdown,
    /// Per-query session-metrics delta.
    pub metrics: MetricsSnapshot,
    /// Per-operator stats keyed by plan node id.
    pub op_stats: BTreeMap<OpId, OpStats>,
}

impl SelectObs {
    pub(crate) fn from_output(out: QueryOutput) -> SelectObs {
        SelectObs {
            breakdown: out.breakdown,
            metrics: out.metrics,
            op_stats: out.op_stats,
            rows: out.batch.into_rows(),
        }
    }

    /// The result rows as an order-insensitive multiset key. `Row` is
    /// `Vec<Value>` and `Value`'s `Debug` form is injective on the values a
    /// query can produce, so sorted debug strings compare multisets exactly.
    pub fn row_multiset(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.rows.iter().map(|r| format!("{r:?}")).collect();
        keys.sort();
        keys
    }
}

/// Everything an oracle needs from one full-session replay.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Per-SELECT observations, in statement order.
    pub selects: Vec<SelectObs>,
    /// Statement index of the first `Save`, if any.
    pub first_save_index: Option<usize>,
    /// Materialized-view count just *before* the first save ran — sizes the
    /// crash oracle's write-fault sweep (segments + manifest + manager).
    pub views_at_first_save: Option<usize>,
}

/// Parse one EVA-QL statement that must be a SELECT.
pub fn parse_select(sql: &str) -> Result<SelectStmt, String> {
    match parse(sql) {
        Ok(Statement::Select(s)) => Ok(s),
        Ok(other) => Err(format!("`{sql}` is not a SELECT: {other:?}")),
        Err(e) => Err(format!("`{sql}` does not parse: {e}")),
    }
}

/// A fresh EVA-strategy session under `governor` (the default is
/// ungoverned; only the governed-replay oracle sets the case's knobs): case
/// dataset loaded, env-armed failpoints cleared, sabotage flags applied.
pub fn fresh_db(case: &FuzzCase, governor: GovernorConfig) -> Result<EvaDb, String> {
    let mut cfg = SessionConfig::for_strategy(ReuseStrategy::Eva);
    cfg.governor = governor;
    let mut db = EvaDb::new(cfg).map_err(|e| format!("session construction: {e}"))?;
    db.load_video(test_dataset(case.dataset_seed, case.n_frames), "video")
        .map_err(|e| format!("dataset load: {e}"))?;
    db.storage().failpoints().disarm_all();
    if case.sabotage == Some(Sabotage::SkipPrune) {
        db.set_recovery_prune(false);
    }
    Ok(db)
}

/// Execute one SELECT on an open session.
pub fn exec_select(db: &mut EvaDb, sql: &str) -> Result<SelectObs, String> {
    let stmt = parse_select(sql)?;
    db.execute_select(&stmt)
        .map(SelectObs::from_output)
        .map_err(|e| format!("`{sql}`: {e}"))
}

/// Replay the whole session, ungoverned. `tag` names the scratch
/// directory (it must differ between concurrently-live replays only by
/// what [`TempDir`] already guarantees; the tag is for debuggability).
pub fn replay(case: &FuzzCase, tag: &str) -> Result<ReplayOutcome, String> {
    let mut db = fresh_db(case, GovernorConfig::default())?;
    let scratch = TempDir::new(tag);
    let mut outcome = ReplayOutcome {
        selects: Vec::new(),
        first_save_index: None,
        views_at_first_save: None,
    };
    let mut saved = false;

    for (i, stmt) in case.stmts.iter().enumerate() {
        match stmt {
            FuzzStmt::Select(sql) => {
                let obs = exec_select(&mut db, sql).map_err(|e| format!("stmt {i}: {e}"))?;
                outcome.selects.push(obs);
            }
            FuzzStmt::ResetViews => db.reset_reuse_state(),
            FuzzStmt::Save => {
                if outcome.first_save_index.is_none() {
                    outcome.first_save_index = Some(i);
                    outcome.views_at_first_save = Some(db.storage().view_defs().len());
                }
                // Tolerated: a generated fault plan may be targeting this
                // save's writes. The fault schedule is deterministic, so
                // both arms of any pair agree on the outcome.
                if db.save_state(scratch.path()).is_ok() {
                    saved = true;
                }
            }
            FuzzStmt::Load => {
                if saved {
                    db.load_state(scratch.path())
                        .map_err(|e| format!("stmt {i} (Load): {e}"))?;
                }
            }
            FuzzStmt::Fault(spec) => {
                db.storage()
                    .failpoints()
                    .apply_spec(spec)
                    .map_err(|e| format!("stmt {i} (Fault `{spec}`): {e}"))?;
            }
            FuzzStmt::Disarm => db.storage().failpoints().disarm_all(),
        }
    }
    Ok(outcome)
}

/// Run one SELECT alone in a brand-new ungoverned session (the "cold"
/// side of the warm-vs-cold oracle: no views, no carried-over faults).
pub fn run_single_select(case: &FuzzCase, sql: &str) -> Result<SelectObs, String> {
    let mut db = fresh_db(case, GovernorConfig::default())?;
    exec_select(&mut db, sql)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_case;

    fn tiny_case() -> FuzzCase {
        FuzzCase {
            seed: 0,
            dataset_seed: 7,
            n_frames: 16,
            sabotage: None,
            governor: GovernorConfig::default(),
            admission_width: None,
            stmts: vec![
                FuzzStmt::Select("SELECT id FROM video WHERE id < 8 ORDER BY id".to_string()),
                FuzzStmt::Save,
                FuzzStmt::Load,
                FuzzStmt::Select("SELECT COUNT(*) FROM video".to_string()),
            ],
        }
    }

    #[test]
    fn replay_collects_per_select_observations() {
        let case = tiny_case();
        let out = replay(&case, "fuzz_session_test").expect("replay");
        assert_eq!(out.selects.len(), 2);
        assert_eq!(out.selects[0].rows.len(), 8);
        assert_eq!(out.first_save_index, Some(1));
        assert_eq!(out.views_at_first_save, Some(0));
    }

    #[test]
    fn replay_is_deterministic_across_runs() {
        let case = generate_case(11);
        let a = replay(&case, "fuzz_session_det_a").expect("replay a");
        let b = replay(&case, "fuzz_session_det_b").expect("replay b");
        assert_eq!(a.selects.len(), b.selects.len());
        for (x, y) in a.selects.iter().zip(&b.selects) {
            assert_eq!(x.rows, y.rows);
            assert_eq!(x.breakdown, y.breakdown);
            assert_eq!(x.metrics, y.metrics);
            assert_eq!(x.op_stats, y.op_stats);
        }
    }

    #[test]
    fn row_multiset_ignores_order() {
        let a = SelectObs {
            rows: vec![
                vec![eva_common::Value::Int(1)],
                vec![eva_common::Value::Int(2)],
            ],
            breakdown: CostBreakdown::default(),
            metrics: MetricsSnapshot::default(),
            op_stats: BTreeMap::new(),
        };
        let b = SelectObs {
            rows: vec![
                vec![eva_common::Value::Int(2)],
                vec![eva_common::Value::Int(1)],
            ],
            ..a.clone()
        };
        assert_eq!(a.row_multiset(), b.row_multiset());
    }
}
