//! The three equivalence oracles.
//!
//! Each oracle replays the same [`FuzzCase`] under two configurations that
//! the system contracts to be observably equivalent, then diffs:
//!
//! 1. **Warm vs cold** — every SELECT of the warm session (views
//!    accumulating, save/load cycles, armed faults) must return the same
//!    row *multiset* as the same SELECT run alone in a fresh session.
//!    This is the paper's core correctness claim: reuse rewrites never
//!    change answers.
//! 2. **Crash recovery** — for sessions that save, crash the save at every
//!    write ordinal with a cycling fault site (and, as ordinal 0, let it
//!    finish), then recover in a fresh session; the recovered session's
//!    remaining SELECTs must still answer correctly, and `load_state` must
//!    never error on a torn store.
//! 3. **Governed replay** — replay the session under the case's governance
//!    knobs (deadline, byte budget, admission width). Statements may be
//!    cancelled or degraded, but only with structured `Cancelled` errors;
//!    every SELECT that survives must answer identically when re-asked on
//!    the same session with governance lifted and in a fresh clean
//!    session — a cancelled query must leave no trace in the view store.

use std::fmt;
use std::path::Path;

use eva_common::testutil::TempDir;
use eva_common::GovernorConfig;
use eva_core::{AdmissionConfig, AdmissionController, EvaDb};

use crate::gen::{FuzzCase, FuzzStmt};
use crate::session::{exec_select, fresh_db, parse_select, replay, run_single_select, SelectObs};

/// Which oracle flagged a divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleId {
    /// Warm full-session replay vs each SELECT alone in a fresh session.
    WarmCold,
    /// Save crashed at every write ordinal, then recovered and resumed.
    CrashRecovery,
    /// Governed replay (deadline/budget/admission); surviving SELECTs
    /// revalidated with governance lifted and against a clean session.
    GovernedReplay,
}

impl fmt::Display for OracleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OracleId::WarmCold => "warm-vs-cold",
            OracleId::CrashRecovery => "crash-recovery",
            OracleId::GovernedReplay => "governed-replay",
        })
    }
}

/// How a case failed. The shrinker preserves this at *kind* granularity: a
/// candidate reproduces the failure iff it fails the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// The session did not replay at all (parse, bind, or execution error).
    Replay,
    /// A replayed session diverged under the named oracle.
    Oracle(OracleId),
}

impl fmt::Display for FailKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailKind::Replay => f.write_str("replay-error"),
            FailKind::Oracle(o) => write!(f, "oracle:{o}"),
        }
    }
}

/// A case failure: kind plus a human diagnosis.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Failure kind (the shrinker's equivalence key).
    pub kind: FailKind,
    /// What diverged, with enough context to debug from the log alone.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.detail)
    }
}

impl Failure {
    fn replay(detail: impl Into<String>) -> Failure {
        Failure {
            kind: FailKind::Replay,
            detail: detail.into(),
        }
    }

    fn oracle(id: OracleId, detail: impl Into<String>) -> Failure {
        Failure {
            kind: FailKind::Oracle(id),
            detail: detail.into(),
        }
    }
}

/// What a green case exercised (for the per-case log line).
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseReport {
    /// SELECT statements in the session.
    pub n_selects: usize,
    /// Save points swept by the recovery oracle — every crashed write
    /// ordinal plus the uninterrupted save (0 when the case never saves).
    pub crash_points: usize,
    /// Statements cancelled (deadline/budget/shed) during the governed
    /// replay (0 when the case carries no governance knobs).
    pub governed_cancelled: usize,
}

/// Write-site cycle for the crash sweep, in save-path write order.
const SITES: [&str; 4] = ["torn_write", "rename_fail", "short_write", "bit_flip"];

/// The SQL of every SELECT in the case, in statement order.
fn select_sqls(case: &FuzzCase) -> Vec<&str> {
    case.stmts
        .iter()
        .filter_map(|s| match s {
            FuzzStmt::Select(sql) => Some(sql.as_str()),
            _ => None,
        })
        .collect()
}

/// Run every oracle against one case.
pub fn check_case(case: &FuzzCase) -> Result<CaseReport, Failure> {
    let base = replay(case, "fuzz_base").map_err(Failure::replay)?;
    let sqls = select_sqls(case);
    debug_assert_eq!(base.selects.len(), sqls.len());
    let mut report = CaseReport {
        n_selects: sqls.len(),
        ..CaseReport::default()
    };

    warm_vs_cold(case, &sqls, &base.selects)?;
    report.crash_points = crash_recovery(case, &base)?;
    report.governed_cancelled = governed_replay(case)?;
    Ok(report)
}

/// Oracle 1: each warm SELECT vs the same SELECT alone in a fresh session.
/// Rows only, as multisets — a view-serving plan may emit in another order.
fn warm_vs_cold(case: &FuzzCase, sqls: &[&str], warm: &[SelectObs]) -> Result<(), Failure> {
    for (k, (sql, w)) in sqls.iter().zip(warm).enumerate() {
        let cold = run_single_select(case, sql)
            .map_err(|e| Failure::oracle(OracleId::WarmCold, format!("cold select {k}: {e}")))?;
        if w.row_multiset() != cold.row_multiset() {
            return Err(Failure::oracle(
                OracleId::WarmCold,
                format!(
                    "select {k} `{sql}`: warm {} row(s) != cold {} row(s)",
                    w.rows.len(),
                    cold.rows.len()
                ),
            ));
        }
    }
    Ok(())
}

/// Replay a statement slice on an open session, returning per-SELECT
/// observations. `saved` seeds the load-gating flag — the crash survivor
/// starts with it set, since it begins life by loading the store.
fn drive(
    db: &mut EvaDb,
    stmts: &[FuzzStmt],
    dir: &Path,
    mut saved: bool,
) -> Result<Vec<SelectObs>, String> {
    let mut out = Vec::new();
    for stmt in stmts {
        match stmt {
            FuzzStmt::Select(sql) => out.push(exec_select(db, sql)?),
            FuzzStmt::ResetViews => db.reset_reuse_state(),
            FuzzStmt::Save => {
                if db.save_state(dir).is_ok() {
                    saved = true;
                }
            }
            FuzzStmt::Load => {
                if saved {
                    db.load_state(dir).map_err(|e| format!("Load: {e}"))?;
                }
            }
            FuzzStmt::Fault(spec) => db
                .storage()
                .failpoints()
                .apply_spec(spec)
                .map_err(|e| format!("Fault `{spec}`: {e}"))?,
            FuzzStmt::Disarm => db.storage().failpoints().disarm_all(),
        }
    }
    Ok(out)
}

/// Oracle 2: crash the first save at every write ordinal and recover.
///
/// For each ordinal `nth` (cycling through the fault sites), a *victim*
/// session replays up to the first `Save`, arms `site=nth:<n>`, and
/// attempts the save — which dies partway, leaving a torn store. A fresh
/// *survivor* session must then `load_state` without error (quarantining
/// whatever is damaged) and answer the session's remaining SELECTs with
/// the same row multisets as the uninterrupted base replay.
///
/// Ordinal 0 arms nothing: the survivor restarts from the store the save
/// left when it ran to the end (under whatever faults the case itself
/// armed). The base replay cannot stand in for that point: a case need not
/// `Load` after its save, and without one only a fresh session depends on
/// what recovery kept and pruned.
fn crash_recovery(case: &FuzzCase, base: &crate::session::ReplayOutcome) -> Result<usize, Failure> {
    let id = OracleId::CrashRecovery;
    let Some(save_idx) = base.first_save_index else {
        return Ok(0);
    };
    // Writes during a save: one segment file per view, plus the store
    // manifest and the manager state. Sweep them all (capped — deep view
    // stacks would make the sweep quadratic-ish in session length).
    let n_writes = base.views_at_first_save.unwrap_or(0) + 2;
    let n_selects_before = case.stmts[..save_idx]
        .iter()
        .filter(|s| matches!(s, FuzzStmt::Select(_)))
        .count();
    let base_after = &base.selects[n_selects_before..];
    let remainder = &case.stmts[save_idx + 1..];

    let mut points = 0;
    for nth in 0..=n_writes.min(6) {
        let crash = (nth > 0).then(|| format!("{}=nth:{nth}", SITES[(nth - 1) % SITES.len()]));
        let point = match &crash {
            Some(spec) => format!("the {spec} crash"),
            None => "the uninterrupted save".to_string(),
        };
        let crash_dir = TempDir::new("fuzz_crash");

        // Victim: run up to the save, then crash the save's nth write.
        let mut victim = fresh_db(case, GovernorConfig::default()).map_err(Failure::replay)?;
        drive(
            &mut victim,
            &case.stmts[..save_idx],
            crash_dir.path(),
            false,
        )
        .map_err(|e| Failure::replay(format!("victim prefix (nth {nth}): {e}")))?;
        if let Some(spec) = &crash {
            victim
                .storage()
                .failpoints()
                .apply_spec(spec)
                .map_err(|e| Failure::replay(format!("arming {spec}: {e}")))?;
        }
        let _ = victim.save_state(crash_dir.path()); // a crash: Err expected
        victim.storage().failpoints().disarm_all();
        drop(victim);

        // Survivor: recover from the torn store, then finish the session.
        let mut survivor = fresh_db(case, GovernorConfig::default()).map_err(Failure::replay)?;
        survivor
            .load_state(crash_dir.path())
            .map_err(|e| Failure::oracle(id, format!("load_state after {point} errored: {e}")))?;
        let recovered = drive(&mut survivor, remainder, crash_dir.path(), true)
            .map_err(|e| Failure::oracle(id, format!("survivor after {point}: {e}")))?;

        if recovered.len() != base_after.len() {
            return Err(Failure::oracle(
                id,
                format!(
                    "survivor after {point} ran {} select(s), base ran {}",
                    recovered.len(),
                    base_after.len()
                ),
            ));
        }
        for (k, (rv, bv)) in recovered.iter().zip(base_after).enumerate() {
            if rv.row_multiset() != bv.row_multiset() {
                return Err(Failure::oracle(
                    id,
                    format!(
                        "post-recovery select {k} after {point}: {} row(s) vs base {}",
                        rv.rows.len(),
                        bv.rows.len()
                    ),
                ));
            }
        }
        points += 1;
    }
    Ok(points)
}

/// Oracle 3: replay under the case's governance knobs. Any statement may
/// come back `Cancelled { Deadline | Budget | Shed | User }` — that is a
/// tolerated, structured outcome — but a non-governance error is a replay
/// failure, and a cancelled query must leave no trace: each surviving
/// SELECT is re-asked (a) on the same session with governance lifted and
/// (b) in a fresh clean session, and all three answers must agree as row
/// multisets. Returns the number of cancelled statements.
fn governed_replay(case: &FuzzCase) -> Result<usize, Failure> {
    let id = OracleId::GovernedReplay;
    if !case.is_governed() {
        return Ok(0);
    }
    let mut db = fresh_db(case, case.governor).map_err(Failure::replay)?;
    if let Some(width) = case.admission_width {
        db.set_admission(Some(AdmissionController::new(AdmissionConfig {
            max_concurrent: width.max(1),
            max_waiters: 4,
            queue_deadline_ms: Some(30_000),
        })));
    }
    let scratch = TempDir::new("fuzz_governed");
    let mut survivors: Vec<(&str, Vec<String>)> = Vec::new();
    let mut cancelled = 0;
    let mut saved = false;

    for (i, stmt) in case.stmts.iter().enumerate() {
        match stmt {
            FuzzStmt::Select(sql) => {
                let parsed = parse_select(sql).map_err(Failure::replay)?;
                match db.execute_select(&parsed) {
                    Ok(out) => {
                        let obs = SelectObs::from_output(out);
                        survivors.push((sql.as_str(), obs.row_multiset()));
                    }
                    Err(e) if e.cancel_reason().is_some() => cancelled += 1,
                    Err(e) => {
                        return Err(Failure::replay(format!(
                            "governed stmt {i} `{sql}`: non-governance error: {e}"
                        )))
                    }
                }
            }
            FuzzStmt::ResetViews => db.reset_reuse_state(),
            FuzzStmt::Save => {
                // Tolerated, as in the base replay: a fault plan may be
                // targeting this save's writes.
                if db.save_state(scratch.path()).is_ok() {
                    saved = true;
                }
            }
            FuzzStmt::Load => {
                if saved {
                    db.load_state(scratch.path())
                        .map_err(|e| Failure::replay(format!("governed stmt {i} (Load): {e}")))?;
                }
            }
            FuzzStmt::Fault(spec) => {
                db.storage().failpoints().apply_spec(spec).map_err(|e| {
                    Failure::replay(format!("governed stmt {i} (Fault `{spec}`): {e}"))
                })?;
            }
            FuzzStmt::Disarm => db.storage().failpoints().disarm_all(),
        }
    }

    // Revalidation: governance lifted on the *survived* session. Whatever
    // the cancelled statements touched (partial view materialization,
    // coverage claims, admission slots) must not change any answer.
    db.storage().failpoints().disarm_all();
    db.set_governor(GovernorConfig::default());
    db.set_admission(None);
    for (k, (sql, governed)) in survivors.iter().enumerate() {
        let warm = exec_select(&mut db, sql)
            .map_err(|e| Failure::oracle(id, format!("post-governance warm select {k}: {e}")))?;
        if warm.row_multiset() != *governed {
            return Err(Failure::oracle(
                id,
                format!(
                    "survivor {k} `{sql}`: governed {} row(s) != ungoverned warm re-ask {}",
                    governed.len(),
                    warm.rows.len()
                ),
            ));
        }
        let clean = run_single_select(case, sql)
            .map_err(|e| Failure::oracle(id, format!("clean select {k}: {e}")))?;
        if clean.row_multiset() != *governed {
            return Err(Failure::oracle(
                id,
                format!(
                    "survivor {k} `{sql}`: governed {} row(s) != clean session {}",
                    governed.len(),
                    clean.rows.len()
                ),
            ));
        }
    }
    Ok(cancelled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_case, sabotage_case};

    #[test]
    fn small_generated_cases_are_green() {
        // A handful of quick seeds; the full smoke run lives in the CLI and
        // the corpus replay test.
        for seed in [3u64, 14] {
            let case = generate_case(seed);
            if let Err(f) = check_case(&case) {
                panic!("seed {seed} failed: {f}\ncase: {case:#?}");
            }
        }
    }

    #[test]
    fn sabotage_case_is_caught() {
        let case = sabotage_case(1);
        let f = check_case(&case).expect_err("sabotaged recovery must be flagged");
        assert_eq!(
            f.kind,
            FailKind::Oracle(OracleId::CrashRecovery),
            "expected the recovery oracle, got {f}"
        );
    }

    #[test]
    fn sabotage_bit_flip_lands_on_the_segment_the_second_select_reads() {
        let case = sabotage_case(1);
        let FuzzStmt::Select(sql) = &case.stmts[3] else {
            panic!("the drill's last statement re-asks its SELECT")
        };
        // Select, arm the flip, save: the store now holds one segment.
        let dir = TempDir::new("sabotage_target");
        let mut db = fresh_db(&case, GovernorConfig::default()).unwrap();
        drive(&mut db, &case.stmts[..3], dir.path(), false).unwrap();
        let views: Vec<_> = db.storage().view_defs().iter().map(|d| d.id).collect();
        assert_eq!(views.len(), 1, "the first SELECT materializes one view");

        // A restarted session quarantines exactly that segment…
        let survivor = fresh_db(&case, GovernorConfig::default()).unwrap();
        let report = survivor.load_state(dir.path()).unwrap();
        let quarantined: Vec<_> = report.quarantined.iter().map(|q| q.view_id).collect();
        assert_eq!(quarantined, vec![Some(views[0])]);
        assert!(report.loaded.is_empty());

        // …and it is the view the second SELECT is answered from.
        let warm = exec_select(&mut db, sql).unwrap();
        assert_eq!(warm.metrics.udf_calls_executed, 0, "{:?}", warm.metrics);
        assert!(warm.metrics.view_rows_read > 0, "{:?}", warm.metrics);
    }

    #[test]
    fn crash_oracle_skips_saveless_cases() {
        let case = crate::gen::FuzzCase {
            seed: 0,
            dataset_seed: 5,
            n_frames: 12,
            sabotage: None,
            governor: GovernorConfig::default(),
            admission_width: None,
            stmts: vec![FuzzStmt::Select("SELECT id FROM video WHERE id < 4".into())],
        };
        let report = check_case(&case).expect("trivial case is green");
        assert_eq!(report.crash_points, 0);
        assert_eq!(report.n_selects, 1);
        assert_eq!(
            report.governed_cancelled, 0,
            "ungoverned case skips oracle 3"
        );
    }

    #[test]
    fn governed_oracle_tolerates_total_cancellation() {
        // A zero sim-ms deadline cancels every statement that does any
        // work; the oracle must stay green (structured cancellations are
        // an outcome, not a failure) and the session must stay clean.
        let case = crate::gen::FuzzCase {
            seed: 0,
            dataset_seed: 5,
            n_frames: 24,
            sabotage: None,
            governor: GovernorConfig {
                deadline_ms: Some(0.0),
                ..GovernorConfig::default()
            },
            admission_width: None,
            stmts: vec![
                FuzzStmt::Select(
                    "SELECT id, label FROM video CROSS APPLY yolo_tiny(frame) WHERE id < 16".into(),
                ),
                FuzzStmt::Select("SELECT COUNT(*) FROM video".into()),
            ],
        };
        let report = check_case(&case).expect("cancelled-everything case is green");
        assert!(
            report.governed_cancelled >= 1,
            "a 0ms deadline must cancel at least one statement"
        );
    }

    #[test]
    fn governed_oracle_covers_budget_and_admission() {
        // A 256-byte budget degrades the aggregation (which must still be
        // exact) and cancels wide projections; admission width 1 threads
        // every query through a one-slot controller.
        let case = crate::gen::FuzzCase {
            seed: 0,
            dataset_seed: 5,
            n_frames: 24,
            sabotage: None,
            governor: GovernorConfig {
                budget_bytes: Some(256),
                ..GovernorConfig::default()
            },
            admission_width: Some(1),
            stmts: vec![
                FuzzStmt::Select(
                    "SELECT label, COUNT(*) FROM video CROSS APPLY yolo_tiny(frame) \
                     WHERE id < 16 GROUP BY label"
                        .into(),
                ),
                FuzzStmt::Select("SELECT id FROM video WHERE id < 2".into()),
            ],
        };
        check_case(&case).expect("budget degradation under admission is green");
    }
}
