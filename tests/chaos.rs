//! Crash-at-every-failpoint chaos suite.
//!
//! For every injection site the durable store claims to survive, this test
//! kills a save mid-flight (or corrupts its output), recovers into a fresh
//! session, re-runs the workload, and asserts the results are bit-identical
//! to a session that never crashed. Everything is deterministic: storage
//! sites fire by write index and the `udf_fail` site by evaluation index,
//! so any failure here replays exactly.
//!
//! The suite is also the target of the CI `chaos` job, which runs it with
//! `EVA_FAILPOINTS=all` exported — every engine then boots with the four
//! storage sites armed, which is why each scenario starts from
//! `disarm_all` and arms exactly what it wants.

use eva_common::{Failpoint, FireRule, Row};
use eva_core::EvaDb;
use eva_harness::test_session;
use eva_planner::ReuseStrategy;

const QUERIES: [&str; 2] = [
    "SELECT id FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
     WHERE id < 40 AND label = 'car'",
    "SELECT id, bbox FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
     WHERE id < 40 AND label = 'car' AND cartype(frame, bbox) = 'Toyota'",
];

/// Writes a full save performs: one segment per view (detector frame view +
/// cartype box view), the manifest, and the manager state.
const N_WRITES: u64 = 4;

fn unique_dir(tag: &str) -> std::path::PathBuf {
    eva_common::testutil::unique_temp_dir(&format!("chaos_{tag}"))
}

/// A session over the standard chaos dataset with every failpoint disarmed
/// (the CI job exports `EVA_FAILPOINTS=all`, so engines boot armed).
fn fresh_session() -> EvaDb {
    let db = test_session(ReuseStrategy::Eva, 777, 48);
    db.storage().failpoints().disarm_all();
    db
}

fn run_queries(db: &mut EvaDb) -> Vec<Row> {
    let mut rows = Vec::new();
    for q in QUERIES {
        let out = db.execute_sql(q).expect(q).rows().expect(q);
        rows.extend(out.batch.rows().iter().cloned());
    }
    rows
}

fn baseline_rows() -> Vec<Row> {
    let mut db = fresh_session();
    let rows = run_queries(&mut db);
    assert!(!rows.is_empty(), "chaos workload must produce rows");
    rows
}

/// Interrupt or corrupt the `nth` write of a save at `site`, recover into a
/// fresh session, re-run the workload, and return (rows, quarantined,
/// save_failed).
fn crash_and_recover(site: Failpoint, nth: u64, dir: &std::path::Path) -> (Vec<Row>, usize, bool) {
    let mut victim = fresh_session();
    run_queries(&mut victim);
    victim.storage().failpoints().arm(site, FireRule::Nth(nth));
    let save_failed = victim.save_state(dir).is_err();
    victim.storage().failpoints().disarm_all();

    let mut survivor = fresh_session();
    let report = survivor
        .load_state(dir)
        .unwrap_or_else(|e| panic!("recovery pass must not error at {site:?} nth={nth}: {e}"));
    let quarantined = report.quarantined.len();
    assert_eq!(
        survivor.metrics_snapshot().views_quarantined,
        quarantined as u64,
        "counters mirror the report: {report}"
    );
    let rows = run_queries(&mut survivor);
    (rows, quarantined, save_failed)
}

/// Crash sites: the save aborts with an error and whatever landed on disk
/// (nothing, some segments, or everything but the manager state) recovers
/// into a session that recomputes the rest.
#[test]
fn save_interrupted_at_every_write_recovers_bit_identically() {
    let baseline = baseline_rows();
    for site in [Failpoint::TornWrite, Failpoint::RenameFail] {
        for nth in 1..=N_WRITES {
            let dir = unique_dir(&format!("{}_{nth}", site.name()));
            let (rows, _, save_failed) = crash_and_recover(site, nth, &dir);
            assert!(save_failed, "{site:?} nth={nth} must abort the save");
            assert_eq!(
                rows, baseline,
                "{site:?} nth={nth}: recovered session must reproduce the baseline"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Corruption sites: the save "succeeds" but one file is damaged (short
/// write renamed into place, or a bit flipped after the fact). Recovery
/// quarantines segments, falls back past a damaged manifest, and starts the
/// manager cold — and the workload still reproduces the baseline.
#[test]
fn corrupted_store_quarantines_and_recomputes_bit_identically() {
    let baseline = baseline_rows();
    for site in [Failpoint::ShortWrite, Failpoint::BitFlip] {
        let mut total_quarantined = 0usize;
        for nth in 1..=N_WRITES {
            let dir = unique_dir(&format!("{}_{nth}", site.name()));
            let (rows, quarantined, save_failed) = crash_and_recover(site, nth, &dir);
            assert!(
                !save_failed,
                "{site:?} corrupts silently, the save succeeds"
            );
            total_quarantined += quarantined;
            assert_eq!(
                rows, baseline,
                "{site:?} nth={nth}: degraded session must reproduce the baseline"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        // The sweep hit the two view segments (nth 1 and 2), so corruption
        // was actually detected — not silently loaded.
        assert!(
            total_quarantined >= 2,
            "{site:?}: segment corruption must quarantine, got {total_quarantined}"
        );
    }
}

/// A UDF that fails on every evaluation errors cleanly, naming the model
/// and the site — never a panic, never a wrong answer — and the failed
/// query leaves nothing a later one trusts: disarmed, the session answers
/// like one that never failed.
#[test]
fn persistent_udf_failure_errors_cleanly() {
    let baseline = baseline_rows();
    let mut db = fresh_session();
    db.storage()
        .failpoints()
        .arm(Failpoint::UdfFail, FireRule::Always);
    let err = db.execute_sql(QUERIES[0]).unwrap_err();
    assert_eq!(err.stage(), "exec");
    let msg = err.to_string();
    assert!(
        msg.contains("fasterrcnn_resnet50") && msg.contains("udf_fail"),
        "{msg}"
    );
    assert_eq!(db.metrics_snapshot().udf_calls_executed, 0);
    db.storage().failpoints().disarm(Failpoint::UdfFail);
    assert_eq!(run_queries(&mut db), baseline);
}

/// Crashing, recovering, and crashing again must not lose previously
/// recovered state: two interrupted save/load cycles still converge to the
/// baseline.
#[test]
fn repeated_crashes_still_converge() {
    let baseline = baseline_rows();
    let dir = unique_dir("repeat");
    let mut db = fresh_session();
    run_queries(&mut db);
    db.storage()
        .failpoints()
        .arm(Failpoint::TornWrite, FireRule::Nth(2));
    assert!(db.save_state(&dir).is_err());
    db.storage().failpoints().disarm_all();

    let mut db2 = fresh_session();
    db2.load_state(&dir).unwrap();
    run_queries(&mut db2);
    db2.storage()
        .failpoints()
        .arm(Failpoint::BitFlip, FireRule::Nth(1));
    assert!(db2.save_state(&dir).is_ok(), "bit flip is silent");
    db2.storage().failpoints().disarm_all();

    let mut db3 = fresh_session();
    let report = db3.load_state(&dir).unwrap();
    assert!(!report.is_clean(), "{report}");
    assert_eq!(run_queries(&mut db3), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}
