//! Query-lifecycle governance integration suite (the CI `overload` job).
//!
//! Four contracts, end to end through `EvaDb`:
//!
//! * **Cancellation sweep** — a simulated deadline set to trip after batch
//!   `k` cancels the query there, for every batch boundary `k`, with
//!   `Cancelled { Deadline }`. The cancelled run's counters cover exactly
//!   the first `k` batches, the session stays usable, and a re-run with the
//!   deadline lifted is bit-identical to a run that was never cancelled.
//! * **Deadline / budget** — tripping unwinds with a structured
//!   `Cancelled { Deadline | Budget }`, never a panic, and claims no view
//!   coverage.
//! * **Degradation** — an aggregation over budget completes exactly in the
//!   streaming fallback, at any scan size, and skips view materialization
//!   for that query.
//! * **UDF failure sweep** — the `udf_fail` failpoint armed at evaluation
//!   `k` fails the query there, for every evaluation `k`, with an `Exec`
//!   error naming the UDF. The failed query claims no coverage: the same
//!   session, disarmed, answers exactly like a fresh one, and then answers
//!   again without evaluating the UDF at all.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Barrier};

use eva_common::clock::ms_from_ns;
use eva_common::{CancelReason, Failpoint, FireRule, GovernorConfig};
use eva_core::{EvaDb, SessionConfig};
use eva_exec::ExecConfig;
use eva_parser::{parse, SelectStmt, Statement};
use eva_planner::ReuseStrategy;
use eva_video::generator::test_dataset;

/// Frames in the sweep's video.
const FRAMES: u64 = 48;

/// Batch size for the sweep: 48 frames / 8 = 6 batch boundaries.
const BATCH: usize = 8;

/// Non-UDF scan+project query: every batch charges the same frame reads.
const SCAN_Q: &str = "SELECT id, timestamp FROM video";

/// Detector query for the deadline, coverage, and UDF-failure scenarios.
const DETECTOR_Q: &str = "SELECT id, label FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
                          WHERE id < 40 AND label = 'car'";

/// Aggregation whose hash state cannot fit a 32-byte budget.
const AGG_Q: &str = "SELECT label, COUNT(*) FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
                     WHERE id < 24 GROUP BY label ORDER BY label";

fn parse_select(sql: &str) -> SelectStmt {
    match parse(sql).expect(sql) {
        Statement::Select(s) => s,
        other => panic!("`{sql}` is not a SELECT: {other:?}"),
    }
}

/// A session over a 48-frame video, run in batches of [`BATCH`] frames.
fn session(governor: GovernorConfig) -> EvaDb {
    let mut cfg = SessionConfig::for_strategy(ReuseStrategy::Eva);
    cfg.exec = ExecConfig {
        batch_size: BATCH,
        ..ExecConfig::default()
    };
    cfg.governor = governor;
    let mut db = EvaDb::new(cfg).expect("session construction");
    db.load_video(test_dataset(777, FRAMES), "video")
        .expect("dataset load");
    db.storage().failpoints().disarm_all();
    db
}

#[test]
fn cancellation_at_every_batch_boundary_is_recoverable() {
    let stmt = parse_select(SCAN_Q);
    let mut base_db = session(GovernorConfig::default());
    let expect = base_db.execute_select(&stmt).expect("never-cancelled run");
    let n_batches = FRAMES / BATCH as u64;
    assert_eq!(expect.metrics.frames_scanned, FRAMES);
    // Every batch charges the same; a deadline half a batch past the
    // charge of `k` batches trips at the check after batch `k`.
    let total_ns = expect.breakdown.total_ns();
    assert_eq!(total_ns % n_batches, 0, "uniform batches");
    let batch_ms = ms_from_ns(total_ns / n_batches);
    assert!(batch_ms > 0.0);

    for k in 1..=n_batches {
        let mut db = session(GovernorConfig {
            deadline_ms: Some((k as f64 - 0.5) * batch_ms),
            ..GovernorConfig::default()
        });
        let err = db
            .execute_select(&stmt)
            .expect_err("the deadline falls inside the query");
        assert_eq!(
            err.cancel_reason(),
            Some(CancelReason::Deadline),
            "batch {k}: {err}"
        );
        // The cancelled run read exactly its first `k` batches.
        assert_eq!(
            db.metrics_snapshot().frames_scanned,
            k * BATCH as u64,
            "batch {k}: frames read before the trip"
        );

        // Same session, deadline lifted: bit-identical to the run that was
        // never cancelled — rows, simulated cost, counters.
        db.set_governor(GovernorConfig::default());
        let rerun = db.execute_select(&stmt).expect("re-run after cancellation");
        assert_eq!(
            rerun.batch.rows(),
            expect.batch.rows(),
            "batch {k}: re-run rows"
        );
        assert_eq!(
            rerun.breakdown, expect.breakdown,
            "batch {k}: re-run simulated cost"
        );
        assert_eq!(
            rerun.metrics.deterministic(),
            expect.metrics.deterministic(),
            "batch {k}: re-run counters"
        );
    }
}

#[test]
fn deadline_cancellation_is_structured_and_claims_no_coverage() {
    let stmt = parse_select(DETECTOR_Q);
    let mut db = session(GovernorConfig {
        deadline_ms: Some(0.0),
        ..GovernorConfig::default()
    });
    let err = db
        .execute_select(&stmt)
        .expect_err("a 0ms simulated deadline must cancel");
    assert_eq!(err.cancel_reason(), Some(CancelReason::Deadline), "{err}");
    assert!(err.to_string().contains("deadline"), "{err}");

    // The cancelled query must not have claimed coverage for rows it never
    // materialized: the lifted re-run on the same session answers exactly
    // like a fresh, never-governed session.
    db.set_governor(GovernorConfig::default());
    let warm = db
        .execute_select(&stmt)
        .expect("session stays usable after a deadline cancellation");
    let mut fresh = session(GovernorConfig::default());
    let expect = fresh.execute_select(&stmt).expect("fresh baseline");
    assert_eq!(warm.batch.rows(), expect.batch.rows());
    assert!(!warm.batch.rows().is_empty(), "workload must produce rows");
}

/// A simulated deadline trips at a point fixed by the workload alone:
/// planning charges the clock nothing, so two fresh sessions running the
/// same governed query fail with the same error after charging exactly the
/// same simulated cost — the deadline's start point and every charge before
/// the trip are deterministic.
#[test]
fn simulated_deadline_trips_identically_in_fresh_sessions() {
    let stmt = parse_select(DETECTOR_Q);
    let governed = || GovernorConfig {
        deadline_ms: Some(1234.5),
        ..GovernorConfig::default()
    };
    let run = || {
        let mut db = session(governed());
        let err = db
            .execute_select(&stmt)
            .expect_err("the deadline falls inside the query");
        (err.to_string(), err.cancel_reason(), db.cost_snapshot())
    };
    let (first, second) = (run(), run());
    assert_eq!(first.1, Some(CancelReason::Deadline), "{}", first.0);
    assert!(first.2.total_ms() > 1234.5, "tripped past the deadline");
    assert_eq!(first, second);
}

#[test]
fn budget_trip_cancels_wide_results_but_degrades_aggregates_exactly() {
    // No degradation path for a plain projection: the result buffer blows
    // the budget and the query unwinds with `Cancelled { Budget }`.
    let mut db = session(GovernorConfig {
        budget_bytes: Some(64),
        ..GovernorConfig::default()
    });
    let err = db
        .execute_select(&parse_select(SCAN_Q))
        .expect_err("a 64-byte budget cannot hold 48 result rows");
    assert_eq!(err.cancel_reason(), Some(CancelReason::Budget), "{err}");
    assert!(err.to_string().contains("memory budget"), "{err}");

    // Aggregation degrades instead: exact answers in streaming mode, view
    // materialization skipped for the degraded query.
    let agg = parse_select(AGG_Q);
    let mut governed = session(GovernorConfig {
        budget_bytes: Some(32),
        ..GovernorConfig::default()
    });
    let out = governed
        .execute_select(&agg)
        .expect("budget trip on aggregation degrades, not fails");
    assert_eq!(out.metrics.degraded_queries, 1, "{:?}", out.metrics);
    assert!(
        out.metrics.materialization_skipped >= 1,
        "degraded query must skip view materialization: {:?}",
        out.metrics
    );
    let mut fresh = session(GovernorConfig::default());
    let expect = fresh.execute_select(&agg).expect("ungoverned baseline");
    assert_eq!(
        out.batch.rows(),
        expect.batch.rows(),
        "degraded aggregation must stay exact"
    );
}

/// A grouping over budget degrades the same way whatever its scan range:
/// at default batch size, a 4,096-byte budget on 4,000 and on 5,000
/// distinct ids both degrade (stop charging, keep folding) and return every
/// group.
#[test]
fn budgeted_group_by_degrades_at_any_scan_size() {
    let default_session = |governor: GovernorConfig| {
        let mut cfg = SessionConfig::for_strategy(ReuseStrategy::Eva);
        cfg.governor = governor;
        let mut db = EvaDb::new(cfg).expect("session construction");
        db.load_video(test_dataset(777, 6000), "video")
            .expect("dataset load");
        db.storage().failpoints().disarm_all();
        db
    };
    for bound in [4000, 5000] {
        let stmt = parse_select(&format!(
            "SELECT id, COUNT(*) FROM video WHERE id < {bound} GROUP BY id"
        ));
        let mut governed = default_session(GovernorConfig {
            budget_bytes: Some(4096),
            ..GovernorConfig::default()
        });
        let out = governed
            .execute_select(&stmt)
            .unwrap_or_else(|e| panic!("id < {bound}: a budgeted grouping must degrade: {e}"));
        assert_eq!(out.metrics.degraded_queries, 1, "id < {bound}");
        assert_eq!(out.n_rows(), bound as usize, "id < {bound}");
        let expect = default_session(GovernorConfig::default())
            .execute_select(&stmt)
            .expect("ungoverned baseline");
        assert_eq!(out.batch.rows(), expect.batch.rows(), "id < {bound}");
    }
}

/// The stock detector, meeting another thread at `barrier` on its first
/// call and waiting there until that thread has done its part.
struct MeetOnFirstCall {
    inner: Arc<dyn eva_udf::SimUdf>,
    met: AtomicBool,
    barrier: Arc<Barrier>,
}

impl eva_udf::SimUdf for MeetOnFirstCall {
    fn impl_id(&self) -> &str {
        self.inner.impl_id()
    }
    fn cost_ns(&self) -> u64 {
        self.inner.cost_ns()
    }
    fn output_schema(&self) -> Arc<eva_common::Schema> {
        self.inner.output_schema()
    }
    fn key_kind(&self) -> eva_storage::ViewKeyKind {
        self.inner.key_kind()
    }
    fn eval_into(
        &self,
        ctx: &eva_udf::UdfEvalContext<'_>,
        out: &mut [eva_common::ColumnBuilder],
    ) -> eva_common::Result<u32> {
        if !self.met.swap(true, std::sync::atomic::Ordering::SeqCst) {
            self.barrier.wait();
            self.barrier.wait();
        }
        self.inner.eval_into(ctx, out)
    }
}

#[test]
fn external_cancel_flag_unwinds_with_user_reason() {
    let mut db = session(GovernorConfig::default());
    let handle = db.cancel_handle();
    // A stale flag from before the query must NOT kill it: the flag is
    // re-armed at query start.
    handle.store(true, std::sync::atomic::Ordering::SeqCst);
    db.execute_select(&parse_select(SCAN_Q))
        .expect("stale cancel flag is cleared at query start");

    // A flag raised by another thread while the query runs lands as
    // `Cancelled { User }` at the next batch boundary. The detector meets
    // the canceller thread on its first call and waits until the flag is
    // up, so the cancel arrives mid-query by construction, not by a race.
    let met = Arc::new(Barrier::new(2));
    let stock = db.registry().get("sim/fasterrcnn_resnet50").unwrap();
    db.registry().register(Arc::new(MeetOnFirstCall {
        inner: stock,
        met: Default::default(),
        barrier: Arc::clone(&met),
    }));
    let canceller = {
        let handle = db.cancel_handle();
        std::thread::spawn(move || {
            met.wait();
            handle.store(true, std::sync::atomic::Ordering::SeqCst);
            met.wait();
        })
    };
    let err = db
        .execute_select(&parse_select(DETECTOR_Q))
        .expect_err("a flag raised mid-query must cancel it");
    canceller.join().expect("canceller joins");
    assert_eq!(err.cancel_reason(), Some(CancelReason::User), "{err}");

    // Session usable afterwards.
    db.cancel_handle()
        .store(false, std::sync::atomic::Ordering::SeqCst);
    db.execute_select(&parse_select(SCAN_Q))
        .expect("session stays usable after a user cancellation");
}

#[test]
fn udf_failure_at_every_evaluation_is_recoverable() {
    let stmt = parse_select(DETECTOR_Q);
    let expect = session(GovernorConfig::default())
        .execute_select(&stmt)
        .expect("never-failed run");
    assert!(
        !expect.batch.rows().is_empty(),
        "workload must produce rows"
    );
    // One evaluation per batch of frames the detector sees.
    let n_evals = expect.metrics.udf_calls_executed.div_ceil(BATCH as u64);
    assert!(n_evals > 1, "the sweep needs several evaluations");

    for k in 1..=n_evals {
        let mut db = session(GovernorConfig::default());
        db.storage()
            .failpoints()
            .arm(Failpoint::UdfFail, FireRule::Nth(k));
        let err = db
            .execute_select(&stmt)
            .expect_err("the failpoint fires inside the query");
        assert_eq!(err.stage(), "exec", "evaluation {k}: {err}");
        let msg = err.to_string();
        assert!(
            msg.contains("fasterrcnn_resnet50") && msg.contains("udf_fail"),
            "evaluation {k}: {msg}"
        );

        // Whatever the failed query stored, it claimed no coverage.
        let manager = db.manager();
        for sig in manager.view_sizes().into_keys() {
            assert!(
                manager.aggregated(&sig).is_false(),
                "evaluation {k}: {sig:?} claimed coverage"
            );
        }

        // Same session, disarmed: the answer is a fresh session's.
        db.storage().failpoints().disarm(Failpoint::UdfFail);
        let rerun = db.execute_select(&stmt).expect("re-run after the failure");
        assert_eq!(
            rerun.batch.rows(),
            expect.batch.rows(),
            "evaluation {k}: re-run rows"
        );
        // The re-run claimed its coverage: a third run evaluates nothing.
        let third = db.execute_select(&stmt).expect("third run");
        assert_eq!(third.batch.rows(), expect.batch.rows());
        assert_eq!(
            third.metrics.udf_calls_executed, 0,
            "evaluation {k}: {:?}",
            third.metrics
        );
    }

    // One past the last evaluation, the armed site never fires.
    let mut db = session(GovernorConfig::default());
    db.storage()
        .failpoints()
        .arm(Failpoint::UdfFail, FireRule::Nth(n_evals + 1));
    let out = db.execute_select(&stmt).expect("no evaluation is failed");
    assert_eq!(out.batch.rows(), expect.batch.rows());
    assert_eq!(db.storage().failpoints().fires(Failpoint::UdfFail), 0);
}
