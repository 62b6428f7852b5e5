//! Query-lifecycle governance integration suite (the CI `overload` job).
//!
//! Four contracts, end to end through `EvaDb`:
//!
//! * **Cancellation sweep** — with `cancel_at_morsel = k`, a parallel
//!   pipeline is cancelled between morsel `k-1` and `k` at every ordinal
//!   and every worker-pool width. The cancelled run's deterministic
//!   counters are width-invariant (the completed prefix is replayed on the
//!   caller thread), the pool and session stay reusable (no poisoned
//!   locks), and a governance-lifted re-run is bit-identical to a run that
//!   was never cancelled.
//! * **Deadline / budget** — tripping unwinds with a structured
//!   `Cancelled { Deadline | Budget }`, never a panic, and claims no view
//!   coverage.
//! * **Degradation** — an aggregation over budget completes exactly in the
//!   streaming fallback and skips view materialization for that query.
//! * **Breaker** — `K` consecutive `udf_transient` retry exhaustions open
//!   the circuit; open fails fast without burning retries; the SimClock
//!   cooldown half-opens it; a successful probe closes it. All transitions
//!   land in the `udf_breaker_*` counters.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Barrier};

use eva_common::clock::{ns_from_ms, CostCategory};
use eva_common::{CancelReason, Failpoint, FireRule, GovernorConfig, MetricsSnapshot};
use eva_core::{EvaDb, SessionConfig, WorkerPool};
use eva_exec::ExecConfig;
use eva_harness::test_dataset;
use eva_parser::{parse, SelectStmt, Statement};
use eva_planner::ReuseStrategy;
use eva_udf::{BREAKER_BASE_COOLDOWN_MS, BREAKER_TRIP_THRESHOLD};

/// Morsel size for the sweep: 48 frames / 8 = 6 ordinals.
const MORSEL: usize = 8;

/// Non-UDF scan+project query — the columnar parallel-pipeline hot path.
const SCAN_Q: &str = "SELECT id, timestamp FROM video";

/// Detector query for the deadline, coverage, and breaker scenarios.
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

/// A session tuned so `SCAN_Q` runs as a parallel pipeline whenever a pool
/// is supplied: tiny morsels, no minimum-row threshold.
fn session(governor: GovernorConfig) -> EvaDb {
    let mut cfg = SessionConfig::for_strategy(ReuseStrategy::Eva);
    cfg.exec = ExecConfig {
        batch_size: MORSEL,
        morsel_rows: MORSEL,
        parallel_scan_min_rows: 1,
        ..ExecConfig::default()
    };
    cfg.governor = governor;
    let mut db = EvaDb::new(cfg).expect("session construction");
    db.load_video(test_dataset(777, 48), "video")
        .expect("dataset load");
    db.storage().failpoints().disarm_all();
    db
}

fn cancel_at(k: u64) -> GovernorConfig {
    GovernorConfig {
        cancel_at_morsel: Some(k),
        ..GovernorConfig::default()
    }
}

#[test]
fn cancellation_at_every_morsel_ordinal_is_width_invariant_and_recoverable() {
    let stmt = parse_select(SCAN_Q);
    let pool1 = WorkerPool::new(1);
    let mut probe = session(GovernorConfig::default());
    let base = probe
        .execute_select_with_pool(&stmt, Some(&pool1))
        .expect("ungoverned baseline");
    let n_morsels = base.metrics.morsels_dispatched;
    assert!(n_morsels >= 4, "need a real sweep, got {n_morsels} morsels");

    // Deterministic session-counter snapshots of each cancelled run, per
    // ordinal, collected across widths.
    let mut per_ordinal: Vec<Vec<MetricsSnapshot>> = vec![Vec::new(); n_morsels as usize + 1];
    for width in [1usize, 2, 8] {
        // ONE pool reused for the entire sweep at this width: every
        // cancelled dispatch must leave it reusable, with no poisoned
        // locks and no stuck lanes.
        let pool = WorkerPool::new(width);
        let mut base_db = session(GovernorConfig::default());
        let expect = base_db
            .execute_select_with_pool(&stmt, Some(&pool))
            .expect("never-cancelled run");
        assert_eq!(expect.batch.rows(), base.batch.rows(), "width {width}");

        for k in 0..=n_morsels {
            let mut db = session(cancel_at(k));
            let result = db.execute_select_with_pool(&stmt, Some(&pool));
            if k < n_morsels {
                let err = result.expect_err("gate must refuse an in-range ordinal");
                assert_eq!(
                    err.cancel_reason(),
                    Some(CancelReason::User),
                    "width {width} ordinal {k}: {err}"
                );
            } else {
                // The gate sits beyond the last morsel: nothing trips.
                let out = result.expect("gate beyond the last morsel never trips");
                assert_eq!(out.batch.rows(), expect.batch.rows());
            }
            per_ordinal[k as usize].push(db.metrics_snapshot().deterministic());

            // Same session, same pool, governance lifted: bit-identical to
            // the never-cancelled run — rows, simulated cost, counters.
            db.set_governor(GovernorConfig::default());
            let rerun = db
                .execute_select_with_pool(&stmt, Some(&pool))
                .expect("re-run after cancellation");
            assert_eq!(
                rerun.batch.rows(),
                expect.batch.rows(),
                "width {width} ordinal {k}: re-run rows"
            );
            // The session clock accumulated the cancelled prefix's charges,
            // so the re-run's per-query cost delta can differ from the
            // never-cancelled run by float-summation ulps — but by nothing
            // more (compare to a microsecond, far below one charge).
            assert_eq!(
                format!("{:.6?}", rerun.breakdown),
                format!("{:.6?}", expect.breakdown),
                "width {width} ordinal {k}: re-run simulated cost"
            );
            assert_eq!(
                rerun.metrics.deterministic(),
                expect.metrics.deterministic(),
                "width {width} ordinal {k}: re-run counters"
            );
        }
    }
    // The cancelled run's counters cover exactly the completed prefix
    // `0..k`, so they are a pure function of the ordinal — identical at
    // width 1, 2 and 8.
    for (k, snaps) in per_ordinal.iter().enumerate() {
        for s in &snaps[1..] {
            assert_eq!(
                snaps[0], *s,
                "ordinal {k}: cancelled-run counters must be width-invariant"
            );
        }
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
        .execute_select_with_pool(&stmt, None)
        .expect_err("a 0ms simulated deadline must cancel");
    assert_eq!(err.cancel_reason(), Some(CancelReason::Deadline), "{err}");
    assert!(err.to_string().contains("deadline"), "{err}");

    // The cancelled query must not have claimed coverage for rows it never
    // materialized: the lifted re-run on the same session answers exactly
    // like a fresh, never-governed session.
    db.set_governor(GovernorConfig::default());
    let warm = db
        .execute_select_with_pool(&stmt, None)
        .expect("session stays usable after a deadline cancellation");
    let mut fresh = session(GovernorConfig::default());
    let expect = fresh
        .execute_select_with_pool(&stmt, None)
        .expect("fresh baseline");
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
            .execute_select_with_pool(&stmt, None)
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
        .execute_select_with_pool(&parse_select(SCAN_Q), None)
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
        .execute_select_with_pool(&agg, None)
        .expect("budget trip on aggregation degrades, not fails");
    assert_eq!(out.metrics.degraded_queries, 1, "{:?}", out.metrics);
    assert!(
        out.metrics.materialization_skipped >= 1,
        "degraded query must skip view materialization: {:?}",
        out.metrics
    );
    let mut fresh = session(GovernorConfig::default());
    let expect = fresh
        .execute_select_with_pool(&agg, None)
        .expect("ungoverned baseline");
    assert_eq!(
        out.batch.rows(),
        expect.batch.rows(),
        "degraded aggregation must stay exact"
    );
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
    db.execute_select_with_pool(&parse_select(SCAN_Q), None)
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
        .execute_select_with_pool(&parse_select(DETECTOR_Q), None)
        .expect_err("a flag raised mid-query must cancel it");
    canceller.join().expect("canceller joins");
    assert_eq!(err.cancel_reason(), Some(CancelReason::User), "{err}");

    // Session usable afterwards.
    db.cancel_handle()
        .store(false, std::sync::atomic::Ordering::SeqCst);
    db.execute_select_with_pool(&parse_select(SCAN_Q), None)
        .expect("session stays usable after a user cancellation");
}

#[test]
fn udf_breaker_opens_fails_fast_half_opens_and_recloses() {
    let stmt = parse_select(DETECTOR_Q);
    let mut db = session(GovernorConfig::default());
    db.storage().failpoints().arm(
        Failpoint::UdfTransient,
        FireRule::Keyed {
            prob_permille: 1000,
            fails: 100,
        },
    );
    // K consecutive retry-budget exhaustions trip the breaker.
    for i in 0..BREAKER_TRIP_THRESHOLD {
        let err = db
            .execute_select_with_pool(&stmt, None)
            .expect_err("persistently failing UDF exhausts its retry budget");
        assert!(
            err.to_string().contains("retry budget"),
            "attempt {i}: {err}"
        );
        assert!(
            err.to_string().contains("last backoff"),
            "attempt {i}: {err}"
        );
    }
    assert_eq!(db.breaker().state_label(), "open");
    assert_eq!(db.breaker().times_opened(), 1);

    // Open: the next evaluation fails fast without burning retries.
    let retries_before = db.metrics_snapshot().udf_retries;
    let err = db
        .execute_select_with_pool(&stmt, None)
        .expect_err("open breaker fails fast");
    assert!(err.to_string().contains("circuit breaker is open"), "{err}");
    assert_eq!(
        db.metrics_snapshot().udf_retries,
        retries_before,
        "no retries may be burned while the breaker is open"
    );

    // SimClock cooldown elapses → half-open; the probe (faults disarmed)
    // succeeds and closes the breaker.
    db.storage().failpoints().disarm_all();
    db.clock().charge(
        CostCategory::Other,
        ns_from_ms(BREAKER_BASE_COOLDOWN_MS + 1.0),
    );
    let out = db
        .execute_select_with_pool(&stmt, None)
        .expect("half-open probe must be allowed through");
    assert!(!out.batch.rows().is_empty(), "probe answers the query");
    assert_eq!(db.breaker().state_label(), "closed");
    assert_eq!(db.breaker().times_halfopened(), 1);
    let m = db.metrics_snapshot();
    assert_eq!(m.udf_breaker_open, 1, "{m:?}");
    assert_eq!(m.udf_breaker_halfopen, 1, "{m:?}");
}
