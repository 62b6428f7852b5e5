//! Deterministic circuit breaker around UDF evaluation.
//!
//! PR 4 gave `ApplyOp` a bounded retry loop for `udf_transient` faults: each
//! failing frame burns its retry budget, charges simulated backoff to the
//! [`SimClock`], and finally gives up with an `Exec` error. That protects one
//! frame, but a *persistently* failing model makes every subsequent frame
//! repeat the full retry dance — wasted simulated milliseconds and a noisy
//! failure mode. The breaker adds the classic closed → open → half-open state
//! machine on top:
//!
//! * **Closed** — evaluation proceeds; consecutive retry-budget exhaustions
//!   are counted. `K` in a row (no intervening success) trips the breaker.
//! * **Open** — evaluation fails fast with the same error class the retry
//!   path would produce, without burning retries. The breaker holds a
//!   SimClock deadline; once the clock passes it, the next check transitions
//!   to half-open.
//! * **Half-open** — exactly one probe evaluation is allowed through. A
//!   success closes the breaker and resets the cooldown ladder; a failure
//!   reopens it with the cooldown doubled (deterministic exponential
//!   backoff).
//!
//! ## Determinism
//!
//! Everything is denominated in **simulated** milliseconds and driven by the
//! seeded failpoint schedule, so breaker transitions are a pure function of
//! the workload: the same session replays to the same open/half-open counter
//! values on every run (the breaker is only consulted from the thread that
//! runs the query, like every other accounting structure).
//! Interior mutability is atomic so the breaker can be owned by `EvaDb` and
//! shared across queries, but the charging discipline keeps all transitions
//! on the caller thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use eva_common::metrics::Counter;
use eva_common::{EvaError, MetricsSink, Result, SimClock};

/// Consecutive retry-budget exhaustions that trip the breaker open.
pub const BREAKER_TRIP_THRESHOLD: u32 = 3;

/// First cooldown after tripping, in simulated milliseconds. Doubles on
/// every failed half-open probe.
pub const BREAKER_BASE_COOLDOWN_MS: f64 = 50.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Closed { consecutive_exhaustions: u32 },
    Open { until_sim_ms: f64, cooldown_ms: f64 },
    HalfOpen { cooldown_ms: f64 },
}

#[derive(Debug)]
struct Inner {
    state: Mutex<State>,
    times_opened: AtomicU64,
    times_halfopened: AtomicU64,
}

/// Circuit breaker for UDF evaluation; see the module docs for the state
/// machine. Cheap to clone (`Arc` inside); owned by `EvaDb`, threaded into
/// the executor via the exec `Context`, consulted by `ApplyOp` around the
/// retry loop.
#[derive(Debug, Clone)]
pub struct UdfBreaker {
    inner: Arc<Inner>,
}

impl Default for UdfBreaker {
    fn default() -> Self {
        UdfBreaker {
            inner: Arc::new(Inner {
                state: Mutex::new(State::Closed {
                    consecutive_exhaustions: 0,
                }),
                times_opened: AtomicU64::new(0),
                times_halfopened: AtomicU64::new(0),
            }),
        }
    }
}

impl UdfBreaker {
    /// Fresh breaker in the closed state.
    pub fn new() -> UdfBreaker {
        UdfBreaker::default()
    }

    /// Gate an evaluation attempt. Returns `Ok(())` when evaluation may
    /// proceed (closed, or half-open probe), or the fail-fast error when the
    /// breaker is open and the SimClock cooldown has not elapsed yet.
    ///
    /// The open → half-open transition happens *here*, on the first check
    /// after the cooldown deadline passes — there is no background timer, in
    /// keeping with the repo's cooperative, pull-driven design.
    pub fn check(&self, clock: &SimClock, metrics: &MetricsSink) -> Result<()> {
        let mut st = self.inner.state.lock().expect("breaker lock");
        match *st {
            State::Closed { .. } => Ok(()),
            State::Open {
                until_sim_ms,
                cooldown_ms,
            } => {
                if clock.total_ms() >= until_sim_ms {
                    *st = State::HalfOpen { cooldown_ms };
                    self.inner.times_halfopened.fetch_add(1, Ordering::Relaxed);
                    metrics.add(Counter::udf_breaker_halfopen, 1);
                    Ok(())
                } else {
                    Err(EvaError::Exec(format!(
                        "udf circuit breaker is open (cooling down until \
                         {until_sim_ms:.1} sim-ms, now {:.1}); evaluation \
                         failed fast without burning retries",
                        clock.total_ms(),
                    )))
                }
            }
            State::HalfOpen { .. } => Ok(()),
        }
    }

    /// Record one retry-budget exhaustion (ApplyOp gave up on a frame).
    /// Trips the breaker after [`BREAKER_TRIP_THRESHOLD`] consecutive
    /// exhaustions, or immediately re-opens with a doubled cooldown if the
    /// exhaustion happened on a half-open probe.
    pub fn record_exhaustion(&self, clock: &SimClock, metrics: &MetricsSink) {
        let mut st = self.inner.state.lock().expect("breaker lock");
        match *st {
            State::Closed {
                consecutive_exhaustions,
            } => {
                let n = consecutive_exhaustions + 1;
                if n >= BREAKER_TRIP_THRESHOLD {
                    *st = State::Open {
                        until_sim_ms: clock.total_ms() + BREAKER_BASE_COOLDOWN_MS,
                        cooldown_ms: BREAKER_BASE_COOLDOWN_MS,
                    };
                    self.inner.times_opened.fetch_add(1, Ordering::Relaxed);
                    metrics.add(Counter::udf_breaker_open, 1);
                } else {
                    *st = State::Closed {
                        consecutive_exhaustions: n,
                    };
                }
            }
            State::HalfOpen { cooldown_ms } => {
                let doubled = cooldown_ms * 2.0;
                *st = State::Open {
                    until_sim_ms: clock.total_ms() + doubled,
                    cooldown_ms: doubled,
                };
                self.inner.times_opened.fetch_add(1, Ordering::Relaxed);
                metrics.add(Counter::udf_breaker_open, 1);
            }
            // Exhaustions reported while open (shouldn't happen — check()
            // fails fast first) leave the deadline alone.
            State::Open { .. } => {}
        }
    }

    /// Record a successful evaluation: closes a half-open breaker (resetting
    /// the cooldown ladder) and clears the consecutive-exhaustion streak.
    pub fn record_success(&self) {
        let mut st = self.inner.state.lock().expect("breaker lock");
        *st = State::Closed {
            consecutive_exhaustions: 0,
        };
    }

    /// Stable label for the current state: `"closed"`, `"open"`, or
    /// `"half-open"` (rendered by the REPL's `\health`).
    pub fn state_label(&self) -> &'static str {
        match *self.inner.state.lock().expect("breaker lock") {
            State::Closed { .. } => "closed",
            State::Open { .. } => "open",
            State::HalfOpen { .. } => "half-open",
        }
    }

    /// Total closed→open and halfopen→open transitions since creation.
    pub fn times_opened(&self) -> u64 {
        self.inner.times_opened.load(Ordering::Relaxed)
    }

    /// Total open→half-open transitions since creation.
    pub fn times_halfopened(&self) -> u64 {
        self.inner.times_halfopened.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_common::clock::{ns_from_ms, CostCategory};

    fn ctx() -> (SimClock, MetricsSink) {
        (SimClock::default(), MetricsSink::new())
    }

    #[test]
    fn stays_closed_below_threshold() {
        let (clock, metrics) = ctx();
        let b = UdfBreaker::new();
        for _ in 0..BREAKER_TRIP_THRESHOLD - 1 {
            b.record_exhaustion(&clock, &metrics);
            assert!(b.check(&clock, &metrics).is_ok());
        }
        assert_eq!(b.state_label(), "closed");
        assert_eq!(b.times_opened(), 0);
        assert_eq!(metrics.snapshot().udf_breaker_open, 0);
    }

    #[test]
    fn success_resets_the_streak() {
        let (clock, metrics) = ctx();
        let b = UdfBreaker::new();
        b.record_exhaustion(&clock, &metrics);
        b.record_exhaustion(&clock, &metrics);
        b.record_success();
        b.record_exhaustion(&clock, &metrics);
        b.record_exhaustion(&clock, &metrics);
        assert_eq!(b.state_label(), "closed");
        assert_eq!(b.times_opened(), 0);
    }

    #[test]
    fn trips_open_after_k_consecutive_and_fails_fast() {
        let (clock, metrics) = ctx();
        let b = UdfBreaker::new();
        for _ in 0..BREAKER_TRIP_THRESHOLD {
            b.record_exhaustion(&clock, &metrics);
        }
        assert_eq!(b.state_label(), "open");
        assert_eq!(b.times_opened(), 1);
        assert_eq!(metrics.snapshot().udf_breaker_open, 1);
        let err = b.check(&clock, &metrics).unwrap_err();
        assert_eq!(err.stage(), "exec");
        assert!(err.message().contains("circuit breaker is open"));
    }

    #[test]
    fn half_opens_on_simclock_cooldown_then_closes_on_success() {
        let (clock, metrics) = ctx();
        let b = UdfBreaker::new();
        for _ in 0..BREAKER_TRIP_THRESHOLD {
            b.record_exhaustion(&clock, &metrics);
        }
        assert!(b.check(&clock, &metrics).is_err());
        // Advance the simulated clock past the cooldown.
        clock.charge(
            CostCategory::Other,
            ns_from_ms(BREAKER_BASE_COOLDOWN_MS + 1.0),
        );
        assert!(b.check(&clock, &metrics).is_ok());
        assert_eq!(b.state_label(), "half-open");
        assert_eq!(b.times_halfopened(), 1);
        assert_eq!(metrics.snapshot().udf_breaker_halfopen, 1);
        b.record_success();
        assert_eq!(b.state_label(), "closed");
    }

    #[test]
    fn failed_probe_reopens_with_doubled_cooldown() {
        let (clock, metrics) = ctx();
        let b = UdfBreaker::new();
        for _ in 0..BREAKER_TRIP_THRESHOLD {
            b.record_exhaustion(&clock, &metrics);
        }
        clock.charge(
            CostCategory::Other,
            ns_from_ms(BREAKER_BASE_COOLDOWN_MS + 1.0),
        );
        assert!(b.check(&clock, &metrics).is_ok()); // half-open probe
        b.record_exhaustion(&clock, &metrics); // probe failed
        assert_eq!(b.state_label(), "open");
        assert_eq!(b.times_opened(), 2);
        // Base cooldown has not elapsed against the *doubled* deadline.
        clock.charge(
            CostCategory::Other,
            ns_from_ms(BREAKER_BASE_COOLDOWN_MS + 1.0),
        );
        assert!(b.check(&clock, &metrics).is_err());
        clock.charge(
            CostCategory::Other,
            ns_from_ms(BREAKER_BASE_COOLDOWN_MS + 1.0),
        );
        assert!(b.check(&clock, &metrics).is_ok());
        assert_eq!(b.times_halfopened(), 2);
    }

    #[test]
    fn clones_share_state() {
        let (clock, metrics) = ctx();
        let a = UdfBreaker::new();
        let b = a.clone();
        for _ in 0..BREAKER_TRIP_THRESHOLD {
            a.record_exhaustion(&clock, &metrics);
        }
        assert_eq!(b.state_label(), "open");
    }
}
