//! Per-query resource governance: cooperative cancellation, deadlines, and
//! a byte-budget memory accountant.
//!
//! A [`QueryGovernor`] is created per query and carried through the
//! execution context. A query runs on its caller's thread, but another
//! thread may cancel it (`EvaDb::cancel_current` raises the session's flag),
//! so unlike [`SimClock`] the governor is built from atomics and a cheap
//! `Arc` handle:
//!
//! * **Deadlines are SimClock-denominated.** The deadline compares the
//!   query's simulated-cost delta against a millisecond budget, so whether
//!   a query exceeds its deadline is a pure function of the workload — a
//!   governed replay cancels at the same batch boundary every run, on every
//!   machine. Wall-clock enforcement exists only as an explicitly
//!   non-deterministic overlay (`wall:<ms>` form).
//! * **The token is checked cooperatively at batch boundaries.** Operators
//!   observe [`QueryGovernor::check`] between batches and unwind with
//!   [`EvaError::Cancelled`].
//! * **The memory accountant tracks retained state.** Result-buffer and
//!   aggregation-state growth is charged in deterministic estimates;
//!   transient per-batch buffers are not, so the accountant's verdict is
//!   schedule-independent.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::clock::SimClock;
use crate::error::{CancelReason, EvaError, Result};

/// Per-query governance knobs. `Copy` so session/arm configs stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GovernorConfig {
    /// Simulated-time deadline per query, in SimClock milliseconds.
    /// Deterministic: the same workload cancels at the same batch boundary.
    pub deadline_ms: Option<f64>,
    /// Wall-clock deadline overlay, in real milliseconds. Explicitly
    /// non-deterministic; off unless configured.
    pub wall_deadline_ms: Option<u64>,
    /// Byte budget for retained per-query memory (result buffers,
    /// aggregation state). Tripping it degrades when possible, else cancels.
    pub budget_bytes: Option<u64>,
}

impl GovernorConfig {
    /// True when any knob is set (an ungoverned query skips all checks).
    pub fn is_governed(&self) -> bool {
        self.deadline_ms.is_some() || self.wall_deadline_ms.is_some() || self.budget_bytes.is_some()
    }

    /// Overlay the `EVA_QUERY_DEADLINE` / `EVA_QUERY_BUDGET_BYTES` env
    /// knobs on top of `self`. `EVA_QUERY_DEADLINE` accepts a float (sim
    /// ms, deterministic) or `wall:<ms>` (wall-clock overlay). Unparseable
    /// values are ignored — governance must never break an ungoverned run.
    pub fn with_env_overrides(mut self) -> GovernorConfig {
        if let Ok(v) = std::env::var("EVA_QUERY_DEADLINE") {
            if let Some(ms) = v.strip_prefix("wall:") {
                if let Ok(ms) = ms.trim().parse::<u64>() {
                    self.wall_deadline_ms = Some(ms);
                }
            } else if let Ok(ms) = v.trim().parse::<f64>() {
                if ms.is_finite() && ms >= 0.0 {
                    self.deadline_ms = Some(ms);
                }
            }
        }
        if let Ok(v) = std::env::var("EVA_QUERY_BUDGET_BYTES") {
            if let Ok(bytes) = v.trim().parse::<u64>() {
                self.budget_bytes = Some(bytes);
            }
        }
        self
    }
}

const REASON_NONE: u64 = 0;

fn reason_code(r: CancelReason) -> u64 {
    match r {
        CancelReason::Deadline => 1,
        CancelReason::Budget => 2,
        CancelReason::Shed => 3,
        CancelReason::User => 4,
    }
}

fn code_reason(c: u64) -> Option<CancelReason> {
    match c {
        1 => Some(CancelReason::Deadline),
        2 => Some(CancelReason::Budget),
        3 => Some(CancelReason::Shed),
        4 => Some(CancelReason::User),
        _ => None,
    }
}

#[derive(Debug)]
struct Inner {
    cfg: GovernorConfig,
    /// SimClock total at query start; the deadline compares against the
    /// delta, so session-cumulative charges from earlier queries don't count.
    start_sim_ms: f64,
    /// Wall-clock cutoff, precomputed from `wall_deadline_ms`.
    wall_deadline: Option<Instant>,
    /// First-wins cancellation reason; `REASON_NONE` until cancelled.
    reason: AtomicU64,
    /// Bytes currently charged to the memory accountant.
    bytes: AtomicU64,
    /// Set once the query entered graceful degradation.
    degraded: AtomicBool,
    /// Optional external cancellation flag shared with the session (set by
    /// `EvaDb::cancel_current` from any thread → reason `User`).
    external_cancel: Option<Arc<AtomicBool>>,
}

/// Cheap-clone per-query governance handle (see module docs).
#[derive(Debug, Clone)]
pub struct QueryGovernor {
    inner: Arc<Inner>,
}

impl Default for QueryGovernor {
    fn default() -> Self {
        QueryGovernor::ungoverned()
    }
}

impl QueryGovernor {
    /// A governor for one query. `start_sim_ms` anchors the simulated
    /// deadline (pass `clock.total_ms()` at query start).
    pub fn new(cfg: GovernorConfig, start_sim_ms: f64) -> QueryGovernor {
        QueryGovernor {
            inner: Arc::new(Inner {
                wall_deadline: cfg
                    .wall_deadline_ms
                    .map(|ms| Instant::now() + Duration::from_millis(ms)),
                cfg,
                start_sim_ms,
                reason: AtomicU64::new(REASON_NONE),
                bytes: AtomicU64::new(0),
                degraded: AtomicBool::new(false),
                external_cancel: None,
            }),
        }
    }

    /// A governor with every knob off — all checks are near-free no-ops.
    pub fn ungoverned() -> QueryGovernor {
        QueryGovernor::new(GovernorConfig::default(), 0.0)
    }

    /// Attach a session-shared cancellation flag (observed with reason
    /// [`CancelReason::User`]). Builder-style, used at query start.
    pub fn with_external_cancel(self, flag: Arc<AtomicBool>) -> QueryGovernor {
        let inner = &self.inner;
        QueryGovernor {
            inner: Arc::new(Inner {
                cfg: inner.cfg,
                start_sim_ms: inner.start_sim_ms,
                wall_deadline: inner.wall_deadline,
                reason: AtomicU64::new(inner.reason.load(Ordering::SeqCst)),
                bytes: AtomicU64::new(inner.bytes.load(Ordering::SeqCst)),
                degraded: AtomicBool::new(inner.degraded.load(Ordering::SeqCst)),
                external_cancel: Some(flag),
            }),
        }
    }

    /// The configuration this governor enforces.
    pub fn config(&self) -> &GovernorConfig {
        &self.inner.cfg
    }

    /// Cancel the query. First reason wins; later calls are no-ops.
    pub fn cancel(&self, reason: CancelReason) {
        let _ = self.inner.reason.compare_exchange(
            REASON_NONE,
            reason_code(reason),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// Has the token tripped? (Also folds in the external user flag.)
    pub fn is_cancelled(&self) -> bool {
        self.poll_external();
        self.inner.reason.load(Ordering::SeqCst) != REASON_NONE
    }

    /// The first cancellation reason, if any.
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        self.poll_external();
        code_reason(self.inner.reason.load(Ordering::SeqCst))
    }

    fn poll_external(&self) {
        if let Some(flag) = &self.inner.external_cancel {
            if flag.load(Ordering::SeqCst) {
                self.cancel(CancelReason::User);
            }
        }
    }

    /// Build the `Cancelled` error for the recorded reason.
    pub fn cancel_error(&self) -> EvaError {
        let reason = self.cancel_reason().unwrap_or(CancelReason::User);
        let detail = match reason {
            CancelReason::Deadline => match self.inner.cfg.deadline_ms {
                Some(ms) => format!("query exceeded its {ms}ms simulated deadline"),
                None => "query exceeded its wall-clock deadline".to_string(),
            },
            CancelReason::Budget => format!(
                "query exceeded its {}-byte memory budget ({} bytes charged)",
                self.inner.cfg.budget_bytes.unwrap_or(0),
                self.bytes_charged()
            ),
            CancelReason::Shed => "query shed by the admission controller".to_string(),
            CancelReason::User => "query cancelled".to_string(),
        };
        EvaError::cancelled(reason, detail)
    }

    /// The cooperative batch-boundary check: token, then the deterministic
    /// simulated deadline, then the wall overlay.
    pub fn check(&self, clock: &SimClock) -> Result<()> {
        if self.is_cancelled() {
            return Err(self.cancel_error());
        }
        if let Some(deadline) = self.inner.cfg.deadline_ms {
            if clock.total_ms() - self.inner.start_sim_ms > deadline {
                self.cancel(CancelReason::Deadline);
                return Err(self.cancel_error());
            }
        }
        if let Some(cutoff) = self.inner.wall_deadline {
            if Instant::now() >= cutoff {
                self.cancel(CancelReason::Deadline);
                return Err(self.cancel_error());
            }
        }
        Ok(())
    }

    /// Charge `n` bytes of retained memory. Returns `true` while within
    /// budget (or unbudgeted). Does *not* cancel — the caller decides
    /// between graceful degradation and `Cancelled { Budget }`.
    pub fn charge_bytes(&self, n: u64) -> bool {
        let total = self.inner.bytes.fetch_add(n, Ordering::SeqCst) + n;
        match self.inner.cfg.budget_bytes {
            Some(budget) => total <= budget,
            None => true,
        }
    }

    /// Release previously charged bytes (e.g. aggregation state flushed
    /// into a merged spill).
    pub fn release_bytes(&self, n: u64) {
        let _ = self
            .inner
            .bytes
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                Some(cur.saturating_sub(n))
            });
    }

    /// Bytes currently charged to the accountant.
    pub fn bytes_charged(&self) -> u64 {
        self.inner.bytes.load(Ordering::SeqCst)
    }

    /// Cancel with reason `Budget` and return the error (for sites with no
    /// degradation path).
    pub fn budget_exceeded(&self) -> EvaError {
        self.cancel(CancelReason::Budget);
        self.cancel_error()
    }

    /// Mark the query degraded. Returns `true` on the first call so the
    /// caller can bump `degraded_queries` exactly once per query.
    pub fn enter_degraded(&self) -> bool {
        !self.inner.degraded.swap(true, Ordering::SeqCst)
    }

    /// Did this query enter graceful degradation?
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::NS_PER_MS;

    #[test]
    fn ungoverned_checks_are_noops() {
        let g = QueryGovernor::ungoverned();
        let clock = SimClock::new();
        assert!(g.check(&clock).is_ok());
        assert!(g.charge_bytes(u64::MAX / 2));
        assert!(!g.is_degraded());
    }

    #[test]
    fn first_cancel_reason_wins() {
        let g = QueryGovernor::ungoverned();
        g.cancel(CancelReason::Budget);
        g.cancel(CancelReason::User);
        assert_eq!(g.cancel_reason(), Some(CancelReason::Budget));
        let err = g.check(&SimClock::new()).unwrap_err();
        assert_eq!(err.cancel_reason(), Some(CancelReason::Budget));
    }

    #[test]
    fn sim_deadline_trips_on_the_clock_delta() {
        let clock = SimClock::new();
        clock.charge(crate::clock::CostCategory::Other, 100 * NS_PER_MS);
        // Anchored at 100ms with a 5ms budget: ok until the delta passes 5.
        let g = QueryGovernor::new(
            GovernorConfig {
                deadline_ms: Some(5.0),
                ..GovernorConfig::default()
            },
            clock.total_ms(),
        );
        assert!(g.check(&clock).is_ok());
        clock.charge(crate::clock::CostCategory::Other, 4 * NS_PER_MS);
        assert!(g.check(&clock).is_ok(), "4ms elapsed of a 5ms budget");
        clock.charge(crate::clock::CostCategory::Other, 2 * NS_PER_MS);
        let err = g.check(&clock).unwrap_err();
        assert_eq!(err.cancel_reason(), Some(CancelReason::Deadline));
        // Sticky: later checks keep failing with the same reason.
        assert!(g.check(&clock).is_err());
    }

    #[test]
    fn byte_budget_accounting_charges_and_releases() {
        let g = QueryGovernor::new(
            GovernorConfig {
                budget_bytes: Some(100),
                ..GovernorConfig::default()
            },
            0.0,
        );
        assert!(g.charge_bytes(60));
        assert!(!g.charge_bytes(60), "120 > 100 is over budget");
        g.release_bytes(60);
        assert_eq!(g.bytes_charged(), 60);
        assert!(g.charge_bytes(40), "back within budget after release");
        let err = g.budget_exceeded();
        assert_eq!(err.cancel_reason(), Some(CancelReason::Budget));
    }

    #[test]
    fn external_flag_reads_as_user_cancellation() {
        let flag = Arc::new(AtomicBool::new(false));
        let g = QueryGovernor::ungoverned().with_external_cancel(Arc::clone(&flag));
        let clock = SimClock::new();
        assert!(g.check(&clock).is_ok());
        flag.store(true, Ordering::SeqCst);
        let err = g.check(&clock).unwrap_err();
        assert_eq!(err.cancel_reason(), Some(CancelReason::User));
    }

    #[test]
    fn degraded_entry_reports_first_call_only() {
        let g = QueryGovernor::ungoverned();
        assert!(g.enter_degraded());
        assert!(!g.enter_degraded());
        assert!(g.is_degraded());
    }
}
