//! Coverage commits, recorded at plan time and applied after execution.
//!
//! The optimizer decides at *plan* time which views a query will STORE into,
//! but the query's associated predicate may only be folded into a view's
//! aggregated predicate `p_u` (§4.1) once the rows are really there: a query
//! that is cancelled mid-execution has materialized a prefix of its rows, and
//! a plan that is only explained has materialized none.
//!
//! So the optimizer never commits. It records the would-be commits in a
//! [`CommitLog`], and the session applies them after the query completes
//! successfully or drops them when it was cancelled or degraded.
//! [`CommitLog::apply`] is the one caller of `UdfManager::commit`; planning
//! without a log (`EXPLAIN`, `plan_select`) claims nothing.

use std::cell::RefCell;

use eva_expr::Expr;
use eva_symbolic::Dnf;
use eva_udf::{UdfManager, UdfSignature};

/// One coverage commit the optimizer wanted to make at plan time.
#[derive(Debug, Clone)]
pub struct PendingCommit {
    /// Signature of the view being stored into.
    pub sig: UdfSignature,
    /// Associated predicate in DNF (what the query covers).
    pub assoc: Dnf,
    /// The same predicate as written, before any reduction — what a
    /// baseline simplifier (Fig. 7) has to start from.
    pub assoc_expr: Expr,
}

/// Plan-time log of coverage commits, applied or dropped after execution.
///
/// Single-threaded by design (the planner and session share a thread), so a
/// `RefCell` suffices.
#[derive(Debug, Default)]
pub struct CommitLog {
    pending: RefCell<Vec<PendingCommit>>,
}

impl CommitLog {
    /// An empty log.
    pub fn new() -> CommitLog {
        CommitLog::default()
    }

    /// Record a commit the optimizer deferred.
    pub fn record(&self, sig: UdfSignature, assoc: Dnf, assoc_expr: Expr) {
        self.pending.borrow_mut().push(PendingCommit {
            sig,
            assoc,
            assoc_expr,
        });
    }

    /// Number of deferred commits currently held.
    pub fn len(&self) -> usize {
        self.pending.borrow().len()
    }

    /// Whether no commits are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.borrow().is_empty()
    }

    /// A copy of the pending commits, in the order the optimizer recorded
    /// them.
    pub fn pending(&self) -> Vec<PendingCommit> {
        self.pending.borrow().clone()
    }

    /// Apply every pending commit to the manager (the query completed), in
    /// the order the optimizer recorded them. Returns how many were applied.
    pub fn apply(&self, manager: &UdfManager) -> usize {
        let drained = std::mem::take(&mut *self.pending.borrow_mut());
        for c in &drained {
            manager.commit(&c.sig, &c.assoc);
        }
        drained.len()
    }

    /// Drop every pending commit without applying (the query was cancelled
    /// or degraded). Returns how many were discarded.
    pub fn discard(&self) -> usize {
        let n = self.pending.borrow().len();
        self.pending.borrow_mut().clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> UdfSignature {
        UdfSignature::new("udf", "video", &["frame"])
    }

    fn manager_with_view() -> UdfManager {
        // `commit` only folds into signatures registered via `view_for`,
        // which the optimizer always does before recording a store.
        let manager = UdfManager::new(eva_storage::StorageEngine::new());
        manager.view_for(
            &sig(),
            eva_storage::ViewKeyKind::Frame,
            std::sync::Arc::new(eva_common::Schema::empty()),
        );
        manager
    }

    #[test]
    fn apply_drains_and_commits() {
        let log = CommitLog::new();
        log.record(sig(), Dnf::true_(), Expr::true_());
        log.record(sig(), Dnf::true_(), Expr::true_());
        assert_eq!(log.len(), 2);
        let manager = manager_with_view();
        assert_eq!(log.apply(&manager), 2);
        assert!(log.is_empty());
        assert!(!manager.aggregated(&sig()).is_false());
    }

    #[test]
    fn discard_drops_without_committing() {
        let log = CommitLog::new();
        log.record(sig(), Dnf::true_(), Expr::true_());
        let manager = manager_with_view();
        assert_eq!(log.discard(), 1);
        assert!(log.is_empty());
        assert_eq!(log.apply(&manager), 0);
        assert!(manager.aggregated(&sig()).is_false());
    }
}
