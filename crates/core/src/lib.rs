//! # eva-core
//!
//! The EVA-RS façade: [`EvaDb`] wires the parser, binder, optimizer,
//! execution engine, catalog, storage, UDF manager and statistics into one
//! session object implementing the query lifecycle of Fig. 1:
//!
//! ```text
//! EVA-QL ──parse──▶ AST ──bind──▶ logical plan ──optimize──▶ physical plan
//!        ──execute──▶ rows + per-category simulated-time breakdown
//! ```
//!
//! Sessions are parameterized by a [`SessionConfig`] selecting the reuse
//! strategy (EVA / No-Reuse / HashStash / FunCache) and the ranking function,
//! which is how the evaluation's systems-under-test are instantiated.

pub mod admission;
pub mod analyze;
pub mod session;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionPermit, AdmissionSnapshot};
pub use analyze::build_stats;
pub use session::{EvaDb, SessionConfig, StatementResult};

/// What is left of the worker pool: every query runs on its caller's thread,
/// so there is one lane and no thread to spawn. It stays only because the
/// benchmark harness (`crates/perfbench`) still reports its width as
/// `exec.n_workers`, and goes when that harness next changes.
pub struct WorkerPool;

impl WorkerPool {
    /// The process-wide pool.
    pub fn global() -> &'static WorkerPool {
        &WorkerPool
    }

    /// Lanes a query runs on: always 1.
    pub fn n_workers(&self) -> usize {
        1
    }
}
