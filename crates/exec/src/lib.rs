//! # eva-exec
//!
//! The EXECUTION ENGINE of EVA-RS: a pull-based, batched operator tree
//! executing [`eva_planner::PhysPlan`]s.
//!
//! The fused apply operator ([`ops::apply`]) implements the
//! materialization-aware transformation of the paper (Fig. 4): per input
//! tuple it probes the UDF's materialized view (the LEFT OUTER JOIN read),
//! evaluates the simulated model only on misses (the conditional APPLY's
//! NULL guard), and appends fresh results to the view (STORE). It equally
//! implements the FunCache baseline's tuple-level hashing cache.
//!
//! Every IO/UDF/hash action charges the session's virtual clock, producing
//! the per-category time breakdowns of Fig. 6 and Table 4.

pub mod config;
pub mod context;
pub mod engine;
pub mod funcache;
pub mod ops;

#[cfg(test)]
mod ops_tests;
#[cfg(test)]
mod testing;

pub use config::ExecConfig;
pub use context::ExecCtx;
pub use engine::{execute, execute_governed, QueryOutput, RESULT_ROW_BYTES};
pub use funcache::{FunCacheBatch, FunCacheTable};
