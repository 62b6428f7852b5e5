//! # eva-baselines
//!
//! The comparison systems of the paper's evaluation (§5.1), reimplemented
//! inside EVA-RS "for a fair comparison":
//!
//! * **HashStash** — operator-level reuse, defined on
//!   [`ReuseStrategy::HashStash`]: frame-level applies store and probe,
//!   box-level predicate UDFs never do — the limitation Table 2 quantifies.
//! * **FunCache** — tuple-level function caching in the execution engine,
//!   hashing every invocation's input arguments with xxHash.
//! * **No-Reuse**, **Min-Cost** and **Min-Cost-NoReuse** — the Fig. 5 and
//!   Fig. 10 reference points.
//!
//! The strategies execute through the shared planner/executor (selected via
//! [`ReuseStrategy`]); this crate provides the session constructors and the
//! baseline-specific tests.

pub mod sessions;

pub use sessions::{
    eva_session, funcache_session, hashstash_session, min_cost_noreuse_session, min_cost_session,
    no_reuse_session,
};

// Re-export for convenience in benches/tests.
pub use eva_planner::ReuseStrategy;
