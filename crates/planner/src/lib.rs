//! # eva-planner
//!
//! The query optimizer of EVA-RS: the binder, the canonical transformation
//! rules, and the **semantic reuse algorithm** of the paper —
//!
//! * [`cost`] — the materialization-aware cost model (Eqs. 2–4),
//! * [`reorder`] — predicate reordering and Theorem 4.1,
//! * [`setcover`] — logical UDF reuse via greedy weighted set cover
//!   (Algorithm 2, Theorem 4.2),
//! * [`optimizer`] — the Cascades-style rule pipeline combining canonical
//!   rules with Rule I (UDF-predicate transformation, Fig. 3) and Rule II
//!   (materialization-aware transformation, Fig. 4), plus the baseline
//!   strategies (No-Reuse, HashStash, FunCache) used in the evaluation.

pub mod bind;
pub mod commits;
pub mod cost;
pub mod optimizer;
pub mod plan;
pub mod reorder;
pub mod rules;
pub mod setcover;

pub use bind::Binder;
pub use commits::{CommitLog, PendingCommit};
pub use cost::PredicateProfile;
pub use optimizer::{Optimizer, PlannerConfig, ReuseStrategy};
pub use plan::{ApplyReuse, ApplySpec, LogicalPlan, PhysPlan, Segment};
pub use reorder::RankingKind;
