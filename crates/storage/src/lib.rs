//! # eva-storage
//!
//! The storage engine: video tables and materialized UDF-result views.
//!
//! The paper stores video in Parquet via Petastorm and materialized views on
//! disk, estimating the view-join cost as `3·C_M` IO operations (Eq. 3).
//! Here both live in memory with **simulated IO costing**: every scan/read/
//! append charges the session's virtual clock according to an
//! [`IoCostModel`], so the time-breakdown experiments (Fig. 6, Table 4)
//! reproduce the paper's read/materialize components. State persists to
//! disk as checksummed, crash-safe segment files (see [`segment`]) for
//! session restarts; loading is a recovery pass that quarantines damaged
//! segments and reports what it found (see [`recovery`]).

pub mod cost;
pub mod engine;
pub mod recovery;
pub mod segment;
pub mod view;

pub use cost::IoCostModel;
pub use engine::StorageEngine;
pub use recovery::{QuarantinedSegment, RecoveryReport};
pub use view::{MaterializedView, ViewDef, ViewHits, ViewKey, ViewKeyKind};
