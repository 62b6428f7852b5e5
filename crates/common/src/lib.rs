//! # eva-common
//!
//! Shared kernel for the EVA-RS video database management system — a Rust
//! reproduction of *"EVA: A Symbolic Approach to Accelerating Exploratory
//! Video Analytics with Materialized Views"* (SIGMOD 2022).
//!
//! This crate holds the vocabulary types every other subsystem speaks:
//!
//! * [`Value`] — the dynamically-typed datum flowing through the engine,
//! * [`Schema`]/[`Field`]/[`DataType`] — relation schemas,
//! * [`BBox`] — bounding boxes produced by object detectors,
//! * [`SimClock`] — the virtual clock that charges simulated UDF/IO cost so
//!   experiments reproduce the paper's cost ratios deterministically,
//! * [`EvaError`] — the error type of the whole workspace,
//! * [`hash::xxhash64`] — the fast hash used by the FunCache baseline.

pub mod batch;
pub mod clock;
pub mod codec;
pub mod column;
pub mod error;
pub mod failpoint;
pub mod governor;
pub mod hash;
pub mod hist;
pub mod ids;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod schema;
pub mod sync;
pub mod table_fmt;
pub mod testutil;
pub mod trace;
pub mod value;

pub use batch::{Batch, ColumnarBatch, Row};
pub use clock::{CostBreakdown, CostCategory, SimClock};
pub use codec::{ByteReader, ByteWriter};
pub use column::{Bitmap, CellRef, Column, ColumnBuilder, ColumnData};
pub use error::{CancelReason, EvaError, Result};
pub use failpoint::{Failpoint, FailpointRegistry, FireRule};
pub use governor::{GovernorConfig, QueryGovernor};
pub use hist::LatencyHistogram;
pub use ids::{FrameId, OpId, QueryId, UdfId, ViewId};
pub use metrics::{MetricsSink, MetricsSnapshot, OpStats};
pub use schema::{DataType, Field, Schema};
pub use trace::{prometheus_text, QueryTrace, Span, SpanHists, SpanKind, SpanRef, TraceSink};
pub use value::{BBox, Value};
