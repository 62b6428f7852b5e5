//! Execution context threaded through operators.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use eva_common::{MetricsSink, OpId, OpStats, QueryGovernor, SimClock, TraceSink};
use eva_storage::StorageEngine;
use eva_udf::{InvocationStats, UdfRegistry};
use eva_video::VideoDataset;

use crate::config::ExecConfig;
use crate::funcache::FunCacheTable;

/// Per-operator runtime statistics for one query execution.
///
/// A `RefCell`, like [`SimClock`]: a query runs on its caller's thread, and
/// every update happens there.
#[derive(Debug, Default)]
pub struct OpStatsCollector {
    cells: RefCell<BTreeMap<OpId, OpStats>>,
}

impl OpStatsCollector {
    /// Fresh, empty collector.
    pub fn new() -> OpStatsCollector {
        OpStatsCollector::default()
    }

    /// Apply `f` to the stats cell of operator `id`, creating it zeroed on
    /// first touch.
    pub fn update(&self, id: OpId, f: impl FnOnce(&mut OpStats)) {
        f(self.cells.borrow_mut().entry(id).or_default())
    }

    /// A copy of every operator's stats, keyed by operator id.
    pub fn snapshot(&self) -> BTreeMap<OpId, OpStats> {
        self.cells.borrow().clone()
    }

    /// Drop all recorded stats.
    pub fn reset(&self) {
        self.cells.borrow_mut().clear()
    }
}

/// Everything an operator needs at run time.
pub struct ExecCtx<'a> {
    /// Storage engine (scans, view probes, STORE appends).
    pub storage: &'a StorageEngine,
    /// Simulated-model registry.
    pub registry: &'a UdfRegistry,
    /// Invocation statistics (Table 2/3 accounting).
    pub stats: &'a InvocationStats,
    /// The virtual clock.
    pub clock: &'a SimClock,
    /// The dataset backing the query's table (single-table queries).
    pub dataset: Arc<VideoDataset>,
    /// FunCache baseline table (unused under other strategies).
    pub funcache: &'a FunCacheTable,
    /// Per-operator statistics for this execution (`EXPLAIN ANALYZE`).
    pub op_stats: &'a OpStatsCollector,
    /// Tunables.
    pub config: ExecConfig,
    /// Per-query governance: cancellation token, deadline, and the memory
    /// accountant. Defaults to [`QueryGovernor::ungoverned`] (all checks are
    /// near-free no-ops); the session builds a governed one per query.
    pub governor: QueryGovernor,
}

impl ExecCtx<'_> {
    /// The session-wide metrics sink (owned by the storage engine so every
    /// layer sharing the engine shares the counters).
    pub fn metrics(&self) -> &MetricsSink {
        self.storage.metrics()
    }

    /// The session-wide trace sink (owned by the storage engine, like the
    /// metrics sink, so operator spans and storage-level spans land in one
    /// tree). Tracing records simulated cost and wall time *separately* and
    /// never touches the clock or the counters — see `eva_common::trace`.
    pub fn trace(&self) -> &TraceSink {
        self.storage.trace()
    }
}
