//! Shared fixtures for operator unit tests.
#![cfg(test)]

use std::sync::Arc;

use eva_common::{Batch, ColumnarBatch, Result, Row, Schema, SimClock};
use eva_storage::StorageEngine;
use eva_udf::registry::install_standard_zoo;
use eva_udf::{InvocationStats, UdfRegistry};
use eva_video::generator::generate;
use eva_video::{VideoConfig, VideoDataset};

use crate::config::ExecConfig;
use crate::context::{ExecCtx, OpStatsCollector};
use crate::funcache::FunCacheTable;
use crate::ops::{BoxedOp, Operator};

/// Everything an operator test needs, with owned lifetimes.
pub struct TestEnv {
    pub storage: StorageEngine,
    pub registry: UdfRegistry,
    pub stats: InvocationStats,
    pub clock: SimClock,
    pub dataset: Arc<VideoDataset>,
    pub funcache: FunCacheTable,
    pub op_stats: OpStatsCollector,
    pub catalog: eva_catalog::Catalog,
}

impl TestEnv {
    pub fn new(seed: u64, n_frames: u64) -> TestEnv {
        let storage = StorageEngine::new();
        let registry = UdfRegistry::new();
        let catalog = eva_catalog::Catalog::new();
        install_standard_zoo(&registry, &catalog).expect("zoo install");
        let dataset = storage.load_dataset(generate(VideoConfig {
            name: "t".into(),
            n_frames,
            width: 100,
            height: 60,
            fps: 25.0,
            target_density: 3.0,
            person_fraction: 0.0,
            seed,
        }));
        TestEnv {
            storage,
            registry,
            stats: InvocationStats::new(),
            clock: SimClock::new(),
            dataset,
            funcache: FunCacheTable::new(),
            op_stats: OpStatsCollector::new(),
            catalog,
        }
    }

    pub fn ctx(&self) -> ExecCtx<'_> {
        self.ctx_with(ExecConfig {
            batch_size: 16,
            ..ExecConfig::default()
        })
    }

    /// Context with explicit tunables.
    pub fn ctx_with(&self, config: ExecConfig) -> ExecCtx<'_> {
        ExecCtx {
            storage: &self.storage,
            registry: &self.registry,
            stats: &self.stats,
            clock: &self.clock,
            dataset: Arc::clone(&self.dataset),
            funcache: &self.funcache,
            op_stats: &self.op_stats,
            config,
            governor: eva_common::QueryGovernor::ungoverned(),
        }
    }

    /// Drain an operator to completion (pivoting its batches like the
    /// engine's output collection does).
    pub fn drain(&self, mut op: BoxedOp) -> Result<Batch> {
        let ctx = self.ctx();
        let mut out = Batch::empty(op.schema());
        while let Some(b) = op.next(&ctx)? {
            out.extend(crate::ops::into_rows(&ctx, b))?;
        }
        Ok(out)
    }
}

/// A static in-memory source for testing downstream operators: test rows
/// pivoted once into columnar batches, which it emits in order — so tests
/// drive the operators with arbitrary (including NULL-bearing and `Mixed`)
/// data.
pub struct ValuesOp {
    schema: Arc<Schema>,
    batches: Vec<ColumnarBatch>,
}

impl ValuesOp {
    /// One batch holding `rows`.
    pub fn new(schema: Arc<Schema>, rows: Vec<Row>) -> ValuesOp {
        ValuesOp::batches(schema, vec![(rows, None)])
    }

    /// Like [`ValuesOp::new`], with only the physical rows at `sel` visible
    /// (in that order) — a batch as a filter would have left it.
    pub fn with_selection(schema: Arc<Schema>, rows: Vec<Row>, sel: Vec<u32>) -> ValuesOp {
        ValuesOp::batches(schema, vec![(rows, Some(sel))])
    }

    /// One batch per `(rows, selection)` element, emitted in that order; a
    /// `None` selection leaves every row visible.
    pub fn batches(schema: Arc<Schema>, batches: Vec<(Vec<Row>, Option<Vec<u32>>)>) -> ValuesOp {
        let pivot = |(rows, sel): (Vec<Row>, Option<Vec<u32>>)| {
            let cb = ColumnarBatch::from_batch(&Batch::new(Arc::clone(&schema), rows));
            match sel {
                Some(sel) => cb.with_selection(sel),
                None => cb,
            }
        };
        ValuesOp {
            batches: batches.into_iter().rev().map(pivot).collect(),
            schema: Arc::clone(&schema),
        }
    }
}

impl Operator for ValuesOp {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn next(&mut self, _ctx: &ExecCtx<'_>) -> Result<Option<ColumnarBatch>> {
        Ok(self.batches.pop())
    }
}
