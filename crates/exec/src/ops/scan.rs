//! Frame-range scan.

use std::sync::Arc;

use eva_common::{ColumnarBatch, Result, Schema};

use crate::context::ExecCtx;
use crate::ops::Operator;

/// Scans `[from, to)` of a dataset in batches, charging frame-read IO.
///
/// Frames are produced directly in columnar form — three contiguous `i64`
/// arrays (id, timestamp, frame-ref) — so the UDF-free pipeline above never
/// materializes per-row `Vec<Value>` tuples.
pub struct ScanFramesOp {
    dataset: String,
    cursor: u64,
    end: u64,
    schema: Arc<Schema>,
}

impl ScanFramesOp {
    /// New scan over the range.
    pub fn new(dataset: String, range: (u64, u64), schema: Arc<Schema>) -> ScanFramesOp {
        ScanFramesOp {
            dataset,
            cursor: range.0,
            end: range.1,
            schema,
        }
    }
}

impl Operator for ScanFramesOp {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ColumnarBatch>> {
        if self.cursor >= self.end {
            return Ok(None);
        }
        let to = (self.cursor + ctx.config.batch_size as u64).min(self.end);
        let batch = ctx
            .storage
            .scan_frames_columnar(&self.dataset, self.cursor, to, ctx.clock)?;
        self.cursor = to;
        Ok(Some(batch))
    }
}
