//! The simulated-UDF runtime interface. A model writes its output where the
//! executor reads it: one [`ColumnBuilder`] per output field, lent by the
//! caller for a whole batch of invocations ([`SimUdf::eval_into`]); row form
//! exists only as [`SimUdf::eval`], derived from it for tests and tools.

use std::sync::Arc;

use eva_common::{BBox, ColumnBuilder, FrameId, Result, Row, Schema};
use eva_storage::ViewKeyKind;
use eva_video::VideoDataset;

/// Evaluation context for one UDF invocation: which frame (and, for
/// box-level UDFs, which box) of which dataset.
#[derive(Debug, Clone, Copy)]
pub struct UdfEvalContext<'a> {
    /// Ground-truth source.
    pub dataset: &'a VideoDataset,
    /// The frame being processed.
    pub frame: FrameId,
    /// The bounding box (box-level UDFs only).
    pub bbox: Option<BBox>,
}

/// A simulated model. Implementations must be **pure**: the output depends
/// only on `(impl_id, frame, bbox)`, never on invocation order or history —
/// the property that makes materialized-result reuse exact.
pub trait SimUdf: Send + Sync {
    /// Implementation identifier matching `UdfDef::impl_id`.
    fn impl_id(&self) -> &str;

    /// Simulated per-tuple cost in milliseconds (charged by the executor).
    fn cost_ms(&self) -> f64;

    /// Whether inference runs on the GPU (reporting only).
    fn gpu(&self) -> bool {
        true
    }

    /// Output schema of one invocation's rows.
    fn output_schema(&self) -> Arc<Schema>;

    /// Materialized-view key granularity.
    fn key_kind(&self) -> ViewKeyKind;

    /// Evaluate on one input tuple, appending the output rows to `out` —
    /// one builder per field of [`SimUdf::output_schema`], in schema order —
    /// and returning how many rows this input produced (a detector: one per
    /// detected object, possibly none; a box-level UDF: exactly one). Every
    /// builder grows by exactly the returned count, or the call errors
    /// having appended to none: the caller keeps one builder set across a
    /// batch of inputs and slices it by the counts.
    fn eval_into(&self, ctx: &UdfEvalContext<'_>, out: &mut [ColumnBuilder]) -> Result<u32>;

    /// The rows of one invocation, read back out of fresh builders.
    fn eval(&self, ctx: &UdfEvalContext<'_>) -> Result<Vec<Row>> {
        let width = self.output_schema().len();
        let mut out: Vec<_> = std::iter::repeat_with(ColumnBuilder::new)
            .take(width)
            .collect();
        self.eval_into(ctx, &mut out)?;
        let columns: Vec<_> = out.into_iter().map(ColumnBuilder::finish).collect();
        Ok(eva_common::testutil::rows_of(&columns))
    }
}

/// Deterministic per-invocation randomness: a SplitMix64 stream keyed by
/// (salt, frame, extra). Every simulated model draws its misses and noise
/// from this, guaranteeing order-independence.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Create a stream for `(salt, frame, extra)`.
    pub fn new(salt: u64, frame: FrameId, extra: u64) -> DetRng {
        let mut s = salt ^ 0x6A09_E667_F3BC_C908;
        s = s
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(frame.raw().wrapping_mul(0xBF58476D1CE4E5B9));
        s = s.wrapping_add(extra.wrapping_mul(0x94D049BB133111EB));
        DetRng { state: s }
    }

    /// Next u64.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_signed(&mut self) -> f64 {
        self.next_f64() * 2.0 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_rng_is_deterministic() {
        let mut a = DetRng::new(1, FrameId(5), 2);
        let mut b = DetRng::new(1, FrameId(5), 2);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn det_rng_distinguishes_inputs() {
        let a = DetRng::new(1, FrameId(5), 2).next_u64();
        assert_ne!(DetRng::new(2, FrameId(5), 2).next_u64(), a);
        assert_ne!(DetRng::new(1, FrameId(6), 2).next_u64(), a);
        assert_ne!(DetRng::new(1, FrameId(5), 3).next_u64(), a);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = DetRng::new(9, FrameId(0), 0);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean={mean}");
    }
}
