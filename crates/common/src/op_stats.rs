//! Per-operator runtime statistics for `EXPLAIN ANALYZE`.

use crate::clock::CostBreakdown;

/// Per-operator runtime statistics collected during one query execution,
/// keyed by the plan node's [`OpId`](crate::ids::OpId). Rendered by
/// `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpStats {
    /// Rows emitted by this operator.
    pub rows_out: u64,
    /// Batches emitted by this operator.
    pub batches: u64,
    /// Cumulative simulated cost of this operator's *subtree* (self cost is
    /// derived at render time: `cum - Σ children.cum`).
    pub cum: CostBreakdown,
    /// Probe keys this operator looked up (APPLY only).
    pub probes: u64,
    /// Probe keys resolved from materialized state (APPLY only).
    pub probe_hits: u64,
    /// Hits resolved via the fuzzy (IoU) fallback (APPLY only).
    pub fuzzy_hits: u64,
    /// UDF invocations this operator executed (APPLY only).
    pub udf_executed: u64,
    /// UDF invocations this operator avoided (APPLY only).
    pub udf_avoided: u64,
}

impl OpStats {
    /// Fold `other` into `self` (used when one operator reports in several
    /// increments over its lifetime).
    pub fn absorb(&mut self, other: &OpStats) {
        self.rows_out += other.rows_out;
        self.batches += other.batches;
        self.cum = self.cum.plus(&other.cum);
        self.probes += other.probes;
        self.probe_hits += other.probe_hits;
        self.fuzzy_hits += other.fuzzy_hits;
        self.udf_executed += other.udf_executed;
        self.udf_avoided += other.udf_avoided;
    }

    /// Fraction of probes that hit, in `[0, 1]`; 0 when nothing was probed.
    pub fn probe_hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.probe_hits as f64 / self.probes as f64
        }
    }
}
