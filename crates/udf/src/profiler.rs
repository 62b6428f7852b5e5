//! Invocation statistics (Table 3) and hit accounting (Table 2).
//!
//! The execution engine reports every UDF invocation here: whether it was
//! *evaluated* (the model ran) or *reused* (satisfied from a materialized
//! view / cache). Distinct-input counts use the view-key identity.

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use eva_common::hash::KeyBuildHasher;
use eva_storage::ViewKey;

/// UDFs cheaper than this per call are excluded from hit-percentage and
/// Eq. 7 accounting, mirroring the paper's Tables 2–3 which only count the
/// expensive UDFs (FasterRCNN, CarType, ColorDet) and not AREA.
pub const HIT_COST_THRESHOLD_MS: f64 = 1.0;

/// Per-UDF counters.
#[derive(Debug, Default, Clone)]
pub struct UdfCounters {
    /// Total invocations (`#TI`): evaluated + reused.
    pub total_invocations: u64,
    /// Invocations satisfied from materialized results.
    pub reused_invocations: u64,
    /// Distinct inputs seen (`#DI`).
    pub distinct_inputs: u64,
    /// Simulated milliseconds spent actually evaluating.
    pub eval_ms: f64,
    /// Profiled per-call cost (max observed), used to exclude cheap UDFs
    /// from aggregate metrics.
    pub per_call_ms: f64,
}

impl UdfCounters {
    /// Does this UDF count toward hit-percentage / Eq. 7 metrics?
    pub fn countable(&self) -> bool {
        self.per_call_ms >= HIT_COST_THRESHOLD_MS
    }
}

/// Everything tracked for one UDF, under one map entry.
#[derive(Default)]
struct UdfEntry {
    counters: UdfCounters,
    distinct: HashSet<ViewKey, KeyBuildHasher>,
}

/// Thread-safe invocation statistics registry. Cheap to clone.
#[derive(Clone, Default)]
pub struct InvocationStats {
    inner: Arc<Mutex<BTreeMap<String, UdfEntry>>>,
}

impl std::fmt::Debug for InvocationStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvocationStats")
            .field("counters", &self.all())
            .finish()
    }
}

impl InvocationStats {
    /// Fresh registry.
    pub fn new() -> InvocationStats {
        InvocationStats::default()
    }

    /// Record one batch of invocations of `udf`, one per key: `reused`
    /// batches were satisfied from materialized results (`cost_ms` is what
    /// evaluation *would* have paid), the others ran the model. Locks once
    /// per batch and allocates only on a UDF's first appearance; an empty
    /// batch registers nothing.
    pub fn record_batch(
        &self,
        udf: &str,
        keys: impl IntoIterator<Item = ViewKey>,
        cost_ms: f64,
        reused: bool,
    ) {
        let mut keys = keys.into_iter().peekable();
        if keys.peek().is_none() {
            return;
        }
        let mut inner = self.inner.lock();
        if !inner.contains_key(udf) {
            inner.insert(udf.to_string(), UdfEntry::default());
        }
        let UdfEntry { counters, distinct } = inner.get_mut(udf).expect("just inserted");
        for key in keys {
            counters.total_invocations += 1;
            if reused {
                counters.reused_invocations += 1;
            } else {
                // Summed call by call, so the total is bit-identical to
                // per-invocation recording for any cost.
                counters.eval_ms += cost_ms;
            }
            counters.per_call_ms = counters.per_call_ms.max(cost_ms);
            if distinct.insert(key) {
                counters.distinct_inputs += 1;
            }
        }
    }

    /// Counters for one UDF.
    pub fn get(&self, udf: &str) -> UdfCounters {
        self.inner
            .lock()
            .get(udf)
            .map(|e| e.counters.clone())
            .unwrap_or_default()
    }

    /// Snapshot of all counters.
    pub fn all(&self) -> BTreeMap<String, UdfCounters> {
        let inner = self.inner.lock();
        inner
            .iter()
            .map(|(udf, e)| (udf.clone(), e.counters.clone()))
            .collect()
    }

    /// Aggregate hit percentage across the *expensive* UDFs — Table 2's
    /// metric: `reused / total × 100` (cheap UDFs like AREA excluded, as in
    /// the paper's tables).
    pub fn hit_percentage(&self) -> f64 {
        let inner = self.inner.lock();
        let countable = inner
            .values()
            .map(|e| &e.counters)
            .filter(|c| c.countable());
        let (total, reused) = countable.fold((0u64, 0u64), |(t, r), c| {
            (t + c.total_invocations, r + c.reused_invocations)
        });
        if total == 0 {
            0.0
        } else {
            reused as f64 / total as f64 * 100.0
        }
    }

    /// The reuse upper bound of Eq. 7's denominator: simulated cost if only
    /// distinct invocations were evaluated (Σ distinct × per-call cost must
    /// be supplied by the caller from the catalog).
    pub fn totals(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        let countable: Vec<&UdfCounters> = inner
            .values()
            .map(|e| &e.counters)
            .filter(|c| c.countable())
            .collect();
        let total: u64 = countable.iter().map(|c| c.total_invocations).sum();
        let distinct: u64 = countable.iter().map(|c| c.distinct_inputs).sum();
        (total, distinct)
    }

    /// Reset all counters (clean workload state).
    pub fn reset(&self) {
        self.inner.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_common::FrameId;

    fn key(i: u64) -> ViewKey {
        ViewKey::frame(FrameId(i))
    }

    #[test]
    fn counts_distinct_and_total() {
        let s = InvocationStats::new();
        s.record_batch("det", [key(0), key(1)], 99.0, false);
        s.record_batch("det", [key(0)], 99.0, true);
        let c = s.get("det");
        assert_eq!(c.total_invocations, 3);
        assert_eq!(c.distinct_inputs, 2);
        assert_eq!(c.reused_invocations, 1);
        assert_eq!(c.eval_ms, 198.0);
    }

    #[test]
    fn hit_percentage_over_all_udfs() {
        let s = InvocationStats::new();
        s.record_batch("a", [key(0)], 1.0, false);
        s.record_batch("a", [key(0)], 1.0, true);
        s.record_batch("b", [key(0)], 1.0, true);
        s.record_batch("b", [key(0)], 1.0, false);
        assert!((s.hit_percentage() - 50.0).abs() < 1e-9);
        let (total, distinct) = s.totals();
        assert_eq!(total, 4);
        assert_eq!(distinct, 2);
    }

    /// N single-key calls and one batch of the same N keys are the same
    /// recording — counters, distinct sets and the float `eval_ms` sum
    /// (a cost that is not exactly representable would expose `n * cost`).
    #[test]
    fn single_calls_equal_one_batch() {
        let keys: Vec<ViewKey> = (0..50).map(|i| key(i % 17)).collect();
        let (single, batched) = (InvocationStats::new(), InvocationStats::new());
        for (udf, cost, reused) in [("det", 0.1, false), ("det", 0.1, true), ("ct", 6.3, false)] {
            for &k in &keys {
                single.record_batch(udf, [k], cost, reused);
            }
            batched.record_batch(udf, keys.iter().copied(), cost, reused);
        }
        for udf in ["det", "ct"] {
            let (a, b) = (single.get(udf), batched.get(udf));
            assert_eq!(a.total_invocations, b.total_invocations);
            assert_eq!(a.reused_invocations, b.reused_invocations);
            assert_eq!(a.distinct_inputs, b.distinct_inputs);
            assert_eq!(a.eval_ms.to_bits(), b.eval_ms.to_bits());
            assert_eq!(a.per_call_ms.to_bits(), b.per_call_ms.to_bits());
        }
        assert_eq!(single.get("det").distinct_inputs, 17);
        assert_eq!(single.hit_percentage(), batched.hit_percentage());
        assert_eq!(single.totals(), batched.totals());
        // An empty batch registers nothing, not even a zeroed entry.
        batched.record_batch("idle", [], 99.0, true);
        assert_eq!(batched.all().len(), single.all().len());
    }

    #[test]
    fn empty_and_reset() {
        let s = InvocationStats::new();
        assert_eq!(s.hit_percentage(), 0.0);
        s.record_batch("a", [key(0)], 1.0, false);
        s.reset();
        assert_eq!(s.get("a").total_invocations, 0);
        assert!(s.all().is_empty());
    }
}
