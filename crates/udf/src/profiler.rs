//! Invocation statistics (Table 3) and hit accounting (Table 2).
//!
//! The execution engine reports every UDF invocation here: whether it was
//! *evaluated* (the model ran) or *reused* (satisfied from a materialized
//! view / cache). Distinct-input counts use the view-key identity.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use eva_common::clock::NS_PER_MS;
use eva_common::hash::KeyBuildHasher;
use eva_common::sync::Mutex;
use eva_storage::ViewKey;

/// UDFs cheaper than this per call (1 ms) are excluded from hit-percentage
/// and Eq. 7 accounting, mirroring the paper's Tables 2–3 which only count
/// the expensive UDFs (FasterRCNN, CarType, ColorDet) and not AREA.
pub const HIT_COST_THRESHOLD_NS: u64 = NS_PER_MS;

/// Per-UDF counters.
#[derive(Debug, Default, Clone)]
pub struct UdfCounters {
    /// Total invocations (`#TI`): evaluated + reused.
    pub total_invocations: u64,
    /// Invocations satisfied from materialized results.
    pub reused_invocations: u64,
    /// Distinct inputs seen (`#DI`).
    pub distinct_inputs: u64,
    /// Simulated nanoseconds spent actually evaluating.
    pub eval_ns: u64,
    /// Profiled per-call cost in nanoseconds (max observed), used to
    /// exclude cheap UDFs from aggregate metrics.
    pub per_call_ns: u64,
}

impl UdfCounters {
    /// Does this UDF count toward hit-percentage / Eq. 7 metrics?
    pub fn countable(&self) -> bool {
        self.per_call_ns >= HIT_COST_THRESHOLD_NS
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
    /// batches were satisfied from materialized results (`cost_ns` is what
    /// evaluation *would* have paid), the others ran the model. Locks once
    /// per batch and allocates only on a UDF's first appearance; an empty
    /// batch registers nothing.
    pub fn record_batch(
        &self,
        udf: &str,
        keys: impl IntoIterator<Item = ViewKey>,
        cost_ns: u64,
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
        let mut n = 0u64;
        for key in keys {
            n += 1;
            if distinct.insert(key) {
                counters.distinct_inputs += 1;
            }
        }
        counters.total_invocations += n;
        if reused {
            counters.reused_invocations += n;
        } else {
            counters.eval_ns += n * cost_ns;
        }
        counters.per_call_ns = counters.per_call_ns.max(cost_ns);
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

    const MS: u64 = NS_PER_MS;

    fn key(i: u64) -> ViewKey {
        ViewKey::frame(FrameId(i))
    }

    #[test]
    fn counts_distinct_and_total() {
        let s = InvocationStats::new();
        s.record_batch("det", [key(0), key(1)], 99 * MS, false);
        s.record_batch("det", [key(0)], 99 * MS, true);
        let c = s.get("det");
        assert_eq!(c.total_invocations, 3);
        assert_eq!(c.distinct_inputs, 2);
        assert_eq!(c.reused_invocations, 1);
        assert_eq!(c.eval_ns, 198 * MS);
    }

    #[test]
    fn hit_percentage_over_all_udfs() {
        let s = InvocationStats::new();
        s.record_batch("a", [key(0)], MS, false);
        s.record_batch("a", [key(0)], MS, true);
        s.record_batch("b", [key(0)], MS, true);
        s.record_batch("b", [key(0)], MS, false);
        assert!((s.hit_percentage() - 50.0).abs() < 1e-9);
        let (total, distinct) = s.totals();
        assert_eq!(total, 4);
        assert_eq!(distinct, 2);
    }

    /// N single-key calls and one batch of the same N keys are the same
    /// recording — counters, distinct sets and the `eval_ns` total.
    #[test]
    fn single_calls_equal_one_batch() {
        let keys: Vec<ViewKey> = (0..50).map(|i| key(i % 17)).collect();
        let (single, batched) = (InvocationStats::new(), InvocationStats::new());
        for (udf, cost, reused) in [
            ("det", 100_000, false),
            ("det", 100_000, true),
            ("ct", 6_300_000, false),
        ] {
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
            assert_eq!(a.eval_ns, b.eval_ns);
            assert_eq!(a.per_call_ns, b.per_call_ns);
        }
        assert_eq!(single.get("det").distinct_inputs, 17);
        assert_eq!(single.hit_percentage(), batched.hit_percentage());
        assert_eq!(single.totals(), batched.totals());
        // An empty batch registers nothing, not even a zeroed entry.
        batched.record_batch("idle", [], 99 * MS, true);
        assert_eq!(batched.all().len(), single.all().len());
    }

    #[test]
    fn empty_and_reset() {
        let s = InvocationStats::new();
        assert_eq!(s.hit_percentage(), 0.0);
        s.record_batch("a", [key(0)], MS, false);
        s.reset();
        assert_eq!(s.get("a").total_invocations, 0);
        assert!(s.all().is_empty());
    }
}
