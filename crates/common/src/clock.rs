//! The virtual clock.
//!
//! The paper's evaluation is dominated by GPU inference time (e.g. 99 ms per
//! tuple for FasterRCNN-ResNet50, Table 3). We have no GPU and no CNNs, so
//! the execution engine charges each simulated UDF invocation / IO operation
//! its profiled cost on a [`SimClock`]. Experiments report simulated time,
//! which reproduces the paper's *ratios* exactly and deterministically while
//! running orders of magnitude faster than real inference.
//!
//! Costs are tracked per [`CostCategory`] so the time-breakdown experiments
//! (Fig. 6, Table 4) can be regenerated.

use std::cell::RefCell;
use std::fmt;

use crate::json::Json;

/// Categories used by the paper's time-breakdown figures (Fig. 6b, Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostCategory {
    /// Running a (simulated) deep-learning UDF.
    Udf,
    /// Reading video frames from the storage engine.
    ReadVideo,
    /// Reading a materialized view (includes the `3·C_M` join IO of Eq. 3).
    ReadView,
    /// Appending UDF results to a materialized view (the STORE operator).
    Materialize,
    /// Query optimization (symbolic analysis, rewrite, ranking).
    Optimize,
    /// The APPLY / conditional-APPLY operator machinery itself.
    Apply,
    /// Hashing input arguments (FunCache baseline overhead).
    HashInput,
    /// Everything else (parser, joins, crops, aggregation…).
    Other,
}

impl CostCategory {
    /// All categories, in breakdown-report order.
    pub const ALL: [CostCategory; 8] = [
        CostCategory::Udf,
        CostCategory::ReadVideo,
        CostCategory::ReadView,
        CostCategory::Materialize,
        CostCategory::Optimize,
        CostCategory::Apply,
        CostCategory::HashInput,
        CostCategory::Other,
    ];

    /// Human label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            CostCategory::Udf => "udf",
            CostCategory::ReadVideo => "read_video",
            CostCategory::ReadView => "read_view",
            CostCategory::Materialize => "materialize",
            CostCategory::Optimize => "optimize",
            CostCategory::Apply => "apply",
            CostCategory::HashInput => "hash_input",
            CostCategory::Other => "other",
        }
    }

    fn index(&self) -> usize {
        match self {
            CostCategory::Udf => 0,
            CostCategory::ReadVideo => 1,
            CostCategory::ReadView => 2,
            CostCategory::Materialize => 3,
            CostCategory::Optimize => 4,
            CostCategory::Apply => 5,
            CostCategory::HashInput => 6,
            CostCategory::Other => 7,
        }
    }
}

/// Immutable snapshot of accumulated simulated cost, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    ms: [f64; 8],
}

impl CostBreakdown {
    /// Milliseconds charged to one category.
    pub fn get(&self, cat: CostCategory) -> f64 {
        self.ms[cat.index()]
    }

    /// Milliseconds per category, keyed by [`CostCategory::label`].
    pub fn to_json(&self) -> Json {
        Json::obj(CostCategory::ALL.map(|c| (c.label(), Json::Num(self.get(c)))))
    }

    /// Total simulated milliseconds across all categories.
    pub fn total_ms(&self) -> f64 {
        self.ms.iter().sum()
    }

    /// Total simulated seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_ms() / 1000.0
    }

    /// Component-wise difference (`self - earlier`); used to attribute cost
    /// to a single query by snapshotting before and after.
    pub fn since(&self, earlier: &CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            ms: std::array::from_fn(|i| (self.ms[i] - earlier.ms[i]).max(0.0)),
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            ms: std::array::from_fn(|i| self.ms[i] + other.ms[i]),
        }
    }
}

impl fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for cat in CostCategory::ALL {
            let v = self.get(cat);
            if v > 0.0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{}={:.1}ms", cat.label(), v)?;
                first = false;
            }
        }
        if first {
            write!(f, "0ms")?;
        }
        Ok(())
    }
}

/// A virtual clock accumulating simulated milliseconds by category.
///
/// Interior-mutable (`RefCell`) because it is threaded through pull-based
/// operator trees that hold shared references. Not `Sync` — each session owns
/// its clock; cross-thread aggregation merges snapshots.
#[derive(Debug, Default)]
pub struct SimClock {
    inner: RefCell<CostBreakdown>,
}

impl SimClock {
    /// Fresh clock at zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Charge `ms` simulated milliseconds to `cat`.
    pub fn charge(&self, cat: CostCategory, ms: f64) {
        debug_assert!(ms >= 0.0, "negative cost charge");
        self.inner.borrow_mut().ms[cat.index()] += ms.max(0.0);
    }

    /// Current snapshot.
    pub fn snapshot(&self) -> CostBreakdown {
        *self.inner.borrow()
    }

    /// Total simulated milliseconds so far.
    pub fn total_ms(&self) -> f64 {
        self.inner.borrow().total_ms()
    }

    /// Reset to zero (used between workloads).
    pub fn reset(&self) {
        *self.inner.borrow_mut() = CostBreakdown::default();
    }

    /// Merge another snapshot into this clock (cross-thread aggregation).
    pub fn absorb(&self, other: &CostBreakdown) {
        let mut inner = self.inner.borrow_mut();
        *inner = inner.plus(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_category() {
        let c = SimClock::new();
        c.charge(CostCategory::Udf, 99.0);
        c.charge(CostCategory::Udf, 1.0);
        c.charge(CostCategory::ReadView, 5.0);
        let s = c.snapshot();
        assert_eq!(s.get(CostCategory::Udf), 100.0);
        assert_eq!(s.get(CostCategory::ReadView), 5.0);
        assert_eq!(s.total_ms(), 105.0);
    }

    #[test]
    fn since_attributes_deltas() {
        let c = SimClock::new();
        c.charge(CostCategory::Udf, 10.0);
        let before = c.snapshot();
        c.charge(CostCategory::Udf, 7.0);
        c.charge(CostCategory::Other, 3.0);
        let delta = c.snapshot().since(&before);
        assert_eq!(delta.get(CostCategory::Udf), 7.0);
        assert_eq!(delta.get(CostCategory::Other), 3.0);
        assert_eq!(delta.total_ms(), 10.0);
    }

    #[test]
    fn reset_zeroes() {
        let c = SimClock::new();
        c.charge(CostCategory::Apply, 4.0);
        c.reset();
        assert_eq!(c.total_ms(), 0.0);
    }

    #[test]
    fn absorb_merges() {
        let a = SimClock::new();
        a.charge(CostCategory::Udf, 1.0);
        let b = SimClock::new();
        b.charge(CostCategory::Udf, 2.0);
        b.charge(CostCategory::Optimize, 3.0);
        a.absorb(&b.snapshot());
        assert_eq!(a.snapshot().get(CostCategory::Udf), 3.0);
        assert_eq!(a.snapshot().get(CostCategory::Optimize), 3.0);
    }

    #[test]
    fn display_skips_zero_categories() {
        let c = SimClock::new();
        c.charge(CostCategory::Udf, 2.5);
        let s = format!("{}", c.snapshot());
        assert!(s.contains("udf=2.5ms"));
        assert!(!s.contains("read_view"));
    }

    #[test]
    fn seconds_conversion() {
        let c = SimClock::new();
        c.charge(CostCategory::Udf, 1500.0);
        assert!((c.snapshot().total_secs() - 1.5).abs() < 1e-9);
    }
}
