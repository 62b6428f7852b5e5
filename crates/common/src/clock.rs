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
//!
//! ## The ledger is integer nanoseconds
//!
//! Every charge is a whole number of nanoseconds (`u64`, ≈ 584 years of
//! headroom), so sums are associative: the ledger is the same whatever order
//! the charges arrive in, and a batch of `n` invocations is one
//! [`SimClock::charge_n`]. Only simulated work is charged — never wall time.
//!
//! **Rounding rule.** A cost configured in milliseconds becomes nanoseconds
//! once, where it is configured, through [`ns_from_ms`]: rounded to the
//! nearest nanosecond. Of the default costs only a per-byte rate (FunCache's
//! hashing, `IoCostModel::hash_cost_ns`) is not a whole number of
//! nanoseconds; such a rate is rounded to the nearest nanosecond per charge,
//! after multiplying by the charge's size. Milliseconds and seconds appear
//! only when the ledger is read for reporting ([`CostBreakdown::get`],
//! [`CostBreakdown::total_ms`], `Display`, [`CostBreakdown::to_json`]).

use std::cell::RefCell;
use std::fmt;

use crate::json::Json;

/// Nanoseconds in one simulated millisecond.
pub const NS_PER_MS: u64 = 1_000_000;

/// A cost configured in milliseconds as whole nanoseconds, rounded to the
/// nearest (the module's one rounding rule). Negative costs clamp to zero.
pub fn ns_from_ms(ms: f64) -> u64 {
    (ms * NS_PER_MS as f64).round().max(0.0) as u64
}

/// Nanoseconds as milliseconds, for reporting.
pub fn ms_from_ns(ns: u64) -> f64 {
    ns as f64 / NS_PER_MS as f64
}

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
    /// Query optimization. Never charged: planning is real work, not
    /// simulated work, and is reported as wall time beside the ledger. The
    /// variant stays until the benchmark harness stops naming it.
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

    fn index(self) -> usize {
        self as usize
    }
}

/// Immutable snapshot of accumulated simulated cost, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostBreakdown {
    ns: [u64; 8],
}

impl CostBreakdown {
    /// Milliseconds charged to one category.
    pub fn get(&self, cat: CostCategory) -> f64 {
        ms_from_ns(self.get_ns(cat))
    }

    /// Nanoseconds charged to one category.
    pub fn get_ns(&self, cat: CostCategory) -> u64 {
        self.ns[cat.index()]
    }

    /// Milliseconds per category, keyed by [`CostCategory::label`].
    pub fn to_json(&self) -> Json {
        Json::obj(CostCategory::ALL.map(|c| (c.label(), Json::Num(self.get(c)))))
    }

    /// Total simulated nanoseconds across all categories.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Total simulated milliseconds across all categories.
    pub fn total_ms(&self) -> f64 {
        ms_from_ns(self.total_ns())
    }

    /// Total simulated seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_ns() as f64 / 1e9
    }

    /// Component-wise difference (`self - earlier`); used to attribute cost
    /// to a single query by snapshotting before and after.
    pub fn since(&self, earlier: &CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            ns: std::array::from_fn(|i| self.ns[i] - earlier.ns[i]),
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            ns: std::array::from_fn(|i| self.ns[i] + other.ns[i]),
        }
    }
}

impl fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for cat in CostCategory::ALL {
            if self.get_ns(cat) > 0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{}={:.1}ms", cat.label(), self.get(cat))?;
                first = false;
            }
        }
        if first {
            write!(f, "0ms")?;
        }
        Ok(())
    }
}

/// A virtual clock accumulating simulated nanoseconds by category.
///
/// Interior-mutable (`RefCell`) because it is threaded through pull-based
/// operator trees that hold shared references. Not `Sync` — each session owns
/// its clock and every charge is made on the caller thread.
#[derive(Debug, Default)]
pub struct SimClock {
    inner: RefCell<CostBreakdown>,
}

impl SimClock {
    /// Fresh clock at zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Charge `ns` simulated nanoseconds to `cat`.
    pub fn charge(&self, cat: CostCategory, ns: u64) {
        self.inner.borrow_mut().ns[cat.index()] += ns;
    }

    /// Charge `n` units of work costing `unit_ns` each to `cat` — one charge
    /// for a whole batch of invocations, rows or frames.
    pub fn charge_n(&self, cat: CostCategory, n: u64, unit_ns: u64) {
        self.charge(cat, n * unit_ns);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    #[test]
    fn charges_accumulate_per_category() {
        let c = SimClock::new();
        c.charge(CostCategory::Udf, 99 * NS_PER_MS);
        c.charge(CostCategory::Udf, NS_PER_MS);
        c.charge_n(CostCategory::ReadView, 100, 50_000);
        let s = c.snapshot();
        assert_eq!(s.get(CostCategory::Udf), 100.0);
        assert_eq!(s.get(CostCategory::ReadView), 5.0);
        assert_eq!(s.total_ms(), 105.0);
        assert_eq!(s.total_ns(), 105 * NS_PER_MS);
    }

    #[test]
    fn since_attributes_deltas() {
        let c = SimClock::new();
        c.charge(CostCategory::Udf, 10 * NS_PER_MS);
        let before = c.snapshot();
        c.charge(CostCategory::Udf, 7 * NS_PER_MS);
        c.charge(CostCategory::Other, 3 * NS_PER_MS);
        let delta = c.snapshot().since(&before);
        assert_eq!(delta.get(CostCategory::Udf), 7.0);
        assert_eq!(delta.get(CostCategory::Other), 3.0);
        assert_eq!(delta.total_ms(), 10.0);
        assert_eq!(before.plus(&delta), c.snapshot());
    }

    #[test]
    fn reset_zeroes() {
        let c = SimClock::new();
        c.charge(CostCategory::Apply, 4 * NS_PER_MS);
        c.reset();
        assert_eq!(c.total_ms(), 0.0);
    }

    #[test]
    fn display_skips_zero_categories() {
        let c = SimClock::new();
        c.charge(CostCategory::Udf, ns_from_ms(2.5));
        let s = format!("{}", c.snapshot());
        assert!(s.contains("udf=2.5ms"));
        assert!(!s.contains("read_view"));
    }

    #[test]
    fn seconds_conversion() {
        let c = SimClock::new();
        c.charge(CostCategory::Udf, 1500 * NS_PER_MS);
        assert_eq!(c.snapshot().total_secs(), 1.5);
    }

    #[test]
    fn ms_convert_to_the_nearest_ns() {
        assert_eq!(ns_from_ms(1.8), 1_800_000);
        assert_eq!(ns_from_ms(0.05), 50_000);
        assert_eq!(ns_from_ms(0.001), 1_000);
        assert_eq!(ns_from_ms(1e-7), 0);
        assert_eq!(ns_from_ms(6e-7), 1);
        assert_eq!(ns_from_ms(-3.0), 0);
        assert_eq!(ms_from_ns(ns_from_ms(99.0)), 99.0);
    }

    /// The ledger is order-free: the same random charges, replayed in two
    /// random permutations (and once as per-category batches), give
    /// identical snapshots.
    #[test]
    fn any_charge_order_gives_the_same_ledger() {
        let mut rng = SmallRng::seed_from_u64(15);
        for _ in 0..64 {
            let n = rng.gen_range(1..200usize);
            let charges: Vec<(CostCategory, u64)> = (0..n)
                .map(|_| {
                    let cat = *rng.pick(&CostCategory::ALL);
                    (cat, ns_from_ms(rng.gen_f64() * 120.0))
                })
                .collect();
            let replay = |order: &[(CostCategory, u64)]| {
                let c = SimClock::new();
                // A non-round starting balance, as mid-session.
                c.charge(CostCategory::Other, 1_234_567);
                order.iter().for_each(|&(cat, ns)| c.charge(cat, ns));
                c.snapshot()
            };
            let (mut a, mut b) = (charges.clone(), charges.clone());
            rng.shuffle(&mut a);
            rng.shuffle(&mut b);
            assert_eq!(replay(&a), replay(&b));
            assert_eq!(replay(&a), replay(&charges));
            assert_eq!(replay(&a).total_ms(), replay(&b).total_ms());
        }
    }
}
