//! Simulated IO cost constants.

/// Bytes in the megabyte of [`IoCostModel::hash_ns_per_mb`].
const MB: u64 = 1024 * 1024;

/// Per-operation simulated IO costs, in nanoseconds of the virtual clock.
///
/// Defaults are derived from the paper's profiled numbers: frame reads cost
/// `c_r = 1.8 ms` per tuple (§4.2's FasterRCNN profile discussion); view rows
/// are lightweight structured metadata, far cheaper to read and write than
/// frames; the `3·C_M` hash-join factor of Eq. 3 is applied by the join
/// operator through [`IoCostModel::view_join_factor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoCostModel {
    /// Reading one frame tuple from the video table.
    pub frame_read_ns: u64,
    /// Reading one materialized-view row.
    pub view_row_read_ns: u64,
    /// Appending one row to a materialized view (batched in practice; this
    /// is the amortized per-row cost).
    pub view_row_write_ns: u64,
    /// Hash-join IO amplification on view reads (build + spill + probe ⇒ 3
    /// IOs in the worst case, per Eq. 3).
    pub view_join_factor: u64,
    /// Hashing cost charged by the FunCache baseline, per megabyte of hashed
    /// input. Raw xxHash runs at ~10 GB/s, but the paper's measured FunCache
    /// overhead (a 0.95× *slowdown* on VBENCH-LOW) implies a few ms per
    /// frame-sized argument — the hash plus argument marshalling through the
    /// UDF boundary. 2 ms/MB reproduces that.
    pub hash_ns_per_mb: u64,
    /// Fixed per-call overhead of the FunCache lookup path (argument
    /// marshalling into hashable form), independent of size.
    pub hash_fixed_ns: u64,
}

impl Default for IoCostModel {
    fn default() -> Self {
        IoCostModel {
            frame_read_ns: 1_800_000,
            view_row_read_ns: 50_000,
            view_row_write_ns: 20_000,
            view_join_factor: 3,
            hash_ns_per_mb: 2_000_000,
            hash_fixed_ns: 3_000_000,
        }
    }
}

impl IoCostModel {
    /// Cost of hashing `bytes` of UDF input (FunCache): fixed marshalling
    /// plus throughput-proportional hashing. A per-byte rate is not a whole
    /// number of nanoseconds, so the proportional part rounds to the nearest
    /// nanosecond per charge (the clock's rounding rule).
    pub fn hash_cost_ns(&self, bytes: u64) -> u64 {
        let scaled = u128::from(self.hash_ns_per_mb) * u128::from(bytes);
        let rounded = (scaled + u128::from(MB / 2)) / u128::from(MB);
        self.hash_fixed_ns + rounded as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_profile() {
        let m = IoCostModel::default();
        assert_eq!(m.frame_read_ns, 1_800_000);
        assert_eq!(m.view_join_factor, 3);
        assert!(m.view_row_read_ns < m.frame_read_ns);
    }

    #[test]
    fn hash_cost_scales_with_bytes() {
        let m = IoCostModel::default();
        assert_eq!(m.hash_cost_ns(MB), 5_000_000, "3ms fixed + 2ms/MB");
        assert_eq!(m.hash_cost_ns(2 * MB), 7_000_000);
        assert_eq!(m.hash_cost_ns(0), 3_000_000, "fixed marshalling only");
        // 2 ms/MB is 1.9073… ns a byte: a charge rounds to the nearest ns.
        assert_eq!(m.hash_cost_ns(1), 3_000_002);
        assert_eq!(m.hash_cost_ns(691_200), 3_000_000 + 1_318_359);
    }
}
