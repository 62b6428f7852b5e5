//! Execution configuration.

/// Tunables of the execution engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// Rows per batch pulled through the operator tree (the paper batches
    /// GPU inference at 20 and materialization at 200 MiB; costs here are
    /// per-tuple, so the batch size only affects bookkeeping granularity).
    pub batch_size: usize,
    /// Simulated per-input-row overhead of the APPLY machinery (argument
    /// marshalling, join bookkeeping) — the "Apply" series of Fig. 6b.
    pub apply_overhead_ms: f64,
    /// Fuzzy bbox reuse for box-level UDF views (the paper's §6 future
    /// work): on an exact-key miss, accept the stored result of the
    /// highest-IoU box on the same frame when IoU ≥ this threshold.
    /// `None` (the default) keeps reuse exact.
    pub fuzzy_box_iou: Option<f32>,
    /// How many times a transient UDF failure (a flaky model server) is
    /// retried before the query gives up with an error. `0` fails on the
    /// first transient error.
    pub udf_retry_budget: u32,
    /// Simulated backoff before retry k (1-based): `backoff_ms · 2^(k−1)`.
    /// Charged to the `Apply` cost category per input key, before the batch
    /// is evaluated, so the charge never depends on evaluation order.
    pub udf_retry_backoff_ms: f64,
    /// Frames per morsel for morsel-driven parallel scans. Equal to
    /// `batch_size` by default so an engaged parallel pipeline emits
    /// batches on exactly the serial cadence (same batch boundaries, same
    /// `columnar_batches` counts). Changing it is equivalent, counter-wise,
    /// to running serial with `batch_size = morsel_rows`.
    pub morsel_rows: usize,
    /// Run a UDF-free scan pipeline morsel-parallel only when its scan
    /// range holds at least this many frames (wall-clock speedup only; the
    /// accounting replay keeps simulated cost and deterministic counters
    /// bit-identical to serial). `0` disables parallel pipelines. The
    /// default keeps small interactive queries — and the plan goldens —
    /// on the serial path.
    pub parallel_scan_min_rows: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            batch_size: 1024,
            apply_overhead_ms: 0.05,
            fuzzy_box_iou: None,
            udf_retry_budget: 2,
            udf_retry_backoff_ms: 5.0,
            morsel_rows: 1024,
            parallel_scan_min_rows: 4096,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ExecConfig::default();
        assert!(c.batch_size > 0);
        assert!(c.apply_overhead_ms >= 0.0);
        // Default morsel size matches the batch size so engaged parallel
        // pipelines keep the serial batch cadence (counter identity).
        assert_eq!(c.morsel_rows, c.batch_size);
        assert!(c.parallel_scan_min_rows > 0);
    }
}
