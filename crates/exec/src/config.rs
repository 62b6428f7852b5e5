//! Execution configuration.

/// Tunables of the execution engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// Rows per batch pulled through the operator tree (the paper batches
    /// GPU inference at 20 and materialization at 200 MiB; costs here are
    /// per-tuple, so the batch size only affects bookkeeping granularity).
    pub batch_size: usize,
    /// Simulated per-input-row overhead of the APPLY machinery (argument
    /// marshalling, join bookkeeping), in nanoseconds — the "Apply" series
    /// of Fig. 6b.
    pub apply_overhead_ns: u64,
    /// Fuzzy bbox reuse for box-level UDF views (the paper's §6 future
    /// work): on an exact-key miss, accept the stored result of the
    /// highest-IoU box on the same frame when IoU ≥ this threshold.
    /// `None` (the default) keeps reuse exact.
    pub fuzzy_box_iou: Option<f32>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            batch_size: 1024,
            apply_overhead_ns: 50_000,
            fuzzy_box_iou: None,
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
        assert!(c.apply_overhead_ns > 0);
    }
}
