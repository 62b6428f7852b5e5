//! # eva-udf
//!
//! The UDF framework of EVA-RS: the simulated deep-learning **model zoo**,
//! UDF **signatures**, the invocation **profiler/statistics**, and the
//! **UdfManager** that tracks aggregated predicates and materialized views
//! per signature (paper §3.1 steps ①–②, §4.1).
//!
//! ## The simulation substitution
//!
//! The paper wraps PyTorch CNNs; here every model is a [`SimUdf`] that reads
//! ground truth from the synthetic dataset, perturbs it according to the
//! model's accuracy tier (misses, label flips and bbox noise derived from the
//! paper's boxAP numbers), and reports a per-tuple cost drawn from Table 3 /
//! Table 5 (99 ms for FasterRCNN-ResNet50, 9 ms for YOLO-tiny, …). The
//! execution engine charges that cost to the virtual clock. Detector output
//! is a *pure deterministic function of (model, frame)* — independent of
//! invocation order — which is what makes result reuse exact.

pub mod manager;
pub mod profiler;
pub mod registry;
pub mod runtime;
pub mod signature;
pub mod zoo;

pub use manager::{UdfManager, MANAGER_FILE};
pub use profiler::InvocationStats;
pub use registry::UdfRegistry;
pub use runtime::{SimUdf, UdfEvalContext};
pub use signature::UdfSignature;
