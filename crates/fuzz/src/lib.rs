//! # eva-fuzz
//!
//! A differential fuzzing harness for EVA-RS. The pieces, in pipeline
//! order:
//!
//! * [`gen`] — seeded generation of [`FuzzCase`](gen::FuzzCase) sessions:
//!   schema-aware EVA-QL SELECTs (UDF predicates, AND/OR/NOT, aggregates,
//!   ORDER BY/LIMIT) interleaved with view resets, save/load cycles and
//!   failpoint plans.
//! * [`session`] — deterministic replay of a case, collecting per-SELECT
//!   rows, simulated cost, metrics and operator stats.
//! * [`oracles`] — the three equivalence checks: warm-vs-cold reuse,
//!   crash-at-every-write recovery, and governed replay (deadline/budget/
//!   admission cancellations must be structured and leave no trace).
//! * [`shrink`] — greedy delta-debugging of a failing case to a minimal
//!   repro that still fails the same way.
//! * [`corpus`] — self-contained JSON repro files under `tests/corpus/`,
//!   replayed by `tests/fuzz_corpus.rs` on every `cargo test`.
//!
//! Every draw comes from `eva_common`'s fully specified [`SplitMix64`], so
//! equal seeds produce byte-identical runs on every platform.
//!
//! The `eva-fuzz` binary drives the whole loop; see `--help` (or the
//! README's "Differential fuzzing" section) for the CLI and the
//! `EVA_FUZZ_SEED` / `EVA_FUZZ_CASES` environment knobs.

pub mod corpus;
pub mod gen;
pub mod oracles;
pub mod session;
pub mod shrink;

pub use corpus::{corpus_dir, load_corpus_dir, write_corpus_file, CorpusFile, CORPUS_VERSION};
pub use eva_common::rng::SplitMix64;
pub use gen::{generate_case, sabotage_case, FuzzCase, FuzzStmt, Sabotage};
pub use oracles::{check_case, CaseReport, FailKind, Failure, OracleId};
pub use session::{replay, ReplayOutcome, SelectObs};
pub use shrink::{shrink_case, ShrinkResult};
