//! Tier-1 replay of the committed fuzz regression corpus.
//!
//! Every `tests/corpus/*.json` file is a self-contained [`FuzzCase`] —
//! dataset parameters plus an EVA-QL session — that is replayed through all
//! three oracles (warm-vs-cold, crash-recovery, governed-replay) on every
//! `cargo test`. Entries are
//! either shrunk repros of fixed bugs or hand-written pins of
//! known-tricky interleavings; all of them must stay green.
//!
//! Like the other repository-root tests, this target is hosted by
//! `eva-harness` (see its `Cargo.toml`).

use eva_fuzz::{
    check_case, corpus_dir, generate_case, load_corpus_dir, SplitMix64, CORPUS_VERSION,
};

#[test]
fn corpus_cases_replay_green() {
    let entries = load_corpus_dir(&corpus_dir()).expect("tests/corpus/ loads");
    assert!(
        !entries.is_empty(),
        "tests/corpus/ is empty — the regression replay is vacuous"
    );
    for (path, file) in entries {
        assert_eq!(
            file.version,
            CORPUS_VERSION,
            "{}: version mismatch",
            path.display()
        );
        if let Err(failure) = check_case(&file.case) {
            panic!(
                "corpus regression: {} ({}) now fails: {failure}",
                path.display(),
                file.note
            );
        }
    }
}

#[test]
fn fuzz_smoke_generated_cases_are_green() {
    // A tiny always-on slice of the fuzzer (the full 200-case runs are the
    // CI hermetic job's seed loop): fresh generated sessions, all four
    // oracles.
    let mut master = SplitMix64::new(0xE7A_F022);
    for i in 0..4u32 {
        let seed = master.next_u64();
        let case = generate_case(seed);
        if let Err(failure) = check_case(&case) {
            panic!("generated case {i} (seed {seed:#018x}) failed: {failure}\n{case:#?}");
        }
    }
}
