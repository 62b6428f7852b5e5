//! The `eva-fuzz` CLI: generate sessions, run the oracles, shrink and
//! record failures.
//!
//! ```text
//! eva-fuzz [--seed N] [--cases N] [--corpus-dir PATH] [--sabotage]
//! ```
//!
//! * `--seed` (or `EVA_FUZZ_SEED`, default 42) — master seed; each case's
//!   seed is drawn from this stream, so a run is fully described by
//!   (seed, cases).
//! * `--cases` (or `EVA_FUZZ_CASES`, default 200) — cases to run.
//! * `--corpus-dir` — where shrunk repros are written (default: the
//!   committed `tests/corpus/`, so a fixed failure can be committed as a
//!   regression test; the sabotage drill defaults to a scratch directory
//!   instead, because its repro *fails* by design, and removes it when the
//!   drill passes).
//! * `--sabotage` — self-test drill: replay a session against a session
//!   flag that deliberately reintroduces a fixed wrong-answer bug, and
//!   verify the harness flags it, shrinks it to ≤ 5 statements, and writes
//!   a repro that still fails. Exits non-zero if the bug slips through.
//!
//! The per-case log is timing-free and therefore byte-identical across
//! runs with the same seed — `eva-fuzz --seed 42 --cases 200 | sha256sum`
//! is a reproducibility check.

use std::path::PathBuf;
use std::process::ExitCode;

use eva_fuzz::shrink::shrink_case;
use eva_fuzz::{
    check_case, corpus_dir, generate_case, sabotage_case, write_corpus_file, CorpusFile, FuzzCase,
    SplitMix64, CORPUS_VERSION,
};

/// Oracle evaluations granted to each shrink run.
const SHRINK_BUDGET: usize = 150;

struct Args {
    seed: u64,
    cases: u64,
    corpus_dir: Option<PathBuf>,
    sabotage: bool,
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: env_u64("EVA_FUZZ_SEED").unwrap_or(42),
        cases: env_u64("EVA_FUZZ_CASES").unwrap_or(200),
        corpus_dir: None,
        sabotage: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--cases" => {
                let v = value("--cases")?;
                args.cases = v.parse().map_err(|e| format!("--cases {v}: {e}"))?;
            }
            "--corpus-dir" => args.corpus_dir = Some(PathBuf::from(value("--corpus-dir")?)),
            "--sabotage" => args.sabotage = true,
            "--help" | "-h" => {
                println!("usage: eva-fuzz [--seed N] [--cases N] [--corpus-dir PATH] [--sabotage]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Shrink a failure and write its repro file; returns the written path.
fn record_failure(
    case: &FuzzCase,
    failure: &eva_fuzz::Failure,
    dir: &std::path::Path,
) -> Result<PathBuf, String> {
    let shrunk = shrink_case(case, failure.kind, SHRINK_BUDGET);
    eprintln!(
        "shrink: {} -> {} statement(s) in {} oracle evaluation(s)",
        case.stmts.len(),
        shrunk.case.stmts.len(),
        shrunk.evals
    );
    let file = CorpusFile {
        version: CORPUS_VERSION,
        note: format!("auto-shrunk repro of: {failure}"),
        case: shrunk.case,
    };
    write_corpus_file(dir, &file)
}

fn run_fuzz(args: &Args) -> ExitCode {
    let mut master = SplitMix64::new(args.seed);
    println!("eva-fuzz: seed={} cases={}", args.seed, args.cases);
    for i in 0..args.cases {
        let case_seed = master.next_u64();
        let case = generate_case(case_seed);
        match check_case(&case) {
            Ok(report) => {
                println!(
                    "case {i:04} case_seed={case_seed:016x} stmts={} selects={} wc={} cr={} gv={} ok",
                    case.stmts.len(),
                    report.n_selects,
                    report.n_selects,
                    report.crash_points,
                    report.governed_cancelled,
                );
            }
            Err(failure) => {
                println!(
                    "case {i:04} case_seed={case_seed:016x} stmts={} FAILED",
                    case.stmts.len()
                );
                eprintln!("failure: {failure}");
                for (j, stmt) in case.stmts.iter().enumerate() {
                    eprintln!("  stmt {j}: {stmt:?}");
                }
                let dir = args.corpus_dir.clone().unwrap_or_else(corpus_dir);
                match record_failure(&case, &failure, &dir) {
                    Ok(path) => eprintln!("repro written to {}", path.display()),
                    Err(e) => eprintln!("could not write repro: {e}"),
                }
                return ExitCode::FAILURE;
            }
        }
    }
    println!("eva-fuzz: all {} case(s) green", args.cases);
    ExitCode::SUCCESS
}

/// The self-test drill: prove the pipeline catches a deliberately
/// reintroduced wrong-answer bug and shrinks it to a tiny repro.
fn run_sabotage(args: &Args) -> ExitCode {
    let case = sabotage_case(args.seed);
    println!(
        "sabotage drill: seed={} stmts={} (recovery pruning disabled)",
        args.seed,
        case.stmts.len()
    );
    let failure = match check_case(&case) {
        Err(f) => f,
        Ok(_) => {
            eprintln!("DRILL FAILED: the sabotaged session was not flagged by any oracle");
            return ExitCode::FAILURE;
        }
    };
    println!("caught: {failure}");
    let shrunk = shrink_case(&case, failure.kind, SHRINK_BUDGET);
    println!(
        "shrunk to {} statement(s) in {} oracle evaluation(s)",
        shrunk.case.stmts.len(),
        shrunk.evals
    );
    if shrunk.case.stmts.len() > 5 {
        eprintln!("DRILL FAILED: repro has more than 5 statements");
        return ExitCode::FAILURE;
    }
    // The written repro must itself replay red — a repro that passes when
    // replayed is worse than no repro.
    match check_case(&shrunk.case) {
        Err(f) if f.kind == failure.kind => {}
        other => {
            eprintln!("DRILL FAILED: shrunk repro did not reproduce ({other:?})");
            return ExitCode::FAILURE;
        }
    }
    let file = CorpusFile {
        version: CORPUS_VERSION,
        note: format!("sabotage drill repro (replays red by design): {failure}"),
        case: shrunk.case,
    };
    // Without --corpus-dir the repro goes to a fresh temp dir, which a
    // passing drill removes and a failing one leaves for inspection.
    let dir = args
        .corpus_dir
        .clone()
        .unwrap_or_else(|| eva_common::testutil::unique_temp_dir("fuzz_sabotage_repro"));
    match write_corpus_file(&dir, &file) {
        Ok(path) => println!("repro written to {}", path.display()),
        Err(e) => {
            eprintln!("DRILL FAILED: could not write repro: {e}");
            eprintln!("repro directory kept: {}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if args.corpus_dir.is_none() {
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            eprintln!("DRILL FAILED: could not remove {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        println!(
            "removed {} (pass --corpus-dir to keep the repro)",
            dir.display()
        );
    }
    println!("sabotage drill passed");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eva-fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.sabotage {
        run_sabotage(&args)
    } else {
        run_fuzz(&args)
    }
}
