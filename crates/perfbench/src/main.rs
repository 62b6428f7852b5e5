//! eva-perfbench: wall-clock and simulated end-to-end metrics, and an
//! outside-in per-layer budget, over four exploratory-session workloads.
//! Everything is measured from outside the engine, through its public API.
//! See the README for the metric definitions and how to run it.

mod env;
mod json;
mod metrics;
mod rng;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

use env::environment;
use json::Json;
use metrics::spec;
use run::{run, Options};
use workloads::Workload;

const USAGE: &str = "usage: eva-perfbench (--workload <name> | --all | --repeat-check)
                     [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--smoke]
workloads: refine-cold, resume-warm, skim-long, scan-agg
  --all           every workload, each in a process of its own
  --repeat-check  the whole suite twice, end-to-end and traced; fails when a
                  pair of values is outside its bound or an exact one differs
  --trace 1       stage-by-stage run: per-layer metrics and a spans file
  --smoke         200-frame videos, one session (any build profile)";

enum Mode {
    One,
    All,
    RepeatCheck,
}

fn parse_args(args: &[String]) -> Result<(Mode, Options), String> {
    let mut mode = None;
    let mut options = Options {
        workload: Workload::RefineCold,
        seed: 7,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload =
                    Workload::from_name(name).ok_or(format!("unknown workload {name}"))?;
                mode = Some(Mode::One);
            }
            "--all" => mode = Some(Mode::All),
            "--repeat-check" => mode = Some(Mode::RepeatCheck),
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => options.trace = value()? == "1",
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((
        mode.ok_or("one of --workload, --all, --repeat-check is required")?,
        options,
    ))
}

fn one(options: &Options) -> ExitCode {
    println!(
        "{} environment: {}",
        options.workload.name(),
        environment(options)
    );
    let outcome = match run(options) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("eva-perfbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    println!("{} (seed {}):", options.workload.name(), options.seed);
    let mut metrics = Vec::new();
    for (name, value) in &outcome.metrics {
        let (unit, better) = spec(name).map_or(("", ""), |m| (m.unit, m.better.as_str()));
        println!("  {name:<34} {value:>16.4} {unit:<6} ({better} is better)");
        let entry = Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]);
        metrics.push((*name, entry));
    }
    outcome.notes.iter().for_each(|note| println!("  {note}"));
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  failed_share = {failed_share} ({} of {} queries)",
        outcome.failed, outcome.attempted
    );
    outcome
        .failures
        .iter()
        .for_each(|failure| println!("  FAILED {failure}"));
    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, options) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("eva-perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) && !options.smoke {
        eprintln!("eva-perfbench: refusing to measure a debug build; build with --release or pass --smoke");
        return ExitCode::from(2);
    }
    let ok = match mode {
        Mode::One => return one(&options),
        Mode::All => suite::all(&options),
        Mode::RepeatCheck => suite::repeat_check(&options),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
