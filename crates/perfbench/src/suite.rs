//! Whole-suite modes. Each workload runs in a process of its own (so that
//! `peak_rss_mb` is that workload's alone): the binary re-executes itself
//! with `--workload` and reads the result line its child prints last.

use std::process::{Command, Stdio};

use crate::env::environment;
use crate::json::Json;
use crate::metrics::spec;
use crate::run::Options;
use crate::workloads::Workload;

/// Run one workload in a child process, passing its report through, and
/// return its result line.
fn child(options: &Options) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", options.workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if options.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let result = stdout.lines().last().map(Json::parse);
    match result {
        Some(Ok(result)) if output.status.success() => Ok(result),
        _ => Err(format!(
            "{} (trace {}) failed: {}",
            options.workload.name(),
            options.trace,
            output.status
        )),
    }
}

/// `--all`: every workload once, then one line holding every result (the
/// form `BASELINE.json` keeps). Returns whether every run was correct.
pub fn all(template: &Options) -> bool {
    let mut ok = true;
    let mut results = Vec::new();
    for workload in Workload::ALL {
        match child(&Options {
            workload,
            ..template.clone()
        }) {
            Ok(result) => results.push((workload.name(), result)),
            Err(error) => {
                eprintln!("{error}");
                ok = false;
            }
        }
    }
    let summary = Json::obj([
        ("environment", environment(template)),
        ("results", Json::obj(results)),
    ]);
    println!("{summary}");
    ok
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `--repeat-check`: the whole suite twice, end-to-end and traced, compared
/// metric by metric. A bounded metric may differ by its bound; a metric
/// marked exact may not differ at all. Returns whether every pair agreed.
pub fn repeat_check(template: &Options) -> bool {
    let mut ok = true;
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let options = Options {
                workload,
                trace,
                ..template.clone()
            };
            let (first, second) = match (child(&options), child(&options)) {
                (Ok(first), Ok(second)) => (first, second),
                (first, second) => {
                    for error in [first.err(), second.err()].into_iter().flatten() {
                        eprintln!("{error}");
                    }
                    ok = false;
                    continue;
                }
            };
            for (name, _) in first
                .get("metrics")
                .map(Json::as_object)
                .unwrap_or_default()
            {
                let (Some(spec), Some(a), Some(b)) = (
                    spec(name),
                    metric_value(&first, name),
                    metric_value(&second, name),
                ) else {
                    continue;
                };
                let difference = if a == b {
                    0.0
                } else {
                    (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
                };
                let (limit, verdict) = match (spec.exact, spec.bound) {
                    (true, _) if a.to_bits() != b.to_bits() => ("exact".to_string(), "DIFFERS"),
                    (true, _) => ("exact".to_string(), "ok"),
                    (false, Some(bound)) => (
                        format!("{:.1}%", bound * 100.0),
                        if difference > bound { "OUTSIDE" } else { "ok" },
                    ),
                    (false, None) => ("-".to_string(), "ok"),
                };
                ok &= verdict == "ok";
                if spec.bound.is_some() || verdict != "ok" {
                    rows.push(format!(
                        "{:<12} {:<32} {:>14.4} {:>14.4} {:>8.2}% {:>7}  {verdict}",
                        workload.name(),
                        name,
                        a,
                        b,
                        difference * 100.0,
                        limit
                    ));
                }
            }
        }
    }
    println!(
        "\n{:<12} {:<32} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    rows.iter().for_each(|row| println!("{row}"));
    println!("repeat check: {}", if ok { "passed" } else { "FAILED" });
    ok
}
