//! An interactive EVA-QL shell.
//!
//! ```sh
//! cargo run --release -p eva-core --bin eva_repl
//! ```
//!
//! Meta commands: `\strategy eva|noreuse|hashstash|funcache`, `\explain
//! <query>`, `\analyze <query>`, `\trace`, `\stats`, `\metrics`, `\views`,
//! `\save <dir>`, `\load <dir>`, `\health`, `\reset`, `\help`, `\quit`.
//! Everything else is parsed as EVA-QL
//! (`LOAD VIDEO 'medium_ua_detrac' INTO video;` first).

use std::io::{BufRead, Write};

use eva_common::metrics::Counter;
use eva_core::{EvaDb, SessionConfig, StatementResult};
use eva_planner::ReuseStrategy;

fn main() {
    let mut db = EvaDb::eva().expect("session");
    println!("EVA-RS interactive shell — \\help for commands.");
    println!("Try: LOAD VIDEO 'short_ua_detrac' INTO video;");
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        print!("eva> ");
        std::io::stdout().flush().ok();
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        if let Some(cmd) = input.strip_prefix('\\') {
            if !meta_command(&mut db, cmd) {
                break;
            }
            continue;
        }
        match db.execute_sql(input) {
            Ok(StatementResult::Ack(msg)) => println!("ok: {msg}"),
            Ok(StatementResult::Rows(out)) => {
                let schema = out.batch.schema().clone();
                let header: Vec<String> = schema.fields().iter().map(|f| f.name.clone()).collect();
                println!("{}", header.join(" | "));
                for row in out.batch.rows().iter().take(20) {
                    let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    println!("{}", cells.join(" | "));
                }
                if out.n_rows() > 20 {
                    println!("… ({} rows total)", out.n_rows());
                }
                println!(
                    "[{} rows, {:.1}s simulated, {:.0}ms wall]",
                    out.n_rows(),
                    out.sim_secs(),
                    out.wall_ms
                );
            }
            Err(e) => match e.cancel_reason() {
                // Cancellation is lifecycle governance, not failure: report
                // the structured reason and keep the session alive.
                Some(reason) => eprintln!("cancelled ({reason}): {e}"),
                None => eprintln!("error: {e}"),
            },
        }
    }
}

/// Returns false to quit.
fn meta_command(db: &mut EvaDb, cmd: &str) -> bool {
    let mut parts = cmd.split_whitespace();
    match parts.next().unwrap_or("") {
        "q" | "quit" | "exit" => return false,
        "help" => {
            println!("\\strategy eva|noreuse|hashstash|funcache — switch reuse strategy");
            println!("\\explain <select…> — show the physical plan");
            println!("\\analyze <select…> — run the query, show the annotated plan");
            println!("\\trace — span tree + latency histograms of the last query");
            println!("\\stats — per-UDF invocation statistics");
            println!("\\metrics — session runtime counters (probes, reuse, zero-copy)");
            println!("\\views — materialized view inventory");
            println!("\\save <dir> — persist views + aggregated predicates");
            println!("\\load <dir> — restore saved state (recovery pass)");
            println!("\\health — last \\load recovery outcome + governance");
            println!("\\reset — drop all reuse state");
            println!("\\quit — leave");
        }
        "strategy" => {
            let strategy = match parts.next().unwrap_or("") {
                "eva" => Some(ReuseStrategy::Eva),
                "noreuse" => Some(ReuseStrategy::NoReuse),
                "hashstash" => Some(ReuseStrategy::HashStash),
                "funcache" => Some(ReuseStrategy::FunCache),
                other => {
                    eprintln!("unknown strategy '{other}'");
                    None
                }
            };
            if let Some(s) = strategy {
                db.set_config(SessionConfig::for_strategy(s));
                println!("strategy set to {s:?}");
            }
        }
        "explain" => {
            let rest: Vec<&str> = parts.collect();
            match db.explain(&rest.join(" ")) {
                Ok(plan) => println!("{plan}"),
                Err(e) => eprintln!("error: {e}"),
            }
        }
        "analyze" => {
            let rest: Vec<&str> = parts.collect();
            match db.explain_analyze_query(&rest.join(" ")) {
                Ok((plan, out)) => {
                    println!("{plan}");
                    println!(
                        "[{} rows, {:.1}s simulated, {:.0}ms wall, {:.1}% probe hits, \
                         {} UDF calls avoided]",
                        out.n_rows(),
                        out.sim_secs(),
                        out.wall_ms,
                        out.metrics.ratio(Counter::probe_hits, Counter::probes) * 100.0,
                        out.metrics.udf_calls_avoided
                    );
                }
                Err(e) => eprintln!("error: {e}"),
            }
        }
        "trace" => {
            let t = db.last_trace();
            if t.spans.is_empty() {
                println!("no query traced yet — run a SELECT first");
            } else {
                print!("{}", t.render());
                let hists = t.hists.render();
                if !hists.is_empty() {
                    println!("latency (this query):");
                    print!("{hists}");
                }
            }
            let session = db.session_latency().render();
            if !session.is_empty() {
                println!("latency (session):");
                print!("{session}");
            }
        }
        "metrics" => {
            let m = db.metrics_snapshot();
            println!(
                "udf calls: requested={} executed={} avoided={} ({:.1}s avoided)",
                m.udf_calls_requested,
                m.udf_calls_executed,
                m.udf_calls_avoided,
                m.udf_ns_avoided as f64 / 1e9
            );
            println!(
                "view probes: {} ({} hits / {} misses, {} fuzzy, {:.1}% hit rate)",
                m.probes,
                m.probe_hits,
                m.probe_misses,
                m.fuzzy_hits,
                m.ratio(Counter::probe_hits, Counter::probes) * 100.0
            );
            println!(
                "rows: zero-copy={} view-read={} view-written={} frames-scanned={}",
                m.rows_served_zero_copy, m.view_rows_read, m.view_rows_written, m.frames_scanned
            );
            println!(
                "funcache: {} hits / {} misses; shard contention events: {}",
                m.funcache_hits, m.funcache_misses, m.shard_lock_contention
            );
            println!(
                "resilience: views recovered={} quarantined={}",
                m.views_recovered, m.views_quarantined
            );
            println!(
                "columnar: batches={} rows={} pivoted={}",
                m.columnar_batches, m.columnar_rows, m.rows_pivoted
            );
            println!(
                "governance: degraded={} materialization-skipped={} admitted={} shed={}",
                m.degraded_queries, m.materialization_skipped, m.queries_admitted, m.queries_shed
            );
        }
        "stats" => {
            for (name, c) in db.invocation_stats().all() {
                println!(
                    "{name}: total={} distinct={} reused={} eval={:.1}s",
                    c.total_invocations,
                    c.distinct_inputs,
                    c.reused_invocations,
                    c.eval_ns as f64 / 1e9
                );
            }
            println!("hit rate: {:.1}%", db.invocation_stats().hit_percentage());
            println!("simulated cost: {}", db.cost_snapshot());
        }
        "views" => {
            for def in db.storage().view_defs() {
                let keys = db.storage().view_n_keys(def.id).unwrap_or(0);
                println!("{} {} [{:?}] keys={keys}", def.id, def.name, def.key_kind);
            }
            println!(
                "total {:.2} MiB",
                db.storage().total_view_bytes() as f64 / (1024.0 * 1024.0)
            );
        }
        "save" => match parts.next() {
            Some(dir) => match db.save_state(std::path::Path::new(dir)) {
                Ok(()) => println!("saved {} view(s) to {dir}", db.storage().view_defs().len()),
                Err(e) => eprintln!("error: {e}"),
            },
            None => eprintln!("usage: \\save <dir>"),
        },
        "load" => match parts.next() {
            Some(dir) => match db.load_state(std::path::Path::new(dir)) {
                Ok(report) => println!("{}", report.summary()),
                Err(e) => eprintln!("error: {e}"),
            },
            None => eprintln!("usage: \\load <dir>"),
        },
        "health" => {
            match db.health_report() {
                Some(report) => {
                    println!("{}", report.summary());
                    if report.is_clean() {
                        println!("store is healthy — nothing quarantined or worked around");
                    }
                }
                None => println!("no \\load has run in this session"),
            }
            print!("{}", db.governance_report());
        }
        "reset" => {
            db.reset_reuse_state();
            println!("reuse state cleared");
        }
        other => eprintln!("unknown command '\\{other}' (\\help)"),
    }
    true
}
