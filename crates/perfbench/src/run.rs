//! One benchmark run of one workload: set up, compute the oracle answers,
//! warm up, then drive sessions for the requested time as a single closed-loop
//! client (the next query is sent when the previous answer is back) and turn
//! what was observed into the metrics of [`crate::metrics`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use eva_common::hash::xxhash64;
use eva_common::{Batch, CostBreakdown, CostCategory, MetricsSnapshot, SimClock, SpanKind, Value};
use eva_core::{EvaDb, SessionConfig, WorkerPool};
use eva_exec::QueryOutput;
use eva_parser::{parse, Statement};
use eva_planner::{Binder, CommitLog, Optimizer, ReuseStrategy};
use eva_symbolic::{diff, inter, union, Dnf};
use eva_udf::UdfSignature;
use eva_video::VideoDataset;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::{chrome_trace, self_times_ns, Recorder};
use crate::stats::{median, percentile, tail_percentile};
use crate::workloads::{Query, Workload};

/// Set-ups per run, the median being reported as `setup_s`: at least the
/// first number, and up to the second while they have taken less than
/// `SETUP_BUDGET_S` together (the first two in a process run up to twice as
/// long as the rest, and a cheap set-up's median must sit clear of them).
const SETUPS: (usize, usize) = (5, 15);
const SETUP_BUDGET_S: f64 = 2.0;
/// Unmeasured sessions before measuring.
const WARMUP_SESSIONS: usize = 2;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// How long to measure; sessions are run whole, so a run ends with the
    /// first session that finishes after this many seconds.
    pub seconds: f64,
    /// Drive each query stage by stage under the span recorder and report
    /// the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// 200-frame videos, one set-up, no warm-up, one session per kind.
    pub smoke: bool,
}

#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    /// Queries that errored, were cancelled or shed, or answered differently
    /// from the no-reuse oracle, by name; plus any broken run-level check.
    pub failures: Vec<String>,
    /// Queries among `failures`.
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts and where the spans went, for the printed report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Order-insensitive fingerprint of an answer: a hash of its sorted row hashes.
fn fingerprint(batch: &Batch) -> u64 {
    let mut bytes = Vec::new();
    let mut rows: Vec<u64> = batch
        .rows()
        .iter()
        .map(|row| {
            bytes.clear();
            row.iter().for_each(|value| value.write_bytes(&mut bytes));
            xxhash64(&bytes, 0)
        })
        .collect();
    rows.sort_unstable();
    bytes.clear();
    rows.iter()
        .for_each(|h| bytes.extend_from_slice(&h.to_le_bytes()));
    xxhash64(&bytes, rows.len() as u64)
}

/// A directory under the build's target directory, removed on drop, so that
/// saved stores and span files stay inside the checkout.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: Workload) -> std::io::Result<Scratch> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let unique = format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let dir = output_dir().join(format!("tmp-{}-{unique}", workload.name()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `<target>/perfbench`, found from where the running binary sits.
fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let profile = exe.ancestors().find(|dir| {
        dir.file_name()
            .is_some_and(|name| name == "release" || name == "debug")
    });
    match profile.and_then(Path::parent) {
        Some(target) => target.join("perfbench"),
        None => PathBuf::from("target/perfbench"),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Simulated seconds without `CostCategory::Optimize`, which the engine
/// derives from wall time. Summed category by category: subtracting the
/// wall-derived share from the total would leak its rounding into the rest.
fn sim_s(cost: &CostBreakdown) -> f64 {
    let deterministic = CostCategory::ALL
        .iter()
        .filter(|c| **c != CostCategory::Optimize);
    deterministic.map(|c| cost.get(*c)).sum::<f64>() / 1e3
}

fn fresh_db(strategy: ReuseStrategy, dataset: VideoDataset) -> eva_common::Result<EvaDb> {
    let mut db = EvaDb::new(SessionConfig::for_strategy(strategy))?;
    db.load_video(dataset, "video")?;
    Ok(db)
}

/// One set-up, timed: dataset generation, `EvaDb::new`, `load_video`; on the
/// resuming workload also the cold priming pass and the first `save_state`.
struct Setup {
    db: EvaDb,
    dataset: VideoDataset,
    scripts: Vec<Vec<Query>>,
    times: SetupTimes,
    /// Rows the priming pass wrote into views (the rows the saved store holds).
    primed_rows: u64,
}

/// The timings of one set-up, kept after its engine is dropped.
#[derive(Default)]
struct SetupTimes {
    total_s: f64,
    generate_ms: f64,
    load_video_ms: f64,
}

fn set_up(options: &Options, store: &Path) -> Result<Setup, String> {
    let workload = options.workload;
    let started = Instant::now();
    let dataset = workload.dataset(options.smoke);
    let generate_ms = ms(started);
    let loading = Instant::now();
    let mut db = fresh_db(ReuseStrategy::Eva, dataset.clone()).map_err(|e| e.to_string())?;
    let load_video_ms = ms(loading);
    let scripts = workload.scripts(options.seed, dataset.len(), options.smoke);
    let mut primed_rows = 0;
    if workload.resumes() {
        for query in &scripts[0] {
            db.execute_sql(&query.sql)
                .map_err(|e| format!("priming {}: {e}", query.name))?;
        }
        primed_rows = db.metrics_snapshot().view_rows_written;
        let _ = std::fs::remove_dir_all(store);
        db.save_state(store)
            .map_err(|e| format!("priming save: {e}"))?;
    }
    Ok(Setup {
        db,
        dataset,
        scripts,
        times: SetupTimes {
            total_s: started.elapsed().as_secs_f64(),
            generate_ms,
            load_video_ms,
        },
        primed_rows,
    })
}

/// How a session's queries are issued.
enum Drive<'a> {
    /// `execute_sql`, as a user would.
    Plain,
    /// Stage by stage under the span recorder.
    Staged(&'a mut Recorder),
}

/// Per-query stage timings of a staged session.
#[derive(Debug, Default)]
struct Stages {
    parse_us: Vec<f64>,
    bind_us: Vec<f64>,
    optimize_us: Vec<f64>,
    symbolic_us: Vec<f64>,
    exec_ms: Vec<f64>,
    residue_us: Vec<f64>,
    /// `parse` + `execute_select`: what `execute_sql` would have taken.
    query_us: Vec<f64>,
    agg_conjuncts_max: usize,
    agg_atoms_max: usize,
}

/// What one session left behind.
#[derive(Debug, Default)]
struct Session {
    /// Which script ran.
    script: usize,
    /// Per query, around `execute_sql` (or `parse` + `execute_select`).
    wall_ms: Vec<f64>,
    /// Sum of the timed sections: the queries plus `load_state`/`save_state`.
    busy_s: f64,
    /// First statement to last, checks included.
    elapsed_s: f64,
    resume_ms: Option<f64>,
    save_ms: Option<f64>,
    saved_bytes: u64,
    cost: CostBreakdown,
    counters: MetricsSnapshot,
    hit_pct: f64,
    view_bytes: u64,
    /// Executed calls of UDFs dear enough to be materialised.
    materialisable_executed: u64,
    segment_io_ms: f64,
    engine_spans: u64,
    engine_spans_dropped: u64,
    stages: Stages,
}

impl Session {
    /// Everything that must be a pure function of the workload and seed.
    fn deterministic(&self) -> (MetricsSnapshot, u64, u64, u64) {
        (
            self.counters.deterministic(),
            sim_s(&self.cost).to_bits(),
            self.hit_pct.to_bits(),
            self.view_bytes,
        )
    }
}

/// One session script with what the no-reuse oracle made of it.
struct Script {
    queries: Vec<Query>,
    /// The oracle's fingerprint of each query's answer.
    expected: Vec<u64>,
    /// The oracle's simulated seconds for the whole session.
    no_reuse_sim_s: f64,
}

struct Bench {
    workload: Workload,
    db: EvaDb,
    scripts: Vec<Script>,
    scratch: Scratch,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Bench {
    fn store(&self) -> PathBuf {
        self.scratch.0.join("store")
    }

    fn fail(&mut self, query: &str, why: impl std::fmt::Display) {
        self.failed += 1;
        self.failures.push(format!("{query}: {why}"));
    }

    /// Count one attempted query and check its answer against the oracle.
    fn check(&mut self, script: usize, index: usize, answer: Result<&Batch, String>) {
        self.attempted += 1;
        let query = &self.scripts[script].queries[index];
        let (name, count_star) = (format!("script {script} {}", query.name), query.count_star);
        let batch = match answer {
            Ok(batch) => batch,
            Err(error) => return self.fail(&name, error),
        };
        if let Some(count) = count_star {
            let got = batch.rows().first().and_then(|row| row.first());
            if got != Some(&Value::Int(count as i64)) {
                return self.fail(
                    &name,
                    format!("COUNT(*) is {got:?}, the id range holds {count}"),
                );
            }
        }
        if fingerprint(batch) != self.scripts[script].expected[index] {
            self.fail(&name, "answer differs from the no-reuse oracle");
        }
    }

    /// One session of a script from a clean reuse state. The resuming workload
    /// first restores the saved store and afterwards saves into a fresh
    /// directory.
    fn session(&mut self, script: usize, mut drive: Drive<'_>) -> Session {
        let mut session = Session {
            script,
            ..Session::default()
        };
        self.db.reset_reuse_state();
        let started = Instant::now();
        if self.workload.resumes() {
            let timer = Instant::now();
            let report = self.db.load_state(&self.store());
            session.resume_ms = Some(ms(timer));
            match report {
                Ok(report) if report.quarantined.is_empty() && report.manager_note.is_none() => {}
                Ok(report) => self.failures.push(format!(
                    "load_state: store did not recover whole: {report:?}"
                )),
                Err(error) => self.failures.push(format!("load_state: {error}")),
            }
        }
        for index in 0..self.scripts[script].queries.len() {
            let sql = self.scripts[script].queries[index].sql.clone();
            let timer = Instant::now();
            let answer = match &mut drive {
                Drive::Plain => self.db.execute_sql(&sql).and_then(|result| result.rows()),
                Drive::Staged(recorder) => {
                    self.staged(recorder, index as u32, &sql, &mut session.stages)
                }
            };
            session.wall_ms.push(ms(timer));
            match answer {
                Ok(output) => {
                    session.engine_spans += output.trace.spans.len() as u64;
                    session.engine_spans_dropped += output.trace.dropped;
                    self.check(script, index, Ok(&output.batch));
                }
                Err(error) => self.check(script, index, Err(error.to_string())),
            }
        }
        // Read before saving: a save rewrites nothing the session computed.
        session.cost = self.db.cost_snapshot();
        session.counters = self.db.metrics_snapshot();
        session.hit_pct = self.db.invocation_stats().hit_percentage();
        session.view_bytes = self.db.storage().total_view_bytes();
        session.materialisable_executed = (self.db.invocation_stats().all().values())
            .filter(|udf| udf.countable())
            .map(|udf| udf.total_invocations - udf.reused_invocations)
            .sum();
        if self.workload.resumes() {
            let fresh = self.scratch.0.join("resaved");
            let timer = Instant::now();
            let saved = self.db.save_state(&fresh);
            session.save_ms = Some(ms(timer));
            if let Err(error) = saved {
                self.failures.push(format!("save_state: {error}"));
            }
            session.saved_bytes = dir_bytes(&fresh);
            let _ = std::fs::remove_dir_all(&fresh);
        }
        session.elapsed_s = started.elapsed().as_secs_f64();
        session.busy_s = (session.wall_ms.iter().sum::<f64>()
            + session.resume_ms.unwrap_or(0.0)
            + session.save_ms.unwrap_or(0.0))
            / 1e3;
        let io = self.db.session_latency();
        session.segment_io_ms = io.get(SpanKind::SegmentIo).sum() as f64 / 1e6;
        session
    }

    /// Drive one query through the layers by hand. `parser.parse`,
    /// `planner.bind` and `planner.optimize` are timed out of band (the
    /// optimizer writes its coverage commits to a log that is thrown away and
    /// charges a scratch clock), then `execute_select` does the real work,
    /// planning once more inside. Afterwards the symbolic operations are
    /// replayed on the aggregated predicates the query extended.
    fn staged(
        &mut self,
        recorder: &mut Recorder,
        query_id: u32,
        sql: &str,
        stages: &mut Stages,
    ) -> eva_common::Result<QueryOutput> {
        let query_start = recorder.now_ns();
        let root = recorder.push("bench.query", None, query_id, query_start, query_start);
        let result = self.staged_under(recorder, root, query_id, sql, stages);
        recorder.spans[root].end_ns = recorder.now_ns();
        result
    }

    fn staged_under(
        &mut self,
        recorder: &mut Recorder,
        root: usize,
        query_id: u32,
        sql: &str,
        stages: &mut Stages,
    ) -> eva_common::Result<QueryOutput> {
        let us = |recorder: &Recorder, span: usize| recorder.spans[span].duration_ns() as f64 / 1e3;
        let db = &mut self.db;

        let (statement, parse_span) =
            recorder.time("parser.parse", Some(root), query_id, || parse(sql));
        let Statement::Select(select) = statement? else {
            return Err(eva_common::EvaError::Plan(format!("not a SELECT: {sql}")));
        };
        let (logical, bind_span) = recorder.time("planner.bind", Some(root), query_id, || {
            Binder::new(db.catalog()).bind_select(&select)
        });
        let logical = logical?;
        let discarded = CommitLog::new();
        let optimizer = Optimizer {
            catalog: db.catalog(),
            manager: db.manager(),
            stats: db.stats_catalog(),
            config: db.config().planner,
            commits: Some(&discarded),
        };
        let scratch_clock = SimClock::new();
        let (plan, optimize_span) = recorder.time("planner.optimize", Some(root), query_id, || {
            optimizer.optimize(&logical, &scratch_clock)
        });
        plan?;
        discarded.discard();

        let before = aggregates(db);
        let (output, select_span) =
            recorder.time("core.execute_select", Some(root), query_id, || {
                db.execute_select(&select)
            });
        let output = output?;

        // The engine reports only how long execution took; it began once the
        // call had bound and optimized, which the out-of-band timings estimate.
        let planned_ns =
            recorder.spans[bind_span].duration_ns() + recorder.spans[optimize_span].duration_ns();
        let exec_start = recorder.spans[select_span].start_ns + planned_ns;
        let exec_ns = (output.wall_ms * 1e6) as u64;
        let exec_span = recorder.push(
            "exec.execute",
            Some(select_span),
            query_id,
            exec_start,
            exec_start + exec_ns,
        );
        recorder.graft(exec_span, &output.trace);

        let select_us = us(recorder, select_span);
        stages.parse_us.push(us(recorder, parse_span));
        stages.bind_us.push(us(recorder, bind_span));
        stages.optimize_us.push(us(recorder, optimize_span));
        stages.exec_ms.push(output.wall_ms);
        stages.query_us.push(us(recorder, parse_span) + select_us);
        stages
            .residue_us
            .push((select_us - (planned_ns + exec_ns) as f64 / 1e3).max(0.0));

        for (signature, after) in aggregates(db) {
            stages.agg_conjuncts_max = stages.agg_conjuncts_max.max(after.conjuncts().len());
            stages.agg_atoms_max = stages.agg_atoms_max.max(after.atom_count());
            let earlier = before.get(&signature).cloned().unwrap_or_else(Dnf::false_);
            if earlier == after {
                continue;
            }
            let operations: [(&str, SymbolicOp); 3] = [
                ("symbolic.inter", inter),
                ("symbolic.diff", diff),
                ("symbolic.union", union),
            ];
            for (name, operation) in operations {
                let (_, span) =
                    recorder.time(name, Some(root), query_id, || operation(&earlier, &after));
                stages.symbolic_us.push(us(recorder, span));
            }
        }
        Ok(output)
    }
}

type SymbolicOp = fn(&Dnf, &Dnf) -> Dnf;

/// Every known signature's aggregated predicate `p_u`.
fn aggregates(db: &EvaDb) -> BTreeMap<UdfSignature, Dnf> {
    (db.manager().view_sizes().into_keys())
        .map(|signature| {
            let aggregated = db.manager().aggregated(&signature);
            (signature, aggregated)
        })
        .collect()
}

/// Answers and simulated cost of each script on a fresh no-reuse engine.
fn oracle(dataset: VideoDataset, scripts: Vec<Vec<Query>>) -> Result<Vec<Script>, String> {
    let mut db = fresh_db(ReuseStrategy::NoReuse, dataset).map_err(|e| e.to_string())?;
    let mut answered = Vec::with_capacity(scripts.len());
    for queries in scripts {
        db.reset_reuse_state();
        let mut expected = Vec::with_capacity(queries.len());
        for query in &queries {
            let output = (db.execute_sql(&query.sql).and_then(|result| result.rows()))
                .map_err(|e| format!("oracle {}: {e}", query.name))?;
            expected.push(fingerprint(&output.batch));
        }
        answered.push(Script {
            queries,
            expected,
            no_reuse_sim_s: sim_s(&db.cost_snapshot()),
        });
    }
    Ok(answered)
}

/// Per-session sums over the recorder's spans, in milliseconds.
#[derive(Debug, Default)]
struct LayerTimes {
    scan_self: f64,
    filter_project_self: f64,
    apply_self: f64,
    agg_sort_self: f64,
    pipeline: f64,
    udf_eval: f64,
    probe: f64,
    shard_wait: f64,
}

fn layer_times(recorder: &Recorder) -> LayerTimes {
    let mut times = LayerTimes::default();
    let self_ns = self_times_ns(&recorder.spans);
    for (span, self_ns) in recorder.spans.iter().zip(self_ns) {
        let Some(engine) = span.name.strip_prefix("engine.") else {
            continue;
        };
        let (kind, label) = engine.split_once('.').unwrap_or((engine, ""));
        let (own, whole) = (self_ns as f64 / 1e6, span.duration_ns() as f64 / 1e6);
        match (kind, label) {
            ("operator", "ScanFrames") => times.scan_self += own,
            ("operator", "Filter" | "Project") => times.filter_project_self += own,
            ("operator", "Apply") => times.apply_self += own,
            ("operator", "Aggregate" | "Sort" | "Limit") => times.agg_sort_self += own,
            ("pipeline", _) => times.pipeline += whole,
            ("udf_eval", _) => times.udf_eval += whole,
            ("view_probe", _) => times.probe += whole,
            ("shard_wait", _) => times.shard_wait += whole,
            _ => {}
        }
    }
    times
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    (status.lines())
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn over<T>(sessions: &[T], value: impl Fn(&T) -> f64) -> Vec<f64> {
    sessions.iter().map(value).collect()
}

/// Mean over the scripts of a value read from each script's first session.
fn mean(per_script: &[Session], value: impl Fn(&Session) -> f64) -> f64 {
    per_script.iter().map(value).sum::<f64>() / per_script.len() as f64
}

/// Everything a run collected.
struct Measured {
    setups: Vec<SetupTimes>,
    /// Rows in the restored views (0 unless the workload resumes).
    primed_rows: u64,
    n_scripts: usize,
    plain: Vec<Session>,
    /// Plain sessions with the engine's trace sink off (traced runs only).
    untraced: Vec<Session>,
    /// Staged sessions with their span sums (traced runs only).
    staged: Vec<Session>,
    layers: Vec<LayerTimes>,
}

impl Measured {
    /// One plain session of each script, in script order: the first rotation.
    fn per_script(&self) -> &[Session] {
        &self.plain[..self.n_scripts]
    }

    fn all(&self) -> impl Iterator<Item = &Session> {
        self.plain.iter().chain(&self.untraced).chain(&self.staged)
    }
}

/// The traced run's numbers, in the order of [`PER_LAYER`]. "Per session"
/// values are summed over a session's queries, then the median session is
/// taken. Counts and simulated costs repeat exactly whenever a script is run
/// again; they are given per session, as the mean over the scripts.
fn per_layer_metrics(workload: Workload, measured: &Measured) -> Vec<(&'static str, f64)> {
    let Measured {
        setups,
        plain,
        untraced,
        staged,
        layers,
        ..
    } = measured;
    let (per_script, primed_rows) = (measured.per_script(), measured.primed_rows);
    let pooled = |pick: fn(&Stages) -> &Vec<f64>| -> Vec<f64> {
        staged
            .iter()
            .flat_map(|s| pick(&s.stages).iter().copied())
            .collect()
    };
    let (residue_us, optimize_us, symbolic_us) = (
        pooled(|s| &s.residue_us),
        pooled(|s| &s.optimize_us),
        pooled(|s| &s.symbolic_us),
    );
    let per_session = |value: &dyn Fn(&Session) -> f64| median(&over(staged, value));
    let per_layer = |value: fn(&LayerTimes) -> f64| median(&over(layers, value));
    let sum = |values: &[f64]| values.iter().sum::<f64>();
    let planned_us =
        |s: &Session| sum(&s.stages.parse_us) + sum(&s.stages.bind_us) + sum(&s.stages.optimize_us);
    let growth = |s: &Session| {
        let optimize = &s.stages.optimize_us;
        let quarter = (optimize.len() / 4).max(2).min(optimize.len());
        ratio(
            median(&optimize[optimize.len() - quarter..]),
            median(&optimize[..quarter]),
        )
    };

    let count = |pick: fn(&MetricsSnapshot) -> u64| mean(per_script, |s| pick(&s.counters) as f64);
    let cost_s = |category| mean(per_script, |s| s.cost.get(category) / 1e3);
    let view_bytes = mean(per_script, |s| s.view_bytes as f64);
    let saved_bytes = mean(per_script, |s| s.saved_bytes as f64);
    let rows_in_views = if workload.resumes() {
        primed_rows as f64
    } else {
        count(|c| c.view_rows_written)
    };
    let every: Vec<&Session> = measured.all().collect();
    let resume_ms = median(&over(&every, |s| s.resume_ms.unwrap_or(0.0)));
    let save_ms = median(&over(&every, |s| s.save_ms.unwrap_or(0.0)));
    let saved_mib = saved_bytes / (1024.0 * 1024.0);
    let udf_eval_ms = per_layer(|l| l.udf_eval);
    let probe_ms = per_layer(|l| l.probe);
    let plain_s = median(&over(plain, |s| s.elapsed_s));

    vec![
        (
            "video.generate_ms",
            median(&over(setups, |s| s.generate_ms)),
        ),
        (
            "core.load_video_ms",
            median(&over(setups, |s| s.load_video_ms)),
        ),
        ("core.session_residue_us_p50", median(&residue_us)),
        ("core.session_residue_us_p90", percentile(&residue_us, 90.0)),
        ("parser.parse_us_p50", median(&pooled(|s| &s.parse_us))),
        ("planner.bind_us_p50", median(&pooled(|s| &s.bind_us))),
        ("planner.optimize_us_p50", median(&optimize_us)),
        ("planner.optimize_us_p90", percentile(&optimize_us, 90.0)),
        ("planner.optimize_growth_x", per_session(&growth)),
        (
            "planner.share_pct",
            per_session(&|s| 100.0 * ratio(planned_us(s), sum(&s.stages.query_us))),
        ),
        (
            "symbolic.agg_conjuncts_max",
            staged
                .iter()
                .map(|s| s.stages.agg_conjuncts_max)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "symbolic.agg_atoms_max",
            staged
                .iter()
                .map(|s| s.stages.agg_atoms_max)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("symbolic.op_us_p50", median(&symbolic_us)),
        ("symbolic.op_us_p90", percentile(&symbolic_us, 90.0)),
        ("exec.execute_ms_p50", median(&pooled(|s| &s.exec_ms))),
        (
            "exec.share_pct",
            per_session(&|s| 100.0 * ratio(sum(&s.stages.exec_ms) * 1e3, sum(&s.stages.query_us))),
        ),
        ("exec.scan_self_ms", per_layer(|l| l.scan_self)),
        (
            "exec.filter_project_self_ms",
            per_layer(|l| l.filter_project_self),
        ),
        ("exec.apply_self_ms", per_layer(|l| l.apply_self)),
        ("exec.agg_sort_self_ms", per_layer(|l| l.agg_sort_self)),
        ("exec.pipeline_ms", per_layer(|l| l.pipeline)),
        ("exec.frames_scanned", count(|c| c.frames_scanned)),
        ("exec.columnar_rows", count(|c| c.columnar_rows)),
        ("exec.rows_pivoted", count(|c| c.rows_pivoted)),
        ("exec.morsels_dispatched", count(|c| c.morsels_dispatched)),
        ("exec.n_workers", WorkerPool::global().n_workers() as f64),
        (
            "exec.frames_per_s",
            per_session(&|s| {
                ratio(
                    s.counters.frames_scanned as f64,
                    sum(&s.stages.exec_ms) / 1e3,
                )
            }),
        ),
        ("udf.eval_ms", udf_eval_ms),
        ("udf.calls_executed", count(|c| c.udf_calls_executed)),
        ("udf.calls_avoided", count(|c| c.udf_calls_avoided)),
        ("udf.retries", count(|c| c.udf_retries)),
        (
            "udf.eval_us_per_call",
            ratio(udf_eval_ms * 1e3, count(|c| c.udf_calls_executed)),
        ),
        ("udf.hit_pct", mean(per_script, |s| s.hit_pct)),
        ("storage.probe_ms", probe_ms),
        ("storage.shard_wait_ms", per_layer(|l| l.shard_wait)),
        ("storage.probes", count(|c| c.probes)),
        (
            "storage.probe_hit_ratio",
            ratio(count(|c| c.probe_hits), count(|c| c.probes)),
        ),
        ("storage.view_rows_read", count(|c| c.view_rows_read)),
        ("storage.view_rows_written", count(|c| c.view_rows_written)),
        ("storage.rows_zero_copy", count(|c| c.rows_served_zero_copy)),
        ("storage.view_bytes", view_bytes),
        (
            "storage.probe_ns_per_key",
            ratio(probe_ms * 1e6, count(|c| c.probes)),
        ),
        (
            "storage.view_mem_bytes_per_row",
            ratio(view_bytes, rows_in_views),
        ),
        ("storage.saved_bytes", saved_bytes),
        (
            "storage.view_disk_bytes_per_row",
            ratio(saved_bytes, primed_rows as f64),
        ),
        ("storage.resume_ms_p50", resume_ms),
        ("storage.save_ms_p50", save_ms),
        ("storage.save_mb_per_s", ratio(saved_mib, save_ms / 1e3)),
        (
            "storage.recover_mb_per_s",
            ratio(saved_mib, resume_ms / 1e3),
        ),
        (
            "storage.segment_io_ms",
            median(&over(plain, |s| s.segment_io_ms)),
        ),
        ("storage.views_recovered", count(|c| c.views_recovered)),
        ("storage.views_quarantined", count(|c| c.views_quarantined)),
        ("sim.udf_s", cost_s(CostCategory::Udf)),
        ("sim.read_video_s", cost_s(CostCategory::ReadVideo)),
        ("sim.read_view_s", cost_s(CostCategory::ReadView)),
        ("sim.materialize_s", cost_s(CostCategory::Materialize)),
        ("sim.apply_s", cost_s(CostCategory::Apply)),
        (
            "sim.optimize_wall_ms",
            median(&over(plain, |s| s.cost.get(CostCategory::Optimize))),
        ),
        (
            "common.trace_spans_per_query",
            median(&over(plain, |s| {
                ratio(s.engine_spans as f64, s.wall_ms.len() as f64)
            })),
        ),
        (
            "common.trace_spans_dropped",
            every.iter().map(|s| s.engine_spans_dropped).sum::<u64>() as f64,
        ),
        (
            "common.trace_overhead_pct",
            100.0 * (ratio(plain_s, median(&over(untraced, |s| s.elapsed_s))) - 1.0),
        ),
        (
            "bench.span_overhead_pct",
            100.0 * (ratio(median(&over(staged, |s| s.elapsed_s)), plain_s) - 1.0),
        ),
    ]
}

/// What the user-facing run reports, in the order of [`END_TO_END`]. A
/// query's wall time is the median over the sessions that ran it, which
/// sheds the machine's passing noise; the percentiles are then taken over
/// the distinct queries of the workload. Throughput likewise uses each
/// script's median session.
fn end_to_end_metrics(scripts: &[Script], measured: &Measured) -> Vec<(&'static str, f64)> {
    let mut query_ms = Vec::new();
    let mut queries = 0;
    let mut busy_s = 0.0;
    for (index, script) in scripts.iter().enumerate() {
        let runs: Vec<&Session> = measured
            .plain
            .iter()
            .filter(|s| s.script == index)
            .collect();
        query_ms.extend(
            (0..script.queries.len()).map(|query| median(&over(&runs, |s| s.wall_ms[query]))),
        );
        queries += script.queries.len();
        busy_s += median(&over(&runs, |s| s.busy_s));
    }
    let no_reuse_sim_s: f64 = scripts.iter().map(|s| s.no_reuse_sim_s).sum();
    let reuse_sim_s: f64 = measured.per_script().iter().map(|s| sim_s(&s.cost)).sum();
    vec![
        ("query_wall_ms_p50", median(&query_ms)),
        ("query_wall_ms_p90", percentile(&query_ms, 90.0)),
        ("queries_per_s", ratio(queries as f64, busy_s)),
        ("sim_speedup_x", ratio(no_reuse_sim_s, reuse_sim_s)),
        ("setup_s", median(&over(&measured.setups, |s| s.total_s))),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// A set-up engine with its oracle answers, ready to run sessions.
struct Prepared {
    bench: Bench,
    setups: Vec<SetupTimes>,
    primed_rows: u64,
}

fn prepare(options: &Options) -> Result<Prepared, String> {
    let scratch = Scratch::new(options.workload).map_err(|e| format!("scratch directory: {e}"))?;
    let store = scratch.0.join("store");
    let mut setups = Vec::new();
    let setup = loop {
        let mut setup = set_up(options, &store)?;
        setups.push(std::mem::take(&mut setup.times));
        let spent_s: f64 = setups.iter().map(|s| s.total_s).sum();
        let enough =
            setups.len() >= SETUPS.1 || (setups.len() >= SETUPS.0 && spent_s >= SETUP_BUDGET_S);
        if options.smoke || enough {
            break setup;
        }
    };
    let bench = Bench {
        workload: options.workload,
        db: setup.db,
        scripts: oracle(setup.dataset, setup.scripts)?,
        scratch,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    Ok(Prepared {
        bench,
        setups,
        primed_rows: setup.primed_rows,
    })
}

pub fn run(options: &Options) -> Result<Outcome, String> {
    let workload = options.workload;
    let Prepared {
        mut bench,
        setups,
        primed_rows,
    } = prepare(options)?;
    let n_scripts = bench.scripts.len();

    for warmup in 0..if options.smoke { 0 } else { WARMUP_SESSIONS } {
        bench.session(warmup % n_scripts, Drive::Plain);
    }
    (bench.attempted, bench.failed) = (0, 0);
    bench.failures.clear();

    // Rotate through the scripts, whole sessions only, until the time is up
    // and every script has run.
    let mut measured = Measured {
        setups,
        primed_rows,
        n_scripts,
        plain: Vec::new(),
        untraced: Vec::new(),
        staged: Vec::new(),
        layers: Vec::new(),
    };
    let mut recorders = Vec::new();
    let started = Instant::now();
    for round in 0.. {
        let out_of_time = options.smoke || started.elapsed().as_secs_f64() >= options.seconds;
        if round >= n_scripts && out_of_time {
            break;
        }
        let script = round % n_scripts;
        measured.plain.push(bench.session(script, Drive::Plain));
        if options.trace {
            bench.db.trace().set_enabled(false);
            measured.untraced.push(bench.session(script, Drive::Plain));
            bench.db.trace().set_enabled(true);
            let mut recorder = Recorder::default();
            measured
                .staged
                .push(bench.session(script, Drive::Staged(&mut recorder)));
            measured.layers.push(layer_times(&recorder));
            recorders.push(recorder);
        }
    }

    let per_script = measured.per_script();
    let mut broken = Vec::new();
    // Whether the engine's trace sink is on changes nothing it counts.
    if (measured.all()).any(|s| s.deterministic() != per_script[s.script].deterministic()) {
        broken.push("deterministic counters differ between sessions of one script");
    }
    if workload.resumes() && measured.all().any(|s| s.materialisable_executed != 0) {
        broken.push("a materialisable UDF ran on the restored store");
    }
    let idle = |s: &Session| s.counters.probes + s.counters.udf_calls_executed == 0;
    if workload == Workload::ScanAgg && !per_script.iter().all(idle) {
        broken.push("the UDF-free workload probed a view or ran a UDF");
    }
    bench.failures.extend(broken.into_iter().map(String::from));

    let samples: usize = measured.plain.iter().map(|s| s.wall_ms.len()).sum();
    let distinct: usize = bench.scripts.iter().map(|s| s.queries.len()).sum();
    let mut notes = vec![format!(
        "{} measured sessions of {n_scripts} script(s): {samples} query samples over {distinct} distinct queries \
         (highest percentile with 10 samples beyond: {})",
        measured.plain.len(),
        tail_percentile(samples).map_or("none".to_string(), |p| format!("p{p}")),
    )];

    let metrics = if options.trace {
        let spans_file = output_dir().join(format!("{}.spans.json", workload.name()));
        std::fs::write(&spans_file, chrome_trace(&recorders).to_string())
            .map_err(|e| format!("{}: {e}", spans_file.display()))?;
        notes.push(format!(
            "{} traced sessions; spans in {}",
            recorders.len(),
            spans_file.display()
        ));
        per_layer_metrics(workload, &measured)
    } else {
        end_to_end_metrics(&bench.scripts, &measured)
    };
    let declared = if options.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    assert!(
        metrics
            .iter()
            .map(|m| m.0)
            .eq(declared.iter().map(|m| m.name)),
        "the metrics computed are not the metrics declared"
    );

    Ok(Outcome {
        attempted: bench.attempted,
        failed: bench.failed,
        failures: bench.failures,
        metrics,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn smoke(workload: Workload, trace: bool) -> Options {
        Options {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
            smoke: true,
        }
    }

    #[test]
    fn fingerprint_ignores_row_order_but_not_rows() {
        let mut prepared = prepare(&smoke(Workload::ScanAgg, false)).unwrap();
        let grouped = "SELECT timestamp, COUNT(*) FROM video WHERE id < 50 GROUP BY timestamp";
        let answer = prepared
            .bench
            .db
            .execute_sql(grouped)
            .unwrap()
            .rows()
            .unwrap()
            .batch;
        assert_eq!(answer.len(), 50);
        let mut reversed = answer.clone();
        reversed.rows_mut().reverse();
        assert_eq!(fingerprint(&answer), fingerprint(&reversed));
        reversed.rows_mut().pop();
        assert_ne!(fingerprint(&answer), fingerprint(&reversed));
    }

    /// Negative control: the oracle check must notice a missing row.
    #[test]
    fn a_dropped_row_is_counted_as_a_failure() {
        let mut prepared = prepare(&smoke(Workload::RefineCold, false)).unwrap();
        let bench = &mut prepared.bench;
        bench.db.reset_reuse_state();
        let (index, mut answer) = (0..bench.scripts[0].queries.len())
            .map(|index| {
                let sql = bench.scripts[0].queries[index].sql.clone();
                (
                    index,
                    bench.db.execute_sql(&sql).unwrap().rows().unwrap().batch,
                )
            })
            .find(|(_, answer)| !answer.is_empty())
            .expect("a smoke query with a non-empty answer");
        bench.check(0, index, Ok(&answer));
        assert_eq!((bench.attempted, bench.failed), (1, 0));
        answer.rows_mut().pop();
        bench.check(0, index, Ok(&answer));
        bench.check(0, index, Err("cancelled".to_string()));
        assert_eq!((bench.attempted, bench.failed), (3, 2));
        assert!(
            bench.failures[0].contains("differs from the no-reuse oracle"),
            "{:?}",
            bench.failures
        );
    }

    /// Every name `BENCHMARK.json` lists is emitted exactly once, finite, and
    /// nothing else is: on every workload, in both modes.
    #[test]
    fn smoke_runs_emit_exactly_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let declared = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for workload in Workload::ALL {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let outcome = run(&smoke(workload, trace)).unwrap();
                assert!(
                    outcome.correct(),
                    "{}: {:?}",
                    workload.name(),
                    outcome.failures
                );
                assert!(outcome.attempted > 0 && outcome.failed == 0);
                let names: Vec<&str> = (declared.get(key).unwrap().as_array().iter())
                    .map(|m| m.get("name").unwrap().as_str().unwrap())
                    .collect();
                let emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
                assert_eq!(emitted, names, "{} {key}", workload.name());
                for (name, value) in &outcome.metrics {
                    assert!(value.is_finite(), "{} {name} = {value}", workload.name());
                }
            }
        }
    }

    #[test]
    fn the_resumed_store_answers_without_materialisable_udf_calls() {
        let mut prepared = prepare(&smoke(Workload::ResumeWarm, false)).unwrap();
        let session = prepared.bench.session(0, Drive::Plain);
        assert_eq!(session.materialisable_executed, 0);
        assert_eq!(session.counters.views_quarantined, 0);
        assert!(session.counters.views_recovered > 0 && session.saved_bytes > 0);
        assert!(
            prepared.bench.failures.is_empty(),
            "{:?}",
            prepared.bench.failures
        );
    }
}
