//! The [`EvaDb`] session.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use eva_catalog::{AccuracyLevel, Catalog, TableDef, UdfDef};
use eva_common::{
    CostBreakdown, DataType, EvaError, Field, GovernorConfig, MetricsSink, MetricsSnapshot,
    QueryGovernor, QueryTrace, Result, Schema, SimClock, SpanHists, TraceSink, UdfId,
};
use eva_exec::{execute_governed, ExecConfig, FunCacheTable, QueryOutput, WorkerPool};
use eva_parser::{parse, CreateUdfStmt, SelectStmt, Statement};
use eva_planner::{Binder, CommitLog, Optimizer, PhysPlan, PlannerConfig, ReuseStrategy};
use eva_storage::{RecoveryReport, StorageEngine};
use eva_symbolic::StatsCatalog;
use eva_udf::registry::install_standard_zoo;
use eva_udf::{InvocationStats, UdfBreaker, UdfManager, UdfRegistry};
use eva_video::{jackson, ua_detrac, UaDetracSize, VideoDataset};

use crate::admission::{AdmissionConfig, AdmissionController};

/// Session configuration: planner strategy + executor tunables.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionConfig {
    /// Planner configuration (reuse strategy, ranking, materialization).
    pub planner: PlannerConfig,
    /// Executor configuration.
    pub exec: ExecConfig,
    /// Per-query governance knobs (deadline, memory budget). The
    /// `EVA_QUERY_DEADLINE` / `EVA_QUERY_BUDGET_BYTES` env knobs overlay
    /// this at query start.
    pub governor: GovernorConfig,
}

impl SessionConfig {
    /// Configuration for one of the evaluation's systems-under-test.
    pub fn for_strategy(strategy: ReuseStrategy) -> SessionConfig {
        SessionConfig {
            planner: PlannerConfig::for_strategy(strategy),
            exec: ExecConfig::default(),
            governor: GovernorConfig::default(),
        }
    }
}

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub enum StatementResult {
    /// SELECT output (boxed: it is two orders of magnitude larger than an
    /// acknowledgement).
    Rows(Box<QueryOutput>),
    /// DDL acknowledgement.
    Ack(String),
}

impl StatementResult {
    /// The query output, erroring for DDL.
    pub fn rows(self) -> Result<QueryOutput> {
        match self {
            StatementResult::Rows(q) => Ok(*q),
            StatementResult::Ack(a) => {
                Err(EvaError::Exec(format!("statement produced no rows ({a})")))
            }
        }
    }
}

/// One EVA-RS session: the full VDBMS of Fig. 1.
pub struct EvaDb {
    catalog: Catalog,
    storage: StorageEngine,
    registry: UdfRegistry,
    manager: UdfManager,
    stats: InvocationStats,
    stats_catalog: StatsCatalog,
    clock: SimClock,
    funcache: FunCacheTable,
    config: SessionConfig,
    /// Outcome of the most recent [`EvaDb::load_state`] recovery pass
    /// (what the repl's `\health` command reports).
    last_recovery: std::sync::Mutex<Option<RecoveryReport>>,
    /// Whether [`EvaDb::load_state`] prunes aggregated predicates whose
    /// views did not survive recovery. Always true in production; the
    /// differential fuzzer flips it off to prove its recovery oracle
    /// catches the resulting wrong answers (see `set_recovery_prune`).
    prune_on_load: std::sync::atomic::AtomicBool,
    /// Circuit breaker around UDF evaluation: opens after K consecutive
    /// transient-retry exhaustions, half-opens on a SimClock timer.
    breaker: UdfBreaker,
    /// Optional admission gate; `None` admits everything. Enabled by
    /// `EVA_MAX_CONCURRENT_QUERIES` or [`EvaDb::set_admission`].
    admission: Option<AdmissionController>,
    /// External cancellation flag for the in-flight query; any thread may
    /// set it via the handle from [`EvaDb::cancel_handle`].
    cancel_flag: Arc<AtomicBool>,
}

impl EvaDb {
    /// Create a session with the paper's standard model zoo installed.
    pub fn new(config: SessionConfig) -> Result<EvaDb> {
        let catalog = Catalog::new();
        let registry = UdfRegistry::new();
        install_standard_zoo(&registry, &catalog)?;
        let storage = StorageEngine::new();
        let manager = UdfManager::new(storage.clone());
        Ok(EvaDb {
            catalog,
            storage,
            registry,
            manager,
            stats: InvocationStats::new(),
            stats_catalog: StatsCatalog::new(),
            clock: SimClock::new(),
            funcache: FunCacheTable::new(),
            config,
            last_recovery: std::sync::Mutex::new(None),
            prune_on_load: std::sync::atomic::AtomicBool::new(true),
            breaker: UdfBreaker::default(),
            admission: AdmissionConfig::from_env().map(AdmissionController::new),
            cancel_flag: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Shorthand: a session running the full EVA reuse algorithm.
    pub fn eva() -> Result<EvaDb> {
        EvaDb::new(SessionConfig::for_strategy(ReuseStrategy::Eva))
    }

    // -- component access -----------------------------------------------------

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The storage engine.
    pub fn storage(&self) -> &StorageEngine {
        &self.storage
    }

    /// The registry of simulated models `CREATE UDF … IMPL` resolves
    /// against.
    pub fn registry(&self) -> &UdfRegistry {
        &self.registry
    }

    /// The UDF manager.
    pub fn manager(&self) -> &UdfManager {
        &self.manager
    }

    /// Invocation statistics (hit percentages, Table 2/3).
    pub fn invocation_stats(&self) -> &InvocationStats {
        &self.stats
    }

    /// The histogram statistics catalog.
    pub fn stats_catalog(&self) -> &StatsCatalog {
        &self.stats_catalog
    }

    /// The session's virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Simulated-cost snapshot since session start (or last reset).
    pub fn cost_snapshot(&self) -> CostBreakdown {
        self.clock.snapshot()
    }

    /// The session's runtime metrics sink (shared with the storage engine
    /// and the executor — one set of counters per session).
    pub fn metrics(&self) -> &MetricsSink {
        self.storage.metrics()
    }

    /// Runtime-metrics snapshot since session start (or last reset).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.storage.metrics().snapshot()
    }

    /// The session's trace sink (shared with the storage engine and the
    /// executor — one span tree per query, one histogram set per session).
    pub fn trace(&self) -> &TraceSink {
        self.storage.trace()
    }

    /// Span tree and latency histograms of the most recent query (what the
    /// repl's `\trace` command renders).
    pub fn last_trace(&self) -> QueryTrace {
        self.storage.trace().last_query()
    }

    /// Session-cumulative per-span-kind wall-clock latency histograms.
    pub fn session_latency(&self) -> SpanHists {
        self.storage.trace().session_histograms()
    }

    /// Session configuration.
    pub fn config(&self) -> SessionConfig {
        self.config
    }

    /// Change strategy/config between workloads.
    pub fn set_config(&mut self, config: SessionConfig) {
        self.config = config;
    }

    // -- governance -------------------------------------------------------------

    /// The session's UDF circuit breaker.
    pub fn breaker(&self) -> &UdfBreaker {
        &self.breaker
    }

    /// The admission controller, if admission control is on.
    pub fn admission(&self) -> Option<&AdmissionController> {
        self.admission.as_ref()
    }

    /// Replace the per-query governance knobs for subsequent queries
    /// (deadline, byte budget, cancellation trip point). The fuzz harness
    /// uses this to lift governance mid-session before revalidating a
    /// governed session's surviving answers.
    pub fn set_governor(&mut self, governor: GovernorConfig) {
        self.config.governor = governor;
    }

    /// Install (or remove) an admission controller. Overload tests share
    /// one controller across several single-threaded sessions.
    pub fn set_admission(&mut self, gate: Option<AdmissionController>) {
        self.admission = gate;
    }

    /// A handle any thread can use to cancel this session's in-flight
    /// query (it unwinds with `Cancelled { reason: User }` at the next
    /// batch boundary). The flag is re-armed at each query start.
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel_flag)
    }

    /// Cancel the in-flight query, if any (see [`EvaDb::cancel_handle`]).
    pub fn cancel_current(&self) {
        self.cancel_flag.store(true, Ordering::SeqCst);
    }

    /// Human-readable governance summary (the repl's `\health` tail):
    /// degradation counters, breaker state, admission occupancy.
    pub fn governance_report(&self) -> String {
        let m = self.metrics_snapshot();
        let mut s = format!(
            "governor: degraded queries={} materialization skipped={}\n",
            m.degraded_queries, m.materialization_skipped
        );
        s.push_str(&format!(
            "udf breaker: state={} opened={} half-opened={}\n",
            self.breaker.state_label(),
            self.breaker.times_opened(),
            self.breaker.times_halfopened()
        ));
        match &self.admission {
            Some(gate) => {
                let a = gate.snapshot();
                let cfg = gate.config();
                s.push_str(&format!(
                    "admission: active={}/{} waiting={} admitted={} shed={}\n",
                    a.active, cfg.max_concurrent, a.waiting, a.admitted, a.shed
                ));
            }
            None => s.push_str("admission: off (set EVA_MAX_CONCURRENT_QUERIES to enable)\n"),
        }
        s
    }

    // -- data loading ----------------------------------------------------------

    /// Load a generated dataset under a table name, building statistics.
    pub fn load_video(&mut self, dataset: VideoDataset, table: &str) -> Result<()> {
        let n_rows = dataset.len();
        crate::analyze::build_stats(&dataset, &mut self.stats_catalog);
        let ds_name = dataset.name().to_string();
        self.storage.load_dataset(dataset);
        self.catalog.create_table(TableDef {
            name: table.to_string(),
            schema: video_table_schema(),
            n_rows,
            dataset: ds_name,
        })?;
        Ok(())
    }

    // -- lifecycle --------------------------------------------------------------

    /// Parse, bind, optimize and execute one EVA-QL statement.
    pub fn execute_sql(&mut self, sql: &str) -> Result<StatementResult> {
        match parse(sql)? {
            Statement::Select(stmt) => {
                Ok(StatementResult::Rows(Box::new(self.execute_select(&stmt)?)))
            }
            Statement::CreateUdf(stmt) => self.create_udf(&stmt),
            Statement::LoadVideo(stmt) => {
                let dataset = self.resolve_dataset(&stmt.dataset)?;
                self.load_video(dataset, &stmt.table)?;
                Ok(StatementResult::Ack(format!(
                    "loaded '{}' into table '{}'",
                    stmt.dataset, stmt.table
                )))
            }
            Statement::ShowUdfs => {
                let names: Vec<String> = self.catalog.udfs().into_iter().map(|u| u.name).collect();
                Ok(StatementResult::Ack(names.join(", ")))
            }
            Statement::ShowTables => {
                Ok(StatementResult::Ack(self.catalog.table_names().join(", ")))
            }
            Statement::DropUdf(name) => {
                self.catalog.drop_udf(&name)?;
                Ok(StatementResult::Ack(format!("dropped UDF '{name}'")))
            }
            Statement::DropTable(name) => {
                self.catalog.drop_table(&name)?;
                Ok(StatementResult::Ack(format!("dropped table '{name}'")))
            }
        }
    }

    /// Execute a bound SELECT.
    pub fn execute_select(&mut self, stmt: &SelectStmt) -> Result<QueryOutput> {
        Ok(self.run_select(stmt, None)?.1)
    }

    /// [`EvaDb::execute_select`] with an injected worker pool — tests and
    /// the differential fuzzer pin the worker count; `None` uses the
    /// process-wide pool.
    pub fn execute_select_with_pool(
        &mut self,
        stmt: &SelectStmt,
        pool: Option<&WorkerPool>,
    ) -> Result<QueryOutput> {
        Ok(self.run_select(stmt, pool)?.1)
    }

    /// The governed query lifecycle every SELECT goes through:
    ///
    /// 1. **Admission** — take a slot (or be shed) before any work happens;
    ///    the permit is held for planning *and* execution, and admission
    ///    counters land outside the per-query metrics window.
    /// 2. **Governance** — a fresh [`QueryGovernor`] (session config +
    ///    env overlays + the external cancel flag) rides the exec context.
    /// 3. **Deferred coverage** — plan-time view commits go to a
    ///    [`CommitLog`], applied only when the query completes un-degraded,
    ///    so a cancelled or degraded query never claims coverage for rows
    ///    it did not materialize.
    fn run_select(
        &mut self,
        stmt: &SelectStmt,
        pool: Option<&WorkerPool>,
    ) -> Result<(PhysPlan, QueryOutput)> {
        let _permit = match &self.admission {
            Some(gate) => Some(gate.admit(self.storage.metrics())?),
            None => None,
        };
        self.cancel_flag.store(false, Ordering::SeqCst);
        let governor = QueryGovernor::new(
            self.config.governor.with_env_overrides(),
            self.clock.total_ms(),
        )
        .with_external_cancel(Arc::clone(&self.cancel_flag));
        let commits = CommitLog::new();
        let plan = self.plan(stmt, Some(&commits))?;
        let result = execute_governed(
            &plan,
            &self.storage,
            &self.registry,
            &self.stats,
            &self.clock,
            &self.funcache,
            self.config.exec,
            pool,
            governor.clone(),
            Some(&self.breaker),
        );
        match result {
            Ok(mut out) => {
                if governor.is_degraded() {
                    let skipped = commits.discard() as u64;
                    if skipped > 0 {
                        self.metrics().record_materialization_skipped(skipped);
                        out.metrics.materialization_skipped += skipped;
                    }
                } else {
                    commits.apply(&self.manager);
                }
                Ok((plan, out))
            }
            Err(e) => {
                commits.discard();
                Err(e)
            }
        }
    }

    /// Produce the physical plan for a SELECT without executing it. Claims
    /// no coverage: only a query that ran to completion folds into `p_u`.
    pub fn plan_select(&self, stmt: &SelectStmt) -> Result<PhysPlan> {
        self.plan(stmt, None)
    }

    /// Bind and optimize, recording the plan's coverage commits in `commits`.
    fn plan(&self, stmt: &SelectStmt, commits: Option<&CommitLog>) -> Result<PhysPlan> {
        let logical = Binder::new(&self.catalog).bind_select(stmt)?;
        let optimizer = Optimizer {
            catalog: &self.catalog,
            manager: &self.manager,
            stats: &self.stats_catalog,
            config: self.config.planner,
            commits,
        };
        optimizer.optimize(&logical, &self.clock)
    }

    /// EXPLAIN: the physical plan text for a SELECT statement.
    pub fn explain(&self, sql: &str) -> Result<String> {
        match parse(sql)? {
            Statement::Select(stmt) => Ok(self.plan_select(&stmt)?.explain()),
            other => Err(EvaError::Plan(format!("cannot explain {other:?}"))),
        }
    }

    /// EXPLAIN ANALYZE: *execute* the SELECT and render its plan tree
    /// annotated with per-operator runtime statistics — actual rows, probe
    /// hit rates, UDF calls executed versus avoided, and cumulative
    /// simulated cost (see [`PhysPlan::explain_analyze`]).
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        Ok(self.explain_analyze_query(sql)?.0)
    }

    /// Like [`EvaDb::explain_analyze`], additionally returning the full
    /// [`QueryOutput`] (result rows, cost breakdown, metrics delta) of the
    /// run that produced the annotations.
    pub fn explain_analyze_query(&mut self, sql: &str) -> Result<(String, QueryOutput)> {
        let stmt = match parse(sql)? {
            Statement::Select(stmt) => stmt,
            other => return Err(EvaError::Plan(format!("cannot explain {other:?}"))),
        };
        let (plan, out) = self.run_select(&stmt, None)?;
        let mut text = plan.explain_analyze(&out.op_stats);
        if !text.ends_with('\n') {
            text.push('\n');
        }
        text.push_str(&runtime_footer(&out));
        Ok((text, out))
    }

    /// Reset all reuse state — views, aggregated predicates, caches,
    /// counters and the clock — so a workload starts clean (§5.1: "We
    /// evaluate every workload from a clean state").
    pub fn reset_reuse_state(&self) {
        self.storage.clear_views();
        self.manager.reset();
        self.funcache.clear();
        self.stats.reset();
        self.clock.reset();
        self.storage.metrics().reset();
        self.storage.trace().reset();
    }

    /// Persist the session's reuse state — materialized views plus the UDF
    /// manager's aggregated predicates — to a directory.
    pub fn save_state(&self, dir: &std::path::Path) -> Result<()> {
        self.storage.save_views(dir)?;
        self.manager.save(dir)
    }

    /// Restore reuse state saved with [`EvaDb::save_state`]. Subsequent
    /// queries immediately reuse the restored views.
    ///
    /// This is a *recovery pass*, not a plain load: damaged segments are
    /// quarantined and the session continues with whatever survived — a
    /// quarantined view is simply cold and is re-materialized by the next
    /// query that needs it. A damaged manager file degrades the same way
    /// (aggregated predicates start cold), and predicates pointing at views
    /// that did not survive are pruned, so the planner can never claim
    /// coverage a quarantined view no longer provides.
    ///
    /// The load *replaces* the session's views and aggregated predicates:
    /// both are cleared first, so a live signature can never keep claiming
    /// coverage through a view id that now holds another UDF's rows. A
    /// missing directory is an `Io` error that leaves the session as it was.
    pub fn load_state(&self, dir: &std::path::Path) -> Result<RecoveryReport> {
        let mut report = self.storage.load_views(dir)?;
        self.manager.reset();
        if let Err(e) = self.manager.load(dir) {
            let what = match e {
                EvaError::Corrupt(_) => "state corrupt",
                _ => "state unavailable",
            };
            report.manager_note = Some(format!("{what} — starting cold ({e})"));
        }
        let pruned = if self
            .prune_on_load
            .load(std::sync::atomic::Ordering::Relaxed)
        {
            self.manager.prune_dangling()
        } else {
            Vec::new()
        };
        if !pruned.is_empty() {
            let names: Vec<&str> = pruned.iter().map(|s| s.name.as_str()).collect();
            let note = format!(
                "pruned {} predicate(s) whose views did not survive: {}",
                pruned.len(),
                names.join(", ")
            );
            report.manager_note = Some(match report.manager_note.take() {
                Some(prev) => format!("{prev}; {note}"),
                None => note,
            });
        }
        *self.last_recovery.lock().expect("recovery lock") = Some(report.clone());
        Ok(report)
    }

    /// The outcome of the most recent [`EvaDb::load_state`] call, if any.
    pub fn health_report(&self) -> Option<RecoveryReport> {
        self.last_recovery.lock().expect("recovery lock").clone()
    }

    /// Testing hook: enable or disable the dangling-predicate prune inside
    /// [`EvaDb::load_state`]. Disabling it deliberately reintroduces the
    /// wrong-answer bug PR 4 fixed (the planner claims coverage from views
    /// that were quarantined) — the differential fuzzer's sabotage mode uses
    /// this to prove its recovery oracle and shrinker work end to end.
    #[doc(hidden)]
    pub fn set_recovery_prune(&self, enabled: bool) {
        self.prune_on_load
            .store(enabled, std::sync::atomic::Ordering::Relaxed);
    }

    // -- helpers -----------------------------------------------------------------

    fn create_udf(&mut self, stmt: &CreateUdfStmt) -> Result<StatementResult> {
        // IMPL must resolve to a registered simulated model.
        let sim = self.registry.get(&stmt.impl_id)?;
        let accuracy = stmt
            .properties
            .iter()
            .find(|(k, _)| k == "ACCURACY")
            .map(|(_, v)| AccuracyLevel::parse(v))
            .transpose()?
            .unwrap_or(AccuracyLevel::Medium);
        let input = Schema::new(
            stmt.input
                .iter()
                .map(|(n, t)| Field::new(n.clone(), *t))
                .collect(),
        )?;
        let output = if stmt.output.is_empty() {
            (*sim.output_schema()).clone()
        } else {
            Schema::new(
                stmt.output
                    .iter()
                    .map(|(n, t)| Field::new(n.clone(), *t))
                    .collect(),
            )?
        };
        self.catalog.create_udf(
            UdfDef {
                id: UdfId(0),
                name: stmt.name.clone(),
                input,
                output,
                impl_id: stmt.impl_id.clone(),
                logical_type: stmt.logical_type.clone(),
                accuracy,
                cost_ms: Some(sim.cost_ms()),
                gpu: sim.gpu(),
            },
            stmt.or_replace,
        )?;
        Ok(StatementResult::Ack(format!("created UDF '{}'", stmt.name)))
    }

    /// Resolve a dataset name: already-loaded datasets win; otherwise the
    /// well-known synthetic datasets are generated on demand (seed 7).
    fn resolve_dataset(&self, name: &str) -> Result<VideoDataset> {
        if let Ok(ds) = self.storage.dataset(name) {
            return Ok((*ds).clone());
        }
        const SEED: u64 = 7;
        match name {
            "short_ua_detrac" => Ok(ua_detrac(UaDetracSize::Short, SEED)),
            "medium_ua_detrac" => Ok(ua_detrac(UaDetracSize::Medium, SEED)),
            "long_ua_detrac" => Ok(ua_detrac(UaDetracSize::Long, SEED)),
            "jackson" => Ok(jackson(SEED)),
            other => Err(EvaError::Storage(format!(
                "unknown dataset '{other}' (known: short/medium/long_ua_detrac, jackson)"
            ))),
        }
    }
}

fn video_table_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("timestamp", DataType::Int),
        Field::new("frame", DataType::Frame),
    ])
    .expect("static schema is valid")
}

/// The `-- runtime --` footer appended to `EXPLAIN ANALYZE`: the query's
/// span tree plus per-kind wall-clock latency summaries, and a resilience
/// line when the run saw recovery or retry activity. Golden tests compare
/// only the plan tree above the marker — wall numbers are nondeterministic.
fn runtime_footer(out: &QueryOutput) -> String {
    let mut s = String::from("-- runtime --\n");
    s.push_str(&out.trace.render());
    for (kind, h) in out.trace.hists.non_empty() {
        s.push_str(&format!(
            "latency {:<12} {}\n",
            kind.label(),
            h.summary(|ns| format!("{:.3}ms", ns as f64 / 1e6))
        ));
    }
    let m = &out.metrics;
    if m.views_recovered + m.views_quarantined + m.udf_retries + m.udf_gave_up > 0 {
        s.push_str(&format!(
            "resilience: views recovered={} quarantined={} | udf retries={} gave-up={}\n",
            m.views_recovered, m.views_quarantined, m.udf_retries, m.udf_gave_up
        ));
    }
    if m.degraded_queries + m.materialization_skipped + m.udf_breaker_open + m.udf_breaker_halfopen
        > 0
    {
        s.push_str(&format!(
            "governance: degraded={} materialization skipped={} | breaker opened={} \
             half-opened={}\n",
            m.degraded_queries,
            m.materialization_skipped,
            m.udf_breaker_open,
            m.udf_breaker_halfopen
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_video::generator::generate;
    use eva_video::VideoConfig;

    fn tiny() -> VideoDataset {
        generate(VideoConfig {
            name: "tiny".into(),
            n_frames: 240,
            width: 96,
            height: 54,
            fps: 25.0,
            target_density: 8.0,
            person_fraction: 0.0,
            seed: 11,
        })
    }

    fn session(strategy: ReuseStrategy) -> EvaDb {
        let mut db = EvaDb::new(SessionConfig::for_strategy(strategy)).unwrap();
        db.load_video(tiny(), "video").unwrap();
        db
    }

    const Q: &str = "SELECT id, bbox FROM video CROSS APPLY \
                     fasterrcnn_resnet50(frame) WHERE id < 120 AND label = 'car' \
                     AND cartype(frame, bbox) = 'Nissan'";

    #[test]
    fn end_to_end_select() {
        let mut db = session(ReuseStrategy::Eva);
        let out = db.execute_sql(Q).unwrap().rows().unwrap();
        assert!(out.n_rows() > 0, "expected some Nissans");
        // Detector cost dominates the breakdown.
        let udf_ms = out.breakdown.get(eva_common::CostCategory::Udf);
        assert!(udf_ms > 120.0 * 99.0 * 0.5, "udf_ms={udf_ms}");
    }

    #[test]
    fn reuse_accelerates_second_run_and_preserves_results() {
        let mut db = session(ReuseStrategy::Eva);
        let first = db.execute_sql(Q).unwrap().rows().unwrap();
        let second = db.execute_sql(Q).unwrap().rows().unwrap();
        assert_eq!(first.batch.rows(), second.batch.rows(), "same results");
        assert!(
            second.sim_secs() < first.sim_secs() * 0.2,
            "second run should be ≥5x faster: {} vs {}",
            first.sim_secs(),
            second.sim_secs()
        );
        assert!(db.invocation_stats().hit_percentage() > 0.0);
    }

    #[test]
    fn no_reuse_never_accelerates() {
        let mut db = session(ReuseStrategy::NoReuse);
        let first = db.execute_sql(Q).unwrap().rows().unwrap();
        let second = db.execute_sql(Q).unwrap().rows().unwrap();
        let ratio = second.sim_secs() / first.sim_secs();
        assert!(
            (0.95..1.05).contains(&ratio),
            "no-reuse runs should cost the same, ratio={ratio}"
        );
        assert_eq!(db.invocation_stats().hit_percentage(), 0.0);
    }

    #[test]
    fn strategies_agree_on_results() {
        let mut reference: Option<Vec<eva_common::Row>> = None;
        for strategy in [
            ReuseStrategy::NoReuse,
            ReuseStrategy::Eva,
            ReuseStrategy::HashStash,
            ReuseStrategy::FunCache,
        ] {
            let mut db = session(strategy);
            let mut out = db.execute_sql(Q).unwrap().rows().unwrap();
            let mut rows = std::mem::take(out.batch.rows_mut());
            rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            match &reference {
                Some(r) => assert_eq!(r, &rows, "strategy {strategy:?} differs"),
                None => reference = Some(rows),
            }
        }
    }

    #[test]
    fn ddl_round_trip() {
        let mut db = session(ReuseStrategy::Eva);
        let r = db.execute_sql("SHOW TABLES").unwrap();
        assert!(matches!(r, StatementResult::Ack(ref s) if s.contains("video")));
        db.execute_sql(
            "CREATE UDF my_yolo INPUT = (frame FRAME) OUTPUT = (label STR, bbox BBOX, \
             score FLOAT) IMPL = 'sim/yolo_tiny' LOGICAL_TYPE = objectdetector \
             PROPERTIES = ('ACCURACY' = 'LOW')",
        )
        .unwrap();
        assert!(db.catalog().has_udf("my_yolo"));
        db.execute_sql("DROP UDF my_yolo").unwrap();
        assert!(!db.catalog().has_udf("my_yolo"));
        // Unknown impl rejected.
        assert!(db
            .execute_sql("CREATE UDF bad INPUT = (frame FRAME) OUTPUT = (x STR) IMPL = 'nope'")
            .is_err());
    }

    #[test]
    fn explain_shows_reuse_decorations() {
        let mut db = session(ReuseStrategy::Eva);
        db.execute_sql(Q).unwrap().rows().unwrap();
        let text = db.explain(Q).unwrap();
        assert!(text.contains("ScanFrames video [0, 120)"), "{text}");
        assert!(text.contains("+view"), "{text}");
    }

    #[test]
    fn reset_restores_clean_state() {
        let mut db = session(ReuseStrategy::Eva);
        db.execute_sql(Q).unwrap().rows().unwrap();
        assert!(db.storage().total_view_bytes() > 0);
        db.reset_reuse_state();
        assert_eq!(db.storage().total_view_bytes(), 0);
        assert_eq!(db.invocation_stats().hit_percentage(), 0.0);
        assert_eq!(db.cost_snapshot().total_ms(), 0.0);
        let m = db.metrics_snapshot();
        assert_eq!(m.probes, 0, "metrics survive reset: {m:?}");
        assert_eq!(m.udf_calls_requested, 0, "metrics survive reset: {m:?}");
    }

    #[test]
    fn explain_analyze_warm_run_reports_reuse() {
        let mut db = session(ReuseStrategy::Eva);
        db.execute_sql(Q).unwrap().rows().unwrap();
        let cold = db.metrics_snapshot();
        assert!(cold.udf_calls_executed > 0, "{cold:?}");
        assert_eq!(cold.probe_hits, 0, "cold run cannot hit views: {cold:?}");

        let (text, out) = db.explain_analyze_query(Q).unwrap();
        // The annotated tree carries per-operator runtime stats…
        assert!(text.contains("rows="), "{text}");
        assert!(text.contains("probes="), "{text}");
        // …and the warm repeat served every detector row from views.
        assert!(out.metrics.probe_hits > 0, "{:?}", out.metrics);
        assert!(out.metrics.udf_calls_avoided > 0, "{:?}", out.metrics);
        assert_eq!(
            out.metrics.probes,
            out.metrics.probe_hits + out.metrics.probe_misses,
            "{:?}",
            out.metrics
        );
        // The Apply annotations themselves must show nonzero reuse, not
        // just the aggregate snapshot.
        let apply_line = text
            .lines()
            .find(|l| l.contains("avoided="))
            .expect("an Apply node renders reuse counters");
        assert!(!apply_line.contains("avoided=0"), "{apply_line}");
    }

    #[test]
    fn explain_analyze_executes_and_rejects_non_select() {
        let mut db = session(ReuseStrategy::Eva);
        // explain_analyze actually runs the query: views materialize.
        assert_eq!(db.storage().total_view_bytes(), 0);
        let text = db.explain_analyze(Q).unwrap();
        assert!(db.storage().total_view_bytes() > 0);
        assert!(text.contains("ScanFrames"), "{text}");
        assert!(db.explain_analyze("SHOW TABLES").is_err());
    }

    fn unique_dir(tag: &str) -> std::path::PathBuf {
        eva_common::testutil::unique_temp_dir(&format!("session_{tag}"))
    }

    #[test]
    fn save_load_state_round_trips_with_clean_report() {
        let dir = unique_dir("clean");
        let mut db = session(ReuseStrategy::Eva);
        let baseline = db.execute_sql(Q).unwrap().rows().unwrap();
        db.save_state(&dir).unwrap();

        let mut db2 = session(ReuseStrategy::Eva);
        assert!(db2.health_report().is_none(), "no load yet");
        let report = db2.load_state(&dir).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(db2.health_report(), Some(report));
        // The restored state serves the repeat query by reuse.
        let out = db2.execute_sql(Q).unwrap().rows().unwrap();
        assert_eq!(out.batch.rows(), baseline.batch.rows());
        assert!(out.metrics.probe_hits > 0, "{:?}", out.metrics);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_segment_degrades_gracefully_and_self_heals() {
        let dir = unique_dir("degrade");
        let mut db = session(ReuseStrategy::Eva);
        let baseline = db.execute_sql(Q).unwrap().rows().unwrap();
        db.save_state(&dir).unwrap();

        // Silent corruption lands in one segment while the engine is down.
        let victim = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| Some(e.ok()?.path()))
            .find(|p| p.extension().is_some_and(|x| x == "seg"))
            .expect("a segment file exists");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&victim, bytes).unwrap();

        let mut db2 = session(ReuseStrategy::Eva);
        let report = db2.load_state(&dir).unwrap();
        assert_eq!(report.quarantined.len(), 1, "{report}");
        // The stale aggregated predicate was pruned with the view, so the
        // planner cannot claim coverage the store no longer has…
        let note = report.manager_note.as_deref().unwrap_or("");
        assert!(note.contains("pruned"), "{report}");
        // …and the query self-heals: correct answer, view re-materialized.
        let out = db2.execute_sql(Q).unwrap().rows().unwrap();
        assert_eq!(out.batch.rows(), baseline.batch.rows());
        let m = db2.metrics_snapshot();
        assert_eq!(m.views_quarantined, 1, "{m:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manager_state_starts_cold_not_failed() {
        let dir = unique_dir("no_manager");
        let mut db = session(ReuseStrategy::Eva);
        db.execute_sql(Q).unwrap().rows().unwrap();
        db.save_state(&dir).unwrap();
        std::fs::remove_file(dir.join(eva_udf::MANAGER_FILE)).unwrap();

        let mut db2 = session(ReuseStrategy::Eva);
        let report = db2.load_state(&dir).unwrap();
        let note = report.manager_note.as_deref().unwrap_or("");
        assert!(note.contains("starting cold"), "{report}");
        // Views loaded fine; queries still run (predicates just rebuild).
        assert!(!report.loaded.is_empty(), "{report}");
        db2.execute_sql(Q).unwrap().rows().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_cancels_cleanly_and_claims_no_coverage() {
        let mut cfg = SessionConfig::for_strategy(ReuseStrategy::Eva);
        cfg.governor.deadline_ms = Some(10.0); // far below the ~12s detector cost
        let mut db = EvaDb::new(cfg).unwrap();
        db.load_video(tiny(), "video").unwrap();
        let err = db.execute_sql(Q).unwrap_err();
        assert_eq!(
            err.cancel_reason(),
            Some(eva_common::CancelReason::Deadline),
            "{err}"
        );
        // The deferred commit log was dropped: no coverage claimed for the
        // rows the cancelled query never materialized.
        let det_sig = eva_udf::UdfSignature::new("fasterrcnn_resnet50", "video", &["frame"]);
        assert!(db.manager().aggregated(&det_sig).is_false());
        // The session survives: lifting the deadline re-runs to completion
        // with correct results.
        let mut cfg = db.config();
        cfg.governor.deadline_ms = None;
        db.set_config(cfg);
        let out = db.execute_sql(Q).unwrap().rows().unwrap();
        assert!(out.n_rows() > 0);
        assert!(!db.manager().aggregated(&det_sig).is_false());
    }

    #[test]
    fn explain_claims_no_coverage_and_leaves_later_plans_alone() {
        const CARTYPE_Q: &str = "SELECT id FROM video CROSS APPLY \
             fasterrcnn_resnet50(frame) WHERE id < 120 AND label = 'car' \
             AND cartype(frame, bbox) = 'Toyota'";
        const BOTH_Q: &str = "SELECT id FROM video CROSS APPLY \
             fasterrcnn_resnet50(frame) WHERE id < 120 AND label = 'car' \
             AND cartype(frame, bbox) = 'Toyota' AND colordet(frame, bbox) = 'Gray'";
        let db = session(ReuseStrategy::Eva);
        let first = db.explain(CARTYPE_Q).unwrap();
        // Nothing ran, so nothing is covered — by the detector's view or
        // by cartype's.
        let views = db.manager().view_sizes();
        assert_eq!(views.len(), 2, "{views:?}");
        for sig in views.keys() {
            assert!(db.manager().aggregated(sig).is_false(), "{sig}");
        }
        assert_eq!(
            db.explain(CARTYPE_Q).unwrap(),
            first,
            "EXPLAIN is idempotent"
        );
        // A session that EXPLAINed plans the next query exactly like one
        // that did not (coverage claimed for cartype would rank it first).
        let fresh = session(ReuseStrategy::Eva);
        assert_eq!(db.explain(BOTH_Q).unwrap(), fresh.explain(BOTH_Q).unwrap());
    }

    #[test]
    fn budget_trip_degrades_aggregation_and_skips_materialization() {
        const AGG_Q: &str = "SELECT label, COUNT(*) AS n FROM video CROSS APPLY \
                             fasterrcnn_resnet50(frame) WHERE id < 30 GROUP BY label";
        // Reference: the same query ungoverned.
        let mut clean = session(ReuseStrategy::Eva);
        let mut want = clean.execute_sql(AGG_Q).unwrap().rows().unwrap();
        want.batch
            .rows_mut()
            .sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));

        // A budget below one aggregation group's 64-byte charge trips on
        // the first batch and degrades rather than failing.
        let mut cfg = SessionConfig::for_strategy(ReuseStrategy::Eva);
        cfg.governor.budget_bytes = Some(32);
        let mut db = EvaDb::new(cfg).unwrap();
        db.load_video(tiny(), "video").unwrap();
        let mut out = db.execute_sql(AGG_Q).unwrap().rows().unwrap();
        out.batch
            .rows_mut()
            .sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        assert_eq!(
            out.batch.rows(),
            want.batch.rows(),
            "degraded mode is exact"
        );
        assert_eq!(out.metrics.degraded_queries, 1, "{:?}", out.metrics);
        assert!(out.metrics.materialization_skipped > 0, "{:?}", out.metrics);
        // The planner skipped new view coverage for the degraded query.
        let det_sig = eva_udf::UdfSignature::new("fasterrcnn_resnet50", "video", &["frame"]);
        assert!(db.manager().aggregated(&det_sig).is_false());
        // EXPLAIN ANALYZE surfaces the governance footer on a repeat run.
        let (text, _) = db.explain_analyze_query(AGG_Q).unwrap();
        assert!(text.contains("governance:"), "{text}");
        assert!(text.contains("degraded=1"), "{text}");
    }

    #[test]
    fn budget_trip_without_degradation_path_cancels() {
        // A plain scan has no streaming fallback: its result buffer is the
        // retained state, so tripping the budget cancels with `Budget`.
        let mut cfg = SessionConfig::for_strategy(ReuseStrategy::Eva);
        cfg.governor.budget_bytes = Some(256); // < 30 rows × 64 bytes
        let mut db = EvaDb::new(cfg).unwrap();
        db.load_video(tiny(), "video").unwrap();
        let err = db
            .execute_sql("SELECT id, timestamp FROM video WHERE id < 30")
            .unwrap_err();
        assert_eq!(
            err.cancel_reason(),
            Some(eva_common::CancelReason::Budget),
            "{err}"
        );
    }

    /// The stock detector, raising the session's cancel flag on its `nth`
    /// call: a cancel that arrives during execution by construction, with
    /// no second thread to race the query against.
    struct CancelOnNthCall {
        inner: Arc<dyn eva_udf::SimUdf>,
        calls: std::sync::atomic::AtomicU64,
        nth: u64,
        cancel: Arc<AtomicBool>,
    }

    impl eva_udf::SimUdf for CancelOnNthCall {
        fn impl_id(&self) -> &str {
            self.inner.impl_id()
        }
        fn cost_ms(&self) -> f64 {
            self.inner.cost_ms()
        }
        fn output_schema(&self) -> Arc<eva_common::Schema> {
            self.inner.output_schema()
        }
        fn key_kind(&self) -> eva_storage::ViewKeyKind {
            self.inner.key_kind()
        }
        fn eval_into(
            &self,
            ctx: &eva_udf::UdfEvalContext<'_>,
            out: &mut [eva_common::ColumnBuilder],
        ) -> eva_common::Result<u32> {
            if self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.nth {
                self.cancel.store(true, Ordering::SeqCst);
            }
            self.inner.eval_into(ctx, out)
        }
    }

    #[test]
    fn external_cancel_unwinds_as_user_cancellation() {
        let mut db = session(ReuseStrategy::Eva);
        // A stale cancel from before the query does not kill it: the flag
        // is re-armed at query start.
        db.cancel_current();
        db.execute_sql("SELECT id FROM video WHERE id < 5")
            .unwrap()
            .rows()
            .unwrap();
        // A cancel arriving *during* execution does: the detector raises
        // the flag on its 40th frame, well after the re-arm at query start.
        let stock = db.registry().get("sim/fasterrcnn_resnet50").unwrap();
        db.registry().register(Arc::new(CancelOnNthCall {
            inner: stock,
            calls: Default::default(),
            nth: 40,
            cancel: db.cancel_handle(),
        }));
        let err = db.execute_sql(Q).unwrap_err();
        assert_eq!(
            err.cancel_reason(),
            Some(eva_common::CancelReason::User),
            "{err}"
        );
        // The session stays usable after the cancellation.
        db.execute_sql("SELECT id FROM video WHERE id < 5")
            .unwrap()
            .rows()
            .unwrap();
    }

    #[test]
    fn admission_gate_admits_and_frees_slots_in_session() {
        let mut db = session(ReuseStrategy::Eva);
        let gate = crate::admission::AdmissionController::new(crate::admission::AdmissionConfig {
            max_concurrent: 1,
            max_waiters: 0,
            queue_deadline_ms: None,
        });
        db.set_admission(Some(gate.clone()));
        db.execute_sql("SELECT id FROM video WHERE id < 5")
            .unwrap()
            .rows()
            .unwrap();
        db.execute_sql("SELECT id FROM video WHERE id < 5")
            .unwrap()
            .rows()
            .unwrap();
        let s = gate.snapshot();
        assert_eq!((s.active, s.admitted, s.shed), (0, 2, 0), "{s:?}");
        assert_eq!(db.metrics_snapshot().queries_admitted, 2);
    }

    #[test]
    fn group_by_count() {
        let mut db = session(ReuseStrategy::Eva);
        let out = db
            .execute_sql(
                "SELECT label, COUNT(*) AS n FROM video CROSS APPLY \
                 fasterrcnn_resnet50(frame) WHERE id < 30 GROUP BY label",
            )
            .unwrap()
            .rows()
            .unwrap();
        assert!(out.n_rows() >= 1);
        let schema = out.batch.schema().clone();
        assert_eq!(schema.fields()[0].name, "label");
        assert_eq!(schema.fields()[1].name, "n");
        let n = out.batch.value(0, "n").unwrap().as_int().unwrap();
        assert!(n > 0);
    }
}
