//! The query optimizer: canonical rules + the semantic-reuse pipeline.
//!
//! Mirrors the four steps of Fig. 1:
//!
//! 1. **Identify candidate UDFs** — profiled cost ≥ threshold.
//! 2. **Compute UDF signatures** — [`UdfSignature`] per invocation.
//! 3. **Materialization-aware optimizations** — predicate reordering with
//!    Eq. 4 and logical-UDF model selection via Algorithm 2.
//! 4. **Rule-based transformation** — Rule I (unpack a selection with
//!    multiple UDF predicates into a chain of conditional applies, Fig. 3)
//!    and Rule II (probe the materialized view, evaluate only on miss, STORE
//!    fresh results, Fig. 4 — fused into one physical apply).
//!
//! The optimizer also supports the evaluation baselines as strategies:
//! No-Reuse, HashStash ([`ReuseStrategy::HashStash`]) and FunCache
//! (tuple-level hashing cache, canonical ranking) — §5.1.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use eva_catalog::{AccuracyLevel, Catalog, UdfDef};
use eva_common::{CostCategory, DataType, EvaError, OpId, Result, Schema, SimClock};
use eva_expr::{conjoin, util::substitute_udf, Expr, UdfCall};
use eva_symbolic::{inter, to_dnf, udf_dim, Dnf, StatsCatalog};
use eva_udf::{UdfManager, UdfSignature};

use crate::commits::CommitLog;
use crate::cost::PredicateProfile;
use crate::plan::{ApplyReuse, ApplySpec, LogicalPlan, PhysPlan, Segment};
use crate::reorder::{order_by_rank, RankingKind};
use crate::rules::{classify_predicates, extract_scan_range};
use crate::setcover::{optimal_physical_udfs, Choice, PhysicalCandidate};

/// Which reuse machinery a session runs with (§5.1's systems under test).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReuseStrategy {
    /// Evaluate everything, materialize nothing.
    NoReuse,
    /// The full semantic reuse algorithm of the paper.
    #[default]
    Eva,
    /// HashStash's operator-level reuse, with canonical ranking. A
    /// frame-level apply stores its output in a view and probes it; a
    /// box-level predicate UDF never stores or probes. (HashStash recycles
    /// whole operator outputs matched without their predicates, and a UDF
    /// inside a selection predicate is no operator of its own.) The store
    /// arm is in `fallback_segment`, the probe arm in `decorate`.
    HashStash,
    /// Tuple-level function caching with per-call input hashing.
    FunCache,
}

/// Planner configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Reuse strategy.
    pub strategy: ReuseStrategy,
    /// Ranking function for predicate reordering.
    pub ranking: RankingKind,
    /// Whether EVA materializes fresh UDF results (STORE). Ignored by the
    /// baselines (HashStash always stores operator outputs; FunCache caches
    /// in memory).
    pub materialize: bool,
    /// Cost threshold above which a UDF is a materialization candidate
    /// (filters out AREA-like UDFs, §3.1 ①).
    pub candidate_threshold_ms: f64,
    /// Per-row view read cost (`c_r`, incl. the 3× join factor of Eq. 3).
    pub view_read_ms_per_row: f64,
    /// Resolve logical UDFs with Algorithm 2's set cover. When `false`, a
    /// logical task is substituted by the cheapest eligible model (the
    /// Min-Cost baseline of Fig. 10) while per-model view reuse still works.
    pub logical_set_cover: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            strategy: ReuseStrategy::Eva,
            ranking: RankingKind::MaterializationAware,
            materialize: true,
            candidate_threshold_ms: 1.0,
            view_read_ms_per_row: 0.15,
            logical_set_cover: true,
        }
    }
}

impl PlannerConfig {
    /// Configuration for a named baseline.
    pub fn for_strategy(strategy: ReuseStrategy) -> PlannerConfig {
        let ranking = match strategy {
            ReuseStrategy::Eva => RankingKind::MaterializationAware,
            _ => RankingKind::Canonical,
        };
        PlannerConfig {
            strategy,
            ranking,
            ..PlannerConfig::default()
        }
    }
}

/// The optimizer. Borrows the session's shared components.
pub struct Optimizer<'a> {
    /// Catalog (UDF definitions, tables).
    pub catalog: &'a Catalog,
    /// UDF manager (signatures → aggregated predicates + views).
    pub manager: &'a UdfManager,
    /// Histogram statistics.
    pub stats: &'a StatsCatalog,
    /// Configuration.
    pub config: PlannerConfig,
    /// Where the plan's coverage commits are recorded, for the caller to
    /// apply once the query has completed (a cancelled query never claims
    /// coverage for rows it did not materialize). `None` plans without
    /// claiming anything — what `EXPLAIN` and planner benchmarks want.
    pub commits: Option<&'a CommitLog>,
}

/// The decomposed shape every bound EVA-QL query has:
/// `tail(proj-applies(filter?(detector-applies(scan))))`.
struct Decomposed<'p> {
    tail: Vec<&'p LogicalPlan>,
    proj_applies: Vec<(UdfCall, bool)>,
    filter: Option<Expr>,
    det_applies: Vec<(UdfCall, bool)>,
    scan: (String, String, u64, Arc<Schema>),
}

impl<'a> Optimizer<'a> {
    /// Optimize a bound logical plan into a physical plan. Real wall time
    /// spent here is charged to the virtual clock's `Optimize` category
    /// (Fig. 6b's optimizer-overhead series).
    pub fn optimize(&self, plan: &LogicalPlan, clock: &SimClock) -> Result<PhysPlan> {
        let started = Instant::now();
        let result = self.optimize_inner(plan);
        clock.charge(
            CostCategory::Optimize,
            started.elapsed().as_secs_f64() * 1000.0,
        );
        result
    }

    fn optimize_inner(&self, plan: &LogicalPlan) -> Result<PhysPlan> {
        let d = decompose(plan)?;
        let (table, dataset, n_rows, scan_schema) = d.scan.clone();

        // Canonical rules: split, classify, fold.
        let classified = match &d.filter {
            Some(p) => classify_predicates(p, &scan_schema),
            None => Default::default(),
        };
        let range = extract_scan_range(&classified.scan, n_rows);
        let n_scanned = (range.1 - range.0) as f64;

        let mut phys = PhysPlan::ScanFrames {
            id: OpId::UNSET,
            table: table.clone(),
            dataset,
            range,
            schema: Arc::clone(&scan_schema),
        };
        if !classified.scan.is_empty() {
            phys = PhysPlan::Filter {
                id: OpId::UNSET,
                input: Box::new(phys),
                predicate: conjoin(classified.scan.clone()),
            };
        }

        // Split the UDF-based predicate atoms into frame-level atoms that can
        // run *before* the detector (specialized filters, §5.6 — they gate
        // expensive inference) and box-level atoms that need detector output.
        let mut pre_det_atoms: Vec<Expr> = Vec::new();
        let mut box_atoms: Vec<Expr> = Vec::new();
        for atom in &classified.udf_atoms {
            let frame_level = eva_expr::referenced_columns(atom)
                .iter()
                .all(|c| scan_schema.index_of(c).is_some());
            if frame_level {
                pre_det_atoms.push(atom.clone());
            } else {
                box_atoms.push(atom.clone());
            }
        }

        // Pre-detector UDF predicates (ranked among themselves).
        let mut pre_det_exprs: Vec<Expr> = classified.scan.clone();
        let scan_dnf0 = dnf_or_true(&classified.scan);
        let scan_sel0 = self.stats.dnf_selectivity(&scan_dnf0).max(1e-9);
        let pre_order = self.rank_udf_atoms(&pre_det_atoms, &table, &scan_dnf0, scan_sel0);
        for idx in pre_order {
            let atom = &pre_det_atoms[idx];
            let call = single_udf_call(atom)?;
            let out_col = self.scalar_out_col(&call)?;
            phys = self.plan_scalar_apply(phys, &call, &table, &pre_det_exprs)?;
            let rewritten = substitute_udf(atom.clone(), &call, &Expr::col(out_col));
            phys = PhysPlan::Filter {
                id: OpId::UNSET,
                input: Box::new(phys),
                predicate: rewritten,
            };
            pre_det_exprs.push(atom.clone());
        }

        // Base predicate (frames reaching the detector) for reuse analysis.
        let scan_dnf = dnf_or_true(&pre_det_exprs);

        // Detector applies (CROSS APPLY chain).
        for (call, logical) in &d.det_applies {
            phys = self.plan_detector_apply(
                phys,
                call,
                *logical,
                &table,
                &scan_dnf,
                &pre_det_exprs,
                n_scanned,
            )?;
        }

        // Post-detector UDF-free predicates.
        if !classified.post_detector.is_empty() {
            phys = PhysPlan::Filter {
                id: OpId::UNSET,
                input: Box::new(phys),
                predicate: conjoin(classified.post_detector.clone()),
            };
        }

        // Base DNF for box-level UDF analysis: scan + pre-detector +
        // post-detector predicates.
        let mut base_exprs: Vec<Expr> = pre_det_exprs.clone();
        base_exprs.extend(classified.post_detector.iter().cloned());
        let base_dnf = dnf_or_true(&base_exprs);
        let base_sel = self.stats.dnf_selectivity(&base_dnf).max(1e-9);

        // Rule I: rank the UDF-based predicate atoms and chain them.
        let order = self.rank_udf_atoms(&box_atoms, &table, &base_dnf, base_sel);
        let mut applied: BTreeMap<String, String> = BTreeMap::new(); // dim → out col
        let mut preceding: Vec<Expr> = base_exprs.clone();
        for idx in order {
            let atom = &box_atoms[idx];
            let call = single_udf_call(atom)?;
            let out_col = self.scalar_out_col(&call)?;
            if let std::collections::btree_map::Entry::Vacant(e) = applied.entry(udf_dim(&call)) {
                phys = self.plan_scalar_apply(phys, &call, &table, &preceding)?;
                e.insert(out_col.clone());
            }
            let rewritten = substitute_udf(atom.clone(), &call, &Expr::col(out_col));
            phys = PhysPlan::Filter {
                id: OpId::UNSET,
                input: Box::new(phys),
                predicate: rewritten,
            };
            preceding.push(atom.clone());
        }

        // Complex UDF predicates: apply every referenced UDF, then filter.
        for cpred in &classified.complex {
            let mut rewritten = cpred.clone();
            for call in eva_expr::collect_udf_calls(cpred) {
                let out_col = self.scalar_out_col(&call)?;
                if let std::collections::btree_map::Entry::Vacant(e) = applied.entry(udf_dim(&call))
                {
                    phys = self.plan_scalar_apply(phys, &call, &table, &preceding)?;
                    e.insert(out_col.clone());
                }
                rewritten = substitute_udf(rewritten, &call, &Expr::col(out_col));
            }
            phys = PhysPlan::Filter {
                id: OpId::UNSET,
                input: Box::new(phys),
                predicate: rewritten,
            };
            preceding.push(cpred.clone());
        }

        // Projection-extracted applies (run on surviving rows only).
        for (call, _) in &d.proj_applies {
            if let std::collections::btree_map::Entry::Vacant(e) = applied.entry(udf_dim(call)) {
                let out_col = self.scalar_out_col(call)?;
                phys = self.plan_scalar_apply(phys, call, &table, &preceding)?;
                e.insert(out_col);
            }
        }

        // Rebuild the tail (innermost wrapper first).
        for t in d.tail.iter().rev() {
            phys = rebuild_tail(phys, t)?;
        }
        phys.assign_op_ids();
        Ok(phys)
    }

    // -- Detector (frame-level) applies -----------------------------------

    #[allow(clippy::too_many_arguments)]
    fn plan_detector_apply(
        &self,
        input: PhysPlan,
        call: &UdfCall,
        logical: bool,
        table: &str,
        assoc: &Dnf,
        assoc_exprs: &[Expr],
        n_input: f64,
    ) -> Result<PhysPlan> {
        let assoc_expr = if assoc_exprs.is_empty() {
            Expr::true_()
        } else {
            conjoin(assoc_exprs.to_vec())
        };
        let (segments, output, display_name) = if logical {
            self.select_models(call, table, assoc, &assoc_expr, n_input)?
        } else {
            let def = self.catalog.udf(&call.name)?;
            let output = Arc::new(def.output.clone());
            let seg = self.fallback_segment(&def, table, assoc, &assoc_expr)?;
            (vec![seg], output, def.name.clone())
        };

        let args = self.resolve_args(call, &input.schema())?;
        let spec = self.decorate(display_name, args, segments, output.clone())?;
        let schema = Arc::new(input.schema().join(&output));
        Ok(PhysPlan::Apply {
            id: OpId::UNSET,
            input: Box::new(input),
            spec,
            schema,
        })
    }

    /// Algorithm 2: resolve a logical vision task into view reads + a
    /// fallback model.
    fn select_models(
        &self,
        call: &UdfCall,
        table: &str,
        assoc: &Dnf,
        assoc_expr: &Expr,
        n_input: f64,
    ) -> Result<(Vec<Segment>, Arc<Schema>, String)> {
        let required = match &call.accuracy {
            Some(a) => AccuracyLevel::parse(a)?,
            None => AccuracyLevel::Low,
        };
        let eligible_defs = self.catalog.physical_udfs(&call.name, required);
        if eligible_defs.is_empty() {
            return Err(EvaError::Plan(format!(
                "no physical UDF implements '{}' at accuracy {required}",
                call.name
            )));
        }
        let output = Arc::new(eligible_defs[0].output.clone());

        // Baselines — and EVA with Algorithm 2 disabled (Min-Cost) —
        // substitute the cheapest eligible model directly.
        if self.config.strategy != ReuseStrategy::Eva || !self.config.logical_set_cover {
            let def = eligible_defs[0].clone();
            let seg = self.fallback_segment(&def, table, assoc, assoc_expr)?;
            let name = format!("{}→{}", call.name, seg.udf.name);
            return Ok((vec![seg], output, name));
        }

        let candidates: Vec<PhysicalCandidate> = eligible_defs
            .iter()
            .map(|def| {
                let sig = UdfSignature::new(&def.name, table, &["frame"]);
                let (view, view_keys) = match self.manager.view_of(&sig) {
                    Some((v, k)) => (Some(v), k),
                    None => (None, 0),
                };
                PhysicalCandidate {
                    udf: def.clone(),
                    view,
                    view_keys,
                    agg_pred: self.manager.aggregated(&sig),
                }
            })
            .collect();
        let choices = optimal_physical_udfs(
            &candidates,
            assoc,
            n_input,
            self.stats,
            self.config.view_read_ms_per_row,
        );
        let mut segments = Vec::with_capacity(choices.len());
        let mut name_parts = Vec::new();
        for choice in choices {
            match choice {
                Choice::ReadView { udf, view } => {
                    name_parts.push(format!("view:{}", udf.name));
                    segments.push(Segment {
                        udf,
                        view: Some(view),
                        eval: false,
                    });
                }
                Choice::Evaluate { udf } => {
                    name_parts.push(format!("eval:{}", udf.name));
                    segments.push(self.fallback_segment(&udf, table, assoc, assoc_expr)?);
                }
            }
        }
        let name = format!("{}[{}]", call.name, name_parts.join(","));
        Ok((segments, output, name))
    }

    /// Build the eval-capable fallback segment for a physical UDF,
    /// registering its view and recording the associated predicate as a
    /// pending coverage commit when this session materializes results.
    fn fallback_segment(
        &self,
        def: &UdfDef,
        table: &str,
        assoc: &Dnf,
        assoc_expr: &Expr,
    ) -> Result<Segment> {
        let arg_names: Vec<&str> = if self.is_box_level(def) {
            vec!["frame", "bbox"]
        } else {
            vec!["frame"]
        };
        let sig = UdfSignature::new(&def.name, table, &arg_names);
        let candidate = def.is_materialization_candidate(self.config.candidate_threshold_ms);
        let store = candidate
            && match self.config.strategy {
                ReuseStrategy::Eva => self.config.materialize,
                ReuseStrategy::HashStash => !self.is_box_level(def),
                _ => false,
            };
        let view = if store || self.manager.view_of(&sig).is_some() {
            let key_kind = if self.is_box_level(def) {
                eva_storage::ViewKeyKind::FrameBox
            } else {
                eva_storage::ViewKeyKind::Frame
            };
            Some(
                self.manager
                    .view_for(&sig, key_kind, Arc::new(def.output.clone())),
            )
        } else {
            None
        };
        if let (true, Some(log)) = (store, self.commits) {
            log.record(sig, assoc.clone(), assoc_expr.clone());
        }
        Ok(Segment {
            udf: def.clone(),
            view,
            eval: true,
        })
    }

    // -- Scalar (box-level) applies ----------------------------------------

    fn plan_scalar_apply(
        &self,
        input: PhysPlan,
        call: &UdfCall,
        table: &str,
        preceding: &[Expr],
    ) -> Result<PhysPlan> {
        let def = self.catalog.udf(&call.name)?;
        let assoc = dnf_or_true(preceding);
        let assoc_expr = if preceding.is_empty() {
            Expr::true_()
        } else {
            conjoin(preceding.to_vec())
        };
        let seg = self.fallback_segment(&def, table, &assoc, &assoc_expr)?;
        let args = self.resolve_args(call, &input.schema())?;
        let output = Arc::new(def.output.clone());
        let spec = self.decorate(def.name.clone(), args, vec![seg], output.clone())?;
        let schema = Arc::new(input.schema().join(&output));
        Ok(PhysPlan::Apply {
            id: OpId::UNSET,
            input: Box::new(input),
            spec,
            schema,
        })
    }

    /// Rank the reorderable UDF-based predicate atoms (Rule I's ordering
    /// input, §4.2) and return evaluation order indices.
    fn rank_udf_atoms(
        &self,
        atoms: &[Expr],
        table: &str,
        base_dnf: &Dnf,
        base_sel: f64,
    ) -> Vec<usize> {
        let profiles: Vec<PredicateProfile> = atoms
            .iter()
            .map(|atom| self.profile_atom(atom, table, base_dnf, base_sel))
            .collect();
        order_by_rank(self.config.ranking, &profiles)
    }

    fn profile_atom(
        &self,
        atom: &Expr,
        table: &str,
        base_dnf: &Dnf,
        base_sel: f64,
    ) -> PredicateProfile {
        let selectivity = match to_dnf(atom) {
            Ok(d) => self.stats.dnf_selectivity(&d),
            Err(_) => eva_symbolic::selectivity::DEFAULT_UNKNOWN_SELECTIVITY,
        };
        let (eval_cost_ms, diff_selectivity) = match single_udf_call(atom) {
            Ok(call) => {
                let cost = self
                    .catalog
                    .udf(&call.name)
                    .ok()
                    .and_then(|d| d.cost_ms)
                    .unwrap_or(100.0);
                let diff_sel = if self.config.strategy == ReuseStrategy::Eva {
                    let def = self.catalog.udf(&call.name).ok();
                    let arg_names: Vec<&str> = match def {
                        Some(ref d) if self.is_box_level(d) => vec!["frame", "bbox"],
                        _ => vec!["frame"],
                    };
                    let sig = UdfSignature::new(&call.name, table, &arg_names);
                    let p_u = self.manager.aggregated(&sig);
                    let covered = self.stats.dnf_selectivity(&inter(&p_u, base_dnf));
                    (1.0 - covered / base_sel).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                (cost, diff_sel)
            }
            Err(_) => (100.0, 1.0),
        };
        PredicateProfile {
            selectivity,
            eval_cost_ms,
            diff_selectivity,
            read_cost_ms: self.config.view_read_ms_per_row,
        }
    }

    // -- Shared helpers ------------------------------------------------------

    fn decorate(
        &self,
        display_name: String,
        args: Vec<Expr>,
        segments: Vec<Segment>,
        output: Arc<Schema>,
    ) -> Result<ApplySpec> {
        let fallback = segments
            .iter()
            .find(|s| s.eval)
            .ok_or_else(|| EvaError::Plan("apply without an eval segment".into()))?
            .udf
            .clone();
        let candidate = fallback.is_materialization_candidate(self.config.candidate_threshold_ms);
        let reuse = match self.config.strategy {
            ReuseStrategy::NoReuse => ApplyReuse::None { udf: fallback },
            ReuseStrategy::FunCache => {
                if candidate {
                    ApplyReuse::FunCache { udf: fallback }
                } else {
                    ApplyReuse::None { udf: fallback }
                }
            }
            ReuseStrategy::HashStash => {
                // Probe frame-level applies only (see `ReuseStrategy::HashStash`).
                if !self.is_box_level(&fallback) && candidate {
                    ApplyReuse::Views {
                        segments,
                        store: true,
                    }
                } else {
                    ApplyReuse::None { udf: fallback }
                }
            }
            ReuseStrategy::Eva => {
                if candidate {
                    ApplyReuse::Views {
                        segments,
                        store: self.config.materialize,
                    }
                } else {
                    ApplyReuse::None { udf: fallback }
                }
            }
        };
        Ok(ApplySpec {
            display_name,
            args,
            reuse,
            output,
        })
    }

    fn is_box_level(&self, def: &UdfDef) -> bool {
        def.input.fields().iter().any(|f| f.dtype == DataType::BBox)
    }

    /// Normalize call arguments to `[frame_expr]` or `[frame_expr,
    /// bbox_expr]` by matching argument columns against the input schema's
    /// data types (queries write `CarType(bbox, frame)` in any order).
    fn resolve_args(&self, call: &UdfCall, input: &Schema) -> Result<Vec<Expr>> {
        let mut frame = None;
        let mut bbox = None;
        for a in &call.args {
            if let Expr::Column(c) = a {
                match input.field(c).map(|f| f.dtype) {
                    Some(DataType::Frame) => frame = Some(a.clone()),
                    Some(DataType::BBox) => bbox = Some(a.clone()),
                    _ => {}
                }
            }
        }
        let frame = frame
            .ok_or_else(|| EvaError::Plan(format!("UDF '{}' needs a frame argument", call.name)))?;
        Ok(match bbox {
            Some(b) => vec![frame, b],
            None => vec![frame],
        })
    }

    fn scalar_out_col(&self, call: &UdfCall) -> Result<String> {
        let def = self.catalog.udf(&call.name)?;
        if def.output.len() != 1 {
            return Err(EvaError::Plan(format!(
                "UDF '{}' in a predicate must have one output column",
                call.name
            )));
        }
        Ok(def.output.fields()[0].name.clone())
    }
}

fn dnf_or_true(exprs: &[Expr]) -> Dnf {
    if exprs.is_empty() {
        return Dnf::true_();
    }
    // Soundness note: conjuncts that fail conversion are dropped, which
    // *widens* the recorded predicate. Runtime correctness never depends on
    // it (the fused apply probes per key and evaluates on miss); only cost
    // estimates degrade.
    let mut acc = Dnf::true_();
    for e in exprs {
        if let Ok(d) = to_dnf(e) {
            acc = acc.and(&d);
        }
    }
    acc.reduced()
}

fn single_udf_call(atom: &Expr) -> Result<UdfCall> {
    let calls = eva_expr::collect_udf_calls(atom);
    match calls.len() {
        1 => Ok(calls.into_iter().next().expect("len checked")),
        n => Err(EvaError::Plan(format!(
            "expected exactly one UDF call in atom '{atom}', found {n}"
        ))),
    }
}

fn decompose(plan: &LogicalPlan) -> Result<Decomposed<'_>> {
    let mut tail = Vec::new();
    let mut node = plan;
    while let LogicalPlan::Limit { input, .. }
    | LogicalPlan::Sort { input, .. }
    | LogicalPlan::Project { input, .. }
    | LogicalPlan::Aggregate { input, .. } = node
    {
        tail.push(node);
        node = input;
    }
    let mut proj_applies = Vec::new();
    while let LogicalPlan::Apply {
        input,
        call,
        logical,
        from_cross_apply: false,
        ..
    } = node
    {
        proj_applies.push((call.clone(), *logical));
        node = input;
    }
    proj_applies.reverse();
    let filter = match node {
        LogicalPlan::Filter { input, predicate } => {
            node = input;
            Some(predicate.clone())
        }
        _ => None,
    };
    let mut det_applies = Vec::new();
    while let LogicalPlan::Apply {
        input,
        call,
        logical,
        ..
    } = node
    {
        det_applies.push((call.clone(), *logical));
        node = input;
    }
    det_applies.reverse();
    match node {
        LogicalPlan::Scan {
            table,
            dataset,
            n_rows,
            schema,
        } => Ok(Decomposed {
            tail,
            proj_applies,
            filter,
            det_applies,
            scan: (table.clone(), dataset.clone(), *n_rows, Arc::clone(schema)),
        }),
        other => Err(EvaError::Plan(format!(
            "unsupported plan shape at {:?}",
            std::mem::discriminant(other)
        ))),
    }
}

fn rebuild_tail(input: PhysPlan, t: &LogicalPlan) -> Result<PhysPlan> {
    Ok(match t {
        LogicalPlan::Project { items, schema, .. } => PhysPlan::Project {
            id: OpId::UNSET,
            input: Box::new(input),
            items: items.clone(),
            schema: Arc::clone(schema),
        },
        LogicalPlan::Aggregate {
            group_by,
            aggs,
            schema,
            ..
        } => PhysPlan::Aggregate {
            id: OpId::UNSET,
            input: Box::new(input),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
            schema: Arc::clone(schema),
        },
        LogicalPlan::Sort { keys, .. } => PhysPlan::Sort {
            id: OpId::UNSET,
            input: Box::new(input),
            keys: keys.clone(),
        },
        LogicalPlan::Limit { n, .. } => PhysPlan::Limit {
            id: OpId::UNSET,
            input: Box::new(input),
            n: *n,
        },
        other => {
            return Err(EvaError::Plan(format!(
                "unexpected tail node {:?}",
                std::mem::discriminant(other)
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::Binder;
    use eva_catalog::TableDef;
    use eva_common::Field;
    use eva_storage::StorageEngine;
    use eva_symbolic::ColumnStats;

    fn setup() -> (Catalog, UdfManager, StatsCatalog) {
        let catalog = Catalog::new();
        let registry = eva_udf::UdfRegistry::new();
        eva_udf::registry::install_standard_zoo(&registry, &catalog).unwrap();
        catalog
            .create_table(TableDef {
                name: "video".into(),
                schema: Schema::new(vec![
                    Field::new("id", DataType::Int),
                    Field::new("timestamp", DataType::Int),
                    Field::new("frame", DataType::Frame),
                ])
                .unwrap(),
                n_rows: 1000,
                dataset: "ds".into(),
            })
            .unwrap();
        let manager = UdfManager::new(StorageEngine::new());
        let mut stats = StatsCatalog::new();
        stats.insert(
            "id",
            ColumnStats::Numeric {
                min: 0.0,
                max: 999.0,
                buckets: vec![0.1; 10],
            },
        );
        stats.insert(
            "cartype(bbox,frame)",
            ColumnStats::categorical_from_counts([
                ("Nissan".to_string(), 20u64),
                ("Toyota".to_string(), 80u64),
            ]),
        );
        (catalog, manager, stats)
    }

    fn plan(
        catalog: &Catalog,
        manager: &UdfManager,
        stats: &StatsCatalog,
        config: PlannerConfig,
        sql: &str,
    ) -> PhysPlan {
        let stmt = match eva_parser::parse(sql).unwrap() {
            eva_parser::Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        };
        let logical = Binder::new(catalog).bind_select(&stmt).unwrap();
        let opt = Optimizer {
            catalog,
            manager,
            stats,
            config,
            commits: None,
        };
        opt.optimize(&logical, &SimClock::new()).unwrap()
    }

    const Q: &str = "SELECT id, bbox FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
                     WHERE id < 500 AND label = 'car' AND cartype(frame, bbox) = 'Nissan'";

    #[test]
    fn eva_plan_shape_and_decorations() {
        let (catalog, manager, stats) = setup();
        let p = plan(&catalog, &manager, &stats, PlannerConfig::default(), Q);
        let text = p.explain();
        assert!(text.contains("ScanFrames video [0, 500)"), "{text}");
        // Both detector and cartype get view+store decorations under EVA.
        assert!(
            text.matches("+view+eval] store=true").count() >= 2,
            "{text}"
        );
        // The cartype predicate was rewritten onto the output column.
        assert!(text.contains("Filter cartype = 'Nissan'"), "{text}");
        // Planning alone claims no coverage, though both views now exist.
        let det_sig = UdfSignature::new("fasterrcnn_resnet50", "video", &["frame"]);
        let ct_sig = UdfSignature::new("cartype", "video", &["frame", "bbox"]);
        for sig in [det_sig, ct_sig] {
            assert!(manager.view_of(&sig).is_some());
            assert!(manager.aggregated(&sig).is_false());
        }
    }

    #[test]
    fn no_reuse_plan_has_no_views() {
        let (catalog, manager, stats) = setup();
        let p = plan(
            &catalog,
            &manager,
            &stats,
            PlannerConfig::for_strategy(ReuseStrategy::NoReuse),
            Q,
        );
        let text = p.explain();
        assert!(text.contains("no-reuse"), "{text}");
        assert!(!text.contains("+view"), "{text}");
        // And nothing was committed.
        let det_sig = UdfSignature::new("fasterrcnn_resnet50", "video", &["frame"]);
        assert!(manager.aggregated(&det_sig).is_false());
    }

    #[test]
    fn hashstash_reuses_detector_only() {
        let (catalog, manager, stats) = setup();
        let p = plan(
            &catalog,
            &manager,
            &stats,
            PlannerConfig::for_strategy(ReuseStrategy::HashStash),
            Q,
        );
        let text = p.explain();
        assert!(text.contains("fasterrcnn_resnet50+view+eval"), "{text}");
        assert!(text.contains("no-reuse[cartype]"), "{text}");
    }

    #[test]
    fn funcache_decorates_with_cache() {
        let (catalog, manager, stats) = setup();
        let p = plan(
            &catalog,
            &manager,
            &stats,
            PlannerConfig::for_strategy(ReuseStrategy::FunCache),
            Q,
        );
        let text = p.explain();
        assert!(text.contains("funcache[fasterrcnn_resnet50]"), "{text}");
        assert!(text.contains("funcache[cartype]"), "{text}");
    }

    #[test]
    fn cheap_udfs_are_not_candidates() {
        let (catalog, manager, stats) = setup();
        let p = plan(
            &catalog,
            &manager,
            &stats,
            PlannerConfig::default(),
            "SELECT id FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
             WHERE area(frame, bbox) > 0.2 AND label = 'car'",
        );
        let text = p.explain();
        assert!(
            text.contains("no-reuse[area]"),
            "AREA is below threshold: {text}"
        );
    }

    #[test]
    fn logical_udf_resolves_to_cheapest_without_views() {
        let (catalog, manager, stats) = setup();
        let p = plan(
            &catalog,
            &manager,
            &stats,
            PlannerConfig::default(),
            "SELECT id FROM video CROSS APPLY objectdetector(frame) ACCURACY 'LOW' \
             WHERE id < 100 AND label = 'car'",
        );
        let text = p.explain();
        // No views exist yet ⇒ Algorithm 2 falls through to the cheapest
        // eligible model.
        assert!(text.contains("eval:yolo_tiny"), "{text}");
        assert!(!text.contains("view:"), "{text}");
    }

    #[test]
    fn unknown_accuracy_errors() {
        let (catalog, manager, stats) = setup();
        let stmt = match eva_parser::parse(
            "SELECT id FROM video CROSS APPLY objectdetector(frame) ACCURACY 'ULTRA' WHERE id < 5",
        )
        .unwrap()
        {
            eva_parser::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let logical = Binder::new(&catalog).bind_select(&stmt).unwrap();
        let opt = Optimizer {
            catalog: &catalog,
            manager: &manager,
            stats: &stats,
            config: PlannerConfig::default(),
            commits: None,
        };
        assert!(opt.optimize(&logical, &SimClock::new()).is_err());
    }

    #[test]
    fn commit_log_defers_coverage_until_applied() {
        let (catalog, manager, stats) = setup();
        let stmt = match eva_parser::parse(Q).unwrap() {
            eva_parser::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let logical = Binder::new(&catalog).bind_select(&stmt).unwrap();
        let log = crate::commits::CommitLog::new();
        let opt = Optimizer {
            catalog: &catalog,
            manager: &manager,
            stats: &stats,
            config: PlannerConfig::default(),
            commits: Some(&log),
        };
        opt.optimize(&logical, &SimClock::new()).unwrap();
        // Nothing committed at plan time; the log holds both stores.
        let det_sig = UdfSignature::new("fasterrcnn_resnet50", "video", &["frame"]);
        assert!(manager.aggregated(&det_sig).is_false());
        assert_eq!(log.len(), 2);
        // Applying the log performs the commits.
        assert_eq!(log.apply(&manager), 2);
        assert!(!manager.aggregated(&det_sig).is_false());
    }

    #[test]
    fn optimize_charges_the_clock() {
        let (catalog, manager, stats) = setup();
        let clock = SimClock::new();
        let stmt = match eva_parser::parse(Q).unwrap() {
            eva_parser::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let logical = Binder::new(&catalog).bind_select(&stmt).unwrap();
        let opt = Optimizer {
            catalog: &catalog,
            manager: &manager,
            stats: &stats,
            config: PlannerConfig::default(),
            commits: None,
        };
        opt.optimize(&logical, &clock).unwrap();
        assert!(clock.snapshot().get(CostCategory::Optimize) > 0.0);
    }
}
