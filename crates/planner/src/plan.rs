//! Logical and physical plan representations.
//!
//! The binder produces a [`LogicalPlan`]; canonical rules normalize it; the
//! reuse pipeline (§4.2–§4.4) lowers it to a [`PhysPlan`] whose
//! [`ApplySpec`] nodes carry the reuse decorations — which materialized view
//! to probe, whether to store fresh results, and (for logical UDFs) the
//! segment list produced by Algorithm 2.
//!
//! The paper's Fig. 4 rewrite (LEFT OUTER JOIN with the view + conditional
//! APPLY guarded on NULL + STORE) appears here in *fused* form: one physical
//! apply operator probes the view per tuple, evaluates the model only on
//! misses, and appends fresh results — exactly the semantics of the figure,
//! produced the way a production executor would implement it.

use std::sync::Arc;

use eva_catalog::UdfDef;
use eva_common::{OpId, OpStats, Schema, ViewId};
use eva_expr::{AggFunc, Expr, UdfCall};
use std::collections::BTreeMap;

/// A bound logical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of a registered video table.
    Scan {
        /// Table name.
        table: String,
        /// Backing dataset name.
        dataset: String,
        /// Row count.
        n_rows: u64,
        /// Table schema.
        schema: Arc<Schema>,
    },
    /// Table-valued UDF application (CROSS APPLY or extracted call).
    Apply {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The UDF invocation.
        call: UdfCall,
        /// Whether the call names a *logical* vision task to be resolved by
        /// model selection (§4.3) rather than a physical UDF.
        logical: bool,
        /// True when the apply came from an explicit `CROSS APPLY` clause;
        /// false for scalar calls extracted from the projection.
        from_cross_apply: bool,
        /// Schema after the apply.
        schema: Arc<Schema>,
    },
    /// Selection.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate (may contain UDF calls before the reuse rewrite).
        predicate: Expr,
    },
    /// Projection.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output name)` pairs.
        items: Vec<(Expr, String)>,
        /// Output schema.
        schema: Arc<Schema>,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-by column names.
        group_by: Vec<String>,
        /// `(func, argument, output name)` triples.
        aggs: Vec<(AggFunc, Option<Expr>, String)>,
        /// Output schema.
        schema: Arc<Schema>,
    },
    /// Sort.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(column, descending)` keys.
        keys: Vec<(String, bool)>,
    },
    /// Limit.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum rows.
        n: u64,
    },
}

impl LogicalPlan {
    /// The schema of rows this node produces.
    pub fn schema(&self) -> Arc<Schema> {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Apply { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Aggregate { schema, .. } => Arc::clone(schema),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// The child, if single-input.
    pub fn input(&self) -> Option<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => None,
            LogicalPlan::Apply { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => Some(input),
        }
    }

    /// Readable indented tree.
    pub fn explain(&self) -> String {
        fn go(p: &LogicalPlan, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            match p {
                LogicalPlan::Scan { table, n_rows, .. } => {
                    out.push_str(&format!("{pad}Scan {table} (rows={n_rows})\n"));
                }
                LogicalPlan::Apply { call, logical, .. } => {
                    let kind = if *logical { "LogicalApply" } else { "Apply" };
                    out.push_str(&format!("{pad}{kind} {call}\n"));
                }
                LogicalPlan::Filter { predicate, .. } => {
                    out.push_str(&format!("{pad}Filter {predicate}\n"));
                }
                LogicalPlan::Project { items, .. } => {
                    let cols: Vec<String> =
                        items.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                    out.push_str(&format!("{pad}Project {}\n", cols.join(", ")));
                }
                LogicalPlan::Aggregate { group_by, aggs, .. } => {
                    let a: Vec<String> = aggs
                        .iter()
                        .map(|(f, e, n)| match e {
                            Some(e) => format!("{f}({e}) AS {n}"),
                            None => format!("{f}(*) AS {n}"),
                        })
                        .collect();
                    out.push_str(&format!(
                        "{pad}Aggregate group_by=[{}] aggs=[{}]\n",
                        group_by.join(", "),
                        a.join(", ")
                    ));
                }
                LogicalPlan::Sort { keys, .. } => {
                    let k: Vec<String> = keys
                        .iter()
                        .map(|(c, d)| format!("{c}{}", if *d { " DESC" } else { "" }))
                        .collect();
                    out.push_str(&format!("{pad}Sort {}\n", k.join(", ")));
                }
                LogicalPlan::Limit { n, .. } => {
                    out.push_str(&format!("{pad}Limit {n}\n"));
                }
            }
            if let Some(i) = p.input() {
                go(i, depth + 1, out);
            }
        }
        let mut s = String::new();
        go(self, 0, &mut s);
        s
    }
}

// ---------------------------------------------------------------------------
// Physical plans
// ---------------------------------------------------------------------------

/// How one apply segment obtains results (Algorithm 2 output element).
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// The physical UDF backing this segment.
    pub udf: UdfDef,
    /// The materialized view to probe (`None` ⇒ never probe).
    pub view: Option<ViewId>,
    /// Whether this segment may *evaluate* the model on a probe miss.
    /// Exactly one segment per apply has `eval = true` (the fallback — the
    /// `y` of Algorithm 2); pure view segments are read-only.
    pub eval: bool,
}

/// Reuse decoration of a physical apply.
#[derive(Debug, Clone, PartialEq)]
pub enum ApplyReuse {
    /// No reuse: always evaluate (the No-Reuse baseline, or cheap UDFs that
    /// are not materialization candidates).
    None {
        /// The physical UDF to evaluate.
        udf: UdfDef,
    },
    /// EVA / HashStash style: probe materialized views segment by segment,
    /// evaluate the fallback on miss, optionally STORE fresh results.
    Views {
        /// Probe/eval order (view-only segments first, fallback last).
        segments: Vec<Segment>,
        /// Append fresh results to the fallback's view (the STORE operator
        /// of Fig. 4 ③).
        store: bool,
    },
    /// FunCache baseline: tuple-level in-memory function cache keyed by a
    /// 128-bit hash of the input arguments; pays hashing cost per call.
    FunCache {
        /// The physical UDF to evaluate on cache misses.
        udf: UdfDef,
    },
}

/// A physical table-valued UDF application.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplySpec {
    /// Display name (the logical or physical UDF as written in the query).
    pub display_name: String,
    /// Argument expressions over the input schema (`frame` and optionally
    /// `bbox` columns).
    pub args: Vec<Expr>,
    /// Reuse decoration.
    pub reuse: ApplyReuse,
    /// Output schema appended to the input row.
    pub output: Arc<Schema>,
}

/// A physical plan.
///
/// Every node carries an [`OpId`] assigned in pre-order by
/// [`PhysPlan::assign_op_ids`] after optimization. The ids are stable for a
/// given plan shape — the same query text yields the same numbering — and
/// are the key the executor's per-operator [`OpStats`] hang off.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysPlan {
    /// Frame-range scan of a video table.
    ScanFrames {
        /// Operator id (stable per plan shape).
        id: OpId,
        /// Table name (reporting).
        table: String,
        /// Dataset to scan.
        dataset: String,
        /// Frame-id range `[from, to)` after predicate pushdown.
        range: (u64, u64),
        /// Output schema.
        schema: Arc<Schema>,
    },
    /// Selection (UDF-free after the rewrite).
    Filter {
        /// Operator id (stable per plan shape).
        id: OpId,
        /// Input plan.
        input: Box<PhysPlan>,
        /// Predicate.
        predicate: Expr,
    },
    /// Fused view-probe / conditional-apply / store (Fig. 3–4).
    Apply {
        /// Operator id (stable per plan shape).
        id: OpId,
        /// Input plan.
        input: Box<PhysPlan>,
        /// The apply specification.
        spec: ApplySpec,
        /// Schema after the apply.
        schema: Arc<Schema>,
    },
    /// Projection.
    Project {
        /// Operator id (stable per plan shape).
        id: OpId,
        /// Input plan.
        input: Box<PhysPlan>,
        /// `(expression, output name)` pairs.
        items: Vec<(Expr, String)>,
        /// Output schema.
        schema: Arc<Schema>,
    },
    /// Hash aggregation.
    Aggregate {
        /// Operator id (stable per plan shape).
        id: OpId,
        /// Input plan.
        input: Box<PhysPlan>,
        /// Group-by columns.
        group_by: Vec<String>,
        /// Aggregates.
        aggs: Vec<(AggFunc, Option<Expr>, String)>,
        /// Output schema.
        schema: Arc<Schema>,
    },
    /// Sort.
    Sort {
        /// Operator id (stable per plan shape).
        id: OpId,
        /// Input plan.
        input: Box<PhysPlan>,
        /// `(column, descending)` keys.
        keys: Vec<(String, bool)>,
    },
    /// Limit.
    Limit {
        /// Operator id (stable per plan shape).
        id: OpId,
        /// Input plan.
        input: Box<PhysPlan>,
        /// Maximum rows.
        n: u64,
    },
}

impl PhysPlan {
    /// Output schema.
    pub fn schema(&self) -> Arc<Schema> {
        match self {
            PhysPlan::ScanFrames { schema, .. }
            | PhysPlan::Apply { schema, .. }
            | PhysPlan::Project { schema, .. }
            | PhysPlan::Aggregate { schema, .. } => Arc::clone(schema),
            PhysPlan::Filter { input, .. }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// The child, if any.
    pub fn input(&self) -> Option<&PhysPlan> {
        match self {
            PhysPlan::ScanFrames { .. } => None,
            PhysPlan::Filter { input, .. }
            | PhysPlan::Apply { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Aggregate { input, .. }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Limit { input, .. } => Some(input),
        }
    }

    /// Mutable access to the child, if any.
    pub fn input_mut(&mut self) -> Option<&mut PhysPlan> {
        match self {
            PhysPlan::ScanFrames { .. } => None,
            PhysPlan::Filter { input, .. }
            | PhysPlan::Apply { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Aggregate { input, .. }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Limit { input, .. } => Some(input),
        }
    }

    /// This node's operator id ([`OpId::UNSET`] before numbering).
    pub fn op_id(&self) -> OpId {
        match self {
            PhysPlan::ScanFrames { id, .. }
            | PhysPlan::Filter { id, .. }
            | PhysPlan::Apply { id, .. }
            | PhysPlan::Project { id, .. }
            | PhysPlan::Aggregate { id, .. }
            | PhysPlan::Sort { id, .. }
            | PhysPlan::Limit { id, .. } => *id,
        }
    }

    fn op_id_mut(&mut self) -> &mut OpId {
        match self {
            PhysPlan::ScanFrames { id, .. }
            | PhysPlan::Filter { id, .. }
            | PhysPlan::Apply { id, .. }
            | PhysPlan::Project { id, .. }
            | PhysPlan::Aggregate { id, .. }
            | PhysPlan::Sort { id, .. }
            | PhysPlan::Limit { id, .. } => id,
        }
    }

    /// Number every node in pre-order starting at `op1` (root first). The
    /// optimizer calls this once per plan; ids depend only on plan shape, so
    /// identical queries always produce identical numberings.
    pub fn assign_op_ids(&mut self) {
        fn go(p: &mut PhysPlan, next: &mut u64) {
            *p.op_id_mut() = OpId(*next);
            *next += 1;
            if let Some(i) = p.input_mut() {
                go(i, next);
            }
        }
        let mut next = 1;
        go(self, &mut next);
    }

    /// One-line description of this node (no padding, no newline).
    fn describe(&self) -> String {
        match self {
            PhysPlan::ScanFrames { table, range, .. } => {
                format!("ScanFrames {table} [{}, {})", range.0, range.1)
            }
            PhysPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            PhysPlan::Apply { spec, .. } => {
                let deco = match &spec.reuse {
                    ApplyReuse::None { udf } => format!("no-reuse[{}]", udf.name),
                    ApplyReuse::FunCache { udf } => format!("funcache[{}]", udf.name),
                    ApplyReuse::Views { segments, store } => {
                        let segs: Vec<String> = segments
                            .iter()
                            .map(|s| {
                                format!(
                                    "{}{}{}",
                                    s.udf.name,
                                    if s.view.is_some() { "+view" } else { "" },
                                    if s.eval { "+eval" } else { "" }
                                )
                            })
                            .collect();
                        format!("views[{}] store={store}", segs.join(" → "))
                    }
                };
                format!("Apply {} ({deco})", spec.display_name)
            }
            PhysPlan::Project { items, .. } => {
                let cols: Vec<String> = items.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                format!("Project {}", cols.join(", "))
            }
            PhysPlan::Aggregate { group_by, aggs, .. } => {
                let a: Vec<String> = aggs
                    .iter()
                    .map(|(f, e, n)| match e {
                        Some(e) => format!("{f}({e}) AS {n}"),
                        None => format!("{f}(*) AS {n}"),
                    })
                    .collect();
                format!(
                    "Aggregate group_by=[{}] aggs=[{}]",
                    group_by.join(", "),
                    a.join(", ")
                )
            }
            PhysPlan::Sort { keys, .. } => {
                let k: Vec<String> = keys
                    .iter()
                    .map(|(c, d)| format!("{c}{}", if *d { " DESC" } else { "" }))
                    .collect();
                format!("Sort {}", k.join(", "))
            }
            PhysPlan::Limit { n, .. } => format!("Limit {n}"),
        }
    }

    /// Readable indented tree with reuse decorations.
    pub fn explain(&self) -> String {
        fn go(p: &PhysPlan, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            out.push_str(&pad);
            out.push_str(&p.describe());
            out.push('\n');
            if let Some(i) = p.input() {
                go(i, depth + 1, out);
            }
        }
        let mut s = String::new();
        go(self, 0, &mut s);
        s
    }

    /// `EXPLAIN ANALYZE` rendering: the [`explain`](PhysPlan::explain) tree
    /// annotated with the executor's per-operator statistics.
    ///
    /// Each node line gains a bracketed block with its operator id, actual
    /// rows/batches and *cumulative* simulated cost for the subtree rooted
    /// at the node (Postgres-style). Apply operators additionally report
    /// probe totals with the hit rate, fuzzy hits, and UDF calls executed
    /// versus avoided. Operators the executor never polled report `(never
    /// executed)`.
    pub fn explain_analyze(&self, stats: &BTreeMap<OpId, OpStats>) -> String {
        fn go(p: &PhysPlan, depth: usize, stats: &BTreeMap<OpId, OpStats>, out: &mut String) {
            let pad = "  ".repeat(depth);
            out.push_str(&pad);
            out.push_str(&p.describe());
            let id = p.op_id();
            match stats.get(&id) {
                Some(s) => {
                    out.push_str(&format!(
                        "  [{id} | rows={} batches={} cost={:.3}ms",
                        s.rows_out,
                        s.batches,
                        s.cum.total_ms()
                    ));
                    if matches!(p, PhysPlan::Apply { .. }) {
                        out.push_str(&format!(
                            " | probes={} hits={} ({:.1}%) fuzzy={} | udf executed={} avoided={}",
                            s.probes,
                            s.probe_hits,
                            s.probe_hit_rate() * 100.0,
                            s.fuzzy_hits,
                            s.udf_executed,
                            s.udf_avoided
                        ));
                    }
                    out.push(']');
                }
                None => out.push_str(&format!("  [{id} | (never executed)]")),
            }
            out.push('\n');
            if let Some(i) = p.input() {
                go(i, depth + 1, stats, out);
            }
        }
        let mut s = String::new();
        go(self, 0, stats, &mut s);
        s
    }

    /// All apply specs in execution order (bottom-up).
    pub fn applies(&self) -> Vec<&ApplySpec> {
        let mut out = Vec::new();
        fn go<'a>(p: &'a PhysPlan, out: &mut Vec<&'a ApplySpec>) {
            if let Some(i) = p.input() {
                go(i, out);
            }
            if let PhysPlan::Apply { spec, .. } = p {
                out.push(spec);
            }
        }
        go(self, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_common::{DataType, Field};

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "video".into(),
            dataset: "ds".into(),
            n_rows: 100,
            schema: Arc::new(Schema::new(vec![Field::new("id", DataType::Int)]).unwrap()),
        }
    }

    #[test]
    fn logical_explain_shows_structure() {
        let p = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Expr::col("id").lt(10),
        };
        let text = p.explain();
        assert!(text.contains("Filter id < 10"));
        assert!(text.contains("Scan video"));
        assert!(text.find("Filter").unwrap() < text.find("Scan").unwrap());
    }

    #[test]
    fn schema_propagates_through_wrappers() {
        let p = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan()),
                predicate: Expr::true_(),
            }),
            n: 5,
        };
        assert_eq!(p.schema().len(), 1);
    }

    #[test]
    fn phys_applies_collects_in_order() {
        let schema = Arc::new(Schema::new(vec![Field::new("id", DataType::Int)]).unwrap());
        let base = PhysPlan::ScanFrames {
            id: OpId::UNSET,
            table: "v".into(),
            dataset: "d".into(),
            range: (0, 10),
            schema: Arc::clone(&schema),
        };
        let dummy_udf = UdfDef {
            id: eva_common::UdfId(0),
            name: "dummy".into(),
            input: Schema::empty(),
            output: Schema::empty(),
            impl_id: "sim/dummy".into(),
            logical_type: None,
            accuracy: eva_catalog::AccuracyLevel::Low,
            cost_ms: Some(1.0),
            gpu: false,
        };
        let spec1 = ApplySpec {
            display_name: "a".into(),
            args: vec![],
            reuse: ApplyReuse::None {
                udf: dummy_udf.clone(),
            },
            output: Arc::new(Schema::empty()),
        };
        let spec2 = ApplySpec {
            display_name: "b".into(),
            args: vec![],
            reuse: ApplyReuse::None { udf: dummy_udf },
            output: Arc::new(Schema::empty()),
        };
        let p = PhysPlan::Apply {
            id: OpId::UNSET,
            input: Box::new(PhysPlan::Apply {
                id: OpId::UNSET,
                input: Box::new(base),
                spec: spec1,
                schema: Arc::clone(&schema),
            }),
            spec: spec2,
            schema,
        };
        let names: Vec<&str> = p
            .applies()
            .iter()
            .map(|s| s.display_name.as_str())
            .collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(p.explain().contains("no-reuse"));
    }
}
