//! Seeded generation of EVA-QL fuzz *sessions*.
//!
//! A [`FuzzCase`] is a deterministic little analytics session over the
//! standard test dataset: SELECTs whose predicates mix UDF calls,
//! comparisons and AND/OR/NOT, interleaved with view drops, save/load
//! cycles and `EVA_FAILPOINTS`-style fault plans. The generator is
//! schema-aware — every emitted statement binds — and *determinism-aware*:
//! it only emits queries whose result set is a pure function of the
//! dataset, so the four oracles in [`crate::oracles`] can demand exact
//! equivalence without false positives. Concretely:
//!
//! * `LIMIT` only appears on apply-free queries ordered by the unique `id`
//!   column (a `LIMIT` under ties would truncate differently between a
//!   view-serving and a recomputing plan);
//! * aggregate arguments are integer columns or `COUNT`, so per-group folds
//!   are exact and order-independent;
//! * keyed UDF fault plans use `fails:2`, within the default retry budget,
//!   so injected flakiness never turns into a query error.

use eva_common::rng::SplitMix64;
use eva_common::{GovernorConfig, Value};
use eva_expr::{AggFunc, CmpOp, Expr, UdfCall};
use eva_parser::{ApplyClause, SelectItem, SelectStmt, SortOrder};

/// One statement of a fuzz session.
#[derive(Debug, Clone, PartialEq)]
pub enum FuzzStmt {
    /// An EVA-QL SELECT (stored as text so corpus files are readable and
    /// self-contained; the replayer parses it).
    Select(String),
    /// Drop all reuse state (materialized views + statistics), like a
    /// fresh-session planner with a warm OS cache.
    ResetViews,
    /// `save_state` into the case's scratch directory. May fail by design
    /// when a write-site fault plan is armed; the replayer tolerates that.
    Save,
    /// `load_state` from the scratch directory (skipped until a save has
    /// succeeded, so arbitrary statement subsets stay replayable).
    Load,
    /// Arm failpoints from an `EVA_FAILPOINTS` spec string.
    Fault(String),
    /// Disarm every failpoint.
    Disarm,
}

/// Deliberate bug reintroductions used to prove the harness catches real
/// regressions end to end (generate → oracle → shrink → corpus file).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Skip `prune_dangling` after recovery — the bug the durable-store
    /// work fixed: a quarantined view segment stays claimed as coverage,
    /// so warm plans rely on a view that is gone.
    SkipPrune,
}

/// A generated session: dataset parameters plus a statement list. Fully
/// serializable, so a failing case (after shrinking) becomes a
/// self-contained corpus file.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// The case seed (provenance; regeneration uses it, replay does not).
    pub seed: u64,
    /// Seed of the deterministic test video dataset.
    pub dataset_seed: u64,
    /// Frame count of the dataset.
    pub n_frames: u64,
    /// Optional deliberate bug reintroduction, honored by the replayer.
    pub sabotage: Option<Sabotage>,
    /// Per-query governance knobs for the governed-replay oracle (oracles
    /// 1–3 always replay ungoverned). Tight knobs cancel or degrade
    /// mid-session; loose knobs must be invisible. Defaults keep older
    /// corpus files deserializable.
    pub governor: GovernorConfig,
    /// Admission width for the governed replay (`Some(1)` serializes every
    /// query through a one-slot [`eva_core::AdmissionController`]).
    pub admission_width: Option<usize>,
    /// The session's statements, replayed in order.
    pub stmts: Vec<FuzzStmt>,
}

impl FuzzCase {
    /// Number of SELECT statements (the oracles compare per-SELECT output).
    pub fn n_selects(&self) -> usize {
        self.stmts
            .iter()
            .filter(|s| matches!(s, FuzzStmt::Select(_)))
            .count()
    }

    /// True when the governed-replay oracle has anything to exercise.
    pub fn is_governed(&self) -> bool {
        self.governor.is_governed() || self.admission_width.is_some()
    }
}

/// Physical object detectors of the UDF zoo (all emit `label, bbox, score`).
const DETECTORS: [&str; 3] = ["fasterrcnn_resnet50", "fasterrcnn_resnet101", "yolo_tiny"];
/// Box-attribute scalar UDFs: (call name, output column when projected).
const BOX_ATTRS: [(&str, &str); 3] = [
    ("cartype", "cartype"),
    ("colordet", "color"),
    ("license", "license"),
];
/// Labels the synthetic video generator emits (plus one never-matching).
const LABELS: [&str; 5] = ["car", "truck", "bus", "person", "zeppelin"];
const CAR_TYPES: [&str; 4] = ["Toyota", "Nissan", "Ford", "unknown"];
const COLORS: [&str; 4] = ["gray", "red", "white", "unknown"];
const SCORES: [f64; 4] = [0.25, 0.5, 0.75, 0.9];
const AREAS: [f64; 3] = [0.001, 0.01, 0.05];
/// Ordinal write-site failpoints (save-path IO).
const WRITE_SITES: [&str; 4] = ["torn_write", "rename_fail", "short_write", "bit_flip"];

fn col(name: &str) -> Expr {
    Expr::col(name)
}

fn box_attr_call(name: &str) -> Expr {
    Expr::Udf(UdfCall::new(name, vec![col("frame"), col("bbox")]))
}

fn int_cmp_op(rng: &mut SplitMix64) -> CmpOp {
    *rng.pick(&[
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ])
}

fn range_cmp_op(rng: &mut SplitMix64) -> CmpOp {
    *rng.pick(&[CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge])
}

/// One predicate atom. With a detector applied, atoms may reference the
/// detection columns and the box-attribute UDFs; without, only the base
/// frame columns (`id`, `timestamp`) are in scope.
fn gen_atom(rng: &mut SplitMix64, n_frames: u64, with_apply: bool) -> Expr {
    let n_choices = if with_apply { 8 } else { 2 };
    match rng.below(n_choices) {
        0 => Expr::cmp(
            col("id"),
            int_cmp_op(rng),
            Expr::lit(rng.below(n_frames + 1) as i64),
        ),
        1 => Expr::cmp(
            col("timestamp"),
            range_cmp_op(rng),
            // fps 25 ⇒ timestamps step by 40ms.
            Expr::lit((rng.below(n_frames + 1) * 40) as i64),
        ),
        2 => Expr::cmp(
            col("label"),
            *rng.pick(&[CmpOp::Eq, CmpOp::Ne]),
            Expr::lit(*rng.pick(&LABELS)),
        ),
        3 => Expr::cmp(
            col("score"),
            range_cmp_op(rng),
            Expr::Literal(Value::Float(*rng.pick(&SCORES))),
        ),
        4 => Expr::cmp(
            box_attr_call("cartype"),
            *rng.pick(&[CmpOp::Eq, CmpOp::Ne]),
            Expr::lit(*rng.pick(&CAR_TYPES)),
        ),
        5 => Expr::cmp(
            box_attr_call("colordet"),
            CmpOp::Eq,
            Expr::lit(*rng.pick(&COLORS)),
        ),
        6 => Expr::cmp(
            box_attr_call("area"),
            range_cmp_op(rng),
            Expr::Literal(Value::Float(*rng.pick(&AREAS))),
        ),
        _ => Expr::IsNull {
            expr: Box::new(col("label")),
            negated: true,
        },
    }
}

/// A predicate: 1–3 atoms joined by AND/OR, occasionally negated.
fn gen_predicate(rng: &mut SplitMix64, n_frames: u64, with_apply: bool) -> Expr {
    let n_atoms = rng.range(1, 3);
    let mut e = gen_atom(rng, n_frames, with_apply);
    for _ in 1..n_atoms {
        let rhs = gen_atom(rng, n_frames, with_apply);
        e = if rng.chance(650) {
            e.and(rhs)
        } else {
            e.or(rhs)
        };
    }
    if rng.chance(150) {
        e = e.not();
    }
    e
}

fn item(expr: Expr) -> SelectItem {
    SelectItem::Expr { expr, alias: None }
}

fn items_of(cols: &[&str]) -> Vec<SelectItem> {
    cols.iter().map(|c| item(col(c))).collect()
}

fn agg(func: AggFunc, arg: Option<&str>) -> SelectItem {
    item(Expr::Agg {
        func,
        arg: arg.map(|c| Box::new(col(c))),
    })
}

/// Generate one schema-valid, deterministic SELECT.
pub fn gen_select(rng: &mut SplitMix64, n_frames: u64, force_apply: bool) -> SelectStmt {
    let with_apply = force_apply || rng.chance(700);
    let applies = if with_apply {
        vec![ApplyClause {
            udf: UdfCall::new(*rng.pick(&DETECTORS), vec![col("frame")]),
        }]
    } else {
        Vec::new()
    };

    let where_clause = if rng.chance(850) {
        Some(gen_predicate(rng, n_frames, with_apply))
    } else {
        None
    };

    // Shape: 0 = plain projection, 1 = box-attr projection (apply only),
    // 2 = ungrouped aggregate, 3 = grouped aggregate (apply only).
    let shape = if with_apply {
        rng.below(10)
    } else if rng.below(10) < 7 {
        0 // plain projection
    } else {
        7 // ungrouped aggregate (no detector columns to group by)
    };
    let (projection, group_by) = match shape {
        0..=4 => {
            let p = if with_apply {
                match rng.below(4) {
                    0 => vec![SelectItem::Wildcard],
                    1 => items_of(&["id", "label", "score"]),
                    2 => items_of(&["id", "label", "bbox"]),
                    _ => items_of(&["id", "timestamp", "label"]),
                }
            } else if rng.chance(500) {
                vec![SelectItem::Wildcard]
            } else {
                items_of(&["id", "timestamp"])
            };
            (p, Vec::new())
        }
        5..=6 if with_apply => {
            let (udf, _) = *rng.pick(&BOX_ATTRS);
            (
                vec![
                    item(col("id")),
                    item(col("label")),
                    item(box_attr_call(udf)),
                ],
                Vec::new(),
            )
        }
        7..=8 => {
            let mut p = vec![agg(AggFunc::Count, None)];
            if rng.chance(600) {
                p.push(agg(AggFunc::Min, Some("id")));
                p.push(agg(AggFunc::Max, Some("id")));
            }
            if rng.chance(300) {
                p.push(agg(AggFunc::Avg, Some("timestamp")));
            }
            (p, Vec::new())
        }
        _ => {
            // Grouped by label (apply only): projection = group col + aggs.
            let mut p = vec![item(col("label")), agg(AggFunc::Count, None)];
            if rng.chance(400) {
                p.push(agg(AggFunc::Min, Some("id")));
            }
            (p, vec!["label".to_string()])
        }
    };

    // ORDER BY / LIMIT, respecting both the binder (sort key must be in the
    // output schema) and determinism (LIMIT needs a unique total order).
    let mut order_by: Vec<(String, SortOrder)> = Vec::new();
    let mut limit = None;
    let grouped = !group_by.is_empty();
    let aggregated = grouped || matches!(shape, 7..=8);
    if grouped {
        if rng.chance(500) {
            order_by.push(("label".to_string(), SortOrder::Asc));
        }
    } else if !aggregated {
        let has_id = projection.iter().any(|i| match i {
            SelectItem::Wildcard => true,
            SelectItem::Expr {
                expr: Expr::Column(c),
                ..
            } => c == "id",
            _ => false,
        });
        if has_id && rng.chance(500) {
            let dir = if rng.chance(500) {
                SortOrder::Asc
            } else {
                SortOrder::Desc
            };
            order_by.push(("id".to_string(), dir));
            // `id` is unique in the base table, so LIMIT under this order is
            // deterministic — but only without a detector apply (detections
            // share their frame's id).
            if !with_apply && rng.chance(500) {
                limit = Some(rng.range(1, n_frames));
            }
        }
    }

    SelectStmt {
        projection,
        from: "video".to_string(),
        applies,
        where_clause,
        group_by,
        order_by,
        limit,
    }
}

/// Tighten every integer literal in the WHERE clause (`k → k/2`) — the
/// mutated query's predicate region shrinks, steering the planner toward
/// the subsumption-reuse path against views from the original query.
pub fn tighten_select(stmt: &SelectStmt) -> SelectStmt {
    let mut s = stmt.clone();
    if let Some(w) = s.where_clause.take() {
        s.where_clause = Some(w.transform(&mut |e| match e {
            Expr::Literal(Value::Int(k)) if k > 1 => Expr::Literal(Value::Int(k / 2)),
            other => other,
        }));
    }
    s
}

/// Generate the session for one case seed.
pub fn generate_case(seed: u64) -> FuzzCase {
    let mut rng = SplitMix64::new(seed);
    let n_frames = rng.range(32, 96);
    let dataset_seed = rng.range(1, 1_000_000);
    let mut stmts = Vec::new();
    let mut past: Vec<SelectStmt> = Vec::new();
    let mut saved = false;

    let push_select = |rng: &mut SplitMix64,
                       past: &mut Vec<SelectStmt>,
                       stmts: &mut Vec<FuzzStmt>,
                       force_apply: bool| {
        let stmt = match rng.below(10) {
            // Exact repeat: the warm session must serve it from views.
            0..=2 if !past.is_empty() => rng.pick(&past[..]).clone(),
            // Tightened repeat: the subsumption-reuse path.
            3..=5 if !past.is_empty() => tighten_select(rng.pick(&past[..])),
            _ => gen_select(rng, n_frames, force_apply),
        };
        stmts.push(FuzzStmt::Select(stmt.to_string()));
        past.push(stmt);
    };

    // Open with a detector query so views exist for later statements.
    push_select(&mut rng, &mut past, &mut stmts, true);

    for _ in 0..rng.range(2, 6) {
        match rng.below(100) {
            0..=54 => push_select(&mut rng, &mut past, &mut stmts, false),
            55..=66 => {
                if rng.chance(400) {
                    // A save under an armed write-site fault, then disarm:
                    // the torn/corrupt store is what Load and the crash
                    // oracle must shrug off.
                    let site = *rng.pick(&WRITE_SITES);
                    let nth = rng.range(1, 4);
                    stmts.push(FuzzStmt::Fault(format!("{site}=nth:{nth}")));
                    stmts.push(FuzzStmt::Save);
                    stmts.push(FuzzStmt::Disarm);
                } else {
                    stmts.push(FuzzStmt::Save);
                }
                saved = true;
            }
            67..=76 => {
                if saved {
                    stmts.push(FuzzStmt::Load);
                } else {
                    stmts.push(FuzzStmt::ResetViews);
                }
            }
            77..=84 => stmts.push(FuzzStmt::ResetViews),
            _ => {
                // Keyed UDF flakiness; fails:2 stays within the default
                // retry budget so results are unchanged by contract.
                let fseed = rng.range(1, 10_000);
                stmts.push(FuzzStmt::Fault(format!(
                    "seed:{fseed};udf_transient=p:0.25:fails:2"
                )));
            }
        }
    }

    // Roughly half the sessions replay governed (oracle 4). Tight knobs
    // are sized to trip on the standard detector queries (a sim-ms
    // deadline a few frames deep; a byte budget a few result rows deep);
    // loose knobs must be observably invisible.
    let (governor, admission_width) = match rng.below(12) {
        0..=5 => (GovernorConfig::default(), None),
        6 => (
            GovernorConfig {
                deadline_ms: Some(40.0),
                ..GovernorConfig::default()
            },
            None,
        ),
        7 => (
            GovernorConfig {
                deadline_ms: Some(1e9),
                ..GovernorConfig::default()
            },
            None,
        ),
        8 => (
            GovernorConfig {
                budget_bytes: Some(256),
                ..GovernorConfig::default()
            },
            None,
        ),
        9 => (
            GovernorConfig {
                budget_bytes: Some(1 << 20),
                ..GovernorConfig::default()
            },
            None,
        ),
        10 => (GovernorConfig::default(), Some(1)),
        _ => (
            GovernorConfig {
                deadline_ms: Some(60.0),
                budget_bytes: Some(512),
                ..GovernorConfig::default()
            },
            Some(1),
        ),
    };

    FuzzCase {
        seed,
        dataset_seed,
        n_frames,
        sabotage: None,
        governor,
        admission_width,
        stmts,
    }
}

/// The deliberate-fault drill: a session that is wrong *only* because the
/// replayer (honoring [`Sabotage::SkipPrune`]) skips the recovery pass's
/// `prune_dangling`. The save bit-flips the detector view's segment, the
/// only one written before the manifest. A session restarted from that
/// store quarantines the segment but keeps the coverage claim, so the
/// re-asked SELECT probes a view that is gone — which the crash-recovery
/// oracle flags at its uninterrupted-save point. (The case has no `Load` of
/// its own: a load replaces the session's views, so the base replay would
/// trip over the quarantined view before any oracle ran.)
pub fn sabotage_case(seed: u64) -> FuzzCase {
    let query = "SELECT id, label FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
                 WHERE id < 40 AND label = 'car'";
    FuzzCase {
        seed,
        dataset_seed: 777,
        n_frames: 48,
        sabotage: Some(Sabotage::SkipPrune),
        governor: GovernorConfig::default(),
        admission_width: None,
        stmts: vec![
            FuzzStmt::Select(query.to_string()),
            FuzzStmt::Fault("bit_flip=nth:1".to_string()),
            FuzzStmt::Save,
            FuzzStmt::Select(query.to_string()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_parser::{parse, Statement};

    /// The fuzz stream, pinned: an xxHash64 of the `Debug` text of the
    /// cases for seeds 0..50. Changing the RNG or what `generate_case`
    /// draws moves it, and with it what every CI fuzz seed exercises.
    #[test]
    fn case_stream_is_pinned() {
        let text: String = (0..50)
            .map(|s| format!("{:?}\n", generate_case(s)))
            .collect();
        assert_eq!(
            eva_common::hash::xxhash64(text.as_bytes(), 0),
            0x00F0_8B68_ED37_5C1A
        );
    }

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            assert_eq!(generate_case(seed), generate_case(seed));
        }
        assert_ne!(generate_case(1).stmts, generate_case(2).stmts);
    }

    #[test]
    fn generated_selects_reparse() {
        for seed in 0..200u64 {
            let case = generate_case(seed);
            assert!(case.n_selects() >= 1, "seed {seed} has no SELECT");
            for stmt in &case.stmts {
                if let FuzzStmt::Select(sql) = stmt {
                    match parse(sql) {
                        Ok(Statement::Select(_)) => {}
                        other => panic!("seed {seed}: `{sql}` → {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn load_never_precedes_save() {
        for seed in 0..300u64 {
            let case = generate_case(seed);
            let mut saved = false;
            for stmt in &case.stmts {
                match stmt {
                    FuzzStmt::Save => saved = true,
                    FuzzStmt::Load => assert!(saved, "seed {seed}: Load before Save"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn tighten_halves_where_constants() {
        let mut rng = SplitMix64::new(5);
        let s = gen_select(&mut rng, 64, true);
        let t = tighten_select(&s);
        // Only the WHERE clause may differ.
        assert_eq!(s.projection, t.projection);
        assert_eq!(s.applies, t.applies);
        assert_eq!(s.limit, t.limit);
    }

    #[test]
    fn governance_knobs_are_emitted() {
        let mut governed = 0;
        let mut tight_deadline = 0;
        let mut budgeted = 0;
        let mut width_one = 0;
        for seed in 0..200u64 {
            let case = generate_case(seed);
            if case.is_governed() {
                governed += 1;
            }
            if case.governor.deadline_ms.is_some_and(|d| d < 1e6) {
                tight_deadline += 1;
            }
            if case.governor.budget_bytes.is_some() {
                budgeted += 1;
            }
            if case.admission_width == Some(1) {
                width_one += 1;
            }
        }
        assert!(governed > 40, "only {governed}/200 governed cases");
        assert!(tight_deadline > 0, "no tight-deadline cases");
        assert!(budgeted > 0, "no byte-budget cases");
        assert!(width_one > 0, "no admission-width-1 cases");
    }

    #[test]
    fn sabotage_case_is_small() {
        let c = sabotage_case(1);
        assert!(c.stmts.len() <= 5);
        assert_eq!(c.sabotage, Some(Sabotage::SkipPrune));
    }
}
