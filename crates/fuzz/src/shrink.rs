//! Greedy failure shrinking: from a failing session to a minimal repro.
//!
//! Classic delta-debugging adapted to sessions: first drop whole statements
//! (end-first, so dependency-shaped prefixes survive longest), then simplify
//! the surviving SELECTs structurally (strip the WHERE clause or replace it
//! with a sub-predicate, drop LIMIT / ORDER BY / GROUP BY, widen the
//! projection, drop the APPLY). A candidate is accepted iff it still fails
//! with the *same* [`FailKind`] — candidates that mutate into unbindable
//! queries fail with [`FailKind::Replay`] instead and reject themselves.
//! Both passes loop to a fixpoint under an evaluation budget (each
//! evaluation is a full multi-replay oracle run, so the budget is the knob
//! that keeps shrinking bounded).

use eva_expr::Expr;
use eva_parser::{SelectItem, SelectStmt};

use crate::gen::{FuzzCase, FuzzStmt};
use crate::oracles::{check_case, FailKind};

/// Outcome of a shrink run.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The smallest failing case found.
    pub case: FuzzCase,
    /// Oracle evaluations spent.
    pub evals: usize,
    /// Statements removed relative to the input case.
    pub removed_stmts: usize,
}

/// True iff `candidate` fails with the same kind as the original failure.
/// Costs one full oracle evaluation.
fn fails_same(candidate: &FuzzCase, kind: FailKind) -> bool {
    match check_case(candidate) {
        Ok(_) => false,
        Err(f) => f.kind == kind,
    }
}

/// Structurally smaller variants of one SELECT, most aggressive first.
fn simplify_select(stmt: &SelectStmt) -> Vec<SelectStmt> {
    let mut out = Vec::new();
    let mut push = |s: SelectStmt| {
        if s != *stmt && !out.contains(&s) {
            out.push(s);
        }
    };

    if let Some(w) = &stmt.where_clause {
        // Drop the predicate entirely, then try each immediate sub-predicate.
        let mut s = stmt.clone();
        s.where_clause = None;
        push(s);
        let subs: Vec<Expr> = match w {
            Expr::And(a, b) | Expr::Or(a, b) => vec![(**a).clone(), (**b).clone()],
            Expr::Not(e) => vec![(**e).clone()],
            _ => Vec::new(),
        };
        for sub in subs {
            let mut s = stmt.clone();
            s.where_clause = Some(sub);
            push(s);
        }
    }
    if stmt.limit.is_some() {
        let mut s = stmt.clone();
        s.limit = None;
        push(s);
    }
    if !stmt.order_by.is_empty() {
        let mut s = stmt.clone();
        s.order_by.clear();
        s.limit = None; // LIMIT without a total order is nondeterministic
        push(s);
    }
    if !stmt.group_by.is_empty() {
        let mut s = stmt.clone();
        s.group_by.clear();
        s.order_by.clear();
        s.projection = vec![SelectItem::Wildcard];
        push(s);
    }
    if stmt.group_by.is_empty() && stmt.projection != vec![SelectItem::Wildcard] {
        let mut s = stmt.clone();
        s.projection = vec![SelectItem::Wildcard];
        push(s);
    }
    if !stmt.applies.is_empty() {
        // Usually rejects itself (predicates referencing detector columns
        // stop binding), but when the predicate was already dropped this is
        // the biggest simplification available.
        let mut s = stmt.clone();
        s.applies.clear();
        push(s);
    }
    out
}

/// Shrink `case` (which fails with `kind`) to a smaller case failing the
/// same way, spending at most `budget` oracle evaluations.
pub fn shrink_case(case: &FuzzCase, kind: FailKind, budget: usize) -> ShrinkResult {
    let mut best = case.clone();
    let mut evals = 0;
    let mut changed = true;

    while changed && evals < budget {
        changed = false;

        // Pass 1: drop whole statements, scanning from the end.
        let mut i = best.stmts.len();
        while i > 0 && evals < budget {
            i -= 1;
            if best.stmts.len() == 1 {
                break; // keep at least one statement
            }
            let mut candidate = best.clone();
            candidate.stmts.remove(i);
            evals += 1;
            if fails_same(&candidate, kind) {
                best = candidate;
                changed = true;
                // `i` now indexes the statement after the removed one; the
                // countdown naturally continues leftward.
            }
        }

        // Pass 2: simplify each surviving SELECT.
        let mut i = 0;
        'stmts: while i < best.stmts.len() && evals < budget {
            if let FuzzStmt::Select(sql) = &best.stmts[i] {
                if let Ok(eva_parser::Statement::Select(stmt)) = eva_parser::parse(sql) {
                    for simpler in simplify_select(&stmt) {
                        if evals >= budget {
                            break 'stmts;
                        }
                        let mut candidate = best.clone();
                        candidate.stmts[i] = FuzzStmt::Select(simpler.to_string());
                        evals += 1;
                        if fails_same(&candidate, kind) {
                            best = candidate;
                            changed = true;
                            continue 'stmts; // re-simplify this slot from scratch
                        }
                    }
                }
            }
            i += 1;
        }
    }

    ShrinkResult {
        removed_stmts: case.stmts.len() - best.stmts.len(),
        case: best,
        evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_parser::{parse, Statement};

    fn parse_sel(sql: &str) -> SelectStmt {
        match parse(sql) {
            Ok(Statement::Select(s)) => s,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn simplify_produces_strictly_different_variants() {
        let s = parse_sel(
            "SELECT id, label FROM video CROSS APPLY yolo_tiny(frame) \
             WHERE id < 10 AND label = 'car' ORDER BY id",
        );
        let variants = simplify_select(&s);
        assert!(!variants.is_empty());
        for v in &variants {
            assert_ne!(*v, s);
            // Every variant must round-trip through the parser.
            assert_eq!(parse_sel(&v.to_string()), *v);
        }
        // The predicate-dropping and conjunct-splitting variants exist.
        assert!(variants.iter().any(|v| v.where_clause.is_none()));
        assert!(variants
            .iter()
            .any(|v| matches!(&v.where_clause, Some(Expr::Cmp { .. }))));
    }

    #[test]
    fn simplify_wildcard_query_offers_apply_removal() {
        let s = parse_sel("SELECT * FROM video CROSS APPLY yolo_tiny(frame)");
        let variants = simplify_select(&s);
        assert!(variants.iter().any(|v| v.applies.is_empty()));
    }

    #[test]
    fn shrink_on_sabotage_reaches_minimal_repro() {
        // The sabotage drill's case is already minimal: every statement is
        // load-bearing (query → corrupting fault → save → requery), so
        // shrinking must keep all four while staying within budget.
        let case = crate::gen::sabotage_case(1);
        let kind = match check_case(&case) {
            Err(f) => f.kind,
            Ok(_) => panic!("sabotage case unexpectedly green"),
        };
        let r = shrink_case(&case, kind, 40);
        assert!(r.case.stmts.len() <= case.stmts.len());
        assert!(fails_same(&r.case, kind), "shrunk case must still fail");
        assert!(
            r.case.stmts.len() >= 4,
            "select/fault/save/select core must survive"
        );
    }
}
