//! Logical UDF reuse via weighted set cover (paper §4.3, Algorithm 2).
//!
//! A query naming a *logical* vision task (e.g. `ObjectDetector … ACCURACY
//! 'LOW'`) may be served by any physical model meeting the accuracy
//! constraint — including by *reading the materialized views* of models that
//! already ran (Theorem 4.2 reduces picking the cheapest combination to
//! weighted set cover). The greedy loop of Algorithm 2 repeatedly picks the
//! view with the lowest cost per uncovered tuple while it beats evaluating
//! the cheapest eligible model, then falls back to that model for the rest.

use std::collections::BTreeSet;

use eva_catalog::UdfDef;
use eva_common::ViewId;
use eva_symbolic::{diff, inter, Dnf, StatsCatalog};

/// One physical model with its reuse state.
#[derive(Debug, Clone)]
pub struct PhysicalCandidate {
    /// Catalog definition (cost, accuracy).
    pub udf: UdfDef,
    /// Its materialized view, if one exists.
    pub view: Option<ViewId>,
    /// Number of keys materialized in the view.
    pub view_keys: u64,
    /// The aggregated predicate `p_x` describing which tuples the view
    /// covers.
    pub agg_pred: Dnf,
}

/// One element of the model-selection result, in probe order.
#[derive(Debug, Clone, PartialEq)]
pub enum Choice {
    /// Read this model's materialized view for the tuples it covers.
    ReadView {
        /// The model whose view is read.
        udf: UdfDef,
        /// The view.
        view: ViewId,
    },
    /// Evaluate this model for everything still uncovered (the `y` of
    /// Algorithm 2 — always the last element).
    Evaluate {
        /// The model to run.
        udf: UdfDef,
    },
}

/// Algorithm 2. `eligible` are the physical UDFs satisfying the accuracy
/// constraint (`PhysicalUDFs(sig, C)`), each annotated with its view state;
/// `q` is the invocation's associated predicate; `view_read_ms_per_row` is
/// the per-row view read cost (incl. the `3×` join factor of Eq. 3).
pub fn optimal_physical_udfs(
    eligible: &[PhysicalCandidate],
    q: &Dnf,
    n_input: f64,
    stats: &StatsCatalog,
    view_read_ms_per_row: f64,
) -> Vec<Choice> {
    // Line 3: the cheapest eligible model (used when no view wins).
    let cheapest = eligible
        .iter()
        .min_by(|a, b| {
            cost_of(&a.udf)
                .partial_cmp(&cost_of(&b.udf))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("at least one eligible physical UDF");
    let c_y = cost_of(&cheapest.udf);

    let mut out: Vec<Choice> = Vec::new();
    let mut remaining = q.clone().reduced();
    let mut used: BTreeSet<String> = BTreeSet::new();

    // Lines 4–14: greedy cover.
    loop {
        if remaining.is_false() {
            break;
        }
        // Line 6: cost per uncovered tuple for every candidate view.
        let mut best: Option<(&PhysicalCandidate, f64)> = None;
        for x in eligible {
            if x.view.is_none() || x.view_keys == 0 || used.contains(&x.udf.name) {
                continue;
            }
            let covered = stats.dnf_selectivity(&inter(&x.agg_pred, &remaining)) * n_input;
            if covered <= 0.0 {
                continue;
            }
            let read_cost = view_read_ms_per_row * x.view_keys as f64;
            let w = read_cost / covered;
            if best.map(|(_, bw)| w < bw).unwrap_or(true) {
                best = Some((x, w));
            }
        }
        // Line 8: does the best view beat running the cheapest model?
        match best {
            Some((x, w)) if w < c_y => {
                out.push(Choice::ReadView {
                    udf: x.udf.clone(),
                    view: x.view.expect("checked above"),
                });
                used.insert(x.udf.name.clone());
                // Line 10: shrink the remaining predicate.
                remaining = diff(&x.agg_pred, &remaining);
            }
            _ => break, // Lines 11–13: run the cheapest model for the rest.
        }
    }
    out.push(Choice::Evaluate {
        udf: cheapest.udf.clone(),
    });
    out
}

fn cost_of(udf: &UdfDef) -> f64 {
    udf.cost_ms.unwrap_or(f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_catalog::AccuracyLevel;
    use eva_common::{Schema, UdfId};
    use eva_expr::Expr;

    fn udf(name: &str, cost: f64) -> UdfDef {
        UdfDef {
            id: UdfId(0),
            name: name.into(),
            input: Schema::empty(),
            output: Schema::empty(),
            impl_id: format!("sim/{name}"),
            logical_type: Some("objectdetector".into()),
            accuracy: AccuracyLevel::Medium,
            cost_ms: Some(cost),
            gpu: true,
        }
    }

    fn pred(lo: f64, hi: f64) -> Dnf {
        eva_symbolic::to_dnf(&Expr::col("id").ge(lo).and(Expr::col("id").lt(hi))).unwrap()
    }

    fn candidate(name: &str, cost: f64, view: Option<(u64, Dnf)>) -> PhysicalCandidate {
        match view {
            Some((keys, p)) => PhysicalCandidate {
                udf: udf(name, cost),
                view: Some(ViewId(1)),
                view_keys: keys,
                agg_pred: p,
            },
            None => PhysicalCandidate {
                udf: udf(name, cost),
                view: None,
                view_keys: 0,
                agg_pred: Dnf::false_(),
            },
        }
    }

    fn stats() -> StatsCatalog {
        let mut s = StatsCatalog::new();
        s.insert(
            "id",
            eva_symbolic::ColumnStats::Numeric {
                min: 0.0,
                max: 10_000.0,
                buckets: vec![0.1; 10],
            },
        );
        s
    }

    #[test]
    fn no_views_falls_back_to_cheapest() {
        let eligible = vec![
            candidate("rcnn50", 99.0, None),
            candidate("yolo", 9.0, None),
        ];
        let choices = optimal_physical_udfs(&eligible, &pred(0.0, 1000.0), 1000.0, &stats(), 0.15);
        assert_eq!(choices.len(), 1);
        assert!(matches!(&choices[0], Choice::Evaluate { udf } if udf.name == "yolo"));
    }

    #[test]
    fn covering_view_beats_cheap_model() {
        // rcnn50's view covers the whole query range; reading it costs
        // 0.15ms/row vs 9ms/row for yolo ⇒ read the view.
        let eligible = vec![
            candidate("rcnn50", 99.0, Some((1000, pred(0.0, 1000.0)))),
            candidate("yolo", 9.0, None),
        ];
        let q = pred(0.0, 1000.0);
        let choices = optimal_physical_udfs(&eligible, &q, 1000.0, &stats(), 0.15);
        assert_eq!(choices.len(), 2);
        assert!(matches!(&choices[0], Choice::ReadView { udf, .. } if udf.name == "rcnn50"));
        assert!(matches!(&choices[1], Choice::Evaluate { udf } if udf.name == "yolo"));
    }

    #[test]
    fn expensive_view_with_tiny_overlap_is_skipped() {
        // View covers only a sliver of the query but reading it costs as
        // much as a full scan of its many keys ⇒ cost per uncovered tuple
        // exceeds the cheap model.
        let eligible = vec![
            candidate("rcnn50", 99.0, Some((1_000_000, pred(0.0, 10.0)))),
            candidate("yolo", 9.0, None),
        ];
        let q = pred(0.0, 10_000.0);
        let choices = optimal_physical_udfs(&eligible, &q, 10_000.0, &stats(), 0.15);
        assert_eq!(choices.len(), 1);
        assert!(matches!(&choices[0], Choice::Evaluate { udf } if udf.name == "yolo"));
    }

    #[test]
    fn multiple_views_cover_disjoint_ranges() {
        // Two views covering the two halves; both get picked (the paper's
        // "EVA reuses results from multiple views" behaviour of Fig. 10).
        let eligible = vec![
            candidate("rcnn50", 99.0, Some((500, pred(0.0, 5000.0)))),
            candidate("rcnn101", 120.0, Some((500, pred(5000.0, 10_000.0)))),
            candidate("yolo", 9.0, None),
        ];
        let q = pred(0.0, 10_000.0);
        let choices = optimal_physical_udfs(&eligible, &q, 10_000.0, &stats(), 0.15);
        let views: Vec<&str> = choices
            .iter()
            .filter_map(|c| match c {
                Choice::ReadView { udf, .. } => Some(udf.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(views.len(), 2);
        assert!(views.contains(&"rcnn50") && views.contains(&"rcnn101"));
        assert!(matches!(choices.last(), Some(Choice::Evaluate { udf }) if udf.name == "yolo"));
    }
}
