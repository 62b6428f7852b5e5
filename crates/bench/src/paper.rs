//! The paper's evaluation as data: [`EXPERIMENTS`] holds one [`Experiment`]
//! per table or figure, and each lives in its own module below with the
//! shape claims its artifact supports tested beside it.
//!
//! `eva-paper` is the only writer of `experiments_out/`. The
//! `matches_committed` tests recompute every artifact in memory and require
//! it to equal the committed file byte for byte, so a change that moves a
//! paper number fails tier-1 until the artifact is regenerated. The shape
//! tests read the committed artifacts, which that check keeps current.

use std::path::PathBuf;

use eva_common::Result;

use crate::Json;

/// One table or figure of the evaluation.
#[derive(Debug)]
pub struct Experiment {
    /// Its name on the `eva-paper` command line and its artifact's file stem.
    pub id: &'static str,
    /// What the paper calls it.
    pub paper_ref: &'static str,
    /// Prints the experiment's table and returns its `{result, metrics}`
    /// artifact.
    pub run: fn() -> Result<Json>,
}

/// Declares the experiment modules, the registry in run order, and one
/// exact-artifact test per experiment (so cargo's test threads spread them).
macro_rules! registry {
    ($($id:ident: $paper_ref:literal,)*) => {
        $(mod $id;)*

        /// Every experiment, in the order `eva-paper` runs them.
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            id: stringify!($id),
            paper_ref: $paper_ref,
            run: $id::run,
        },)*];

        #[cfg(test)]
        mod matches_committed {
            $(#[test]
            fn $id() {
                super::committed::assert_matches(stringify!($id), super::$id::run);
            })*
        }
    };
}

registry! {
    tab2_hit_percentage: "Table 2",
    fig5_workload_speedup: "Fig. 5 and Eq. 7",
    tab3_udf_statistics: "Table 3",
    fig6_time_breakdown: "Fig. 6",
    tab4_q8_breakdown: "Table 4",
    fig7_symbolic_reduction: "Fig. 7",
    fig8_query_order: "Fig. 8",
    fig9_predicate_reordering: "Fig. 9",
    fig10_logical_reuse: "Fig. 10",
    tab5_model_zoo: "Table 5",
    fig11_video_content: "Fig. 11",
    fig12_video_length: "Fig. 12",
    sec56_specialized_filters: "§5.6",
    ablations: "ablations",
}

/// The committed artifact of experiment `id`: `experiments_out/<id>.json`.
pub fn artifact_path(id: &str) -> PathBuf {
    crate::workspace_path("experiments_out", &format!("{id}.json"))
}

/// Reading and checking the committed artifacts.
#[cfg(test)]
mod committed {
    use eva_common::Result;

    use super::artifact_path;
    use crate::Json;

    /// The committed `result` of experiment `id` as rows of cells, for
    /// artifacts whose result is a table.
    pub(super) fn rows(id: &str) -> Vec<Vec<Json>> {
        let path = artifact_path(id);
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let artifact = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let rows = artifact.get("result").and_then(Json::as_array);
        let rows = rows.unwrap_or_else(|| panic!("{}: result is not a table", path.display()));
        rows.iter()
            .map(|row| match row {
                Json::Arr(cells) => cells.clone(),
                _ => panic!("{id}: {row} is not a row"),
            })
            .collect()
    }

    /// Fails unless a fresh run of `id` prints exactly the committed artifact,
    /// naming the first differing JSON path and the command that regenerates it.
    pub(super) fn assert_matches(id: &str, run: fn() -> Result<Json>) {
        let fresh = run().unwrap_or_else(|e| panic!("{id}: {e}")).pretty();
        let path = artifact_path(id);
        let problem = match std::fs::read_to_string(&path) {
            Ok(committed) if committed == fresh => return,
            Err(e) => format!("cannot be read ({e})"),
            Ok(committed) => match Json::parse(&committed) {
                Err(e) => format!("does not parse ({e})"),
                Ok(committed) => {
                    let fresh = Json::parse(&fresh).expect("a printed artifact parses");
                    match first_difference(&committed, &fresh) {
                        Some(m) => format!("differs from a fresh run at {m}"),
                        None => "differs from a fresh run in layout only".to_string(),
                    }
                }
            },
        };
        panic!(
            "{}: {problem}\nregenerate it with `cargo run --release -p eva-bench --bin eva-paper -- {id}`",
            path.display()
        );
    }

    /// Where two JSON documents first differ, in document order.
    #[derive(Debug, PartialEq)]
    struct Mismatch {
        /// From the root: `result[3][2]`, `metrics.probe_hits`.
        path: String,
        committed: String,
        fresh: String,
    }

    impl std::fmt::Display for Mismatch {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let (path, committed, fresh) = (&self.path, &self.committed, &self.fresh);
            write!(f, "`{path}`: committed {committed}, fresh {fresh}")
        }
    }

    /// The first path at which `committed` and `fresh` differ, or `None` when
    /// they are equal.
    fn first_difference(committed: &Json, fresh: &Json) -> Option<Mismatch> {
        difference_at("", Some(committed), Some(fresh))
    }

    fn difference_at(
        path: &str,
        committed: Option<&Json>,
        fresh: Option<&Json>,
    ) -> Option<Mismatch> {
        match (committed, fresh) {
            (Some(Json::Arr(a)), Some(Json::Arr(b))) => (0..a.len().max(b.len()))
                .find_map(|i| difference_at(&format!("{path}[{i}]"), a.get(i), b.get(i))),
            (Some(a @ Json::Obj(a_fields)), Some(b @ Json::Obj(b_fields))) => {
                let b_only = b_fields.iter().filter(|(k, _)| a.get(k).is_none());
                a_fields.iter().chain(b_only).find_map(|(key, _)| {
                    let path = if path.is_empty() {
                        key.clone()
                    } else {
                        format!("{path}.{key}")
                    };
                    difference_at(&path, a.get(key), b.get(key))
                })
            }
            (a, b) if a == b => None,
            (a, b) => {
                let show = |v: Option<&Json>| v.map_or("nothing".to_string(), Json::to_string);
                Some(Mismatch {
                    path: path.to_string(),
                    committed: show(a),
                    fresh: show(b),
                })
            }
        }
    }

    mod tests {
        use super::*;

        #[test]
        fn equal_documents_have_no_difference() {
            let doc = Json::parse(r#"{"result": [["low", 1.5], ["high", [2, 2.5]]]}"#).unwrap();
            assert_eq!(first_difference(&doc, &doc.clone()), None);
        }

        #[test]
        fn a_changed_nested_number_reports_its_path() {
            let committed =
                r#"{"result": [["low", 1.5], ["high", [2, 2.5]]], "metrics": {"probes": 3}}"#;
            let committed = Json::parse(committed).unwrap();
            let fresh = Json::parse(&committed.to_string().replace("2.5", "2.75")).unwrap();
            let m = first_difference(&committed, &fresh).expect("one number moved");
            assert_eq!(m.path, "result[1][1][1]");
            assert_eq!(
                m.to_string(),
                "`result[1][1][1]`: committed 2.5, fresh 2.75"
            );

            let fresh = Json::parse(&committed.to_string().replace("3}", "4}")).unwrap();
            let m = first_difference(&committed, &fresh).expect("one counter moved");
            assert_eq!(m.path, "metrics.probes");
        }

        #[test]
        fn a_missing_element_or_field_is_a_difference() {
            let committed = Json::parse(r#"{"result": [1, 2], "metrics": {}}"#).unwrap();
            let shorter = Json::parse(r#"{"result": [1], "metrics": {}}"#).unwrap();
            let m = first_difference(&committed, &shorter).unwrap();
            assert_eq!(
                (m.path.as_str(), m.fresh.as_str()),
                ("result[1]", "nothing")
            );
            let wider = Json::parse(r#"{"result": [1, 2], "metrics": {"probes": 0}}"#).unwrap();
            let m = first_difference(&committed, &wider).unwrap();
            assert_eq!(
                (m.path.as_str(), m.committed.as_str()),
                ("metrics.probes", "nothing")
            );
        }
    }
}
