//! # eva-bench
//!
//! The experiment harness reproducing **every table and figure** of the
//! paper's evaluation (§5). Each experiment is a binary under `src/bin/`
//! printing the same rows/series the paper reports; `all_experiments` runs
//! the full suite and writes machine-readable JSON next to the text output.
//!
//! | binary | paper artifact |
//! |---|---|
//! | `tab2_hit_percentage` | Table 2 |
//! | `fig5_workload_speedup` | Fig. 5 (+ Eq. 7 upper bounds) |
//! | `tab3_udf_statistics` | Table 3 |
//! | `fig6_time_breakdown` | Fig. 6a/6b |
//! | `tab4_q8_breakdown` | Table 4 |
//! | `fig7_symbolic_reduction` | Fig. 7 |
//! | `fig8_query_order` | Fig. 8a/8b |
//! | `fig9_predicate_reordering` | Fig. 9 |
//! | `fig10_logical_reuse` | Fig. 10 |
//! | `tab5_model_zoo` | Table 5 |
//! | `fig11_video_content` | Fig. 11 |
//! | `fig12_video_length` | Fig. 12 |
//! | `sec56_specialized_filters` | §5.6 |
//!
//! Reported "time" is simulated time from the virtual clock (DESIGN.md §1),
//! so results are deterministic for a fixed dataset seed.

use std::collections::BTreeMap;
use std::path::PathBuf;

use eva_common::{EvaError, Result, SimClock};
use eva_core::{EvaDb, SessionConfig};
use eva_parser::{parse, Statement};
use eva_planner::{Binder, CommitLog, Optimizer, ReuseStrategy};
use eva_symbolic::naive::ops as naive_ops;
use eva_symbolic::{diff, inter, union, Dnf, NaiveDnf};
use eva_udf::UdfSignature;
use eva_vbench::Workload;
use eva_video::{jackson, ua_detrac, UaDetracSize, VideoDataset};

pub use eva_common::json::Json;
pub use eva_common::table_fmt::{fmt_f, fmt_x, TextTable};

/// One evaluated chunk for the view-store micro-benchmarks, in the shape
/// STORE hands over: `n` frame keys from `first` on, one `"car"` row each.
pub fn car_chunk(
    first: u64,
    n: u64,
) -> (Vec<(eva_storage::ViewKey, u32)>, Vec<eva_common::Column>) {
    let entries = (first..first + n)
        .map(|i| (eva_storage::ViewKey::frame(eva_common::FrameId(i)), 1))
        .collect();
    let labels = vec![eva_common::Value::from("car"); n as usize];
    (entries, vec![eva_common::Column::from_values(&labels)])
}

/// One FunCache batch for the micro-benchmarks, in the shape the apply
/// operator drives the table: each of `ids` is hashed (64 payload bytes plus
/// the id) and looked up, a miss stores one `"car"` row, and the batch is
/// finished into its gathered answer. Returns how many inputs hit.
pub fn funcache_car_batch(
    cache: &eva_exec::FunCacheTable,
    ids: impl IntoIterator<Item = u64>,
) -> usize {
    let mut bytes: Vec<u8> = (0..64u8).collect();
    let mut batch = cache.batch("det", 1);
    let mut hits = 0;
    for id in ids {
        bytes.truncate(64);
        bytes.extend_from_slice(&id.to_le_bytes());
        let car = |out: &mut [eva_common::ColumnBuilder]| {
            out[0].push_str("car");
            Ok(1)
        };
        let hit = batch.answer(&bytes, car).expect("a benchmark-sized cache");
        hits += usize::from(hit.is_some());
    }
    batch.finish();
    hits
}

/// The dataset seed every experiment uses (determinism across binaries).
pub const SEED: u64 = 7;

/// The medium UA-DETRAC dataset (the evaluation default).
pub fn medium_dataset() -> VideoDataset {
    ua_detrac(UaDetracSize::Medium, SEED)
}

/// The Jackson dataset (§5.5/§5.6).
pub fn jackson_dataset() -> VideoDataset {
    jackson(SEED)
}

/// A UA-DETRAC dataset by size.
pub fn sized_dataset(size: UaDetracSize) -> VideoDataset {
    ua_detrac(size, SEED)
}

/// A session of the given strategy with `dataset` loaded as table `video`.
pub fn session_with(strategy: ReuseStrategy, dataset: &VideoDataset) -> Result<EvaDb> {
    let mut db = EvaDb::new(SessionConfig::for_strategy(strategy))?;
    db.load_video(dataset.clone(), "video")?;
    Ok(db)
}

/// A session from an explicit config with `dataset` loaded.
pub fn session_with_config(config: SessionConfig, dataset: &VideoDataset) -> Result<EvaDb> {
    let mut db = EvaDb::new(config)?;
    db.load_video(dataset.clone(), "video")?;
    Ok(db)
}

/// One Fig. 7 data point: the atoms of `[INTER, DIFF, UNION](p_u, q)` for one
/// coverage commit, under EVA's reduction and under the naive `simplify`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomCounts {
    /// Atoms under EVA's reduction (Algorithm 1).
    pub eva: [usize; 3],
    /// Atoms under the naive simplifier.
    pub naive: [usize; 3],
}

/// Fig. 7's data: run `workload` on `db` from a clean state and, for every
/// coverage commit each query makes, count the atoms of the three derived
/// predicates against the signature's history — once with EVA's algebra and
/// once with the naive baseline, which starts from the predicate as written.
///
/// The engine keeps no such history (its commit is `p_u ← UNION(p_u, q)` and
/// nothing else), so each query is planned here first to see the commits it
/// will make, folded into this function's own per-signature aggregates, and
/// then executed so the next query plans against the views it left.
pub fn symbolic_reduction_history(
    db: &mut EvaDb,
    workload: &Workload,
) -> Result<BTreeMap<UdfSignature, Vec<AtomCounts>>> {
    db.reset_reuse_state();
    let mut aggregates: BTreeMap<UdfSignature, (Dnf, NaiveDnf)> = BTreeMap::new();
    let mut history: BTreeMap<UdfSignature, Vec<AtomCounts>> = BTreeMap::new();
    for q in &workload.queries {
        let Statement::Select(stmt) = parse(&q.sql)? else {
            return Err(EvaError::Plan(format!("not a SELECT: {}", q.sql)));
        };
        let logical = Binder::new(db.catalog()).bind_select(&stmt)?;
        let log = CommitLog::new();
        let optimizer = Optimizer {
            catalog: db.catalog(),
            manager: db.manager(),
            stats: db.stats_catalog(),
            config: db.config().planner,
            commits: Some(&log),
        };
        optimizer.optimize(&logical, &SimClock::new())?;
        for c in log.pending() {
            let (agg, naive_agg) = aggregates
                .entry(c.sig.clone())
                .or_insert_with(|| (Dnf::false_(), NaiveDnf::false_()));
            let naive_q = NaiveDnf::from_expr(&c.assoc_expr);
            let p_union = union(agg, &c.assoc);
            let naive_union = naive_ops::union(naive_agg, &naive_q);
            history.entry(c.sig).or_default().push(AtomCounts {
                eva: [
                    inter(agg, &c.assoc).atom_count(),
                    diff(agg, &c.assoc).atom_count(),
                    p_union.atom_count(),
                ],
                naive: [
                    naive_ops::inter(naive_agg, &naive_q).atom_count(),
                    naive_ops::diff(naive_agg, &naive_q).atom_count(),
                    naive_union.atom_count(),
                ],
            });
            (*agg, *naive_agg) = (p_union, naive_union);
        }
        db.execute_select(&stmt)?;
    }
    Ok(history)
}

/// Directory where experiments drop their JSON results.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(
        std::env::var("EVA_BENCH_OUT").unwrap_or_else(|_| "experiments_out".to_string()),
    );
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Write a result to `experiments_out/<name>.json`.
fn write_json(name: &str, value: &Json) {
    let path = out_dir().join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, value.pretty()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Write a result to `experiments_out/<name>.json` wrapped as
/// `{ "result": …, "metrics": … }`, attaching the runtime-metrics snapshot
/// of the session (or sessions, summed) that produced it. Every experiment
/// binary goes through this so each JSON artifact records probe hit rates,
/// UDF calls avoided, and zero-copy traffic next to its headline numbers.
/// The snapshot is written [`deterministic`](eva_common::MetricsSnapshot::deterministic)
/// (scheduling counters and gauges read 0), so two runs of an experiment
/// write the same bytes.
pub fn write_json_with_metrics(
    name: &str,
    result: impl Into<Json>,
    metrics: &eva_common::MetricsSnapshot,
) {
    let metrics = metrics.deterministic().to_json();
    let wrapped = Json::obj([("result", result.into()), ("metrics", metrics)]);
    write_json(name, &wrapped);
}

/// One artifact row: `row![a, b, ..]` is the JSON array of its cells, each
/// converted with `Json::from`.
#[macro_export]
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        $crate::Json::Arr(vec![$($crate::Json::from($cell)),*])
    };
}

/// Write a Prometheus text-format snapshot (counters + span-latency
/// histograms) to `experiments_out/<name>.prom` — a scrape-ready export of
/// one experiment's runtime behaviour.
pub fn write_prometheus(
    name: &str,
    metrics: &eva_common::MetricsSnapshot,
    hists: &eva_common::SpanHists,
) {
    let path = out_dir().join(format!("{name}.prom"));
    if let Err(e) = std::fs::write(&path, eva_common::prometheus_text(metrics, hists)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Write a query trace to `experiments_out/<name>.trace.json` in the Chrome
/// trace-event format (open via `chrome://tracing` or ui.perfetto.dev).
pub fn write_chrome_trace(name: &str, trace: &eva_common::QueryTrace) {
    let path = out_dir().join(format!("{name}.trace.json"));
    if let Err(e) = std::fs::write(&path, trace.to_chrome_json()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Append one record to `experiments_out/<name>.json`, treating the file as
/// a growing JSON array (created fresh when missing or unparsable). This is
/// how `bench_trajectory` accumulates one record per commit.
pub fn append_json_record(name: &str, record: Json) {
    let path = out_dir().join(format!("{name}.json"));
    let mut records = match std::fs::read_to_string(&path).map(|s| Json::parse(&s)) {
        Ok(Ok(Json::Arr(records))) => records,
        _ => Vec::new(),
    };
    records.push(record);
    write_json(name, &Json::Arr(records));
}

/// Print an experiment banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_deterministic() {
        assert_eq!(medium_dataset().frames()[0], medium_dataset().frames()[0]);
        assert_eq!(medium_dataset().len(), 14_000);
        assert_eq!(jackson_dataset().len(), 14_000);
    }

    fn small_dataset(n_frames: u64) -> VideoDataset {
        eva_video::generator::generate(eva_video::VideoConfig {
            name: "t".into(),
            n_frames,
            width: 10,
            height: 10,
            fps: 25.0,
            target_density: 1.0,
            person_fraction: 0.0,
            seed: 1,
        })
    }

    #[test]
    fn session_builders_work() {
        let db = session_with(ReuseStrategy::Eva, &small_dataset(10)).unwrap();
        assert!(db.catalog().table("video").is_ok());
    }

    fn detector_query(name: &str, hi: u64) -> eva_vbench::QuerySpec {
        eva_vbench::QuerySpec {
            name: name.into(),
            window: (0.0, 1.0),
            sql: format!(
                "SELECT id FROM video CROSS APPLY fasterrcnn_resnet50(frame) WHERE id < {hi}"
            ),
            n_udf_preds: 0,
            accuracy: "LOW",
        }
    }

    #[test]
    fn reduction_history_tracks_both_engines() {
        let mut db = session_with(ReuseStrategy::Eva, &small_dataset(20)).unwrap();
        let workload = Workload::new(
            "two-windows",
            vec![detector_query("Q1", 5), detector_query("Q2", 8)],
        );
        let history = symbolic_reduction_history(&mut db, &workload).unwrap();
        let det = UdfSignature::new("fasterrcnn_resnet50", "video", &["frame"]);
        assert_eq!(history.keys().collect::<Vec<_>>(), vec![&det]);
        let points = &history[&det];
        assert_eq!(points.len(), 2, "one point per coverage commit");
        // EVA's union of id<5 and id<8 reduces to one atom; naive keeps 2.
        assert_eq!(points[1].eva[2], 1);
        assert_eq!(points[1].naive[2], 2);
        // The history is this function's own: the engine committed the same
        // two predicates and nothing more.
        assert_eq!(db.manager().aggregated(&det).atom_count(), 1);
    }

    #[test]
    fn eva_never_needs_more_atoms_than_simplify_on_vbench_high() {
        let ds = small_dataset(300);
        let detector = eva_vbench::DetectorKind::Physical("fasterrcnn_resnet50");
        let workload = Workload::new(
            "vbench-high",
            eva_vbench::vbench_high(ds.len(), detector, false),
        );
        let mut db = session_with(ReuseStrategy::Eva, &ds).unwrap();
        let history = symbolic_reduction_history(&mut db, &workload).unwrap();
        assert!(
            history.len() >= 3,
            "detector, cartype, colordet: {history:?}"
        );
        for (sig, points) in &history {
            for (i, p) in points.iter().enumerate() {
                for k in 0..3 {
                    assert!(p.eva[k] <= p.naive[k], "{sig} point {i}: {p:?}");
                }
            }
        }
    }
}
