//! The four exploratory-session workloads: which video each runs on, the
//! queries of one session, and what happens around the queries.

use eva_vbench::{vbench_high, DetectorKind};
use eva_video::generator::generate;
use eva_video::{ua_detrac, UaDetracSize, VideoConfig, VideoDataset};

use crate::rng::SplitMix64;

/// Frames in the `scan-agg` video at full scale.
const SCAN_AGG_FRAMES: u64 = 100_000;
/// Frames of every video at `--smoke` scale.
const SMOKE_FRAMES: u64 = 200;
/// Range widths in one `scan-agg` session (15 steps make 31 queries).
const SCAN_WIDTH_STEPS: u64 = 15;
/// Seeded scripts one run rotates through, so that its numbers describe the
/// generator and not one draw from it (2 and 1 at `--smoke` scale). A
/// `scan-agg` query's time moves by several percent with what ran before it.
const SKIM_SCRIPTS: usize = 64;
const SCAN_SCRIPTS: u64 = 4;
/// The video is part of the benchmark's definition, as UA-DETRAC is of the
/// paper's: `--seed` drives the query generators only. (A generated video's
/// object count moves by about 5% with its seed, and every wall-clock metric
/// with it, which is more than the bounds allow between seeds.)
const VIDEO_SEED: u64 = 7;
/// `skim-long` window width, in hundredths of a percent of the video.
const SKIM_WINDOW_BP: (u64, u64) = (40, 100);

const DETECTOR: &str = "fasterrcnn_resnet50";
const SKIM_DETECTORS: [&str; 3] = [DETECTOR, "yolo_tiny", "fasterrcnn_resnet101"];
const LABELS: [&str; 3] = ["car", "truck", "bus"];
const CAR_TYPES: [&str; 3] = ["Nissan", "Toyota", "Ford"];
const COLORS: [&str; 3] = ["Gray", "Red", "Black"];
const AREAS: [&str; 3] = ["0.05", "0.15", "0.3"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RefineCold,
    ResumeWarm,
    SkimLong,
    ScanAgg,
}

/// One query of a session. `count_star` is the analytically known value of
/// its `COUNT(*)` column, where the query has one over a plain id range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub name: String,
    pub sql: String,
    pub count_star: Option<u64>,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RefineCold,
        Workload::ResumeWarm,
        Workload::SkimLong,
        Workload::ScanAgg,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RefineCold => "refine-cold",
            Workload::ResumeWarm => "resume-warm",
            Workload::SkimLong => "skim-long",
            Workload::ScanAgg => "scan-agg",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether each session restores a saved store, runs warm and saves again.
    pub fn resumes(self) -> bool {
        self == Workload::ResumeWarm
    }

    pub fn dataset(self, smoke: bool) -> VideoDataset {
        if self == Workload::ScanAgg {
            return generate(VideoConfig {
                name: "sparse_scan".to_string(),
                n_frames: if smoke { SMOKE_FRAMES } else { SCAN_AGG_FRAMES },
                width: 600,
                height: 400,
                fps: 30.0,
                target_density: 0.1,
                person_fraction: 0.15,
                seed: VIDEO_SEED,
            });
        }
        if smoke {
            let short = ua_detrac(UaDetracSize::Short, VIDEO_SEED);
            return generate(VideoConfig {
                n_frames: SMOKE_FRAMES,
                ..short.config().clone()
            });
        }
        ua_detrac(UaDetracSize::Medium, VIDEO_SEED)
    }

    /// The session scripts a run rotates through, over a video of `n_frames`
    /// frames: a pure function of the arguments.
    pub fn scripts(self, seed: u64, n_frames: u64, smoke: bool) -> Vec<Vec<Query>> {
        let mut seeds = SplitMix64::new(seed ^ 0x5EED_5C21_9A7E_0001);
        match self {
            Workload::RefineCold | Workload::ResumeWarm => {
                let queries = vbench_high(n_frames, DetectorKind::Physical(DETECTOR), false);
                let named = |q: eva_vbench::QuerySpec| Query {
                    name: q.name,
                    sql: q.sql,
                    count_star: None,
                };
                vec![queries.into_iter().map(named).collect()]
            }
            Workload::SkimLong => (0..if smoke { 2 } else { SKIM_SCRIPTS })
                .map(|_| skim_long(seeds.next_u64(), n_frames))
                .collect(),
            Workload::ScanAgg => {
                let of = if smoke { 1 } else { SCAN_SCRIPTS };
                (0..of)
                    .map(|nth| scan_agg(seeds.next_u64(), n_frames, nth, of))
                    .collect()
            }
        }
    }
}

/// One predicate atom over a detection that needs no further UDF.
fn cheap_atom(rng: &mut SplitMix64) -> String {
    if rng.chance(50) {
        format!("label = '{}'", rng.pick(&LABELS))
    } else {
        format!("area(frame, bbox) > {}", rng.pick(&AREAS))
    }
}

/// The predicate shapes of one `skim-long` session's fresh windows: a fixed
/// multiset, so that every script asks for the same kinds of work and only
/// their order, constants and windows change with the seed. `c` is a cheap
/// atom, `t` a `cartype` test and `k` a `colordet` test.
const SKIM_SHAPES: [&str; SKIM_FRESH] = [
    "c", "c", "c", "c", "c", "c&c", "c&c", "c&c", "c|c", "c|c", "t", "c&t", "k", "c&k", "c|k",
];
/// Fresh windows in one `skim-long` session; every sixth query after them
/// in issue order is a revisit.
const SKIM_FRESH: usize = 15;

fn skim_predicate(rng: &mut SplitMix64, shape: &str) -> String {
    let atoms: Vec<String> = shape
        .split(['&', '|'])
        .map(|atom| match atom {
            "t" => format!("cartype(frame, bbox) = '{}'", rng.pick(&CAR_TYPES)),
            "k" => format!("colordet(frame, bbox) = '{}'", rng.pick(&COLORS)),
            _ => cheap_atom(rng),
        })
        .collect();
    let joiner = if shape.contains('|') { " OR " } else { " AND " };
    format!("({})", atoms.join(joiner))
}

/// VBENCH-LOW's pattern: narrow windows that advance through the video, one
/// in each of `SKIM_FRESH` equal stretches, the three detectors taking turns;
/// after every five of them one query goes back to an earlier window with one
/// more conjunct.
fn skim_long(seed: u64, n_frames: u64) -> Vec<Query> {
    struct Shape {
        lo: u64,
        hi: u64,
        detector: &'static str,
        predicate: String,
    }
    let mut rng = SplitMix64::new(seed);
    let mut shapes = SKIM_SHAPES;
    let mut widths: [u64; SKIM_FRESH] = std::array::from_fn(|i| {
        let (narrow, wide) = SKIM_WINDOW_BP;
        (n_frames * (narrow + (wide - narrow) * i as u64 / (SKIM_FRESH as u64 - 1)) / 10_000).max(2)
    });
    rng.shuffle(&mut shapes);
    rng.shuffle(&mut widths);
    let stretch = n_frames / SKIM_FRESH as u64;
    let mut session: Vec<Shape> = Vec::new();
    for fresh in 0..SKIM_FRESH {
        let width = widths[fresh].min(stretch);
        let lo = fresh as u64 * stretch + rng.range(0, stretch - width);
        session.push(Shape {
            lo,
            hi: lo + width,
            detector: SKIM_DETECTORS[fresh % SKIM_DETECTORS.len()],
            predicate: skim_predicate(&mut rng, shapes[fresh]),
        });
        if fresh % 5 == 4 {
            let earlier = &session[rng.range(0, session.len() as u64 - 1) as usize];
            session.push(Shape {
                lo: earlier.lo,
                hi: earlier.hi,
                detector: earlier.detector,
                predicate: format!("{} AND {}", earlier.predicate, cheap_atom(&mut rng)),
            });
        }
    }
    session
        .iter()
        .enumerate()
        .map(|(i, s)| Query {
            name: format!("S{:02}", i + 1),
            sql: format!(
                "SELECT id, bbox FROM video CROSS APPLY {}(frame) WHERE id >= {} AND id < {} AND {}",
                s.detector, s.lo, s.hi, s.predicate
            ),
            count_star: None,
        })
        .collect()
}

/// UDF-free scans over `id`/`timestamp`. Every session holds the same
/// shapes over range widths from 5% to 100% of the table in equal steps
/// (`COUNT/MIN/MAX` at every step, `GROUP BY timestamp` and a top-k by id at
/// every other step); the seed places the ranges and orders the queries.
/// Script `nth` of `of` takes every `of`-th width of a grid `of` times as
/// fine, so that a run's distinct queries cover the widths evenly and its
/// percentiles do not sit on the edge of a cluster of equal widths.
/// Sessions are short so that a 20-second run repeats each query some ten
/// times: the groupings' wall time is noisy, and a median of five was not
/// steady enough.
fn scan_agg(seed: u64, n_frames: u64, nth: u64, of: u64) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed);
    let mut queries = Vec::new();
    for step in 0..SCAN_WIDTH_STEPS {
        let grid = SCAN_WIDTH_STEPS * of - 1;
        let width = (n_frames * (5 * grid + 95 * (step * of + nth)) / (100 * grid)).max(1);
        let range = |rng: &mut SplitMix64| {
            let lo = rng.range(0, n_frames - width);
            format!("id >= {lo} AND id < {}", lo + width)
        };
        queries.push((
            format!(
                "SELECT COUNT(*), MIN(id), MAX(id) FROM video WHERE {}",
                range(&mut rng)
            ),
            Some(width),
        ));
        if step % 2 == 0 {
            queries.push((
                format!(
                    "SELECT timestamp, COUNT(*) FROM video WHERE {} GROUP BY timestamp",
                    range(&mut rng)
                ),
                None,
            ));
            queries.push((
                format!(
                    "SELECT id, timestamp FROM video WHERE {} ORDER BY id DESC LIMIT {}",
                    range(&mut rng),
                    rng.range(1, 100)
                ),
                None,
            ));
        }
    }
    rng.shuffle(&mut queries);
    queries
        .into_iter()
        .enumerate()
        .map(|(i, (sql, count_star))| Query {
            name: format!("A{:02}", i + 1),
            sql,
            count_star,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sql(workload: Workload, seed: u64, smoke: bool) -> Vec<String> {
        let n_frames = match (workload, smoke) {
            (_, true) => SMOKE_FRAMES,
            (Workload::ScanAgg, false) => SCAN_AGG_FRAMES,
            (_, false) => 14_000,
        };
        let scripts = workload.scripts(seed, n_frames, smoke);
        scripts.into_iter().flatten().map(|q| q.sql).collect()
    }

    #[test]
    fn the_seed_alone_decides_the_generated_sql() {
        for workload in [Workload::SkimLong, Workload::ScanAgg] {
            assert_eq!(sql(workload, 7, false), sql(workload, 7, false));
            assert_ne!(sql(workload, 7, false), sql(workload, 8, false));
        }
        // The paper's refinement session has no generated part.
        assert_eq!(
            sql(Workload::RefineCold, 7, false),
            sql(Workload::ResumeWarm, 8, false)
        );
    }

    #[test]
    fn every_generated_statement_parses() {
        for workload in Workload::ALL {
            for smoke in [true, false] {
                for statement in sql(workload, 7, smoke) {
                    eva_parser::parse(&statement).unwrap_or_else(|e| panic!("{statement}: {e}"));
                }
            }
        }
    }

    #[test]
    fn sessions_have_the_documented_shape() {
        let skim = Workload::SkimLong.scripts(7, 14_000, false);
        assert_eq!(skim.len(), SKIM_SCRIPTS);
        assert!(skim
            .iter()
            .all(|script| script.len() == SKIM_FRESH + SKIM_FRESH / 5));
        let scan = Workload::ScanAgg.scripts(7, SCAN_AGG_FRAMES, false);
        assert_eq!((scan.len(), scan[0].len()), (SCAN_SCRIPTS as usize, 31));
        let counted: Vec<u64> = scan.iter().flatten().filter_map(|q| q.count_star).collect();
        assert_eq!(counted.len(), (SCAN_WIDTH_STEPS * SCAN_SCRIPTS) as usize);
        assert_eq!(counted.iter().min(), Some(&5_000));
        assert_eq!(counted.iter().max(), Some(&SCAN_AGG_FRAMES));
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
