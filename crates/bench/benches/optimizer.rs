//! Criterion micro-benchmarks for the planner: parse and bind + optimize
//! latency of a realistic vBENCH query, cold and warm (after the query has
//! run once and materialized views). `plan_select` claims no coverage, so
//! the cold session stays cold on every iteration: its views exist from the
//! first plan on, empty, with every aggregated predicate still FALSE.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use eva_baselines::ReuseStrategy;
use eva_core::{EvaDb, SessionConfig};
use eva_parser::{parse, Statement};
use eva_video::generator::generate;
use eva_video::VideoConfig;

const Q: &str = "SELECT id, bbox FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
                 WHERE id >= 100 AND id < 700 AND label = 'car' AND \
                 area(frame, bbox) > 0.2 AND cartype(frame, bbox) = 'Nissan' AND \
                 colordet(frame, bbox) = 'Gray'";

fn db() -> EvaDb {
    let mut db = EvaDb::new(SessionConfig::for_strategy(ReuseStrategy::Eva)).unwrap();
    db.load_video(
        generate(VideoConfig {
            name: "v".into(),
            n_frames: 1000,
            width: 96,
            height: 54,
            fps: 25.0,
            target_density: 5.0,
            person_fraction: 0.0,
            seed: 17,
        }),
        "video",
    )
    .unwrap();
    db
}

fn bench_parse(c: &mut Criterion) {
    c.bench_function("parse_vbench_query", |b| {
        b.iter(|| parse(black_box(Q)).unwrap())
    });
}

fn bench_optimize(c: &mut Criterion) {
    let cold = db();
    let stmt = match parse(Q).unwrap() {
        Statement::Select(s) => s,
        _ => unreachable!("constant query is a SELECT"),
    };
    c.bench_function("optimize_cold", |b| {
        b.iter(|| black_box(cold.plan_select(black_box(&stmt)).unwrap()))
    });

    let mut warm = db();
    warm.execute_sql(Q).unwrap();
    c.bench_function("optimize_warm_with_views", |b| {
        b.iter(|| black_box(warm.plan_select(black_box(&stmt)).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_parse, bench_optimize
}
criterion_main!(benches);
