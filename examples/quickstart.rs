//! Quickstart: load a synthetic video, run an exploratory query twice, and
//! watch EVA's materialized-view reuse kick in.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use eva_core::EvaDb;
use eva_video::{ua_detrac, UaDetracSize};

fn main() -> eva_common::Result<()> {
    // A session running the full EVA reuse algorithm with the paper's model
    // zoo (three object detectors, CarType, ColorDet, License, Area…).
    let mut db = EvaDb::eva()?;

    // Load a deterministic synthetic stand-in for the UA-DETRAC dataset.
    db.load_video(ua_detrac(UaDetracSize::Short, 42), "video")?;

    let query = "SELECT id, bbox, cartype(frame, bbox) \
                 FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
                 WHERE id < 1000 AND label = 'car' AND area(frame, bbox) > 0.2";

    println!("plan:\n{}", db.explain(query)?);

    let first = db.execute_sql(query)?.rows()?;
    println!(
        "cold run : {} rows, {:.1} simulated seconds ({:.0} ms wall)",
        first.n_rows(),
        first.sim_secs(),
        first.wall_ms
    );

    // The same exploration a second time: the detector and CarType results
    // now come from materialized views instead of the (simulated) GPU.
    let second = db.execute_sql(query)?.rows()?;
    println!(
        "warm run : {} rows, {:.1} simulated seconds ({:.0} ms wall)",
        second.n_rows(),
        second.sim_secs(),
        second.wall_ms
    );
    println!(
        "reuse speedup: {:.1}x, hit rate so far: {:.1}%",
        first.sim_secs() / second.sim_secs().max(1e-9),
        db.invocation_stats().hit_percentage()
    );

    // Show a few result rows.
    for row in first.batch.rows().iter().take(5) {
        println!("  {row:?}");
    }
    Ok(())
}
