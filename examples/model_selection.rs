//! Model selection with Algorithm 2 (weighted set cover): how the optimizer
//! combines multiple materialized views with a cheap fallback model for one
//! logical vision task.
//!
//! ```sh
//! cargo run --release --example model_selection
//! ```

use eva_core::EvaDb;
use eva_video::{ua_detrac, UaDetracSize};

fn main() -> eva_common::Result<()> {
    let mut db = EvaDb::eva()?;
    db.load_video(ua_detrac(UaDetracSize::Short, 19), "video")?;

    // Two applications materialize different detectors on different ranges.
    db.execute_sql(
        "SELECT id FROM video CROSS APPLY fasterrcnn_resnet101(frame) \
         WHERE id < 2500 AND label = 'car'",
    )?
    .rows()?;
    db.execute_sql(
        "SELECT id FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
         WHERE id >= 2500 AND id < 5000 AND label = 'car'",
    )?
    .rows()?;
    println!("materialized: rcnn101 over [0,2500), rcnn50 over [2500,5000)\n");

    // A LOW-accuracy logical query spanning both ranges plus fresh frames:
    // Algorithm 2 stitches together *both* views and falls back to
    // YOLO-tiny only for the uncovered tail.
    let q = "SELECT id, bbox FROM video CROSS APPLY \
             objectdetector(frame) ACCURACY 'LOW' \
             WHERE id < 6000 AND label = 'car'";
    println!(
        "plan for the spanning LOW-accuracy query:\n{}",
        db.explain(q)?
    );
    let r = db.execute_sql(q)?.rows()?;
    println!(
        "rows: {}, simulated seconds: {:.0}",
        r.n_rows(),
        r.sim_secs()
    );

    for (name, c) in db.invocation_stats().all() {
        if c.total_invocations > 0 && c.countable() {
            println!(
                "  {name}: total={} reused={} evaluated={}",
                c.total_invocations,
                c.reused_invocations,
                c.total_invocations - c.reused_invocations
            );
        }
    }
    println!(
        "\nYOLO-tiny ran only on frames neither view covers \
         (the greedy set cover of §4.3)."
    );
    Ok(())
}
