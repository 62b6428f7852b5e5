//! Cross-application reuse (the paper's Q4): a traffic-monitoring app that
//! only needs a LOW-accuracy detector silently benefits from the
//! high-accuracy detections a tracking application materialized earlier.
//!
//! ```sh
//! cargo run --release --example traffic_monitoring
//! ```

use eva_core::EvaDb;
use eva_video::{ua_detrac, UaDetracSize};

fn main() -> eva_common::Result<()> {
    let mut db = EvaDb::eva()?;
    db.load_video(ua_detrac(UaDetracSize::Short, 5), "video")?;

    // The tracking application runs first with a HIGH-accuracy logical
    // detector, materializing FasterRCNN-ResNet101 results.
    let tracking = "SELECT id, bbox FROM video CROSS APPLY \
                    objectdetector(frame) ACCURACY 'HIGH' \
                    WHERE id < 3000 AND label = 'car' \
                    AND cartype(frame, bbox) = 'Nissan'";
    let r = db.execute_sql(tracking)?.rows()?;
    println!(
        "tracking app (HIGH): {} rows, {:.0}s simulated",
        r.n_rows(),
        r.sim_secs()
    );

    // The traffic planner counts cars per timestamp. A LOW-accuracy model
    // would suffice — but EVA's Algorithm 2 notices the materialized
    // high-accuracy view covers these frames and reads it instead of
    // running YOLO-tiny.
    let monitoring = "SELECT timestamp, COUNT(*) AS cars FROM video CROSS APPLY \
                      objectdetector(frame) ACCURACY 'LOW' \
                      WHERE id < 3000 AND label = 'car' AND area(frame, bbox) > 0.15 \
                      GROUP BY timestamp";
    println!("\nmonitoring plan:\n{}", db.explain(monitoring)?);
    let r = db.execute_sql(monitoring)?.rows()?;
    println!(
        "traffic app (LOW): {} timestamp groups, {:.0}s simulated",
        r.n_rows(),
        r.sim_secs()
    );

    let stats = db.invocation_stats().all();
    for (name, c) in &stats {
        if c.total_invocations > 0 && c.countable() {
            println!(
                "  {name}: {} invocations, {} reused",
                c.total_invocations, c.reused_invocations
            );
        }
    }
    let yolo = db.invocation_stats().get("yolo_tiny");
    println!(
        "\nYOLO-tiny evaluations: {} (the LOW-accuracy request was served \
         from the high-accuracy view)",
        yolo.total_invocations - yolo.reused_invocations
    );
    Ok(())
}
