//! The paper's motivating scenario (Listing 1): a law-enforcement officer
//! iteratively refines a search for a suspicious vehicle, and EVA reuses
//! each step's expensive UDF results in the next.
//!
//! ```sh
//! cargo run --release --example suspicious_vehicle
//! ```

use eva_common::CostCategory;
use eva_core::EvaDb;
use eva_video::{ua_detrac, UaDetracSize};

fn main() -> eva_common::Result<()> {
    let mut db = EvaDb::eva()?;
    db.load_video(ua_detrac(UaDetracSize::Short, 11), "video")?;

    // Q1: the witness recalls a large Nissan some time in the first part of
    // the evening.
    let q1 = "SELECT id, bbox, colordet(frame, bbox) \
              FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
              WHERE id < 5000 AND label = 'car' AND area(frame, bbox) > 0.3 \
              AND cartype(frame, bbox) = 'Nissan'";

    // Q2: looking at Q1's hits, the witness adds the color; the officer
    // narrows the time window and reads license plates.
    let q2 = "SELECT id, bbox, license(frame, bbox) \
              FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
              WHERE id >= 2000 AND id < 5000 AND label = 'car' \
              AND area(frame, bbox) > 0.3 \
              AND colordet(frame, bbox) = 'Gray' \
              AND cartype(frame, bbox) = 'Nissan'";

    // Q3: with a plate in hand, search the whole video for it.
    let q3_template = "SELECT id FROM video CROSS APPLY fasterrcnn_resnet50(frame) \
                       WHERE label = 'car' AND area(frame, bbox) > 0.15 \
                       AND license(frame, bbox) = '{PLATE}'";

    let r1 = db.execute_sql(q1)?.rows()?;
    report("Q1 (find Nissans)", &r1);

    let r2 = db.execute_sql(q2)?.rows()?;
    report("Q2 (gray Nissans + plates)", &r2);

    // Grab a plate from Q2's output (or fall back to a made-up one).
    let plate = r2
        .batch
        .rows()
        .iter()
        .find_map(|row| match &row[2] {
            eva_common::Value::Str(s) if s != "unreadable" => Some(s.clone()),
            _ => None,
        })
        .unwrap_or_else(|| "ABC123".to_string());
    println!("  suspect plate: {plate}");

    let q3 = q3_template.replace("{PLATE}", &plate);
    let r3 = db.execute_sql(&q3)?.rows()?;
    report(&format!("Q3 (find plate {plate} anywhere)"), &r3);

    println!(
        "\nworkload hit rate: {:.1}%  |  view storage: {:.2} MiB",
        db.invocation_stats().hit_percentage(),
        db.storage().total_view_bytes() as f64 / (1024.0 * 1024.0)
    );
    Ok(())
}

fn report(label: &str, out: &eva_exec::QueryOutput) {
    println!(
        "{label}: {} rows | sim {:.0}s (udf {:.0}s, view reads {:.0}s)",
        out.n_rows(),
        out.sim_secs(),
        out.breakdown.get(CostCategory::Udf) / 1000.0,
        out.breakdown.get(CostCategory::ReadView) / 1000.0,
    );
}
