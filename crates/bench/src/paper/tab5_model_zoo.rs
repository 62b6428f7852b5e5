//! **Table 5** — The object-detector model zoo used by the logical-reuse
//! experiment: per-tuple cost and (box)AP-derived accuracy tier.
//!
//! Paper values: YOLO-tiny 9 ms / 17.6 (LOW); FasterRCNN-ResNet50 99 ms /
//! 37.9 (MEDIUM); FasterRCNN-ResNet101 120 ms / 42.0 (HIGH).

use crate::{banner, row, with_metrics, Json, TextTable};
use eva_catalog::Catalog;
use eva_udf::registry::install_standard_zoo;
use eva_udf::UdfRegistry;

pub fn run() -> eva_common::Result<Json> {
    banner("Table 5: Object-detector statistics");
    let catalog = Catalog::new();
    let registry = UdfRegistry::new();
    install_standard_zoo(&registry, &catalog)?;

    let mut table = TextTable::new(vec!["model", "C_u (ms)", "accuracy tier"]);
    let mut json = Vec::new();
    for def in catalog.physical_udfs("objectdetector", eva_catalog::AccuracyLevel::Low) {
        table.row(vec![
            def.name.clone(),
            format!("{:.0}", def.cost_ms.unwrap_or(0.0)),
            def.accuracy.to_string(),
        ]);
        json.push(row![def.name, def.cost_ms, def.accuracy.to_string()]);
    }
    println!("{}", table.render());
    // Catalog-only experiment: no engine runs, so the metrics section is
    // all zeros (kept for a uniform artifact schema).
    Ok(with_metrics(json, &Default::default()))
}
