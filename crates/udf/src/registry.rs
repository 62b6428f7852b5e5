//! Runtime registry mapping `IMPL` ids to simulated models, plus the
//! standard zoo installation used by the benchmark and examples.

use std::collections::BTreeMap;
use std::sync::Arc;

use eva_catalog::{AccuracyLevel, Catalog, UdfDef};
use eva_common::clock::ms_from_ns;
use eva_common::sync::RwLock;
use eva_common::{DataType, EvaError, Field, Result, Schema, UdfId};

use crate::runtime::SimUdf;
use crate::zoo::{AreaSim, BoxAttr, BoxAttrSim, ObjectDetectorSim, SpecializedFilterSim};

/// Thread-safe map from implementation id to simulated model.
#[derive(Clone, Default)]
pub struct UdfRegistry {
    impls: Arc<RwLock<BTreeMap<String, Arc<dyn SimUdf>>>>,
}

impl std::fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let keys: Vec<String> = self.impls.read().keys().cloned().collect();
        f.debug_struct("UdfRegistry").field("impls", &keys).finish()
    }
}

impl UdfRegistry {
    /// Empty registry.
    pub fn new() -> UdfRegistry {
        UdfRegistry::default()
    }

    /// Register an implementation.
    pub fn register(&self, udf: Arc<dyn SimUdf>) {
        self.impls.write().insert(udf.impl_id().to_string(), udf);
    }

    /// Resolve an implementation id.
    pub fn get(&self, impl_id: &str) -> Result<Arc<dyn SimUdf>> {
        self.impls
            .read()
            .get(impl_id)
            .cloned()
            .ok_or_else(|| EvaError::Exec(format!("unknown UDF implementation '{impl_id}'")))
    }
}

fn frame_input() -> Schema {
    Schema::new(vec![Field::new("frame", DataType::Frame)]).expect("valid")
}

fn frame_box_input() -> Schema {
    Schema::new(vec![
        Field::new("frame", DataType::Frame),
        Field::new("bbox", DataType::BBox),
    ])
    .expect("valid")
}

/// Install the paper's model zoo into a registry + catalog: the three object
/// detectors of Table 5, the attribute models of Table 3, AREA, LICENSE and
/// the §5.6 specialized filter. Costs are pre-profiled (the profiler would
/// measure the same constants the simulation charges).
pub fn install_standard_zoo(registry: &UdfRegistry, catalog: &Catalog) -> Result<()> {
    struct Entry {
        name: &'static str,
        udf: Arc<dyn SimUdf>,
        logical: Option<&'static str>,
        accuracy: AccuracyLevel,
        input: Schema,
    }

    let entries = vec![
        Entry {
            name: "fasterrcnn_resnet50",
            udf: Arc::new(ObjectDetectorSim::new(
                "sim/fasterrcnn_resnet50",
                99.0,
                37.9,
            )),
            logical: Some("objectdetector"),
            accuracy: AccuracyLevel::Medium,
            input: frame_input(),
        },
        Entry {
            name: "fasterrcnn_resnet101",
            udf: Arc::new(ObjectDetectorSim::new(
                "sim/fasterrcnn_resnet101",
                120.0,
                42.0,
            )),
            logical: Some("objectdetector"),
            accuracy: AccuracyLevel::High,
            input: frame_input(),
        },
        Entry {
            name: "yolo_tiny",
            udf: Arc::new(ObjectDetectorSim::new("sim/yolo_tiny", 9.0, 17.6)),
            logical: Some("objectdetector"),
            accuracy: AccuracyLevel::Low,
            input: frame_input(),
        },
        Entry {
            name: "cartype",
            udf: Arc::new(BoxAttrSim::new("sim/cartype", 6.0, true, BoxAttr::CarType)),
            logical: None,
            accuracy: AccuracyLevel::High,
            input: frame_box_input(),
        },
        Entry {
            name: "colordet",
            udf: Arc::new(BoxAttrSim::new("sim/colordet", 5.0, false, BoxAttr::Color)),
            logical: None,
            accuracy: AccuracyLevel::High,
            input: frame_box_input(),
        },
        Entry {
            name: "license",
            udf: Arc::new(BoxAttrSim::new("sim/license", 12.0, true, BoxAttr::License)),
            logical: None,
            accuracy: AccuracyLevel::High,
            input: frame_box_input(),
        },
        Entry {
            name: "area",
            udf: Arc::new(AreaSim::new()),
            logical: None,
            accuracy: AccuracyLevel::High,
            input: frame_box_input(),
        },
        Entry {
            name: "specialized_filter",
            udf: Arc::new(SpecializedFilterSim::new()),
            logical: None,
            accuracy: AccuracyLevel::Low,
            input: frame_input(),
        },
    ];

    for e in entries {
        let udf = Arc::clone(&e.udf);
        registry.register(Arc::clone(&udf));
        catalog.create_udf(
            UdfDef {
                id: UdfId(0),
                name: e.name.to_string(),
                input: e.input,
                output: (*udf.output_schema()).clone(),
                impl_id: udf.impl_id().to_string(),
                logical_type: e.logical.map(|s| s.to_string()),
                accuracy: e.accuracy,
                cost_ms: Some(ms_from_ns(udf.cost_ns())),
                gpu: udf.gpu(),
            },
            true,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_zoo_registers_everything() {
        let reg = UdfRegistry::new();
        let cat = Catalog::new();
        install_standard_zoo(&reg, &cat).unwrap();
        for name in [
            "fasterrcnn_resnet50",
            "fasterrcnn_resnet101",
            "yolo_tiny",
            "cartype",
            "colordet",
            "license",
            "area",
            "specialized_filter",
        ] {
            let def = cat.udf(name).unwrap();
            assert!(reg.get(&def.impl_id).is_ok(), "impl for {name}");
            assert!(def.cost_ms.is_some());
        }
        // Logical type wiring: three detectors.
        let dets = cat.physical_udfs("ObjectDetector", AccuracyLevel::Low);
        assert_eq!(dets.len(), 3);
        assert_eq!(dets[0].name, "yolo_tiny"); // cheapest first
    }

    #[test]
    fn unknown_impl_errors() {
        let reg = UdfRegistry::new();
        assert!(reg.get("nope").is_err());
    }

    #[test]
    fn costs_match_paper() {
        let reg = UdfRegistry::new();
        let cat = Catalog::new();
        install_standard_zoo(&reg, &cat).unwrap();
        assert_eq!(cat.udf("fasterrcnn_resnet50").unwrap().cost_ms, Some(99.0));
        assert_eq!(
            cat.udf("fasterrcnn_resnet101").unwrap().cost_ms,
            Some(120.0)
        );
        assert_eq!(cat.udf("yolo_tiny").unwrap().cost_ms, Some(9.0));
        assert_eq!(cat.udf("cartype").unwrap().cost_ms, Some(6.0));
        assert_eq!(cat.udf("colordet").unwrap().cost_ms, Some(5.0));
        assert!(!cat.udf("colordet").unwrap().gpu);
    }
}
