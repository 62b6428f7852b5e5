//! The concurrent catalog registry.

use std::collections::BTreeMap;
use std::sync::Arc;

use eva_common::sync::RwLock;
use eva_common::{EvaError, Result, UdfId};

use crate::accuracy::AccuracyLevel;
use crate::udf_def::{TableDef, UdfDef};

/// Thread-safe registry of tables and UDFs. Cheap to clone (shared state).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    inner: Arc<RwLock<Inner>>,
}

#[derive(Debug, Default)]
struct Inner {
    tables: BTreeMap<String, TableDef>,
    udfs: BTreeMap<String, UdfDef>,
    next_udf_id: u64,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table; errors on duplicates.
    pub fn create_table(&self, def: TableDef) -> Result<()> {
        let mut inner = self.inner.write();
        let name = def.name.to_ascii_lowercase();
        if inner.tables.contains_key(&name) {
            return Err(EvaError::Catalog(format!("table '{name}' already exists")));
        }
        inner.tables.insert(name.clone(), TableDef { name, ..def });
        Ok(())
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<TableDef> {
        self.inner
            .read()
            .tables
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| EvaError::Catalog(format!("unknown table '{name}'")))
    }

    /// All table names.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.read().tables.keys().cloned().collect()
    }

    /// Drop a table.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.inner
            .write()
            .tables
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| EvaError::Catalog(format!("unknown table '{name}'")))
    }

    /// Register a UDF. `or_replace` mirrors `CREATE OR REPLACE UDF`.
    pub fn create_udf(&self, mut def: UdfDef, or_replace: bool) -> Result<UdfId> {
        let mut inner = self.inner.write();
        let name = def.name.to_ascii_lowercase();
        if inner.udfs.contains_key(&name) && !or_replace {
            return Err(EvaError::Catalog(format!("UDF '{name}' already exists")));
        }
        inner.next_udf_id += 1;
        let id = UdfId(inner.next_udf_id);
        def.id = id;
        def.name = name.clone();
        def.logical_type = def.logical_type.map(|l| l.to_ascii_lowercase());
        inner.udfs.insert(name, def);
        Ok(id)
    }

    /// Look up a UDF by name.
    pub fn udf(&self, name: &str) -> Result<UdfDef> {
        self.inner
            .read()
            .udfs
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| EvaError::Catalog(format!("unknown UDF '{name}'")))
    }

    /// Does a UDF with this name exist?
    pub fn has_udf(&self, name: &str) -> bool {
        self.inner
            .read()
            .udfs
            .contains_key(&name.to_ascii_lowercase())
    }

    /// All registered UDFs.
    pub fn udfs(&self) -> Vec<UdfDef> {
        self.inner.read().udfs.values().cloned().collect()
    }

    /// Drop a UDF.
    pub fn drop_udf(&self, name: &str) -> Result<()> {
        self.inner
            .write()
            .udfs
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| EvaError::Catalog(format!("unknown UDF '{name}'")))
    }

    /// Physical UDFs implementing `logical_type` with accuracy ≥ `required`,
    /// sorted by ascending cost (unprofiled last). This is the `PhysicalUDFs`
    /// lookup of Algorithm 2 (§4.3).
    pub fn physical_udfs(&self, logical_type: &str, required: AccuracyLevel) -> Vec<UdfDef> {
        let lt = logical_type.to_ascii_lowercase();
        let mut out: Vec<UdfDef> = self
            .inner
            .read()
            .udfs
            .values()
            .filter(|d| d.logical_type.as_deref() == Some(lt.as_str()))
            .filter(|d| d.accuracy.satisfies(required))
            .cloned()
            .collect();
        out.sort_by(|a, b| {
            let ca = a.cost_ms.unwrap_or(f64::INFINITY);
            let cb = b.cost_ms.unwrap_or(f64::INFINITY);
            ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_common::{DataType, Field, Schema};

    fn table(name: &str) -> TableDef {
        TableDef {
            name: name.into(),
            schema: Schema::new(vec![Field::new("id", DataType::Int)]).unwrap(),
            n_rows: 10,
            dataset: name.into(),
        }
    }

    fn udf(name: &str, lt: Option<&str>, acc: AccuracyLevel, cost: Option<f64>) -> UdfDef {
        UdfDef {
            id: UdfId(0),
            name: name.into(),
            input: Schema::empty(),
            output: Schema::empty(),
            impl_id: format!("sim/{name}"),
            logical_type: lt.map(|s| s.to_string()),
            accuracy: acc,
            cost_ms: cost,
            gpu: true,
        }
    }

    #[test]
    fn table_lifecycle() {
        let c = Catalog::new();
        c.create_table(table("Video")).unwrap();
        assert_eq!(c.table("video").unwrap().name, "video");
        assert_eq!(c.table("VIDEO").unwrap().n_rows, 10);
        assert!(c.create_table(table("video")).is_err());
        c.drop_table("video").unwrap();
        assert!(c.table("video").is_err());
    }

    #[test]
    fn udf_lifecycle_and_replace() {
        let c = Catalog::new();
        let id1 = c
            .create_udf(
                udf("yolo", Some("ObjectDetector"), AccuracyLevel::Low, None),
                false,
            )
            .unwrap();
        assert!(c
            .create_udf(udf("YOLO", None, AccuracyLevel::Low, None), false)
            .is_err());
        let id2 = c
            .create_udf(
                udf(
                    "yolo",
                    Some("ObjectDetector"),
                    AccuracyLevel::Low,
                    Some(9.0),
                ),
                true,
            )
            .unwrap();
        assert_ne!(id1, id2);
        assert_eq!(c.udf("yolo").unwrap().cost_ms, Some(9.0));
        assert!(c.has_udf("Yolo"));
        c.drop_udf("yolo").unwrap();
        assert!(!c.has_udf("yolo"));
    }

    #[test]
    fn physical_udf_selection_by_accuracy() {
        let c = Catalog::new();
        c.create_udf(
            udf(
                "yolo_tiny",
                Some("objectdetector"),
                AccuracyLevel::Low,
                Some(9.0),
            ),
            false,
        )
        .unwrap();
        c.create_udf(
            udf(
                "rcnn50",
                Some("ObjectDetector"),
                AccuracyLevel::Medium,
                Some(99.0),
            ),
            false,
        )
        .unwrap();
        c.create_udf(
            udf(
                "rcnn101",
                Some("ObjectDetector"),
                AccuracyLevel::High,
                Some(120.0),
            ),
            false,
        )
        .unwrap();
        c.create_udf(
            udf("cartype", Some("CarType"), AccuracyLevel::High, Some(6.0)),
            false,
        )
        .unwrap();

        let low = c.physical_udfs("ObjectDetector", AccuracyLevel::Low);
        assert_eq!(low.len(), 3);
        assert_eq!(low[0].name, "yolo_tiny", "sorted by ascending cost");

        let high = c.physical_udfs("ObjectDetector", AccuracyLevel::High);
        assert_eq!(high.len(), 1);
        assert_eq!(high[0].name, "rcnn101");

        let med = c.physical_udfs("objectdetector", AccuracyLevel::Medium);
        assert_eq!(med.len(), 2);
    }
}
