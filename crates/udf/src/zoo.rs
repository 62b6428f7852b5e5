//! The simulated model zoo.
//!
//! Costs and accuracies mirror the paper's Tables 3 and 5:
//!
//! | model | per-tuple cost | boxAP | tier |
//! |---|---|---|---|
//! | YOLO-tiny | 9 ms | 17.6 | LOW |
//! | FasterRCNN-ResNet50 | 99 ms | 37.9 | MEDIUM |
//! | FasterRCNN-ResNet101 | 120 ms | 42.0 | HIGH |
//! | CarType | 6 ms | — | — |
//! | ColorDet | 5 ms (CPU) | — | — |
//! | License | 12 ms | — | — |
//! | Area | ~0 ms | — | — |
//! | SpecializedFilter (2-conv) | 1.5 ms | — | — |
//!
//! A detector with boxAP `a` detects each ground-truth object with
//! probability increasing in `a` and the object's visibility, perturbs the
//! box by noise decreasing in `a`, and occasionally flips vehicle labels.
//! Higher-accuracy models therefore emit **more** detections — reproducing
//! the paper's Fig. 10 observation that reusing a high-accuracy view makes
//! dependent UDFs process more objects.

use std::sync::Arc;

use eva_common::{BBox, CellRef, ColumnBuilder, DataType, EvaError, Field, Result, Schema};
use eva_storage::ViewKeyKind;
use eva_video::{ObjectClass, TrackedObject};

use crate::runtime::{DetRng, SimUdf, UdfEvalContext};

fn salt_of(impl_id: &str) -> u64 {
    eva_common::hash::xxhash64(impl_id.as_bytes(), 0x5EED)
}

// ---------------------------------------------------------------------------
// Object detectors
// ---------------------------------------------------------------------------

/// A simulated object-detection model.
#[derive(Debug, Clone)]
pub struct ObjectDetectorSim {
    impl_id: String,
    cost_ms: f64,
    /// COCO boxAP of the simulated model (17.6 / 37.9 / 42.0 in the paper).
    boxap: f64,
    schema: Arc<Schema>,
    salt: u64,
}

impl ObjectDetectorSim {
    /// Build a detector with the given profile.
    pub fn new(impl_id: &str, cost_ms: f64, boxap: f64) -> ObjectDetectorSim {
        ObjectDetectorSim {
            impl_id: impl_id.to_string(),
            cost_ms,
            boxap,
            schema: Arc::new(detector_output_schema()),
            salt: salt_of(impl_id),
        }
    }

    /// Detection probability for one object.
    fn p_detect(&self, obj: &TrackedObject) -> f64 {
        // boxAP 17.6 → base ≈ 0.55; 37.9 → ≈ 0.86; 42 → ≈ 0.92.
        let base = (0.25 + self.boxap / 55.0).min(0.97);
        (base * (0.55 + 0.55 * obj.visibility as f64)).min(0.99)
    }

    /// Box-coordinate noise amplitude.
    fn noise_amp(&self) -> f32 {
        (0.0015 + (1.0 - self.boxap / 50.0) * 0.004) as f32
    }
}

/// Output schema of every object detector: `(label, bbox, score)`.
pub fn detector_output_schema() -> Schema {
    Schema::new(vec![
        Field::new("label", DataType::Str),
        Field::new("bbox", DataType::BBox),
        Field::new("score", DataType::Float),
    ])
    .expect("static schema is valid")
}

impl SimUdf for ObjectDetectorSim {
    fn impl_id(&self) -> &str {
        &self.impl_id
    }

    fn cost_ms(&self) -> f64 {
        self.cost_ms
    }

    fn output_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn key_kind(&self) -> ViewKeyKind {
        ViewKeyKind::Frame
    }

    fn eval_into(&self, ctx: &UdfEvalContext<'_>, out: &mut [ColumnBuilder]) -> Result<u32> {
        let frame = ctx
            .dataset
            .frame(ctx.frame)
            .ok_or_else(|| EvaError::Exec(format!("frame {} out of range", ctx.frame)))?;
        let mut n = 0;
        for obj in &frame.objects {
            let mut rng = DetRng::new(self.salt, ctx.frame, obj.track_id);
            if rng.next_f64() >= self.p_detect(obj) {
                continue; // missed detection
            }
            // Perturb the box deterministically.
            let amp = self.noise_amp();
            let b = obj.bbox;
            let bbox = BBox::new(
                b.x1 + rng.next_signed() as f32 * amp,
                b.y1 + rng.next_signed() as f32 * amp,
                b.x2 + rng.next_signed() as f32 * amp,
                b.y2 + rng.next_signed() as f32 * amp,
            )
            .clamped();
            // Label flips are rarer for better models.
            let flip_p = (1.0 - self.boxap / 50.0) * 0.06;
            let label = if obj.is_vehicle() && rng.next_f64() < flip_p {
                match obj.class {
                    ObjectClass::Car => "truck",
                    _ => "car",
                }
            } else {
                obj.class.label()
            };
            let score = 0.5 + 0.5 * self.p_detect(obj) * (0.8 + 0.2 * rng.next_f64());
            out[0].push_str(label);
            out[1].push_cell(CellRef::BBox(bbox));
            out[2].push_cell(CellRef::Float(score.min(1.0)));
            n += 1;
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Box-level attribute models
// ---------------------------------------------------------------------------

/// Which vehicle attribute a [`BoxAttrSim`] extracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoxAttr {
    /// Vehicle make (CarType UDF).
    CarType,
    /// Dominant color (ColorDet UDF).
    Color,
    /// License plate (License UDF).
    License,
}

/// A simulated box-level classifier: matches the query box against ground
/// truth by IoU and reports the matched object's attribute, with a small
/// deterministic error rate.
#[derive(Debug, Clone)]
pub struct BoxAttrSim {
    impl_id: String,
    cost_ms: f64,
    gpu: bool,
    attr: BoxAttr,
    schema: Arc<Schema>,
    salt: u64,
}

impl BoxAttrSim {
    /// Build an attribute model.
    pub fn new(impl_id: &str, cost_ms: f64, gpu: bool, attr: BoxAttr) -> BoxAttrSim {
        let out_col = match attr {
            BoxAttr::CarType => "cartype",
            BoxAttr::Color => "color",
            BoxAttr::License => "license",
        };
        BoxAttrSim {
            impl_id: impl_id.to_string(),
            cost_ms,
            gpu,
            attr,
            schema: Arc::new(
                Schema::new(vec![Field::new(out_col, DataType::Str)]).expect("valid schema"),
            ),
            salt: salt_of(impl_id),
        }
    }
}

impl SimUdf for BoxAttrSim {
    fn impl_id(&self) -> &str {
        &self.impl_id
    }

    fn cost_ms(&self) -> f64 {
        self.cost_ms
    }

    fn gpu(&self) -> bool {
        self.gpu
    }

    fn output_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn key_kind(&self) -> ViewKeyKind {
        ViewKeyKind::FrameBox
    }

    fn eval_into(&self, ctx: &UdfEvalContext<'_>, out: &mut [ColumnBuilder]) -> Result<u32> {
        let bbox = ctx
            .bbox
            .ok_or_else(|| EvaError::Exec(format!("{} requires a bbox argument", self.impl_id)))?;
        let frame = ctx
            .dataset
            .frame(ctx.frame)
            .ok_or_else(|| EvaError::Exec(format!("frame {} out of range", ctx.frame)))?;
        // Match against ground truth by IoU.
        let best = frame
            .objects
            .iter()
            .map(|o| (o, o.bbox.iou(&bbox)))
            .filter(|(_, iou)| *iou >= 0.4)
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        // What the model reads off the matched object; `None` when nothing
        // matches, the object has no such attribute, or the model errs.
        let read: Option<&str> = best.and_then(|(obj, _)| {
            // Deterministic key on the *quantized box*, not the track, so
            // results are reproducible from the arguments alone.
            let extra = bbox.key().iter().fold(0u64, |acc, k| {
                acc.wrapping_mul(65_537).wrapping_add(*k as u64)
            });
            if DetRng::new(self.salt, ctx.frame, extra).next_f64() < 0.03 {
                return None;
            }
            match self.attr {
                BoxAttr::CarType => obj.car_type.as_deref(),
                BoxAttr::Color => Some(&obj.color),
                BoxAttr::License => obj.license.as_deref(),
            }
        });
        let unread = match self.attr {
            BoxAttr::License => "unreadable",
            _ => "unknown",
        };
        out[0].push_str(read.unwrap_or(unread));
        Ok(1)
    }
}

// ---------------------------------------------------------------------------
// Cheap UDFs
// ---------------------------------------------------------------------------

/// The AREA UDF: relative box area. Cheap — the optimizer's candidate filter
/// (§3.1 step ①) excludes it from materialization.
#[derive(Debug, Clone)]
pub struct AreaSim {
    schema: Arc<Schema>,
}

impl AreaSim {
    /// Build the area UDF.
    pub fn new() -> AreaSim {
        AreaSim {
            schema: Arc::new(
                Schema::new(vec![Field::new("area", DataType::Float)]).expect("valid schema"),
            ),
        }
    }
}

impl Default for AreaSim {
    fn default() -> Self {
        AreaSim::new()
    }
}

impl SimUdf for AreaSim {
    fn impl_id(&self) -> &str {
        "builtin/area"
    }

    fn cost_ms(&self) -> f64 {
        0.001
    }

    fn gpu(&self) -> bool {
        false
    }

    fn output_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn key_kind(&self) -> ViewKeyKind {
        ViewKeyKind::FrameBox
    }

    fn eval_into(&self, ctx: &UdfEvalContext<'_>, out: &mut [ColumnBuilder]) -> Result<u32> {
        let bbox = ctx
            .bbox
            .ok_or_else(|| EvaError::Exec("area requires a bbox argument".into()))?;
        out[0].push_cell(CellRef::Float(bbox.area() as f64));
        Ok(1)
    }
}

/// The specialized filter of §5.6: a lightweight 2-conv-layer binary
/// classifier answering "does this frame contain a vehicle?". Materialized
/// like any other UDF when cheap enough to matter.
#[derive(Debug, Clone)]
pub struct SpecializedFilterSim {
    schema: Arc<Schema>,
    salt: u64,
}

impl SpecializedFilterSim {
    /// Build the filter.
    pub fn new() -> SpecializedFilterSim {
        SpecializedFilterSim {
            schema: Arc::new(
                Schema::new(vec![Field::new("hasvehicle", DataType::Str)]).expect("valid schema"),
            ),
            salt: salt_of("sim/specialized_filter"),
        }
    }
}

impl Default for SpecializedFilterSim {
    fn default() -> Self {
        SpecializedFilterSim::new()
    }
}

impl SimUdf for SpecializedFilterSim {
    fn impl_id(&self) -> &str {
        "sim/specialized_filter"
    }

    fn cost_ms(&self) -> f64 {
        // Two conv layers on the GPU: lightweight but above the
        // materialization threshold — "since these filters are lightweight
        // UDFs, we also materialize their results whenever possible" (§5.6).
        1.5
    }

    fn output_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn key_kind(&self) -> ViewKeyKind {
        ViewKeyKind::Frame
    }

    fn eval_into(&self, ctx: &UdfEvalContext<'_>, out: &mut [ColumnBuilder]) -> Result<u32> {
        let frame = ctx
            .dataset
            .frame(ctx.frame)
            .ok_or_else(|| EvaError::Exec(format!("frame {} out of range", ctx.frame)))?;
        let has = frame.objects.iter().any(|o| o.is_vehicle());
        // A two-conv filter tuned for high recall errs heavily toward
        // passing frames (the paper's §5.6 gain on Jackson is only ~1.3×,
        // implying the filter forwards most frames); false *negatives* are
        // zero so the filter never drops true work.
        let mut rng = DetRng::new(self.salt, ctx.frame, 0);
        let answer = has || rng.next_f64() < 0.65;
        out[0].push_str(if answer { "true" } else { "false" });
        Ok(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_common::FrameId;
    use eva_video::generator::generate;
    use eva_video::VideoConfig;

    fn dataset() -> eva_video::VideoDataset {
        generate(VideoConfig {
            name: "t".into(),
            n_frames: 60,
            width: 960,
            height: 540,
            fps: 25.0,
            target_density: 6.0,
            person_fraction: 0.0,
            seed: 21,
        })
    }

    fn rcnn101() -> ObjectDetectorSim {
        ObjectDetectorSim::new("sim/rcnn101", 120.0, 42.0)
    }

    fn yolo() -> ObjectDetectorSim {
        ObjectDetectorSim::new("sim/yolo_tiny", 9.0, 17.6)
    }

    #[test]
    fn detector_is_deterministic() {
        let ds = dataset();
        let det = rcnn101();
        let ctx = UdfEvalContext {
            dataset: &ds,
            frame: FrameId(10),
            bbox: None,
        };
        assert_eq!(det.eval(&ctx).unwrap(), det.eval(&ctx).unwrap());
    }

    #[test]
    fn higher_accuracy_detects_more() {
        let ds = dataset();
        let hi = rcnn101();
        let lo = yolo();
        let mut hi_n = 0;
        let mut lo_n = 0;
        for f in 0..60 {
            let ctx = UdfEvalContext {
                dataset: &ds,
                frame: FrameId(f),
                bbox: None,
            };
            hi_n += hi.eval(&ctx).unwrap().len();
            lo_n += lo.eval(&ctx).unwrap().len();
        }
        assert!(hi_n > lo_n, "high-acc should detect more: {hi_n} vs {lo_n}");
    }

    #[test]
    fn detections_stay_close_to_ground_truth() {
        let ds = dataset();
        let det = rcnn101();
        let ctx = UdfEvalContext {
            dataset: &ds,
            frame: FrameId(5),
            bbox: None,
        };
        let rows = det.eval(&ctx).unwrap();
        let gt = &ds.frame(FrameId(5)).unwrap().objects;
        for row in &rows {
            let b = row[1].as_bbox().unwrap();
            let best = gt.iter().map(|o| o.bbox.iou(&b)).fold(0.0f32, f32::max);
            assert!(best > 0.7, "detection box far from any GT (IoU {best})");
            let score = row[2].as_float().unwrap();
            assert!((0.0..=1.0).contains(&score));
        }
    }

    #[test]
    fn cartype_matches_ground_truth() {
        let ds = dataset();
        let det = rcnn101();
        let ct = BoxAttrSim::new("sim/cartype", 6.0, true, BoxAttr::CarType);
        let frame = FrameId(3);
        let detections = det
            .eval(&UdfEvalContext {
                dataset: &ds,
                frame,
                bbox: None,
            })
            .unwrap();
        let gt = &ds.frame(frame).unwrap().objects;
        let mut matched = 0;
        for row in &detections {
            let b = row[1].as_bbox().unwrap();
            let out = ct
                .eval(&UdfEvalContext {
                    dataset: &ds,
                    frame,
                    bbox: Some(b),
                })
                .unwrap();
            let got = out[0][0].as_str().unwrap().to_string();
            if let Some(obj) = gt
                .iter()
                .filter(|o| o.bbox.iou(&b) >= 0.4)
                .max_by(|a, b2| a.bbox.iou(&b).partial_cmp(&b2.bbox.iou(&b)).unwrap())
            {
                if got == obj.car_type.clone().unwrap_or_default() {
                    matched += 1;
                }
            }
        }
        assert!(
            matched * 10 >= detections.len() * 8,
            "cartype accuracy too low: {matched}/{}",
            detections.len()
        );
    }

    #[test]
    fn box_attr_requires_bbox() {
        let ds = dataset();
        let ct = BoxAttrSim::new("sim/cartype", 6.0, true, BoxAttr::CarType);
        let r = ct.eval(&UdfEvalContext {
            dataset: &ds,
            frame: FrameId(0),
            bbox: None,
        });
        assert!(r.is_err());
    }

    #[test]
    fn unmatched_box_is_unknown() {
        let ds = dataset();
        let ct = BoxAttrSim::new("sim/cartype", 6.0, true, BoxAttr::CarType);
        // A tiny box in a corner matches nothing at IoU 0.4.
        let out = ct
            .eval(&UdfEvalContext {
                dataset: &ds,
                frame: FrameId(0),
                bbox: Some(BBox::new(0.001, 0.001, 0.002, 0.002)),
            })
            .unwrap();
        assert_eq!(out[0][0].as_str().unwrap(), "unknown");
        let lic = BoxAttrSim::new("sim/license", 12.0, true, BoxAttr::License);
        let out = lic
            .eval(&UdfEvalContext {
                dataset: &ds,
                frame: FrameId(0),
                bbox: Some(BBox::new(0.001, 0.001, 0.002, 0.002)),
            })
            .unwrap();
        assert_eq!(out[0][0].as_str().unwrap(), "unreadable");
    }

    #[test]
    fn area_computes_box_area() {
        let ds = dataset();
        let area = AreaSim::new();
        let b = BBox::new(0.1, 0.1, 0.5, 0.6);
        let out = area
            .eval(&UdfEvalContext {
                dataset: &ds,
                frame: FrameId(0),
                bbox: Some(b),
            })
            .unwrap();
        let v = out[0][0].as_float().unwrap();
        assert!((v - 0.2).abs() < 1e-6);
        assert!(area.cost_ms() < 0.01, "area must be cheap");
    }

    #[test]
    fn specialized_filter_flags_vehicle_frames() {
        let ds = dataset();
        let filter = SpecializedFilterSim::new();
        let mut true_count = 0;
        for f in 0..60 {
            let frame_has = ds
                .frame(FrameId(f))
                .unwrap()
                .objects
                .iter()
                .any(|o| o.is_vehicle());
            let out = filter
                .eval(&UdfEvalContext {
                    dataset: &ds,
                    frame: FrameId(f),
                    bbox: None,
                })
                .unwrap();
            let says = out[0][0].as_str().unwrap() == "true";
            if frame_has {
                assert!(says, "filter must be high-recall (frame {f})");
            }
            if says {
                true_count += 1;
            }
        }
        assert!(true_count > 0);
    }

    /// Exact, tag-preserving bytes of one cell (boxes by their `f32` bits,
    /// not the quantized key `Value::write_bytes` hashes).
    fn cell_bytes(cell: CellRef<'_>, out: &mut Vec<u8>) {
        match cell {
            CellRef::Null => out.push(0),
            CellRef::Bool(b) => out.extend_from_slice(&[1, b as u8]),
            CellRef::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            CellRef::Float(f) => {
                out.push(3);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            CellRef::Str(s) => {
                out.push(4);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            CellRef::BBox(b) => {
                out.push(5);
                for c in [b.x1, b.y1, b.x2, b.y2] {
                    out.extend_from_slice(&c.to_bits().to_le_bytes());
                }
            }
        }
    }

    /// One call's output out of fresh builders: its row count and every
    /// cell, row by row.
    fn call_bytes(udf: &dyn SimUdf, ctx: &UdfEvalContext<'_>, out: &mut Vec<u8>) -> Vec<BBox> {
        let width = udf.output_schema().len();
        let mut builders: Vec<ColumnBuilder> = (0..width).map(|_| ColumnBuilder::new()).collect();
        let n = udf.eval_into(ctx, &mut builders).unwrap();
        let columns: Vec<_> = builders.into_iter().map(ColumnBuilder::finish).collect();
        assert!(columns.iter().all(|c| c.len() == n as usize));
        out.extend_from_slice(&n.to_le_bytes());
        let mut boxes = Vec::new();
        for row in 0..n as usize {
            for column in &columns {
                cell_bytes(column.cell(row), out);
                if let CellRef::BBox(b) = column.cell(row) {
                    boxes.push(b);
                }
            }
        }
        boxes
    }

    /// `eval_into` writes, cell for cell and tag for tag, the rows `eval`
    /// returned before the interface went columnar: the fingerprints below
    /// were taken from that row-form `eval` (every model, 60 frames, every
    /// box the high-accuracy detector finds), not from the provided helper.
    #[test]
    fn eval_into_writes_the_rows_row_form_eval_returned() {
        let ds = dataset();
        let det = rcnn101();
        let frame_level: [(&dyn SimUdf, u64); 3] = [
            (&det, 0xb05c_39d9_5cec_cb86),
            (&yolo(), 0x95e1_240d_f06b_e810),
            (&SpecializedFilterSim::new(), 0x3511_9e07_0ebc_592b),
        ];
        let box_level: [(&dyn SimUdf, u64); 4] = [
            (
                &BoxAttrSim::new("sim/cartype", 6.0, true, BoxAttr::CarType),
                0xd96a_4f3b_b1f1_76d7,
            ),
            (
                &BoxAttrSim::new("sim/colordet", 5.0, false, BoxAttr::Color),
                0x37ee_17d7_0823_374d,
            ),
            (
                &BoxAttrSim::new("sim/license", 12.0, true, BoxAttr::License),
                0xac16_7e4f_08a9_8248,
            ),
            (&AreaSim::new(), 0xe7c4_145d_092d_7e10),
        ];
        let mut boxes: Vec<(FrameId, BBox)> = Vec::new();
        for (udf, want) in frame_level {
            let mut bytes = Vec::new();
            for f in 0..60 {
                let ctx = UdfEvalContext {
                    dataset: &ds,
                    frame: FrameId(f),
                    bbox: None,
                };
                let found = call_bytes(udf, &ctx, &mut bytes);
                if udf.impl_id() == det.impl_id() {
                    boxes.extend(found.into_iter().map(|b| (FrameId(f), b)));
                }
            }
            let got = eva_common::hash::xxhash64(&bytes, 0);
            assert_eq!(got, want, "{}: {got:#018x}", udf.impl_id());
        }
        assert_eq!(boxes.len(), 170, "boxes the detector found");
        for (udf, want) in box_level {
            let mut bytes = Vec::new();
            for &(frame, bbox) in &boxes {
                let ctx = UdfEvalContext {
                    dataset: &ds,
                    frame,
                    bbox: Some(bbox),
                };
                call_bytes(udf, &ctx, &mut bytes);
            }
            let got = eva_common::hash::xxhash64(&bytes, 0);
            assert_eq!(got, want, "{}: {got:#018x}", udf.impl_id());
        }
    }

    /// A call that errors leaves the caller's builder set as it found it.
    #[test]
    fn an_erroring_call_appends_to_no_builder() {
        let ds = dataset();
        let models: [&dyn SimUdf; 4] = [
            &rcnn101(),
            &BoxAttrSim::new("sim/cartype", 6.0, true, BoxAttr::CarType),
            &AreaSim::new(),
            &SpecializedFilterSim::new(),
        ];
        for udf in models {
            let box_level = udf.key_kind() == ViewKeyKind::FrameBox;
            let mut out: Vec<ColumnBuilder> = (0..udf.output_schema().len())
                .map(|_| ColumnBuilder::new())
                .collect();
            let good = UdfEvalContext {
                dataset: &ds,
                frame: FrameId(10),
                bbox: box_level.then(|| BBox::new(0.1, 0.1, 0.3, 0.3)),
            };
            let n = udf.eval_into(&good, &mut out).unwrap() as usize;
            // Frame out of range (AREA never reads the frame) and missing bbox.
            let bad_frame = UdfEvalContext {
                frame: FrameId(60),
                ..good
            };
            let no_box = UdfEvalContext { bbox: None, ..good };
            if udf.impl_id() != "builtin/area" {
                assert!(udf.eval_into(&bad_frame, &mut out).is_err());
            }
            if box_level {
                assert!(udf.eval_into(&no_box, &mut out).is_err());
            }
            let lens: Vec<usize> = out.iter().map(ColumnBuilder::len).collect();
            assert!(lens.iter().all(|&l| l == n), "{}: {lens:?}", udf.impl_id());
        }
    }

    #[test]
    fn costs_match_paper_tables() {
        assert_eq!(ObjectDetectorSim::new("a", 99.0, 37.9).cost_ms(), 99.0);
        assert_eq!(yolo().cost_ms(), 9.0);
        assert_eq!(rcnn101().cost_ms(), 120.0);
        assert_eq!(
            BoxAttrSim::new("c", 6.0, true, BoxAttr::CarType).cost_ms(),
            6.0
        );
        assert_eq!(
            BoxAttrSim::new("c", 5.0, false, BoxAttr::Color).cost_ms(),
            5.0
        );
    }
}
