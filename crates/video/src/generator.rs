//! Seeded track-based video generation.
//!
//! Objects enter the scene as *tracks* — persistent identities with a class,
//! make, color, license plate, a bounding box and a velocity — move smoothly
//! across frames, and leave. Track turnover and density are tuned so the
//! generated datasets match the statistics the paper reports for UA-DETRAC
//! and Jackson (vehicles/frame, resolution, frame counts).

use eva_common::rng::SmallRng;
use eva_common::{BBox, FrameId};

use crate::dataset::{VideoConfig, VideoDataset};
use crate::ground_truth::{FrameMeta, ObjectClass, TrackedObject, CAR_TYPES, COLORS};

/// UA-DETRAC variants from §5.5 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UaDetracSize {
    /// 5 clips, 7.5k frames.
    Short,
    /// 10 clips, 14k frames — the default dataset of the evaluation.
    Medium,
    /// 20 clips, 28k frames.
    Long,
}

impl UaDetracSize {
    /// Frame count for the variant.
    pub fn n_frames(&self) -> u64 {
        match self {
            UaDetracSize::Short => 7_500,
            UaDetracSize::Medium => 14_000,
            UaDetracSize::Long => 28_000,
        }
    }

    /// Target vehicles/frame. The paper notes LONG has slightly more
    /// vehicles per frame than the others (Fig. 12's right axis).
    pub fn density(&self) -> f64 {
        match self {
            UaDetracSize::Short => 7.9,
            UaDetracSize::Medium => 8.3,
            UaDetracSize::Long => 8.8,
        }
    }

    /// Dataset name.
    pub fn name(&self) -> &'static str {
        match self {
            UaDetracSize::Short => "short_ua_detrac",
            UaDetracSize::Medium => "medium_ua_detrac",
            UaDetracSize::Long => "long_ua_detrac",
        }
    }
}

/// Generate a UA-DETRAC-like dataset (960×540 traffic-camera footage with
/// dense vehicle traffic).
pub fn ua_detrac(size: UaDetracSize, seed: u64) -> VideoDataset {
    generate(VideoConfig {
        name: size.name().to_string(),
        n_frames: size.n_frames(),
        width: 960,
        height: 540,
        fps: 25.0,
        target_density: size.density(),
        person_fraction: 0.05,
        seed,
    })
}

/// Generate a Jackson-like dataset (600×400 night street, 14k frames,
/// ~0.1 vehicles per frame).
pub fn jackson(seed: u64) -> VideoDataset {
    generate(VideoConfig {
        name: "jackson".to_string(),
        n_frames: 14_000,
        width: 600,
        height: 400,
        fps: 30.0,
        target_density: 0.1,
        person_fraction: 0.15,
        seed,
    })
}

/// A small deterministic dataset sized for fast tests (192×108, ~6 objects
/// per frame). The integration tests and the fuzzer's sessions load it, so
/// its configuration, name included, pins their fixture data.
pub fn test_dataset(seed: u64, n_frames: u64) -> VideoDataset {
    generate(VideoConfig {
        name: format!("itest_{seed}_{n_frames}"),
        n_frames,
        width: 192,
        height: 108,
        fps: 25.0,
        target_density: 6.0,
        person_fraction: 0.05,
        seed,
    })
}

/// A live track during generation.
struct Track {
    obj: TrackedObject,
    vx: f32,
    vy: f32,
    frames_left: u32,
}

/// Generate a dataset from an arbitrary configuration.
pub fn generate(config: VideoConfig) -> VideoDataset {
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xEAA0_51D0);
    let mut frames = Vec::with_capacity(config.n_frames as usize);
    let mut tracks: Vec<Track> = Vec::new();
    let mut next_track_id: u64 = 1;

    // With mean density D and mean track lifetime L frames, the spawn rate
    // per frame that sustains D is D / L.
    let spawn_rate = config.target_density / MEAN_LIFETIME;

    // Warm up so frame 0 already carries steady-state density.
    let warmup = (MEAN_LIFETIME * 1.5) as u64;
    let frame_interval_ms = (1000.0 / config.fps) as i64;

    for step in 0..(warmup + config.n_frames) {
        // Advance existing tracks.
        tracks.retain_mut(|t| {
            if t.frames_left == 0 {
                return false;
            }
            t.frames_left -= 1;
            let b = t.obj.bbox;
            let nb = BBox::new(b.x1 + t.vx, b.y1 + t.vy, b.x2 + t.vx, b.y2 + t.vy);
            // Drop tracks that have fully left the unit square.
            if nb.x2 < 0.0 || nb.x1 > 1.0 || nb.y2 < 0.0 || nb.y1 > 1.0 {
                return false;
            }
            t.obj.bbox = nb.clamped();
            true
        });

        // Spawn new tracks (Bernoulli splitting of a Poisson process).
        let mut expected = spawn_rate;
        while expected > 0.0 {
            let p = expected.min(1.0);
            if rng.gen_bool(p) {
                tracks.push(spawn_track(&mut rng, &config, &mut next_track_id));
            }
            expected -= 1.0;
        }

        if step >= warmup {
            let id = step - warmup;
            frames.push(FrameMeta {
                id: FrameId(id),
                timestamp_ms: id as i64 * frame_interval_ms,
                objects: tracks.iter().map(|t| t.obj.clone()).collect(),
            });
        }
    }

    VideoDataset::new(config, frames)
}

fn spawn_track(rng: &mut SmallRng, config: &VideoConfig, next_id: &mut u64) -> Track {
    let track_id = *next_id;
    *next_id += 1;

    let is_person = rng.gen_bool(config.person_fraction);
    let class = if is_person {
        ObjectClass::Person
    } else {
        // Traffic mix: mostly cars.
        match rng.gen_range(0..100) {
            0..=79 => ObjectClass::Car,
            80..=89 => ObjectClass::Truck,
            90..=95 => ObjectClass::Bus,
            _ => ObjectClass::Motorbike,
        }
    };

    // Box size: log-uniform linear scale in [0.10, 0.95]. Chosen so the
    // paper's area thresholds select meaningful fractions (area > 0.3 ≈ 24%,
    // > 0.25 ≈ 29%, > 0.15 ≈ 40% of boxes) and the box-level UDFs dominate
    // invocation counts the way Table 3 reports (CarType #TI ≈ 6× detector).
    let scale = (0.10f32.ln() + rng.gen_f32() * (0.95f32.ln() - 0.10f32.ln())).exp();
    let aspect = rng.gen_range(0.6..1.6f32);
    let w = (scale * aspect.sqrt()).min(0.95);
    let h = (scale / aspect.sqrt()).min(0.95);
    let x1 = rng.gen_range(0.0..(1.0 - w));
    let y1 = rng.gen_range(0.0..(1.0 - h));

    let car_type = if is_person {
        None
    } else {
        Some(CAR_TYPES[rng.gen_range(0..CAR_TYPES.len())].to_string())
    };
    let color = COLORS[rng.gen_range(0..COLORS.len())].to_string();
    let license = if is_person {
        None
    } else {
        Some(gen_license(rng))
    };

    Track {
        obj: TrackedObject {
            track_id,
            class,
            car_type,
            color,
            license,
            bbox: BBox::new(x1, y1, x1 + w, y1 + h),
            visibility: rng.gen_range(0.35..1.0),
        },
        vx: rng.gen_range(-0.004..0.004),
        vy: rng.gen_range(-0.004..0.004),
        frames_left: rng.gen_range((MEAN_LIFETIME as u32 / 2)..(MEAN_LIFETIME as u32 * 2)),
    }
}

/// Mean track lifetime in frames.
const MEAN_LIFETIME: f64 = 120.0;

fn gen_license(rng: &mut SmallRng) -> String {
    let letters: String = (0..3)
        .map(|_| (b'A' + rng.gen_range(0..26u8)) as char)
        .collect();
    let digits: String = (0..3)
        .map(|_| (b'0' + rng.gen_range(0..10u8)) as char)
        .collect();
    format!("{letters}{digits}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_common::hash::xxhash64;

    /// Pins a seed-7 dataset — the one every experiment, example session
    /// and benchmark loads: its frame count, its vehicles per frame, and an
    /// xxHash64 of the `Debug` text of its first and last 100 frames. Any
    /// change to the generator or to `eva_common::rng` moves these, and
    /// with them every simulated number the repository reports.
    fn assert_fingerprint(v: &VideoDataset, vehicles_per_frame: f64, head: u64, tail: u64) {
        let frames = v.frames();
        let n = frames.len();
        let hash = |frames: &[crate::FrameMeta]| xxhash64(format!("{frames:?}").as_bytes(), 0);
        assert_eq!(v.stats().n_frames, v.config().n_frames);
        assert_eq!(v.stats().vehicles_per_frame, vehicles_per_frame);
        assert_eq!(
            hash(&frames[..100]),
            head,
            "first 100 frames of {}",
            v.name()
        );
        assert_eq!(
            hash(&frames[n - 100..]),
            tail,
            "last 100 frames of {}",
            v.name()
        );
    }

    #[test]
    fn short_ua_detrac_is_pinned() {
        let v = ua_detrac(UaDetracSize::Short, 7);
        assert_eq!(v.len(), 7_500);
        assert_fingerprint(&v, 8.1044, 0xC173_C143_EF76_FC39, 0x0A0D_4A47_472A_D8E1);
    }

    #[test]
    fn medium_ua_detrac_is_pinned() {
        let v = ua_detrac(UaDetracSize::Medium, 7);
        assert_eq!(v.len(), 14_000);
        let vpf = 8.396357142857143;
        assert_fingerprint(&v, vpf, 0xC173_C143_EF76_FC39, 0xB239_E651_93A4_DE1F);
    }

    #[test]
    fn long_ua_detrac_is_pinned() {
        let v = ua_detrac(UaDetracSize::Long, 7);
        assert_eq!(v.len(), 28_000);
        let vpf = 9.277714285714286;
        assert_fingerprint(&v, vpf, 0xC173_C143_EF76_FC39, 0x792A_0047_90F4_23BE);
    }

    #[test]
    fn jackson_is_pinned() {
        let v = jackson(7);
        assert_eq!(v.len(), 14_000);
        let vpf = 0.05542857142857143;
        assert_fingerprint(&v, vpf, 0x11CB_BE44_5BFE_D593, 0xC899_C177_0B6D_20B0);
    }

    fn small_ua(seed: u64) -> VideoDataset {
        generate(VideoConfig {
            name: "test".into(),
            n_frames: 500,
            width: 960,
            height: 540,
            fps: 25.0,
            target_density: 8.3,
            person_fraction: 0.05,
            seed,
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_ua(42);
        let b = small_ua(42);
        assert_eq!(a.frames(), b.frames());
        let c = small_ua(43);
        assert_ne!(a.frames(), c.frames());
    }

    #[test]
    fn density_close_to_target() {
        let v = small_ua(7);
        let stats = v.stats();
        assert!(
            (stats.vehicles_per_frame - 8.3).abs() < 2.0,
            "vehicles/frame = {}",
            stats.vehicles_per_frame
        );
    }

    #[test]
    fn jackson_is_sparse() {
        let v = jackson(11);
        let stats = v.stats();
        assert!(
            stats.vehicles_per_frame < 0.5,
            "jackson vehicles/frame = {}",
            stats.vehicles_per_frame
        );
        assert_eq!(stats.n_frames, 14_000);
    }

    #[test]
    fn ua_detrac_sizes() {
        assert_eq!(UaDetracSize::Short.n_frames(), 7_500);
        assert_eq!(UaDetracSize::Medium.n_frames(), 14_000);
        assert_eq!(UaDetracSize::Long.n_frames(), 28_000);
        assert!(UaDetracSize::Long.density() > UaDetracSize::Medium.density());
    }

    #[test]
    fn tracks_persist_and_move_smoothly() {
        let v = small_ua(3);
        // Find a track spanning two consecutive frames and verify its boxes
        // overlap strongly (smooth motion).
        let mut found = 0;
        for w in v.frames().windows(2) {
            for o in &w[0].objects {
                if let Some(o2) = w[1].objects.iter().find(|p| p.track_id == o.track_id) {
                    assert!(
                        o.bbox.iou(&o2.bbox) > 0.5,
                        "track {} jumped: {} → {}",
                        o.track_id,
                        o.bbox,
                        o2.bbox
                    );
                    // Attributes are stable along the track.
                    assert_eq!(o.car_type, o2.car_type);
                    assert_eq!(o.color, o2.color);
                    assert_eq!(o.license, o2.license);
                    found += 1;
                }
            }
            if found > 200 {
                break;
            }
        }
        assert!(found > 50, "expected persistent tracks, found {found}");
    }

    #[test]
    fn timestamps_monotone() {
        let v = small_ua(5);
        for w in v.frames().windows(2) {
            assert!(w[1].timestamp_ms > w[0].timestamp_ms);
        }
        assert_eq!(v.frames()[0].timestamp_ms, 0);
    }

    #[test]
    fn area_thresholds_are_selective() {
        // The benchmark predicates area>0.15 / 0.25 / 0.3 must each select a
        // nonempty, strictly-shrinking subset of vehicle boxes.
        let v = small_ua(9);
        let mut counts = [0usize; 3];
        let mut total = 0usize;
        for f in v.frames() {
            for o in &f.objects {
                total += 1;
                let a = o.bbox.area();
                if a > 0.15 {
                    counts[0] += 1;
                }
                if a > 0.25 {
                    counts[1] += 1;
                }
                if a > 0.3 {
                    counts[2] += 1;
                }
            }
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[2]);
        assert!(counts[2] > 0);
        assert!(counts[0] < total);
    }

    #[test]
    fn license_format() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let l = gen_license(&mut rng);
            assert_eq!(l.len(), 6);
            assert!(l[..3].chars().all(|c| c.is_ascii_uppercase()));
            assert!(l[3..].chars().all(|c| c.is_ascii_digit()));
        }
    }

    #[test]
    fn attribute_diversity() {
        let v = small_ua(13);
        let mut types = std::collections::BTreeSet::new();
        let mut colors = std::collections::BTreeSet::new();
        for f in v.frames().iter().take(50) {
            for o in &f.objects {
                if let Some(t) = &o.car_type {
                    types.insert(t.clone());
                }
                colors.insert(o.color.clone());
            }
        }
        assert!(types.len() >= 4, "types: {types:?}");
        assert!(colors.len() >= 4, "colors: {colors:?}");
    }
}
