//! The fidelity-dependent detection model shared by the object-recognition
//! operators.
//!
//! For an object `o` in frame `t`, operator `op` detects `o` iff
//!
//! ```text
//! p(op, o, fidelity)  >  u(op, o, t)
//! ```
//!
//! where `u` is a deterministic pseudo-random draw (fixed across fidelities)
//! and `p` is the detection probability:
//!
//! ```text
//! p = salience_weight(o) · sigmoid((h_px − h50) / (h50/3)) · retention^γ
//! ```
//!
//! * `h_px` — the object's (or plate's) apparent height in pixels at the
//!   frame's resolution; richer resolution ⇒ larger `h_px` ⇒ higher `p`.
//! * `h50` — the operator's size requirement: the apparent height at which
//!   detection reaches 50 %. The full NN tolerates small objects poorly
//!   compared to a specialised NN? No — the opposite: the cheap specialised
//!   NN needs larger, clearer objects than the full NN, and the plate/OCR
//!   operators need the *plate*, a small sub-region, to be resolvable.
//! * `retention^γ` — image-quality sensitivity; γ is large for License/OCR
//!   (fine textures) and small for Motion/Diff (coarse blobs). This is the
//!   source of the quality×resolution interplay §2.4 describes.
//!
//! Because `p` is monotone in every fidelity knob and `u` is fixed, the set
//! of detections at a poorer fidelity is a subset of the set at a richer
//! fidelity — observation O1 holds by construction.

use vstore_datasets::SceneObject;
use vstore_types::DeterministicHasher;
use vstore_types::{Fidelity, OperatorKind};

/// Per-operator parameters of the detection model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionParams {
    /// Apparent pixel height at which detection probability reaches 50 %.
    pub h50: f64,
    /// Image-quality exponent γ.
    pub quality_exponent: f64,
    /// `true` when the size requirement applies to the licence plate rather
    /// than the whole object.
    pub plate_based: bool,
    /// Minimum object speed (frame-widths/second) for the operator to care
    /// about the object at all (Motion/Opflow ignore parked objects).
    pub min_speed: f32,
}

impl DetectionParams {
    /// Parameters for one operator.
    pub fn for_operator(kind: OperatorKind) -> DetectionParams {
        match kind {
            OperatorKind::Diff => DetectionParams {
                h50: 4.0,
                quality_exponent: 0.25,
                plate_based: false,
                min_speed: 0.0,
            },
            OperatorKind::SpecializedNN => DetectionParams {
                h50: 30.0,
                quality_exponent: 0.8,
                plate_based: false,
                min_speed: 0.0,
            },
            OperatorKind::FullNN => DetectionParams {
                h50: 55.0,
                quality_exponent: 0.5,
                plate_based: false,
                min_speed: 0.0,
            },
            OperatorKind::Motion => DetectionParams {
                h50: 6.0,
                quality_exponent: 0.3,
                plate_based: false,
                min_speed: 0.05,
            },
            OperatorKind::License => DetectionParams {
                h50: 6.0,
                quality_exponent: 1.6,
                plate_based: true,
                min_speed: 0.0,
            },
            OperatorKind::Ocr => DetectionParams {
                h50: 9.0,
                quality_exponent: 2.2,
                plate_based: true,
                min_speed: 0.0,
            },
            OperatorKind::OpticalFlow => DetectionParams {
                h50: 10.0,
                quality_exponent: 0.5,
                plate_based: false,
                min_speed: 0.03,
            },
            OperatorKind::Color => DetectionParams {
                h50: 12.0,
                quality_exponent: 1.8,
                plate_based: false,
                min_speed: 0.0,
            },
            OperatorKind::Contour => DetectionParams {
                h50: 8.0,
                quality_exponent: 0.6,
                plate_based: false,
                min_speed: 0.0,
            },
        }
    }
}

/// Logistic function.
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Apparent height of an object (normalised height `h`) in pixels at a
/// resolution, measured on the richness scale: `h · 0.75·√pixels`, which for
/// 16:9 resolutions equals the true pixel height and is monotone in the
/// resolution's pixel count for every aspect ratio (so that accuracy stays
/// monotone along the richer-than order).
fn apparent_height(normalised_height: f32, fidelity: &Fidelity) -> f64 {
    f64::from(normalised_height) * 0.75 * (fidelity.resolution.pixels() as f64).sqrt()
}

/// The detection probability of `object` for `kind` at the fidelity the
/// containing frame was materialised at (`signal_retention` is the frame's
/// compound retention, normally `fidelity.quality.signal_retention()`).
pub fn detection_probability(
    kind: OperatorKind,
    object: &SceneObject,
    fidelity: &Fidelity,
    signal_retention: f64,
) -> f64 {
    let params = DetectionParams::for_operator(kind);
    if object.speed.abs() < params.min_speed {
        return 0.0;
    }
    if params.plate_based && !object.has_visible_plate() {
        return 0.0;
    }
    let h_px = if params.plate_based {
        apparent_height(object.bbox.h, fidelity) * 0.12
    } else {
        apparent_height(object.bbox.h, fidelity)
    };
    let size_factor = sigmoid((h_px - params.h50) / (params.h50 / 3.0));
    let quality_factor = signal_retention
        .clamp(0.0, 1.0)
        .powf(params.quality_exponent);
    let salience_weight = 0.55 + 0.45 * f64::from(object.salience);
    (salience_weight * size_factor * quality_factor).clamp(0.0, 1.0)
}

/// The deterministic draw compared against the detection probability. One
/// draw per `(operator, object, frame)`, identical across fidelities.
pub fn detection_draw(kind: OperatorKind, object_id: u64, source_index: u64) -> f64 {
    DeterministicHasher::new(0x00D5_7EC7)
        .mix(kind as u64)
        .mix(object_id)
        .mix(source_index)
        .unit()
}

/// `true` if the operator detects the object in this frame at this fidelity.
pub fn detects(
    kind: OperatorKind,
    object: &SceneObject,
    fidelity: &Fidelity,
    signal_retention: f64,
    source_index: u64,
) -> bool {
    detection_probability(kind, object, fidelity, signal_retention)
        > detection_draw(kind, object.id, source_index)
}

/// Apparent height in pixels of an object's licence plate at a fidelity, on
/// the same monotone richness scale used by [`detection_probability`].
pub fn plate_apparent_height(object: &SceneObject, fidelity: &Fidelity) -> f64 {
    apparent_height(object.bbox.h, fidelity) * 0.12
}

/// Per-character OCR success probability for a plate of apparent height
/// `plate_px` at the given retention.
pub fn ocr_char_probability(plate_px: f64, signal_retention: f64) -> f64 {
    let size = sigmoid((plate_px - 11.0) / 3.0);
    let quality = signal_retention.clamp(0.0, 1.0).powf(2.0);
    (0.25 + 0.75 * size * quality).clamp(0.0, 1.0)
}

/// Deterministic draw for one OCR character.
pub fn ocr_char_draw(object_id: u64, source_index: u64, char_index: usize) -> f64 {
    DeterministicHasher::new(0x000C_12AA)
        .mix(object_id)
        .mix(source_index)
        .mix(char_index as u64)
        .unit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstore_datasets::{BoundingBox, ObjectClass, ObjectColor, PlateText};
    use vstore_types::{CropFactor, FrameSampling, ImageQuality, Resolution};

    fn car(height: f32, salience: f32) -> SceneObject {
        SceneObject {
            id: 42,
            class: ObjectClass::Vehicle {
                plate_visible: true,
            },
            bbox: BoundingBox::new(0.4, 0.4, height * 1.8, height),
            color: ObjectColor::Blue,
            plate: Some(PlateText::from_hash(7)),
            salience,
            speed: 0.2,
        }
    }

    fn fid(q: ImageQuality, r: Resolution) -> Fidelity {
        Fidelity::new(q, CropFactor::C100, r, FrameSampling::Full)
    }

    #[test]
    fn probability_monotone_in_resolution() {
        let obj = car(0.15, 0.8);
        for kind in vstore_types::OperatorKind::ALL {
            let mut prev = -1.0;
            for r in Resolution::ALL {
                let f = fid(ImageQuality::Good, r);
                let p = detection_probability(kind, &obj, &f, f.quality.signal_retention());
                assert!(
                    p >= prev - 1e-12,
                    "{kind:?} probability not monotone in resolution: {p} < {prev}"
                );
                prev = p;
            }
        }
    }

    #[test]
    fn probability_monotone_in_quality() {
        let obj = car(0.15, 0.8);
        for kind in vstore_types::OperatorKind::ALL {
            let mut prev = -1.0;
            for q in ImageQuality::ALL {
                let f = fid(q, Resolution::R540);
                let p = detection_probability(kind, &obj, &f, f.quality.signal_retention());
                assert!(p >= prev - 1e-12, "{kind:?} not monotone in quality");
                prev = p;
            }
        }
    }

    #[test]
    fn full_nn_needs_higher_resolution_than_motion() {
        let obj = car(0.12, 0.8);
        let low = fid(ImageQuality::Best, Resolution::R180);
        let p_nn = detection_probability(OperatorKind::FullNN, &obj, &low, 1.0);
        let p_motion = detection_probability(OperatorKind::Motion, &obj, &low, 1.0);
        assert!(p_motion > p_nn + 0.2, "motion {p_motion} vs nn {p_nn}");
    }

    #[test]
    fn license_is_more_quality_sensitive_than_nn() {
        let obj = car(0.2, 0.9);
        let rich = fid(ImageQuality::Best, Resolution::R720);
        let poor = fid(ImageQuality::Worst, Resolution::R720);
        let drop_license = detection_probability(OperatorKind::License, &obj, &rich, 1.0)
            - detection_probability(
                OperatorKind::License,
                &obj,
                &poor,
                poor.quality.signal_retention(),
            );
        let drop_nn = detection_probability(OperatorKind::FullNN, &obj, &rich, 1.0)
            - detection_probability(
                OperatorKind::FullNN,
                &obj,
                &poor,
                poor.quality.signal_retention(),
            );
        assert!(
            drop_license > drop_nn,
            "license drop {drop_license} vs nn drop {drop_nn}"
        );
    }

    #[test]
    fn stationary_objects_invisible_to_motion() {
        let mut obj = car(0.2, 0.9);
        obj.speed = 0.0;
        let f = fid(ImageQuality::Best, Resolution::R720);
        assert_eq!(
            detection_probability(OperatorKind::Motion, &obj, &f, 1.0),
            0.0
        );
        assert!(detection_probability(OperatorKind::FullNN, &obj, &f, 1.0) > 0.0);
    }

    #[test]
    fn plateless_vehicles_invisible_to_license() {
        let mut obj = car(0.2, 0.9);
        obj.class = ObjectClass::Vehicle {
            plate_visible: false,
        };
        let f = fid(ImageQuality::Best, Resolution::R720);
        assert_eq!(
            detection_probability(OperatorKind::License, &obj, &f, 1.0),
            0.0
        );
        assert_eq!(detection_probability(OperatorKind::Ocr, &obj, &f, 1.0), 0.0);
    }

    #[test]
    fn detection_sets_are_nested_across_fidelity() {
        // The same draw with a larger p can only add detections.
        let obj = car(0.1, 0.6);
        let poor = fid(ImageQuality::Bad, Resolution::R200);
        let rich = fid(ImageQuality::Best, Resolution::R720);
        for t in 0..200 {
            let at_poor = detects(
                OperatorKind::SpecializedNN,
                &obj,
                &poor,
                poor.quality.signal_retention(),
                t,
            );
            let at_rich = detects(
                OperatorKind::SpecializedNN,
                &obj,
                &rich,
                rich.quality.signal_retention(),
                t,
            );
            if at_poor {
                assert!(
                    at_rich,
                    "detected at poor but not rich fidelity (frame {t})"
                );
            }
        }
    }

    #[test]
    fn ocr_char_probability_behaviour() {
        assert!(ocr_char_probability(30.0, 1.0) > 0.95);
        assert!(ocr_char_probability(4.0, 1.0) < 0.5);
        assert!(ocr_char_probability(30.0, 0.5) < ocr_char_probability(30.0, 1.0));
        let a = ocr_char_draw(1, 2, 3);
        assert_eq!(a, ocr_char_draw(1, 2, 3));
        assert_ne!(a, ocr_char_draw(1, 2, 4));
    }
}
