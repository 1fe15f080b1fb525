//! Scene model: the objects present in a frame and their ground-truth
//! attributes, plus the frame type bundling objects with the block plane.

use crate::plane::BlockPlane;
use std::fmt;
use vstore_types::{CropFactor, Resolution};

/// A normalised bounding box: coordinates and extents in `[0, 1]` relative to
/// the full (uncropped) frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Left edge.
    pub x: f32,
    /// Top edge.
    pub y: f32,
    /// Width.
    pub w: f32,
    /// Height.
    pub h: f32,
}

impl BoundingBox {
    /// Construct a box, clamping all fields into `[0, 1]`.
    pub fn new(x: f32, y: f32, w: f32, h: f32) -> Self {
        BoundingBox {
            x: x.clamp(0.0, 1.0),
            y: y.clamp(0.0, 1.0),
            w: w.clamp(0.0, 1.0),
            h: h.clamp(0.0, 1.0),
        }
    }

    /// Box centre.
    pub fn center(&self) -> (f32, f32) {
        (self.x + self.w / 2.0, self.y + self.h / 2.0)
    }

    /// Normalised area.
    pub fn area(&self) -> f32 {
        self.w * self.h
    }

    /// Apparent height in pixels when rendered at the given resolution.
    pub fn pixel_height(&self, resolution: Resolution) -> f64 {
        f64::from(self.h) * f64::from(resolution.height())
    }

    /// `true` if the box centre survives a centred crop with the given
    /// factor.
    pub fn visible_under_crop(&self, crop: CropFactor) -> bool {
        let keep = crop.linear_fraction() as f32;
        let margin = (1.0 - keep) / 2.0;
        let (cx, cy) = self.center();
        cx >= margin && cx <= 1.0 - margin && cy >= margin && cy <= 1.0 - margin
    }
}

/// The colour of an object, used by the Color operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectColor {
    /// Red.
    Red,
    /// Blue.
    Blue,
    /// White.
    White,
    /// Black.
    Black,
    /// Silver / grey.
    Silver,
    /// Yellow.
    Yellow,
    /// Green.
    Green,
}

impl ObjectColor {
    /// All colours, used when drawing attributes deterministically.
    pub const ALL: [ObjectColor; 7] = [
        ObjectColor::Red,
        ObjectColor::Blue,
        ObjectColor::White,
        ObjectColor::Black,
        ObjectColor::Silver,
        ObjectColor::Yellow,
        ObjectColor::Green,
    ];

    /// A luma rendering value so colours leave a visible footprint in the
    /// block plane.
    pub fn luma(self) -> u8 {
        match self {
            ObjectColor::Red => 90,
            ObjectColor::Blue => 70,
            ObjectColor::White => 235,
            ObjectColor::Black => 25,
            ObjectColor::Silver => 180,
            ObjectColor::Yellow => 210,
            ObjectColor::Green => 110,
        }
    }
}

impl fmt::Display for ObjectColor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjectColor::Red => "red",
            ObjectColor::Blue => "blue",
            ObjectColor::White => "white",
            ObjectColor::Black => "black",
            ObjectColor::Silver => "silver",
            ObjectColor::Yellow => "yellow",
            ObjectColor::Green => "green",
        };
        f.write_str(s)
    }
}

/// A licence plate string (seven characters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlateText(pub [u8; 7]);

impl PlateText {
    /// The characters a plate may contain.
    pub const ALPHABET: &'static [u8] = b"ABCDEFGHJKLMNPRSTUVWXYZ0123456789";

    /// Generate a plate from a 64-bit hash value.
    pub fn from_hash(mut value: u64) -> Self {
        let mut chars = [0u8; 7];
        for c in &mut chars {
            *c = Self::ALPHABET[(value % Self::ALPHABET.len() as u64) as usize];
            value /= 31;
            value = value.rotate_left(9) ^ 0x9E37;
        }
        PlateText(chars)
    }

    /// The plate as a string slice.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).unwrap_or("???????")
    }

    /// Number of characters that differ from another plate.
    pub fn char_errors(&self, other: &PlateText) -> usize {
        self.0
            .iter()
            .zip(other.0.iter())
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl fmt::Display for PlateText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The class of a scene object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectClass {
    /// A vehicle, possibly carrying a readable licence plate.
    Vehicle {
        /// `true` when the rear plate faces the camera.
        plate_visible: bool,
    },
    /// A pedestrian.
    Pedestrian,
    /// A cyclist.
    Cyclist,
}

impl ObjectClass {
    /// `true` for vehicles.
    pub fn is_vehicle(&self) -> bool {
        matches!(self, ObjectClass::Vehicle { .. })
    }
}

/// A ground-truth object present in a frame.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneObject {
    /// Stable identity of the object across the frames it appears in.
    pub id: u64,
    /// Object class.
    pub class: ObjectClass,
    /// Normalised bounding box in the full frame.
    pub bbox: BoundingBox,
    /// Dominant colour.
    pub color: ObjectColor,
    /// Licence plate text (vehicles only).
    pub plate: Option<PlateText>,
    /// How visually distinctive the object is, in `(0, 1]`; low-salience
    /// objects are harder for every operator at every fidelity.
    pub salience: f32,
    /// Apparent speed in frame-widths per second (drives motion detection
    /// and optical flow magnitude).
    pub speed: f32,
}

impl SceneObject {
    /// `true` if this object is a vehicle with a readable plate.
    pub fn has_visible_plate(&self) -> bool {
        matches!(
            self.class,
            ObjectClass::Vehicle {
                plate_visible: true
            }
        ) && self.plate.is_some()
    }

    /// The plate's apparent height in pixels at a resolution (the plate is a
    /// fixed fraction of the vehicle's height).
    pub fn plate_pixel_height(&self, resolution: Resolution) -> f64 {
        self.bbox.pixel_height(resolution) * 0.12
    }
}

/// A generated frame: the block plane plus exact object ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneFrame {
    /// Frame index within the stream (30 fps).
    pub index: u64,
    /// Coarse luma raster at the ingestion resolution (720p → 160×90).
    pub plane: BlockPlane,
    /// Objects present in this frame.
    pub objects: Vec<SceneObject>,
    /// Global (camera) motion magnitude for this frame, in `[0, 1]`.
    pub global_motion: f32,
}

impl SceneFrame {
    /// Timestamp of the frame in seconds at 30 fps.
    pub fn timestamp(&self) -> f64 {
        self.index as f64 / 30.0
    }

    /// Objects whose bounding-box centre survives the given crop.
    pub fn objects_under_crop(&self, crop: CropFactor) -> impl Iterator<Item = &SceneObject> {
        self.objects
            .iter()
            .filter(move |o| o.bbox.visible_under_crop(crop))
    }

    /// `true` if any vehicle is present.
    pub fn has_vehicle(&self) -> bool {
        self.objects.iter().any(|o| o.class.is_vehicle())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bbox_clamps_and_measures() {
        let b = BoundingBox::new(-0.1, 0.5, 2.0, 0.25);
        assert_eq!(b.x, 0.0);
        assert_eq!(b.w, 1.0);
        assert!((b.area() - 0.25).abs() < 1e-6);
        assert!((b.pixel_height(Resolution::R720) - 180.0).abs() < 1e-6);
    }

    #[test]
    fn crop_visibility_depends_on_center() {
        let centered = BoundingBox::new(0.45, 0.45, 0.1, 0.1);
        let corner = BoundingBox::new(0.0, 0.0, 0.1, 0.1);
        assert!(centered.visible_under_crop(CropFactor::C50));
        assert!(!corner.visible_under_crop(CropFactor::C50));
        assert!(corner.visible_under_crop(CropFactor::C100));
    }

    #[test]
    fn plate_text_is_deterministic_and_comparable() {
        let a = PlateText::from_hash(12345);
        let b = PlateText::from_hash(12345);
        let c = PlateText::from_hash(54321);
        assert_eq!(a, b);
        assert_eq!(a.char_errors(&b), 0);
        assert!(a.char_errors(&c) > 0);
        assert_eq!(a.as_str().len(), 7);
    }

    #[test]
    fn scene_object_plate_helpers() {
        let obj = SceneObject {
            id: 1,
            class: ObjectClass::Vehicle {
                plate_visible: true,
            },
            bbox: BoundingBox::new(0.4, 0.4, 0.2, 0.2),
            color: ObjectColor::Blue,
            plate: Some(PlateText::from_hash(7)),
            salience: 0.8,
            speed: 0.1,
        };
        assert!(obj.has_visible_plate());
        assert!(obj.plate_pixel_height(Resolution::R720) > 10.0);
        assert!(obj.plate_pixel_height(Resolution::R100) < 3.0);
        let ped = SceneObject {
            class: ObjectClass::Pedestrian,
            plate: None,
            ..obj.clone()
        };
        assert!(!ped.has_visible_plate());
    }

    #[test]
    fn scene_frame_helpers() {
        let frame = SceneFrame {
            index: 90,
            plane: BlockPlane::filled(160, 90, 100),
            objects: vec![SceneObject {
                id: 1,
                class: ObjectClass::Vehicle {
                    plate_visible: false,
                },
                bbox: BoundingBox::new(0.05, 0.05, 0.1, 0.1),
                color: ObjectColor::Red,
                plate: None,
                salience: 0.5,
                speed: 0.2,
            }],
            global_motion: 0.1,
        };
        assert!((frame.timestamp() - 3.0).abs() < 1e-9);
        assert!(frame.has_vehicle());
        assert_eq!(frame.objects_under_crop(CropFactor::C50).count(), 0);
        assert_eq!(frame.objects_under_crop(CropFactor::C100).count(), 1);
    }

    #[test]
    fn colors_have_distinct_luma() {
        let mut lumas: Vec<u8> = ObjectColor::ALL.iter().map(|c| c.luma()).collect();
        lumas.sort_unstable();
        lumas.dedup();
        assert_eq!(lumas.len(), ObjectColor::ALL.len());
    }
}
