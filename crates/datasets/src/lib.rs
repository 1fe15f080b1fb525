//! # vstore-datasets
//!
//! Synthetic video sources that stand in for the six benchmark videos of the
//! paper (`jackson`, `miami`, `tucson`, `dashcam`, `park`, `airport`).
//!
//! Real camera footage is unavailable in this environment, so each dataset is
//! replaced by a deterministic scene generator that reproduces the *content
//! characteristics* the paper's trade-offs depend on:
//!
//! * **motion intensity** — dash-cam video has global motion that makes
//!   coding less effective (§6.2 notes dashcam storage is ~2.6 TB/day under
//!   N→N), surveillance video is mostly static;
//! * **object density and size** — how many vehicles/pedestrians appear and
//!   how large they are, which drives operator accuracy as fidelity drops;
//! * **plate/colour attributes** — needed by the License, OCR and Color
//!   operators;
//! * **texture** — background complexity, which drives encoded size.
//!
//! Frames carry a coarse *block plane* (one sample per 8×8-pixel block at
//! 720p, i.e. a 160×90 grid) plus exact object ground truth. The block plane
//! is what the `vstore-codec` crate actually compresses and what pixel-level
//! operators (Diff, Motion, Contour, Opflow) actually process; object-level
//! operators use the ground-truth boxes through a fidelity-dependent
//! detection model. See "Substitutions" in the repository README for the
//! rationale.
//!
//! Two passes make the plane cheap to produce, since ingest renders a
//! segment's 240 frames before any transcode starts and materialises them
//! once per storage format:
//!
//! * **Rendering is a tile at a time.** A frame's background at `(x, y)` is
//!   a gradient in `y` plus a hashed texture term of the world cell
//!   `(x + shift, y + shift / 3)`, where `shift` is the camera's motion so
//!   far; consecutive frames are windows into one texture. The renderer
//!   hashes each world cell of a run of at most [`SEGMENT_FRAMES`] frames
//!   once. Frames of one vertical shift `shift / 3` share a background
//!   window a few columns wider than a frame, quantised once (the row's
//!   gradient plus the texture, clamped to a byte), so each of their rows
//!   is a copy out of it. The objects are [rasterised](rasterise) over it,
//!   each box clipped to the plane once and blended a row slice at a time.
//!   A single frame is a one-frame tile; the output is value-identical to
//!   hashing every pixel of every frame.
//! * **Degradation is one pass.** A [`PlaneKernel`] crops, box-resizes and
//!   quantises in one pass over the source: the source rows and columns
//!   behind each output sample and a 256-entry quantisation table are
//!   worked out when it is built, once per clip and fidelity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod live;
pub mod plane;
pub mod profile;
#[cfg(test)]
mod reference;
pub mod scene;
pub mod source;

pub use live::{LiveSource, LoadProfile};
pub use plane::{sad, wrapped_distance, wrapped_magnitude, BlockPlane, PlaneKernel};
pub use profile::{Dataset, DatasetProfile};
pub use scene::{BoundingBox, ObjectClass, ObjectColor, PlateText, SceneFrame, SceneObject};
pub use source::{
    rasterise, FrameCursor, VideoSource, FRAME_RATE, SEGMENT_FRAMES, SEGMENT_SECONDS,
};
