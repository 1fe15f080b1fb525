//! The operator interface and its output types.

use vstore_codec::VideoFrame;
use vstore_datasets::{ObjectColor, PlateText};
use vstore_types::OperatorKind;

/// A single detection emitted by an operator for one frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Detection {
    /// A generic object of interest (S-NN / NN).
    Object {
        /// Ground-truth identity of the detected object.
        object_id: u64,
    },
    /// A licence-plate region.
    PlateRegion {
        /// Identity of the vehicle carrying the plate.
        object_id: u64,
    },
    /// A recognised plate string.
    PlateText {
        /// Identity of the vehicle carrying the plate.
        object_id: u64,
        /// The characters read by OCR (possibly with errors).
        text: PlateText,
    },
    /// A region moving against the background.
    MotionRegion {
        /// Identity of the moving object.
        object_id: u64,
    },
    /// An object matching the colour filter.
    ColorMatch {
        /// Identity of the matching object.
        object_id: u64,
        /// Its colour.
        color: ObjectColor,
    },
    /// A tracked optical-flow vector.
    Flow {
        /// Identity of the tracked object.
        object_id: u64,
        /// Displacement magnitude in block units per frame.
        magnitude: f32,
    },
    /// A detected contour boundary (no object identity — purely pixel-based).
    Contour {
        /// Edge energy of the frame.
        energy: f32,
    },
}

impl Detection {
    /// The ground-truth object this detection refers to, when applicable.
    pub fn object_id(&self) -> Option<u64> {
        match self {
            Detection::Object { object_id }
            | Detection::PlateRegion { object_id }
            | Detection::PlateText { object_id, .. }
            | Detection::MotionRegion { object_id }
            | Detection::ColorMatch { object_id, .. }
            | Detection::Flow { object_id, .. } => Some(*object_id),
            Detection::Contour { .. } => None,
        }
    }
}

/// The result of running an operator on one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameResult {
    /// Source index of the frame (in the original 30 fps stream).
    pub source_index: u64,
    /// The operator's frame-level predicate: "this frame is interesting /
    /// contains what I am looking for". This is what accuracy is scored on.
    pub positive: bool,
    /// Object-level detections supporting the predicate.
    pub detections: Vec<Detection>,
}

/// The result of running an operator over a clip.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OperatorOutput {
    /// Per-frame results, in frame order, one per *consumed* frame.
    pub frames: Vec<FrameResult>,
}

impl OperatorOutput {
    /// Number of positive frames.
    pub fn positives(&self) -> usize {
        self.frames.iter().filter(|f| f.positive).count()
    }

    /// The fraction of consumed frames that are positive (the selectivity
    /// that a downstream cascade stage sees).
    pub fn selectivity(&self) -> f64 {
        if self.frames.is_empty() {
            0.0
        } else {
            self.positives() as f64 / self.frames.len() as f64
        }
    }

    /// Source indices of positive frames.
    pub fn positive_indices(&self) -> Vec<u64> {
        self.frames
            .iter()
            .filter(|f| f.positive)
            .map(|f| f.source_index)
            .collect()
    }
}

/// A video-analytics operator.
///
/// Operators are pure: running one never mutates it, so a single instance
/// can serve profiling and query execution concurrently.
pub trait Operator: Send + Sync {
    /// Which member of the library this is.
    fn kind(&self) -> OperatorKind;

    /// Process a clip of frames (all at one consumption fidelity, in frame
    /// order) and produce one [`FrameResult`] per frame.
    fn run(&self, frames: &[VideoFrame]) -> OperatorOutput;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_selectivity() {
        let out = OperatorOutput {
            frames: vec![
                FrameResult {
                    source_index: 0,
                    positive: true,
                    detections: vec![],
                },
                FrameResult {
                    source_index: 1,
                    positive: false,
                    detections: vec![],
                },
                FrameResult {
                    source_index: 2,
                    positive: true,
                    detections: vec![],
                },
                FrameResult {
                    source_index: 3,
                    positive: false,
                    detections: vec![],
                },
            ],
        };
        assert_eq!(out.positives(), 2);
        assert!((out.selectivity() - 0.5).abs() < 1e-12);
        assert_eq!(out.positive_indices(), vec![0, 2]);
        assert_eq!(OperatorOutput::default().selectivity(), 0.0);
    }

    #[test]
    fn detection_object_ids() {
        assert_eq!(Detection::Object { object_id: 7 }.object_id(), Some(7));
        assert_eq!(Detection::Contour { energy: 1.0 }.object_id(), None);
        let d = Detection::ColorMatch {
            object_id: 3,
            color: ObjectColor::Red,
        };
        assert_eq!(d.object_id(), Some(3));
    }
}
