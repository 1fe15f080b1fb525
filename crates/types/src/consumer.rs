//! Consumers: `<operator, target accuracy>` tuples (§2.2, §4.1).

use std::fmt;

/// The operator library supported by VStore (Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OperatorKind {
    /// Frame difference detector — filters out frames similar to their
    /// predecessor (NoScope's early filter).
    Diff,
    /// Specialised shallow NN that rapidly detects a specific object class.
    SpecializedNN,
    /// Generic full NN (YOLOv2 in the paper).
    FullNN,
    /// Motion detector using background subtraction (OpenALPR pipeline).
    Motion,
    /// Licence plate region detector.
    License,
    /// Optical character recognition over detected plate regions.
    Ocr,
    /// Optical flow for tracking object movements.
    OpticalFlow,
    /// Detector for contents of a specific colour.
    Color,
    /// Detector for contour boundaries.
    Contour,
}

impl OperatorKind {
    /// All operators, in the order of Table 2 (used by Figure 12's
    /// operator-scaling experiment).
    pub const ALL: [OperatorKind; 9] = [
        OperatorKind::Diff,
        OperatorKind::SpecializedNN,
        OperatorKind::FullNN,
        OperatorKind::Motion,
        OperatorKind::License,
        OperatorKind::Ocr,
        OperatorKind::OpticalFlow,
        OperatorKind::Color,
        OperatorKind::Contour,
    ];

    /// The six operators used by the paper's two end-to-end queries
    /// (query A: Diff, S-NN, NN; query B: Motion, License, OCR).
    pub const QUERY_OPS: [OperatorKind; 6] = [
        OperatorKind::Diff,
        OperatorKind::SpecializedNN,
        OperatorKind::FullNN,
        OperatorKind::Motion,
        OperatorKind::License,
        OperatorKind::Ocr,
    ];

    /// Short name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            OperatorKind::Diff => "Diff",
            OperatorKind::SpecializedNN => "S-NN",
            OperatorKind::FullNN => "NN",
            OperatorKind::Motion => "Motion",
            OperatorKind::License => "License",
            OperatorKind::Ocr => "OCR",
            OperatorKind::OpticalFlow => "Opflow",
            OperatorKind::Color => "Color",
            OperatorKind::Contour => "Contour",
        }
    }

    /// `true` if the paper runs this operator on the GPU (NoScope pipeline);
    /// `false` for the CPU-based OpenALPR/OpenCV operators.
    pub fn runs_on_gpu(&self) -> bool {
        matches!(
            self,
            OperatorKind::Diff | OperatorKind::SpecializedNN | OperatorKind::FullNN
        )
    }
}

impl fmt::Display for OperatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A target accuracy level, expressed as an F1 score in `(0, 1]`.
///
/// Stored in thousandths so the type is `Eq + Hash` and can key maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccuracyLevel(u16);

/// The accuracy levels declared by the system admin in the paper's
/// evaluation: {0.95, 0.9, 0.8, 0.7}.
pub const DEFAULT_ACCURACY_LEVELS: [AccuracyLevel; 4] = [
    AccuracyLevel(950),
    AccuracyLevel(900),
    AccuracyLevel(800),
    AccuracyLevel(700),
];

impl AccuracyLevel {
    /// Construct from an F1 value in `(0, 1]`. Values are clamped into
    /// `[0.001, 1.0]` and rounded to the nearest thousandth.
    pub fn new(f1: f64) -> Self {
        let clamped = f1.clamp(0.001, 1.0);
        AccuracyLevel((clamped * 1000.0).round() as u16)
    }

    /// The target F1 value.
    pub fn value(&self) -> f64 {
        f64::from(self.0) / 1000.0
    }

    /// Exact accuracy (F1 = 1.0): consume the ingestion-fidelity video.
    pub const EXACT: AccuracyLevel = AccuracyLevel(1000);
}

impl fmt::Display for AccuracyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}", self.value())
    }
}

/// A video consumer: an operator executed at a target accuracy.
///
/// VStore tracks the whole set of `<operator, accuracy>` tuples as consumers
/// and derives one consumption format per consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Consumer {
    /// The operator.
    pub op: OperatorKind,
    /// The target accuracy (F1).
    pub accuracy: AccuracyLevel,
}

impl Consumer {
    /// Construct a consumer from an operator and a target F1 value.
    pub fn new(op: OperatorKind, f1: f64) -> Self {
        Consumer {
            op,
            accuracy: AccuracyLevel::new(f1),
        }
    }

    /// The full consumer set used in the paper's evaluation: the six query
    /// operators, each at the four default accuracy levels (24 consumers).
    pub fn evaluation_set() -> Vec<Consumer> {
        let mut out = Vec::with_capacity(24);
        for op in OperatorKind::QUERY_OPS {
            for acc in DEFAULT_ACCURACY_LEVELS {
                out.push(Consumer { op, accuracy: acc });
            }
        }
        out
    }
}

impl fmt::Display for Consumer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}⟩", self.op, self.accuracy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_library_matches_table2() {
        assert_eq!(OperatorKind::ALL.len(), 9);
        assert_eq!(OperatorKind::Diff.name(), "Diff");
        assert_eq!(OperatorKind::SpecializedNN.name(), "S-NN");
        assert!(OperatorKind::FullNN.runs_on_gpu());
        assert!(!OperatorKind::License.runs_on_gpu());
    }

    #[test]
    fn accuracy_level_round_trips() {
        let a = AccuracyLevel::new(0.95);
        assert!((a.value() - 0.95).abs() < 1e-9);
        assert_eq!(AccuracyLevel::new(1.5), AccuracyLevel::EXACT);
        assert!(AccuracyLevel::new(0.9) > AccuracyLevel::new(0.8));
    }

    #[test]
    fn evaluation_consumer_set_is_24() {
        let set = Consumer::evaluation_set();
        assert_eq!(set.len(), 24);
        // All distinct.
        let mut dedup = set.clone();
        dedup.sort_by_key(|c| (c.op, c.accuracy));
        dedup.dedup();
        assert_eq!(dedup.len(), 24);
    }

    #[test]
    fn consumer_display() {
        let c = Consumer::new(OperatorKind::Motion, 0.9);
        assert_eq!(c.to_string(), "⟨Motion, 0.90⟩");
    }
}
