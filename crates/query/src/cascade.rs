//! Query cascades (Figure 2 of the paper).

use vstore_types::{AccuracyLevel, Consumer, OperatorKind};

/// The operator cascade of query A (car detection): Diff filters out similar
/// frames, the specialised NN rapidly detects part of the cars, the full NN
/// analyses the remaining frames.
pub const STAGE_A: [OperatorKind; 3] = [
    OperatorKind::Diff,
    OperatorKind::SpecializedNN,
    OperatorKind::FullNN,
];

/// The operator cascade of query B (licence-plate recognition): Motion
/// filters frames with little motion, License spots plate regions, OCR reads
/// the characters.
pub const STAGE_B: [OperatorKind; 3] = [
    OperatorKind::Motion,
    OperatorKind::License,
    OperatorKind::Ocr,
];

/// A query: an operator cascade run at one target accuracy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// Human-readable name ("A", "B", …).
    pub name: String,
    /// The cascade, from the cheap early operator to the expensive late one.
    pub cascade: Vec<OperatorKind>,
    /// The target accuracy every operator of the cascade runs at.
    pub accuracy: AccuracyLevel,
}

impl QuerySpec {
    /// Query A at a target accuracy.
    pub fn query_a(accuracy: f64) -> Self {
        QuerySpec {
            name: "A".into(),
            cascade: STAGE_A.to_vec(),
            accuracy: AccuracyLevel::new(accuracy),
        }
    }

    /// Query B at a target accuracy.
    pub fn query_b(accuracy: f64) -> Self {
        QuerySpec {
            name: "B".into(),
            cascade: STAGE_B.to_vec(),
            accuracy: AccuracyLevel::new(accuracy),
        }
    }

    /// A custom cascade.
    pub fn custom(name: impl Into<String>, cascade: Vec<OperatorKind>, accuracy: f64) -> Self {
        QuerySpec {
            name: name.into(),
            cascade,
            accuracy: AccuracyLevel::new(accuracy),
        }
    }

    /// The consumers this query needs configured: one per cascade stage at
    /// the query's accuracy.
    pub fn consumers(&self) -> Vec<Consumer> {
        self.cascade
            .iter()
            .map(|&op| Consumer {
                op,
                accuracy: self.accuracy,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_queries_have_three_stages() {
        let a = QuerySpec::query_a(0.9);
        let b = QuerySpec::query_b(0.8);
        assert_eq!(a.cascade.len(), 3);
        assert_eq!(b.cascade.len(), 3);
        assert_eq!(a.cascade[0], OperatorKind::Diff);
        assert_eq!(b.cascade[2], OperatorKind::Ocr);
        assert_eq!(a.consumers().len(), 3);
        assert!(a
            .consumers()
            .iter()
            .all(|c| (c.accuracy.value() - 0.9).abs() < 1e-9));
    }

    #[test]
    fn custom_cascades_are_supported() {
        let q = QuerySpec::custom(
            "colour-track",
            vec![OperatorKind::Color, OperatorKind::OpticalFlow],
            0.8,
        );
        assert_eq!(q.consumers().len(), 2);
        assert_eq!(q.name, "colour-track");
    }
}
