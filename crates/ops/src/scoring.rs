//! Accuracy scoring: F1 of an operator's output at a consumption fidelity
//! against its output at the ingestion fidelity (the paper's ground truth,
//! §6.1).
//!
//! Because a consumption format may sample frames sparsely, its per-frame
//! predicates are first expanded onto the reference timeline by
//! nearest-consumed-frame propagation — the standard way sampled analytics
//! label the frames they skipped.

use crate::operator::OperatorOutput;

/// Precision/recall/F1 report of one operator run against a reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreReport {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
    /// Precision (1.0 when no positives were predicted).
    pub precision: f64,
    /// Recall (1.0 when the reference has no positives).
    pub recall: f64,
    /// F1 score: harmonic mean of precision and recall.
    pub f1: f64,
}

/// Expand a (possibly sparse) operator output onto a reference timeline of
/// source indices: each timeline frame takes the predicate of the nearest
/// consumed frame.
pub fn expand_to_timeline(output: &OperatorOutput, timeline: &[u64]) -> Vec<bool> {
    if output.frames.is_empty() {
        return vec![false; timeline.len()];
    }
    let mut cursor = 0usize;
    timeline
        .iter()
        .map(|&idx| {
            while cursor + 1 < output.frames.len()
                && output.frames[cursor + 1].source_index.abs_diff(idx)
                    <= output.frames[cursor].source_index.abs_diff(idx)
            {
                cursor += 1;
            }
            output.frames[cursor].positive
        })
        .collect()
}

/// F1 score of predicted frame predicates against reference predicates.
/// Both slices must describe the same timeline.
pub fn f1_score(reference: &[bool], predicted: &[bool]) -> ScoreReport {
    debug_assert_eq!(reference.len(), predicted.len());
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fn_ = 0usize;
    for (&r, &p) in reference.iter().zip(predicted.iter()) {
        match (r, p) {
            (true, true) => tp += 1,
            (false, true) => fp += 1,
            (true, false) => fn_ += 1,
            (false, false) => {}
        }
    }
    let precision = if tp + fp == 0 {
        1.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if tp + fn_ == 0 {
        1.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    ScoreReport {
        tp,
        fp,
        fn_,
        precision,
        recall,
        f1,
    }
}

/// Score a test output against a reference output: the reference's source
/// indices define the timeline.
pub fn score_against_reference(reference: &OperatorOutput, test: &OperatorOutput) -> ScoreReport {
    let timeline: Vec<u64> = reference.frames.iter().map(|f| f.source_index).collect();
    let reference_flags: Vec<bool> = reference.frames.iter().map(|f| f.positive).collect();
    let predicted = expand_to_timeline(test, &timeline);
    f1_score(&reference_flags, &predicted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::FrameResult;

    fn output(pairs: &[(u64, bool)]) -> OperatorOutput {
        OperatorOutput {
            frames: pairs
                .iter()
                .map(|&(source_index, positive)| FrameResult {
                    source_index,
                    positive,
                    detections: Vec::new(),
                })
                .collect(),
        }
    }

    #[test]
    fn perfect_agreement_is_f1_one() {
        let reference = output(&[(0, true), (1, false), (2, true)]);
        let report = score_against_reference(&reference, &reference.clone());
        assert_eq!(report.f1, 1.0);
        assert_eq!(report.fp, 0);
        assert_eq!(report.fn_, 0);
    }

    #[test]
    fn no_positives_anywhere_is_f1_one() {
        let reference = output(&[(0, false), (1, false)]);
        let test = output(&[(0, false), (1, false)]);
        assert_eq!(score_against_reference(&reference, &test).f1, 1.0);
    }

    #[test]
    fn misses_reduce_recall_and_false_alarms_reduce_precision() {
        let reference = output(&[(0, true), (1, true), (2, false), (3, false)]);
        let misses = output(&[(0, true), (1, false), (2, false), (3, false)]);
        let report = f1_score(
            &[true, true, false, false],
            &expand_to_timeline(&misses, &[0, 1, 2, 3]),
        );
        assert!(report.recall < 1.0);
        assert_eq!(report.precision, 1.0);

        let alarms = output(&[(0, true), (1, true), (2, true), (3, false)]);
        let report = score_against_reference(&reference, &alarms);
        assert!(report.precision < 1.0);
        assert_eq!(report.recall, 1.0);
        assert!(report.f1 < 1.0);
    }

    #[test]
    fn sparse_output_propagates_to_neighbours() {
        // Consumed only frames 0 and 30; frame 0 positive, frame 30 negative.
        let sparse = output(&[(0, true), (30, false)]);
        let timeline: Vec<u64> = (0..31).collect();
        let expanded = expand_to_timeline(&sparse, &timeline);
        assert!(expanded[0]);
        assert!(expanded[10]); // closer to frame 0
        assert!(!expanded[20]); // closer to frame 30
        assert!(!expanded[30]);
    }

    #[test]
    fn empty_test_output_predicts_all_negative() {
        let reference = output(&[(0, true), (1, true)]);
        let empty = OperatorOutput::default();
        let report = score_against_reference(&reference, &empty);
        assert_eq!(report.tp, 0);
        assert_eq!(report.fn_, 2);
        assert_eq!(report.f1, 0.0);
    }

    #[test]
    fn f1_is_harmonic_mean() {
        let reference = [true, true, true, true, false, false, false, false];
        let predicted = [true, true, false, false, true, false, false, false];
        let report = f1_score(&reference, &predicted);
        assert_eq!(report.tp, 2);
        assert_eq!(report.fp, 1);
        assert_eq!(report.fn_, 2);
        let expected = 2.0 * (2.0 / 3.0) * 0.5 / ((2.0 / 3.0) + 0.5);
        assert!((report.f1 - expected).abs() < 1e-12);
    }
}
