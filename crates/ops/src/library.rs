//! The operator library: instantiation, execution, accuracy evaluation and
//! consumption-speed queries — the interface VStore's profiler expects from
//! a query engine (§4.1).

use crate::cost::ConsumptionCostModel;
use crate::operator::{Operator, OperatorOutput};
use crate::ops::{
    ColorOperator, ContourOperator, DiffOperator, FullNNOperator, LicenseOperator, MotionOperator,
    OcrOperator, OpticalFlowOperator, SpecializedNNOperator,
};
use crate::scoring::{score_against_reference, ScoreReport};
use vstore_codec::VideoFrame;
use vstore_types::{Fidelity, OperatorKind, Speed};

/// The operator library exposed to VStore.
#[derive(Debug, Clone)]
pub struct OperatorLibrary {
    cost_model: ConsumptionCostModel,
}

impl OperatorLibrary {
    /// Library running on the paper's testbed.
    pub fn paper_testbed() -> Self {
        OperatorLibrary {
            cost_model: ConsumptionCostModel::paper_testbed(),
        }
    }

    /// Library with a custom cost model.
    pub fn new(cost_model: ConsumptionCostModel) -> Self {
        OperatorLibrary { cost_model }
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &ConsumptionCostModel {
        &self.cost_model
    }

    /// Instantiate an operator.
    pub fn instantiate(&self, kind: OperatorKind) -> Box<dyn Operator> {
        match kind {
            OperatorKind::Diff => Box::new(DiffOperator::new()),
            OperatorKind::SpecializedNN => Box::new(SpecializedNNOperator),
            OperatorKind::FullNN => Box::new(FullNNOperator),
            OperatorKind::Motion => Box::new(MotionOperator),
            OperatorKind::License => Box::new(LicenseOperator),
            OperatorKind::Ocr => Box::new(OcrOperator),
            OperatorKind::OpticalFlow => Box::new(OpticalFlowOperator),
            OperatorKind::Color => Box::new(ColorOperator::default()),
            OperatorKind::Contour => Box::new(ContourOperator::default()),
        }
    }

    /// Run an operator over a clip of frames.
    pub fn run(&self, kind: OperatorKind, frames: &[VideoFrame]) -> OperatorOutput {
        self.instantiate(kind).run(frames)
    }

    /// Evaluate the accuracy of an operator consuming `test_frames` against
    /// its own output on `reference_frames` (the same clip at the ingestion
    /// fidelity, full sampling).
    pub fn evaluate_accuracy(
        &self,
        kind: OperatorKind,
        reference_frames: &[VideoFrame],
        test_frames: &[VideoFrame],
    ) -> ScoreReport {
        let reference = self.run(kind, reference_frames);
        let test = self.run(kind, test_frames);
        score_against_reference(&reference, &test)
    }

    /// The consumption speed (×realtime) of an operator on frames of the
    /// given fidelity, from the calibrated cost model.
    pub fn consumption_speed(&self, kind: OperatorKind, fidelity: &Fidelity) -> Speed {
        self.cost_model.consumption_speed(kind, fidelity)
    }
}

impl Default for OperatorLibrary {
    fn default() -> Self {
        OperatorLibrary::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstore_codec::frame::materialize_clip;
    use vstore_datasets::{Dataset, VideoSource};
    use vstore_types::{CropFactor, FrameSampling, ImageQuality, Resolution};

    fn clip(dataset: Dataset, fidelity: Fidelity, frames: u32) -> Vec<VideoFrame> {
        materialize_clip(&VideoSource::new(dataset).clip(0, frames), fidelity)
    }

    #[test]
    fn all_operators_instantiate_with_matching_kind() {
        let lib = OperatorLibrary::paper_testbed();
        for kind in OperatorKind::ALL {
            assert_eq!(lib.instantiate(kind).kind(), kind);
        }
    }

    #[test]
    fn accuracy_is_one_at_ingestion_fidelity() {
        let lib = OperatorLibrary::paper_testbed();
        let reference = clip(Dataset::Jackson, Fidelity::INGESTION, 150);
        for kind in [
            OperatorKind::FullNN,
            OperatorKind::Motion,
            OperatorKind::License,
        ] {
            let report = lib.evaluate_accuracy(kind, &reference, &reference);
            assert_eq!(report.f1, 1.0, "{kind:?} should be perfect against itself");
        }
    }

    #[test]
    fn accuracy_degrades_with_fidelity_for_detection_operators() {
        let lib = OperatorLibrary::paper_testbed();
        let reference = clip(Dataset::Dashcam, Fidelity::INGESTION, 300);
        let mid = Fidelity::new(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R400,
            FrameSampling::S1_2,
        );
        let low = Fidelity::new(
            ImageQuality::Worst,
            CropFactor::C100,
            Resolution::R100,
            FrameSampling::S1_30,
        );
        for kind in [
            OperatorKind::License,
            OperatorKind::Ocr,
            OperatorKind::SpecializedNN,
        ] {
            let f_mid = lib
                .evaluate_accuracy(kind, &reference, &clip(Dataset::Dashcam, mid, 300))
                .f1;
            let f_low = lib
                .evaluate_accuracy(kind, &reference, &clip(Dataset::Dashcam, low, 300))
                .f1;
            assert!(
                f_mid >= f_low,
                "{kind:?}: mid fidelity {f_mid} should be at least low fidelity {f_low}"
            );
            assert!(f_low < 1.0, "{kind:?}: low fidelity should not be perfect");
        }
    }

    #[test]
    fn accuracy_monotone_in_resolution_for_nn() {
        let lib = OperatorLibrary::paper_testbed();
        let reference = clip(Dataset::Jackson, Fidelity::INGESTION, 300);
        let mut prev = -1.0;
        for res in [
            Resolution::R100,
            Resolution::R200,
            Resolution::R400,
            Resolution::R600,
            Resolution::R720,
        ] {
            let fid = Fidelity::new(
                ImageQuality::Good,
                CropFactor::C100,
                res,
                FrameSampling::Full,
            );
            let f1 = lib
                .evaluate_accuracy(
                    OperatorKind::FullNN,
                    &reference,
                    &clip(Dataset::Jackson, fid, 300),
                )
                .f1;
            assert!(
                f1 >= prev - 0.02,
                "NN accuracy dropped from {prev} to {f1} when raising resolution to {res}"
            );
            prev = f1;
        }
    }

    #[test]
    fn consumption_speed_matches_cost_model() {
        let lib = OperatorLibrary::paper_testbed();
        let fid = Fidelity::new(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R540,
            FrameSampling::S1_6,
        );
        let direct = lib
            .cost_model()
            .consumption_speed(OperatorKind::License, &fid);
        assert_eq!(
            lib.consumption_speed(OperatorKind::License, &fid).factor(),
            direct.factor()
        );
    }
}
