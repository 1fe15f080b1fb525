//! The consumption cost model: how many ×realtime an operator achieves when
//! consuming frames of a given fidelity.
//!
//! The structure follows the paper's observations: cost is driven by the
//! *quantity* of data (pixels per frame × frames per second), never by image
//! quality (observation O2). The per-operator constants are calibrated so
//! that the consumption speeds of Table 3(a) come out in the right decades —
//! e.g. the full NN consumes ~4× realtime on rich 600p input while the
//! motion detector exceeds 20 000× on 144p at 1/30 sampling.

use vstore_sim::MachineSpec;
use vstore_types::{Fidelity, OperatorKind, Speed};

/// Per-operator execution cost constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatorCost {
    /// Fixed per-frame setup seconds on the reference execution unit (one
    /// GPU for the NoScope operators, one CPU core for the ALPR operators).
    pub setup_seconds: f64,
    /// Additional seconds per input pixel.
    pub seconds_per_pixel: f64,
}

impl OperatorCost {
    /// The calibrated constants for one operator.
    pub fn for_operator(kind: OperatorKind) -> OperatorCost {
        match kind {
            // The fixed per-frame setup keeps every operator's peak speed
            // below the fastest possible RAW retrieval (~34 000×), matching
            // both the consumption-speed ceiling of Table 3(a) and the fact
            // that no consumer can outrun the frame-dispatch path.
            OperatorKind::Diff => OperatorCost {
                setup_seconds: 3.5e-5,
                seconds_per_pixel: 1.0e-9,
            },
            OperatorKind::SpecializedNN => OperatorCost {
                setup_seconds: 4.0e-5,
                seconds_per_pixel: 0.9e-9,
            },
            OperatorKind::FullNN => OperatorCost {
                setup_seconds: 2.0e-3,
                seconds_per_pixel: 2.9e-8,
            },
            OperatorKind::Motion => OperatorCost {
                setup_seconds: 1.4e-3,
                seconds_per_pixel: 5.0e-8,
            },
            OperatorKind::License => OperatorCost {
                setup_seconds: 5.0e-3,
                seconds_per_pixel: 2.5e-7,
            },
            OperatorKind::Ocr => OperatorCost {
                setup_seconds: 8.0e-3,
                seconds_per_pixel: 2.6e-7,
            },
            OperatorKind::OpticalFlow => OperatorCost {
                setup_seconds: 2.0e-3,
                seconds_per_pixel: 1.5e-7,
            },
            OperatorKind::Color => OperatorCost {
                setup_seconds: 1.4e-3,
                seconds_per_pixel: 2.0e-8,
            },
            OperatorKind::Contour => OperatorCost {
                setup_seconds: 1.5e-3,
                seconds_per_pixel: 6.0e-8,
            },
        }
    }
}

/// Expected fraction of processed segments an operator passes on to the
/// next cascade stage, over typical surveillance content.
///
/// These are priors, not measurements: the query planner uses them together
/// with [`ConsumptionCostModel::seconds_per_video_second`] to order cascade
/// stages by cost × selectivity, and every stage report carries both the
/// planned and the observed selectivity so drift is visible per query. The
/// early filters (diff, motion, plate detection) are the most selective —
/// that is why cascades exist (§2.1) — while verification-style operators
/// (OCR over already-detected plates, the full NN over already-flagged
/// segments) pass most of what reaches them.
pub fn selectivity_prior(kind: OperatorKind) -> f64 {
    match kind {
        OperatorKind::Diff => 0.45,
        OperatorKind::SpecializedNN => 0.35,
        OperatorKind::FullNN => 0.50,
        OperatorKind::Motion => 0.30,
        OperatorKind::License => 0.25,
        OperatorKind::Ocr => 0.60,
        OperatorKind::OpticalFlow => 0.50,
        OperatorKind::Color => 0.40,
        OperatorKind::Contour => 0.50,
    }
}

/// The consumption cost model, parameterised by the machine running the
/// operators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsumptionCostModel {
    machine: MachineSpec,
}

impl ConsumptionCostModel {
    /// Model for the paper's testbed (GPU for NoScope operators, up to 40
    /// cores for ALPR operators).
    pub fn paper_testbed() -> Self {
        ConsumptionCostModel {
            machine: MachineSpec::paper_testbed(),
        }
    }

    /// Model for an arbitrary machine.
    pub fn new(machine: MachineSpec) -> Self {
        ConsumptionCostModel { machine }
    }

    /// The machine this model describes.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// Wall-clock seconds the operator spends on a single frame of the given
    /// fidelity, after spreading CPU operators over the query cores.
    pub fn seconds_per_frame(&self, kind: OperatorKind, fidelity: &Fidelity) -> f64 {
        let cost = OperatorCost::for_operator(kind);
        let pixels = fidelity.pixels_per_frame() as f64;
        let unit_seconds = cost.setup_seconds + cost.seconds_per_pixel * pixels;
        if kind.runs_on_gpu() {
            // One GPU; the gpu_work_rate scales weaker/stronger accelerators.
            unit_seconds / self.machine.gpu_work_rate.max(1e-9)
        } else {
            // CPU operators parallelise across the query cores (the paper
            // dispatches segments over up to 40 OpenALPR contexts).
            let cores = f64::from(self.machine.query_cpu_cores.max(1));
            unit_seconds / (cores * self.machine.cpu_work_rate.max(1e-9))
        }
    }

    /// Processing seconds per second of video: frames consumed per
    /// video-second × per-frame cost.
    pub fn seconds_per_video_second(&self, kind: OperatorKind, fidelity: &Fidelity) -> f64 {
        let frames_per_second = 30.0 * fidelity.sampling.fraction();
        frames_per_second * self.seconds_per_frame(kind, fidelity)
    }

    /// Consumption speed in ×realtime.
    pub fn consumption_speed(&self, kind: OperatorKind, fidelity: &Fidelity) -> Speed {
        let s = self.seconds_per_video_second(kind, fidelity);
        if s <= 0.0 {
            Speed(f64::INFINITY)
        } else {
            Speed(1.0 / s)
        }
    }

    /// GPU or CPU seconds consuming `video_seconds` of content takes.
    pub fn compute_seconds(
        &self,
        kind: OperatorKind,
        fidelity: &Fidelity,
        video_seconds: f64,
    ) -> f64 {
        self.seconds_per_video_second(kind, fidelity) * video_seconds
    }
}

impl Default for ConsumptionCostModel {
    fn default() -> Self {
        ConsumptionCostModel::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstore_types::{CropFactor, FrameSampling, ImageQuality, Resolution};

    fn fid(q: ImageQuality, c: CropFactor, r: Resolution, s: FrameSampling) -> Fidelity {
        Fidelity::new(q, c, r, s)
    }

    #[test]
    fn quality_does_not_change_cost() {
        // Observation O2.
        let m = ConsumptionCostModel::paper_testbed();
        for kind in OperatorKind::ALL {
            let best = fid(
                ImageQuality::Best,
                CropFactor::C100,
                Resolution::R540,
                FrameSampling::Full,
            );
            let worst = fid(
                ImageQuality::Worst,
                CropFactor::C100,
                Resolution::R540,
                FrameSampling::Full,
            );
            assert_eq!(
                m.consumption_speed(kind, &best).factor(),
                m.consumption_speed(kind, &worst).factor(),
                "{kind:?} cost depends on quality"
            );
        }
    }

    #[test]
    fn cost_monotone_in_quantity_knobs() {
        let m = ConsumptionCostModel::paper_testbed();
        for kind in OperatorKind::ALL {
            // More pixels (resolution) never speeds things up.
            let small = fid(
                ImageQuality::Good,
                CropFactor::C100,
                Resolution::R200,
                FrameSampling::Full,
            );
            let big = fid(
                ImageQuality::Good,
                CropFactor::C100,
                Resolution::R720,
                FrameSampling::Full,
            );
            assert!(
                m.consumption_speed(kind, &small).factor()
                    > m.consumption_speed(kind, &big).factor(),
                "{kind:?} not slower at higher resolution"
            );
            // Sparser sampling is faster.
            let sparse = fid(
                ImageQuality::Good,
                CropFactor::C100,
                Resolution::R720,
                FrameSampling::S1_30,
            );
            assert!(
                m.consumption_speed(kind, &sparse).factor()
                    > m.consumption_speed(kind, &big).factor()
            );
            // Smaller crop is faster (or equal).
            let cropped = fid(
                ImageQuality::Good,
                CropFactor::C50,
                Resolution::R720,
                FrameSampling::Full,
            );
            assert!(
                m.consumption_speed(kind, &cropped).factor()
                    >= m.consumption_speed(kind, &big).factor()
            );
        }
    }

    #[test]
    fn nn_speed_in_paper_ballpark() {
        let m = ConsumptionCostModel::paper_testbed();
        // Table 3(a): NN at good-600p-2/3-100% runs at ~4×.
        let f = fid(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R600,
            FrameSampling::S2_3,
        );
        let s = m.consumption_speed(OperatorKind::FullNN, &f).factor();
        assert!(s > 1.0 && s < 20.0, "NN speed {s}");
        // And over 100× on 400p at 1/30.
        let f = fid(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R400,
            FrameSampling::S1_30,
        );
        let s = m.consumption_speed(OperatorKind::FullNN, &f).factor();
        assert!(s > 60.0, "sparse NN speed {s}");
    }

    #[test]
    fn cheap_operators_exceed_thousands_of_x() {
        let m = ConsumptionCostModel::paper_testbed();
        let f = fid(
            ImageQuality::Bad,
            CropFactor::C75,
            Resolution::R180,
            FrameSampling::S1_30,
        );
        assert!(m.consumption_speed(OperatorKind::Motion, &f).factor() > 5_000.0);
        let f = fid(
            ImageQuality::Best,
            CropFactor::C75,
            Resolution::R100,
            FrameSampling::S2_3,
        );
        assert!(m.consumption_speed(OperatorKind::Diff, &f).factor() > 1_000.0);
        let f = fid(
            ImageQuality::Best,
            CropFactor::C75,
            Resolution::R60,
            FrameSampling::S1_30,
        );
        assert!(m.consumption_speed(OperatorKind::Diff, &f).factor() > 20_000.0);
    }

    #[test]
    fn license_much_slower_than_motion() {
        let m = ConsumptionCostModel::paper_testbed();
        let f = fid(
            ImageQuality::Best,
            CropFactor::C100,
            Resolution::R540,
            FrameSampling::Full,
        );
        let license = m.consumption_speed(OperatorKind::License, &f).factor();
        let motion = m.consumption_speed(OperatorKind::Motion, &f).factor();
        assert!(motion / license > 3.0, "motion {motion} license {license}");
        // The cascade's execution costs span orders of magnitude (§2.1):
        // compare each operator at its typical operating fidelity.
        let diff_fid = fid(
            ImageQuality::Best,
            CropFactor::C75,
            Resolution::R100,
            FrameSampling::S2_3,
        );
        let nn_fid = fid(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R600,
            FrameSampling::S2_3,
        );
        let diff = m.consumption_speed(OperatorKind::Diff, &diff_fid).factor();
        let nn = m.consumption_speed(OperatorKind::FullNN, &nn_fid).factor();
        assert!(diff / nn > 200.0, "diff {diff} nn {nn}");
    }

    #[test]
    fn selectivity_priors_are_probabilities_and_favour_early_filters() {
        for kind in OperatorKind::ALL {
            let s = selectivity_prior(kind);
            assert!(s > 0.0 && s < 1.0, "{kind:?} prior {s}");
        }
        // The cheap front-of-cascade filters discard more than the
        // verification operators behind them.
        assert!(selectivity_prior(OperatorKind::Motion) < selectivity_prior(OperatorKind::Ocr));
        assert!(selectivity_prior(OperatorKind::Diff) < selectivity_prior(OperatorKind::FullNN));
    }

    #[test]
    fn compute_seconds_scale_with_duration() {
        let m = ConsumptionCostModel::paper_testbed();
        let f = fid(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R360,
            FrameSampling::Full,
        );
        let one = m.compute_seconds(OperatorKind::Color, &f, 1.0);
        let ten = m.compute_seconds(OperatorKind::Color, &f, 10.0);
        assert!((ten - 10.0 * one).abs() < 1e-12);
    }

    #[test]
    fn weaker_machine_is_slower() {
        let small = ConsumptionCostModel::new(MachineSpec::small());
        let big = ConsumptionCostModel::paper_testbed();
        let f = fid(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R360,
            FrameSampling::Full,
        );
        for kind in [OperatorKind::FullNN, OperatorKind::License] {
            assert!(
                small.consumption_speed(kind, &f).factor()
                    < big.consumption_speed(kind, &f).factor()
            );
        }
    }
}
