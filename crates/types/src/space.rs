//! Enumerable knob spaces: the 4-D fidelity space `F` and the coding space
//! `C` (§2.3). The configuration engine searches these spaces; the profiler
//! and the benchmarks iterate over them.

use crate::fidelity::Fidelity;
use crate::format::CodingOption;
use crate::knobs::{
    CropFactor, FrameSampling, ImageQuality, KeyframeInterval, Resolution, SpeedStep,
};

/// The 4-D fidelity space `F = quality × crop × resolution × sampling`.
///
/// A space may be restricted (e.g. profiling on a subset of resolutions) by
/// constructing it with explicit axis values; [`FidelitySpace::full`] is the
/// complete 600-option space of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FidelitySpace {
    /// Admissible image-quality values, ascending richness.
    pub qualities: Vec<ImageQuality>,
    /// Admissible crop factors, ascending richness.
    pub crops: Vec<CropFactor>,
    /// Admissible resolutions, ascending richness.
    pub resolutions: Vec<Resolution>,
    /// Admissible sampling rates, ascending richness.
    pub samplings: Vec<FrameSampling>,
}

impl FidelitySpace {
    /// The full fidelity space of Table 1 (600 options).
    pub fn full() -> Self {
        FidelitySpace {
            qualities: ImageQuality::ALL.to_vec(),
            crops: CropFactor::ALL.to_vec(),
            resolutions: Resolution::ALL.to_vec(),
            samplings: FrameSampling::ALL.to_vec(),
        }
    }

    /// A reduced space used by unit tests and by the Figure 8 walkthrough:
    /// five resolutions, full sampling/crop/quality axes.
    pub fn figure8() -> Self {
        FidelitySpace {
            qualities: ImageQuality::ALL.to_vec(),
            crops: CropFactor::ALL.to_vec(),
            resolutions: vec![
                Resolution::R60,
                Resolution::R100,
                Resolution::R200,
                Resolution::R400,
                Resolution::R600,
            ],
            samplings: FrameSampling::ALL.to_vec(),
        }
    }

    /// A reduced space for fast tests and examples: six resolutions
    /// (including the 720p ingestion resolution, so accuracy 1.0 stays
    /// reachable) and the full quality/crop/sampling axes — 360 options.
    pub fn reduced() -> Self {
        FidelitySpace {
            qualities: ImageQuality::ALL.to_vec(),
            crops: CropFactor::ALL.to_vec(),
            resolutions: vec![
                Resolution::R60,
                Resolution::R100,
                Resolution::R200,
                Resolution::R400,
                Resolution::R600,
                Resolution::R720,
            ],
            samplings: FrameSampling::ALL.to_vec(),
        }
    }

    /// Total number of fidelity options in the space.
    pub fn len(&self) -> usize {
        self.qualities.len() * self.crops.len() * self.resolutions.len() * self.samplings.len()
    }

    /// `true` if any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The richest fidelity in the space (knob-wise maxima), or `None` when
    /// the space is empty.
    pub fn richest(&self) -> Option<Fidelity> {
        Some(Fidelity {
            quality: *self.qualities.last()?,
            crop: *self.crops.last()?,
            resolution: *self.resolutions.last()?,
            sampling: *self.samplings.last()?,
        })
    }

    /// Iterate over every fidelity option in the space.
    pub fn iter(&self) -> impl Iterator<Item = Fidelity> + '_ {
        self.qualities.iter().flat_map(move |&q| {
            self.crops.iter().flat_map(move |&c| {
                self.resolutions.iter().flat_map(move |&r| {
                    self.samplings.iter().map(move |&s| Fidelity {
                        quality: q,
                        crop: c,
                        resolution: r,
                        sampling: s,
                    })
                })
            })
        })
    }

    /// `true` if the fidelity lies within the space (every knob value is on
    /// the corresponding axis).
    pub fn contains(&self, f: &Fidelity) -> bool {
        self.qualities.contains(&f.quality)
            && self.crops.contains(&f.crop)
            && self.resolutions.contains(&f.resolution)
            && self.samplings.contains(&f.sampling)
    }
}

impl Default for FidelitySpace {
    fn default() -> Self {
        FidelitySpace::full()
    }
}

/// The coding space `C`: 25 encoded options plus the RAW bypass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodingSpace {
    /// Admissible keyframe intervals.
    pub keyframe_intervals: Vec<KeyframeInterval>,
    /// Admissible speed steps.
    pub speeds: Vec<SpeedStep>,
    /// Whether the RAW bypass is admissible.
    pub allow_raw: bool,
}

impl CodingSpace {
    /// The full coding space of Table 1.
    pub fn full() -> Self {
        CodingSpace {
            keyframe_intervals: KeyframeInterval::ALL.to_vec(),
            speeds: SpeedStep::ALL.to_vec(),
            allow_raw: true,
        }
    }

    /// Number of coding options (including RAW when admissible).
    pub fn len(&self) -> usize {
        self.keyframe_intervals.len() * self.speeds.len() + usize::from(self.allow_raw)
    }

    /// `true` when no option is admissible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over every coding option; RAW comes last when admissible.
    pub fn iter(&self) -> impl Iterator<Item = CodingOption> + '_ {
        let encoded = self.keyframe_intervals.iter().flat_map(move |&ki| {
            self.speeds.iter().map(move |&sp| CodingOption::Encoded {
                keyframe_interval: ki,
                speed: sp,
            })
        });
        encoded.chain(self.allow_raw.then_some(CodingOption::Raw))
    }
}

impl Default for CodingSpace {
    fn default() -> Self {
        CodingSpace::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_space_sizes_match_paper() {
        let f = FidelitySpace::full();
        assert_eq!(f.len(), 600);
        assert_eq!(f.iter().count(), 600);
        let c = CodingSpace::full();
        assert_eq!(c.len(), 26);
        assert_eq!(c.iter().count(), 26);
        // 600 fidelity × 25 encoded coding options = 15K storage formats.
        assert_eq!(f.len() * (c.len() - 1), 15_000);
    }

    #[test]
    fn richest_of_full_space_is_ingestion() {
        assert_eq!(FidelitySpace::full().richest(), Some(Fidelity::INGESTION));
    }

    #[test]
    fn contains_checks_every_axis() {
        let space = FidelitySpace::figure8();
        assert!(space.contains(&Fidelity::new(
            ImageQuality::Best,
            CropFactor::C100,
            Resolution::R600,
            FrameSampling::Full
        )));
        // 720p is not on the figure-8 resolution axis.
        assert!(!space.contains(&Fidelity::INGESTION));
    }

    #[test]
    fn iteration_yields_unique_options() {
        let space = FidelitySpace::figure8();
        let mut all: Vec<Fidelity> = space.iter().collect();
        let before = all.len();
        all.sort_by_key(|f| {
            (
                f.quality.rank(),
                f.crop.rank(),
                f.resolution.rank(),
                f.sampling.rank(),
            )
        });
        all.dedup();
        assert_eq!(all.len(), before);
        assert_eq!(before, space.len());
    }

    #[test]
    fn raw_can_be_excluded() {
        let mut c = CodingSpace::full();
        c.allow_raw = false;
        assert_eq!(c.len(), 25);
        assert!(c.iter().all(|opt| !opt.is_raw()));
    }
}
