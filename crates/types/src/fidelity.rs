//! Fidelity options and the *richer-than* partial order (§2.3 of the paper).

use crate::knobs::{CropFactor, FrameSampling, ImageQuality, Resolution};
use std::cmp::Ordering;
use std::fmt;

/// A point in the 4-D fidelity space `F`:
/// image quality × crop factor × resolution × frame sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fidelity {
    /// Image (compression) quality.
    pub quality: ImageQuality,
    /// Crop factor — fraction of the frame area retained.
    pub crop: CropFactor,
    /// Output resolution.
    pub resolution: Resolution,
    /// Frame sampling rate.
    pub sampling: FrameSampling,
}

/// Result of comparing two fidelity options under the richer-than partial
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Richness {
    /// The two options are identical on every knob.
    Equal,
    /// The left option is richer (≥ on every knob, > on at least one).
    Richer,
    /// The left option is poorer.
    Poorer,
    /// The options are incomparable (each is richer on some knob).
    Incomparable,
}

impl Fidelity {
    /// The richest fidelity: best quality, full crop, 720p, every frame.
    /// This is also the ingestion fidelity of all paper datasets.
    pub const INGESTION: Fidelity = Fidelity {
        quality: ImageQuality::Best,
        crop: CropFactor::C100,
        resolution: Resolution::R720,
        sampling: FrameSampling::Full,
    };

    /// The poorest fidelity in the space.
    pub const POOREST: Fidelity = Fidelity {
        quality: ImageQuality::Worst,
        crop: CropFactor::C50,
        resolution: Resolution::R60,
        sampling: FrameSampling::S1_30,
    };

    /// Construct a fidelity option from its four knob values.
    pub fn new(
        quality: ImageQuality,
        crop: CropFactor,
        resolution: Resolution,
        sampling: FrameSampling,
    ) -> Self {
        Fidelity {
            quality,
            crop,
            resolution,
            sampling,
        }
    }

    /// Compare `self` against `other` under the richer-than partial order.
    pub fn compare(&self, other: &Fidelity) -> Richness {
        let cmps = [
            self.quality.rank().cmp(&other.quality.rank()),
            self.crop.rank().cmp(&other.crop.rank()),
            self.resolution.rank().cmp(&other.resolution.rank()),
            self.sampling.rank().cmp(&other.sampling.rank()),
        ];
        let any_gt = cmps.contains(&Ordering::Greater);
        let any_lt = cmps.contains(&Ordering::Less);
        match (any_gt, any_lt) {
            (false, false) => Richness::Equal,
            (true, false) => Richness::Richer,
            (false, true) => Richness::Poorer,
            (true, true) => Richness::Incomparable,
        }
    }

    /// `true` if `self` is richer than or equal to `other` on every knob.
    ///
    /// This is requirement **R1** (satisfiable fidelity): a storage format can
    /// serve a consumption format only if its fidelity is richer-or-equal.
    pub fn richer_or_equal(&self, other: &Fidelity) -> bool {
        matches!(self.compare(other), Richness::Equal | Richness::Richer)
    }

    /// `true` if `self` is strictly richer than `other`.
    pub fn strictly_richer(&self, other: &Fidelity) -> bool {
        self.compare(other) == Richness::Richer
    }

    /// Knob-wise maximum of two fidelity options — the least upper bound in
    /// the richer-than lattice. Used when coalescing storage formats (§4.3)
    /// and when constructing the golden format.
    pub fn join(&self, other: &Fidelity) -> Fidelity {
        fn pick<T: Copy>(a: T, b: T, ra: usize, rb: usize) -> T {
            if ra >= rb {
                a
            } else {
                b
            }
        }
        Fidelity {
            quality: pick(
                self.quality,
                other.quality,
                self.quality.rank(),
                other.quality.rank(),
            ),
            crop: pick(self.crop, other.crop, self.crop.rank(), other.crop.rank()),
            resolution: pick(
                self.resolution,
                other.resolution,
                self.resolution.rank(),
                other.resolution.rank(),
            ),
            sampling: pick(
                self.sampling,
                other.sampling,
                self.sampling.rank(),
                other.sampling.rank(),
            ),
        }
    }

    /// Knob-wise minimum of two fidelity options — the greatest lower bound.
    pub fn meet(&self, other: &Fidelity) -> Fidelity {
        fn pick<T: Copy>(a: T, b: T, ra: usize, rb: usize) -> T {
            if ra <= rb {
                a
            } else {
                b
            }
        }
        Fidelity {
            quality: pick(
                self.quality,
                other.quality,
                self.quality.rank(),
                other.quality.rank(),
            ),
            crop: pick(self.crop, other.crop, self.crop.rank(), other.crop.rank()),
            resolution: pick(
                self.resolution,
                other.resolution,
                self.resolution.rank(),
                other.resolution.rank(),
            ),
            sampling: pick(
                self.sampling,
                other.sampling,
                self.sampling.rank(),
                other.sampling.rank(),
            ),
        }
    }

    /// Knob-wise maximum over an iterator of fidelity options.
    ///
    /// Returns `None` for an empty iterator.
    pub fn join_all<'a, I: IntoIterator<Item = &'a Fidelity>>(iter: I) -> Option<Fidelity> {
        iter.into_iter().fold(None, |acc, f| match acc {
            None => Some(*f),
            Some(a) => Some(a.join(f)),
        })
    }

    /// Effective pixel count of one supplied frame: resolution × crop area.
    pub fn pixels_per_frame(&self) -> u64 {
        let full = self.resolution.pixels() as f64;
        (full * self.crop.fraction()).round() as u64
    }

    /// Effective pixels per second of video at a 30 fps source, accounting
    /// for frame sampling. This is the quantity of data an operator must
    /// consume per second of video — the main driver of consumption cost.
    pub fn pixels_per_video_second(&self) -> f64 {
        self.pixels_per_frame() as f64 * 30.0 * self.sampling.fraction()
    }

    /// A scalar "richness volume" in `(0, 1]`, the product of each knob's
    /// normalised value. Only used for ordering heuristics and diagnostics —
    /// never as a substitute for the partial order.
    pub fn richness_volume(&self) -> f64 {
        let q = self.quality.signal_retention();
        let c = self.crop.fraction();
        let r = self.resolution.pixels() as f64 / Resolution::R720.pixels() as f64;
        let s = self.sampling.fraction();
        q * c * r * s
    }

    /// Paper-style label: `quality-resolution-sampling-crop`,
    /// e.g. `good-540p-1/6-100%`.
    pub fn label(&self) -> String {
        format!(
            "{}-{}-{}-{}",
            self.quality.label(),
            self.resolution.label(),
            self.sampling.label(),
            self.crop.label()
        )
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

impl Default for Fidelity {
    fn default() -> Self {
        Fidelity::INGESTION
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(
        quality: ImageQuality,
        crop: CropFactor,
        resolution: Resolution,
        sampling: FrameSampling,
    ) -> Fidelity {
        Fidelity::new(quality, crop, resolution, sampling)
    }

    #[test]
    fn ingestion_is_richest() {
        let other = f(
            ImageQuality::Good,
            CropFactor::C75,
            Resolution::R540,
            FrameSampling::S1_2,
        );
        assert!(Fidelity::INGESTION.richer_or_equal(&other));
        assert!(Fidelity::INGESTION.strictly_richer(&other));
        assert!(!other.richer_or_equal(&Fidelity::INGESTION));
        assert!(Fidelity::INGESTION.richer_or_equal(&Fidelity::INGESTION));
    }

    #[test]
    fn incomparable_pair_from_paper() {
        // good-50%-720p-1/2 vs bad-100%-540p-1 (§2.3).
        let a = f(
            ImageQuality::Good,
            CropFactor::C50,
            Resolution::R720,
            FrameSampling::S1_2,
        );
        let b = f(
            ImageQuality::Bad,
            CropFactor::C100,
            Resolution::R540,
            FrameSampling::Full,
        );
        assert_eq!(a.compare(&b), Richness::Incomparable);
        assert_eq!(b.compare(&a), Richness::Incomparable);
        assert!(!a.richer_or_equal(&b));
        assert!(!b.richer_or_equal(&a));
    }

    #[test]
    fn join_is_upper_bound() {
        let a = f(
            ImageQuality::Good,
            CropFactor::C50,
            Resolution::R720,
            FrameSampling::S1_2,
        );
        let b = f(
            ImageQuality::Bad,
            CropFactor::C100,
            Resolution::R540,
            FrameSampling::Full,
        );
        let j = a.join(&b);
        assert!(j.richer_or_equal(&a));
        assert!(j.richer_or_equal(&b));
        assert_eq!(j.quality, ImageQuality::Good);
        assert_eq!(j.crop, CropFactor::C100);
        assert_eq!(j.resolution, Resolution::R720);
        assert_eq!(j.sampling, FrameSampling::Full);
    }

    #[test]
    fn meet_is_lower_bound() {
        let a = f(
            ImageQuality::Good,
            CropFactor::C50,
            Resolution::R720,
            FrameSampling::S1_2,
        );
        let b = f(
            ImageQuality::Bad,
            CropFactor::C100,
            Resolution::R540,
            FrameSampling::Full,
        );
        let m = a.meet(&b);
        assert!(a.richer_or_equal(&m));
        assert!(b.richer_or_equal(&m));
    }

    #[test]
    fn join_all_of_empty_is_none() {
        assert_eq!(Fidelity::join_all([].iter()), None);
        let one = [Fidelity::POOREST];
        assert_eq!(Fidelity::join_all(one.iter()), Some(Fidelity::POOREST));
    }

    #[test]
    fn pixel_accounting() {
        let full = f(
            ImageQuality::Best,
            CropFactor::C100,
            Resolution::R720,
            FrameSampling::Full,
        );
        assert_eq!(full.pixels_per_frame(), 1280 * 720);
        assert!((full.pixels_per_video_second() - (1280.0 * 720.0 * 30.0)).abs() < 1e-6);
        let half = f(
            ImageQuality::Best,
            CropFactor::C50,
            Resolution::R720,
            FrameSampling::Full,
        );
        assert_eq!(half.pixels_per_frame(), (1280 * 720) / 2);
    }

    #[test]
    fn label_matches_paper_notation() {
        let c = f(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R540,
            FrameSampling::S1_6,
        );
        assert_eq!(c.label(), "good-540p-1/6-100%");
    }

    #[test]
    fn richness_volume_monotone_in_each_knob() {
        let base = f(
            ImageQuality::Bad,
            CropFactor::C75,
            Resolution::R360,
            FrameSampling::S1_2,
        );
        let richer_q = f(
            ImageQuality::Good,
            CropFactor::C75,
            Resolution::R360,
            FrameSampling::S1_2,
        );
        let richer_r = f(
            ImageQuality::Bad,
            CropFactor::C75,
            Resolution::R540,
            FrameSampling::S1_2,
        );
        assert!(richer_q.richness_volume() > base.richness_volume());
        assert!(richer_r.richness_volume() > base.richness_volume());
    }
}
