//! Consumption and storage formats (§3.1 of the paper).

use crate::fidelity::Fidelity;
use crate::knobs::{KeyframeInterval, SpeedStep};
use std::fmt;

/// A coding option `c`: either a real encode (speed step + keyframe
/// interval) or the *coding bypass* that stores raw frames on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodingOption {
    /// Store raw (uncompressed) frames; extremely cheap to retrieve, very
    /// expensive to store.
    Raw,
    /// Store an encoded bitstream.
    Encoded {
        /// GOP length in frames.
        keyframe_interval: KeyframeInterval,
        /// Encoder thoroughness.
        speed: SpeedStep,
    },
}

impl CodingOption {
    /// The coding option with the smallest output size (and the most
    /// expensive encode): slowest speed step, longest GOP.
    pub const SMALLEST: CodingOption = CodingOption::Encoded {
        keyframe_interval: KeyframeInterval::K250,
        speed: SpeedStep::Slowest,
    };

    /// The encoded option that is cheapest to decode sequentially: fastest
    /// speed step, longest GOP (fewer keyframes to reconstruct).
    pub const CHEAPEST_DECODE: CodingOption = CodingOption::Encoded {
        keyframe_interval: KeyframeInterval::K250,
        speed: SpeedStep::Fastest,
    };

    /// `true` if this option bypasses coding and stores raw frames.
    pub fn is_raw(&self) -> bool {
        matches!(self, CodingOption::Raw)
    }

    /// All encoded coding options (25 of them), ordered by
    /// (keyframe interval, speed step) rank. Excludes [`CodingOption::Raw`].
    pub fn all_encoded() -> Vec<CodingOption> {
        let mut out = Vec::with_capacity(25);
        for ki in KeyframeInterval::ALL {
            for sp in SpeedStep::ALL {
                out.push(CodingOption::Encoded {
                    keyframe_interval: ki,
                    speed: sp,
                });
            }
        }
        out
    }

    /// Paper-style label: `250-slowest`, or `RAW`.
    pub fn label(&self) -> String {
        match self {
            CodingOption::Raw => "RAW".to_owned(),
            CodingOption::Encoded {
                keyframe_interval,
                speed,
            } => {
                format!("{}-{}", keyframe_interval.label(), speed.label())
            }
        }
    }
}

impl fmt::Display for CodingOption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A consumption format `CF⟨f⟩`: the fidelity of the raw frame sequence
/// supplied to a consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConsumptionFormat {
    /// Fidelity of the supplied frames.
    pub fidelity: Fidelity,
}

impl ConsumptionFormat {
    /// Wrap a fidelity option as a consumption format.
    pub fn new(fidelity: Fidelity) -> Self {
        ConsumptionFormat { fidelity }
    }
}

impl fmt::Display for ConsumptionFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CF⟨{}⟩", self.fidelity)
    }
}

/// A storage format `SF⟨f, c⟩`: the fidelity and coding of an on-disk video
/// version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StorageFormat {
    /// Fidelity of the stored video version.
    pub fidelity: Fidelity,
    /// Coding of the stored video version.
    pub coding: CodingOption,
}

impl StorageFormat {
    /// Construct a storage format.
    pub fn new(fidelity: Fidelity, coding: CodingOption) -> Self {
        StorageFormat { fidelity, coding }
    }

    /// `true` if this storage format can serve the given consumption format
    /// (requirement **R1**: satisfiable fidelity).
    pub fn satisfies(&self, cf: &ConsumptionFormat) -> bool {
        self.fidelity.richer_or_equal(&cf.fidelity)
    }

    /// Paper-style label: `best-720p-1-100% / 250-slowest`.
    pub fn label(&self) -> String {
        format!("{} / {}", self.fidelity.label(), self.coding.label())
    }
}

impl fmt::Display for StorageFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SF⟨{}, {}⟩", self.fidelity, self.coding)
    }
}

/// Identifier of a storage format within one configuration.
///
/// `FormatId(0)` is reserved for the *golden* format by convention
/// ([`FormatId::GOLDEN`]); derived formats are numbered from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FormatId(pub u32);

impl FormatId {
    /// The id conventionally used for the golden (never-eroded) format.
    pub const GOLDEN: FormatId = FormatId(0);

    /// `true` if this is the golden format id.
    pub fn is_golden(&self) -> bool {
        *self == FormatId::GOLDEN
    }
}

impl fmt::Display for FormatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_golden() {
            write!(f, "SFg")
        } else {
            write!(f, "SF{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::{CropFactor, FrameSampling, ImageQuality, Resolution};

    #[test]
    fn coding_option_labels() {
        assert_eq!(CodingOption::Raw.label(), "RAW");
        assert_eq!(CodingOption::SMALLEST.label(), "250-slowest");
        assert!(CodingOption::Raw.is_raw());
        assert!(!CodingOption::SMALLEST.is_raw());
    }

    #[test]
    fn all_encoded_has_25_options() {
        let all = CodingOption::all_encoded();
        assert_eq!(all.len(), 25);
        assert!(all.iter().all(|c| !c.is_raw()));
        // No duplicates.
        let mut dedup = all.clone();
        dedup.sort_by_key(|c| c.label());
        dedup.dedup();
        assert_eq!(dedup.len(), 25);
    }

    #[test]
    fn storage_format_satisfies_consumption_format() {
        let rich = Fidelity::INGESTION;
        let poor = Fidelity::new(
            ImageQuality::Bad,
            CropFactor::C75,
            Resolution::R180,
            FrameSampling::S1_30,
        );
        let sf = StorageFormat::new(rich, CodingOption::SMALLEST);
        assert!(sf.satisfies(&ConsumptionFormat::new(poor)));
        let sf_poor = StorageFormat::new(poor, CodingOption::Raw);
        assert!(!sf_poor.satisfies(&ConsumptionFormat::new(rich)));
        // Satisfiability is reflexive in fidelity.
        assert!(sf_poor.satisfies(&ConsumptionFormat::new(poor)));
    }

    #[test]
    fn format_id_display() {
        assert_eq!(FormatId::GOLDEN.to_string(), "SFg");
        assert_eq!(FormatId(3).to_string(), "SF3");
        assert!(FormatId::GOLDEN.is_golden());
        assert!(!FormatId(1).is_golden());
    }
}
