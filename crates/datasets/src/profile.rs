//! Content profiles of the six benchmark datasets (§6.1 of the paper).

use std::fmt;
use vstore_types::{Result, VStoreError};

/// The six videos used in the paper's evaluation plus a synthetic custom
/// profile for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dataset {
    /// Surveillance camera at Jackson Town Square (moderate traffic).
    Jackson,
    /// Surveillance camera at a Miami Beach crosswalk (busy, pedestrians).
    Miami,
    /// Surveillance camera at Tucson 4th Avenue (light traffic).
    Tucson,
    /// Dash camera driving through a parking lot (high global motion).
    Dashcam,
    /// Stationary surveillance camera in a parking lot (near-static).
    Park,
    /// Surveillance camera at an airport parking lot (light activity).
    Airport,
}

impl Dataset {
    /// All six datasets in the order the paper lists them.
    pub const ALL: [Dataset; 6] = [
        Dataset::Jackson,
        Dataset::Miami,
        Dataset::Tucson,
        Dataset::Dashcam,
        Dataset::Park,
        Dataset::Airport,
    ];

    /// Datasets evaluated with query A (Diff + S-NN + NN) in §6.1.
    pub const QUERY_A: [Dataset; 3] = [Dataset::Jackson, Dataset::Miami, Dataset::Tucson];

    /// Datasets evaluated with query B (Motion + License + OCR) in §6.1.
    pub const QUERY_B: [Dataset; 3] = [Dataset::Dashcam, Dataset::Park, Dataset::Airport];

    /// Dataset name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Jackson => "jackson",
            Dataset::Miami => "miami",
            Dataset::Tucson => "tucson",
            Dataset::Dashcam => "dashcam",
            Dataset::Park => "park",
            Dataset::Airport => "airport",
        }
    }

    /// The content profile of this dataset.
    pub fn profile(&self) -> DatasetProfile {
        match self {
            Dataset::Jackson => DatasetProfile {
                seed: 0xA11CE | 1,
                motion_intensity: 0.30,
                object_arrivals_per_minute: 22.0,
                mean_object_height: 0.16,
                object_height_spread: 0.08,
                vehicle_fraction: 0.75,
                plate_visible_fraction: 0.55,
                background_texture: 0.35,
                mean_dwell_seconds: 6.0,
            },
            Dataset::Miami => DatasetProfile {
                seed: 0xB0B_CAFE,
                motion_intensity: 0.45,
                object_arrivals_per_minute: 40.0,
                mean_object_height: 0.13,
                object_height_spread: 0.07,
                vehicle_fraction: 0.45,
                plate_visible_fraction: 0.40,
                background_texture: 0.45,
                mean_dwell_seconds: 8.0,
            },
            Dataset::Tucson => DatasetProfile {
                seed: 0x7C_50AA,
                motion_intensity: 0.35,
                object_arrivals_per_minute: 14.0,
                mean_object_height: 0.18,
                object_height_spread: 0.09,
                vehicle_fraction: 0.80,
                plate_visible_fraction: 0.60,
                background_texture: 0.30,
                mean_dwell_seconds: 5.0,
            },
            Dataset::Dashcam => DatasetProfile {
                seed: 0xDA5CA4,
                motion_intensity: 0.85,
                object_arrivals_per_minute: 26.0,
                mean_object_height: 0.22,
                object_height_spread: 0.12,
                vehicle_fraction: 0.85,
                plate_visible_fraction: 0.70,
                background_texture: 0.60,
                mean_dwell_seconds: 4.0,
            },
            Dataset::Park => DatasetProfile {
                seed: 0x9A4F,
                motion_intensity: 0.12,
                object_arrivals_per_minute: 6.0,
                mean_object_height: 0.20,
                object_height_spread: 0.10,
                vehicle_fraction: 0.70,
                plate_visible_fraction: 0.65,
                background_texture: 0.25,
                mean_dwell_seconds: 12.0,
            },
            Dataset::Airport => DatasetProfile {
                seed: 0xA1490,
                motion_intensity: 0.18,
                object_arrivals_per_minute: 10.0,
                mean_object_height: 0.15,
                object_height_spread: 0.07,
                vehicle_fraction: 0.65,
                plate_visible_fraction: 0.50,
                background_texture: 0.28,
                mean_dwell_seconds: 9.0,
            },
        }
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Content parameters of one synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetProfile {
    /// Seed for the deterministic generator.
    pub seed: u64,
    /// Camera / scene motion intensity in `[0, 1]` (dash-cam ≈ 0.85, static
    /// parking lot ≈ 0.1). Drives coding efficiency.
    pub motion_intensity: f64,
    /// Mean number of new objects entering the scene per minute.
    pub object_arrivals_per_minute: f64,
    /// Mean object height as a fraction of the frame height.
    pub mean_object_height: f64,
    /// Spread (uniform half-width) of object heights.
    pub object_height_spread: f64,
    /// Fraction of objects that are vehicles (vs. pedestrians/cyclists).
    pub vehicle_fraction: f64,
    /// Fraction of vehicles whose plate faces the camera.
    pub plate_visible_fraction: f64,
    /// Background texture energy in `[0, 1]`.
    pub background_texture: f64,
    /// Mean time an object stays in the scene, in seconds.
    pub mean_dwell_seconds: f64,
}

impl DatasetProfile {
    /// A small synthetic profile for unit tests: busy enough that short
    /// clips contain objects, static enough that coding behaves like
    /// surveillance video.
    pub fn test_profile(seed: u64) -> Self {
        DatasetProfile {
            seed,
            motion_intensity: 0.3,
            object_arrivals_per_minute: 60.0,
            mean_object_height: 0.2,
            object_height_spread: 0.08,
            vehicle_fraction: 0.8,
            plate_visible_fraction: 0.7,
            background_texture: 0.35,
            mean_dwell_seconds: 5.0,
        }
    }

    /// Number of concurrent object "slots" the generator simulates, derived
    /// from arrival rate and dwell time (Little's law, rounded up, at least
    /// one).
    pub fn object_slots(&self) -> u32 {
        (self.mean_objects_present().ceil() as u32)
            .max(1)
            .saturating_add(2)
    }

    /// Mean number of objects in the scene at once (Little's law).
    fn mean_objects_present(&self) -> f64 {
        self.object_arrivals_per_minute / 60.0 * self.mean_dwell_seconds
    }

    /// Check a profile that came from outside the process (a wire frame, a
    /// caller-built struct) before a generator runs on it: every parameter
    /// finite, every fraction in `[0, 1]`, rate and dwell non-negative, and
    /// their product — the per-frame slot loop's length — at most
    /// [`MAX_MEAN_OBJECTS_PRESENT`].
    pub fn validate(&self) -> Result<()> {
        let fractions = [
            ("motion_intensity", self.motion_intensity),
            ("mean_object_height", self.mean_object_height),
            ("object_height_spread", self.object_height_spread),
            ("vehicle_fraction", self.vehicle_fraction),
            ("plate_visible_fraction", self.plate_visible_fraction),
            ("background_texture", self.background_texture),
        ];
        for (name, value) in fractions {
            // `contains` is false for NaN, so this is the finiteness check too.
            if !(0.0..=1.0).contains(&value) {
                return Err(VStoreError::invalid_argument(format!(
                    "DatasetProfile::{name} must be in [0, 1], got {value}"
                )));
            }
        }
        let rates = [
            (
                "object_arrivals_per_minute",
                self.object_arrivals_per_minute,
            ),
            ("mean_dwell_seconds", self.mean_dwell_seconds),
        ];
        for (name, value) in rates {
            if !value.is_finite() || value < 0.0 {
                return Err(VStoreError::invalid_argument(format!(
                    "DatasetProfile::{name} must be finite and >= 0, got {value}"
                )));
            }
        }
        let present = self.mean_objects_present();
        if present > MAX_MEAN_OBJECTS_PRESENT {
            return Err(VStoreError::invalid_argument(format!(
                "DatasetProfile arrival rate x dwell time puts {present} objects in the \
                 scene at once; at most {MAX_MEAN_OBJECTS_PRESENT}"
            )));
        }
        Ok(())
    }
}

/// Largest accepted mean number of concurrent objects (arrival rate × dwell
/// time). The generator walks [`DatasetProfile::object_slots`] slots for
/// every frame, so this bounds the work one ingested frame can cost; the
/// paper's busiest scene (`miami`) has about five.
pub const MAX_MEAN_OBJECTS_PRESENT: f64 = 256.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_have_distinct_profiles() {
        let mut seeds: Vec<u64> = Dataset::ALL.iter().map(|d| d.profile().seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), Dataset::ALL.len());
    }

    #[test]
    fn dashcam_has_highest_motion() {
        let dash = Dataset::Dashcam.profile().motion_intensity;
        for d in Dataset::ALL {
            assert!(d.profile().motion_intensity <= dash);
        }
        assert!(Dataset::Park.profile().motion_intensity < 0.2);
    }

    #[test]
    fn query_split_matches_paper() {
        assert_eq!(Dataset::QUERY_A.len(), 3);
        assert_eq!(Dataset::QUERY_B.len(), 3);
        assert!(Dataset::QUERY_A.contains(&Dataset::Jackson));
        assert!(Dataset::QUERY_B.contains(&Dataset::Dashcam));
    }

    #[test]
    fn object_slots_scale_with_density() {
        let busy = Dataset::Miami.profile().object_slots();
        let quiet = Dataset::Park.profile().object_slots();
        assert!(busy > quiet);
        assert!(quiet >= 1);
    }

    #[test]
    fn every_shipped_profile_validates() {
        for d in Dataset::ALL {
            d.profile().validate().unwrap();
        }
        DatasetProfile::test_profile(7).validate().unwrap();
    }

    #[test]
    fn validate_rejects_non_finite_out_of_range_and_slot_exploding_profiles() {
        let damaged: [fn(&mut DatasetProfile); 8] = [
            |p| p.motion_intensity = f64::NAN,
            |p| p.vehicle_fraction = 1.5,
            |p| p.background_texture = -0.1,
            |p| p.mean_object_height = f64::INFINITY,
            |p| p.mean_dwell_seconds = -1.0,
            |p| p.object_arrivals_per_minute = f64::INFINITY,
            // Saturates the slot cast (and overflowed the `+ 2`).
            |p| p.object_arrivals_per_minute = 1e300,
            // A quiet five-million-slot loop per frame.
            |p| p.object_arrivals_per_minute = 6e7,
        ];
        for damage in damaged {
            let mut profile = Dataset::Jackson.profile();
            damage(&mut profile);
            let err = profile.validate().unwrap_err();
            assert!(
                matches!(err, VStoreError::InvalidArgument(_)),
                "{profile:?}: {err}"
            );
            // Rejected or not, counting slots never panics.
            assert!(profile.object_slots() >= 3);
        }
        // The largest accepted scene stays a small loop.
        let busiest = DatasetProfile {
            object_arrivals_per_minute: 60.0 * MAX_MEAN_OBJECTS_PRESENT,
            mean_dwell_seconds: 1.0,
            ..Dataset::Jackson.profile()
        };
        busiest.validate().unwrap();
        assert_eq!(busiest.object_slots(), 258);
    }

    #[test]
    fn names_are_lowercase_identifiers() {
        for d in Dataset::ALL {
            assert!(d.name().chars().all(|c| c.is_ascii_lowercase()));
            assert_eq!(d.to_string(), d.name());
        }
    }
}
