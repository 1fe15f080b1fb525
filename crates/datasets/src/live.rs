//! The camera simulator: an endless, deterministic live segment source.
//!
//! A [`LiveSource`] wraps a [`VideoSource`] with a *load profile* — a pure
//! function from virtual time to the number of segments the camera has
//! produced — so sustained-overload scenarios (bursts, diurnal swings)
//! replay identically on every run. Segment *content* is still the pure
//! function of `(seed, frame index)` that [`VideoSource`] implements; the
//! profile only decides *when* each segment becomes due on the caller's
//! virtual time.
//!
//! ```text
//!  virtual time ───now───► LoadProfile ──due_by()──► segment indices due
//!                                                     │ capture()
//!                                                     ▼
//!                                        reusable SceneFrame buffer
//! ```
//!
//! [`capture`](LiveSource::capture) renders into one internal buffer via
//! [`VideoSource::segment_into`], so a camera can run for millions of
//! virtual frames without per-segment heap churn.

use crate::scene::SceneFrame;
use crate::source::VideoSource;
use std::f64::consts::TAU;
use std::ops::Range;
use vstore_types::{Result, VStoreError};

/// How a simulated camera's offered load varies over virtual time. All
/// profiles are closed-form integrals — no RNG, no drift — so the segment
/// schedule is a pure function of the time passed in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadProfile {
    /// A constant offered rate.
    Steady {
        /// Segments produced per virtual second.
        segments_per_sec: f64,
    },
    /// A square wave: each period opens with a burst at
    /// `base * burst_multiplier`, then falls back to `base`.
    Bursty {
        /// Off-burst offered rate (segments per virtual second).
        base_segments_per_sec: f64,
        /// Rate multiplier during the burst window (≥ 1).
        burst_multiplier: f64,
        /// Length of one burst-then-quiet cycle in virtual seconds.
        period_seconds: f64,
        /// Fraction of each period spent bursting, in `(0, 1)`.
        burst_fraction: f64,
    },
    /// A day/night sine swing around a mean rate.
    Diurnal {
        /// Mean offered rate (segments per virtual second).
        mean_segments_per_sec: f64,
        /// Relative swing amplitude in `[0, 1]`: rate peaks at
        /// `mean * (1 + swing)` and bottoms out at `mean * (1 - swing)`.
        swing: f64,
        /// Length of one virtual "day" in seconds.
        period_seconds: f64,
    },
}

impl LoadProfile {
    /// Reject profiles whose schedule would be degenerate (non-positive
    /// rates or periods, out-of-range fractions).
    pub fn validate(&self) -> Result<()> {
        let reject = |what: &str| {
            Err(VStoreError::invalid_argument(format!(
                "LoadProfile: {what}"
            )))
        };
        match *self {
            LoadProfile::Steady { segments_per_sec } => {
                if !(segments_per_sec > 0.0 && segments_per_sec.is_finite()) {
                    return reject("segments_per_sec must be positive and finite");
                }
            }
            LoadProfile::Bursty {
                base_segments_per_sec,
                burst_multiplier,
                period_seconds,
                burst_fraction,
            } => {
                if !(base_segments_per_sec > 0.0 && base_segments_per_sec.is_finite()) {
                    return reject("base_segments_per_sec must be positive and finite");
                }
                if !(burst_multiplier >= 1.0 && burst_multiplier.is_finite()) {
                    return reject("burst_multiplier must be >= 1 and finite");
                }
                if !(period_seconds > 0.0 && period_seconds.is_finite()) {
                    return reject("period_seconds must be positive and finite");
                }
                if !(burst_fraction > 0.0 && burst_fraction < 1.0) {
                    return reject("burst_fraction must be in (0, 1)");
                }
            }
            LoadProfile::Diurnal {
                mean_segments_per_sec,
                swing,
                period_seconds,
            } => {
                if !(mean_segments_per_sec > 0.0 && mean_segments_per_sec.is_finite()) {
                    return reject("mean_segments_per_sec must be positive and finite");
                }
                if !(0.0..=1.0).contains(&swing) {
                    return reject("swing must be in [0, 1]");
                }
                if !(period_seconds > 0.0 && period_seconds.is_finite()) {
                    return reject("period_seconds must be positive and finite");
                }
            }
        }
        Ok(())
    }

    /// Total segments offered over virtual `[0, t]` — the integral of the
    /// rate function, before flooring to whole segments.
    fn offered(&self, t: f64) -> f64 {
        let t = t.max(0.0);
        match *self {
            LoadProfile::Steady { segments_per_sec } => segments_per_sec * t,
            LoadProfile::Bursty {
                base_segments_per_sec,
                burst_multiplier,
                period_seconds,
                burst_fraction,
            } => {
                let burst_len = period_seconds * burst_fraction;
                let per_period = base_segments_per_sec
                    * (burst_multiplier * burst_len + (period_seconds - burst_len));
                let full_periods = (t / period_seconds).floor();
                let rem = t - full_periods * period_seconds;
                let partial = base_segments_per_sec
                    * (burst_multiplier * rem.min(burst_len) + (rem - burst_len).max(0.0));
                full_periods * per_period + partial
            }
            LoadProfile::Diurnal {
                mean_segments_per_sec,
                swing,
                period_seconds,
            } => {
                // ∫ mean·(1 + swing·sin(ωt)) dt = mean·t + mean·swing·(1 − cos(ωt))/ω
                let omega = TAU / period_seconds;
                mean_segments_per_sec * (t + swing * (1.0 - (omega * t).cos()) / omega)
            }
        }
    }

    /// Whole segments due by virtual time `t`.
    #[must_use]
    pub fn due_by(&self, t: f64) -> u64 {
        self.offered(t).floor().max(0.0) as u64
    }

    /// The long-run mean offered rate in segments per virtual second.
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        match *self {
            LoadProfile::Steady { segments_per_sec } => segments_per_sec,
            LoadProfile::Bursty {
                base_segments_per_sec,
                burst_multiplier,
                burst_fraction,
                ..
            } => {
                base_segments_per_sec * (burst_multiplier * burst_fraction + (1.0 - burst_fraction))
            }
            LoadProfile::Diurnal {
                mean_segments_per_sec,
                ..
            } => mean_segments_per_sec,
        }
    }
}

/// An endless camera: a [`VideoSource`] scheduled by a [`LoadProfile`],
/// rendering due segments into one reusable frame buffer.
#[derive(Debug, Clone)]
pub struct LiveSource {
    source: VideoSource,
    profile: LoadProfile,
    /// Segments already handed out by [`poll`](Self::poll).
    next_due: u64,
    /// The reusable segment buffer [`capture`](Self::capture) renders into.
    buffer: Vec<SceneFrame>,
}

impl LiveSource {
    /// A camera producing `source`'s content on `profile`'s schedule.
    pub fn new(source: VideoSource, profile: LoadProfile) -> Result<Self> {
        profile.validate()?;
        Ok(LiveSource {
            source,
            profile,
            next_due: 0,
            buffer: Vec::new(),
        })
    }

    /// The underlying content source.
    pub fn source(&self) -> &VideoSource {
        &self.source
    }

    /// The camera's load profile.
    pub fn profile(&self) -> &LoadProfile {
        &self.profile
    }

    /// Total segments due by virtual time `now` (monotone in `now`).
    #[must_use]
    pub fn due_by(&self, now: f64) -> u64 {
        self.profile.due_by(now)
    }

    /// The segment indices newly due at virtual time `now`, advancing the
    /// camera's cursor past them: successive polls partition the stream, so
    /// every segment is offered exactly once.
    pub fn poll(&mut self, now: f64) -> Range<u64> {
        let due = self.due_by(now).max(self.next_due);
        let range = self.next_due..due;
        self.next_due = due;
        range
    }

    /// Render segment `segment_index` into the internal buffer and return
    /// its frames — value-identical to [`VideoSource::segment`], without the
    /// per-capture allocations once the buffer has warmed up.
    pub fn capture(&mut self, segment_index: u64) -> &[SceneFrame] {
        self.source.segment_into(segment_index, &mut self.buffer);
        &self.buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Dataset;

    fn camera(profile: LoadProfile) -> LiveSource {
        LiveSource::new(VideoSource::new(Dataset::Jackson), profile).unwrap()
    }

    #[test]
    fn steady_rate_is_linear_and_polls_partition_the_stream() {
        let mut cam = camera(LoadProfile::Steady {
            segments_per_sec: 0.5,
        });
        assert_eq!(cam.due_by(0.0), 0);
        assert_eq!(cam.due_by(10.0), 5);
        assert_eq!(cam.poll(4.0), 0..2);
        assert_eq!(cam.poll(4.0), 2..2, "re-polling offers nothing new");
        assert_eq!(cam.poll(10.0), 2..5);
        // Time never runs backwards through the cursor.
        assert_eq!(cam.poll(3.0), 5..5);
    }

    #[test]
    fn bursty_profile_doubles_during_the_burst_window() {
        // 1 seg/s base, 2x for the first half of each 100 s period.
        let profile = LoadProfile::Bursty {
            base_segments_per_sec: 1.0,
            burst_multiplier: 2.0,
            period_seconds: 100.0,
            burst_fraction: 0.5,
        };
        assert_eq!(profile.due_by(50.0), 100, "burst window runs at 2 seg/s");
        assert_eq!(profile.due_by(100.0), 150, "quiet window at 1 seg/s");
        assert_eq!(profile.due_by(250.0), 400, "periods accumulate exactly");
        assert!((profile.mean_rate() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn diurnal_profile_oscillates_but_averages_to_the_mean() {
        let profile = LoadProfile::Diurnal {
            mean_segments_per_sec: 1.0,
            swing: 0.8,
            period_seconds: 100.0,
        };
        // Over whole periods the sine integrates away.
        assert_eq!(profile.due_by(100.0), 100);
        assert_eq!(profile.due_by(200.0), 200);
        // The first half-day runs hot, the second cold.
        let first_half = profile.due_by(50.0);
        let second_half = profile.due_by(100.0) - first_half;
        assert!(
            first_half > second_half,
            "daytime {first_half} <= nighttime {second_half}"
        );
        // due_by is monotone even on the cold slope.
        let mut last = 0;
        for i in 0..400 {
            let now = profile.due_by(i as f64 * 0.5);
            assert!(now >= last, "due_by went backwards at t={}", i as f64 * 0.5);
            last = now;
        }
    }

    #[test]
    fn capture_matches_the_offline_segment() {
        let mut cam = camera(LoadProfile::Steady {
            segments_per_sec: 1.0,
        });
        let expected_3 = cam.source().segment(3);
        let expected_0 = cam.source().segment(0);
        assert_eq!(cam.capture(3), expected_3.as_slice());
        // Buffer reuse across captures stays value-identical.
        assert_eq!(cam.capture(0), expected_0.as_slice());
    }

    #[test]
    fn degenerate_profiles_are_rejected() {
        for profile in [
            LoadProfile::Steady {
                segments_per_sec: 0.0,
            },
            LoadProfile::Bursty {
                base_segments_per_sec: 1.0,
                burst_multiplier: 0.5,
                period_seconds: 10.0,
                burst_fraction: 0.5,
            },
            LoadProfile::Bursty {
                base_segments_per_sec: 1.0,
                burst_multiplier: 2.0,
                period_seconds: 10.0,
                burst_fraction: 1.0,
            },
            LoadProfile::Diurnal {
                mean_segments_per_sec: 1.0,
                swing: 1.5,
                period_seconds: 10.0,
            },
        ] {
            assert!(profile.validate().is_err(), "accepted {profile:?}");
        }
    }
}
