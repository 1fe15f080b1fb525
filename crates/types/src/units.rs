//! Measurement units used throughout VStore.
//!
//! The paper quantifies operator and retrieval performance as a multiple of
//! *video realtime* ("a 1-second video processed in 1 ms is 1000× realtime"),
//! storage as bytes (or GB/day per stream), and ingestion as CPU cores (or
//! CPU-core-seconds per video-second).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Processing speed expressed as a multiple of video realtime.
///
/// `Speed(362.0)` means one second of video is processed in `1/362` seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Speed(pub f64);

impl Speed {
    /// Exactly video realtime (1×).
    pub const REALTIME: Speed = Speed(1.0);

    /// Construct a speed from a video duration and the processing time spent
    /// on it. Returns an effectively infinite speed when `processing_seconds`
    /// is zero (e.g. zero frames touched).
    pub fn from_durations(video_seconds: f64, processing_seconds: f64) -> Speed {
        if processing_seconds <= 0.0 {
            Speed(f64::INFINITY)
        } else {
            Speed(video_seconds / processing_seconds)
        }
    }

    /// The ×realtime factor.
    pub fn factor(&self) -> f64 {
        self.0
    }

    /// Seconds of processing time needed per second of video.
    pub fn seconds_per_video_second(&self) -> f64 {
        if self.0 <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.0
        }
    }

    /// The smaller of two speeds — a pipeline runs at the speed of its
    /// slowest stage ("the operator runs at the speed of retrieval or
    /// consumption, whichever is lower").
    pub fn min(self, other: Speed) -> Speed {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two speeds.
    pub fn max(self, other: Speed) -> Speed {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Speed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            write!(f, "∞x")
        } else if self.0 >= 100.0 {
            write!(f, "{:.0}x", self.0)
        } else {
            write!(f, "{:.1}x", self.0)
        }
    }
}

/// A byte count (storage cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Construct from a number of kibibytes.
    pub fn from_kib(kib: f64) -> ByteSize {
        ByteSize((kib * 1024.0).round() as u64)
    }

    /// Construct from a number of mebibytes.
    pub fn from_mib(mib: f64) -> ByteSize {
        ByteSize((mib * 1024.0 * 1024.0).round() as u64)
    }

    /// Construct from a number of gibibytes.
    pub fn from_gib(gib: f64) -> ByteSize {
        ByteSize((gib * 1024.0 * 1024.0 * 1024.0).round() as u64)
    }

    /// Construct from a number of tebibytes.
    pub fn from_tib(tib: f64) -> ByteSize {
        ByteSize((tib * 1024.0 * 1024.0 * 1024.0 * 1024.0).round() as u64)
    }

    /// The raw byte count.
    pub fn bytes(&self) -> u64 {
        self.0
    }

    /// The size in kibibytes.
    pub fn kib(&self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// The size in mebibytes.
    pub fn mib(&self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// The size in gibibytes.
    pub fn gib(&self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }

    /// Scale by a unitless factor (e.g. a retained fraction), rounding to the
    /// nearest byte.
    pub fn scale(self, factor: f64) -> ByteSize {
        ByteSize((self.0 as f64 * factor.max(0.0)).round() as u64)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1024.0 * 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} TiB", b / (1024.0_f64.powi(4)))
        } else if b >= 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} GiB", b / (1024.0_f64.powi(3)))
        } else if b >= 1024.0 * 1024.0 {
            write!(f, "{:.2} MiB", b / (1024.0 * 1024.0))
        } else if b >= 1024.0 {
            write!(f, "{:.1} KiB", b / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// CPU-core-seconds: one core busy for one second.
///
/// Dividing by the wall-clock duration gives the number of busy cores
/// (the paper's "CPU utilisation %": 100 % = one core).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct CoreSeconds(pub f64);

impl CoreSeconds {
    /// Zero work.
    pub const ZERO: CoreSeconds = CoreSeconds(0.0);

    /// The number of cores kept busy if this work is spread over
    /// `wall_seconds` of wall-clock time.
    pub fn cores_over(&self, wall_seconds: f64) -> f64 {
        if wall_seconds <= 0.0 {
            f64::INFINITY
        } else {
            self.0 / wall_seconds
        }
    }
}

impl Add for CoreSeconds {
    type Output = CoreSeconds;
    fn add(self, rhs: CoreSeconds) -> CoreSeconds {
        CoreSeconds(self.0 + rhs.0)
    }
}

impl AddAssign for CoreSeconds {
    fn add_assign(&mut self, rhs: CoreSeconds) {
        self.0 += rhs.0;
    }
}

impl Sub for CoreSeconds {
    type Output = CoreSeconds;
    fn sub(self, rhs: CoreSeconds) -> CoreSeconds {
        CoreSeconds((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for CoreSeconds {
    type Output = CoreSeconds;
    fn mul(self, rhs: f64) -> CoreSeconds {
        CoreSeconds(self.0 * rhs)
    }
}

impl Div<f64> for CoreSeconds {
    type Output = CoreSeconds;
    fn div(self, rhs: f64) -> CoreSeconds {
        CoreSeconds(self.0 / rhs)
    }
}

impl Sum for CoreSeconds {
    fn sum<I: Iterator<Item = CoreSeconds>>(iter: I) -> CoreSeconds {
        iter.fold(CoreSeconds::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for CoreSeconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} core·s", self.0)
    }
}

/// A duration of video content in seconds (as opposed to wall-clock time).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct VideoSeconds(pub f64);

impl VideoSeconds {
    /// Zero duration.
    pub const ZERO: VideoSeconds = VideoSeconds(0.0);

    /// The duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.0
    }

    /// The number of frames at the ingestion frame rate (30 fps).
    pub fn frames_at_30fps(&self) -> u64 {
        (self.0 * 30.0).round() as u64
    }
}

impl Add for VideoSeconds {
    type Output = VideoSeconds;
    fn add(self, rhs: VideoSeconds) -> VideoSeconds {
        VideoSeconds(self.0 + rhs.0)
    }
}

impl AddAssign for VideoSeconds {
    fn add_assign(&mut self, rhs: VideoSeconds) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for VideoSeconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} s", self.0)
    }
}

/// A fraction in `[0, 1]`, used for erosion plans and selectivities.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Fraction(f64);

impl Fraction {
    /// Zero.
    pub const ZERO: Fraction = Fraction(0.0);
    /// One.
    pub const ONE: Fraction = Fraction(1.0);

    /// Construct a fraction, clamping into `[0, 1]`.
    pub fn new(value: f64) -> Fraction {
        Fraction(value.clamp(0.0, 1.0))
    }

    /// The underlying value.
    pub fn value(&self) -> f64 {
        self.0
    }

    /// The complement `1 - self`.
    pub fn complement(&self) -> Fraction {
        Fraction(1.0 - self.0)
    }
}

impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.0 * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_from_durations() {
        let s = Speed::from_durations(1.0, 0.001);
        assert!((s.factor() - 1000.0).abs() < 1e-9);
        assert!(Speed::from_durations(1.0, 0.0).factor().is_infinite());
        assert_eq!(Speed(10.0).min(Speed(5.0)).factor(), 5.0);
        assert_eq!(Speed(10.0).max(Speed(5.0)).factor(), 10.0);
        assert!((Speed(4.0).seconds_per_video_second() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn speed_display() {
        assert_eq!(Speed(362.0).to_string(), "362x");
        assert_eq!(Speed(1.5).to_string(), "1.5x");
    }

    #[test]
    fn byte_size_conversions() {
        let one_gib = ByteSize::from_gib(1.0);
        assert_eq!(one_gib.bytes(), 1024 * 1024 * 1024);
        assert!((one_gib.mib() - 1024.0).abs() < 1e-9);
        assert_eq!(ByteSize(100) + ByteSize(28), ByteSize(128));
        assert_eq!(ByteSize(100).saturating_sub(ByteSize(200)), ByteSize::ZERO);
        assert_eq!(ByteSize(1000).scale(0.5), ByteSize(500));
        let total: ByteSize = [ByteSize(1), ByteSize(2), ByteSize(3)].into_iter().sum();
        assert_eq!(total, ByteSize(6));
    }

    #[test]
    fn byte_size_display_units() {
        assert_eq!(ByteSize(512).to_string(), "512 B");
        assert_eq!(ByteSize::from_kib(2.0).to_string(), "2.0 KiB");
        assert_eq!(ByteSize::from_gib(2.5).to_string(), "2.50 GiB");
    }

    #[test]
    fn core_seconds_accounting() {
        let w = CoreSeconds(90.0);
        assert!((w.cores_over(10.0) - 9.0).abs() < 1e-12);
        assert!((w * 2.0).0 > w.0);
        let total: CoreSeconds = [CoreSeconds(1.0), CoreSeconds(2.0)].into_iter().sum();
        assert!((total.0 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn video_seconds_frames() {
        assert_eq!(VideoSeconds(8.0).frames_at_30fps(), 240);
        assert_eq!(VideoSeconds(0.5).frames_at_30fps(), 15);
    }

    #[test]
    fn fraction_clamps() {
        assert_eq!(Fraction::new(1.5).value(), 1.0);
        assert_eq!(Fraction::new(-0.5).value(), 0.0);
        assert!((Fraction::new(0.25).complement().value() - 0.75).abs() < 1e-12);
    }
}
