//! Video format knobs and their value domains (Table 1 of the paper).
//!
//! Every knob exposes:
//! * `ALL` — the finite list of admissible values, in ascending *richness*
//!   (fidelity knobs) or ascending *thoroughness* (coding knobs);
//! * `rank()` — position in that order, used by the richer-than partial
//!   order and by distance-based coalescing;
//! * a human-readable label matching the paper's notation.

use std::fmt;

/// Image quality, i.e. the quantisation aggressiveness of the encoder.
///
/// Maps to x264 CRF values 50 / 40 / 23 / 0 in the paper. Quality affects
/// accuracy and storage size but — observation **O2** — not the consumption
/// cost of operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ImageQuality {
    /// CRF 50 — heaviest quantisation, smallest output, worst visual quality.
    Worst,
    /// CRF 40.
    Bad,
    /// CRF 23 — the x264 default.
    Good,
    /// CRF 0 — visually lossless.
    Best,
}

impl ImageQuality {
    /// All values in ascending richness.
    pub const ALL: [ImageQuality; 4] = [
        ImageQuality::Worst,
        ImageQuality::Bad,
        ImageQuality::Good,
        ImageQuality::Best,
    ];

    /// Position in the richness order (0 = poorest).
    pub fn rank(self) -> usize {
        match self {
            ImageQuality::Worst => 0,
            ImageQuality::Bad => 1,
            ImageQuality::Good => 2,
            ImageQuality::Best => 3,
        }
    }

    /// The equivalent x264 constant-rate-factor value quoted by the paper.
    pub fn crf(self) -> u8 {
        match self {
            ImageQuality::Worst => 50,
            ImageQuality::Bad => 40,
            ImageQuality::Good => 23,
            ImageQuality::Best => 0,
        }
    }

    /// Fraction of visual signal retained after quantisation, in `(0, 1]`.
    ///
    /// Used by the synthetic codec and the operator detection models; chosen
    /// so that one quality step has the large accuracy impact reported in
    /// Figure 4(b).
    pub fn signal_retention(self) -> f64 {
        match self {
            ImageQuality::Worst => 0.35,
            ImageQuality::Bad => 0.62,
            ImageQuality::Good => 0.88,
            ImageQuality::Best => 1.0,
        }
    }

    /// Short label used in configuration tables (`best-720p-1-100%`).
    pub fn label(self) -> &'static str {
        match self {
            ImageQuality::Worst => "worst",
            ImageQuality::Bad => "bad",
            ImageQuality::Good => "good",
            ImageQuality::Best => "best",
        }
    }
}

impl fmt::Display for ImageQuality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Crop factor: the centred fraction of the frame area retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CropFactor {
    /// Keep the central 50 % of the frame.
    C50,
    /// Keep the central 75 % of the frame.
    C75,
    /// Keep the full frame.
    C100,
}

impl CropFactor {
    /// All values in ascending richness.
    pub const ALL: [CropFactor; 3] = [CropFactor::C50, CropFactor::C75, CropFactor::C100];

    /// Position in the richness order (0 = poorest).
    pub fn rank(self) -> usize {
        match self {
            CropFactor::C50 => 0,
            CropFactor::C75 => 1,
            CropFactor::C100 => 2,
        }
    }

    /// Retained fraction of the frame area, in `(0, 1]`.
    pub fn fraction(self) -> f64 {
        match self {
            CropFactor::C50 => 0.50,
            CropFactor::C75 => 0.75,
            CropFactor::C100 => 1.0,
        }
    }

    /// Retained fraction of each linear dimension, in `(0, 1]`.
    pub fn linear_fraction(self) -> f64 {
        self.fraction().sqrt()
    }

    /// Label such as `75%`.
    pub fn label(self) -> &'static str {
        match self {
            CropFactor::C50 => "50%",
            CropFactor::C75 => "75%",
            CropFactor::C100 => "100%",
        }
    }
}

impl fmt::Display for CropFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Output resolution. The paper uses ten values from 60×60 up to 720p.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resolution {
    /// 60×60.
    R60,
    /// 100×100.
    R100,
    /// 144p (256×144).
    R144,
    /// 180p (320×180).
    R180,
    /// 200×200.
    R200,
    /// 360p (640×360).
    R360,
    /// 400×400.
    R400,
    /// 540p (960×540).
    R540,
    /// 600×600.
    R600,
    /// 720p (1280×720) — the ingestion resolution of all datasets.
    R720,
}

impl Resolution {
    /// All values in ascending richness (pixel count).
    ///
    /// Note that the square NoScope-style resolutions (200×200, 400×400,
    /// 600×600) interleave with the 16:9 "p" resolutions when ordered by
    /// pixel count: e.g. 180p (320×180 = 57.6 kpx) is richer than 200×200
    /// (40 kpx).
    pub const ALL: [Resolution; 10] = [
        Resolution::R60,
        Resolution::R100,
        Resolution::R144,
        Resolution::R200,
        Resolution::R180,
        Resolution::R400,
        Resolution::R360,
        Resolution::R600,
        Resolution::R540,
        Resolution::R720,
    ];

    /// Position in the richness order (0 = poorest).
    #[expect(clippy::expect_used, reason = "ALL enumerates every variant")]
    pub fn rank(self) -> usize {
        Resolution::ALL
            .iter()
            .position(|r| *r == self)
            .expect("resolution present in ALL")
    }

    /// Frame width in pixels.
    pub fn width(self) -> u32 {
        match self {
            Resolution::R60 => 60,
            Resolution::R100 => 100,
            Resolution::R144 => 256,
            Resolution::R180 => 320,
            Resolution::R200 => 200,
            Resolution::R360 => 640,
            Resolution::R400 => 400,
            Resolution::R540 => 960,
            Resolution::R600 => 600,
            Resolution::R720 => 1280,
        }
    }

    /// Frame height in pixels.
    pub fn height(self) -> u32 {
        match self {
            Resolution::R60 => 60,
            Resolution::R100 => 100,
            Resolution::R144 => 144,
            Resolution::R180 => 180,
            Resolution::R200 => 200,
            Resolution::R360 => 360,
            Resolution::R400 => 400,
            Resolution::R540 => 540,
            Resolution::R600 => 600,
            Resolution::R720 => 720,
        }
    }

    /// Total pixel count of a full (uncropped) frame.
    pub fn pixels(self) -> u64 {
        u64::from(self.width()) * u64::from(self.height())
    }

    /// Label such as `540p` or `60x60`.
    pub fn label(self) -> &'static str {
        match self {
            Resolution::R60 => "60p",
            Resolution::R100 => "100p",
            Resolution::R144 => "144p",
            Resolution::R180 => "180p",
            Resolution::R200 => "200p",
            Resolution::R360 => "360p",
            Resolution::R400 => "400p",
            Resolution::R540 => "540p",
            Resolution::R600 => "600p",
            Resolution::R720 => "720p",
        }
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Frame sampling rate: the fraction of frames retained.
///
/// Table 1 lists `1/30, 1/5, 1/2, 2/3, 1`; the worked examples of the paper
/// (Figure 8 and Table 3) use `1/6` as the second value, which we follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FrameSampling {
    /// One frame out of every thirty (1 fps at a 30 fps source).
    S1_30,
    /// One frame out of every six (5 fps).
    S1_6,
    /// Every other frame (15 fps).
    S1_2,
    /// Two frames out of three (20 fps).
    S2_3,
    /// Every frame (30 fps).
    Full,
}

impl FrameSampling {
    /// All values in ascending richness.
    pub const ALL: [FrameSampling; 5] = [
        FrameSampling::S1_30,
        FrameSampling::S1_6,
        FrameSampling::S1_2,
        FrameSampling::S2_3,
        FrameSampling::Full,
    ];

    /// Position in the richness order (0 = poorest).
    pub fn rank(self) -> usize {
        match self {
            FrameSampling::S1_30 => 0,
            FrameSampling::S1_6 => 1,
            FrameSampling::S1_2 => 2,
            FrameSampling::S2_3 => 3,
            FrameSampling::Full => 4,
        }
    }

    /// Retained fraction of frames, in `(0, 1]`.
    pub fn fraction(self) -> f64 {
        match self {
            FrameSampling::S1_30 => 1.0 / 30.0,
            FrameSampling::S1_6 => 1.0 / 6.0,
            FrameSampling::S1_2 => 0.5,
            FrameSampling::S2_3 => 2.0 / 3.0,
            FrameSampling::Full => 1.0,
        }
    }

    /// The sampling interval in frames (inverse of [`fraction`](Self::fraction)),
    /// rounded to the nearest integer; `1` means every frame.
    pub fn interval(self) -> u32 {
        match self {
            FrameSampling::S1_30 => 30,
            FrameSampling::S1_6 => 6,
            FrameSampling::S1_2 => 2,
            // 2/3 keeps two frames out of three; the effective stride is 1.5
            // but the decoder still has to touch every other frame at worst.
            FrameSampling::S2_3 => 1,
            FrameSampling::Full => 1,
        }
    }

    /// Label such as `1/6`.
    pub fn label(self) -> &'static str {
        match self {
            FrameSampling::S1_30 => "1/30",
            FrameSampling::S1_6 => "1/6",
            FrameSampling::S1_2 => "1/2",
            FrameSampling::S2_3 => "2/3",
            FrameSampling::Full => "1",
        }
    }
}

impl fmt::Display for FrameSampling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Encoder/decoder speed step — analogous to the x264 `preset` knob.
///
/// Slower steps spend more cycles searching for redundancy and therefore
/// produce smaller files; faster steps trade size for throughput
/// (Figure 3(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpeedStep {
    /// x264 `veryslow`: smallest output, slowest encode.
    Slowest,
    /// x264 `medium`.
    Slow,
    /// x264 `veryfast`.
    Medium,
    /// x264 `superfast`.
    Fast,
    /// x264 `ultrafast`: largest output, fastest encode.
    Fastest,
}

impl SpeedStep {
    /// All values, from the most thorough (slowest) to the fastest.
    pub const ALL: [SpeedStep; 5] = [
        SpeedStep::Slowest,
        SpeedStep::Slow,
        SpeedStep::Medium,
        SpeedStep::Fast,
        SpeedStep::Fastest,
    ];

    /// Position in the order (0 = slowest / most thorough).
    pub fn rank(self) -> usize {
        match self {
            SpeedStep::Slowest => 0,
            SpeedStep::Slow => 1,
            SpeedStep::Medium => 2,
            SpeedStep::Fast => 3,
            SpeedStep::Fastest => 4,
        }
    }

    /// The x264 preset name quoted by the paper.
    pub fn preset(self) -> &'static str {
        match self {
            SpeedStep::Slowest => "veryslow",
            SpeedStep::Slow => "medium",
            SpeedStep::Medium => "veryfast",
            SpeedStep::Fast => "superfast",
            SpeedStep::Fastest => "ultrafast",
        }
    }

    /// Label such as `slowest`.
    pub fn label(self) -> &'static str {
        match self {
            SpeedStep::Slowest => "slowest",
            SpeedStep::Slow => "slow",
            SpeedStep::Medium => "med",
            SpeedStep::Fast => "fast",
            SpeedStep::Fastest => "fastest",
        }
    }
}

impl fmt::Display for SpeedStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Keyframe (GOP) interval in frames.
///
/// Smaller intervals let a sparsely-sampling consumer skip whole chunks while
/// decoding (Figure 3(b)) at the expense of a larger encoded size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KeyframeInterval {
    /// A keyframe every 5 frames.
    K5,
    /// A keyframe every 10 frames.
    K10,
    /// A keyframe every 50 frames.
    K50,
    /// A keyframe every 100 frames.
    K100,
    /// A keyframe every 250 frames (the x264 default).
    K250,
}

impl KeyframeInterval {
    /// All values, ascending.
    pub const ALL: [KeyframeInterval; 5] = [
        KeyframeInterval::K5,
        KeyframeInterval::K10,
        KeyframeInterval::K50,
        KeyframeInterval::K100,
        KeyframeInterval::K250,
    ];

    /// Position in the order (0 = shortest interval).
    pub fn rank(self) -> usize {
        match self {
            KeyframeInterval::K5 => 0,
            KeyframeInterval::K10 => 1,
            KeyframeInterval::K50 => 2,
            KeyframeInterval::K100 => 3,
            KeyframeInterval::K250 => 4,
        }
    }

    /// Interval length in frames.
    pub fn frames(self) -> u32 {
        match self {
            KeyframeInterval::K5 => 5,
            KeyframeInterval::K10 => 10,
            KeyframeInterval::K50 => 50,
            KeyframeInterval::K100 => 100,
            KeyframeInterval::K250 => 250,
        }
    }

    /// Label such as `250`.
    pub fn label(self) -> &'static str {
        match self {
            KeyframeInterval::K5 => "5",
            KeyframeInterval::K10 => "10",
            KeyframeInterval::K50 => "50",
            KeyframeInterval::K100 => "100",
            KeyframeInterval::K250 => "250",
        }
    }
}

impl fmt::Display for KeyframeInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_order_and_crf() {
        assert!(ImageQuality::Worst < ImageQuality::Bad);
        assert!(ImageQuality::Bad < ImageQuality::Good);
        assert!(ImageQuality::Good < ImageQuality::Best);
        assert_eq!(ImageQuality::Good.crf(), 23);
        assert_eq!(ImageQuality::Best.signal_retention(), 1.0);
        for pair in ImageQuality::ALL.windows(2) {
            assert!(pair[0].rank() < pair[1].rank());
            assert!(pair[0].signal_retention() < pair[1].signal_retention());
        }
    }

    #[test]
    fn crop_fractions() {
        assert_eq!(CropFactor::C100.fraction(), 1.0);
        assert!(CropFactor::C50.fraction() < CropFactor::C75.fraction());
        assert!((CropFactor::C50.linear_fraction() - 0.5_f64.sqrt()).abs() < 1e-12);
        for pair in CropFactor::ALL.windows(2) {
            assert!(pair[0].rank() < pair[1].rank());
        }
    }

    #[test]
    fn resolution_count_and_order() {
        assert_eq!(Resolution::ALL.len(), 10);
        for pair in Resolution::ALL.windows(2) {
            assert!(
                pair[0].pixels() < pair[1].pixels(),
                "{:?} !< {:?}",
                pair[0],
                pair[1]
            );
            assert!(pair[0].rank() < pair[1].rank());
        }
        assert_eq!(Resolution::R720.width(), 1280);
        assert_eq!(Resolution::R720.height(), 720);
    }

    #[test]
    fn sampling_fractions() {
        assert_eq!(FrameSampling::Full.fraction(), 1.0);
        for pair in FrameSampling::ALL.windows(2) {
            assert!(pair[0].fraction() < pair[1].fraction());
            assert!(pair[0].rank() < pair[1].rank());
        }
        assert_eq!(FrameSampling::S1_30.interval(), 30);
        assert_eq!(FrameSampling::Full.interval(), 1);
    }

    #[test]
    fn speed_steps_and_keyframe_intervals() {
        assert_eq!(SpeedStep::ALL.len(), 5);
        assert_eq!(SpeedStep::Slowest.preset(), "veryslow");
        assert_eq!(KeyframeInterval::ALL.len(), 5);
        for pair in KeyframeInterval::ALL.windows(2) {
            assert!(pair[0].frames() < pair[1].frames());
        }
    }

    #[test]
    fn knob_space_size_matches_paper() {
        let fidelity = ImageQuality::ALL.len()
            * CropFactor::ALL.len()
            * Resolution::ALL.len()
            * FrameSampling::ALL.len();
        assert_eq!(fidelity, 600);
        let coding = SpeedStep::ALL.len() * KeyframeInterval::ALL.len();
        assert_eq!(fidelity * coding, 15_000);
    }

    #[test]
    fn labels_round_trip_display() {
        assert_eq!(ImageQuality::Best.to_string(), "best");
        assert_eq!(CropFactor::C75.to_string(), "75%");
        assert_eq!(Resolution::R540.to_string(), "540p");
        assert_eq!(FrameSampling::S1_6.to_string(), "1/6");
        assert_eq!(SpeedStep::Medium.to_string(), "med");
        assert_eq!(KeyframeInterval::K250.to_string(), "250");
    }
}
