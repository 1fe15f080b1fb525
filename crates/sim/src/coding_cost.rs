//! Calibrated coding cost model: encoded size, encode speed/cost, decode and
//! retrieval speed as functions of fidelity, coding option and content
//! motion.
//!
//! The block codec in `vstore-codec` really compresses the synthetic frames,
//! but its absolute throughput on this host says nothing about x264/NVDEC on
//! the paper's testbed. All speeds and sizes reported by experiments
//! therefore come from this model, calibrated against the figures the paper
//! publishes:
//!
//! * Figure 3(a): the speed step spans roughly a 40× range in encoding speed
//!   and up to 2.5× in encoded size;
//! * Figure 3(b): shrinking the keyframe interval from 250 to 5 grows the
//!   video by ~4× and speeds up sparse-sampling decode by up to ~6×;
//! * Table 3(b): the golden `best-720p-1-100% / 250-slowest` format costs
//!   ~1.4 MB per video-second and retrieves at ~23×; RAW 200×200 frames cost
//!   ~1.8 MB/s and retrieve at 1137×–34132× depending on consumer sampling;
//! * §6.2: around 9 cores transcode one stream into the four derived storage
//!   formats in real time.

use crate::machine::MachineSpec;
use vstore_types::{
    ByteSize, CodingOption, Fidelity, FrameSampling, ImageQuality, KeyframeInterval, Speed,
    SpeedStep, StorageFormat,
};

/// Bytes per pixel of a raw YUV420 frame.
pub const RAW_BYTES_PER_PIXEL: f64 = 1.5;

/// The calibrated coding cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodingCostModel {
    /// The machine whose decoder/disk figures bound retrieval.
    pub machine: MachineSpec,
    /// Number of encoder threads an FFmpeg-style transcoder instance uses
    /// when reporting *encode speed* (Figure 3(a) is measured on a
    /// multi-threaded encoder; ingestion *cost* is still charged per core).
    pub encoder_threads: u32,
}

impl CodingCostModel {
    /// Model for the paper's testbed.
    pub fn paper_testbed() -> Self {
        CodingCostModel {
            machine: MachineSpec::paper_testbed(),
            encoder_threads: 10,
        }
    }

    /// Model for a given machine.
    pub fn new(machine: MachineSpec) -> Self {
        CodingCostModel {
            machine,
            encoder_threads: 10,
        }
    }

    // ------------------------------------------------------------------
    // Size model
    // ------------------------------------------------------------------

    /// Intra-frame (keyframe) bits per pixel for a quality level.
    fn intra_bits_per_pixel(quality: ImageQuality) -> f64 {
        match quality {
            ImageQuality::Worst => 0.28,
            ImageQuality::Bad => 0.60,
            ImageQuality::Good => 1.30,
            ImageQuality::Best => 3.00,
        }
    }

    /// Size multiplier of the encoder speed step (Figure 3(a): up to ~2.5×).
    fn speed_size_factor(speed: SpeedStep) -> f64 {
        match speed {
            SpeedStep::Slowest => 1.00,
            SpeedStep::Slow => 1.18,
            SpeedStep::Medium => 1.45,
            SpeedStep::Fast => 1.85,
            SpeedStep::Fastest => 2.50,
        }
    }

    /// Effective inter-frame motion given the content's motion intensity and
    /// the stored sampling stride: sampling every 30th frame makes adjacent
    /// stored frames far less similar, pushing inter frames towards intra
    /// cost.
    fn effective_motion(motion: f64, sampling: FrameSampling) -> f64 {
        let stride = 1.0 / sampling.fraction();
        (motion.clamp(0.0, 1.0) * stride.sqrt()).min(1.0)
    }

    /// Average bits per pixel of an encoded stream.
    fn bits_per_pixel(
        quality: ImageQuality,
        speed: SpeedStep,
        keyframe_interval: KeyframeInterval,
        sampling: FrameSampling,
        motion: f64,
    ) -> f64 {
        let intra = Self::intra_bits_per_pixel(quality);
        let m = Self::effective_motion(motion, sampling);
        // Inter frames cost a small floor plus a motion-proportional share of
        // the intra cost.
        let inter = intra * (0.03 + 0.55 * m);
        let gop = f64::from(keyframe_interval.frames());
        let key_share = 1.0 / gop;
        let blended = key_share * intra + (1.0 - key_share) * inter;
        blended * Self::speed_size_factor(speed)
    }

    /// Pixels of stored video per second of content, after resolution, crop
    /// and the *stored* sampling rate are applied.
    fn stored_pixels_per_video_second(fidelity: &Fidelity) -> f64 {
        fidelity.pixels_per_video_second()
    }

    /// Size of one video-second stored as raw YUV420 frames.
    pub fn raw_bytes_per_video_second(&self, fidelity: &Fidelity) -> ByteSize {
        let px = Self::stored_pixels_per_video_second(fidelity);
        ByteSize((px * RAW_BYTES_PER_PIXEL).round() as u64)
    }

    /// Size of one video-second in the given storage format for content with
    /// the given motion intensity (`0.0` = static scene, `1.0` = dash-cam).
    pub fn bytes_per_video_second(&self, format: &StorageFormat, motion: f64) -> ByteSize {
        match format.coding {
            CodingOption::Raw => self.raw_bytes_per_video_second(&format.fidelity),
            CodingOption::Encoded {
                keyframe_interval,
                speed,
            } => {
                let px = Self::stored_pixels_per_video_second(&format.fidelity);
                let bpp = Self::bits_per_pixel(
                    format.fidelity.quality,
                    speed,
                    keyframe_interval,
                    format.fidelity.sampling,
                    motion,
                );
                ByteSize((px * bpp / 8.0).round().max(1.0) as u64)
            }
        }
    }

    /// Storage cost in GB per day of continuously stored video.
    pub fn gb_per_day(&self, format: &StorageFormat, motion: f64) -> f64 {
        self.bytes_per_video_second(format, motion).bytes() as f64 * 86_400.0 / 1e9
    }

    // ------------------------------------------------------------------
    // Encode model
    // ------------------------------------------------------------------

    /// Encoder throughput per core in pixels/second for a speed step
    /// (x264-style: `veryslow` ≈ 4.5 Mpx/s, `ultrafast` ≈ 180 Mpx/s).
    fn encode_pixels_per_core_second(speed: SpeedStep) -> f64 {
        match speed {
            SpeedStep::Slowest => 4.5e6,
            SpeedStep::Slow => 12.0e6,
            SpeedStep::Medium => 30.0e6,
            SpeedStep::Fast => 80.0e6,
            SpeedStep::Fastest => 180.0e6,
        }
    }

    /// CPU cores required to transcode one ingested stream into this storage
    /// format in real time. RAW storage still pays a small resize/copy cost.
    pub fn encode_cores_for_realtime(&self, format: &StorageFormat, motion: f64) -> f64 {
        let px = Self::stored_pixels_per_video_second(&format.fidelity);
        match format.coding {
            CodingOption::Raw => px / 600.0e6,
            CodingOption::Encoded {
                speed,
                keyframe_interval,
            } => {
                // Shorter GOPs insert more (cheap-to-choose, expensive-to-code)
                // keyframes; the paper observes encoding speed is mostly
                // unaffected, so the factor stays small.
                let gop_penalty = 1.0 + 2.0 / f64::from(keyframe_interval.frames());
                let m = 0.85 + 0.35 * motion.clamp(0.0, 1.0);
                px * gop_penalty * m / Self::encode_pixels_per_core_second(speed)
            }
        }
    }

    /// Encoding speed (×realtime) of one multi-threaded transcoder instance
    /// for this format — the quantity plotted in Figure 3(a).
    pub fn encode_speed(&self, format: &StorageFormat, motion: f64) -> Speed {
        let cores = self.encode_cores_for_realtime(format, motion);
        if cores <= 0.0 {
            return Speed(f64::INFINITY);
        }
        Speed(f64::from(self.encoder_threads) / cores)
    }

    // ------------------------------------------------------------------
    // Decode / retrieval model
    // ------------------------------------------------------------------

    /// Decoder pixel throughput for inter frames at a quality level. Heavier
    /// bitstreams (richer quality) decode slower per pixel.
    fn decode_pixels_per_second(&self, quality: ImageQuality) -> f64 {
        let base = self.machine.decoder_pixel_rate;
        match quality {
            ImageQuality::Worst => base * 1.35,
            ImageQuality::Bad => base * 1.25,
            ImageQuality::Good => base * 1.10,
            ImageQuality::Best => base,
        }
    }

    /// Seconds to decode a single stored frame.
    fn decode_seconds_per_frame(&self, fidelity: &Fidelity, is_keyframe: bool) -> f64 {
        let px = fidelity.pixels_per_frame() as f64;
        let rate = self.decode_pixels_per_second(fidelity.quality);
        let key_factor = if is_keyframe { 2.2 } else { 1.0 };
        px * key_factor / rate + self.machine.decoder_frame_overhead
    }

    /// Number of stored frames per second of video for a fidelity.
    fn stored_frames_per_video_second(fidelity: &Fidelity) -> f64 {
        30.0 * fidelity.sampling.fraction()
    }

    /// Sequential decode speed (×realtime) of an encoded storage format when
    /// the consumer touches *every* stored frame.
    pub fn sequential_decode_speed(&self, format: &StorageFormat, motion: f64) -> Speed {
        self.decode_speed(format, motion, None)
    }

    /// Decode/retrieval speed (×realtime) of a storage format for a consumer
    /// that samples frames at `consumer_sampling` *of the original 30 fps
    /// stream* (pass `None` for a consumer touching every stored frame).
    ///
    /// For encoded formats, when the consumer's sampling interval exceeds the
    /// keyframe interval, whole GOPs are skipped (Figure 3(b)); the decoder
    /// still has to decode from the nearest keyframe up to each sampled
    /// frame. For RAW formats, frames are fetched individually from disk, so
    /// retrieval speed scales directly with the consumer's sampling rate.
    /// Either way the result is capped by disk read bandwidth.
    pub fn decode_speed(
        &self,
        format: &StorageFormat,
        motion: f64,
        consumer_sampling: Option<FrameSampling>,
    ) -> Speed {
        let stored_fps = Self::stored_frames_per_video_second(&format.fidelity);
        if stored_fps <= 0.0 {
            return Speed(f64::INFINITY);
        }
        let speed = match format.coding {
            CodingOption::Raw => {
                let bytes_full = self.raw_bytes_per_video_second(&format.fidelity).bytes() as f64;
                // Individual frames can be read directly, so only the frames
                // the consumer touches cross the disk interface.
                let touch_fraction = match consumer_sampling {
                    Some(s) => (s.fraction() / format.fidelity.sampling.fraction()).min(1.0),
                    None => 1.0,
                };
                let bytes = bytes_full * touch_fraction;
                if bytes <= 0.0 {
                    Speed(f64::INFINITY)
                } else {
                    Speed(self.machine.disk_read_bw as f64 / bytes)
                }
            }
            CodingOption::Encoded {
                keyframe_interval, ..
            } => {
                let gop = f64::from(keyframe_interval.frames());
                // Consumer sampling interval measured in *stored* frames.
                let consumer_stride = match consumer_sampling {
                    Some(s) => (s.fraction() / format.fidelity.sampling.fraction())
                        .recip()
                        .max(1.0),
                    None => 1.0,
                };
                let decoded_per_video_second;
                let keyframes_per_video_second;
                if consumer_stride > gop {
                    // GOP skipping: for each sampled frame, decode the
                    // containing GOP's keyframe plus on average half a GOP of
                    // predecessors.
                    let sampled_per_second = stored_fps / consumer_stride;
                    let frames_per_sample = 1.0 + (gop - 1.0) / 2.0;
                    decoded_per_video_second = sampled_per_second * frames_per_sample;
                    keyframes_per_video_second = sampled_per_second;
                } else {
                    // Sequential decode: every stored frame is reconstructed.
                    decoded_per_video_second = stored_fps;
                    keyframes_per_video_second = stored_fps / gop;
                }
                let inter_per_video_second =
                    (decoded_per_video_second - keyframes_per_video_second).max(0.0);
                let seconds = keyframes_per_video_second
                    * self.decode_seconds_per_frame(&format.fidelity, true)
                    + inter_per_video_second
                        * self.decode_seconds_per_frame(&format.fidelity, false);
                if seconds <= 0.0 {
                    Speed(f64::INFINITY)
                } else {
                    Speed(1.0 / seconds)
                }
            }
        };
        // Disk bandwidth caps everything (it only matters for RAW in
        // practice, exactly as §2.2 observes).
        let bytes_per_second = self.bytes_per_video_second(format, motion).bytes() as f64;
        if bytes_per_second > 0.0 {
            let disk_cap = Speed(self.machine.disk_read_bw as f64 / bytes_per_second);
            if format.coding.is_raw() {
                // Already disk-bound above; avoid double capping below the
                // sampled-read speed.
                speed
            } else {
                speed.min(disk_cap)
            }
        } else {
            speed
        }
    }

    /// The retrieval speed used when checking requirement **R2** for a
    /// storage format serving a consumer with the given sampling rate.
    pub fn retrieval_speed(
        &self,
        format: &StorageFormat,
        motion: f64,
        consumer_sampling: FrameSampling,
    ) -> Speed {
        self.decode_speed(format, motion, Some(consumer_sampling))
    }
}

impl Default for CodingCostModel {
    fn default() -> Self {
        CodingCostModel::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstore_types::{CropFactor, Resolution};

    fn golden() -> StorageFormat {
        StorageFormat::new(Fidelity::INGESTION, CodingOption::SMALLEST)
    }

    fn model() -> CodingCostModel {
        CodingCostModel::paper_testbed()
    }

    const JACKSON_MOTION: f64 = 0.30;
    const DASHCAM_MOTION: f64 = 0.85;

    #[test]
    fn golden_format_size_near_paper() {
        // Table 3(b): 1393 KB per second. Accept the right order of magnitude.
        let kb = model()
            .bytes_per_video_second(&golden(), JACKSON_MOTION)
            .kib();
        assert!(kb > 500.0 && kb < 3000.0, "golden size {kb} KB/s");
    }

    #[test]
    fn raw_200p_size_matches_yuv420() {
        let f = Fidelity::new(
            ImageQuality::Best,
            CropFactor::C100,
            Resolution::R200,
            FrameSampling::Full,
        );
        let sf = StorageFormat::new(f, CodingOption::Raw);
        let kb = model().bytes_per_video_second(&sf, JACKSON_MOTION).kib();
        // 200×200 × 1.5 B × 30 fps = 1758 KiB (the paper rounds to 1843 KB).
        assert!((kb - 1757.8).abs() < 5.0, "raw size {kb}");
    }

    #[test]
    fn speed_step_spans_large_encode_speed_range_and_modest_size_range() {
        let m = model();
        let slow = StorageFormat::new(
            Fidelity::INGESTION,
            CodingOption::Encoded {
                keyframe_interval: KeyframeInterval::K250,
                speed: SpeedStep::Slowest,
            },
        );
        let fast = StorageFormat::new(
            Fidelity::INGESTION,
            CodingOption::Encoded {
                keyframe_interval: KeyframeInterval::K250,
                speed: SpeedStep::Fastest,
            },
        );
        let speed_ratio = m.encode_speed(&fast, JACKSON_MOTION).factor()
            / m.encode_speed(&slow, JACKSON_MOTION).factor();
        assert!(
            speed_ratio > 20.0 && speed_ratio < 60.0,
            "speed ratio {speed_ratio}"
        );
        let size_ratio = m.bytes_per_video_second(&fast, JACKSON_MOTION).bytes() as f64
            / m.bytes_per_video_second(&slow, JACKSON_MOTION).bytes() as f64;
        assert!(
            size_ratio > 1.5 && size_ratio <= 2.6,
            "size ratio {size_ratio}"
        );
    }

    #[test]
    fn keyframe_interval_trades_size_for_sparse_decode_speed() {
        let m = model();
        let ki250 = StorageFormat::new(
            Fidelity::INGESTION,
            CodingOption::Encoded {
                keyframe_interval: KeyframeInterval::K250,
                speed: SpeedStep::Medium,
            },
        );
        let ki5 = StorageFormat::new(
            Fidelity::INGESTION,
            CodingOption::Encoded {
                keyframe_interval: KeyframeInterval::K5,
                speed: SpeedStep::Medium,
            },
        );
        // Size grows when keyframes are dense.
        let size_ratio = m.bytes_per_video_second(&ki5, JACKSON_MOTION).bytes() as f64
            / m.bytes_per_video_second(&ki250, JACKSON_MOTION).bytes() as f64;
        assert!(size_ratio > 1.5, "size ratio {size_ratio}");
        // A consumer sampling 1/30 decodes much faster from short GOPs.
        let sparse250 = m.decode_speed(&ki250, JACKSON_MOTION, Some(FrameSampling::S1_30));
        let sparse5 = m.decode_speed(&ki5, JACKSON_MOTION, Some(FrameSampling::S1_30));
        assert!(
            sparse5.factor() / sparse250.factor() > 3.0,
            "sparse decode {sparse5} vs {sparse250}"
        );
        // But sequential decode is mostly unaffected (within 30 %).
        let seq250 = m.sequential_decode_speed(&ki250, JACKSON_MOTION).factor();
        let seq5 = m.sequential_decode_speed(&ki5, JACKSON_MOTION).factor();
        assert!((seq5 / seq250 - 1.0).abs() < 0.35, "seq {seq5} vs {seq250}");
    }

    #[test]
    fn golden_decode_speed_near_23x() {
        let s = model()
            .sequential_decode_speed(&golden(), JACKSON_MOTION)
            .factor();
        assert!(s > 10.0 && s < 45.0, "golden decode speed {s}");
    }

    #[test]
    fn raw_retrieval_speed_scales_with_consumer_sampling() {
        let f = Fidelity::new(
            ImageQuality::Best,
            CropFactor::C100,
            Resolution::R200,
            FrameSampling::Full,
        );
        let sf = StorageFormat::new(f, CodingOption::Raw);
        let m = model();
        let full = m
            .retrieval_speed(&sf, JACKSON_MOTION, FrameSampling::Full)
            .factor();
        let sparse = m
            .retrieval_speed(&sf, JACKSON_MOTION, FrameSampling::S1_30)
            .factor();
        // Table 3(b): 1137×–34132×.
        assert!(full > 600.0 && full < 2500.0, "raw full retrieval {full}");
        assert!(
            (sparse / full - 30.0).abs() < 1.0,
            "sparse/full ratio {}",
            sparse / full
        );
    }

    #[test]
    fn dashcam_motion_inflates_size() {
        let m = model();
        let calm = m.bytes_per_video_second(&golden(), 0.05).bytes();
        let busy = m.bytes_per_video_second(&golden(), DASHCAM_MOTION).bytes();
        assert!(busy as f64 / calm as f64 > 1.5);
    }

    #[test]
    fn four_sf_ingest_cost_is_several_cores() {
        // Approximate Table 3(b)'s four storage formats and check the total
        // transcode cost lands in the "around 9 cores" ballpark (§6.2).
        let m = model();
        let sf1 = StorageFormat::new(
            Fidelity::new(
                ImageQuality::Good,
                CropFactor::C100,
                Resolution::R540,
                FrameSampling::S1_6,
            ),
            CodingOption::SMALLEST,
        );
        let sf2 = StorageFormat::new(
            Fidelity::new(
                ImageQuality::Best,
                CropFactor::C100,
                Resolution::R540,
                FrameSampling::S1_30,
            ),
            CodingOption::Encoded {
                keyframe_interval: KeyframeInterval::K10,
                speed: SpeedStep::Fast,
            },
        );
        let sf3 = StorageFormat::new(
            Fidelity::new(
                ImageQuality::Best,
                CropFactor::C100,
                Resolution::R200,
                FrameSampling::Full,
            ),
            CodingOption::Raw,
        );
        let total: f64 = [golden(), sf1, sf2, sf3]
            .iter()
            .map(|sf| m.encode_cores_for_realtime(sf, JACKSON_MOTION))
            .sum();
        assert!(total > 3.0 && total < 15.0, "total ingest cores {total}");
    }

    #[test]
    fn gb_per_day_consistency() {
        let m = model();
        let per_sec = m.bytes_per_video_second(&golden(), JACKSON_MOTION).bytes() as f64;
        let per_day = m.gb_per_day(&golden(), JACKSON_MOTION);
        assert!((per_day - per_sec * 86_400.0 / 1e9).abs() < 1e-9);
    }

    #[test]
    fn decode_speed_monotone_in_resolution() {
        let m = model();
        let mut prev = f64::INFINITY;
        for res in [
            Resolution::R720,
            Resolution::R540,
            Resolution::R200,
            Resolution::R100,
        ] {
            let sf = StorageFormat::new(
                Fidelity::new(
                    ImageQuality::Good,
                    CropFactor::C100,
                    res,
                    FrameSampling::Full,
                ),
                CodingOption::SMALLEST,
            );
            let s = m.sequential_decode_speed(&sf, JACKSON_MOTION).factor();
            assert!(
                s >= prev * 0.999 || prev == f64::INFINITY,
                "decode speed not monotone"
            );
            if prev != f64::INFINITY {
                assert!(s > prev, "smaller resolution should decode faster");
            }
            prev = s;
        }
    }
}
