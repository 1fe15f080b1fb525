//! Compressed-domain segment metadata: per-frame change scores computed at
//! ingest and persisted as a small versioned sidecar next to the segment.
//!
//! The query planner (EKO-style, see `PAPERS.md`) consults these scores to
//! skip fetching and decoding segments whose content is static enough that
//! the first cascade stage would discard almost everything anyway. The
//! scores come with the stored representation: the encoder scores each
//! frame from the samples it holds while coding it, and a RAW segment is
//! scored from its planes — so a sidecar costs no decode and no second
//! pass over a payload, and the scores depend on the samples alone, never
//! on how the payload codes them (a delta frame's motion vector included).
//!
//! ## Scoring
//!
//! Every stored frame with a predecessor gets one score: the mean, over all
//! block samples, of the *wrapped* byte distance `min(d, 256 - d)` between
//! the frame and its predecessor, unshifted: the plain delta
//! `cur.wrapping_sub(prev)`, not the motion-compensated residual the
//! payload codes. The wrapped distance is a metric on `Z/256`, which gives
//! the planner a triangle inequality: the change between two *sampled*
//! frames several positions apart is bounded by the sum of the per-frame
//! scores between them — that is exactly what
//! [`SegmentMeta::max_sampled_change`] computes.
//!
//! The skip decision built on these scores is deliberately approximate (the
//! wrapped distance lower-bounds the plain absolute difference, and the
//! cascade's first stage flags the first frame of every clip regardless of
//! content), so the planner exposes it as an opt-in with an exact-mode off
//! switch. See the README's query-planner section.
//!
//! ## Wire format (`VSMETA`, version 1)
//!
//! ```text
//! magic  b"VSMETA"           6 bytes
//! version u8 = 1
//! frame_count varint         stored frames in the segment
//! first_index varint         source index of the first frame (if any)
//! entry_count varint         frames with a predecessor (= frame_count - 1)
//! entries: (source_index varint, score f32) × entry_count
//! crc32 u32                  over every preceding byte
//! ```

use crate::frame::{sampling_selects, VideoFrame};
use crate::wire::{crc32, ByteReader, ByteWriter};
use vstore_datasets::wrapped_distance;
use vstore_types::{cast, FrameSampling, Result, VStoreError};

/// Magic bytes prefixing every serialised sidecar.
const MAGIC: &[u8; 6] = b"VSMETA";

/// Current sidecar format version.
pub const META_VERSION: u8 = 1;

/// Score assigned when a frame cannot be compared to its predecessor
/// (dimension change mid-segment): the maximum possible mean wrapped
/// distance, so the planner never skips on its account.
const INCOMPARABLE_SCORE: f32 = 128.0;

/// Mean wrapped byte distance between two sample planes. The sum is
/// [`wrapped_distance`]: u8 reductions run in fixed blocks with a narrow
/// block sum, so they vectorise without `std::arch` or `unsafe`, and the
/// total is the same integer a per-sample sum gives.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a mean byte distance (<= 128) rounded to the f32 precision VSMETA stores"
)]
pub(crate) fn mean_wrapped_distance(cur: &[u8], prev: &[u8]) -> f32 {
    if cur.is_empty() || cur.len() != prev.len() {
        return INCOMPARABLE_SCORE;
    }
    (wrapped_distance(cur, prev) as f64 / cur.len() as f64) as f32
}

/// Per-segment change metadata, computed at ingest from the stored
/// representation and persisted as a sidecar through the storage backend.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentMeta {
    /// Number of frames stored in the segment.
    frame_count: u64,
    /// Source index of the first stored frame (0 when the segment is empty).
    first_index: u64,
    /// `(source_index, change score)` for every frame with a predecessor,
    /// in presentation order. The first frame of the segment has no
    /// predecessor and therefore no entry.
    entries: Vec<(u64, f32)>,
}

impl SegmentMeta {
    /// The sidecar of RAW frames, scored from their sample planes.
    pub(crate) fn from_frames(frames: &[VideoFrame]) -> SegmentMeta {
        let mut meta = SegmentMeta::default();
        let mut prev: Option<&VideoFrame> = None;
        for frame in frames {
            let score =
                prev.map(|p| mean_wrapped_distance(frame.plane.samples(), p.plane.samples()));
            meta.record(frame.source_index, score);
            prev = Some(frame);
        }
        meta
    }

    /// Count the next stored frame, with its change `score` against the
    /// frame before it (`None` for the segment's first frame).
    pub(crate) fn record(&mut self, source_index: u64, score: Option<f32>) {
        if self.frame_count == 0 {
            self.first_index = source_index;
        }
        self.frame_count += 1;
        if let Some(score) = score {
            self.entries.push((source_index, score));
        }
    }

    /// Number of frames stored in the segment this sidecar describes.
    pub fn frame_count(&self) -> u64 {
        self.frame_count
    }

    /// Number of scored frames (frames with a predecessor).
    pub fn scored_frames(&self) -> usize {
        self.entries.len()
    }

    /// The largest change any consumer sampling at `sampling` can observe
    /// between two consecutive sampled frames of this segment.
    ///
    /// By the triangle inequality of the wrapped metric, the change between
    /// two sampled frames is at most the sum of the per-frame scores across
    /// the gap separating them; this returns the maximum such gap sum. A
    /// segment whose value falls below the cascade's diff threshold is one
    /// the first stage would discard (modulo its first-frame rule), so the
    /// planner may skip fetching it entirely. Returns 0 when fewer than two
    /// frames are sampled.
    pub fn max_sampled_change(&self, sampling: FrameSampling) -> f64 {
        let mut max = 0.0f64;
        if self.frame_count == 0 {
            return max;
        }
        let mut have_prev_sampled = sampling_selects(self.first_index, sampling);
        let mut acc = 0.0f64;
        for &(index, score) in &self.entries {
            acc += f64::from(score);
            if sampling_selects(index, sampling) {
                if have_prev_sampled && acc > max {
                    max = acc;
                }
                have_prev_sampled = true;
                acc = 0.0;
            }
        }
        max
    }

    /// Serialise to the `VSMETA` sidecar format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(16 + self.entries.len() * 6);
        w.put_raw(MAGIC);
        w.put_u8(META_VERSION);
        w.put_varint(self.frame_count);
        w.put_varint(self.first_index);
        w.put_varint(self.entries.len() as u64);
        for &(index, score) in &self.entries {
            w.put_varint(index);
            w.put_f32(score);
        }
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Parse a `VSMETA` sidecar. Any corruption (bad magic, unknown
    /// version, CRC mismatch, truncation, trailing bytes) is reported as
    /// [`VStoreError::Corruption`] so callers can degrade to a full decode.
    pub fn from_bytes(bytes: &[u8]) -> Result<SegmentMeta> {
        if bytes.len() < MAGIC.len() + 1 + 4 {
            return Err(VStoreError::corruption("sidecar too short"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        if crc32(body) != stored {
            return Err(VStoreError::corruption("sidecar CRC mismatch"));
        }
        let mut r = ByteReader::new(body);
        if r.get_raw(MAGIC.len())? != MAGIC {
            return Err(VStoreError::corruption("bad sidecar magic"));
        }
        let version = r.get_u8()?;
        if version != META_VERSION {
            return Err(VStoreError::corruption(format!(
                "unknown sidecar version {version}"
            )));
        }
        let frame_count = r.get_varint()?;
        let first_index = r.get_varint()?;
        let entry_count = cast::usize_from_u64(r.get_varint()?, "sidecar entry count")?;
        if entry_count > body.len() {
            return Err(VStoreError::corruption("sidecar entry count implausible"));
        }
        let mut entries = Vec::with_capacity(entry_count);
        for _ in 0..entry_count {
            let index = r.get_varint()?;
            let score = r.get_f32()?;
            entries.push((index, score));
        }
        if !r.is_exhausted() {
            return Err(VStoreError::corruption("trailing bytes after sidecar"));
        }
        Ok(SegmentMeta {
            frame_count,
            first_index,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_segment, encode_segment};
    use crate::container::{RawSegment, SegmentData};
    use crate::frame::materialize_clip;
    use crate::transcode::Transcoder;

    impl SegmentMeta {
        /// The sidecar of a stored segment as it was computed before the
        /// encoder scored frames itself, kept as the reference: an encoded
        /// segment is decoded in full and its reconstructed frames are
        /// scored against each other as RAW frames are; RAW segments are
        /// scored from their sample planes.
        pub(crate) fn from_segment(segment: &SegmentData) -> Result<SegmentMeta> {
            match segment {
                SegmentData::Raw(raw) => Ok(SegmentMeta::from_frames(&raw.frames)),
                SegmentData::Encoded(seg) => Ok(SegmentMeta::from_frames(&decode_segment(seg)?)),
            }
        }
    }
    use vstore_datasets::{Dataset, VideoSource};
    use vstore_sim::CodingCostModel;
    use vstore_types::{
        CodingOption, CropFactor, Fidelity, ImageQuality, KeyframeInterval, Resolution, SpeedStep,
        StorageFormat,
    };

    fn fidelity() -> Fidelity {
        Fidelity::new(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R360,
            FrameSampling::Full,
        )
    }

    fn segment(dataset: Dataset, n: u32) -> SegmentData {
        let src = VideoSource::new(dataset);
        let frames = materialize_clip(&src.clip(0, n), fidelity());
        SegmentData::Encoded(
            encode_segment(&frames, KeyframeInterval::K10, SpeedStep::Medium).unwrap(),
        )
    }

    #[test]
    fn serialisation_round_trips() {
        let meta = SegmentMeta::from_segment(&segment(Dataset::Jackson, 60)).unwrap();
        assert_eq!(meta.frame_count(), 60);
        assert_eq!(meta.scored_frames(), 59);
        let bytes = meta.to_bytes();
        assert_eq!(SegmentMeta::from_bytes(&bytes).unwrap(), meta);
    }

    #[test]
    fn corruption_is_detected() {
        let meta = SegmentMeta::from_segment(&segment(Dataset::Jackson, 20)).unwrap();
        let good = meta.to_bytes();
        // Truncation.
        assert!(SegmentMeta::from_bytes(&good[..good.len() - 1]).is_err());
        assert!(SegmentMeta::from_bytes(&[]).is_err());
        // A flipped byte anywhere trips the CRC.
        for pos in [0, 6, 8, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            assert!(SegmentMeta::from_bytes(&bad).is_err(), "byte {pos}");
        }
        // Trailing bytes are rejected even with a fresh CRC.
        let mut padded = good[..good.len() - 4].to_vec();
        padded.push(0);
        let crc = crc32(&padded);
        padded.extend_from_slice(&crc.to_le_bytes());
        assert!(SegmentMeta::from_bytes(&padded).is_err());
    }

    /// The sidecar is scored from the frames' samples, so neither the
    /// payload coding nor the motion vectors can move a byte of it.
    /// Pinned: Jackson segment 0 in each of query A's three storage formats
    /// (what configuring a store for `QuerySpec::query_a(0.8)` derives), as
    /// length and trailing CRC-32,
    /// printed by the pair-coded (`VSSEG1`) build through
    /// `Transcoder::transcode_segment` → `from_segment` → `to_bytes`; the
    /// sidecar the transcoder now scores itself, and the one scored from
    /// the reconstructed frames of the motion-compensated (`VSSEG3`)
    /// payload, serialise to the same bytes.
    #[test]
    fn query_a_sidecars_keep_the_bytes_of_the_pair_coded_format() {
        let format = |quality, crop, sampling, coding| {
            StorageFormat::new(
                Fidelity::new(quality, crop, Resolution::R720, sampling),
                coding,
            )
        };
        let golden = CodingOption::Encoded {
            keyframe_interval: KeyframeInterval::K250,
            speed: SpeedStep::Slowest,
        };
        let cases = [
            (
                format(
                    ImageQuality::Good,
                    CropFactor::C75,
                    FrameSampling::Full,
                    golden,
                ),
                1323,
                0x4a17_671f,
            ),
            (
                StorageFormat::new(
                    Fidelity::new(
                        ImageQuality::Worst,
                        CropFactor::C50,
                        Resolution::R400,
                        FrameSampling::Full,
                    ),
                    CodingOption::Raw,
                ),
                1323,
                0xe7fa_6994,
            ),
            (
                format(
                    ImageQuality::Good,
                    CropFactor::C50,
                    FrameSampling::S1_30,
                    CodingOption::Raw,
                ),
                52,
                0x6180_a8a2,
            ),
        ];
        let source = VideoSource::new(Dataset::Jackson);
        let transcoder = Transcoder::new(CodingCostModel::paper_testbed());
        for (format, len, crc) in cases {
            let out = transcoder
                .transcode_segment(&source.segment(0), &format, source.motion_intensity())
                .unwrap();
            let bytes = out.meta.to_bytes();
            assert_eq!(
                bytes,
                SegmentMeta::from_segment(&out.data).unwrap().to_bytes()
            );
            let (body, stored) = bytes.split_at(bytes.len() - 4);
            assert_eq!((bytes.len(), crc32(body)), (len, crc), "{format:?}");
            assert_eq!(stored, crc.to_le_bytes());
        }
    }

    #[test]
    fn encoded_and_raw_representations_score_identically() {
        let src = VideoSource::new(Dataset::Dashcam);
        let frames = materialize_clip(&src.clip(0, 40), fidelity());
        let encoded = SegmentData::Encoded(
            encode_segment(&frames, KeyframeInterval::K5, SpeedStep::Fast).unwrap(),
        );
        let raw = SegmentData::Raw(RawSegment {
            fidelity: fidelity(),
            frames,
        });
        let a = SegmentMeta::from_segment(&encoded).unwrap();
        let b = SegmentMeta::from_segment(&raw).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn static_content_scores_below_busy_content() {
        let park = SegmentMeta::from_segment(&segment(Dataset::Park, 90)).unwrap();
        let dash = SegmentMeta::from_segment(&segment(Dataset::Dashcam, 90)).unwrap();
        let p = park.max_sampled_change(FrameSampling::Full);
        let d = dash.max_sampled_change(FrameSampling::Full);
        assert!(
            d > 2.0 * p,
            "dashcam change {d} not clearly above park change {p}"
        );
    }

    #[test]
    fn sparse_sampling_accumulates_change_over_gaps() {
        let meta = SegmentMeta::from_segment(&segment(Dataset::Jackson, 240)).unwrap();
        let full = meta.max_sampled_change(FrameSampling::Full);
        let sparse = meta.max_sampled_change(FrameSampling::S1_30);
        // Thirty frames of drift accumulate to at least the largest single
        // step (the bound is a sum over the gap).
        assert!(sparse >= full, "sparse {sparse} < full {full}");
    }

    #[test]
    fn sampled_change_upper_bounds_true_sampled_diffs() {
        for dataset in [Dataset::Jackson, Dataset::Park, Dataset::Dashcam] {
            let seg = segment(dataset, 120);
            let meta = SegmentMeta::from_segment(&seg).unwrap();
            for sampling in [
                FrameSampling::Full,
                FrameSampling::S1_6,
                FrameSampling::S1_30,
            ] {
                let bound = meta.max_sampled_change(sampling);
                let (frames, _) = seg.decode_sampled(sampling).unwrap();
                for pair in frames.windows(2) {
                    let actual =
                        mean_wrapped_distance(pair[1].plane.samples(), pair[0].plane.samples());
                    assert!(
                        f64::from(actual) <= bound + 1e-3,
                        "{dataset:?} {sampling:?}: actual {actual} exceeds bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_segments_report_zero_change() {
        let src = VideoSource::new(Dataset::Park);
        let frames = materialize_clip(&src.clip(0, 1), fidelity());
        let raw = SegmentData::Raw(RawSegment {
            fidelity: fidelity(),
            frames,
        });
        let meta = SegmentMeta::from_segment(&raw).unwrap();
        assert_eq!(meta.frame_count(), 1);
        assert_eq!(meta.scored_frames(), 0);
        assert_eq!(meta.max_sampled_change(FrameSampling::Full), 0.0);

        let empty = SegmentData::Raw(RawSegment {
            fidelity: fidelity(),
            frames: Vec::new(),
        });
        let meta = SegmentMeta::from_segment(&empty).unwrap();
        assert_eq!(meta.max_sampled_change(FrameSampling::Full), 0.0);
        // And the empty sidecar still round-trips.
        assert_eq!(SegmentMeta::from_bytes(&meta.to_bytes()).unwrap(), meta);
    }
}
