//! The block codec: GOP-structured, delta-predicted, run-length entropy
//! coded. Lossless at the stored fidelity (all loss comes from the fidelity
//! knobs themselves, exactly as the quality knob intends).
//!
//! The keyframe interval knob controls GOP length. A decoder serving a
//! sparsely-sampling consumer skips whole GOPs that contain no sampled frame
//! and, within a GOP, stops at the last sampled frame — the Figure 3(b)
//! behaviour.

use crate::frame::{sampling_selects, VideoFrame};
use vstore_datasets::{BlockPlane, SceneObject};
use vstore_types::{
    cast, Fidelity, FrameSampling, KeyframeInterval, Result, SpeedStep, VStoreError,
};

/// One encoded frame (keyframe or delta frame).
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedFrame {
    /// Index in the original 30 fps stream.
    pub source_index: u64,
    /// Plane width in blocks.
    pub width: u32,
    /// Plane height in blocks.
    pub height: u32,
    /// `true` for keyframes (self-contained), `false` for delta frames.
    pub is_key: bool,
    /// Run-length encoded payload: raw samples for keyframes, wrapping
    /// deltas against the previous frame for delta frames.
    pub payload: Vec<u8>,
    /// Side-band object metadata: the ground-truth boxes the
    /// object-recognition operators detect from.
    pub objects: Vec<SceneObject>,
    /// Compound signal retention of the encoded frame.
    pub signal_retention: f64,
}

/// A GOP: one keyframe followed by delta frames.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedChunk {
    /// Frames of the chunk; the first is always a keyframe.
    pub frames: Vec<EncodedFrame>,
}

impl EncodedChunk {
    /// Source index of the first frame, if any.
    pub fn first_index(&self) -> Option<u64> {
        self.frames.first().map(|f| f.source_index)
    }

    /// Source index of the last frame, if any.
    pub fn last_index(&self) -> Option<u64> {
        self.frames.last().map(|f| f.source_index)
    }

    /// Total payload bytes in this chunk.
    pub fn payload_bytes(&self) -> usize {
        self.frames.iter().map(|f| f.payload.len()).sum()
    }
}

/// An encoded video segment: a sequence of GOPs at one storage fidelity.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedSegment {
    /// Fidelity of the stored frames.
    pub fidelity: Fidelity,
    /// GOP length used at encode time.
    pub keyframe_interval: KeyframeInterval,
    /// Encoder speed step used at encode time (affects the cost model, not
    /// the payload format).
    pub speed: SpeedStep,
    /// GOPs in presentation order.
    pub chunks: Vec<EncodedChunk>,
}

/// Statistics of a (possibly GOP-skipping) decode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Frames actually reconstructed by the decoder.
    pub frames_decoded: usize,
    /// Frames handed to the consumer.
    pub frames_emitted: usize,
    /// GOPs skipped entirely.
    pub chunks_skipped: usize,
}

// ---------------------------------------------------------------------------
// Run-length entropy coding
// ---------------------------------------------------------------------------

/// Run-length encode a byte slice as (run, value) pairs.
fn rle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 8);
    let mut iter = data.iter().copied();
    let mut current = match iter.next() {
        Some(b) => b,
        None => return out,
    };
    let mut run: u32 = 1;
    for b in iter {
        if b == current && run < 255 {
            run += 1;
        } else {
            // vstore-lint: allow(checked-cast) — run <= 255 by the loop guard above
            out.push(run as u8);
            out.push(current);
            current = b;
            run = 1;
        }
    }
    // vstore-lint: allow(checked-cast) — run <= 255 by the loop guard above
    out.push(run as u8);
    out.push(current);
    out
}

/// Decode an RLE payload produced by [`rle_encode`]. Also used by the
/// metadata sidecar (`meta`) to score frames straight from the compressed
/// payload without building full `VideoFrame`s.
pub(crate) fn rle_decode(data: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    if !data.len().is_multiple_of(2) {
        return Err(VStoreError::corruption("RLE payload has odd length"));
    }
    let mut out = Vec::with_capacity(expected_len);
    for pair in data.chunks_exact(2) {
        let run = usize::from(pair[0]);
        let value = pair[1];
        if run == 0 {
            return Err(VStoreError::corruption("RLE run of zero"));
        }
        out.resize(out.len() + run, value);
    }
    if out.len() != expected_len {
        return Err(VStoreError::corruption(format!(
            "RLE decoded {} samples, expected {}",
            out.len(),
            expected_len
        )));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

/// Encode a sequence of frames (already materialised at the storage
/// fidelity, sampling applied) into GOPs of `keyframe_interval` frames.
pub fn encode_segment(
    frames: &[VideoFrame],
    keyframe_interval: KeyframeInterval,
    speed: SpeedStep,
) -> Result<EncodedSegment> {
    let first = frames
        .first()
        .ok_or_else(|| VStoreError::invalid_argument("cannot encode an empty segment"))?;
    let fidelity = first.fidelity;
    if frames.iter().any(|f| f.fidelity != fidelity) {
        return Err(VStoreError::invalid_argument(
            "all frames of a segment must share one fidelity",
        ));
    }
    let gop = cast::usize_from_u32(keyframe_interval.frames());
    let mut chunks = Vec::with_capacity(frames.len() / gop + 1);
    for group in frames.chunks(gop) {
        let mut encoded_frames = Vec::with_capacity(group.len());
        let mut prev: Option<&VideoFrame> = None;
        for frame in group {
            let payload_source: Vec<u8> = match prev {
                None => frame.plane.samples().to_vec(),
                Some(p) => {
                    if p.plane.width() != frame.plane.width()
                        || p.plane.height() != frame.plane.height()
                    {
                        return Err(VStoreError::invalid_argument(
                            "frame dimensions changed mid-segment",
                        ));
                    }
                    frame
                        .plane
                        .samples()
                        .iter()
                        .zip(p.plane.samples().iter())
                        .map(|(&c, &pv)| c.wrapping_sub(pv))
                        .collect()
                }
            };
            encoded_frames.push(EncodedFrame {
                source_index: frame.source_index,
                width: frame.plane.width(),
                height: frame.plane.height(),
                is_key: prev.is_none(),
                payload: rle_encode(&payload_source),
                objects: frame.objects.clone(),
                signal_retention: frame.signal_retention,
            });
            prev = Some(frame);
        }
        chunks.push(EncodedChunk {
            frames: encoded_frames,
        });
    }
    Ok(EncodedSegment {
        fidelity,
        keyframe_interval,
        speed,
        chunks,
    })
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

fn decode_frame(encoded: &EncodedFrame, prev_plane: Option<&BlockPlane>) -> Result<VideoFrame> {
    let expected = cast::usize_from_u32(encoded.width) * cast::usize_from_u32(encoded.height);
    let samples = rle_decode(&encoded.payload, expected)?;
    let plane = if encoded.is_key {
        BlockPlane::from_samples(encoded.width, encoded.height, samples)
            .ok_or_else(|| VStoreError::corruption("keyframe sample count mismatch"))?
    } else {
        let prev = prev_plane
            .ok_or_else(|| VStoreError::corruption("delta frame without a decoded predecessor"))?;
        if prev.len() != expected {
            return Err(VStoreError::corruption("predecessor dimensions mismatch"));
        }
        let reconstructed: Vec<u8> = prev
            .samples()
            .iter()
            .zip(samples.iter())
            .map(|(&p, &d)| p.wrapping_add(d))
            .collect();
        BlockPlane::from_samples(encoded.width, encoded.height, reconstructed)
            .ok_or_else(|| VStoreError::corruption("delta frame sample count mismatch"))?
    };
    Ok(VideoFrame {
        source_index: encoded.source_index,
        fidelity: Fidelity::POOREST, // overwritten by the caller
        plane,
        objects: encoded.objects.clone(),
        signal_retention: encoded.signal_retention,
    })
}

/// Decode every frame of the segment.
pub fn decode_segment(segment: &EncodedSegment) -> Result<Vec<VideoFrame>> {
    let (frames, _) = decode_segment_with_stats(segment, None)?;
    Ok(frames)
}

/// Decode only the frames a consumer sampling at `consumer_sampling` (of the
/// original 30 fps stream) needs, skipping GOPs that contain no sampled
/// frame.
pub fn decode_segment_sampled(
    segment: &EncodedSegment,
    consumer_sampling: FrameSampling,
) -> Result<(Vec<VideoFrame>, DecodeStats)> {
    decode_segment_with_stats(segment, Some(consumer_sampling))
}

fn decode_segment_with_stats(
    segment: &EncodedSegment,
    consumer_sampling: Option<FrameSampling>,
) -> Result<(Vec<VideoFrame>, DecodeStats)> {
    let mut out = Vec::new();
    let mut stats = DecodeStats::default();
    for chunk in &segment.chunks {
        let wanted: Vec<bool> = chunk
            .frames
            .iter()
            .map(|f| match consumer_sampling {
                Some(s) => sampling_selects(f.source_index, s),
                None => true,
            })
            .collect();
        let last_wanted = match wanted.iter().rposition(|&w| w) {
            Some(pos) => pos,
            None => {
                stats.chunks_skipped += 1;
                continue;
            }
        };
        let mut prev_plane: Option<BlockPlane> = None;
        for (i, encoded) in chunk.frames.iter().enumerate().take(last_wanted + 1) {
            let mut frame = decode_frame(encoded, prev_plane.as_ref())?;
            frame.fidelity = segment.fidelity;
            stats.frames_decoded += 1;
            prev_plane = Some(frame.plane.clone());
            if wanted[i] {
                stats.frames_emitted += 1;
                out.push(frame);
            }
        }
    }
    Ok((out, stats))
}

impl EncodedSegment {
    /// Total encoded payload size in bytes (excluding container framing).
    pub fn payload_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.payload_bytes()).sum()
    }

    /// Number of stored frames.
    pub fn frame_count(&self) -> usize {
        self.chunks.iter().map(|c| c.frames.len()).sum()
    }

    /// Source index of the first stored frame.
    pub fn first_index(&self) -> Option<u64> {
        self.chunks.first().and_then(|c| c.first_index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::materialize_clip;
    use vstore_datasets::{Dataset, VideoSource};
    use vstore_types::{CropFactor, ImageQuality, Resolution};

    fn test_frames(dataset: Dataset, fidelity: Fidelity, n: u32) -> Vec<VideoFrame> {
        let src = VideoSource::new(dataset);
        materialize_clip(&src.clip(0, n), fidelity)
    }

    fn storage_fidelity() -> Fidelity {
        Fidelity::new(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R360,
            FrameSampling::Full,
        )
    }

    #[test]
    fn rle_round_trip() {
        let data = vec![0u8, 0, 0, 0, 5, 5, 7, 0, 0, 0, 0, 0, 0, 0, 0, 3];
        let enc = rle_encode(&data);
        assert!(enc.len() < data.len());
        assert_eq!(rle_decode(&enc, data.len()).unwrap(), data);
        // Long runs exceed the 255-run limit and still round-trip.
        let long = vec![9u8; 1000];
        let enc = rle_encode(&long);
        assert_eq!(rle_decode(&enc, long.len()).unwrap(), long);
        // Empty input.
        assert!(rle_encode(&[]).is_empty());
        assert!(rle_decode(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn rle_rejects_corrupt_payloads() {
        assert!(rle_decode(&[1], 1).is_err());
        assert!(rle_decode(&[0, 7], 0).is_err());
        assert!(rle_decode(&[2, 7], 1).is_err());
    }

    #[test]
    fn encode_decode_round_trip_is_lossless() {
        let frames = test_frames(Dataset::Jackson, storage_fidelity(), 60);
        let seg = encode_segment(&frames, KeyframeInterval::K10, SpeedStep::Medium).unwrap();
        let decoded = decode_segment(&seg).unwrap();
        assert_eq!(decoded.len(), frames.len());
        for (d, f) in decoded.iter().zip(frames.iter()) {
            assert_eq!(d.source_index, f.source_index);
            assert_eq!(
                d.plane, f.plane,
                "plane mismatch at frame {}",
                f.source_index
            );
            assert_eq!(d.objects.len(), f.objects.len());
            assert_eq!(d.fidelity, f.fidelity);
        }
    }

    #[test]
    fn static_content_compresses_better_than_dashcam() {
        let fidelity = storage_fidelity();
        let park = test_frames(Dataset::Park, fidelity, 90);
        let dash = test_frames(Dataset::Dashcam, fidelity, 90);
        let park_seg = encode_segment(&park, KeyframeInterval::K50, SpeedStep::Slow).unwrap();
        let dash_seg = encode_segment(&dash, KeyframeInterval::K50, SpeedStep::Slow).unwrap();
        assert!(
            (dash_seg.payload_bytes() as f64) > 1.2 * park_seg.payload_bytes() as f64,
            "dashcam {} vs park {}",
            dash_seg.payload_bytes(),
            park_seg.payload_bytes()
        );
    }

    #[test]
    fn shorter_gops_cost_more_bytes() {
        let frames = test_frames(Dataset::Jackson, storage_fidelity(), 100);
        let long = encode_segment(&frames, KeyframeInterval::K100, SpeedStep::Medium).unwrap();
        let short = encode_segment(&frames, KeyframeInterval::K5, SpeedStep::Medium).unwrap();
        assert!(short.payload_bytes() > long.payload_bytes());
        assert_eq!(short.frame_count(), long.frame_count());
        assert_eq!(long.chunks.len(), 1);
        assert_eq!(short.chunks.len(), 20);
    }

    #[test]
    fn compression_beats_raw_for_surveillance_content() {
        let frames = test_frames(Dataset::Park, storage_fidelity(), 60);
        let seg = encode_segment(&frames, KeyframeInterval::K50, SpeedStep::Slow).unwrap();
        let raw_bytes: usize = frames.iter().map(|f| f.plane.len()).sum();
        assert!(
            seg.payload_bytes() < raw_bytes / 2,
            "encoded {} vs raw {}",
            seg.payload_bytes(),
            raw_bytes
        );
    }

    #[test]
    fn sampled_decode_skips_chunks_and_matches_full_decode() {
        let frames = test_frames(Dataset::Jackson, storage_fidelity(), 240);
        let seg = encode_segment(&frames, KeyframeInterval::K10, SpeedStep::Medium).unwrap();
        let (sampled, stats) = decode_segment_sampled(&seg, FrameSampling::S1_30).unwrap();
        // 240 frames at 1/30 sampling → 8 emitted frames.
        assert_eq!(sampled.len(), 8);
        assert_eq!(stats.frames_emitted, 8);
        assert!(stats.chunks_skipped > 0, "no chunks skipped");
        assert!(stats.frames_decoded < 240, "decoded everything anyway");
        // Emitted frames match the corresponding full-decode frames exactly.
        let full = decode_segment(&seg).unwrap();
        for s in &sampled {
            let reference = full
                .iter()
                .find(|f| f.source_index == s.source_index)
                .unwrap();
            assert_eq!(s.plane, reference.plane);
        }
    }

    #[test]
    fn sampled_decode_of_everything_equals_full_decode() {
        let frames = test_frames(Dataset::Airport, storage_fidelity(), 50);
        let seg = encode_segment(&frames, KeyframeInterval::K10, SpeedStep::Fast).unwrap();
        let (all, stats) = decode_segment_sampled(&seg, FrameSampling::Full).unwrap();
        assert_eq!(all.len(), frames.len());
        assert_eq!(stats.frames_decoded, frames.len());
        assert_eq!(stats.chunks_skipped, 0);
    }

    #[test]
    fn encode_rejects_bad_input() {
        assert!(encode_segment(&[], KeyframeInterval::K10, SpeedStep::Fast).is_err());
        let mut frames = test_frames(Dataset::Jackson, storage_fidelity(), 4);
        let other = test_frames(
            Dataset::Jackson,
            Fidelity::new(
                ImageQuality::Bad,
                CropFactor::C100,
                Resolution::R200,
                FrameSampling::Full,
            ),
            2,
        );
        frames.extend(other);
        assert!(encode_segment(&frames, KeyframeInterval::K10, SpeedStep::Fast).is_err());
    }
}
