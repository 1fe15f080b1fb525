//! The transcoder: turns ingestion-fidelity scene frames into an arbitrary
//! storage format, and converts decoded frames into consumption formats.
//!
//! This is the FFmpeg/libx264 stand-in. Real data flows through (frames are
//! degraded and encoded for real); the *cost* of doing so on the paper's
//! testbed is charged through the calibrated
//! [`CodingCostModel`].

use crate::codec::SegmentEncoder;
use crate::container::{RawSegment, SegmentData};
use crate::frame::{frame_selected, materialize_clip, sampling_selects, scene_kernel, VideoFrame};
use crate::meta::SegmentMeta;
use vstore_datasets::{BlockPlane, SceneFrame};
use vstore_sim::CodingCostModel;
use vstore_types::{
    ByteSize, CodingOption, ConsumptionFormat, Result, Speed, StorageFormat, VStoreError,
};

/// The result of transcoding one segment into one storage format.
#[derive(Debug, Clone)]
pub struct TranscodeOutput {
    /// The encoded (or RAW) segment ready for the segment store.
    pub data: SegmentData,
    /// Its `VSMETA` sidecar: the change scores the encoder took from the
    /// samples it coded (RAW: from the planes).
    pub meta: SegmentMeta,
    /// CPU-core-seconds the paper's testbed would spend producing it.
    pub encode_core_seconds: f64,
    /// The size the calibrated model predicts for this segment.
    pub modeled_bytes: ByteSize,
}

/// The transcoder.
#[derive(Debug, Clone)]
pub struct Transcoder {
    cost_model: CodingCostModel,
}

impl Transcoder {
    /// A transcoder charging costs against the given model.
    pub fn new(cost_model: CodingCostModel) -> Self {
        Transcoder { cost_model }
    }

    /// The underlying cost model.
    pub fn cost_model(&self) -> &CodingCostModel {
        &self.cost_model
    }

    /// Transcode a clip of ingestion-fidelity scene frames into the given
    /// storage format. `motion` is the content's motion intensity, used by
    /// the cost model.
    pub fn transcode_segment(
        &self,
        scenes: &[SceneFrame],
        format: &StorageFormat,
        motion: f64,
    ) -> Result<TranscodeOutput> {
        if scenes.is_empty() {
            return Err(VStoreError::invalid_argument(
                "cannot transcode an empty clip",
            ));
        }
        let fidelity = format.fidelity;
        let (data, meta) = match format.coding {
            CodingOption::Raw => {
                let frames = materialize_clip(scenes, fidelity);
                let meta = SegmentMeta::from_frames(&frames);
                (SegmentData::Raw(RawSegment { fidelity, frames }), meta)
            }
            CodingOption::Encoded {
                keyframe_interval,
                speed,
            } => {
                // Each selected frame is materialised into one reused plane
                // and coded at once: no frame of the segment is kept.
                let kernel = scene_kernel(fidelity);
                let retention = fidelity.quality.signal_retention();
                let mut plane = BlockPlane::filled(0, 0, 0);
                let mut encoder = SegmentEncoder::new(fidelity, keyframe_interval, speed);
                for scene in scenes.iter().filter(|s| frame_selected(s.index, fidelity)) {
                    kernel.apply_into(&scene.plane, &mut plane);
                    let objects = scene.objects_under_crop(fidelity.crop).cloned().collect();
                    encoder.push(scene.index, &plane, objects, retention)?;
                }
                let (segment, meta) = encoder.finish();
                (SegmentData::Encoded(segment), meta)
            }
        };
        if meta.frame_count() == 0 {
            return Err(VStoreError::invalid_argument(
                "sampling left no frames to store for this segment",
            ));
        }
        let duration_seconds = scenes.len() as f64 / 30.0;
        let encode_core_seconds =
            self.cost_model.encode_cores_for_realtime(format, motion) * duration_seconds;
        let modeled_bytes = self
            .cost_model
            .bytes_per_video_second(format, motion)
            .scale(duration_seconds);
        Ok(TranscodeOutput {
            data,
            meta,
            encode_core_seconds,
            modeled_bytes,
        })
    }

    /// [`convert_frames`] over a copy of `stored`, for a caller that keeps
    /// its frames.
    pub fn convert_for_consumption(
        &self,
        stored: &[VideoFrame],
        cf: &ConsumptionFormat,
    ) -> Result<Vec<VideoFrame>> {
        convert_frames(stored.to_vec(), cf)
    }

    /// The retrieval speed (×realtime) the cost model predicts for reading
    /// and decoding this storage format on behalf of a consumer with the
    /// given consumption fidelity.
    pub fn retrieval_speed(
        &self,
        format: &StorageFormat,
        motion: f64,
        cf: &ConsumptionFormat,
    ) -> Speed {
        self.cost_model
            .retrieval_speed(format, motion, cf.fidelity.sampling)
    }
}

/// Convert frames decoded from a storage format into a consumption format:
/// select the frames the CF's sampling rate wants (substituting the nearest
/// stored frame when the stored sampling grid does not align exactly) and
/// degrade each to the CF fidelity. The frames are taken by value, so a
/// conversion that changes nothing but the stamp (the stored per-frame knobs
/// are the consumer's) moves every plane and object list it keeps.
pub fn convert_frames(stored: Vec<VideoFrame>, cf: &ConsumptionFormat) -> Result<Vec<VideoFrame>> {
    let (Some(first), Some(last)) = (stored.first(), stored.last()) else {
        return Ok(Vec::new());
    };
    if !first.fidelity.richer_or_equal(&cf.fidelity) {
        return Err(VStoreError::FidelityUnsatisfiable(format!(
            "stored fidelity {} cannot serve consumption fidelity {}",
            first.fidelity, cf.fidelity
        )));
    }
    // How many wanted indices each stored frame is the nearest one to.
    let mut uses = vec![0usize; stored.len()];
    let mut cursor = 0usize;
    for index in first.source_index..=last.source_index {
        if !sampling_selects(index, cf.fidelity.sampling) {
            continue;
        }
        while cursor + 1 < stored.len()
            && stored[cursor + 1].source_index.abs_diff(index)
                <= stored[cursor].source_index.abs_diff(index)
        {
            cursor += 1;
        }
        uses[cursor] += 1;
    }
    let mut out = Vec::with_capacity(uses.iter().sum());
    for (frame, times) in stored.into_iter().zip(uses) {
        // Every use but the last needs the frame again afterwards.
        for _ in 1..times {
            out.push(frame.degrade_to(cf.fidelity)?);
        }
        if times > 0 {
            out.push(frame.into_degraded(cf.fidelity)?);
        }
    }
    Ok(out)
}

impl Default for Transcoder {
    fn default() -> Self {
        Transcoder::new(CodingCostModel::paper_testbed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstore_datasets::{Dataset, VideoSource};
    use vstore_types::{
        CropFactor, Fidelity, FrameSampling, ImageQuality, KeyframeInterval, Resolution, SpeedStep,
    };

    fn scenes(dataset: Dataset, n: u32) -> Vec<SceneFrame> {
        VideoSource::new(dataset).clip(0, n)
    }

    fn encoded_format() -> StorageFormat {
        StorageFormat::new(
            Fidelity::new(
                ImageQuality::Good,
                CropFactor::C100,
                Resolution::R540,
                FrameSampling::S1_6,
            ),
            CodingOption::Encoded {
                keyframe_interval: KeyframeInterval::K50,
                speed: SpeedStep::Slow,
            },
        )
    }

    #[test]
    fn transcode_to_encoded_format() {
        let t = Transcoder::default();
        let out = t
            .transcode_segment(&scenes(Dataset::Jackson, 240), &encoded_format(), 0.3)
            .unwrap();
        assert_eq!(out.data.fidelity(), encoded_format().fidelity);
        // 240 frames at 1/6 sampling → 40 stored frames.
        assert_eq!(out.data.frame_count(), 40);
        assert!(out.encode_core_seconds > 0.0);
        assert!(out.modeled_bytes.bytes() > 0);
        assert!(!out.data.to_bytes().is_empty());
    }

    #[test]
    fn transcode_to_raw_format() {
        let t = Transcoder::default();
        let format = StorageFormat::new(
            Fidelity::new(
                ImageQuality::Best,
                CropFactor::C100,
                Resolution::R200,
                FrameSampling::Full,
            ),
            CodingOption::Raw,
        );
        let out = t
            .transcode_segment(&scenes(Dataset::Park, 60), &format, 0.1)
            .unwrap();
        assert!(matches!(out.data, SegmentData::Raw(_)));
        assert_eq!(out.data.frame_count(), 60);
        // RAW transcode is much cheaper than a slow software encode.
        let golden = StorageFormat::new(Fidelity::INGESTION, CodingOption::SMALLEST);
        let golden_out = t
            .transcode_segment(&scenes(Dataset::Park, 60), &golden, 0.1)
            .unwrap();
        assert!(out.encode_core_seconds < golden_out.encode_core_seconds / 5.0);
    }

    /// Transcoding streams each frame from the scene into the encoder; it
    /// yields the segment materialising the clip and then encoding it
    /// does, and the sidecar the reference scores from that segment.
    #[test]
    fn streamed_transcode_matches_materialise_then_encode() {
        let t = Transcoder::default();
        for dataset in [Dataset::Jackson, Dataset::Dashcam] {
            let scenes = scenes(dataset, 240);
            for format in [
                encoded_format(),
                StorageFormat::new(
                    Fidelity::new(
                        ImageQuality::Good,
                        CropFactor::C75,
                        Resolution::R720,
                        FrameSampling::Full,
                    ),
                    CodingOption::SMALLEST,
                ),
                StorageFormat::new(
                    Fidelity::new(
                        ImageQuality::Worst,
                        CropFactor::C50,
                        Resolution::R400,
                        FrameSampling::S2_3,
                    ),
                    CodingOption::Raw,
                ),
            ] {
                let out = t.transcode_segment(&scenes, &format, 0.3).unwrap();
                let frames = materialize_clip(&scenes, format.fidelity);
                let expected = match format.coding {
                    CodingOption::Raw => SegmentData::Raw(RawSegment {
                        fidelity: format.fidelity,
                        frames,
                    }),
                    CodingOption::Encoded {
                        keyframe_interval,
                        speed,
                    } => SegmentData::Encoded(
                        crate::codec::encode_segment(&frames, keyframe_interval, speed).unwrap(),
                    ),
                };
                assert_eq!(out.data, expected, "{dataset:?} {format:?}");
                assert_eq!(out.meta, SegmentMeta::from_segment(&expected).unwrap());
            }
        }
    }

    #[test]
    fn transcode_rejects_empty_input() {
        let t = Transcoder::default();
        assert!(t.transcode_segment(&[], &encoded_format(), 0.3).is_err());
    }

    #[test]
    fn consumption_conversion_degrades_and_samples() {
        let t = Transcoder::default();
        let out = t
            .transcode_segment(&scenes(Dataset::Jackson, 240), &encoded_format(), 0.3)
            .unwrap();
        let stored = out.data.decode_all().unwrap();
        let cf = ConsumptionFormat::new(Fidelity::new(
            ImageQuality::Bad,
            CropFactor::C75,
            Resolution::R180,
            FrameSampling::S1_30,
        ));
        let frames = t.convert_for_consumption(&stored, &cf).unwrap();
        // 240 source frames at 1/30 → 8 frames.
        assert_eq!(frames.len(), 8);
        assert!(frames.iter().all(|f| f.fidelity == cf.fidelity));
        assert!(frames[0].plane.width() < stored[0].plane.width());
    }

    #[test]
    fn consumption_conversion_rejects_richer_target() {
        let t = Transcoder::default();
        let out = t
            .transcode_segment(&scenes(Dataset::Jackson, 60), &encoded_format(), 0.3)
            .unwrap();
        let stored = out.data.decode_all().unwrap();
        let cf = ConsumptionFormat::new(Fidelity::INGESTION);
        assert!(t.convert_for_consumption(&stored, &cf).is_err());
    }

    #[test]
    fn misaligned_sampling_substitutes_nearest_frames() {
        // Store at 2/3 sampling, consume at 1/2: some wanted indices are
        // missing from the store and must be substituted.
        let t = Transcoder::default();
        let format = StorageFormat::new(
            Fidelity::new(
                ImageQuality::Best,
                CropFactor::C100,
                Resolution::R360,
                FrameSampling::S2_3,
            ),
            CodingOption::Encoded {
                keyframe_interval: KeyframeInterval::K10,
                speed: SpeedStep::Fast,
            },
        );
        let out = t
            .transcode_segment(&scenes(Dataset::Airport, 120), &format, 0.2)
            .unwrap();
        let stored = out.data.decode_all().unwrap();
        let cf = ConsumptionFormat::new(Fidelity::new(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R360,
            FrameSampling::S1_2,
        ));
        let frames = t.convert_for_consumption(&stored, &cf).unwrap();
        // Roughly half of the 120-frame range (up to the last stored index).
        assert!(
            frames.len() >= 55 && frames.len() <= 60,
            "got {}",
            frames.len()
        );
    }

    #[test]
    fn retrieval_speed_reflects_consumer_sampling() {
        let t = Transcoder::default();
        let format = encoded_format();
        let sparse = ConsumptionFormat::new(Fidelity::new(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R360,
            FrameSampling::S1_30,
        ));
        let dense = ConsumptionFormat::new(Fidelity::new(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R360,
            FrameSampling::Full,
        ));
        let s_sparse = t.retrieval_speed(&format, 0.3, &sparse);
        let s_dense = t.retrieval_speed(&format, 0.3, &dense);
        assert!(s_sparse.factor() >= s_dense.factor());
    }

    #[test]
    fn modeled_size_tracks_actual_size_ordering() {
        // The calibrated model and the real codec should at least agree on
        // which of two formats is bigger.
        let t = Transcoder::default();
        let scenes = scenes(Dataset::Jackson, 120);
        let small = StorageFormat::new(
            Fidelity::new(
                ImageQuality::Bad,
                CropFactor::C100,
                Resolution::R200,
                FrameSampling::S1_6,
            ),
            CodingOption::SMALLEST,
        );
        let big = StorageFormat::new(Fidelity::INGESTION, CodingOption::SMALLEST);
        let out_small = t.transcode_segment(&scenes, &small, 0.3).unwrap();
        let out_big = t.transcode_segment(&scenes, &big, 0.3).unwrap();
        assert!(out_big.modeled_bytes > out_small.modeled_bytes);
        assert!(out_big.data.to_bytes().len() > out_small.data.to_bytes().len());
    }
}
