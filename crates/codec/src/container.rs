//! The segment container: the unit stored in and retrieved from the segment
//! store, either an encoded bitstream or RAW frames (coding bypass), plus a
//! compact binary serialisation.

use crate::codec::{
    decode_segment, decode_segment_sampled, DecodeStats, EncodedChunk, EncodedFrame, EncodedSegment,
};
use crate::frame::{sampling_selects, VideoFrame};
use crate::wire::{ByteReader, ByteWriter};
use vstore_datasets::{BlockPlane, BoundingBox, ObjectClass, ObjectColor, PlateText, SceneObject};
use vstore_types::{
    cast, CodingOption, CropFactor, Fidelity, FrameSampling, ImageQuality, KeyframeInterval,
    Resolution, Result, SpeedStep, StorageFormat, VStoreError,
};

/// Magic bytes prefixing every serialised segment.
const MAGIC: &[u8; 6] = b"VSSEG1";

/// A RAW (coding-bypass) segment: frames stored as uncompressed planes.
#[derive(Debug, Clone, PartialEq)]
pub struct RawSegment {
    /// Fidelity of the stored frames.
    pub fidelity: Fidelity,
    /// The frames, in presentation order.
    pub frames: Vec<VideoFrame>,
}

/// The unit of storage: one 8-second segment in one storage format.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentData {
    /// An encoded bitstream.
    Encoded(EncodedSegment),
    /// RAW frames (coding bypass).
    Raw(RawSegment),
}

impl SegmentData {
    /// The storage format this segment is stored in.
    pub fn storage_format(&self) -> StorageFormat {
        match self {
            SegmentData::Encoded(seg) => StorageFormat::new(
                seg.fidelity,
                CodingOption::Encoded {
                    keyframe_interval: seg.keyframe_interval,
                    speed: seg.speed,
                },
            ),
            SegmentData::Raw(seg) => StorageFormat::new(seg.fidelity, CodingOption::Raw),
        }
    }

    /// Fidelity of the stored frames.
    pub fn fidelity(&self) -> Fidelity {
        match self {
            SegmentData::Encoded(seg) => seg.fidelity,
            SegmentData::Raw(seg) => seg.fidelity,
        }
    }

    /// Number of stored frames.
    pub fn frame_count(&self) -> usize {
        match self {
            SegmentData::Encoded(seg) => seg.frame_count(),
            SegmentData::Raw(seg) => seg.frames.len(),
        }
    }

    /// Source index of the first stored frame.
    pub fn first_index(&self) -> Option<u64> {
        match self {
            SegmentData::Encoded(seg) => seg.first_index(),
            SegmentData::Raw(seg) => seg.frames.first().map(|f| f.source_index),
        }
    }

    /// Decode every stored frame.
    pub fn decode_all(&self) -> Result<Vec<VideoFrame>> {
        match self {
            SegmentData::Encoded(seg) => decode_segment(seg),
            SegmentData::Raw(seg) => Ok(seg.frames.clone()),
        }
    }

    /// Decode only the frames a consumer with the given sampling rate needs,
    /// returning decode statistics (for RAW segments no decoding happens and
    /// unneeded frames are never touched).
    pub fn decode_sampled(
        &self,
        consumer_sampling: FrameSampling,
    ) -> Result<(Vec<VideoFrame>, DecodeStats)> {
        match self {
            SegmentData::Encoded(seg) => decode_segment_sampled(seg, consumer_sampling),
            SegmentData::Raw(seg) => {
                let frames: Vec<VideoFrame> = seg
                    .frames
                    .iter()
                    .filter(|f| sampling_selects(f.source_index, consumer_sampling))
                    .cloned()
                    .collect();
                let stats = DecodeStats {
                    frames_decoded: 0,
                    frames_emitted: frames.len(),
                    chunks_skipped: 0,
                };
                Ok((frames, stats))
            }
        }
    }

    // -----------------------------------------------------------------
    // Serialisation
    // -----------------------------------------------------------------

    /// Serialise to the binary container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(4096);
        w.put_raw(MAGIC);
        match self {
            SegmentData::Raw(seg) => {
                w.put_u8(0);
                write_fidelity(&mut w, &seg.fidelity);
                w.put_varint(seg.frames.len() as u64);
                for f in &seg.frames {
                    write_frame_header(
                        &mut w,
                        f.source_index,
                        f.plane.width(),
                        f.plane.height(),
                        f.signal_retention,
                    );
                    w.put_bytes(f.plane.samples());
                    write_objects(&mut w, &f.objects);
                }
            }
            SegmentData::Encoded(seg) => {
                w.put_u8(1);
                write_fidelity(&mut w, &seg.fidelity);
                // vstore-lint: allow(checked-cast) — ranks index <=6-entry knob ladders
                w.put_u8(seg.keyframe_interval.rank() as u8);
                // vstore-lint: allow(checked-cast) — ranks index <=6-entry knob ladders
                w.put_u8(seg.speed.rank() as u8);
                w.put_varint(seg.chunks.len() as u64);
                for chunk in &seg.chunks {
                    w.put_varint(chunk.frames.len() as u64);
                    for f in &chunk.frames {
                        write_frame_header(
                            &mut w,
                            f.source_index,
                            f.width,
                            f.height,
                            f.signal_retention,
                        );
                        w.put_u8(u8::from(f.is_key));
                        w.put_bytes(&f.payload);
                        write_objects(&mut w, &f.objects);
                    }
                }
            }
        }
        w.into_bytes()
    }

    /// Deserialise from the binary container format.
    pub fn from_bytes(bytes: &[u8]) -> Result<SegmentData> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_raw(MAGIC.len())?;
        if magic != MAGIC {
            return Err(VStoreError::corruption("bad segment magic"));
        }
        let kind = r.get_u8()?;
        match kind {
            0 => {
                let fidelity = read_fidelity(&mut r)?;
                let count = cast::usize_from_u64(r.get_varint()?, "raw frame count")?;
                let mut frames = Vec::with_capacity(count);
                for _ in 0..count {
                    let (source_index, width, height, retention) = read_frame_header(&mut r)?;
                    let samples = r.get_bytes()?.to_vec();
                    let plane =
                        BlockPlane::from_samples(width, height, samples).ok_or_else(|| {
                            VStoreError::corruption("raw frame sample count mismatch")
                        })?;
                    let objects = read_objects(&mut r)?;
                    frames.push(VideoFrame {
                        source_index,
                        fidelity,
                        plane,
                        objects,
                        signal_retention: retention,
                    });
                }
                Ok(SegmentData::Raw(RawSegment { fidelity, frames }))
            }
            1 => {
                let fidelity = read_fidelity(&mut r)?;
                let ki_rank = usize::from(r.get_u8()?);
                let sp_rank = usize::from(r.get_u8()?);
                let keyframe_interval = *KeyframeInterval::ALL
                    .get(ki_rank)
                    .ok_or_else(|| VStoreError::corruption("bad keyframe interval"))?;
                let speed = *SpeedStep::ALL
                    .get(sp_rank)
                    .ok_or_else(|| VStoreError::corruption("bad speed step"))?;
                let chunk_count = cast::usize_from_u64(r.get_varint()?, "chunk count")?;
                let mut chunks = Vec::with_capacity(chunk_count);
                for _ in 0..chunk_count {
                    let frame_count = cast::usize_from_u64(r.get_varint()?, "frame count")?;
                    let mut frames = Vec::with_capacity(frame_count);
                    for _ in 0..frame_count {
                        let (source_index, width, height, retention) = read_frame_header(&mut r)?;
                        let is_key = r.get_u8()? != 0;
                        let payload = r.get_bytes()?.to_vec();
                        let objects = read_objects(&mut r)?;
                        frames.push(EncodedFrame {
                            source_index,
                            width,
                            height,
                            is_key,
                            payload,
                            objects,
                            signal_retention: retention,
                        });
                    }
                    chunks.push(EncodedChunk { frames });
                }
                Ok(SegmentData::Encoded(EncodedSegment {
                    fidelity,
                    keyframe_interval,
                    speed,
                    chunks,
                }))
            }
            other => Err(VStoreError::corruption(format!(
                "unknown segment kind {other}"
            ))),
        }
    }
}

fn write_fidelity(w: &mut ByteWriter, f: &Fidelity) {
    // The four fidelity ranks index knob ladders of at most six entries,
    // so each fits a byte by construction.
    // vstore-lint: allow(checked-cast)
    w.put_u8(f.quality.rank() as u8);
    // vstore-lint: allow(checked-cast)
    w.put_u8(f.crop.rank() as u8);
    // vstore-lint: allow(checked-cast)
    w.put_u8(f.resolution.rank() as u8);
    // vstore-lint: allow(checked-cast)
    w.put_u8(f.sampling.rank() as u8);
}

fn read_fidelity(r: &mut ByteReader<'_>) -> Result<Fidelity> {
    let q = usize::from(r.get_u8()?);
    let c = usize::from(r.get_u8()?);
    let res = usize::from(r.get_u8()?);
    let s = usize::from(r.get_u8()?);
    Ok(Fidelity {
        quality: *ImageQuality::ALL
            .get(q)
            .ok_or_else(|| VStoreError::corruption("bad quality rank"))?,
        crop: *CropFactor::ALL
            .get(c)
            .ok_or_else(|| VStoreError::corruption("bad crop rank"))?,
        resolution: *Resolution::ALL
            .get(res)
            .ok_or_else(|| VStoreError::corruption("bad resolution rank"))?,
        sampling: *FrameSampling::ALL
            .get(s)
            .ok_or_else(|| VStoreError::corruption("bad sampling rank"))?,
    })
}

fn write_frame_header(w: &mut ByteWriter, index: u64, width: u32, height: u32, retention: f64) {
    w.put_varint(index);
    // Plane dimensions are block counts derived from the Resolution knob
    // ladder (<= 1080p), far inside u16.
    // vstore-lint: allow(checked-cast)
    w.put_u16(width as u16);
    // vstore-lint: allow(checked-cast)
    w.put_u16(height as u16);
    w.put_f64(retention);
}

fn read_frame_header(r: &mut ByteReader<'_>) -> Result<(u64, u32, u32, f64)> {
    let index = r.get_varint()?;
    let width = u32::from(r.get_u16()?);
    let height = u32::from(r.get_u16()?);
    let retention = r.get_f64()?;
    Ok((index, width, height, retention))
}

fn write_objects(w: &mut ByteWriter, objects: &[SceneObject]) {
    w.put_varint(objects.len() as u64);
    for o in objects {
        w.put_u64(o.id);
        let class_code = match o.class {
            ObjectClass::Vehicle {
                plate_visible: false,
            } => 0u8,
            ObjectClass::Vehicle {
                plate_visible: true,
            } => 1,
            ObjectClass::Pedestrian => 2,
            ObjectClass::Cyclist => 3,
        };
        w.put_u8(class_code);
        w.put_f32(o.bbox.x);
        w.put_f32(o.bbox.y);
        w.put_f32(o.bbox.w);
        w.put_f32(o.bbox.h);
        let color_code = ObjectColor::ALL
            .iter()
            .position(|c| *c == o.color)
            .unwrap_or(0) as u8; // vstore-lint: allow(checked-cast) — position in an 8-entry array
        w.put_u8(color_code);
        match &o.plate {
            Some(p) => {
                w.put_u8(1);
                w.put_raw(&p.0);
            }
            None => w.put_u8(0),
        }
        w.put_f32(o.salience);
        w.put_f32(o.speed);
    }
}

fn read_objects(r: &mut ByteReader<'_>) -> Result<Vec<SceneObject>> {
    let count = cast::usize_from_u64(r.get_varint()?, "object count")?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let id = r.get_u64()?;
        let class = match r.get_u8()? {
            0 => ObjectClass::Vehicle {
                plate_visible: false,
            },
            1 => ObjectClass::Vehicle {
                plate_visible: true,
            },
            2 => ObjectClass::Pedestrian,
            3 => ObjectClass::Cyclist,
            other => {
                return Err(VStoreError::corruption(format!(
                    "unknown object class {other}"
                )))
            }
        };
        let x = r.get_f32()?;
        let y = r.get_f32()?;
        let w_ = r.get_f32()?;
        let h = r.get_f32()?;
        let color_code = usize::from(r.get_u8()?);
        let color = *ObjectColor::ALL
            .get(color_code)
            .ok_or_else(|| VStoreError::corruption("bad color code"))?;
        let plate = match r.get_u8()? {
            0 => None,
            1 => {
                let raw = r.get_raw(7)?;
                let mut buf = [0u8; 7];
                buf.copy_from_slice(raw);
                Some(PlateText(buf))
            }
            other => return Err(VStoreError::corruption(format!("bad plate marker {other}"))),
        };
        let salience = r.get_f32()?;
        let speed = r.get_f32()?;
        out.push(SceneObject {
            id,
            class,
            bbox: BoundingBox::new(x, y, w_, h),
            color,
            plate,
            salience,
            speed,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_segment;
    use crate::frame::materialize_clip;
    use vstore_datasets::{Dataset, VideoSource};

    fn encoded_segment() -> SegmentData {
        let src = VideoSource::new(Dataset::Jackson);
        let fidelity = Fidelity::new(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R360,
            FrameSampling::Full,
        );
        let frames = materialize_clip(&src.clip(0, 60), fidelity);
        SegmentData::Encoded(
            encode_segment(&frames, KeyframeInterval::K10, SpeedStep::Fast).unwrap(),
        )
    }

    fn raw_segment() -> SegmentData {
        let src = VideoSource::new(Dataset::Dashcam);
        let fidelity = Fidelity::new(
            ImageQuality::Best,
            CropFactor::C100,
            Resolution::R200,
            FrameSampling::Full,
        );
        let frames = materialize_clip(&src.clip(0, 30), fidelity);
        SegmentData::Raw(RawSegment { fidelity, frames })
    }

    #[test]
    fn encoded_round_trip_through_bytes() {
        let seg = encoded_segment();
        let bytes = seg.to_bytes();
        let back = SegmentData::from_bytes(&bytes).unwrap();
        assert_eq!(seg, back);
        assert_eq!(back.frame_count(), 60);
        assert!(!back.storage_format().coding.is_raw());
    }

    #[test]
    fn raw_round_trip_through_bytes() {
        let seg = raw_segment();
        let bytes = seg.to_bytes();
        let back = SegmentData::from_bytes(&bytes).unwrap();
        assert_eq!(seg, back);
        assert!(back.storage_format().coding.is_raw());
        assert_eq!(back.first_index(), Some(0));
    }

    #[test]
    fn corrupt_magic_and_truncation_are_rejected() {
        let seg = encoded_segment();
        let mut bytes = seg.to_bytes();
        bytes[0] = b'X';
        assert!(SegmentData::from_bytes(&bytes).is_err());
        let bytes = seg.to_bytes();
        assert!(SegmentData::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert!(SegmentData::from_bytes(&[]).is_err());
    }

    #[test]
    fn decode_all_and_sampled_work_for_both_variants() {
        for seg in [encoded_segment(), raw_segment()] {
            let all = seg.decode_all().unwrap();
            assert_eq!(all.len(), seg.frame_count());
            let (sampled, stats) = seg.decode_sampled(FrameSampling::S1_30).unwrap();
            assert!(sampled.len() < all.len());
            assert_eq!(stats.frames_emitted, sampled.len());
            assert!(sampled.iter().all(|f| f.source_index % 30 == 0));
        }
    }

    #[test]
    fn raw_decode_touches_no_decoder() {
        let seg = raw_segment();
        let (_, stats) = seg.decode_sampled(FrameSampling::S1_6).unwrap();
        assert_eq!(stats.frames_decoded, 0);
    }

    #[test]
    fn encoded_smaller_than_raw_on_disk_for_static_scene() {
        let src = VideoSource::new(Dataset::Park);
        let fidelity = Fidelity::new(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R360,
            FrameSampling::Full,
        );
        let frames = materialize_clip(&src.clip(0, 60), fidelity);
        let encoded = SegmentData::Encoded(
            encode_segment(&frames, KeyframeInterval::K50, SpeedStep::Slow).unwrap(),
        );
        let raw = SegmentData::Raw(RawSegment { fidelity, frames });
        assert!(encoded.to_bytes().len() * 2 < raw.to_bytes().len());
    }
}
