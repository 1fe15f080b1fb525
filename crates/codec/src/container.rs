//! The segment container: the unit stored in and retrieved from the segment
//! store, either an encoded bitstream or RAW frames (coding bypass), plus a
//! compact binary serialisation.

use crate::codec::{
    decode_segment, decode_segment_sampled, DecodeStats, Decoder, EncodedChunk, EncodedSegment,
    FrameRecord, MotionVector,
};
use crate::frame::{sampling_selects, VideoFrame};
use crate::wire::{ByteReader, ByteWriter};
use std::borrow::Cow;
use vstore_datasets::{BlockPlane, BoundingBox, ObjectClass, ObjectColor, PlateText, SceneObject};
use vstore_types::{
    CodingOption, CropFactor, Fidelity, FrameSampling, ImageQuality, KeyframeInterval, Resolution,
    Result, SpeedStep, StorageFormat, VStoreError,
};

/// Magic bytes prefixing every serialised segment, before its version.
const MAGIC: &[u8; 5] = b"VSSEG";
/// The container version of an encoded segment, an ASCII digit after the
/// magic: `3` carries a motion vector in every delta record. A RAW segment
/// has no delta records, so its layout has not changed since
/// [`RAW_VERSION`]. Any other version of either kind, such as the
/// plain-delta encoded `2` or the pair-coded `1`, is corruption naming both
/// versions: such a segment is re-ingested, not read.
const ENCODED_VERSION: u8 = b'3';
/// The container version of a RAW segment.
const RAW_VERSION: u8 = b'2';

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
        w.put_u8(match self {
            SegmentData::Raw(_) => RAW_VERSION,
            SegmentData::Encoded(_) => ENCODED_VERSION,
        });
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
                write_rank(&mut w, seg.keyframe_interval.rank());
                write_rank(&mut w, seg.speed.rank());
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
                        if !f.is_key {
                            w.put_raw(&f.motion.dx.to_le_bytes());
                            w.put_raw(&f.motion.dy.to_le_bytes());
                        }
                        w.put_bytes(&f.payload);
                        write_objects(&mut w, &f.objects);
                    }
                }
            }
        }
        w.into_bytes()
    }

    /// Deserialise from the binary container format: the owned form of
    /// the walk [`decode_bytes`](Self::decode_bytes) decodes from in place.
    pub fn from_bytes(bytes: &[u8]) -> Result<SegmentData> {
        let mut walk = SegmentWalk::open(bytes)?;
        let fidelity = walk.fidelity;
        let mut records = Vec::new();
        match walk.coding {
            CodingOption::Raw => {
                walk.next_chunk(&mut records)?;
                let frames = records
                    .drain(..)
                    .map(|record| raw_frame(record, fidelity))
                    .collect::<Result<_>>()?;
                Ok(SegmentData::Raw(RawSegment { fidelity, frames }))
            }
            CodingOption::Encoded {
                keyframe_interval,
                speed,
            } => {
                let mut chunks = Vec::with_capacity(walk.chunks_left);
                while walk.next_chunk(&mut records)? {
                    let frames = records.drain(..).map(FrameRecord::into_encoded).collect();
                    chunks.push(EncodedChunk { frames });
                }
                Ok(SegmentData::Encoded(EncodedSegment {
                    fidelity,
                    keyframe_interval,
                    speed,
                    chunks,
                }))
            }
        }
    }

    /// Decode a serialised segment straight from `bytes` — what
    /// `from_bytes(bytes)?.decode_sampled(consumer_sampling)` returns,
    /// without copying a frame the consumer does not sample and without an
    /// owned [`SegmentData`] in between: every payload is decoded from the
    /// buffer the caller already holds.
    pub fn decode_bytes(bytes: &[u8], consumer_sampling: FrameSampling) -> Result<DecodedBytes> {
        let mut walk = SegmentWalk::open(bytes)?;
        let storage_format = StorageFormat::new(walk.fidelity, walk.coding);
        let mut records = Vec::new();
        let mut frame_count = 0;
        let (frames, stats) = if walk.coding.is_raw() {
            // No decoding happens and unneeded frames are never copied.
            walk.next_chunk(&mut records)?;
            frame_count = records.len();
            let frames: Vec<VideoFrame> = records
                .drain(..)
                .filter(|r| sampling_selects(r.source_index, consumer_sampling))
                .map(|record| raw_frame(record, walk.fidelity))
                .collect::<Result<_>>()?;
            let stats = DecodeStats {
                frames_decoded: 0,
                frames_emitted: frames.len(),
                chunks_skipped: 0,
            };
            (frames, stats)
        } else {
            let mut decoder = Decoder::new(walk.fidelity, Some(consumer_sampling));
            while walk.next_chunk(&mut records)? {
                frame_count += records.len();
                decoder.chunk(&mut records)?;
            }
            decoder.finish()
        };
        Ok(DecodedBytes {
            storage_format,
            frame_count,
            frames,
            stats,
        })
    }
}

/// What [`SegmentData::decode_bytes`] returns: the sampled frames plus what
/// the container says about the segment they came from.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedBytes {
    /// The storage format the segment is stored in.
    pub storage_format: StorageFormat,
    /// Number of frames stored in the segment (before sampling).
    pub frame_count: usize,
    /// The sampled frames at the stored fidelity, in presentation order.
    pub frames: Vec<VideoFrame>,
    /// What decoding them took.
    pub stats: DecodeStats,
}

/// Fewest bytes a frame record takes: index varint, two `u16` dimensions,
/// the `f64` retention, a payload length and an object count.
const MIN_FRAME_BYTES: usize = 15;
/// Bytes of a serialised object without a plate.
const MIN_OBJECT_BYTES: usize = 35;

/// A serialised segment walked in place: the header, then one GOP of
/// borrowed frame records at a time. The one parser of the container —
/// [`SegmentData::from_bytes`] collects its records into owned frames,
/// [`SegmentData::decode_bytes`] decodes them where they lie.
struct SegmentWalk<'a> {
    r: ByteReader<'a>,
    fidelity: Fidelity,
    coding: CodingOption,
    /// GOPs not yet walked; a RAW segment is one group of all its frames.
    chunks_left: usize,
}

impl<'a> SegmentWalk<'a> {
    fn open(bytes: &'a [u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        if r.get_raw(MAGIC.len())? != MAGIC {
            return Err(VStoreError::corruption("bad segment magic"));
        }
        let version = r.get_u8()?;
        let kind = r.get_u8()?;
        let expected = match kind {
            0 => RAW_VERSION,
            1 => ENCODED_VERSION,
            other => {
                return Err(VStoreError::corruption(format!(
                    "unknown segment kind {other}"
                )))
            }
        };
        if version != expected {
            return Err(VStoreError::corruption(format!(
                "segment container version {} where {} is expected",
                version.escape_ascii(),
                expected.escape_ascii()
            )));
        }
        let fidelity = read_fidelity(&mut r)?;
        let (coding, chunks_left) = match kind {
            0 => (CodingOption::Raw, 1),
            _ => {
                let ki_rank = usize::from(r.get_u8()?);
                let sp_rank = usize::from(r.get_u8()?);
                let keyframe_interval = *KeyframeInterval::ALL
                    .get(ki_rank)
                    .ok_or_else(|| VStoreError::corruption("bad keyframe interval"))?;
                let speed = *SpeedStep::ALL
                    .get(sp_rank)
                    .ok_or_else(|| VStoreError::corruption("bad speed step"))?;
                let coding = CodingOption::Encoded {
                    keyframe_interval,
                    speed,
                };
                // Even an empty GOP spends a byte on its frame count.
                (coding, r.get_count(1, "chunk")?)
            }
        };
        Ok(SegmentWalk {
            r,
            fidelity,
            coding,
            chunks_left,
        })
    }

    /// Replace `records` with the next GOP's frames; `false` once every
    /// GOP has been walked.
    fn next_chunk(&mut self, records: &mut Vec<FrameRecord<'a>>) -> Result<bool> {
        records.clear();
        if self.chunks_left == 0 {
            return Ok(false);
        }
        self.chunks_left -= 1;
        let raw = self.coding.is_raw();
        let count = self.r.get_count(MIN_FRAME_BYTES, "frame")?;
        records.reserve(count);
        for _ in 0..count {
            let r = &mut self.r;
            let source_index = r.get_varint()?;
            let width = u32::from(r.get_u16()?);
            let height = u32::from(r.get_u16()?);
            let signal_retention = r.get_f64()?;
            let is_key = raw || r.get_u8()? != 0;
            let motion = if is_key {
                MotionVector::ZERO
            } else {
                read_motion(r)?
            };
            let payload = r.get_bytes()?;
            let record = FrameRecord {
                source_index,
                width,
                height,
                is_key,
                motion,
                payload,
                objects: Cow::Owned(read_objects(r)?),
                signal_retention,
            };
            // A RAW payload is the samples themselves; an encoded one is
            // held to what its pairs can expand to.
            if !raw {
                record.sample_count()?;
            } else if u64::from(width) * u64::from(height) != payload.len() as u64 {
                return Err(VStoreError::corruption("raw frame sample count mismatch"));
            }
            records.push(record);
        }
        Ok(true)
    }
}

/// A delta record's motion vector: two `i8`s, each within
/// [`MotionVector::MAX`].
fn read_motion(r: &mut ByteReader<'_>) -> Result<MotionVector> {
    let mut component = || -> Result<i8> {
        let c = i8::from_le_bytes([r.get_u8()?]);
        if c.unsigned_abs() > MotionVector::MAX.unsigned_abs() {
            return Err(VStoreError::corruption(format!(
                "motion vector component {c} outside ±{}",
                MotionVector::MAX
            )));
        }
        Ok(c)
    };
    Ok(MotionVector {
        dx: component()?,
        dy: component()?,
    })
}

/// The owned frame of a RAW segment's record.
fn raw_frame(record: FrameRecord<'_>, fidelity: Fidelity) -> Result<VideoFrame> {
    let plane = BlockPlane::from_samples(record.width, record.height, record.payload.to_vec())
        .ok_or_else(|| VStoreError::corruption("raw frame sample count mismatch"))?;
    Ok(VideoFrame {
        source_index: record.source_index,
        fidelity,
        plane,
        objects: record.objects.into_owned(),
        signal_retention: record.signal_retention,
    })
}

fn write_fidelity(w: &mut ByteWriter, f: &Fidelity) {
    write_rank(w, f.quality.rank());
    write_rank(w, f.crop.rank());
    write_rank(w, f.resolution.rank());
    write_rank(w, f.sampling.rank());
}

/// Write a knob's rank as one byte.
#[expect(
    clippy::cast_possible_truncation,
    reason = "ranks index knob ladders of at most six entries"
)]
fn write_rank(w: &mut ByteWriter, rank: usize) {
    w.put_u8(rank as u8);
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

#[expect(
    clippy::cast_possible_truncation,
    reason = "plane dimensions are block counts of a Resolution knob (<= 1080p), far inside u16"
)]
fn write_frame_header(w: &mut ByteWriter, index: u64, width: u32, height: u32, retention: f64) {
    w.put_varint(index);
    w.put_u16(width as u16);
    w.put_u16(height as u16);
    w.put_f64(retention);
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
            .and_then(|i| u8::try_from(i).ok())
            .unwrap_or(0);
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
    let count = r.get_count(MIN_OBJECT_BYTES, "object")?;
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

    /// Of both older encoded formats, the pair-coded `1` and the
    /// plain-delta `2` whose delta records carry no vector; and of a RAW
    /// segment at any version but its own `2`.
    #[test]
    fn a_version_1_container_is_corruption_naming_both_versions() {
        for (raw, version, old) in [
            (false, '3', '1'),
            (false, '3', '2'),
            (true, '2', '1'),
            (true, '2', '3'),
        ] {
            let mut bytes = if raw {
                raw_segment()
            } else {
                encoded_segment()
            }
            .to_bytes();
            assert_eq!(bytes[..6], *format!("VSSEG{version}").as_bytes());
            bytes[5] = old as u8;
            let expected = format!("segment container version {old} where {version} is expected");
            for err in [
                SegmentData::from_bytes(&bytes).unwrap_err(),
                SegmentData::decode_bytes(&bytes, FrameSampling::Full).unwrap_err(),
            ] {
                assert!(matches!(err, VStoreError::Corruption(_)), "{err}");
                assert!(err.to_string().contains(&expected), "{err}");
            }
        }
    }

    /// Found while sizing the splat decoder, reproduced on its parent: 20
    /// bytes whose frame count is 2^62 panicked in `Vec::with_capacity`
    /// ("capacity overflow"). Bytes reach this parser from the store after
    /// a *valid* CRC, so a count is believed only as far as the bytes
    /// behind it reach.
    #[test]
    fn a_frame_count_of_2_pow_62_is_corruption_not_a_capacity_overflow() {
        let mut w = ByteWriter::new();
        w.put_raw(MAGIC);
        w.put_u8(RAW_VERSION);
        w.put_u8(0);
        write_fidelity(&mut w, &Fidelity::INGESTION);
        w.put_varint(1 << 62);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 20);
        let err = SegmentData::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, VStoreError::Corruption(_)), "{err}");
        let err = SegmentData::decode_bytes(&bytes, FrameSampling::Full).unwrap_err();
        assert!(matches!(err, VStoreError::Corruption(_)), "{err}");
    }

    /// The same class, one layer down: 33 bytes holding one 65 535 × 65 535
    /// keyframe over a two-byte payload parsed, and decoding them asked
    /// the allocator for 4 294 836 225 bytes (an abort under a 2 GB limit).
    #[test]
    fn a_65535_squared_keyframe_over_two_bytes_is_corruption_not_a_4_gib_allocation() {
        let mut w = ByteWriter::new();
        w.put_raw(MAGIC);
        w.put_u8(ENCODED_VERSION);
        w.put_u8(1);
        write_fidelity(&mut w, &Fidelity::INGESTION);
        w.put_u8(0); // keyframe interval rank
        w.put_u8(0); // speed rank
        w.put_varint(1); // chunks
        w.put_varint(1); // frames
        write_frame_header(&mut w, 0, 65_535, 65_535, 1.0);
        w.put_u8(1); // keyframe
        w.put_bytes(&[255, 0]); // one repeat of 130 samples
        write_objects(&mut w, &[]);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 33);
        // Refused by the parser, for what the frame declares — not by a
        // decoder that has already reserved the 4 GiB and found them unused.
        for err in [
            SegmentData::from_bytes(&bytes).unwrap_err(),
            SegmentData::decode_bytes(&bytes, FrameSampling::Full).unwrap_err(),
        ] {
            assert!(matches!(err, VStoreError::Corruption(_)), "{err}");
            assert!(err.to_string().contains("declares 65535x65535"), "{err}");
        }
    }

    /// A delta record's vector is two `i8`s within ±7: each component at
    /// ±8, 127 or −128 is corruption naming it, in either parse, and ±7
    /// decodes (a 3 × 2 plane, narrower and shorter than the shift).
    #[test]
    fn motion_vector_components_past_7_are_corruption() {
        let container = |dx: i8, dy: i8| {
            let mut w = ByteWriter::new();
            w.put_raw(MAGIC);
            w.put_u8(ENCODED_VERSION);
            w.put_u8(1);
            write_fidelity(&mut w, &Fidelity::INGESTION);
            w.put_u8(0); // keyframe interval rank
            w.put_u8(0); // speed rank
            w.put_varint(1); // chunks
            w.put_varint(2); // frames
            write_frame_header(&mut w, 0, 3, 2, 1.0);
            w.put_u8(1); // keyframe
            w.put_bytes(&[5, 1, 2, 3, 4, 5, 6]); // six literals
            write_objects(&mut w, &[]);
            write_frame_header(&mut w, 1, 3, 2, 1.0);
            w.put_u8(0); // delta frame
            w.put_raw(&dx.to_le_bytes());
            w.put_raw(&dy.to_le_bytes());
            w.put_bytes(&[131, 1]); // six residuals of 1
            write_objects(&mut w, &[]);
            w.into_bytes()
        };
        for good in [(7, 7), (-7, -7), (7, -7), (0, 0)] {
            let bytes = container(good.0, good.1);
            let decoded = SegmentData::decode_bytes(&bytes, FrameSampling::Full).unwrap();
            // Every source falls outside the plane: plain deltas.
            assert_eq!(decoded.frames[1].plane.samples(), [2, 3, 4, 5, 6, 7]);
            assert!(SegmentData::from_bytes(&bytes).is_ok());
        }
        for bad in [8, -8, 127, -128] {
            for bytes in [container(bad, 0), container(0, bad)] {
                for err in [
                    SegmentData::from_bytes(&bytes).unwrap_err(),
                    SegmentData::decode_bytes(&bytes, FrameSampling::Full).unwrap_err(),
                ] {
                    assert!(matches!(err, VStoreError::Corruption(_)), "{err}");
                    assert!(
                        err.to_string()
                            .contains(&format!("motion vector component {bad} outside")),
                        "{err}"
                    );
                }
            }
        }
    }

    /// A few frames of a few samples each, objects included, so that every
    /// byte of the container can be cut at and rewritten to every value.
    fn small_segments() -> [SegmentData; 2] {
        let src = VideoSource::new(Dataset::Jackson);
        let fidelity = Fidelity::new(
            ImageQuality::Bad,
            CropFactor::C50,
            Resolution::R60,
            FrameSampling::Full,
        );
        // Frames 28..32 straddle a 1/30 and a 1/6 sampling point.
        let mut frames = materialize_clip(&src.clip(28, 4), fidelity);
        assert!(frames.iter().any(|f| !f.objects.is_empty()));
        for frame in &mut frames {
            frame.objects.truncate(1);
        }
        let mut encoded = encode_segment(&frames, KeyframeInterval::K5, SpeedStep::Fast).unwrap();
        // The plane is too small for the motion search, so every delta
        // record would carry the zero vector: re-code two under others.
        let width = frames[0].plane.width() as usize;
        for (i, (dx, dy)) in [(1, (1, -1)), (2, (-7, 7))] {
            let motion = MotionVector { dx, dy };
            let (cur, prev) = (frames[i].plane.samples(), frames[i - 1].plane.samples());
            let mut residual = Vec::new();
            crate::codec::motion_residual(cur, prev, width, motion, &mut residual);
            let frame = &mut encoded.chunks[0].frames[i];
            frame.motion = motion;
            crate::codec::encode_runs(&residual, &mut frame.payload);
        }
        [
            SegmentData::Encoded(encoded),
            SegmentData::Raw(RawSegment { fidelity, frames }),
        ]
    }

    /// Parse and decode `bytes` both ways. Whatever they hold, the outcome
    /// is frames or `Corruption` — never a panic, never a reservation the
    /// input's own length does not back — and the in-place decode agrees
    /// with the owned one.
    fn parse_and_decode(bytes: &[u8]) {
        let corruption_only = |err: &VStoreError| {
            assert!(matches!(err, VStoreError::Corruption(_)), "{err}");
        };
        let owned = SegmentData::from_bytes(bytes);
        match &owned {
            // Every count was held against the bytes behind it.
            Ok(segment) => assert!(segment.frame_count() <= bytes.len() / MIN_FRAME_BYTES),
            Err(err) => corruption_only(err),
        }
        for sampling in [FrameSampling::Full, FrameSampling::S1_6] {
            let owned = owned.as_ref().ok().and_then(|segment| {
                segment
                    .decode_sampled(sampling)
                    .inspect_err(corruption_only)
                    .ok()
            });
            let in_place = SegmentData::decode_bytes(bytes, sampling)
                .inspect_err(corruption_only)
                .ok()
                .map(|decoded| (decoded.frames, decoded.stats));
            // A rewritten float may be a NaN, which only its text equals.
            if owned != in_place {
                assert_eq!(format!("{owned:?}"), format!("{in_place:?}"));
            }
        }
    }

    #[test]
    fn every_prefix_and_every_single_byte_mutation_parses_or_is_corruption() {
        for segment in small_segments() {
            let bytes = segment.to_bytes();
            assert!(bytes.len() < 400, "{} bytes", bytes.len());
            assert_eq!(SegmentData::from_bytes(&bytes).unwrap(), segment);
            for cut in 0..bytes.len() {
                parse_and_decode(&bytes[..cut]);
                assert!(
                    SegmentData::from_bytes(&bytes[..cut]).is_err(),
                    "prefix {cut}"
                );
            }
            let mut mutated = bytes.clone();
            for pos in 0..bytes.len() {
                for value in 0..=u8::MAX {
                    mutated[pos] = value;
                    parse_and_decode(&mutated);
                }
                mutated[pos] = bytes[pos];
            }
        }
    }

    #[test]
    fn decode_bytes_equals_parse_then_decode_for_both_variants() {
        for segment in [encoded_segment(), raw_segment()] {
            let bytes = segment.to_bytes();
            for sampling in FrameSampling::ALL {
                let (frames, stats) = segment.decode_sampled(sampling).unwrap();
                let decoded = SegmentData::decode_bytes(&bytes, sampling).unwrap();
                assert_eq!(decoded.frames, frames);
                assert_eq!(decoded.stats, stats);
                assert_eq!(decoded.frame_count, segment.frame_count());
                assert_eq!(decoded.storage_format, segment.storage_format());
            }
        }
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
