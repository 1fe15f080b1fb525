//! The block codec: GOP-structured, motion-compensated, literal-run entropy
//! coded. Lossless at the stored fidelity (all loss comes from the fidelity
//! knobs themselves, exactly as the quality knob intends).
//!
//! A keyframe's payload codes its samples. A delta frame carries a
//! whole-sample [`MotionVector`] `(dx, dy)` and its payload codes the
//! residual `cur(x, y) − prev(x − dx, y − dy)` (wrapping) against the frame
//! before it; a sample whose source falls outside the plane is predicted
//! from `prev(x, y)`, so the zero vector codes plain deltas. The encoder
//! picks the vector by [`estimate_motion`]: the synthetic cameras pan by
//! whole samples, and a panned frame predicted from its unshifted
//! predecessor leaves most of its texture in the residual.
//!
//! Either payload is a sequence of runs, each headed by one control byte
//! `c`:
//!
//! ```text
//! c <  128   c + 1 literal samples follow          (1..=128 samples)
//! c >= 128   one sample follows, repeated c - 125   (3..=130 samples)
//! ```
//!
//! Most of a keyframe's samples differ from their neighbour, so they
//! travel as literals at one byte each plus a control byte per 128; only
//! runs of three or more equal samples are worth a repeat.
//!
//! The keyframe interval knob controls GOP length. A decoder serving a
//! sparsely-sampling consumer skips whole GOPs that contain no sampled frame
//! and, within a GOP, stops at the last sampled frame — the Figure 3(b)
//! behaviour.

use crate::frame::{sampling_selects, VideoFrame};
use crate::meta::{mean_wrapped_distance, SegmentMeta};
use std::borrow::Cow;
use vstore_datasets::{sad, BlockPlane, SceneObject};
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
    /// What a delta frame is predicted from: the previous frame shifted by
    /// this vector. Zero for keyframes.
    pub motion: MotionVector,
    /// Literal/repeat runs (see the module docs) of the raw samples for
    /// keyframes, of the residual against the motion-compensated previous
    /// frame for delta frames.
    pub payload: Vec<u8>,
    /// Side-band object metadata: the ground-truth boxes the
    /// object-recognition operators detect from.
    pub objects: Vec<SceneObject>,
    /// Compound signal retention of the encoded frame.
    pub signal_retention: f64,
}

/// One stored frame as the decoder reads it, borrowed from wherever it
/// lives: an [`EncodedFrame`], or a record of a serialised container walked
/// in place (`container::SegmentWalk`), whose payload is a slice of the
/// buffer the store already handed over.
#[derive(Debug)]
pub(crate) struct FrameRecord<'a> {
    pub source_index: u64,
    pub width: u32,
    pub height: u32,
    pub is_key: bool,
    pub motion: MotionVector,
    /// The literal/repeat runs of an encoded frame; the samples of a RAW
    /// one.
    pub payload: &'a [u8],
    pub objects: Cow<'a, [SceneObject]>,
    pub signal_retention: f64,
}

impl<'a> FrameRecord<'a> {
    /// `width × height`, believed only as far as the payload behind it
    /// reaches: no two payload bytes expand to more than a repeat's 130
    /// samples, so a frame declaring more than 65 per payload byte is
    /// corrupt — found here, before anything is sized from the dimensions.
    pub(crate) fn sample_count(&self) -> Result<usize> {
        let declared = u64::from(self.width) * u64::from(self.height);
        if declared > u64::from(MAX_REPEAT / 2) * self.payload.len() as u64 {
            return Err(VStoreError::corruption(format!(
                "frame declares {}x{} samples over a {}-byte payload",
                self.width,
                self.height,
                self.payload.len()
            )));
        }
        usize::try_from(declared)
            .map_err(|_| VStoreError::corruption("frame sample count exceeds the address range"))
    }

    /// The owned form of an encoded frame's record.
    pub(crate) fn into_encoded(self) -> EncodedFrame {
        EncodedFrame {
            source_index: self.source_index,
            width: self.width,
            height: self.height,
            is_key: self.is_key,
            motion: self.motion,
            payload: self.payload.to_vec(),
            objects: self.objects.into_owned(),
            signal_retention: self.signal_retention,
        }
    }
}

impl EncodedFrame {
    pub(crate) fn record(&self) -> FrameRecord<'_> {
        FrameRecord {
            source_index: self.source_index,
            width: self.width,
            height: self.height,
            is_key: self.is_key,
            motion: self.motion,
            payload: &self.payload,
            objects: Cow::Borrowed(&self.objects),
            signal_retention: self.signal_retention,
        }
    }
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
// Literal-run entropy coding
// ---------------------------------------------------------------------------

/// Control bytes below this head a literal run; this and above, a repeat.
const REPEAT: u8 = 128;
/// Most samples one literal run carries.
const MAX_LITERALS: u8 = 128;
/// Fewest samples a repeat carries: shorter runs cost no more as literals.
const MIN_REPEAT: u8 = 3;
/// Most samples one repeat carries (control byte 255).
const MAX_REPEAT: u8 = 130;

/// Entropy-code `data` as literal and repeat runs (see the module docs)
/// into `out`, replacing what it held: every run of three or more equal
/// samples is a repeat, and whatever lies between repeats goes out as
/// literals, flushed 128 at a time; a run of two joins the literals whole,
/// so it never splits across a flush.
///
/// The coder follows the byte kernels' discipline (u8 reductions run in
/// fixed blocks with a narrow block sum, so they vectorise without
/// `std::arch` or `unsafe`) with words for blocks: it finds the next pair
/// of equal neighbours eight samples at a time (`next_pair`), takes every
/// sample before it as a run of one in bulk, and measures a run eight
/// samples at a time (`run_length`). Its output is the same, byte for
/// byte, as testing one sample at a time.
pub fn encode_runs(data: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let mut pos = 0;
    // The samples just before `pos` still owed to a literal run.
    let mut literals: u8 = 0;
    while pos < data.len() {
        // Each sample before the next equal pair is a run of one.
        let pair = next_pair(data, pos);
        while pos < pair {
            if literals == MAX_LITERALS {
                flush_literals(out, &data[..pos], literals);
                literals = 0;
            }
            let room = MAX_LITERALS - literals;
            let take = u8::try_from(pair - pos).map_or(room, |left| left.min(room));
            literals += take;
            pos += usize::from(take);
        }
        let Some(&value) = data.get(pos) else {
            break;
        };
        let run = run_length(&data[pos..], value);
        if run >= MIN_REPEAT {
            flush_literals(out, &data[..pos], literals);
            literals = 0;
            out.extend_from_slice(&[run - MIN_REPEAT + REPEAT, value]);
        } else {
            if literals + run > MAX_LITERALS {
                flush_literals(out, &data[..pos], literals);
                literals = 0;
            }
            literals += run;
        }
        pos += usize::from(run);
    }
    flush_literals(out, &data[..pos], literals);
}

/// Bytes in the word [`next_pair`] and [`run_length`] compare at a time.
const WORD: usize = 8;
/// A `u64` with every byte 1, and with every byte's high bit set.
const ONES: u64 = u64::from_ne_bytes([0x01; WORD]);
const HIGHS: u64 = u64::from_ne_bytes([0x80; WORD]);

/// The `WORD` samples of `bytes` as a little-endian word, so the first
/// sample is the lowest byte.
#[inline]
fn word(bytes: &[u8; WORD]) -> u64 {
    u64::from_le_bytes(*bytes)
}

/// Index of the first sample at or after `from` equal to the sample after
/// it, or `data.len()` when there is none. A word XORed with the word one
/// sample later has a zero byte where neighbours are equal; the lowest
/// byte the has-zero-byte test flags is the first such byte (a borrow only
/// ripples upwards, past a true zero).
fn next_pair(data: &[u8], from: usize) -> usize {
    let mut pos = from;
    while let (Some(chunk), Some(&after)) = (
        data.get(pos..).and_then(<[u8]>::first_chunk::<WORD>),
        data.get(pos + WORD),
    ) {
        let now = word(chunk);
        let same = now ^ (now >> 8 | u64::from(after) << 56);
        let zeros = same.wrapping_sub(ONES) & !same & HIGHS;
        if zeros != 0 {
            return pos + cast::usize_from_u32(zeros.trailing_zeros()) / 8;
        }
        pos += WORD;
    }
    data[pos..]
        .windows(2)
        .position(|pair| pair[0] == pair[1])
        .map_or(data.len(), |i| pos + i)
}

/// Length of the run of `value` that opens `data`, at most [`MAX_REPEAT`]:
/// a word at a time against `value` in every byte, the first differing
/// byte being the lowest set one.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a run is capped at MAX_REPEAT (130) samples"
)]
fn run_length(data: &[u8], value: u8) -> u8 {
    let data = &data[..data.len().min(usize::from(MAX_REPEAT))];
    let splat = u64::from_ne_bytes([value; WORD]);
    let mut run = 0;
    while let Some(chunk) = data.get(run..).and_then(<[u8]>::first_chunk::<WORD>) {
        let differ = word(chunk) ^ splat;
        if differ != 0 {
            return (run + cast::usize_from_u32(differ.trailing_zeros()) / 8) as u8;
        }
        run += WORD;
    }
    (run + data[run..].iter().take_while(|&&s| s == value).count()) as u8
}

/// Write the last `count` samples of `before` as one literal run.
fn flush_literals(out: &mut Vec<u8>, before: &[u8], count: u8) {
    if let Some(control) = count.checked_sub(1) {
        out.push(control);
        out.extend_from_slice(&before[before.len() - usize::from(count)..]);
    }
}

/// Width of the store a short run is expanded with, and the padding the
/// expansion buffer carries past the last sample so that store never needs
/// a length of its own.
const SPLAT: usize = 16;

/// Expand a payload produced by [`encode_runs`] into
/// `scratch[..expected_len]`. A motion-compensated residual is mostly short
/// runs (on a Jackson segment, three runs in four are literals of up to
/// three samples or repeats of under 16), so while a whole [`SPLAT`]-byte
/// window follows a control byte, a run of up to [`SPLAT`] samples is one
/// fixed-width store: the window itself for a literal, the value in every
/// byte for a repeat (the next run overwrites the excess). A longer literal
/// is one `copy_from_slice`, a longer repeat a store per [`SPLAT`] samples.
/// The last runs, whose window would pass the payload's end, are expanded
/// one `copy_from_slice` or `fill` each. Every run is held to the payload
/// and to the frame before it is written.
pub(crate) fn expand_runs(data: &[u8], expected_len: usize, scratch: &mut Vec<u8>) -> Result<()> {
    if scratch.len() < expected_len + SPLAT {
        scratch.resize(expected_len + SPLAT, 0);
    }
    let out = &mut scratch[..expected_len + SPLAT];
    let past_frame = |end: usize| {
        VStoreError::corruption(format!(
            "run ends at sample {end}, past the frame's {expected_len}"
        ))
    };
    let mut pos = 0usize;
    let mut rest = data;
    while let Some((&control, window)) = rest
        .split_first()
        .and_then(|(control, tail)| Some((control, tail.first_chunk::<SPLAT>()?)))
    {
        let literal = control < REPEAT;
        let run = if literal {
            usize::from(control) + 1
        } else {
            usize::from(control - REPEAT + MIN_REPEAT)
        };
        let end = pos + run;
        if end > expected_len {
            return Err(past_frame(end));
        }
        let chunk = if literal { *window } else { [window[0]; SPLAT] };
        if run <= SPLAT {
            if let Some(at) = out[pos..].first_chunk_mut::<SPLAT>() {
                *at = chunk;
            }
        } else if literal {
            let Some(literals) = rest.get(1..=run) else {
                return Err(VStoreError::corruption(format!(
                    "literal run of {run} samples past the end of the payload"
                )));
            };
            out[pos..end].copy_from_slice(literals);
        } else {
            for at in out[pos..end + SPLAT - 1].chunks_exact_mut(SPLAT) {
                at.copy_from_slice(&chunk);
            }
        }
        rest = &rest[if literal { 1 + run } else { 2 }..];
        pos = end;
    }
    while let Some((&control, tail)) = rest.split_first() {
        if control < REPEAT {
            let run = usize::from(control) + 1;
            let Some((literals, tail)) = tail.split_at_checked(run) else {
                return Err(VStoreError::corruption(format!(
                    "literal run of {run} samples past the end of the payload"
                )));
            };
            let end = pos + run;
            if end > expected_len {
                return Err(past_frame(end));
            }
            out[pos..end].copy_from_slice(literals);
            (pos, rest) = (end, tail);
        } else {
            let Some((&value, tail)) = tail.split_first() else {
                return Err(VStoreError::corruption("repeat run without its value byte"));
            };
            let run = usize::from(control - REPEAT + MIN_REPEAT);
            let end = pos + run;
            if end > expected_len {
                return Err(past_frame(end));
            }
            out[pos..end].fill(value);
            (pos, rest) = (end, tail);
        }
    }
    if pos != expected_len {
        return Err(VStoreError::corruption(format!(
            "payload decodes to {pos} samples, expected {expected_len}"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Motion compensation
// ---------------------------------------------------------------------------

/// A delta frame's whole-sample motion: sample `(x, y)` is predicted from
/// the previous frame's `(x − dx, y − dy)`, or from its `(x, y)` where that
/// falls outside the plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct MotionVector {
    /// Horizontal shift, in samples.
    pub dx: i8,
    /// Vertical shift, in samples.
    pub dy: i8,
}

impl MotionVector {
    /// No shift: the prediction is the previous frame as it is.
    pub const ZERO: MotionVector = MotionVector { dx: 0, dy: 0 };
    /// The largest component magnitude a container may carry; anything
    /// larger is corruption.
    pub const MAX: i8 = 7;
}

/// How far [`estimate_motion`] searches: `dx` in `−SEARCH_DX..=SEARCH_DX`,
/// `dy` in `−SEARCH_DY..=SEARCH_DY` (the widest per-frame pan of any
/// dataset's camera is two samples across and one down).
const SEARCH_DX: i8 = 3;
const SEARCH_DY: i8 = 1;
/// [`estimate_motion`] compares every this-many-th row of its window.
const SEARCH_ROW_STEP: usize = 8;

/// The candidates [`estimate_motion`] tries, in the order ties go to: the
/// zero vector, then row by row of `dy`, each row by `dx`.
fn search_candidates() -> impl Iterator<Item = MotionVector> {
    let shifted = (-SEARCH_DY..=SEARCH_DY)
        .flat_map(|dy| (-SEARCH_DX..=SEARCH_DX).map(move |dx| MotionVector { dx, dy }))
        .filter(|&v| v != MotionVector::ZERO);
    std::iter::once(MotionVector::ZERO).chain(shifted)
}

/// The vector a delta frame `cur` is best predicted by from `prev` (both
/// `width` samples a row): of the 21 with `dx` in −3..=3 and `dy` in
/// −1..=1, the one of least [`sad`] over every 8th row of one window that
/// every candidate's source covers (the plane less three columns and one
/// row at each edge). Ties go to the zero vector, then to the least `dy`,
/// then to the least `dx`; a plane too small for the window gets the zero
/// vector.
pub fn estimate_motion(cur: &[u8], prev: &[u8], width: usize) -> MotionVector {
    let (mx, my): (usize, usize) = (
        SEARCH_DX.unsigned_abs().into(),
        SEARCH_DY.unsigned_abs().into(),
    );
    let height = cur.len().checked_div(width).unwrap_or(0);
    if width <= 2 * mx || height <= 2 * my || prev.len() != cur.len() {
        return MotionVector::ZERO;
    }
    let cost = |v: MotionVector| -> u64 {
        let (dx, dy) = (isize::from(v.dx), isize::from(v.dy));
        (my..height - my)
            .step_by(SEARCH_ROW_STEP)
            .map(|y| {
                // In the window, x − dx and y − dy stay inside the plane.
                let row = y * width;
                let source = y.wrapping_add_signed(-dy) * width;
                let left = mx.wrapping_add_signed(-dx);
                sad(
                    &cur[row + mx..row + width - mx],
                    &prev[source + left..source + left + width - 2 * mx],
                )
            })
            .sum()
    };
    let mut best = (MotionVector::ZERO, u64::MAX);
    for candidate in search_candidates() {
        let c = cost(candidate);
        if c < best.1 {
            best = (candidate, c);
        }
    }
    best.0
}

/// Walk the prediction of a `width`-sample-wide frame from `prev` shifted
/// by `motion`: `piece(at, pred)` is called, in order, for stretches that
/// tile the frame, each saying that samples `at..at + pred.len()` are
/// predicted by `pred`, a slice of `prev`. Every stretch is contiguous in
/// both, so what a caller does with one vectorises; the zero vector is one
/// stretch. Any vector is accepted: a row whose source row falls outside
/// the plane is predicted from itself, and a shift of a whole row or more
/// leaves no column inside.
#[inline]
fn predict(prev: &[u8], width: usize, motion: MotionVector, mut piece: impl FnMut(usize, &[u8])) {
    if motion == MotionVector::ZERO || width == 0 {
        piece(0, prev);
        return;
    }
    let (dx, dy) = (isize::from(motion.dx), isize::from(motion.dy));
    let height = prev.len() / width;
    let shift = dx.unsigned_abs().min(width);
    for y in 0..height {
        let at = y * width;
        let Some(source) = y.checked_add_signed(-dy).filter(|&s| s < height) else {
            piece(at, &prev[at..at + width]);
            continue;
        };
        let source = source * width;
        if dx >= 0 {
            // Columns left of `shift` have no source: predicted in place.
            piece(at, &prev[at..at + shift]);
            piece(at + shift, &prev[source..source + width - shift]);
        } else {
            // Columns from `width − shift` on have none.
            piece(at, &prev[source + shift..source + width]);
            piece(at + width - shift, &prev[at + width - shift..at + width]);
        }
    }
}

/// The residual a delta frame `cur` codes against `prev` under `motion`
/// (see the module docs), into `out`, replacing what it held.
pub fn motion_residual(
    cur: &[u8],
    prev: &[u8],
    width: usize,
    motion: MotionVector,
    out: &mut Vec<u8>,
) {
    out.clear();
    predict(prev, width, motion, |at, pred| {
        out.extend(
            cur[at..at + pred.len()]
                .iter()
                .zip(pred)
                .map(|(&c, &p)| c.wrapping_sub(p)),
        );
    });
}

/// The frame a `residual` coded against `prev` under `motion` rebuilds to,
/// into `out`, replacing what it held: the inverse of [`motion_residual`].
fn reconstruct(
    residual: &[u8],
    prev: &[u8],
    width: usize,
    motion: MotionVector,
    out: &mut Vec<u8>,
) {
    out.clear();
    predict(prev, width, motion, |at, pred| {
        out.extend(
            residual[at..at + pred.len()]
                .iter()
                .zip(pred)
                .map(|(&r, &p)| r.wrapping_add(p)),
        );
    });
}

/// [`reconstruct`] in place: `samples` holds the residual and ends holding
/// the frame.
fn reconstruct_in_place(samples: &mut [u8], prev: &[u8], width: usize, motion: MotionVector) {
    predict(prev, width, motion, |at, pred| {
        for (s, &p) in samples[at..at + pred.len()].iter_mut().zip(pred) {
            *s = s.wrapping_add(p);
        }
    });
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
    let mut encoder = SegmentEncoder::new(fidelity, keyframe_interval, speed);
    for frame in frames {
        encoder.push(
            frame.source_index,
            &frame.plane,
            frame.objects.clone(),
            frame.signal_retention,
        )?;
    }
    Ok(encoder.finish().0)
}

/// Encodes a segment a frame at a time, each frame coded as it arrives, so
/// a caller materialising frames into one reused plane never holds the
/// segment's frames. The predecessor's samples, the residual and the runs
/// being coded live in buffers reused across frames; a payload is copied
/// out at its exact size.
///
/// The encoder also scores the segment's `VSMETA` entries from the samples
/// it holds: every frame after the first scores its mean wrapped distance
/// from the frame before it, unshifted — the scores [`SegmentMeta`]
/// defines, whatever vector the payload was coded under.
pub(crate) struct SegmentEncoder {
    fidelity: Fidelity,
    keyframe_interval: KeyframeInterval,
    speed: SpeedStep,
    chunks: Vec<EncodedChunk>,
    /// The samples and dimensions of the frame pushed last.
    prev: Vec<u8>,
    prev_dims: (u32, u32),
    /// Reused per frame: the residual against `prev`, and the runs coded.
    residual: Vec<u8>,
    runs: Vec<u8>,
    meta: SegmentMeta,
}

impl SegmentEncoder {
    pub(crate) fn new(
        fidelity: Fidelity,
        keyframe_interval: KeyframeInterval,
        speed: SpeedStep,
    ) -> Self {
        SegmentEncoder {
            fidelity,
            keyframe_interval,
            speed,
            chunks: Vec::new(),
            prev: Vec::new(),
            prev_dims: (0, 0),
            residual: Vec::new(),
            runs: Vec::new(),
            meta: SegmentMeta::default(),
        }
    }

    /// Code the next frame: a keyframe opening a GOP every
    /// `keyframe_interval` frames, else the residual against the frame
    /// before it under the vector [`estimate_motion`] picks; that frame
    /// must have its dimensions.
    pub(crate) fn push(
        &mut self,
        source_index: u64,
        plane: &BlockPlane,
        objects: Vec<SceneObject>,
        signal_retention: f64,
    ) -> Result<()> {
        let gop = cast::usize_from_u32(self.keyframe_interval.frames());
        let is_key = self
            .chunks
            .last()
            .is_none_or(|chunk| chunk.frames.len() >= gop);
        let samples = plane.samples();
        let dims = (plane.width(), plane.height());
        let motion = if is_key {
            encode_runs(samples, &mut self.runs);
            MotionVector::ZERO
        } else {
            if dims != self.prev_dims {
                return Err(VStoreError::invalid_argument(
                    "frame dimensions changed mid-segment",
                ));
            }
            let width = cast::usize_from_u32(dims.0);
            let motion = estimate_motion(samples, &self.prev, width);
            motion_residual(samples, &self.prev, width, motion, &mut self.residual);
            encode_runs(&self.residual, &mut self.runs);
            motion
        };
        let score = (!self.chunks.is_empty()).then(|| mean_wrapped_distance(samples, &self.prev));
        self.meta.record(source_index, score);
        let frame = EncodedFrame {
            source_index,
            width: dims.0,
            height: dims.1,
            is_key,
            motion,
            payload: self.runs.to_vec(),
            objects,
            signal_retention,
        };
        match self.chunks.last_mut() {
            Some(chunk) if !is_key => chunk.frames.push(frame),
            _ => self.chunks.push(EncodedChunk {
                frames: vec![frame],
            }),
        }
        self.prev.clear();
        self.prev.extend_from_slice(samples);
        self.prev_dims = dims;
        Ok(())
    }

    /// The encoded segment and its sidecar.
    pub(crate) fn finish(self) -> (EncodedSegment, SegmentMeta) {
        let segment = EncodedSegment {
            fidelity: self.fidelity,
            keyframe_interval: self.keyframe_interval,
            speed: self.speed,
            chunks: self.chunks,
        };
        (segment, self.meta)
    }
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

/// Where the samples of the frame just reconstructed live: a delta frame
/// is rebuilt against a reference to them, never a copy.
enum Predecessor {
    /// No frame of this GOP has been decoded yet.
    None,
    /// The last frame pushed to `Decoder::frames`.
    Emitted,
    /// `Decoder::held[..len]`: decoded for prediction only.
    Held(usize),
}

/// The decoder's state across the GOPs of one segment.
pub(crate) struct Decoder {
    fidelity: Fidelity,
    /// `None` emits every frame.
    sampling: Option<FrameSampling>,
    /// Expansion target (see [`expand_runs`]), reused by every frame.
    scratch: Vec<u8>,
    /// The reconstructed predecessor when it was not emitted.
    held: Vec<u8>,
    frames: Vec<VideoFrame>,
    stats: DecodeStats,
}

impl Decoder {
    /// A decoder stamping `fidelity` on the frames a consumer sampling at
    /// `sampling` (of the original 30 fps stream) needs.
    pub(crate) fn new(fidelity: Fidelity, sampling: Option<FrameSampling>) -> Self {
        Decoder {
            fidelity,
            sampling,
            scratch: Vec::new(),
            held: Vec::new(),
            frames: Vec::new(),
            stats: DecodeStats::default(),
        }
    }

    /// Decode one GOP, draining `records`: skip it when it holds no sampled
    /// frame, else stop at its last sampled one.
    pub(crate) fn chunk(&mut self, records: &mut Vec<FrameRecord<'_>>) -> Result<()> {
        let sampling = self.sampling;
        let wanted =
            |r: &FrameRecord<'_>| sampling.is_none_or(|s| sampling_selects(r.source_index, s));
        let Some(last_wanted) = records.iter().rposition(wanted) else {
            self.stats.chunks_skipped += 1;
            records.clear();
            return Ok(());
        };
        let mut predecessor = Predecessor::None;
        for record in records.drain(..).take(last_wanted + 1) {
            let len = record.sample_count()?;
            expand_runs(record.payload, len, &mut self.scratch)?;
            let expanded = &mut self.scratch[..len];
            // A delta frame's payload is the residual against the frame
            // before it, shifted; a keyframe's is the samples themselves.
            let reference = if record.is_key {
                None
            } else {
                let samples = match predecessor {
                    Predecessor::None => {
                        return Err(VStoreError::corruption(
                            "delta frame without a decoded predecessor",
                        ))
                    }
                    Predecessor::Emitted => {
                        self.frames.last().map_or(&[][..], |f| f.plane.samples())
                    }
                    Predecessor::Held(held_len) => &self.held[..held_len],
                };
                if samples.len() != len {
                    return Err(VStoreError::corruption("predecessor dimensions mismatch"));
                }
                Some(samples)
            };
            self.stats.frames_decoded += 1;
            let width = cast::usize_from_u32(record.width);
            if wanted(&record) {
                let samples: Vec<u8> = match reference {
                    None => expanded.to_vec(),
                    Some(prev) => {
                        let mut samples = Vec::with_capacity(len);
                        reconstruct(expanded, prev, width, record.motion, &mut samples);
                        samples
                    }
                };
                let plane = BlockPlane::from_samples(record.width, record.height, samples)
                    .ok_or_else(|| VStoreError::corruption("frame sample count mismatch"))?;
                self.stats.frames_emitted += 1;
                self.frames.push(VideoFrame {
                    source_index: record.source_index,
                    fidelity: self.fidelity,
                    plane,
                    objects: record.objects.into_owned(),
                    signal_retention: record.signal_retention,
                });
                predecessor = Predecessor::Emitted;
            } else {
                if let Some(prev) = reference {
                    reconstruct_in_place(expanded, prev, width, record.motion);
                }
                std::mem::swap(&mut self.held, &mut self.scratch);
                predecessor = Predecessor::Held(len);
            }
        }
        Ok(())
    }

    /// The emitted frames, in presentation order, and what decoding them took.
    pub(crate) fn finish(self) -> (Vec<VideoFrame>, DecodeStats) {
        (self.frames, self.stats)
    }
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
    let mut decoder = Decoder::new(segment.fidelity, consumer_sampling);
    let mut records = Vec::new();
    for chunk in &segment.chunks {
        records.extend(chunk.frames.iter().map(EncodedFrame::record));
        decoder.chunk(&mut records)?;
    }
    Ok(decoder.finish())
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
    use crate::reference::{
        scalar_encode_runs, scalar_expand_runs, scalar_motion_vector, scalar_reconstruct,
        scalar_residual,
    };
    use vstore_datasets::{Dataset, VideoSource};
    use vstore_types::check::Gen;
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

    fn runs(data: &[u8]) -> Vec<u8> {
        let mut out = vec![7; 3];
        encode_runs(data, &mut out);
        out
    }

    fn expand(data: &[u8], expected_len: usize) -> Result<Vec<u8>> {
        let mut scratch = Vec::new();
        expand_runs(data, expected_len, &mut scratch)?;
        Ok(scratch[..expected_len].to_vec())
    }

    #[test]
    fn rle_round_trip() {
        let data = vec![0u8, 0, 0, 0, 5, 5, 7, 0, 0, 0, 0, 0, 0, 0, 0, 3];
        let enc = runs(&data);
        // A repeat of four, three literals, a repeat of eight, one literal.
        assert_eq!(enc, [129, 0, 2, 5, 5, 7, 133, 0, 0, 3]);
        assert_eq!(expand(&enc, data.len()).unwrap(), data);
        // Runs at and past a control byte's reach: 130 is one repeat; 131
        // and 132 leave one and two literals behind; 129 distinct samples
        // need two literal runs.
        assert_eq!(runs(&[9; 130]), [255, 9]);
        assert_eq!(runs(&[9; 131]), [255, 9, 0, 9]);
        assert_eq!(runs(&[9; 132]), [255, 9, 1, 9, 9]);
        let distinct: Vec<u8> = (0..129).collect();
        let enc = runs(&distinct);
        assert_eq!((enc[0], enc[129], enc.len()), (127, 0, 131));
        assert_eq!(expand(&enc, distinct.len()).unwrap(), distinct);
        // Long runs exceed one repeat and still round-trip.
        let long = vec![9u8; 1000];
        let enc = runs(&long);
        assert_eq!(enc.len(), 16);
        assert_eq!(expand(&enc, long.len()).unwrap(), long);
        // Empty input.
        assert!(runs(&[]).is_empty());
        assert!(expand(&[], 0).unwrap().is_empty());
    }

    /// Samples made of seeded pieces at the coder's edges: runs of 1, 2,
    /// 3, 129, 130, 131 and 260 equal samples and literal stretches (no
    /// two neighbours equal) of 127, 128, 129 and 256, each piece unequal
    /// to the sample before it; some seeds draw from three values only,
    /// so equal neighbours also fall where they may.
    fn seeded_runs(seed: u64, pieces: usize) -> Vec<u8> {
        const RUNS: [usize; 7] = [1, 2, 3, 129, 130, 131, 260];
        const LITERALS: [usize; 4] = [127, 128, 129, 256];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let alphabet = if seed % 4 == 3 { 3 } else { 256 };
        let mut data: Vec<u8> = Vec::new();
        // A value unequal to the last sample.
        let fresh = |data: &[u8], r: u64| {
            let v = r % alphabet;
            let v = if data.last() == Some(&(v as u8)) {
                (v + 1) % alphabet
            } else {
                v
            };
            v as u8
        };
        for _ in 0..pieces {
            let r = next();
            if r % 3 == 0 {
                let len = LITERALS[(r >> 8) as usize % LITERALS.len()];
                for _ in 0..len {
                    let v = fresh(&data, next());
                    data.push(v);
                }
            } else {
                let len = RUNS[(r >> 8) as usize % RUNS.len()];
                let v = fresh(&data, next());
                data.resize(data.len() + len, v);
            }
        }
        data
    }

    /// The word-at-a-time coder writes the scalar coder's bytes: on seeded
    /// pieces at every run and flush edge, cut to every short tail, and on
    /// literal stretches that bring a two-sample run up to, onto and
    /// across the 128-literal flush.
    #[test]
    fn run_coder_is_byte_identical_to_the_scalar_coder() {
        let (mut ours, mut theirs) = (Vec::new(), Vec::new());
        let mut check = |data: &[u8]| {
            encode_runs(data, &mut ours);
            scalar_encode_runs(data, &mut theirs);
            assert_eq!(ours, theirs, "{} samples: {data:?}", data.len());
            assert_eq!(expand(&ours, data.len()).unwrap(), data);
            assert_eq!(scalar_expand_runs(&ours), data);
        };
        for seed in 0..64 {
            let data = seeded_runs(seed, 40);
            check(&data);
            // Every tail shorter than a word, and off-word starts.
            for cut in 0..=2 * WORD {
                check(&data[..data.len().saturating_sub(cut)]);
                check(&data[cut.min(data.len())..]);
            }
        }
        let long = seeded_runs(64, 40);
        for len in 0..=300 {
            check(&long[..len]);
        }
        // n literals, then a two-sample run, then literals again: at 126
        // the run fills the literal run to 128, at 127 it would straddle the
        // flush and opens the next literal run instead.
        for n in 120..=136 {
            for after in [0, 1, 2, 5, 9, 130] {
                let mut data: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
                let last = data.last().copied().unwrap_or(0);
                data.extend([last + 7, last + 7]);
                data.extend((0..after).map(|i| 50 + (i % 2) as u8));
                check(&data);
            }
        }
        for data in [
            &[][..],
            &[5],
            &[5, 5],
            &[5, 5, 5],
            &[1, 2, 1, 2, 1, 2, 1, 2, 2],
        ] {
            check(data);
        }
    }

    #[test]
    fn rle_rejects_corrupt_payloads() {
        for (data, expected_len) in [
            (&[2u8, 7][..], 3),   // a literal run past the end of the payload
            (&[127, 7, 7], 128),  // a long one
            (&[0, 7, 128], 4),    // a repeat missing its value byte
            (&[255], 130),        // the same, alone
            (&[1, 7, 7], 1),      // a literal run past the frame
            (&[128, 7], 2),       // a short repeat past the frame
            (&[255, 7], 129),     // a long one
            (&[0, 7, 128, 7], 3), // a repeat behind a literal, past the frame
            (&[128, 7, 0, 7], 3), // a literal behind a repeat, past the frame
            (&[0, 7, 0, 7], 1),   // a run after the frame is full
            (&[0, 7], 2),         // a payload that ends short of the frame
            (&[128, 7], 4),       // the same after a repeat
            (&[], 1),             // an empty payload for a non-empty frame
        ] {
            let err = expand(data, expected_len).unwrap_err();
            assert!(matches!(err, VStoreError::Corruption(_)), "{data:?}: {err}");
        }
    }

    /// The pair coder the literal-run coder replaced, kept as the reference
    /// its output is held to: `(run, value)` pairs of up to 255 samples.
    fn reference_rle_encode(data: &[u8]) -> Vec<u8> {
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
                out.push(run as u8);
                out.push(current);
                current = b;
                run = 1;
            }
        }
        out.push(run as u8);
        out.push(current);
        out
    }

    /// The pair coder's first decoder: grow the output a run at a time.
    fn reference_rle_decode(data: &[u8], expected_len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(expected_len);
        for pair in data.chunks_exact(2) {
            out.resize(out.len() + usize::from(pair[0]), pair[1]);
        }
        assert_eq!(out.len(), expected_len);
        out
    }

    /// What a delta frame `cur` codes against `prev` by the per-sample
    /// references: the vector the exhaustive search picks, and the residual
    /// under it, sample by sample.
    fn reference_residual(cur: &BlockPlane, prev: &BlockPlane) -> (MotionVector, Vec<u8>) {
        let width = cur.width() as usize;
        let (dx, dy) = scalar_motion_vector(cur.samples(), prev.samples(), width);
        let residual = scalar_residual(cur.samples(), prev.samples(), width, (dx, dy));
        (MotionVector { dx, dy }, residual)
    }

    /// `encode_segment` as it was over the pair coder: the same GOPs,
    /// vectors and residuals, pair-coded; unless `shifted`, every delta
    /// frame is coded under the zero vector, as the pair-coded `VSSEG1`
    /// format stored it.
    fn reference_encode(
        frames: &[VideoFrame],
        interval: KeyframeInterval,
        shifted: bool,
    ) -> EncodedSegment {
        let chunks = frames
            .chunks(interval.frames() as usize)
            .map(|group| EncodedChunk {
                frames: group
                    .iter()
                    .enumerate()
                    .map(|(i, frame)| {
                        let (motion, source) = match i.checked_sub(1) {
                            None => (MotionVector::ZERO, frame.plane.samples().to_vec()),
                            Some(p) if shifted => reference_residual(&frame.plane, &group[p].plane),
                            Some(p) => {
                                let (cur, prev) = (frame.plane.samples(), group[p].plane.samples());
                                let width = frame.plane.width() as usize;
                                (
                                    MotionVector::ZERO,
                                    scalar_residual(cur, prev, width, (0, 0)),
                                )
                            }
                        };
                        EncodedFrame {
                            source_index: frame.source_index,
                            width: frame.plane.width(),
                            height: frame.plane.height(),
                            is_key: i == 0,
                            motion,
                            payload: reference_rle_encode(&source),
                            objects: frame.objects.clone(),
                            signal_retention: frame.signal_retention,
                        }
                    })
                    .collect(),
            })
            .collect();
        EncodedSegment {
            fidelity: frames[0].fidelity,
            keyframe_interval: interval,
            speed: SpeedStep::Fast,
            chunks,
        }
    }

    /// The pair coder's decoder: add the shifted predecessor sample by
    /// sample, copy the plane for the next frame.
    fn reference_decode(
        segment: &EncodedSegment,
        sampling: Option<FrameSampling>,
    ) -> (Vec<VideoFrame>, DecodeStats) {
        let mut out = Vec::new();
        let mut stats = DecodeStats::default();
        for chunk in &segment.chunks {
            let wanted =
                |f: &EncodedFrame| sampling.is_none_or(|s| sampling_selects(f.source_index, s));
            let Some(last_wanted) = chunk.frames.iter().rposition(wanted) else {
                stats.chunks_skipped += 1;
                continue;
            };
            let mut prev: Option<Vec<u8>> = None;
            for encoded in &chunk.frames[..=last_wanted] {
                let len = (encoded.width * encoded.height) as usize;
                let mut samples = reference_rle_decode(&encoded.payload, len);
                if !encoded.is_key {
                    let prev = prev.as_ref().unwrap();
                    let motion = (encoded.motion.dx, encoded.motion.dy);
                    samples = scalar_reconstruct(&samples, prev, encoded.width as usize, motion);
                }
                prev = Some(samples.clone());
                stats.frames_decoded += 1;
                if wanted(encoded) {
                    stats.frames_emitted += 1;
                    out.push(VideoFrame {
                        source_index: encoded.source_index,
                        fidelity: segment.fidelity,
                        plane: BlockPlane::from_samples(encoded.width, encoded.height, samples)
                            .unwrap(),
                        objects: encoded.objects.clone(),
                        signal_retention: encoded.signal_retention,
                    });
                }
            }
        }
        (out, stats)
    }

    /// Frames whose planes (and whose deltas against each other) are made
    /// of stretches of runs at both coders' edges: literal stretches of up
    /// to 200 samples, runs of 1, 2, 3, 8 and 9, repeats of 129 to 132 and
    /// longer than a pair's 255, some ending the plane on a run shorter than
    /// a splat; every third frame repeats its predecessor, so its delta is
    /// one value throughout.
    fn run_structured_frames(n: u32) -> Vec<VideoFrame> {
        // (run length, runs in a row)
        const STRETCHES: [(usize, usize); 14] = [
            (1, 200),
            (2, 3),
            (3, 1),
            (8, 1),
            (1, 127),
            (9, 1),
            (1, 128),
            (130, 1),
            (131, 1),
            (2, 64),
            (132, 1),
            (1, 129),
            (256, 1),
            (700, 1),
        ];
        let mut frames = test_frames(Dataset::Jackson, storage_fidelity(), n);
        let (width, height) = (61u32, 43u32);
        let len = (width * height) as usize;
        let mut previous: Option<BlockPlane> = None;
        for (f, frame) in frames.iter_mut().enumerate() {
            let plane = match previous.take() {
                Some(plane) if f % 3 == 2 => plane,
                _ => {
                    let mut samples = Vec::with_capacity(len);
                    let mut run = 0;
                    for stretch in f.. {
                        let (length, count) = STRETCHES[stretch % STRETCHES.len()];
                        for _ in 0..count {
                            // Neighbouring runs differ by 17, so never merge.
                            let value = (f * 31 + run * 17) as u8;
                            samples.resize((samples.len() + length).min(len), value);
                            run += 1;
                        }
                        if samples.len() == len {
                            break;
                        }
                    }
                    BlockPlane::from_samples(width, height, samples).unwrap()
                }
            };
            previous = Some(plane.clone());
            frame.plane = plane;
        }
        frames
    }

    #[test]
    fn literal_run_coder_is_bit_identical_to_the_pair_coder_reference() {
        let frames = run_structured_frames(120);
        let samplings = FrameSampling::ALL.map(Some).into_iter().chain([None]);
        for sampling in samplings {
            let input: Vec<VideoFrame> = frames
                .iter()
                .filter(|f| sampling.is_none_or(|s| sampling_selects(f.source_index, s)))
                .cloned()
                .collect();
            for interval in KeyframeInterval::ALL {
                let segment = encode_segment(&frames, interval, SpeedStep::Fast).unwrap();
                let reference = reference_encode(&frames, interval, true);
                // Only the entropy coding differs: the same GOPs, keyframes
                // and side-band data, and payloads that expand to the same
                // samples.
                assert_eq!(segment.chunks.len(), reference.chunks.len());
                for (ours, theirs) in segment.chunks.iter().zip(&reference.chunks) {
                    for (ours, theirs) in ours.frames.iter().zip(&theirs.frames) {
                        let len = (ours.width * ours.height) as usize;
                        assert_eq!(
                            EncodedFrame {
                                payload: expand(&ours.payload, len).unwrap(),
                                ..ours.clone()
                            },
                            EncodedFrame {
                                payload: reference_rle_decode(&theirs.payload, len),
                                ..theirs.clone()
                            }
                        );
                    }
                }
                let expected = reference_decode(&reference, sampling);
                assert_eq!(expected.0, input, "{interval:?} {sampling:?}");
                assert_eq!(
                    decode_segment_with_stats(&segment, sampling).unwrap(),
                    expected,
                    "{interval:?} {sampling:?}"
                );
                // The same frames decoded where they lie in the container.
                if let Some(sampling) = sampling {
                    let bytes = crate::SegmentData::Encoded(segment).to_bytes();
                    let decoded = crate::SegmentData::decode_bytes(&bytes, sampling).unwrap();
                    assert_eq!(
                        (decoded.frames, decoded.stats),
                        expected,
                        "{interval:?} {sampling:?}"
                    );
                    assert_eq!(decoded.frame_count, frames.len());
                }
            }
        }
    }

    /// `encode_segment` as it was before the encoder coded frames as they
    /// arrive: a residual `Vec` per frame, each payload coded on its own,
    /// the vector and the residual taken by the per-sample references (an
    /// exhaustive SAD per candidate, then the residual sample by sample).
    /// Kept as the reference the streaming encoder is held to, byte for
    /// byte.
    fn previous_encode_segment(
        frames: &[VideoFrame],
        keyframe_interval: KeyframeInterval,
        speed: SpeedStep,
    ) -> EncodedSegment {
        let gop = keyframe_interval.frames() as usize;
        let mut chunks = Vec::new();
        for group in frames.chunks(gop) {
            let mut encoded_frames = Vec::with_capacity(group.len());
            let mut prev: Option<&VideoFrame> = None;
            for frame in group {
                let (motion, payload_source) = match prev {
                    None => (MotionVector::ZERO, frame.plane.samples().to_vec()),
                    Some(p) => reference_residual(&frame.plane, &p.plane),
                };
                encoded_frames.push(EncodedFrame {
                    source_index: frame.source_index,
                    width: frame.plane.width(),
                    height: frame.plane.height(),
                    is_key: prev.is_none(),
                    motion,
                    payload: runs(&payload_source),
                    objects: frame.objects.clone(),
                    signal_retention: frame.signal_retention,
                });
                prev = Some(frame);
            }
            chunks.push(EncodedChunk {
                frames: encoded_frames,
            });
        }
        EncodedSegment {
            fidelity: frames[0].fidelity,
            keyframe_interval,
            speed,
            chunks,
        }
    }

    /// The streaming encoder writes the bytes the per-frame `Vec` encoder
    /// writes, and scores every frame as the sidecar reference does from
    /// the reconstructed frames.
    #[test]
    fn streaming_encoder_is_bit_identical_to_the_previous_encoder() {
        // (frames, whether the camera pans)
        let inputs = [
            (run_structured_frames(60), false),
            (test_frames(Dataset::Dashcam, storage_fidelity(), 60), true),
        ];
        for (frames, pans) in &inputs {
            for interval in KeyframeInterval::ALL {
                let mut encoder =
                    SegmentEncoder::new(frames[0].fidelity, interval, SpeedStep::Slow);
                for frame in frames {
                    encoder
                        .push(
                            frame.source_index,
                            &frame.plane,
                            frame.objects.clone(),
                            frame.signal_retention,
                        )
                        .unwrap();
                }
                let (segment, meta) = encoder.finish();
                let expected = previous_encode_segment(frames, interval, SpeedStep::Slow);
                assert_eq!(segment, expected, "{interval:?}");
                // On a panning camera the reference's own search shifts
                // most delta frames of the one 60-frame GOP (49 of 59).
                if *pans && interval == KeyframeInterval::K250 {
                    let frames = expected.chunks.iter().flat_map(|c| &c.frames);
                    let shifted = frames.filter(|f| f.motion != MotionVector::ZERO).count();
                    assert!(shifted >= 45, "{shifted} of 59 delta frames shifted");
                }
                for (ours, theirs) in segment.chunks.iter().zip(&expected.chunks) {
                    for (ours, theirs) in ours.frames.iter().zip(&theirs.frames) {
                        assert_eq!(ours.payload.capacity(), theirs.payload.len());
                    }
                }
                let encoded = crate::SegmentData::Encoded(expected);
                assert_eq!(
                    meta,
                    SegmentMeta::from_segment(&encoded).unwrap(),
                    "{interval:?}"
                );
            }
        }
    }

    /// Segment `segment` of `dataset` in query A's golden storage format
    /// (what configuring a store for `QuerySpec::query_a(0.8)` derives as
    /// format 0): 240 frames of 139 × 78 samples per segment, one GOP.
    fn query_a_golden(dataset: Dataset, segment: u64) -> (Vec<VideoFrame>, EncodedSegment) {
        let fidelity = Fidelity::new(
            ImageQuality::Good,
            CropFactor::C75,
            Resolution::R720,
            FrameSampling::Full,
        );
        let frames = materialize_clip(&VideoSource::new(dataset).segment(segment), fidelity);
        let segment = encode_segment(&frames, KeyframeInterval::K250, SpeedStep::Slowest).unwrap();
        (frames, segment)
    }

    /// The golden format is lossless under motion compensation on every
    /// camera: segments 0, 3 and 31 of each dataset, decoded where they lie
    /// in the container at full, 2/3 and 1/30 sampling, give exactly the
    /// frames — planes, objects and all — that materialising the scene
    /// gives; and the encoder shifts its prediction on every panning
    /// camera's segments.
    #[test]
    fn golden_segments_of_every_dataset_decode_to_the_materialised_frames() {
        for dataset in Dataset::ALL {
            for index in [0, 3, 31] {
                let (frames, segment) = query_a_golden(dataset, index);
                let shifted = segment.chunks[0]
                    .frames
                    .iter()
                    .filter(|f| f.motion != MotionVector::ZERO)
                    .count();
                assert!(shifted > 0, "{dataset:?} segment {index}: no frame shifted");
                let bytes = crate::SegmentData::Encoded(segment).to_bytes();
                for sampling in [
                    FrameSampling::Full,
                    FrameSampling::S2_3,
                    FrameSampling::S1_30,
                ] {
                    let expected: Vec<VideoFrame> = frames
                        .iter()
                        .filter(|f| sampling_selects(f.source_index, sampling))
                        .cloned()
                        .collect();
                    let decoded = crate::SegmentData::decode_bytes(&bytes, sampling).unwrap();
                    assert_eq!(decoded.frame_count, frames.len());
                    assert!(
                        decoded.frames == expected,
                        "{dataset:?} segment {index} at {sampling:?}"
                    );
                }
            }
        }
    }

    /// Frames of `width × height` samples for the motion properties: a
    /// random keyframe, then frames that are it panned by a random vector
    /// with a few samples changed, or fresh noise.
    fn panned_frames(g: &mut Gen) -> (usize, Vec<Vec<u8>>) {
        let width = 1 + g.len(159);
        let height = 1 + g.len(89);
        let len = width * height;
        let noise = |g: &mut Gen| -> Vec<u8> { (0..len).map(|_| g.below(256) as u8).collect() };
        let mut frames = vec![noise(g)];
        for _ in 0..3 {
            let prev = frames.last().unwrap();
            let next = if g.below(4) == 0 {
                noise(g)
            } else {
                let pan = (g.below(7) as i8 - 3, g.below(3) as i8 - 1);
                let mut next = scalar_reconstruct(&vec![0; len], prev, width, pan);
                for _ in 0..g.below(len as u64 / 8 + 1) {
                    next[g.below(len as u64) as usize] = g.below(256) as u8;
                }
                next
            };
            frames.push(next);
        }
        (width, frames)
    }

    /// The motion kernels equal their per-sample references: on the
    /// frames of every dataset's golden segment 0, and on random planes
    /// from 1 × 1 to 160 × 90 under every vector the container admits.
    #[test]
    fn motion_kernels_equal_their_scalar_references() {
        let check_vector = |cur: &[u8], prev: &[u8], width: usize, motion: MotionVector| {
            let scalar = (motion.dx, motion.dy);
            let mut residual = Vec::new();
            motion_residual(cur, prev, width, motion, &mut residual);
            assert_eq!(residual, scalar_residual(cur, prev, width, scalar));
            let mut back = Vec::new();
            reconstruct(&residual, prev, width, motion, &mut back);
            assert_eq!(back, scalar_reconstruct(&residual, prev, width, scalar));
            assert_eq!(back, cur);
            let mut in_place = residual;
            reconstruct_in_place(&mut in_place, prev, width, motion);
            assert_eq!(in_place, cur);
        };
        for dataset in Dataset::ALL {
            let (frames, _) = query_a_golden(dataset, 0);
            for pair in frames.windows(2) {
                let (cur, prev) = (pair[1].plane.samples(), pair[0].plane.samples());
                let width = pair[1].plane.width() as usize;
                let motion = estimate_motion(cur, prev, width);
                assert_eq!(
                    (motion.dx, motion.dy),
                    scalar_motion_vector(cur, prev, width)
                );
                check_vector(cur, prev, width, motion);
            }
        }
        vstore_types::check::check(
            64,
            0x3e5,
            |g| {
                let (width, frames) = panned_frames(g);
                let vectors: Vec<(i8, i8)> = (0..8)
                    .map(|_| (g.below(15) as i8 - 7, g.below(15) as i8 - 7))
                    .chain([(7, 7), (-7, -7), (7, -7), (-7, 7)])
                    .collect();
                (width, frames, vectors)
            },
            |(width, frames, vectors)| {
                for pair in frames.windows(2) {
                    let (cur, prev) = (&pair[1], &pair[0]);
                    let motion = estimate_motion(cur, prev, width);
                    assert_eq!(
                        (motion.dx, motion.dy),
                        scalar_motion_vector(cur, prev, width)
                    );
                    for &(dx, dy) in vectors.iter().chain([&(motion.dx, motion.dy)]) {
                        check_vector(cur, prev, width, MotionVector { dx, dy });
                    }
                }
            },
        );
    }

    /// Any plane from 1 × 1 to 160 × 90 round-trips through the container
    /// under any vector it admits, ±7 and planes narrower or shorter than
    /// the vector included: each delta frame coded under a random vector,
    /// serialised, and decoded in place at every sampling.
    #[test]
    fn random_planes_round_trip_under_random_vectors() {
        vstore_types::check::check(
            64,
            0x3e6,
            |g| {
                let (width, frames) = panned_frames(g);
                let vectors: Vec<MotionVector> = (1..frames.len())
                    .map(|_| MotionVector {
                        dx: g.pick(&[-7, 7, -1, 0, 2]) as i8,
                        dy: g.below(15) as i8 - 7,
                    })
                    .collect();
                (width, frames, vectors)
            },
            |(width, frames, vectors)| {
                let height = frames[0].len() / width;
                let frame = |i: usize, motion: MotionVector| {
                    let payload = match i.checked_sub(1) {
                        None => runs(&frames[0]),
                        Some(p) => {
                            let mut residual = Vec::new();
                            motion_residual(&frames[i], &frames[p], width, motion, &mut residual);
                            runs(&residual)
                        }
                    };
                    EncodedFrame {
                        source_index: i as u64,
                        width: width as u32,
                        height: height as u32,
                        is_key: i == 0,
                        motion,
                        payload,
                        objects: Vec::new(),
                        signal_retention: 1.0,
                    }
                };
                let coded = std::iter::once(MotionVector::ZERO)
                    .chain(vectors.iter().copied())
                    .enumerate()
                    .map(|(i, motion)| frame(i, motion))
                    .collect();
                let segment = EncodedSegment {
                    fidelity: storage_fidelity(),
                    keyframe_interval: KeyframeInterval::K5,
                    speed: SpeedStep::Fast,
                    chunks: vec![EncodedChunk { frames: coded }],
                };
                let bytes = crate::SegmentData::Encoded(segment.clone()).to_bytes();
                assert_eq!(
                    crate::SegmentData::from_bytes(&bytes).unwrap(),
                    crate::SegmentData::Encoded(segment)
                );
                for sampling in FrameSampling::ALL {
                    let decoded = crate::SegmentData::decode_bytes(&bytes, sampling).unwrap();
                    let expected: Vec<(u64, &[u8])> = (0..frames.len() as u64)
                        .filter(|&i| sampling_selects(i, sampling))
                        .map(|i| (i, frames[i as usize].as_slice()))
                        .collect();
                    let got: Vec<(u64, &[u8])> = decoded
                        .frames
                        .iter()
                        .map(|f| (f.source_index, f.plane.samples()))
                        .collect();
                    assert_eq!(got, expected, "{sampling:?}");
                }
            },
        );
    }

    /// The pair coder spent about as many bytes on a golden segment as it
    /// has samples (92 % of its pairs were runs of one); literals cost one
    /// byte each, and predicting each frame from its shifted predecessor
    /// leaves residuals of mostly short runs. Segment 0 of every dataset
    /// needs at most 16 % of the pair-coded `VSSEG1` payload (11.7–15.3 %
    /// measured), at most 30 % of the plain-delta `VSSEG2` one (the same
    /// literal runs under the zero vector; 21–29 % measured) and at most
    /// 30 % of its RAW container (5.9–29 %); the bench's dataset, Jackson,
    /// at most 14 % of RAW (13.1 %; `VSSEG2`: 55 %).
    #[test]
    fn the_golden_format_really_compresses_on_every_dataset() {
        for dataset in Dataset::ALL {
            let (frames, segment) = query_a_golden(dataset, 0);
            let pair_coded = reference_encode(&frames, KeyframeInterval::K250, false);
            let (ours, theirs) = (segment.payload_bytes(), pair_coded.payload_bytes());
            let plain: usize = pair_coded.chunks[0]
                .frames
                .iter()
                .map(|f| {
                    let len = (f.width * f.height) as usize;
                    runs(&reference_rle_decode(&f.payload, len)).len()
                })
                .sum();
            let fidelity = segment.fidelity;
            let container = crate::SegmentData::Encoded(segment).to_bytes().len();
            let raw = crate::SegmentData::Raw(crate::container::RawSegment { fidelity, frames })
                .to_bytes()
                .len();
            assert!(
                ours * 100 <= theirs * 16
                    && ours * 100 <= plain * 30
                    && container * 100 <= raw * 30,
                "{dataset:?}: payload {ours} vs the pair coder's {theirs} and plain deltas' \
                 {plain}, container {container} vs RAW {raw}"
            );
            if dataset == Dataset::Jackson {
                assert!(container * 100 <= raw * 14, "{container} vs RAW {raw}");
            }
        }
    }

    #[test]
    fn frames_declaring_more_samples_than_their_payload_holds_are_corrupt() {
        let frames = test_frames(Dataset::Jackson, storage_fidelity(), 2);
        let mut segment = encode_segment(&frames, KeyframeInterval::K5, SpeedStep::Fast).unwrap();
        // 4 294 836 225 samples over a one-repeat payload: nothing may be
        // sized from the dimensions before they are held against it.
        let frame = &mut segment.chunks[0].frames[0];
        (frame.width, frame.height) = (65_535, 65_535);
        frame.payload = vec![255, 0];
        for result in [
            decode_segment(&segment).map(drop),
            crate::SegmentMeta::from_segment(&crate::SegmentData::Encoded(segment.clone()))
                .map(drop),
        ] {
            assert!(
                matches!(result, Err(VStoreError::Corruption(_))),
                "{result:?}"
            );
        }
        // The bound itself: 65 samples per payload byte (a repeat's 130 per
        // two), no more.
        let record = |width, payload: &'static [u8]| FrameRecord {
            source_index: 0,
            width,
            height: 1,
            is_key: true,
            motion: MotionVector::ZERO,
            payload,
            objects: Cow::Borrowed(&[]),
            signal_retention: 1.0,
        };
        assert_eq!(record(130, &[255, 0]).sample_count().unwrap(), 130);
        assert!(record(131, &[255, 0]).sample_count().is_err());
        assert_eq!(record(65, &[9]).sample_count().unwrap(), 65);
        assert!(record(66, &[9]).sample_count().is_err());
        assert_eq!(record(0, &[]).sample_count().unwrap(), 0);
        assert!(record(1, &[]).sample_count().is_err());
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
