//! The deterministic video source: generates [`SceneFrame`]s for a dataset.
//!
//! Generation is a pure function of `(profile.seed, frame index)`, so any
//! component can re-derive any frame at any time without coordination — the
//! property the profiler and the tests rely on.

use crate::plane::BlockPlane;
use crate::profile::{Dataset, DatasetProfile};
use crate::scene::{BoundingBox, ObjectClass, ObjectColor, PlateText, SceneFrame, SceneObject};
use vstore_types::DeterministicHasher;
use vstore_types::{Resolution, Result, VStoreError};

/// Ingestion frame rate (frames per second).
pub const FRAME_RATE: u32 = 30;

/// Segment length in seconds (§4.1: 8-second segments).
pub const SEGMENT_SECONDS: u32 = 8;

/// Frames per segment.
pub const SEGMENT_FRAMES: u32 = FRAME_RATE * SEGMENT_SECONDS;

/// A deterministic synthetic video stream.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoSource {
    name: String,
    profile: DatasetProfile,
}

impl VideoSource {
    /// The source for one of the paper's six datasets.
    pub fn new(dataset: Dataset) -> Self {
        VideoSource {
            name: dataset.name().to_owned(),
            profile: dataset.profile(),
        }
    }

    /// A source with a custom profile (used by tests and examples).
    pub fn from_profile(name: impl Into<String>, profile: DatasetProfile) -> Self {
        VideoSource {
            name: name.into(),
            profile,
        }
    }

    /// The stream name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The content profile.
    pub fn profile(&self) -> &DatasetProfile {
        &self.profile
    }

    /// Check a source that came from outside the process before anything
    /// is generated from it: a non-empty stream name (the store keys
    /// segments by it) and a [valid](DatasetProfile::validate) profile.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(VStoreError::invalid_argument(
                "video source has an empty stream name",
            ));
        }
        self.profile.validate()
    }

    /// Motion intensity of the content, used by the coding cost model.
    pub fn motion_intensity(&self) -> f64 {
        self.profile.motion_intensity
    }

    // ------------------------------------------------------------------
    // Object generation
    // ------------------------------------------------------------------

    fn cycle_len_frames(&self) -> u64 {
        let slots = f64::from(self.profile.object_slots());
        let arrivals_per_frame = self.profile.object_arrivals_per_minute / 60.0 / 30.0;
        // Each slot produces one arrival per cycle.
        ((slots / arrivals_per_frame.max(1e-6)).round() as u64).max(60)
    }

    fn object_for_slot(&self, slot: u32, frame_index: u64) -> Option<SceneObject> {
        let cycle_len = self.cycle_len_frames();
        let cycle = frame_index / cycle_len;
        let offset = frame_index % cycle_len;

        let h = DeterministicHasher::new(self.profile.seed)
            .mix(0x00B9_EC75)
            .mix(u64::from(slot))
            .mix(cycle);

        // Dwell time of this particular object, jittered ±40 %.
        let dwell_frames =
            (self.profile.mean_dwell_seconds * 30.0 * h.mix(1).uniform(0.6, 1.4)).max(15.0);
        // Phase within the cycle at which the object enters.
        let entry = h.mix(2).unit() * (cycle_len as f64 - dwell_frames).max(1.0);
        let local = offset as f64 - entry;
        if local < 0.0 || local >= dwell_frames {
            return None;
        }
        let progress = (local / dwell_frames) as f32;

        let id = h.mix(3).value();
        let is_vehicle = h.mix(4).bernoulli(self.profile.vehicle_fraction);
        let class = if is_vehicle {
            ObjectClass::Vehicle {
                plate_visible: h.mix(5).bernoulli(self.profile.plate_visible_fraction),
            }
        } else if h.mix(6).bernoulli(0.7) {
            ObjectClass::Pedestrian
        } else {
            ObjectClass::Cyclist
        };
        let height = (self.profile.mean_object_height
            + h.mix(7).uniform(-1.0, 1.0) * self.profile.object_height_spread)
            .clamp(0.03, 0.6) as f32;
        let width = height * if is_vehicle { 1.8 } else { 0.5 };
        let color = ObjectColor::ALL[h.mix(8).below(ObjectColor::ALL.len() as u64) as usize];
        let plate = if is_vehicle {
            Some(PlateText::from_hash(h.mix(9).value()))
        } else {
            None
        };
        let salience = h.mix(10).uniform(0.45, 1.0) as f32;
        // Object crosses the frame horizontally over its dwell time; lane
        // position (y) is stable per object.
        let direction = if h.mix(11).bernoulli(0.5) { 1.0 } else { -1.0 };
        let x_start = if direction > 0.0 { -width } else { 1.0 };
        let travel = 1.0 + 2.0 * width;
        let x = x_start + direction * travel * progress;
        let y = h.mix(12).uniform(0.35, 0.75) as f32;
        let speed = (travel / (dwell_frames as f32 / 30.0)) * direction.abs();

        Some(SceneObject {
            id,
            class,
            bbox: BoundingBox::new(x, y, width, height),
            color,
            plate,
            salience,
            speed,
        })
    }

    // ------------------------------------------------------------------
    // Plane generation
    // ------------------------------------------------------------------

    /// How far camera motion has shifted the background's sampling grid by
    /// `frame_index`; static cameras keep it fixed, so consecutive frames
    /// are nearly identical.
    fn camera_shift(&self, frame_index: u64) -> i64 {
        (frame_index as f64 * self.profile.motion_intensity * 1.8).round() as i64
    }

    /// How many of the `remaining` frames from `start` one tile renders: at
    /// most [`SEGMENT_FRAMES`], and never a tile of more cells than its
    /// frames have samples (halved until so), so neither a long clip nor a
    /// fast camera makes the texture outgrow the frames it serves.
    fn tile_frames(&self, start: u64, remaining: usize) -> usize {
        let (w, h) = BlockPlane::dimensions_for(Resolution::R720);
        let mut frames = remaining.min(SEGMENT_FRAMES as usize);
        while frames > 1 {
            let (x, y) = self.tile_window(start, frames);
            let cells = (x.1 - x.0 + i128::from(w)).saturating_mul(y.1 - y.0 + i128::from(h));
            if cells <= frames as i128 * i128::from(w * h) {
                break;
            }
            frames /= 2;
        }
        frames.max(1)
    }

    /// The least and greatest camera shift (x) and shift / 3 (y) over
    /// frames `start..start + frames`. The shift is monotone in the frame
    /// index, so the first and last frames bound it.
    fn tile_window(&self, start: u64, frames: usize) -> ((i128, i128), (i128, i128)) {
        let first = self.camera_shift(start);
        let last = self.camera_shift(start.saturating_add(frames as u64 - 1));
        let span = |a: i64, b: i64| (i128::from(a.min(b)), i128::from(a.max(b)));
        (span(first, last), span(first / 3, last / 3))
    }

    /// Render frames `start..start + frames.len()` into `frames`, reusing
    /// their buffers and `scratch`'s.
    ///
    /// The background of frame `i` at `(x, y)` is a vertical gradient
    /// (sky → road) in `y` plus a hashed texture term of the world cell
    /// `(x + shift_i, y + shift_i / 3)`: consecutive frames are windows into
    /// one texture. So each world cell the frames cover is hashed once into
    /// the texture. Consecutive frames of one vertical shift `shift_i / 3`
    /// see the same texture rows at the same heights, and their horizontal
    /// shifts span a few columns, so such a group's background window is
    /// quantised once (gradient plus texture term, clamped to a byte) and
    /// each of its frames' rows is a slice of that window. The objects are
    /// rasterised over it.
    fn render_tile(&self, start: u64, frames: &mut [SceneFrame], scratch: &mut TileScratch) {
        let (w, h) = BlockPlane::dimensions_for(Resolution::R720);
        if frames.is_empty() {
            return;
        }
        let ((x_lo, x_hi), (y_lo, y_hi)) = self.tile_window(start, frames.len());
        let tile_w = (x_hi - x_lo) as usize + w as usize;
        let tile_h = (y_hi - y_lo) as usize + h as usize;
        let texture_amp = 55.0 * self.profile.background_texture;
        let prefix = DeterministicHasher::new(self.profile.seed).mix(0xBAC4_6000);
        let TileScratch {
            columns,
            texture,
            window,
        } = scratch;
        columns.clear();
        columns
            .extend((0..tile_w).map(|tx| prefix.mix((x_lo as i64).wrapping_add(tx as i64) as u64)));
        texture.clear();
        texture.reserve(tile_w * tile_h);
        for ty in 0..tile_h {
            let sy = (y_lo as i64).wrapping_add(ty as i64) as u64;
            texture.extend(columns.iter().map(|column| {
                let noise = column.mix(sy).unit();
                texture_amp * (noise - 0.5) * 2.0
            }));
        }
        let shift = |offset: usize| self.camera_shift(start + offset as u64);
        let mut first = 0;
        while first < frames.len() {
            let shift_y = shift(first) / 3;
            let end = (first + 1..frames.len())
                .find(|&offset| shift(offset) / 3 != shift_y)
                .unwrap_or(frames.len());
            // The shift is monotone in the frame index, so the group's first
            // and last frames bound its columns.
            let (a, b) = (shift(first), shift(end - 1));
            let (g_lo, g_hi) = (a.min(b), a.max(b));
            let window_w = (g_hi - g_lo) as usize + w as usize;
            // The window's origin in the texture.
            let x0 = (i128::from(g_lo) - x_lo) as usize;
            let y0 = (i128::from(shift_y) - y_lo) as usize;
            window.clear();
            for y in 0..h as usize {
                let base = 70.0 + 110.0 * (y as f64 / 90.0);
                let at = (y + y0) * tile_w + x0;
                window.extend(
                    texture[at..at + window_w]
                        .iter()
                        .map(|&term| (base + term).clamp(0.0, 255.0) as u8),
                );
            }
            for (offset, frame) in (first..end).zip(&mut frames[first..end]) {
                self.describe_frame(start + offset as u64, frame);
                let plane = &mut frame.plane;
                if plane.width() != w || plane.height() != h {
                    *plane = BlockPlane::filled(w, h, 0);
                }
                let dx = (shift(offset) - g_lo) as usize;
                let rows = plane.samples_mut().chunks_exact_mut(w as usize);
                for (row, source) in rows.zip(window.chunks_exact(window_w)) {
                    row.copy_from_slice(&source[dx..dx + w as usize]);
                }
                rasterise(&frame.objects, plane);
            }
            first = end;
        }
    }

    // ------------------------------------------------------------------
    // Public frame access
    // ------------------------------------------------------------------

    /// An empty frame shell for the renderer to fill.
    fn blank_frame() -> SceneFrame {
        let (w, h) = BlockPlane::dimensions_for(Resolution::R720);
        SceneFrame {
            index: 0,
            plane: BlockPlane::filled(w, h, 0),
            objects: Vec::new(),
            global_motion: 0.0,
        }
    }

    /// Set everything of frame `index` but its plane: the index, the
    /// objects present (reusing the list) and the global motion.
    fn describe_frame(&self, index: u64, out: &mut SceneFrame) {
        out.index = index;
        out.objects.clear();
        for slot in 0..self.profile.object_slots() {
            if let Some(obj) = self.object_for_slot(slot, index) {
                out.objects.push(obj);
            }
        }
        let jitter = DeterministicHasher::new(self.profile.seed)
            .mix(0x90710)
            .mix(index)
            .uniform(-0.05, 0.05);
        out.global_motion = (self.profile.motion_intensity + jitter).clamp(0.0, 1.0) as f32;
    }

    /// Generate the frame at the given index (30 fps) into `out`, reusing
    /// its object list and plane buffer: a one-frame tile, whose texture
    /// is scratch of this call. Value-identical to [`frame`](Self::frame);
    /// a [`FrameCursor`] streams frames reusing the texture too.
    pub fn frame_into(&self, index: u64, out: &mut SceneFrame) {
        self.render_tile(
            index,
            std::slice::from_mut(out),
            &mut TileScratch::default(),
        );
    }

    /// Generate the frame at the given index (30 fps).
    pub fn frame(&self, index: u64) -> SceneFrame {
        let mut out = Self::blank_frame();
        self.frame_into(index, &mut out);
        out
    }

    /// Generate a contiguous clip of frames into `out`, reusing its frames'
    /// buffers — value-identical to [`clip`](Self::clip). The clip is
    /// rendered in tiles of at most [`SEGMENT_FRAMES`] frames.
    pub fn clip_into(&self, start_frame: u64, num_frames: u32, out: &mut Vec<SceneFrame>) {
        let num_frames = num_frames as usize;
        out.truncate(num_frames);
        while out.len() < num_frames {
            out.push(Self::blank_frame());
        }
        let mut scratch = TileScratch::default();
        let mut done = 0;
        while done < num_frames {
            let start = start_frame + done as u64;
            let frames = self.tile_frames(start, num_frames - done);
            self.render_tile(start, &mut out[done..done + frames], &mut scratch);
            done += frames;
        }
    }

    /// Generate a contiguous clip of frames.
    pub fn clip(&self, start_frame: u64, num_frames: u32) -> Vec<SceneFrame> {
        let mut out = Vec::new();
        self.clip_into(start_frame, num_frames, &mut out);
        out
    }

    /// Generate all frames of the `segment_index`-th 8-second segment into
    /// `out`, reusing its buffers (see [`clip_into`](Self::clip_into)).
    pub fn segment_into(&self, segment_index: u64, out: &mut Vec<SceneFrame>) {
        self.clip_into(
            segment_index * u64::from(SEGMENT_FRAMES),
            SEGMENT_FRAMES,
            out,
        );
    }

    /// Generate all frames of the `segment_index`-th 8-second segment.
    pub fn segment(&self, segment_index: u64) -> Vec<SceneFrame> {
        self.clip(segment_index * u64::from(SEGMENT_FRAMES), SEGMENT_FRAMES)
    }

    /// An iterator over frames starting at `start_frame`.
    pub fn frames_from(&self, start_frame: u64) -> impl Iterator<Item = SceneFrame> + '_ {
        let mut cursor = self.frame_cursor(start_frame);
        std::iter::from_fn(move || Some(cursor.next_frame().clone()))
    }

    /// A streaming cursor over the frames from `start_frame` on: each
    /// [`next_frame`](FrameCursor::next_frame) renders a one-frame tile into
    /// one internal frame buffer and texture, so an unbounded stream
    /// touches the heap only while the buffers warm up. The allocating
    /// [`frames_from`](Self::frames_from) clones out of the same cursor.
    pub fn frame_cursor(&self, start_frame: u64) -> FrameCursor<'_> {
        FrameCursor {
            source: self,
            next_index: start_frame,
            frame: Self::blank_frame(),
            scratch: TileScratch::default(),
        }
    }
}

/// Rasterise `objects` over the background in `plane`, in order, each
/// blended by its salience so faint objects leave a fainter footprint.
///
/// A box covers the samples from `(bbox.x * width, bbox.y * height)` on,
/// at least one each way; whatever of it lies off the plane is clipped
/// once, and the rest is blended a row slice at a time.
pub fn rasterise(objects: &[SceneObject], plane: &mut BlockPlane) {
    let (w, h) = (plane.width(), plane.height());
    for obj in objects {
        let x0 = (obj.bbox.x * w as f32) as i64;
        let y0 = (obj.bbox.y * h as f32) as i64;
        let bw = ((obj.bbox.w * w as f32).ceil() as i64).max(1);
        let bh = ((obj.bbox.h * h as f32).ceil() as i64).max(1);
        let (Some((x_first, x_last)), Some((y_first, y_last))) = (clip(x0, bw, w), clip(y0, bh, h))
        else {
            continue;
        };
        let keep = 1.0 - obj.salience;
        let paint = f32::from(obj.color.luma()) * obj.salience;
        let rows = plane.samples_mut().chunks_exact_mut(w as usize);
        for row in rows.take(y_last + 1).skip(y_first) {
            for sample in &mut row[x_first..=x_last] {
                *sample = (f32::from(*sample) * keep + paint) as u8;
            }
        }
    }
}

/// The first and last of the `len` cells from `start` that lie on
/// `0..end`, if any does.
fn clip(start: i64, len: i64, end: u32) -> Option<(usize, usize)> {
    let first = start.max(0);
    let last = start.saturating_add(len - 1).min(i64::from(end) - 1);
    (first <= last).then_some((first as usize, last as usize))
}

/// The renderer's reusable buffers: one tile's column hashers and texture
/// terms, and one group's quantised background window.
#[derive(Debug, Clone, Default)]
struct TileScratch {
    columns: Vec<DeterministicHasher>,
    texture: Vec<f64>,
    window: Vec<u8>,
}

/// A streaming frame generator that reuses one frame buffer; see
/// [`VideoSource::frame_cursor`].
#[derive(Debug, Clone)]
pub struct FrameCursor<'a> {
    source: &'a VideoSource,
    next_index: u64,
    frame: SceneFrame,
    scratch: TileScratch,
}

impl FrameCursor<'_> {
    /// The index the next [`next_frame`](Self::next_frame) call will render.
    #[must_use]
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Render the next frame into the internal buffer and return it.
    pub fn next_frame(&mut self) -> &SceneFrame {
        let frame = std::slice::from_mut(&mut self.frame);
        self.source
            .render_tile(self.next_index, frame, &mut self.scratch);
        self.next_index += 1;
        &self.frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The renderers the grouped tile renderer replaced, kept as the
    /// references it is held to: the per-pixel renderer, and the tile
    /// renderer that quantised every frame's rows on their own and
    /// rasterised a pixel at a time.
    mod reference {
        use super::*;
        use crate::reference::per_pixel_rasterise;

        fn background_value(source: &VideoSource, x: u32, y: u32, frame_index: u64) -> u8 {
            // Camera motion shifts the sampling grid; static cameras keep it
            // fixed so consecutive frames are nearly identical.
            let shift = (frame_index as f64 * source.profile.motion_intensity * 1.8).round() as i64;
            let sx = i64::from(x) + shift;
            let sy = i64::from(y) + (shift / 3);
            // Smooth vertical gradient (sky → road) plus hashed texture.
            let base = 70.0 + 110.0 * (f64::from(y) / 90.0);
            let texture_amp = 55.0 * source.profile.background_texture;
            let noise = DeterministicHasher::new(source.profile.seed)
                .mix(0xBAC4_6000)
                .mix(sx as u64)
                .mix(sy as u64)
                .unit();
            (base + texture_amp * (noise - 0.5) * 2.0).clamp(0.0, 255.0) as u8
        }

        /// The frame at `frame_index`, every background sample hashed on
        /// its own.
        pub(super) fn frame(source: &VideoSource, frame_index: u64) -> SceneFrame {
            let mut frame = VideoSource::blank_frame();
            source.describe_frame(frame_index, &mut frame);
            let (w, h) = BlockPlane::dimensions_for(Resolution::R720);
            let plane = &mut frame.plane;
            let samples = plane.samples_mut();
            let mut i = 0usize;
            for y in 0..h {
                for x in 0..w {
                    samples[i] = background_value(source, x, y, frame_index);
                    i += 1;
                }
            }
            per_pixel_rasterise(&frame.objects, plane);
            frame
        }

        /// The tile renderer with the per-frame fill: every frame's rows
        /// are the row's gradient plus a slice of the texture, quantised on
        /// their own.
        fn render_tile(
            source: &VideoSource,
            start: u64,
            frames: &mut [SceneFrame],
            texture: &mut Vec<f64>,
        ) {
            let (w, h) = BlockPlane::dimensions_for(Resolution::R720);
            if frames.is_empty() {
                return;
            }
            let ((x_lo, x_hi), (y_lo, y_hi)) = source.tile_window(start, frames.len());
            let tile_w = (x_hi - x_lo) as usize + w as usize;
            let tile_h = (y_hi - y_lo) as usize + h as usize;
            let texture_amp = 55.0 * source.profile.background_texture;
            let prefix = DeterministicHasher::new(source.profile.seed).mix(0xBAC4_6000);
            let columns: Vec<DeterministicHasher> = (0..tile_w)
                .map(|tx| prefix.mix((x_lo as i64).wrapping_add(tx as i64) as u64))
                .collect();
            texture.clear();
            texture.reserve(tile_w * tile_h);
            for ty in 0..tile_h {
                let sy = (y_lo as i64).wrapping_add(ty as i64) as u64;
                texture.extend(columns.iter().map(|column| {
                    let noise = column.mix(sy).unit();
                    texture_amp * (noise - 0.5) * 2.0
                }));
            }
            for (offset, frame) in frames.iter_mut().enumerate() {
                let index = start + offset as u64;
                source.describe_frame(index, frame);
                let shift = source.camera_shift(index);
                let dx = (i128::from(shift) - x_lo) as usize;
                let dy = (i128::from(shift / 3) - y_lo) as usize;
                let plane = &mut frame.plane;
                if plane.width() != w || plane.height() != h {
                    *plane = BlockPlane::filled(w, h, 0);
                }
                let rows = plane.samples_mut().chunks_exact_mut(w as usize);
                for (y, row) in rows.enumerate() {
                    let base = 70.0 + 110.0 * (y as f64 / 90.0);
                    let at = (y + dy) * tile_w + dx;
                    for (sample, &term) in row.iter_mut().zip(&texture[at..at + w as usize]) {
                        *sample = (base + term).clamp(0.0, 255.0) as u8;
                    }
                }
                per_pixel_rasterise(&frame.objects, plane);
            }
        }

        /// Frames `start..start + len`, rendered by the per-frame fill in
        /// the tiles [`VideoSource::clip_into`] renders.
        pub(super) fn clip(source: &VideoSource, start: u64, len: usize) -> Vec<SceneFrame> {
            let mut out = vec![VideoSource::blank_frame(); len];
            let mut texture = Vec::new();
            let mut done = 0;
            while done < len {
                let frames = source.tile_frames(start + done as u64, len - done);
                render_tile(
                    source,
                    start + done as u64,
                    &mut out[done..done + frames],
                    &mut texture,
                );
                done += frames;
            }
            out
        }
    }

    /// Assert `frames` equal `expected` frame by frame.
    fn assert_frames_eq(frames: &[SceneFrame], expected: &[SceneFrame], what: &str) {
        assert_eq!(frames.len(), expected.len(), "{what}: frame count");
        for (offset, (frame, expected)) in frames.iter().zip(expected).enumerate() {
            assert_eq!(frame, expected, "{what}: frame {offset}");
        }
    }

    /// The grouped fill is value-identical to the per-frame fill on every
    /// dataset, from the first segment to one well into the stream.
    #[test]
    fn grouped_fill_matches_the_per_frame_fill_on_every_dataset() {
        for dataset in Dataset::ALL {
            let src = VideoSource::new(dataset);
            for segment in [0u64, 1, 33] {
                let start = segment * u64::from(SEGMENT_FRAMES);
                let expected = reference::clip(&src, start, SEGMENT_FRAMES as usize);
                let what = format!("{dataset:?} segment {segment}");
                assert_frames_eq(&src.segment(segment), &expected, &what);
            }
        }
    }

    /// Clips across tile boundaries, one-frame tiles and a streaming cursor
    /// all render what the per-frame fill renders.
    #[test]
    fn every_entry_point_matches_the_per_frame_fill() {
        for dataset in Dataset::ALL {
            let src = VideoSource::new(dataset);
            let what = format!("{dataset:?} clip(100, 700)");
            assert_frames_eq(&src.clip(100, 700), &reference::clip(&src, 100, 700), &what);
            let mut frame = VideoSource::blank_frame();
            for index in [0u64, 1, 239, 240, 7_919, 1_000_000] {
                src.frame_into(index, &mut frame);
                let what = format!("{dataset:?} frame_into({index})");
                assert_frames_eq(
                    std::slice::from_ref(&frame),
                    &reference::clip(&src, index, 1),
                    &what,
                );
            }
            let mut cursor = src.frame_cursor(50);
            let streamed: Vec<SceneFrame> = (0..300).map(|_| cursor.next_frame().clone()).collect();
            let what = format!("{dataset:?} cursor from 50");
            assert_frames_eq(&streamed, &reference::clip(&src, 50, 300), &what);
        }
    }

    /// The clipped rasteriser paints what the per-pixel one paints, for
    /// boxes wholly and partly off each edge, one-sample boxes, salience 0
    /// and 1, and objects that overlap.
    #[test]
    fn clipped_rasteriser_matches_the_per_pixel_rasteriser() {
        let object = |x: f32, y: f32, w: f32, h: f32, salience: f32, color: ObjectColor| {
            SceneObject {
                id: 0,
                class: ObjectClass::Pedestrian,
                // Raw fields, unclamped, so boxes can hang off any edge.
                bbox: BoundingBox { x, y, w, h },
                color,
                plate: None,
                salience,
                speed: 0.0,
            }
        };
        let white = ObjectColor::White;
        let objects = [
            // Wholly off the left, top, right and bottom edges.
            object(-0.5, 0.4, 0.2, 0.2, 0.8, white),
            object(0.4, -0.5, 0.2, 0.2, 0.8, white),
            object(1.0, 0.4, 0.2, 0.2, 0.8, white),
            object(1.5, 0.4, 0.2, 0.2, 0.8, white),
            object(0.4, 1.0, 0.2, 0.2, 0.8, white),
            object(0.4, 1.5, 0.2, 0.2, 0.8, white),
            // Partly off each edge, and off two at once.
            object(-0.05, 0.3, 0.2, 0.2, 0.7, ObjectColor::Black),
            object(0.3, -0.05, 0.2, 0.2, 0.7, ObjectColor::Black),
            object(0.9, 0.3, 0.3, 0.2, 0.7, ObjectColor::Black),
            object(0.3, 0.9, 0.2, 0.3, 0.7, ObjectColor::Black),
            object(-0.05, -0.05, 0.1, 0.1, 0.6, ObjectColor::Red),
            object(0.95, 0.95, 0.1, 0.1, 0.6, ObjectColor::Red),
            object(-0.1, -0.1, 1.2, 1.2, 0.3, ObjectColor::Silver),
            // One sample: at the origin, the last column and row, and one
            // column or row left on the plane by a box hanging off it.
            object(0.0, 0.0, 0.0, 0.0, 0.9, ObjectColor::Yellow),
            object(0.999, 0.5, 0.0, 0.0, 0.9, ObjectColor::Yellow),
            object(0.5, 0.999, 0.0, 0.0, 0.9, ObjectColor::Yellow),
            object(0.999, 0.999, 0.0, 0.0, 0.9, ObjectColor::Yellow),
            object(-0.01, 0.2, 0.01, 0.1, 0.9, ObjectColor::Green),
            object(0.2, -0.02, 0.1, 0.02, 0.9, ObjectColor::Green),
            // Salience 0 leaves the background, 1 paints the colour.
            object(0.2, 0.2, 0.3, 0.3, 0.0, white),
            object(0.25, 0.25, 0.1, 0.1, 1.0, ObjectColor::Blue),
            // Overlapping objects blend in order.
            object(0.4, 0.4, 0.3, 0.3, 0.5, ObjectColor::Red),
            object(0.5, 0.5, 0.3, 0.3, 0.55, ObjectColor::Green),
            object(0.45, 0.45, 0.1, 0.4, 0.45, white),
        ];
        for (w, h) in [BlockPlane::dimensions_for(Resolution::R720), (7, 5), (1, 1)] {
            let samples = (0..w * h).map(|i| (i * 37 % 256) as u8).collect();
            let background = BlockPlane::from_samples(w, h, samples).unwrap();
            let paint = |objects: &[SceneObject], f: fn(&[SceneObject], &mut BlockPlane)| {
                let mut plane = background.clone();
                f(objects, &mut plane);
                plane
            };
            for (i, obj) in objects.iter().enumerate() {
                let one = std::slice::from_ref(obj);
                assert_eq!(
                    paint(one, rasterise),
                    paint(one, crate::reference::per_pixel_rasterise),
                    "{w}x{h} object {i}"
                );
            }
            assert_eq!(
                paint(&objects, rasterise),
                paint(&objects, crate::reference::per_pixel_rasterise),
                "{w}x{h} all objects"
            );
        }
    }

    /// The tile renderer is value-identical to the per-pixel reference on
    /// every dataset, at the first segments and far into the stream.
    #[test]
    fn tile_renderer_matches_the_per_pixel_reference() {
        for dataset in Dataset::ALL {
            let src = VideoSource::new(dataset);
            for segment in [0u64, 7, 1_000_000] {
                let frames = src.segment(segment);
                let first = segment * u64::from(SEGMENT_FRAMES);
                for (offset, frame) in frames.iter().enumerate() {
                    let expected = reference::frame(&src, first + offset as u64);
                    assert_eq!(
                        *frame, expected,
                        "{dataset:?} segment {segment} frame {offset}"
                    );
                }
            }
        }
    }

    /// A clip longer than a tile renders as its frames do one by one,
    /// across every tile boundary.
    #[test]
    fn clips_across_tile_boundaries_match_single_frames() {
        let src = VideoSource::new(Dataset::Dashcam);
        let len = 3 * SEGMENT_FRAMES + 17;
        let clip = src.clip(0, len);
        assert_eq!(clip.len(), len as usize);
        for (index, frame) in clip.iter().enumerate() {
            assert_eq!(*frame, src.frame(index as u64), "frame {index}");
        }
        // A camera too fast to share a texture between frames renders in
        // smaller tiles, identically.
        let mut profile = Dataset::Dashcam.profile();
        profile.motion_intensity = 1e9;
        let fast = VideoSource::from_profile("fast", profile);
        assert_eq!(fast.tile_frames(0, 240), 1);
        let clip = fast.clip(5, 4);
        for (offset, frame) in clip.iter().enumerate() {
            assert_eq!(*frame, reference::frame(&fast, 5 + offset as u64));
        }
    }

    #[test]
    fn frames_are_deterministic() {
        let src = VideoSource::new(Dataset::Jackson);
        let a = src.frame(123);
        let b = src.frame(123);
        assert_eq!(a, b);
        let c = src.frame(124);
        assert_ne!(a.plane, c.plane);
    }

    #[test]
    fn plane_has_720p_block_dimensions() {
        let src = VideoSource::new(Dataset::Park);
        let f = src.frame(0);
        assert_eq!(f.plane.width(), 160);
        assert_eq!(f.plane.height(), 90);
    }

    #[test]
    fn object_density_tracks_profile() {
        // Count mean objects per frame over a minute of video and compare
        // datasets: miami (busy) should exceed park (quiet).
        fn mean_objects(dataset: Dataset) -> f64 {
            let src = VideoSource::new(dataset);
            let frames = 600; // 20 s, sampled every other frame for speed
            let total: usize = (0..frames)
                .step_by(2)
                .map(|i| src.frame(i).objects.len())
                .sum();
            total as f64 / (frames / 2) as f64
        }
        let miami = mean_objects(Dataset::Miami);
        let park = mean_objects(Dataset::Park);
        assert!(miami > park, "miami {miami} <= park {park}");
        assert!(miami > 0.5, "miami too sparse: {miami}");
    }

    #[test]
    fn static_scene_has_smaller_frame_deltas_than_dashcam() {
        let park = VideoSource::new(Dataset::Park);
        let dash = VideoSource::new(Dataset::Dashcam);
        let park_delta = park.frame(10).plane.mean_abs_diff(&park.frame(11).plane);
        let dash_delta = dash.frame(10).plane.mean_abs_diff(&dash.frame(11).plane);
        assert!(
            dash_delta > park_delta * 2.0,
            "dashcam delta {dash_delta} vs park delta {park_delta}"
        );
    }

    #[test]
    fn objects_persist_across_adjacent_frames() {
        let src = VideoSource::new(Dataset::Jackson);
        // Find a frame with at least one object, then check the same id is
        // present in the next frame (objects dwell for seconds).
        let mut checked = false;
        for i in 0..900 {
            let f = src.frame(i);
            if let Some(obj) = f.objects.first() {
                let next = src.frame(i + 1);
                assert!(
                    next.objects.iter().any(|o| o.id == obj.id),
                    "object {} vanished after one frame",
                    obj.id
                );
                checked = true;
                break;
            }
        }
        assert!(checked, "no object found in 30 s of jackson");
    }

    #[test]
    fn vehicles_carry_plates_with_profile_probability() {
        let src = VideoSource::new(Dataset::Dashcam);
        let mut vehicles = 0usize;
        let mut with_plate = 0usize;
        for i in (0..3000).step_by(10) {
            for obj in src.frame(i).objects {
                if obj.class.is_vehicle() {
                    vehicles += 1;
                    if obj.has_visible_plate() {
                        with_plate += 1;
                    }
                }
            }
        }
        assert!(vehicles > 20, "too few vehicles: {vehicles}");
        let frac = with_plate as f64 / vehicles as f64;
        assert!((frac - 0.70).abs() < 0.25, "plate fraction {frac}");
    }

    #[test]
    fn segment_has_240_frames() {
        let src = VideoSource::new(Dataset::Airport);
        let seg = src.segment(2);
        assert_eq!(seg.len(), SEGMENT_FRAMES as usize);
        assert_eq!(seg[0].index, 2 * u64::from(SEGMENT_FRAMES));
        assert_eq!(SEGMENT_FRAMES, 240);
    }

    #[test]
    fn frames_from_iterator_matches_frame() {
        let src = VideoSource::new(Dataset::Tucson);
        let mut it = src.frames_from(5);
        assert_eq!(it.next().unwrap(), src.frame(5));
        assert_eq!(it.next().unwrap(), src.frame(6));
    }

    /// The allocation-free paths are value-identical to the allocating
    /// ones, including when a buffer is reused across distant indices.
    #[test]
    fn into_variants_match_allocating_variants() {
        let src = VideoSource::new(Dataset::Jackson);
        let mut frame = VideoSource::blank_frame();
        for index in [0u64, 123, 9999] {
            src.frame_into(index, &mut frame);
            assert_eq!(frame, src.frame(index), "frame {index} diverged");
        }
        let mut clip = Vec::new();
        src.clip_into(40, 12, &mut clip);
        assert_eq!(clip, src.clip(40, 12));
        // Reuse the same (now longer-lived) buffer for a different segment.
        src.segment_into(3, &mut clip);
        assert_eq!(clip, src.segment(3));
    }

    #[test]
    fn cursor_streams_the_same_frames_without_fresh_buffers() {
        let src = VideoSource::new(Dataset::Airport);
        let mut cursor = src.frame_cursor(7);
        assert_eq!(cursor.next_index(), 7);
        assert_eq!(*cursor.next_frame(), src.frame(7));
        assert_eq!(*cursor.next_frame(), src.frame(8));
        assert_eq!(cursor.next_index(), 9);
    }
}
