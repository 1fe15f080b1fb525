//! The block plane: a coarse luma raster, one sample per 8×8-pixel block.
//!
//! A 720p frame maps to a 160×90 grid (14 400 samples). The plane is the
//! "pixel data" of the synthetic substrate: the codec compresses it, fidelity
//! degradation (crop, resize and quantisation, fused in one [`PlaneKernel`]
//! pass) transforms it, and pixel-level operators (Diff, Motion, Contour,
//! Opflow) compute over it.
//!
//! ## Byte-distance kernels
//!
//! [`sad`] and [`wrapped_distance`] are the one home of the per-sample
//! byte reductions: the Diff, Opflow and Contour operators, the codec's
//! motion search and its `VSMETA` scores all sum through them. u8 reductions run
//! in fixed blocks with a narrow block sum, so they vectorise without
//! `std::arch` or `unsafe`: each 16-sample block sums into a `u32`
//! (at most 16 × 255) that widens into the `u64` total once per block,
//! and a scalar loop takes the remainder. LLVM turns a block into one
//! `psadbw` on SSE2 whatever the inlining or codegen-unit layout, where a
//! per-sample `u64` sum over an iterator stays a scalar loop. The totals
//! are the same integers as the per-sample sums.

use vstore_types::Resolution;

/// Pixels per block along each axis.
pub const BLOCK_PIXELS: u32 = 8;

/// A coarse luma raster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPlane {
    width: u32,
    height: u32,
    samples: Vec<u8>,
}

impl BlockPlane {
    /// Create a plane filled with a constant value.
    pub fn filled(width: u32, height: u32, value: u8) -> Self {
        BlockPlane {
            width,
            height,
            samples: vec![value; (width * height) as usize],
        }
    }

    /// Create a plane from raw samples (row-major). Returns `None` when the
    /// sample count does not match the dimensions.
    pub fn from_samples(width: u32, height: u32, samples: Vec<u8>) -> Option<Self> {
        if samples.len() == (width as usize) * (height as usize) {
            Some(BlockPlane {
                width,
                height,
                samples,
            })
        } else {
            None
        }
    }

    /// The plane dimensions for a full (uncropped) frame at a resolution.
    pub fn dimensions_for(resolution: Resolution) -> (u32, u32) {
        let w = resolution.width().div_ceil(BLOCK_PIXELS);
        let h = resolution.height().div_ceil(BLOCK_PIXELS);
        (w.max(1), h.max(1))
    }

    /// Width in blocks.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in blocks.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the plane holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Raw samples, row-major.
    pub fn samples(&self) -> &[u8] {
        &self.samples
    }

    /// Mutable raw samples, row-major.
    pub fn samples_mut(&mut self) -> &mut [u8] {
        &mut self.samples
    }

    /// Sample at `(x, y)`, clamped to the plane bounds.
    pub fn get(&self, x: u32, y: u32) -> u8 {
        let x = x.min(self.width.saturating_sub(1));
        let y = y.min(self.height.saturating_sub(1));
        self.samples[(y * self.width + x) as usize]
    }

    /// Set the sample at `(x, y)`; out-of-bounds writes are ignored.
    pub fn set(&mut self, x: u32, y: u32, value: u8) {
        if x < self.width && y < self.height {
            self.samples[(y * self.width + x) as usize] = value;
        }
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&s| f64::from(s)).sum::<f64>() / self.samples.len() as f64
    }

    /// Mean absolute difference against another plane of the same
    /// dimensions; planes of different dimensions compare as fully different
    /// (255).
    pub fn mean_abs_diff(&self, other: &BlockPlane) -> f64 {
        if self.width != other.width || self.height != other.height || self.samples.is_empty() {
            return 255.0;
        }
        sad(&self.samples, &other.samples) as f64 / self.samples.len() as f64
    }

    /// Mean absolute horizontal gradient — a cheap texture/edge-energy
    /// statistic used by the Contour operator and by content generation
    /// tests: each row's [`sad`] against itself shifted by one sample.
    pub fn gradient_energy(&self) -> f64 {
        let width = self.width as usize;
        if width < 2 || self.height == 0 {
            return 0.0;
        }
        let total: u64 = self
            .samples
            .chunks_exact(width)
            .map(|row| sad(&row[1..], &row[..width - 1]))
            .sum();
        total as f64 / (self.samples.len() - self.height as usize) as f64
    }
}

/// Samples per block of the byte-distance kernels.
const BLOCK: usize = 16;

/// `Σ f(a[i], b[i])` over the common prefix of `a` and `b`, a `BLOCK` at
/// a time into a `u32` block sum (`f` returns a byte, so a block sums to at
/// most `BLOCK × 255`).
#[inline]
fn pair_sum(a: &[u8], b: &[u8], f: impl Fn(u8, u8) -> u8) -> u64 {
    let len = a.len().min(b.len());
    let (a_blocks, a_tail) = a[..len].as_chunks::<BLOCK>();
    let (b_blocks, b_tail) = b[..len].as_chunks::<BLOCK>();
    let mut total = 0u64;
    for (x, y) in a_blocks.iter().zip(b_blocks) {
        let mut block = 0u32;
        for i in 0..BLOCK {
            block += u32::from(f(x[i], y[i]));
        }
        total += u64::from(block);
    }
    total
        + a_tail
            .iter()
            .zip(b_tail)
            .map(|(&x, &y)| u64::from(f(x, y)))
            .sum::<u64>()
}

/// The wrapped magnitude `min(d, 256 - d)` of a byte difference `d`: its
/// distance from zero on `Z/256`.
#[inline]
fn wrapped(d: u8) -> u8 {
    d.min(d.wrapping_neg())
}

/// Sum of absolute differences `Σ |a[i] - b[i]|` over the common prefix of
/// `a` and `b`.
pub fn sad(a: &[u8], b: &[u8]) -> u64 {
    pair_sum(a, b, u8::abs_diff)
}

/// Wrapped distance `Σ min(d, 256 - d)`, `d = a[i].wrapping_sub(b[i])`,
/// over the common prefix of `a` and `b`.
pub fn wrapped_distance(a: &[u8], b: &[u8]) -> u64 {
    pair_sum(a, b, |x, y| wrapped(x.wrapping_sub(y)))
}

/// Fidelity degradation of a plane in one pass: keep a centred crop
/// window, box-resize it to the output size (averaging down, nearest
/// neighbour up) and quantise every sample through a 256-entry table.
///
/// The source columns and rows behind each output sample and the table are
/// worked out when the kernel is built, so a clip builds one kernel and
/// applies it to every frame: each output sample reads its source
/// rectangle once and makes one table lookup. Where the output keeps the
/// window's width, a row is a table lookup over a contiguous slice.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaneKernel {
    /// Fraction of each linear dimension the centred crop keeps.
    crop: f64,
    /// Output width and height, each at least 1.
    output: (u32, u32),
    /// Source width and height the ranges below were worked out for.
    source: (u32, u32),
    /// Source column range `[start, end)` behind each output column, the
    /// crop offset included.
    columns: Vec<(usize, usize)>,
    /// Source row range behind each output row.
    rows: Vec<(usize, usize)>,
    /// Every column is one source column, each right of the last.
    unit_columns: bool,
    /// The quantised value of every sample value.
    table: [u8; 256],
}

impl PlaneKernel {
    /// A kernel for `source`-sized planes: keep the centred `crop`
    /// fraction of each linear dimension (rounded, at least one sample),
    /// resize that window to `output`, and quantise for
    /// `signal_retention` in `(0, 1]`: samples are quantised more coarsely
    /// as retention drops, which models the quality knob's effect on pixel
    /// data (1 keeps every sample as it is).
    pub fn new(source: (u32, u32), crop: f64, output: (u32, u32), signal_retention: f64) -> Self {
        let retention = signal_retention.clamp(0.05, 1.0);
        // Step size grows as retention shrinks: retention 1.0 → step 1 (no
        // loss), retention 0.35 → step ≈ 42.
        let step = ((1.0 - retention) * 64.0).max(1.0);
        let table = std::array::from_fn(|s| {
            let q = (s as f64 / step).round() * step;
            q.clamp(0.0, 255.0) as u8
        });
        let mut kernel = PlaneKernel {
            crop,
            output: (output.0.max(1), output.1.max(1)),
            source,
            columns: Vec::new(),
            rows: Vec::new(),
            unit_columns: false,
            table,
        };
        kernel.fit(source);
        kernel
    }

    /// Work the ranges out for `source`-sized planes.
    fn fit(&mut self, source: (u32, u32)) {
        self.source = source;
        self.columns = spans(source.0, self.crop, self.output.0);
        self.rows = spans(source.1, self.crop, self.output.1);
        let first = self.columns.first().map_or(0, |c| c.0);
        self.unit_columns = self
            .columns
            .iter()
            .enumerate()
            .all(|(i, &(start, end))| start == first + i && end == start + 1);
    }

    /// Degrade `plane` into a new plane.
    pub fn apply(&self, plane: &BlockPlane) -> BlockPlane {
        let mut out = BlockPlane::filled(0, 0, 0);
        self.apply_into(plane, &mut out);
        out
    }

    /// Degrade `plane` into `out`, reusing its sample buffer. A plane of
    /// another size than the kernel was built for is degraded by the same
    /// crop, output size and table, with ranges worked out for it.
    pub fn apply_into(&self, plane: &BlockPlane, out: &mut BlockPlane) {
        if (plane.width, plane.height) != self.source {
            let mut fitted = self.clone();
            fitted.fit((plane.width, plane.height));
            fitted.apply_into(plane, out);
            return;
        }
        let width = plane.width as usize;
        let out_width = self.output.0 as usize;
        out.width = self.output.0;
        out.height = self.output.1;
        out.samples.clear();
        out.samples.resize(out_width * self.output.1 as usize, 0);
        let samples = &plane.samples;
        for (out_row, &(y0, y1)) in out.samples.chunks_exact_mut(out_width).zip(&self.rows) {
            if self.unit_columns && y1 == y0 + 1 {
                let start = y0 * width + self.columns[0].0;
                for (o, &s) in out_row.iter_mut().zip(&samples[start..start + out_width]) {
                    *o = self.table[usize::from(s)];
                }
                continue;
            }
            for (o, &(x0, x1)) in out_row.iter_mut().zip(&self.columns) {
                let mut sum = 0u32;
                for y in y0..y1 {
                    let row = &samples[y * width..];
                    sum += row[x0..x1].iter().map(|&s| u32::from(s)).sum::<u32>();
                }
                let count = ((y1 - y0) * (x1 - x0)) as u32;
                *o = self.table[sum.checked_div(count).unwrap_or(0) as usize];
            }
        }
    }
}

/// The source range `[start, end)` behind each of `out` output samples
/// along one axis of `len` samples: the centred window keeping the `crop`
/// fraction (rounded, at least one sample), split into `out` boxes of at
/// least one sample each.
fn spans(len: u32, crop: f64, out: u32) -> Vec<(usize, usize)> {
    let len = u64::from(len);
    let out = u64::from(out);
    let kept = ((len as f64 * crop).round() as u64).max(1).min(len);
    let offset = (len - kept) / 2;
    (0..out)
        .map(|n| {
            let start = n * kept / out;
            let end = ((n + 1) * kept / out).max(start + 1).min(kept);
            (
                (offset + start) as usize,
                (offset + end.max(start)) as usize,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{scalar_gradient_energy, scalar_sad, scalar_wrapped_distance};
    use vstore_types::{CropFactor, ImageQuality};

    fn gradient_plane(w: u32, h: u32) -> BlockPlane {
        let mut p = BlockPlane::filled(w, h, 0);
        for y in 0..h {
            for x in 0..w {
                p.set(x, y, ((x * 255) / w.max(1)) as u8);
            }
        }
        p
    }

    #[test]
    fn dimensions_for_720p_is_160x90() {
        assert_eq!(BlockPlane::dimensions_for(Resolution::R720), (160, 90));
        assert_eq!(BlockPlane::dimensions_for(Resolution::R60), (8, 8));
    }

    #[test]
    fn from_samples_validates_length() {
        assert!(BlockPlane::from_samples(4, 4, vec![0; 16]).is_some());
        assert!(BlockPlane::from_samples(4, 4, vec![0; 15]).is_none());
    }

    #[test]
    fn get_set_round_trip_and_clamping() {
        let mut p = BlockPlane::filled(10, 5, 7);
        p.set(3, 2, 200);
        assert_eq!(p.get(3, 2), 200);
        // Out-of-bounds reads clamp, writes are ignored.
        assert_eq!(p.get(100, 100), p.get(9, 4));
        p.set(100, 100, 1);
        assert_eq!(p.len(), 50);
    }

    /// A kernel that only resizes.
    fn resize(plane: &BlockPlane, width: u32, height: u32) -> BlockPlane {
        let source = (plane.width(), plane.height());
        PlaneKernel::new(source, 1.0, (width, height), 1.0).apply(plane)
    }

    #[test]
    fn resize_preserves_mean_roughly() {
        let p = gradient_plane(160, 90);
        let small = resize(&p, 40, 22);
        assert_eq!(small.width(), 40);
        assert_eq!(small.height(), 22);
        assert!((small.mean() - p.mean()).abs() < 8.0);
        // Upscale back: still similar mean.
        let back = resize(&small, 160, 90);
        assert!((back.mean() - p.mean()).abs() < 8.0);
        assert_eq!(resize(&p, 160, 90), p);
    }

    #[test]
    fn crop_center_reduces_area_by_crop_fraction() {
        let p = gradient_plane(160, 90);
        let keep = CropFactor::C50.linear_fraction();
        let window = ((160.0 * keep).round() as u32, (90.0 * keep).round() as u32);
        let cropped = PlaneKernel::new((160, 90), keep, window, 1.0).apply(&p);
        let area_ratio = (cropped.len() as f64) / (p.len() as f64);
        assert!((area_ratio - 0.5).abs() < 0.05, "area ratio {area_ratio}");
        // The window is centred: its first sample is the source's at the
        // window's offset.
        assert_eq!(
            cropped.get(0, 0),
            p.get((160 - window.0) / 2, (90 - window.1) / 2)
        );
        let whole = CropFactor::C100.linear_fraction();
        assert_eq!(
            PlaneKernel::new((160, 90), whole, (160, 90), 1.0).apply(&p),
            p
        );
    }

    #[test]
    fn quantize_coarsens_with_lower_quality() {
        let p = gradient_plane(160, 90);
        let quantize = |quality: ImageQuality| {
            PlaneKernel::new((160, 90), 1.0, (160, 90), quality.signal_retention()).apply(&p)
        };
        let best = quantize(ImageQuality::Best);
        let worst = quantize(ImageQuality::Worst);
        assert_eq!(best, p);
        assert!(worst.mean_abs_diff(&p) > best.mean_abs_diff(&p));
        // Quantisation keeps samples roughly in place.
        assert!(worst.mean_abs_diff(&p) < 32.0);
    }

    /// A kernel built for one size degrades a plane of another size as
    /// one built for that size would, into a reused buffer.
    #[test]
    fn kernels_refit_to_other_sizes_and_reuse_the_output() {
        let kernel = PlaneKernel::new((160, 90), 0.75, (50, 30), 0.62);
        let small = gradient_plane(61, 43);
        let mut out = kernel.apply(&gradient_plane(160, 90));
        kernel.apply_into(&small, &mut out);
        assert_eq!(
            out,
            PlaneKernel::new((61, 43), 0.75, (50, 30), 0.62).apply(&small)
        );
        assert_eq!((out.width(), out.height()), (50, 30));
        // An empty plane yields zeros rather than reading out of bounds.
        let empty = kernel.apply(&BlockPlane::filled(0, 0, 0));
        assert_eq!(empty, BlockPlane::filled(50, 30, 0));
    }

    #[test]
    fn mean_abs_diff_of_mismatched_planes_is_max() {
        let a = BlockPlane::filled(4, 4, 0);
        let b = BlockPlane::filled(5, 4, 0);
        assert_eq!(a.mean_abs_diff(&b), 255.0);
        assert_eq!(a.mean_abs_diff(&a), 0.0);
    }

    #[test]
    fn gradient_energy_detects_texture() {
        let flat = BlockPlane::filled(32, 32, 128);
        let textured = gradient_plane(32, 32);
        assert!(textured.gradient_energy() > flat.gradient_energy());
        assert_eq!(flat.gradient_energy(), 0.0);
    }

    /// Bytes from a xorshift generator seeded with `seed`.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.to_le_bytes()[3]
            })
            .collect()
    }

    fn assert_kernels_match(a: &[u8], b: &[u8]) {
        let len = a.len();
        assert_eq!(sad(a, b), scalar_sad(a, b), "sad, {len} samples");
        assert_eq!(sad(b, a), scalar_sad(b, a), "sad reversed, {len} samples");
        assert_eq!(
            wrapped_distance(a, b),
            scalar_wrapped_distance(a, b),
            "wrapped distance, {len} samples"
        );
        assert_eq!(
            wrapped_distance(b, a),
            scalar_wrapped_distance(b, a),
            "wrapped distance reversed, {len} samples"
        );
    }

    /// Every length across a few blocks and a 720p plane's, on noise, on
    /// the extremes that fill a block sum (all 0 against all 255, and 128s
    /// against 0s, whose wrapped distance is largest), and on sub-slices
    /// that start off any block boundary.
    #[test]
    fn blocked_kernels_equal_their_scalar_references() {
        let lengths = (0..=70).chain([14_400]);
        for len in lengths {
            let (a, b) = (noise(len as u64 + 1, len), noise(len as u64 + 99, len));
            assert_kernels_match(&a, &b);
            assert_kernels_match(&vec![0; len], &vec![255; len]);
            assert_kernels_match(&vec![128; len], &vec![0; len]);
        }
        assert_eq!(sad(&[0; 14_400], &[255; 14_400]), 14_400 * 255);
        assert_eq!(wrapped_distance(&[128; 14_400], &[0; 14_400]), 14_400 * 128);
        assert_eq!(wrapped_distance(&[1; 16], &[255; 16]), 16 * 2);
        let (a, b) = (noise(7, 14_400 + 40), noise(8, 14_400 + 40));
        for start in 0..=17 {
            for end in [start, start + 1, start + 33, 14_400 + start, 14_400 + 40] {
                assert_kernels_match(&a[start..end], &b[start..end]);
                // `b` five samples further on, so the two sit differently
                // against the blocks.
                let shifted = &b[(start + 5).min(end)..end];
                assert_kernels_match(&a[start..start + shifted.len()], shifted);
            }
        }
    }

    #[test]
    fn kernels_sum_the_common_prefix() {
        let (a, b) = (noise(3, 50), noise(4, 37));
        assert_eq!(sad(&a, &b), scalar_sad(&a[..37], &b));
        assert_eq!(
            wrapped_distance(&b, &a),
            scalar_wrapped_distance(&b, &a[..37])
        );
        assert_eq!(sad(&a, &[]), 0);
    }

    /// Contour's energy, now a row-wise `sad`, equals the form that read
    /// each sample through `get`, exactly, on real scene planes and on the
    /// degenerate widths.
    #[test]
    fn gradient_energy_equals_the_per_sample_form() {
        let source = crate::VideoSource::new(crate::Dataset::Jackson);
        let dashcam = crate::VideoSource::new(crate::Dataset::Dashcam);
        let mut planes: Vec<BlockPlane> = (0..6)
            .flat_map(|i| [source.frame(i * 40).plane, dashcam.frame(i * 40).plane])
            .collect();
        let scene = planes[0].clone();
        planes.push(resize(&scene, 61, 43));
        planes.push(resize(&scene, 17, 3));
        for (w, h) in [(1, 9), (2, 9), (2, 1), (3, 1), (0, 0), (0, 5), (5, 0)] {
            planes.push(
                BlockPlane::from_samples(w, h, noise(u64::from(w * 31 + h), (w * h) as usize))
                    .unwrap(),
            );
        }
        for plane in &planes {
            assert_eq!(
                plane.gradient_energy(),
                scalar_gradient_energy(plane),
                "{}x{}",
                plane.width(),
                plane.height()
            );
        }
        assert!(planes[0].gradient_energy() > 0.0);
    }
}
