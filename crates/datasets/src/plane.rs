//! The block plane: a coarse luma raster, one sample per 8×8-pixel block.
//!
//! A 720p frame maps to a 160×90 grid (14 400 samples). The plane is the
//! "pixel data" of the synthetic substrate: the codec compresses it, fidelity
//! degradation (resize/crop) transforms it, and pixel-level operators
//! (Diff, Motion, Contour, Opflow) compute over it.

use vstore_types::{CropFactor, Resolution};

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
        let total: u64 = self
            .samples
            .iter()
            .zip(other.samples.iter())
            .map(|(&a, &b)| u64::from(a.abs_diff(b)))
            .sum();
        total as f64 / self.samples.len() as f64
    }

    /// Mean absolute horizontal gradient — a cheap texture/edge-energy
    /// statistic used by the Contour operator and by content generation
    /// tests.
    pub fn gradient_energy(&self) -> f64 {
        if self.width < 2 || self.height == 0 {
            return 0.0;
        }
        let mut total = 0u64;
        let mut count = 0u64;
        for y in 0..self.height {
            for x in 1..self.width {
                total += u64::from(self.get(x, y).abs_diff(self.get(x - 1, y)));
                count += 1;
            }
        }
        total as f64 / count.max(1) as f64
    }

    /// Resample to new dimensions with box averaging (down) or nearest
    /// neighbour (up). Used to degrade resolution.
    pub fn resize(&self, new_width: u32, new_height: u32) -> BlockPlane {
        let new_width = new_width.max(1);
        let new_height = new_height.max(1);
        if new_width == self.width && new_height == self.height {
            return self.clone();
        }
        let mut out = Vec::with_capacity((new_width * new_height) as usize);
        for ny in 0..new_height {
            for nx in 0..new_width {
                // Source rectangle covered by this destination sample.
                let x0 = (nx as u64 * self.width as u64) / new_width as u64;
                let x1 = (((nx + 1) as u64 * self.width as u64) / new_width as u64).max(x0 + 1);
                let y0 = (ny as u64 * self.height as u64) / new_height as u64;
                let y1 = (((ny + 1) as u64 * self.height as u64) / new_height as u64).max(y0 + 1);
                let mut sum = 0u64;
                let mut n = 0u64;
                for y in y0..y1.min(self.height as u64) {
                    for x in x0..x1.min(self.width as u64) {
                        sum += u64::from(self.samples[(y * self.width as u64 + x) as usize]);
                        n += 1;
                    }
                }
                out.push(sum.checked_div(n).unwrap_or(0) as u8);
            }
        }
        BlockPlane {
            width: new_width,
            height: new_height,
            samples: out,
        }
    }

    /// Resize to the block dimensions of a target resolution.
    pub fn resize_to_resolution(&self, resolution: Resolution) -> BlockPlane {
        let (w, h) = BlockPlane::dimensions_for(resolution);
        self.resize(w, h)
    }

    /// Keep only the centred fraction of the frame area given by the crop
    /// factor.
    pub fn crop_center(&self, crop: CropFactor) -> BlockPlane {
        if crop == CropFactor::C100 {
            return self.clone();
        }
        let keep = crop.linear_fraction();
        let new_w = ((f64::from(self.width) * keep).round() as u32).clamp(1, self.width);
        let new_h = ((f64::from(self.height) * keep).round() as u32).clamp(1, self.height);
        let x0 = (self.width - new_w) / 2;
        let y0 = (self.height - new_h) / 2;
        let mut out = Vec::with_capacity((new_w * new_h) as usize);
        for y in y0..y0 + new_h {
            for x in x0..x0 + new_w {
                out.push(self.get(x, y));
            }
        }
        BlockPlane {
            width: new_w,
            height: new_h,
            samples: out,
        }
    }

    /// Apply quantisation noise equivalent to the given signal retention
    /// factor in `(0, 1]`: samples are quantised more coarsely as retention
    /// drops. Models the quality knob's effect on pixel data.
    pub fn quantize(&self, signal_retention: f64) -> BlockPlane {
        let retention = signal_retention.clamp(0.05, 1.0);
        if retention >= 0.999 {
            return self.clone();
        }
        // Step size grows as retention shrinks: retention 1.0 → step 1 (no
        // loss), retention 0.35 → step ≈ 42.
        let step = ((1.0 - retention) * 64.0).max(1.0);
        let samples = self
            .samples
            .iter()
            .map(|&s| {
                let q = (f64::from(s) / step).round() * step;
                q.clamp(0.0, 255.0) as u8
            })
            .collect();
        BlockPlane {
            width: self.width,
            height: self.height,
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstore_types::ImageQuality;

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

    #[test]
    fn resize_preserves_mean_roughly() {
        let p = gradient_plane(160, 90);
        let small = p.resize(40, 22);
        assert_eq!(small.width(), 40);
        assert_eq!(small.height(), 22);
        assert!((small.mean() - p.mean()).abs() < 8.0);
        // Upscale back: still similar mean.
        let back = small.resize(160, 90);
        assert!((back.mean() - p.mean()).abs() < 8.0);
    }

    #[test]
    fn crop_center_reduces_area_by_crop_fraction() {
        let p = gradient_plane(160, 90);
        let cropped = p.crop_center(CropFactor::C50);
        let area_ratio = (cropped.len() as f64) / (p.len() as f64);
        assert!((area_ratio - 0.5).abs() < 0.05, "area ratio {area_ratio}");
        assert_eq!(p.crop_center(CropFactor::C100), p);
    }

    #[test]
    fn quantize_coarsens_with_lower_quality() {
        let p = gradient_plane(160, 90);
        let best = p.quantize(ImageQuality::Best.signal_retention());
        let worst = p.quantize(ImageQuality::Worst.signal_retention());
        assert_eq!(best, p);
        assert!(worst.mean_abs_diff(&p) > best.mean_abs_diff(&p));
        // Quantisation keeps samples roughly in place.
        assert!(worst.mean_abs_diff(&p) < 32.0);
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
}
