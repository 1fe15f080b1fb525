//! Materialised video frames and fidelity degradation.
//!
//! A [`VideoFrame`] is a frame at a specific fidelity: its block plane has
//! been cropped, resized and quantised accordingly (in one
//! [`PlaneKernel`] pass, built once per clip), and its object metadata
//! lists only the objects that survive the crop. Degradation is the data-path
//! operation behind both ingestion-time transcoding (SF fidelity) and
//! retrieval-time conversion (CF fidelity); the richer-than partial order
//! guarantees it is only ever applied "downhill".

use vstore_datasets::{BlockPlane, PlaneKernel, SceneFrame, SceneObject};
use vstore_types::{cast, Fidelity, Result, VStoreError};

/// A frame materialised at a specific fidelity.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoFrame {
    /// Index of the frame in the original 30 fps stream.
    pub source_index: u64,
    /// The fidelity this frame is materialised at.
    pub fidelity: Fidelity,
    /// The (cropped, resized, quantised) block plane.
    pub plane: BlockPlane,
    /// Ground-truth objects that survive the crop, with bounding boxes still
    /// normalised to the *full* frame. Carried as side-band metadata so the
    /// operator models can assess detectability at this fidelity.
    pub objects: Vec<SceneObject>,
    /// Compound signal retention in `(0, 1]`: the product of the quality
    /// knob's retention over every lossy hop this frame went through.
    pub signal_retention: f64,
}

impl VideoFrame {
    /// Materialise a generated scene frame at a fidelity.
    pub fn from_scene(scene: &SceneFrame, fidelity: Fidelity) -> VideoFrame {
        Self::from_scene_with(scene, fidelity, &scene_kernel(fidelity))
    }

    /// [`from_scene`](Self::from_scene) through a kernel already built for
    /// the fidelity.
    fn from_scene_with(scene: &SceneFrame, fidelity: Fidelity, kernel: &PlaneKernel) -> VideoFrame {
        VideoFrame {
            source_index: scene.index,
            fidelity,
            plane: kernel.apply(&scene.plane),
            objects: scene.objects_under_crop(fidelity.crop).cloned().collect(),
            signal_retention: fidelity.quality.signal_retention(),
        }
    }

    /// Degrade this frame to a poorer (or equal) fidelity.
    ///
    /// Fails with [`VStoreError::FidelityUnsatisfiable`] when the target is
    /// not satisfiable from this frame's fidelity (requirement R1). Sampling
    /// is a sequence-level knob and is ignored here; callers drop frames
    /// separately.
    pub fn degrade_to(&self, target: Fidelity) -> Result<VideoFrame> {
        if self.degrades_to_itself(target)? {
            return Ok(VideoFrame {
                fidelity: target,
                ..self.clone()
            });
        }
        // The crop still to apply, relative to what has already been
        // applied; re-quantise only if the target quality is poorer than
        // what the frame already went through.
        let crop = target.crop.linear_fraction() / self.fidelity.crop.linear_fraction();
        let target_retention = target.quality.signal_retention();
        let (quantize, retention) = if target_retention < self.signal_retention {
            (target_retention, target_retention)
        } else {
            (1.0, self.signal_retention)
        };
        let source = (self.plane.width(), self.plane.height());
        let kernel = PlaneKernel::new(source, crop, output_dimensions(target), quantize);
        let objects = self
            .objects
            .iter()
            .filter(|o| o.bbox.visible_under_crop(target.crop))
            .cloned()
            .collect();
        Ok(VideoFrame {
            source_index: self.source_index,
            fidelity: target,
            plane: kernel.apply(&self.plane),
            objects,
            signal_retention: retention,
        })
    }

    /// [`degrade_to`](Self::degrade_to) for a frame the caller is done
    /// with: when only the stamp changes (the target's per-frame knobs are
    /// this frame's), the plane and the object list move instead of being
    /// copied.
    pub fn into_degraded(mut self, target: Fidelity) -> Result<VideoFrame> {
        if self.degrades_to_itself(target)? {
            self.fidelity = target;
            return Ok(self);
        }
        self.degrade_to(target)
    }

    /// Whether degrading to `target` changes nothing but the stamped
    /// fidelity; an error when `target` is not satisfiable from this frame.
    fn degrades_to_itself(&self, target: Fidelity) -> Result<bool> {
        // Sampling compatibility is checked by sequence-level code; compare
        // only the per-frame knobs here.
        let per_frame_self = Fidelity {
            sampling: target.sampling,
            ..self.fidelity
        };
        if !per_frame_self.richer_or_equal(&target) {
            return Err(VStoreError::FidelityUnsatisfiable(format!(
                "cannot degrade frame at {} to richer fidelity {}",
                self.fidelity, target
            )));
        }
        Ok(per_frame_self == target)
    }

    /// Size of this frame as raw YUV420 pixels at its fidelity, in bytes.
    pub fn raw_size_bytes(&self) -> u64 {
        // 1.5 bytes per pixel, rounded half up: exact in integers.
        (self.fidelity.pixels_per_frame() * 3).div_ceil(2)
    }
}

/// Materialise a whole clip of scene frames at a fidelity, applying the
/// fidelity's frame sampling: only every `interval`-th frame (and, for the
/// 2/3 rate, two of every three) is kept.
pub fn materialize_clip(scenes: &[SceneFrame], fidelity: Fidelity) -> Vec<VideoFrame> {
    let kernel = scene_kernel(fidelity);
    scenes
        .iter()
        .filter(|s| frame_selected(s.index, fidelity))
        .map(|s| VideoFrame::from_scene_with(s, fidelity, &kernel))
        .collect()
}

/// The plane dimensions of a frame at `fidelity`: cropping reduces the
/// field of view, not the output resolution, so the cropped region is
/// delivered at the target resolution scaled by the crop's linear fraction.
fn output_dimensions(fidelity: Fidelity) -> (u32, u32) {
    let (w, h) = BlockPlane::dimensions_for(fidelity.resolution);
    let keep = fidelity.crop.linear_fraction();
    let scale = |side: u32| cast::u32_saturating_from_f64(f64::from(side) * keep).max(1);
    (scale(w), scale(h))
}

/// The kernel that materialises ingestion-fidelity scene planes at
/// `fidelity`: crop, resize to [`output_dimensions`], quantise for the
/// fidelity's quality.
pub(crate) fn scene_kernel(fidelity: Fidelity) -> PlaneKernel {
    PlaneKernel::new(
        BlockPlane::dimensions_for(Fidelity::INGESTION.resolution),
        fidelity.crop.linear_fraction(),
        output_dimensions(fidelity),
        fidelity.quality.signal_retention(),
    )
}

/// Whether the frame at `index` of the 30 fps stream is kept by the given
/// fidelity's sampling rate.
pub fn frame_selected(index: u64, fidelity: Fidelity) -> bool {
    sampling_selects(index, fidelity.sampling)
}

/// Whether the frame at `index` is kept by a sampling rate.
pub fn sampling_selects(index: u64, sampling: vstore_types::FrameSampling) -> bool {
    use vstore_types::FrameSampling::*;
    match sampling {
        Full => true,
        S2_3 => index % 3 != 2,
        S1_2 => index.is_multiple_of(2),
        S1_6 => index.is_multiple_of(6),
        S1_30 => index.is_multiple_of(30),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstore_datasets::{Dataset, VideoSource};
    use vstore_types::{CropFactor, FidelitySpace, FrameSampling, ImageQuality, Resolution};

    /// Degradation as three passes — crop, resize, quantise, each making a
    /// plane — before one `PlaneKernel` fused them, kept as the reference
    /// the kernel is held to.
    mod reference {
        use super::*;

        /// Resample to new dimensions with box averaging (down) or nearest
        /// neighbour (up). Used to degrade resolution.
        fn resize(plane: &BlockPlane, new_width: u32, new_height: u32) -> BlockPlane {
            let new_width = new_width.max(1);
            let new_height = new_height.max(1);
            if new_width == plane.width() && new_height == plane.height() {
                return plane.clone();
            }
            let (width, height) = (plane.width(), plane.height());
            let mut out = Vec::with_capacity((new_width * new_height) as usize);
            for ny in 0..new_height {
                for nx in 0..new_width {
                    // Source rectangle covered by this destination sample.
                    let x0 = (nx as u64 * width as u64) / new_width as u64;
                    let x1 = (((nx + 1) as u64 * width as u64) / new_width as u64).max(x0 + 1);
                    let y0 = (ny as u64 * height as u64) / new_height as u64;
                    let y1 = (((ny + 1) as u64 * height as u64) / new_height as u64).max(y0 + 1);
                    let mut sum = 0u64;
                    let mut n = 0u64;
                    for y in y0..y1.min(height as u64) {
                        for x in x0..x1.min(width as u64) {
                            sum += u64::from(plane.samples()[(y * width as u64 + x) as usize]);
                            n += 1;
                        }
                    }
                    out.push(sum.checked_div(n).unwrap_or(0) as u8);
                }
            }
            BlockPlane::from_samples(new_width, new_height, out).unwrap()
        }

        /// Keep only the centred fraction of the frame area given by the
        /// crop factor.
        fn crop_center(plane: &BlockPlane, crop: CropFactor) -> BlockPlane {
            if crop == CropFactor::C100 {
                return plane.clone();
            }
            let keep = crop.linear_fraction();
            let new_w = ((f64::from(plane.width()) * keep).round() as u32).clamp(1, plane.width());
            let new_h =
                ((f64::from(plane.height()) * keep).round() as u32).clamp(1, plane.height());
            let x0 = (plane.width() - new_w) / 2;
            let y0 = (plane.height() - new_h) / 2;
            let mut out = Vec::with_capacity((new_w * new_h) as usize);
            for y in y0..y0 + new_h {
                for x in x0..x0 + new_w {
                    out.push(plane.get(x, y));
                }
            }
            BlockPlane::from_samples(new_w, new_h, out).unwrap()
        }

        /// Apply quantisation noise equivalent to the given signal
        /// retention factor in `(0, 1]`.
        fn quantize(plane: &BlockPlane, signal_retention: f64) -> BlockPlane {
            let retention = signal_retention.clamp(0.05, 1.0);
            if retention >= 0.999 {
                return plane.clone();
            }
            let step = ((1.0 - retention) * 64.0).max(1.0);
            let samples = plane
                .samples()
                .iter()
                .map(|&s| {
                    let q = (f64::from(s) / step).round() * step;
                    q.clamp(0.0, 255.0) as u8
                })
                .collect();
            BlockPlane::from_samples(plane.width(), plane.height(), samples).unwrap()
        }

        pub(super) fn from_scene(scene: &SceneFrame, fidelity: Fidelity) -> VideoFrame {
            let cropped = crop_center(&scene.plane, fidelity.crop);
            let (w, h) = BlockPlane::dimensions_for(fidelity.resolution);
            let out_w =
                cast::u32_saturating_from_f64(f64::from(w) * fidelity.crop.linear_fraction())
                    .max(1);
            let out_h =
                cast::u32_saturating_from_f64(f64::from(h) * fidelity.crop.linear_fraction())
                    .max(1);
            let resized = resize(&cropped, out_w, out_h);
            let retention = fidelity.quality.signal_retention();
            let plane = quantize(&resized, retention);
            let objects = scene.objects_under_crop(fidelity.crop).cloned().collect();
            VideoFrame {
                source_index: scene.index,
                fidelity,
                plane,
                objects,
                signal_retention: retention,
            }
        }

        pub(super) fn degrade_to(frame: &VideoFrame, target: Fidelity) -> VideoFrame {
            let crop_ratio = target.crop.linear_fraction() / frame.fidelity.crop.linear_fraction();
            let cropped = if crop_ratio < 0.999 {
                let new_w =
                    cast::u32_saturating_from_f64(f64::from(frame.plane.width()) * crop_ratio)
                        .max(1);
                let new_h =
                    cast::u32_saturating_from_f64(f64::from(frame.plane.height()) * crop_ratio)
                        .max(1);
                let x0 = (frame.plane.width() - new_w) / 2;
                let y0 = (frame.plane.height() - new_h) / 2;
                let mut samples = Vec::with_capacity(new_w as usize * new_h as usize);
                for y in y0..y0 + new_h {
                    for x in x0..x0 + new_w {
                        samples.push(frame.plane.get(x, y));
                    }
                }
                BlockPlane::from_samples(new_w, new_h, samples).unwrap()
            } else {
                frame.plane.clone()
            };
            let (w, h) = BlockPlane::dimensions_for(target.resolution);
            let out_w =
                cast::u32_saturating_from_f64(f64::from(w) * target.crop.linear_fraction()).max(1);
            let out_h =
                cast::u32_saturating_from_f64(f64::from(h) * target.crop.linear_fraction()).max(1);
            let resized = resize(&cropped, out_w, out_h);
            let target_retention = target.quality.signal_retention();
            let (plane, retention) = if target_retention < frame.signal_retention {
                (quantize(&resized, target_retention), target_retention)
            } else {
                (resized, frame.signal_retention)
            };
            let objects = frame
                .objects
                .iter()
                .filter(|o| o.bbox.visible_under_crop(target.crop))
                .cloned()
                .collect();
            VideoFrame {
                source_index: frame.source_index,
                fidelity: target,
                plane,
                objects,
                signal_retention: retention,
            }
        }
    }

    /// The kernel materialises and degrades exactly as crop → resize →
    /// quantise did, for every fidelity of the full space: straight from
    /// the scene, and in two hops through a fidelity between.
    #[test]
    fn kernel_matches_the_three_pass_reference_for_every_fidelity() {
        let scenes = [
            VideoSource::new(Dataset::Jackson).frame(450),
            VideoSource::new(Dataset::Dashcam).frame(31),
        ];
        let between = [
            Fidelity::INGESTION,
            Fidelity::new(
                ImageQuality::Good,
                CropFactor::C75,
                Resolution::R600,
                FrameSampling::Full,
            ),
            Fidelity::new(
                ImageQuality::Bad,
                CropFactor::C100,
                Resolution::R540,
                FrameSampling::Full,
            ),
            Fidelity::new(
                ImageQuality::Worst,
                CropFactor::C50,
                Resolution::R360,
                FrameSampling::Full,
            ),
        ];
        let mut hops = 0;
        for scene in &scenes {
            let mids: Vec<_> = between
                .iter()
                .map(|&mid| {
                    (
                        VideoFrame::from_scene(scene, mid),
                        reference::from_scene(scene, mid),
                    )
                })
                .collect();
            for fidelity in FidelitySpace::full().iter() {
                let direct = VideoFrame::from_scene(scene, fidelity);
                assert_eq!(direct, reference::from_scene(scene, fidelity), "{fidelity}");
                for (ours, theirs) in &mids {
                    let per_frame = Fidelity {
                        sampling: FrameSampling::Full,
                        ..fidelity
                    };
                    if !ours.fidelity.richer_or_equal(&per_frame) {
                        continue;
                    }
                    let degraded = ours.degrade_to(fidelity).unwrap();
                    assert_eq!(
                        degraded,
                        reference::degrade_to(theirs, fidelity),
                        "{} -> {fidelity}",
                        ours.fidelity
                    );
                    hops += 1;
                }
            }
        }
        assert!(hops > 2 * FidelitySpace::full().len(), "{hops} hops");
    }

    fn scene() -> SceneFrame {
        VideoSource::new(Dataset::Jackson).frame(450)
    }

    #[test]
    fn ingestion_fidelity_preserves_plane_dimensions() {
        let s = scene();
        let f = VideoFrame::from_scene(&s, Fidelity::INGESTION);
        assert_eq!(f.plane.width(), 160);
        assert_eq!(f.plane.height(), 90);
        assert_eq!(f.signal_retention, 1.0);
        assert_eq!(f.objects.len(), s.objects.len());
    }

    #[test]
    fn lower_resolution_shrinks_plane() {
        let s = scene();
        let low = Fidelity::new(
            ImageQuality::Best,
            CropFactor::C100,
            Resolution::R180,
            FrameSampling::Full,
        );
        let f = VideoFrame::from_scene(&s, low);
        assert!(f.plane.width() < 160 / 2);
        assert!(
            f.raw_size_bytes() < VideoFrame::from_scene(&s, Fidelity::INGESTION).raw_size_bytes()
        );
    }

    #[test]
    fn crop_removes_peripheral_objects() {
        // Scan for a frame where cropping changes the object count.
        let src = VideoSource::new(Dataset::Miami);
        let mut found = false;
        for i in 0..600 {
            let s = src.frame(i);
            let full = VideoFrame::from_scene(&s, Fidelity::INGESTION);
            let cropped_fid = Fidelity::new(
                ImageQuality::Best,
                CropFactor::C50,
                Resolution::R720,
                FrameSampling::Full,
            );
            let cropped = VideoFrame::from_scene(&s, cropped_fid);
            assert!(cropped.objects.len() <= full.objects.len());
            if cropped.objects.len() < full.objects.len() {
                found = true;
                break;
            }
        }
        assert!(found, "cropping never removed an object in 20 s of miami");
    }

    #[test]
    fn degrade_to_richer_fidelity_fails() {
        let s = scene();
        let low = Fidelity::new(
            ImageQuality::Bad,
            CropFactor::C75,
            Resolution::R200,
            FrameSampling::Full,
        );
        let f = VideoFrame::from_scene(&s, low);
        let err = f.degrade_to(Fidelity::INGESTION).unwrap_err();
        assert!(matches!(err, VStoreError::FidelityUnsatisfiable(_)));
    }

    #[test]
    fn degrade_matches_direct_materialisation_dimensions() {
        let s = scene();
        let rich = VideoFrame::from_scene(&s, Fidelity::INGESTION);
        let target = Fidelity::new(
            ImageQuality::Bad,
            CropFactor::C75,
            Resolution::R360,
            FrameSampling::Full,
        );
        let via_degrade = rich.degrade_to(target).unwrap();
        let direct = VideoFrame::from_scene(&s, target);
        assert_eq!(via_degrade.plane.width(), direct.plane.width());
        assert_eq!(via_degrade.plane.height(), direct.plane.height());
        assert_eq!(via_degrade.objects.len(), direct.objects.len());
        assert_eq!(via_degrade.signal_retention, direct.signal_retention);
        // Content should be close even though the two paths quantise in a
        // different order.
        assert!(via_degrade.plane.mean_abs_diff(&direct.plane) < 20.0);
    }

    #[test]
    fn degrade_is_identity_for_equal_fidelity() {
        let s = scene();
        let f = VideoFrame::from_scene(&s, Fidelity::INGESTION);
        let same = f.degrade_to(Fidelity::INGESTION).unwrap();
        assert_eq!(same.plane, f.plane);
    }

    #[test]
    fn sampling_selection_rates() {
        let count = |s: FrameSampling| (0..3000u64).filter(|i| sampling_selects(*i, s)).count();
        assert_eq!(count(FrameSampling::Full), 3000);
        assert_eq!(count(FrameSampling::S1_2), 1500);
        assert_eq!(count(FrameSampling::S1_6), 500);
        assert_eq!(count(FrameSampling::S1_30), 100);
        assert_eq!(count(FrameSampling::S2_3), 2000);
    }

    #[test]
    fn materialize_clip_applies_sampling() {
        let src = VideoSource::new(Dataset::Park);
        let scenes = src.clip(0, 60);
        let sparse = Fidelity::new(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R360,
            FrameSampling::S1_6,
        );
        let frames = materialize_clip(&scenes, sparse);
        assert_eq!(frames.len(), 10);
        assert!(frames.iter().all(|f| f.source_index % 6 == 0));
    }
}
