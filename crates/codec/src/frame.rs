//! Materialised video frames and fidelity degradation.
//!
//! A [`VideoFrame`] is a frame at a specific fidelity: its block plane has
//! been cropped, resized and quantised accordingly, and its object metadata
//! lists only the objects that survive the crop. Degradation is the data-path
//! operation behind both ingestion-time transcoding (SF fidelity) and
//! retrieval-time conversion (CF fidelity); the richer-than partial order
//! guarantees it is only ever applied "downhill".

use vstore_datasets::{BlockPlane, SceneFrame, SceneObject};
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
        let cropped = scene.plane.crop_center(fidelity.crop);
        let (w, h) = BlockPlane::dimensions_for(fidelity.resolution);
        // Cropping reduces the field of view, not the output resolution; the
        // cropped region is delivered at the target resolution scaled by the
        // crop's linear fraction.
        let out_w =
            cast::u32_saturating_from_f64(f64::from(w) * fidelity.crop.linear_fraction()).max(1);
        let out_h =
            cast::u32_saturating_from_f64(f64::from(h) * fidelity.crop.linear_fraction()).max(1);
        let resized = cropped.resize(out_w, out_h);
        let retention = fidelity.quality.signal_retention();
        let plane = resized.quantize(retention);
        let objects = scene.objects_under_crop(fidelity.crop).cloned().collect();
        VideoFrame {
            source_index: scene.index,
            fidelity,
            plane,
            objects,
            signal_retention: retention,
        }
    }

    /// Degrade this frame to a poorer (or equal) fidelity.
    ///
    /// Fails with [`VStoreError::FidelityUnsatisfiable`] when the target is
    /// not satisfiable from this frame's fidelity (requirement R1). Sampling
    /// is a sequence-level knob and is ignored here; callers drop frames
    /// separately.
    #[expect(
        clippy::expect_used,
        reason = "the crop loop pushes exactly new_w * new_h samples"
    )]
    pub fn degrade_to(&self, target: Fidelity) -> Result<VideoFrame> {
        if self.degrades_to_itself(target)? {
            return Ok(VideoFrame {
                fidelity: target,
                ..self.clone()
            });
        }
        // Additional crop relative to what has already been applied.
        let crop_ratio = target.crop.linear_fraction() / self.fidelity.crop.linear_fraction();
        let cropped = if crop_ratio < 0.999 {
            let new_w =
                cast::u32_saturating_from_f64(f64::from(self.plane.width()) * crop_ratio).max(1);
            let new_h =
                cast::u32_saturating_from_f64(f64::from(self.plane.height()) * crop_ratio).max(1);
            let x0 = (self.plane.width() - new_w) / 2;
            let y0 = (self.plane.height() - new_h) / 2;
            let mut samples =
                Vec::with_capacity(cast::usize_from_u32(new_w) * cast::usize_from_u32(new_h));
            for y in y0..y0 + new_h {
                for x in x0..x0 + new_w {
                    samples.push(self.plane.get(x, y));
                }
            }
            BlockPlane::from_samples(new_w, new_h, samples)
                .expect("crop sample count matches dimensions")
        } else {
            self.plane.clone()
        };
        let (w, h) = BlockPlane::dimensions_for(target.resolution);
        let out_w =
            cast::u32_saturating_from_f64(f64::from(w) * target.crop.linear_fraction()).max(1);
        let out_h =
            cast::u32_saturating_from_f64(f64::from(h) * target.crop.linear_fraction()).max(1);
        let resized = cropped.resize(out_w, out_h);
        // Re-quantise only if the target quality is poorer than what the
        // frame already went through.
        let target_retention = target.quality.signal_retention();
        let (plane, retention) = if target_retention < self.signal_retention {
            (resized.quantize(target_retention), target_retention)
        } else {
            (resized, self.signal_retention)
        };
        let objects = self
            .objects
            .iter()
            .filter(|o| o.bbox.visible_under_crop(target.crop))
            .cloned()
            .collect();
        Ok(VideoFrame {
            source_index: self.source_index,
            fidelity: target,
            plane,
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
    scenes
        .iter()
        .filter(|s| frame_selected(s.index, fidelity))
        .map(|s| VideoFrame::from_scene(s, fidelity))
        .collect()
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
    use vstore_types::{CropFactor, FrameSampling, ImageQuality, Resolution};

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
