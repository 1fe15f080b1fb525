//! Byte-kernel profile: what rendering one real Jackson segment costs (the
//! background fill, the rasteriser and the whole 240-frame render), what
//! each byte kernel costs per sample on it, beside the reference each is
//! held to, and what each stage of transcoding that segment costs at
//! Query A's storage formats (for the coded golden format: the motion
//! estimate, the residual, its runs, the scores, and decoding it back) — a
//! per-stage table in the style Scanner keeps for its operators. It
//! prints; it has no timing gate.
//!
//! ```sh
//! cargo run --release --example kernels
//! ```
//!
//! The scalar references are the per-sample forms the blocked kernels, the
//! motion kernels and the word-at-a-time run coder are held to, and the
//! scene's are the per-frame background fill and the per-pixel rasteriser
//! the renderer replaced. The crates' unit tests hold each kernel to its
//! reference bit for bit; all but the fill are the crates' own
//! `reference.rs` files, included here through `#[path]`.

use std::hint::black_box;
use std::time::Instant;
use vstore::codec::codec::{
    decode_segment, encode_runs, encode_segment, estimate_motion, motion_residual,
};
use vstore::codec::frame::materialize_clip;
use vstore::datasets::{
    rasterise, sad, wrapped_distance, BlockPlane, Dataset, DatasetProfile, SceneFrame, SceneObject,
    VideoSource, SEGMENT_FRAMES,
};
use vstore::types::{CodingOption, DeterministicHasher};
use vstore::{BackendOptions, QuerySpec, VStore, VStoreOptions};

#[path = "../crates/codec/src/reference.rs"]
mod codec_reference;
#[path = "../crates/datasets/src/reference.rs"]
mod datasets_reference;

use codec_reference::{
    scalar_encode_runs, scalar_expand_runs, scalar_motion_vector, scalar_reconstruct,
    scalar_residual,
};
use datasets_reference::{
    per_pixel_rasterise, scalar_gradient_energy, scalar_sad, scalar_wrapped_distance,
};

/// Timed rounds per row; the median is reported.
const ROUNDS: usize = 15;

/// The background fill the grouped fill replaced: the tile's texture
/// hashed once, then every frame's rows quantised from it on their own.
fn per_frame_fill(profile: &DatasetProfile, start: u64, planes: &mut [BlockPlane]) {
    let shift = |index: u64| (index as f64 * profile.motion_intensity * 1.8).round() as i64;
    let (first, last) = (shift(start), shift(start + planes.len() as u64 - 1));
    let w = planes[0].width() as usize;
    let tile_w = (last - first) as usize + w;
    let tile_h = (last / 3 - first / 3) as usize + planes[0].height() as usize;
    let amp = 55.0 * profile.background_texture;
    let prefix = DeterministicHasher::new(profile.seed).mix(0xBAC4_6000);
    let columns: Vec<DeterministicHasher> = (0..tile_w)
        .map(|tx| prefix.mix((first + tx as i64) as u64))
        .collect();
    let texture: Vec<f64> = (0..tile_h)
        .flat_map(|ty| {
            let sy = (first / 3 + ty as i64) as u64;
            columns
                .iter()
                .map(move |column| amp * (column.mix(sy).unit() - 0.5) * 2.0)
        })
        .collect();
    for (index, plane) in (start..).zip(planes) {
        let (dx, dy) = (
            (shift(index) - first) as usize,
            (shift(index) / 3 - first / 3) as usize,
        );
        for (y, row) in plane.samples_mut().chunks_exact_mut(w).enumerate() {
            let base = 70.0 + 110.0 * (y as f64 / 90.0);
            let at = (y + dy) * tile_w + dx;
            for (sample, &term) in row.iter_mut().zip(&texture[at..at + w]) {
                *sample = (base + term).clamp(0.0, 255.0) as u8;
            }
        }
    }
}

/// The rows of rendering segment 0 of `source`: its background fill alone
/// (a source of the same profile with no objects, so rendering it is the
/// grouped fill and an empty object list a frame), the rasteriser over its
/// objects, and the whole render. Each reference is checked against the
/// renderer's output before it is timed.
fn scene_rows(source: &VideoSource) -> Vec<SceneFrame> {
    let mut profile = *source.profile();
    profile.object_arrivals_per_minute = 0.0;
    let empty = VideoSource::from_profile("empty", profile);
    let mut frames = Vec::new();
    empty.segment_into(0, &mut frames);
    assert!(
        frames.iter().all(|f| f.objects.is_empty()),
        "objects in the empty scene"
    );
    let mut planes: Vec<BlockPlane> = frames.iter().map(|f| f.plane.clone()).collect();
    per_frame_fill(&profile, 0, &mut planes);
    assert!(
        frames.iter().zip(&planes).all(|(f, p)| f.plane == *p),
        "fills differ"
    );
    let samples = planes.iter().map(BlockPlane::len).sum();
    row(
        "scene fill (grouped)",
        samples,
        || empty.segment_into(0, &mut frames),
        Some(&mut || per_frame_fill(&profile, 0, &mut planes)),
    );

    let scenes = source.segment(0);
    let paint = |f: fn(&[SceneObject], &mut BlockPlane), planes: &mut [BlockPlane]| {
        for (plane, scene) in planes.iter_mut().zip(&scenes) {
            f(&scene.objects, plane);
        }
    };
    for f in [rasterise, per_pixel_rasterise] {
        let mut painted = planes.clone();
        paint(f, &mut painted);
        assert!(
            painted.iter().zip(&scenes).all(|(p, s)| *p == s.plane),
            "rasterisers differ"
        );
    }
    let (mut clipped, mut per_pixel) = (planes.clone(), planes.clone());
    row(
        "rasterise (clipped)",
        samples,
        || paint(rasterise, &mut clipped),
        Some(&mut || paint(per_pixel_rasterise, &mut per_pixel)),
    );

    // The reference render takes the objects as given, so it leaves out
    // describing the frames.
    let mut rendered = Vec::new();
    row(
        "scene render (240 frames)",
        samples,
        || source.segment_into(0, &mut rendered),
        Some(&mut || {
            per_frame_fill(&profile, 0, &mut planes);
            paint(per_pixel_rasterise, &mut planes);
        }),
    );
    scenes
}

/// Median wall time of `ROUNDS` calls of `f`, in nanoseconds.
fn median_ns(mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[ROUNDS / 2]
}

/// One row: a stage over `samples` samples, timed as this build runs it
/// and, where the stage has one, as its reference runs it.
fn row(stage: &str, samples: usize, blocked: impl FnMut(), scalar: Option<&mut dyn FnMut()>) {
    let blocked = median_ns(blocked);
    let scalar = scalar.map(median_ns);
    let per = |ns: f64| format!("{:.3}", ns / samples as f64);
    let us = |ns: f64| format!("{:.1}", ns / 1e3);
    println!(
        "{stage:<34} {samples:>8} {:>9} {:>9} {:>8} {:>9} {:>9}",
        per(blocked),
        scalar.map_or("-".into(), per),
        scalar.map_or("-".into(), |s| format!("{:.1}x", s / blocked)),
        us(blocked),
        scalar.map_or("-".into(), us),
    );
}

/// A row for the run coder over `inputs`, against the scalar coder.
fn coder_row(stage: &str, inputs: &[&[u8]]) {
    let samples = inputs.iter().map(|i| i.len()).sum();
    let code = |coder: fn(&[u8], &mut Vec<u8>)| {
        let mut runs = Vec::new();
        move || {
            for input in inputs {
                coder(input, &mut runs);
                black_box(&runs);
            }
        }
    };
    row(
        stage,
        samples,
        code(encode_runs),
        Some(&mut code(scalar_encode_runs)),
    );
}

/// The residual of each `width`-sample-wide frame against the one before
/// it, under the vector the encoder picks.
fn residuals(planes: &[&[u8]], width: usize) -> Vec<Vec<u8>> {
    planes
        .windows(2)
        .map(|w| {
            let mut residual = Vec::new();
            let motion = estimate_motion(w[1], w[0], width);
            motion_residual(w[1], w[0], width, motion, &mut residual);
            residual
        })
        .collect()
}

/// A row for a two-slice kernel over each plane and the one before it,
/// against its scalar reference.
fn pair_row(
    stage: &str,
    planes: &[&[u8]],
    blocked: fn(&[u8], &[u8]) -> u64,
    scalar: fn(&[u8], &[u8]) -> u64,
) {
    let samples = planes.iter().skip(1).map(|p| p.len()).sum();
    let sum = |f: fn(&[u8], &[u8]) -> u64| {
        move || {
            black_box(planes.windows(2).map(|w| f(w[1], w[0])).sum::<u64>());
        }
    };
    row(stage, samples, sum(blocked), Some(&mut sum(scalar)));
}

fn main() -> vstore::Result<()> {
    let (w, h) = BlockPlane::dimensions_for(vstore::types::Resolution::R720);
    println!(
        "Jackson segment 0, {SEGMENT_FRAMES} scene frames of {} samples; median of {ROUNDS} rounds",
        w * h
    );
    println!(
        "{:<34} {:>8} {:>9} {:>9} {:>8} {:>9} {:>9}",
        "stage", "samples", "ns/sample", "reference", "speedup", "us", "ref us"
    );
    let scenes = scene_rows(&VideoSource::new(Dataset::Jackson));
    let planes: Vec<&[u8]> = scenes.iter().map(|s| s.plane.samples()).collect();
    let scene_residuals = residuals(&planes, w as usize);
    let scene_residuals: Vec<&[u8]> = scene_residuals.iter().map(Vec::as_slice).collect();
    pair_row("sad (Diff, Opflow)", &planes, sad, scalar_sad);
    let all_samples = planes.iter().map(|p| p.len()).sum();
    row(
        "row sad (Contour)",
        all_samples,
        || {
            black_box(
                scenes
                    .iter()
                    .map(|s| s.plane.gradient_energy())
                    .sum::<f64>(),
            );
        },
        Some(&mut || {
            black_box(
                scenes
                    .iter()
                    .map(|s| scalar_gradient_energy(&s.plane))
                    .sum::<f64>(),
            );
        }),
    );
    pair_row(
        "wrapped distance (VSMETA)",
        &planes,
        wrapped_distance,
        scalar_wrapped_distance,
    );
    coder_row("run coder (samples)", &planes);
    coder_row("run coder (residuals)", &scene_residuals);

    // The stages of transcoding the segment into each of Query A's storage
    // formats: materialise, then for a coded format the motion estimate
    // and the residual of each delta frame, the runs of keyframes and
    // residuals, the scores and the decode back; for a RAW one the scores
    // alone.
    let store = VStore::open(
        "kernels",
        VStoreOptions::fast().with_backend(BackendOptions::Mem),
    )?;
    store.configure(&QuerySpec::query_a(0.8).consumers())?;
    let config = store.configuration().expect("configured above");
    for (id, format) in &config.storage_formats {
        let name = |stage: &str| format!("fmt{} {stage}", id.0);
        let frames = materialize_clip(&scenes, format.fidelity);
        let planes: Vec<&[u8]> = frames.iter().map(|f| f.plane.samples()).collect();
        let samples = planes.iter().map(|p| p.len()).sum();
        row(
            &name("materialise"),
            samples,
            || {
                black_box(materialize_clip(&scenes, format.fidelity));
            },
            None,
        );
        let CodingOption::Encoded {
            keyframe_interval,
            speed,
        } = format.coding
        else {
            pair_row(
                &name("scores"),
                &planes,
                wrapped_distance,
                scalar_wrapped_distance,
            );
            continue;
        };
        let gop = keyframe_interval.frames() as usize;
        let width = frames[0].plane.width() as usize;
        // Each delta frame with its predecessor, as the encoder pairs them.
        let pairs: Vec<(&[u8], &[u8])> = planes
            .chunks(gop)
            .flat_map(|group| group.windows(2))
            .map(|pair| (pair[1], pair[0]))
            .collect();
        let delta_samples = pairs.iter().map(|(cur, _)| cur.len()).sum();
        let vectors: Vec<_> = pairs
            .iter()
            .map(|&(cur, prev)| estimate_motion(cur, prev, width))
            .collect();
        assert!(
            pairs.iter().zip(&vectors).all(|(&(cur, prev), v)| {
                (v.dx, v.dy) == scalar_motion_vector(cur, prev, width)
            }),
            "motion estimates differ"
        );
        row(
            &name("motion estimate"),
            delta_samples,
            || {
                for &(cur, prev) in &pairs {
                    black_box(estimate_motion(cur, prev, width));
                }
            },
            Some(&mut || {
                for &(cur, prev) in &pairs {
                    black_box(scalar_motion_vector(cur, prev, width));
                }
            }),
        );
        // Into one reused buffer, as the encoder takes them.
        let mut buffer = Vec::new();
        row(
            &name("residual"),
            delta_samples,
            || {
                for (&(cur, prev), &motion) in pairs.iter().zip(&vectors) {
                    motion_residual(cur, prev, width, motion, &mut buffer);
                    black_box(&buffer);
                }
            },
            Some(&mut || {
                for (&(cur, prev), motion) in pairs.iter().zip(&vectors) {
                    black_box(scalar_residual(cur, prev, width, (motion.dx, motion.dy)));
                }
            }),
        );
        // Each GOP's keyframe samples and its frames' residuals, as coded.
        let gop_residuals: Vec<Vec<Vec<u8>>> = planes
            .chunks(gop)
            .map(|group| residuals(group, width))
            .collect();
        let coded: Vec<&[u8]> = planes
            .chunks(gop)
            .zip(&gop_residuals)
            .flat_map(|(group, residuals)| {
                std::iter::once(group[0]).chain(residuals.iter().map(Vec::as_slice))
            })
            .collect();
        coder_row(&name("runs"), &coded);
        pair_row(
            &name("scores"),
            &planes,
            wrapped_distance,
            scalar_wrapped_distance,
        );
        // Decoding the whole segment back, against expanding each payload
        // and rebuilding each frame one sample at a time.
        let segment = encode_segment(&frames, keyframe_interval, speed)?;
        let mut payloads = Vec::new();
        for chunk in &segment.chunks {
            for frame in &chunk.frames {
                let mut runs = Vec::new();
                scalar_encode_runs(coded[payloads.len()], &mut runs);
                assert_eq!(frame.payload, runs, "payloads differ");
                payloads.push((frame.is_key, frame.motion, &frame.payload));
            }
        }
        row(
            &name("decode (expand + reconstruct)"),
            samples,
            || {
                black_box(decode_segment(&segment).expect("decodes"));
            },
            Some(&mut || {
                let mut prev: Vec<u8> = Vec::new();
                for &(is_key, motion, payload) in &payloads {
                    let expanded = scalar_expand_runs(payload);
                    prev = if is_key {
                        expanded
                    } else {
                        scalar_reconstruct(&expanded, &prev, width, (motion.dx, motion.dy))
                    };
                    black_box(&prev);
                }
            }),
        );
    }
    Ok(())
}
