//! Byte-kernel profile: what rendering one real Jackson segment costs (the
//! background fill, the rasteriser and the whole 240-frame render), what
//! each byte kernel costs per sample on it, beside the reference each is
//! held to, and what each stage of transcoding that segment costs at
//! Query A's storage formats — a per-stage table in the style Scanner
//! keeps for its operators. It prints; it has no timing gate.
//!
//! ```sh
//! cargo run --release --example kernels
//! ```
//!
//! The scalar references are the per-sample forms the blocked kernels and
//! the word-at-a-time run coder replaced, and the scene's are the
//! per-frame background fill and the per-pixel rasteriser the renderer
//! replaced; the unit tests hold each kernel to its reference bit for bit.

use std::hint::black_box;
use std::time::Instant;
use vstore::codec::codec::encode_runs;
use vstore::codec::frame::materialize_clip;
use vstore::datasets::{
    rasterise, sad, wrapped_distance, wrapped_magnitude, BlockPlane, Dataset, DatasetProfile,
    SceneFrame, SceneObject, VideoSource, SEGMENT_FRAMES,
};
use vstore::types::{CodingOption, DeterministicHasher};
use vstore::{BackendOptions, QuerySpec, VStore, VStoreOptions};

/// Timed rounds per row; the median is reported.
const ROUNDS: usize = 15;

fn scalar_sad(a: &[u8], b: &[u8]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(&a, &b)| u64::from(a.abs_diff(b)))
        .sum()
}

fn scalar_wrapped_distance(a: &[u8], b: &[u8]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(&c, &p)| {
            let d = c.wrapping_sub(p);
            u64::from(d.min(0u8.wrapping_sub(d)))
        })
        .sum()
}

fn scalar_wrapped_magnitude(deltas: &[u8]) -> u64 {
    deltas
        .iter()
        .map(|&d| u64::from(d.min(0u8.wrapping_sub(d))))
        .sum()
}

/// Contour's energy read through `get`, one sample at a time.
fn scalar_gradient_energy(plane: &BlockPlane) -> f64 {
    let (width, height) = (plane.width(), plane.height());
    if width < 2 || height == 0 {
        return 0.0;
    }
    let mut total = 0u64;
    for y in 0..height {
        for x in 1..width {
            total += u64::from(plane.get(x, y).abs_diff(plane.get(x - 1, y)));
        }
    }
    total as f64 / f64::from(height * (width - 1))
}

/// The run coder testing one sample at a time.
fn scalar_encode_runs(data: &[u8], out: &mut Vec<u8>) {
    let flush = |out: &mut Vec<u8>, before: &[u8], count: u8| {
        if let Some(control) = count.checked_sub(1) {
            out.push(control);
            out.extend_from_slice(&before[before.len() - usize::from(count)..]);
        }
    };
    out.clear();
    let mut pos = 0;
    let mut literals: u8 = 0;
    while let Some(&value) = data.get(pos) {
        let mut run: u8 = 1;
        while run < 130 && data.get(pos + usize::from(run)) == Some(&value) {
            run += 1;
        }
        if run >= 3 {
            flush(out, &data[..pos], literals);
            literals = 0;
            out.extend_from_slice(&[run - 3 + 128, value]);
        } else {
            if literals + run > 128 {
                flush(out, &data[..pos], literals);
                literals = 0;
            }
            literals += run;
        }
        pos += usize::from(run);
    }
    flush(out, &data[..pos], literals);
}

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

/// The rasteriser the clipped one replaced: every sample of every box
/// bounds-checked and blended through `get`/`set`.
fn per_pixel_rasterise(objects: &[SceneObject], plane: &mut BlockPlane) {
    let (w, h) = (plane.width(), plane.height());
    for obj in objects {
        let luma = obj.color.luma();
        let x0 = (obj.bbox.x * w as f32) as i64;
        let y0 = (obj.bbox.y * h as f32) as i64;
        let bw = ((obj.bbox.w * w as f32).ceil() as i64).max(1);
        let bh = ((obj.bbox.h * h as f32).ceil() as i64).max(1);
        for yy in y0..(y0 + bh) {
            for xx in x0..(x0 + bw) {
                if xx >= 0 && yy >= 0 && (xx as u32) < w && (yy as u32) < h {
                    let bg = plane.get(xx as u32, yy as u32);
                    let blended =
                        f32::from(bg) * (1.0 - obj.salience) + f32::from(luma) * obj.salience;
                    plane.set(xx as u32, yy as u32, blended as u8);
                }
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
        "{stage:<30} {samples:>8} {:>9} {:>9} {:>8} {:>9} {:>9}",
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

/// The deltas of each frame against the one before it.
fn deltas(planes: &[&[u8]]) -> Vec<Vec<u8>> {
    planes
        .windows(2)
        .map(|w| {
            w[1].iter()
                .zip(w[0])
                .map(|(&c, &p)| c.wrapping_sub(p))
                .collect()
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
        "{:<30} {:>8} {:>9} {:>9} {:>8} {:>9} {:>9}",
        "stage", "samples", "ns/sample", "reference", "speedup", "us", "ref us"
    );
    let scenes = scene_rows(&VideoSource::new(Dataset::Jackson));
    let planes: Vec<&[u8]> = scenes.iter().map(|s| s.plane.samples()).collect();
    let scene_deltas = deltas(&planes);
    let scene_deltas: Vec<&[u8]> = scene_deltas.iter().map(Vec::as_slice).collect();
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
        "wrapped distance (key)",
        &planes,
        wrapped_distance,
        scalar_wrapped_distance,
    );
    let magnitudes = |f: fn(&[u8]) -> u64| {
        let inputs = &scene_deltas;
        move || {
            black_box(inputs.iter().map(|d| f(d)).sum::<u64>());
        }
    };
    let delta_samples = scene_deltas.iter().map(|d| d.len()).sum();
    row(
        "wrapped magnitude (delta)",
        delta_samples,
        magnitudes(wrapped_magnitude),
        Some(&mut magnitudes(scalar_wrapped_magnitude)),
    );
    coder_row("run coder (samples)", &planes);
    coder_row("run coder (deltas)", &scene_deltas);

    // The stages of transcoding the segment into each of Query A's storage
    // formats: materialise, then for a coded format the deltas within each
    // GOP, their runs and their scores, for a RAW one the scores alone.
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
            keyframe_interval, ..
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
        // Into one reused buffer, as the encoder takes them.
        let mut buffer = Vec::new();
        row(
            &name("deltas"),
            samples,
            || {
                for pair in planes.chunks(gop).flat_map(|group| group.windows(2)) {
                    buffer.clear();
                    buffer.extend(
                        pair[1]
                            .iter()
                            .zip(pair[0])
                            .map(|(&c, &p)| c.wrapping_sub(p)),
                    );
                    black_box(&buffer);
                }
            },
            None,
        );
        // Each GOP's keyframe samples and its frames' deltas, as coded.
        let gop_deltas: Vec<Vec<Vec<u8>>> = planes.chunks(gop).map(deltas).collect();
        let coded: Vec<&[u8]> = planes
            .chunks(gop)
            .zip(&gop_deltas)
            .flat_map(|(group, deltas)| {
                std::iter::once(group[0]).chain(deltas.iter().map(Vec::as_slice))
            })
            .collect();
        coder_row(&name("runs"), &coded);
        let delta_slices: Vec<&[u8]> = gop_deltas.iter().flatten().map(Vec::as_slice).collect();
        let keys: Vec<&[u8]> = planes.iter().step_by(gop).copied().collect();
        let scores = |distance: fn(&[u8], &[u8]) -> u64, magnitude: fn(&[u8]) -> u64| {
            let (keys, delta_slices) = (&keys, &delta_slices);
            move || {
                let key: u64 = keys.windows(2).map(|w| distance(w[1], w[0])).sum();
                let delta: u64 = delta_slices.iter().map(|d| magnitude(d)).sum();
                black_box(key + delta);
            }
        };
        row(
            &name("scores"),
            samples - keys[0].len(),
            scores(wrapped_distance, wrapped_magnitude),
            Some(&mut scores(
                scalar_wrapped_distance,
                scalar_wrapped_magnitude,
            )),
        );
    }
    Ok(())
}
