//! The per-sample sums the blocked byte kernels replaced and the per-pixel
//! rasteriser the clipped one replaced, kept as the references they are
//! held to: the unit tests compare each with its reference bit for bit,
//! and `examples/kernels.rs` times both. Public API and literals only, so
//! the example can include this file as it is.

use super::{BlockPlane, SceneObject};

/// `sad`, one sample at a time.
pub fn scalar_sad(a: &[u8], b: &[u8]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(&a, &b)| u64::from(a.abs_diff(b)))
        .sum()
}

/// `wrapped_distance`, one sample at a time.
pub fn scalar_wrapped_distance(a: &[u8], b: &[u8]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(&c, &p)| {
            let d = c.wrapping_sub(p);
            u64::from(d.min(0u8.wrapping_sub(d)))
        })
        .sum()
}

/// `wrapped_magnitude`, one sample at a time.
pub fn scalar_wrapped_magnitude(deltas: &[u8]) -> u64 {
    deltas
        .iter()
        .map(|&d| u64::from(d.min(0u8.wrapping_sub(d))))
        .sum()
}

/// `BlockPlane::gradient_energy` as it read each sample through `get`.
pub fn scalar_gradient_energy(plane: &BlockPlane) -> f64 {
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

/// The rasteriser the clipped one replaced: every sample of every box
/// bounds-checked and blended through `get`/`set`.
pub fn per_pixel_rasterise(objects: &[SceneObject], plane: &mut BlockPlane) {
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
