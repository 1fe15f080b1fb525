//! The codec's per-sample forms, kept as the references the blocked and
//! word-at-a-time kernels are held to: the unit tests compare their bytes,
//! and `examples/kernels.rs` times both. Literals only, so the example can
//! include this file as it is.
//!
//! A motion vector is `(dx, dy)`: sample `(x, y)` of a delta frame is
//! predicted from the previous frame's `(x − dx, y − dy)`, or from its
//! `(x, y)` where that falls outside the plane.

/// `encode_runs`, one sample at a time: repeats of 3 to 130 equal samples
/// (control byte 128 + length − 3) and literal runs of up to 128 samples
/// (control byte length − 1).
pub fn scalar_encode_runs(data: &[u8], out: &mut Vec<u8>) {
    let flush = |out: &mut Vec<u8>, before: &[u8], count: u8| {
        if let Some(control) = count.checked_sub(1) {
            out.push(control);
            out.extend_from_slice(&before[before.len() - usize::from(count)..]);
        }
    };
    out.clear();
    let mut pos = 0;
    // The samples just before `pos` still owed to a literal run.
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

/// The runs of a well-formed payload, expanded one run at a time into a
/// new `Vec`.
pub fn scalar_expand_runs(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some(&control) = data.get(pos) {
        if control < 128 {
            let run = usize::from(control) + 1;
            out.extend_from_slice(&data[pos + 1..pos + 1 + run]);
            pos += 1 + run;
        } else {
            out.resize(out.len() + usize::from(control - 125), data[pos + 1]);
            pos += 2;
        }
    }
    out
}

/// `estimate_motion`, one sample at a time: for each of the 21 vectors
/// with `dx` in −3..=3 and `dy` in −1..=1 (the zero vector first, then by
/// `dy`, then by `dx`), the sum of absolute differences over every 8th row
/// of the window three columns and one row in from each edge; the first
/// least sum wins. A plane too small for the window gets `(0, 0)`.
pub fn scalar_motion_vector(cur: &[u8], prev: &[u8], width: usize) -> (i8, i8) {
    let height = cur.len().checked_div(width).unwrap_or(0);
    if width <= 6 || height <= 2 {
        return (0, 0);
    }
    let mut candidates = vec![(0i8, 0i8)];
    for dy in -1..=1 {
        for dx in -3..=3 {
            if (dx, dy) != (0, 0) {
                candidates.push((dx, dy));
            }
        }
    }
    let mut best = ((0, 0), u64::MAX);
    for (dx, dy) in candidates {
        let mut sum = 0u64;
        let mut y = 1;
        while y < height - 1 {
            for x in 3..width - 3 {
                let sx = (x as isize - isize::from(dx)) as usize;
                let sy = (y as isize - isize::from(dy)) as usize;
                sum += u64::from(cur[y * width + x].abs_diff(prev[sy * width + sx]));
            }
            y += 8;
        }
        if sum < best.1 {
            best = ((dx, dy), sum);
        }
    }
    best.0
}

/// Where sample `(x, y)` of a `width × height` frame is predicted from
/// under `(dx, dy)`: the index of the previous frame's sample.
pub fn scalar_source(x: usize, y: usize, width: usize, height: usize, (dx, dy): (i8, i8)) -> usize {
    let sx = x as isize - isize::from(dx);
    let sy = y as isize - isize::from(dy);
    if sx < 0 || sy < 0 || sx >= width as isize || sy >= height as isize {
        y * width + x
    } else {
        sy as usize * width + sx as usize
    }
}

/// `motion_residual`, one sample at a time.
pub fn scalar_residual(cur: &[u8], prev: &[u8], width: usize, motion: (i8, i8)) -> Vec<u8> {
    let height = cur.len().checked_div(width).unwrap_or(0);
    let mut out = Vec::with_capacity(cur.len());
    for y in 0..height {
        for x in 0..width {
            let p = prev[scalar_source(x, y, width, height, motion)];
            out.push(cur[y * width + x].wrapping_sub(p));
        }
    }
    out
}

/// `reconstruct`, one sample at a time.
pub fn scalar_reconstruct(residual: &[u8], prev: &[u8], width: usize, motion: (i8, i8)) -> Vec<u8> {
    let height = residual.len().checked_div(width).unwrap_or(0);
    let mut out = Vec::with_capacity(residual.len());
    for y in 0..height {
        for x in 0..width {
            let p = prev[scalar_source(x, y, width, height, motion)];
            out.push(residual[y * width + x].wrapping_add(p));
        }
    }
    out
}
