//! The run coder as it tested one sample at a time, kept as the reference
//! the word-at-a-time `encode_runs` is held to: the unit tests compare
//! their bytes, and `examples/kernels.rs` times both. Literals only, so the
//! example can include this file as it is.

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
