//! The shared hand-rolled JSON writer.
//!
//! Both machine-readable surfaces of the store — the metrics snapshot
//! and the Chrome trace export — render through these helpers so escaping
//! and number formatting stay identical everywhere. [`validate`] is a minimal recursive-descent
//! parser used by tests to prove an emitted document is well-formed
//! without pulling in a JSON dependency.

/// Append `s` to `out` as a JSON string literal (quotes included).
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append an `f64` in a stable, always-valid-JSON form: finite values use
/// Rust's shortest round-trip formatting; NaN and infinities (which JSON
/// cannot carry) render as `0`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
        // Rust renders whole floats as e.g. `3` — keep them typed as
        // numbers but unambiguous for golden tests by leaving them as-is
        // (a bare integer is valid JSON).
    } else {
        out.push('0');
    }
}

/// Append a `"key": ` prefix (no value).
pub fn push_key(out: &mut String, key: &str) {
    push_string(out, key);
    out.push_str(": ");
}

/// Validate that `s` is one well-formed JSON value (with optional
/// surrounding whitespace). Returns the byte offset of the failure on
/// error. Numbers are checked loosely (anything `f64` can parse).
pub fn validate(s: &str) -> Result<(), usize> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Ok(())
    } else {
        Err(pos)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(bytes: &[u8], pos: &mut usize) -> Result<(), usize> {
    match bytes.get(*pos) {
        Some(b'{') => object(bytes, pos),
        Some(b'[') => array(bytes, pos),
        Some(b'"') => string(bytes, pos),
        Some(b't') => literal(bytes, pos, b"true"),
        Some(b'f') => literal(bytes, pos, b"false"),
        Some(b'n') => literal(bytes, pos, b"null"),
        Some(_) => number(bytes, pos),
        None => Err(*pos),
    }
}

fn literal(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), usize> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(*pos)
    }
}

fn number(bytes: &[u8], pos: &mut usize) -> Result<(), usize> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    if *pos == start {
        return Err(start);
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|t| t.parse::<f64>().ok())
        .map(|_| ())
        .ok_or(start)
}

fn string(bytes: &[u8], pos: &mut usize) -> Result<(), usize> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        if bytes.len() < *pos + 5
                            || !bytes[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(*pos);
                        }
                        *pos += 5;
                    }
                    _ => return Err(*pos),
                }
            }
            _ => *pos += 1,
        }
    }
    Err(*pos)
}

fn object(bytes: &[u8], pos: &mut usize) -> Result<(), usize> {
    *pos += 1; // '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(*pos);
        }
        string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(*pos);
        }
        *pos += 1;
        skip_ws(bytes, pos);
        value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(*pos),
        }
    }
}

fn array(bytes: &[u8], pos: &mut usize) -> Result<(), usize> {
    *pos += 1; // '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(*pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_through_the_validator() {
        let mut out = String::new();
        push_key(&mut out, "k\"ey\n");
        let mut doc = String::from("{");
        doc.push_str(&out);
        push_string(&mut doc, "va\\lue\twith \u{1} control");
        doc.push('}');
        assert_eq!(validate(&doc), Ok(()), "{doc}");
    }

    #[test]
    fn floats_render_as_valid_json() {
        for v in [0.0, -1.5, 1e300, f64::NAN, f64::INFINITY, 3.0] {
            let mut out = String::new();
            push_f64(&mut out, v);
            assert_eq!(validate(&out), Ok(()), "{v} -> {out}");
        }
    }

    #[test]
    fn validator_accepts_documents_and_rejects_garbage() {
        assert_eq!(
            validate(r#"{"a": [1, 2.5, "x", true, null], "b": {}}"#),
            Ok(())
        );
        assert_eq!(validate("[]"), Ok(()));
        assert!(validate(r#"{"a": }"#).is_err());
        assert!(validate(r#"{"a": 1,}"#).is_err());
        assert!(validate(r#""unterminated"#).is_err());
        assert!(validate("1 2").is_err());
    }
}
