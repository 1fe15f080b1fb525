//! Lexical scanning for the analysis pass.
//!
//! [`SourceFile::parse`] turns one Rust source file into per-line records
//! that the rules consume: the line's code with comments and literal
//! contents blanked out (so `"std::fs"` inside a string never trips a
//! rule), whether the line sits in test code (`#[cfg(test)]` items or a
//! `mod tests`), the innermost `fn`/`impl`/`struct`/`enum` context and
//! brace depth.
//!
//! This is deliberately a line/token scanner, not a parser: it tracks just
//! enough structure (string/comment state, brace depth, item headers) to
//! scope the project-invariant rules correctly, and nothing more.

/// The innermost scope kind at the start of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextKind {
    /// Top level of the file.
    TopLevel,
    /// Inside a `fn` body.
    Fn,
    /// Inside an `impl` block (but not one of its `fn` bodies).
    Impl,
    /// Inside a `struct` body.
    Struct,
    /// Inside an `enum` body.
    Enum,
    /// Inside a `mod` block.
    Mod,
    /// Any other brace scope (blocks, match bodies, literals, ...).
    Other,
}

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line's code with comments and string/char literal contents
    /// blanked to spaces (delimiters kept).
    pub code: String,
    /// Whether the line is inside test code: a `#[cfg(test)]` item or a
    /// `mod tests` block (either at line start or line end, so closing
    /// braces of test modules still count as test code).
    pub in_test: bool,
    /// Brace depth at the start of the line.
    pub depth_start: usize,
    /// Brace depth at the end of the line.
    pub depth_end: usize,
    /// The innermost scope kind at the start of the line.
    pub start_kind: ContextKind,
    /// Innermost enclosing `struct` name at the start of the line.
    pub struct_ctx: Option<String>,
    /// Innermost enclosing `fn` name at the end of the line.
    pub fn_ctx: Option<String>,
    /// Innermost enclosing `impl` type name at the end of the line.
    pub impl_ctx: Option<String>,
}

/// One parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// The scanned lines, in file order.
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Parse `text` (the contents of `rel_path`) into per-line records.
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let code_lines = strip(text);
        let mut scopes: Vec<Scope> = Vec::new();
        let mut header = String::new();
        let mut lines = Vec::with_capacity(code_lines.len());

        for code in &code_lines {
            let depth_start = scopes.len();
            let start_kind = innermost_kind(&scopes);
            let struct_ctx = innermost_name(&scopes, |k| matches!(k, ScopeKind::Struct(_)));
            let test_start = scopes.iter().any(|s| s.test);

            for ch in code.chars() {
                match ch {
                    '{' => {
                        let scope = classify(&header);
                        scopes.push(scope);
                        header.clear();
                    }
                    '}' => {
                        scopes.pop();
                        header.clear();
                    }
                    ';' => header.clear(),
                    _ => header.push(ch),
                }
            }

            let test_end = scopes.iter().any(|s| s.test);
            lines.push(Line {
                code: code.clone(),
                in_test: test_start || test_end,
                depth_start,
                depth_end: scopes.len(),
                start_kind,
                struct_ctx,
                fn_ctx: innermost_name(&scopes, |k| matches!(k, ScopeKind::Fn(_))),
                impl_ctx: innermost_name(&scopes, |k| matches!(k, ScopeKind::Impl(_))),
            });
        }

        SourceFile {
            rel_path: rel_path.to_owned(),
            lines,
        }
    }
}

#[derive(Debug)]
enum ScopeKind {
    Fn(String),
    Impl(String),
    Struct(String),
    Enum(String),
    Mod(String),
    Other,
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    test: bool,
}

fn innermost_kind(scopes: &[Scope]) -> ContextKind {
    match scopes.last().map(|s| &s.kind) {
        None => ContextKind::TopLevel,
        Some(ScopeKind::Fn(_)) => ContextKind::Fn,
        Some(ScopeKind::Impl(_)) => ContextKind::Impl,
        Some(ScopeKind::Struct(_)) => ContextKind::Struct,
        Some(ScopeKind::Enum(_)) => ContextKind::Enum,
        Some(ScopeKind::Mod(_)) => ContextKind::Mod,
        Some(ScopeKind::Other) => ContextKind::Other,
    }
}

fn innermost_name(scopes: &[Scope], pred: impl Fn(&ScopeKind) -> bool) -> Option<String> {
    scopes
        .iter()
        .rev()
        .find(|s| pred(&s.kind))
        .map(|s| match &s.kind {
            ScopeKind::Fn(n)
            | ScopeKind::Impl(n)
            | ScopeKind::Struct(n)
            | ScopeKind::Enum(n)
            | ScopeKind::Mod(n) => n.clone(),
            ScopeKind::Other => String::new(),
        })
}

/// Classify the item-header text accumulated since the last `;`/`{`/`}`
/// into the scope the next `{` opens.
fn classify(header: &str) -> Scope {
    let test = header.contains("#[cfg(test)]");
    if let Some(name) = ident_after_keyword(header, "fn") {
        return Scope {
            kind: ScopeKind::Fn(name),
            test,
        };
    }
    if contains_word(header, "impl") {
        return Scope {
            kind: ScopeKind::Impl(impl_type_name(header)),
            test,
        };
    }
    if let Some(name) = ident_after_keyword(header, "struct") {
        return Scope {
            kind: ScopeKind::Struct(name),
            test,
        };
    }
    if let Some(name) = ident_after_keyword(header, "enum") {
        return Scope {
            kind: ScopeKind::Enum(name),
            test,
        };
    }
    if let Some(name) = ident_after_keyword(header, "mod") {
        let test = test || name == "tests";
        return Scope {
            kind: ScopeKind::Mod(name),
            test,
        };
    }
    Scope {
        kind: ScopeKind::Other,
        test,
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Find a word-boundary occurrence of `kw` in `text` and return the
/// identifier that follows it, if any.
fn ident_after_keyword(text: &str, kw: &str) -> Option<String> {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find(kw) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1] as char);
        let after = at + kw.len();
        let after_ok = after >= text.len() || !is_ident_char(bytes[after] as char);
        if before_ok && after_ok {
            let rest = text[after..].trim_start();
            let end = rest
                .char_indices()
                .find(|&(_, c)| !is_ident_char(c))
                .map_or(rest.len(), |(i, _)| i);
            if end > 0 {
                return Some(rest[..end].to_owned());
            }
            return None;
        }
        from = at + kw.len();
    }
    None
}

fn contains_word(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1] as char);
        let after = at + word.len();
        let after_ok = after >= text.len() || !is_ident_char(bytes[after] as char);
        if before_ok && after_ok {
            return true;
        }
        from = at + word.len();
    }
    false
}

/// Extract the self-type name from an `impl` header: the last path segment
/// of the type after `for` (trait impls) or directly after the generics
/// (inherent impls). `impl<T> fmt::Debug for Mutex<T>` -> `Mutex`.
fn impl_type_name(header: &str) -> String {
    let after_impl = match header.find("impl") {
        Some(pos) => &header[pos + 4..],
        None => header,
    };
    // Skip a balanced generics list directly after `impl`.
    let mut rest = after_impl.trim_start();
    if rest.starts_with('<') {
        let mut depth = 0usize;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = rest[cut..].trim_start();
    }
    // Trait impl: the self type is after the last ` for `.
    let ty = match rest.rfind(" for ") {
        Some(pos) => &rest[pos + 5..],
        None => rest,
    };
    let ty = ty.trim_start_matches(['&', ' ']).trim_start_matches("mut ");
    // Leading path up to generics/where/brace, last `::` segment.
    let end = ty
        .char_indices()
        .find(|&(_, c)| !(is_ident_char(c) || c == ':'))
        .map_or(ty.len(), |(i, _)| i);
    let path = &ty[..end];
    path.rsplit("::").next().unwrap_or(path).to_owned()
}

/// Blank comments and literal contents out of `text`, preserving the line
/// structure: each line keeps string/char delimiters but has their
/// contents, and every comment, replaced with spaces.
fn strip(text: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum State {
        Normal,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
        Char,
    }

    let chars: Vec<char> = text.chars().collect();
    let mut code = String::with_capacity(text.len());
    let mut state = State::Normal;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Normal;
            }
            code.push('\n');
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    code.push('"');
                    i += 1;
                } else if (c == 'r' || c == 'b') && raw_string_hashes(&chars, i).is_some() {
                    let (skip, hashes) = raw_string_hashes(&chars, i).unwrap_or((1, 0));
                    state = State::RawStr(hashes);
                    for _ in 0..skip {
                        code.push(' ');
                    }
                    code.push('"');
                    i += skip + 1;
                } else if c == '\'' && is_char_literal(&chars, i) {
                    state = State::Char;
                    code.push('\'');
                    i += 1;
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                code.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth > 1 {
                        State::BlockComment(depth - 1)
                    } else {
                        State::Normal
                    };
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    code.push_str("  ");
                    i += 2;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    code.push_str("  ");
                    // Keep a line break inside an escaped literal visible.
                    if chars.get(i + 1) == Some(&'\n') {
                        code.pop();
                    } else {
                        i += 1;
                    }
                    i += 1;
                } else if c == '"' {
                    state = State::Normal;
                    code.push('"');
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw_string(&chars, i, hashes) {
                    state = State::Normal;
                    code.push('"');
                    for _ in 0..hashes {
                        code.push(' ');
                    }
                    i += 1 + hashes;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::Char => {
                if c == '\\' {
                    code.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    state = State::Normal;
                    code.push('\'');
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
        }
    }

    code.lines().map(str::to_owned).collect()
}

/// If position `i` starts a raw (byte) string prefix (`r"`, `r#"`, `br#"`,
/// ...), return `(prefix_len, hash_count)` where `prefix_len` counts the
/// chars before the opening quote.
fn raw_string_hashes(chars: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((j - i, hashes))
    } else {
        None
    }
}

fn closes_raw_string(chars: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Distinguish a char literal from a lifetime: `'a'` and `'\n'` are
/// literals, `'a` in `Foo<'a>` is not.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let f = SourceFile::parse(
            "x.rs",
            "let s = \"a.unwrap()\"; // .unwrap()\nlet c = 'x'; /* as u32 */\n",
        );
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("let s"));
        assert!(!f.lines[1].code.contains("as u32"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = SourceFile::parse("x.rs", "let s = r#\"std::fs\"#;\nlet t = 1;\n");
        assert!(!f.lines[0].code.contains("std::fs"));
        assert!(f.lines[1].code.contains("let t"));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let f = SourceFile::parse("x.rs", "fn f<'a>(x: &'a str) -> &'a str {\n    x\n}\n");
        assert!(f.lines[1].code.contains('x'));
        assert_eq!(f.lines[1].fn_ctx.as_deref(), Some("f"));
    }

    #[test]
    fn cfg_test_items_and_mod_tests_are_test_code() {
        let src = "fn lib() {\n    work();\n}\n#[cfg(test)]\nmod tests {\n    fn helper() {\n        x.unwrap();\n    }\n}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.lines[1].in_test, "library body");
        assert!(f.lines[6].in_test, "test helper body");
        let src2 = "mod tests {\n    fn t() {}\n}\n";
        let f2 = SourceFile::parse("x.rs", src2);
        assert!(f2.lines[1].in_test);
    }

    #[test]
    fn impl_and_fn_contexts_are_tracked() {
        let src =
            "impl<T> fmt::Debug for Wrapper<T> {\n    fn fmt(&self) {\n        body();\n    }\n}\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.lines[2].impl_ctx.as_deref(), Some("Wrapper"));
        assert_eq!(f.lines[2].fn_ctx.as_deref(), Some("fmt"));
    }

    #[test]
    fn struct_fields_and_enum_variants_have_context() {
        let src = "pub struct S {\n    state: Mutex<u32>,\n}\npub enum E {\n    A,\n    B { x: u32 },\n}\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.lines[1].struct_ctx.as_deref(), Some("S"));
        assert_eq!(f.lines[1].start_kind, ContextKind::Struct);
        assert_eq!(f.lines[4].start_kind, ContextKind::Enum);
    }
}
