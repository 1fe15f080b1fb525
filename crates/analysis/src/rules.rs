//! The project-invariant rules.
//!
//! Each rule is a pure function from scanned sources to findings; scoping
//! (which crates/paths a rule covers) lives here so the fixture tests can
//! exercise a rule by giving a fixture a matching virtual path. All rules
//! skip test code (`#[cfg(test)]` items, `mod tests`) and honor per-site
//! `// vstore-lint: allow(rule)` suppressions.

use crate::lockgraph::{EdgeSite, LockGraph};
use crate::report::Finding;
use crate::scan::{ContextKind, SourceFile};

/// Rule name: lock-acquisition ordering cycles (potential deadlocks).
pub const LOCK_ORDER: &str = "lock-order";
/// Rule name: raw `std::fs` outside the storage-backend seam.
pub const BACKEND_SEAM: &str = "backend-seam";
/// Rule name: narrowing `as` casts on storage/codec/serve paths.
pub const CHECKED_CAST: &str = "checked-cast";
/// Rule name: `unwrap`/`expect`/`panic!` in core library code.
pub const NO_UNWRAP: &str = "no-unwrap";
/// Rule name: hand-rolled `Mutex<VecDeque<_>>` queues outside
/// `vstore_types::BoundedQueue`'s own file.
pub const BOUNDED_QUEUE: &str = "bounded-queue";
/// Rule name: trace span guards bound to `_` (dropped immediately).
pub const SPAN_GUARD: &str = "span-guard";

/// All rule names, for CLI help and docs.
pub const ALL_RULES: &[&str] = &[
    LOCK_ORDER,
    BACKEND_SEAM,
    CHECKED_CAST,
    NO_UNWRAP,
    BOUNDED_QUEUE,
    SPAN_GUARD,
];

/// The core library crates whose non-test code must not panic.
const NO_UNWRAP_SCOPE: &[&str] = &[
    "src/",
    "crates/storage/src/",
    "crates/codec/src/",
    "crates/core/src/",
    "crates/ingest/src/",
    "crates/obs/src/",
    "crates/query/src/",
    "crates/serve/src/",
    "crates/sim/src/",
    "crates/types/src/",
];

/// The hot paths where every narrowing cast must go through
/// `vstore_types::cast`.
const CHECKED_CAST_SCOPE: &[&str] = &[
    "src/",
    "crates/storage/src/",
    "crates/codec/src/",
    "crates/serve/src/",
];

/// Where the backend-seam rule applies (library code of the store crates).
const BACKEND_SEAM_SCOPE: &[&str] = &[
    "src/",
    "crates/storage/src/",
    "crates/codec/src/",
    "crates/core/src/",
    "crates/ingest/src/",
    "crates/obs/src/",
    "crates/query/src/",
    "crates/serve/src/",
    "crates/sim/src/",
    "crates/types/src/",
    "crates/ops/src/",
];

/// The one file allowed a raw `Mutex<VecDeque<_>>`: the queue itself.
pub const BOUNDED_QUEUE_HOME: &str = "crates/types/src/queue.rs";

/// The only place allowed to touch `std::fs`: the backend seam itself.
const BACKEND_SEAM_EXEMPT: &[&str] = &["crates/storage/src/backend.rs"];

fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| path.starts_with(p))
}

/// Run every rule.
pub fn run_all(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(lock_order(files));
    findings.extend(backend_seam(files));
    findings.extend(checked_cast(files));
    findings.extend(no_unwrap(files));
    findings.extend(bounded_queue(files));
    findings.extend(span_guard(files));
    findings
}

// ---------------------------------------------------------------------
// backend-seam
// ---------------------------------------------------------------------

/// All disk I/O flows through the `StorageBackend` trait: `std::fs` in
/// non-test library code is only legal inside the backend seam itself.
pub fn backend_seam(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !in_scope(&file.rel_path, BACKEND_SEAM_SCOPE)
            || BACKEND_SEAM_EXEMPT
                .iter()
                .any(|e| file.rel_path.starts_with(e))
        {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test || !token_present(&line.code, "std::fs") {
                continue;
            }
            if file.is_allowed(idx, BACKEND_SEAM) {
                continue;
            }
            findings.push(Finding::new(
                BACKEND_SEAM,
                &file.rel_path,
                idx + 1,
                line.fn_ctx.as_deref().unwrap_or(""),
                "raw std::fs outside the StorageBackend seam; route disk I/O through the \
                 backend trait"
                    .to_owned(),
                line.code.trim(),
            ));
        }
    }
    findings
}

// ---------------------------------------------------------------------
// checked-cast
// ---------------------------------------------------------------------

const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// Narrowing `as` casts on the storage/codec/serve paths silently truncate;
/// they must go through `vstore_types::cast` (or be explicitly allowed).
pub fn checked_cast(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !in_scope(&file.rel_path, CHECKED_CAST_SCOPE) {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for target in narrowing_casts(&line.code) {
                if file.is_allowed(idx, CHECKED_CAST) {
                    continue;
                }
                findings.push(Finding::new(
                    CHECKED_CAST,
                    &file.rel_path,
                    idx + 1,
                    line.fn_ctx.as_deref().unwrap_or(""),
                    format!(
                        "narrowing `as {target}` cast on a checked path; use a \
                         vstore_types::cast helper (or allow with a justification)"
                    ),
                    line.code.trim(),
                ));
            }
        }
    }
    findings
}

/// The narrow targets of every `as <narrow-int>` cast on the line.
fn narrowing_casts(code: &str) -> Vec<&'static str> {
    let mut found = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("as") {
        let at = from + pos;
        from = at + 2;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1] as char);
        let after = at + 2;
        let after_ok = after < code.len() && (bytes[after] as char).is_whitespace();
        if !before_ok || !after_ok {
            continue;
        }
        let rest = code[after..].trim_start();
        for target in NARROW_TARGETS {
            if rest.starts_with(target)
                && !rest[target.len()..]
                    .chars()
                    .next()
                    .is_some_and(is_ident_char)
            {
                found.push(*target);
                break;
            }
        }
    }
    found
}

// ---------------------------------------------------------------------
// no-unwrap
// ---------------------------------------------------------------------

const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Core library code returns typed errors; it does not panic. Intentional
/// invariant panics carry an allow comment with a one-line justification.
pub fn no_unwrap(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !in_scope(&file.rel_path, NO_UNWRAP_SCOPE) {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for token in PANIC_TOKENS {
                if !panic_token_present(&line.code, token) {
                    continue;
                }
                if file.is_allowed(idx, NO_UNWRAP) {
                    continue;
                }
                findings.push(Finding::new(
                    NO_UNWRAP,
                    &file.rel_path,
                    idx + 1,
                    line.fn_ctx.as_deref().unwrap_or(""),
                    format!(
                        "`{}` in core library code; return a typed VStoreError (or allow \
                         with a justification)",
                        token.trim_start_matches('.').trim_end_matches('(')
                    ),
                    line.code.trim(),
                ));
            }
        }
    }
    findings
}

fn panic_token_present(code: &str, token: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        from = at + token.len();
        // Word boundary on the left (so `catch_panic!(` or a longer method
        // name never matches). Tokens starting with `.` are self-bounding.
        let before_ok =
            token.starts_with('.') || at == 0 || !is_ident_char(code.as_bytes()[at - 1] as char);
        if before_ok {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------
// bounded-queue
// ---------------------------------------------------------------------

/// Every queue in the system is a `vstore_types::BoundedQueue` (bounded,
/// back-pressured, close/drain semantics); raw `Mutex<VecDeque<_>>`
/// queueing outside [`BOUNDED_QUEUE_HOME`] reintroduces unbounded growth.
pub fn bounded_queue(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if file.rel_path == BOUNDED_QUEUE_HOME || file.rel_path.starts_with("crates/analysis/src/")
        {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let packed: String = line.code.chars().filter(|c| !c.is_whitespace()).collect();
            if !(packed.contains("Mutex<VecDeque") || packed.contains("RwLock<VecDeque")) {
                continue;
            }
            if file.is_allowed(idx, BOUNDED_QUEUE) {
                continue;
            }
            findings.push(Finding::new(
                BOUNDED_QUEUE,
                &file.rel_path,
                idx + 1,
                line.fn_ctx.as_deref().unwrap_or(""),
                "raw Mutex<VecDeque<_>> queue; use vstore_types::BoundedQueue (bounded, \
                 back-pressured, close/drain semantics)"
                    .to_owned(),
                line.code.trim(),
            ));
        }
    }
    findings
}

// ---------------------------------------------------------------------
// span-guard
// ---------------------------------------------------------------------

/// A trace span guard bound to `_` is dropped on the same statement: the
/// span records a zero-length interval and the region it was meant to time
/// is not measured at all. Bind it to a named guard (`let _span = …`) so
/// the RAII drop happens at the end of the region.
pub fn span_guard(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if file.rel_path.starts_with("crates/analysis/src/") {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let packed: String = line.code.chars().filter(|c| !c.is_whitespace()).collect();
            if !packed.contains("let_=")
                || !(packed.contains(".span(") || packed.contains(".span_with("))
            {
                continue;
            }
            if file.is_allowed(idx, SPAN_GUARD) {
                continue;
            }
            findings.push(Finding::new(
                SPAN_GUARD,
                &file.rel_path,
                idx + 1,
                line.fn_ctx.as_deref().unwrap_or(""),
                "span guard bound to `_` drops immediately and times nothing; bind it \
                 to a named guard (`let _span = …`) for the region it should cover"
                    .to_owned(),
                line.code.trim(),
            ));
        }
    }
    findings
}

// ---------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockKind {
    Mutex,
    RwLock,
}

#[derive(Debug)]
struct LockDecl {
    file: String,
    strukt: String,
    field: String,
    kind: LockKind,
}

impl LockDecl {
    fn id(&self) -> String {
        format!("{}::{}.{}", self.file, self.strukt, self.field)
    }
}

/// Collect every named `Mutex`/`RwLock` struct field in the workspace.
fn collect_lock_decls(files: &[SourceFile]) -> Vec<LockDecl> {
    let mut decls = Vec::new();
    for file in files {
        for line in &file.lines {
            if line.in_test || line.start_kind != ContextKind::Struct {
                continue;
            }
            let Some(strukt) = line.struct_ctx.clone() else {
                continue;
            };
            let Some((field, ty)) = field_decl(&line.code) else {
                continue;
            };
            let Some(kind) = lock_kind(ty) else {
                continue;
            };
            decls.push(LockDecl {
                file: file.rel_path.clone(),
                strukt,
                field,
                kind,
            });
        }
    }
    decls
}

/// Parse `pub field: Type,` into `(field, type-text)`.
fn field_decl(code: &str) -> Option<(String, &str)> {
    let mut rest = code.trim();
    if let Some(after) = rest.strip_prefix("pub") {
        let after = after.trim_start();
        rest = if let Some(close) = after.strip_prefix('(') {
            close.split_once(')')?.1.trim_start()
        } else {
            after
        };
    }
    let end = rest
        .char_indices()
        .find(|&(_, c)| !is_ident_char(c))
        .map(|(i, _)| i)?;
    if end == 0 {
        return None;
    }
    let (name, after) = rest.split_at(end);
    let ty = after.trim_start().strip_prefix(':')?;
    Some((name.to_owned(), ty))
}

/// The first lock type mentioned in a field's type text, word-bounded.
fn lock_kind(ty: &str) -> Option<LockKind> {
    let mutex = word_position(ty, "Mutex<");
    let rwlock = word_position(ty, "RwLock<");
    match (mutex, rwlock) {
        (Some(m), Some(r)) if m < r => Some(LockKind::Mutex),
        (Some(_), Some(_)) => Some(LockKind::RwLock),
        (Some(_), None) => Some(LockKind::Mutex),
        (None, Some(_)) => Some(LockKind::RwLock),
        (None, None) => None,
    }
}

fn word_position(text: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = text[from..].find(word) {
        let at = from + pos;
        if at == 0 || !is_ident_char(text.as_bytes()[at - 1] as char) {
            return Some(at);
        }
        from = at + word.len();
    }
    None
}

/// A guard heuristically held at some point in a function walk.
#[derive(Debug)]
struct Guard {
    lock_id: String,
    name: Option<String>,
    depth: usize,
}

/// Build the global lock-order graph: walk every non-test function, extract
/// the sequence of lock acquisitions over named `Mutex`/`RwLock` fields,
/// track which `let`-bound guards are still alive (scope- and
/// `drop()`-aware), and record a `held -> acquired` edge for every nested
/// acquisition. Suppressed sites (`allow(lock-order)`) contribute no edges.
pub fn build_lock_graph(files: &[SourceFile]) -> LockGraph {
    let decls = collect_lock_decls(files);
    let mut graph = LockGraph::new();
    for file in files {
        walk_file(file, &decls, &mut graph);
    }
    graph
}

/// Lock-order rule: report every cycle in the global lock graph.
pub fn lock_order(files: &[SourceFile]) -> Vec<Finding> {
    let graph = build_lock_graph(files);
    let mut findings = Vec::new();
    for cycle in graph.cycles() {
        let ring = cycle.locks.join(" -> ");
        let mut witnesses = String::new();
        for (outer, inner, sites) in &cycle.edges {
            for site in sites {
                if !witnesses.is_empty() {
                    witnesses.push_str("; ");
                }
                witnesses.push_str(&format!(
                    "{} taken holding {} at {}:{} ({})",
                    inner, outer, site.file, site.line, site.function
                ));
            }
        }
        findings.push(Finding::new(
            LOCK_ORDER,
            "(workspace)",
            0,
            "lock graph",
            format!("potential deadlock: lock-order cycle [{ring}]: {witnesses}"),
            &format!("cycle {ring}"),
        ));
    }
    findings
}

fn walk_file(file: &SourceFile, decls: &[LockDecl], graph: &mut LockGraph) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut stmt = String::new();
    let mut stmt_depth = 0usize;
    let mut last_fn: Option<String> = None;

    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || line.fn_ctx.is_none() {
            guards.clear();
            stmt.clear();
            last_fn = None;
            continue;
        }
        if line.fn_ctx != last_fn {
            guards.clear();
            stmt.clear();
            last_fn = line.fn_ctx.clone();
        }
        // Guards bound deeper than the current depth went out of scope.
        guards.retain(|g| g.depth <= line.depth_start);

        let suppressed = file.is_allowed(idx, LOCK_ORDER);
        let mut depth = line.depth_start;
        let code = &line.code;
        let chars: Vec<char> = code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            match c {
                '{' => {
                    depth += 1;
                    stmt.clear();
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                    stmt.clear();
                }
                ';' => stmt.clear(),
                _ => {
                    if stmt.is_empty() {
                        stmt_depth = depth;
                    }
                    stmt.push(c);
                }
            }
            // A completed `drop(name)` releases that guard early.
            if c == ')' {
                if let Some(name) = dropped_name(&stmt) {
                    guards.retain(|g| g.name.as_deref() != Some(name));
                }
            }
            // A completed acquisition token ends exactly here.
            if c == ')' {
                if let Some(kind) = acquisition_at(&stmt) {
                    if let Some(decl) = resolve(&stmt, kind, file, line.impl_ctx.as_deref(), decls)
                    {
                        let id = decl.id();
                        if !suppressed {
                            for g in &guards {
                                graph.add_edge(
                                    &g.lock_id,
                                    &id,
                                    EdgeSite {
                                        file: file.rel_path.clone(),
                                        line: idx + 1,
                                        function: line.fn_ctx.clone().unwrap_or_default(),
                                    },
                                );
                            }
                        }
                        let trimmed = stmt.trim_start();
                        if trimmed.starts_with("let ") {
                            let name = let_binding_name(trimmed);
                            if let Some(n) = &name {
                                // Shadowing re-binds: the old guard dies.
                                guards.retain(|g| g.name.as_deref() != Some(n.as_str()));
                            }
                            guards.push(Guard {
                                lock_id: id,
                                name,
                                depth: stmt_depth,
                            });
                        }
                    }
                }
            }
            i += 1;
        }
    }
}

/// If `stmt` ends with an acquisition call (`.lock()`, `.read()`,
/// `.write()`), the lock kind it requires.
fn acquisition_at(stmt: &str) -> Option<LockKind> {
    if stmt.ends_with(".lock()") {
        Some(LockKind::Mutex)
    } else if stmt.ends_with(".read()") || stmt.ends_with(".write()") {
        Some(LockKind::RwLock)
    } else {
        None
    }
}

/// If `stmt` ends with `drop(name)`, the dropped identifier.
fn dropped_name(stmt: &str) -> Option<&str> {
    let open = stmt.rfind("drop(")?;
    let before_ok = {
        let prefix = &stmt[..open];
        match prefix.chars().last() {
            None => true,
            Some(c) => !is_ident_char(c) || prefix.ends_with("::"),
        }
    };
    if !before_ok {
        return None;
    }
    let inner = &stmt[open + "drop(".len()..stmt.len().checked_sub(1)?];
    if !stmt.ends_with(')') {
        return None;
    }
    let name = inner.trim();
    if !name.is_empty() && name.chars().all(is_ident_char) {
        Some(name)
    } else {
        None
    }
}

/// The bound name of a `let` statement (`let mut g = ...` -> `g`); `None`
/// for destructuring patterns.
fn let_binding_name(stmt: &str) -> Option<String> {
    let rest = stmt.trim_start().strip_prefix("let ")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let end = rest
        .char_indices()
        .find(|&(_, c)| !is_ident_char(c))
        .map_or(rest.len(), |(i, _)| i);
    if end == 0 {
        return None;
    }
    Some(rest[..end].to_owned())
}

/// Resolve the receiver chain before the acquisition at the end of `stmt`
/// to a declared lock field. The chain must be built from identifiers,
/// field accesses, and index expressions (a method call in the chain makes
/// the receiver opaque and the site is skipped). Resolution prefers the
/// `impl` type's own field for `self` receivers, then a unique same-file
/// field, then a unique workspace-wide field.
fn resolve<'d>(
    stmt: &str,
    kind: LockKind,
    file: &SourceFile,
    impl_ctx: Option<&str>,
    decls: &'d [LockDecl],
) -> Option<&'d LockDecl> {
    let call_start = stmt.rfind('.')?;
    let chain = receiver_chain(&stmt[..call_start])?;
    let field = chain
        .iter()
        .rev()
        .find(|seg| !seg.chars().all(|c| c.is_ascii_digit()))?;
    let candidates: Vec<&LockDecl> = decls
        .iter()
        .filter(|d| &d.field == field && d.kind == kind)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    if chain.first().map(String::as_str) == Some("self") {
        if let Some(impl_name) = impl_ctx {
            if let Some(decl) = candidates.iter().find(|d| d.strukt == impl_name) {
                return Some(decl);
            }
        }
    }
    let same_file: Vec<&LockDecl> = candidates
        .iter()
        .filter(|d| d.file == file.rel_path)
        .copied()
        .collect();
    if same_file.len() == 1 {
        return Some(same_file[0]);
    }
    if candidates.len() == 1 {
        return Some(candidates[0]);
    }
    None
}

/// Walk back over `text` collecting a `a.b[expr].c`-shaped receiver chain;
/// returns the segments in source order, or `None` when the receiver is
/// not a plain field chain.
fn receiver_chain(text: &str) -> Option<Vec<String>> {
    let chars: Vec<char> = text.chars().collect();
    let mut i = chars.len();
    let mut segments: Vec<String> = Vec::new();
    let mut current = String::new();
    while i > 0 {
        let c = chars[i - 1];
        if is_ident_char(c) {
            current.push(c);
            i -= 1;
        } else if c == ']' {
            // Skip a balanced index expression; it contributes nothing.
            let mut depth = 0usize;
            while i > 0 {
                let b = chars[i - 1];
                i -= 1;
                if b == ']' {
                    depth += 1;
                } else if b == '[' {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            if depth != 0 {
                return None;
            }
        } else if c == '.' {
            if current.is_empty() {
                return None;
            }
            segments.push(current.chars().rev().collect());
            current = String::new();
            i -= 1;
        } else {
            break;
        }
    }
    if !current.is_empty() {
        segments.push(current.chars().rev().collect());
    }
    if segments.is_empty() {
        return None;
    }
    segments.reverse();
    Some(segments)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn token_present(code: &str, token: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        from = at + token.len();
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1] as char);
        let after = at + token.len();
        let after_ok = after >= code.len() || !is_ident_char(bytes[after] as char);
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrowing_casts_are_found_with_boundaries() {
        assert_eq!(narrowing_casts("x as u32"), vec!["u32"]);
        assert_eq!(narrowing_casts("x as u64"), Vec::<&str>::new());
        assert_eq!(narrowing_casts("measures as u32x"), Vec::<&str>::new());
        assert_eq!(narrowing_casts("alias as_u32(x)"), Vec::<&str>::new());
        assert_eq!(narrowing_casts("a as u8; b as i16"), vec!["u8", "i16"]);
    }

    #[test]
    fn receiver_chains_parse() {
        assert_eq!(
            receiver_chain("let g = self.shards[idx % n]").as_deref(),
            Some(&["self".to_owned(), "shards".to_owned()][..])
        );
        assert_eq!(
            receiver_chain("x = shared.state").as_deref(),
            Some(&["shared".to_owned(), "state".to_owned()][..])
        );
        assert_eq!(
            receiver_chain("self.gate.0").as_deref(),
            Some(&["self".to_owned(), "gate".to_owned(), "0".to_owned()][..])
        );
        // A method call in the chain is opaque.
        assert_eq!(receiver_chain("self.store()").as_deref(), None);
    }

    #[test]
    fn field_decls_parse() {
        assert_eq!(
            field_decl("pub(crate) state: Mutex<Inner>,"),
            Some(("state".to_owned(), " Mutex<Inner>,"))
        );
        assert_eq!(lock_kind(" Mutex<Inner>,"), Some(LockKind::Mutex));
        assert_eq!(lock_kind(" RwLock<Weak<T>>,"), Some(LockKind::RwLock));
        assert_eq!(
            lock_kind(" Arc<(Mutex<bool>, Condvar)>,"),
            Some(LockKind::Mutex)
        );
        assert_eq!(lock_kind(" FakeMutex<Inner>,"), None);
    }

    #[test]
    fn dropped_names_parse() {
        assert_eq!(dropped_name("drop(guard)"), Some("guard"));
        assert_eq!(dropped_name("std::mem::drop(g)"), Some("g"));
        assert_eq!(dropped_name("airdrop(g)"), None);
        assert_eq!(dropped_name("drop(a.b)"), None);
    }
}
