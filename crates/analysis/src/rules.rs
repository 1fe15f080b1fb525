//! The rules a general linter cannot know: they encode where this
//! workspace draws its own lines.
//!
//! Each rule is a pure function from scanned sources to findings; scoping
//! (which crates/paths a rule covers, and the one file each rule exempts)
//! lives in this file's constants, so the fixture tests can exercise a
//! rule by giving a fixture a matching virtual path. All rules skip test
//! code (`#[cfg(test)]` items, `mod tests`).

use crate::lockgraph::{EdgeSite, LockGraph};
use crate::report::Finding;
use crate::scan::{ContextKind, SourceFile};

/// Rule name: lock-acquisition ordering cycles (potential deadlocks).
pub const LOCK_ORDER: &str = "lock-order";
/// Rule name: raw `std::fs` outside the storage-backend seam.
pub const BACKEND_SEAM: &str = "backend-seam";
/// Rule name: hand-rolled `Mutex<VecDeque<_>>` queues outside
/// `vstore_types::BoundedQueue`'s own file.
pub const BOUNDED_QUEUE: &str = "bounded-queue";

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

/// The `vstore_types::sync` helpers, the only way to acquire a lock (clippy's
/// `disallowed-methods` bans the raw calls), and the lock kind each takes.
const LOCK_HELPERS: &[(&str, LockKind)] = &[
    ("lock_unpoisoned(", LockKind::Mutex),
    ("read_unpoisoned(", LockKind::RwLock),
    ("write_unpoisoned(", LockKind::RwLock),
];

fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| path.starts_with(p))
}

/// Run every rule.
pub fn run_all(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = lock_order(files);
    findings.extend(backend_seam(files));
    findings.extend(bounded_queue(files));
    findings
}

// ---------------------------------------------------------------------
// backend-seam
// ---------------------------------------------------------------------

/// All disk I/O flows through the `StorageBackend` trait: `std::fs` in
/// non-test library code is only legal inside the backend seam itself.
pub fn backend_seam(files: &[SourceFile]) -> Vec<Finding> {
    line_rule(
        files,
        BACKEND_SEAM,
        |path| in_scope(path, BACKEND_SEAM_SCOPE) && !in_scope(path, BACKEND_SEAM_EXEMPT),
        |code| token_present(code, "std::fs"),
        "raw std::fs outside the StorageBackend seam; route disk I/O through the backend trait",
    )
}

// ---------------------------------------------------------------------
// bounded-queue
// ---------------------------------------------------------------------

/// Every queue in the system is a `vstore_types::BoundedQueue` (bounded,
/// back-pressured, close/drain semantics); raw `Mutex<VecDeque<_>>`
/// queueing outside [`BOUNDED_QUEUE_HOME`] reintroduces unbounded growth.
pub fn bounded_queue(files: &[SourceFile]) -> Vec<Finding> {
    line_rule(
        files,
        BOUNDED_QUEUE,
        |path| path != BOUNDED_QUEUE_HOME,
        |code| {
            let packed: String = code.chars().filter(|c| !c.is_whitespace()).collect();
            // The locked type, path-qualified or not (`Mutex<VecDeque<_>>`,
            // `RwLock<std::collections::VecDeque<_>>`).
            ["Mutex<", "RwLock<"].iter().any(|lock| {
                packed.split(lock).skip(1).any(|inner| {
                    let path = inner.split(|c| !(is_ident_char(c) || c == ':')).next();
                    path.and_then(|p| p.rsplit("::").next()) == Some("VecDeque")
                })
            })
        },
        "raw Mutex<VecDeque<_>> queue; use vstore_types::BoundedQueue (bounded, \
         back-pressured, close/drain semantics)",
    )
}

/// Report every non-test line that `matches`, in the files whose path the
/// rule `applies` to.
fn line_rule(
    files: &[SourceFile],
    rule: &'static str,
    applies: impl Fn(&str) -> bool,
    matches: impl Fn(&str) -> bool,
    message: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files.iter().filter(|f| applies(&f.rel_path)) {
        for (idx, line) in file.lines.iter().enumerate() {
            if !line.in_test && matches(&line.code) {
                findings.push(Finding {
                    rule,
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    message: message.to_owned(),
                });
            }
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
/// acquisition. Every declared lock is a node, counting the acquisition
/// sites that resolved to it.
pub fn build_lock_graph(files: &[SourceFile]) -> LockGraph {
    let decls = collect_lock_decls(files);
    let mut graph = LockGraph::new();
    graph.locks = decls.iter().map(|d| (d.id(), 0)).collect();
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
        let mut witnesses = Vec::new();
        for (outer, inner, sites) in &cycle.edges {
            for site in sites {
                witnesses.push(format!(
                    "{inner} taken holding {outer} at {}:{} ({})",
                    site.file, site.line, site.function
                ));
            }
        }
        findings.push(Finding {
            rule: LOCK_ORDER,
            file: "(workspace)".to_owned(),
            line: 0,
            message: format!(
                "potential deadlock: lock-order cycle [{}]: {}",
                cycle.locks.join(" -> "),
                witnesses.join("; ")
            ),
        });
    }
    findings
}

fn walk_file(file: &SourceFile, decls: &[LockDecl], graph: &mut LockGraph) {
    let mut guards: Vec<Guard> = Vec::new();
    // A guard whose `let` is complete once the next token is its `;`.
    let mut pending: Option<Guard> = None;
    let mut stmt = String::new();
    let mut stmt_depth = 0usize;
    let mut last_fn: Option<String> = None;

    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || line.fn_ctx.is_none() || line.fn_ctx != last_fn {
            guards.clear();
            pending = None;
            stmt.clear();
            last_fn = line.fn_ctx.clone().filter(|_| !line.in_test);
            if last_fn.is_none() {
                continue;
            }
        }
        // Guards bound deeper than the current depth went out of scope.
        guards.retain(|g| g.depth <= line.depth_start);

        let mut depth = line.depth_start;
        for c in line.code.chars() {
            // The guard is held only if its acquisition ends the `let`; a
            // guard the statement goes on to use (`lock_unpoisoned(&x).len()`)
            // or wraps (`take(&mut *lock_unpoisoned(&x))`) is a temporary.
            if pending.is_some() && !c.is_whitespace() {
                if let Some(guard) = pending.take().filter(|_| c == ';') {
                    // Shadowing re-binds: the old guard dies.
                    guards.retain(|g| g.name.is_none() || g.name != guard.name);
                    guards.push(guard);
                }
            }
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
            if c != ')' {
                continue;
            }
            // A completed `drop(name)` releases that guard early.
            if let Some(name) = dropped_name(&stmt) {
                guards.retain(|g| g.name.as_deref() != Some(name));
            }
            // A completed acquisition ends exactly here.
            let Some(acquired) = acquisition(&stmt) else {
                continue;
            };
            let Some(decl) = resolve(&acquired, file, line.impl_ctx.as_deref(), decls) else {
                continue;
            };
            let id = decl.id();
            *graph.locks.entry(id.clone()).or_default() += 1;
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
            pending = bound_guard(&stmt).map(|name| Guard {
                lock_id: id,
                name,
                depth: stmt_depth,
            });
        }
    }
}

/// The acquisition that ends `text`, if any: one of [`LOCK_HELPERS`] over
/// `&<chain>`, optionally path-qualified (`lock_unpoisoned(&self.a)`,
/// `sync::read_unpoisoned(&self.b)`). Returns the lock kind it needs and
/// the receiver chain.
fn acquisition(text: &str) -> Option<(LockKind, Vec<String>)> {
    let (open, helper, kind) = LOCK_HELPERS
        .iter()
        .filter_map(|&(helper, kind)| Some((text.rfind(helper)?, helper, kind)))
        .max_by_key(|&(open, ..)| open)?;
    if text[..open].ends_with(is_ident_char) {
        return None;
    }
    let argument = text[open + helper.len()..].strip_suffix(')')?;
    Some((kind, receiver_chain(argument)?))
}

/// If `stmt` is a `let` whose initializer so far ends in a lock
/// acquisition, the guard it binds should the statement end right there:
/// `Some(name)`, or `Some(None)` for a destructuring pattern. `None` for
/// `let _ = ...`, which drops the guard at once.
fn bound_guard(stmt: &str) -> Option<Option<String>> {
    let (pattern, _) = stmt.trim_start().strip_prefix("let ")?.split_once('=')?;
    if pattern.trim() == "_" {
        return None;
    }
    Some(let_binding_name(pattern))
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

/// The name a `let` pattern binds (`mut g: T` -> `g`); `None` for
/// destructuring patterns.
fn let_binding_name(pattern: &str) -> Option<String> {
    let rest = pattern.trim_start();
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

/// Resolve an acquisition's receiver chain to a declared lock field of
/// the kind it needs. The chain must be built from identifiers, field
/// accesses, and index expressions (a method call in the chain makes the
/// receiver opaque and the site is skipped). Resolution prefers the
/// `impl` type's own field for `self` receivers, then a unique same-file
/// field, then a unique workspace-wide field.
fn resolve<'d>(
    (kind, chain): &(LockKind, Vec<String>),
    file: &SourceFile,
    impl_ctx: Option<&str>,
    decls: &'d [LockDecl],
) -> Option<&'d LockDecl> {
    let field = chain
        .iter()
        .rev()
        .find(|seg| !seg.chars().all(|c| c.is_ascii_digit()))?;
    let candidates: Vec<&LockDecl> = decls
        .iter()
        .filter(|d| &d.field == field && d.kind == *kind)
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
    fn acquisitions_parse() {
        let chain = |segs: &[&str]| segs.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert_eq!(
            acquisition("let g = lock_unpoisoned(&self.alpha)"),
            Some((LockKind::Mutex, chain(&["self", "alpha"])))
        );
        assert_eq!(
            acquisition("write_unpoisoned(&self.inner.live)"),
            Some((LockKind::RwLock, chain(&["self", "inner", "live"])))
        );
        assert_eq!(
            acquisition("let slot = sync::read_unpoisoned(&self.inner.active)"),
            Some((LockKind::RwLock, chain(&["self", "inner", "active"])))
        );
        // The helper that ends the text wins, not the first one in it.
        assert_eq!(
            acquisition("f(lock_unpoisoned(&self.a).n, read_unpoisoned(&self.b)"),
            Some((LockKind::RwLock, chain(&["self", "b"])))
        );
        assert_eq!(
            acquisition("let s = lock_unpoisoned(&self.shards[id % n])"),
            Some((LockKind::Mutex, chain(&["self", "shards"])))
        );
        assert_eq!(
            acquisition("vstore_types::sync::lock_unpoisoned(&shared.state)"),
            Some((LockKind::Mutex, chain(&["shared", "state"])))
        );
        assert_eq!(acquisition("relock_unpoisoned(&self.state)"), None);
        assert_eq!(acquisition("lock_unpoisoned(&self.alpha).len()"), None);
        // The raw calls are clippy's to ban, not a form this walk reads.
        assert_eq!(acquisition("self.alpha.lock()"), None);
    }

    #[test]
    fn only_a_named_let_binds_a_guard() {
        assert_eq!(
            bound_guard("let mut g = lock_unpoisoned(&self.alpha)"),
            Some(Some("g".to_owned()))
        );
        assert_eq!(bound_guard("let (a, b) = lock_unpoisoned(&p)"), Some(None));
        assert_eq!(bound_guard("let _ = lock_unpoisoned(&self.alpha)"), None);
        assert_eq!(bound_guard("lock_unpoisoned(&self.alpha)"), None);
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
