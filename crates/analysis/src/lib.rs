//! `vstore-analysis`: the workspace invariants a general linter cannot
//! know, checked by this crate's own test (`cargo test -p
//! vstore-analysis`), which fails on any finding.
//!
//! - Locks across the shard/cache/tier/net layers are acquired in one
//!   global order ([`rules::LOCK_ORDER`]): per-function acquisition
//!   sequences feed a global lock graph whose cycles are potential
//!   deadlocks. Every acquisition is one of the `vstore_types::sync`
//!   helpers `lock_unpoisoned`, `read_unpoisoned` and `write_unpoisoned`
//!   (clippy's `disallowed-methods` bans the raw calls), so that is the
//!   only form the walk reads.
//! - All disk I/O flows through the `StorageBackend` seam
//!   ([`rules::BACKEND_SEAM`]).
//! - Every queue is a `vstore_types::BoundedQueue`
//!   ([`rules::BOUNDED_QUEUE`]).
//!
//! Panics, narrowing casts and dropped span guards are clippy's to police
//! (see `[workspace.lints]` in the root `Cargo.toml`).
//!
//! The pass is a small line/token scanner ([`scan`]), module-structure and
//! `#[cfg(test)]`/`mod tests` aware so test code is scoped correctly,
//! feeding the rules ([`rules`]). There is no per-site suppression: a
//! rule's one exemption is a constant in [`rules`]. The crate is std-only
//! and dependency-free, so it builds before, and regardless of, everything
//! it checks.

pub mod lockgraph;
pub mod report;
pub mod rules;
pub mod scan;

use report::Finding;
use scan::SourceFile;
use std::path::{Path, PathBuf};

/// Collect the workspace's library sources: `src/` of the facade and
/// `crates/*/src/` of every member crate, sorted for determinism.
/// `third_party/` stubs, `target/`, tests, benches, and fixtures are out
/// of scope by construction (they are not under a scanned root).
pub fn collect_workspace_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    let facade = root.join("src");
    if facade.is_dir() {
        collect_rs(&facade, root, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)
            .map_err(|e| format!("cannot list {}: {e}", crates.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                collect_rs(&src, root, &mut files)?;
            }
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            out.push((rel, text));
        }
    }
    Ok(())
}

/// Parse the given `(path, contents)` pairs.
pub fn parse_sources(sources: &[(String, String)]) -> Vec<SourceFile> {
    sources
        .iter()
        .map(|(path, text)| SourceFile::parse(path, text))
        .collect()
}

/// Parse the given `(path, contents)` pairs and run every rule.
pub fn analyze_sources(sources: &[(String, String)]) -> Vec<Finding> {
    rules::run_all(&parse_sources(sources))
}
