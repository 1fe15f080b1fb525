//! Fixture-driven rule tests: every rule must fire on its true-positive
//! fixture and stay silent on its true-negative one, plus a live check
//! that the real workspace is clean (zero findings, zero lock-order
//! cycles).

use vstore_analysis::scan::SourceFile;
use vstore_analysis::{analyze_sources, rules};

/// Analyze one fixture under a virtual workspace path.
fn findings_for(virtual_path: &str, fixture: &str) -> Vec<vstore_analysis::report::Finding> {
    analyze_sources(&[(virtual_path.to_owned(), fixture.to_owned())])
}

fn rules_fired(findings: &[vstore_analysis::report::Finding]) -> Vec<&str> {
    let mut names: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    names.sort_unstable();
    names.dedup();
    names
}

#[test]
fn lock_order_fires_on_inverted_acquisitions() {
    let findings = findings_for(
        "crates/storage/src/fixture.rs",
        include_str!("fixtures/lock_order_positive.rs"),
    );
    assert_eq!(rules_fired(&findings), [rules::LOCK_ORDER]);
    assert!(
        findings[0].message.contains("cycle"),
        "{}",
        findings[0].message
    );
}

#[test]
fn lock_order_accepts_a_consistent_global_order() {
    let sources = [(
        "crates/storage/src/fixture.rs".to_owned(),
        include_str!("fixtures/lock_order_negative.rs").to_owned(),
    )];
    assert!(analyze_sources(&sources).is_empty());
    // The consistent order still shows up as edges — the graph sees the
    // nesting, it just has no cycle.
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(p, t)| SourceFile::parse(p, t))
        .collect();
    let graph = rules::build_lock_graph(&files);
    assert!(graph.edges().count() > 0);
    assert!(graph.cycles().is_empty());
}

#[test]
fn backend_seam_fires_outside_the_backend() {
    let findings = findings_for(
        "crates/storage/src/fixture.rs",
        include_str!("fixtures/backend_seam_positive.rs"),
    );
    assert_eq!(rules_fired(&findings), [rules::BACKEND_SEAM]);
}

#[test]
fn backend_seam_is_silent_inside_the_seam_and_tests() {
    let fixture = include_str!("fixtures/backend_seam_negative.rs");
    assert!(findings_for("crates/storage/src/fixture.rs", fixture).is_empty());
    // The same raw std::fs is fine inside the exempted backend file.
    let positive = include_str!("fixtures/backend_seam_positive.rs");
    assert!(findings_for("crates/storage/src/backend.rs", positive).is_empty());
    // The cold tier is held to the seam like the rest of the store.
    let cold = findings_for("crates/storage/src/tier/cold.rs", positive);
    assert_eq!(rules_fired(&cold), [rules::BACKEND_SEAM]);
}

#[test]
fn checked_cast_fires_on_narrowing_casts() {
    let findings = findings_for(
        "crates/codec/src/fixture.rs",
        include_str!("fixtures/checked_cast_positive.rs"),
    );
    assert_eq!(rules_fired(&findings), [rules::CHECKED_CAST]);
}

#[test]
fn checked_cast_is_silent_on_widening_allowed_and_test_casts() {
    let fixture = include_str!("fixtures/checked_cast_negative.rs");
    assert!(findings_for("crates/codec/src/fixture.rs", fixture).is_empty());
    // Out of scope: the same narrowing cast in a crate the rule
    // does not cover.
    let positive = include_str!("fixtures/checked_cast_positive.rs");
    assert!(findings_for("crates/profiler/src/fixture.rs", positive).is_empty());
}

#[test]
fn no_unwrap_fires_on_library_unwrap() {
    let findings = findings_for(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/no_unwrap_positive.rs"),
    );
    assert_eq!(rules_fired(&findings), [rules::NO_UNWRAP]);
}

#[test]
fn no_unwrap_is_silent_on_typed_errors_allows_and_tests() {
    let fixture = include_str!("fixtures/no_unwrap_negative.rs");
    assert!(findings_for("crates/core/src/fixture.rs", fixture).is_empty());
}

#[test]
fn bounded_queue_fires_on_raw_mutexed_vecdeque() {
    let findings = findings_for(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/bounded_queue_positive.rs"),
    );
    assert_eq!(rules_fired(&findings), [rules::BOUNDED_QUEUE]);
}

#[test]
fn bounded_queue_is_silent_on_pools_and_the_sim_home() {
    let fixture = include_str!("fixtures/bounded_queue_negative.rs");
    assert!(findings_for("crates/serve/src/fixture.rs", fixture).is_empty());
    // The one sanctioned home for the pattern is the queue's own file, not
    // a whole crate.
    let positive = include_str!("fixtures/bounded_queue_positive.rs");
    assert!(findings_for(rules::BOUNDED_QUEUE_HOME, positive).is_empty());
    for elsewhere in ["crates/types/src/fixture.rs", "crates/sim/src/fixture.rs"] {
        assert_eq!(
            rules_fired(&findings_for(elsewhere, positive)),
            [rules::BOUNDED_QUEUE]
        );
    }
}

#[test]
fn span_guard_fires_on_immediately_dropped_guards() {
    let findings = findings_for(
        "crates/query/src/fixture.rs",
        include_str!("fixtures/span_guard_positive.rs"),
    );
    assert_eq!(rules_fired(&findings), [rules::SPAN_GUARD]);
    // Both the `.span(` and `.span_with(` forms are caught.
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn span_guard_is_silent_on_named_guards_allows_and_tests() {
    let fixture = include_str!("fixtures/span_guard_negative.rs");
    assert!(findings_for("crates/query/src/fixture.rs", fixture).is_empty());
}

#[test]
fn the_workspace_itself_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let sources = vstore_analysis::collect_workspace_sources(&root).unwrap();
    assert!(!sources.is_empty(), "workspace sources not found");
    let findings = analyze_sources(&sources);
    let report = vstore_analysis::report::Report::new(findings);
    assert!(report.findings.is_empty(), "{}", report.to_text());
}

#[test]
fn the_workspace_lock_graph_is_acyclic() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let sources = vstore_analysis::collect_workspace_sources(&root).unwrap();
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(p, t)| SourceFile::parse(p, t))
        .collect();
    let graph = rules::build_lock_graph(&files);
    assert!(
        graph.cycles().is_empty(),
        "lock-order cycles: {:?}",
        graph.cycles()
    );
}
