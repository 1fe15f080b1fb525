//! Fixture-driven rule tests: every rule must fire on its true-positive
//! fixture and stay silent on its true-negative one, plus live checks
//! that the real workspace is clean and that its lock graph is the one
//! pinned here.

use vstore_analysis::report::{Finding, Report};
use vstore_analysis::{analyze_sources, collect_workspace_sources, parse_sources, rules};

/// Analyze one fixture under a virtual workspace path.
fn findings_for(virtual_path: &str, fixture: &str) -> Vec<Finding> {
    analyze_sources(&[(virtual_path.to_owned(), fixture.to_owned())])
}

fn rules_fired(findings: &[Finding]) -> Vec<&str> {
    let mut names: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    names.sort_unstable();
    names.dedup();
    names
}

fn workspace_sources() -> Result<Vec<(String, String)>, String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let sources = collect_workspace_sources(&root)?;
    assert!(!sources.is_empty(), "workspace sources not found");
    Ok(sources)
}

#[test]
fn lock_order_fires_on_inverted_acquisitions() {
    let plain = include_str!("fixtures/lock_order_positive.rs");
    // The same inversion with one helper path-qualified.
    let qualified = plain.replace(
        "lock_unpoisoned(&self.beta)",
        "vstore_types::sync::lock_unpoisoned(&self.beta)",
    );
    // The same inversion over `RwLock`s, one side read, the other written.
    let rwlock = plain
        .replace("Mutex", "RwLock")
        .replace("lock_unpoisoned(&self.a", "read_unpoisoned(&self.a")
        .replace("lock_unpoisoned(&self.b", "write_unpoisoned(&self.b");
    assert_ne!(qualified, plain);
    assert!(!rwlock.contains("lock_unpoisoned(&"), "{rwlock}");
    for fixture in [plain, &qualified, &rwlock] {
        let findings = findings_for("crates/storage/src/fixture.rs", fixture);
        assert_eq!(rules_fired(&findings), [rules::LOCK_ORDER], "{fixture}");
        assert!(
            findings[0].message.contains("cycle"),
            "{}",
            findings[0].message
        );
    }
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
    let graph = rules::build_lock_graph(&parse_sources(&sources));
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
fn bounded_queue_fires_on_raw_mutexed_vecdeque() {
    let imported = include_str!("fixtures/bounded_queue_positive.rs");
    let qualified = imported.replace("Mutex<VecDeque", "Mutex<std::collections::VecDeque");
    assert_ne!(qualified, imported);
    for fixture in [imported, &qualified] {
        let findings = findings_for("crates/serve/src/fixture.rs", fixture);
        assert_eq!(rules_fired(&findings), [rules::BOUNDED_QUEUE], "{fixture}");
    }
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
fn the_workspace_itself_is_clean() {
    let report = Report::new(analyze_sources(&workspace_sources().unwrap()));
    assert!(report.findings.is_empty(), "{}", report.to_text());
}

#[test]
fn the_workspace_lock_graph_is_acyclic() {
    let graph = rules::build_lock_graph(&parse_sources(&workspace_sources().unwrap()));
    assert!(
        graph.cycles().is_empty(),
        "lock-order cycles: {:?}",
        graph.cycles()
    );
    // Every nesting of two locks in library code, by lock id: none, as
    // each guard is released before the next lock is taken. A new nesting
    // is a reviewed change to this list, not a silent addition.
    const PINNED: &[&str] = &[];
    let edges: Vec<String> = graph
        .edges()
        .map(|(outer, inner, _)| format!("{outer} -> {inner}"))
        .collect();
    assert_eq!(edges, PINNED, "{:#?}", graph.edges().collect::<Vec<_>>());
    // Every declared lock, each of which the walk must resolve at least one
    // acquisition to: a lock hidden behind a type alias or a wrapper method
    // would be missing here or counted zero, and so invisible to the graph.
    const LOCKS: &[&str] = &[
        "crates/core/src/profiler.rs::Profiler.caches",
        "crates/ingest/src/live.rs::LiveShared.state",
        "crates/ingest/src/pipeline.rs::IngestionPipeline.spare_scenes",
        "crates/obs/src/metrics.rs::MetricsRegistry.collectors",
        "crates/obs/src/trace.rs::ActiveTrace.root",
        "crates/obs/src/trace.rs::ActiveTrace.spans",
        "crates/obs/src/trace.rs::Tracer.shards",
        "crates/serve/src/conn.rs::BufferPool.bufs",
        "crates/serve/src/net.rs::NetShared.state",
        "crates/serve/src/server.rs::Shared.state",
        "crates/storage/src/backend.rs::MemBackend.files",
        "crates/storage/src/backend.rs::MemLogHandle.log",
        "crates/storage/src/faulty.rs::FaultyDevice.script",
        "crates/storage/src/reader.rs::SegmentReader.shards",
        "crates/storage/src/shard.rs::Shard.inner",
        "crates/storage/src/tier/cold.rs::ColdStore.resident",
        "crates/storage/src/tier/engine.rs::KeyLocks.held",
        "crates/storage/src/tier/engine.rs::TierEngine.counters",
        "crates/types/src/queue.rs::BoundedQueue.state",
        "src/lib.rs::VStoreInner.active",
        "src/lib.rs::VStoreInner.live",
        "src/lib.rs::VStoreInner.net",
        "src/lib.rs::VStoreInner.serving",
    ];
    let locks = &graph.locks;
    assert_eq!(locks.keys().collect::<Vec<_>>(), LOCKS, "{locks:#?}");
    let unseen: Vec<_> = locks.iter().filter(|&(_, &n)| n == 0).collect();
    assert!(unseen.is_empty(), "locks with no resolved site: {unseen:?}");
}
