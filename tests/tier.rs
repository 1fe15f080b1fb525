//! The tiered-cold-storage acceptance suite: with a cold backend
//! configured, an `ErodeRequest` that previously deleted segments demotes
//! them instead; a subsequent query returns byte-identical frames via
//! read-through promotion, counts the cold fetches as `cold_hits`, and
//! the metrics snapshot shows non-zero demotions/promotions.
//! With no cold backend configured, behaviour is byte-identical to the
//! untiered store (the parity suites lock that in separately).

#![expect(clippy::disallowed_methods, reason = "removes its scratch stores")]

use std::collections::BTreeMap;
use vstore::{
    BackendOptions, Configuration, ErodeRequest, IngestRequest, QueryRequest, QuerySpec, VStore,
    VStoreOptions,
};
use vstore_datasets::{Dataset, VideoSource};
use vstore_storage::{FsBackend, SegmentKey, SegmentStore, StorageBackend};
use vstore_types::{ErosionStep, FormatId, Fraction};

/// A configuration whose age-1 erosion step removes every non-golden
/// segment, so one erode call moves a deterministic, non-empty set.
fn erode_everything_config(store: &VStore, query: &QuerySpec) -> Configuration {
    let mut config = (*store.configure(&query.consumers()).unwrap()).clone();
    let deleted: BTreeMap<FormatId, Fraction> = config
        .storage_formats
        .keys()
        .filter(|id| !id.is_golden())
        .map(|id| (*id, Fraction::ONE))
        .collect();
    assert!(
        !deleted.is_empty(),
        "configuration has no non-golden formats to erode"
    );
    config.erosion.steps = vec![ErosionStep {
        age_days: 1,
        deleted,
        overall_relative_speed: 0.5,
    }];
    config
}

fn tiered_store(tag: &str) -> VStore {
    VStore::open_temp(
        tag,
        VStoreOptions::fast()
            .with_backend(BackendOptions::Mem)
            .with_cache(64 << 20, 64)
            .with_cold_backend(BackendOptions::Mem),
    )
    .unwrap()
}

/// The acceptance criterion, end to end: erode → demote (not delete) →
/// query → byte-identical results via promotion, cold hits counted, the
/// metrics snapshot shows the tier moving.
#[test]
fn erode_demotes_then_query_promotes_with_identical_results() {
    let store = tiered_store("tier-roundtrip");
    let query = QuerySpec::query_a(0.8);
    let config = erode_everything_config(&store, &query);
    store.install_configuration(config);

    let source = VideoSource::new(Dataset::Jackson);
    store
        .ingest(IngestRequest::new(&source).segments(3))
        .unwrap();
    let fresh = store
        .query(QueryRequest::new("jackson", &query).segments(3))
        .unwrap();
    let live_before = store.store_stats().live_segments;

    let report = store
        .erode(ErodeRequest::new("jackson").at_age_days(1))
        .unwrap();
    assert!(report.segments_demoted > 0, "{report}");
    assert!(report.demoted_bytes.bytes() > 0);
    assert_eq!(report.segments_deleted, 0, "tiered erosion must not delete");
    assert_eq!(report.deleted_bytes.bytes(), 0);
    assert_eq!(
        store.store_stats().live_segments,
        live_before - report.segments_demoted,
        "demoted segments left the hot store"
    );

    // The demoted segments are still queryable: the read path falls through
    // to the cold tier, promotes, and the results are byte-identical.
    let cold_hits = |store: &VStore| store.tier_stats().expect("tier configured").cold_hits;
    let cold_before = cold_hits(&store);
    let aged = store
        .query(QueryRequest::new("jackson", &query).segments(3))
        .unwrap();
    assert_eq!(fresh, aged, "cold-tier round trip changed query results");
    assert_eq!(
        aged.stages
            .iter()
            .map(|s| s.fallback_segments)
            .sum::<usize>(),
        0,
        "promotion serves the subscribed format, not a fallback"
    );
    assert!(
        cold_hits(&store) > cold_before,
        "cold fetches must count as cold hits"
    );

    // Promotion moved the segments back: the hot store is whole again and a
    // re-run query reads nothing cold.
    assert_eq!(store.store_stats().live_segments, live_before);
    let cold_after = cold_hits(&store);
    let warm = store
        .query(QueryRequest::new("jackson", &query).segments(3))
        .unwrap();
    assert_eq!(fresh, warm);
    assert_eq!(
        cold_hits(&store),
        cold_after,
        "promoted segments are hot again; nothing reads cold"
    );

    let stats = store.tier_stats().expect("tier configured");
    assert_eq!(stats.demotions as usize, report.segments_demoted);
    assert!(stats.promotions > 0);
    assert!(stats.cold_hits > 0);
    assert_eq!(stats.cold_segments, 0, "everything promoted back");
    assert!(stats.cold_hit_latency.count() > 0);
    assert_eq!(stats.failed_demotions, 0);

    let snapshot = store.metrics_snapshot();
    assert_eq!(
        snapshot.value("vstore_tier_demotions_total"),
        Some(stats.demotions as f64)
    );
    assert!(snapshot.value("vstore_tier_demoted_bytes_total") > Some(0.0));
    assert!(snapshot.value("vstore_tier_promoted_bytes_total") > Some(0.0));
    let rendered = snapshot.to_string();
    assert!(!rendered.contains("NaN"), "{rendered}");
    std::fs::remove_dir_all(store.store_dir()).ok();
}

/// Golden-format invariant at the facade level: tiered erosion demotes
/// non-golden formats only, and the golden format never leaves the hot
/// tier (matching `erosion.rs`'s never-eroded root invariant).
#[test]
fn golden_format_never_leaves_the_hot_tier() {
    let store = tiered_store("tier-golden");
    let query = QuerySpec::query_a(0.8);
    let config = erode_everything_config(&store, &query);
    store.install_configuration(config);
    let source = VideoSource::new(Dataset::Jackson);
    const SEGMENTS: usize = 2;
    store
        .ingest(IngestRequest::new(&source).segments(SEGMENTS as u64))
        .unwrap();
    let total = store.store_stats().live_segments;

    // The step erodes 100 % of every non-golden format, so afterwards the
    // hot store holds exactly the golden segments — one per ingested
    // segment — and the cold store holds everything else.
    let report = store
        .erode(ErodeRequest::new("jackson").at_age_days(1))
        .unwrap();
    assert_eq!(report.segments_demoted, total - SEGMENTS, "{report}");
    assert_eq!(store.store_stats().live_segments, SEGMENTS);
    let stats = store.tier_stats().unwrap();
    assert_eq!(stats.cold_segments, total - SEGMENTS);
    assert_eq!(
        stats.demotions as usize,
        total - SEGMENTS,
        "the golden format never leaves the hot tier"
    );
    std::fs::remove_dir_all(store.store_dir()).ok();
}

/// Objects and bytes on the cold device, which holds nothing but objects.
fn on_device(cold: &FsBackend) -> (usize, u64) {
    assert_eq!(cold.list("").unwrap(), ["segments"]);
    let names = cold.list("segments").unwrap();
    let len = |name| cold.len(&format!("segments/{name}")).unwrap().unwrap();
    (names.len(), names.iter().map(len).sum())
}

/// Re-eroding after promotion keeps working: segments cycle hot → cold →
/// hot → cold without loss, and every cycle is observable in the stats —
/// and in bytes. Erosion is the store's disposal method (§4.4), so on a
/// filesystem cold device a demotion wave leaves exactly one framed object
/// per cold segment and a promotion wave gives every byte back: nothing
/// accumulates.
#[test]
fn demote_promote_demote_cycles_never_lose_segments() {
    let store = VStore::open_temp(
        "tier-cycles",
        VStoreOptions::fast()
            .with_cache(64 << 20, 64)
            .with_cold_backend(BackendOptions::Fs),
    )
    .unwrap();
    let cold = FsBackend::new(store.store_dir().join("cold-tier")).unwrap();
    let query = QuerySpec::query_a(0.8);
    let config = erode_everything_config(&store, &query);
    store.install_configuration(config);
    let source = VideoSource::new(Dataset::Jackson);
    store
        .ingest(IngestRequest::new(&source).segments(2))
        .unwrap();
    let fresh = store
        .query(QueryRequest::new("jackson", &query).segments(2))
        .unwrap();
    let live = store.store_stats().live_segments;
    // Every key of the stream encodes to the same length, so every object
    // carries the same framing around its value.
    let framing = SegmentStore::on_disk_cost(&SegmentKey::new("jackson", FormatId(1), 0), 0);

    for round in 1..=3 {
        let report = store
            .erode(ErodeRequest::new("jackson").at_age_days(1))
            .unwrap();
        assert!(report.segments_demoted > 0, "round {round}: {report}");
        let stats = store.tier_stats().unwrap();
        assert_eq!(
            on_device(&cold),
            (
                report.segments_demoted,
                stats.cold_resident_bytes + stats.cold_segments as u64 * framing
            ),
            "round {round}: the cold device holds more or less than the resident objects"
        );
        let result = store
            .query(QueryRequest::new("jackson", &query).segments(2))
            .unwrap();
        assert_eq!(fresh, result, "round {round} diverged");
        assert_eq!(store.store_stats().live_segments, live, "round {round}");
        assert_eq!(
            on_device(&cold),
            (0, 0),
            "round {round}: promoted segments left bytes on the cold device"
        );
    }
    let stats = store.tier_stats().unwrap();
    assert!(stats.demotions >= 3);
    assert!(stats.promotions >= 3);
    std::fs::remove_dir_all(store.store_dir()).ok();
}

/// Without a cold backend there are no tier rows and no tier stats — the
/// snapshot of the untiered store is unchanged.
#[test]
fn untiered_store_reports_no_tier_section() {
    let store = VStore::open_temp(
        "tier-disabled",
        VStoreOptions::fast().with_backend(BackendOptions::Mem),
    )
    .unwrap();
    assert!(store.tier_stats().is_none());
    let report = store.metrics_snapshot().to_string();
    assert!(!report.contains("vstore_tier_"), "{report}");
    std::fs::remove_dir_all(store.store_dir()).ok();
}
