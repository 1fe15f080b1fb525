//! The compressed-domain query-planner acceptance suite: the metadata
//! sidecar lifecycle (reopen, backend parity, erosion/demotion), the skip
//! path's accounting invariants (a skipped segment is never fetched, never
//! decoded, never charged; cache statistics stay consistent), and the
//! exact-mode guarantee (planner off ⇒ byte-identical to the unplanned
//! engine; missing or corrupt sidecars degrade to the full decode, never a
//! wrong answer).
//!
//! The park stream is the skewed fixture throughout: near-static segments
//! score ~3–4.5 change units in the sidecar while its periodic activity
//! bursts (every 4th segment) score >12, so a skip threshold of 6.0
//! deterministically skips exactly the quiet segments.

#![expect(clippy::disallowed_methods, reason = "corrupts sidecars on disk")]

use std::collections::BTreeMap;
use vstore::{
    BackendOptions, Configuration, ErodeRequest, IngestRequest, QueryRequest, QuerySpec, VStore,
    VStoreOptions,
};
use vstore_datasets::{Dataset, VideoSource};
use vstore_types::{ErosionStep, FormatId, Fraction};

/// Quiet park segments score below this, activity bursts far above it.
const SKIP_THRESHOLD: f64 = 6.0;

/// Configure for query A and ingest `segments` park segments.
fn ingest_park(store: &VStore, query: &QuerySpec, segments: u64) {
    store.configure(&query.consumers()).unwrap();
    store
        .ingest(IngestRequest::new(&VideoSource::new(Dataset::Park)).segments(segments))
        .unwrap();
}

/// A planned query-A request over `[0, segments)` of park at the suite's
/// skip threshold.
fn planned_request(query: &QuerySpec, segments: u64) -> QueryRequest {
    QueryRequest::new("park", query)
        .segments(segments)
        .with_planner(true)
        .skip_threshold(SKIP_THRESHOLD)
}

/// Park's burst period is 4 segments: of `[0, segments)`, every 4th index
/// (3, 7, …) is a burst, everything else is quiet and skippable at the
/// suite's threshold.
fn expected_skips(segments: u64) -> usize {
    (0..segments).filter(|seg| seg % 4 != 3).count()
}

#[test]
fn planner_off_is_byte_identical_and_planned_stages_are_annotated() {
    const SEGMENTS: u64 = 4;
    let store = VStore::open_temp(
        "planner-exact",
        VStoreOptions::fast().with_backend(BackendOptions::Mem),
    )
    .unwrap();
    let query = QuerySpec::query_a(0.8);
    ingest_park(&store, &query, SEGMENTS);

    // The session default (planner off) and an explicit off-switch are the
    // same exact scan: no skips, declaration order, no planner annotations.
    let default_off = store
        .query(QueryRequest::new("park", &query).segments(SEGMENTS))
        .unwrap();
    let explicit_off = store
        .query(
            QueryRequest::new("park", &query)
                .segments(SEGMENTS)
                .with_planner(false),
        )
        .unwrap();
    assert_eq!(default_off, explicit_off);
    assert_eq!(default_off.segments_skipped, 0);
    assert_eq!(
        default_off.stages.iter().map(|s| s.op).collect::<Vec<_>>(),
        query.cascade,
        "exact mode runs the cascade in declaration order"
    );
    assert!(default_off
        .stages
        .iter()
        .all(|s| s.planned_selectivity.is_none()));

    // The planned run annotates every stage, pins the declared final stage
    // last, skips exactly the quiet segments, and its positives are a
    // subset of the exact scan's (the skip only ever drops segments).
    let planned = store.query(planned_request(&query, SEGMENTS)).unwrap();
    assert_eq!(planned.segments_skipped, expected_skips(SEGMENTS));
    assert_eq!(
        planned.stages.last().unwrap().op,
        *query.cascade.last().unwrap()
    );
    for stage in &planned.stages {
        assert!(stage.planned_selectivity.is_some(), "{:?}", stage.op);
        if let (Some(planned_sel), Some(actual)) =
            (stage.planned_selectivity, stage.actual_selectivity())
        {
            assert!((0.0..=1.0).contains(&planned_sel));
            assert!((0.0..=1.0).contains(&actual));
        }
    }
    assert!(planned
        .positive_frames
        .iter()
        .all(|f| default_off.positive_frames.contains(f)));
}

#[test]
fn sidecars_survive_reopen_on_the_fs_backend() {
    const SEGMENTS: u64 = 4;
    let dir = vstore_storage::SegmentStore::temp_dir("planner-reopen");
    let query = QuerySpec::query_a(0.8);

    let first = {
        let store = VStore::open(&dir, VStoreOptions::fast()).unwrap();
        ingest_park(&store, &query, SEGMENTS);
        store.query(planned_request(&query, SEGMENTS)).unwrap()
    };
    assert_eq!(first.segments_skipped, expected_skips(SEGMENTS));

    // Reopen the same directory with a fresh handle: the sidecars must
    // still be there and drive the identical plan.
    let store = VStore::open(&dir, VStoreOptions::fast()).unwrap();
    store.configure(&query.consumers()).unwrap();
    let reopened = store.query(planned_request(&query, SEGMENTS)).unwrap();
    assert_eq!(first, reopened, "reopen changed the planned query");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn planned_queries_agree_across_fs_mem_and_tiered_backends() {
    const SEGMENTS: u64 = 4;
    let query = QuerySpec::query_a(0.8);
    let run = |store: &VStore| {
        ingest_park(store, &query, SEGMENTS);
        store.query(planned_request(&query, SEGMENTS)).unwrap()
    };

    let fs = VStore::open_temp("planner-parity-fs", VStoreOptions::fast()).unwrap();
    let mem = VStore::open_temp(
        "planner-parity-mem",
        VStoreOptions::fast().with_backend(BackendOptions::Mem),
    )
    .unwrap();
    let tiered = VStore::open_temp(
        "planner-parity-tiered",
        VStoreOptions::fast()
            .with_backend(BackendOptions::Mem)
            .with_cold_backend(BackendOptions::Mem),
    )
    .unwrap();

    let fs_result = run(&fs);
    let mem_result = run(&mem);
    let tiered_result = run(&tiered);
    assert_eq!(fs_result.segments_skipped, expected_skips(SEGMENTS));
    assert_eq!(fs_result, mem_result, "fs vs mem diverged");
    assert_eq!(fs_result, tiered_result, "fs vs tiered diverged");
    std::fs::remove_dir_all(fs.store_dir()).ok();
}

/// A configuration whose age-1 erosion step removes every non-golden
/// segment, so one erode call demotes a deterministic, non-empty set.
fn erode_everything_config(store: &VStore, query: &QuerySpec) -> Configuration {
    let mut config = (*store.configure(&query.consumers()).unwrap()).clone();
    let deleted: BTreeMap<FormatId, Fraction> = config
        .storage_formats
        .keys()
        .filter(|id| !id.is_golden())
        .map(|id| (*id, Fraction::ONE))
        .collect();
    assert!(!deleted.is_empty());
    config.erosion.steps = vec![ErosionStep {
        age_days: 1,
        deleted,
        overall_relative_speed: 0.5,
    }];
    config
}

#[test]
fn erode_demote_promote_keeps_sidecars_coherent() {
    const SEGMENTS: u64 = 4;
    let store = VStore::open_temp(
        "planner-tier",
        VStoreOptions::fast()
            .with_backend(BackendOptions::Mem)
            .with_cold_backend(BackendOptions::Mem),
    )
    .unwrap();
    let query = QuerySpec::query_a(0.8);
    let config = erode_everything_config(&store, &query);
    store.install_configuration(config);
    store
        .ingest(IngestRequest::new(&VideoSource::new(Dataset::Park)).segments(SEGMENTS))
        .unwrap();

    let fresh = store.query(planned_request(&query, SEGMENTS)).unwrap();
    assert_eq!(fresh.segments_skipped, expected_skips(SEGMENTS));

    // Tiered erosion demotes instead of deleting; sidecars stay with the
    // hot store and the planned query is unchanged — the non-skipped
    // segments read through the cold tier and promote back.
    let report = store
        .erode(ErodeRequest::new("park").at_age_days(1))
        .unwrap();
    assert!(report.segments_demoted > 0, "{report}");
    assert_eq!(report.segments_deleted, 0);
    let demoted = store.query(planned_request(&query, SEGMENTS)).unwrap();
    assert_eq!(fresh, demoted, "demotion changed the planned query");
    assert!(
        store.tier_stats().expect("tier configured").cold_hits > 0,
        "the surviving segments were fetched from the cold tier"
    );

    // After read-through promotion everything is hot again and the plan
    // still holds.
    let promoted = store.query(planned_request(&query, SEGMENTS)).unwrap();
    assert_eq!(fresh, promoted, "promotion changed the planned query");
}

#[test]
fn missing_or_corrupt_sidecars_degrade_to_the_full_decode() {
    const SEGMENTS: u64 = 4;
    let dir = vstore_storage::SegmentStore::temp_dir("planner-corrupt");
    let store = VStore::open(&dir, VStoreOptions::fast()).unwrap();
    let query = QuerySpec::query_a(0.8);
    ingest_park(&store, &query, SEGMENTS);

    let exact = store
        .query(
            QueryRequest::new("park", &query)
                .segments(SEGMENTS)
                .with_planner(false),
        )
        .unwrap();
    let planned = store.query(planned_request(&query, SEGMENTS)).unwrap();
    assert_eq!(planned.segments_skipped, expected_skips(SEGMENTS));

    // Overwrite every sidecar on disk with garbage: the CRC check must
    // reject them all, and the planned query must fall back to fetching
    // and decoding everything — same positives as the exact scan, zero
    // skips, never a wrong answer.
    let meta_dir = dir.join("meta");
    let mut corrupted = 0usize;
    for entry in std::fs::read_dir(&meta_dir).expect("ingest wrote sidecars") {
        let path = entry.unwrap().path();
        std::fs::write(&path, b"not a sidecar").unwrap();
        corrupted += 1;
    }
    assert!(corrupted > 0, "no sidecar files under {meta_dir:?}");
    let degraded = store.query(planned_request(&query, SEGMENTS)).unwrap();
    assert_eq!(
        degraded.segments_skipped, 0,
        "corrupt sidecars must not skip"
    );
    assert_eq!(degraded.positive_frames, exact.positive_frames);

    // Remove the sidecars entirely: same degradation.
    std::fs::remove_dir_all(&meta_dir).unwrap();
    let missing = store.query(planned_request(&query, SEGMENTS)).unwrap();
    assert_eq!(
        missing.segments_skipped, 0,
        "missing sidecars must not skip"
    );
    assert_eq!(missing.positive_frames, exact.positive_frames);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn skipped_segments_charge_nothing_and_cache_stats_stay_consistent() {
    const SEGMENTS: u64 = 4;
    let query = QuerySpec::query_a(0.8);

    // Cache off: every fetched segment is read from the store exactly
    // once, so the store's read count moves by the segments the query's
    // stages report processing — for the exact scan AND the planned one.
    // Skipped segments therefore cost nothing anywhere.
    let store = VStore::open_temp(
        "planner-charges",
        VStoreOptions::fast().with_backend(BackendOptions::Mem),
    )
    .unwrap();
    ingest_park(&store, &query, SEGMENTS);
    let reads = |store: &VStore| store.store_stats().reads;
    let fetched = |result: &vstore::QueryResult| -> u64 {
        result
            .stages
            .iter()
            .map(|s| s.segments_processed as u64)
            .sum()
    };

    let before = reads(&store);
    let exact = store
        .query(
            QueryRequest::new("park", &query)
                .segments(SEGMENTS)
                .with_planner(false),
        )
        .unwrap();
    let after_exact = reads(&store);
    assert_eq!(
        after_exact - before,
        fetched(&exact),
        "exact scan: store reads == segments processed"
    );

    let planned = store.query(planned_request(&query, SEGMENTS)).unwrap();
    let after_planned = reads(&store);
    assert_eq!(planned.segments_skipped, expected_skips(SEGMENTS));
    assert_eq!(
        after_planned - after_exact,
        fetched(&planned),
        "planned scan: store reads == segments processed"
    );
    assert!(fetched(&planned) < fetched(&exact));
    assert!(
        planned.bytes_read.bytes() * 2 < exact.bytes_read.bytes(),
        "skipping {}/{SEGMENTS} segments must shrink bytes read: {} vs {}",
        planned.segments_skipped,
        planned.bytes_read,
        exact.bytes_read
    );
    // Re-running the planned query reads the identical amount: every
    // fetched segment is read exactly once, deterministically.
    let replay = store.query(planned_request(&query, SEGMENTS)).unwrap();
    assert_eq!(replay, planned);
    assert_eq!(reads(&store) - after_planned, fetched(&planned));
    // The cache is disabled, and sidecar reads bypass the reader: stats
    // stay all-zero no matter how many sidecars the planner consulted.
    let stats = store.cache_stats();
    assert_eq!((stats.decoded_hits, stats.decoded_misses), (0, 0));

    // Cache on: the planner bypasses the reader for sidecars, so cache
    // traffic only ever counts fetched segments — a planned first query
    // records strictly fewer misses than an exact first query on an
    // identical twin store, and hits/misses still add up on replay.
    let twin = |tag: &str| {
        let store = VStore::open_temp(
            tag,
            VStoreOptions::fast()
                .with_backend(BackendOptions::Mem)
                .with_cache(64 << 20, 64),
        )
        .unwrap();
        ingest_park(&store, &query, SEGMENTS);
        store
    };
    let exact_store = twin("planner-cache-exact");
    let exact_reads = reads(&exact_store);
    let exact = exact_store
        .query(
            QueryRequest::new("park", &query)
                .segments(SEGMENTS)
                .with_planner(false),
        )
        .unwrap();
    let exact_stats = exact_store.cache_stats();
    let planned_store = twin("planner-cache-planned");
    let planned_reads = reads(&planned_store);
    let planned = planned_store
        .query(planned_request(&query, SEGMENTS))
        .unwrap();
    let planned_stats = planned_store.cache_stats();
    // First touch: every fetched view misses once, and each miss is one
    // store read — nothing else moves either counter.
    for (store, reads_before, result, stats) in [
        (&exact_store, exact_reads, &exact, &exact_stats),
        (&planned_store, planned_reads, &planned, &planned_stats),
    ] {
        assert_eq!(stats.decoded_misses, fetched(result));
        assert_eq!(stats.decoded_misses, reads(store) - reads_before);
    }
    assert!(
        planned_stats.decoded_misses < exact_stats.decoded_misses,
        "skipped segments must not produce cache misses: {planned_stats:?} vs {exact_stats:?}"
    );
    // A hot replay of the planned query is served by the cache — the skip
    // path did not poison hit/miss accounting.
    let misses_before = planned_stats.decoded_misses;
    let replay_reads = reads(&planned_store);
    planned_store
        .query(planned_request(&query, SEGMENTS))
        .unwrap();
    let replay_stats = planned_store.cache_stats();
    assert_eq!(
        reads(&planned_store),
        replay_reads,
        "hot replay reads no store"
    );
    assert_eq!(
        replay_stats.decoded_hits - planned_stats.decoded_hits,
        fetched(&planned),
        "every replayed fetch is one cache hit"
    );
    assert_eq!(
        replay_stats.decoded_misses, misses_before,
        "hot replay must not miss"
    );
    assert!(
        replay_stats.decoded_hits > planned_stats.decoded_hits,
        "hot replay must hit the cache"
    );
}
