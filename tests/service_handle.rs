//! The service-handle contract: `VStore` is a cheaply-cloneable
//! `Clone + Send + Sync` handle whose clones configure, ingest and query the
//! same store concurrently. Configuration swaps are atomic epoch changes —
//! requests in flight keep the configuration they started with, so every
//! request sees one coherent configuration end to end.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vstore::{
    BackendOptions, Configuration, ErodeRequest, IngestRequest, QueryRequest, QuerySpec, VStore,
    VStoreOptions,
};
use vstore_datasets::{Dataset, VideoSource};

fn mem_store(tag: &str) -> VStore {
    VStore::open_temp(tag, VStoreOptions::fast().with_backend(BackendOptions::Mem)).unwrap()
}

#[test]
fn handle_type_is_clone_send_sync() {
    fn assert_service_handle<T: Clone + Send + Sync + 'static>() {}
    assert_service_handle::<VStore>();
}

#[test]
fn concurrent_configure_ingest_query_from_cloned_handles() {
    let store = mem_store("service-concurrent");
    let query = QuerySpec::query_a(0.8);
    let consumers = query.consumers();
    let source = VideoSource::new(Dataset::Jackson);

    // Warm up: derive the configuration and ingest the range the query
    // threads will read, so every thread below has work it can complete.
    let config: Arc<Configuration> = store.configure(&consumers).unwrap();
    let formats = config.storage_formats.len();
    store
        .ingest(IngestRequest::new(&source).segments(4))
        .unwrap();

    const QUERY_THREADS: usize = 4;
    const CONFIGURE_THREADS: usize = 2;
    const INGEST_THREADS: usize = 2;
    const QUERIES_PER_THREAD: usize = 8;
    const CONFIGURES_PER_THREAD: usize = 4;
    const SEGMENTS_PER_INGEST: u64 = 2;

    let queries_ok = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        // ≥ 4 cloned handles querying while other clones swap the active
        // configuration and ingest new segments.
        for _ in 0..QUERY_THREADS {
            let handle = store.clone();
            let query = query.clone();
            let queries_ok = Arc::clone(&queries_ok);
            scope.spawn(move || {
                for _ in 0..QUERIES_PER_THREAD {
                    let result = handle
                        .query(QueryRequest::new("jackson", &query).segments(4))
                        .unwrap();
                    assert_eq!(result.stages[0].segments_processed, 4);
                    assert!(result.speed.factor() > 0.0);
                    queries_ok.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Concurrent configure: re-derivation hits the profiler cache, and
        // each install is an atomic epoch swap under the queries above.
        for _ in 0..CONFIGURE_THREADS {
            let handle = store.clone();
            let consumers = consumers.clone();
            scope.spawn(move || {
                for _ in 0..CONFIGURES_PER_THREAD {
                    let installed = handle.configure(&consumers).unwrap();
                    assert_eq!(installed.storage_formats.len(), formats);
                }
            });
        }
        // Concurrent ingest of disjoint segment ranges.
        for t in 0..INGEST_THREADS {
            let handle = store.clone();
            let source = source.clone();
            scope.spawn(move || {
                let first = 4 + t as u64 * SEGMENTS_PER_INGEST;
                let report = handle
                    .ingest(
                        IngestRequest::new(&source)
                            .starting_at(first)
                            .segments(SEGMENTS_PER_INGEST),
                    )
                    .unwrap();
                assert_eq!(
                    report.segments_written,
                    SEGMENTS_PER_INGEST as usize * formats
                );
            });
        }
    });

    assert_eq!(
        queries_ok.load(Ordering::Relaxed),
        QUERY_THREADS * QUERIES_PER_THREAD
    );
    // Every install advanced the epoch exactly once: 1 warm-up configure +
    // the configure threads.
    assert_eq!(
        store.configuration_epoch(),
        1 + (CONFIGURE_THREADS * CONFIGURES_PER_THREAD) as u64
    );
    // All ingested segments are live: the warm-up 4 plus the two disjoint
    // ranges, in every storage format.
    let expected_segments = 4 + INGEST_THREADS as u64 * SEGMENTS_PER_INGEST;
    assert_eq!(
        store.store_stats().live_segments,
        expected_segments as usize * formats
    );
}

/// Cache invalidation under concurrency: 8 cloned handles hammer one
/// cached store — 7 querying while 1 erodes segments age by age under a
/// storage budget tight enough that erosion really deletes. Every erosion
/// delete must drop the cached entries for the key, so a query that raced
/// the erosion falls back to a richer stored format instead of being
/// served stale bytes. Afterwards the same erosion sequence is replayed on
/// an uncached twin: the final state and query results must be identical —
/// the cache is invisible everywhere but the resource ledger.
#[test]
fn concurrent_erode_and_query_with_cache_never_serve_stale_bytes() {
    use vstore::{ConfigurationEngine, EngineOptions};
    use vstore_types::{ByteSize, FidelitySpace};

    let query = QuerySpec::query_b(0.9);
    let consumers = query.consumers();
    // Derive the workload's natural storage appetite, then budget away half
    // of the non-golden footprint so the plan erodes (as in
    // examples/budgeted_store.rs).
    let probe = mem_store("service-cache-probe");
    let engine: &ConfigurationEngine = probe.engine();
    let baseline = engine.derive(&consumers).unwrap();
    let per_second = engine.storage_bytes_per_second(&baseline).bytes();
    let golden_per_second = probe
        .profiler()
        .profile_storage(*baseline.golden().unwrap())
        .bytes_per_video_second
        .bytes();
    let lifespan_seconds = 86_400 * 10;
    let non_golden = per_second.saturating_sub(golden_per_second) * lifespan_seconds;
    let budgeted = || {
        let mut options = VStoreOptions::fast().with_backend(BackendOptions::Mem);
        options.engine = EngineOptions {
            fidelity_space: FidelitySpace::reduced(),
            storage_budget: Some(ByteSize(per_second * lifespan_seconds - non_golden / 2)),
            lifespan_days: 10,
            ..EngineOptions::default()
        };
        options
    };
    let cached =
        VStore::open_temp("service-cache-on", budgeted().with_cache(64 << 20, 256)).unwrap();
    let uncached = VStore::open_temp("service-cache-off", budgeted()).unwrap();
    let source = VideoSource::new(Dataset::Jackson);
    for store in [&cached, &uncached] {
        store.configure(&consumers).unwrap();
        store
            .ingest(IngestRequest::new(&source).segments(4))
            .unwrap();
    }

    // Warm the cache before the erosion starts: the eroder below deletes
    // segments whose entries are now resident, so at least some deletes
    // must drop cached data (asserted via `invalidations` at the end).
    cached
        .query(QueryRequest::new("jackson", &query).segments(4))
        .unwrap();

    const QUERY_HANDLES: usize = 7;
    const QUERIES_PER_HANDLE: usize = 6;
    const ERODE_AGES: u32 = 10;
    std::thread::scope(|scope| {
        for _ in 0..QUERY_HANDLES {
            let handle = cached.clone();
            let query = query.clone();
            scope.spawn(move || {
                for _ in 0..QUERIES_PER_HANDLE {
                    let result = handle
                        .query(QueryRequest::new("jackson", &query).segments(4))
                        .unwrap();
                    // Erosion never touches the golden format, so the
                    // fallback always finds every segment.
                    assert_eq!(result.stages[0].segments_processed, 4);
                    assert!(result.speed.factor() > 0.0);
                }
            });
        }
        let eroder = cached.clone();
        scope.spawn(move || {
            for age in 1..=ERODE_AGES {
                eroder
                    .erode(ErodeRequest::new("jackson").at_age_days(age))
                    .unwrap();
            }
        });
    });

    let mut replay_deleted = 0;
    for age in 1..=ERODE_AGES {
        replay_deleted += uncached
            .erode(ErodeRequest::new("jackson").at_age_days(age))
            .unwrap()
            .total_segments();
    }
    assert!(replay_deleted > 0, "the budget must force real erosion");
    assert_eq!(
        cached.store_stats().live_segments,
        uncached.store_stats().live_segments
    );
    let warm = cached
        .query(QueryRequest::new("jackson", &query).segments(4))
        .unwrap();
    let cold = uncached
        .query(QueryRequest::new("jackson", &query).segments(4))
        .unwrap();
    assert_eq!(warm, cold, "the cache must never change query results");

    let stats = cached.cache_stats();
    assert!(
        stats.invalidations > 0,
        "erosion must invalidate cached entries: {stats:?}"
    );
    assert!(
        stats.decoded_hits > 0,
        "repeated queries should hit the cache: {stats:?}"
    );
    assert_eq!(uncached.cache_stats(), vstore::CacheStats::default());
    assert!(uncached.shard_cache_stats().is_empty());
}

#[test]
fn requests_in_flight_keep_their_epoch_snapshot() {
    let store = mem_store("service-epoch");
    let query = QuerySpec::query_a(0.8);
    let config = store.configure(&query.consumers()).unwrap();
    let source = VideoSource::new(Dataset::Jackson);
    store
        .ingest(IngestRequest::new(&source).segments(2))
        .unwrap();

    // A snapshot taken before a swap stays valid and unchanged after it.
    let before = store.configuration().unwrap();
    store.install_configuration((*config).clone());
    store.install_configuration((*config).clone());
    assert_eq!(*before, *config);
    assert_eq!(store.configuration_epoch(), 3);

    // The store still answers queries under the new epoch.
    let result = store
        .query(QueryRequest::new("jackson", &query).segments(2))
        .unwrap();
    assert_eq!(result.stages[0].segments_processed, 2);
}
