//! The parallel runtime must be *observationally identical* to the
//! sequential one: ingest and query reports, clock ledgers and stored data
//! may not change when sharding, ingest workers or query prefetch are
//! enabled — parallelism buys wall-clock time, never different results.

#![expect(clippy::disallowed_methods, reason = "removes its scratch stores")]

use vstore::{
    ErodeRequest, IngestRequest, QueryRequest, QuerySpec, RuntimeOptions, VStore, VStoreOptions,
};
use vstore_datasets::{Dataset, VideoSource};

fn options(runtime: RuntimeOptions) -> VStoreOptions {
    VStoreOptions::fast().with_runtime(runtime)
}

#[test]
fn parallel_ingest_and_query_reports_match_sequential_exactly() {
    let query = QuerySpec::query_a(0.8);
    let source = VideoSource::new(Dataset::Jackson);

    let sequential =
        VStore::open_temp("parity-seq", options(RuntimeOptions::sequential())).unwrap();
    let parallel = VStore::open_temp(
        "parity-par",
        options(RuntimeOptions {
            shards: 8,
            ingest_workers: 4,
            query_prefetch: 4,
            ..RuntimeOptions::sequential()
        }),
    )
    .unwrap();

    sequential.configure(&query.consumers()).unwrap();
    parallel.configure(&query.consumers()).unwrap();
    assert_eq!(sequential.configuration(), parallel.configuration());

    let seq_ingest = sequential
        .ingest(IngestRequest::new(&source).segments(3))
        .unwrap();
    let par_ingest = parallel
        .ingest(IngestRequest::new(&source).segments(3))
        .unwrap();
    // Byte-identical ingest reports: every field, including the f64 sums.
    assert_eq!(seq_ingest, par_ingest);
    assert_eq!(seq_ingest.segments_written, par_ingest.segments_written);
    assert_eq!(
        seq_ingest.total_modeled_bytes().bytes(),
        par_ingest.total_modeled_bytes().bytes()
    );

    // Identical stored bytes (aggregate; the parallel store spreads them
    // over 8 shards).
    assert_eq!(
        sequential.store_stats().live_bytes,
        parallel.store_stats().live_bytes
    );
    assert_eq!(
        sequential.store_stats().live_segments,
        parallel.store_stats().live_segments
    );
    assert_eq!(parallel.shard_stats().len(), 8);
    assert_eq!(sequential.shard_stats().len(), 1);

    let seq_result = sequential
        .query(QueryRequest::new("jackson", &query).segments(3))
        .unwrap();
    let par_result = parallel
        .query(QueryRequest::new("jackson", &query).segments(3))
        .unwrap();
    // Byte-identical query results: stage reports, speeds, positives, bytes.
    assert_eq!(seq_result, par_result);

    // The stores did the same traffic too: prefetching and sharding change
    // who reads and where a record lands, never how many.
    let (seq_stats, par_stats) = (sequential.store_stats(), parallel.store_stats());
    assert_eq!(
        (seq_stats.reads, seq_stats.writes),
        (par_stats.reads, par_stats.writes)
    );

    std::fs::remove_dir_all(sequential.store_dir()).ok();
    std::fs::remove_dir_all(parallel.store_dir()).ok();
}

#[test]
fn erosion_behaves_identically_on_sharded_stores() {
    let query = QuerySpec::query_a(0.8);
    let source = VideoSource::new(Dataset::Park);

    let sequential =
        VStore::open_temp("parity-erode-seq", options(RuntimeOptions::sequential())).unwrap();
    let parallel = VStore::open_temp(
        "parity-erode-par",
        options(RuntimeOptions {
            shards: 4,
            ingest_workers: 2,
            query_prefetch: 2,
            ..RuntimeOptions::sequential()
        }),
    )
    .unwrap();
    sequential.configure(&query.consumers()).unwrap();
    parallel.configure(&query.consumers()).unwrap();
    sequential
        .ingest(IngestRequest::new(&source).segments(4))
        .unwrap();
    parallel
        .ingest(IngestRequest::new(&source).segments(4))
        .unwrap();

    for age in 0..30 {
        assert_eq!(
            sequential
                .erode(ErodeRequest::new("park").at_age_days(age))
                .unwrap(),
            parallel
                .erode(ErodeRequest::new("park").at_age_days(age))
                .unwrap(),
            "erosion diverged at age {age}"
        );
    }
    assert_eq!(
        sequential.store_stats().live_segments,
        parallel.store_stats().live_segments
    );
    std::fs::remove_dir_all(sequential.store_dir()).ok();
    std::fs::remove_dir_all(parallel.store_dir()).ok();
}
