//! The store's lock graph, as the debug-build lock-order checker in
//! `vstore_types::sync` observes it over one mixed workload: configure,
//! ingest, query, erode to a cold tier and query back, compact, serve over
//! TCP, and ingest live. Every acquisition of the workload is checked as it
//! happens (an inversion, a nested acquisition of one class or a condvar
//! wait under a second lock panics); this test then pins which lock classes
//! the workload reached and which nestings it took, so a new nesting is a
//! reviewed change to [`EDGES`], not a silent addition.

#![cfg(debug_assertions)]

use std::collections::{BTreeMap, BTreeSet};
use vstore::datasets::{Dataset, VideoSource};
use vstore::{
    BackendOptions, ErodeRequest, IngestRequest, LiveIngestOptions, NetClient, NetOptions,
    QueryRequest, QuerySpec, ServeOptions, ServeRequest, ServeResponse, TraceOptions, VStore,
    VStoreOptions,
};
use vstore_storage::{SegmentKey, SegmentStore};
use vstore_types::sync::observed_lock_order;
use vstore_types::{ErosionStep, FormatId, Fraction};

/// Every lock class the workload takes, by the guarded type with each path
/// cut to its last segment, and the lock it is.
const CLASSES: &[&str] = &[
    // The facade's `VStoreInner`: `active`, `live`, `net`, `serving`.
    "ConfigSlot",
    "ProbeRegistry<LiveProbe>",
    "ProbeRegistry<NetProbe>",
    "ProbeRegistry<ServeProbe>",
    // `Profiler.caches`.
    "ProfilerCaches",
    // `IngestionPipeline.spare_scenes`, `LiveShared.state`.
    "Vec<Vec<SceneFrame>>",
    "LiveState",
    // `MetricsRegistry.collectors`; `ActiveTrace.root`, `ActiveTrace.spans`,
    // `Tracer.shards`.
    "Vec<Box<dyn Collector>>",
    "&str",
    "Vec<TraceSpan>",
    "RingShard",
    // `BufferPool.bufs`, `NetShared.state`, the server's `Shared.state`.
    "Vec<Vec<u8>>",
    "NetState",
    "ServerState",
    // `MemBackend.files`, `MemLogHandle.log`, `SegmentReader.shards`,
    // `Shard.inner`.
    "MemFiles",
    "MemLog",
    "ShardCache",
    "ShardInner",
    // `ColdStore.resident`, `KeyLocks.held`, `TierEngine.counters`.
    "BTreeMap<SegmentKey, u64>",
    "HashSet<SegmentKey>",
    "Counters",
    // `BoundedQueue.state` of the serve request queue and the live queue.
    "QueueState<Job>",
    "QueueState<LiveJob>",
    // `scoped_map`'s cursor and result slots, one class per call site's
    // item and result types: compaction, query prefetch, ingest window and
    // demotion batch.
    "Enumerate<IntoIter<&Shard>>",
    "Enumerate<IntoIter<(usize, u64)>>",
    "Enumerate<IntoIter<IngestTask>>",
    "Enumerate<IntoIter<SegmentKey>>",
    "Vec<Option<Result<u64, VStoreError>>>",
    "Vec<Option<(usize, Result<Option<PrefetchedSegment>, VStoreError>)>>",
    "Vec<Option<Result<TaskOutput, VStoreError>>>",
    "Vec<Option<Result<Option<u64>, VStoreError>>>",
];

/// Every (held -> acquired) nesting the workload takes. A metrics
/// snapshot holds the collector list while each collector reads its
/// layer; a shard holds its state across the Mem backend's name map and
/// log buffer.
const EDGES: &[&str] = &[
    "LiveState -> QueueState<LiveJob>",
    "ProbeRegistry<LiveProbe> -> LiveState",
    "ProbeRegistry<LiveProbe> -> QueueState<LiveJob>",
    "ProbeRegistry<NetProbe> -> NetState",
    "ProbeRegistry<ServeProbe> -> QueueState<Job>",
    "ProbeRegistry<ServeProbe> -> ServerState",
    "ServerState -> QueueState<Job>",
    "ShardInner -> MemFiles",
    "ShardInner -> MemLog",
    "Vec<Box<dyn Collector>> -> BTreeMap<SegmentKey, u64>",
    "Vec<Box<dyn Collector>> -> Counters",
    "Vec<Box<dyn Collector>> -> LiveState",
    "Vec<Box<dyn Collector>> -> NetState",
    "Vec<Box<dyn Collector>> -> ProbeRegistry<LiveProbe>",
    "Vec<Box<dyn Collector>> -> ProbeRegistry<NetProbe>",
    "Vec<Box<dyn Collector>> -> ProbeRegistry<ServeProbe>",
    "Vec<Box<dyn Collector>> -> ProfilerCaches",
    "Vec<Box<dyn Collector>> -> QueueState<Job>",
    "Vec<Box<dyn Collector>> -> QueueState<LiveJob>",
    "Vec<Box<dyn Collector>> -> ServerState",
    "Vec<Box<dyn Collector>> -> ShardCache",
    "Vec<Box<dyn Collector>> -> ShardInner",
];

/// `vstore_storage::shard::ShardInner` -> `ShardInner`, and the same inside
/// generic arguments.
fn short(type_name: &str) -> String {
    let mut pieces = type_name.split("::").peekable();
    let mut out = String::new();
    while let Some(piece) = pieces.next() {
        if pieces.peek().is_some() {
            out.push_str(piece.trim_end_matches(|c: char| c.is_alphanumeric() || c == '_'));
        } else {
            out.push_str(piece);
        }
    }
    out
}

#[test]
fn the_mixed_workload_takes_the_pinned_lock_graph() {
    let store = VStore::open_temp(
        "lock-order",
        VStoreOptions::fast()
            .with_backend(BackendOptions::Mem)
            .with_cache(64 << 20, 64)
            .with_cold_backend(BackendOptions::Mem)
            .with_trace(TraceOptions::enabled().with_sample_per_1k(1000)),
    )
    .unwrap();
    let query = QuerySpec::query_a(0.8);
    // Age 1 demotes every non-golden segment, so the erode below moves a
    // non-empty set to the cold tier.
    let mut config = (*store.configure(&query.consumers()).unwrap()).clone();
    let deleted: BTreeMap<FormatId, Fraction> = config
        .storage_formats
        .keys()
        .filter(|id| !id.is_golden())
        .map(|id| (*id, Fraction::ONE))
        .collect();
    config.erosion.steps = vec![ErosionStep {
        age_days: 1,
        deleted,
        overall_relative_speed: 0.5,
    }];
    store.install_configuration(config);

    let source = VideoSource::new(Dataset::Jackson);
    store
        .ingest(IngestRequest::new(&source).segments(2))
        .unwrap();
    let fresh = store
        .query(QueryRequest::new("jackson", &query).segments(2))
        .unwrap();
    let eroded = store
        .erode(ErodeRequest::new("jackson").at_age_days(1))
        .unwrap();
    assert!(eroded.segments_demoted > 0, "{eroded}");
    let promoted = store.query(QueryRequest::new("jackson", &query).segments(2));
    assert_eq!(fresh, promoted.unwrap());

    let server = store
        .serve_net(
            "127.0.0.1:0",
            NetOptions::default(),
            ServeOptions::default().with_workers(2),
        )
        .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let requests = [
        ServeRequest::Ingest {
            source: source.clone(),
            first_segment: 2,
            count: 1,
        },
        ServeRequest::Query {
            stream: "jackson".into(),
            spec: query,
            first_segment: 0,
            count: 3,
        },
        ServeRequest::MetricsSnapshot,
    ];
    for request in &requests {
        let response = client.call(request).unwrap();
        assert!(!matches!(response, ServeResponse::Error(_)), "{response:?}");
    }
    drop(client);
    server.shutdown();

    let live = store
        .live_ingest(source, LiveIngestOptions::default().with_workers(2))
        .unwrap();
    assert_eq!(live.offer_range(3..5).unwrap().accepted, 2);
    assert_eq!(live.shutdown().completed, 2);
    assert!(!store.metrics_snapshot().to_string().is_empty());
    assert!(!store.trace_dump(4).records.is_empty());

    let segments = SegmentStore::open_mem_with_shards(2).unwrap();
    let key = |i| SegmentKey::new("compact", FormatId(1), i);
    for i in 0..4 {
        segments.put(&key(i), &[7; 64]).unwrap();
    }
    segments.delete(&key(0)).unwrap();
    assert!(segments.compact().unwrap() > 0);

    let (classes, edges) = observed_lock_order();
    let classes: BTreeSet<String> = classes.iter().map(|c| short(c)).collect();
    let edges: BTreeSet<String> = edges
        .iter()
        .map(|(held, taken)| format!("{} -> {}", short(held), short(taken)))
        .collect();
    let pinned = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<BTreeSet<_>>();
    assert_eq!(classes, pinned(CLASSES), "{classes:#?}");
    assert_eq!(edges, pinned(EDGES), "{edges:#?}");
}
