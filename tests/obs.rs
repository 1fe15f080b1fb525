//! Observability integration: a traced request crosses every layer of the
//! serving stack and comes back out as one coherent trace; the metrics
//! endpoint aggregates every stats source; both travel the wire.

use vstore::datasets::{Dataset, VideoSource};
use vstore::obs::json;
use vstore::{
    BackendOptions, IngestRequest, MetricsSnapshot, NetClient, NetOptions, QueryRequest, QuerySpec,
    RuntimeOptions, ServeOptions, ServeRequest, ServeResponse, TraceDump, TraceOptions, VStore,
    VStoreOptions,
};

fn traced_store(tag: &str) -> VStore {
    VStore::open_temp(
        tag,
        VStoreOptions::fast()
            .with_backend(BackendOptions::Mem)
            .with_cache(16 << 20, 8)
            .with_trace(TraceOptions::enabled().with_sample_per_1k(1000)),
    )
    .unwrap()
}

fn load(store: &VStore, segments: u64) -> QuerySpec {
    let query = QuerySpec::query_a(0.8);
    store.configure(&query.consumers()).unwrap();
    let source = VideoSource::new(Dataset::Jackson);
    store
        .ingest(IngestRequest::new(&source).segments(segments))
        .unwrap();
    query
}

/// The acceptance path: a pipelined `NetClient` query at 100% sampling
/// yields a **single** trace whose spans cover at least four layers of
/// the stack — socket decode, queue wait, worker execution and the
/// storage read path — and the dump exports as valid Chrome trace JSON.
#[test]
fn net_query_produces_one_trace_spanning_the_stack() {
    let store = traced_store("obs-net-trace");
    let query = load(&store, 3);

    let server = store
        .serve_net(
            "127.0.0.1:0",
            NetOptions::default(),
            ServeOptions::default().with_workers(2),
        )
        .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let response = client
        .call(&ServeRequest::Query {
            stream: "jackson".into(),
            spec: query.clone(),
            first_segment: 0,
            count: 3,
        })
        .unwrap();
    assert!(matches!(response, ServeResponse::Query(_)), "{response:?}");
    drop(client);
    server.shutdown();

    let dump = store.trace_dump(0);
    let queries: Vec<_> = dump.records.iter().filter(|r| r.root == "query").collect();
    assert_eq!(queries.len(), 1, "one net query, one trace: {dump:?}");
    let record = queries[0];
    assert!(record.sampled, "100% head sampling");
    assert!(
        record.spans.len() >= 6,
        "expected >= 6 spans, got {}: {:?}",
        record.spans.len(),
        record.spans
    );
    // Spans from at least four distinct layers of the stack.
    let names: Vec<&str> = record.spans.iter().map(|s| s.name.as_str()).collect();
    for layer in [
        "net.decode",
        "queue.wait",
        "worker.execute",
        "query.execute",
    ] {
        assert!(names.contains(&layer), "missing {layer} in {names:?}");
    }
    assert!(
        names.iter().any(|n| n.starts_with("read.")),
        "no storage-read span in {names:?}"
    );
    // Spans carry timing relative to the trace start, and nothing was
    // evicted from the rings while capturing it.
    assert!(record.spans.iter().any(|s| s.end_us() > 0), "{record:?}");
    assert_eq!(dump.dropped_spans, 0, "{dump:?}");

    let chrome = dump.to_chrome_json();
    assert_eq!(json::validate(&chrome), Ok(()), "{chrome}");
    assert!(chrome.contains("\"ph\": \"X\""), "{chrome}");
    // The human report renders the same tree.
    assert!(dump.report().contains("query"), "{}", dump.report());
}

/// Direct facade calls trace too: ingest and query each begin their own
/// trace when no serve worker installed one.
#[test]
fn in_process_requests_begin_their_own_traces() {
    let store = traced_store("obs-inproc");
    let query = load(&store, 2);
    store
        .query(QueryRequest::new("jackson", &query).segments(2))
        .unwrap();

    let dump = store.trace_dump(0);
    let roots: Vec<&str> = dump.records.iter().map(|r| r.root.as_str()).collect();
    assert!(roots.contains(&"ingest"), "{roots:?}");
    assert!(roots.contains(&"query"), "{roots:?}");
    let ingest = dump.records.iter().find(|r| r.root == "ingest").unwrap();
    for name in ["ingest.scene", "ingest.transcode", "ingest.put"] {
        assert!(
            ingest.spans.iter().any(|s| s.name == name),
            "{name}: {ingest:?}"
        );
    }
}

/// Metrics and trace dumps travel the wire: the v5 request variants
/// answer with the same payloads the facade returns in process.
#[test]
fn metrics_and_traces_travel_the_wire() {
    let store = traced_store("obs-wire");
    let query = load(&store, 2);
    let server = store
        .serve_net(
            "127.0.0.1:0",
            NetOptions::default(),
            ServeOptions::default().with_workers(2),
        )
        .unwrap();

    // First connection does the work; a second one observes it.
    let mut worker = NetClient::connect(server.local_addr()).unwrap();
    worker
        .call(&ServeRequest::Query {
            stream: "jackson".into(),
            spec: query.clone(),
            first_segment: 0,
            count: 2,
        })
        .unwrap();

    let mut observer = NetClient::connect(server.local_addr()).unwrap();
    let metrics: MetricsSnapshot = match observer.call(&ServeRequest::MetricsSnapshot).unwrap() {
        ServeResponse::Metrics(snapshot) => snapshot,
        other => panic!("expected metrics, got {other:?}"),
    };
    for family in [
        "vstore_store_live_segments",
        "vstore_serve_completed_total",
        "vstore_net_frames_in_total",
        "vstore_trace_committed_total",
    ] {
        assert!(metrics.get(family).is_some(), "missing {family}");
    }
    assert_eq!(json::validate(&metrics.to_json()), Ok(()));
    assert!(metrics.to_prometheus().contains("# TYPE"));

    let dump: TraceDump = match observer
        .call(&ServeRequest::TraceDump { max_traces: 8 })
        .unwrap()
    {
        ServeResponse::TraceDump(dump) => *dump,
        other => panic!("expected trace dump, got {other:?}"),
    };
    assert!(dump.records.iter().any(|r| r.root == "query"), "{dump:?}");
    server.shutdown();
}

/// With tracing off (the default), requests still serve and the rings
/// stay empty — the span sites are inert.
#[test]
fn tracing_disabled_commits_nothing() {
    let store = VStore::open_temp(
        "obs-disabled",
        VStoreOptions::fast()
            .with_backend(BackendOptions::Mem)
            .with_runtime(RuntimeOptions::sequential()),
    )
    .unwrap();
    let query = load(&store, 1);
    store
        .query(QueryRequest::new("jackson", &query).segments(1))
        .unwrap();
    assert!(!store.tracer().enabled());
    let dump = store.trace_dump(0);
    assert!(dump.records.is_empty(), "{dump:?}");
    assert_eq!(store.tracer().stats().begun, 0);
    // The registry still reports tracing as off.
    let snapshot = store.metrics_snapshot();
    let enabled = snapshot.get("vstore_trace_enabled").unwrap();
    assert_eq!(
        enabled.value,
        vstore::MetricValue::Gauge(0.0),
        "{enabled:?}"
    );
}
