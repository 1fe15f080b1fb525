//! Serving-layer integration: requests through the `vstore-serve` front end
//! must behave exactly like requests issued directly on the handle.
//!
//! * **Parity** — ingest/query/erode responses served through the bounded
//!   queue + worker pool are equal (and wire-byte-identical) to direct
//!   calls on an identically prepared store.
//! * **Back-pressure** — 16+ concurrent clients against a tiny queue are
//!   shed with `Busy`, never queued without bound.
//! * **Resilience** — mid-stream disconnects and concurrent `configure`
//!   epoch swaps leave the server serving.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vstore::datasets::{Dataset, VideoSource};
use vstore::{
    BackendOptions, IngestRequest, QueryRequest, QuerySpec, QueueFullPolicy, ServeOptions,
    ServeRequest, ServeResponse, VStore, VStoreOptions,
};

fn mem_store(tag: &str) -> VStore {
    VStore::open_temp(tag, VStoreOptions::fast().with_backend(BackendOptions::Mem)).unwrap()
}

/// Two identically prepared stores: requests through the front end of one
/// must match direct calls on the other, byte for byte on the wire.
#[test]
fn served_responses_match_direct_handle_calls() {
    let query = QuerySpec::query_a(0.8);
    let consumers = query.consumers();
    let source = VideoSource::new(Dataset::Jackson);

    let direct = mem_store("serve-parity-direct");
    direct.configure(&consumers).unwrap();
    let served = mem_store("serve-parity-served");
    served.configure(&consumers).unwrap();

    let server = served
        .serve(ServeOptions::default().with_workers(4).with_queue_depth(64))
        .unwrap();

    // Ingest [0, 6) of jackson: directly on one store, and as three
    // concurrent served clients with disjoint ranges on the other. Reports
    // are range-deterministic, so each served response must equal the
    // direct report for the same range.
    let ranges: [(u64, u64); 3] = [(0, 2), (2, 2), (4, 2)];
    std::thread::scope(|scope| {
        for &(first, count) in &ranges {
            let mut client = server.connect();
            let source = source.clone();
            scope.spawn(move || {
                let response = client
                    .call(ServeRequest::Ingest {
                        source,
                        first_segment: first,
                        count,
                    })
                    .unwrap();
                assert!(!response.is_error(), "{response:?}");
                response
            });
        }
    });
    for &(first, count) in &ranges {
        let direct_report = direct
            .ingest(
                IngestRequest::new(&source)
                    .starting_at(first)
                    .segments(count),
            )
            .unwrap();
        // Re-issue the same range through the front end: ingest is
        // deterministic, so the served report matches the direct one.
        let mut client = server.connect();
        let response = client
            .call(ServeRequest::Ingest {
                source: source.clone(),
                first_segment: first,
                count,
            })
            .unwrap();
        let expected = ServeResponse::Ingest(direct_report);
        assert_eq!(response, expected);
        assert_eq!(response.to_wire(), expected.to_wire(), "wire bytes differ");
    }
    assert_eq!(
        direct.store_stats().live_segments,
        served.store_stats().live_segments
    );

    // Mixed query parity from 8 concurrent clients: every served response
    // equals the direct result for the same request.
    let cases: Vec<(u64, u64)> = vec![(0, 6), (0, 2), (2, 4), (4, 2)];
    let expected: Vec<ServeResponse> = cases
        .iter()
        .map(|&(first, count)| {
            ServeResponse::Query(
                direct
                    .query(
                        QueryRequest::new("jackson", &query)
                            .starting_at(first)
                            .segments(count),
                    )
                    .unwrap(),
            )
        })
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let mut client = server.connect();
            let query = query.clone();
            let cases = &cases;
            let expected = &expected;
            scope.spawn(move || {
                for (&(first, count), want) in cases.iter().zip(expected) {
                    let response = client
                        .call(ServeRequest::Query {
                            stream: "jackson".into(),
                            spec: query.clone(),
                            first_segment: first,
                            count,
                        })
                        .unwrap();
                    assert_eq!(&response, want);
                    assert_eq!(response.to_wire(), want.to_wire(), "wire bytes differ");
                }
            });
        }
    });

    // Erosion parity: both stores are in the same state, so the served
    // erode deletes exactly as many segments as the direct one.
    let direct_deleted = direct
        .erode(vstore::ErodeRequest::new("jackson").at_age_days(0))
        .unwrap();
    let mut client = server.connect();
    match client
        .call(ServeRequest::Erode {
            stream: "jackson".into(),
            age_days: 0,
        })
        .unwrap()
    {
        ServeResponse::Erode(report) => assert_eq!(report, direct_deleted),
        other => panic!("unexpected {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.failed, 0, "{stats:?}");
    assert_eq!(stats.panics, 0);
    // 6 ingests + 8 clients × the query cases + 1 erode, at minimum.
    assert!(stats.completed > 6 + 8 * cases.len() as u64);
}

/// 16+ concurrent clients against a one-slot queue: overload is shed with
/// `Busy` (bounded memory), accepted requests all complete, and the split
/// adds up exactly.
#[test]
fn bounded_queue_sheds_load_with_busy_at_16_clients() {
    let store = mem_store("serve-busy");
    let query = QuerySpec::query_a(0.8);
    store.configure(&query.consumers()).unwrap();
    let source = VideoSource::new(Dataset::Jackson);
    store
        .ingest(IngestRequest::new(&source).segments(2))
        .unwrap();

    let server = store
        .serve(
            ServeOptions::sequential()
                .with_queue_depth(2)
                .with_on_full(QueueFullPolicy::Reject),
        )
        .unwrap();

    const CLIENTS: usize = 16;
    const REQUESTS_PER_CLIENT: usize = 8;
    let ok = Arc::new(AtomicUsize::new(0));
    let busy = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let mut client = server.connect();
            let query = query.clone();
            let ok = Arc::clone(&ok);
            let busy = Arc::clone(&busy);
            scope.spawn(move || {
                let mut submitted = Vec::new();
                for _ in 0..REQUESTS_PER_CLIENT {
                    let request = ServeRequest::Query {
                        stream: "jackson".into(),
                        spec: query.clone(),
                        first_segment: 0,
                        count: 2,
                    };
                    match client.submit(request) {
                        Ok(id) => submitted.push(id),
                        Err(e) => {
                            assert!(e.is_busy(), "only Busy may be shed: {e}");
                            busy.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                for id in submitted {
                    let response = client.recv_response(id).unwrap();
                    assert!(!response.is_error(), "{response:?}");
                    ok.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let stats = server.shutdown();
    let ok = ok.load(Ordering::Relaxed);
    let busy = busy.load(Ordering::Relaxed);
    assert_eq!(ok + busy, CLIENTS * REQUESTS_PER_CLIENT);
    assert_eq!(stats.submitted, ok as u64);
    assert_eq!(stats.completed, ok as u64);
    assert_eq!(stats.rejected_busy, busy as u64);
    assert!(
        busy > 0,
        "16 clients flooding a 2-slot serial queue must shed: {stats:?}"
    );
    assert!(
        stats.peak_queue_depth <= 2,
        "queue grew past its bound: {stats:?}"
    );
}

/// Clients that vanish mid-stream and a concurrent `configure` epoch swap
/// leave the server serving; surviving clients keep getting correct
/// answers.
#[test]
fn disconnects_and_epoch_swaps_leave_the_server_serving() {
    let store = mem_store("serve-chaos");
    let query = QuerySpec::query_a(0.8);
    let consumers = query.consumers();
    let config = store.configure(&consumers).unwrap();
    let source = VideoSource::new(Dataset::Jackson);
    store
        .ingest(IngestRequest::new(&source).segments(4))
        .unwrap();

    let server = store
        .serve(ServeOptions::default().with_workers(4).with_queue_depth(32))
        .unwrap();
    let expected = store
        .query(QueryRequest::new("jackson", &query).segments(4))
        .unwrap();

    std::thread::scope(|scope| {
        // Deserters: submit and drop the connection without receiving.
        for _ in 0..4 {
            let mut client = server.connect();
            let query = query.clone();
            scope.spawn(move || {
                for _ in 0..3 {
                    let _ = client.submit(ServeRequest::Query {
                        stream: "jackson".into(),
                        spec: query.clone(),
                        first_segment: 0,
                        count: 4,
                    });
                }
                drop(client);
            });
        }
        // A control plane swapping the configuration epoch mid-stream.
        {
            let store = store.clone();
            let consumers = consumers.clone();
            let config = Arc::clone(&config);
            scope.spawn(move || {
                for round in 0..6 {
                    if round % 2 == 0 {
                        store.install_configuration((*config).clone());
                    } else {
                        store.configure(&consumers).unwrap();
                    }
                }
            });
        }
        // Survivors: every response must still be the correct one (the
        // swapped-in configurations are identical, so results are stable).
        for _ in 0..4 {
            let mut client = server.connect();
            let query = query.clone();
            let expected = &expected;
            scope.spawn(move || {
                for _ in 0..5 {
                    let response = client
                        .call(ServeRequest::Query {
                            stream: "jackson".into(),
                            spec: query.clone(),
                            first_segment: 0,
                            count: 4,
                        })
                        .unwrap();
                    assert_eq!(response, ServeResponse::Query(expected.clone()));
                }
            });
        }
    });

    assert!(store.configuration_epoch() >= 7);
    let stats = server.shutdown();
    assert_eq!(stats.panics, 0, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    // Every deserter's answered requests were counted as disconnects (some
    // may still have been in flight when the connection died — all that is
    // guaranteed is that none of them disturbed the survivors).
    assert!(stats.completed >= 4 * 5);
}
