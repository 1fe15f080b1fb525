//! Socket front-end integration: pipelined TCP serving must behave exactly
//! like the in-process front end — byte-identical responses, the same
//! deterministic back-pressure, comparable queue-lag accounting — and a
//! hostile or vanishing peer must never take the server down with it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use vstore::datasets::{Dataset, VideoSource};
use vstore::serve::{ErrorCode, NetServer, NetServerHandle, Server, VideoService};
use vstore::{
    BackendOptions, ErodeRequest, IngestRequest, LiveStats, Metric, MetricValue, MetricsSnapshot,
    NetClient, NetOptions, QueryRequest, QueryResult, QuerySpec, QueueFullPolicy, Result,
    ServeOptions, ServeRequest, ServeResponse, VStore, VStoreError, VStoreOptions,
};

fn mem_store(tag: &str) -> VStore {
    VStore::open_temp(tag, VStoreOptions::fast().with_backend(BackendOptions::Mem)).unwrap()
}

/// Spin until `cond` holds (stats counters are updated by server threads).
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Hand-rolled transport envelope, for tests that must write raw
/// (possibly malformed) bytes: `[u32 len][u64 corr_id][payload]`.
fn envelope(corr_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&u32::try_from(8 + payload.len()).unwrap().to_le_bytes());
    frame.extend_from_slice(&corr_id.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Read one enveloped response off a blocking socket.
fn read_response(stream: &mut TcpStream) -> (u64, ServeResponse) {
    let mut header = [0u8; 12];
    stream.read_exact(&mut header).unwrap();
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let corr_id = u64::from_le_bytes(header[4..].try_into().unwrap());
    let mut payload = vec![0u8; len - 8];
    stream.read_exact(&mut payload).unwrap();
    (corr_id, ServeResponse::from_wire(&payload).unwrap())
}

/// A mock service whose only real request is `live_stats`: it sleeps
/// `delay` (building queue wait deterministically) and returns a
/// distinctive payload, so parity checks compare more than defaults.
#[derive(Clone)]
struct SlowLive {
    delay: Duration,
}

impl SlowLive {
    fn expected() -> LiveStats {
        LiveStats {
            offered: 7,
            accepted: 7,
            completed: 6,
            ..LiveStats::default()
        }
    }
}

impl VideoService for SlowLive {
    fn ingest(&self, _: &VideoSource, _: u64, _: u64) -> Result<vstore::ingest::IngestReport> {
        Err(VStoreError::InvalidState("not under test".into()))
    }
    fn query(&self, _: &str, _: &QuerySpec, _: u64, _: u64) -> Result<QueryResult> {
        Err(VStoreError::InvalidState("not under test".into()))
    }
    fn erode(&self, _: &str, _: u32) -> Result<vstore::ErodeReport> {
        Err(VStoreError::InvalidState("not under test".into()))
    }
    fn live_stats(&self) -> Result<LiveStats> {
        std::thread::sleep(self.delay);
        Ok(Self::expected())
    }
    /// A snapshot several times the small frame cap the over-cap test
    /// serves under.
    fn metrics(&self) -> Result<MetricsSnapshot> {
        let metrics = (0..32)
            .map(|i| Metric::counter(&format!("mock_row_{i}_total"), "a mock row", i))
            .collect();
        Ok(MetricsSnapshot { metrics })
    }
}

fn slow_server(delay_ms: u64, queue_depth: usize) -> NetServerHandle {
    NetServer::start(
        SlowLive {
            delay: Duration::from_millis(delay_ms),
        },
        "127.0.0.1:0",
        NetOptions::default(),
        ServeOptions::sequential()
            .with_queue_depth(queue_depth)
            .with_on_full(QueueFullPolicy::Reject),
    )
    .unwrap()
}

/// The mock service without its delay, under the `net` options a test is
/// about.
fn instant_server(net: NetOptions) -> NetServerHandle {
    let service = SlowLive {
        delay: Duration::ZERO,
    };
    NetServer::start(service, "127.0.0.1:0", net, ServeOptions::sequential()).unwrap()
}

/// **Parity.** Responses served over the socket are byte-identical (modulo
/// the transport envelope, which carries only the correlation id) to
/// direct calls on an identically prepared store, for every request kind.
#[test]
fn socket_responses_match_direct_handle_calls() {
    let query = QuerySpec::query_a(0.8);
    let consumers = query.consumers();
    let source = VideoSource::new(Dataset::Jackson);

    let direct = mem_store("net-parity-direct");
    direct.configure(&consumers).unwrap();
    let served = mem_store("net-parity-served");
    served.configure(&consumers).unwrap();

    let server = served
        .serve_net(
            "127.0.0.1:0",
            NetOptions::default(),
            ServeOptions::default().with_workers(2).with_queue_depth(64),
        )
        .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // Ingest parity.
    let direct_report = direct
        .ingest(IngestRequest::new(&source).segments(2))
        .unwrap();
    let response = client
        .call(&ServeRequest::Ingest {
            source: source.clone(),
            first_segment: 0,
            count: 2,
        })
        .unwrap();
    let expected = ServeResponse::Ingest(direct_report);
    assert_eq!(response, expected);
    assert_eq!(response.to_wire(), expected.to_wire(), "wire bytes differ");

    // Query parity.
    let direct_result = direct
        .query(QueryRequest::new("jackson", &query).segments(2))
        .unwrap();
    let response = client
        .call(&ServeRequest::Query {
            stream: "jackson".into(),
            spec: query.clone(),
            first_segment: 0,
            count: 2,
        })
        .unwrap();
    let expected = ServeResponse::Query(direct_result);
    assert_eq!(response, expected);
    assert_eq!(response.to_wire(), expected.to_wire(), "wire bytes differ");

    // Live-stats parity (idle on both stores, but encoded end to end).
    let response = client.call(&ServeRequest::LiveStats).unwrap();
    let expected = ServeResponse::LiveStats(Box::new(direct.live_stats().unwrap_or_default()));
    assert_eq!(response, expected);
    assert_eq!(response.to_wire(), expected.to_wire(), "wire bytes differ");

    // Net stats over the wire: the socket front end describes itself in
    // the `vstore_net_*` rows of the metrics snapshot.
    match client.call(&ServeRequest::MetricsSnapshot).unwrap() {
        ServeResponse::Metrics(snapshot) => {
            let counter = |name: &str| match snapshot.get(name).map(|m| &m.value) {
                Some(MetricValue::Counter(v)) => *v,
                other => panic!("{name}: expected a counter row, got {other:?}"),
            };
            assert!(counter("vstore_net_accepted_total") >= 1);
            assert!(counter("vstore_net_frames_in_total") >= 3);
        }
        other => panic!("unexpected {other:?}"),
    }

    // Erode parity.
    let direct_report = direct
        .erode(ErodeRequest::new("jackson").at_age_days(0))
        .unwrap();
    let response = client
        .call(&ServeRequest::Erode {
            stream: "jackson".into(),
            age_days: 0,
        })
        .unwrap();
    let expected = ServeResponse::Erode(direct_report);
    assert_eq!(response, expected);
    assert_eq!(response.to_wire(), expected.to_wire(), "wire bytes differ");

    // Both layers show in the store's metrics snapshot.
    let snapshot = served.metrics_snapshot();
    assert!(
        snapshot.value("vstore_net_frames_in_total") >= Some(5.0),
        "{snapshot}"
    );
    assert!(snapshot.get("vstore_serve_completed_total").is_some());

    // After shutdown the counters are final (no torn reads between a
    // response landing at the client and its counter update).
    let (net, serve) = server.shutdown();
    assert_eq!(serve.failed, 0, "{serve:?}");
    assert_eq!(net.frames_in, net.frames_out, "every frame answered");
    assert_eq!(net.corrupt_frames, 0);
    // Retired front ends keep their history but stop contributing
    // live state.
    let retired = served.metrics_snapshot();
    assert_eq!(retired.value("vstore_net_active_connections"), Some(0.0));
    assert_eq!(
        retired.value("vstore_net_frames_in_total"),
        Some(net.frames_in as f64)
    );
}

/// **Back-pressure.** 64 pipelined clients against a two-slot queue: every
/// request is answered (ok or a deterministic `Busy` error response — the
/// reader never blocks), the split adds up exactly, ok payloads are
/// byte-identical to the direct service result, and the steady-state
/// buffer pool serves from recycled buffers.
#[test]
fn sixty_four_pipelined_clients_shed_deterministically_on_a_small_queue() {
    const CLIENTS: usize = 64;
    const REQUESTS_PER_CLIENT: usize = 8;
    let server = slow_server(1, 2);
    let addr = server.local_addr();
    let expected = ServeResponse::LiveStats(Box::new(SlowLive::expected()));
    let expected_wire = expected.to_wire();

    let mut handles = Vec::new();
    for _ in 0..CLIENTS {
        let expected = expected.clone();
        let expected_wire = expected_wire.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).unwrap();
            for _ in 0..REQUESTS_PER_CLIENT {
                client.submit(&ServeRequest::LiveStats).unwrap();
            }
            let (mut ok, mut busy) = (0u64, 0u64);
            for _ in 0..REQUESTS_PER_CLIENT {
                let (_, response) = client.recv().unwrap();
                match response {
                    ServeResponse::Error(err) => {
                        assert_eq!(err.code, ErrorCode::Busy, "{err:?}");
                        busy += 1;
                    }
                    other => {
                        assert_eq!(other, expected);
                        assert_eq!(other.to_wire(), expected_wire, "wire bytes differ");
                        ok += 1;
                    }
                }
            }
            assert_eq!(client.pending(), 0);
            (ok, busy)
        }));
    }
    let (mut ok, mut busy) = (0u64, 0u64);
    for handle in handles {
        let (o, b) = handle.join().unwrap();
        ok += o;
        busy += b;
    }
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert_eq!(ok + busy, total, "every pipelined request answered");

    let (net, serve) = server.shutdown();
    assert_eq!(serve.completed, ok, "{serve:?}");
    assert_eq!(serve.rejected_busy, busy, "{serve:?}");
    assert_eq!(net.accepted, CLIENTS as u64);
    assert_eq!(net.frames_in, total);
    assert_eq!(net.frames_out, total);
    assert_eq!(net.disconnects, 0, "{net:?}");
    // Zero per-request allocation in steady state: after the first few
    // frames warm the pool, every response encodes into a recycled buffer.
    assert!(
        net.pool_hits > 4 * net.pool_misses,
        "pool hit rate not above 80% (hits {}, misses {})",
        net.pool_hits,
        net.pool_misses
    );
    // Pipelining actually batched: more responses than write syscalls.
    assert!(net.batch_sizes.mean_us() >= 1.0);
    assert!(
        net.write_syscalls < total,
        "{} syscalls for {total} responses — no batching happened",
        net.write_syscalls
    );
}

/// **Lag accounting.** Network frames are stamped at decode time, so the
/// queue-wait histogram is comparable between the in-process and socket
/// paths: a pipeline of 3 requests against a sequential 20 ms service
/// records ≥15 ms of queue wait on both.
#[test]
fn queue_wait_is_comparable_between_socket_and_in_process_paths() {
    let service = SlowLive {
        delay: Duration::from_millis(20),
    };

    let in_process = Server::start(
        service.clone(),
        ServeOptions::sequential().with_queue_depth(8),
    )
    .unwrap();
    let mut conn = in_process.connect();
    for _ in 0..3 {
        conn.submit(ServeRequest::LiveStats).unwrap();
    }
    for _ in 0..3 {
        conn.recv().unwrap();
    }
    let direct_stats = in_process.shutdown();

    let server = NetServer::start(
        service,
        "127.0.0.1:0",
        NetOptions::default(),
        ServeOptions::sequential().with_queue_depth(8),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        client.submit(&ServeRequest::LiveStats).unwrap();
    }
    for _ in 0..3 {
        client.recv().unwrap();
    }
    let (_, socket_stats) = server.shutdown();

    for (path, stats) in [("in-process", &direct_stats), ("socket", &socket_stats)] {
        assert_eq!(
            stats.queue_wait.count(),
            3,
            "{path}: {:?}",
            stats.queue_wait
        );
        assert!(
            stats.queue_wait.max_us() >= 15_000,
            "{path}: queue wait not measured from submission ({:?})",
            stats.queue_wait
        );
    }
}

/// **Malformed input.** Truncated frames, hostile declared lengths and
/// garbage payloads isolate the offending connection — rejected before any
/// allocation where possible — while the server keeps serving everyone
/// else.
#[test]
fn malformed_frames_isolate_the_connection_and_the_server_keeps_serving() {
    let server = slow_server(0, 64);
    let addr = server.local_addr();
    let probe = server.probe();

    // Truncated frame then close: no request, no response, clean close.
    let mut raw = TcpStream::connect(addr).unwrap();
    let full = envelope(1, &ServeRequest::LiveStats.to_wire());
    raw.write_all(&full[..6]).unwrap();
    drop(raw);

    // Oversized declared length (256 MiB against a 4 MiB cap): the server
    // rejects at header-parse time — before allocating anything — and cuts
    // the connection.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&(256u32 << 20).to_le_bytes()).unwrap();
    wait_until("oversized frame counted", || {
        probe.stats().oversized_frames >= 1
    });
    let mut sink = Vec::new();
    raw.read_to_end(&mut sink).unwrap(); // server closed on us
    assert!(sink.is_empty());
    drop(raw);

    // Garbage mid-stream: a valid request, then a well-framed garbage
    // payload. The first is answered, the second gets a typed corruption
    // error response, then the connection is cut.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&envelope(10, &ServeRequest::LiveStats.to_wire()))
        .unwrap();
    raw.write_all(&envelope(11, &[0xFF; 16])).unwrap();
    // Completion order is not submission order (that is what correlation
    // ids are for): the error response can overtake the valid request.
    let responses: std::collections::HashMap<u64, ServeResponse> =
        [read_response(&mut raw), read_response(&mut raw)]
            .into_iter()
            .collect();
    assert_eq!(
        responses.get(&10),
        Some(&ServeResponse::LiveStats(Box::new(SlowLive::expected())))
    );
    match responses.get(&11) {
        Some(ServeResponse::Error(err)) => {
            assert_eq!(err.code, ErrorCode::Corruption, "{err:?}");
        }
        other => panic!("unexpected {other:?}"),
    }
    let mut sink = Vec::new();
    raw.read_to_end(&mut sink).unwrap();
    assert!(sink.is_empty(), "connection cut after the error response");
    wait_until("corrupt frame counted", || {
        probe.stats().corrupt_frames >= 1
    });

    // Any version but the build's own — newer or older — is a
    // corruption-coded error response, not a dead server.
    for (corr_id, version) in [(12, 99u8), (13, 3)] {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut payload = ServeRequest::LiveStats.to_wire();
        payload[4] = version;
        raw.write_all(&envelope(corr_id, &payload)).unwrap();
        let (corr, response) = read_response(&mut raw);
        assert_eq!(corr, corr_id);
        match response {
            ServeResponse::Error(err) => {
                assert_eq!(err.code, ErrorCode::Corruption, "{err:?}");
                assert!(err.message.contains(&version.to_string()), "{err:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // Through it all, a well-behaved client is still served.
    let mut client = NetClient::connect(addr).unwrap();
    let response = client.call(&ServeRequest::LiveStats).unwrap();
    assert_eq!(
        response,
        ServeResponse::LiveStats(Box::new(SlowLive::expected()))
    );
    let (net, serve) = server.shutdown();
    assert!(net.corrupt_frames >= 1, "{net:?}");
    assert!(net.oversized_frames >= 1, "{net:?}");
    assert_eq!(serve.panics, 0, "{serve:?}");
}

/// **Abrupt disconnect.** A client that vanishes with responses still
/// queued is counted and forgotten; the server keeps serving.
#[test]
fn abrupt_disconnect_with_queued_responses_is_isolated() {
    let server = slow_server(20, 64);
    let addr = server.local_addr();
    let probe = server.probe();

    let mut client = NetClient::connect(addr).unwrap();
    for _ in 0..4 {
        client.submit(&ServeRequest::LiveStats).unwrap();
    }
    client.flush().unwrap();
    // Let at least one response land in our receive buffer unread, then
    // vanish: the close resets the connection, and the server's later
    // writes fail.
    std::thread::sleep(Duration::from_millis(50));
    drop(client);
    wait_until("disconnect counted", || probe.stats().disconnects >= 1);

    let mut client = NetClient::connect(addr).unwrap();
    let response = client.call(&ServeRequest::LiveStats).unwrap();
    assert_eq!(
        response,
        ServeResponse::LiveStats(Box::new(SlowLive::expected()))
    );
    let (net, _) = server.shutdown();
    assert!(net.disconnects >= 1, "{net:?}");
}

/// **Graceful drain.** Shutdown answers and flushes every request already
/// decoded before closing the sockets: the client reads all its responses,
/// then a clean EOF.
#[test]
fn graceful_drain_flushes_queued_responses_before_closing() {
    let server = slow_server(5, 64);
    let probe = server.probe();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for _ in 0..8 {
        client.submit(&ServeRequest::LiveStats).unwrap();
    }
    client.flush().unwrap();
    // Make sure the reader has decoded all 8 before the drain begins
    // (a drain stops reading, it never abandons what it already accepted).
    wait_until("frames decoded", || probe.stats().frames_in == 8);
    let (net, serve) = server.shutdown();
    assert_eq!(net.frames_out, 8, "{net:?}");
    assert_eq!(serve.completed, 8, "{serve:?}");

    for _ in 0..8 {
        let (_, response) = client.recv().unwrap();
        assert_eq!(
            response,
            ServeResponse::LiveStats(Box::new(SlowLive::expected()))
        );
    }
    // Nothing outstanding, and the server has hung up.
    let err = client.recv().unwrap_err();
    assert!(matches!(err, VStoreError::InvalidState(_)), "{err}");
}

/// **Out-of-order collection.** `recv_response` must keep reading the
/// socket even while non-matching responses sit in the client's buffered
/// set — the pipelined server answers in completion order, so waiting on a
/// specific correlation id with other responses already collected must
/// drain the wire, not spin on the buffer.
#[test]
fn recv_response_reads_the_wire_past_buffered_responses() {
    let server = slow_server(1, 64);
    let addr = server.local_addr();
    // Hang-proof: drive the client on a worker thread and fail fast if it
    // never finishes (the old code looped forever here).
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut client = NetClient::connect(addr).unwrap();
        let a = client.submit(&ServeRequest::LiveStats).unwrap();
        let b = client.submit(&ServeRequest::LiveStats).unwrap();
        let c = client.submit(&ServeRequest::LiveStats).unwrap();
        // Collect the last first: the sequential server answers a and b
        // before c, so both land in the client's buffered set.
        client.recv_response(c).unwrap();
        assert_eq!(client.pending(), 2, "a and b buffered");
        // A fourth request while two non-matching responses are buffered:
        // recv_response must read the socket past them.
        let d = client.submit(&ServeRequest::LiveStats).unwrap();
        client.recv_response(d).unwrap();
        // The buffered responses are still collectable, in any order.
        client.recv_response(b).unwrap();
        client.recv_response(a).unwrap();
        assert_eq!(client.pending(), 0);
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("recv_response hung with buffered non-matching responses");
    let _ = server.shutdown();
}

/// **Over-cap response.** A response that would encode past the server's
/// frame cap is replaced with a typed error under the same correlation id.
/// Sent whole, it would fail the client's own header check and leave the
/// connection dead for every later request.
#[test]
fn over_cap_response_becomes_a_typed_error_and_the_connection_lives() {
    const CAP: usize = 256;
    let server = instant_server(NetOptions::default().with_max_frame_bytes(CAP));
    let mut client = NetClient::connect(server.local_addr())
        .unwrap()
        .with_max_frame_bytes(CAP);
    let live = ServeResponse::LiveStats(Box::new(SlowLive::expected()));
    assert!(live.to_wire().len() <= CAP, "fits the cap");

    assert_eq!(client.call(&ServeRequest::LiveStats).unwrap(), live);
    match client.call(&ServeRequest::MetricsSnapshot).unwrap() {
        ServeResponse::Error(err) => {
            assert_eq!(err.code, ErrorCode::InvalidArgument, "{err:?}");
            assert!(err.message.contains(&CAP.to_string()), "{err:?}");
        }
        other => panic!("over-cap response sent anyway: {other:?}"),
    }
    assert_eq!(client.call(&ServeRequest::LiveStats).unwrap(), live);

    let (net, _) = server.shutdown();
    assert_eq!((net.frames_in, net.frames_out), (3, 3));
    assert_eq!(net.disconnects, 0, "{net:?}");
}

/// **Connection cap.** `max_connections` bounds the connections served at
/// once (and so the front end's threads): one past the cap is closed
/// without a response and counted, and a closed connection's slot is
/// reusable.
#[test]
fn connections_past_the_cap_are_refused_until_one_closes() {
    let server = instant_server(NetOptions::default().with_max_connections(2));
    let addr = server.local_addr();
    let probe = server.probe();
    let live = ServeResponse::LiveStats(Box::new(SlowLive::expected()));

    let mut first = NetClient::connect(addr).unwrap();
    let mut second = NetClient::connect(addr).unwrap();
    assert_eq!(first.call(&ServeRequest::LiveStats).unwrap(), live);
    assert_eq!(second.call(&ServeRequest::LiveStats).unwrap(), live);
    assert_eq!(probe.stats().active_connections, 2);

    // The third is accepted by the kernel, then closed by the server
    // before a byte is served: the request is never answered.
    let mut third = NetClient::connect(addr).unwrap();
    assert!(third.call(&ServeRequest::LiveStats).is_err());
    wait_until("refusal counted", || probe.stats().refused == 1);
    assert_eq!(probe.stats().active_connections, 2);

    // Closing one frees its slot.
    drop(first);
    wait_until("slot freed", || probe.stats().active_connections == 1);
    let mut fourth = NetClient::connect(addr).unwrap();
    assert_eq!(fourth.call(&ServeRequest::LiveStats).unwrap(), live);
    assert_eq!(second.call(&ServeRequest::LiveStats).unwrap(), live);

    let (net, serve) = server.shutdown();
    assert_eq!((net.accepted, net.refused), (3, 1), "{net:?}");
    assert_eq!(net.active_connections, 0, "{net:?}");
    assert_eq!(net.disconnects, 0, "{net:?}");
    assert_eq!((net.frames_in, net.frames_out), (4, 4));
    assert_eq!(serve.completed, 4, "{serve:?}");
}
