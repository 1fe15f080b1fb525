//! Socket front-end shutdown leaves nothing behind. One test in its own
//! binary, because it inspects the whole process's thread list: no other
//! test's server may be running beside it.

#![expect(clippy::disallowed_methods, reason = "counts threads in /proc")]

use std::time::{Duration, Instant};
use vstore::datasets::VideoSource;
use vstore::serve::{NetServer, VideoService};
use vstore::{
    LiveStats, Metric, MetricsSnapshot, NetClient, NetOptions, QueryResult, QuerySpec, Result,
    ServeOptions, ServeRequest, ServeResponse, VStoreError,
};

/// `live_stats` takes 20 ms; `metrics` answers with a megabyte-class
/// snapshot, so a peer that never reads fills the socket's buffers.
#[derive(Clone)]
struct SlowAndLarge;

impl VideoService for SlowAndLarge {
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
        std::thread::sleep(Duration::from_millis(20));
        Ok(LiveStats::default())
    }
    fn metrics(&self) -> Result<MetricsSnapshot> {
        let metrics = (0..40_000)
            .map(|i| Metric::counter(&format!("mock_row_{i}_total"), "a mock row", i))
            .collect();
        Ok(MetricsSnapshot { metrics })
    }
}

/// Threads of this process named like the front end's.
#[cfg(target_os = "linux")]
fn net_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("vstore-net-"))
        .count()
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Eight connections — idle, mid-pipeline, and one that never reads its
/// responses — then `shutdown()`: it returns within the drain deadline,
/// every request decoded before the drain was written or its connection
/// counted lost, and every thread the front end spawned is gone.
#[test]
fn shutdown_answers_what_it_accepted_and_joins_every_thread() {
    const PIPELINED: usize = 3;
    const PIPELINE_DEPTH: usize = 4;
    const UNREAD: usize = 16;
    let server = NetServer::start(
        SlowAndLarge,
        "127.0.0.1:0",
        NetOptions::default(),
        ServeOptions::default().with_workers(2),
    )
    .unwrap();
    let addr = server.local_addr();
    let probe = server.probe();

    let idle: Vec<NetClient> = (0..4).map(|_| NetClient::connect(addr).unwrap()).collect();
    let mut pipelined: Vec<NetClient> = (0..PIPELINED)
        .map(|_| NetClient::connect(addr).unwrap())
        .collect();
    for client in &mut pipelined {
        for _ in 0..PIPELINE_DEPTH {
            client.submit(&ServeRequest::LiveStats).unwrap();
        }
        client.flush().unwrap();
    }
    // Tens of megabytes of responses nobody reads: more than the socket
    // buffers hold, so this connection's writer ends up blocked.
    let mut deaf = NetClient::connect(addr).unwrap();
    for _ in 0..UNREAD {
        deaf.submit(&ServeRequest::MetricsSnapshot).unwrap();
    }
    deaf.flush().unwrap();

    let decoded = (PIPELINED * PIPELINE_DEPTH + UNREAD) as u64;
    wait_until("all connections served and all frames decoded", || {
        let stats = probe.stats();
        stats.active_connections == 8 && stats.frames_in == decoded
    });
    // One acceptor, and a reader and a writer per connection.
    #[cfg(target_os = "linux")]
    assert_eq!(net_threads(), 1 + 2 * 8);

    let began = Instant::now();
    let (net, serve) = server.shutdown();
    let took = began.elapsed();
    assert!(
        took < Duration::from_secs(5 + 2),
        "drain took {took:?}, past its 5 s deadline"
    );
    assert_eq!(net.active_connections, 0, "{net:?}");
    assert_eq!(serve.completed, decoded, "{serve:?}");
    // The connections that take their responses got every one of them; the
    // one that does not was either absorbed by the kernel's buffers or cut
    // and counted.
    assert!(
        net.frames_out >= (PIPELINED * PIPELINE_DEPTH) as u64,
        "{net:?}"
    );
    assert!(
        net.frames_out == decoded || net.disconnects == 1,
        "requests neither answered nor accounted lost: {net:?}"
    );
    for client in &mut pipelined {
        for _ in 0..PIPELINE_DEPTH {
            let (_, response) = client.recv().unwrap();
            assert_eq!(response, ServeResponse::LiveStats(Box::default()));
        }
    }
    // A joined thread can linger in /proc for an instant after its join
    // returns; none may outlive that.
    #[cfg(target_os = "linux")]
    wait_until("every front-end thread gone", || net_threads() == 0);
    drop((idle, deaf));
}
