//! Socket front-end demo: one store, a real TCP listener on loopback, and
//! 8 pipelined clients hammering it over the network.
//!
//! Starts a `VStore` over the in-memory backend, configures it for query A,
//! ingests a short stream, serves it with `serve_net` on `127.0.0.1:0`,
//! then runs 8 client threads each pipelining a mix of query, ingest and
//! live-stats requests over its own `NetClient` connection — and prints
//! the `vstore_net_*` rows of the store's metrics snapshot at the end:
//! connections, frames, batch sizes, write syscalls and buffer-pool hits.
//!
//! ```sh
//! cargo run --release --example net_clients
//! ```
//!
//! Exits non-zero when a net metric family it names is missing from the
//! snapshot, so a renamed family fails CI.

#![expect(clippy::disallowed_methods, reason = "removes its scratch store")]

use vstore::datasets::{Dataset, VideoSource};
use vstore::{
    BackendOptions, IngestRequest, NetClient, NetOptions, QuerySpec, ServeOptions, ServeRequest,
    ServeResponse, VStore, VStoreOptions,
};

fn main() {
    let store = VStore::open_temp(
        "net-demo",
        VStoreOptions::fast().with_backend(BackendOptions::Mem),
    )
    .expect("open store");
    let query = QuerySpec::query_a(0.8);
    store.configure(&query.consumers()).expect("configure");
    let source = VideoSource::new(Dataset::Jackson);
    store
        .ingest(IngestRequest::new(&source).segments(4))
        .expect("ingest");

    // A real socket front end on loopback; port 0 lets the OS pick.
    let server = store
        .serve_net(
            "127.0.0.1:0",
            NetOptions::default(),
            ServeOptions::default().with_queue_depth(64),
        )
        .expect("serve_net");
    let addr = server.local_addr();
    println!("serving on {addr} with {server:?}");

    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 12;
    std::thread::scope(|scope| {
        for client_idx in 0..CLIENTS {
            let query = query.clone();
            let source = source.clone();
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                // Pipeline the whole mix up front: requests stream to the
                // server without waiting, responses come back batched.
                for round in 0..REQUESTS_PER_CLIENT {
                    let request = match (client_idx + round) % 3 {
                        0 => ServeRequest::Query {
                            stream: "jackson".into(),
                            spec: query.clone(),
                            first_segment: 0,
                            count: 4,
                        },
                        1 => ServeRequest::Ingest {
                            source: source.clone(),
                            first_segment: 4 + (client_idx * REQUESTS_PER_CLIENT + round) as u64,
                            count: 1,
                        },
                        _ => ServeRequest::LiveStats,
                    };
                    client.submit(&request).expect("submit");
                }
                client.flush().expect("flush");
                let mut ok = 0usize;
                let mut busy = 0usize;
                while client.pending() > 0 {
                    match client.recv().expect("recv") {
                        (_, ServeResponse::Error(err))
                            if err.code == vstore::serve::ErrorCode::Busy =>
                        {
                            busy += 1;
                        }
                        (_, ServeResponse::Error(err)) => panic!("server-side failure: {err:?}"),
                        _ => ok += 1,
                    }
                }
                println!(
                    "client {client_idx}: {ok} served, {busy} shed busy, p99 e2e {} us",
                    client.latency().quantile_us(0.99)
                );
            });
        }
    });

    // Graceful shutdown drains in-flight work, then the probes keep
    // reporting through the store's metrics snapshot.
    server.shutdown();
    let snapshot = store.metrics_snapshot();
    println!("\nnet rows of the metrics snapshot:");
    for line in snapshot
        .to_string()
        .lines()
        .filter(|l| l.starts_with("vstore_net_"))
    {
        println!("{line}");
    }
    std::fs::remove_dir_all(store.store_dir()).ok();
    let missing: Vec<&str> = [
        "vstore_net_accepted_total",
        "vstore_net_frames_in_total",
        "vstore_net_frames_out_total",
        "vstore_net_oversized_frames_total",
        "vstore_net_write_syscalls_total",
        "vstore_net_pool_hits_total",
        "vstore_net_batch_sizes",
        "vstore_net_backlog_peaks",
    ]
    .into_iter()
    .filter(|family| snapshot.get(family).is_none())
    .collect();
    if !missing.is_empty() {
        eprintln!("metric families missing from the snapshot: {missing:?}");
        std::process::exit(1);
    }
}
