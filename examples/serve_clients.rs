//! Serving-layer demo: one store, one front end, many concurrent clients.
//!
//! Starts a `VStore` over the in-memory backend, configures it for query A,
//! ingests a short stream, then serves a burst of mixed requests from
//! several client threads through the bounded queue — and prints the
//! store's metrics snapshot at the end.
//!
//! ```sh
//! cargo run --release --example serve_clients
//! ```

#![expect(clippy::disallowed_methods, reason = "removes its scratch store")]

use vstore::datasets::{Dataset, VideoSource};
use vstore::{
    BackendOptions, IngestRequest, QuerySpec, ServeOptions, ServeRequest, ServeResponse, VStore,
    VStoreOptions,
};

fn main() {
    let store = VStore::open_temp(
        "serve-demo",
        VStoreOptions::fast().with_backend(BackendOptions::Mem),
    )
    .expect("open store");
    let query = QuerySpec::query_a(0.8);
    store.configure(&query.consumers()).expect("configure");
    let source = VideoSource::new(Dataset::Jackson);
    store
        .ingest(IngestRequest::new(&source).segments(4))
        .expect("ingest");

    // A thread-per-core front end with a short queue, shedding overload.
    let server = store
        .serve(ServeOptions::default().with_queue_depth(32))
        .expect("serve");
    println!("serving with {server:?}");

    const CLIENTS: usize = 6;
    const REQUESTS_PER_CLIENT: usize = 8;
    std::thread::scope(|scope| {
        for client_idx in 0..CLIENTS {
            let mut client = server.connect();
            let query = query.clone();
            let source = source.clone();
            scope.spawn(move || {
                let mut ok = 0usize;
                let mut busy = 0usize;
                for round in 0..REQUESTS_PER_CLIENT {
                    let request = match (client_idx + round) % 3 {
                        0 => ServeRequest::Ingest {
                            source: source.clone(),
                            first_segment: 4 + (client_idx * REQUESTS_PER_CLIENT + round) as u64,
                            count: 1,
                        },
                        1 => ServeRequest::Query {
                            stream: "jackson".into(),
                            spec: query.clone(),
                            first_segment: 0,
                            count: 4,
                        },
                        _ => ServeRequest::Erode {
                            stream: "jackson".into(),
                            age_days: 0,
                        },
                    };
                    match client.call(request) {
                        Ok(ServeResponse::Error(err)) => {
                            panic!("request failed server-side: {err:?}")
                        }
                        Ok(_) => ok += 1,
                        Err(e) if e.is_busy() => busy += 1,
                        Err(e) => panic!("client error: {e}"),
                    }
                }
                println!("client {client_idx}: {ok} served, {busy} shed busy");
            });
        }
    });

    // Graceful shutdown drains the queue, then the probe keeps reporting
    // through the store's metrics snapshot.
    server.shutdown();
    println!("\nmetrics snapshot:\n{}", store.metrics_snapshot());
    std::fs::remove_dir_all(store.store_dir()).ok();
}
