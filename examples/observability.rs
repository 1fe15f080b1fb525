//! Observability demo: watch a loaded store from a second connection.
//!
//! Starts a `VStore` with request tracing at 100% head-sampling (a demo
//! setting — production wants 1–10 per 1k), loads it over TCP with a few
//! pipelined query clients, then opens a separate **observer** connection
//! that never does any video work: it pulls the unified metrics snapshot
//! (Prometheus text) and drains the tracer's rings over the wire. The
//! slowest request's span tree is printed, and the whole dump is exported
//! as Chrome trace-event JSON — load it in `chrome://tracing` or
//! <https://ui.perfetto.dev> to see the request timeline.
//!
//! ```sh
//! cargo run --release --example observability
//! ```
//!
//! Exits non-zero when a metric family it prints is missing from the
//! snapshot, so a renamed family fails CI.

#![expect(clippy::disallowed_methods, reason = "writes a trace file")]

use vstore::datasets::{Dataset, VideoSource};
use vstore::{
    BackendOptions, IngestRequest, NetClient, NetOptions, QuerySpec, ServeOptions, ServeRequest,
    ServeResponse, TraceOptions, VStore, VStoreOptions,
};

fn main() {
    let store = VStore::open_temp(
        "obs-demo",
        VStoreOptions::fast()
            .with_backend(BackendOptions::Mem)
            .with_cache(64 << 20, 32)
            .with_trace(TraceOptions::enabled().with_sample_per_1k(1000)),
    )
    .expect("open store");
    let query = QuerySpec::query_a(0.8);
    store.configure(&query.consumers()).expect("configure");
    store
        .ingest(IngestRequest::new(&VideoSource::new(Dataset::Jackson)).segments(4))
        .expect("ingest");

    let server = store
        .serve_net(
            "127.0.0.1:0",
            NetOptions::default(),
            ServeOptions::default().with_workers(2).with_queue_depth(64),
        )
        .expect("serve_net");
    let addr = server.local_addr();
    println!("serving on {addr}, tracing every request\n");

    // The load: a few clients pipelining queries over their own sockets.
    const CLIENTS: usize = 3;
    const QUERIES_PER_CLIENT: usize = 4;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let query = query.clone();
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                for _ in 0..QUERIES_PER_CLIENT {
                    client
                        .submit(&ServeRequest::Query {
                            stream: "jackson".into(),
                            spec: query.clone(),
                            first_segment: 0,
                            count: 4,
                        })
                        .expect("submit");
                }
                client.flush().expect("flush");
                while client.pending() > 0 {
                    let (_, response) = client.recv().expect("recv");
                    assert!(!response.is_error(), "{response:?}");
                }
            });
        }
    });

    // The observer: a second connection that only reads telemetry.
    let mut observer = NetClient::connect(addr).expect("connect observer");

    let snapshot = match observer
        .call(&ServeRequest::MetricsSnapshot)
        .expect("metrics")
    {
        ServeResponse::Metrics(snapshot) => snapshot,
        other => panic!("unexpected {other:?}"),
    };
    println!(
        "metrics snapshot: {} rows; a few of them in Prometheus text:",
        snapshot.metrics.len()
    );
    let text = snapshot.to_prometheus();
    let mut missing = Vec::new();
    for family in [
        "vstore_serve_completed_total",
        "vstore_cache_decoded_hits_total",
        "vstore_net_frames_in_total",
        "vstore_trace_committed_total",
    ] {
        if snapshot.get(family).is_none() {
            missing.push(family);
        }
        for line in text.lines().filter(|line| line.starts_with(family)) {
            println!("  {line}");
        }
    }
    if !missing.is_empty() {
        eprintln!("metric families missing from the snapshot: {missing:?}");
        std::process::exit(1);
    }

    let dump = match observer
        .call(&ServeRequest::TraceDump { max_traces: 0 })
        .expect("trace dump")
    {
        ServeResponse::TraceDump(dump) => *dump,
        other => panic!("unexpected {other:?}"),
    };
    println!("\n{}", dump.report());

    if let Some(slowest) = dump.slowest() {
        println!(
            "slowest request: {} ({} µs, {} spans)",
            slowest.root,
            slowest.dur_us,
            slowest.spans.len()
        );
        for (depth, span) in slowest.span_tree() {
            let detail = if span.detail.is_empty() {
                String::new()
            } else {
                format!(" [{}]", span.detail)
            };
            println!(
                "  {:indent$}{} {} µs{detail}",
                "",
                span.name,
                span.dur_us,
                indent = depth * 2
            );
        }
    }

    // Export for chrome://tracing or ui.perfetto.dev ("Open trace file").
    let trace_path = std::env::temp_dir().join("vstore-trace.json");
    std::fs::write(&trace_path, dump.to_chrome_json()).expect("write trace");
    println!(
        "\nChrome trace with {} traces written to {} — load it in \
         chrome://tracing or https://ui.perfetto.dev",
        dump.records.len(),
        trace_path.display()
    );

    server.shutdown();
    std::fs::remove_dir_all(store.store_dir()).ok();
}
