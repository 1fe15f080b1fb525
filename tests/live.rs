//! Live-ingest integration: the bounded, back-pressured live ingestor must
//! (a) produce exactly the store state of offline ingestion at steady
//! state, (b) absorb bursts within its queue depth, (c) degrade along its
//! ladder instead of stalling under sustained overload — and recover, and
//! (d) lose zero accepted segments on shutdown, with shed segments
//! accounted exactly.

use vstore::datasets::{Dataset, LiveSource, LoadProfile, VideoSource};
use vstore::{
    BackendOptions, IngestRequest, LiveIngestOptions, QueryRequest, QuerySpec, QueueFullPolicy,
    ServeOptions, ServeRequest, ServeResponse, VStore, VStoreOptions,
};

fn mem_store(tag: &str) -> VStore {
    VStore::open_temp(tag, VStoreOptions::fast().with_backend(BackendOptions::Mem)).unwrap()
}

/// Options that never degrade (huge lag tolerance): live ingestion at
/// steady state must be indistinguishable from offline ingestion.
fn no_degradation() -> LiveIngestOptions {
    LiveIngestOptions::default()
        .with_workers(2)
        .with_queue_depth(8)
        .with_max_lag_segments(100_000)
}

/// Steady state: the same segments through `live_ingest` and through the
/// offline `ingest` path leave two identically configured stores in
/// identical states — same segment count, same live bytes, same write
/// count, same query answers.
#[test]
fn steady_state_live_ingest_matches_offline_ingest() {
    let query = QuerySpec::query_a(0.8);
    let consumers = query.consumers();
    let source = VideoSource::new(Dataset::Jackson);

    let offline = mem_store("live-parity-offline");
    offline.configure(&consumers).unwrap();
    offline
        .ingest(IngestRequest::new(&source).segments(3))
        .unwrap();

    let live = mem_store("live-parity-live");
    live.configure(&consumers).unwrap();
    let ingestor = live.live_ingest(source.clone(), no_degradation()).unwrap();
    let outcome = ingestor.offer_range(0..3).unwrap();
    assert_eq!(outcome.accepted, 3);
    assert_eq!(outcome.shed, 0);
    let stats = ingestor.shutdown();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.degraded_segments, 0, "steady state must not degrade");
    assert_eq!(stats.current_level, 0);

    // Identical store state, byte for byte.
    let a = offline.store_stats();
    let b = live.store_stats();
    assert_eq!(a.live_segments, b.live_segments);
    assert_eq!(a.live_bytes, b.live_bytes);
    assert_eq!(a.disk_bytes, b.disk_bytes);
    assert_eq!(a.writes, b.writes);

    // Identical query answers over the ingested range.
    let direct = offline
        .query(QueryRequest::new("jackson", &query).segments(3))
        .unwrap();
    let via_live = live
        .query(QueryRequest::new("jackson", &query).segments(3))
        .unwrap();
    assert_eq!(direct, via_live);
}

/// A burst no larger than `queue_depth` is absorbed whole: nothing shed,
/// nothing lost, the queue never exceeds its bound.
#[test]
fn burst_within_queue_depth_is_absorbed_without_shedding() {
    let store = mem_store("live-burst");
    store
        .configure(&QuerySpec::query_a(0.8).consumers())
        .unwrap();
    let ingestor = store
        .live_ingest(
            VideoSource::new(Dataset::Tucson),
            LiveIngestOptions::default()
                .with_workers(1)
                .with_queue_depth(6)
                .with_max_lag_segments(100_000),
        )
        .unwrap();
    let outcome = ingestor.offer_range(0..6).unwrap();
    assert_eq!(outcome.accepted, 6, "burst == queue_depth must be absorbed");
    assert_eq!(outcome.shed, 0);
    let stats = ingestor.shutdown();
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.shed, 0);
    assert!(
        stats.peak_queue_depth <= 6,
        "bounded queue exceeded its capacity: {stats:?}"
    );
}

/// Under `QueueFullPolicy::Reject` a full queue sheds instead of blocking
/// the source, and every offered segment is accounted as exactly one of
/// accepted or shed.
#[test]
fn reject_policy_sheds_with_exact_accounting() {
    let store = mem_store("live-shed");
    store
        .configure(&QuerySpec::query_a(0.8).consumers())
        .unwrap();
    let ingestor = store
        .live_ingest(
            VideoSource::new(Dataset::Park),
            LiveIngestOptions::sequential().with_on_full(QueueFullPolicy::Reject),
        )
        .unwrap();
    let outcome = ingestor.offer_range(0..8).unwrap();
    assert_eq!(outcome.accepted + outcome.shed, 8);
    assert!(
        outcome.shed > 0,
        "a queue of 1 cannot absorb an 8-segment burst"
    );
    let stats = ingestor.shutdown();
    assert_eq!(stats.offered, 8);
    assert_eq!(stats.shed, outcome.shed);
    assert_eq!(stats.accepted, outcome.accepted);
    assert_eq!(stats.completed, outcome.accepted, "accepted segments drain");
    assert_eq!(stats.failed, 0);
    assert!(stats.shed > 0);
}

/// Graceful shutdown drains the backlog: zero accepted segments are lost,
/// even when shutdown begins while the queue is full.
#[test]
fn shutdown_drains_every_accepted_segment() {
    let store = mem_store("live-drain");
    store
        .configure(&QuerySpec::query_a(0.8).consumers())
        .unwrap();
    let ingestor = store
        .live_ingest(
            VideoSource::new(Dataset::Jackson),
            LiveIngestOptions::default()
                .with_workers(2)
                .with_queue_depth(16)
                .with_max_lag_segments(100_000),
        )
        .unwrap();
    let outcome = ingestor.offer_range(0..5).unwrap();
    assert_eq!(outcome.accepted, 5);
    // No wait_idle: shutdown itself must drain.
    let stats = ingestor.shutdown();
    assert_eq!(stats.completed, 5, "shutdown lost accepted segments");
    assert_eq!(stats.queue_depth, 0);
    assert!(store.store_stats().live_segments > 0);
}

/// The acceptance scenario: a deterministic 2x-overload burst from the
/// camera simulator. The ingestor never blocks the source (Reject policy),
/// steps down at least one degradation level under the backlog, recovers
/// to full fidelity once the burst clears, and the whole episode is
/// visible in the metrics snapshot — non-zero lag histogram, non-zero
/// degradation transitions.
#[test]
fn overload_burst_degrades_then_recovers_to_full_fidelity() {
    let store = mem_store("live-overload");
    store
        .configure(&QuerySpec::query_a(0.8).consumers())
        .unwrap();

    // A camera with a 2x burst for the first half of a 12-second period:
    // 1 segment/s during the burst, 0.5 after — 6 segments land at once at
    // the end of the burst window against a single transcode worker.
    let mut camera = LiveSource::new(
        VideoSource::new(Dataset::Jackson),
        LoadProfile::Bursty {
            base_segments_per_sec: 0.5,
            burst_multiplier: 2.0,
            period_seconds: 12.0,
            burst_fraction: 0.5,
        },
    )
    .unwrap();

    let ingestor = store
        .live_ingest(
            camera.source().clone(),
            LiveIngestOptions::default()
                .with_workers(1)
                .with_queue_depth(32)
                .with_on_full(QueueFullPolicy::Reject)
                .with_max_lag_segments(2),
        )
        .unwrap();

    // The burst window: 6 segments due by t=6, offered back to back — far
    // faster than one worker can transcode, so the backlog crosses the
    // 2-segment lag threshold and the ladder steps down.
    let burst = camera.poll(6.0);
    assert_eq!(burst, 0..6);
    let outcome = ingestor.offer_range(burst).unwrap();
    assert_eq!(
        outcome.accepted, 6,
        "queue_depth 32 must absorb the whole burst"
    );
    let mid = ingestor.stats();
    assert!(
        mid.step_downs >= 1,
        "2x overload must step down at least one level: {mid:?}"
    );

    // The burst clears: draining the backlog must walk the ladder back up
    // to full fidelity.
    ingestor.wait_idle();
    let after = ingestor.stats();
    assert_eq!(
        after.current_level, 0,
        "recovery to full fidelity after the burst: {after:?}"
    );
    assert!(after.step_ups >= 1, "recovery must be a counted step-up");
    assert_eq!(after.completed, 6);
    assert!(after.degraded_segments >= 1);
    assert!(
        after.degraded_segments < 6,
        "the first segments pre-date the backlog"
    );

    // Post-burst trickle at the base rate ingests at full fidelity.
    let trickle = camera.poll(12.0);
    assert_eq!(trickle, 6..9);
    for segment in trickle {
        assert!(ingestor.offer(segment).unwrap());
        ingestor.wait_idle();
    }
    let fin = ingestor.stats();
    assert_eq!(fin.current_level, 0);
    assert_eq!(fin.completed, 9);

    // The whole episode is visible in the store's metrics snapshot.
    let snapshot = store.metrics_snapshot();
    assert!(
        snapshot.value("vstore_live_lag_us") >= Some(9.0),
        "lag histogram populated: {snapshot}"
    );
    assert!(snapshot.value("vstore_live_step_downs_total") >= Some(1.0));
    assert!(snapshot.value("vstore_live_step_ups_total") >= Some(1.0));

    // ... and survives the ingestor: a shut-down ingestor is retired into
    // the snapshot with its history intact and its capacity zeroed.
    drop(ingestor);
    let retired = store.metrics_snapshot();
    assert_eq!(retired.value("vstore_live_completed_total"), Some(9.0));
    assert_eq!(retired.value("vstore_live_workers"), Some(0.0));
    assert_eq!(retired.value("vstore_live_queue_capacity"), Some(0.0));
    assert_eq!(store.metrics_snapshot(), retired);
}

/// Live statistics travel over the serve wire: a `LiveStats` request
/// through the front end answers with the same aggregate the handle
/// reports directly.
#[test]
fn live_stats_travel_over_the_serve_wire() {
    let store = mem_store("live-wire");
    store
        .configure(&QuerySpec::query_a(0.8).consumers())
        .unwrap();
    let ingestor = store
        .live_ingest(VideoSource::new(Dataset::Park), no_degradation())
        .unwrap();
    ingestor.offer_range(0..2).unwrap();
    let stats = ingestor.shutdown();
    assert_eq!(stats.completed, 2);

    let server = store
        .serve(ServeOptions::default().with_workers(2))
        .unwrap();
    let mut client = server.connect();
    let direct = store.live_stats().expect("live stats exist");
    let served = client.call(ServeRequest::LiveStats).unwrap();
    assert_eq!(served, ServeResponse::LiveStats(Box::new(direct)));
    match served {
        ServeResponse::LiveStats(live) => {
            assert_eq!(live.completed, 2);
            assert!(live.lag.count() >= 2);
            assert_eq!(live.per_source.get("park"), Some(&2));
        }
        other => panic!("expected live stats, got {other:?}"),
    }
}
