//! Live-camera demo: a simulated diurnal camera streaming into the store
//! through the back-pressured live ingestor.
//!
//! One virtual "day" of the `park` stream plays at 10x real time against a
//! single transcode worker with a tight lag budget: the midday peak outruns
//! the worker, the degradation ladder steps fidelity down instead of letting
//! the backlog grow without bound, and the night trough walks it back up to
//! full fidelity. The footage then answers a query like any offline ingest,
//! and the episode — lag histogram, degradation transitions — shows up in
//! the `vstore_live_*` rows of the store's metrics snapshot.
//!
//! ```sh
//! cargo run --release --example live_camera
//! ```

#![expect(clippy::disallowed_methods, reason = "removes its scratch store")]

use vstore::datasets::{Dataset, LiveSource, LoadProfile, VideoSource};
use vstore::{
    BackendOptions, LiveIngestOptions, QueryRequest, QuerySpec, QueueFullPolicy, VStore,
    VStoreOptions,
};

fn main() {
    let store = VStore::open_temp(
        "live-camera-demo",
        VStoreOptions::fast().with_backend(BackendOptions::Mem),
    )
    .expect("open store");
    let query = QuerySpec::query_a(0.8);
    store.configure(&query.consumers()).expect("configure");

    // One 60-virtual-second "day": the offered rate peaks at 0.9 seg/s
    // around midday and bottoms out at 0.1 seg/s at night. The schedule is
    // a closed-form integral of the clock — no RNG — so every run offers
    // the same segments at the same virtual instants.
    let mut camera = LiveSource::new(
        VideoSource::new(Dataset::Park),
        LoadProfile::Diurnal {
            mean_segments_per_sec: 0.5,
            swing: 0.8,
            period_seconds: 60.0,
        },
    )
    .expect("camera");

    // One transcode worker with a 2-segment lag budget: the midday peak
    // overruns it, so the ladder degrades rather than stalls the camera.
    let ingestor = store
        .live_ingest(
            camera.source().clone(),
            LiveIngestOptions::default()
                .with_workers(1)
                .with_queue_depth(16)
                .with_on_full(QueueFullPolicy::Block)
                .with_max_lag_segments(2),
        )
        .expect("live ingest");

    // Play the day at 10x: each tick advances the camera 5 virtual seconds
    // and sleeps 0.5 real seconds, so the worker races the diurnal swing.
    let mut t = 0.0f64;
    while t < 60.0 {
        t += 5.0;
        let due = camera.poll(t);
        let outcome = ingestor.offer_range(due.clone()).expect("offer");
        let stats = ingestor.stats();
        println!(
            "t={t:>4.0}s  offered {:>2} (segments {due:?})  queue {:>2}  \
             level {}/{}  completed {:>2}",
            outcome.accepted + outcome.shed,
            stats.queue_depth,
            stats.current_level,
            stats.max_level,
            stats.completed,
        );
        std::thread::sleep(std::time::Duration::from_millis(500));
    }

    // The night shift: drain the backlog, then retire the camera.
    ingestor.wait_idle();
    let stats = ingestor.shutdown();
    let report = store.metrics_snapshot().to_string();
    println!("\nlive rows of the metrics snapshot:");
    for line in report.lines().filter(|l| l.starts_with("vstore_live_")) {
        println!("{line}");
    }
    println!();

    // The day's footage answers queries like any offline ingest — for the
    // ranges stored at full fidelity. Midday segments transcoded below full
    // fidelity cannot serve the query's subscribed consumption format; that
    // is the cost the ladder paid to absorb the peak, and it surfaces as a
    // typed `FidelityUnsatisfiable`, never silently degraded answers.
    let last = stats.completed.saturating_sub(2);
    match store.query(
        QueryRequest::new("park", &query)
            .starting_at(last)
            .segments(2),
    ) {
        Ok(result) => println!(
            "query A @ F1≥{} over segments {last}..{}: speed {}, \
             {} positive frames, cascade selectivity {:.0}%",
            query.accuracy,
            last + 2,
            result.speed,
            result.positive_frames.len(),
            result.selectivity() * 100.0
        ),
        Err(e) => println!("query over a degraded range: {e}"),
    }
    std::fs::remove_dir_all(store.store_dir()).ok();
}
