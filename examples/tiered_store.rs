//! Tiered cold storage: erosion that demotes instead of deletes.
//!
//! Opens a store with a cold tier configured, ingests a stream, applies an
//! erosion step that would previously have deleted segments — and shows
//! them demoted to the cold tier instead, then promoted back by a query
//! that returns byte-identical results while counting its cold hits.
//!
//! Run with `cargo run --example tiered_store`.

#![expect(clippy::disallowed_methods, reason = "removes its scratch store")]

use std::collections::BTreeMap;
use vstore::datasets::{Dataset, VideoSource};
use vstore::{
    BackendOptions, ErodeRequest, IngestRequest, QueryRequest, QuerySpec, VStore, VStoreOptions,
};
use vstore_types::{ErosionStep, FormatId, Fraction};

fn main() -> vstore::Result<()> {
    // An in-memory hot store with an in-memory cold tier and the two-tier
    // segment cache on: everything the tiering subsystem touches.
    let store = VStore::open_temp(
        "tiered-example",
        VStoreOptions::fast()
            .with_backend(BackendOptions::Mem)
            .with_cache(64 << 20, 64)
            .with_cold_backend(BackendOptions::Mem),
    )?;

    let query = QuerySpec::query_a(0.8);
    let mut config = (*store.configure(&query.consumers())?).clone();
    // Make age 1 erode every non-golden format, so one erode call shows the
    // whole demote → promote cycle.
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
    store.ingest(IngestRequest::new(&source).segments(4))?;
    let fresh = store.query(QueryRequest::new("jackson", &query).segments(4))?;
    println!(
        "fresh query: {} positives at {}",
        fresh.positive_frames.len(),
        fresh.speed
    );

    // Erode: with a cold tier configured this demotes instead of deleting.
    let report = store.erode(ErodeRequest::new("jackson").at_age_days(1))?;
    println!("{report}");
    let stats = store.tier_stats().expect("cold tier configured");
    println!(
        "after erode: {} segments cold ({} hot bytes, {} cold bytes)",
        stats.cold_segments, stats.hot_resident_bytes, stats.cold_resident_bytes
    );

    // Query the aged stream: cold hits flow through the SegmentReader,
    // promote the segments back hot, and the results are byte-identical.
    let aged = store.query(QueryRequest::new("jackson", &query).segments(4))?;
    assert_eq!(fresh, aged, "cold round trip must not change results");
    let cold_hits = store.tier_stats().expect("cold tier configured").cold_hits;
    let cache = store.cache_stats();
    println!(
        "aged query identical; reads: {cold_hits} cold hits, {} store reads, {} cache hits",
        store.store_stats().reads,
        cache.decoded_hits,
    );

    let report = store.metrics_snapshot().to_string();
    println!();
    for line in report.lines().filter(|l| l.starts_with("vstore_tier_")) {
        println!("{line}");
    }
    std::fs::remove_dir_all(store.store_dir()).ok();
    Ok(())
}
