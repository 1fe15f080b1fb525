//! Facade-side observability wiring: the collectors that map every stats
//! source into the store's [`MetricsRegistry`](vstore_obs::MetricsRegistry).
//! [`MetricsSnapshot`](vstore_obs::MetricsSnapshot) is the store's only
//! stats rendering: its `Display` is the operator report, and the bench,
//! the serve wire and Prometheus read the same rows. The typed component
//! getters (`store_stats`, `shard_stats`, `cache_stats`, …) stay for code
//! that asserts on one field. The serving, network and live-ingest rows
//! are written by their stats types (`ServeStats::collect_metrics`,
//! `NetStats::collect_metrics`, `LiveStats::collect_metrics`), which
//! render a multi-handle aggregate the same way wherever it is built.
//!
//! Ownership is deliberate. Component collectors (store, cache, tier,
//! profiler, tracer) capture their component `Arc` directly: the registry
//! lives *beside* those components in `VStoreInner` and none of them points
//! back at the inner, so no reference cycle can form. The serving, network
//! and live-ingest aggregates do live *inside* `VStoreInner`, so their
//! collectors hold a [`Weak`] handle and collect nothing once the store is
//! gone — a leaked boxed collector can never keep the store alive.

use crate::{VStore, VStoreInner};
use std::sync::{Arc, Weak};
use vstore_obs::Metric;
use vstore_storage::{CacheStats, StoreStats};
use vstore_types::sync::write_unpoisoned;

/// Register every stats source of a freshly assembled store into its
/// metrics registry. Called once from `VStore::assemble`, after the inner
/// `Arc` exists (the aggregate collectors need a `Weak` of it).
pub(crate) fn register_collectors(store: &VStore) {
    let inner = &store.inner;
    let registry = &inner.metrics;

    let segments = Arc::clone(&inner.store);
    registry.register(Box::new(move |out: &mut Vec<Metric>| {
        collect_store(&segments.stats(), out);
    }));

    let reader = Arc::clone(&inner.reader);
    registry.register(Box::new(move |out: &mut Vec<Metric>| {
        collect_cache(&reader.cache_stats(), out);
    }));

    if let Some(tier) = &inner.tier {
        let tier = Arc::clone(tier);
        registry.register(Box::new(move |out: &mut Vec<Metric>| {
            let t = tier.stats();
            out.push(Metric::gauge(
                "vstore_tier_hot_resident_bytes",
                "Live bytes resident in the hot store",
                t.hot_resident_bytes as f64,
            ));
            out.push(Metric::gauge(
                "vstore_tier_cold_resident_bytes",
                "Live bytes resident in the cold store",
                t.cold_resident_bytes as f64,
            ));
            out.push(Metric::gauge(
                "vstore_tier_cold_segments",
                "Segments held by the cold store",
                t.cold_segments as f64,
            ));
            out.push(Metric::counter(
                "vstore_tier_demotions_total",
                "Segments demoted hot to cold since open",
                t.demotions,
            ));
            out.push(Metric::counter(
                "vstore_tier_demoted_bytes_total",
                "Bytes demoted hot to cold since open",
                t.demoted_bytes,
            ));
            out.push(Metric::counter(
                "vstore_tier_promotions_total",
                "Segments promoted cold to hot since open",
                t.promotions,
            ));
            out.push(Metric::counter(
                "vstore_tier_promoted_bytes_total",
                "Bytes promoted cold to hot since open",
                t.promoted_bytes,
            ));
            out.push(Metric::counter(
                "vstore_tier_cold_hits_total",
                "Reads served by the cold tier",
                t.cold_hits,
            ));
            out.push(Metric::counter(
                "vstore_tier_cold_misses_total",
                "Hot misses that missed the cold tier too",
                t.cold_misses,
            ));
            out.push(Metric::counter(
                "vstore_tier_failed_demotions_total",
                "Demotions that failed (segment stayed hot)",
                t.failed_demotions,
            ));
            out.push(Metric::latency(
                "vstore_tier_cold_hit_latency_us",
                "Latency of cold-tier fetches (read + checksum + promote)",
                &t.cold_hit_latency,
            ));
        }));
    }

    let profiler = Arc::clone(&inner.profiler);
    registry.register(Box::new(move |out: &mut Vec<Metric>| {
        let p = profiler.stats();
        out.push(Metric::counter(
            "vstore_profiler_operator_runs_total",
            "Operator profiling runs executed (memo misses)",
            p.operator_runs as u64,
        ));
        out.push(Metric::counter(
            "vstore_profiler_operator_cache_hits_total",
            "Operator profiling requests served from the memo table",
            p.operator_cache_hits as u64,
        ));
        out.push(Metric::counter(
            "vstore_profiler_storage_runs_total",
            "Storage-format profiling runs executed (memo misses)",
            p.storage_runs as u64,
        ));
        out.push(Metric::counter(
            "vstore_profiler_storage_cache_hits_total",
            "Storage-format profiling requests served from the memo table",
            p.storage_cache_hits as u64,
        ));
        out.push(Metric::gauge(
            "vstore_profiler_modeled_seconds",
            "Modelled testbed wall-clock seconds spent profiling",
            p.modeled_seconds,
        ));
    }));

    let tracer = Arc::clone(&inner.tracer);
    registry.register(Box::new(move |out: &mut Vec<Metric>| {
        let t = tracer.stats();
        out.push(Metric::gauge(
            "vstore_trace_enabled",
            "Whether request tracing is enabled (1) or off (0)",
            if tracer.enabled() { 1.0 } else { 0.0 },
        ));
        out.push(Metric::counter(
            "vstore_trace_begun_total",
            "Traces begun (requests seen while tracing was enabled)",
            t.begun,
        ));
        out.push(Metric::counter(
            "vstore_trace_sampled_total",
            "Traces elected by head-sampling",
            t.sampled,
        ));
        out.push(Metric::counter(
            "vstore_trace_committed_total",
            "Traces committed to the rings (sampled or slow)",
            t.committed,
        ));
        out.push(Metric::counter(
            "vstore_trace_slow_total",
            "Committed traces that crossed the slow threshold",
            t.slow,
        ));
        out.push(Metric::counter(
            "vstore_trace_dropped_spans_total",
            "Spans evicted from the rings by capacity pressure",
            t.dropped_spans,
        ));
    }));

    let weak = Arc::downgrade(inner);
    registry.register(Box::new(move |out: &mut Vec<Metric>| {
        collect_aggregates(&weak, out);
    }));
}

/// The segment store's rows.
pub(crate) fn collect_store(s: &StoreStats, out: &mut Vec<Metric>) {
    out.push(Metric::gauge(
        "vstore_store_live_segments",
        "Live segments in the store",
        s.live_segments as f64,
    ));
    out.push(Metric::gauge(
        "vstore_store_live_bytes",
        "Bytes of live segment values",
        s.live_bytes as f64,
    ));
    out.push(Metric::gauge(
        "vstore_store_disk_bytes",
        "Bytes occupied on disk by all value logs (garbage included)",
        s.disk_bytes as f64,
    ));
    out.push(Metric::gauge(
        "vstore_store_log_files",
        "Value log files",
        s.log_files as f64,
    ));
    out.push(Metric::counter(
        "vstore_store_writes_total",
        "Records written since open (puts + deletes)",
        s.writes,
    ));
    out.push(Metric::counter(
        "vstore_store_reads_total",
        "Reads served since open",
        s.reads,
    ));
}

/// The view-cache rows, aggregated across shards.
pub(crate) fn collect_cache(c: &CacheStats, out: &mut Vec<Metric>) {
    out.push(Metric::counter(
        "vstore_cache_decoded_hits_total",
        "Reads served from the view cache",
        c.decoded_hits,
    ));
    out.push(Metric::counter(
        "vstore_cache_decoded_misses_total",
        "Reads that had to read and decode",
        c.decoded_misses,
    ));
    out.push(Metric::counter(
        "vstore_cache_decoded_evictions_total",
        "Views evicted to make room",
        c.decoded_evictions,
    ));
    out.push(Metric::gauge(
        "vstore_cache_decoded_entries",
        "Views resident in the cache",
        c.decoded_entries as f64,
    ));
    out.push(Metric::gauge(
        "vstore_cache_resident_bytes",
        "Plane bytes of the views resident in the cache",
        c.resident_bytes as f64,
    ));
    out.push(Metric::counter(
        "vstore_cache_invalidations_total",
        "Cached views dropped by writes (put / delete / erosion)",
        c.invalidations,
    ));
}

/// The serving / network / live-ingest aggregate rows. These registries
/// live inside `VStoreInner`, so the collector holds a `Weak` and goes
/// quiet once the store is dropped.
fn collect_aggregates(weak: &Weak<VStoreInner>, out: &mut Vec<Metric>) {
    let Some(inner) = weak.upgrade() else {
        return;
    };
    if let Some(s) = write_unpoisoned(&inner.serving).aggregate() {
        s.collect_metrics(out);
    }
    if let Some(n) = write_unpoisoned(&inner.net).aggregate() {
        n.collect_metrics(out);
    }
    let live = write_unpoisoned(&inner.live).aggregate();
    if let Some(l) = live {
        l.collect_metrics(out);
    }
}

#[cfg(test)]
mod tests {
    use crate::{BackendOptions, RuntimeOptions, VStore, VStoreOptions};
    use vstore_obs::json;

    /// A fresh store's snapshot carries the store/cache/profiler/tracer
    /// families and both renderings are well-formed.
    #[test]
    fn metrics_snapshot_covers_component_families() {
        let store = VStore::open_temp(
            "metrics-families",
            VStoreOptions::fast()
                .with_backend(BackendOptions::Mem)
                .with_runtime(RuntimeOptions::sequential()),
        )
        .unwrap();
        let snapshot = store.metrics_snapshot();
        for family in [
            "vstore_store_live_segments",
            "vstore_store_writes_total",
            "vstore_cache_decoded_hits_total",
            "vstore_cache_resident_bytes",
            "vstore_profiler_operator_runs_total",
            "vstore_trace_enabled",
        ] {
            assert!(snapshot.get(family).is_some(), "missing {family}");
        }
        assert_eq!(json::validate(&snapshot.to_json()), Ok(()));
        assert!(snapshot
            .to_prometheus()
            .contains("# TYPE vstore_store_writes_total counter"));
    }
}
