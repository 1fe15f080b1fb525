//! Observability for vstore: per-request tracing and the unified metrics
//! registry.
//!
//! Two pillars, both designed to cost nothing when unused:
//!
//! - **Request tracing** ([`trace`]): a [`Tracer`] hands out
//!   [`TraceContext`]s at the request boundary (socket frame decode, or
//!   the facade builders for in-process calls). The context is cloned
//!   along the request's path — serve queue, worker, query/ingest
//!   engines, storage read tiers — and every layer opens RAII
//!   [`SpanGuard`]s against it. When the last clone drops, the finished
//!   trace commits into a sharded bounded ring if it was head-sampled
//!   ([`TraceOptions::sample_per_1k`]) *or* slower than
//!   [`TraceOptions::slow_threshold_us`] (slow requests are always
//!   captured). [`Tracer::dump`] exports the rings as a [`TraceDump`] —
//!   renderable as Chrome trace-event JSON
//!   ([`TraceDump::to_chrome_json`]) or a human span-tree report
//!   ([`TraceDump::report`]). Tracing defaults **off**: a disabled
//!   tracer's `begin` is one relaxed atomic load, and span sites on the
//!   resulting inert context are a `None` check.
//!
//! - **Metrics** ([`metrics`]): every stats source implements
//!   [`Collector`] and registers into one [`MetricsRegistry`];
//!   [`MetricsRegistry::snapshot`] materializes typed
//!   counter/gauge/histogram families as a [`MetricsSnapshot`],
//!   renderable as Prometheus-style text exposition
//!   ([`MetricsSnapshot::to_prometheus`]) or JSON
//!   ([`MetricsSnapshot::to_json`]).
//!
//! The [`json`] module is the shared hand-rolled JSON writer (and a
//! minimal validator for tests) both surfaces render through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

pub mod json;
pub mod metrics;
pub mod trace;

pub use metrics::{
    Collector, HistogramSnapshot, Metric, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{
    current, install, SpanGuard, TraceContext, TraceDump, TraceOptions, TraceRecord, TraceSpan,
    TraceStats, Tracer,
};
