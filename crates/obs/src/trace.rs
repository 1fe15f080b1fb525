//! Per-request tracing: contexts, RAII span guards, sharded trace rings.
//!
//! # Life of a trace
//!
//! 1. The request boundary calls [`Tracer::begin`]. A disabled tracer
//!    answers with an inert [`TraceContext`] after **one relaxed atomic
//!    load** — the entire cost of the subsystem when tracing is off.
//!    An enabled tracer allocates a trace id and takes the head-sampling
//!    decision ([`TraceOptions::sample_per_1k`]).
//! 2. The context is cloned along with the request (into the serve
//!    queue's job, across worker threads, into prefetch closures — clones
//!    are explicit, so they survive thread hops that thread-locals do
//!    not). Each layer opens [`TraceContext::span`] guards; dropping the
//!    guard records the timed span. [`install`]/[`current`] carry the
//!    context across call boundaries *within* a thread.
//! 3. When the last clone drops, the trace is finished: if it was
//!    sampled, or its end-to-end duration reached
//!    [`TraceOptions::slow_threshold_us`] (slow requests are always
//!    captured), the finished spans commit into one of the tracer's
//!    sharded bounded rings, evicting oldest traces beyond
//!    [`TraceOptions::ring_spans`] spans per shard.
//! 4. [`Tracer::dump`] snapshots the rings into a [`TraceDump`] —
//!    exportable as Chrome trace-event JSON or a human span-tree report.
//!
//! All timestamps come from monotonic [`Instant`]s, exported as
//! microseconds relative to the tracer's construction epoch.

use crate::json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vstore_types::sync::lock_unpoisoned;
use vstore_types::{Result, VStoreError};

/// Ring shards; trace ids spread across them so committing threads
/// rarely contend on the same lock.
const RING_SHARDS: usize = 8;

/// Tracing knobs, validated at store open like the other option structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOptions {
    /// Master switch. Off by default; when off the tracer never allocates
    /// and every span site is a no-op behind one relaxed atomic load.
    pub enabled: bool,
    /// Head-sampling rate: how many requests per thousand get their trace
    /// committed regardless of latency. 1000 traces everything, 0 traces
    /// only slow requests.
    pub sample_per_1k: u32,
    /// Bound on buffered spans **per ring shard** (there are a fixed
    /// handful of shards); oldest traces are evicted beyond it.
    pub ring_spans: usize,
    /// Requests at least this slow are always captured, sampled or not.
    pub slow_threshold_us: u64,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            enabled: false,
            sample_per_1k: 10,
            ring_spans: 4096,
            slow_threshold_us: 50_000,
        }
    }
}

impl TraceOptions {
    /// Enable tracing with the default sampling knobs.
    #[must_use]
    pub fn enabled() -> Self {
        TraceOptions {
            enabled: true,
            ..TraceOptions::default()
        }
    }

    /// Set the head-sampling rate (per 1000 requests; 1000 = all).
    #[must_use]
    pub fn with_sample_per_1k(mut self, sample_per_1k: u32) -> Self {
        self.sample_per_1k = sample_per_1k;
        self
    }

    /// Set the per-shard buffered-span bound.
    #[must_use]
    pub fn with_ring_spans(mut self, ring_spans: usize) -> Self {
        self.ring_spans = ring_spans;
        self
    }

    /// Set the always-capture latency threshold in microseconds.
    #[must_use]
    pub fn with_slow_threshold_us(mut self, slow_threshold_us: u64) -> Self {
        self.slow_threshold_us = slow_threshold_us;
        self
    }

    /// Reject option combinations that cannot work.
    pub fn validate(&self) -> Result<()> {
        if self.sample_per_1k > 1000 {
            return Err(VStoreError::invalid_argument(
                "TraceOptions::sample_per_1k is a per-mille rate; at most 1000",
            ));
        }
        if self.enabled && self.ring_spans == 0 {
            return Err(VStoreError::invalid_argument(
                "TraceOptions::ring_spans must be at least 1 when tracing is enabled",
            ));
        }
        Ok(())
    }
}

/// One finished, timed span as recorded in a trace ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Span site name, e.g. `net.decode` or `read.disk`.
    pub name: String,
    /// Free-form detail (stream name, operator, …); empty when none.
    pub detail: String,
    /// Start offset in µs **relative to the trace's start**.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Small dense id of the recording thread.
    pub tid: u64,
}

impl TraceSpan {
    /// End offset in µs relative to the trace's start.
    #[must_use]
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }
}

/// One committed trace: the request's spans plus its head/tail metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Unique (per tracer) trace id.
    pub trace_id: u64,
    /// Root operation name (the request kind at the boundary).
    pub root: String,
    /// Trace start in µs since the tracer's epoch.
    pub start_us: u64,
    /// End-to-end duration in µs (creation to last context drop).
    pub dur_us: u64,
    /// Whether head-sampling elected this trace.
    pub sampled: bool,
    /// Whether the trace crossed the slow threshold (always captured).
    pub slow: bool,
    /// The recorded spans, in completion order.
    pub spans: Vec<TraceSpan>,
}

impl TraceRecord {
    /// The spans as a containment tree: `(depth, span)` rows in start
    /// order, where a span nests under the nearest earlier span whose
    /// `[start, end]` window contains it. Depth 0 rows are top-level.
    pub fn span_tree(&self) -> Vec<(usize, &TraceSpan)> {
        let mut ordered: Vec<&TraceSpan> = self.spans.iter().collect();
        // Start ascending; wider first on ties so parents precede children.
        ordered.sort_by(|a, b| a.start_us.cmp(&b.start_us).then(b.dur_us.cmp(&a.dur_us)));
        let mut rows = Vec::with_capacity(ordered.len());
        let mut stack: Vec<&TraceSpan> = Vec::new();
        for span in ordered {
            while let Some(top) = stack.last() {
                if span.start_us >= top.start_us && span.end_us() <= top.end_us() {
                    break;
                }
                stack.pop();
            }
            rows.push((stack.len(), span));
            stack.push(span);
        }
        rows
    }
}

impl std::fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tags = match (self.sampled, self.slow) {
            (_, true) => " [slow]",
            (true, false) => "",
            (false, false) => " [unsampled]",
        };
        writeln!(
            f,
            "trace {:#018x} {} — {} µs{tags}",
            self.trace_id, self.root, self.dur_us
        )?;
        for (depth, span) in self.span_tree() {
            write!(
                f,
                "  {:indent$}{} {} µs (at +{} µs)",
                "",
                span.name,
                span.dur_us,
                span.start_us,
                indent = depth * 2
            )?;
            if span.detail.is_empty() {
                writeln!(f)?;
            } else {
                writeln!(f, " — {}", span.detail)?;
            }
        }
        Ok(())
    }
}

/// A snapshot of a tracer's rings, exportable over the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceDump {
    /// Committed traces, oldest first.
    pub records: Vec<TraceRecord>,
    /// Spans evicted from the rings since the tracer started (capacity
    /// pressure, not sampling).
    pub dropped_spans: u64,
}

impl TraceDump {
    /// The slowest committed trace, if any.
    #[must_use]
    pub fn slowest(&self) -> Option<&TraceRecord> {
        self.records.iter().max_by_key(|r| r.dur_us)
    }

    /// Render as Chrome trace-event JSON (the `chrome://tracing` /
    /// Perfetto "JSON Array Format"): one complete (`ph:"X"`) event per
    /// span plus one per trace for the root, timestamps in µs since the
    /// tracer epoch.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        let push_event = |out: &mut String,
                          first: &mut bool,
                          name: &str,
                          ts: u64,
                          dur: u64,
                          tid: u64,
                          trace_id: u64,
                          detail: &str| {
            if !*first {
                out.push_str(",\n ");
            }
            *first = false;
            out.push('{');
            json::push_key(out, "name");
            json::push_string(out, name);
            out.push_str(", ");
            json::push_key(out, "cat");
            json::push_string(out, "vstore");
            out.push_str(", \"ph\": \"X\", ");
            json::push_key(out, "ts");
            out.push_str(&ts.to_string());
            out.push_str(", ");
            json::push_key(out, "dur");
            out.push_str(&dur.to_string());
            out.push_str(", \"pid\": 1, ");
            json::push_key(out, "tid");
            out.push_str(&tid.to_string());
            out.push_str(", ");
            json::push_key(out, "args");
            out.push('{');
            json::push_key(out, "trace_id");
            out.push_str(&trace_id.to_string());
            if !detail.is_empty() {
                out.push_str(", ");
                json::push_key(out, "detail");
                json::push_string(out, detail);
            }
            out.push_str("}}");
        };
        for record in &self.records {
            push_event(
                &mut out,
                &mut first,
                &record.root,
                record.start_us,
                record.dur_us,
                0,
                record.trace_id,
                if record.slow { "slow" } else { "" },
            );
            for span in &record.spans {
                push_event(
                    &mut out,
                    &mut first,
                    &span.name,
                    record.start_us.saturating_add(span.start_us),
                    span.dur_us,
                    span.tid,
                    record.trace_id,
                    &span.detail,
                );
            }
        }
        out.push(']');
        out
    }

    /// Render the human report: every trace's span tree, slowest last.
    #[must_use]
    pub fn report(&self) -> String {
        let mut ordered: Vec<&TraceRecord> = self.records.iter().collect();
        ordered.sort_by_key(|r| r.dur_us);
        let mut out = format!(
            "trace dump: {} traces, {} spans dropped\n",
            self.records.len(),
            self.dropped_spans
        );
        for record in ordered {
            out.push_str(&record.to_string());
        }
        out
    }
}

/// Counters describing a tracer's work so far (all relaxed reads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Traces begun (requests seen while enabled).
    pub begun: u64,
    /// Traces elected by head-sampling.
    pub sampled: u64,
    /// Traces committed to the rings (sampled or slow).
    pub committed: u64,
    /// Of the committed traces, how many crossed the slow threshold.
    pub slow: u64,
    /// Spans evicted from the rings by capacity pressure.
    pub dropped_spans: u64,
}

/// One ring shard: committed traces plus their total span count.
#[derive(Default)]
#[expect(
    clippy::disallowed_types,
    reason = "a ring that evicts its oldest trace, not a queue anything waits on"
)]
struct RingShard {
    traces: std::collections::VecDeque<TraceRecord>,
    spans: usize,
}

/// The tracer: hands out [`TraceContext`]s and owns the trace rings.
///
/// One per store (not global), shared as an `Arc` by every layer that
/// begins traces. Constructed disabled by [`Tracer::off`] or from
/// [`TraceOptions`] by [`Tracer::new`].
pub struct Tracer {
    enabled: AtomicBool,
    options: TraceOptions,
    epoch: Instant,
    next_id: AtomicU64,
    sample_counter: AtomicU64,
    begun: AtomicU64,
    sampled: AtomicU64,
    committed: AtomicU64,
    slow: AtomicU64,
    dropped_spans: AtomicU64,
    shards: Vec<Mutex<RingShard>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("options", &self.options)
            .finish()
    }
}

impl Tracer {
    /// A tracer configured by `options` (which may be disabled).
    #[must_use]
    pub fn new(options: TraceOptions) -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled: AtomicBool::new(options.enabled),
            options,
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            sample_counter: AtomicU64::new(0),
            begun: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            dropped_spans: AtomicU64::new(0),
            shards: (0..RING_SHARDS).map(|_| Mutex::default()).collect(),
        })
    }

    /// The no-op tracer: never samples, never allocates.
    #[must_use]
    pub fn off() -> Arc<Tracer> {
        Tracer::new(TraceOptions::default())
    }

    /// Whether tracing is on — one relaxed atomic load, the entire
    /// fast-path cost of a span site at the request boundary.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The options this tracer was built with.
    #[must_use]
    pub fn options(&self) -> TraceOptions {
        self.options
    }

    /// Begin a trace rooted at `root` (the request kind). Returns an
    /// inert context when tracing is disabled.
    #[must_use]
    pub fn begin(self: &Arc<Self>, root: &'static str) -> TraceContext {
        if !self.enabled() {
            return TraceContext::disabled();
        }
        self.begun.fetch_add(1, Ordering::Relaxed);
        let n = self.sample_counter.fetch_add(1, Ordering::Relaxed);
        let sampled = n % 1000 < u64::from(self.options.sample_per_1k);
        if sampled {
            self.sampled.fetch_add(1, Ordering::Relaxed);
        }
        let now = Instant::now();
        TraceContext {
            inner: Some(Arc::new(ActiveTrace {
                tracer: Arc::clone(self),
                trace_id: self.next_id.fetch_add(1, Ordering::Relaxed) + 1,
                root: Mutex::new(root),
                sampled,
                started: now,
                start_us: instant_us(self.epoch, now),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Counters describing the tracer's work so far.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            begun: self.begun.load(Ordering::Relaxed),
            sampled: self.sampled.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            slow: self.slow.load(Ordering::Relaxed),
            dropped_spans: self.dropped_spans.load(Ordering::Relaxed),
        }
    }

    /// Snapshot up to `max_traces` of the most recent committed traces
    /// (0 = all), oldest first.
    #[must_use]
    pub fn dump(&self, max_traces: usize) -> TraceDump {
        let mut records = Vec::new();
        for shard in &self.shards {
            records.extend(lock_unpoisoned(shard).traces.iter().cloned());
        }
        records.sort_by_key(|r| (r.start_us, r.trace_id));
        if max_traces > 0 && records.len() > max_traces {
            records.drain(..records.len() - max_traces);
        }
        TraceDump {
            records,
            dropped_spans: self.dropped_spans.load(Ordering::Relaxed),
        }
    }

    /// Commit one finished trace into its ring shard, evicting oldest
    /// traces past the per-shard span bound.
    fn commit(&self, record: TraceRecord) {
        self.committed.fetch_add(1, Ordering::Relaxed);
        if record.slow {
            self.slow.fetch_add(1, Ordering::Relaxed);
        }
        let cap = self.options.ring_spans.max(1);
        let mut shard =
            lock_unpoisoned(&self.shards[(record.trace_id as usize) % self.shards.len()]);
        shard.spans += record.spans.len().max(1);
        shard.traces.push_back(record);
        while shard.spans > cap && shard.traces.len() > 1 {
            if let Some(evicted) = shard.traces.pop_front() {
                let spans = evicted.spans.len().max(1);
                shard.spans -= spans;
                self.dropped_spans
                    .fetch_add(spans as u64, Ordering::Relaxed);
            }
        }
    }
}

/// µs between two instants, saturating (0 when `later` precedes `epoch`).
fn instant_us(epoch: Instant, later: Instant) -> u64 {
    u64::try_from(later.saturating_duration_since(epoch).as_micros()).unwrap_or(u64::MAX)
}

/// The live state behind an active trace's contexts. Dropping the last
/// clone finishes the trace and commits it when sampled or slow.
struct ActiveTrace {
    tracer: Arc<Tracer>,
    trace_id: u64,
    root: Mutex<&'static str>,
    sampled: bool,
    started: Instant,
    start_us: u64,
    spans: Mutex<Vec<TraceSpan>>,
}

impl Drop for ActiveTrace {
    fn drop(&mut self) {
        let dur_us = instant_us(self.started, Instant::now());
        let slow = dur_us >= self.tracer.options.slow_threshold_us;
        if !self.sampled && !slow {
            return;
        }
        let spans = std::mem::take(&mut *lock_unpoisoned(&self.spans));
        let record = TraceRecord {
            trace_id: self.trace_id,
            root: (*lock_unpoisoned(&self.root)).to_owned(),
            start_us: self.start_us,
            dur_us,
            sampled: self.sampled,
            slow,
            spans,
        };
        let tracer = Arc::clone(&self.tracer);
        tracer.commit(record);
    }
}

/// A cloneable handle to one request's trace. Inert (all methods no-ops)
/// when the request is untraced; clone it explicitly across thread hops.
#[derive(Clone, Default)]
pub struct TraceContext {
    inner: Option<Arc<ActiveTrace>>,
}

impl std::fmt::Debug for TraceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceContext")
            .field("trace_id", &self.trace_id())
            .finish()
    }
}

impl TraceContext {
    /// The inert context: every span call is a `None` check.
    #[must_use]
    pub fn disabled() -> TraceContext {
        TraceContext { inner: None }
    }

    /// Whether this context records anything.
    #[inline]
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id, when active.
    #[must_use]
    pub fn trace_id(&self) -> Option<u64> {
        self.inner.as_ref().map(|t| t.trace_id)
    }

    /// Rename the trace root once the request kind is known (the socket
    /// path begins the trace before the frame is decoded).
    pub fn set_root(&self, root: &'static str) {
        if let Some(trace) = &self.inner {
            *lock_unpoisoned(&trace.root) = root;
        }
    }

    /// Open a timed span; it records when the guard drops.
    #[must_use = "a span measures until its guard drops; binding it to `_` drops it immediately"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard {
            trace: self.inner.clone(),
            name,
            detail: None,
            begun: self.inner.as_ref().map(|_| Instant::now()),
        }
    }

    /// Open a timed span with a detail string; `detail` is only invoked
    /// when the trace is active, so the untraced path never allocates.
    #[must_use = "a span measures until its guard drops; binding it to `_` drops it immediately"]
    pub fn span_with(&self, name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
        SpanGuard {
            detail: self.inner.as_ref().map(|_| detail()),
            trace: self.inner.clone(),
            name,
            begun: self.inner.as_ref().map(|_| Instant::now()),
        }
    }

    /// Record an already-elapsed span that started at `start` and ends
    /// now — for intervals whose start predates the calling frame, like
    /// queue wait.
    pub fn record_since(&self, name: &'static str, start: Instant) {
        if let Some(trace) = &self.inner {
            let now = Instant::now();
            push_span(trace, name, String::new(), start, instant_us(start, now));
        }
    }
}

/// Append one finished span to an active trace.
fn push_span(trace: &Arc<ActiveTrace>, name: &str, detail: String, start: Instant, dur_us: u64) {
    let span = TraceSpan {
        name: name.to_owned(),
        detail,
        start_us: instant_us(trace.started, start),
        dur_us,
        tid: current_tid(),
    };
    lock_unpoisoned(&trace.spans).push(span);
}

/// RAII span: times from creation to drop and records into the trace.
#[must_use = "a span measures until its guard drops; binding it to `_` drops it immediately"]
pub struct SpanGuard {
    trace: Option<Arc<ActiveTrace>>,
    name: &'static str,
    detail: Option<String>,
    begun: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let (Some(trace), Some(begun)) = (self.trace.take(), self.begun) {
            let dur_us = instant_us(begun, Instant::now());
            push_span(
                &trace,
                self.name,
                self.detail.take().unwrap_or_default(),
                begun,
                dur_us,
            );
        }
    }
}

/// Small dense per-thread id for trace spans (first use numbers the
/// thread; ids are stable for the thread's lifetime).
fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|tid| *tid)
}

thread_local! {
    /// The context installed for the thread's current request, if any.
    static CURRENT: RefCell<TraceContext> = RefCell::new(TraceContext::disabled());
}

/// The context installed on this thread (inert when none): how layers
/// that are *called by* a traced request pick up its trace without
/// signature changes. Clone the result into closures that hop threads.
#[must_use]
pub fn current() -> TraceContext {
    CURRENT.with(|current| current.borrow().clone())
}

/// Install `context` as this thread's current context until the returned
/// guard drops (the previous context is restored — scopes nest).
pub fn install(context: &TraceContext) -> InstallGuard {
    let prev = CURRENT.with(|current| current.replace(context.clone()));
    InstallGuard { prev }
}

/// Restores the previously installed context on drop.
pub struct InstallGuard {
    prev: TraceContext,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.prev);
        CURRENT.with(|current| *current.borrow_mut() = prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn all_on() -> TraceOptions {
        TraceOptions::enabled().with_sample_per_1k(1000)
    }

    #[test]
    fn disabled_tracer_hands_out_inert_contexts() {
        let tracer = Tracer::off();
        let ctx = tracer.begin("query");
        assert!(!ctx.is_active());
        drop(ctx.span("net.decode"));
        drop(ctx);
        assert_eq!(tracer.stats(), TraceStats::default());
        assert!(tracer.dump(0).records.is_empty());
    }

    #[test]
    fn spans_commit_when_the_last_clone_drops() {
        let tracer = Tracer::new(all_on());
        let ctx = tracer.begin("query");
        assert!(ctx.is_active());
        let clone = ctx.clone();
        {
            let _outer = ctx.span("worker.execute");
            std::thread::sleep(Duration::from_millis(2));
            drop(ctx.span_with("read.disk", || "jackson/1".into()));
        }
        drop(ctx);
        assert!(tracer.dump(0).records.is_empty(), "clone still alive");
        drop(clone);
        let dump = tracer.dump(0);
        assert_eq!(dump.records.len(), 1);
        let record = &dump.records[0];
        assert_eq!(record.root, "query");
        assert!(record.sampled);
        assert_eq!(record.spans.len(), 2);
        let names: Vec<&str> = record.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"worker.execute"));
        assert!(names.contains(&"read.disk"));
        let read = record
            .spans
            .iter()
            .find(|s| s.name == "read.disk")
            .expect("read span");
        assert_eq!(read.detail, "jackson/1");
        assert!(record.dur_us >= 2_000, "{}", record.dur_us);
    }

    #[test]
    fn unsampled_slow_traces_are_still_captured() {
        let tracer = Tracer::new(
            TraceOptions::enabled()
                .with_sample_per_1k(0)
                .with_slow_threshold_us(1_000),
        );
        let fast = tracer.begin("fast");
        drop(fast);
        let slow = tracer.begin("slow");
        std::thread::sleep(Duration::from_millis(3));
        drop(slow);
        let dump = tracer.dump(0);
        assert_eq!(dump.records.len(), 1);
        assert_eq!(dump.records[0].root, "slow");
        assert!(dump.records[0].slow);
        assert!(!dump.records[0].sampled);
        assert_eq!(tracer.stats().committed, 1);
        assert_eq!(tracer.stats().begun, 2);
    }

    #[test]
    fn sampling_rate_is_per_mille() {
        let tracer = Tracer::new(TraceOptions::enabled().with_sample_per_1k(100));
        for _ in 0..2000 {
            drop(tracer.begin("request"));
        }
        let stats = tracer.stats();
        assert_eq!(stats.begun, 2000);
        assert_eq!(stats.sampled, 200, "deterministic modulo sampling");
        assert_eq!(stats.committed, 200);
    }

    #[test]
    fn rings_are_bounded_and_count_evictions() {
        let tracer = Tracer::new(all_on().with_ring_spans(4));
        for i in 0..64 {
            let ctx = tracer.begin("request");
            drop(ctx.span(if i % 2 == 0 { "a" } else { "b" }));
            drop(ctx);
        }
        let dump = tracer.dump(0);
        let total_spans: usize = dump.records.iter().map(|r| r.spans.len()).sum();
        assert!(
            total_spans <= 4 * RING_SHARDS,
            "{total_spans} spans survived a {} bound",
            4 * RING_SHARDS
        );
        assert!(dump.dropped_spans > 0);
        assert_eq!(tracer.stats().committed, 64);
    }

    #[test]
    fn dump_caps_at_the_most_recent_traces() {
        let tracer = Tracer::new(all_on());
        for _ in 0..10 {
            drop(tracer.begin("request"));
        }
        let capped = tracer.dump(3);
        assert_eq!(capped.records.len(), 3);
        let all = tracer.dump(0);
        assert_eq!(all.records.len(), 10);
        // The capped dump is the tail of the full one.
        assert_eq!(capped.records, all.records[7..].to_vec());
    }

    #[test]
    fn install_scopes_nest_and_restore() {
        let tracer = Tracer::new(all_on());
        let outer = tracer.begin("outer");
        let inner = tracer.begin("inner");
        assert!(!current().is_active());
        {
            let _o = install(&outer);
            assert_eq!(current().trace_id(), outer.trace_id());
            {
                let _i = install(&inner);
                assert_eq!(current().trace_id(), inner.trace_id());
            }
            assert_eq!(current().trace_id(), outer.trace_id());
        }
        assert!(!current().is_active());
    }

    #[test]
    fn span_tree_nests_by_containment() {
        let record = TraceRecord {
            trace_id: 1,
            root: "query".into(),
            start_us: 0,
            dur_us: 100,
            sampled: true,
            slow: false,
            spans: vec![
                TraceSpan {
                    name: "child".into(),
                    detail: String::new(),
                    start_us: 20,
                    dur_us: 30,
                    tid: 1,
                },
                TraceSpan {
                    name: "parent".into(),
                    detail: String::new(),
                    start_us: 10,
                    dur_us: 80,
                    tid: 1,
                },
                TraceSpan {
                    name: "sibling".into(),
                    detail: String::new(),
                    start_us: 95,
                    dur_us: 5,
                    tid: 1,
                },
            ],
        };
        let tree: Vec<(usize, &str)> = record
            .span_tree()
            .into_iter()
            .map(|(d, s)| (d, s.name.as_str()))
            .collect();
        assert_eq!(tree, [(0, "parent"), (1, "child"), (0, "sibling")]);
        let rendered = record.to_string();
        assert!(rendered.contains("  parent"), "{rendered}");
        assert!(rendered.contains("    child"), "{rendered}");
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let tracer = Tracer::new(all_on());
        let ctx = tracer.begin("query");
        drop(ctx.span_with("read.disk", || "detail \"quoted\"".into()));
        drop(ctx);
        let json = tracer.dump(0).to_chrome_json();
        assert_eq!(crate::json::validate(&json), Ok(()), "{json}");
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("read.disk"));
    }

    #[test]
    fn options_validate() {
        assert!(TraceOptions::default().validate().is_ok());
        assert!(all_on().validate().is_ok());
        assert!(TraceOptions::default()
            .with_sample_per_1k(1001)
            .validate()
            .is_err());
        assert!(TraceOptions::enabled()
            .with_ring_spans(0)
            .validate()
            .is_err());
    }
}
