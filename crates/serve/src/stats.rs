//! Serving-layer statistics: queue depth, lag, and per-kind latency
//! histograms.
//!
//! Additions saturate: a pinned counter degrades, never panics. The
//! store's metrics snapshot is where these numbers are shown.

use crate::wire::RequestKind;
use vstore_obs::Metric;

// The histogram itself lives in `vstore_types` so the storage tiering
// subsystem can record cold-hit latency with the exact same machinery;
// re-exported here so serving-layer callers keep their import path.
pub use vstore_types::LatencyHistogram;

/// One snapshot of a serving front end's statistics, as returned by
/// `ServerHandle::stats` and shown as the `vstore_serve_*` rows of
/// `VStore::metrics_snapshot`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeStats {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Capacity of the bounded request queue.
    pub queue_capacity: usize,
    /// Requests waiting in the queue at snapshot time.
    pub queue_depth: usize,
    /// Deepest the queue has ever been.
    pub peak_queue_depth: usize,
    /// Requests accepted onto the queue.
    pub submitted: u64,
    /// Requests fully executed (success or error response).
    pub completed: u64,
    /// Requests shed with `Busy` because the queue was full.
    pub rejected_busy: u64,
    /// Completed requests whose response was an error.
    pub failed: u64,
    /// Worker panics converted into error responses (the server survived).
    pub panics: u64,
    /// Responses dropped because the client disconnected mid-stream.
    pub disconnects: u64,
    /// Time requests spent waiting in the queue (lag).
    pub queue_wait: LatencyHistogram,
    /// Execution latency per request kind, indexed by
    /// [`RequestKind::index`].
    pub latency: [LatencyHistogram; RequestKind::ALL.len()],
}

impl ServeStats {
    /// Merge another server's snapshot into this one (the multi-server
    /// aggregate behind the store's metrics). Depths and capacities add;
    /// histograms merge.
    pub fn accumulate(&mut self, other: &ServeStats) {
        self.workers = self.workers.saturating_add(other.workers);
        self.queue_capacity = self.queue_capacity.saturating_add(other.queue_capacity);
        self.queue_depth = self.queue_depth.saturating_add(other.queue_depth);
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.submitted = self.submitted.saturating_add(other.submitted);
        self.completed = self.completed.saturating_add(other.completed);
        self.rejected_busy = self.rejected_busy.saturating_add(other.rejected_busy);
        self.failed = self.failed.saturating_add(other.failed);
        self.panics = self.panics.saturating_add(other.panics);
        self.disconnects = self.disconnects.saturating_add(other.disconnects);
        self.queue_wait.accumulate(&other.queue_wait);
        for (mine, theirs) in self.latency.iter_mut().zip(&other.latency) {
            mine.accumulate(theirs);
        }
    }

    /// Append this snapshot's `vstore_serve_*` rows to `out`. A request
    /// kind's latency row appears once that kind has been served.
    pub fn collect_metrics(&self, out: &mut Vec<Metric>) {
        out.push(Metric::gauge(
            "vstore_serve_workers",
            "Worker threads draining the request queue",
            self.workers as f64,
        ));
        out.push(Metric::gauge(
            "vstore_serve_queue_depth",
            "Requests waiting in the queue at snapshot time",
            self.queue_depth as f64,
        ));
        out.push(Metric::gauge(
            "vstore_serve_queue_capacity",
            "Capacity of the bounded request queue",
            self.queue_capacity as f64,
        ));
        out.push(Metric::gauge(
            "vstore_serve_peak_queue_depth",
            "Deepest the request queue has been",
            self.peak_queue_depth as f64,
        ));
        out.push(Metric::counter(
            "vstore_serve_submitted_total",
            "Requests accepted onto the queue",
            self.submitted,
        ));
        out.push(Metric::counter(
            "vstore_serve_completed_total",
            "Requests fully executed (success or error response)",
            self.completed,
        ));
        out.push(Metric::counter(
            "vstore_serve_rejected_busy_total",
            "Requests shed with Busy because the queue was full",
            self.rejected_busy,
        ));
        out.push(Metric::counter(
            "vstore_serve_failed_total",
            "Completed requests whose response was an error",
            self.failed,
        ));
        out.push(Metric::counter(
            "vstore_serve_panics_total",
            "Worker panics converted into error responses",
            self.panics,
        ));
        out.push(Metric::counter(
            "vstore_serve_disconnects_total",
            "Responses dropped because the client disconnected",
            self.disconnects,
        ));
        out.push(Metric::latency(
            "vstore_serve_queue_wait_us",
            "Time requests spent waiting in the queue",
            &self.queue_wait,
        ));
        for kind in RequestKind::ALL {
            let hist = &self.latency[kind.index()];
            if hist.count() > 0 {
                out.push(
                    Metric::latency(
                        "vstore_serve_latency_us",
                        "Execution latency by request kind",
                        hist,
                    )
                    .with_label("kind", kind.name()),
                );
            }
        }
    }
}

/// One snapshot of a socket front end's statistics, as returned by
/// `NetServerHandle::stats` and shown as the `vstore_net_*` rows of
/// `VStore::metrics_snapshot`.
///
/// The two histograms abuse [`LatencyHistogram`]'s power-of-two buckets
/// for dimensionless counts: `batch_sizes` records **responses per
/// write** (the batching win — mean ≫ 1 means syscalls are being
/// amortised) and `backlog_peaks` records each closed connection's peak
/// count of responses owed (how deeply clients actually pipelined).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetStats {
    /// Connections accepted over the listener's lifetime.
    pub accepted: u64,
    /// Connections refused because `NetOptions::max_connections` was
    /// reached (closed immediately, nothing served).
    pub refused: u64,
    /// Connections currently being served.
    pub active_connections: usize,
    /// Request frames decoded off sockets.
    pub frames_in: u64,
    /// Response frames fully written back (batched or not).
    pub frames_out: u64,
    /// Bytes of the request frames decoded (envelopes included).
    pub bytes_in: u64,
    /// Bytes written back to sockets.
    pub bytes_out: u64,
    /// Frames rejected as undecodable (bad magic, bad payload, trailing
    /// garbage). Each one costs its connection — the peer is answered with
    /// a corruption error where possible, then isolated.
    pub corrupt_frames: u64,
    /// Frames rejected at header-parse time for declaring a length beyond
    /// `NetOptions::max_frame_bytes` — before any allocation.
    pub oversized_frames: u64,
    /// Connections that vanished (EOF or socket error) with work still in
    /// flight or responses still queued.
    pub disconnects: u64,
    /// Response batches written (one `write_all` each).
    pub write_syscalls: u64,
    /// Buffer-pool takes served from the pool (no allocation).
    pub pool_hits: u64,
    /// Buffer-pool takes that had to allocate a fresh buffer.
    pub pool_misses: u64,
    /// Responses coalesced per write.
    pub batch_sizes: LatencyHistogram,
    /// Peak responses owed per connection, recorded at close.
    pub backlog_peaks: LatencyHistogram,
}

impl NetStats {
    /// Merge another front end's snapshot into this one (the
    /// multi-server aggregate behind the store's metrics). Capacities add;
    /// histograms merge.
    pub fn accumulate(&mut self, other: &NetStats) {
        self.accepted = self.accepted.saturating_add(other.accepted);
        self.refused = self.refused.saturating_add(other.refused);
        self.active_connections = self
            .active_connections
            .saturating_add(other.active_connections);
        self.frames_in = self.frames_in.saturating_add(other.frames_in);
        self.frames_out = self.frames_out.saturating_add(other.frames_out);
        self.bytes_in = self.bytes_in.saturating_add(other.bytes_in);
        self.bytes_out = self.bytes_out.saturating_add(other.bytes_out);
        self.corrupt_frames = self.corrupt_frames.saturating_add(other.corrupt_frames);
        self.oversized_frames = self.oversized_frames.saturating_add(other.oversized_frames);
        self.disconnects = self.disconnects.saturating_add(other.disconnects);
        self.write_syscalls = self.write_syscalls.saturating_add(other.write_syscalls);
        self.pool_hits = self.pool_hits.saturating_add(other.pool_hits);
        self.pool_misses = self.pool_misses.saturating_add(other.pool_misses);
        self.batch_sizes.accumulate(&other.batch_sizes);
        self.backlog_peaks.accumulate(&other.backlog_peaks);
    }

    /// Append this snapshot's `vstore_net_*` rows to `out`.
    pub fn collect_metrics(&self, out: &mut Vec<Metric>) {
        out.push(Metric::gauge(
            "vstore_net_active_connections",
            "Connections currently being served",
            self.active_connections as f64,
        ));
        out.push(Metric::counter(
            "vstore_net_accepted_total",
            "Connections accepted over the listener's lifetime",
            self.accepted,
        ));
        out.push(Metric::counter(
            "vstore_net_refused_total",
            "Connections refused at the max-connections cap",
            self.refused,
        ));
        out.push(Metric::counter(
            "vstore_net_frames_in_total",
            "Request frames decoded off sockets",
            self.frames_in,
        ));
        out.push(Metric::counter(
            "vstore_net_frames_out_total",
            "Response frames fully written back",
            self.frames_out,
        ));
        out.push(Metric::counter(
            "vstore_net_bytes_in_total",
            "Bytes read off sockets",
            self.bytes_in,
        ));
        out.push(Metric::counter(
            "vstore_net_bytes_out_total",
            "Bytes written back to sockets",
            self.bytes_out,
        ));
        out.push(Metric::counter(
            "vstore_net_corrupt_frames_total",
            "Frames rejected as undecodable",
            self.corrupt_frames,
        ));
        out.push(Metric::counter(
            "vstore_net_oversized_frames_total",
            "Frames rejected before allocation for declaring an oversized length",
            self.oversized_frames,
        ));
        out.push(Metric::counter(
            "vstore_net_disconnects_total",
            "Connections that vanished with work in flight",
            self.disconnects,
        ));
        out.push(Metric::counter(
            "vstore_net_write_syscalls_total",
            "Writes issued (one per response batch)",
            self.write_syscalls,
        ));
        out.push(Metric::counter(
            "vstore_net_pool_hits_total",
            "Buffer-pool takes served without allocating",
            self.pool_hits,
        ));
        out.push(Metric::counter(
            "vstore_net_pool_misses_total",
            "Buffer-pool takes that allocated a fresh buffer",
            self.pool_misses,
        ));
        out.push(Metric::latency(
            "vstore_net_batch_sizes",
            "Responses coalesced per write",
            &self.batch_sizes,
        ));
        out.push(Metric::latency(
            "vstore_net_backlog_peaks",
            "Peak responses owed per connection, recorded at close",
            &self.backlog_peaks,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstore_obs::MetricsSnapshot;

    /// A snapshot's rows as the operator report prints them.
    fn render(stats: &ServeStats) -> String {
        let mut metrics = Vec::new();
        stats.collect_metrics(&mut metrics);
        MetricsSnapshot { metrics }.to_string()
    }

    /// The empty and saturated cases of the serving rows: zeros and no
    /// NaN when idle, graceful saturation at the counter limits.
    #[test]
    fn stats_display_handles_empty_and_saturated_counters() {
        let rendered = render(&ServeStats::default());
        assert!(!rendered.contains("NaN"), "{rendered}");
        for line in [
            "vstore_serve_workers 0",
            "vstore_serve_submitted_total 0",
            "vstore_serve_rejected_busy_total 0",
            "vstore_serve_failed_total 0",
            "vstore_serve_queue_wait_us n=0 mean=0.0 max=0",
        ] {
            assert!(rendered.lines().any(|l| l == line), "{line} in\n{rendered}");
        }
        assert!(
            !rendered.contains("vstore_serve_latency_us"),
            "an idle server has no per-kind latency row: {rendered}"
        );

        let mut saturated = ServeStats {
            submitted: u64::MAX,
            completed: u64::MAX,
            rejected_busy: u64::MAX,
            failed: 1,
            ..ServeStats::default()
        };
        let rendered = render(&saturated);
        assert!(!rendered.contains("NaN"), "{rendered}");
        assert!(
            rendered
                .lines()
                .any(|l| l == "vstore_serve_rejected_busy_total 18446744073709551615"),
            "{rendered}"
        );
        let other = saturated.clone();
        saturated.accumulate(&other);
        assert_eq!(saturated.submitted, u64::MAX, "accumulate must saturate");
        assert_eq!(saturated.rejected_busy, u64::MAX);
        assert_eq!(saturated.failed, 2);
    }

    #[test]
    fn net_stats_accumulate_merges_and_saturates() {
        let mut a = NetStats {
            active_connections: 2,
            accepted: 10,
            frames_out: 100,
            write_syscalls: 25,
            pool_hits: 90,
            pool_misses: 10,
            ..NetStats::default()
        };
        a.batch_sizes.record(4);
        let b = a.clone();
        a.accumulate(&b);
        assert_eq!(a.active_connections, 4);
        assert_eq!(a.accepted, 20);
        assert_eq!((a.frames_out, a.write_syscalls), (200, 50));
        assert_eq!((a.pool_hits, a.pool_misses), (180, 20));
        assert_eq!(a.batch_sizes.count(), 2);
        // Saturation instead of wraparound.
        let mut pinned = NetStats {
            frames_in: u64::MAX,
            ..NetStats::default()
        };
        pinned.accumulate(&b);
        assert_eq!(pinned.frames_in, u64::MAX);
    }

    #[test]
    fn accumulate_merges_across_servers() {
        let mut a = ServeStats {
            workers: 2,
            queue_capacity: 4,
            submitted: 10,
            completed: 9,
            ..ServeStats::default()
        };
        a.latency[RequestKind::Query.index()].record(5);
        let b = ServeStats {
            workers: 3,
            queue_capacity: 8,
            submitted: 5,
            completed: 5,
            peak_queue_depth: 7,
            ..ServeStats::default()
        };
        a.accumulate(&b);
        a.accumulate(&a.clone());
        assert_eq!(a.workers, 10);
        assert_eq!(a.queue_capacity, 24);
        assert_eq!(a.submitted, 30);
        assert_eq!(a.peak_queue_depth, 7);
        assert_eq!(a.latency[RequestKind::Query.index()].count(), 2);
        assert!(a.latency[RequestKind::Ingest.index()].is_empty());
    }
}
