//! Serving-layer statistics: queue depth, lag, and per-kind latency
//! histograms.
//!
//! All rate math follows the store's stats conventions: additions saturate
//! (a pinned counter degrades, never panics), and every ratio renders `0%`
//! when its denominator is zero — an idle server's report contains no NaN.

use std::fmt;

// The histogram itself lives in `vstore_types` so the storage tiering
// subsystem can record cold-hit latency with the exact same machinery;
// re-exported here so serving-layer callers keep their import path.
pub use vstore_types::LatencyHistogram;

/// One snapshot of a serving front end's statistics, as returned by
/// `ServerHandle::stats` and folded into `VStore::stats_report`.
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
    /// Execution latency of ingest requests.
    pub ingest_latency: LatencyHistogram,
    /// Execution latency of query requests.
    pub query_latency: LatencyHistogram,
    /// Execution latency of erode requests.
    pub erode_latency: LatencyHistogram,
    /// Execution latency of live-stats requests.
    pub live_stats_latency: LatencyHistogram,
    /// Execution latency of metrics-snapshot requests.
    pub metrics_latency: LatencyHistogram,
    /// Execution latency of trace-dump requests.
    pub trace_latency: LatencyHistogram,
}

impl ServeStats {
    /// Fraction of submission attempts shed with `Busy` (0.0 when idle —
    /// never NaN).
    #[must_use]
    pub fn busy_rate(&self) -> f64 {
        let attempts = self.submitted.saturating_add(self.rejected_busy);
        if attempts == 0 {
            0.0
        } else {
            self.rejected_busy as f64 / attempts as f64
        }
    }

    /// Fraction of completed requests that returned an error (0.0 when
    /// idle — never NaN).
    #[must_use]
    pub fn failure_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.failed as f64 / self.completed as f64
        }
    }

    /// Merge another server's snapshot into this one (multi-server
    /// aggregate for `VStore::stats_report`). Depths and capacities add;
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
        self.ingest_latency.accumulate(&other.ingest_latency);
        self.query_latency.accumulate(&other.query_latency);
        self.erode_latency.accumulate(&other.erode_latency);
        self.live_stats_latency
            .accumulate(&other.live_stats_latency);
        self.metrics_latency.accumulate(&other.metrics_latency);
        self.trace_latency.accumulate(&other.trace_latency);
    }
}

impl fmt::Display for ServeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serve: {} workers, queue {}/{} (peak {}), {} submitted, {} completed, \
             {} busy ({:.0}%), {} failed ({:.0}%), {} panics, {} disconnects",
            self.workers,
            self.queue_depth,
            self.queue_capacity,
            self.peak_queue_depth,
            self.submitted,
            self.completed,
            self.rejected_busy,
            self.busy_rate() * 100.0,
            self.failed,
            self.failure_rate() * 100.0,
            self.panics,
            self.disconnects,
        )?;
        writeln!(f, "  queue wait: {}", self.queue_wait)?;
        writeln!(f, "  ingest:     {}", self.ingest_latency)?;
        writeln!(f, "  query:      {}", self.query_latency)?;
        write!(f, "  erode:      {}", self.erode_latency)?;
        if !self.live_stats_latency.is_empty() {
            write!(f, "\n  live-stats: {}", self.live_stats_latency)?;
        }
        if !self.metrics_latency.is_empty() {
            write!(f, "\n  metrics:    {}", self.metrics_latency)?;
        }
        if !self.trace_latency.is_empty() {
            write!(f, "\n  trace-dump: {}", self.trace_latency)?;
        }
        Ok(())
    }
}

/// One snapshot of a socket front end's statistics, as returned by
/// `NetServerHandle::stats` and folded into `VStore::stats_report`.
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
    /// Fraction of buffer takes served from the pool without allocating
    /// (0.0 when idle — never NaN). The steady-state read/write path keeps
    /// this near 1.0: the pool is the proof that serving a request
    /// allocates nothing per-request.
    #[must_use]
    pub fn pool_hit_rate(&self) -> f64 {
        let takes = self.pool_hits.saturating_add(self.pool_misses);
        if takes == 0 {
            0.0
        } else {
            self.pool_hits as f64 / takes as f64
        }
    }

    /// Mean responses per write (0.0 when idle — never NaN).
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        self.batch_sizes.mean_us()
    }

    /// Write syscalls per response frame (0.0 when idle — never NaN).
    /// Batching pushes this below 1.0; a naive one-write-per-response loop
    /// sits at 1.0.
    #[must_use]
    pub fn writes_per_response(&self) -> f64 {
        if self.frames_out == 0 {
            0.0
        } else {
            self.write_syscalls as f64 / self.frames_out as f64
        }
    }

    /// Merge another front end's snapshot into this one (multi-server
    /// aggregate for `VStore::stats_report`). Capacities add; histograms
    /// merge.
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
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "net: {} active conns ({} accepted, {} refused, {} disconnects), \
             {} frames in / {} out, {} in / {} out",
            self.active_connections,
            self.accepted,
            self.refused,
            self.disconnects,
            self.frames_in,
            self.frames_out,
            vstore_types::ByteSize(self.bytes_in),
            vstore_types::ByteSize(self.bytes_out),
        )?;
        writeln!(
            f,
            "  frames: {} corrupt, {} oversized | pool hit rate {:.0}% ({} hits, {} misses)",
            self.corrupt_frames,
            self.oversized_frames,
            self.pool_hit_rate() * 100.0,
            self.pool_hits,
            self.pool_misses,
        )?;
        write!(
            f,
            "  writes: {} syscalls ({:.2} per response), mean batch {:.1}",
            self.write_syscalls,
            self.writes_per_response(),
            self.mean_batch(),
        )?;
        if !self.backlog_peaks.is_empty() {
            write!(
                f,
                " | conn backlog peak p50 <{}, max {}",
                self.backlog_peaks.quantile_us(0.50),
                self.backlog_peaks.max_us(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The empty and saturated cases of the serving report: 0% everywhere
    /// when idle (no NaN), graceful saturation at the counter limits.
    #[test]
    fn stats_display_handles_empty_and_saturated_counters() {
        let empty = ServeStats::default();
        assert_eq!(empty.busy_rate(), 0.0);
        assert_eq!(empty.failure_rate(), 0.0);
        let rendered = empty.to_string();
        assert!(rendered.contains("(0%)"), "{rendered}");
        assert!(rendered.contains("idle"), "{rendered}");
        assert!(!rendered.contains("NaN"), "{rendered}");

        let mut saturated = ServeStats {
            submitted: u64::MAX,
            completed: u64::MAX,
            rejected_busy: u64::MAX,
            failed: 1,
            ..ServeStats::default()
        };
        let rendered = saturated.to_string();
        assert!(!rendered.contains("NaN"), "{rendered}");
        assert!(saturated.busy_rate() > 0.0 && saturated.busy_rate() <= 1.0);
        let other = saturated.clone();
        saturated.accumulate(&other);
        assert_eq!(saturated.submitted, u64::MAX, "accumulate must saturate");
    }

    #[test]
    fn net_stats_rates_never_nan_and_accumulate_merges() {
        let idle = NetStats::default();
        assert_eq!(idle.pool_hit_rate(), 0.0);
        assert_eq!(idle.mean_batch(), 0.0);
        assert_eq!(idle.writes_per_response(), 0.0);
        let rendered = idle.to_string();
        assert!(!rendered.contains("NaN"), "{rendered}");

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
        assert!((a.writes_per_response() - 0.25).abs() < 1e-9);
        assert!((a.pool_hit_rate() - 0.9).abs() < 1e-9);
        assert!((a.mean_batch() - 4.0).abs() < 1e-9);
        let b = a.clone();
        a.accumulate(&b);
        assert_eq!(a.active_connections, 4);
        assert_eq!(a.accepted, 20);
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
        let b = ServeStats {
            workers: 3,
            queue_capacity: 8,
            submitted: 5,
            completed: 5,
            peak_queue_depth: 7,
            ..ServeStats::default()
        };
        a.accumulate(&b);
        assert_eq!(a.workers, 5);
        assert_eq!(a.queue_capacity, 12);
        assert_eq!(a.submitted, 15);
        assert_eq!(a.peak_queue_depth, 7);
    }
}
