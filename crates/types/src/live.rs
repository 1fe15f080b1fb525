//! Options of the live streaming ingest subsystem (`vstore-ingest`'s
//! `LiveIngestor`).
//!
//! Live ingest accepts an endless stream of camera segments, pushes them
//! onto a **bounded queue**, and drains the queue with background transcode
//! workers driving the offline ingestion pipeline. These options size that
//! machinery, pick the back-pressure policy applied when cameras outrun the
//! transcode budget, and set the lag threshold at which the degradation
//! ladder starts trading fidelity for throughput. Like
//! [`ServeOptions`](crate::ServeOptions), they are validated at the front
//! door — a zeroed knob is rejected with
//! [`crate::VStoreError::InvalidArgument`] before a single thread spawns.

use crate::runtime::available_workers;
use crate::serve::{QueueFullPolicy, DEFAULT_QUEUE_DEPTH};
use crate::{at_least, Result};

/// Queue depth (in segments) per degradation step: with the default the
/// ladder steps one level down for every 8 segments of backlog, so a camera
/// 8 segments behind is already being sampled coarser.
pub const DEFAULT_MAX_LAG_SEGMENTS: usize = 8;

/// Options of one live ingestor, passed to `VStore::live_ingest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveIngestOptions {
    /// Background transcode workers draining the segment queue through the
    /// ingestion pipeline. Defaults to the host's available cores.
    pub workers: usize,
    /// Capacity of the bounded live segment queue. Segments beyond this
    /// depth are shed or block per [`on_full`](Self::on_full) — the camera
    /// backlog can never grow without bound.
    pub queue_depth: usize,
    /// Back-pressure policy applied to the offering source when the queue
    /// is full: [`QueueFullPolicy::Reject`] sheds the segment (counted in
    /// `LiveStats::shed`), [`QueueFullPolicy::Block`] stalls the source.
    pub on_full: QueueFullPolicy,
    /// Backlog (queued segments) per degradation-ladder step: a queue
    /// `k * max_lag_segments` deep runs at degradation level `k`. Fidelity
    /// is restored level by level as the backlog drains.
    pub max_lag_segments: usize,
}

impl LiveIngestOptions {
    /// One worker, a queue of one, rejecting when full, degrading after one
    /// queued segment: the fully serial ingestor (useful for deterministic
    /// tests).
    pub fn sequential() -> Self {
        LiveIngestOptions {
            workers: 1,
            queue_depth: 1,
            on_full: QueueFullPolicy::Reject,
            max_lag_segments: 1,
        }
    }

    /// Replace the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replace the queue capacity.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Replace the back-pressure policy.
    pub fn with_on_full(mut self, on_full: QueueFullPolicy) -> Self {
        self.on_full = on_full;
        self
    }

    /// Replace the per-step lag threshold.
    pub fn with_max_lag_segments(mut self, max_lag_segments: usize) -> Self {
        self.max_lag_segments = max_lag_segments;
        self
    }

    /// Reject configurations with zeroed knobs, mirroring
    /// [`ServeOptions::validate`](crate::ServeOptions::validate): a bad knob
    /// surfaces as [`crate::VStoreError::InvalidArgument`] at `live_ingest` time
    /// instead of deadlocking an empty worker pool, a zero-slot queue, or a
    /// divide-by-zero lag controller.
    pub fn validate(&self) -> Result<()> {
        at_least("LiveIngestOptions", "workers", self.workers, 1)?;
        at_least("LiveIngestOptions", "queue_depth", self.queue_depth, 1)?;
        at_least(
            "LiveIngestOptions",
            "max_lag_segments",
            self.max_lag_segments,
            1,
        )
    }
}

impl Default for LiveIngestOptions {
    fn default() -> Self {
        LiveIngestOptions {
            workers: available_workers(),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            on_full: QueueFullPolicy::Reject,
            max_lag_segments: DEFAULT_MAX_LAG_SEGMENTS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VStoreError;

    #[test]
    fn defaults_are_thread_per_core_and_load_shedding() {
        let opts = LiveIngestOptions::default();
        assert!(opts.workers >= 1);
        assert_eq!(opts.queue_depth, DEFAULT_QUEUE_DEPTH);
        assert_eq!(opts.on_full, QueueFullPolicy::Reject);
        assert_eq!(opts.max_lag_segments, DEFAULT_MAX_LAG_SEGMENTS);
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn sequential_is_all_ones() {
        let opts = LiveIngestOptions::sequential();
        assert_eq!(opts.workers, 1);
        assert_eq!(opts.queue_depth, 1);
        assert_eq!(opts.max_lag_segments, 1);
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn builders_replace_each_knob() {
        let opts = LiveIngestOptions::default()
            .with_workers(3)
            .with_queue_depth(17)
            .with_on_full(QueueFullPolicy::Block)
            .with_max_lag_segments(5);
        assert_eq!(opts.workers, 3);
        assert_eq!(opts.queue_depth, 17);
        assert_eq!(opts.on_full, QueueFullPolicy::Block);
        assert_eq!(opts.max_lag_segments, 5);
    }

    #[test]
    fn validate_rejects_zeroed_knobs() {
        for (workers, queue_depth, max_lag) in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 0)] {
            let opts = LiveIngestOptions {
                workers,
                queue_depth,
                on_full: QueueFullPolicy::Reject,
                max_lag_segments: max_lag,
            };
            let err = opts.validate().unwrap_err();
            assert!(
                matches!(err, VStoreError::InvalidArgument(_)),
                "expected InvalidArgument, got {err}"
            );
        }
    }
}
