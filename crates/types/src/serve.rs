//! Options of the connection-serving front end (`vstore-serve`).
//!
//! The serving layer accepts typed requests from many concurrent clients,
//! pushes them onto a **bounded queue**, and drains the queue with a
//! thread-per-core worker pool driving cloned `VStore` handles. These
//! options size that machinery and pick the back-pressure policy applied
//! when clients outrun the store. Like [`RuntimeOptions`](crate::RuntimeOptions),
//! they are validated at the front door — a zeroed knob is rejected with
//! [`crate::VStoreError::InvalidArgument`] before a single thread spawns.

use crate::runtime::available_workers;
use crate::{at_least, Result};

/// What the server does with a new request when its bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueFullPolicy {
    /// Shed the request: `submit` returns [`crate::VStoreError::Busy`] at once
    /// and the request is never executed. Memory use stays bounded no matter
    /// how fast clients submit — the load-shedding default.
    Reject,
    /// Block the submitting client until a slot frees up (or the server
    /// shuts down). Turns overload into client-side latency instead of
    /// errors; appropriate for trusted in-process clients.
    Block,
}

/// Options of one serving front end, passed to `VStore::serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker threads draining the request queue, each driving its own
    /// cloned `VStore` handle. Defaults to the host's available cores
    /// (thread-per-core).
    pub workers: usize,
    /// Capacity of the bounded request queue shared by all clients. Requests
    /// beyond this depth are shed or block per [`on_full`](Self::on_full) —
    /// the queue can never grow without bound.
    pub queue_depth: usize,
    /// Back-pressure policy applied when the queue is full.
    pub on_full: QueueFullPolicy,
}

/// Default bounded-queue capacity: deep enough to absorb bursts from tens
/// of clients, shallow enough that shed requests see milliseconds of lag,
/// not seconds.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

impl ServeOptions {
    /// One worker, a queue of one, rejecting when full: the fully serial
    /// front end (useful for deterministic tests).
    pub fn sequential() -> Self {
        ServeOptions {
            workers: 1,
            queue_depth: 1,
            on_full: QueueFullPolicy::Reject,
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

    /// Reject configurations with zeroed knobs, mirroring
    /// [`RuntimeOptions::validate`](crate::RuntimeOptions::validate): a bad
    /// knob surfaces as [`crate::VStoreError::InvalidArgument`] at `serve` time
    /// instead of deadlocking an empty worker pool or a zero-slot queue.
    pub fn validate(&self) -> Result<()> {
        at_least("ServeOptions", "workers", self.workers, 1)?;
        at_least("ServeOptions", "queue_depth", self.queue_depth, 1)
    }
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: available_workers(),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            on_full: QueueFullPolicy::Reject,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VStoreError;

    #[test]
    fn defaults_are_thread_per_core_and_load_shedding() {
        let opts = ServeOptions::default();
        assert!(opts.workers >= 1);
        assert_eq!(opts.queue_depth, DEFAULT_QUEUE_DEPTH);
        assert_eq!(opts.on_full, QueueFullPolicy::Reject);
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn sequential_is_all_ones() {
        let opts = ServeOptions::sequential();
        assert_eq!(opts.workers, 1);
        assert_eq!(opts.queue_depth, 1);
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn builders_replace_each_knob() {
        let opts = ServeOptions::default()
            .with_workers(3)
            .with_queue_depth(17)
            .with_on_full(QueueFullPolicy::Block);
        assert_eq!(opts.workers, 3);
        assert_eq!(opts.queue_depth, 17);
        assert_eq!(opts.on_full, QueueFullPolicy::Block);
    }

    #[test]
    fn validate_rejects_zeroed_knobs() {
        for (workers, queue_depth) in [(0, 1), (1, 0), (0, 0)] {
            let opts = ServeOptions {
                workers,
                queue_depth,
                on_full: QueueFullPolicy::Reject,
            };
            let err = opts.validate().unwrap_err();
            assert!(
                matches!(err, VStoreError::InvalidArgument(_)),
                "expected InvalidArgument, got {err}"
            );
        }
    }
}
