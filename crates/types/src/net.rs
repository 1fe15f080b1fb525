//! Options of the socket front end (`vstore-serve`'s `NetServer`).
//!
//! The network acceptor binds a TCP listener and drives a small set of
//! event-loop threads, each multiplexing many non-blocking connections:
//! length-prefixed request frames are decoded into the bounded serve queue
//! and completed responses are coalesced into batched vectored writes.
//! These options size that machinery. Like
//! [`ServeOptions`](crate::ServeOptions) they are validated at the front
//! door — a zeroed knob is rejected with
//! [`crate::VStoreError::InvalidArgument`] before the listener binds.

use crate::runtime::available_workers;
use crate::{at_least, Result};

/// Default cap on a declared frame length. Large enough for any response
/// the store produces today (the biggest payload is a query result's
/// positive-frame list), small enough that a hostile length prefix cannot
/// ask for gigabytes.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 4 * 1024 * 1024;

/// Default batching threshold: flush a connection's pending responses once
/// they exceed this many bytes.
pub const DEFAULT_BATCH_MAX_BYTES: usize = 64 * 1024;

/// Default batching latency bound in microseconds: pending responses are
/// flushed no later than this, even while more are still completing.
pub const DEFAULT_BATCH_MAX_DELAY_US: u64 = 200;

/// Default cap on concurrently served connections; accepts beyond it are
/// refused (closed immediately) and counted.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// Options of one socket front end, passed to `VStore::serve_net`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetOptions {
    /// Event-loop threads multiplexing the accepted connections. Each loop
    /// owns its connections outright (no cross-loop locking on the hot
    /// path). Defaults to the host's available cores, capped at 4 — event
    /// loops shuffle bytes; the serve workers do the actual work.
    pub event_loops: usize,
    /// Upper bound on a frame's declared length. A frame claiming more is
    /// rejected **at header-parse time, before any buffer grows** — a
    /// hostile length prefix never drives an allocation.
    pub max_frame_bytes: usize,
    /// Flush a connection's batched responses once the pending bytes reach
    /// this threshold.
    pub batch_max_bytes: usize,
    /// Flush a connection's batched responses no later than this many
    /// microseconds after the oldest pending response was queued. `0`
    /// disables coalescing-by-time (every loop iteration flushes).
    pub batch_max_delay_us: u64,
    /// Maximum concurrently served connections; accepts beyond it are
    /// refused and counted in `NetStats`.
    pub max_connections: usize,
    /// How long an event loop sleeps when none of its connections made
    /// progress, in microseconds. Lower is snappier under trickle load;
    /// higher burns less CPU while idle.
    pub poll_wait_us: u64,
}

impl NetOptions {
    /// Replace the event-loop count.
    pub fn with_event_loops(mut self, event_loops: usize) -> Self {
        self.event_loops = event_loops;
        self
    }

    /// Replace the frame-length cap.
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> Self {
        self.max_frame_bytes = max_frame_bytes;
        self
    }

    /// Replace the batch size threshold.
    pub fn with_batch_max_bytes(mut self, batch_max_bytes: usize) -> Self {
        self.batch_max_bytes = batch_max_bytes;
        self
    }

    /// Replace the batch latency bound.
    pub fn with_batch_max_delay_us(mut self, batch_max_delay_us: u64) -> Self {
        self.batch_max_delay_us = batch_max_delay_us;
        self
    }

    /// Replace the connection cap.
    pub fn with_max_connections(mut self, max_connections: usize) -> Self {
        self.max_connections = max_connections;
        self
    }

    /// Replace the idle poll wait.
    pub fn with_poll_wait_us(mut self, poll_wait_us: u64) -> Self {
        self.poll_wait_us = poll_wait_us;
        self
    }

    /// Reject configurations that cannot serve, mirroring
    /// [`ServeOptions::validate`](crate::ServeOptions::validate).
    pub fn validate(&self) -> Result<()> {
        at_least("NetOptions", "event_loops", self.event_loops, 1)?;
        // A frame is at least the 8-byte correlation id plus the 5-byte
        // payload header (magic + version); anything smaller can never
        // carry a request.
        at_least("NetOptions", "max_frame_bytes", self.max_frame_bytes, 64)?;
        at_least("NetOptions", "batch_max_bytes", self.batch_max_bytes, 1)?;
        at_least("NetOptions", "max_connections", self.max_connections, 1)
    }
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            event_loops: available_workers().min(4),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            batch_max_bytes: DEFAULT_BATCH_MAX_BYTES,
            batch_max_delay_us: DEFAULT_BATCH_MAX_DELAY_US,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            poll_wait_us: 100,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VStoreError;

    #[test]
    fn defaults_validate() {
        let opts = NetOptions::default();
        assert!(opts.event_loops >= 1);
        assert_eq!(opts.max_frame_bytes, DEFAULT_MAX_FRAME_BYTES);
        assert_eq!(opts.batch_max_bytes, DEFAULT_BATCH_MAX_BYTES);
        assert_eq!(opts.batch_max_delay_us, DEFAULT_BATCH_MAX_DELAY_US);
        assert_eq!(opts.max_connections, DEFAULT_MAX_CONNECTIONS);
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn builders_replace_each_knob() {
        let opts = NetOptions::default()
            .with_event_loops(2)
            .with_max_frame_bytes(1 << 16)
            .with_batch_max_bytes(512)
            .with_batch_max_delay_us(50)
            .with_max_connections(8)
            .with_poll_wait_us(250);
        assert_eq!(opts.event_loops, 2);
        assert_eq!(opts.max_frame_bytes, 1 << 16);
        assert_eq!(opts.batch_max_bytes, 512);
        assert_eq!(opts.batch_max_delay_us, 50);
        assert_eq!(opts.max_connections, 8);
        assert_eq!(opts.poll_wait_us, 250);
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn validate_rejects_unservable_knobs() {
        for opts in [
            NetOptions::default().with_event_loops(0),
            NetOptions::default().with_max_frame_bytes(8),
            NetOptions::default().with_batch_max_bytes(0),
            NetOptions::default().with_max_connections(0),
        ] {
            let err = opts.validate().unwrap_err();
            assert!(
                matches!(err, VStoreError::InvalidArgument(_)),
                "expected InvalidArgument, got {err}"
            );
        }
    }
}
