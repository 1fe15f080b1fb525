//! Options of the socket front end (`vstore-serve`'s `NetServer`).
//!
//! The network acceptor binds a TCP listener and serves each accepted
//! connection with a blocking reader thread and a blocking writer thread
//! over the bounded serve queue. The two options are limits on what the
//! outside world may ask of it. Like [`ServeOptions`](crate::ServeOptions)
//! they are validated at the front door — an unservable limit is rejected
//! with [`crate::VStoreError::InvalidArgument`] before the listener binds.

use crate::{at_least, Result};

/// Default cap on a declared frame length. Large enough for any response
/// the store produces today (the biggest payload is a query result's
/// positive-frame list), small enough that a hostile length prefix cannot
/// ask for gigabytes.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 4 * 1024 * 1024;

/// Default cap on concurrently served connections; accepts beyond it are
/// refused (closed immediately) and counted.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// Options of one socket front end, passed to `VStore::serve_net`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetOptions {
    /// Upper bound on a frame's declared length. A frame claiming more is
    /// rejected **at header-parse time, before any buffer grows** — a
    /// hostile length prefix never drives an allocation. A response that
    /// would encode past it is replaced with a typed error.
    pub max_frame_bytes: usize,
    /// Maximum concurrently served connections — and so, at two threads
    /// each, the front end's thread count; accepts beyond it are refused
    /// and counted in `NetStats`.
    pub max_connections: usize,
}

impl NetOptions {
    /// Replace the frame-length cap.
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> Self {
        self.max_frame_bytes = max_frame_bytes;
        self
    }

    /// Replace the connection cap.
    pub fn with_max_connections(mut self, max_connections: usize) -> Self {
        self.max_connections = max_connections;
        self
    }

    /// Reject configurations that cannot serve, mirroring
    /// [`ServeOptions::validate`](crate::ServeOptions::validate).
    pub fn validate(&self) -> Result<()> {
        // A frame is at least the 8-byte correlation id plus the 5-byte
        // payload header (magic + version); anything smaller can never
        // carry a request.
        at_least("NetOptions", "max_frame_bytes", self.max_frame_bytes, 64)?;
        at_least("NetOptions", "max_connections", self.max_connections, 1)
    }
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_connections: DEFAULT_MAX_CONNECTIONS,
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
        assert_eq!(opts.max_frame_bytes, DEFAULT_MAX_FRAME_BYTES);
        assert_eq!(opts.max_connections, DEFAULT_MAX_CONNECTIONS);
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn builders_replace_each_knob() {
        let opts = NetOptions::default()
            .with_max_frame_bytes(1 << 16)
            .with_max_connections(8);
        assert_eq!(opts.max_frame_bytes, 1 << 16);
        assert_eq!(opts.max_connections, 8);
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn validate_rejects_unservable_knobs() {
        for opts in [
            NetOptions::default().with_max_frame_bytes(8),
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
