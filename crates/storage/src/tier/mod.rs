//! Tiered cold storage: erosion that **demotes instead of deletes**.
//!
//! VStore's data erosion (§4.4 of the paper) ages video gracefully by
//! shrinking what is stored — but a deletion is forever. This module adds a
//! cold tier behind the same [`StorageBackend`](crate::StorageBackend) seam
//! so aged segments move to cheap, slow storage and stay queryable:
//!
//! * [`ColdBackend`] — an object-store-style backend packing named logs
//!   into immutable, chunked, checksummed objects with a manifest
//!   (append-only, compaction-free);
//! * [`TierEngine`] — the segment-level demotion engine: erosion enqueues
//!   demotions onto a bounded background migration queue (back-pressure,
//!   panic-isolated workers, a configurable byte/s budget) instead of
//!   issuing deletes, and cold hits on the read path promote segments back
//!   through the [`SegmentReader`](crate::SegmentReader) so both cache
//!   tiers stay coherent;
//! * [`TierStats`] — resident bytes per tier, demotion/promotion counters
//!   and a cold-hit latency histogram, folded into `VStore::stats_report`.
//!
//! With no cold tier configured ([`TierOptions::default`]), nothing
//! changes: erosion deletes, exactly as before.

mod cold;
mod engine;

pub use cold::{ColdBackend, DEFAULT_COLD_CHUNK_BYTES};
pub use engine::{DemoteBatchReport, TierEngine, TierStats};

use crate::backend::BackendOptions;
use vstore_types::{at_least, Result};

/// Smallest accepted [`TierOptions::cold_chunk_bytes`]: 4 KiB. Below this a
/// single segment would shatter into hundreds of objects and the manifest
/// would dwarf the data.
pub const MIN_COLD_CHUNK_BYTES: u64 = 4 << 10;

/// Options of the tiering subsystem, validated like `RuntimeOptions`: a bad
/// knob is rejected with [`vstore_types::VStoreError::InvalidArgument`] at open time, not
/// deep inside a migration worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierOptions {
    /// Where the cold tier lives: `None` disables tiering entirely (erosion
    /// deletes, byte-identical to the untiered store), `Some(backend)`
    /// roots a [`ColdBackend`] on that device (`Fs` under
    /// `<store dir>/cold-tier`, `Mem` for tests and benchmarks).
    pub cold_backend: Option<BackendOptions>,
    /// Migration pacing: each worker that moves N bytes owes `N / budget`
    /// seconds before its next job. 0 = unthrottled.
    pub demote_budget_bytes_per_sec: u64,
    /// Read-through promotion: when `true` (the default), a cold hit moves
    /// the segment back to the hot store; when `false`, cold segments are
    /// served in place (every read pays the cold fetch).
    pub promotion: bool,
    /// Background migration worker threads draining the demotion queue.
    pub demote_workers: usize,
    /// Capacity of the bounded demotion queue; a full queue blocks the
    /// eroding caller (back-pressure), it never grows without bound.
    pub demote_queue_depth: usize,
    /// Chunk size of the cold tier's immutable objects.
    pub cold_chunk_bytes: u64,
}

impl TierOptions {
    /// Tiering disabled: erosion deletes, exactly as without this module.
    pub fn disabled() -> Self {
        TierOptions {
            cold_backend: None,
            demote_budget_bytes_per_sec: 0,
            promotion: true,
            demote_workers: 2,
            demote_queue_depth: 64,
            cold_chunk_bytes: DEFAULT_COLD_CHUNK_BYTES,
        }
    }

    /// A cold tier on the chosen backend, with defaults for everything
    /// else.
    pub fn cold(backend: BackendOptions) -> Self {
        TierOptions {
            cold_backend: Some(backend),
            ..TierOptions::disabled()
        }
    }

    /// An in-memory cold tier (tests and benchmarks).
    pub fn cold_mem() -> Self {
        Self::cold(BackendOptions::Mem)
    }

    /// A filesystem cold tier rooted under `<store dir>/cold-tier`.
    pub fn cold_fs() -> Self {
        Self::cold(BackendOptions::Fs)
    }

    /// Replace the migration byte/s budget (0 = unthrottled).
    pub fn with_demote_budget(mut self, bytes_per_sec: u64) -> Self {
        self.demote_budget_bytes_per_sec = bytes_per_sec;
        self
    }

    /// Enable or disable read-through promotion on cold hits.
    pub fn with_promotion(mut self, promotion: bool) -> Self {
        self.promotion = promotion;
        self
    }

    /// Replace the migration worker count and queue capacity.
    pub fn with_demote_queue(mut self, workers: usize, queue_depth: usize) -> Self {
        self.demote_workers = workers;
        self.demote_queue_depth = queue_depth;
        self
    }

    /// `true` when a cold backend is configured.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.cold_backend.is_some()
    }

    /// Reject configurations with zeroed or useless knobs, mirroring
    /// `RuntimeOptions::validate`.
    pub fn validate(&self) -> Result<()> {
        at_least("TierOptions", "demote_workers", self.demote_workers, 1)?;
        at_least(
            "TierOptions",
            "demote_queue_depth",
            self.demote_queue_depth,
            1,
        )?;
        at_least(
            "TierOptions",
            "cold_chunk_bytes",
            self.cold_chunk_bytes,
            MIN_COLD_CHUNK_BYTES,
        )
    }
}

impl Default for TierOptions {
    fn default() -> Self {
        TierOptions::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstore_types::VStoreError;

    #[test]
    fn defaults_are_disabled_and_valid() {
        let opts = TierOptions::default();
        assert!(!opts.is_enabled());
        assert!(opts.promotion);
        assert!(opts.validate().is_ok());
        assert!(TierOptions::cold_mem().is_enabled());
        assert!(TierOptions::cold_fs().validate().is_ok());
    }

    #[test]
    fn builders_replace_each_knob() {
        let opts = TierOptions::cold_mem()
            .with_demote_budget(8 << 20)
            .with_promotion(false)
            .with_demote_queue(3, 17);
        assert_eq!(opts.demote_budget_bytes_per_sec, 8 << 20);
        assert!(!opts.promotion);
        assert_eq!(opts.demote_workers, 3);
        assert_eq!(opts.demote_queue_depth, 17);
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zeroed_and_tiny_knobs() {
        for opts in [
            TierOptions::cold_mem().with_demote_queue(0, 1),
            TierOptions::cold_mem().with_demote_queue(1, 0),
            TierOptions {
                cold_chunk_bytes: MIN_COLD_CHUNK_BYTES - 1,
                ..TierOptions::cold_mem()
            },
        ] {
            let err = opts.validate().unwrap_err();
            assert!(matches!(err, VStoreError::InvalidArgument(_)), "{err}");
        }
    }
}
