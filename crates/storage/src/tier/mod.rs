//! Tiered cold storage: erosion that **demotes instead of deletes**.
//!
//! VStore's data erosion (§4.4 of the paper) ages video gracefully by
//! shrinking what is stored — but a deletion is forever. This module adds a
//! cold tier on a second [`StorageBackend`](crate::StorageBackend) device so
//! aged segments move to cheap, slow storage and stay queryable:
//!
//! * [`ColdStore`] — the cold device used as the object store it is: one
//!   checksummed object per demoted segment (a value-log record under the
//!   hex of its key), published by an atomic `write_all` and reclaimed by
//!   `remove`, so there is never anything to compact;
//! * [`TierEngine`] — the segment-level moves between the two stores:
//!   erosion demotes a batch of segments on its own threads (cold object
//!   published before the hot delete, one panic-isolated migration per
//!   key) instead of issuing deletes, and cold hits on the read path promote
//!   segments back through the [`SegmentReader`](crate::SegmentReader) so
//!   the view cache stays coherent;
//! * [`TierStats`] — resident bytes per tier, demotion/promotion counters
//!   and a cold-hit latency histogram, shown as the `vstore_tier_*` rows
//!   of `VStore::metrics_snapshot`.
//!
//! With no cold tier configured ([`TierOptions::default`]), nothing
//! changes: erosion deletes, exactly as before.

mod cold;
mod engine;

pub use cold::ColdStore;
pub use engine::{DemoteBatchReport, TierEngine, TierStats};

use crate::backend::BackendOptions;

/// Options of the tiering subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierOptions {
    /// Where the cold tier lives: `None` disables tiering entirely (erosion
    /// deletes, byte-identical to the untiered store), `Some(backend)`
    /// opens a [`ColdStore`] on that device (`Fs` under
    /// `<store dir>/cold-tier`, `Mem` for tests and benchmarks).
    pub cold_backend: Option<BackendOptions>,
    /// Read-through promotion: when `true` (the default), a cold hit moves
    /// the segment back to the hot store; when `false`, cold segments are
    /// served in place (every read pays the cold fetch).
    pub promotion: bool,
}

impl TierOptions {
    /// Tiering disabled: erosion deletes, exactly as without this module.
    pub fn disabled() -> Self {
        TierOptions {
            cold_backend: None,
            promotion: true,
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

    /// Enable or disable read-through promotion on cold hits.
    pub fn with_promotion(mut self, promotion: bool) -> Self {
        self.promotion = promotion;
        self
    }

    /// `true` when a cold backend is configured.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.cold_backend.is_some()
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

    #[test]
    fn defaults_are_disabled_and_valid() {
        let opts = TierOptions::default();
        assert!(!opts.is_enabled());
        assert!(opts.promotion);
        assert!(TierOptions::cold_mem().is_enabled());
        assert_eq!(
            TierOptions::cold_fs().cold_backend,
            Some(BackendOptions::Fs)
        );
    }

    #[test]
    fn builders_replace_each_knob() {
        let opts = TierOptions::cold_mem().with_promotion(false);
        assert_eq!(opts.cold_backend, Some(BackendOptions::Mem));
        assert!(!opts.promotion);
    }
}
