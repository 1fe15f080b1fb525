//! Runtime parallelism options shared by the storage, ingestion and query
//! layers.
//!
//! VStore's premise is saturating the hardware: ingestion transcodes one
//! stream into many storage formats under a CPU budget (§4.3) and queries
//! are retrieval-bound on decode bandwidth (§6.2). These options size the
//! sharded store and the worker pools that deliver that parallelism. Every
//! knob set to 1 reproduces the fully sequential behaviour, and all paths
//! produce *identical* reports regardless of the values — parallelism never
//! changes results, only wall-clock time.

use crate::{at_least, Result, VStoreError};

/// Parallelism configuration for a VStore instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Number of independent segment-store shards. Each shard owns its own
    /// index, log-file set, roll-over and compaction; keys are routed by
    /// hash. 1 reproduces the original single-lock store.
    pub shards: usize,
    /// Worker threads fanning per-segment transcode work across the storage
    /// formats at ingestion. Capped further by the configuration's ingestion
    /// CPU budget when one is set.
    pub ingest_workers: usize,
    /// Segment lookahead of the query engine's prefetch/decode stage: how
    /// many segments are fetched and decoded in parallel ahead of the
    /// operator cascade. 1 disables prefetching.
    pub query_prefetch: usize,
    /// Byte bound of the view cache fronting `SegmentStore::get`: a view
    /// is one segment's frames as one consumer takes them (sampled,
    /// converted to its consumption fidelity), and weighs its frames' plane
    /// bytes. Split evenly across the store's shards (each shard cache has
    /// its own lock, so hot reads stay lock-cheap under the parallel query
    /// runtime). `0`, with `decoded_cache_entries` also `0`, disables the
    /// cache — the read path is then byte-identical to the uncached store.
    /// Non-zero values must be at least `shards ×`
    /// [`MIN_CACHE_BYTES_PER_SHARD`].
    pub cache_bytes: u64,
    /// Count bound of the view cache, in views, split across shards like
    /// `cache_bytes`: repeated cascade stages skip the store read, decode
    /// and conversion entirely. `0` exactly when `cache_bytes` is `0`.
    pub decoded_cache_entries: usize,
    /// Session default for the query planner: when `true`, queries consult
    /// the ingest-time metadata sidecars to skip fetching/decoding segments
    /// the first cascade stage would discard, and order cascade stages by
    /// cost × selectivity. `false` (the default) keeps every query an exact
    /// scan, byte-identical to the pre-planner engine. Individual requests
    /// can override this per query.
    pub query_planner: bool,
}

/// Default shard count: enough to spread MB-sized segment appends across
/// locks without creating needless log files on small hosts.
pub const DEFAULT_SHARDS: usize = 8;

/// Smallest accepted non-zero [`RuntimeOptions::cache_bytes`] **per
/// shard**: one MiB. `cache_bytes` is split evenly across the shards, and
/// one consumer's view of one 8-second segment weighs hundreds of KiB of
/// frame planes, so a shard slice smaller than this holds next to nothing
/// and the cache would silently behave as a disabled one. `validate`
/// therefore rejects non-zero `cache_bytes` below
/// `shards × MIN_CACHE_BYTES_PER_SHARD`.
pub const MIN_CACHE_BYTES_PER_SHARD: u64 = 1 << 20;

/// The host's available parallelism (1 when it cannot be determined).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl RuntimeOptions {
    /// Fully sequential execution: one shard, one worker, no prefetch, no
    /// caching. This is byte-for-byte the behaviour of the original serial
    /// runtime.
    pub fn sequential() -> Self {
        RuntimeOptions {
            shards: 1,
            ingest_workers: 1,
            query_prefetch: 1,
            cache_bytes: 0,
            decoded_cache_entries: 0,
            query_planner: false,
        }
    }

    /// Enable the view cache: at most `cache_bytes` of frame planes and
    /// `decoded_entries` views. Both 0 disables it; `validate` rejects one
    /// bound set and the other 0.
    pub fn with_cache(mut self, cache_bytes: u64, decoded_entries: usize) -> Self {
        self.cache_bytes = cache_bytes;
        self.decoded_cache_entries = decoded_entries;
        self
    }

    /// Enable (or disable) the query planner for every query of the
    /// session. Requests can still override this per query.
    pub fn with_query_planner(mut self, enabled: bool) -> Self {
        self.query_planner = enabled;
        self
    }

    /// Reject configurations with zeroed knobs. The service front door
    /// (`VStore::open`) calls this so a bad knob surfaces as a
    /// [`VStoreError::InvalidArgument`] at open time instead of panicking
    /// (or being silently rewritten) deep inside the store or a worker pool.
    pub fn validate(&self) -> Result<()> {
        at_least("RuntimeOptions", "shards", self.shards, 1)?;
        at_least("RuntimeOptions", "ingest_workers", self.ingest_workers, 1)?;
        at_least("RuntimeOptions", "query_prefetch", self.query_prefetch, 1)?;
        if (self.cache_bytes == 0) != (self.decoded_cache_entries == 0) {
            return Err(VStoreError::invalid_argument(format!(
                "RuntimeOptions::cache_bytes ({}) and decoded_cache_entries ({}) bound one \
                 cache: set both, or neither to disable it",
                self.cache_bytes, self.decoded_cache_entries
            )));
        }
        let cache_floor = self.shards as u64 * MIN_CACHE_BYTES_PER_SHARD;
        if self.cache_bytes != 0 && self.cache_bytes < cache_floor {
            return Err(VStoreError::invalid_argument(format!(
                "RuntimeOptions::cache_bytes must be 0 (cache disabled) or at least \
                 {MIN_CACHE_BYTES_PER_SHARD} bytes per shard ({cache_floor} for {} shards); \
                 {} cannot hold a segment's views per shard",
                self.shards, self.cache_bytes
            )));
        }
        Ok(())
    }
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        let workers = available_workers();
        RuntimeOptions {
            shards: DEFAULT_SHARDS,
            ingest_workers: workers,
            query_prefetch: workers.max(2),
            // Caching is opt-in: the default read path stays byte-identical
            // to the seed runtime (every get pays disk + CRC + decode).
            cache_bytes: 0,
            decoded_cache_entries: 0,
            // The planner's metadata skip is approximate, so it is opt-in
            // too: default queries are exact scans.
            query_planner: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_parallel() {
        let opts = RuntimeOptions::default();
        assert_eq!(opts.shards, DEFAULT_SHARDS);
        assert!(opts.ingest_workers >= 1);
        assert!(opts.query_prefetch >= 2);
    }

    #[test]
    fn sequential_means_all_ones_and_no_cache() {
        assert_eq!(
            RuntimeOptions::sequential(),
            RuntimeOptions {
                shards: 1,
                ingest_workers: 1,
                query_prefetch: 1,
                cache_bytes: 0,
                decoded_cache_entries: 0,
                query_planner: false,
            }
        );
    }

    #[test]
    fn defaults_leave_the_cache_disabled() {
        let opts = RuntimeOptions::default();
        assert_eq!(opts.cache_bytes, 0);
        assert_eq!(opts.decoded_cache_entries, 0);
    }

    #[test]
    fn validate_rejects_zeroed_knobs() {
        assert!(RuntimeOptions::default().validate().is_ok());
        assert!(RuntimeOptions::sequential().validate().is_ok());
        for (shards, ingest_workers, query_prefetch) in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 0)]
        {
            let opts = RuntimeOptions {
                shards,
                ingest_workers,
                query_prefetch,
                ..RuntimeOptions::sequential()
            };
            let err = opts.validate().unwrap_err();
            assert!(
                matches!(err, VStoreError::InvalidArgument(_)),
                "expected InvalidArgument, got {err}"
            );
        }
    }

    #[test]
    fn validate_rejects_useless_tiny_caches_but_accepts_disabled_and_real_ones() {
        let invalid = |opts: RuntimeOptions| {
            let err = opts.validate().unwrap_err();
            assert!(matches!(err, VStoreError::InvalidArgument(_)), "{err}");
        };
        // 0 is the valid "disabled" state.
        assert!(RuntimeOptions::sequential()
            .with_cache(0, 0)
            .validate()
            .is_ok());
        // The two knobs bound one cache: a half-enabled one is rejected.
        invalid(RuntimeOptions::sequential().with_cache(0, 7));
        invalid(RuntimeOptions::sequential().with_cache(MIN_CACHE_BYTES_PER_SHARD, 0));
        // A cache too small to hold a segment's views per shard is rejected.
        invalid(RuntimeOptions::sequential().with_cache(MIN_CACHE_BYTES_PER_SHARD - 1, 7));
        assert!(RuntimeOptions::sequential()
            .with_cache(MIN_CACHE_BYTES_PER_SHARD, 7)
            .validate()
            .is_ok());
        // The floor scales with the shard count: what one shard accepts,
        // eight shards reject.
        let eight = RuntimeOptions {
            shards: 8,
            ..RuntimeOptions::sequential()
        };
        invalid(eight.with_cache(MIN_CACHE_BYTES_PER_SHARD, 7));
        assert!(eight
            .with_cache(8 * MIN_CACHE_BYTES_PER_SHARD, 7)
            .validate()
            .is_ok());
    }

    #[test]
    fn query_planner_defaults_off_and_toggles() {
        assert!(!RuntimeOptions::default().query_planner);
        assert!(!RuntimeOptions::sequential().query_planner);
        let opts = RuntimeOptions::default().with_query_planner(true);
        assert!(opts.query_planner);
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn with_cache_sets_both_tiers() {
        let opts = RuntimeOptions::default().with_cache(64 << 20, 256);
        assert_eq!(opts.cache_bytes, 64 << 20);
        assert_eq!(opts.decoded_cache_entries, 256);
        assert!(opts.validate().is_ok());
    }
}
