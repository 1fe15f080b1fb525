//! The unified read path: a [`SegmentReader`] fronting
//! [`SegmentStore::get`] with a **two-tier, shard-aware segment cache**.
//!
//! VStore's retrieval path is its bottleneck (§5, Figure 6 of the paper):
//! every cascade stage and every repeated query over a hot stream re-pays
//! disk + CRC + decode for the same segments. The reader interposes two
//! caches between the query engine and the store:
//!
//! * **Tier 1 — raw bytes.** A per-shard LRU over the serialized segment
//!   bytes, bounded by `cache_bytes` split across the store's shards. A hit
//!   skips the backend read *and* the CRC verification.
//! * **Tier 2 — decoded frames.** A per-shard LRU over
//!   [`DecodedSegment`]s, keyed by `(segment key, consumer sampling rate)`
//!   and bounded by `decoded_cache_entries`. A hit additionally skips
//!   container parsing and `decode_sampled` — the dominant cost for encoded
//!   formats.
//!
//! Both tiers are sharded exactly like the store (same key-hash routing),
//! so cache lookups never contend across shards and stay lock-cheap under
//! the parallel query runtime. Either tier can be disabled independently by
//! setting its capacity to 0; with both tiers off the reader is a pure
//! passthrough and the read path is byte-identical to the bare store.
//!
//! ## Coherence
//!
//! All mutations **must** flow through the reader ([`put`](SegmentReader::put)
//! / [`delete`](SegmentReader::delete)): each write bumps the target shard's
//! *invalidation epoch* and drops the key's entries from both tiers, so an
//! erode-then-read can never serve stale bytes. Fills re-check the epoch
//! before admitting an entry, which closes the race where a concurrent
//! delete lands between a fill's store read and its cache insert (the fill
//! is then discarded instead of resurrecting dead data). Compaction and log
//! roll-over rewrite *where* live records sit, never their value bytes, so
//! cached entries stay valid across both and need no re-keying.

use crate::key::SegmentKey;
use crate::store::SegmentStore;
use crate::tier::TierEngine;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, OnceLock};
use vstore_codec::{SegmentData, VideoFrame};
use vstore_types::{FrameSampling, Result, StorageFormat};

/// Where a read was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    /// Tier 2: the decoded-frames cache (no store read, no decode).
    DecodedCache,
    /// Tier 1: the raw-bytes cache (no store read; decode still ran).
    RawCache,
    /// The segment store itself (a real backend read).
    Disk,
    /// The cold storage tier (the segment was demoted by erosion; it may
    /// have been promoted back by this read).
    Cold,
}

impl ReadSource {
    /// `true` when the read was served from memory rather than the store.
    #[must_use]
    pub fn is_cached(self) -> bool {
        matches!(self, ReadSource::DecodedCache | ReadSource::RawCache)
    }

    /// `true` when the read was served by the cold storage tier.
    #[must_use]
    pub fn is_cold(self) -> bool {
        matches!(self, ReadSource::Cold)
    }
}

/// One decoded segment as tier 2 caches it: the frames emitted by
/// [`SegmentData::decode_sampled`] at the cached sampling rate, plus the
/// metadata query accounting needs without re-parsing the container.
#[derive(Debug, Clone)]
pub struct DecodedSegment {
    /// The storage format the segment is stored in.
    pub storage_format: StorageFormat,
    /// Number of frames stored in the segment (before sampling).
    pub frame_count: usize,
    /// Length in bytes of the serialized segment the frames came from.
    pub raw_len: u64,
    /// The sampled, decoded frames in presentation order.
    pub frames: Vec<VideoFrame>,
}

/// The result of a decoded read: the (shared) decoded segment and where it
/// was served from.
#[derive(Debug, Clone)]
pub struct DecodedRead {
    /// The decoded segment.
    pub segment: Arc<DecodedSegment>,
    /// Which tier served it.
    pub source: ReadSource,
}

/// Statistics of one shard's cache (or the aggregate across shards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Tier-1 reads served from the raw-bytes cache.
    pub raw_hits: u64,
    /// Tier-1 reads that had to go to the store (the key existed).
    pub raw_misses: u64,
    /// Tier-1 entries evicted to make room.
    pub raw_evictions: u64,
    /// Bytes currently resident in the raw-bytes cache.
    pub raw_resident_bytes: u64,
    /// Tier-2 reads served from the decoded-frames cache.
    pub decoded_hits: u64,
    /// Tier-2 reads that had to decode (from tier 1 or the store).
    pub decoded_misses: u64,
    /// Tier-2 entries evicted to make room.
    pub decoded_evictions: u64,
    /// Entries currently resident in the decoded-frames cache.
    pub decoded_entries: u64,
    /// Cached entries dropped by writes (put / delete / erosion).
    pub invalidations: u64,
}

impl CacheStats {
    /// Accumulate another shard's statistics into this aggregate.
    ///
    /// # Examples
    ///
    /// ```
    /// use vstore_storage::CacheStats;
    /// let mut total = CacheStats::default();
    /// let shard = CacheStats { raw_hits: 3, raw_misses: 1, ..Default::default() };
    /// total.accumulate(&shard);
    /// total.accumulate(&shard);
    /// assert_eq!(total.raw_hits, 6);
    /// assert!((total.raw_hit_rate() - 0.75).abs() < 1e-12);
    /// ```
    /// All additions saturate: a counter pinned at `u64::MAX` (a saturated,
    /// long-lived store) must degrade gracefully, never panic an operator's
    /// stats call in debug builds or wrap to a nonsense aggregate in
    /// release.
    pub fn accumulate(&mut self, other: &CacheStats) {
        self.raw_hits = self.raw_hits.saturating_add(other.raw_hits);
        self.raw_misses = self.raw_misses.saturating_add(other.raw_misses);
        self.raw_evictions = self.raw_evictions.saturating_add(other.raw_evictions);
        self.raw_resident_bytes = self
            .raw_resident_bytes
            .saturating_add(other.raw_resident_bytes);
        self.decoded_hits = self.decoded_hits.saturating_add(other.decoded_hits);
        self.decoded_misses = self.decoded_misses.saturating_add(other.decoded_misses);
        self.decoded_evictions = self
            .decoded_evictions
            .saturating_add(other.decoded_evictions);
        self.decoded_entries = self.decoded_entries.saturating_add(other.decoded_entries);
        self.invalidations = self.invalidations.saturating_add(other.invalidations);
    }

    /// Fraction of tier-1 reads served from cache (0.0 when idle — never
    /// NaN).
    #[must_use]
    pub fn raw_hit_rate(&self) -> f64 {
        let total = self.raw_hits.saturating_add(self.raw_misses);
        if total == 0 {
            0.0
        } else {
            self.raw_hits as f64 / total as f64
        }
    }

    /// Fraction of tier-2 reads served from cache (0.0 when idle — never
    /// NaN).
    #[must_use]
    pub fn decoded_hit_rate(&self) -> f64 {
        let total = self.decoded_hits.saturating_add(self.decoded_misses);
        if total == 0 {
            0.0
        } else {
            self.decoded_hits as f64 / total as f64
        }
    }

    /// `true` when no read has touched the cache yet.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.raw_hits == 0
            && self.raw_misses == 0
            && self.decoded_hits == 0
            && self.decoded_misses == 0
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "raw {}/{} hits ({:.0}%), {} resident bytes, {} evictions | \
             decoded {}/{} hits ({:.0}%), {} entries, {} evictions | {} invalidations",
            self.raw_hits,
            self.raw_hits.saturating_add(self.raw_misses),
            self.raw_hit_rate() * 100.0,
            self.raw_resident_bytes,
            self.raw_evictions,
            self.decoded_hits,
            self.decoded_hits.saturating_add(self.decoded_misses),
            self.decoded_hit_rate() * 100.0,
            self.decoded_entries,
            self.decoded_evictions,
            self.invalidations,
        )
    }
}

/// A weight-bounded LRU map. Recency is tracked with a monotone tick per
/// entry plus a `BTreeMap` from tick to key, so get/insert/evict are all
/// `O(log n)` and fully deterministic.
struct LruCache<K, V> {
    map: HashMap<K, LruEntry<V>>,
    order: BTreeMap<u64, K>,
    tick: u64,
    capacity: u64,
    used: u64,
}

struct LruEntry<V> {
    value: V,
    weight: u64,
    tick: u64,
}

impl<K: Eq + Hash + Ord + Clone, V: Clone> LruCache<K, V> {
    fn new(capacity: u64) -> Self {
        LruCache {
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            capacity,
            used: 0,
        }
    }

    /// Look up a key, marking it most-recently used on a hit.
    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(key)?;
        self.order.remove(&entry.tick);
        entry.tick = tick;
        self.order.insert(tick, key.clone());
        Some(entry.value.clone())
    }

    /// Insert a key, evicting least-recently-used entries until the weight
    /// fits. Returns how many entries were evicted. An entry heavier than
    /// the whole cache is not admitted.
    fn insert(&mut self, key: K, value: V, weight: u64) -> u64 {
        if weight > self.capacity {
            return 0;
        }
        self.remove(&key);
        let mut evicted = 0;
        while self.used + weight > self.capacity {
            // The loop guard proves used > 0, so both maps are non-empty
            // and agree on membership: eviction cannot miss.
            let (&oldest_tick, _) = self.order.iter().next().expect("used > 0 implies entries"); // vstore-lint: allow(no-unwrap)
            let oldest_key = self.order.remove(&oldest_tick).expect("tick just seen"); // vstore-lint: allow(no-unwrap)
            let old = self.map.remove(&oldest_key).expect("order and map agree"); // vstore-lint: allow(no-unwrap)
            self.used -= old.weight;
            evicted += 1;
        }
        self.tick += 1;
        self.order.insert(self.tick, key.clone());
        self.map.insert(
            key,
            LruEntry {
                value,
                weight,
                tick: self.tick,
            },
        );
        self.used += weight;
        evicted
    }

    /// Remove a key. Returns `true` when an entry was dropped.
    fn remove(&mut self, key: &K) -> bool {
        match self.map.remove(key) {
            Some(entry) => {
                self.order.remove(&entry.tick);
                self.used -= entry.weight;
                true
            }
            None => false,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Key of one tier-2 entry: which segment, decoded at which sampling rate.
type DecodedKey = (SegmentKey, FrameSampling);

/// One shard's cache state: both tiers, the invalidation epoch and the
/// counters, all behind a single short-held mutex.
struct ShardCache {
    raw: LruCache<SegmentKey, Arc<Vec<u8>>>,
    decoded: LruCache<DecodedKey, Arc<DecodedSegment>>,
    /// Bumped by every write routed to this shard; fills re-check it before
    /// admitting, so an entry read before a concurrent write is discarded
    /// instead of cached stale.
    epoch: u64,
    raw_hits: u64,
    raw_misses: u64,
    raw_evictions: u64,
    decoded_hits: u64,
    decoded_misses: u64,
    decoded_evictions: u64,
    invalidations: u64,
}

impl ShardCache {
    fn new(raw_capacity: u64, decoded_capacity: u64) -> Self {
        ShardCache {
            raw: LruCache::new(raw_capacity),
            decoded: LruCache::new(decoded_capacity),
            epoch: 0,
            raw_hits: 0,
            raw_misses: 0,
            raw_evictions: 0,
            decoded_hits: 0,
            decoded_misses: 0,
            decoded_evictions: 0,
            invalidations: 0,
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            raw_hits: self.raw_hits,
            raw_misses: self.raw_misses,
            raw_evictions: self.raw_evictions,
            raw_resident_bytes: self.raw.used,
            decoded_hits: self.decoded_hits,
            decoded_misses: self.decoded_misses,
            decoded_evictions: self.decoded_evictions,
            decoded_entries: self.decoded.len() as u64,
            invalidations: self.invalidations,
        }
    }
}

/// The unified read (and invalidating write) path over a [`SegmentStore`].
///
/// See the [module docs](self) for the cache design. The reader is
/// internally synchronised per shard; share it via `Arc` between however
/// many ingest and query threads the deployment runs. Reads not routed
/// through this reader stay correct (the store is the source of truth);
/// writes **must** go through [`put`](Self::put) / [`delete`](Self::delete)
/// or cached entries go stale.
pub struct SegmentReader {
    store: Arc<SegmentStore>,
    /// One cache per store shard; empty when both tiers are disabled, which
    /// makes every operation a lock-free passthrough.
    shards: Vec<Mutex<ShardCache>>,
    raw_per_shard: u64,
    decoded_per_shard: u64,
    /// The cold-storage tiering engine, once one is attached
    /// ([`attach_tier`](Self::attach_tier)): store misses fall through to
    /// the cold tier and promote on a hit.
    tier: OnceLock<Arc<TierEngine>>,
}

impl std::fmt::Debug for SegmentReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentReader")
            .field("shards", &self.shards.len())
            .field("raw_per_shard_bytes", &self.raw_per_shard)
            .field("decoded_per_shard_entries", &self.decoded_per_shard)
            .finish()
    }
}

impl SegmentReader {
    /// A reader over `store` with `cache_bytes` of tier-1 capacity and
    /// `decoded_entries` of tier-2 capacity, each split evenly across the
    /// store's shards (rounded up to at least one unit per shard when the
    /// tier is enabled, so the effective bound is per-shard granular).
    /// Either capacity may be 0 to disable that tier; both 0 yields a pure
    /// passthrough.
    pub fn new(store: Arc<SegmentStore>, cache_bytes: u64, decoded_entries: usize) -> Self {
        let shard_count = store.shard_count().max(1) as u64;
        let raw_per_shard = if cache_bytes == 0 {
            0
        } else {
            (cache_bytes / shard_count).max(1)
        };
        let decoded_per_shard = if decoded_entries == 0 {
            0
        } else {
            (decoded_entries as u64 / shard_count).max(1)
        };
        let shards = if raw_per_shard == 0 && decoded_per_shard == 0 {
            Vec::new()
        } else {
            (0..store.shard_count())
                .map(|_| Mutex::new(ShardCache::new(raw_per_shard, decoded_per_shard)))
                .collect()
        };
        SegmentReader {
            store,
            shards,
            raw_per_shard,
            decoded_per_shard,
            tier: OnceLock::new(),
        }
    }

    /// Attach a tiering engine: store misses now fall through to its cold
    /// store ([`ReadSource::Cold`]), promoting on a hit when the engine is
    /// configured to. The engine must demote from this reader's store.
    ///
    /// # Panics
    ///
    /// Panics when `tier` fronts a different hot store instance, or when a
    /// tier is already attached.
    pub fn attach_tier(&self, tier: &Arc<TierEngine>) {
        assert!(
            Arc::ptr_eq(tier.hot_store(), &self.store),
            "TierEngine demotes from a different store than this reader"
        );
        assert!(
            self.tier.set(Arc::clone(tier)).is_ok(),
            "a TierEngine is already attached to this reader"
        );
    }

    /// The attached tiering engine, if any.
    #[must_use]
    pub fn tier(&self) -> Option<Arc<TierEngine>> {
        self.tier.get().cloned()
    }

    /// The one miss path: the hot store, else (when a tier is attached) the
    /// cold tier, which promotes per the engine's configuration. Returns
    /// the bytes and which of the two served them; `Ok(None)` when the key
    /// is in neither.
    fn read_miss(&self, key: &SegmentKey) -> Result<Option<(Vec<u8>, ReadSource)>> {
        if let Some(bytes) = self.store.get(key)? {
            return Ok(Some((bytes, ReadSource::Disk)));
        }
        match self.tier.get() {
            Some(engine) => engine.read_through(key, self),
            None => Ok(None),
        }
    }

    /// A passthrough reader: no caching, byte-identical to the bare store.
    pub fn disabled(store: Arc<SegmentStore>) -> Self {
        Self::new(store, 0, 0)
    }

    /// The store behind this reader.
    pub fn store(&self) -> &Arc<SegmentStore> {
        &self.store
    }

    /// `true` when at least one cache tier is enabled.
    #[must_use]
    pub fn is_cache_enabled(&self) -> bool {
        !self.shards.is_empty()
    }

    /// Fetch a segment's raw bytes through tier 1. Returns the bytes and
    /// where they were served from; `Ok(None)` when the key does not exist.
    pub fn get(&self, key: &SegmentKey) -> Result<Option<(Arc<Vec<u8>>, ReadSource)>> {
        if self.raw_per_shard == 0 {
            return Ok(self
                .read_miss(key)?
                .map(|(bytes, source)| (Arc::new(bytes), source)));
        }
        let idx = self.store.shard_index(key);
        let epoch = {
            let mut shard = self.shards[idx].lock();
            if let Some(bytes) = shard.raw.get(key) {
                shard.raw_hits += 1;
                return Ok(Some((bytes, ReadSource::RawCache)));
            }
            shard.epoch
        };
        let Some((bytes, source)) = self.read_miss(key)? else {
            return Ok(None);
        };
        let bytes = Arc::new(bytes);
        // Cold bytes are returned but not admitted: a promotion has just
        // bumped the epoch, and the next (hot) read warms the cache through
        // the ordinary fill path.
        if source == ReadSource::Disk {
            let mut shard = self.shards[idx].lock();
            shard.raw_misses += 1;
            if shard.epoch == epoch {
                let evicted = shard
                    .raw
                    .insert(key.clone(), Arc::clone(&bytes), bytes.len() as u64);
                shard.raw_evictions += evicted;
            }
        }
        Ok(Some((bytes, source)))
    }

    /// Fetch a segment decoded at `sampling`, through both tiers: tier 2
    /// returns the frames outright; tier 1 skips the store read but still
    /// decodes; a full miss reads, decodes and warms both tiers. `Ok(None)`
    /// when the key does not exist.
    pub fn get_decoded(
        &self,
        key: &SegmentKey,
        sampling: FrameSampling,
    ) -> Result<Option<DecodedRead>> {
        if self.shards.is_empty() {
            let Some((bytes, source)) = self.read_miss(key)? else {
                return Ok(None);
            };
            return Ok(Some(DecodedRead {
                segment: Arc::new(decode_entry(&bytes, sampling)?),
                source,
            }));
        }
        let idx = self.store.shard_index(key);
        let mut raw_hit = None;
        let epoch = {
            let mut shard = self.shards[idx].lock();
            if self.decoded_per_shard > 0 {
                if let Some(segment) = shard.decoded.get(&(key.clone(), sampling)) {
                    shard.decoded_hits += 1;
                    return Ok(Some(DecodedRead {
                        segment,
                        source: ReadSource::DecodedCache,
                    }));
                }
            }
            if self.raw_per_shard > 0 {
                if let Some(bytes) = shard.raw.get(key) {
                    shard.raw_hits += 1;
                    raw_hit = Some(bytes);
                }
            }
            shard.epoch
        };
        let (bytes, source) = match raw_hit {
            Some(bytes) => (bytes, ReadSource::RawCache),
            None => match self.read_miss(key)? {
                Some((bytes, source)) => (Arc::new(bytes), source),
                None => return Ok(None),
            },
        };
        // Decode outside the shard lock: parallel prefetch workers hitting
        // the same shard must not serialise on the decode.
        let segment = Arc::new(decode_entry(&bytes, sampling)?);
        let mut shard = self.shards[idx].lock();
        if source == ReadSource::Disk && self.raw_per_shard > 0 {
            shard.raw_misses += 1;
            if shard.epoch == epoch {
                let evicted = shard
                    .raw
                    .insert(key.clone(), Arc::clone(&bytes), bytes.len() as u64);
                shard.raw_evictions += evicted;
            }
        }
        if self.decoded_per_shard > 0 {
            shard.decoded_misses += 1;
            if shard.epoch == epoch {
                let evicted =
                    shard
                        .decoded
                        .insert((key.clone(), sampling), Arc::clone(&segment), 1);
                shard.decoded_evictions += evicted;
            }
        }
        Ok(Some(DecodedRead { segment, source }))
    }

    /// Store a segment, dropping any cached entries for the key so the next
    /// read observes the new bytes. New values are deliberately *not*
    /// admitted to the cache: ingestion would otherwise evict the hot query
    /// working set with segments nobody has read yet.
    pub fn put(&self, key: &SegmentKey, value: &[u8]) -> Result<()> {
        self.store.put(key, value)?;
        self.invalidate(key);
        Ok(())
    }

    /// Delete a segment (erosion's primitive), dropping any cached entries
    /// for the key so an erode-then-read can never serve stale bytes.
    pub fn delete(&self, key: &SegmentKey) -> Result<()> {
        self.store.delete(key)?;
        self.invalidate(key);
        Ok(())
    }

    /// `true` if the key exists in the store.
    #[must_use]
    pub fn contains(&self, key: &SegmentKey) -> bool {
        self.store.contains(key)
    }

    /// Compact every store shard. Compaction rewrites where live records
    /// sit, never their value bytes, so cached entries stay valid and no
    /// invalidation happens.
    pub fn compact(&self) -> Result<u64> {
        self.store.compact()
    }

    /// Aggregate cache statistics (the sum across every shard).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for stats in self.shard_cache_stats() {
            total.accumulate(&stats);
        }
        total
    }

    /// Per-shard cache statistics, in shard order. Empty when the cache is
    /// disabled.
    #[must_use]
    pub fn shard_cache_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|shard| shard.lock().stats())
            .collect()
    }

    /// Drop the key's entries from both tiers and bump the shard's epoch so
    /// in-flight fills that read before this write cannot be admitted.
    fn invalidate(&self, key: &SegmentKey) {
        if self.shards.is_empty() {
            return;
        }
        let idx = self.store.shard_index(key);
        let mut shard = self.shards[idx].lock();
        shard.epoch += 1;
        let mut removed = u64::from(shard.raw.remove(key));
        // Sampling rates are a small enum, so dropping every possible tier-2
        // entry for the key is O(variants) point removals — never a scan of
        // the whole shard cache under its lock.
        let mut probe = (key.clone(), FrameSampling::Full);
        for sampling in FrameSampling::ALL {
            probe.1 = sampling;
            removed += u64::from(shard.decoded.remove(&probe));
        }
        shard.invalidations += removed;
    }
}

/// Parse and decode one serialized segment at the given sampling rate.
fn decode_entry(bytes: &[u8], sampling: FrameSampling) -> Result<DecodedSegment> {
    let data = SegmentData::from_bytes(bytes)?;
    let (frames, _) = data.decode_sampled(sampling)?;
    Ok(DecodedSegment {
        storage_format: data.storage_format(),
        frame_count: data.frame_count(),
        raw_len: bytes.len() as u64,
        frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SegmentStore;
    use vstore_codec::container::RawSegment;
    use vstore_codec::encode_segment;
    use vstore_codec::frame::materialize_clip;
    use vstore_datasets::{Dataset, VideoSource};
    use vstore_types::{Fidelity, FormatId, KeyframeInterval, SpeedStep, VStoreError};

    fn key(index: u64) -> SegmentKey {
        SegmentKey::new("reader", FormatId(1), index)
    }

    fn mem_reader(cache_bytes: u64, decoded_entries: usize) -> SegmentReader {
        let store = Arc::new(SegmentStore::open_mem_with_shards(4).unwrap());
        SegmentReader::new(store, cache_bytes, decoded_entries)
    }

    /// A small but real serialized segment (15 raw frames of one dataset).
    fn segment_bytes() -> Vec<u8> {
        let source = VideoSource::new(Dataset::Jackson);
        let fidelity = Fidelity::new(
            vstore_types::ImageQuality::Good,
            vstore_types::CropFactor::C75,
            vstore_types::Resolution::R180,
            vstore_types::FrameSampling::Full,
        );
        let frames = materialize_clip(&source.clip(0, 15), fidelity);
        SegmentData::Raw(RawSegment { fidelity, frames }).to_bytes()
    }

    /// An encoded variant, so decode_sampled actually decodes.
    fn encoded_segment_bytes() -> Vec<u8> {
        let source = VideoSource::new(Dataset::Jackson);
        let fidelity = Fidelity::new(
            vstore_types::ImageQuality::Good,
            vstore_types::CropFactor::C75,
            vstore_types::Resolution::R180,
            vstore_types::FrameSampling::Full,
        );
        let frames = materialize_clip(&source.clip(0, 15), fidelity);
        let encoded = encode_segment(&frames, KeyframeInterval::K5, SpeedStep::Fast).unwrap();
        SegmentData::Encoded(encoded).to_bytes()
    }

    #[test]
    fn raw_tier_serves_second_read_from_cache() {
        let reader = mem_reader(1 << 20, 0);
        reader.put(&key(0), b"segment-bytes").unwrap();
        let (bytes, source) = reader.get(&key(0)).unwrap().unwrap();
        assert_eq!(&*bytes, b"segment-bytes");
        assert_eq!(source, ReadSource::Disk);
        let (bytes, source) = reader.get(&key(0)).unwrap().unwrap();
        assert_eq!(&*bytes, b"segment-bytes");
        assert_eq!(source, ReadSource::RawCache);
        let stats = reader.cache_stats();
        assert_eq!(stats.raw_hits, 1);
        assert_eq!(stats.raw_misses, 1);
        assert_eq!(stats.raw_resident_bytes, b"segment-bytes".len() as u64);
    }

    #[test]
    fn disabled_reader_is_a_passthrough_with_no_stats() {
        let reader = mem_reader(0, 0);
        assert!(!reader.is_cache_enabled());
        reader.put(&key(0), b"plain").unwrap();
        for _ in 0..3 {
            let (bytes, source) = reader.get(&key(0)).unwrap().unwrap();
            assert_eq!(&*bytes, b"plain");
            assert_eq!(source, ReadSource::Disk);
        }
        assert_eq!(reader.cache_stats(), CacheStats::default());
        assert!(reader.shard_cache_stats().is_empty());
    }

    #[test]
    fn put_and_delete_invalidate_cached_bytes() {
        let reader = mem_reader(1 << 20, 0);
        reader.put(&key(0), b"old").unwrap();
        reader.get(&key(0)).unwrap().unwrap(); // warm
        reader.put(&key(0), b"new").unwrap();
        let (bytes, source) = reader.get(&key(0)).unwrap().unwrap();
        assert_eq!(&*bytes, b"new", "overwrite must not serve stale bytes");
        assert_eq!(source, ReadSource::Disk);
        reader.get(&key(0)).unwrap().unwrap(); // warm again
        reader.delete(&key(0)).unwrap();
        assert!(
            reader.get(&key(0)).unwrap().is_none(),
            "delete must not leave a cached ghost"
        );
        assert!(reader.cache_stats().invalidations >= 2);
    }

    #[test]
    fn lru_evicts_oldest_and_never_admits_oversized_values() {
        // Single shard so the capacity arithmetic is exact.
        let store = Arc::new(SegmentStore::open_mem_with_shards(1).unwrap());
        let reader = SegmentReader::new(store, 100, 0);
        reader.put(&key(1), &[1u8; 60]).unwrap();
        reader.put(&key(2), &[2u8; 60]).unwrap();
        reader.get(&key(1)).unwrap().unwrap(); // resident: {1}
        reader.get(&key(2)).unwrap().unwrap(); // 60 + 60 > 100 → evicts 1
        let stats = reader.cache_stats();
        assert_eq!(stats.raw_evictions, 1);
        assert_eq!(stats.raw_resident_bytes, 60);
        let (_, source) = reader.get(&key(2)).unwrap().unwrap();
        assert_eq!(source, ReadSource::RawCache);
        let (_, source) = reader.get(&key(1)).unwrap().unwrap();
        assert_eq!(source, ReadSource::Disk, "evicted entry re-reads from disk");
        // An entry larger than the whole cache is not admitted at all.
        reader.put(&key(3), &[3u8; 200]).unwrap();
        reader.get(&key(3)).unwrap().unwrap();
        let (_, source) = reader.get(&key(3)).unwrap().unwrap();
        assert_eq!(source, ReadSource::Disk);
    }

    #[test]
    fn decoded_tier_skips_decode_on_repeat_and_is_keyed_by_sampling() {
        let reader = mem_reader(0, 64);
        let bytes = encoded_segment_bytes();
        reader.put(&key(0), &bytes).unwrap();

        let full = FrameSampling::Full;
        let sparse = FrameSampling::S1_6;
        let first = reader.get_decoded(&key(0), full).unwrap().unwrap();
        assert_eq!(first.source, ReadSource::Disk);
        assert_eq!(first.segment.raw_len, bytes.len() as u64);
        assert_eq!(first.segment.frame_count, 15);
        let second = reader.get_decoded(&key(0), full).unwrap().unwrap();
        assert_eq!(second.source, ReadSource::DecodedCache);
        assert_eq!(second.segment.frames.len(), first.segment.frames.len());
        // A different sampling rate is a different tier-2 key.
        let sampled = reader.get_decoded(&key(0), sparse).unwrap().unwrap();
        assert_eq!(sampled.source, ReadSource::Disk);
        assert!(sampled.segment.frames.len() < first.segment.frames.len());
        let stats = reader.cache_stats();
        assert_eq!(stats.decoded_hits, 1);
        assert_eq!(stats.decoded_misses, 2);
        assert_eq!(stats.decoded_entries, 2);
    }

    #[test]
    fn both_tiers_compose_raw_hit_feeds_decoded_fill() {
        let reader = mem_reader(4 << 20, 64);
        let bytes = segment_bytes();
        reader.put(&key(0), &bytes).unwrap();
        assert_eq!(
            reader
                .get_decoded(&key(0), FrameSampling::Full)
                .unwrap()
                .unwrap()
                .source,
            ReadSource::Disk
        );
        // Same key at a new sampling: tier 2 misses, tier 1 hits.
        assert_eq!(
            reader
                .get_decoded(&key(0), FrameSampling::S1_30)
                .unwrap()
                .unwrap()
                .source,
            ReadSource::RawCache
        );
        assert_eq!(
            reader
                .get_decoded(&key(0), FrameSampling::S1_30)
                .unwrap()
                .unwrap()
                .source,
            ReadSource::DecodedCache
        );
    }

    #[test]
    fn delete_invalidates_every_sampling_of_the_key() {
        let reader = mem_reader(1 << 20, 64);
        let bytes = segment_bytes();
        reader.put(&key(0), &bytes).unwrap();
        reader.get_decoded(&key(0), FrameSampling::Full).unwrap();
        reader.get_decoded(&key(0), FrameSampling::S1_6).unwrap();
        assert_eq!(reader.cache_stats().decoded_entries, 2);
        reader.delete(&key(0)).unwrap();
        assert_eq!(reader.cache_stats().decoded_entries, 0);
        assert!(reader
            .get_decoded(&key(0), FrameSampling::Full)
            .unwrap()
            .is_none());
    }

    #[test]
    fn decode_errors_surface_and_are_not_cached() {
        let reader = mem_reader(1 << 20, 64);
        reader.put(&key(0), b"not a segment").unwrap();
        for _ in 0..2 {
            let err = reader
                .get_decoded(&key(0), FrameSampling::Full)
                .unwrap_err();
            assert!(matches!(err, VStoreError::Corruption(_)), "{err}");
        }
        assert_eq!(reader.cache_stats().decoded_entries, 0);
    }

    /// Regression (stats rate math): an idle cache renders 0% rates —
    /// never NaN from 0/0 — and a counter-saturated cache renders without
    /// overflowing the totals (a debug-build panic before the hardening).
    #[test]
    fn stats_display_handles_empty_and_saturated_counters() {
        let empty = CacheStats::default();
        assert!(empty.is_idle());
        assert_eq!(empty.raw_hit_rate(), 0.0);
        assert_eq!(empty.decoded_hit_rate(), 0.0);
        let rendered = empty.to_string();
        assert!(rendered.contains("0/0 hits (0%)"), "{rendered}");
        assert!(!rendered.contains("NaN"), "{rendered}");

        let saturated = CacheStats {
            raw_hits: u64::MAX,
            raw_misses: u64::MAX,
            decoded_hits: u64::MAX,
            decoded_misses: 1,
            ..CacheStats::default()
        };
        // Totals saturate instead of wrapping/panicking, and the rates stay
        // finite fractions.
        let rendered = saturated.to_string();
        assert!(!rendered.contains("NaN"), "{rendered}");
        assert!(saturated.raw_hit_rate() > 0.0 && saturated.raw_hit_rate() <= 1.0);
        assert!(saturated.decoded_hit_rate() > 0.0 && saturated.decoded_hit_rate() <= 1.0);
        let mut total = saturated;
        total.accumulate(&saturated);
        assert_eq!(total.raw_hits, u64::MAX, "accumulate must saturate");
    }

    #[test]
    fn concurrent_readers_and_writers_never_observe_stale_bytes() {
        let store = Arc::new(SegmentStore::open_mem_with_shards(4).unwrap());
        let reader = Arc::new(SegmentReader::new(Arc::clone(&store), 1 << 20, 32));
        let bytes = segment_bytes();
        for i in 0..8 {
            reader.put(&key(i), &bytes).unwrap();
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reader = Arc::clone(&reader);
                let bytes = bytes.clone();
                scope.spawn(move || {
                    for round in 0..200u64 {
                        let k = key(round % 8);
                        if let Some((got, _)) = reader.get(&k).unwrap() {
                            assert_eq!(*got, bytes, "stale or torn read");
                        }
                        if let Some(read) = reader.get_decoded(&k, FrameSampling::Full).unwrap() {
                            assert_eq!(read.segment.raw_len, bytes.len() as u64);
                        }
                    }
                });
            }
            let writer = Arc::clone(&reader);
            let value = bytes.clone();
            scope.spawn(move || {
                for round in 0..100u64 {
                    let k = key(round % 8);
                    writer.delete(&k).unwrap();
                    writer.put(&k, &value).unwrap();
                }
            });
        });
        // After the dust settles every key reads back the canonical bytes.
        for i in 0..8 {
            let (got, _) = reader.get(&key(i)).unwrap().unwrap();
            assert_eq!(*got, bytes);
        }
    }
}
