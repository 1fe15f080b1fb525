//! The unified read path: a [`SegmentReader`] fronting
//! [`SegmentStore::get`] with a **two-tier, shard-aware segment cache**.
//!
//! VStore's retrieval path is its bottleneck (§5, Figure 6 of the paper):
//! every cascade stage and every repeated query over a hot stream re-pays
//! disk + CRC + decode + conversion for the same segments. The reader
//! interposes two caches between the query engine and the store:
//!
//! * **Tier 1 — raw bytes.** A per-shard LRU over the serialized segment
//!   bytes, bounded by `cache_bytes` split across the store's shards. A hit
//!   skips the backend read *and* the CRC verification.
//! * **Tier 2 — views.** A per-shard LRU over [`DecodedSegment`]s holding
//!   *what a reader consumes*, bounded by `decoded_cache_entries` views: the
//!   frames at a subscription's consumption fidelity, stamped with it
//!   ([`get_view`](SegmentReader::get_view)), or at the stored fidelity and
//!   a sampling rate ([`get_decoded`](SegmentReader::get_decoded)). The fill
//!   decodes the sampled frames straight from the bytes it was handed
//!   ([`SegmentData::decode_bytes`]) and converts them **once, by value**:
//!   a conversion that changes only the stamp moves every plane, a real one
//!   (a consumer coalesced onto a richer stored format) is paid per cached
//!   segment, not per query. A hit skips parsing, decoding and conversion
//!   and hands out the frames behind their `Arc` — a refcount bump. Only
//!   the view asked for is kept; the stored-fidelity frames it was made
//!   from are not cached beside it.
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
//! *invalidation epoch* and drops the key's bytes and **every view of the
//! key**, so an erode-then-read can never serve stale frames. The views of
//! one key live under one tier-2 entry (weighing as many units as it holds
//! views, evicted whole), so dropping them is one removal however many
//! consumers read the key. Fills re-check the epoch before admitting an
//! entry, which closes the race where a concurrent delete lands between a
//! fill's store read and its cache insert (the fill is then discarded
//! instead of resurrecting dead data). Compaction and log roll-over rewrite
//! *where* live records sit, never their value bytes, so cached entries
//! stay valid across both and need no re-keying.

use crate::key::SegmentKey;
use crate::store::SegmentStore;
use crate::tier::TierEngine;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};
use vstore_codec::{convert_frames, SegmentData, VideoFrame};
use vstore_types::sync::lock_unpoisoned;
use vstore_types::{ConsumptionFormat, Fidelity, FrameSampling, Result, StorageFormat};

/// Where a read was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    /// Tier 2: the view cache (no store read, no decode, no conversion).
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

/// One view of a segment as tier 2 caches it: the frames a reader asked
/// for, plus the metadata query accounting needs without re-parsing the
/// container.
#[derive(Debug, Clone)]
pub struct DecodedSegment {
    /// The storage format the segment is stored in.
    pub storage_format: StorageFormat,
    /// Number of frames stored in the segment (before sampling).
    pub frame_count: usize,
    /// Length in bytes of the serialized segment the frames came from.
    pub raw_len: u64,
    /// The view's frames in presentation order: sampled and, for a
    /// consumer's view, converted to (and stamped with) its fidelity.
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
    /// Tier-2 reads served from the view cache.
    pub decoded_hits: u64,
    /// Tier-2 reads that had to decode (from tier 1 or the store).
    pub decoded_misses: u64,
    /// Tier-2 views evicted to make room.
    pub decoded_evictions: u64,
    /// Views currently resident in tier 2.
    pub decoded_entries: u64,
    /// Cached entries (tier-1 bytes, tier-2 views) dropped by writes (put /
    /// delete / erosion).
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

impl<K: Eq + Hash + Ord + Clone, V> LruCache<K, V> {
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
    fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(key)?;
        // The order map already owns this key: move it to the new tick
        // instead of cloning one per hit.
        let owned = self
            .order
            .remove(&entry.tick)
            .unwrap_or_else(|| key.clone());
        entry.tick = tick;
        self.order.insert(tick, owned);
        Some(&entry.value)
    }

    /// Insert a key, evicting least-recently-used entries until the weight
    /// fits. Returns the evicted values. An entry heavier than the whole
    /// cache is not admitted.
    #[expect(
        clippy::expect_used,
        reason = "the loop guard proves used > 0, so both maps are non-empty and agree on \
                  membership: eviction cannot miss"
    )]
    fn insert(&mut self, key: K, value: V, weight: u64) -> Vec<V> {
        let mut evicted = Vec::new();
        if weight > self.capacity {
            return evicted;
        }
        self.remove(&key);
        while self.used + weight > self.capacity {
            let (&oldest_tick, _) = self.order.iter().next().expect("used > 0 implies entries");
            let oldest_key = self.order.remove(&oldest_tick).expect("tick just seen");
            let old = self.map.remove(&oldest_key).expect("order and map agree");
            self.used -= old.weight;
            evicted.push(old.value);
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

    /// Remove a key, returning the value it held.
    fn remove(&mut self, key: &K) -> Option<V> {
        let entry = self.map.remove(key)?;
        self.order.remove(&entry.tick);
        self.used -= entry.weight;
        Some(entry.value)
    }
}

/// Which frames of a segment a tier-2 view holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum View {
    /// The stored fidelity, sampled at a rate
    /// ([`SegmentReader::get_decoded`]).
    Stored(FrameSampling),
    /// A consumer's consumption fidelity ([`SegmentReader::get_view`]).
    Consumer(Fidelity),
}

/// One shard's cache state: both tiers, the invalidation epoch and the
/// counters, all behind a single short-held mutex.
struct ShardCache {
    raw: LruCache<SegmentKey, Arc<Vec<u8>>>,
    /// One entry per key, holding every cached view of it and weighing as
    /// many units: a write drops them all with one removal.
    decoded: LruCache<SegmentKey, Vec<(View, Arc<DecodedSegment>)>>,
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
            decoded_entries: self.decoded.used,
            invalidations: self.invalidations,
        }
    }

    /// Tier-1 probe, counted as a hit when it finds the bytes.
    fn cached_bytes(&mut self, key: &SegmentKey) -> Option<Arc<Vec<u8>>> {
        let bytes = Arc::clone(self.raw.get(key)?);
        self.raw_hits += 1;
        Some(bytes)
    }

    /// Count a tier-1 miss the store served and admit its bytes, unless a
    /// write has landed on the shard since `epoch` was read.
    fn admit_bytes(&mut self, key: &SegmentKey, bytes: &Arc<Vec<u8>>, epoch: u64) {
        self.raw_misses += 1;
        if self.epoch == epoch {
            let evicted = self
                .raw
                .insert(key.clone(), Arc::clone(bytes), bytes.len() as u64);
            self.raw_evictions += evicted.len() as u64;
        }
    }

    /// Tier-2 probe, counted as a hit when the key holds `view`.
    fn cached_view(&mut self, key: &SegmentKey, view: View) -> Option<Arc<DecodedSegment>> {
        let (_, segment) = self.decoded.get(key)?.iter().find(|(v, _)| *v == view)?;
        let segment = Arc::clone(segment);
        self.decoded_hits += 1;
        Some(segment)
    }

    /// Count a tier-2 miss and admit its fill beside the key's other views,
    /// unless a write has landed on the shard since `epoch` was read.
    fn admit_view(
        &mut self,
        key: &SegmentKey,
        view: View,
        segment: &Arc<DecodedSegment>,
        epoch: u64,
    ) {
        self.decoded_misses += 1;
        if self.epoch != epoch {
            return;
        }
        let mut views = self.decoded.remove(key).unwrap_or_default();
        // A concurrent fill of the same view may have got here first.
        views.retain(|(v, _)| *v != view);
        views.push((view, Arc::clone(segment)));
        // One key never outweighs the shard: its oldest views go first.
        let mut evicted = 0;
        while views.len() as u64 > self.decoded.capacity {
            views.remove(0);
            evicted += 1;
        }
        let weight = views.len() as u64;
        let others = self.decoded.insert(key.clone(), views, weight);
        self.decoded_evictions += evicted + others.iter().map(|v| v.len() as u64).sum::<u64>();
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
            let mut shard = lock_unpoisoned(&self.shards[idx]);
            if let Some(bytes) = shard.cached_bytes(key) {
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
            lock_unpoisoned(&self.shards[idx]).admit_bytes(key, &bytes, epoch);
        }
        Ok(Some((bytes, source)))
    }

    /// Fetch a segment's frames at the **stored** fidelity, sampled at
    /// `sampling`, through both tiers: tier 2 returns the frames outright;
    /// tier 1 skips the store read but still decodes; a full miss reads,
    /// decodes and warms both tiers. `Ok(None)` when the key does not exist.
    pub fn get_decoded(
        &self,
        key: &SegmentKey,
        sampling: FrameSampling,
    ) -> Result<Option<DecodedRead>> {
        self.read_view(key, View::Stored(sampling))
    }

    /// Fetch a segment as the consumer of `consumption` takes it — sampled
    /// at its rate and converted to its fidelity — through both tiers, like
    /// [`get_decoded`](Self::get_decoded). The conversion runs in the fill,
    /// once per cached segment; a tier-2 hit hands out the converted frames
    /// behind their `Arc`. Fails with
    /// [`FidelityUnsatisfiable`](vstore_types::VStoreError::FidelityUnsatisfiable)
    /// when the stored fidelity cannot serve `consumption`.
    pub fn get_view(
        &self,
        key: &SegmentKey,
        consumption: &ConsumptionFormat,
    ) -> Result<Option<DecodedRead>> {
        self.read_view(key, View::Consumer(consumption.fidelity))
    }

    /// The tier-2 half of [`get_view`](Self::get_view): the cached view
    /// (counted as a decoded hit), or `None` without touching tier 1 or the
    /// store. A refcount bump under the shard's cache lock, so a caller
    /// about to fan reads out to other threads can serve the warm ones
    /// itself.
    #[must_use]
    pub fn cached_view(
        &self,
        key: &SegmentKey,
        consumption: &ConsumptionFormat,
    ) -> Option<DecodedRead> {
        if self.decoded_per_shard == 0 {
            return None;
        }
        let segment = lock_unpoisoned(&self.shards[self.store.shard_index(key)])
            .cached_view(key, View::Consumer(consumption.fidelity))?;
        Some(DecodedRead {
            segment,
            source: ReadSource::DecodedCache,
        })
    }

    fn read_view(&self, key: &SegmentKey, view: View) -> Result<Option<DecodedRead>> {
        if self.shards.is_empty() {
            let Some((bytes, source)) = self.read_miss(key)? else {
                return Ok(None);
            };
            return Ok(Some(DecodedRead {
                segment: Arc::new(decode_entry(&bytes, view)?),
                source,
            }));
        }
        let idx = self.store.shard_index(key);
        let mut raw_hit = None;
        let epoch = {
            let mut shard = lock_unpoisoned(&self.shards[idx]);
            if self.decoded_per_shard > 0 {
                if let Some(segment) = shard.cached_view(key, view) {
                    return Ok(Some(DecodedRead {
                        segment,
                        source: ReadSource::DecodedCache,
                    }));
                }
            }
            if self.raw_per_shard > 0 {
                raw_hit = shard.cached_bytes(key);
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
        let segment = Arc::new(decode_entry(&bytes, view)?);
        let mut shard = lock_unpoisoned(&self.shards[idx]);
        if source == ReadSource::Disk && self.raw_per_shard > 0 {
            shard.admit_bytes(key, &bytes, epoch);
        }
        if self.decoded_per_shard > 0 {
            shard.admit_view(key, view, &segment, epoch);
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
            .map(|shard| lock_unpoisoned(shard).stats())
            .collect()
    }

    /// Drop the key's bytes and every view of it and bump the shard's epoch
    /// so in-flight fills that read before this write cannot be admitted.
    fn invalidate(&self, key: &SegmentKey) {
        if self.shards.is_empty() {
            return;
        }
        let idx = self.store.shard_index(key);
        let mut shard = lock_unpoisoned(&self.shards[idx]);
        shard.epoch += 1;
        let views = shard.decoded.remove(key).map_or(0, |views| views.len());
        shard.invalidations += u64::from(shard.raw.remove(key).is_some()) + views as u64;
    }
}

/// Decode one serialized segment into `view`, straight from the buffer the
/// store or tier 1 handed over. Only the view is kept: the stored-fidelity
/// frames a consumer's view is converted from move into it or are dropped.
fn decode_entry(bytes: &[u8], view: View) -> Result<DecodedSegment> {
    let (sampling, consumption) = match view {
        View::Stored(sampling) => (sampling, None),
        View::Consumer(fidelity) => (fidelity.sampling, Some(ConsumptionFormat::new(fidelity))),
    };
    let decoded = SegmentData::decode_bytes(bytes, sampling)?;
    let frames = match consumption {
        None => decoded.frames,
        Some(consumption) => convert_frames(decoded.frames, &consumption)?,
    };
    Ok(DecodedSegment {
        storage_format: decoded.storage_format,
        frame_count: decoded.frame_count,
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

    /// A consumer strictly poorer than `encoded_segment_bytes`' stored
    /// fidelity on every knob, and one equal to it on all but sampling.
    fn poorer_consumer() -> ConsumptionFormat {
        ConsumptionFormat::new(Fidelity::new(
            vstore_types::ImageQuality::Bad,
            vstore_types::CropFactor::C50,
            vstore_types::Resolution::R100,
            FrameSampling::S1_6,
        ))
    }

    fn sampling_only_consumer() -> ConsumptionFormat {
        ConsumptionFormat::new(Fidelity::new(
            vstore_types::ImageQuality::Good,
            vstore_types::CropFactor::C75,
            vstore_types::Resolution::R180,
            FrameSampling::S1_2,
        ))
    }

    #[test]
    fn a_view_is_the_conversion_of_the_decode_stamped_with_the_consumer_fidelity() {
        let bytes = encoded_segment_bytes();
        let data = SegmentData::from_bytes(&bytes).unwrap();
        for cache in [(0, 0), (1 << 20, 64)] {
            let reader = mem_reader(cache.0, cache.1);
            reader.put(&key(0), &bytes).unwrap();
            for consumption in [poorer_consumer(), sampling_only_consumer()] {
                let (stored, _) = data.decode_sampled(consumption.fidelity.sampling).unwrap();
                let expected = convert_frames(stored, &consumption).unwrap();
                assert!(!expected.is_empty());
                for _ in 0..2 {
                    let read = reader.get_view(&key(0), &consumption).unwrap().unwrap();
                    assert_eq!(read.segment.frames, expected);
                    assert!(read
                        .segment
                        .frames
                        .iter()
                        .all(|f| f.fidelity == consumption.fidelity));
                    assert_eq!(read.segment.frame_count, 15);
                    assert_eq!(read.segment.raw_len, bytes.len() as u64);
                    assert_eq!(read.segment.storage_format, data.storage_format());
                }
            }
        }
    }

    #[test]
    fn a_warm_view_is_a_refcount_bump() {
        let reader = mem_reader(1 << 20, 64);
        reader.put(&key(0), &encoded_segment_bytes()).unwrap();
        let consumption = poorer_consumer();
        assert!(reader.cached_view(&key(0), &consumption).is_none());
        let cold = reader.get_view(&key(0), &consumption).unwrap().unwrap();
        assert_eq!(cold.source, ReadSource::Disk);
        let mut before = reader.cache_stats();
        assert_eq!((before.decoded_hits, before.decoded_misses), (0, 1));
        // Through the full read and through the tier-2 probe alike, a hit
        // hands out the very segment the fill built and counts one decoded
        // hit — no other counter moves.
        for probe_only in [false, true] {
            let warm = if probe_only {
                reader.cached_view(&key(0), &consumption).unwrap()
            } else {
                reader.get_view(&key(0), &consumption).unwrap().unwrap()
            };
            assert_eq!(warm.source, ReadSource::DecodedCache);
            assert!(Arc::ptr_eq(&warm.segment, &cold.segment));
            before.decoded_hits += 1;
            assert_eq!(reader.cache_stats(), before);
        }
        // The stored-fidelity view of the same key is a view of its own.
        let stored = reader
            .get_decoded(&key(0), consumption.fidelity.sampling)
            .unwrap()
            .unwrap();
        assert_eq!(stored.source, ReadSource::RawCache);
        assert_ne!(stored.segment.frames, cold.segment.frames);
        assert_eq!(reader.cache_stats().decoded_entries, 2);
    }

    #[test]
    fn put_and_delete_drop_every_view_of_the_key_and_count_each() {
        let reader = mem_reader(1 << 20, 64);
        let bytes = encoded_segment_bytes();
        let views = |reader: &SegmentReader| {
            reader.get_view(&key(0), &poorer_consumer()).unwrap();
            reader.get_view(&key(0), &sampling_only_consumer()).unwrap();
            reader.get_decoded(&key(0), FrameSampling::Full).unwrap();
            reader.get_view(&key(1), &poorer_consumer()).unwrap();
        };
        reader.put(&key(0), &bytes).unwrap();
        reader.put(&key(1), &bytes).unwrap();
        assert_eq!(reader.cache_stats().invalidations, 0);
        views(&reader);
        assert_eq!(reader.cache_stats().decoded_entries, 4);
        // An overwrite drops the key's bytes and its three views — four
        // entries, four invalidations — and leaves the other key alone.
        reader.put(&key(0), &bytes).unwrap();
        let stats = reader.cache_stats();
        assert_eq!((stats.decoded_entries, stats.invalidations), (1, 4));
        for consumption in [poorer_consumer(), sampling_only_consumer()] {
            assert!(reader.cached_view(&key(0), &consumption).is_none());
        }
        assert!(reader.cached_view(&key(1), &poorer_consumer()).is_some());
        views(&reader);
        reader.delete(&key(0)).unwrap();
        let stats = reader.cache_stats();
        assert_eq!((stats.decoded_entries, stats.invalidations), (1, 8));
        assert!(reader
            .get_view(&key(0), &poorer_consumer())
            .unwrap()
            .is_none());
    }

    #[test]
    fn a_key_weighs_its_views_and_is_evicted_whole() {
        // Single shard so the capacity arithmetic is exact: three views.
        let store = Arc::new(SegmentStore::open_mem_with_shards(1).unwrap());
        let reader = SegmentReader::new(store, 0, 3);
        let bytes = encoded_segment_bytes();
        reader.put(&key(0), &bytes).unwrap();
        reader.put(&key(1), &bytes).unwrap();
        reader.get_view(&key(0), &poorer_consumer()).unwrap();
        reader.get_view(&key(0), &sampling_only_consumer()).unwrap();
        reader.get_view(&key(1), &poorer_consumer()).unwrap();
        let stats = reader.cache_stats();
        assert_eq!((stats.decoded_entries, stats.decoded_evictions), (3, 0));
        // A second view of key 1 needs a unit: key 0, the least recently
        // used entry, goes with both its views.
        reader.get_view(&key(1), &sampling_only_consumer()).unwrap();
        let stats = reader.cache_stats();
        assert_eq!((stats.decoded_entries, stats.decoded_evictions), (2, 2));
        assert!(reader.cached_view(&key(0), &poorer_consumer()).is_none());
        assert!(reader.cached_view(&key(1), &poorer_consumer()).is_some());
        // One key never outweighs the shard: its oldest view makes room.
        reader.get_decoded(&key(1), FrameSampling::Full).unwrap();
        reader.get_decoded(&key(1), FrameSampling::S1_30).unwrap();
        let stats = reader.cache_stats();
        assert_eq!((stats.decoded_entries, stats.decoded_evictions), (3, 3));
        assert!(reader.cached_view(&key(1), &poorer_consumer()).is_none());
        assert!(reader
            .cached_view(&key(1), &sampling_only_consumer())
            .is_some());
    }

    #[test]
    fn a_consumer_the_stored_fidelity_cannot_serve_is_refused_and_not_cached() {
        let reader = mem_reader(1 << 20, 64);
        reader.put(&key(0), &encoded_segment_bytes()).unwrap();
        let richer = ConsumptionFormat::new(Fidelity::INGESTION);
        let err = reader.get_view(&key(0), &richer).unwrap_err();
        assert!(
            matches!(err, VStoreError::FidelityUnsatisfiable(_)),
            "{err}"
        );
        assert_eq!(reader.cache_stats().decoded_entries, 0);
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
