//! The unified read path: a [`SegmentReader`] fronting
//! [`SegmentStore::get`] with a **shard-aware view cache**.
//!
//! VStore's retrieval path is its bottleneck (§5, Figure 6 of the paper):
//! every cascade stage and every repeated query over a hot stream re-pays
//! disk + CRC + decode + conversion for the same segments. The reader caches
//! what a retrieval is for — the frames a reader consumes — in one LRU per
//! store shard. A view is one segment's frames at a subscription's
//! consumption fidelity, stamped with it
//! ([`get_view`](SegmentReader::get_view)), or at the stored fidelity and a
//! sampling rate ([`get_decoded`](SegmentReader::get_decoded)). The fill
//! decodes the sampled frames straight from the bytes the store handed over
//! ([`SegmentData::decode_bytes`]) and converts them **once, by value**: a
//! conversion that changes only the stamp moves every plane, a real one (a
//! consumer coalesced onto a richer stored format) is paid per cached
//! segment, not per query. A hit skips the store read, the CRC, parsing,
//! decoding and conversion and hands out the frames behind their `Arc` — a
//! refcount bump. Only the view asked for is kept; neither the serialized
//! bytes nor the stored-fidelity frames it was made from are cached beside
//! it.
//!
//! Each shard's LRU has two bounds, both split evenly across the store's
//! shards: `cache_bytes`, weighing each view by its frames' plane bytes, and
//! `decoded_entries`, counting views. Sharding follows the store's key-hash
//! routing, so cache lookups never contend across shards and stay lock-cheap
//! under the parallel query runtime. With either bound at 0 the reader is a
//! pure passthrough and the read path is byte-identical to the bare store.
//!
//! ## Coherence
//!
//! All mutations **must** flow through the reader ([`put`](SegmentReader::put)
//! / [`delete`](SegmentReader::delete)): each write bumps the target shard's
//! *invalidation epoch* and drops **every view of the key**, so an
//! erode-then-read can never serve stale frames. The views of one key live
//! under one LRU entry (weighing what its views weigh, evicted whole), so
//! dropping them is one removal however many consumers read the key. Fills
//! re-check the epoch before admitting a view, which closes the race where a
//! concurrent write lands between a fill's store read and its cache insert
//! (the fill is then discarded instead of resurrecting dead data).
//! Compaction and log roll-over rewrite *where* live records sit, never
//! their value bytes, so cached views stay valid across both and need no
//! re-keying.

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
    /// The view cache (no store read, no decode, no conversion).
    DecodedCache,
    /// The segment store itself (a real backend read).
    Disk,
    /// The cold storage tier (the segment was demoted by erosion; it may
    /// have been promoted back by this read).
    Cold,
}

/// One view of a segment as the cache holds it: the frames a reader asked
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

impl DecodedSegment {
    /// What the view weighs against the cache's byte bound: its frames'
    /// plane bytes.
    fn plane_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.plane.len() as u64).sum()
    }
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

/// Statistics of one shard's view cache (or the aggregate across shards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from the view cache.
    pub decoded_hits: u64,
    /// Reads that had to read and decode (the key existed and decoded).
    pub decoded_misses: u64,
    /// Views evicted to make room.
    pub decoded_evictions: u64,
    /// Views currently resident.
    pub decoded_entries: u64,
    /// Plane bytes of the resident views.
    pub resident_bytes: u64,
    /// Cached views dropped by writes (put / delete / erosion).
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
    /// let shard = CacheStats { decoded_hits: 3, decoded_misses: 1, ..Default::default() };
    /// total.accumulate(&shard);
    /// total.accumulate(&shard);
    /// assert_eq!(total.decoded_hits, 6);
    /// assert!((total.decoded_hit_rate() - 0.75).abs() < 1e-12);
    /// ```
    /// All additions saturate: a counter pinned at `u64::MAX` (a saturated,
    /// long-lived store) must degrade gracefully, never panic an operator's
    /// stats call in debug builds or wrap to a nonsense aggregate in
    /// release.
    pub fn accumulate(&mut self, other: &CacheStats) {
        self.decoded_hits = self.decoded_hits.saturating_add(other.decoded_hits);
        self.decoded_misses = self.decoded_misses.saturating_add(other.decoded_misses);
        self.decoded_evictions = self
            .decoded_evictions
            .saturating_add(other.decoded_evictions);
        self.decoded_entries = self.decoded_entries.saturating_add(other.decoded_entries);
        self.resident_bytes = self.resident_bytes.saturating_add(other.resident_bytes);
        self.invalidations = self.invalidations.saturating_add(other.invalidations);
    }

    /// Fraction of reads served from cache (0.0 when idle — never NaN).
    #[must_use]
    pub fn decoded_hit_rate(&self) -> f64 {
        let total = self.decoded_hits.saturating_add(self.decoded_misses);
        if total == 0 {
            0.0
        } else {
            self.decoded_hits as f64 / total as f64
        }
    }
}

/// What an LRU entry costs, or what a shard may hold: views, and their
/// plane bytes.
#[derive(Clone, Copy, Default)]
struct Weight {
    views: u64,
    bytes: u64,
}

impl Weight {
    /// The weight of a key's views.
    fn of(views: &[(View, Arc<DecodedSegment>)]) -> Weight {
        Weight {
            views: views.len() as u64,
            bytes: views.iter().map(|(_, s)| s.plane_bytes()).sum(),
        }
    }

    fn fits(self, bound: Weight) -> bool {
        self.views <= bound.views && self.bytes <= bound.bytes
    }

    fn plus(self, other: Weight) -> Weight {
        Weight {
            views: self.views + other.views,
            bytes: self.bytes + other.bytes,
        }
    }

    fn minus(self, other: Weight) -> Weight {
        Weight {
            views: self.views - other.views,
            bytes: self.bytes - other.bytes,
        }
    }
}

/// A weight-bounded LRU map. Recency is tracked with a monotone tick per
/// entry plus a `BTreeMap` from tick to key, so get/insert/evict are all
/// `O(log n)` and fully deterministic.
struct LruCache<K, V> {
    map: HashMap<K, LruEntry<V>>,
    order: BTreeMap<u64, K>,
    tick: u64,
    capacity: Weight,
    used: Weight,
}

struct LruEntry<V> {
    value: V,
    weight: Weight,
    tick: u64,
}

impl<K: Eq + Hash + Ord + Clone, V> LruCache<K, V> {
    fn new(capacity: Weight) -> Self {
        LruCache {
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            capacity,
            used: Weight::default(),
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
        reason = "an entry that does not fit beside the others proves used > 0, so both maps \
                  are non-empty and agree on membership: eviction cannot miss"
    )]
    fn insert(&mut self, key: K, value: V, weight: Weight) -> Vec<V> {
        let mut evicted = Vec::new();
        if !weight.fits(self.capacity) {
            return evicted;
        }
        self.remove(&key);
        while !self.used.plus(weight).fits(self.capacity) {
            let (&oldest_tick, _) = self.order.iter().next().expect("used > 0 implies entries");
            let oldest_key = self.order.remove(&oldest_tick).expect("tick just seen");
            let old = self.map.remove(&oldest_key).expect("order and map agree");
            self.used = self.used.minus(old.weight);
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
        self.used = self.used.plus(weight);
        evicted
    }

    /// Remove a key, returning the value it held.
    fn remove(&mut self, key: &K) -> Option<V> {
        let entry = self.map.remove(key)?;
        self.order.remove(&entry.tick);
        self.used = self.used.minus(entry.weight);
        Some(entry.value)
    }
}

/// Which frames of a segment a view holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum View {
    /// The stored fidelity, sampled at a rate
    /// ([`SegmentReader::get_decoded`]).
    Stored(FrameSampling),
    /// A consumer's consumption fidelity ([`SegmentReader::get_view`]).
    Consumer(Fidelity),
}

/// One shard's cache state: the view LRU, the invalidation epoch and the
/// counters, all behind a single short-held mutex.
struct ShardCache {
    /// One entry per key, holding every cached view of it and weighing what
    /// they weigh: a write drops them all with one removal.
    views: LruCache<SegmentKey, Vec<(View, Arc<DecodedSegment>)>>,
    /// Bumped by every write routed to this shard; fills re-check it before
    /// admitting, so a view read before a concurrent write is discarded
    /// instead of cached stale.
    epoch: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

impl ShardCache {
    fn new(capacity: Weight) -> Self {
        ShardCache {
            views: LruCache::new(capacity),
            epoch: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            decoded_hits: self.hits,
            decoded_misses: self.misses,
            decoded_evictions: self.evictions,
            decoded_entries: self.views.used.views,
            resident_bytes: self.views.used.bytes,
            invalidations: self.invalidations,
        }
    }

    /// Probe, counted as a hit when the key holds `view`.
    fn cached_view(&mut self, key: &SegmentKey, view: View) -> Option<Arc<DecodedSegment>> {
        let (_, segment) = self.views.get(key)?.iter().find(|(v, _)| *v == view)?;
        let segment = Arc::clone(segment);
        self.hits += 1;
        Some(segment)
    }

    /// Count a miss and admit its fill beside the key's other views, unless
    /// a write has landed on the shard since `epoch` was read.
    fn admit_view(
        &mut self,
        key: &SegmentKey,
        view: View,
        segment: &Arc<DecodedSegment>,
        epoch: u64,
    ) {
        self.misses += 1;
        if self.epoch != epoch {
            return;
        }
        let mut views = self.views.remove(key).unwrap_or_default();
        // A concurrent fill of the same view may have got here first.
        views.retain(|(v, _)| *v != view);
        views.push((view, Arc::clone(segment)));
        // One key never outweighs the shard: its oldest views go first. A
        // view heavier than the shard on its own is then refused, and leaves
        // none of the key's older views behind.
        let mut evicted = 0;
        while views.len() > 1 && !Weight::of(&views).fits(self.views.capacity) {
            views.remove(0);
            evicted += 1;
        }
        let weight = Weight::of(&views);
        let others = self.views.insert(key.clone(), views, weight);
        self.evictions += evicted + others.iter().map(|v| v.len() as u64).sum::<u64>();
    }
}

/// The unified read (and invalidating write) path over a [`SegmentStore`].
///
/// See the [module docs](self) for the cache design. The reader is
/// internally synchronised per shard; share it via `Arc` between however
/// many ingest and query threads the deployment runs. Reads not routed
/// through this reader stay correct (the store is the source of truth);
/// writes **must** go through [`put`](Self::put) / [`delete`](Self::delete)
/// or cached views go stale.
pub struct SegmentReader {
    store: Arc<SegmentStore>,
    /// One cache per store shard; empty when the cache is disabled, which
    /// makes every operation a lock-free passthrough.
    shards: Vec<Mutex<ShardCache>>,
    /// The cold-storage tiering engine, once one is attached
    /// ([`attach_tier`](Self::attach_tier)): store misses fall through to
    /// the cold tier and promote on a hit.
    tier: OnceLock<Arc<TierEngine>>,
}

impl std::fmt::Debug for SegmentReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentReader")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl SegmentReader {
    /// A reader over `store` whose view cache holds at most `cache_bytes`
    /// of frame planes and `decoded_entries` views, each bound split evenly
    /// across the store's shards (rounded up to at least one unit per
    /// shard, so the effective bound is per-shard granular). Either bound
    /// at 0 disables the cache: the reader is then a pure passthrough.
    pub fn new(store: Arc<SegmentStore>, cache_bytes: u64, decoded_entries: usize) -> Self {
        let shard_count = store.shard_count().max(1) as u64;
        let per_shard = Weight {
            views: (decoded_entries as u64 / shard_count).max(1),
            bytes: (cache_bytes / shard_count).max(1),
        };
        let shards = if cache_bytes == 0 || decoded_entries == 0 {
            Vec::new()
        } else {
            (0..store.shard_count())
                .map(|_| Mutex::new(ShardCache::new(per_shard)))
                .collect()
        };
        SegmentReader {
            store,
            shards,
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

    /// A passthrough reader: no caching, byte-identical to the bare store.
    pub fn disabled(store: Arc<SegmentStore>) -> Self {
        Self::new(store, 0, 0)
    }

    /// The store behind this reader.
    pub fn store(&self) -> &Arc<SegmentStore> {
        &self.store
    }

    /// Fetch a segment's serialized bytes, uncached — the one miss path:
    /// the hot store, else (when a tier is attached) the cold tier, which
    /// promotes per the engine's configuration. Returns the bytes and which
    /// of the two served them; `Ok(None)` when the key is in neither.
    pub fn get(&self, key: &SegmentKey) -> Result<Option<(Vec<u8>, ReadSource)>> {
        if let Some(bytes) = self.store.get(key)? {
            return Ok(Some((bytes, ReadSource::Disk)));
        }
        match self.tier.get() {
            Some(engine) => engine.read_through(key, self),
            None => Ok(None),
        }
    }

    /// Fetch a segment's frames at the **stored** fidelity, sampled at
    /// `sampling`, through the view cache: a hit returns the frames
    /// outright; a miss reads, decodes and admits them. `Ok(None)` when the
    /// key does not exist.
    pub fn get_decoded(
        &self,
        key: &SegmentKey,
        sampling: FrameSampling,
    ) -> Result<Option<DecodedRead>> {
        self.read_view(key, View::Stored(sampling))
    }

    /// Fetch a segment as the consumer of `consumption` takes it — sampled
    /// at its rate and converted to its fidelity — through the view cache,
    /// like [`get_decoded`](Self::get_decoded). The conversion runs in the
    /// fill, once per cached segment; a hit hands out the converted frames
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

    /// The cache half of [`get_view`](Self::get_view): the cached view
    /// (counted as a hit), or `None` without touching the store. A refcount
    /// bump under the shard's cache lock, so a caller about to fan reads out
    /// to other threads can serve the warm ones itself.
    #[must_use]
    pub fn cached_view(
        &self,
        key: &SegmentKey,
        consumption: &ConsumptionFormat,
    ) -> Option<DecodedRead> {
        let segment = lock_unpoisoned(&self.shards[self.shard_of(key)?])
            .cached_view(key, View::Consumer(consumption.fidelity))?;
        Some(DecodedRead {
            segment,
            source: ReadSource::DecodedCache,
        })
    }

    /// The index of the shard cache `key` routes to; `None` when caching
    /// is off.
    fn shard_of(&self, key: &SegmentKey) -> Option<usize> {
        (!self.shards.is_empty()).then(|| self.store.shard_index(key))
    }

    fn read_view(&self, key: &SegmentKey, view: View) -> Result<Option<DecodedRead>> {
        let cache = match self.shard_of(key) {
            Some(idx) => {
                let mut cache = lock_unpoisoned(&self.shards[idx]);
                if let Some(segment) = cache.cached_view(key, view) {
                    return Ok(Some(DecodedRead {
                        segment,
                        source: ReadSource::DecodedCache,
                    }));
                }
                Some((idx, cache.epoch))
            }
            None => None,
        };
        let Some((bytes, source)) = self.get(key)? else {
            return Ok(None);
        };
        // Decode outside the shard lock: parallel prefetch workers hitting
        // the same shard must not serialise on the decode.
        let segment = Arc::new(decode_entry(&bytes, view)?);
        if let Some((idx, epoch)) = cache {
            lock_unpoisoned(&self.shards[idx]).admit_view(key, view, &segment, epoch);
        }
        Ok(Some(DecodedRead { segment, source }))
    }

    /// Store a segment, dropping any cached views of the key so the next
    /// read observes the new bytes. New values are deliberately *not*
    /// admitted to the cache: ingestion would otherwise evict the hot query
    /// working set with segments nobody has read yet.
    pub fn put(&self, key: &SegmentKey, value: &[u8]) -> Result<()> {
        self.store.put(key, value)?;
        self.invalidate(key);
        Ok(())
    }

    /// Delete a segment (erosion's primitive), dropping any cached views of
    /// the key so an erode-then-read can never serve stale frames.
    pub fn delete(&self, key: &SegmentKey) -> Result<()> {
        self.store.delete(key)?;
        self.invalidate(key);
        Ok(())
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

    /// Drop every view of the key and bump the shard's epoch so in-flight
    /// fills that read before this write cannot be admitted.
    fn invalidate(&self, key: &SegmentKey) {
        let Some(idx) = self.shard_of(key) else {
            return;
        };
        let mut cache = lock_unpoisoned(&self.shards[idx]);
        cache.epoch += 1;
        let views = cache.views.remove(key).map_or(0, |views| views.len());
        cache.invalidations += views as u64;
    }
}

/// Decode one serialized segment into `view`, straight from the buffer the
/// store handed over. Only the view is kept: the stored-fidelity frames a
/// consumer's view is converted from move into it or are dropped.
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
    use crate::backend::MemBackend;
    use crate::faulty::{injected, FaultyDevice};
    use crate::log::LogFile;
    use crate::store::SegmentStore;
    use std::sync::atomic::{AtomicBool, Ordering};
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

    /// A single-shard reader, so the bound arithmetic is exact.
    fn one_shard_reader(cache_bytes: u64, decoded_entries: usize) -> SegmentReader {
        let store = Arc::new(SegmentStore::open_mem_with_shards(1).unwrap());
        SegmentReader::new(store, cache_bytes, decoded_entries)
    }

    /// A small but real encoded segment: 15 frames of one dataset.
    fn encoded_segment_bytes() -> Vec<u8> {
        encoded_clip_bytes(0)
    }

    /// 15 encoded frames starting at source frame `start`: clips at
    /// different starts are different segments.
    fn encoded_clip_bytes(start: u64) -> Vec<u8> {
        let source = VideoSource::new(Dataset::Jackson);
        let fidelity = Fidelity::new(
            vstore_types::ImageQuality::Good,
            vstore_types::CropFactor::C75,
            vstore_types::Resolution::R180,
            vstore_types::FrameSampling::Full,
        );
        let frames = materialize_clip(&source.clip(start, 15), fidelity);
        let encoded = encode_segment(&frames, KeyframeInterval::K5, SpeedStep::Fast).unwrap();
        SegmentData::Encoded(encoded).to_bytes()
    }

    /// What `consumption`'s view of `bytes` is, decoded without a cache.
    fn view_of(bytes: &[u8], consumption: &ConsumptionFormat) -> DecodedSegment {
        decode_entry(bytes, View::Consumer(consumption.fidelity)).unwrap()
    }

    #[test]
    fn disabled_reader_is_a_passthrough_with_no_stats() {
        // Either bound at 0 disables the whole cache.
        for (cache_bytes, decoded_entries) in [(0, 0), (1 << 20, 0), (0, 64)] {
            let reader = mem_reader(cache_bytes, decoded_entries);
            reader.put(&key(0), &encoded_segment_bytes()).unwrap();
            for _ in 0..3 {
                let (bytes, source) = reader.get(&key(0)).unwrap().unwrap();
                assert_eq!(bytes, encoded_segment_bytes());
                assert_eq!(source, ReadSource::Disk);
                let read = reader.get_view(&key(0), &poorer_consumer()).unwrap();
                assert_eq!(read.unwrap().source, ReadSource::Disk);
                assert!(reader.cached_view(&key(0), &poorer_consumer()).is_none());
            }
            assert_eq!(reader.cache_stats(), CacheStats::default());
            assert!(reader.shard_cache_stats().is_empty());
        }
    }

    #[test]
    fn put_and_delete_invalidate_cached_bytes() {
        let reader = mem_reader(1 << 20, 64);
        let (old, new) = (encoded_clip_bytes(0), encoded_clip_bytes(15));
        let consumption = poorer_consumer();
        reader.put(&key(0), &old).unwrap();
        reader.get_view(&key(0), &consumption).unwrap().unwrap(); // warm
        reader.put(&key(0), &new).unwrap();
        let read = reader.get_view(&key(0), &consumption).unwrap().unwrap();
        assert_eq!(
            read.segment.frames,
            view_of(&new, &consumption).frames,
            "overwrite must not serve stale frames"
        );
        assert_ne!(read.segment.frames, view_of(&old, &consumption).frames);
        assert_eq!(read.source, ReadSource::Disk);
        reader.get_view(&key(0), &consumption).unwrap().unwrap(); // warm again
        reader.delete(&key(0)).unwrap();
        assert!(
            reader.get_view(&key(0), &consumption).unwrap().is_none(),
            "delete must not leave a cached ghost"
        );
        assert_eq!(reader.cache_stats().invalidations, 2);
    }

    /// The byte bound: views weigh their frames' plane bytes, the least
    /// recently used key goes first, and a view heavier than the shard is
    /// refused and takes the older views of its key with it.
    #[test]
    fn lru_evicts_oldest_and_never_admits_oversized_values() {
        let bytes = encoded_segment_bytes();
        let small = view_of(&bytes, &poorer_consumer()).plane_bytes();
        let whole = decode_entry(&bytes, View::Stored(FrameSampling::Full))
            .unwrap()
            .plane_bytes();
        assert!(whole > 3 * small, "{whole} vs {small}");
        // Room for two small views, never for the whole-segment view.
        let reader = one_shard_reader(2 * small + small / 2, 64);
        for i in 1..=3 {
            reader.put(&key(i), &bytes).unwrap();
        }
        let view = |i| {
            reader
                .get_view(&key(i), &poorer_consumer())
                .unwrap()
                .unwrap()
        };
        view(1);
        view(2); // resident: {1, 2}
        view(3); // a third small view → evicts 1, the least recently used
        let stats = reader.cache_stats();
        assert_eq!((stats.decoded_evictions, stats.decoded_entries), (1, 2));
        assert_eq!(stats.resident_bytes, 2 * small);
        assert_eq!(view(2).source, ReadSource::DecodedCache);
        assert_eq!(view(1).source, ReadSource::Disk, "an evicted view re-reads");
        // Resident: {2, 1}. The whole-segment view of key 1 is read and
        // returned but not admitted, and key 1's small view is gone too.
        let whole_read = reader.get_decoded(&key(1), FrameSampling::Full).unwrap();
        assert_eq!(whole_read.unwrap().segment.plane_bytes(), whole);
        let stats = reader.cache_stats();
        assert_eq!((stats.decoded_entries, stats.resident_bytes), (1, small));
        assert!(reader.cached_view(&key(1), &poorer_consumer()).is_none());
        assert!(reader.cached_view(&key(2), &poorer_consumer()).is_some());
        let again = reader.get_decoded(&key(1), FrameSampling::Full).unwrap();
        assert_eq!(again.unwrap().source, ReadSource::Disk);
    }

    #[test]
    fn decoded_tier_skips_decode_on_repeat_and_is_keyed_by_sampling() {
        let reader = mem_reader(1 << 20, 64);
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
        // A different sampling rate is a different view.
        let sampled = reader.get_decoded(&key(0), sparse).unwrap().unwrap();
        assert_eq!(sampled.source, ReadSource::Disk);
        assert!(sampled.segment.frames.len() < first.segment.frames.len());
        let stats = reader.cache_stats();
        assert_eq!(stats.decoded_hits, 1);
        assert_eq!(stats.decoded_misses, 2);
        assert_eq!(stats.decoded_entries, 2);
        assert_eq!(
            stats.resident_bytes,
            first.segment.plane_bytes() + sampled.segment.plane_bytes()
        );
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
        // Through the full read and through the cache probe alike, a hit
        // hands out the very segment the fill built and counts one hit — no
        // other counter moves.
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
        assert_eq!(stored.source, ReadSource::Disk);
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
        // An overwrite drops the key's three views — three invalidations —
        // and leaves the other key alone.
        reader.put(&key(0), &bytes).unwrap();
        let stats = reader.cache_stats();
        assert_eq!((stats.decoded_entries, stats.invalidations), (1, 3));
        assert_eq!(
            stats.resident_bytes,
            view_of(&bytes, &poorer_consumer()).plane_bytes()
        );
        for consumption in [poorer_consumer(), sampling_only_consumer()] {
            assert!(reader.cached_view(&key(0), &consumption).is_none());
        }
        assert!(reader.cached_view(&key(1), &poorer_consumer()).is_some());
        views(&reader);
        reader.delete(&key(0)).unwrap();
        let stats = reader.cache_stats();
        assert_eq!((stats.decoded_entries, stats.invalidations), (1, 6));
        assert!(reader
            .get_view(&key(0), &poorer_consumer())
            .unwrap()
            .is_none());
    }

    /// The entry bound: a key weighs as many views as it holds, and the
    /// least recently used key is evicted whole.
    #[test]
    fn a_key_weighs_its_views_and_is_evicted_whole() {
        // Room for three views, and bytes to spare.
        let reader = one_shard_reader(1 << 20, 3);
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
    fn delete_invalidates_every_sampling_of_the_key() {
        let reader = mem_reader(1 << 20, 64);
        reader.put(&key(0), &encoded_segment_bytes()).unwrap();
        reader.get_decoded(&key(0), FrameSampling::Full).unwrap();
        reader.get_decoded(&key(0), FrameSampling::S1_6).unwrap();
        assert_eq!(reader.cache_stats().decoded_entries, 2);
        reader.delete(&key(0)).unwrap();
        assert_eq!(reader.cache_stats().decoded_entries, 0);
        assert_eq!(reader.cache_stats().resident_bytes, 0);
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

    /// A store read that fails is never cached, and counts neither a hit
    /// nor a miss: once the device heals, the next read goes to the store.
    #[test]
    fn a_failed_fill_is_never_cached() {
        let device = FaultyDevice::over(Arc::new(MemBackend::new()));
        let store = SegmentStore::open_with_backend(Arc::new(device.clone()), 1).unwrap();
        let reader = SegmentReader::new(Arc::new(store), 1 << 20, 64);
        let bytes = encoded_segment_bytes();
        let consumption = poorer_consumer();
        reader.put(&key(0), &bytes).unwrap();
        let hot_log = LogFile::log_name("shard-000", 1);
        lock_unpoisoned(&device.script)
            .faults
            .push(("read_at", hot_log, injected));
        for _ in 0..2 {
            let err = reader.get_view(&key(0), &consumption).unwrap_err();
            assert!(matches!(err, VStoreError::Io(_)), "{err}");
            assert!(err.to_string().contains("injected"), "{err}");
            assert_eq!(reader.cache_stats(), CacheStats::default());
        }

        lock_unpoisoned(&device.script).faults.clear();
        let read = reader.get_view(&key(0), &consumption).unwrap().unwrap();
        assert_eq!(read.source, ReadSource::Disk);
        assert_eq!(read.segment.frames, view_of(&bytes, &consumption).frames);
        let stats = reader.cache_stats();
        assert_eq!(
            (
                stats.decoded_hits,
                stats.decoded_misses,
                stats.decoded_entries
            ),
            (0, 1, 1)
        );
    }

    /// Regression (stats rate math): an idle cache's hit rate is 0 —
    /// never NaN from 0/0 — and saturated counters neither overflow the
    /// rate's total nor wrap an aggregate (a debug-build panic before the
    /// hardening).
    #[test]
    fn stats_handle_empty_and_saturated_counters() {
        let empty = CacheStats::default();
        assert_eq!(empty.decoded_hit_rate(), 0.0);

        let saturated = CacheStats {
            decoded_hits: u64::MAX,
            decoded_misses: u64::MAX,
            resident_bytes: u64::MAX,
            ..CacheStats::default()
        };
        assert!(saturated.decoded_hit_rate() > 0.0 && saturated.decoded_hit_rate() <= 1.0);
        let mut total = saturated;
        total.accumulate(&saturated);
        assert_eq!(total.decoded_hits, u64::MAX, "accumulate must saturate");
        assert_eq!(total.resident_bytes, u64::MAX, "accumulate must saturate");
    }

    /// Each key's writes alternate between two distinct segments, so a
    /// stale view is told apart from a fresh one. In each of several
    /// bursts, readers run until the writer is done; afterwards every key's
    /// (cached) view is the view of its last write. A fill admitted across
    /// a concurrent write would leave the older segment's view behind.
    #[test]
    fn concurrent_readers_and_writers_never_observe_stale_bytes() {
        const KEYS: u64 = 4;
        const BURSTS: u64 = 32;
        const ROUNDS: u64 = 48;
        let store = Arc::new(SegmentStore::open_mem_with_shards(4).unwrap());
        let reader = SegmentReader::new(Arc::clone(&store), 1 << 20, 32);
        let consumption = poorer_consumer();
        let segments = [encoded_clip_bytes(0), encoded_clip_bytes(15)];
        let views = segments
            .each_ref()
            .map(|bytes| view_of(bytes, &consumption).frames);
        assert_ne!(views[0], views[1]);
        // Which of the two segments a view is of; `None` for neither.
        let which = |frames: &Vec<VideoFrame>| views.iter().position(|v| v == frames);
        for i in 0..KEYS {
            reader.put(&key(i), &segments[0]).unwrap();
        }
        for burst in 0..BURSTS {
            let writing = AtomicBool::new(true);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        while writing.load(Ordering::Acquire) {
                            for i in 0..KEYS {
                                let read = reader.get_view(&key(i), &consumption).unwrap();
                                if let Some(read) = read {
                                    assert!(which(&read.segment.frames).is_some(), "torn read");
                                }
                            }
                        }
                    });
                }
                scope.spawn(|| {
                    for round in 0..ROUNDS {
                        // A key's writes alternate between the segments.
                        let k = key(round % KEYS);
                        let next = usize::from(((burst * ROUNDS + round) / KEYS).is_multiple_of(2));
                        reader.delete(&k).unwrap();
                        reader.put(&k, &segments[next]).unwrap();
                    }
                    writing.store(false, Ordering::Release);
                });
            });
            for i in 0..KEYS {
                let last_write = store.get(&key(i)).unwrap().unwrap();
                let read = reader.get_view(&key(i), &consumption).unwrap().unwrap();
                assert_eq!(
                    which(&read.segment.frames),
                    which(&view_of(&last_write, &consumption).frames),
                    "burst {burst}: key {i} serves a stale view ({:?})",
                    read.source
                );
            }
        }
    }
}
