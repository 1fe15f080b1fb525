//! The segment-level tiering engine: erosion **demotes** segments to the
//! [`ColdStore`] instead of deleting them, and a read-through **promotion**
//! path brings cold segments back on access.
//!
//! ```text
//!  erosion ──demote_batch──► hot get → cold put → hot delete
//!                            (on the eroding caller's threads, one key each)
//!  query ──hot miss──► SegmentReader ──cold hit──► promote (hot put → cold delete)
//! ```
//!
//! The engine is a place, not a service: it owns no thread and queues
//! nothing. Both moves run on the thread that asks for them, through the
//! [`SegmentReader`] the caller holds.
//!
//! * **Demotion** is a parallel-for over the batch's keys
//!   ([`vstore_types::scoped_map`]) at the parallelism the caller passes in;
//!   each key runs under [`vstore_types::catch_panic`], so a panicking
//!   migration fails one segment, never the batch.
//! * **Ordering** makes data loss impossible: a demotion publishes the
//!   cold object (one atomic `write_all`) before deleting the hot copy, and
//!   a promotion writes the hot copy before deleting the cold object, so
//!   every moment in time — a process crash included — has at least one
//!   full copy of the segment. Neither tier fsyncs per operation: a
//!   finished move is as durable as a put into the hot log between rolls.
//!   A demotion and a promotion of the same key are serialised by
//!   a per-key lock. The hot-side delete and put flow through the
//!   [`SegmentReader`], so the view cache is epoch-invalidated exactly
//!   like an erosion delete or an ingest overwrite.
//! * **Observability**: [`TierStats`] reports resident bytes per tier,
//!   demotion/promotion counts and bytes, and a cold-hit latency
//!   histogram.

use crate::key::SegmentKey;
use crate::reader::{ReadSource, SegmentReader};
use crate::store::SegmentStore;
use crate::tier::{ColdStore, TierOptions};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use vstore_types::sync::{lock_unpoisoned, wait_unpoisoned};
use vstore_types::{catch_panic, panic_message, scoped_map};
use vstore_types::{LatencyHistogram, Result, VStoreError};

/// One snapshot of the tiering subsystem's statistics, shown as the
/// `vstore_tier_*` rows of `VStore::metrics_snapshot`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TierStats {
    /// Live bytes resident in the hot store.
    pub hot_resident_bytes: u64,
    /// Live bytes resident in the cold store.
    pub cold_resident_bytes: u64,
    /// Segments currently held by the cold store.
    pub cold_segments: usize,
    /// Segments demoted hot → cold since open.
    pub demotions: u64,
    /// Bytes demoted hot → cold since open.
    pub demoted_bytes: u64,
    /// Segments promoted cold → hot since open (read-through).
    pub promotions: u64,
    /// Bytes promoted cold → hot since open.
    pub promoted_bytes: u64,
    /// Reads served by the cold tier (hot misses that hit cold).
    pub cold_hits: u64,
    /// Hot misses that missed the cold tier too.
    pub cold_misses: u64,
    /// Demotions that failed (the segment stayed hot).
    pub failed_demotions: u64,
    /// Latency of cold-tier fetches (read + checksum + promotion write).
    pub cold_hit_latency: LatencyHistogram,
}

/// The result of one demotion batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemoteBatchReport {
    /// Segments moved to the cold store.
    pub segments: usize,
    /// Bytes moved to the cold store.
    pub bytes: u64,
    /// Segments skipped because they were already gone from the hot store
    /// (e.g. raced by a concurrent overwrite or erosion).
    pub skipped: usize,
}

/// Counters behind one short-held mutex (migration I/O never runs under
/// it).
#[derive(Default)]
struct Counters {
    demotions: u64,
    demoted_bytes: u64,
    promotions: u64,
    promoted_bytes: u64,
    cold_hits: u64,
    cold_misses: u64,
    failed_demotions: u64,
    cold_hit_latency: LatencyHistogram,
}

/// A wait-on-contention lock set over segment keys.
#[derive(Default)]
struct KeyLocks {
    held: Mutex<std::collections::HashSet<SegmentKey>>,
    released: Condvar,
}

impl KeyLocks {
    fn lock(&self, key: &SegmentKey) -> KeyGuard<'_> {
        let mut held = lock_unpoisoned(&self.held);
        while held.contains(key) {
            held = wait_unpoisoned(&self.released, held);
        }
        held.insert(key.clone());
        KeyGuard {
            locks: self,
            key: key.clone(),
        }
    }
}

struct KeyGuard<'a> {
    locks: &'a KeyLocks,
    key: SegmentKey,
}

impl Drop for KeyGuard<'_> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.locks.held).remove(&self.key);
        self.locks.released.notify_all();
    }
}

/// The tiering engine: the cold store beside a hot one, and the two moves
/// between them. Attach it to the hot store's reader
/// ([`SegmentReader::attach_tier`]) for read-through promotion.
pub struct TierEngine {
    hot: Arc<SegmentStore>,
    cold: ColdStore,
    options: TierOptions,
    counters: Mutex<Counters>,
    /// Keys with a migration in flight: a demotion and a promotion of the
    /// same key are serialised, so an interleaving can never delete both
    /// copies of a segment.
    migrating: KeyLocks,
}

impl std::fmt::Debug for TierEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierEngine")
            .field("cold", &self.cold)
            .field("promotion", &self.options.promotion)
            .finish()
    }
}

impl TierEngine {
    /// A tiering engine demoting from `hot` into `cold`.
    pub fn new(hot: Arc<SegmentStore>, cold: ColdStore, options: TierOptions) -> Arc<TierEngine> {
        Arc::new(TierEngine {
            hot,
            cold,
            options,
            counters: Mutex::default(),
            migrating: KeyLocks::default(),
        })
    }

    /// The cold segment store.
    pub fn cold_store(&self) -> &ColdStore {
        &self.cold
    }

    /// The hot store this engine demotes from.
    pub fn hot_store(&self) -> &Arc<SegmentStore> {
        &self.hot
    }

    /// Demote a batch of segments through `reader` (the hot store's reader,
    /// whose cache the hot deletes invalidate), on up to `workers` threads
    /// including the caller's; returns once every key has been tried.
    /// Golden-format keys are refused: the golden format never leaves the
    /// hot tier.
    ///
    /// A failed migration leaves its segment hot (nothing was deleted), so
    /// the batch error carries the partial progress and re-eroding retries
    /// exactly the segments that failed.
    pub fn demote_batch(
        &self,
        reader: &SegmentReader,
        keys: Vec<SegmentKey>,
        workers: usize,
    ) -> Result<DemoteBatchReport> {
        for key in &keys {
            if key.format.is_golden() {
                return Err(VStoreError::invalid_argument(format!(
                    "refusing to demote golden-format segment {key}"
                )));
            }
        }
        let total = keys.len();
        let outcomes = scoped_map(keys, workers, |_, key| {
            catch_panic(|| self.demote_one(reader, &key)).unwrap_or_else(|payload| {
                Err(VStoreError::InvalidState(format!(
                    "tier migration panicked: {}",
                    panic_message(&payload)
                )))
            })
        });
        let mut report = DemoteBatchReport::default();
        let mut first_error = None;
        for outcome in outcomes {
            match outcome {
                Ok(Some(bytes)) => {
                    report.segments += 1;
                    report.bytes = report.bytes.saturating_add(bytes);
                }
                Ok(None) => report.skipped += 1,
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        let failed = total - report.segments - report.skipped;
        {
            let mut counters = lock_unpoisoned(&self.counters);
            counters.demotions += report.segments as u64;
            counters.demoted_bytes = counters.demoted_bytes.saturating_add(report.bytes);
            counters.failed_demotions += failed as u64;
        }
        match first_error {
            Some(e) => Err(VStoreError::InvalidState(format!(
                "{failed} of {total} demotions failed (first error: {e}); \
                 {} segments ({} bytes) were demoted before the failures, \
                 failed segments remain hot — re-erode to retry",
                report.segments, report.bytes
            ))),
            None => Ok(report),
        }
    }

    /// Move one segment hot → cold. Returns the bytes moved, or `None` when
    /// the hot store no longer holds the key (raced; nothing to do).
    fn demote_one(&self, reader: &SegmentReader, key: &SegmentKey) -> Result<Option<u64>> {
        // Serialised against any in-flight promotion of the same key.
        let _guard = self.migrating.lock(key);
        let bytes = match reader.store().get(key)? {
            Some(bytes) => bytes,
            None => return Ok(None),
        };
        // Cold copy first — published on the device when `put` returns —
        // and only then the hot delete: there is no instant, across crashes
        // included, without a full copy of the segment.
        self.cold.put(key, &bytes)?;
        reader.delete(key)?;
        Ok(Some(bytes.len() as u64))
    }

    /// Look a hot-missed key up in the cold tier; on a hit, return the
    /// bytes as [`ReadSource::Cold`] and — when [`TierOptions::promotion`]
    /// is on — promote them back to the hot store through `reader` (hot put
    /// before cold delete, cache tiers epoch-invalidated by the put).
    ///
    /// Called by [`SegmentReader`] on the read path; callers outside the
    /// reader should read through the reader instead.
    pub(crate) fn read_through(
        &self,
        key: &SegmentKey,
        reader: &SegmentReader,
    ) -> Result<Option<(Vec<u8>, ReadSource)>> {
        let started = Instant::now();
        // Serialised against any in-flight demotion of the same key; the
        // guard spans the cold read and the promotion move.
        let guard = self.migrating.lock(key);
        let Some(bytes) = self.cold.get(key)? else {
            // A racing promotion may have moved the key hot between the
            // caller's hot miss and this lock acquisition: re-probe the
            // hot store under the key lock, so a concurrent reader can
            // never report an existing segment as missing. Those bytes
            // came from the hot store and are labelled so.
            let rescued = reader.store().get(key)?;
            drop(guard);
            if rescued.is_none() {
                lock_unpoisoned(&self.counters).cold_misses += 1;
            }
            return Ok(rescued.map(|bytes| (bytes, ReadSource::Disk)));
        };
        if self.options.promotion {
            reader.put(key, &bytes)?;
            self.cold.delete(key)?;
        }
        drop(guard);
        let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut counters = lock_unpoisoned(&self.counters);
        counters.cold_hits += 1;
        counters.cold_hit_latency.record(elapsed_us);
        if self.options.promotion {
            counters.promotions += 1;
            counters.promoted_bytes = counters.promoted_bytes.saturating_add(bytes.len() as u64);
        }
        Ok(Some((bytes, ReadSource::Cold)))
    }

    /// A statistics snapshot (resident bytes are read live from both
    /// stores).
    #[must_use]
    pub fn stats(&self) -> TierStats {
        let hot = self.hot.stats();
        let (cold_segments, cold_resident_bytes) = (self.cold.len(), self.cold.resident_bytes());
        let counters = lock_unpoisoned(&self.counters);
        TierStats {
            hot_resident_bytes: hot.live_bytes,
            cold_resident_bytes,
            cold_segments,
            demotions: counters.demotions,
            demoted_bytes: counters.demoted_bytes,
            promotions: counters.promotions,
            promoted_bytes: counters.promoted_bytes,
            cold_hits: counters.cold_hits,
            cold_misses: counters.cold_misses,
            failed_demotions: counters.failed_demotions,
            cold_hit_latency: counters.cold_hit_latency.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemBackend, StorageBackend};
    use crate::faulty::{injected, Fault, FaultyDevice};
    use crate::tier::cold::OBJECT_DIR;
    use vstore_types::FormatId;

    fn key(format: u32, index: u64) -> SegmentKey {
        SegmentKey::new("tier", FormatId(format), index)
    }

    fn fixture_over(
        cold_device: Arc<dyn StorageBackend>,
        options: TierOptions,
    ) -> (Arc<SegmentReader>, Arc<TierEngine>) {
        let hot = Arc::new(SegmentStore::open_mem_with_shards(4).unwrap());
        let reader = Arc::new(SegmentReader::new(Arc::clone(&hot), 1 << 20, 16));
        let engine = TierEngine::new(hot, ColdStore::open(cold_device).unwrap(), options);
        reader.attach_tier(&engine);
        (reader, engine)
    }

    fn fixture(options: TierOptions) -> (Arc<SegmentReader>, Arc<TierEngine>) {
        fixture_over(Arc::new(MemBackend::new()), options)
    }

    #[test]
    fn demote_batch_moves_segments_and_reads_promote_them_back() {
        let (reader, engine) = fixture(TierOptions::cold_mem());
        for i in 0..6 {
            reader.put(&key(1, i), &vec![i as u8; 500]).unwrap();
        }
        let report = engine
            .demote_batch(&reader, (0..4).map(|i| key(1, i)).collect(), 2)
            .unwrap();
        assert_eq!(report.segments, 4);
        assert_eq!(report.bytes, 4 * 500);
        assert_eq!(report.skipped, 0);
        assert_eq!(engine.cold_store().len(), 4);
        assert!(!reader.store().contains(&key(1, 0)));

        // Hot read of a demoted key: cold hit, promoted, byte-identical —
        // never a stale cache entry.
        let (bytes, source) = reader.get(&key(1, 2)).unwrap().unwrap();
        assert_eq!(*bytes, vec![2u8; 500]);
        assert_eq!(source, crate::reader::ReadSource::Cold);
        assert!(reader.store().contains(&key(1, 2)), "promoted back hot");
        assert!(!engine.cold_store().contains(&key(1, 2)));
        let (bytes, source) = reader.get(&key(1, 2)).unwrap().unwrap();
        assert_eq!(*bytes, vec![2u8; 500]);
        assert_ne!(
            source,
            crate::reader::ReadSource::Cold,
            "second read is hot"
        );

        let stats = engine.stats();
        assert_eq!(stats.demotions, 4);
        assert_eq!(stats.promotions, 1);
        assert_eq!(stats.cold_hits, 1);
        assert_eq!(stats.cold_misses, 0);
        assert_eq!(stats.cold_hit_latency.count(), 1);
    }

    #[test]
    fn promotion_off_serves_cold_without_moving() {
        let (reader, engine) = fixture(TierOptions::cold_mem().with_promotion(false));
        reader.put(&key(1, 0), b"stay-cold").unwrap();
        engine.demote_batch(&reader, vec![key(1, 0)], 2).unwrap();
        for _ in 0..2 {
            let (bytes, source) = reader.get(&key(1, 0)).unwrap().unwrap();
            assert_eq!(&*bytes, b"stay-cold");
            assert_eq!(source, crate::reader::ReadSource::Cold);
        }
        assert!(!reader.store().contains(&key(1, 0)));
        let stats = engine.stats();
        assert_eq!(stats.promotions, 0);
        assert_eq!(stats.cold_hits, 2);
    }

    #[test]
    fn golden_keys_are_refused_and_missing_keys_are_skipped() {
        let (reader, engine) = fixture(TierOptions::cold_mem());
        let err = engine
            .demote_batch(
                &reader,
                vec![SegmentKey::new("tier", FormatId::GOLDEN, 0)],
                2,
            )
            .unwrap_err();
        assert!(matches!(err, VStoreError::InvalidArgument(_)), "{err}");
        reader.put(&key(1, 0), b"present").unwrap();
        let report = engine
            .demote_batch(&reader, vec![key(1, 0), key(1, 99)], 2)
            .unwrap();
        assert_eq!(report.segments, 1);
        assert_eq!(report.skipped, 1);
    }

    /// Regression: a demotion must be on the cold device before the hot
    /// copy is deleted — a process that dies right after an erode must find
    /// every demoted segment when it reopens the device.
    #[test]
    fn demotion_is_durable_on_the_cold_device_before_the_hot_delete() {
        let device: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let (reader, engine) = fixture_over(Arc::clone(&device), TierOptions::cold_mem());
        reader.put(&key(1, 0), b"must-survive").unwrap();
        engine.demote_batch(&reader, vec![key(1, 0)], 2).unwrap();
        assert!(!reader.store().contains(&key(1, 0)));
        // Simulate a crash: reopen a fresh ColdStore over the same device
        // with nothing in between. The object must already be there.
        let reopened = ColdStore::open(device).unwrap();
        assert_eq!(
            reopened.get(&key(1, 0)).unwrap().unwrap(),
            b"must-survive",
            "demoted segment lost across a crash"
        );
    }

    #[test]
    fn concurrent_queries_during_demotion_always_see_every_segment() {
        let (reader, engine) = fixture(TierOptions::cold_mem());
        let n = 48u64;
        for i in 0..n {
            reader.put(&key(1, i), &vec![(i % 251) as u8; 256]).unwrap();
        }
        std::thread::scope(|scope| {
            let r = Arc::clone(&reader);
            scope.spawn(move || {
                for round in 0..200u64 {
                    let i = round % n;
                    let (bytes, _) = r.get(&key(1, i)).unwrap().expect("segment vanished");
                    assert_eq!(*bytes, vec![(i % 251) as u8; 256], "torn or stale read");
                }
            });
            let report = engine
                .demote_batch(&reader, (0..n).map(|i| key(1, i)).collect(), 2)
                .unwrap();
            // Concurrent promotions may race segments back hot before their
            // demotion runs; every segment is either moved or skipped.
            assert_eq!(report.segments + report.skipped, n as usize);
        });
        for i in 0..n {
            let (bytes, _) = reader.get(&key(1, i)).unwrap().unwrap();
            assert_eq!(*bytes, vec![(i % 251) as u8; 256]);
        }
    }

    /// Bytes `read_through` rescues from the hot store (a racing promotion
    /// moved the key between the caller's hot miss and the key lock) are a
    /// hot read: not labelled cold, and counted neither as a cold hit nor
    /// as a cold miss.
    #[test]
    fn a_read_rescued_from_the_hot_store_is_not_a_cold_read() {
        let (reader, engine) = fixture(TierOptions::cold_mem());
        reader.put(&key(1, 0), b"only-hot").unwrap();
        let (bytes, source) = engine.read_through(&key(1, 0), &reader).unwrap().unwrap();
        assert_eq!(bytes, b"only-hot");
        assert_eq!(source, ReadSource::Disk);
        let stats = engine.stats();
        assert_eq!((stats.cold_hits, stats.cold_misses), (0, 0));
        assert_eq!(stats.cold_hit_latency.count(), 0);
    }

    /// Six hot segments over a cold device that faults on keys 1 and 4.
    fn faulty_fixture(fault: Fault) -> (Arc<SegmentReader>, Arc<TierEngine>, FaultyDevice) {
        let device = FaultyDevice::over(Arc::new(MemBackend::new()));
        let (reader, engine) = fixture_over(Arc::new(device.clone()), TierOptions::cold_mem());
        for i in 0..6 {
            reader.put(&key(1, i), &vec![i as u8; 300]).unwrap();
        }
        lock_unpoisoned(&device.script).faults = [1, 4]
            .map(|i| ("write_all", key(1, i).object_name(OBJECT_DIR), fault))
            .to_vec();
        (reader, engine, device)
    }

    /// The four healthy keys moved, the two faulted ones stayed hot and
    /// byte-identical, and the counters say so.
    fn assert_two_of_six_failed(reader: &SegmentReader, engine: &TierEngine, err: &VStoreError) {
        assert!(matches!(err, VStoreError::InvalidState(_)), "{err}");
        let text = err.to_string();
        assert!(text.contains("2 of 6 demotions failed"), "{text}");
        assert!(text.contains("4 segments (1200 bytes)"), "{text}");
        for i in 0..6 {
            let failed = i == 1 || i == 4;
            assert_eq!(reader.store().contains(&key(1, i)), failed, "hot {i}");
            assert_eq!(
                engine.cold_store().contains(&key(1, i)),
                !failed,
                "cold {i}"
            );
            if failed {
                let hot = reader.store().get(&key(1, i)).unwrap().unwrap();
                assert_eq!(hot, vec![i as u8; 300]);
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.failed_demotions, 2);
        assert_eq!(stats.demotions, 4);
    }

    #[test]
    fn failed_demotions_stay_hot_and_a_retry_moves_exactly_those() {
        let (reader, engine, device) = faulty_fixture(injected);
        let all: Vec<SegmentKey> = (0..6).map(|i| key(1, i)).collect();
        let err = engine.demote_batch(&reader, all.clone(), 3).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_two_of_six_failed(&reader, &engine, &err);

        lock_unpoisoned(&device.script).faults.clear();
        let retry = engine.demote_batch(&reader, all, 3).unwrap();
        assert_eq!(
            retry,
            DemoteBatchReport {
                segments: 2,
                bytes: 600,
                skipped: 4
            }
        );
        assert!(reader.store().is_empty());
        assert_eq!(engine.cold_store().len(), 6);
        assert_eq!(engine.stats().failed_demotions, 2);
    }

    /// A panicking migration fails its one segment: the rest of the batch
    /// completes and the caller (erosion) gets an error, not an unwind.
    #[test]
    fn a_panicking_migration_fails_one_segment_not_the_batch() {
        let (reader, engine, _device) = faulty_fixture(|| panic!("injected panic"));
        let all = (0..6).map(|i| key(1, i)).collect();
        let err = catch_panic(|| engine.demote_batch(&reader, all, 3))
            .expect("the panic must not unwind into the eroding caller")
            .unwrap_err();
        assert!(err.to_string().contains("injected panic"), "{err}");
        assert_two_of_six_failed(&reader, &engine, &err);
    }

    #[test]
    fn parallelism_never_changes_what_a_batch_does() {
        let run = |workers: usize| {
            let (reader, engine) = fixture(TierOptions::cold_mem());
            for i in 0..40 {
                reader
                    .put(&key(1, i), &vec![(i * 7) as u8; 100 + i as usize])
                    .unwrap();
            }
            // 32 present keys (the last 8 stay hot) plus two already gone.
            let batch = (0..32).chain([90, 91]).map(|i| key(1, i)).collect();
            let report = engine.demote_batch(&reader, batch, workers).unwrap();
            let (hot, cold) = (reader.store(), engine.cold_store());
            type Get<'a> = &'a dyn Fn(&SegmentKey) -> Result<Option<Vec<u8>>>;
            let contents = |keys: Vec<SegmentKey>, get: Get<'_>| -> Vec<_> {
                let bytes_of = |k: SegmentKey| (get(&k).unwrap().unwrap(), k);
                keys.into_iter().map(bytes_of).collect()
            };
            (
                report,
                contents(hot.keys(), &|k| hot.get(k)),
                contents(cold.keys(), &|k| cold.get(k)),
            )
        };
        let sequential = run(1);
        assert_eq!(sequential.0.segments, 32);
        assert_eq!(sequential.0.skipped, 2);
        assert_eq!(sequential.1.len(), 8);
        assert_eq!(sequential.2.len(), 32);
        assert_eq!(sequential, run(4));
    }

    /// What a move costs the cold device, whatever it already holds: a
    /// demotion is one `write_all`, a cold read one `len` and one `read_at`,
    /// a promotion one `remove` — and nothing else.
    #[test]
    fn a_move_costs_the_cold_device_the_same_calls_at_any_population() {
        for population in [10u64, 500] {
            let device = FaultyDevice::over(Arc::new(MemBackend::new()));
            let (reader, engine) = fixture_over(Arc::new(device.clone()), TierOptions::cold_mem());
            for i in 0..=population {
                reader.put(&key(1, i), &[i as u8; 64]).unwrap();
            }
            let resident = (0..population).map(|i| key(1, i)).collect();
            engine.demote_batch(&reader, resident, 2).unwrap();
            assert_eq!(engine.cold_store().len() as u64, population);

            let calls = |expected: &[(&str, u64)]| {
                let calls = std::mem::take(&mut lock_unpoisoned(&device.script).calls);
                assert_eq!(Vec::from_iter(calls), expected, "{population} resident");
            };
            // Opening an empty device, then one write per demotion.
            calls(&[("len", 1), ("list", 1), ("write_all", population)]);
            let one = key(1, population);
            engine.demote_batch(&reader, vec![one.clone()], 2).unwrap();
            calls(&[("write_all", 1)]);
            let (bytes, source) = reader.get(&one).unwrap().unwrap();
            assert_eq!((bytes.len(), source), (64, ReadSource::Cold));
            calls(&[("len", 1), ("read_at", 1), ("remove", 1)]);
        }
    }

    /// Crash at k: for every device call k (hot and cold numbered together)
    /// of a demote → read/promote → re-demote schedule, cut there, reopen
    /// both tiers on what the devices hold, and find every segment
    /// byte-identical in at least one of them.
    #[test]
    fn a_crash_at_any_device_call_leaves_every_segment_in_some_tier() {
        let keys: Vec<SegmentKey> = (0..4).map(|i| key(1, i)).collect();
        let value =
            |k: &SegmentKey| vec![k.segment_index as u8 + 1; 100 + k.segment_index as usize];
        // Runs the schedule cut at call `cut_at`; returns the calls it made.
        let run = |cut_at: Option<u64>| {
            let hot_mem: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
            let cold_mem: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
            let hot_device = FaultyDevice::over(Arc::clone(&hot_mem));
            let cold_device = FaultyDevice {
                inner: Arc::clone(&cold_mem),
                script: Arc::clone(&hot_device.script),
            };
            let hot =
                Arc::new(SegmentStore::open_with_backend(Arc::new(hot_device.clone()), 2).unwrap());
            let reader = Arc::new(SegmentReader::new(Arc::clone(&hot), 0, 0));
            let cold = ColdStore::open(Arc::new(cold_device)).unwrap();
            let engine = TierEngine::new(hot, cold, TierOptions::cold_mem());
            reader.attach_tier(&engine);
            for k in &keys {
                reader.put(k, &value(k)).unwrap();
            }
            lock_unpoisoned(&hot_device.script).calls.clear();
            lock_unpoisoned(&hot_device.script).cut_in = cut_at;
            // From here on every step may fail; none may lose a segment.
            let _ = engine.demote_batch(&reader, keys.clone(), 1);
            for k in &keys[..2] {
                let _ = reader.get(k);
            }
            let _ = engine.demote_batch(&reader, keys[..2].to_vec(), 1);
            let calls: u64 = lock_unpoisoned(&hot_device.script).calls.values().sum();
            drop((reader, engine));

            let hot = SegmentStore::open_with_backend(hot_mem, 2).unwrap();
            let cold = ColdStore::open(cold_mem).unwrap();
            for k in &keys {
                let copies = [hot.get(k).unwrap(), cold.get(k).unwrap()];
                assert!(
                    copies.iter().any(Option::is_some),
                    "cut at {cut_at:?}: {k} lost"
                );
                for copy in copies.into_iter().flatten() {
                    assert_eq!(copy, value(k), "cut at {cut_at:?}: {k}");
                }
            }
            calls
        };
        let uncut = run(None);
        assert!(uncut >= 20, "the schedule made only {uncut} device calls");
        for k in 0..uncut {
            run(Some(k));
        }
    }
}
