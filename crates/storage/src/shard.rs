//! One storage shard: a single-lock, log-structured key-value store.
//!
//! A shard is exactly the original `SegmentStore` design — an in-memory
//! index over CRC-guarded value logs with tombstone deletes and rewrite
//! compaction — owning its own log namespace, log-file set, roll-over and
//! statistics. [`SegmentStore`](crate::store::SegmentStore) composes N of
//! these behind a key-hash router so operations on different shards never
//! contend on a lock. All I/O flows through the store's
//! [`StorageBackend`](crate::backend::StorageBackend); a shard never touches
//! the filesystem directly.

use crate::backend::StorageBackend;
use crate::key::SegmentKey;
use crate::log::LogFile;
use crate::store::StoreStats;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use vstore_types::sync::lock_unpoisoned;
use vstore_types::{FormatId, Result, VStoreError};

/// Target maximum size of one value log file before the shard rolls over to
/// a new one (64 MiB keeps compaction granular without creating thousands of
/// files).
const LOG_ROLL_BYTES: u64 = 64 * 1024 * 1024;

/// Where a live value lives on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ValueLocation {
    file_id: u64,
    offset: u64,
    total_len: u64,
    value_len: u64,
}

#[derive(Debug)]
struct ShardInner {
    backend: Arc<dyn StorageBackend>,
    /// Log-namespace prefix of this shard (e.g. `shard-003`).
    dir: String,
    index: BTreeMap<SegmentKey, ValueLocation>,
    active: LogFile,
    /// Sealed logs by id, mapped to their backend names.
    sealed: BTreeMap<u64, String>,
    stats_writes: u64,
    stats_reads: u64,
    disk_bytes: u64,
}

/// One independently locked shard of the segment store.
#[derive(Debug)]
pub(crate) struct Shard {
    inner: Mutex<ShardInner>,
}

impl Shard {
    /// Open (or create) a shard under the backend namespace `dir`,
    /// rebuilding the index by scanning the value logs.
    pub(crate) fn open(backend: Arc<dyn StorageBackend>, dir: String) -> Result<Shard> {
        // Discover existing log files in id order.
        let mut ids: Vec<u64> = backend
            .list(&dir)?
            .iter()
            .filter_map(|name| LogFile::parse_id(name))
            .collect();
        ids.sort_unstable();

        let mut index = BTreeMap::new();
        let mut sealed = BTreeMap::new();
        let mut disk_bytes = 0u64;
        for &id in &ids {
            let name = LogFile::log_name(&dir, id);
            // Records borrow the log's bytes: the index takes a copy of each
            // key, the offset and the lengths, and never of a value.
            LogFile::scan(backend.as_ref(), &name, |record| {
                let key = SegmentKey::decode(record.key)?;
                if record.is_tombstone {
                    index.remove(&key);
                } else {
                    index.insert(
                        key,
                        ValueLocation {
                            file_id: id,
                            offset: record.offset,
                            total_len: record.total_len,
                            value_len: record.value.len() as u64,
                        },
                    );
                }
                Ok(())
            })?;
            disk_bytes += backend.len(&name)?.unwrap_or(0);
            sealed.insert(id, name);
        }
        // The active log is a fresh file after the highest existing id; this
        // keeps recovery simple (sealed files are never appended to again).
        let next_id = ids.last().map(|id| id + 1).unwrap_or(1);
        let active = LogFile::create(Arc::clone(&backend), &dir, next_id)?;
        Ok(Shard {
            inner: Mutex::new(ShardInner {
                backend,
                dir,
                index,
                active,
                sealed,
                stats_writes: 0,
                stats_reads: 0,
                disk_bytes,
            }),
        })
    }

    /// Store a segment, replacing any previous value under the same key.
    pub(crate) fn put(&self, key: &SegmentKey, value: &[u8]) -> Result<()> {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.roll_if_needed()?;
        let encoded_key = key.encode();
        let (offset, total_len) = inner.active.append(&encoded_key, value, false)?;
        let file_id = inner.active.id;
        inner.index.insert(
            key.clone(),
            ValueLocation {
                file_id,
                offset,
                total_len,
                value_len: value.len() as u64,
            },
        );
        inner.stats_writes += 1;
        inner.disk_bytes += total_len;
        Ok(())
    }

    /// Fetch a segment. Returns `Ok(None)` when the key does not exist.
    pub(crate) fn get(&self, key: &SegmentKey) -> Result<Option<Vec<u8>>> {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.stats_reads += 1;
        let location = match inner.index.get(key) {
            Some(loc) => *loc,
            None => return Ok(None),
        };
        let value = inner.read_at(location)?;
        Ok(Some(value))
    }

    /// `true` if the key exists.
    pub(crate) fn contains(&self, key: &SegmentKey) -> bool {
        lock_unpoisoned(&self.inner).index.contains_key(key)
    }

    /// Length in bytes of the key's live value, without reading it.
    pub(crate) fn value_len(&self, key: &SegmentKey) -> Option<u64> {
        lock_unpoisoned(&self.inner)
            .index
            .get(key)
            .map(|loc| loc.value_len)
    }

    /// Delete a segment. Deleting a missing key is a no-op.
    pub(crate) fn delete(&self, key: &SegmentKey) -> Result<()> {
        let mut inner = lock_unpoisoned(&self.inner);
        if inner.index.remove(key).is_none() {
            return Ok(());
        }
        inner.roll_if_needed()?;
        let encoded_key = key.encode();
        let (_, total_len) = inner.active.append(&encoded_key, &[], true)?;
        inner.stats_writes += 1;
        inner.disk_bytes += total_len;
        Ok(())
    }

    /// This shard's keys for one `(stream, format)` pair, in segment order.
    pub(crate) fn segments_of(&self, stream: &str, format: FormatId) -> Vec<SegmentKey> {
        let lo = SegmentKey::new(stream, format, 0);
        let hi = SegmentKey::new(stream, format, u64::MAX);
        lock_unpoisoned(&self.inner)
            .index
            .range(lo..=hi)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// This shard's live keys, in key order.
    pub(crate) fn keys(&self) -> Vec<SegmentKey> {
        lock_unpoisoned(&self.inner).index.keys().cloned().collect()
    }

    /// Number of live segments in this shard.
    pub(crate) fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).index.len()
    }

    /// Total bytes of live values stored in this shard for one
    /// `(stream, format)` pair.
    pub(crate) fn bytes_of(&self, stream: &str, format: FormatId) -> u64 {
        let lo = SegmentKey::new(stream, format, 0);
        let hi = SegmentKey::new(stream, format, u64::MAX);
        lock_unpoisoned(&self.inner)
            .index
            .range(lo..=hi)
            .map(|(_, v)| v.value_len)
            .sum()
    }

    /// This shard's statistics.
    pub(crate) fn stats(&self) -> StoreStats {
        let inner = lock_unpoisoned(&self.inner);
        StoreStats {
            live_segments: inner.index.len(),
            live_bytes: inner.index.values().map(|v| v.value_len).sum(),
            disk_bytes: inner.disk_bytes,
            log_files: inner.sealed.len() + 1,
            writes: inner.stats_writes,
            reads: inner.stats_reads,
        }
    }

    /// Flush and fsync the active log.
    pub(crate) fn sync(&self) -> Result<()> {
        lock_unpoisoned(&self.inner).active.sync()
    }

    /// Rewrite all live records into fresh log files and delete the old
    /// ones, reclaiming space left by deletions and overwrites. Returns the
    /// number of bytes reclaimed.
    pub(crate) fn compact(&self) -> Result<u64> {
        let mut inner = lock_unpoisoned(&self.inner);
        let before = inner.disk_bytes;
        // Collect live key/value pairs (reading through the old files).
        let entries: Vec<(SegmentKey, ValueLocation)> =
            inner.index.iter().map(|(k, v)| (k.clone(), *v)).collect();
        let mut values = Vec::with_capacity(entries.len());
        for (key, loc) in &entries {
            values.push((key.clone(), inner.read_at(*loc)?));
        }
        // Seal the old generation (it stays registered until its logs are
        // really gone) and start a new one.
        let (old_id, old_name) = (inner.active.id, inner.active.name().to_owned());
        inner.sealed.insert(old_id, old_name);
        let old_logs: Vec<(u64, String)> = inner
            .sealed
            .iter()
            .map(|(id, name)| (*id, name.clone()))
            .collect();
        let next_id = old_id + 1;
        inner.active = LogFile::create(Arc::clone(&inner.backend), &inner.dir, next_id)?;
        inner.index.clear();
        for (key, value) in values {
            inner.roll_if_needed()?;
            let encoded = key.encode();
            let (offset, total_len) = inner.active.append(&encoded, &value, false)?;
            let file_id = inner.active.id;
            inner.index.insert(
                key,
                ValueLocation {
                    file_id,
                    offset,
                    total_len,
                    value_len: value.len() as u64,
                },
            );
            inner.disk_bytes += total_len;
        }
        inner.active.sync()?;
        // Oldest first, stopping at the first failure. The rewrite dropped
        // the tombstones, so an old put that outlived the log holding its
        // tombstone would come back at the next reopen; removed in id order,
        // whatever is left replays to the same state. Logs not yet removed
        // stay sealed, and a later compaction removes them.
        for (id, name) in old_logs {
            inner.backend.remove(&name)?;
            inner.sealed.remove(&id);
        }
        inner.disk_bytes -= before;
        Ok(before.saturating_sub(inner.disk_bytes))
    }
}

impl ShardInner {
    fn roll_if_needed(&mut self) -> Result<()> {
        if self.active.len() >= LOG_ROLL_BYTES {
            self.active.sync()?;
            let old_id = self.active.id;
            let old_name = self.active.name().to_owned();
            self.sealed.insert(old_id, old_name);
            self.active = LogFile::create(Arc::clone(&self.backend), &self.dir, old_id + 1)?;
        }
        Ok(())
    }

    fn read_at(&self, location: ValueLocation) -> Result<Vec<u8>> {
        // CRC-verified random access, for the active and sealed logs alike.
        if location.file_id == self.active.id {
            return self.active.read_value(location.offset, location.total_len);
        }
        let name = self.sealed.get(&location.file_id).ok_or_else(|| {
            VStoreError::corruption(format!("missing log file {}", location.file_id))
        })?;
        LogFile::read_value_in(
            self.backend.as_ref(),
            name,
            location.offset,
            location.total_len,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::faulty::{injected, FaultyDevice};

    /// A device whose `remove` of the one log `name` fails.
    fn remove_fails(name: String) -> FaultyDevice {
        let device = FaultyDevice::over(Arc::new(MemBackend::new()));
        lock_unpoisoned(&device.script)
            .faults
            .push(("remove", name, injected));
        device
    }

    /// Compaction drops tombstones, so it may not remove the log holding a
    /// tombstone while an older log still holds the put it deletes.
    #[test]
    fn failed_log_removal_stops_compaction_and_resurrects_nothing() {
        let dir = "shard-000".to_owned();
        let backend: Arc<dyn StorageBackend> = Arc::new(remove_fails(LogFile::log_name(&dir, 1)));
        let key = |i| SegmentKey::new("cam0", FormatId(0), i);

        // Log 1 holds the puts; a reopen makes log 2, which takes the
        // tombstone of key 0 and a third put.
        let shard = Shard::open(Arc::clone(&backend), dir.clone()).unwrap();
        shard.put(&key(0), b"eroded").unwrap();
        shard.put(&key(1), b"kept").unwrap();
        drop(shard);
        let shard = Shard::open(Arc::clone(&backend), dir.clone()).unwrap();
        shard.delete(&key(0)).unwrap();
        shard.put(&key(2), b"newer").unwrap();

        let err = shard.compact().unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        // The oldest log could not go, so the one with the tombstone stayed.
        let logs = backend.list(&dir).unwrap();
        assert!(logs.contains(&LogFile::file_name(1)), "{logs:?}");
        assert!(logs.contains(&LogFile::file_name(2)), "{logs:?}");
        let live = |shard: &Shard| {
            assert_eq!(shard.get(&key(0)).unwrap(), None);
            assert_eq!(shard.get(&key(1)).unwrap().unwrap(), b"kept");
            assert_eq!(shard.get(&key(2)).unwrap().unwrap(), b"newer");
            assert_eq!(shard.len(), 2);
        };
        live(&shard);
        drop(shard);
        live(&Shard::open(Arc::clone(&backend), dir.clone()).unwrap());
    }

    #[test]
    fn compaction_retries_the_logs_an_earlier_failure_left_behind() {
        let dir = "shard-000".to_owned();
        let fails = remove_fails(LogFile::log_name(&dir, 1));
        let backend: Arc<dyn StorageBackend> = Arc::new(fails.clone());
        let key = SegmentKey::new("cam0", FormatId(0), 0);
        let shard = Shard::open(Arc::clone(&backend), dir.clone()).unwrap();
        shard.put(&key, b"first").unwrap();
        shard.put(&key, b"second").unwrap();
        shard.compact().unwrap_err();
        assert_eq!(shard.stats().log_files, 2);

        lock_unpoisoned(&fails.script).faults.clear();
        shard.compact().unwrap();
        assert_eq!(shard.get(&key).unwrap().unwrap(), b"second");
        assert_eq!(backend.list(&dir).unwrap(), [LogFile::file_name(3)]);
        let stats = shard.stats();
        assert_eq!(stats.log_files, 1);
        let on_disk = backend.len(&LogFile::log_name(&dir, 3)).unwrap().unwrap();
        assert_eq!(stats.disk_bytes, on_disk);
    }
}
