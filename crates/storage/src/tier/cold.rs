//! The cold tier's store: one checksummed object per demoted segment.
//!
//! A segment is a value under a key (§5) and the cold device is an object
//! store, so the mapping is direct:
//!
//! * `put(key, bytes)` is one `device.write_all("segments/<hex(key)>", …)`.
//!   The object body is exactly one value-log record
//!   ([`encode_record`]), and `write_all`'s replace-or-nothing is the
//!   publish: there is nothing to sync separately;
//! * `get` reads the object whole through [`LogFile::read_value_in`] — the
//!   hot log's parser and checksum, so a flipped bit in cold storage is an
//!   error at read time, never served;
//! * `delete` is `device.remove`: the bytes are back the moment it returns.
//!
//! What is resident — keys and value lengths — is an in-memory map rebuilt
//! from `list` + `len` at open; opening reads no object. The store does not
//! order operations on one key against each other: [`TierEngine`]'s per-key
//! lock does.
//!
//! [`TierEngine`]: crate::TierEngine

use crate::backend::StorageBackend;
use crate::key::SegmentKey;
use crate::log::{encode_record, record_size, LogFile};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use vstore_types::sync::lock_unpoisoned;
use vstore_types::{Result, VStoreError};

/// Device namespace of the segment objects.
pub(super) const OBJECT_DIR: &str = "segments";
/// Root file of the chunked-log layout earlier versions kept on this
/// device.
const OLD_LAYOUT_FILE: &str = "MANIFEST";

/// The cold segment store over any [`StorageBackend`] device: one
/// checksummed object per demoted segment.
pub struct ColdStore {
    device: Arc<dyn StorageBackend>,
    /// Resident segments and their value lengths.
    resident: Mutex<BTreeMap<SegmentKey, u64>>,
    /// Names under `segments/` that are no object of this store: left
    /// alone, and reported by `Debug`.
    foreign: Vec<String>,
}

impl std::fmt::Debug for ColdStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColdStore")
            .field("device", &self.device.describe())
            .field("segments", &self.len())
            .field("foreign", &self.foreign)
            .finish()
    }
}

impl ColdStore {
    /// Open the cold store on `device`, listing what it holds.
    ///
    /// A device that holds the earlier layout's `MANIFEST` is refused:
    /// video demoted into it must not read as "no cold segments". Leftover
    /// `segments/*.tmp` files are removed — each is a `write_all` cut before
    /// its rename, never published, whose segment is still hot because a
    /// demotion deletes the hot copy only after `put` returns.
    pub fn open(device: Arc<dyn StorageBackend>) -> Result<ColdStore> {
        if device.len(OLD_LAYOUT_FILE)?.is_some() {
            return Err(VStoreError::corruption(format!(
                "cold device {} holds a {OLD_LAYOUT_FILE} of the chunked-log layout, which this \
                 version cannot read; query its segments back hot with the version that wrote \
                 it, then open an empty device",
                device.describe()
            )));
        }
        let mut resident = BTreeMap::new();
        let mut foreign = Vec::new();
        for file in device.list(OBJECT_DIR)? {
            let name = format!("{OBJECT_DIR}/{file}");
            if file.ends_with(".tmp") {
                device.remove(&name)?;
            } else if let Some(key) = SegmentKey::from_object_hex(&file) {
                // The name is the hex of the encoded key, so its length
                // gives the frame's overhead without reading the object. A
                // shorter object is damaged: it counts for nothing here, and
                // reading it says what is wrong.
                let overhead = record_size(file.len() / 2, 0);
                let len = device.len(&name)?.unwrap_or(0);
                resident.insert(key, len.saturating_sub(overhead));
            } else {
                foreign.push(name);
            }
        }
        Ok(ColdStore {
            device,
            resident: Mutex::new(resident),
            foreign,
        })
    }

    /// Store a segment, replacing any previous object under the key. When
    /// this returns the object is published on the device.
    pub fn put(&self, key: &SegmentKey, value: &[u8]) -> Result<()> {
        let record = encode_record(&key.encode(), value, false)?;
        self.device
            .write_all(&key.object_name(OBJECT_DIR), &record)?;
        lock_unpoisoned(&self.resident).insert(key.clone(), value.len() as u64);
        Ok(())
    }

    /// Fetch a segment, verifying its checksum. `Ok(None)` when the key is
    /// not resident (decided in memory, without touching the device).
    pub fn get(&self, key: &SegmentKey) -> Result<Option<Vec<u8>>> {
        if !self.contains(key) {
            return Ok(None);
        }
        let name = key.object_name(OBJECT_DIR);
        // The device, not the map, says how long the object is now: one cut
        // short then fails as a truncated record rather than a short read.
        let len = self.device.len(&name)?.ok_or_else(|| {
            VStoreError::corruption(format!(
                "cold object {name} is gone from {}",
                self.device.describe()
            ))
        })?;
        LogFile::read_value_in(self.device.as_ref(), &name, 0, len).map(Some)
    }

    /// Delete a segment and return its bytes to the device. Deleting a
    /// missing key is a no-op.
    pub fn delete(&self, key: &SegmentKey) -> Result<()> {
        self.device.remove(&key.object_name(OBJECT_DIR))?;
        lock_unpoisoned(&self.resident).remove(key);
        Ok(())
    }

    /// `true` if the key is resident.
    pub fn contains(&self, key: &SegmentKey) -> bool {
        lock_unpoisoned(&self.resident).contains_key(key)
    }

    /// Number of resident segments.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.resident).len()
    }

    /// `true` when no segment is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All resident keys, in key order.
    pub fn keys(&self) -> Vec<SegmentKey> {
        lock_unpoisoned(&self.resident).keys().cloned().collect()
    }

    /// Total bytes of resident segment values (framing excluded).
    pub fn resident_bytes(&self) -> u64 {
        lock_unpoisoned(&self.resident).values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::store::SegmentStore;
    use vstore_types::FormatId;

    fn key(index: u64) -> SegmentKey {
        SegmentKey::new("cold stream/1", FormatId(2), index)
    }

    fn device() -> Arc<dyn StorageBackend> {
        Arc::new(MemBackend::new())
    }

    /// Bytes and object count under `segments/`.
    fn on_device(device: &dyn StorageBackend) -> (u64, usize) {
        let names = device.list(OBJECT_DIR).unwrap();
        let bytes = names
            .iter()
            .map(|n| device.len(&format!("{OBJECT_DIR}/{n}")).unwrap().unwrap())
            .sum();
        (bytes, names.len())
    }

    #[test]
    fn contents_survive_reopen_on_a_shared_device() {
        let device = device();
        let cold = ColdStore::open(Arc::clone(&device)).unwrap();
        assert_eq!(cold.get(&key(3)).unwrap(), None);
        cold.put(&key(3), b"persisted").unwrap();
        cold.put(&key(4), &[7u8; 300]).unwrap();
        cold.put(&key(5), b"").unwrap();
        assert_eq!(cold.get(&key(5)).unwrap().unwrap(), b"");
        cold.delete(&key(5)).unwrap();
        cold.delete(&key(5)).unwrap(); // idempotent
        for cold in [cold, ColdStore::open(device).unwrap()] {
            assert_eq!(cold.keys(), [key(3), key(4)]);
            assert!(cold.contains(&key(3)) && !cold.contains(&key(5)));
            assert_eq!((cold.len(), cold.resident_bytes()), (2, 309));
            assert_eq!(cold.get(&key(3)).unwrap().unwrap(), b"persisted");
            assert_eq!(cold.get(&key(4)).unwrap().unwrap(), [7u8; 300]);
            assert_eq!(cold.get(&key(5)).unwrap(), None);
        }
    }

    /// Nothing to compact: the device holds the resident objects' frames
    /// and not a byte more, the moment a replace or a remove returns.
    #[test]
    fn replace_and_remove_are_compaction_free() {
        let device = device();
        let cold = ColdStore::open(Arc::clone(&device)).unwrap();
        let frame = |value_len| SegmentStore::on_disk_cost(&key(0), value_len);
        cold.put(&key(0), b"old-bytes").unwrap();
        assert_eq!(on_device(device.as_ref()), (frame(9), 1));
        cold.put(&key(0), b"new").unwrap();
        assert_eq!(cold.get(&key(0)).unwrap().unwrap(), b"new");
        assert_eq!(on_device(device.as_ref()), (frame(3), 1));
        cold.delete(&key(0)).unwrap();
        assert_eq!(on_device(device.as_ref()), (0, 0));
    }

    #[test]
    fn corrupted_object_fails_its_checksum() {
        let device = device();
        let cold = ColdStore::open(Arc::clone(&device)).unwrap();
        cold.put(&key(0), b"precious-bytes").unwrap();
        let name = key(0).object_name(OBJECT_DIR);
        let good = device.read_all(&name).unwrap().unwrap();
        // One flipped value bit; then the object cut short.
        let mut flipped = good.clone();
        flipped[good.len() - 6] ^= 0x01;
        for (damaged, problem) in [
            (&flipped[..], "checksum mismatch"),
            (&good[..good.len() - 3], "truncated"),
        ] {
            device.write_all(&name, damaged).unwrap();
            let err = cold.get(&key(0)).unwrap_err();
            assert!(matches!(err, VStoreError::Corruption(_)), "{err:?}");
            assert!(err.to_string().contains(problem), "{err}");
        }
    }

    #[test]
    fn a_device_holding_the_old_layout_is_refused_by_name() {
        let device = device();
        device.write_all(OLD_LAYOUT_FILE, b"VCMF\x01").unwrap();
        device
            .write_all("objects/o0000000000000000.obj", b"chunk")
            .unwrap();
        let err = ColdStore::open(Arc::clone(&device)).unwrap_err();
        assert!(matches!(err, VStoreError::Corruption(_)), "{err:?}");
        assert!(err.to_string().contains("MANIFEST"), "{err}");
        // Refused, not touched.
        assert_eq!(device.list("").unwrap(), ["MANIFEST", "objects"]);
    }

    #[test]
    fn open_removes_unpublished_temp_files_and_leaves_foreign_names_alone() {
        let device = device();
        ColdStore::open(Arc::clone(&device))
            .unwrap()
            .put(&key(0), b"kept")
            .unwrap();
        let tmp = format!("{}.tmp", key(1).object_name(OBJECT_DIR));
        device.write_all(&tmp, b"half a reco").unwrap();
        device.write_all("segments/README", b"not ours").unwrap();
        let cold = ColdStore::open(Arc::clone(&device)).unwrap();
        assert_eq!(cold.keys(), [key(0)]);
        assert_eq!(device.len(&tmp).unwrap(), None, "temp file removed");
        assert_eq!(
            device.read_all("segments/README").unwrap().unwrap(),
            b"not ours"
        );
        assert!(format!("{cold:?}").contains("segments/README"), "{cold:?}");
    }
}
