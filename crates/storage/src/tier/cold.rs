//! The cold-tier storage backend: an object-store-style [`StorageBackend`]
//! that packs named logs into immutable, chunked, checksummed objects.
//!
//! Object stores (S3-style) have no append and no partial overwrite — only
//! immutable blobs. [`ColdBackend`] maps the backend trait's named-log
//! interface onto that model:
//!
//! * every `append`/`write_all` seals one or more **immutable chunk
//!   objects** (`objects/o<seq>.obj` on the underlying device, at most
//!   [`DEFAULT_COLD_CHUNK_BYTES`] each unless built with another size), each
//!   carrying a CRC32 in the manifest — a flipped bit in cold storage is
//!   detected at read time, not served;
//! * a **manifest** maps each log name to its ordered chunk list. It lives
//!   in memory for immediate read-after-append visibility (the store's
//!   index points readers at records the moment `put` returns) and is
//!   persisted to the device — atomically, via `write_all` — on `sync`,
//!   `write_all` and `remove`;
//! * the design is **append-only and compaction-free**: replacing or
//!   removing a log only rewrites the manifest; superseded chunk objects
//!   are left behind as garbage (cold capacity is assumed cheap), tracked
//!   by [`garbage_bytes`](ColdBackend::garbage_bytes).
//!
//! Any [`StorageBackend`] can serve as the device ([`FsBackend`] for a real
//! cold volume, [`MemBackend`] for tests), and a whole
//! [`SegmentStore`](crate::SegmentStore) runs on a `ColdBackend` unchanged —
//! `tests/backend_parity.rs` holds it to the same observable behaviour as
//! the hot backends.

use crate::backend::{LogHandle, StorageBackend};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use vstore_codec::wire::{ByteReader, ByteWriter};
use vstore_types::cast::{usize_from_u32, usize_from_u64};
use vstore_types::{Result, VStoreError};

/// Device name of the persisted manifest.
const MANIFEST_NAME: &str = "MANIFEST";
/// Manifest magic + format version.
const MANIFEST_MAGIC: &[u8; 4] = b"VCMF";
const MANIFEST_VERSION: u8 = 1;
/// Serialized size of one [`ChunkRef`]: object (8) + len (8) + crc (4).
const CHUNK_REF_BYTES: usize = 20;

/// Default chunk size: one object holds at most this many bytes. Segments
/// are hundreds of KiB, so one record usually seals exactly one object.
pub const DEFAULT_COLD_CHUNK_BYTES: u64 = 1 << 20;

/// One immutable chunk of a cold log.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChunkRef {
    /// Object sequence number (device name `objects/o<seq>.obj`).
    object: u64,
    /// Chunk length in bytes.
    len: u64,
    /// CRC32 of the chunk contents.
    crc: u32,
}

/// The manifest: each log's ordered chunk list, plus the object counter and
/// the running garbage total.
#[derive(Debug, Default)]
struct Manifest {
    logs: BTreeMap<String, Vec<ChunkRef>>,
    next_object: u64,
    garbage_bytes: u64,
}

impl Manifest {
    fn log_len(chunks: &[ChunkRef]) -> u64 {
        chunks.iter().map(|c| c.len).sum()
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_raw(MANIFEST_MAGIC);
        w.put_u8(MANIFEST_VERSION);
        w.put_u64(self.next_object);
        w.put_u64(self.garbage_bytes);
        // vstore-lint: allow(checked-cast) — one manifest entry per log, far inside u32
        w.put_u32(self.logs.len() as u32);
        for (name, chunks) in &self.logs {
            // vstore-lint: allow(checked-cast) — log names are short by construction
            w.put_u32(name.len() as u32);
            w.put_raw(name.as_bytes());
            // vstore-lint: allow(checked-cast) — chunk counts are bounded by log size
            w.put_u32(chunks.len() as u32);
            for chunk in chunks {
                w.put_u64(chunk.object);
                w.put_u64(chunk.len);
                w.put_u32(chunk.crc);
            }
        }
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Manifest> {
        let mut r = ByteReader::new(bytes);
        if r.get_raw(MANIFEST_MAGIC.len())? != MANIFEST_MAGIC {
            return Err(VStoreError::corruption("cold manifest has bad magic"));
        }
        let version = r.get_u8()?;
        if version != MANIFEST_VERSION {
            return Err(VStoreError::corruption(format!(
                "unsupported cold manifest version {version}"
            )));
        }
        let next_object = r.get_u64()?;
        let garbage_bytes = r.get_u64()?;
        let log_count = r.get_u32()?;
        let mut logs = BTreeMap::new();
        for _ in 0..log_count {
            let name_len = usize_from_u32(r.get_u32()?);
            let name = String::from_utf8(r.get_raw(name_len)?.to_vec())
                .map_err(|_| VStoreError::corruption("cold manifest name is not UTF-8"))?;
            // The manifest carries no checksum of its own, so a count is
            // believed only as far as the bytes behind it reach.
            let chunk_count = usize_from_u32(r.get_u32()?);
            if chunk_count > r.remaining() / CHUNK_REF_BYTES {
                return Err(VStoreError::corruption(format!(
                    "cold manifest declares {chunk_count} chunks for {name}, {} bytes remain",
                    r.remaining()
                )));
            }
            let mut chunks = Vec::with_capacity(chunk_count);
            for _ in 0..chunk_count {
                chunks.push(ChunkRef {
                    object: r.get_u64()?,
                    len: r.get_u64()?,
                    crc: r.get_u32()?,
                });
            }
            logs.insert(name, chunks);
        }
        Ok(Manifest {
            logs,
            next_object,
            garbage_bytes,
        })
    }
}

struct ColdInner {
    device: Arc<dyn StorageBackend>,
    manifest: Mutex<Manifest>,
    chunk_bytes: u64,
}

impl ColdInner {
    fn object_name(seq: u64) -> String {
        format!("objects/o{seq:016x}.obj")
    }

    /// Seal `data` into chunk objects (splitting at the chunk size) and
    /// return their refs. The objects are written before the manifest ever
    /// references them, so a reader can never chase a missing object.
    fn seal_chunks(&self, manifest: &mut Manifest, data: &[u8]) -> Result<Vec<ChunkRef>> {
        let chunk_len = usize_from_u64(self.chunk_bytes, "cold chunk size")?;
        let mut refs = Vec::new();
        for piece in data.chunks(chunk_len.max(1)) {
            let seq = manifest.next_object;
            manifest.next_object += 1;
            self.device.write_all(&Self::object_name(seq), piece)?;
            refs.push(ChunkRef {
                object: seq,
                len: piece.len() as u64,
                crc: vstore_types::crc32(piece),
            });
        }
        Ok(refs)
    }

    /// Retire a chunk list: its bytes become garbage (objects are immutable
    /// and never rewritten — compaction-free by design).
    fn retire(manifest: &mut Manifest, chunks: &[ChunkRef]) {
        manifest.garbage_bytes = manifest
            .garbage_bytes
            .saturating_add(Manifest::log_len(chunks));
    }

    /// Persist the manifest atomically (the device's `write_all` promises
    /// replace-or-nothing).
    fn persist(&self, manifest: &Manifest) -> Result<()> {
        self.device.write_all(MANIFEST_NAME, &manifest.encode())
    }

    /// Read and CRC-verify one whole chunk.
    fn read_chunk(&self, chunk: &ChunkRef) -> Result<Vec<u8>> {
        let data = self
            .device
            .read_at(&Self::object_name(chunk.object), 0, chunk.len)?;
        if vstore_types::crc32(&data) != chunk.crc {
            return Err(VStoreError::corruption(format!(
                "cold object {} failed its checksum",
                Self::object_name(chunk.object)
            )));
        }
        Ok(data)
    }

    fn not_found(name: &str) -> VStoreError {
        VStoreError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("cold log {name} does not exist"),
        ))
    }
}

/// The object-store-style cold backend. See the [module docs](self).
pub struct ColdBackend {
    inner: Arc<ColdInner>,
}

impl std::fmt::Debug for ColdBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let manifest = self.inner.manifest.lock();
        f.debug_struct("ColdBackend")
            .field("device", &self.inner.device.describe())
            .field("logs", &manifest.logs.len())
            .field("objects", &manifest.next_object)
            .field("chunk_bytes", &self.inner.chunk_bytes)
            .finish()
    }
}

impl ColdBackend {
    /// A cold backend over `device` with the default chunk size, loading the
    /// persisted manifest if one exists.
    pub fn new(device: Arc<dyn StorageBackend>) -> Result<ColdBackend> {
        Self::with_chunk_bytes(device, DEFAULT_COLD_CHUNK_BYTES)
    }

    /// [`new`](Self::new) with an explicit chunk size (clamped to ≥ 1).
    pub fn with_chunk_bytes(
        device: Arc<dyn StorageBackend>,
        chunk_bytes: u64,
    ) -> Result<ColdBackend> {
        let manifest = match device.read_all(MANIFEST_NAME)? {
            Some(bytes) => Manifest::decode(&bytes)?,
            None => Manifest::default(),
        };
        Ok(ColdBackend {
            inner: Arc::new(ColdInner {
                device,
                manifest: Mutex::new(manifest),
                chunk_bytes: chunk_bytes.max(1),
            }),
        })
    }

    /// Bytes held by superseded or removed chunk objects (never reclaimed —
    /// the cold tier is compaction-free).
    #[must_use]
    pub fn garbage_bytes(&self) -> u64 {
        self.inner.manifest.lock().garbage_bytes
    }

    /// Number of chunk objects ever sealed.
    #[must_use]
    pub fn object_count(&self) -> u64 {
        self.inner.manifest.lock().next_object
    }
}

/// An append handle to one cold log: appends seal chunk objects and extend
/// the in-memory manifest immediately; `sync` persists the manifest.
struct ColdLogHandle {
    inner: Arc<ColdInner>,
    name: String,
}

impl std::fmt::Debug for ColdLogHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColdLogHandle")
            .field("name", &self.name)
            .finish()
    }
}

impl LogHandle for ColdLogHandle {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let mut manifest = self.inner.manifest.lock();
        // Objects first, manifest second — see `seal_chunks`.
        let refs = self.inner.seal_chunks(&mut manifest, data)?;
        manifest
            .logs
            .entry(self.name.clone())
            .or_default()
            .extend(refs);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        let manifest = self.inner.manifest.lock();
        self.inner.persist(&manifest)
    }
}

impl StorageBackend for ColdBackend {
    fn open(&self, name: &str, truncate: bool) -> Result<Box<dyn LogHandle>> {
        if name.is_empty() {
            return Err(VStoreError::invalid_argument("empty cold log name"));
        }
        let mut manifest = self.inner.manifest.lock();
        if truncate {
            if let Some(old) = manifest.logs.insert(name.to_owned(), Vec::new()) {
                ColdInner::retire(&mut manifest, &old);
            }
        } else {
            manifest.logs.entry(name.to_owned()).or_default();
        }
        drop(manifest);
        Ok(Box::new(ColdLogHandle {
            inner: Arc::clone(&self.inner),
            name: name.to_owned(),
        }))
    }

    fn read_at(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        let chunks = {
            let manifest = self.inner.manifest.lock();
            manifest
                .logs
                .get(name)
                .ok_or_else(|| ColdInner::not_found(name))?
                .clone()
        };
        let total = Manifest::log_len(&chunks);
        let in_range = offset.checked_add(len).is_some_and(|end| end <= total);
        if !in_range {
            // The same error class the hot backends surface for a read past
            // the end of a log.
            return Err(VStoreError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("read past end of cold log {name}: {offset}+{len} > {total}"),
            )));
        }
        let mut out = Vec::with_capacity(usize_from_u64(len, "cold read")?);
        let mut chunk_start = 0u64;
        for chunk in &chunks {
            let chunk_end = chunk_start + chunk.len;
            if chunk_end > offset && chunk_start < offset + len {
                let data = self.inner.read_chunk(chunk)?;
                let from = offset.saturating_sub(chunk_start);
                let to = (offset + len - chunk_start).min(chunk.len);
                // Both bounds are within one resident chunk.
                out.extend_from_slice(
                    &data[usize_from_u64(from, "cold read")?..usize_from_u64(to, "cold read")?],
                );
            }
            chunk_start = chunk_end;
            if chunk_start >= offset + len {
                break;
            }
        }
        Ok(out)
    }

    fn read_all(&self, name: &str) -> Result<Option<Vec<u8>>> {
        let chunks = {
            let manifest = self.inner.manifest.lock();
            match manifest.logs.get(name) {
                Some(chunks) => chunks.clone(),
                None => return Ok(None),
            }
        };
        let mut out = Vec::with_capacity(usize_from_u64(Manifest::log_len(&chunks), "cold read")?);
        for chunk in &chunks {
            out.extend_from_slice(&self.inner.read_chunk(chunk)?);
        }
        Ok(Some(out))
    }

    fn write_all(&self, name: &str, data: &[u8]) -> Result<()> {
        if name.is_empty() {
            return Err(VStoreError::invalid_argument("empty cold log name"));
        }
        let mut manifest = self.inner.manifest.lock();
        let refs = self.inner.seal_chunks(&mut manifest, data)?;
        if let Some(old) = manifest.logs.insert(name.to_owned(), refs) {
            ColdInner::retire(&mut manifest, &old);
        }
        self.inner.persist(&manifest)
    }

    fn remove(&self, name: &str) -> Result<()> {
        let mut manifest = self.inner.manifest.lock();
        if let Some(old) = manifest.logs.remove(name) {
            ColdInner::retire(&mut manifest, &old);
            self.inner.persist(&manifest)?;
        }
        Ok(())
    }

    fn len(&self, name: &str) -> Result<Option<u64>> {
        let manifest = self.inner.manifest.lock();
        Ok(manifest
            .logs
            .get(name)
            .map(|chunks| Manifest::log_len(chunks)))
    }

    fn list(&self, dir: &str) -> Result<Vec<String>> {
        let prefix = if dir.is_empty() {
            String::new()
        } else {
            format!("{dir}/")
        };
        let manifest = self.inner.manifest.lock();
        let children: BTreeSet<String> = manifest
            .logs
            .keys()
            .filter_map(|name| name.strip_prefix(&prefix))
            .map(|rest| match rest.split_once('/') {
                Some((first, _)) => first.to_owned(),
                None => rest.to_owned(),
            })
            .collect();
        Ok(children.into_iter().collect())
    }

    fn describe(&self) -> String {
        format!("cold:{}", self.inner.device.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn cold() -> ColdBackend {
        ColdBackend::new(Arc::new(MemBackend::new())).unwrap()
    }

    #[test]
    fn append_read_round_trip_with_immediate_visibility() {
        let backend = cold();
        let mut log = backend.open("shard-000/vlog-00000001.dat", true).unwrap();
        log.append(b"hello ").unwrap();
        log.append(b"world").unwrap();
        // Visible before any sync: the store's index reads the moment a put
        // returns.
        assert_eq!(
            backend.len("shard-000/vlog-00000001.dat").unwrap(),
            Some(11)
        );
        assert_eq!(
            backend
                .read_at("shard-000/vlog-00000001.dat", 6, 5)
                .unwrap(),
            b"world"
        );
        assert_eq!(
            backend
                .read_all("shard-000/vlog-00000001.dat")
                .unwrap()
                .unwrap(),
            b"hello world"
        );
    }

    #[test]
    fn reads_span_chunk_boundaries() {
        let device: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let backend = ColdBackend::with_chunk_bytes(device, 4).unwrap();
        let mut log = backend.open("log", true).unwrap();
        log.append(b"abcdefghij").unwrap(); // chunks: abcd | efgh | ij
        assert_eq!(backend.object_count(), 3);
        assert_eq!(backend.read_at("log", 2, 6).unwrap(), b"cdefgh");
        assert_eq!(backend.read_at("log", 0, 10).unwrap(), b"abcdefghij");
        assert_eq!(backend.read_at("log", 9, 1).unwrap(), b"j");
        assert!(backend.read_at("log", 8, 3).is_err(), "past-end read");
    }

    #[test]
    fn manifest_survives_reopen_on_a_shared_device() {
        let device: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        {
            let backend = ColdBackend::new(Arc::clone(&device)).unwrap();
            let mut log = backend.open("a/b", true).unwrap();
            log.append(b"persisted").unwrap();
            log.sync().unwrap();
            backend.write_all("meta", b"7\n").unwrap();
        }
        let reopened = ColdBackend::new(device).unwrap();
        assert_eq!(reopened.read_all("a/b").unwrap().unwrap(), b"persisted");
        assert_eq!(reopened.read_all("meta").unwrap().unwrap(), b"7\n");
        assert_eq!(reopened.list("").unwrap(), vec!["a", "meta"]);
    }

    #[test]
    fn replace_and_remove_are_compaction_free() {
        let backend = cold();
        backend.write_all("log", b"old-bytes").unwrap();
        let objects_before = backend.object_count();
        backend.write_all("log", b"new").unwrap();
        assert_eq!(backend.read_all("log").unwrap().unwrap(), b"new");
        assert!(
            backend.object_count() > objects_before,
            "objects are immutable"
        );
        assert_eq!(backend.garbage_bytes(), 9, "old bytes become garbage");
        backend.remove("log").unwrap();
        assert_eq!(backend.read_all("log").unwrap(), None);
        assert_eq!(backend.garbage_bytes(), 12);
        backend.remove("log").unwrap(); // idempotent
    }

    #[test]
    fn corrupted_object_fails_its_checksum() {
        let device: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let backend = ColdBackend::new(Arc::clone(&device)).unwrap();
        backend.write_all("log", b"precious-bytes").unwrap();
        // Flip a bit in the single chunk object on the device.
        let object = ColdInner::object_name(0);
        let mut bytes = device.read_all(&object).unwrap().unwrap();
        bytes[0] ^= 0x01;
        device.write_all(&object, &bytes).unwrap();
        let err = backend.read_all("log").unwrap_err();
        assert!(matches!(err, VStoreError::Corruption(_)), "{err}");
    }

    /// The manifest's bytes did not change with its codec: one written by
    /// the parent commit decodes to what that commit read back and
    /// re-encodes to the same bytes.
    #[test]
    fn manifest_written_by_the_parent_commit_decodes_and_re_encodes_identically() {
        let golden = crate::hex_fixture(include_str!(
            "../../tests/fixtures/cold-manifest-written-by-27b60fc.hex"
        ));
        let manifest = Manifest::decode(&golden).unwrap();
        assert_eq!(manifest.next_object, 6);
        assert_eq!(manifest.garbage_bytes, 5);
        let lens: Vec<(&str, Vec<u64>)> = manifest
            .logs
            .iter()
            .map(|(name, chunks)| (name.as_str(), chunks.iter().map(|c| c.len).collect()))
            .collect();
        assert_eq!(
            lens,
            [
                ("SHARDS", vec![2]),
                ("shard-000/vlog-00000001.dat", vec![8, 8, 4]),
                ("shard-001/vlog-00000001.dat", vec![]),
            ]
        );
        assert_eq!(manifest.logs["SHARDS"][0].crc, vstore_types::crc32(b"2\n"));
        assert_eq!(manifest.encode(), golden);
    }

    /// The manifest has no checksum, so a damaged chunk count must fail as
    /// corruption on what the bytes can hold — not reserve 4 Gi entries.
    #[test]
    fn corrupt_chunk_count_is_corruption_not_a_huge_reservation() {
        let mut manifest = Manifest::default();
        manifest.logs.insert(
            "log".into(),
            vec![ChunkRef {
                object: 0,
                len: 9,
                crc: 7,
            }],
        );
        let good = manifest.encode();
        // magic 4 + version 1 + next_object 8 + garbage 8 + log count 4 +
        // name len 4 + "log" 3 = 32: the chunk count's four bytes.
        let count_at = 32;
        assert_eq!(good[count_at..count_at + 4], 1u32.to_le_bytes());
        for declared in [2u32, 0x0100_0001, u32::MAX] {
            let mut bad = good.clone();
            bad[count_at..count_at + 4].copy_from_slice(&declared.to_le_bytes());
            let err = Manifest::decode(&bad).unwrap_err();
            assert!(matches!(err, VStoreError::Corruption(_)), "{err}");
        }
        // Every prefix of a valid manifest fails the same way.
        for cut in 0..good.len() {
            assert!(matches!(
                Manifest::decode(&good[..cut]),
                Err(VStoreError::Corruption(_))
            ));
        }
    }

    #[test]
    fn missing_logs_match_hot_backend_error_behaviour() {
        let backend = cold();
        assert_eq!(backend.read_all("nope").unwrap(), None);
        assert_eq!(backend.len("nope").unwrap(), None);
        assert!(matches!(
            backend.read_at("nope", 0, 1).unwrap_err(),
            VStoreError::Io(_)
        ));
        assert!(backend.list("nope").unwrap().is_empty());
    }
}
