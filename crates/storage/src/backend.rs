//! The storage backend abstraction: every byte the segment store reads or
//! writes flows through a [`StorageBackend`].
//!
//! The store's I/O needs are narrow — append-only named logs, CRC-verified
//! random reads, whole-file scans at recovery, small meta files, and listing
//! — and the cold tier's are narrower still (whole objects written, read
//! and removed by name). Two implementations ship:
//!
//! * [`FsBackend`] — the local filesystem, byte-for-byte the pre-backend
//!   on-disk format (existing stores reopen cleanly);
//! * [`MemBackend`] — an in-memory map for tests and benchmarks, with the
//!   exact same observable behaviour (the backend parity tests enforce it).
//!
//! Log names are `/`-separated paths relative to the backend root, e.g.
//! `shard-003/vlog-00000001.dat` or `SHARDS`.
#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the storage-backend seam: the one module that calls std::fs"
)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use vstore_types::sync::lock_unpoisoned;
use vstore_types::{Result, VStoreError};

/// An append handle to one named log, held open by the active log file of a
/// shard. Appends must become visible to [`StorageBackend::read_at`] and
/// [`StorageBackend::read_all`] immediately (the index points readers at
/// records the moment `put` returns).
pub trait LogHandle: Send + fmt::Debug {
    /// Append `data` at the end of the log.
    fn append(&mut self, data: &[u8]) -> Result<()>;
    /// Flush buffered appends to stable storage.
    fn sync(&mut self) -> Result<()>;
}

/// Backend-agnostic I/O over named logs.
///
/// Implementations must be internally synchronised: `Shard` serialises
/// writes per shard, but reads, listings and removals arrive concurrently
/// from many shards and query threads.
pub trait StorageBackend: fmt::Debug + Send + Sync {
    /// Open (or create) the named log for appending. `truncate` empties any
    /// existing log; otherwise appends go after the current contents.
    fn open(&self, name: &str, truncate: bool) -> Result<Box<dyn LogHandle>>;

    /// Read exactly `len` bytes at `offset` of the named log.
    fn read_at(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>>;

    /// Read the whole named log; `Ok(None)` when it does not exist.
    fn read_all(&self, name: &str) -> Result<Option<Vec<u8>>>;

    /// Atomically replace the named log's contents (meta files, cold-tier
    /// objects): a reader sees the old contents or the new, never a mix.
    fn write_all(&self, name: &str, data: &[u8]) -> Result<()>;

    /// Remove the named log. Removing a missing log is a no-op.
    fn remove(&self, name: &str) -> Result<()>;

    /// Current length of the named log; `Ok(None)` when it does not exist.
    fn len(&self, name: &str) -> Result<Option<u64>>;

    /// Immediate child names under `dir` (`""` is the root): plain logs and
    /// directory-like prefixes alike, without any path separator. A missing
    /// directory lists as empty.
    fn list(&self, dir: &str) -> Result<Vec<String>>;

    /// Human-readable location of the backend (a path, or `<mem>`).
    fn describe(&self) -> String;
}

/// Which [`StorageBackend`] a store should run on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackendOptions {
    /// The local filesystem ([`FsBackend`]) — the default, and the only
    /// backend that persists across process restarts.
    #[default]
    Fs,
    /// An in-memory backend ([`MemBackend`]) for tests and benchmarks.
    Mem,
}

impl BackendOptions {
    /// Instantiate the chosen backend rooted at `root` (ignored by `Mem`).
    pub fn create(&self, root: &Path) -> Result<Arc<dyn StorageBackend>> {
        Ok(match self {
            BackendOptions::Fs => Arc::new(FsBackend::new(root)?),
            BackendOptions::Mem => Arc::new(MemBackend::new()),
        })
    }
}

// ---------------------------------------------------------------------------
// Filesystem backend
// ---------------------------------------------------------------------------

/// The local-filesystem backend: names resolve to paths under a root
/// directory. This reproduces the pre-backend on-disk format exactly.
#[derive(Debug)]
pub struct FsBackend {
    root: PathBuf,
}

impl FsBackend {
    /// A backend rooted at `root`, creating the directory if needed.
    pub fn new(root: impl AsRef<Path>) -> Result<FsBackend> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(FsBackend { root })
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn resolve(&self, name: &str) -> Result<PathBuf> {
        if name.is_empty()
            || name
                .split('/')
                .any(|c| c.is_empty() || c == "." || c == "..")
        {
            return Err(VStoreError::invalid_argument(format!(
                "invalid log name {name:?}"
            )));
        }
        Ok(self.root.join(name))
    }

    fn resolve_parent(&self, name: &str) -> Result<PathBuf> {
        let path = self.resolve(name)?;
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        Ok(path)
    }
}

/// Largest single `write` the filesystem backend issues. Handed a 2.6 MB
/// segment in one call, the kernel backs it with the largest page-cache
/// folios it can get, and on the benchmark host (Linux 6.18, ext4) taking
/// those from the free lists cost anything from 0.7 to 15 ms, from one put
/// to the next. In pieces of this size the same bytes take 0.8 ms every
/// time; at 1 MiB the odd stall is back.
const WRITE_CHUNK: usize = 256 * 1024;

/// `write_all` in pieces of at most [`WRITE_CHUNK`] bytes.
fn write_chunked(file: &mut File, data: &[u8]) -> std::io::Result<()> {
    data.chunks(WRITE_CHUNK)
        .try_for_each(|chunk| file.write_all(chunk))
}

#[derive(Debug)]
struct FsLogHandle {
    file: File,
}

impl LogHandle for FsLogHandle {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        write_chunked(&mut self.file, data)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.flush()?;
        self.file.sync_data()?;
        Ok(())
    }
}

impl StorageBackend for FsBackend {
    fn open(&self, name: &str, truncate: bool) -> Result<Box<dyn LogHandle>> {
        let path = self.resolve_parent(name)?;
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(truncate)
            .open(&path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Box::new(FsLogHandle { file }))
    }

    fn read_at(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        let mut file = File::open(self.resolve(name)?)?;
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; vstore_types::cast::usize_from_u64(len, "log read")?];
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn read_all(&self, name: &str) -> Result<Option<Vec<u8>>> {
        match fs::read(self.resolve(name)?) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn write_all(&self, name: &str, data: &[u8]) -> Result<()> {
        // Write-then-rename so a crash mid-write can never leave a
        // truncated meta file (the trait promises atomic replacement, and
        // the SHARDS meta file gates every reopen).
        let path = self.resolve_parent(name)?;
        let tmp = path.with_extension("tmp");
        write_chunked(&mut File::create(&tmp)?, data)?;
        fs::rename(&tmp, &path)?;
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<()> {
        match fs::remove_file(self.resolve(name)?) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn len(&self, name: &str) -> Result<Option<u64>> {
        match fs::metadata(self.resolve(name)?) {
            Ok(meta) => Ok(Some(meta.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn list(&self, dir: &str) -> Result<Vec<String>> {
        let path = if dir.is_empty() {
            self.root.clone()
        } else {
            self.resolve(dir)?
        };
        let entries = match fs::read_dir(&path) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().map(str::to_owned))
            .collect();
        names.sort_unstable();
        Ok(names)
    }

    fn describe(&self) -> String {
        self.root.display().to_string()
    }
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

/// An in-memory backend: logs are entries of a shared map, each behind its
/// own lock (the map lock is held only to look names up, preserving the
/// sharded store's lock independence). `sync` is a no-op; nothing survives
/// the process.
#[derive(Debug, Default)]
pub struct MemBackend {
    files: Mutex<MemFiles>,
}

/// The name → log map, a lock class of its own.
#[derive(Debug, Default)]
struct MemFiles(BTreeMap<String, Arc<Mutex<MemLog>>>);

/// One log's bytes, a lock class of its own.
#[derive(Debug, Default)]
struct MemLog(Vec<u8>);

impl MemBackend {
    /// A fresh, empty in-memory backend.
    pub fn new() -> MemBackend {
        MemBackend::default()
    }

    /// The named log's shared buffer, if it exists.
    fn log(&self, name: &str) -> Option<Arc<Mutex<MemLog>>> {
        lock_unpoisoned(&self.files).0.get(name).cloned()
    }

    /// The named log's shared buffer, creating it if needed.
    fn log_or_default(&self, name: &str) -> Arc<Mutex<MemLog>> {
        Arc::clone(
            lock_unpoisoned(&self.files)
                .0
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// An I/O-shaped "not found" error, matching what [`FsBackend`] surfaces
    /// for the same condition so callers observe identical error behaviour.
    fn not_found(name: &str) -> VStoreError {
        VStoreError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("log {name} does not exist"),
        ))
    }
}

#[derive(Debug)]
struct MemLogHandle {
    log: Arc<Mutex<MemLog>>,
}

impl LogHandle for MemLogHandle {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        lock_unpoisoned(&self.log).0.extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

impl StorageBackend for MemBackend {
    fn open(&self, name: &str, truncate: bool) -> Result<Box<dyn LogHandle>> {
        let log = self.log_or_default(name);
        if truncate {
            lock_unpoisoned(&log).0.clear();
        }
        Ok(Box::new(MemLogHandle { log }))
    }

    fn read_at(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        let log = self.log(name).ok_or_else(|| Self::not_found(name))?;
        let data = &lock_unpoisoned(&log).0;
        // Bounds arithmetic in u64, so a 32-bit host can never wrap
        // `offset as usize` into a bogus in-range slice.
        let in_range = offset
            .checked_add(len)
            .is_some_and(|end| end <= data.len() as u64);
        if !in_range {
            // The same error class FsBackend's read_exact surfaces for a
            // read past the end of a file.
            return Err(VStoreError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "read past end of log {name}: {offset}+{len} > {}",
                    data.len()
                ),
            )));
        }
        // In range within an in-memory buffer, so both fit a usize.
        let start = vstore_types::cast::usize_from_u64(offset, "log read offset")?;
        let end = vstore_types::cast::usize_from_u64(offset + len, "log read end")?;
        Ok(data[start..end].to_vec())
    }

    fn read_all(&self, name: &str) -> Result<Option<Vec<u8>>> {
        Ok(self.log(name).map(|log| lock_unpoisoned(&log).0.clone()))
    }

    fn write_all(&self, name: &str, data: &[u8]) -> Result<()> {
        // Mutate the existing buffer in place so open handles to the same
        // log keep observing it.
        lock_unpoisoned(&self.log_or_default(name)).0 = data.to_vec();
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<()> {
        lock_unpoisoned(&self.files).0.remove(name);
        Ok(())
    }

    fn len(&self, name: &str) -> Result<Option<u64>> {
        Ok(self
            .log(name)
            .map(|log| lock_unpoisoned(&log).0.len() as u64))
    }

    fn list(&self, dir: &str) -> Result<Vec<String>> {
        let prefix = if dir.is_empty() {
            String::new()
        } else {
            format!("{dir}/")
        };
        let files = lock_unpoisoned(&self.files);
        let children: BTreeSet<String> = files
            .0
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
        "<mem>".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "vstore-backend-test-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ))
    }

    fn backends(tag: &str) -> Vec<(Arc<dyn StorageBackend>, Option<PathBuf>)> {
        let root = temp_root(tag);
        vec![
            (Arc::new(FsBackend::new(&root).unwrap()), Some(root)),
            (Arc::new(MemBackend::new()), None),
        ]
    }

    fn cleanup(root: Option<PathBuf>) {
        if let Some(root) = root {
            fs::remove_dir_all(root).ok();
        }
    }

    #[test]
    fn append_read_round_trip_on_both_backends() {
        for (backend, root) in backends("roundtrip") {
            let mut log = backend.open("shard-000/vlog-00000001.dat", true).unwrap();
            log.append(b"hello ").unwrap();
            log.append(b"world").unwrap();
            log.sync().unwrap();
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
            cleanup(root);
        }
    }

    #[test]
    fn writes_longer_than_one_chunk_arrive_whole_and_in_order() {
        // Two full chunks and a ragged tail, after a short record, so that
        // no piece starts on a chunk boundary of the file.
        let big: Vec<u8> = (0..2 * WRITE_CHUNK + 4097)
            .map(|i| (i % 251) as u8)
            .collect();
        for (backend, root) in backends("chunked") {
            let mut log = backend.open("a.dat", true).unwrap();
            log.append(b"head").unwrap();
            log.append(&big).unwrap();
            log.append(b"tail").unwrap();
            let all = backend.read_all("a.dat").unwrap().unwrap();
            assert_eq!(all.len(), big.len() + 8);
            assert_eq!(&all[4..4 + big.len()], &big[..]);
            assert_eq!(&all[4 + big.len()..], b"tail");

            backend.write_all("META", &big).unwrap();
            assert_eq!(backend.read_all("META").unwrap().unwrap(), big);
            cleanup(root);
        }
    }

    #[test]
    fn reopen_without_truncate_appends_after_existing_bytes() {
        for (backend, root) in backends("reopen") {
            {
                let mut log = backend.open("a.dat", true).unwrap();
                log.append(b"one").unwrap();
            }
            {
                let mut log = backend.open("a.dat", false).unwrap();
                log.append(b"two").unwrap();
            }
            assert_eq!(backend.read_all("a.dat").unwrap().unwrap(), b"onetwo");
            let mut log = backend.open("a.dat", true).unwrap();
            log.append(b"x").unwrap();
            drop(log);
            assert_eq!(backend.len("a.dat").unwrap(), Some(1));
            cleanup(root);
        }
    }

    #[test]
    fn missing_logs_read_as_none_and_remove_is_idempotent() {
        for (backend, root) in backends("missing") {
            assert_eq!(backend.read_all("nope.dat").unwrap(), None);
            assert_eq!(backend.len("nope.dat").unwrap(), None);
            backend.remove("nope.dat").unwrap();
            backend.write_all("meta", b"7\n").unwrap();
            assert_eq!(backend.read_all("meta").unwrap().unwrap(), b"7\n");
            backend.remove("meta").unwrap();
            assert_eq!(backend.read_all("meta").unwrap(), None);
            cleanup(root);
        }
    }

    #[test]
    fn list_returns_immediate_children_only() {
        for (backend, root) in backends("list") {
            backend.write_all("SHARDS", b"2\n").unwrap();
            backend
                .write_all("shard-000/vlog-00000001.dat", b"a")
                .unwrap();
            backend
                .write_all("shard-000/vlog-00000002.dat", b"b")
                .unwrap();
            backend
                .write_all("shard-001/vlog-00000001.dat", b"c")
                .unwrap();
            let mut top = backend.list("").unwrap();
            top.sort_unstable();
            assert_eq!(top, vec!["SHARDS", "shard-000", "shard-001"]);
            assert_eq!(
                backend.list("shard-000").unwrap(),
                vec!["vlog-00000001.dat", "vlog-00000002.dat"]
            );
            assert!(backend.list("shard-999").unwrap().is_empty());
            cleanup(root);
        }
    }

    #[test]
    fn fs_backend_rejects_escaping_names() {
        let root = temp_root("escape");
        let backend = FsBackend::new(&root).unwrap();
        assert!(backend.read_all("../outside").is_err());
        assert!(backend.write_all("a/../../b", b"x").is_err());
        assert!(backend.open("", true).is_err());
        fs::remove_dir_all(root).ok();
    }

    #[test]
    fn read_failures_surface_the_same_error_class_on_both_backends() {
        // Error parity matters to callers that branch on the error kind: a
        // missing or short log must look I/O-shaped on both backends.
        for (backend, root) in backends("read-errors") {
            backend.write_all("short", b"abc").unwrap();
            for err in [
                backend.read_at("short", 1, 10).unwrap_err(),
                backend.read_at("absent", 0, 1).unwrap_err(),
            ] {
                assert!(
                    matches!(err, VStoreError::Io(_)),
                    "expected an Io error, got {err:?}"
                );
            }
            cleanup(root);
        }
    }

    #[test]
    fn write_all_replaces_without_leaving_temp_debris() {
        for (backend, root) in backends("write-all") {
            backend.write_all("SHARDS", b"8\n").unwrap();
            backend.write_all("SHARDS", b"4\n").unwrap();
            assert_eq!(backend.read_all("SHARDS").unwrap().unwrap(), b"4\n");
            // The fs implementation writes via a temp file + rename; no
            // `.tmp` artefact may remain visible afterwards.
            assert!(backend
                .list("")
                .unwrap()
                .iter()
                .all(|n| !n.ends_with(".tmp")));
            cleanup(root);
        }
    }

    #[test]
    fn mem_write_all_keeps_open_handles_attached() {
        let backend = MemBackend::new();
        let mut log = backend.open("log", true).unwrap();
        log.append(b"abc").unwrap();
        backend.write_all("log", b"x").unwrap();
        log.append(b"yz").unwrap();
        assert_eq!(backend.read_all("log").unwrap().unwrap(), b"xyz");
    }
}
