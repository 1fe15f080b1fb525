//! The append-only value log: record framing, appending, scanning.
//!
//! Record layout (all integers little-endian):
//!
//! ```text
//! ┌────────┬───────┬───────┬───────┬────────────┬──────────────┐
//! │ magic  │ flags │ klen  │ vlen  │ key bytes  │ value bytes  │ crc32
//! │ u32    │ u8    │ u32   │ u32   │ klen       │ vlen         │ u32
//! └────────┴───────┴───────┴───────┴────────────┴──────────────┘
//! ```
//!
//! The CRC covers flags, lengths, key and value. A record with `flags = 1`
//! is a tombstone (its value is empty). A torn tail (partial record after a
//! crash) is detected by the CRC or a truncated read and the scan stops at
//! the last complete record — earlier records stay readable.
//!
//! All I/O flows through a [`StorageBackend`]: a `LogFile` is a named log
//! plus an open append handle, and never touches the filesystem directly.

use crate::backend::{LogHandle, StorageBackend};
use std::sync::Arc;
use vstore_types::cast::{u32_from_usize, usize_from_u64};
use vstore_types::{Result, VStoreError};

/// Magic number at the start of every record.
const RECORD_MAGIC: u32 = 0x5653_4C47; // "VSLG"

/// Record flag: this record deletes the key.
pub const FLAG_TOMBSTONE: u8 = 1;

/// A parsed record returned by the scanner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Byte offset of the record header within the file.
    pub offset: u64,
    /// Total on-disk length of the record, including framing.
    pub total_len: u64,
    /// Encoded key bytes.
    pub key: Vec<u8>,
    /// Value bytes (empty for tombstones).
    pub value: Vec<u8>,
    /// `true` when the record is a tombstone.
    pub is_tombstone: bool,
}

/// Compute the CRC-32 (IEEE) of the record body. `klen`/`vlen` are the
/// lengths exactly as framed on disk — callers validate that the slices
/// really are that long, so the CRC can never cover silently truncated
/// length fields.
fn record_crc(flags: u8, klen: u32, vlen: u32, key: &[u8], value: &[u8]) -> u32 {
    vstore_types::crc32_parts(&[
        &[flags],
        &klen.to_le_bytes(),
        &vlen.to_le_bytes(),
        key,
        value,
    ])
}

/// On-disk size of a record with the given key/value lengths.
pub fn record_size(key_len: usize, value_len: usize) -> u64 {
    4 + 1 + 4 + 4 + key_len as u64 + value_len as u64 + 4
}

/// An append-only log file over a [`StorageBackend`].
#[derive(Debug)]
pub struct LogFile {
    backend: Arc<dyn StorageBackend>,
    name: String,
    handle: Box<dyn LogHandle>,
    len: u64,
    /// Numeric id used to order log files.
    pub id: u64,
}

impl LogFile {
    /// File name for a log id.
    pub fn file_name(id: u64) -> String {
        format!("vlog-{id:08}.dat")
    }

    /// Parse a log id from a file name, if it is a value log.
    pub fn parse_id(name: &str) -> Option<u64> {
        let rest = name.strip_prefix("vlog-")?.strip_suffix(".dat")?;
        rest.parse().ok()
    }

    /// Backend name of a log: `dir/vlog-<id>.dat` (`dir` may be empty).
    pub fn log_name(dir: &str, id: u64) -> String {
        if dir.is_empty() {
            Self::file_name(id)
        } else {
            format!("{dir}/{}", Self::file_name(id))
        }
    }

    /// Create a new, empty log (truncating any existing log of that name).
    pub fn create(backend: Arc<dyn StorageBackend>, dir: &str, id: u64) -> Result<LogFile> {
        let name = Self::log_name(dir, id);
        let handle = backend.open(&name, true)?;
        Ok(LogFile {
            backend,
            name,
            handle,
            len: 0,
            id,
        })
    }

    /// Open an existing log for appending.
    pub fn open(backend: Arc<dyn StorageBackend>, dir: &str, id: u64) -> Result<LogFile> {
        let name = Self::log_name(dir, id);
        let handle = backend.open(&name, false)?;
        let len = backend.len(&name)?.unwrap_or(0);
        Ok(LogFile {
            backend,
            name,
            handle,
            len,
            id,
        })
    }

    /// The backend name of this log.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current log length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when no record has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a record; returns its offset and total length.
    ///
    /// Keys and values longer than `u32::MAX` bytes are rejected with
    /// [`VStoreError::InvalidArgument`]: the record frame stores both
    /// lengths as `u32`, and writing a truncated length would corrupt every
    /// record that follows.
    pub fn append(&mut self, key: &[u8], value: &[u8], is_tombstone: bool) -> Result<(u64, u64)> {
        let flags = if is_tombstone { FLAG_TOMBSTONE } else { 0 };
        let klen = u32_from_usize(key.len(), "log record key")?;
        let vlen = u32_from_usize(value.len(), "log record value")?;
        let crc = record_crc(flags, klen, vlen, key, value);
        let mut buf = Vec::with_capacity(usize_from_u64(
            record_size(key.len(), value.len()),
            "log record",
        )?);
        buf.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        buf.push(flags);
        buf.extend_from_slice(&klen.to_le_bytes());
        buf.extend_from_slice(&vlen.to_le_bytes());
        buf.extend_from_slice(key);
        buf.extend_from_slice(value);
        buf.extend_from_slice(&crc.to_le_bytes());
        let offset = self.len;
        self.handle.append(&buf)?;
        self.len += buf.len() as u64;
        Ok((offset, buf.len() as u64))
    }

    /// Flush buffered writes to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.handle.sync()
    }

    /// Read the value of a record given its offset and total length, and
    /// verify its CRC.
    pub fn read_value(&self, offset: u64, total_len: u64) -> Result<Vec<u8>> {
        Self::read_value_in(self.backend.as_ref(), &self.name, offset, total_len)
    }

    /// [`read_value`](Self::read_value) against a log that is not open
    /// (random access into sealed logs).
    pub fn read_value_in(
        backend: &dyn StorageBackend,
        name: &str,
        offset: u64,
        total_len: u64,
    ) -> Result<Vec<u8>> {
        let buf = backend.read_at(name, offset, total_len)?;
        let record = parse_record(&buf, offset)?
            .ok_or_else(|| VStoreError::corruption("record truncated on read"))?;
        Ok(record.value)
    }

    /// Parse the complete records contained in an in-memory buffer whose
    /// first byte sits at `base_offset` within its file. Stops cleanly at a
    /// truncated or CRC-failing record.
    pub fn scan_buffer(buf: &[u8], base_offset: u64) -> Result<Vec<LogRecord>> {
        let mut records = Vec::new();
        let mut offset = 0usize;
        while offset < buf.len() {
            match parse_record(&buf[offset..], base_offset + offset as u64)? {
                Some(record) => {
                    // parse_record only returns records fully contained in
                    // the buffer, so the length always fits a usize.
                    let advance = usize_from_u64(record.total_len, "log record length")
                        .map_err(|e| VStoreError::corruption(e.to_string()))?;
                    records.push(record);
                    offset += advance;
                }
                None => break,
            }
        }
        Ok(records)
    }

    /// Scan all complete records of a named log. Stops cleanly at a torn
    /// tail; a missing log scans as empty.
    pub fn scan(backend: &dyn StorageBackend, name: &str) -> Result<Vec<LogRecord>> {
        let data = match backend.read_all(name)? {
            Some(data) => data,
            None => return Ok(Vec::new()),
        };
        Self::scan_buffer(&data, 0)
    }
}

/// Parse one record from the start of `buf`; `Ok(None)` means the buffer
/// ends in a truncated record (torn tail).
fn parse_record(buf: &[u8], offset: u64) -> Result<Option<LogRecord>> {
    const HEADER: usize = 4 + 1 + 4 + 4;
    if buf.len() < HEADER {
        return Ok(None);
    }
    let magic = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if magic != RECORD_MAGIC {
        return Err(VStoreError::corruption(format!(
            "bad record magic {magic:#x} at offset {offset}"
        )));
    }
    let flags = buf[4];
    let klen = u32::from_le_bytes([buf[5], buf[6], buf[7], buf[8]]);
    let vlen = u32::from_le_bytes([buf[9], buf[10], buf[11], buf[12]]);
    // Size arithmetic stays in u64: near-u32::MAX lengths would overflow a
    // 32-bit usize here and index the buffer with a wrapped total.
    let total = HEADER as u64 + u64::from(klen) + u64::from(vlen) + 4;
    if (buf.len() as u64) < total {
        return Ok(None);
    }
    // The record is fully contained in `buf`, so all three lengths fit a
    // usize on this platform; the checked conversions are the proof.
    let to_len =
        |v: u64, what| usize_from_u64(v, what).map_err(|e| VStoreError::corruption(e.to_string()));
    let total = to_len(total, "log record length")?;
    let (klen_wire, vlen_wire) = (klen, vlen);
    let klen = to_len(u64::from(klen), "log record key length")?;
    let vlen = to_len(u64::from(vlen), "log record value length")?;
    let key = buf[HEADER..HEADER + klen].to_vec();
    let value = buf[HEADER + klen..HEADER + klen + vlen].to_vec();
    let stored_crc = u32::from_le_bytes([
        buf[total - 4],
        buf[total - 3],
        buf[total - 2],
        buf[total - 1],
    ]);
    if stored_crc != record_crc(flags, klen_wire, vlen_wire, &key, &value) {
        // A CRC mismatch on the last record is a torn write; report it as a
        // torn tail rather than corruption so recovery keeps earlier data.
        return Ok(None);
    }
    Ok(Some(LogRecord {
        offset,
        total_len: total as u64,
        key,
        value,
        is_tombstone: flags & FLAG_TOMBSTONE != 0,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FsBackend, MemBackend};
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vstore-log-test-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every test runs against both backends; the on-log behaviour must be
    /// indistinguishable.
    fn backends(tag: &str) -> Vec<(Arc<dyn StorageBackend>, Option<PathBuf>)> {
        let dir = temp_dir(tag);
        vec![
            (Arc::new(FsBackend::new(&dir).unwrap()), Some(dir)),
            (Arc::new(MemBackend::new()), None),
        ]
    }

    fn cleanup(dir: Option<PathBuf>) {
        if let Some(dir) = dir {
            fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn append_and_scan_round_trip() {
        for (backend, dir) in backends("roundtrip") {
            let mut log = LogFile::create(Arc::clone(&backend), "", 1).unwrap();
            let (off1, len1) = log.append(b"key-a", b"value-a", false).unwrap();
            let (off2, _) = log.append(b"key-b", &vec![7u8; 10_000], false).unwrap();
            let (_, _) = log.append(b"key-a", b"", true).unwrap();
            log.sync().unwrap();
            assert_eq!(off2, off1 + len1);

            // Golden: the frame of the first record, byte for byte as every
            // earlier commit wrote it (magic, flags, klen, vlen, key, value,
            // CRC-32 0x922785F8) — logs on disk must keep opening.
            let golden = [
                0x47, 0x4C, 0x53, 0x56, 0x00, 0x05, 0, 0, 0, 0x07, 0, 0, 0, b'k', b'e', b'y', b'-',
                b'a', b'v', b'a', b'l', b'u', b'e', b'-', b'a', 0xF8, 0x85, 0x27, 0x92,
            ];
            assert_eq!(backend.read_at(log.name(), off1, len1).unwrap(), golden);

            let records = LogFile::scan(backend.as_ref(), log.name()).unwrap();
            assert_eq!(records.len(), 3);
            assert_eq!(records[0].key, b"key-a");
            assert_eq!(records[0].value, b"value-a");
            assert!(!records[0].is_tombstone);
            assert_eq!(records[1].value.len(), 10_000);
            assert!(records[2].is_tombstone);

            // Random access read of the second value.
            let value = log
                .read_value(records[1].offset, records[1].total_len)
                .unwrap();
            assert_eq!(value, vec![7u8; 10_000]);
            cleanup(dir);
        }
    }

    #[test]
    fn torn_tail_is_ignored_but_earlier_records_survive() {
        for (backend, dir) in backends("torn") {
            let mut log = LogFile::create(Arc::clone(&backend), "", 1).unwrap();
            log.append(b"k1", b"v1", false).unwrap();
            let (off2, len2) = log.append(b"k2", b"v2", false).unwrap();
            log.sync().unwrap();
            let name = log.name().to_owned();
            drop(log);
            // Truncate the log mid-way through the second record.
            let data = backend.read_all(&name).unwrap().unwrap();
            backend
                .write_all(&name, &data[..(off2 + len2 / 2) as usize])
                .unwrap();
            let records = LogFile::scan(backend.as_ref(), &name).unwrap();
            assert_eq!(records.len(), 1);
            assert_eq!(records[0].key, b"k1");
            cleanup(dir);
        }
    }

    #[test]
    fn corrupted_value_fails_crc_and_is_dropped() {
        for (backend, dir) in backends("crc") {
            let mut log = LogFile::create(Arc::clone(&backend), "", 1).unwrap();
            log.append(b"k1", b"v1", false).unwrap();
            let (off2, len2) = log.append(b"k2", b"AAAAAAAA", false).unwrap();
            log.sync().unwrap();
            let name = log.name().to_owned();
            drop(log);
            // Flip a byte inside the second record's value.
            let mut data = backend.read_all(&name).unwrap().unwrap();
            let value_pos = (off2 + len2 - 5) as usize;
            data[value_pos] ^= 0xFF;
            backend.write_all(&name, &data).unwrap();
            let records = LogFile::scan(backend.as_ref(), &name).unwrap();
            assert_eq!(records.len(), 1, "corrupt record should not be returned");
            cleanup(dir);
        }
    }

    #[test]
    fn scan_of_missing_log_is_empty() {
        for (backend, dir) in backends("missing") {
            let records = LogFile::scan(backend.as_ref(), "vlog-99999999.dat").unwrap();
            assert!(records.is_empty());
            cleanup(dir);
        }
    }

    #[test]
    fn bad_magic_is_reported_as_corruption() {
        for (backend, dir) in backends("magic") {
            let name = LogFile::file_name(1);
            backend.write_all(&name, &[0u8; 64]).unwrap();
            assert!(LogFile::scan(backend.as_ref(), &name).is_err());
            cleanup(dir);
        }
    }

    #[test]
    fn file_name_round_trip() {
        assert_eq!(LogFile::file_name(42), "vlog-00000042.dat");
        assert_eq!(LogFile::parse_id("vlog-00000042.dat"), Some(42));
        assert_eq!(LogFile::parse_id("manifest"), None);
        assert_eq!(LogFile::parse_id("vlog-xx.dat"), None);
        assert_eq!(
            LogFile::log_name("shard-003", 1),
            "shard-003/vlog-00000001.dat"
        );
        assert_eq!(LogFile::log_name("", 1), "vlog-00000001.dat");
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        for (backend, dir) in backends("reopen") {
            {
                let mut log = LogFile::create(Arc::clone(&backend), "", 3).unwrap();
                log.append(b"k1", b"v1", false).unwrap();
                log.sync().unwrap();
            }
            {
                let mut log = LogFile::open(Arc::clone(&backend), "", 3).unwrap();
                assert!(!log.is_empty());
                log.append(b"k2", b"v2", false).unwrap();
                log.sync().unwrap();
            }
            let records = LogFile::scan(backend.as_ref(), &LogFile::file_name(3)).unwrap();
            assert_eq!(records.len(), 2);
            cleanup(dir);
        }
    }
}
