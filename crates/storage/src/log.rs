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
//! The CRC (the workspace's table-driven [`vstore_types::crc32_parts`])
//! covers flags, lengths, key and value. A record with `flags = 1` is a
//! tombstone (its value is empty). A torn tail (partial record after a
//! crash) is detected by the CRC or a truncated read and the scan stops at
//! the last complete record — earlier records stay readable. A random-access
//! read has no tail to forgive: there a truncated frame and a checksum
//! mismatch are each reported as the corruption they are.
//!
//! Records are parsed in place: a [`RecordRef`] borrows key and value from
//! the buffer that was read, so a scan copies nothing and a random-access
//! read turns its one read buffer into the returned value.
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

/// Bytes of a record frame before the key: magic, flags, klen, vlen.
const HEADER: usize = 4 + 1 + 4 + 4;

/// A record parsed in place: key and value borrow the scanned buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Byte offset of the record header within the file.
    pub offset: u64,
    /// Total on-disk length of the record, including framing.
    pub total_len: u64,
    /// Encoded key bytes.
    pub key: &'a [u8],
    /// Value bytes (empty for tombstones).
    pub value: &'a [u8],
    /// `true` when the record is a tombstone.
    pub is_tombstone: bool,
}

/// What the start of a buffer holds, bad magic aside (that is an error).
enum Parsed<'a> {
    /// A complete record whose checksum matches.
    Record(RecordRef<'a>),
    /// The buffer ends before the record's framed length does.
    Truncated,
    /// The frame is complete but its checksum does not match.
    ChecksumMismatch,
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
    HEADER as u64 + key_len as u64 + value_len as u64 + 4
}

/// Frame one record, byte for byte as it sits in a value log — and as the
/// whole body of a cold-tier object.
///
/// Keys and values longer than `u32::MAX` bytes are rejected with
/// [`VStoreError::InvalidArgument`]: the record frame stores both lengths as
/// `u32`, and writing a truncated length would corrupt every record that
/// follows.
pub fn encode_record(key: &[u8], value: &[u8], is_tombstone: bool) -> Result<Vec<u8>> {
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
    Ok(buf)
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
    pub fn append(&mut self, key: &[u8], value: &[u8], is_tombstone: bool) -> Result<(u64, u64)> {
        let buf = encode_record(key, value, is_tombstone)?;
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
        let mut buf = backend.read_at(name, offset, total_len)?;
        let problem = match parse_record(&buf, offset)? {
            Parsed::Record(record) => {
                // The read buffer becomes the value: one allocation and one
                // move within it, whatever the value's size.
                let (start, len) = (HEADER + record.key.len(), record.value.len());
                buf.copy_within(start..start + len, 0);
                buf.truncate(len);
                return Ok(buf);
            }
            Parsed::Truncated => "truncated",
            Parsed::ChecksumMismatch => "checksum mismatch",
        };
        Err(VStoreError::corruption(format!(
            "record {problem} in {name} at {offset}"
        )))
    }

    /// Parse the complete records contained in an in-memory buffer whose
    /// first byte sits at `base_offset` within its file. Stops cleanly at a
    /// truncated or CRC-failing record (a torn tail).
    pub fn scan_buffer(buf: &[u8], base_offset: u64) -> Result<Vec<RecordRef<'_>>> {
        let mut records = Vec::new();
        let mut offset = 0usize;
        while offset < buf.len() {
            let Parsed::Record(record) = parse_record(&buf[offset..], base_offset + offset as u64)?
            else {
                break;
            };
            // parse_record only returns records fully contained in the
            // buffer, so the length always fits a usize.
            offset += usize_from_u64(record.total_len, "log record length")
                .map_err(|e| VStoreError::corruption(e.to_string()))?;
            records.push(record);
        }
        Ok(records)
    }

    /// Visit all complete records of a named log in order. Each record
    /// borrows the log's bytes, so nothing is copied unless `visit` copies
    /// it. Stops cleanly at a torn tail; a missing log scans as empty.
    pub fn scan(
        backend: &dyn StorageBackend,
        name: &str,
        mut visit: impl FnMut(RecordRef<'_>) -> Result<()>,
    ) -> Result<()> {
        let Some(data) = backend.read_all(name)? else {
            return Ok(());
        };
        for record in Self::scan_buffer(&data, 0)? {
            visit(record)?;
        }
        Ok(())
    }
}

/// Parse one record from the start of `buf`, which sits at `offset` within
/// its log.
fn parse_record(buf: &[u8], offset: u64) -> Result<Parsed<'_>> {
    if buf.len() < HEADER {
        return Ok(Parsed::Truncated);
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
        return Ok(Parsed::Truncated);
    }
    // The record is fully contained in `buf`, so both lengths fit a usize
    // on this platform; the checked conversions are the proof.
    let to_len =
        |v: u64, what| usize_from_u64(v, what).map_err(|e| VStoreError::corruption(e.to_string()));
    let end = to_len(total, "log record length")?;
    let key_end = HEADER + to_len(u64::from(klen), "log record key length")?;
    let key = &buf[HEADER..key_end];
    let value = &buf[key_end..end - 4];
    let stored_crc = u32::from_le_bytes([buf[end - 4], buf[end - 3], buf[end - 2], buf[end - 1]]);
    if stored_crc != record_crc(flags, klen, vlen, key, value) {
        return Ok(Parsed::ChecksumMismatch);
    }
    Ok(Parsed::Record(RecordRef {
        offset,
        total_len: total,
        key,
        value,
        is_tombstone: flags & FLAG_TOMBSTONE != 0,
    }))
}

#[cfg(test)]
mod tests {
    #![expect(clippy::disallowed_methods, reason = "scratch dirs for the Fs backend")]
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

    /// What the scanner reports of a record, owned: `(offset, total_len,
    /// key, is_tombstone, value)`.
    type Row = (u64, u64, Vec<u8>, bool, Vec<u8>);

    fn scan_rows(backend: &dyn StorageBackend, name: &str) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        LogFile::scan(backend, name, |r| {
            rows.push((
                r.offset,
                r.total_len,
                r.key.to_vec(),
                r.is_tombstone,
                r.value.to_vec(),
            ));
            Ok(())
        })?;
        Ok(rows)
    }

    #[test]
    fn append_and_scan_round_trip() {
        for (backend, dir) in backends("roundtrip") {
            let mut log = LogFile::create(Arc::clone(&backend), "", 1).unwrap();
            let (off1, len1) = log.append(b"key-a", b"value-a", false).unwrap();
            let (off2, len2) = log.append(b"key-b", &vec![7u8; 10_000], false).unwrap();
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

            let records = scan_rows(backend.as_ref(), log.name()).unwrap();
            assert_eq!(records.len(), 3);
            assert_eq!(
                records[0],
                (off1, len1, b"key-a".to_vec(), false, b"value-a".to_vec())
            );
            assert_eq!(records[1].4.len(), 10_000);
            assert!(records[2].3);

            // Random access read of the second value: exactly the value,
            // the frame around it gone.
            assert_eq!(log.read_value(off2, len2).unwrap(), vec![7u8; 10_000]);
            assert_eq!(log.read_value(off1, len1).unwrap(), b"value-a");
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
            let records = scan_rows(backend.as_ref(), &name).unwrap();
            assert_eq!(records.len(), 1);
            assert_eq!(records[0].2, b"k1");
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
            let records = scan_rows(backend.as_ref(), &name).unwrap();
            assert_eq!(records.len(), 1, "corrupt record should not be returned");
            cleanup(dir);
        }
    }

    /// `damage` the second of two records; a random-access read of it must
    /// then fail as corruption that says `record <what> in <log> at
    /// <offset>`. (A scan forgives a bad last record as a torn tail; a read
    /// is pointed at one record by the index and must say what is wrong.)
    fn read_error_after(what: &str, damage: impl Fn(&mut [u8])) {
        for (backend, dir) in backends(what) {
            let mut log = LogFile::create(Arc::clone(&backend), "", 1).unwrap();
            log.append(b"k1", b"v1", false).unwrap();
            let (off2, len2) = log.append(b"k2", b"AAAAAAAA", false).unwrap();
            log.sync().unwrap();
            assert_eq!(log.read_value(off2, len2).unwrap(), b"AAAAAAAA");
            let mut data = backend.read_all(log.name()).unwrap().unwrap();
            damage(&mut data[off2 as usize..]);
            backend.write_all(log.name(), &data).unwrap();
            let err = log.read_value(off2, len2).unwrap_err();
            assert!(matches!(err, VStoreError::Corruption(_)), "{err:?}");
            let expected = format!("record {what} in {} at {off2}", log.name());
            assert!(err.to_string().contains(&expected), "{err}");
            cleanup(dir);
        }
    }

    #[test]
    fn random_access_read_reports_a_checksum_mismatch() {
        // One flipped value bit: the frame is whole, its checksum is not.
        read_error_after("checksum mismatch", |record| record[HEADER + 2 + 3] ^= 0x01);
    }

    #[test]
    fn random_access_read_reports_a_truncated_record() {
        // A value length grown by one: the frame claims more bytes than the
        // index says the record has.
        read_error_after("truncated", |record| record[9] += 1);
    }

    #[test]
    fn scan_of_missing_log_is_empty() {
        for (backend, dir) in backends("missing") {
            let records = scan_rows(backend.as_ref(), "vlog-99999999.dat").unwrap();
            assert!(records.is_empty());
            cleanup(dir);
        }
    }

    #[test]
    fn bad_magic_is_reported_as_corruption() {
        for (backend, dir) in backends("magic") {
            let name = LogFile::file_name(1);
            backend.write_all(&name, &[0u8; 64]).unwrap();
            assert!(scan_rows(backend.as_ref(), &name).is_err());
            cleanup(dir);
        }
    }

    /// The borrowing scanner reports what the owning one did: the same
    /// `(offset, total_len, key, is_tombstone, value)` rows, whatever ends
    /// the log.
    #[test]
    fn borrowed_scan_reports_every_record_and_stops_where_the_owned_one_did() {
        for (backend, dir) in backends("parity") {
            let mut log = LogFile::create(Arc::clone(&backend), "", 1).unwrap();
            let long = vec![0xA5u8; 300];
            let appends: [(&[u8], &[u8], bool); 5] = [
                (b"key-a", b"first", false),
                (b"key-b", &long, false),
                (b"key-a", b"overwritten", false),
                (b"key-b", b"", true),
                (b"key-c", b"", false),
            ];
            let mut expected: Vec<Row> = Vec::new();
            for (key, value, is_tombstone) in appends {
                let (offset, total_len) = log.append(key, value, is_tombstone).unwrap();
                assert_eq!(total_len, record_size(key.len(), value.len()));
                expected.push((
                    offset,
                    total_len,
                    key.to_vec(),
                    is_tombstone,
                    value.to_vec(),
                ));
            }
            log.sync().unwrap();
            let name = log.name().to_owned();
            let clean = backend.read_all(&name).unwrap().unwrap();
            assert_eq!(scan_rows(backend.as_ref(), &name).unwrap(), expected);

            // One more record, to end the log with in different states.
            let scratch: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
            let mut extra = LogFile::create(Arc::clone(&scratch), "", 1).unwrap();
            extra.append(b"key-d", &[0x3Cu8; 40], false).unwrap();
            let extra = scratch.read_all(extra.name()).unwrap().unwrap();
            let with_tail = |tail: &[u8]| {
                let mut data = clean.clone();
                data.extend_from_slice(tail);
                backend.write_all(&name, &data).unwrap();
                scan_rows(backend.as_ref(), &name)
            };

            // Torn inside the header, and torn inside the value.
            assert_eq!(with_tail(&extra[..7]).unwrap(), expected);
            assert_eq!(with_tail(&extra[..extra.len() - 9]).unwrap(), expected);
            // Complete, but a value byte is wrong.
            let mut corrupt = extra.clone();
            corrupt[HEADER + 5 + 11] ^= 0x40;
            assert_eq!(with_tail(&corrupt).unwrap(), expected);
            // Complete, but the framed value length runs past the buffer.
            let mut overlong = extra.clone();
            overlong[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(with_tail(&overlong).unwrap(), expected);
            // Bad magic is corruption, not a tail to forgive.
            let mut bad_magic = extra.clone();
            bad_magic[0] ^= 0xFF;
            assert!(with_tail(&bad_magic).is_err());
            // And intact, it is the sixth record.
            let rows = with_tail(&extra).unwrap();
            assert_eq!(rows[..5], expected[..]);
            assert_eq!(
                rows[5],
                (
                    clean.len() as u64,
                    extra.len() as u64,
                    b"key-d".to_vec(),
                    false,
                    vec![0x3Cu8; 40]
                )
            );
            cleanup(dir);
        }
    }

    /// The value log checked in under `tests/fixtures`, written by the last
    /// commit that had the bitwise CRC and the owning parser.
    fn parent_written_log() -> Vec<u8> {
        crate::hex_fixture(include_str!(
            "../tests/fixtures/vlog-written-by-6ee733a.hex"
        ))
    }

    fn segment_key(stream: &str, format: u32, index: u64) -> crate::key::SegmentKey {
        crate::key::SegmentKey::new(stream, vstore_types::FormatId(format), index)
    }

    fn pattern(len: u32, step: u32) -> Vec<u8> {
        (0..len).map(|i| (i * step % 251) as u8).collect()
    }

    #[test]
    fn log_written_by_the_parent_commit_scans_to_the_rows_its_own_parser_reported() {
        use crate::key::SegmentKey;
        let key = segment_key;
        let data = parent_written_log();
        assert_eq!(data.len(), 412);
        // (offset, total_len, key, is_tombstone, value.len()), as printed by
        // that commit's `LogFile::scan_buffer`; the 30-byte torn tail ends
        // the scan.
        let expected = [
            (0, 77, key("cam0", 0, 0), false, 40),
            (77, 60, key("cam0", 1, 0), false, 23),
            (137, 70, key("cam0", 0, 0), false, 33),
            (207, 37, key("cam0", 1, 0), true, 0),
            (244, 37, key("park", 2, 7), false, 0),
            (281, 101, key("park", 2, 8), false, 64),
        ];
        let rows: Vec<_> = LogFile::scan_buffer(&data, 0)
            .unwrap()
            .iter()
            .map(|r| {
                let key = SegmentKey::decode(r.key).unwrap();
                (r.offset, r.total_len, key, r.is_tombstone, r.value.len())
            })
            .collect();
        assert_eq!(rows, expected);
    }

    #[test]
    fn store_written_by_the_parent_commit_reopens_and_reads_back_identically() {
        use crate::store::SegmentStore;
        let key = segment_key;
        for (backend, dir) in backends("parent-store") {
            backend.write_all("SHARDS", b"1\n").unwrap();
            backend
                .write_all("shard-000/vlog-00000001.dat", &parent_written_log())
                .unwrap();
            let store = SegmentStore::open_with_backend(Arc::clone(&backend), 1).unwrap();
            let live = [
                (key("cam0", 0, 0), pattern(33, 13)),
                (key("park", 2, 7), Vec::new()),
                (key("park", 2, 8), pattern(64, 17)),
            ];
            assert_eq!(
                store.keys(),
                live.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>()
            );
            for (k, value) in &live {
                assert_eq!(store.get(k).unwrap().as_ref(), Some(value), "{k:?}");
            }
            assert_eq!(store.get(&key("cam0", 1, 0)).unwrap(), None);
            assert_eq!(store.get(&key("park", 2, 9)).unwrap(), None);
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
            let records = scan_rows(backend.as_ref(), &LogFile::file_name(3)).unwrap();
            assert_eq!(records.len(), 2);
            cleanup(dir);
        }
    }
}
