//! Minimal binary wire format helpers used by the segment container.
//!
//! The workspace has no serialisation dependency, so the container
//! hand-rolls a small, explicit little-endian format with these helpers.
//! Every reader method returns a typed error instead of panicking so
//! corrupt on-disk data surfaces as [`VStoreError::Corruption`].

/// The CRC-32 that guards stored records (the workspace's one copy).
pub use vstore_types::crc32;
use vstore_types::{cast, Result, VStoreError};

/// An append-only byte writer.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// New writer with a capacity hint.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// New writer over a recycled buffer: the buffer is cleared but its
    /// capacity is kept, so a pooled buffer encodes frame after frame
    /// without reallocating once it has grown to its steady-state size.
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        ByteWriter { buf }
    }

    /// Consume the writer and return the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Overwrite 4 already-written bytes at `pos` with a little-endian u32
    /// — how a length prefix is back-patched once the frame body is
    /// encoded and its length known.
    ///
    /// # Panics
    /// Panics if `pos + 4` exceeds what has been written; the caller
    /// patches a slot it reserved earlier, so an out-of-range `pos` is a
    /// programming error, not a data error.
    pub fn patch_u32(&mut self, pos: usize, v: u32) {
        self.buf[pos..pos + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian f32.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian f64.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a LEB128-style variable-length unsigned integer.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Write a length-prefixed byte slice.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Write raw bytes without a length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// A cursor-style byte reader with bounds checking.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(VStoreError::corruption(format!(
                "truncated record: wanted {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a single byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u16.
    pub fn get_u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian f32.
    pub fn get_f32(&mut self) -> Result<f32> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian f64.
    pub fn get_f64(&mut self) -> Result<f64> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a LEB128-style variable-length unsigned integer.
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(VStoreError::corruption("varint overflow"));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Read the declared count of a sequence whose items each take at least
    /// `min_item_bytes` on the wire. A count is believed only as far as the
    /// bytes behind it reach: more items than the remaining bytes could hold
    /// is corruption, found here — before any reservation, before any loop.
    pub fn get_count(&mut self, min_item_bytes: usize, what: &str) -> Result<usize> {
        let declared = self.get_varint()?;
        match usize::try_from(declared) {
            Ok(count) if count <= self.remaining() / min_item_bytes.max(1) => Ok(count),
            _ => Err(VStoreError::corruption(format!(
                "input declares {declared} {what}s with {} bytes left",
                self.remaining()
            ))),
        }
    }

    /// Read a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = cast::usize_from_u64(self.get_varint()?, "byte-slice length")?;
        self.take(len)
    }

    /// Read exactly `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(u64::MAX - 5);
        w.put_f32(1.5);
        w.put_f64(-2.25);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 5);
        assert_eq!(r.get_f32().unwrap(), 1.5);
        assert_eq!(r.get_f64().unwrap(), -2.25);
        assert!(r.is_exhausted());
    }

    #[test]
    fn from_vec_recycles_capacity_and_patch_overwrites_in_place() {
        let mut w = ByteWriter::new();
        w.put_u32(0); // length slot, patched below
        w.put_u64(42);
        w.patch_u32(0, 8);
        let bytes = w.into_bytes();
        let capacity = bytes.capacity();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 8);
        assert_eq!(r.get_u64().unwrap(), 42);

        // Recycling clears the contents but keeps the allocation.
        let mut w = ByteWriter::from_vec(bytes);
        assert!(w.is_empty());
        w.put_u8(9);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![9]);
        assert_eq!(bytes.capacity(), capacity);
    }

    #[test]
    fn a_count_is_believed_only_as_far_as_the_bytes_behind_it_reach() {
        // 30 bytes follow the count: room for six 5-byte items, not seven.
        let counted = |count: u64| {
            let mut w = ByteWriter::new();
            w.put_varint(count);
            w.put_raw(&[0; 30]);
            w.into_bytes()
        };
        assert_eq!(
            ByteReader::new(&counted(6)).get_count(5, "item").unwrap(),
            6
        );
        for hostile in [7, 31, 1 << 32, 1 << 62, u64::MAX] {
            let bytes = counted(hostile);
            let err = ByteReader::new(&bytes).get_count(5, "item").unwrap_err();
            assert!(matches!(err, VStoreError::Corruption(_)), "{err}");
        }
        assert_eq!(
            ByteReader::new(&counted(30)).get_count(0, "item").unwrap(),
            30
        );
        assert!(ByteReader::new(&[]).get_count(1, "item").is_err());
    }

    #[test]
    fn varint_round_trip_various_magnitudes() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut w = ByteWriter::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v, "value {v}");
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn length_prefixed_bytes_round_trip() {
        let mut w = ByteWriter::new();
        w.put_bytes(b"hello");
        w.put_bytes(b"");
        w.put_bytes(&[9u8; 1000]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_bytes().unwrap(), b"");
        assert_eq!(r.get_bytes().unwrap().len(), 1000);
    }

    #[test]
    fn truncated_reads_fail_cleanly() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        let err = r.get_u64().unwrap_err();
        assert!(matches!(err, VStoreError::Corruption(_)));
    }

    /// `crc32` is a re-export: this pins that the path the container, the
    /// sidecars and the bench reach it by is still the IEEE CRC-32.
    #[test]
    fn crc32_known_vector_and_sensitivity() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_ne!(crc32(b"123456780"), crc32(b"123456789"));
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn writer_capacity_and_emptiness() {
        let w = ByteWriter::with_capacity(64);
        assert!(w.is_empty());
        let mut w = w;
        w.put_raw(&[1, 2, 3]);
        assert_eq!(w.len(), 3);
    }
}
