//! Segment keys: `(stream, storage format, segment index)`.

use std::fmt;
use vstore_types::{cast, FormatId, Result, VStoreError};

/// The key of one stored segment.
///
/// Keys order by `(stream, format, segment_index)`, so a range scan over one
/// `(stream, format)` pair returns segments in time order — the access
/// pattern of query execution.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentKey {
    /// The ingested stream this segment belongs to.
    pub stream: String,
    /// The storage format this segment is stored in.
    pub format: FormatId,
    /// The index of the 8-second segment within the stream (segment 0 covers
    /// seconds 0–8, segment 1 covers 8–16, …).
    pub segment_index: u64,
}

impl SegmentKey {
    /// Construct a key.
    pub fn new(stream: impl Into<String>, format: FormatId, segment_index: u64) -> Self {
        SegmentKey {
            stream: stream.into(),
            format,
            segment_index,
        }
    }

    /// Serialise the key for the value log.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "stream names are far inside u32; decode re-checks"
    )]
    pub fn encode(&self) -> Vec<u8> {
        let stream_bytes = self.stream.as_bytes();
        let mut out = Vec::with_capacity(stream_bytes.len() + 16);
        out.extend_from_slice(&(stream_bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(stream_bytes);
        out.extend_from_slice(&self.format.0.to_le_bytes());
        out.extend_from_slice(&self.segment_index.to_le_bytes());
        out
    }

    /// Deserialise a key previously produced by [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> Result<SegmentKey> {
        if bytes.len() < 4 {
            return Err(VStoreError::corruption("segment key too short"));
        }
        let stream_len_u32 = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        // Compare in u64: a near-u32::MAX length field would overflow the
        // expected-size sum on a 32-bit usize and mis-frame the key.
        let expected = 4 + u64::from(stream_len_u32) + 4 + 8;
        if bytes.len() as u64 != expected {
            return Err(VStoreError::corruption(format!(
                "segment key length {} does not match expected {}",
                bytes.len(),
                expected
            )));
        }
        let stream_len = cast::usize_from_u32(stream_len_u32);
        let stream = std::str::from_utf8(&bytes[4..4 + stream_len])
            .map_err(|_| VStoreError::corruption("segment key stream is not UTF-8"))?
            .to_owned();
        let mut format_bytes = [0u8; 4];
        format_bytes.copy_from_slice(&bytes[4 + stream_len..8 + stream_len]);
        let mut index_bytes = [0u8; 8];
        index_bytes.copy_from_slice(&bytes[8 + stream_len..16 + stream_len]);
        Ok(SegmentKey {
            stream,
            format: FormatId(u32::from_le_bytes(format_bytes)),
            segment_index: u64::from_le_bytes(index_bytes),
        })
    }

    /// Backend name of this key's object under the namespace `dir`:
    /// `dir/<hex of encode()>`, so arbitrary stream names stay path-safe on
    /// every backend (metadata sidecars and cold-tier objects are named
    /// this way).
    pub fn object_name(&self, dir: &str) -> String {
        use fmt::Write as _;
        let mut name = format!("{dir}/");
        for byte in self.encode() {
            let _ = write!(name, "{byte:02x}");
        }
        name
    }

    /// The key whose [`object_name`](Self::object_name) ends in `hex`;
    /// `None` when `hex` is not a name this store would have produced.
    pub fn from_object_hex(hex: &str) -> Option<SegmentKey> {
        let digit = |b: u8| match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            _ => None,
        };
        if !hex.len().is_multiple_of(2) {
            return None;
        }
        let bytes: Option<Vec<u8>> = hex
            .as_bytes()
            .chunks(2)
            .map(|pair| Some(digit(pair[0])? << 4 | digit(pair[1])?))
            .collect();
        SegmentKey::decode(&bytes?).ok()
    }
}

impl fmt::Display for SegmentKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.stream, self.format, self.segment_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstore_types::check::{check, Gen};

    #[test]
    fn encode_decode_round_trip() {
        let key = SegmentKey::new("jackson", FormatId(3), 17);
        let bytes = key.encode();
        assert_eq!(SegmentKey::decode(&bytes).unwrap(), key);
        let golden = SegmentKey::new("dashcam", FormatId::GOLDEN, u64::MAX);
        assert_eq!(SegmentKey::decode(&golden.encode()).unwrap(), golden);
    }

    #[test]
    fn decode_rejects_corrupt_keys() {
        assert!(SegmentKey::decode(&[]).is_err());
        assert!(SegmentKey::decode(&[1, 2, 3]).is_err());
        let mut bytes = SegmentKey::new("x", FormatId(1), 2).encode();
        bytes.pop();
        assert!(SegmentKey::decode(&bytes).is_err());
        // Invalid UTF-8 stream name.
        let mut bad = SegmentKey::new("ab", FormatId(1), 2).encode();
        bad[4] = 0xFF;
        bad[5] = 0xFE;
        assert!(SegmentKey::decode(&bad).is_err());
    }

    #[test]
    fn object_names_are_path_safe_and_decode_back_to_the_key() {
        let key = SegmentKey::new("odd stream/with:chars", FormatId(2), 7);
        let name = key.object_name("segments");
        let hex = name.strip_prefix("segments/").unwrap();
        assert!(hex.bytes().all(|b| b.is_ascii_hexdigit()), "{name}");
        assert_eq!(SegmentKey::from_object_hex(hex), Some(key));
        // Not names this store writes: a temp file, upper case, an odd
        // digit count, hex that is no key.
        let (tmp, upper) = (format!("{hex}.tmp"), hex.to_uppercase());
        for foreign in [tmp.as_str(), upper.as_str(), &hex[1..], "00ff"] {
            assert_eq!(SegmentKey::from_object_hex(foreign), None, "{foreign}");
        }
    }

    /// Hostile keys: arbitrary bytes, and every prefix and single-byte
    /// mutation of a real key's encoding, decode to a key or a corruption
    /// error; any key, multi-byte stream names included, comes back from
    /// its object name; and any string handed to `from_object_hex` gives a
    /// key or `None`. None of it panics.
    #[test]
    fn hostile_key_bytes_and_names_never_panic() {
        let gen = |g: &mut Gen| {
            let chars = ['a', '/', '.', '\0', 'é', '☃', '𝄞'];
            let stream: String = (0..g.len(12)).map(|_| g.pick(&chars)).collect();
            let key = SegmentKey::new(stream, FormatId(g.next_u64() as u32), g.next_u64());
            let bytes: Vec<u8> = (0..g.len(40)).map(|_| g.next_u64() as u8).collect();
            let digits = ['0', '9', 'a', 'f', 'g', 'A', 'é', '.'];
            let name: String = (0..g.len(40)).map(|_| g.pick(&digits)).collect();
            (key, bytes, name)
        };
        let typed = |bytes: &[u8]| match SegmentKey::decode(bytes) {
            Ok(_) | Err(VStoreError::Corruption(_)) => {}
            Err(err) => panic!("{err}"),
        };
        check(64, 0x4E7, gen, |(key, bytes, name)| {
            typed(&bytes);
            let encoded = key.encode();
            for cut in 0..encoded.len() {
                assert!(SegmentKey::decode(&encoded[..cut]).is_err(), "prefix {cut}");
            }
            let mut bad = encoded.clone();
            for at in 0..encoded.len() {
                for delta in 1..=u8::MAX {
                    bad[at] = encoded[at].wrapping_add(delta);
                    typed(&bad);
                }
                bad[at] = encoded[at];
            }
            let object = key.object_name("cold");
            let hex = object.strip_prefix("cold/").unwrap();
            assert_eq!(SegmentKey::from_object_hex(hex), Some(key));
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(
                SegmentKey::from_object_hex(&hex),
                SegmentKey::decode(&bytes).ok()
            );
            let _ = SegmentKey::from_object_hex(&name);
        });
    }

    #[test]
    fn ordering_groups_stream_then_format_then_time() {
        let mut keys = [
            SegmentKey::new("b", FormatId(0), 0),
            SegmentKey::new("a", FormatId(1), 5),
            SegmentKey::new("a", FormatId(0), 9),
            SegmentKey::new("a", FormatId(0), 2),
        ];
        keys.sort();
        assert_eq!(keys[0], SegmentKey::new("a", FormatId(0), 2));
        assert_eq!(keys[1], SegmentKey::new("a", FormatId(0), 9));
        assert_eq!(keys[2], SegmentKey::new("a", FormatId(1), 5));
        assert_eq!(keys[3], SegmentKey::new("b", FormatId(0), 0));
    }

    #[test]
    fn display_is_human_readable() {
        let key = SegmentKey::new("park", FormatId(2), 7);
        assert_eq!(key.to_string(), "park/SF2/7");
    }
}
