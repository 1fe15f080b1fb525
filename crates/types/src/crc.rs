//! The workspace's one CRC-32: value-log records, cold-tier chunks and the
//! segment container all checksum through here, so the on-disk formats
//! share a single implementation of the algorithm.
//!
//! The implementation is slicing-by-16: sixteen 256-entry tables, built at
//! compile time, let the loop fold sixteen input bytes into the running
//! checksum with sixteen independent lookups instead of 128 dependent
//! shift/xor rounds. The checksums are those of the bitwise algorithm, which
//! survives as the reference the tests compare against.

/// Bytes folded per step of the main loop, and the number of tables.
const STRIDE: usize = 16;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; STRIDE] = tables();

const fn tables() -> [[u32; 256]; STRIDE] {
    let mut tables = [[0u32; 256]; STRIDE];
    let mut byte = 0usize;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < STRIDE {
        let mut byte = 0usize;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE polynomial, reflected) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_parts(&[data])
}

/// CRC-32 of the concatenation of `parts`, computed without concatenating
/// them — equal to [`crc32`] of the joined bytes however they are split.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    // The running value is carried across parts, so a part that is not a
    // multiple of the stride only ends its own run of full strides.
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        let (strides, tail) = part.as_chunks::<STRIDE>();
        for s in strides {
            let [a0, a1, a2, a3] =
                (crc ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]])).to_le_bytes();
            crc = TABLES[15][usize::from(a0)]
                ^ TABLES[14][usize::from(a1)]
                ^ TABLES[13][usize::from(a2)]
                ^ TABLES[12][usize::from(a3)]
                ^ TABLES[11][usize::from(s[4])]
                ^ TABLES[10][usize::from(s[5])]
                ^ TABLES[9][usize::from(s[6])]
                ^ TABLES[8][usize::from(s[7])]
                ^ TABLES[7][usize::from(s[8])]
                ^ TABLES[6][usize::from(s[9])]
                ^ TABLES[5][usize::from(s[10])]
                ^ TABLES[4][usize::from(s[11])]
                ^ TABLES[3][usize::from(s[12])]
                ^ TABLES[2][usize::from(s[13])]
                ^ TABLES[1][usize::from(s[14])]
                ^ TABLES[0][usize::from(s[15])];
        }
        for &byte in tail {
            let [low, ..] = crc.to_le_bytes();
            crc = (crc >> 8) ^ TABLES[0][usize::from(low ^ byte)];
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time algorithm every earlier commit ran: the reference
    /// the table-driven loop must agree with on every input.
    fn bitwise_parts(parts: &[&[u8]]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for part in parts {
            for &byte in *part {
                crc ^= u32::from(byte);
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                }
            }
        }
        !crc
    }

    #[test]
    fn known_vector_and_sensitivity() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_ne!(crc32(b"123456780"), crc32(b"123456789"));
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn multi_slice_form_equals_one_shot_on_every_split() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 % 251) as u8).collect();
        let whole = crc32(&data);
        assert_eq!(whole, bitwise_parts(&[&data]));
        for a in 0..=data.len() {
            for b in a..=data.len() {
                let parts = [&data[..a], &data[a..b], &data[b..]];
                assert_eq!(crc32_parts(&parts), whole, "split at {a}, {b}");
            }
        }
        assert_eq!(crc32_parts(&[]), crc32(b""));
        assert_eq!(crc32_parts(&[b"1234", b"", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn every_single_bit_flip_of_a_record_is_detected() {
        let record: Vec<u8> = (0..64u32).map(|i| (i * 91 % 253) as u8).collect();
        let clean = crc32(&record);
        for bit in 0..record.len() * 8 {
            let mut flipped = record.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&flipped), clean, "flip of bit {bit} went unseen");
        }
    }

    proptest! {
        /// Random buffers of 0..=4 KiB, started at every alignment within a
        /// stride and cut at random points. Cuts come in pairs less than a
        /// stride apart, so parts also begin and end inside one 16-byte
        /// stride (and a zero gap gives an empty part).
        #[test]
        fn table_driven_equals_the_bitwise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..4096 + STRIDE + 1),
            cut_pairs in proptest::collection::vec(any::<(u16, u8)>(), 0..5),
        ) {
            for start in 0..STRIDE.min(data.len() + 1) {
                let data = &data[start..];
                let expected = bitwise_parts(&[data]);
                prop_assert_eq!(crc32(data), expected, "start alignment {}", start);

                let mut cuts = Vec::with_capacity(cut_pairs.len() * 2);
                for &(at, gap) in &cut_pairs {
                    let at = usize::from(at) % (data.len() + 1);
                    cuts.push(at);
                    cuts.push((at + usize::from(gap) % STRIDE).min(data.len()));
                }
                cuts.sort_unstable();
                let mut parts = Vec::with_capacity(cuts.len() + 1);
                let mut from = 0;
                for &cut in &cuts {
                    parts.push(&data[from..cut]);
                    from = cut;
                }
                parts.push(&data[from..]);
                prop_assert_eq!(crc32_parts(&parts), expected, "cuts {:?}", cuts);
            }
        }
    }
}
