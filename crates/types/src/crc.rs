//! The workspace's one CRC-32: value-log records, cold-tier chunks and the
//! segment container all checksum through here, so the on-disk formats
//! share a single implementation of the algorithm.
//!
//! The implementation is slicing-by-16: sixteen 256-entry tables, built at
//! compile time, let the loop fold sixteen input bytes into the running
//! checksum with sixteen independent lookups instead of 128 dependent
//! shift/xor rounds. One such fold still waits on the one before it, so
//! long inputs are walked in `LANES` interleaved lanes of `LANE_BLOCK`
//! bytes each: the lanes' folds do not depend on each other, so their
//! lookups overlap. Lane `k + 1` starts from a zero register, and the lanes
//! are joined by the linearity of the CRC: the register after `a ‖ b` is
//! the register after `a` multiplied by `x^(8·|b|)` modulo the polynomial,
//! xor the register after `b` alone — a multiply by a constant, itself four
//! table lookups. The checksums are those of the bitwise algorithm, which
//! survives as the reference the tests compare against.

/// Bytes folded per step of the main loop, and the number of tables.
const STRIDE: usize = 16;

/// Lanes walked side by side over a long input.
const LANES: usize = 3;

/// Bytes each lane walks before the lanes are joined.
const LANE_BLOCK: usize = 1024;

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

/// `SHIFT[k][b]` is the register `b << 8k` after [`LANE_BLOCK`] zero bytes,
/// i.e. `(b << 8k) · x^(8·LANE_BLOCK)`: the register a lane ends with, moved
/// past the next lane's bytes, one byte at a time.
static SHIFT: [[u32; 256]; 4] = shift_tables();

const fn shift_tables() -> [[u32; 256]; 4] {
    let tables = tables();
    let mut shift = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut byte = 0;
        while byte < 256 {
            // A stride of zero bytes folds through the four tables the
            // register's bytes index; the twelve input lookups are all 0.
            let mut crc = (byte as u32) << (8 * k);
            let mut strides = 0;
            while strides < LANE_BLOCK / STRIDE {
                let [a0, a1, a2, a3] = crc.to_le_bytes();
                crc = tables[15][a0 as usize]
                    ^ tables[14][a1 as usize]
                    ^ tables[13][a2 as usize]
                    ^ tables[12][a3 as usize];
                strides += 1;
            }
            shift[k][byte] = crc;
            byte += 1;
        }
        k += 1;
    }
    shift
}

/// The register `crc` after [`LANE_BLOCK`] more bytes, minus what those
/// bytes contributed themselves.
#[inline]
fn shift(crc: u32) -> u32 {
    let [b0, b1, b2, b3] = crc.to_le_bytes();
    SHIFT[0][usize::from(b0)]
        ^ SHIFT[1][usize::from(b1)]
        ^ SHIFT[2][usize::from(b2)]
        ^ SHIFT[3][usize::from(b3)]
}

/// Fold one stride into the register.
#[inline(always)]
fn fold(crc: u32, s: &[u8; STRIDE]) -> u32 {
    let [a0, a1, a2, a3] = (crc ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]])).to_le_bytes();
    TABLES[15][usize::from(a0)]
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
        ^ TABLES[0][usize::from(s[15])]
}

/// CRC-32 (IEEE polynomial, reflected) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_parts(&[data])
}

/// CRC-32 of the concatenation of `parts`, computed without concatenating
/// them — equal to [`crc32`] of the joined bytes however they are split.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    // The running value is carried across parts, so a part only ends its
    // own run of lane blocks and strides.
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        let (blocks, rest) = part.as_chunks::<{ LANES * LANE_BLOCK }>();
        for block in blocks {
            let (lanes, _) = block.as_chunks::<LANE_BLOCK>();
            let mut registers = [0u32; LANES];
            registers[0] = crc;
            for i in 0..LANE_BLOCK / STRIDE {
                for (register, lane) in registers.iter_mut().zip(lanes) {
                    let (strides, _) = lane.as_chunks::<STRIDE>();
                    *register = fold(*register, &strides[i]);
                }
            }
            crc = registers[1..]
                .iter()
                .fold(registers[0], |joined, &next| shift(joined) ^ next);
        }
        let (strides, tail) = rest.as_chunks::<STRIDE>();
        for s in strides {
            crc = fold(crc, s);
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
        /// Random buffers of up to two full runs of lanes plus a stride,
        /// started at every alignment within a stride and cut at random
        /// points and around lane boundaries. Cuts come in pairs less than
        /// a stride apart, so parts also begin and end inside one 16-byte
        /// stride (and a zero gap gives an empty part); a cut a few bytes
        /// either side of a multiple of `LANE_BLOCK` ends one part inside a
        /// lane and starts the next across the boundary.
        #[test]
        fn table_driven_equals_the_bitwise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..2 * LANES * LANE_BLOCK + STRIDE + 1),
            cut_pairs in proptest::collection::vec(any::<(u16, u8)>(), 0..5),
            boundary_cuts in proptest::collection::vec(any::<(u8, i8)>(), 0..3),
        ) {
            for start in 0..STRIDE.min(data.len() + 1) {
                let data = &data[start..];
                let expected = bitwise_parts(&[data]);
                prop_assert_eq!(crc32(data), expected, "start alignment {}", start);

                let mut cuts = Vec::with_capacity(cut_pairs.len() * 2 + boundary_cuts.len());
                for &(at, gap) in &cut_pairs {
                    let at = usize::from(at) % (data.len() + 1);
                    cuts.push(at);
                    cuts.push((at + usize::from(gap) % STRIDE).min(data.len()));
                }
                for &(lane, offset) in &boundary_cuts {
                    let lane = usize::from(lane) % (2 * LANES + 1);
                    let at = (lane * LANE_BLOCK).saturating_add_signed(isize::from(offset % 21));
                    cuts.push(at.min(data.len()));
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
