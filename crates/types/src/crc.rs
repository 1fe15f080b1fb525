//! The workspace's one CRC-32: value-log records, cold-tier chunks and the
//! segment container all checksum through here, so the on-disk formats
//! share a single implementation of the algorithm.

/// CRC-32 (IEEE polynomial, reflected, bitwise) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_parts(&[data])
}

/// CRC-32 of the concatenation of `parts`, computed without concatenating
/// them — equal to [`crc32`] of the joined bytes however they are split.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
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

#[cfg(test)]
mod tests {
    use super::*;

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
        for a in 0..=data.len() {
            for b in a..=data.len() {
                let parts = [&data[..a], &data[a..b], &data[b..]];
                assert_eq!(crc32_parts(&parts), whole, "split at {a}, {b}");
            }
        }
        assert_eq!(crc32_parts(&[]), crc32(b""));
        assert_eq!(crc32_parts(&[b"1234", b"", b"56789"]), 0xCBF4_3926);
    }
}
