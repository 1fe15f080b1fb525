//! Checked integer conversions for the storage and read paths.
//!
//! The log format stores lengths as `u32`/`u64` while Rust indexes memory
//! with `usize`, so every boundary crossing is a potential silent
//! truncation: a >4 GiB value's length wraps when written as `u32`, and a
//! large on-disk length wraps on a 32-bit host when used as a buffer size.
//! These helpers make each crossing explicit and turn an out-of-range value
//! into a typed [`VStoreError`] instead of corrupt framing or a bogus
//! allocation.

use crate::{Result, VStoreError};

/// Convert a `u64` (wire/on-disk length or count) into a `usize`
/// (in-memory length).
///
/// Fails with [`VStoreError::InvalidArgument`] when the value does not fit
/// the platform's address width (only possible on 32-bit hosts). `what`
/// names the quantity, unit included when one applies — it is used for
/// byte lengths and element counts alike.
pub fn usize_from_u64(value: u64, what: &str) -> Result<usize> {
    usize::try_from(value).map_err(|_| {
        VStoreError::invalid_argument(format!(
            "{what} ({value}) exceeds this platform's addressable range"
        ))
    })
}

/// Convert a `usize` (in-memory length) into a `u32` (log-record length
/// field).
///
/// Fails with [`VStoreError::InvalidArgument`] when the value exceeds
/// `u32::MAX` — writing it unchecked would silently truncate the record's
/// framing and corrupt the log.
pub fn u32_from_usize(value: usize, what: &str) -> Result<u32> {
    u32::try_from(value).map_err(|_| {
        VStoreError::invalid_argument(format!(
            "{what} ({value}) exceeds the u32 record-length limit"
        ))
    })
}

/// Convert a `u64` (wire/on-disk field) into a `u32` (narrow framing
/// field), failing with [`VStoreError::InvalidArgument`] on overflow.
pub fn u32_from_u64(value: u64, what: &str) -> Result<u32> {
    u32::try_from(value).map_err(|_| {
        VStoreError::invalid_argument(format!("{what} ({value}) exceeds the u32 limit"))
    })
}

/// Convert a `usize` into a `u16` (e.g. a container dimension field),
/// failing with [`VStoreError::InvalidArgument`] on overflow.
pub fn u16_from_usize(value: usize, what: &str) -> Result<u16> {
    u16::try_from(value).map_err(|_| {
        VStoreError::invalid_argument(format!("{what} ({value}) exceeds the u16 limit"))
    })
}

/// Convert a `usize` into a `u8` (e.g. an enum rank tag), failing with
/// [`VStoreError::InvalidArgument`] on overflow.
pub fn u8_from_usize(value: usize, what: &str) -> Result<u8> {
    u8::try_from(value).map_err(|_| {
        VStoreError::invalid_argument(format!("{what} ({value}) exceeds the u8 limit"))
    })
}

/// Widen a `u32` (on-disk length or count) into a `usize`. Infallible on
/// every target this workspace supports (`usize` is at least 32 bits), so
/// unlike the narrowing helpers it returns the value directly.
pub fn usize_from_u32(value: u32) -> usize {
    // This crate is the one sanctioned home for raw integer casts; the
    // cast lints are denied in storage/codec/serve, not types.
    value as usize
}

/// Round a non-negative `f64` (a scaled dimension) to `u32`, saturating at
/// the type bounds. `as` on floats saturates by definition since Rust
/// 1.45; the named helper keeps that intent visible at call sites.
pub fn u32_saturating_from_f64(value: f64) -> u32 {
    value.round() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_convert() {
        assert_eq!(usize_from_u64(0, "len").unwrap(), 0);
        assert_eq!(usize_from_u64(4096, "len").unwrap(), 4096);
        assert_eq!(u32_from_usize(0, "key").unwrap(), 0);
        assert_eq!(u32_from_usize(123_456, "key").unwrap(), 123_456);
        assert_eq!(u32_from_u64(7, "tag").unwrap(), 7);
        assert_eq!(u16_from_usize(65_535, "w").unwrap(), 65_535);
        assert_eq!(u8_from_usize(255, "rank").unwrap(), 255);
        assert_eq!(usize_from_u32(u32::MAX), u32::MAX as usize);
    }

    #[test]
    fn narrow_helpers_reject_overflow() {
        assert!(u32_from_u64(u64::from(u32::MAX) + 1, "tag").is_err());
        assert!(u16_from_usize(65_536, "w").is_err());
        assert!(u8_from_usize(256, "rank").is_err());
    }

    #[test]
    fn float_rounding_saturates() {
        assert_eq!(u32_saturating_from_f64(0.4), 0);
        assert_eq!(u32_saturating_from_f64(1.5), 2);
        assert_eq!(u32_saturating_from_f64(f64::from(u32::MAX) * 2.0), u32::MAX);
        assert_eq!(u32_saturating_from_f64(-3.0), 0);
    }

    #[test]
    fn oversized_usize_is_rejected_not_truncated() {
        #[cfg(target_pointer_width = "64")]
        {
            let too_big = u32::MAX as usize + 1;
            let err = u32_from_usize(too_big, "segment value").unwrap_err();
            assert!(matches!(err, VStoreError::InvalidArgument(_)), "{err}");
            assert!(err.to_string().contains("segment value"), "{err}");
        }
        // The largest representable value still converts.
        assert_eq!(u32_from_usize(u32::MAX as usize, "edge").unwrap(), u32::MAX);
    }

    #[test]
    #[cfg(target_pointer_width = "32")]
    fn oversized_u64_is_rejected_on_32_bit() {
        let err = usize_from_u64(u64::from(u32::MAX) + 1, "record").unwrap_err();
        assert!(matches!(err, VStoreError::InvalidArgument(_)));
    }
}
