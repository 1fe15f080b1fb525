//! The error type shared by all VStore crates.

use std::fmt;
use std::io;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, VStoreError>;

/// Errors surfaced by VStore components.
#[derive(Debug)]
pub enum VStoreError {
    /// An I/O error from the storage backend or the ingestion pipeline.
    Io(io::Error),
    /// A stored record failed its integrity check (CRC mismatch, truncated
    /// record, bad magic).
    Corruption(String),
    /// A requested key (stream, format, segment) does not exist.
    NotFound(String),
    /// The requested video format cannot be produced from the available
    /// source (e.g. requesting a fidelity richer than the stored one).
    FidelityUnsatisfiable(String),
    /// The configuration engine could not satisfy a resource budget.
    BudgetUnsatisfiable(String),
    /// A consumer's target accuracy cannot be met by any fidelity option.
    AccuracyUnreachable(String),
    /// An argument violated an interface contract.
    InvalidArgument(String),
    /// The store or a component is in a state that does not permit the
    /// requested operation (e.g. querying before any configuration exists).
    InvalidState(String),
    /// The serving layer shed the request because its bounded queue is full
    /// (back-pressure). The request was not executed; retrying later is
    /// safe.
    Busy(String),
    /// A wire frame declared a protocol version this build does not speak.
    /// Distinguished from [`Corruption`](VStoreError::Corruption) so peers
    /// can tell a well-formed-but-newer frame from a damaged one.
    UnsupportedVersion {
        /// The version byte found in the frame.
        got: u8,
        /// The newest version this build understands.
        expected: u8,
    },
}

impl VStoreError {
    /// Build an [`VStoreError::InvalidArgument`] from anything displayable.
    pub fn invalid_argument(msg: impl fmt::Display) -> Self {
        VStoreError::InvalidArgument(msg.to_string())
    }

    /// Build an [`VStoreError::NotFound`] from anything displayable.
    pub fn not_found(msg: impl fmt::Display) -> Self {
        VStoreError::NotFound(msg.to_string())
    }

    /// Build an [`VStoreError::Corruption`] from anything displayable.
    pub fn corruption(msg: impl fmt::Display) -> Self {
        VStoreError::Corruption(msg.to_string())
    }

    /// Build an [`VStoreError::Busy`] from anything displayable.
    pub fn busy(msg: impl fmt::Display) -> Self {
        VStoreError::Busy(msg.to_string())
    }

    /// `true` if the error indicates a missing key rather than a failure.
    pub fn is_not_found(&self) -> bool {
        matches!(self, VStoreError::NotFound(_))
    }

    /// `true` if the error is back-pressure from a full serving queue: the
    /// request was shed, not failed, and retrying later is safe.
    pub fn is_busy(&self) -> bool {
        matches!(self, VStoreError::Busy(_))
    }

    /// Build an [`VStoreError::UnsupportedVersion`].
    pub fn unsupported_version(got: u8, expected: u8) -> Self {
        VStoreError::UnsupportedVersion { got, expected }
    }

    /// `true` if the error is a wire-protocol version mismatch.
    pub fn is_unsupported_version(&self) -> bool {
        matches!(self, VStoreError::UnsupportedVersion { .. })
    }
}

/// The one options-validation idiom: knob `owner::knob` holds `value` and
/// must be at least `min`. Every `*Options::validate` in the workspace
/// checks its lower bounds through this, so a bad knob always reads the
/// same way: an [`VStoreError::InvalidArgument`] naming the owner, the
/// knob, the bound and the offending value.
pub fn at_least<T: PartialOrd + fmt::Display>(
    owner: &str,
    knob: &str,
    value: T,
    min: T,
) -> Result<()> {
    if value >= min {
        Ok(())
    } else {
        Err(VStoreError::invalid_argument(format!(
            "{owner}::{knob} must be >= {min}, got {value}"
        )))
    }
}

impl fmt::Display for VStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VStoreError::Io(e) => write!(f, "I/O error: {e}"),
            VStoreError::Corruption(m) => write!(f, "data corruption: {m}"),
            VStoreError::NotFound(m) => write!(f, "not found: {m}"),
            VStoreError::FidelityUnsatisfiable(m) => write!(f, "fidelity unsatisfiable: {m}"),
            VStoreError::BudgetUnsatisfiable(m) => write!(f, "budget unsatisfiable: {m}"),
            VStoreError::AccuracyUnreachable(m) => write!(f, "accuracy unreachable: {m}"),
            VStoreError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            VStoreError::InvalidState(m) => write!(f, "invalid state: {m}"),
            VStoreError::Busy(m) => write!(f, "busy: {m}"),
            VStoreError::UnsupportedVersion { got, expected } => {
                write!(f, "unsupported wire version {got} (expected {expected})")
            }
        }
    }
}

impl std::error::Error for VStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VStoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for VStoreError {
    fn from(e: io::Error) -> Self {
        VStoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = VStoreError::not_found("segment 42");
        assert_eq!(e.to_string(), "not found: segment 42");
        assert!(e.is_not_found());
        let e = VStoreError::invalid_argument("empty consumer set");
        assert!(e.to_string().contains("invalid argument"));
        assert!(!e.is_not_found());
    }

    #[test]
    fn busy_is_distinguishable_back_pressure() {
        let e = VStoreError::busy("serve queue full (depth 256)");
        assert!(e.is_busy());
        assert!(!e.is_not_found());
        assert_eq!(e.to_string(), "busy: serve queue full (depth 256)");
        assert!(!VStoreError::invalid_argument("x").is_busy());
    }

    #[test]
    fn unsupported_version_carries_both_versions() {
        let e = VStoreError::unsupported_version(7, 4);
        assert!(e.is_unsupported_version());
        assert!(!e.is_busy());
        assert_eq!(e.to_string(), "unsupported wire version 7 (expected 4)");
        assert!(matches!(
            e,
            VStoreError::UnsupportedVersion {
                got: 7,
                expected: 4
            }
        ));
        assert!(!VStoreError::corruption("bad crc").is_unsupported_version());
    }

    #[test]
    fn at_least_names_owner_knob_bound_and_value() {
        assert!(at_least("ServeOptions", "workers", 1usize, 1).is_ok());
        assert!(at_least("LiveIngestOptions", "max_lag_segments", 8u64, 1).is_ok());
        let err = at_least("NetOptions", "max_frame_bytes", 63usize, 64).unwrap_err();
        assert!(matches!(err, VStoreError::InvalidArgument(_)), "{err}");
        assert_eq!(
            err.to_string(),
            "invalid argument: NetOptions::max_frame_bytes must be >= 64, got 63"
        );
    }

    #[test]
    fn io_error_converts_and_sources() {
        use std::error::Error;
        let io_err = io::Error::other("disk on fire");
        let e: VStoreError = io_err.into();
        assert!(e.to_string().contains("disk on fire"));
        assert!(e.source().is_some());
        assert!(VStoreError::corruption("bad crc").source().is_none());
    }
}
