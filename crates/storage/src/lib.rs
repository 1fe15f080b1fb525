//! # vstore-storage
//!
//! The embedded segment store backing VStore — the stand-in for the LMDB
//! key-value store the paper uses (§5).
//!
//! VStore's storage workload is simple but specific: MB-sized values
//! (8-second video segments), keyed by `(stream, storage format, segment
//! index)`, written append-only at ingestion, read back by range at query
//! time, and deleted in bulk by the erosion planner. The store is therefore
//! a log-structured key-value store in the Bitcask style:
//!
//! * values live in append-only **value log** files with CRC-guarded
//!   records;
//! * an **in-memory index** maps keys to (file, offset, length) and is
//!   rebuilt by scanning the logs at open (tombstones supersede puts);
//! * **deletes** append tombstones; **compaction** rewrites live records
//!   into fresh logs and drops the garbage.
//!
//! The store is **sharded**: keys are routed by a deterministic hash of the
//! full `(stream, format, segment index)` key to one of N independent shards
//! (each with its own lock, index, log-file set, roll-over and compaction),
//! so parallel ingestion writers and query readers scale with cores instead
//! of serialising on a single lock. Range scans merge across shards;
//! compaction runs shards in parallel. The shard count is recorded in a
//! `SHARDS` meta file at creation and honoured on reopen; a single-shard
//! store reproduces the original single-lock behaviour exactly.
//!
//! The store is **backend-pluggable**: every byte flows through the
//! [`StorageBackend`] trait (open/append/read-at/sync/remove/list over named
//! logs), never through `std::fs` directly. [`FsBackend`] is the default and
//! reproduces the original on-disk format byte for byte; [`MemBackend`]
//! keeps the same observable behaviour in memory for tests and benchmarks.
//!
//! The **unified read path** sits above the store: a [`SegmentReader`]
//! fronts `SegmentStore::get` with a shard-aware view cache — one LRU per
//! shard of the frames each consumer takes from a segment, bounded by bytes
//! and by views — so repeated cascade stages and hot streams stop re-paying
//! disk + CRC + decode + conversion. Writes routed through the reader
//! invalidate it; with the cache disabled the reader is a byte-identical
//! passthrough. See the [`reader`] module docs.
//!
//! **Tiered cold storage** sits beside the store: the [`tier`] module keeps
//! aged segments in a [`ColdStore`] — one checksummed object per segment on
//! a second backend device, framed exactly like a value-log record — and
//! the [`TierEngine`] moves segments to and from it, so erosion **demotes
//! segments instead of deleting them** (on the eroding caller's own
//! threads), with read-through promotion on cold hits flowing through the
//! [`SegmentReader`] so the view cache stays coherent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

pub mod backend;
#[cfg(test)]
mod faulty;
pub mod key;
pub mod log;
pub mod reader;
mod shard;
pub mod store;
pub mod tier;

pub use backend::{BackendOptions, FsBackend, LogHandle, MemBackend, StorageBackend};
pub use key::SegmentKey;
pub use reader::{CacheStats, DecodedRead, DecodedSegment, ReadSource, SegmentReader};
pub use store::{SegmentStore, StoreStats};
pub use tier::{ColdStore, DemoteBatchReport, TierEngine, TierOptions, TierStats};

/// Decode a checked-in `tests/fixtures/*.hex` file: hex digits, any number
/// a line, `#` lines are comments.
#[cfg(test)]
pub(crate) fn hex_fixture(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text
        .lines()
        .filter(|line| !line.starts_with('#'))
        .flat_map(|line| line.bytes())
        .map(|b| (b as char).to_digit(16).unwrap() as u8)
        .collect();
    digits.chunks(2).map(|d| d[0] << 4 | d[1]).collect()
}
