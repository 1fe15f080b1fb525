//! Resource usage accounting and the virtual clock.
//!
//! All costs in the paper are expressed relative to video time (×realtime,
//! cores to keep up with a 30 fps stream, GB/day per stream). To report
//! those figures independently of the host machine, the substrate charges
//! work to a [`ResourceUsage`] ledger and advances a [`VirtualClock`] instead
//! of measuring wall-clock time.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use vstore_types::{ByteSize, CoreSeconds, Speed, VideoSeconds};

/// The resource types tracked by the ledger (Figure 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceKind {
    /// CPU seconds spent transcoding at ingestion.
    TranscodeCpu,
    /// Decoder seconds spent in retrieval.
    Decode,
    /// Bytes read from disk in retrieval.
    DiskRead,
    /// Bytes served from the in-memory segment cache in retrieval (reads
    /// that would have been [`DiskRead`](ResourceKind::DiskRead) had the
    /// cache missed).
    MemRead,
    /// Bytes fetched from the cold storage tier in retrieval (reads of
    /// segments that erosion demoted instead of deleting).
    ColdRead,
    /// Bytes written to disk at ingestion.
    DiskWrite,
    /// Disk space currently occupied.
    DiskSpace,
    /// GPU seconds spent by consuming operators.
    GpuCompute,
    /// CPU seconds spent by consuming operators.
    OperatorCpu,
}

impl ResourceKind {
    /// All tracked resource kinds.
    pub const ALL: [ResourceKind; 9] = [
        ResourceKind::TranscodeCpu,
        ResourceKind::Decode,
        ResourceKind::DiskRead,
        ResourceKind::MemRead,
        ResourceKind::ColdRead,
        ResourceKind::DiskWrite,
        ResourceKind::DiskSpace,
        ResourceKind::GpuCompute,
        ResourceKind::OperatorCpu,
    ];
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ResourceKind::TranscodeCpu => "transcode-cpu",
            ResourceKind::Decode => "decode",
            ResourceKind::DiskRead => "disk-read",
            ResourceKind::MemRead => "mem-read",
            ResourceKind::ColdRead => "cold-read",
            ResourceKind::DiskWrite => "disk-write",
            ResourceKind::DiskSpace => "disk-space",
            ResourceKind::GpuCompute => "gpu",
            ResourceKind::OperatorCpu => "operator-cpu",
        };
        f.write_str(name)
    }
}

/// An immutable snapshot of accumulated resource usage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceUsage {
    seconds: BTreeMap<ResourceKind, f64>,
    bytes: BTreeMap<ResourceKind, u64>,
}

impl ResourceUsage {
    /// An empty ledger snapshot.
    pub fn new() -> Self {
        ResourceUsage::default()
    }

    /// Add compute time (seconds) for a resource kind.
    pub fn add_seconds(&mut self, kind: ResourceKind, seconds: f64) {
        *self.seconds.entry(kind).or_insert(0.0) += seconds.max(0.0);
    }

    /// Add a byte count for a resource kind.
    pub fn add_bytes(&mut self, kind: ResourceKind, bytes: u64) {
        *self.bytes.entry(kind).or_insert(0) += bytes;
    }

    /// Accumulated seconds for a kind.
    pub fn seconds(&self, kind: ResourceKind) -> f64 {
        self.seconds.get(&kind).copied().unwrap_or(0.0)
    }

    /// Accumulated bytes for a kind.
    pub fn bytes(&self, kind: ResourceKind) -> ByteSize {
        ByteSize(self.bytes.get(&kind).copied().unwrap_or(0))
    }

    /// CPU work spent transcoding, as core-seconds.
    pub fn transcode_work(&self) -> CoreSeconds {
        CoreSeconds(self.seconds(ResourceKind::TranscodeCpu))
    }

    /// Total compute seconds across operator CPU and GPU.
    pub fn consumption_seconds(&self) -> f64 {
        self.seconds(ResourceKind::OperatorCpu) + self.seconds(ResourceKind::GpuCompute)
    }

    /// Merge another snapshot into this one.
    pub fn merge(&mut self, other: &ResourceUsage) {
        for (k, v) in &other.seconds {
            *self.seconds.entry(*k).or_insert(0.0) += v;
        }
        for (k, v) in &other.bytes {
            *self.bytes.entry(*k).or_insert(0) += v;
        }
    }

    /// `true` if nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.seconds.values().all(|v| *v == 0.0) && self.bytes.values().all(|v| *v == 0)
    }
}

impl fmt::Display for ResourceUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for kind in ResourceKind::ALL {
            let s = self.seconds(kind);
            let b = self.bytes(kind);
            if s > 0.0 || b.bytes() > 0 {
                write!(f, "[{kind}: {s:.3}s {b}] ")?;
            }
        }
        Ok(())
    }
}

/// A shared, thread-safe virtual clock plus resource ledger.
///
/// Pipelines (ingestion, retrieval, queries) charge simulated processing time
/// to the clock; experiments then read off speeds as
/// `video duration / charged time`, matching the paper's metric.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    inner: Arc<Mutex<ClockInner>>,
}

#[derive(Debug, Default)]
struct ClockInner {
    /// Virtual wall-clock seconds elapsed.
    now: f64,
    /// Video seconds that have flowed through the component being timed.
    video_processed: f64,
    usage: ResourceUsage,
}

impl VirtualClock {
    /// A fresh clock at time zero with an empty ledger.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.inner.lock().now
    }

    /// Advance virtual time by `seconds` (clamped to non-negative).
    pub fn advance(&self, seconds: f64) {
        self.inner.lock().now += seconds.max(0.0);
    }

    /// Record that `video` seconds of content were fully processed.
    pub fn add_video_processed(&self, video: VideoSeconds) {
        self.inner.lock().video_processed += video.seconds();
    }

    /// Charge compute seconds of the given kind and advance the clock by the
    /// same amount (single-threaded component model).
    pub fn charge_seconds(&self, kind: ResourceKind, seconds: f64) {
        let mut inner = self.inner.lock();
        inner.usage.add_seconds(kind, seconds);
        inner.now += seconds.max(0.0);
    }

    /// Charge compute seconds without advancing the clock (work that happens
    /// on a resource running in parallel with the timed path).
    pub fn charge_background_seconds(&self, kind: ResourceKind, seconds: f64) {
        self.inner.lock().usage.add_seconds(kind, seconds);
    }

    /// Charge a byte count (disk traffic, disk space).
    pub fn charge_bytes(&self, kind: ResourceKind, bytes: ByteSize) {
        self.inner.lock().usage.add_bytes(kind, bytes.bytes());
    }

    /// Snapshot of the accumulated usage.
    pub fn usage(&self) -> ResourceUsage {
        self.inner.lock().usage.clone()
    }

    /// Overall processing speed: video seconds processed per virtual second.
    pub fn speed(&self) -> Speed {
        let inner = self.inner.lock();
        Speed::from_durations(inner.video_processed, inner.now)
    }

    /// Video seconds recorded as processed.
    pub fn video_processed(&self) -> VideoSeconds {
        VideoSeconds(self.inner.lock().video_processed)
    }

    /// Reset time, ledger and processed-video counters.
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        *inner = ClockInner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_and_merges() {
        let mut a = ResourceUsage::new();
        a.add_seconds(ResourceKind::Decode, 1.5);
        a.add_bytes(ResourceKind::DiskRead, 1000);
        let mut b = ResourceUsage::new();
        b.add_seconds(ResourceKind::Decode, 0.5);
        b.add_bytes(ResourceKind::DiskRead, 24);
        a.merge(&b);
        assert!((a.seconds(ResourceKind::Decode) - 2.0).abs() < 1e-12);
        assert_eq!(a.bytes(ResourceKind::DiskRead), ByteSize(1024));
        assert!(!a.is_empty());
        assert!(ResourceUsage::new().is_empty());
    }

    #[test]
    fn negative_charges_are_clamped() {
        let mut u = ResourceUsage::new();
        u.add_seconds(ResourceKind::GpuCompute, -5.0);
        assert_eq!(u.seconds(ResourceKind::GpuCompute), 0.0);
    }

    #[test]
    fn clock_speed_is_video_over_time() {
        let clock = VirtualClock::new();
        clock.charge_seconds(ResourceKind::Decode, 0.25);
        clock.add_video_processed(VideoSeconds(10.0));
        assert!((clock.speed().factor() - 40.0).abs() < 1e-9);
        assert!((clock.now() - 0.25).abs() < 1e-12);
        clock.reset();
        assert_eq!(clock.now(), 0.0);
        assert!(clock.usage().is_empty());
    }

    #[test]
    fn background_charges_do_not_advance_time() {
        let clock = VirtualClock::new();
        clock.charge_background_seconds(ResourceKind::TranscodeCpu, 3.0);
        assert_eq!(clock.now(), 0.0);
        assert!((clock.usage().transcode_work().0 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn clock_is_shared_between_clones() {
        let clock = VirtualClock::new();
        let clone = clock.clone();
        clone.advance(2.0);
        assert!((clock.now() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn usage_display_mentions_active_kinds() {
        let mut u = ResourceUsage::new();
        u.add_seconds(ResourceKind::Decode, 1.0);
        let s = u.to_string();
        assert!(s.contains("decode"));
        assert!(!s.contains("gpu"));
    }
}
