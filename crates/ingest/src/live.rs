//! Live streaming ingest: a bounded, back-pressured queue of live segments
//! drained by background transcode workers, with **lag-driven degradation**
//! instead of unbounded stalling (the paper's §4.3 backlog adaptation,
//! lifted from an offline knob to a live controller).
//!
//! ```text
//!  camera ──offer(segment)──► bounded queue ──► transcode workers ──► store
//!             │ (Reject: shed,          │              │
//!             │  Block: stall)          │ lag controller: level =
//!             ▼                         │   queue_depth / max_lag_segments
//!          LiveStats                    ▼
//!       (lag histogram,     degradation ladder: level 0 = full config,
//!        level transitions,  level k = coarser sampling on non-golden
//!        shed accounting)    formats, top rung = golden only
//! ```
//!
//! * **Back-pressure.** The queue never grows past
//!   `LiveIngestOptions::queue_depth`: beyond it, `offer` sheds the segment
//!   (counted in [`LiveStats::shed`], [`QueueFullPolicy::Reject`](vstore_types::QueueFullPolicy::Reject)) or
//!   blocks the camera ([`QueueFullPolicy::Block`](vstore_types::QueueFullPolicy::Block)). Memory stays bounded
//!   no matter how fast the camera produces.
//! * **Degrade, don't stall.** A lag controller watches the backlog: every
//!   `max_lag_segments` of queue depth steps the [`DegradationLadder`] one
//!   level down — coarser frame sampling on every non-golden format, then
//!   (top rung) only the golden format — and steps back up as the backlog
//!   drains. The golden format is never degraded, mirroring the erosion
//!   invariant: full-fidelity recovery stays possible.
//! * **Panic isolation & graceful drain.** Workers transcode under
//!   [`vstore_types::catch_panic`]; a panicking transcode fails one segment,
//!   never the ingestor. [`LiveIngestHandle::shutdown`] closes the queue,
//!   drains every segment already accepted, joins the workers and returns
//!   the final [`LiveStats`].

use crate::pipeline::IngestionPipeline;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vstore_datasets::VideoSource;
use vstore_obs::Metric;
use vstore_types::sync::lock_unpoisoned;
use vstore_types::{catch_panic, BoundedQueue, PushError};
use vstore_types::{
    Configuration, FrameSampling, LatencyHistogram, LiveIngestOptions, Result, VStoreError,
    VideoSeconds,
};

// ---------------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------------

/// The declared fidelity/coverage ladder live ingest walks down under lag.
///
/// Level 0 is the full configuration. Each further level coarsens the frame
/// sampling of every **non-golden** storage format by one rank (e.g. full →
/// 2/3 → 1/2 → 1/6 → 1/30); once every non-golden format is at its coarsest
/// sampling, the top rung stores **only the golden format** (fewer stored
/// formats — maximum shedding of transcode work while keeping the one
/// format every consumer can be served from). The golden format itself is
/// never touched, so recovering full fidelity later is always possible.
#[derive(Debug, Clone)]
pub struct DegradationLadder {
    levels: Vec<Configuration>,
}

impl DegradationLadder {
    /// Build the ladder for `config` (see the type docs for the rungs).
    #[must_use]
    #[expect(clippy::expect_used, reason = "the ladder starts non-empty")]
    pub fn from_config(config: &Configuration) -> Self {
        let mut levels = vec![config.clone()];
        loop {
            let prev = levels.last().expect("ladder starts non-empty");
            let mut next = prev.clone();
            let mut changed = false;
            for (id, format) in next.storage_formats.iter_mut() {
                if id.is_golden() {
                    continue;
                }
                let rank = format.fidelity.sampling.rank();
                if rank > 0 {
                    format.fidelity.sampling = FrameSampling::ALL[rank - 1];
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            levels.push(next);
        }
        // Top rung: drop the non-golden formats entirely (when there are
        // any and a golden format exists to fall back to).
        let last = levels.last().expect("ladder starts non-empty");
        let has_golden = last.storage_formats.keys().any(|id| id.is_golden());
        let has_other = last.storage_formats.keys().any(|id| !id.is_golden());
        if has_golden && has_other {
            let mut top = last.clone();
            top.storage_formats.retain(|id, _| id.is_golden());
            top.retrieval_speeds.retain(|id, _| id.is_golden());
            levels.push(top);
        }
        DegradationLadder { levels }
    }

    /// The deepest level (0 = no degradation possible).
    #[must_use]
    pub fn max_level(&self) -> usize {
        self.levels.len() - 1
    }

    /// The configuration ingested at `level` (clamped to the ladder).
    #[must_use]
    pub fn level(&self, level: usize) -> &Configuration {
        &self.levels[level.min(self.max_level())]
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// One snapshot of a live ingestor's statistics, shown as the
/// `vstore_live_*` rows of `VStore::metrics_snapshot` and carried over the
/// serve wire.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LiveStats {
    /// Transcode workers draining the queue.
    pub workers: usize,
    /// Capacity of the bounded live segment queue.
    pub queue_capacity: usize,
    /// Segments waiting in the queue at snapshot time.
    pub queue_depth: usize,
    /// Deepest the queue has ever been.
    pub peak_queue_depth: usize,
    /// Segments the camera offered (accepted + shed + refused-after-close).
    pub offered: u64,
    /// Segments accepted onto the queue.
    pub accepted: u64,
    /// Segments shed by a full queue under [`QueueFullPolicy::Reject`](vstore_types::QueueFullPolicy::Reject).
    pub shed: u64,
    /// Segments fully transcoded and persisted.
    pub completed: u64,
    /// Segments whose transcode failed (error or panic).
    pub failed: u64,
    /// Segments whose transcode panicked (counted in `failed` too).
    pub panics: u64,
    /// Degradation level currently in force (0 = full fidelity).
    pub current_level: usize,
    /// Deepest rung of the declared ladder.
    pub max_level: usize,
    /// Lag-controller transitions to a deeper level (one per level walked).
    pub step_downs: u64,
    /// Lag-controller transitions back toward full fidelity.
    pub step_ups: u64,
    /// Segments ingested at a degraded level (level > 0).
    pub degraded_segments: u64,
    /// Video content ingested.
    pub video: VideoSeconds,
    /// Queue lag per segment: wall-clock time from offer to the start of
    /// its transcode.
    pub lag: LatencyHistogram,
    /// Completed segments per source stream name.
    pub per_source: BTreeMap<String, u64>,
}

impl LiveStats {
    /// Append this snapshot's `vstore_live_*` rows to `out`.
    pub fn collect_metrics(&self, out: &mut Vec<Metric>) {
        out.push(Metric::gauge(
            "vstore_live_workers",
            "Transcode workers draining the live queue",
            self.workers as f64,
        ));
        out.push(Metric::gauge(
            "vstore_live_queue_depth",
            "Camera segments waiting in the live queue",
            self.queue_depth as f64,
        ));
        out.push(Metric::gauge(
            "vstore_live_queue_capacity",
            "Capacity of the bounded live queue",
            self.queue_capacity as f64,
        ));
        out.push(Metric::gauge(
            "vstore_live_peak_queue_depth",
            "Deepest the live queue has been",
            self.peak_queue_depth as f64,
        ));
        out.push(Metric::gauge(
            "vstore_live_current_level",
            "Degradation level in force (0 = full fidelity)",
            self.current_level as f64,
        ));
        out.push(Metric::gauge(
            "vstore_live_max_level",
            "Deepest rung of the degradation ladder",
            self.max_level as f64,
        ));
        out.push(Metric::counter(
            "vstore_live_offered_total",
            "Segments the cameras offered",
            self.offered,
        ));
        out.push(Metric::counter(
            "vstore_live_accepted_total",
            "Segments accepted onto the live queue",
            self.accepted,
        ));
        out.push(Metric::counter(
            "vstore_live_shed_total",
            "Segments shed by a full queue",
            self.shed,
        ));
        out.push(Metric::counter(
            "vstore_live_completed_total",
            "Segments fully transcoded and persisted",
            self.completed,
        ));
        out.push(Metric::counter(
            "vstore_live_failed_total",
            "Segments whose transcode failed (error or panic)",
            self.failed,
        ));
        out.push(Metric::counter(
            "vstore_live_panics_total",
            "Segments whose transcode panicked (counted as failed too)",
            self.panics,
        ));
        out.push(Metric::counter(
            "vstore_live_degraded_segments_total",
            "Segments ingested at a degraded level",
            self.degraded_segments,
        ));
        out.push(Metric::counter(
            "vstore_live_step_downs_total",
            "Lag-controller steps to a deeper degradation level",
            self.step_downs,
        ));
        out.push(Metric::counter(
            "vstore_live_step_ups_total",
            "Lag-controller steps back toward full fidelity",
            self.step_ups,
        ));
        out.push(Metric::gauge(
            "vstore_live_video_seconds",
            "Seconds of video content ingested live",
            self.video.seconds(),
        ));
        out.push(Metric::latency(
            "vstore_live_lag_us",
            "Queue lag per segment (offer to transcode start)",
            &self.lag,
        ));
    }

    /// `true` when nothing was ever offered.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.offered == 0 && self.completed == 0
    }

    /// Fold another ingestor's statistics into this one (registry
    /// aggregation): counters saturate, peaks and levels take the max,
    /// histograms and per-source maps merge.
    pub fn accumulate(&mut self, other: &LiveStats) {
        self.workers = self.workers.saturating_add(other.workers);
        self.queue_capacity = self.queue_capacity.saturating_add(other.queue_capacity);
        self.queue_depth = self.queue_depth.saturating_add(other.queue_depth);
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.offered = self.offered.saturating_add(other.offered);
        self.accepted = self.accepted.saturating_add(other.accepted);
        self.shed = self.shed.saturating_add(other.shed);
        self.completed = self.completed.saturating_add(other.completed);
        self.failed = self.failed.saturating_add(other.failed);
        self.panics = self.panics.saturating_add(other.panics);
        self.current_level = self.current_level.max(other.current_level);
        self.max_level = self.max_level.max(other.max_level);
        self.step_downs = self.step_downs.saturating_add(other.step_downs);
        self.step_ups = self.step_ups.saturating_add(other.step_ups);
        self.degraded_segments = self
            .degraded_segments
            .saturating_add(other.degraded_segments);
        self.video += other.video;
        self.lag.accumulate(&other.lag);
        for (source, count) in &other.per_source {
            let mine = self.per_source.entry(source.clone()).or_insert(0);
            *mine = mine.saturating_add(*count);
        }
    }
}

// ---------------------------------------------------------------------------
// The live ingestor
// ---------------------------------------------------------------------------

/// One queued live segment: which segment, and when it was offered.
struct LiveJob {
    segment_index: u64,
    offered_at: Instant,
}

/// Mutable counters behind one short-held mutex; transcoding never runs
/// under it.
struct LiveState {
    offered: u64,
    accepted: u64,
    shed: u64,
    completed: u64,
    failed: u64,
    panics: u64,
    current_level: usize,
    step_downs: u64,
    step_ups: u64,
    degraded_segments: u64,
    video: VideoSeconds,
    lag: LatencyHistogram,
    per_source: BTreeMap<String, u64>,
}

struct LiveShared {
    queue: BoundedQueue<LiveJob>,
    state: Mutex<LiveState>,
    options: LiveIngestOptions,
    ladder: DegradationLadder,
    pipeline: Arc<IngestionPipeline>,
    source: VideoSource,
}

impl LiveShared {
    fn snapshot(&self) -> LiveStats {
        let state = lock_unpoisoned(&self.state);
        LiveStats {
            workers: self.options.workers,
            queue_capacity: self.options.queue_depth,
            queue_depth: self.queue.len(),
            peak_queue_depth: self.queue.peak_depth(),
            offered: state.offered,
            accepted: state.accepted,
            shed: state.shed,
            completed: state.completed,
            failed: state.failed,
            panics: state.panics,
            current_level: state.current_level,
            max_level: self.ladder.max_level(),
            step_downs: state.step_downs,
            step_ups: state.step_ups,
            degraded_segments: state.degraded_segments,
            video: state.video,
            lag: state.lag.clone(),
            per_source: state.per_source.clone(),
        }
    }

    /// The lag controller: map the current backlog to a ladder level and
    /// record any transition. Returns the level this segment ingests at.
    fn controlled_level(&self, queue_depth: usize) -> usize {
        let target = (queue_depth / self.options.max_lag_segments).min(self.ladder.max_level());
        let mut state = lock_unpoisoned(&self.state);
        let current = state.current_level;
        if target > current {
            state.step_downs = state.step_downs.saturating_add((target - current) as u64);
        } else if target < current {
            state.step_ups = state.step_ups.saturating_add((current - target) as u64);
        }
        state.current_level = target;
        target
    }
}

/// Namespace for starting a live ingestor; see [`LiveIngestor::start`].
pub struct LiveIngestor;

impl LiveIngestor {
    /// Start a live ingestor for `source`: validate `options`, build the
    /// degradation ladder for `config`, then spawn `options.workers`
    /// transcode threads draining the bounded segment queue through
    /// `pipeline`.
    pub fn start(
        pipeline: Arc<IngestionPipeline>,
        source: VideoSource,
        config: &Configuration,
        options: LiveIngestOptions,
    ) -> Result<LiveIngestHandle> {
        options.validate()?;
        if config.storage_formats.is_empty() {
            return Err(VStoreError::InvalidState(
                "configuration has no storage formats to ingest into".into(),
            ));
        }
        let shared = Arc::new(LiveShared {
            queue: BoundedQueue::new(options.queue_depth),
            state: Mutex::new(LiveState {
                offered: 0,
                accepted: 0,
                shed: 0,
                completed: 0,
                failed: 0,
                panics: 0,
                current_level: 0,
                step_downs: 0,
                step_ups: 0,
                degraded_segments: 0,
                video: VideoSeconds(0.0),
                lag: LatencyHistogram::default(),
                per_source: BTreeMap::new(),
            }),
            options,
            ladder: DegradationLadder::from_config(config),
            pipeline,
            source,
        });
        let mut workers = Vec::with_capacity(options.workers);
        for i in 0..options.workers {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("vstore-live-{i}"))
                .spawn(move || worker_loop(&worker_shared));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Wind down the workers already spawned instead of
                    // leaking them parked on the queue forever.
                    shared.queue.close();
                    for worker in workers {
                        let _ = worker.join();
                    }
                    return Err(VStoreError::Io(e));
                }
            }
        }
        Ok(LiveIngestHandle { shared, workers })
    }
}

/// The outcome of offering a batch of segments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OfferOutcome {
    /// Segments accepted onto the queue.
    pub accepted: u64,
    /// Segments shed by the full queue under [`QueueFullPolicy::Reject`](vstore_types::QueueFullPolicy::Reject).
    pub shed: u64,
}

/// A running live ingestor. Dropping the handle shuts it down gracefully
/// (close, drain, join); call [`shutdown`](Self::shutdown) to do the same
/// explicitly and receive the final statistics.
pub struct LiveIngestHandle {
    shared: Arc<LiveShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for LiveIngestHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveIngestHandle")
            .field("source", &self.shared.source.name())
            .field("workers", &self.shared.options.workers)
            .field("queue_depth", &self.queue_depth())
            .field("queue_capacity", &self.shared.options.queue_depth)
            .finish()
    }
}

impl LiveIngestHandle {
    /// Offer one live segment. Returns `Ok(true)` when the segment was
    /// accepted, `Ok(false)` when a full queue shed it under
    /// [`QueueFullPolicy::Reject`](vstore_types::QueueFullPolicy::Reject) (counted in [`LiveStats::shed`]), and
    /// [`VStoreError::InvalidState`] once shutdown has begun. Under
    /// [`QueueFullPolicy::Block`](vstore_types::QueueFullPolicy::Block) a full queue blocks the camera instead of
    /// shedding — the offering thread stalls, the store never does.
    pub fn offer(&self, segment_index: u64) -> Result<bool> {
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            state.offered = state.offered.saturating_add(1);
        }
        let job = LiveJob {
            segment_index,
            offered_at: Instant::now(),
        };
        match self.shared.queue.push(job, self.shared.options.on_full) {
            Ok(()) => {
                let depth = self.shared.queue.len();
                let mut state = lock_unpoisoned(&self.shared.state);
                state.accepted = state.accepted.saturating_add(1);
                drop(state);
                // Step the ladder down as soon as the backlog crosses a
                // threshold — not only when a worker next picks up work.
                self.shared.controlled_level(depth);
                Ok(true)
            }
            Err(PushError::Full(_)) => {
                let mut state = lock_unpoisoned(&self.shared.state);
                state.shed = state.shed.saturating_add(1);
                Ok(false)
            }
            Err(PushError::Closed { .. }) => Err(VStoreError::InvalidState(
                "live ingestor is shutting down".into(),
            )),
        }
    }

    /// Offer a contiguous range of segments (e.g. one
    /// [`LiveSource::poll`](vstore_datasets::LiveSource::poll) result),
    /// tallying accepts and sheds.
    pub fn offer_range(&self, segments: std::ops::Range<u64>) -> Result<OfferOutcome> {
        let mut outcome = OfferOutcome::default();
        for segment in segments {
            if self.offer(segment)? {
                outcome.accepted += 1;
            } else {
                outcome.shed += 1;
            }
        }
        Ok(outcome)
    }

    /// Segments currently waiting in the queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// `true` when every accepted segment has been fully processed
    /// (completed or failed). Decided from the counters alone, under the
    /// state lock: a worker pops a segment before it records anything, so
    /// "queue empty" says nothing about a segment still in a worker's hand.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        let state = lock_unpoisoned(&self.shared.state);
        state.completed.saturating_add(state.failed) >= state.accepted
    }

    /// Block until [`is_idle`](Self::is_idle) — the backlog is fully
    /// drained. The ingestor stays open; more segments can be offered
    /// afterwards.
    pub fn wait_idle(&self) {
        while !self.is_idle() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// A statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> LiveStats {
        self.shared.snapshot()
    }

    /// A cheap, cloneable probe reading this ingestor's statistics (what
    /// `VStore::metrics_snapshot` aggregates).
    #[must_use]
    pub fn probe(&self) -> LiveProbe {
        LiveProbe {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Graceful shutdown: refuse new offers, drain every segment already
    /// accepted, join the workers and return the final statistics — zero
    /// accepted segments are lost.
    pub fn shutdown(mut self) -> LiveStats {
        self.shutdown_inner();
        self.shared.snapshot()
    }

    fn shutdown_inner(&mut self) {
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            // Workers never unwind (each job runs under catch_panic), so
            // the join only fails if the runtime killed the thread.
            let _ = worker.join();
        }
    }
}

impl Drop for LiveIngestHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// A cloneable, read-only probe of one live ingestor's statistics.
#[derive(Clone)]
pub struct LiveProbe {
    shared: Arc<LiveShared>,
}

impl LiveProbe {
    /// A statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> LiveStats {
        self.shared.snapshot()
    }

    /// `true` while the ingestor is accepting segments; `false` once
    /// shutdown has begun. Registries keying reports off probes use this to
    /// retire dead ingestors instead of summing their (no longer
    /// provisioned) workers and queue capacity forever.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.shared.queue.is_open()
    }
}

/// The transcode loop of one worker thread.
fn worker_loop(shared: &LiveShared) {
    // `pop` blocks while the queue is open and returns `None` only once it
    // is closed and drained: the graceful exit.
    while let Some(job) = shared.queue.pop() {
        // Panic isolation: a panic anywhere in one job — the lag record,
        // the controller or the transcode — fails that segment; the worker
        // survives to drain the rest of the stream.
        if catch_panic(|| run_job(shared, &job)).is_err() {
            let mut state = lock_unpoisoned(&shared.state);
            state.failed = state.failed.saturating_add(1);
            state.panics = state.panics.saturating_add(1);
        }
    }
}

/// Transcode one accepted segment and count its outcome.
fn run_job(shared: &LiveShared, job: &LiveJob) {
    let lag_us = u64::try_from(job.offered_at.elapsed().as_micros()).unwrap_or(u64::MAX);
    // The lag controller reads the backlog *behind* this segment: a
    // drained queue steps fidelity back up before the last segment is
    // even transcoded.
    let level = shared.controlled_level(shared.queue.len());
    let config = shared.ladder.level(level);
    lock_unpoisoned(&shared.state).lag.record(lag_us);

    let outcome = shared
        .pipeline
        .ingest_segments(&shared.source, job.segment_index, 1, config);
    let mut state = lock_unpoisoned(&shared.state);
    match outcome {
        Ok(report) => {
            state.completed = state.completed.saturating_add(1);
            if level > 0 {
                state.degraded_segments = state.degraded_segments.saturating_add(1);
            }
            state.video += report.video;
            let source = shared.source.name().to_owned();
            let count = state.per_source.entry(source).or_insert(0);
            *count = count.saturating_add(1);
        }
        Err(_) => state.failed = state.failed.saturating_add(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests_support::two_format_config;
    use vstore_codec::Transcoder;
    use vstore_datasets::Dataset;
    use vstore_storage::{SegmentReader, SegmentStore};
    use vstore_types::{FormatId, QueueFullPolicy};

    fn live_pipeline() -> Arc<IngestionPipeline> {
        Arc::new(IngestionPipeline::new(
            Arc::new(SegmentReader::disabled(Arc::new(
                SegmentStore::open_mem_with_shards(2).unwrap(),
            ))),
            Transcoder::default(),
        ))
    }

    #[test]
    fn ladder_coarsens_sampling_then_drops_to_golden_only() {
        let config = two_format_config();
        let ladder = DegradationLadder::from_config(&config);
        // FormatId(1) starts at Full sampling (rank 4): 4 coarsening rungs
        // plus the golden-only rung.
        assert_eq!(ladder.max_level(), 5);
        assert_eq!(
            ladder.level(0).storage_formats[&FormatId(1)]
                .fidelity
                .sampling,
            FrameSampling::Full
        );
        assert_eq!(
            ladder.level(2).storage_formats[&FormatId(1)]
                .fidelity
                .sampling,
            FrameSampling::S1_2
        );
        assert_eq!(
            ladder.level(4).storage_formats[&FormatId(1)]
                .fidelity
                .sampling,
            FrameSampling::S1_30
        );
        let top = ladder.level(5);
        assert_eq!(top.storage_formats.len(), 1);
        assert!(top.storage_formats.contains_key(&FormatId::GOLDEN));
        // The golden format is identical on every rung.
        for level in 0..=ladder.max_level() {
            assert_eq!(
                ladder.level(level).storage_formats[&FormatId::GOLDEN],
                config.storage_formats[&FormatId::GOLDEN],
                "golden degraded at level {level}"
            );
        }
        // Beyond the ladder clamps to the top rung.
        assert_eq!(
            ladder.level(99).storage_formats.len(),
            top.storage_formats.len()
        );
    }

    #[test]
    fn start_validates_options() {
        let err = LiveIngestor::start(
            live_pipeline(),
            VideoSource::new(Dataset::Jackson),
            &two_format_config(),
            LiveIngestOptions::default().with_workers(0),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, VStoreError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn offered_segments_are_ingested_and_counted() {
        let pipeline = live_pipeline();
        let handle = LiveIngestor::start(
            Arc::clone(&pipeline),
            VideoSource::new(Dataset::Jackson),
            &two_format_config(),
            LiveIngestOptions::sequential().with_queue_depth(8),
        )
        .unwrap();
        let outcome = handle.offer_range(0..3).unwrap();
        assert_eq!(outcome.accepted, 3);
        let stats = handle.shutdown();
        assert_eq!(stats.offered, 3);
        assert_eq!(stats.completed, 3, "shutdown must drain the queue");
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.lag.count(), 3);
        assert_eq!(stats.per_source.get("jackson"), Some(&3));
        assert!((stats.video.seconds() - 24.0).abs() < 1e-9);
        // 3 segments × 2 formats in the store.
        assert_eq!(pipeline.store().len(), 6);
    }

    #[test]
    fn reject_policy_sheds_and_accounts() {
        let pipeline = live_pipeline();
        // No workers draining fast enough to matter: queue of 1, and the
        // single worker is busy with the first segment almost immediately,
        // so offering a burst must shed.
        let handle = LiveIngestor::start(
            pipeline,
            VideoSource::new(Dataset::Park),
            &two_format_config(),
            LiveIngestOptions::sequential(),
        )
        .unwrap();
        let outcome = handle.offer_range(0..12).unwrap();
        assert_eq!(outcome.accepted + outcome.shed, 12);
        assert!(outcome.shed > 0, "a queue of 1 must shed under a 12-burst");
        let stats = handle.shutdown();
        assert_eq!(stats.offered, 12);
        assert_eq!(stats.shed, outcome.shed);
        assert_eq!(stats.completed, outcome.accepted);
        assert!(stats.shed > 0);
        assert!(stats.peak_queue_depth <= 1, "bounded queue overflowed");
    }

    #[test]
    fn offers_after_shutdown_fail_cleanly() {
        let pipeline = live_pipeline();
        let handle = LiveIngestor::start(
            pipeline,
            VideoSource::new(Dataset::Tucson),
            &two_format_config(),
            LiveIngestOptions::sequential(),
        )
        .unwrap();
        let probe = handle.probe();
        assert!(probe.is_live());
        drop(handle);
        assert!(!probe.is_live());
        assert!(probe.stats().is_idle());
    }

    #[test]
    fn lag_controller_steps_down_and_recovers() {
        let pipeline = live_pipeline();
        let handle = LiveIngestor::start(
            pipeline,
            VideoSource::new(Dataset::Park),
            &two_format_config(),
            LiveIngestOptions::sequential()
                .with_queue_depth(16)
                .with_on_full(QueueFullPolicy::Block)
                .with_max_lag_segments(2),
        )
        .unwrap();
        // Flood: one worker, 10 segments — the backlog forces at least one
        // step down while the worker chews through it.
        let outcome = handle.offer_range(0..10).unwrap();
        assert_eq!(outcome.accepted, 10);
        handle.wait_idle();
        let stats = handle.stats();
        assert!(stats.step_downs > 0, "backlog never degraded: {stats:?}");
        assert!(stats.step_ups > 0, "drain never recovered: {stats:?}");
        assert_eq!(stats.current_level, 0, "idle must mean full fidelity");
        assert!(stats.degraded_segments > 0);
        let final_stats = handle.shutdown();
        assert_eq!(final_stats.completed, 10);
    }

    #[test]
    fn stats_display_is_nan_free_when_idle() {
        let stats = LiveStats::default();
        assert!(stats.is_idle());
        let mut metrics = Vec::new();
        stats.collect_metrics(&mut metrics);
        let rendered = vstore_obs::MetricsSnapshot { metrics }.to_string();
        assert!(!rendered.contains("NaN"), "{rendered}");
        for line in [
            "vstore_live_offered_total 0",
            "vstore_live_shed_total 0",
            "vstore_live_failed_total 0",
            "vstore_live_current_level 0",
            "vstore_live_video_seconds 0",
            "vstore_live_lag_us n=0 mean=0.0 max=0",
        ] {
            assert!(rendered.lines().any(|l| l == line), "{line} in\n{rendered}");
        }
    }

    #[test]
    fn accumulate_merges_and_saturates() {
        let mut a = LiveStats {
            offered: u64::MAX,
            accepted: 1,
            current_level: 1,
            per_source: BTreeMap::from([("cam-a".to_owned(), 2u64)]),
            ..LiveStats::default()
        };
        let b = LiveStats {
            offered: 5,
            accepted: 2,
            current_level: 3,
            peak_queue_depth: 7,
            per_source: BTreeMap::from([("cam-a".to_owned(), 3u64), ("cam-b".to_owned(), 1u64)]),
            ..LiveStats::default()
        };
        a.accumulate(&b);
        assert_eq!(a.offered, u64::MAX, "saturating, not wrapping");
        assert_eq!(a.accepted, 3);
        assert_eq!(a.current_level, 3, "aggregate reports the worst level");
        assert_eq!(a.peak_queue_depth, 7);
        assert_eq!(a.per_source.get("cam-a"), Some(&5));
        assert_eq!(a.per_source.get("cam-b"), Some(&1));
    }
}
