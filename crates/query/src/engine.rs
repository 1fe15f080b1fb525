//! Query execution over the segment store.

use crate::cascade::QuerySpec;
use crate::planner::PlanOptions;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;
use vstore_codec::{SegmentMeta, Transcoder};
use vstore_ops::{selectivity_prior, OperatorLibrary};
use vstore_storage::{DecodedRead, DecodedSegment, ReadSource, SegmentKey, SegmentReader};
use vstore_types::{
    scoped_map, ByteSize, Configuration, Consumer, OperatorKind, Result, Speed, VStoreError,
    VideoSeconds,
};

/// Per-stage execution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// The operator of this stage.
    pub op: OperatorKind,
    /// Segments this stage processed.
    pub segments_processed: usize,
    /// Segments this stage flagged as positive (passed to the next stage).
    pub segments_passed: usize,
    /// Frames the operator consumed.
    pub frames_consumed: usize,
    /// Modelled processing seconds charged to this stage (retrieval +
    /// consumption, whichever is slower governs).
    pub processing_seconds: f64,
    /// Segments whose data had to be served by a fallback (richer) format
    /// because the subscribed format's segment was eroded.
    pub fallback_segments: usize,
    /// The selectivity the planner predicted for this stage
    /// ([`vstore_ops::selectivity_prior`]); `None` when the query ran
    /// unplanned.
    pub planned_selectivity: Option<f64>,
}

impl StageReport {
    /// The selectivity this stage actually observed: segments passed over
    /// segments processed. `None` when the stage processed nothing (idle).
    pub fn actual_selectivity(&self) -> Option<f64> {
        (self.segments_processed > 0)
            .then(|| self.segments_passed as f64 / self.segments_processed as f64)
    }
}

/// The result of executing one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The query that ran.
    pub query: QuerySpec,
    /// Video timespan covered by the query.
    pub video: VideoSeconds,
    /// End-to-end query speed in ×realtime.
    pub speed: Speed,
    /// Source frame indices the final cascade stage flagged as positive.
    pub positive_frames: Vec<u64>,
    /// Per-stage statistics, in execution order (the planner may execute
    /// stages out of declaration order; the declared final stage always
    /// runs last).
    pub stages: Vec<StageReport>,
    /// Bytes read from the segment store.
    pub bytes_read: ByteSize,
    /// Segments the planner skipped from metadata alone — never fetched,
    /// never decoded, never charged. Always 0 when the query ran unplanned.
    pub segments_skipped: usize,
}

impl QueryResult {
    /// Selectivity of the full cascade: positive segments of the last stage
    /// over segments scanned by the first stage.
    pub fn selectivity(&self) -> f64 {
        match (self.stages.first(), self.stages.last()) {
            (Some(first), Some(last)) if first.segments_processed > 0 => {
                last.segments_passed as f64 / first.segments_processed as f64
            }
            _ => 0.0,
        }
    }
}

/// The query engine.
///
/// Query execution is retrieval-bound (§6.2): most wall-clock time goes to
/// fetching segments from the store and decoding them. The engine therefore
/// runs a **prefetch/decode stage** ahead of the operator cascade: segments
/// are fetched as the stage's consumer takes them
/// ([`SegmentReader::get_view`]: decoded and converted to the consumption
/// format) in parallel batches of [`prefetch`](Self::with_prefetch)
/// segments (bounded lookahead), while operators and all accounting run on
/// the calling thread in segment order — [`StageReport`]s are identical to
/// the sequential (`prefetch = 1`) path.
///
/// All reads flow through a [`SegmentReader`]: when its view cache is
/// enabled (see [`SegmentReader::new`]), repeated cascade stages and hot
/// streams are served from memory, and a hit skips the store read, decode
/// and conversion entirely: the operator runs on the cached frames behind
/// their `Arc`, and a window of such hits is served on the calling thread
/// without spawning anything. Query *results* are identical with the cache
/// on or off; only the reader's and the store's counters, the `read.*`
/// spans (and wall-clock time) change.
pub struct QueryEngine {
    reader: Arc<SegmentReader>,
    library: OperatorLibrary,
    transcoder: Transcoder,
    prefetch: usize,
}

/// The span name a segment fetch records under, by where the bytes came
/// from — the cache-tier hit/miss story of a traced request.
fn read_span_name(source: ReadSource) -> &'static str {
    match source {
        ReadSource::DecodedCache => "read.decoded_cache",
        ReadSource::Disk => "read.disk",
        ReadSource::Cold => "read.cold",
    }
}

/// One segment's data after the prefetch/decode stage.
struct PrefetchedSegment {
    segment: u64,
    decoded: Arc<DecodedSegment>,
    used_fallback: bool,
    read_bytes: ByteSize,
}

impl PrefetchedSegment {
    fn new(segment: u64, read: DecodedRead, used_fallback: bool) -> Self {
        PrefetchedSegment {
            segment,
            read_bytes: ByteSize(read.segment.raw_len),
            decoded: read.segment,
            used_fallback,
        }
    }
}

impl QueryEngine {
    /// An engine reading through the given (possibly caching, possibly
    /// shared) [`SegmentReader`], without prefetching. Pass
    /// [`SegmentReader::disabled`] for uncached reads.
    pub fn new(
        reader: Arc<SegmentReader>,
        library: OperatorLibrary,
        transcoder: Transcoder,
    ) -> Self {
        QueryEngine {
            reader,
            library,
            transcoder,
            prefetch: 1,
        }
    }

    /// Fetch and decode up to `prefetch` segments in parallel ahead of the
    /// operator cascade (clamped to ≥ 1; 1 disables prefetching).
    pub fn with_prefetch(mut self, prefetch: usize) -> Self {
        self.prefetch = prefetch.max(1);
        self
    }

    /// The configured prefetch lookahead.
    pub fn prefetch(&self) -> usize {
        self.prefetch
    }

    /// Execute a query over a contiguous range of segments of one stream,
    /// using the consumption/storage formats of the given configuration.
    ///
    /// Equivalent to [`execute_planned`](Self::execute_planned) with the
    /// default (disabled) [`PlanOptions`] — the exact scan.
    pub fn execute(
        &self,
        stream: &str,
        query: &QuerySpec,
        config: &Configuration,
        first_segment: u64,
        segment_count: u64,
    ) -> Result<QueryResult> {
        self.execute_planned(
            stream,
            query,
            config,
            first_segment,
            segment_count,
            &PlanOptions::default(),
        )
    }

    /// Pick the stage execution order. Unplanned queries (and single-stage
    /// cascades) run in declaration order. Planned queries pin the declared
    /// final stage last — its positives are the query's answer — and sort
    /// the earlier filters ascending by expected cost × selectivity on the
    /// operator library's cost model, so the cheapest, most selective
    /// filters shrink the active set before expensive ones run. The sort is
    /// stable: equal keys keep declaration order.
    fn plan_stage_order(
        &self,
        query: &QuerySpec,
        config: &Configuration,
        plan: &PlanOptions,
    ) -> Result<Vec<OperatorKind>> {
        if !plan.enabled || query.cascade.len() <= 1 {
            return Ok(query.cascade.clone());
        }
        #[expect(clippy::expect_used, reason = "len <= 1 returned above")]
        let (last, head) = query.cascade.split_last().expect("cascade is non-empty");
        let mut keyed: Vec<(f64, OperatorKind)> = Vec::with_capacity(head.len());
        for &op in head {
            let consumer = Consumer {
                op,
                accuracy: query.accuracy,
            };
            let sub = config.subscription(&consumer).ok_or_else(|| {
                VStoreError::InvalidState(format!(
                    "configuration has no subscription for {consumer}"
                ))
            })?;
            let cost = self
                .library
                .cost_model()
                .seconds_per_video_second(op, &sub.consumption.fidelity);
            keyed.push((cost * selectivity_prior(op), op));
        }
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut ordered: Vec<OperatorKind> = keyed.into_iter().map(|(_, op)| op).collect();
        ordered.push(*last);
        Ok(ordered)
    }

    /// The metadata skip pass: drop from `active` every segment whose
    /// sidecar proves its content too static for the cascade's
    /// change-driven stage to keep, **before** any prefetch — a skipped segment is never
    /// fetched, never decoded and never counted in `bytes_read`. Sidecar
    /// reads go straight to the store (never through the reader), so cache
    /// hit/miss statistics are unaffected. A missing or corrupt sidecar
    /// keeps the segment: the engine degrades to the full fetch + decode
    /// path rather than ever inventing a skip.
    fn apply_metadata_skip(
        &self,
        stream: &str,
        query: &QuerySpec,
        config: &Configuration,
        change_op: OperatorKind,
        plan: &PlanOptions,
        active: &mut BTreeSet<u64>,
    ) -> usize {
        // Only the change-driven filters can justify a skip from change
        // scores; a cascade without one keeps the exact scan.
        if !matches!(change_op, OperatorKind::Diff | OperatorKind::Motion) {
            return 0;
        }
        let consumer = Consumer {
            op: change_op,
            accuracy: query.accuracy,
        };
        let Some(sub) = config.subscription(&consumer) else {
            return 0; // the stage loop reports the missing subscription
        };
        let sampling = sub.consumption.fidelity.sampling;
        let store = self.reader.store();
        let mut skipped = 0usize;
        active.retain(|&segment| {
            let key = SegmentKey::new(stream, sub.storage, segment);
            let keep = match store.get_segment_meta(&key) {
                Ok(Some(bytes)) => match SegmentMeta::from_bytes(&bytes) {
                    Ok(meta) => meta.max_sampled_change(sampling) >= plan.skip_threshold,
                    Err(_) => true, // corrupt sidecar → full decode
                },
                _ => true, // missing sidecar (or backend error) → full decode
            };
            if !keep {
                skipped += 1;
            }
            keep
        });
        skipped
    }

    /// Execute a query with an explicit [`PlanOptions`]: optionally skip
    /// fetching segments whose ingest-time metadata says the first stage
    /// would discard them, and order cascade stages by cost × selectivity
    /// instead of declaration order. With planning disabled this is
    /// byte-identical to [`execute`](Self::execute).
    pub fn execute_planned(
        &self,
        stream: &str,
        query: &QuerySpec,
        config: &Configuration,
        first_segment: u64,
        segment_count: u64,
        plan: &PlanOptions,
    ) -> Result<QueryResult> {
        plan.validate()?;
        if stream.is_empty() {
            return Err(VStoreError::invalid_argument("query stream name is empty"));
        }
        if segment_count == 0 {
            return Err(VStoreError::invalid_argument("query covers zero segments"));
        }
        if first_segment.checked_add(segment_count).is_none() {
            return Err(VStoreError::invalid_argument(
                "query segment range overflows u64",
            ));
        }
        // The active set and per-stage buffers are sized from the segment
        // count; reject counts the platform cannot even address instead of
        // silently truncating them (or dying mid-allocation) further down.
        vstore_types::cast::usize_from_u64(segment_count, "query segment count")?;
        let ordered = self.plan_stage_order(query, config, plan)?;
        let mut active: BTreeSet<u64> = (first_segment..first_segment + segment_count).collect();
        let segments_skipped = if plan.enabled {
            // Key the skip off the earliest change-driven stage anywhere in
            // the plan: cascade stages conjoin, so a segment that stage
            // would discard contributes nothing no matter where the
            // planner scheduled it — skipping it up front is equivalent.
            match ordered
                .iter()
                .copied()
                .find(|op| matches!(op, OperatorKind::Diff | OperatorKind::Motion))
            {
                Some(op) => self.apply_metadata_skip(stream, query, config, op, plan, &mut active),
                None => 0,
            }
        } else {
            0
        };
        let mut stages = Vec::with_capacity(ordered.len());
        let mut total_seconds = 0.0f64;
        let mut bytes_read = ByteSize::ZERO;
        let mut positive_frames = Vec::new();
        // The caller's trace context (installed by the facade or a serve
        // worker); inert when tracing is off or the request unsampled.
        let trace = vstore_obs::current();

        for (stage_idx, &op) in ordered.iter().enumerate() {
            let _stage_span = trace.span_with("query.stage", || op.to_string());
            let consumer = Consumer {
                op,
                accuracy: query.accuracy,
            };
            let sub = config.subscription(&consumer).ok_or_else(|| {
                VStoreError::InvalidState(format!(
                    "configuration has no subscription for {consumer}"
                ))
            })?;
            let operator = self.library.instantiate(op);
            let mut report = StageReport {
                op,
                segments_processed: 0,
                segments_passed: 0,
                frames_consumed: 0,
                processing_seconds: 0.0,
                fallback_segments: 0,
                planned_selectivity: plan.enabled.then(|| selectivity_prior(op)),
            };
            let mut next_active = BTreeSet::new();
            let mut stage_positive_frames = Vec::new();
            // Bounded lookahead: fetch the next `prefetch` segments as this
            // consumer takes them, in parallel where they miss the cache,
            // then run the operator and all accounting on this thread in
            // segment order.
            let stage_segments: Vec<u64> = active.iter().copied().collect();
            for window in stage_segments.chunks(self.prefetch) {
                for prefetched in self.prefetch_window(stream, config, sub, window)? {
                    let PrefetchedSegment {
                        segment,
                        decoded,
                        used_fallback,
                        read_bytes,
                    } = prefetched;
                    let frames = &decoded.frames;
                    bytes_read += read_bytes;
                    report.segments_processed += 1;
                    if used_fallback {
                        report.fallback_segments += 1;
                    }
                    report.frames_consumed += frames.len();
                    let output = operator.run(frames);
                    // Charge modelled time: the stage runs at the lower of the
                    // consumption speed and the (possibly fallback-degraded)
                    // retrieval speed.
                    let retrieval = if used_fallback {
                        // Re-profile retrieval against the format actually used.
                        self.transcoder.retrieval_speed(
                            &decoded.storage_format,
                            0.3,
                            &sub.consumption,
                        )
                    } else {
                        sub.retrieval_speed
                    };
                    let effective = sub.consumption_speed.min(retrieval);
                    let segment_seconds = decoded.frame_count as f64
                        / (30.0 * decoded.storage_format.fidelity.sampling.fraction()).max(1e-9);
                    report.processing_seconds += segment_seconds / effective.factor().max(1e-9);
                    if output.positives() > 0 {
                        report.segments_passed += 1;
                        next_active.insert(segment);
                    }
                    if stage_idx + 1 == ordered.len() {
                        stage_positive_frames.extend(output.positive_indices());
                    }
                }
            }
            total_seconds += report.processing_seconds;
            if stage_idx + 1 == ordered.len() {
                positive_frames = stage_positive_frames;
            }
            stages.push(report);
            active = next_active;
            if active.is_empty() && stage_idx + 1 < ordered.len() {
                // Nothing left for later stages; record them as idle.
                for &op in &ordered[stage_idx + 1..] {
                    stages.push(StageReport {
                        op,
                        segments_processed: 0,
                        segments_passed: 0,
                        frames_consumed: 0,
                        processing_seconds: 0.0,
                        fallback_segments: 0,
                        planned_selectivity: plan.enabled.then(|| selectivity_prior(op)),
                    });
                }
                break;
            }
        }

        let video = VideoSeconds(segment_count as f64 * 8.0);
        Ok(QueryResult {
            query: query.clone(),
            video,
            speed: Speed::from_durations(video.seconds(), total_seconds),
            positive_frames,
            stages,
            bytes_read,
            segments_skipped,
        })
    }

    /// The prefetch/decode stage: fetch one window of segments through the
    /// [`SegmentReader`], each as the subscription's consumer takes it. A
    /// segment whose view the cache holds is served right here — a hit is a
    /// refcount bump, less than handing it to another thread would cost —
    /// and only the misses are fetched, decoded and converted in parallel.
    /// Segments not ingested at all are dropped; segment order is
    /// preserved, so downstream accounting is identical to the sequential
    /// path, and a failing window reports its first error in segment order.
    fn prefetch_window(
        &self,
        stream: &str,
        config: &Configuration,
        sub: &vstore_types::Subscription,
        window: &[u64],
    ) -> Result<Vec<PrefetchedSegment>> {
        // Captured explicitly: the pool threads below have their own TLS,
        // so the caller's installed trace context does not propagate.
        let trace = vstore_obs::current();
        // One slot per segment, in segment order: filled here for a hit,
        // by whichever pool thread fetches it for a miss.
        let mut fetched: Vec<Result<Option<PrefetchedSegment>>> = Vec::with_capacity(window.len());
        let mut misses = Vec::new();
        for &segment in window {
            let fetch_started = Instant::now();
            let key = SegmentKey::new(stream, sub.storage, segment);
            let hit = self.reader.cached_view(&key, &sub.consumption).map(|read| {
                trace.record_since(read_span_name(read.source), fetch_started);
                PrefetchedSegment::new(segment, read, false)
            });
            if hit.is_none() {
                misses.push((fetched.len(), segment));
            }
            fetched.push(Ok(hit));
        }
        let fetch = |_, (slot, segment)| {
            let fetch_started = Instant::now();
            let read = self.fetch_view(stream, config, sub.storage, segment, &sub.consumption);
            // `None`: the segment was not ingested at all.
            let prefetched = read.map(|found| {
                found.map(|(read, used_fallback)| {
                    trace.record_since(read_span_name(read.source), fetch_started);
                    PrefetchedSegment::new(segment, read, used_fallback)
                })
            });
            (slot, prefetched)
        };
        for (slot, prefetched) in scoped_map(misses, self.prefetch, fetch) {
            fetched[slot] = prefetched;
        }
        fetched.into_iter().filter_map(Result::transpose).collect()
    }

    /// Fetch one segment as the consumer of `consumption` takes it, from
    /// the subscribed format, falling back to a richer stored format when
    /// it is missing (eroded). Each candidate key goes through the reader's
    /// view cache before touching the store.
    fn fetch_view(
        &self,
        stream: &str,
        config: &Configuration,
        preferred: vstore_types::FormatId,
        segment: u64,
        consumption: &vstore_types::ConsumptionFormat,
    ) -> Result<Option<(DecodedRead, bool)>> {
        let key = SegmentKey::new(stream, preferred, segment);
        if let Some(read) = self.reader.get_view(&key, consumption)? {
            return Ok(Some((read, false)));
        }
        // Fallback: any stored format with satisfiable fidelity, preferring
        // the cheapest (fewest bytes would be nice, but richer-or-equal and
        // present is the requirement; iterate in id order so the golden
        // format is the last resort only if numbered formats fail).
        let mut candidates: Vec<_> = config
            .storage_formats
            .iter()
            .filter(|(id, sf)| **id != preferred && sf.satisfies(consumption))
            .collect();
        candidates.sort_by_key(|(id, _)| std::cmp::Reverse(id.0));
        for (id, _) in candidates {
            let key = SegmentKey::new(stream, *id, segment);
            if let Some(read) = self.reader.get_view(&key, consumption)? {
                return Ok(Some((read, true)));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    #![expect(clippy::disallowed_methods, reason = "removes its scratch stores")]
    use super::*;
    use std::sync::Arc;
    use vstore_core::profiler::{Profiler, ProfilerConfig};
    use vstore_core::{Alternative, ConfigurationEngine, EngineOptions};
    use vstore_datasets::{Dataset, VideoSource};
    use vstore_ingest::IngestionPipeline;
    use vstore_ops::OperatorLibrary;
    use vstore_sim::CodingCostModel;
    use vstore_storage::SegmentStore;
    use vstore_types::FidelitySpace;

    struct Fixture {
        store: Arc<SegmentStore>,
        config: Configuration,
        one_to_n: Configuration,
        engine: QueryEngine,
    }

    /// Query A's derived configuration and its 1→N alternative. Deriving
    /// them is three quarters of a fixture's cost and the same every time,
    /// so the suite derives once; every test still gets a store of its own.
    fn configurations() -> (Configuration, Configuration) {
        static DERIVED: std::sync::OnceLock<(Configuration, Configuration)> =
            std::sync::OnceLock::new();
        DERIVED
            .get_or_init(|| {
                let profiler = Arc::new(Profiler::new(
                    OperatorLibrary::paper_testbed(),
                    CodingCostModel::paper_testbed(),
                    ProfilerConfig::fast_test(),
                ));
                let options = EngineOptions {
                    fidelity_space: FidelitySpace::reduced(),
                    ..EngineOptions::default()
                };
                let engine = ConfigurationEngine::new(profiler, options);
                let consumers = QuerySpec::query_a(0.8).consumers();
                let config = engine.derive(&consumers).unwrap();
                let one_to_n = engine
                    .derive_alternative(&consumers, Alternative::OneToN)
                    .unwrap();
                (config, one_to_n)
            })
            .clone()
    }

    fn fixture() -> Fixture {
        let (config, one_to_n) = configurations();

        let store = Arc::new(SegmentStore::open_temp("query-engine").unwrap());
        let ingest = IngestionPipeline::new(
            Arc::new(SegmentReader::disabled(Arc::clone(&store))),
            Transcoder::default(),
        );
        let source = VideoSource::new(Dataset::Jackson);
        // Ingest into the union of both configurations' formats by ingesting
        // twice (ids overlap only for the golden format, which is identical).
        ingest.ingest_segments(&source, 0, 2, &config).unwrap();
        ingest.ingest_segments(&source, 0, 2, &one_to_n).unwrap();

        let engine = QueryEngine::new(
            Arc::new(SegmentReader::disabled(Arc::clone(&store))),
            OperatorLibrary::paper_testbed(),
            Transcoder::default(),
        );
        Fixture {
            store,
            config,
            one_to_n,
            engine,
        }
    }

    #[test]
    fn query_a_runs_end_to_end_and_reports_speed() {
        let fx = fixture();
        let query = QuerySpec::query_a(0.8);
        let result = fx
            .engine
            .execute("jackson", &query, &fx.config, 0, 2)
            .unwrap();
        assert_eq!(result.stages.len(), 3);
        assert_eq!(result.stages[0].segments_processed, 2);
        assert!((result.video.seconds() - 16.0).abs() < 1e-9);
        assert!(result.speed.factor() > 1.0, "query speed {}", result.speed);
        assert!(result.bytes_read.bytes() > 0);
        // Later stages never process more segments than earlier ones.
        for w in result.stages.windows(2) {
            assert!(w[1].segments_processed <= w[0].segments_passed);
        }
        std::fs::remove_dir_all(fx.store.dir()).ok();
    }

    #[test]
    fn vstore_configuration_is_faster_than_one_to_n() {
        let fx = fixture();
        let query = QuerySpec::query_a(0.8);
        let vstore = fx
            .engine
            .execute("jackson", &query, &fx.config, 0, 2)
            .unwrap();
        let baseline = fx
            .engine
            .execute("jackson", &query, &fx.one_to_n, 0, 2)
            .unwrap();
        assert!(
            vstore.speed.factor() > baseline.speed.factor(),
            "VStore {} should beat 1→N {}",
            vstore.speed,
            baseline.speed
        );
        std::fs::remove_dir_all(fx.store.dir()).ok();
    }

    #[test]
    fn missing_subscription_is_an_error() {
        let fx = fixture();
        let query = QuerySpec::query_b(0.8); // configuration was built for query A
        let err = fx
            .engine
            .execute("jackson", &query, &fx.config, 0, 2)
            .unwrap_err();
        assert!(matches!(err, VStoreError::InvalidState(_)));
        assert!(fx
            .engine
            .execute("jackson", &QuerySpec::query_a(0.8), &fx.config, 0, 0)
            .is_err());
        std::fs::remove_dir_all(fx.store.dir()).ok();
    }

    /// A window that fails mid-fetch reads each of its segments from the
    /// store exactly once, re-entering it after the error reads them once
    /// more, and the segment that failed to parse is never admitted to a
    /// cache — the retry goes back to the store for it alone.
    #[test]
    fn failed_and_reentered_windows_charge_each_fetched_segment_exactly_once() {
        let fx = fixture();
        let query = QuerySpec::query_a(0.8);
        let consumer = Consumer {
            op: query.cascade[0],
            accuracy: query.accuracy,
        };
        let sub = fx.config.subscription(&consumer).unwrap();
        // Corrupt segment 1 of the stage-1 subscribed format: the fetch
        // reads its bytes but container parsing fails.
        let bad_key = SegmentKey::new("jackson", sub.storage, 1);
        fx.store.put(&bad_key, b"corrupted-not-a-segment").unwrap();
        let failing_attempt = |engine: &QueryEngine| {
            let reads_before = fx.store.stats().reads;
            let err = engine
                .execute("jackson", &query, &fx.config, 0, 2)
                .unwrap_err();
            assert!(matches!(err, VStoreError::Corruption(_)), "{err}");
            fx.store.stats().reads - reads_before
        };

        // Prefetch 2: both segments share one window. Uncached, every
        // attempt reads the good and the corrupt segment once each.
        let engine = QueryEngine::new(
            Arc::new(SegmentReader::disabled(Arc::clone(&fx.store))),
            OperatorLibrary::paper_testbed(),
            Transcoder::default(),
        )
        .with_prefetch(2);
        assert_eq!(failing_attempt(&engine), 2);
        assert_eq!(failing_attempt(&engine), 2, "a retry reads each once more");

        // Cached, the failing window still admits the good segment's view
        // — and only it: the retry is one decoded hit and one store read.
        let (reader, engine) = cached_engine(&fx, 2);
        assert_eq!(failing_attempt(&engine), 2);
        let admitted = reader.cache_stats();
        assert_eq!(admitted.decoded_entries, 1);
        assert!(admitted.resident_bytes > 0);
        assert_eq!(
            failing_attempt(&engine),
            1,
            "only the corrupt one is re-read"
        );
        let retried = reader.cache_stats();
        assert_eq!(retried.decoded_hits, admitted.decoded_hits + 1);
        assert_eq!(retried.decoded_entries, 1);
        assert_eq!(retried.resident_bytes, admitted.resident_bytes);
        std::fs::remove_dir_all(fx.store.dir()).ok();
    }

    /// With the view cache enabled, repeated queries return identical
    /// results while their reads move from the store to the cache.
    #[test]
    fn cache_hits_charge_memory_reads_and_leave_results_identical() {
        let fx = fixture();
        let (reader, engine) = cached_engine(&fx, 2);
        let query = QuerySpec::query_a(0.8);

        let reads_before = fx.store.stats().reads;
        let first = engine.execute("jackson", &query, &fx.config, 0, 2).unwrap();
        let reads_after_first = fx.store.stats().reads;
        assert!(reads_after_first > reads_before);
        let cold = reader.cache_stats();

        let second = engine.execute("jackson", &query, &fx.config, 0, 2).unwrap();
        assert_eq!(first, second, "cache must never change query results");
        assert_eq!(
            fx.store.stats().reads,
            reads_after_first,
            "a fully warm query reads nothing from the store"
        );
        let fetched: usize = second.stages.iter().map(|s| s.segments_processed).sum();
        let warm = reader.cache_stats();
        assert_eq!(warm.decoded_hits - cold.decoded_hits, fetched as u64);
        assert_eq!(warm.decoded_misses, cold.decoded_misses);
        assert_eq!(warm.decoded_entries, cold.decoded_entries);
        std::fs::remove_dir_all(fx.store.dir()).ok();
    }

    fn cached_engine(fx: &Fixture, prefetch: usize) -> (Arc<SegmentReader>, QueryEngine) {
        let reader = Arc::new(SegmentReader::new(Arc::clone(&fx.store), 64 << 20, 256));
        let engine = QueryEngine::new(
            Arc::clone(&reader),
            OperatorLibrary::paper_testbed(),
            Transcoder::default(),
        )
        .with_prefetch(prefetch);
        (reader, engine)
    }

    /// The paper's common case: consumers coalesced onto one stored format
    /// richer than any of them wants (here 1→N: everyone reads the golden
    /// format). Each consumer's conversion is a real one, paid by the fill
    /// of its own view; the answer never depends on who paid it.
    #[test]
    fn coalesced_consumers_hold_their_own_views_and_results_never_change() {
        let fx = fixture();
        let query = QuerySpec::query_a(0.8);
        let config = &fx.one_to_n;
        let golden = config.golden().unwrap().fidelity;
        let subs: Vec<_> = query
            .consumers()
            .iter()
            .map(|c| *config.subscription(c).unwrap())
            .collect();
        let poorer: Vec<_> = subs
            .iter()
            .filter(|sub| {
                let per_frame = vstore_types::Fidelity {
                    sampling: golden.sampling,
                    ..sub.consumption.fidelity
                };
                sub.storage == vstore_types::FormatId::GOLDEN && per_frame != golden
            })
            .collect();
        assert!(
            poorer.len() >= 2,
            "1→N left {} poorer consumers",
            poorer.len()
        );
        assert_ne!(poorer[0].consumption, poorer[1].consumption);

        let uncached = fx.engine.execute("jackson", &query, config, 0, 2).unwrap();
        for prefetch in [1, 4] {
            let (reader, engine) = cached_engine(&fx, prefetch);
            let cold = engine.execute("jackson", &query, config, 0, 2).unwrap();
            let warm = engine.execute("jackson", &query, config, 0, 2).unwrap();
            assert_eq!(cold, uncached, "prefetch {prefetch}, cold cache");
            assert_eq!(warm, uncached, "prefetch {prefetch}, warm cache");
            // One view per (segment, consumer that read it), all under the
            // golden keys, each stamped with its consumer's fidelity.
            let views: usize = warm.stages.iter().map(|s| s.segments_processed).sum();
            let stats = reader.cache_stats();
            assert_eq!(stats.decoded_entries, views as u64);
            assert_eq!(stats.decoded_misses, views as u64);
            assert_eq!(stats.decoded_hits, views as u64);
            let key = SegmentKey::new("jackson", vstore_types::FormatId::GOLDEN, 0);
            let first = reader.cached_view(&key, &poorer[0].consumption).unwrap();
            let second = reader.cached_view(&key, &poorer[1].consumption).unwrap();
            for (view, sub) in [(&first, poorer[0]), (&second, poorer[1])] {
                assert!(!view.segment.frames.is_empty());
                assert!(view
                    .segment
                    .frames
                    .iter()
                    .all(|f| f.fidelity == sub.consumption.fidelity));
            }
        }
        std::fs::remove_dir_all(fx.store.dir()).ok();
    }

    /// Erosion deletes through the reader, which drops every view of the
    /// key: the next read is served by the fallback format's frames.
    #[test]
    fn eroding_a_warm_segment_serves_the_fallback_format_never_stale_frames() {
        let fx = fixture();
        let query = QuerySpec::query_a(0.8);
        let sub = *fx
            .config
            .subscription(&Consumer {
                op: query.cascade[0],
                accuracy: query.accuracy,
            })
            .unwrap();
        assert_ne!(sub.storage, vstore_types::FormatId::GOLDEN);
        let (reader, engine) = cached_engine(&fx, 2);
        let fresh = engine.execute("jackson", &query, &fx.config, 0, 2).unwrap();
        assert_eq!(fresh.stages[0].fallback_segments, 0);
        let eroded = SegmentKey::new("jackson", sub.storage, 1);
        assert!(reader.cached_view(&eroded, &sub.consumption).is_some());
        let before = reader.cache_stats();
        reader.delete(&eroded).unwrap();
        let after = reader.cache_stats();
        assert!(reader.cached_view(&eroded, &sub.consumption).is_none());
        assert!(after.decoded_entries < before.decoded_entries);
        assert_eq!(
            after.invalidations - before.invalidations,
            before.decoded_entries - after.decoded_entries,
            "each of the key's views counts once"
        );
        let aged = engine.execute("jackson", &query, &fx.config, 0, 2).unwrap();
        assert_eq!(aged.stages[0].fallback_segments, 1);
        // What a reader with no cache to go stale answers after the same
        // erosion.
        let reference = fx
            .engine
            .execute("jackson", &query, &fx.config, 0, 2)
            .unwrap();
        assert_eq!(aged, reference);
        std::fs::remove_dir_all(fx.store.dir()).ok();
    }

    /// A window whose segments the cache holds is served where the stage
    /// runs: with every request traced, each `read.decoded_cache` span
    /// carries the thread id of its `query.stage` span. A window of one
    /// hit and one miss still records both reads and serves each once.
    #[test]
    fn a_warm_window_spawns_nothing_and_a_mixed_window_charges_each_read_once() {
        use vstore_obs::{TraceOptions, Tracer};
        let fx = fixture();
        let query = QuerySpec::query_a(0.8);
        let (reader, engine) = cached_engine(&fx, 4);
        let tracer = Tracer::new(TraceOptions::enabled().with_sample_per_1k(1000));
        let traced = |root: &'static str| {
            let context = tracer.begin(root);
            let installed = vstore_obs::install(&context);
            let result = engine.execute("jackson", &query, &fx.config, 0, 2).unwrap();
            drop(installed);
            drop(context);
            let record = tracer.dump(0).records.pop().unwrap();
            assert_eq!(record.root, root);
            (result, record.spans)
        };
        let reads = |spans: &[vstore_obs::TraceSpan]| -> Vec<(String, u64)> {
            let mut reads: Vec<_> = spans
                .iter()
                .filter(|s| s.name.starts_with("read."))
                .map(|s| (s.name.clone(), s.tid))
                .collect();
            reads.sort();
            reads
        };

        let (cold, _) = traced("cold");
        let fetched: usize = cold.stages.iter().map(|s| s.segments_processed).sum();
        let (warm, spans) = traced("warm");
        assert_eq!(warm, cold);
        let stage_tids: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "query.stage")
            .map(|s| s.tid)
            .collect();
        assert_eq!(stage_tids.len(), 3);
        let warm_reads = reads(&spans);
        assert_eq!(warm_reads.len(), fetched);
        for (name, tid) in &warm_reads {
            assert_eq!(name, "read.decoded_cache");
            assert_eq!(*tid, stage_tids[0], "a warm window spawned a thread");
        }

        // Evict segment 1 of the first stage's format: its window is now
        // one hit and one miss.
        let sub = fx
            .config
            .subscription(&Consumer {
                op: query.cascade[0],
                accuracy: query.accuracy,
            })
            .unwrap();
        let key = SegmentKey::new("jackson", sub.storage, 1);
        let bytes = fx.store.get(&key).unwrap().unwrap();
        reader.put(&key, &bytes).unwrap();
        let reads_before = fx.store.stats().reads;
        let before = reader.cache_stats();
        let (mixed, spans) = traced("mixed");
        assert_eq!(mixed, cold);
        let mixed_reads = reads(&spans);
        assert_eq!(mixed_reads.len(), fetched, "one span per read, hit or miss");
        let disk_reads: Vec<_> = mixed_reads
            .iter()
            .filter(|(n, _)| n == "read.disk")
            .collect();
        assert_eq!(disk_reads.len(), 1);
        assert_eq!(
            fx.store.stats().reads - reads_before,
            1,
            "the miss goes to the store once"
        );
        let after = reader.cache_stats();
        assert_eq!(
            after.decoded_hits - before.decoded_hits,
            fetched as u64 - 1,
            "every other read is a cache hit, counted once"
        );
        std::fs::remove_dir_all(fx.store.dir()).ok();
    }

    #[test]
    fn queries_over_missing_streams_return_empty_results() {
        let fx = fixture();
        let query = QuerySpec::query_a(0.8);
        let result = fx
            .engine
            .execute("nonexistent", &query, &fx.config, 0, 2)
            .unwrap();
        assert_eq!(result.stages[0].segments_processed, 0);
        assert!(result.positive_frames.is_empty());
        std::fs::remove_dir_all(fx.store.dir()).ok();
    }
}
