//! The ingestion pipeline implementation.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use vstore_codec::Transcoder;
use vstore_datasets::{SceneFrame, VideoSource};
use vstore_storage::{SegmentKey, SegmentReader, SegmentStore};
use vstore_types::sync::lock_unpoisoned;
use vstore_types::{
    scoped_map, ByteSize, Configuration, CoreSeconds, FormatId, Result, StorageFormat, VStoreError,
    VideoSeconds,
};

/// The report of one ingestion run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// Video content ingested.
    pub video: VideoSeconds,
    /// Segments written (across all storage formats).
    pub segments_written: usize,
    /// Transcoding work spent.
    pub transcode_work: CoreSeconds,
    /// Bytes written per storage format, as predicted by the calibrated cost
    /// model (the figure experiments report).
    pub modeled_bytes: BTreeMap<FormatId, ByteSize>,
    /// Bytes actually written to the segment store.
    pub actual_bytes: ByteSize,
}

/// The report of one erosion step: what actually happened to the planned
/// fraction of segments. With no cold tier attached every planned segment
/// is **deleted** (the pre-tiering behaviour); with one, every planned
/// segment is **demoted** to cold storage instead — reversible by a
/// read-through promotion. The golden format never appears in either
/// column: it is never eroded and never leaves the hot tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErodeReport {
    /// The video age (days) whose erosion step was applied.
    pub age_days: u32,
    /// Segments deleted outright (no cold tier, or tiering disabled).
    pub segments_deleted: usize,
    /// Bytes deleted outright.
    pub deleted_bytes: ByteSize,
    /// Segments demoted to the cold tier instead of deleted.
    pub segments_demoted: usize,
    /// Bytes demoted to the cold tier.
    pub demoted_bytes: ByteSize,
}

impl ErodeReport {
    /// Segments the step removed from the hot store, deleted and demoted
    /// alike.
    #[must_use]
    pub fn total_segments(&self) -> usize {
        self.segments_deleted + self.segments_demoted
    }
}

impl std::fmt::Display for ErodeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "erode @{}d: {} deleted ({}), {} demoted ({})",
            self.age_days,
            self.segments_deleted,
            self.deleted_bytes,
            self.segments_demoted,
            self.demoted_bytes,
        )
    }
}

impl IngestReport {
    /// Total modelled bytes across all storage formats.
    pub fn total_modeled_bytes(&self) -> ByteSize {
        self.modeled_bytes.values().copied().sum()
    }

    /// Average CPU cores kept busy transcoding, assuming ingestion keeps up
    /// with real time (the paper's "CPU utilisation" of Figure 11(c): 100 %
    /// = one core).
    pub fn transcode_cores(&self) -> f64 {
        self.transcode_work
            .cores_over(self.video.seconds().max(1e-9))
    }

    /// Storage growth rate in GB per day of continuous ingestion
    /// (Figure 11(b)).
    pub fn gb_per_day(&self) -> f64 {
        let per_second = self.total_modeled_bytes().bytes() as f64 / self.video.seconds().max(1e-9);
        per_second * 86_400.0 / 1e9
    }
}

/// One unit of ingest work: transcode one segment into one storage format
/// and persist it. Scene frames are generated once per segment and shared
/// across its formats.
struct IngestTask {
    segment: u64,
    id: FormatId,
    format: StorageFormat,
    scenes: Arc<Vec<SceneFrame>>,
}

/// The ingestion pipeline: transcodes incoming segments into every storage
/// format of the configuration and persists them.
///
/// The per-segment transcode work for the K storage formats is fanned
/// across a scoped worker pool of up to [`workers`](Self::with_workers)
/// threads, further capped by the ingestion CPU budget when one is set —
/// Figure 11(c)-style CPU accounting stays truthful because the pipeline
/// never runs more concurrent transcodes than the budget pays for. Reports
/// are merged in deterministic `(segment, format)` order, so they are
/// byte-identical to the sequential (`workers = 1`) path.
///
/// All writes (puts and erosion deletes) flow through a [`SegmentReader`]
/// so that, when the deployment shares a caching reader between ingestion
/// and queries, every overwrite and erosion invalidates the cached entries
/// for the key — an erode-then-read can never serve stale bytes.
pub struct IngestionPipeline {
    reader: Arc<SegmentReader>,
    transcoder: Transcoder,
    workers: usize,
    budget_cores: Option<f64>,
    /// Scene buffers of finished ingests, rendered into again by the next
    /// ones. Each ingest returns one, so the list never holds more buffers
    /// than ingests that ran at once.
    spare_scenes: Mutex<Vec<Vec<SceneFrame>>>,
}

impl IngestionPipeline {
    /// A sequential pipeline (one worker) writing through the given
    /// (possibly caching, possibly shared) [`SegmentReader`], so puts and
    /// erosion deletes invalidate its cache. Pass
    /// [`SegmentReader::disabled`] when nothing reads through a cache.
    pub fn new(reader: Arc<SegmentReader>, transcoder: Transcoder) -> Self {
        IngestionPipeline {
            reader,
            transcoder,
            workers: 1,
            budget_cores: None,
            spare_scenes: Mutex::new(Vec::new()),
        }
    }

    /// Fan transcode work across up to `workers` threads (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Cap parallelism by an ingestion CPU budget in cores (§4.3): the
    /// pipeline never runs more concurrent transcodes than `cores` rounded
    /// up. `None` leaves only the worker cap.
    pub fn with_ingest_budget(mut self, cores: Option<f64>) -> Self {
        self.budget_cores = cores;
        self
    }

    /// The configured worker cap.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The parallelism actually used: the worker cap, further limited by the
    /// ingestion CPU budget when one is set.
    pub fn effective_workers(&self) -> usize {
        let budget_cap = match self.budget_cores {
            Some(cores) if cores > 0.0 => (cores.ceil() as usize).max(1),
            Some(_) => 1,
            None => usize::MAX,
        };
        self.workers.min(budget_cap).max(1)
    }

    /// The segment store being written to.
    pub fn store(&self) -> &Arc<SegmentStore> {
        self.reader.store()
    }

    /// The storage formats of a configuration, keyed by id.
    fn formats_of(config: &Configuration) -> Vec<(FormatId, StorageFormat)> {
        config
            .storage_formats
            .iter()
            .map(|(id, sf)| (*id, *sf))
            .collect()
    }

    /// Ingest one 8-second segment of a stream into every storage format of
    /// the configuration.
    pub fn ingest_segment(
        &self,
        source: &VideoSource,
        segment_index: u64,
        config: &Configuration,
    ) -> Result<IngestReport> {
        self.ingest_segments(source, segment_index, 1, config)
    }

    /// Ingest a contiguous range of segments.
    ///
    /// Every `(segment, storage format)` transcode is one task on the worker
    /// pool; the report is filled on the calling thread in
    /// `(segment, format)` order, so the result is identical to the
    /// sequential path regardless of parallelism.
    pub fn ingest_segments(
        &self,
        source: &VideoSource,
        first_segment: u64,
        count: u64,
        config: &Configuration,
    ) -> Result<IngestReport> {
        let formats = Self::formats_of(config);
        if formats.is_empty() {
            return Err(VStoreError::InvalidState(
                "configuration has no storage formats to ingest into".into(),
            ));
        }
        if first_segment.checked_add(count).is_none() {
            return Err(VStoreError::invalid_argument(
                "ingest segment range overflows u64",
            ));
        }
        let motion = source.motion_intensity();
        let stream = source.name().to_owned();
        let workers = self.effective_workers();
        let trace = vstore_obs::current();

        // Fan (segment, format) tasks across the pool one window (of one
        // task per worker) at a time: memory stays bounded by the in-flight
        // window — scenes are generated per segment and shared across its
        // formats via `Arc` — and report fields and errors are applied in
        // `(segment, format)` order after each window. With one worker the
        // window is a single task, reproducing the sequential path's
        // accounting and error order exactly. A segment's scene buffer is
        // rendered into again once no task holds it.
        let mut report = IngestReport::default();
        let mut pending: Vec<IngestTask> = Vec::with_capacity(workers);
        let mut in_flight: Vec<Arc<Vec<SceneFrame>>> = Vec::new();
        let mut spare: Vec<Vec<SceneFrame>> = Vec::new();
        for segment in first_segment..first_segment + count {
            reclaim(&mut in_flight, &mut spare);
            let mut buffer = spare
                .pop()
                .or_else(|| lock_unpoisoned(&self.spare_scenes).pop())
                .unwrap_or_default();
            let scene_started = std::time::Instant::now();
            source.segment_into(segment, &mut buffer);
            trace.record_since("ingest.scene", scene_started);
            let scenes = Arc::new(buffer);
            report.video += VideoSeconds(scenes.len() as f64 / 30.0);
            for (id, format) in &formats {
                pending.push(IngestTask {
                    segment,
                    id: *id,
                    format: *format,
                    scenes: Arc::clone(&scenes),
                });
                if pending.len() >= workers {
                    self.run_ingest_window(
                        std::mem::take(&mut pending),
                        &stream,
                        motion,
                        &mut report,
                    )?;
                }
            }
            in_flight.push(scenes);
        }
        self.run_ingest_window(pending, &stream, motion, &mut report)?;
        reclaim(&mut in_flight, &mut spare);
        if let Some(buffer) = spare.pop() {
            lock_unpoisoned(&self.spare_scenes).push(buffer);
        }
        Ok(report)
    }

    /// Transcode and persist one window of tasks in parallel, then apply
    /// report accounting in task order.
    fn run_ingest_window(
        &self,
        window: Vec<IngestTask>,
        stream: &str,
        motion: f64,
        report: &mut IngestReport,
    ) -> Result<()> {
        struct TaskOutput {
            id: FormatId,
            encode_core_seconds: f64,
            modeled_bytes: ByteSize,
            actual_bytes: ByteSize,
        }
        // Captured explicitly: the pool threads below have their own TLS,
        // so the caller's installed trace context does not propagate.
        let trace = vstore_obs::current();
        let outputs = scoped_map(
            window,
            self.effective_workers(),
            |_, task| -> Result<TaskOutput> {
                let transcode_started = std::time::Instant::now();
                let out = self
                    .transcoder
                    .transcode_segment(&task.scenes, &task.format, motion)?;
                trace.record_since("ingest.transcode", transcode_started);
                let bytes = out.data.to_bytes();
                let key = SegmentKey::new(stream, task.id, task.segment);
                let put_started = std::time::Instant::now();
                self.reader.put(&key, &bytes)?;
                // Persist the compressed-domain change scores next to the
                // segment so the query planner can skip static segments
                // without fetching them (see `vstore_codec::meta`).
                self.reader
                    .store()
                    .put_segment_meta(&key, &out.meta.to_bytes())?;
                trace.record_since("ingest.put", put_started);
                Ok(TaskOutput {
                    id: task.id,
                    encode_core_seconds: out.encode_core_seconds,
                    modeled_bytes: out.modeled_bytes,
                    actual_bytes: ByteSize(bytes.len() as u64),
                })
            },
        );
        // The first error in task order fails the ingest; the report of a
        // failed ingest is never returned, so nothing after it is counted.
        for output in outputs {
            let out = output?;
            report.segments_written += 1;
            report.transcode_work += CoreSeconds(out.encode_core_seconds);
            *report.modeled_bytes.entry(out.id).or_insert(ByteSize::ZERO) += out.modeled_bytes;
            report.actual_bytes += out.actual_bytes;
        }
        Ok(())
    }

    /// Apply one age step of the erosion plan to a stream, oldest segments
    /// first, from each non-golden storage format.
    ///
    /// A step's fraction is cumulative, and counts against the golden
    /// format, which is never eroded and so holds every segment ingested:
    /// at a step of fraction f, `floor(golden × f)` segments of the format
    /// are out of the hot store. The call removes only the difference from
    /// what is out already, so repeating an age removes nothing.
    ///
    /// With no cold tier attached to the reader, the planned fraction is
    /// **deleted** — the pre-tiering behaviour, byte for byte. With a
    /// [`TierEngine`](vstore_storage::TierEngine) attached, the same
    /// segments are **demoted** instead: moved to the cold store on this
    /// thread and up to [`effective_workers`](Self::effective_workers) − 1
    /// more, each cold object published before its hot delete; this call
    /// returns once every planned segment has been tried. Either way the
    /// golden format is untouched — it is never eroded and never leaves the
    /// hot tier.
    pub fn apply_erosion(
        &self,
        stream: &str,
        config: &Configuration,
        age_days: u32,
    ) -> Result<ErodeReport> {
        let mut report = ErodeReport {
            age_days,
            ..ErodeReport::default()
        };
        let step = match config.erosion.step(age_days) {
            Some(step) => step.clone(),
            None => return Ok(report),
        };
        let tier = self.reader.tier();
        let golden = self.store().segments_of(stream, FormatId::GOLDEN).len();
        let mut demotions = Vec::new();
        for (id, fraction) in &step.deleted {
            if id.is_golden() {
                continue;
            }
            let keys = self.store().segments_of(stream, *id);
            let out = golden.saturating_sub(keys.len());
            let planned = ((golden as f64 * fraction.value()).floor() as usize).saturating_sub(out);
            for key in keys.iter().take(planned) {
                match &tier {
                    Some(_) => demotions.push(key.clone()),
                    None => {
                        let bytes = self.store().value_len(key).unwrap_or(0);
                        // Through the reader: erosion must drop cached
                        // entries too. The sidecar dies with the segment
                        // (demotion, by contrast, keeps it — the segment
                        // still exists, just cold).
                        self.reader.delete(key)?;
                        self.store().delete_segment_meta(key)?;
                        report.segments_deleted += 1;
                        report.deleted_bytes += ByteSize(bytes);
                    }
                }
            }
        }
        if let Some(engine) = tier {
            let batch = engine.demote_batch(&self.reader, demotions, self.effective_workers())?;
            report.segments_demoted = batch.segments;
            report.demoted_bytes = ByteSize(batch.bytes);
        }
        Ok(report)
    }
}

/// Move the scene buffers no task holds any more from `in_flight` to
/// `spare`.
fn reclaim(in_flight: &mut Vec<Arc<Vec<SceneFrame>>>, spare: &mut Vec<Vec<SceneFrame>>) {
    for scenes in std::mem::take(in_flight) {
        match Arc::try_unwrap(scenes) {
            Ok(buffer) => spare.push(buffer),
            Err(shared) => in_flight.push(shared),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    //! Fixtures shared by the pipeline and live-ingest unit tests.
    use std::collections::BTreeMap as Map;
    use vstore_types::{
        CodingOption, Configuration, Consumer, ConsumptionFormat, ErosionPlan, Fidelity, FormatId,
        OperatorKind, Speed, StorageFormat, Subscription,
    };

    /// A golden (smallest-coded ingestion fidelity) format plus one raw
    /// 200p full-sampling format, with a single FullNN subscription and no
    /// erosion — the canonical two-format ingest configuration.
    pub(crate) fn two_format_config() -> Configuration {
        let golden = StorageFormat::new(Fidelity::INGESTION, CodingOption::SMALLEST);
        let raw = StorageFormat::new(
            Fidelity::new(
                vstore_types::ImageQuality::Best,
                vstore_types::CropFactor::C100,
                vstore_types::Resolution::R200,
                vstore_types::FrameSampling::Full,
            ),
            CodingOption::Raw,
        );
        let mut storage_formats = Map::new();
        storage_formats.insert(FormatId::GOLDEN, golden);
        storage_formats.insert(FormatId(1), raw);
        let mut retrieval_speeds = Map::new();
        retrieval_speeds.insert(FormatId::GOLDEN, Speed(23.0));
        retrieval_speeds.insert(FormatId(1), Speed(1100.0));
        Configuration {
            storage_formats,
            retrieval_speeds,
            subscriptions: vec![Subscription {
                consumer: Consumer::new(OperatorKind::FullNN, 0.9),
                consumption: ConsumptionFormat::new(Fidelity::INGESTION),
                consumption_speed: Speed(4.0),
                expected_accuracy: 1.0,
                storage: FormatId::GOLDEN,
                retrieval_speed: Speed(23.0),
            }],
            erosion: ErosionPlan::no_erosion(10, 0.1),
        }
    }
}

#[cfg(test)]
mod tests {
    #![expect(clippy::disallowed_methods, reason = "removes its scratch stores")]
    use super::tests_support::two_format_config;
    use super::*;
    use std::collections::BTreeMap as Map;
    use vstore_datasets::Dataset;
    use vstore_types::{ErosionPlan, ErosionStep, Fraction};

    fn pipeline(tag: &str) -> IngestionPipeline {
        IngestionPipeline::new(
            Arc::new(SegmentReader::disabled(Arc::new(
                SegmentStore::open_temp(tag).unwrap(),
            ))),
            Transcoder::default(),
        )
    }

    #[test]
    fn ingest_writes_one_segment_per_format() {
        let p = pipeline("ingest-basic");
        let source = VideoSource::new(Dataset::Jackson);
        let config = two_format_config();
        let report = p.ingest_segment(&source, 0, &config).unwrap();
        assert_eq!(report.segments_written, 2);
        assert!((report.video.seconds() - 8.0).abs() < 1e-9);
        assert!(
            report.transcode_cores() > 0.5,
            "cores {}",
            report.transcode_cores()
        );
        assert!(report.gb_per_day() > 1.0);
        assert_eq!(p.store().len(), 2);
        assert!(p
            .store()
            .contains(&SegmentKey::new("jackson", FormatId::GOLDEN, 0)));
        assert!(p
            .store()
            .contains(&SegmentKey::new("jackson", FormatId(1), 0)));
        std::fs::remove_dir_all(p.store().dir()).ok();
    }

    #[test]
    fn ingest_multiple_segments_accumulates() {
        let p = pipeline("ingest-multi");
        let source = VideoSource::new(Dataset::Park);
        let config = two_format_config();
        let report = p.ingest_segments(&source, 0, 3, &config).unwrap();
        assert_eq!(report.segments_written, 6);
        assert!((report.video.seconds() - 24.0).abs() < 1e-9);
        assert_eq!(p.store().segments_of("park", FormatId::GOLDEN).len(), 3);
        assert!(report.transcode_work.0 > 0.0);
        assert!(report.actual_bytes.bytes() > 0);
        std::fs::remove_dir_all(p.store().dir()).ok();
    }

    #[test]
    fn stored_bytes_round_trip_through_the_store() {
        let p = pipeline("ingest-roundtrip");
        let source = VideoSource::new(Dataset::Dashcam);
        let config = two_format_config();
        p.ingest_segment(&source, 2, &config).unwrap();
        let key = SegmentKey::new("dashcam", FormatId(1), 2);
        let bytes = p.store().get(&key).unwrap().unwrap();
        let segment = vstore_codec::SegmentData::from_bytes(&bytes).unwrap();
        assert_eq!(segment.frame_count(), 240);
        assert!(segment.storage_format().coding.is_raw());
        std::fs::remove_dir_all(p.store().dir()).ok();
    }

    #[test]
    fn erosion_deletes_planned_fraction_but_never_golden() {
        let p = pipeline("ingest-erosion");
        let source = VideoSource::new(Dataset::Airport);
        let mut config = two_format_config();
        p.ingest_segments(&source, 0, 4, &config).unwrap();
        // Plan: at age 3 days, half of SF1 is gone.
        let mut deleted = Map::new();
        deleted.insert(FormatId(1), Fraction::new(0.5));
        config.erosion.steps[2] = ErosionStep {
            age_days: 3,
            deleted,
            overall_relative_speed: 0.8,
        };
        let report = p.apply_erosion("airport", &config, 3).unwrap();
        assert_eq!(report.segments_deleted, 2);
        assert_eq!(report.total_segments(), 2);
        assert!(report.deleted_bytes.bytes() > 0, "{report}");
        assert_eq!(
            report.segments_demoted, 0,
            "no cold tier: delete, not demote"
        );
        assert_eq!(report.demoted_bytes, ByteSize::ZERO);
        assert_eq!(p.store().segments_of("airport", FormatId(1)).len(), 2);
        assert_eq!(p.store().segments_of("airport", FormatId::GOLDEN).len(), 4);
        // Ages without planned deletion are a no-op.
        assert_eq!(
            p.apply_erosion("airport", &config, 1).unwrap(),
            ErodeReport {
                age_days: 1,
                ..ErodeReport::default()
            }
        );
        std::fs::remove_dir_all(p.store().dir()).ok();
    }

    /// The tiering acceptance path at the pipeline level: with a cold tier
    /// attached, the same erosion step demotes instead of deleting, the
    /// golden format never leaves the hot tier, and the report says which
    /// happened.
    #[test]
    fn erosion_with_cold_tier_demotes_instead_of_deleting() {
        use vstore_storage::{ColdStore, MemBackend, TierEngine, TierOptions};

        let store = Arc::new(SegmentStore::open_mem_with_shards(4).unwrap());
        let reader = Arc::new(SegmentReader::new(Arc::clone(&store), 0, 0));
        let cold = ColdStore::open(Arc::new(MemBackend::new())).unwrap();
        let engine = TierEngine::new(store, cold, TierOptions::cold_mem());
        reader.attach_tier(&engine);
        let cold_segments_of = |stream: &str, format: FormatId| {
            let mut keys = engine.cold_store().keys();
            keys.retain(|k| k.stream == stream && k.format == format);
            keys
        };
        let p = IngestionPipeline::new(Arc::clone(&reader), Transcoder::default());

        let source = VideoSource::new(Dataset::Airport);
        let mut config = two_format_config();
        p.ingest_segments(&source, 0, 4, &config).unwrap();
        let mut deleted = Map::new();
        deleted.insert(FormatId(1), Fraction::new(0.5));
        config.erosion.steps[2] = ErosionStep {
            age_days: 3,
            deleted,
            overall_relative_speed: 0.8,
        };
        let report = p.apply_erosion("airport", &config, 3).unwrap();
        assert_eq!(report.segments_demoted, 2, "{report}");
        assert!(report.demoted_bytes.bytes() > 0);
        assert_eq!(report.segments_deleted, 0, "demote, not delete");
        assert_eq!(report.deleted_bytes, ByteSize::ZERO);
        // The demoted segments are out of the hot store but intact cold;
        // golden is untouched — it never leaves the hot tier.
        assert_eq!(p.store().segments_of("airport", FormatId(1)).len(), 2);
        assert_eq!(p.store().segments_of("airport", FormatId::GOLDEN).len(), 4);
        assert_eq!(cold_segments_of("airport", FormatId(1)).len(), 2);
        assert!(cold_segments_of("airport", FormatId::GOLDEN).is_empty());
        // A read of a demoted segment promotes it back, byte-identical.
        let demoted_key = &cold_segments_of("airport", FormatId(1))[0];
        let (bytes, source_tier) = reader.get(demoted_key).unwrap().unwrap();
        assert_eq!(source_tier, vstore_storage::ReadSource::Cold);
        assert!(p.store().contains(demoted_key));
        let (again, _) = reader.get(demoted_key).unwrap().unwrap();
        assert_eq!(bytes, again, "promotion must be byte-identical");
    }

    /// The plan's fractions are cumulative: an age removes only what its
    /// fraction of the golden count adds to what earlier ages removed, so
    /// a repeated age removes nothing, whether erosion deletes or demotes.
    #[test]
    fn erosion_follows_the_cumulative_plan_and_repeats_safely() {
        use vstore_storage::{ColdStore, MemBackend, TierEngine, TierOptions};

        let source = VideoSource::new(Dataset::Airport);
        let mut config = two_format_config();
        for (age_days, fraction) in [(1, 0.5), (2, 0.5), (3, 0.6)] {
            config.erosion.steps[age_days as usize - 1] = ErosionStep {
                age_days,
                deleted: Map::from([(FormatId(1), Fraction::new(fraction))]),
                overall_relative_speed: 0.8,
            };
        }
        for tiered in [false, true] {
            let store = Arc::new(SegmentStore::open_mem_with_shards(2).unwrap());
            let reader = Arc::new(SegmentReader::new(Arc::clone(&store), 0, 0));
            let engine = tiered.then(|| {
                let cold = ColdStore::open(Arc::new(MemBackend::new())).unwrap();
                let engine = TierEngine::new(Arc::clone(&store), cold, TierOptions::cold_mem());
                reader.attach_tier(&engine);
                engine
            });
            let p = IngestionPipeline::new(reader, Transcoder::default());
            p.ingest_segments(&source, 0, 20, &config).unwrap();
            for (age_days, hot, cold) in [(1, 10, 10), (2, 10, 10), (2, 10, 10), (3, 8, 12)] {
                p.apply_erosion("airport", &config, age_days).unwrap();
                let at = format!("age {age_days}, tiered {tiered}");
                assert_eq!(
                    p.store().segments_of("airport", FormatId(1)).len(),
                    hot,
                    "{at}"
                );
                if let Some(engine) = &engine {
                    assert_eq!(engine.cold_store().keys().len(), cold, "{at}");
                }
            }
            assert_eq!(p.store().segments_of("airport", FormatId::GOLDEN).len(), 20);
        }
    }

    /// Ingests render into the scene buffers earlier ingests left behind,
    /// and write what fresh buffers would; the free list keeps one buffer
    /// per ingest that ran at once, here one.
    #[test]
    fn scene_buffers_are_reused_without_changing_a_byte() {
        let reused = pipeline("ingest-reuse").with_workers(2);
        let fresh = pipeline("ingest-fresh");
        let source = VideoSource::new(Dataset::Dashcam);
        let config = two_format_config();
        reused.ingest_segments(&source, 0, 3, &config).unwrap();
        assert_eq!(lock_unpoisoned(&reused.spare_scenes).len(), 1);
        reused.ingest_segments(&source, 5, 2, &config).unwrap();
        assert_eq!(lock_unpoisoned(&reused.spare_scenes).len(), 1);
        fresh.ingest_segments(&source, 5, 2, &config).unwrap();
        for segment in [5, 6] {
            for id in [FormatId::GOLDEN, FormatId(1)] {
                let key = SegmentKey::new("dashcam", id, segment);
                assert_eq!(
                    reused.store().get(&key).unwrap(),
                    fresh.store().get(&key).unwrap()
                );
                assert_eq!(
                    reused.store().get_segment_meta(&key).unwrap(),
                    fresh.store().get_segment_meta(&key).unwrap()
                );
            }
        }
        std::fs::remove_dir_all(reused.store().dir()).ok();
        std::fs::remove_dir_all(fresh.store().dir()).ok();
    }

    #[test]
    fn empty_configuration_is_rejected() {
        let p = pipeline("ingest-empty");
        let source = VideoSource::new(Dataset::Tucson);
        let config = Configuration {
            storage_formats: Map::new(),
            retrieval_speeds: Map::new(),
            subscriptions: vec![],
            erosion: ErosionPlan::no_erosion(1, 0.1),
        };
        assert!(p.ingest_segment(&source, 0, &config).is_err());
        std::fs::remove_dir_all(p.store().dir()).ok();
    }
}
