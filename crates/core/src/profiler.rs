//! The profiling harness the configuration engine drives (§4.1, §4.2).
//!
//! VStore periodically profiles, per ingested stream, (a) each operator's
//! accuracy and consumption speed as a function of fidelity, and (b) the
//! coding cost (size, encode cost, retrieval speed) of candidate storage
//! formats. Profiling is the dominant configuration overhead, so the
//! profiler:
//!
//! * memoises every profiled `(operator, fidelity)` and storage format — the
//!   memoisation the paper credits with eliminating 92 % of would-be
//!   profiling runs during coalescing;
//! * counts profiling runs and models the wall-clock delay each run would
//!   take on the paper's testbed (sample-clip duration ÷ consumption speed,
//!   plus fixed setup), which is what Figure 14 and §6.4 report.
//!
//! Operator accuracy is *measured* by running the real operator library over
//! a 10-second profiling clip at the candidate fidelity and scoring it
//! against the ingestion-fidelity run; speeds and sizes come from the
//! calibrated cost models (see "Substitutions" in the repository README).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use vstore_codec::frame::{frame_selected, materialize_clip};
use vstore_codec::VideoFrame;
use vstore_datasets::{Dataset, VideoSource};
use vstore_ops::OperatorLibrary;
use vstore_sim::CodingCostModel;
use vstore_types::sync::lock_unpoisoned;
use vstore_types::{ByteSize, Fidelity, FrameSampling, OperatorKind, Result, Speed, StorageFormat};

/// The profile of one `(operator, fidelity)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsumerProfile {
    /// Measured F1 against the ingestion-fidelity run.
    pub accuracy: f64,
    /// Consumption speed (×realtime) from the cost model.
    pub consumption_speed: Speed,
}

/// The profile of one candidate storage format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageProfile {
    /// Storage cost per second of stored video.
    pub bytes_per_video_second: ByteSize,
    /// CPU cores needed to transcode one stream into this format in real
    /// time (the ingestion cost).
    pub encode_cores: f64,
    /// Sequential retrieval (decode) speed.
    pub sequential_retrieval_speed: Speed,
}

/// Counters describing the profiling work performed so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProfilingStats {
    /// Operator profiling runs actually executed (cache misses).
    pub operator_runs: usize,
    /// Operator profiling requests served from the memo table.
    pub operator_cache_hits: usize,
    /// Storage-format profiling runs actually executed.
    pub storage_runs: usize,
    /// Storage-format profiling requests served from the memo table.
    pub storage_cache_hits: usize,
    /// Modelled wall-clock seconds the executed profiling runs would take on
    /// the paper's testbed.
    pub modeled_seconds: f64,
}

impl ProfilingStats {
    /// Total profiling requests (hits + misses) for operators.
    pub fn operator_requests(&self) -> usize {
        self.operator_runs + self.operator_cache_hits
    }

    /// Total profiling requests (hits + misses) for storage formats.
    pub fn storage_requests(&self) -> usize {
        self.storage_runs + self.storage_cache_hits
    }
}

/// Configuration of the profiler.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Length of the profiling clip in frames (the paper uses 10-second
    /// clips: 300 frames).
    pub clip_frames: u32,
    /// First frame of the profiling clip within each stream.
    pub clip_start: u64,
    /// Fixed per-run setup overhead (model loading, pipeline setup) added to
    /// the modelled profiling delay, in seconds.
    pub per_run_overhead_seconds: f64,
    /// Which dataset each operator is profiled on. Operators missing from
    /// the map use `default_dataset`.
    pub operator_datasets: HashMap<OperatorKind, Dataset>,
    /// Dataset used when an operator has no explicit entry, and for coding
    /// profiles.
    pub default_dataset: Dataset,
}

impl ProfilerConfig {
    /// The paper's §6.1 setup: query A operators (Diff, S-NN, NN) profiled on
    /// `jackson`, query B operators (Motion, License, OCR) on `dashcam`,
    /// 10-second clips.
    pub fn paper_evaluation() -> Self {
        let mut operator_datasets = HashMap::new();
        for op in [
            OperatorKind::Diff,
            OperatorKind::SpecializedNN,
            OperatorKind::FullNN,
        ] {
            operator_datasets.insert(op, Dataset::Jackson);
        }
        for op in [
            OperatorKind::Motion,
            OperatorKind::License,
            OperatorKind::Ocr,
        ] {
            operator_datasets.insert(op, Dataset::Dashcam);
        }
        ProfilerConfig {
            clip_frames: 300,
            clip_start: 0,
            per_run_overhead_seconds: 0.8,
            operator_datasets,
            default_dataset: Dataset::Jackson,
        }
    }

    /// A smaller configuration for unit tests (3-second clips).
    pub fn fast_test() -> Self {
        let mut cfg = ProfilerConfig::paper_evaluation();
        cfg.clip_frames = 90;
        cfg
    }

    /// The dataset an operator is profiled on.
    pub fn dataset_for(&self, op: OperatorKind) -> Dataset {
        self.operator_datasets
            .get(&op)
            .copied()
            .unwrap_or(self.default_dataset)
    }
}

#[derive(Default)]
struct ProfilerCaches {
    consumer: HashMap<(OperatorKind, Fidelity), ConsumerProfile>,
    storage: HashMap<StorageFormat, StorageProfile>,
    reference_clips: HashMap<Dataset, Arc<Vec<VideoFrame>>>,
    stats: ProfilingStats,
}

/// The profiling harness.
pub struct Profiler {
    library: OperatorLibrary,
    coding: CodingCostModel,
    config: ProfilerConfig,
    caches: Mutex<ProfilerCaches>,
}

impl Profiler {
    /// A profiler for the paper's evaluation setup.
    pub fn paper_evaluation() -> Self {
        Profiler::new(
            OperatorLibrary::paper_testbed(),
            CodingCostModel::paper_testbed(),
            ProfilerConfig::paper_evaluation(),
        )
    }

    /// A profiler with explicit components.
    pub fn new(library: OperatorLibrary, coding: CodingCostModel, config: ProfilerConfig) -> Self {
        Profiler {
            library,
            coding,
            config,
            caches: Mutex::new(ProfilerCaches::default()),
        }
    }

    /// The operator library used for profiling runs.
    pub fn library(&self) -> &OperatorLibrary {
        &self.library
    }

    /// The coding cost model used for storage/retrieval profiles.
    pub fn coding_model(&self) -> &CodingCostModel {
        &self.coding
    }

    /// The profiler configuration.
    pub fn config(&self) -> &ProfilerConfig {
        &self.config
    }

    /// Counters of the profiling work done so far.
    pub fn stats(&self) -> ProfilingStats {
        lock_unpoisoned(&self.caches).stats
    }

    /// Clear memoisation and counters (used between experiments).
    pub fn reset(&self) {
        let mut caches = lock_unpoisoned(&self.caches);
        caches.consumer.clear();
        caches.storage.clear();
        caches.stats = ProfilingStats::default();
    }

    /// Motion intensity of the content an operator is profiled on.
    pub fn motion_for(&self, op: OperatorKind) -> f64 {
        self.config.dataset_for(op).profile().motion_intensity
    }

    /// Motion intensity of the default (coding) profiling content.
    pub fn coding_motion(&self) -> f64 {
        self.config.default_dataset.profile().motion_intensity
    }

    fn reference_clip(&self, dataset: Dataset) -> Arc<Vec<VideoFrame>> {
        if let Some(clip) = lock_unpoisoned(&self.caches).reference_clips.get(&dataset) {
            return Arc::clone(clip);
        }
        let source = VideoSource::new(dataset);
        let scenes = source.clip(self.config.clip_start, self.config.clip_frames);
        let frames = Arc::new(materialize_clip(&scenes, Fidelity::INGESTION));
        lock_unpoisoned(&self.caches)
            .reference_clips
            .insert(dataset, Arc::clone(&frames));
        frames
    }

    /// Profile one `(operator, fidelity)` pair: run the operator over the
    /// profiling clip at that fidelity and score it against the ingestion
    /// run. Memoised.
    ///
    /// The clip at `fidelity` is the memoised ingestion-fidelity reference
    /// clip, sampled and degraded frame by frame — what materialising the
    /// scenes at `fidelity` yields, without rendering them again.
    pub fn profile_consumer(
        &self,
        op: OperatorKind,
        fidelity: Fidelity,
    ) -> Result<ConsumerProfile> {
        {
            let mut caches = lock_unpoisoned(&self.caches);
            if let Some(profile) = caches.consumer.get(&(op, fidelity)).copied() {
                caches.stats.operator_cache_hits += 1;
                return Ok(profile);
            }
        }
        let reference = self.reference_clip(self.config.dataset_for(op));
        let test_frames = degrade_clip(&reference, fidelity)?;
        let accuracy = self
            .library
            .evaluate_accuracy(op, &reference, &test_frames)
            .f1;
        let consumption_speed = self.library.consumption_speed(op, &fidelity);
        let profile = ConsumerProfile {
            accuracy,
            consumption_speed,
        };

        let clip_seconds = f64::from(self.config.clip_frames) / 30.0;
        let run_seconds = clip_seconds / consumption_speed.factor().max(1e-6)
            + self.config.per_run_overhead_seconds;
        let mut caches = lock_unpoisoned(&self.caches);
        caches.consumer.insert((op, fidelity), profile);
        caches.stats.operator_runs += 1;
        caches.stats.modeled_seconds += run_seconds;
        Ok(profile)
    }

    /// Profile a candidate storage format: size, ingestion cost and
    /// sequential retrieval speed, on the default profiling content.
    /// Memoised.
    pub fn profile_storage(&self, format: StorageFormat) -> StorageProfile {
        {
            let mut caches = lock_unpoisoned(&self.caches);
            if let Some(profile) = caches.storage.get(&format).copied() {
                caches.stats.storage_cache_hits += 1;
                return profile;
            }
        }
        let motion = self.coding_motion();
        let profile = StorageProfile {
            bytes_per_video_second: self.coding.bytes_per_video_second(&format, motion),
            encode_cores: self.coding.encode_cores_for_realtime(&format, motion),
            sequential_retrieval_speed: self.coding.sequential_decode_speed(&format, motion),
        };
        let clip_seconds = f64::from(self.config.clip_frames) / 30.0;
        // A coding profile transcodes and decodes the sample clip once.
        let encode_seconds = profile.encode_cores * clip_seconds / 8.0; // 8 encoder threads
        let decode_seconds = clip_seconds / profile.sequential_retrieval_speed.factor().max(1e-6);
        let mut caches = lock_unpoisoned(&self.caches);
        caches.storage.insert(format, profile);
        caches.stats.storage_runs += 1;
        caches.stats.modeled_seconds += encode_seconds + decode_seconds + 0.05;
        profile
    }

    /// Retrieval speed of a storage format when serving a consumer that
    /// samples at `consumer_sampling` (GOP skipping / sampled RAW reads).
    /// Derived from the cost model; not counted as a separate profiling run
    /// because it reuses the storage profile's decode measurements.
    pub fn retrieval_speed(
        &self,
        format: &StorageFormat,
        consumer_sampling: FrameSampling,
    ) -> Speed {
        self.coding
            .retrieval_speed(format, self.coding_motion(), consumer_sampling)
    }

    /// The number of fidelity options in the full space — what exhaustive
    /// profiling of one operator would cost (Figure 14's baseline).
    pub fn exhaustive_runs_per_operator(&self) -> usize {
        vstore_types::FidelitySpace::full().len()
    }
}

/// The frames of `reference` that `fidelity` samples, degraded to it.
fn degrade_clip(reference: &[VideoFrame], fidelity: Fidelity) -> Result<Vec<VideoFrame>> {
    reference
        .iter()
        .filter(|frame| frame_selected(frame.source_index, fidelity))
        .map(|frame| frame.degrade_to(fidelity))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstore_types::{CodingOption, CropFactor, ImageQuality, Resolution};

    fn profiler() -> Profiler {
        Profiler::new(
            OperatorLibrary::paper_testbed(),
            CodingCostModel::paper_testbed(),
            ProfilerConfig::fast_test(),
        )
    }

    #[test]
    fn consumer_profile_accuracy_bounds_and_memoisation() {
        let p = profiler();
        let fid = Fidelity::new(
            ImageQuality::Good,
            CropFactor::C100,
            Resolution::R400,
            FrameSampling::S1_2,
        );
        let first = p.profile_consumer(OperatorKind::FullNN, fid).unwrap();
        assert!(first.accuracy > 0.0 && first.accuracy <= 1.0);
        assert!(first.consumption_speed.factor() > 0.0);
        assert_eq!(p.stats().operator_runs, 1);
        // Second request is a cache hit and returns the identical profile.
        let second = p.profile_consumer(OperatorKind::FullNN, fid).unwrap();
        assert_eq!(first, second);
        let stats = p.stats();
        assert_eq!(stats.operator_runs, 1);
        assert_eq!(stats.operator_cache_hits, 1);
        assert_eq!(stats.operator_requests(), 2);
        assert!(stats.modeled_seconds > 0.0);
    }

    #[test]
    fn ingestion_fidelity_profiles_at_accuracy_one() {
        let p = profiler();
        for op in [OperatorKind::Motion, OperatorKind::License] {
            let profile = p.profile_consumer(op, Fidelity::INGESTION).unwrap();
            assert_eq!(profile.accuracy, 1.0, "{op:?}");
        }
    }

    #[test]
    fn richer_fidelity_is_slower_to_consume() {
        let p = profiler();
        let rich = p
            .profile_consumer(OperatorKind::License, Fidelity::INGESTION)
            .unwrap();
        let poor = p
            .profile_consumer(
                OperatorKind::License,
                Fidelity::new(
                    ImageQuality::Good,
                    CropFactor::C100,
                    Resolution::R200,
                    FrameSampling::S1_30,
                ),
            )
            .unwrap();
        assert!(poor.consumption_speed.factor() > rich.consumption_speed.factor());
        assert!(poor.accuracy <= rich.accuracy + 1e-9);
    }

    #[test]
    fn storage_profile_memoises_and_orders_sizes() {
        let p = profiler();
        let golden = StorageFormat::new(Fidelity::INGESTION, CodingOption::SMALLEST);
        let small = StorageFormat::new(
            Fidelity::new(
                ImageQuality::Bad,
                CropFactor::C100,
                Resolution::R200,
                FrameSampling::S1_6,
            ),
            CodingOption::SMALLEST,
        );
        let g = p.profile_storage(golden);
        let s = p.profile_storage(small);
        assert!(g.bytes_per_video_second > s.bytes_per_video_second);
        assert!(g.encode_cores > s.encode_cores);
        assert!(g.sequential_retrieval_speed.factor() < s.sequential_retrieval_speed.factor());
        let _ = p.profile_storage(golden);
        let stats = p.stats();
        assert_eq!(stats.storage_runs, 2);
        assert_eq!(stats.storage_cache_hits, 1);
    }

    #[test]
    fn retrieval_speed_improves_with_sparse_consumers() {
        let p = profiler();
        let format = StorageFormat::new(
            Fidelity::new(
                ImageQuality::Best,
                CropFactor::C100,
                Resolution::R540,
                FrameSampling::Full,
            ),
            CodingOption::Encoded {
                keyframe_interval: vstore_types::KeyframeInterval::K10,
                speed: vstore_types::SpeedStep::Fast,
            },
        );
        let dense = p.retrieval_speed(&format, FrameSampling::Full);
        let sparse = p.retrieval_speed(&format, FrameSampling::S1_30);
        assert!(sparse.factor() > dense.factor());
    }

    #[test]
    fn reset_clears_counters() {
        let p = profiler();
        p.profile_consumer(OperatorKind::Diff, Fidelity::INGESTION)
            .unwrap();
        assert!(p.stats().operator_runs > 0);
        p.reset();
        assert_eq!(p.stats(), ProfilingStats::default());
    }

    #[test]
    fn exhaustive_baseline_matches_space_size() {
        assert_eq!(profiler().exhaustive_runs_per_operator(), 600);
    }

    #[test]
    fn paper_config_maps_queries_to_datasets() {
        let cfg = ProfilerConfig::paper_evaluation();
        assert_eq!(cfg.dataset_for(OperatorKind::FullNN), Dataset::Jackson);
        assert_eq!(cfg.dataset_for(OperatorKind::Ocr), Dataset::Dashcam);
        assert_eq!(cfg.dataset_for(OperatorKind::Color), Dataset::Jackson);
        assert_eq!(cfg.clip_frames, 300);
    }

    /// Degrading the ingestion-fidelity reference clip yields exactly the
    /// clip materialised from the scenes, for every fidelity of the full
    /// space on every dataset: profiling from the memoised reference
    /// measures what rendering the scenes again would. (A 31-frame clip
    /// keeps two frames at the sparsest sampling.)
    #[test]
    fn degraded_reference_equals_the_materialised_clip() {
        for dataset in Dataset::ALL {
            let scenes = VideoSource::new(dataset).clip(0, 31);
            let reference = materialize_clip(&scenes, Fidelity::INGESTION);
            for fidelity in vstore_types::FidelitySpace::full().iter() {
                assert_eq!(
                    degrade_clip(&reference, fidelity).unwrap(),
                    materialize_clip(&scenes, fidelity),
                    "{dataset:?} {fidelity}"
                );
            }
        }
    }

    /// A reference clip poorer than the fidelity asked for is an error, not
    /// a profile.
    #[test]
    fn degrading_to_a_richer_fidelity_is_an_error() {
        let scenes = VideoSource::new(Dataset::Jackson).clip(0, 4);
        let poor = Fidelity::new(
            ImageQuality::Bad,
            CropFactor::C75,
            Resolution::R200,
            FrameSampling::Full,
        );
        let clip = materialize_clip(&scenes, poor);
        assert!(degrade_clip(&clip, Fidelity::INGESTION).is_err());
    }
}
