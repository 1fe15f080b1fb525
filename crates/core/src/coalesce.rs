//! Configuring storage formats (§4.3): coalesce the derived consumption
//! formats into a small set of on-disk formats.
//!
//! Starting from one storage format per unique consumption format plus the
//! *golden* format (knob-wise maximum fidelity, smallest coding), the
//! coalescer runs rounds of pairwise merging:
//!
//! * **heuristic selection** (the paper's choice) first harvests "free"
//!   merges that do not increase storage cost, then — if the ingestion
//!   budget is still exceeded — keeps merging the pair with the smallest
//!   storage increase;
//! * **distance-based selection** (the §6.4 alternative) merges the pair of
//!   formats with the smallest normalised Euclidean knob distance.
//!
//! Whenever two formats merge, the merged fidelity is the knob-wise maximum
//! (satisfiable fidelity, R1) and the coding option is re-chosen as the
//! smallest-storage option whose retrieval speed still exceeds every
//! subscriber's consumption speed (adequate retrieval, R2) — falling back to
//! the RAW bypass when no encoded option is fast enough.

use crate::cf_search::DerivedCf;
use crate::profiler::Profiler;
use vstore_types::{
    ByteSize, CodingOption, CodingSpace, Fidelity, Result, Speed, StorageFormat, VStoreError,
};

/// How the coalescing pair is selected each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoalesceStrategy {
    /// Free merges first, then smallest-storage-increase merges (§4.3).
    Heuristic,
    /// Merge the pair with the smallest normalised knob distance (§6.4).
    DistanceBased,
}

/// One derived storage format with its subscribers.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedSf {
    /// The storage format.
    pub format: StorageFormat,
    /// Indices into the consumption-format list of the consumers this format
    /// serves.
    pub subscribers: Vec<usize>,
    /// Storage cost per video-second on the profiling content.
    pub bytes_per_video_second: ByteSize,
    /// Ingestion (transcode) cost in cores for real-time ingest.
    pub encode_cores: f64,
    /// Sequential retrieval speed (the Table 3(b) figure).
    pub sequential_retrieval_speed: Speed,
    /// `true` for the golden format (never eroded, serves as the ultimate
    /// fallback).
    pub is_golden: bool,
}

/// The outcome of coalescing.
#[derive(Debug, Clone, PartialEq)]
pub struct CoalesceResult {
    /// Derived storage formats; index 0 is the golden format.
    pub formats: Vec<DerivedSf>,
    /// Number of pairwise merges performed.
    pub rounds: usize,
    /// Whether the final ingestion cost respects the budget (always `true`
    /// when no budget was given).
    pub within_ingest_budget: bool,
    /// Total storage cost per video-second across all formats.
    pub total_bytes_per_video_second: ByteSize,
    /// Total ingestion cost in cores.
    pub total_ingest_cores: f64,
}

impl CoalesceResult {
    /// The storage format a consumption format (by index) subscribes to,
    /// returned as an index into `formats`.
    pub fn subscription_of(&self, cf_index: usize) -> Option<usize> {
        self.formats
            .iter()
            .position(|sf| sf.subscribers.contains(&cf_index))
    }
}

/// The §4.3 coalescer.
pub struct Coalescer<'a> {
    profiler: &'a Profiler,
    coding_space: CodingSpace,
    strategy: CoalesceStrategy,
    ingest_budget_cores: Option<f64>,
    max_merges: Option<usize>,
}

impl<'a> Coalescer<'a> {
    /// A coalescer with the paper's defaults (heuristic selection, full
    /// coding space, no ingestion budget).
    pub fn new(profiler: &'a Profiler) -> Self {
        Coalescer {
            profiler,
            coding_space: CodingSpace::full(),
            strategy: CoalesceStrategy::Heuristic,
            ingest_budget_cores: None,
            max_merges: None,
        }
    }

    /// Limit the number of pairwise merges (0 disables coalescing entirely,
    /// which is how the N→N baseline is produced).
    pub fn with_max_merges(mut self, max_merges: usize) -> Self {
        self.max_merges = Some(max_merges);
        self
    }

    /// Use a specific pair-selection strategy.
    pub fn with_strategy(mut self, strategy: CoalesceStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Impose an ingestion budget in CPU cores per stream.
    pub fn with_ingest_budget(mut self, cores: Option<f64>) -> Self {
        self.ingest_budget_cores = cores;
        self
    }

    /// Restrict the coding space.
    pub fn with_coding_space(mut self, space: CodingSpace) -> Self {
        self.coding_space = space;
        self
    }

    // -----------------------------------------------------------------
    // Coding selection
    // -----------------------------------------------------------------

    /// Choose the smallest-storage coding option for `fidelity` whose
    /// retrieval speed satisfies every subscriber, profiling candidates
    /// through the (memoising) profiler. Falls back to RAW.
    fn choose_coding(
        &self,
        fidelity: Fidelity,
        subscribers: &[usize],
        cfs: &[DerivedCf],
    ) -> (CodingOption, crate::profiler::StorageProfile) {
        let mut best: Option<(CodingOption, crate::profiler::StorageProfile)> = None;
        for coding in self.coding_space.iter().filter(|c| !c.is_raw()) {
            let format = StorageFormat::new(fidelity, coding);
            let profile = self.profiler.profile_storage(format);
            let adequate = subscribers.iter().all(|&i| {
                let cf = &cfs[i];
                self.profiler
                    .retrieval_speed(&format, cf.fidelity.sampling)
                    .factor()
                    >= cf.consumption_speed.factor()
            });
            if !adequate {
                continue;
            }
            let better = match &best {
                None => true,
                Some((_, b)) => profile.bytes_per_video_second < b.bytes_per_video_second,
            };
            if better {
                best = Some((coding, profile));
            }
        }
        match best {
            Some(found) => found,
            None => {
                // Even the cheapest-to-decode encoded option is too slow for
                // some subscriber: bypass coding and store raw frames.
                let format = StorageFormat::new(fidelity, CodingOption::Raw);
                (CodingOption::Raw, self.profiler.profile_storage(format))
            }
        }
    }

    fn build_sf(
        &self,
        fidelity: Fidelity,
        subscribers: Vec<usize>,
        cfs: &[DerivedCf],
        is_golden: bool,
    ) -> DerivedSf {
        let (coding, profile) = if is_golden {
            // The golden format always uses the smallest coding (§4.3); its
            // consumers are the slow, high-accuracy ones for which the
            // smallest coding is adequate anyway — and if not, the normal
            // adequacy re-check below upgrades it.
            let format = StorageFormat::new(fidelity, CodingOption::SMALLEST);
            let adequate = subscribers.iter().all(|&i| {
                let cf = &cfs[i];
                self.profiler
                    .retrieval_speed(&format, cf.fidelity.sampling)
                    .factor()
                    >= cf.consumption_speed.factor()
            });
            if adequate || subscribers.is_empty() {
                (
                    CodingOption::SMALLEST,
                    self.profiler.profile_storage(format),
                )
            } else {
                self.choose_coding(fidelity, &subscribers, cfs)
            }
        } else {
            self.choose_coding(fidelity, &subscribers, cfs)
        };
        DerivedSf {
            format: StorageFormat::new(fidelity, coding),
            subscribers,
            bytes_per_video_second: profile.bytes_per_video_second,
            encode_cores: profile.encode_cores,
            sequential_retrieval_speed: profile.sequential_retrieval_speed,
            is_golden,
        }
    }

    // -----------------------------------------------------------------
    // Main derivation
    // -----------------------------------------------------------------

    /// Derive the storage format set for the given consumption formats.
    pub fn derive(&self, cfs: &[DerivedCf]) -> Result<CoalesceResult> {
        if cfs.is_empty() {
            return Err(VStoreError::invalid_argument(
                "cannot derive storage formats from an empty consumer set",
            ));
        }
        // Golden fidelity: knob-wise maximum over all CFs.
        #[expect(clippy::expect_used, reason = "emptiness rejected above")]
        let golden_fidelity =
            Fidelity::join_all(cfs.iter().map(|cf| &cf.fidelity)).expect("non-empty CF list");

        // Initial SF set: golden + one SF per unique CF fidelity.
        let mut formats: Vec<DerivedSf> = Vec::new();
        formats.push(self.build_sf(golden_fidelity, Vec::new(), cfs, true));
        for (i, cf) in cfs.iter().enumerate() {
            if let Some(existing) = formats
                .iter_mut()
                .skip(1)
                .find(|sf| sf.format.fidelity == cf.fidelity)
            {
                existing.subscribers.push(i);
                continue;
            }
            formats.push(self.build_sf(cf.fidelity, vec![i], cfs, false));
        }
        // Re-choose coding for the non-golden SFs now that all subscribers
        // are known.
        for sf in formats.iter_mut().skip(1) {
            let subs = sf.subscribers.clone();
            *sf = self.build_sf(sf.format.fidelity, subs, cfs, false);
        }

        let mut rounds = 0usize;
        let merge_allowed = |rounds: usize| self.max_merges.map(|m| rounds < m).unwrap_or(true);
        // Phase 1: free merges — merge while some pair does not increase the
        // total storage cost.
        while merge_allowed(rounds) {
            match self.best_merge(&formats, cfs) {
                Some((a, b, merged, saving)) if saving >= 0 => {
                    self.apply_merge(&mut formats, a, b, merged);
                    rounds += 1;
                }
                _ => break,
            }
        }
        // Phase 2: if an ingestion budget is imposed and exceeded, keep
        // merging at the expense of storage until it is met (or no pairs
        // remain).
        if let Some(budget) = self.ingest_budget_cores {
            while merge_allowed(rounds) && Self::total_cores(&formats) > budget && formats.len() > 1
            {
                match self.best_merge(&formats, cfs) {
                    Some((a, b, merged, _)) => {
                        self.apply_merge(&mut formats, a, b, merged);
                        rounds += 1;
                    }
                    None => break,
                }
            }
        }

        let within = self
            .ingest_budget_cores
            .map(|budget| Self::total_cores(&formats) <= budget + 1e-9)
            .unwrap_or(true);
        Ok(CoalesceResult {
            total_bytes_per_video_second: formats.iter().map(|f| f.bytes_per_video_second).sum(),
            total_ingest_cores: Self::total_cores(&formats),
            rounds,
            within_ingest_budget: within,
            formats,
        })
    }

    fn total_cores(formats: &[DerivedSf]) -> f64 {
        formats.iter().map(|f| f.encode_cores).sum()
    }

    /// Find the best pair to merge under the active strategy. Returns the
    /// two indices, the merged format, and the storage *saving* in bytes
    /// (negative when the merge grows storage).
    fn best_merge(
        &self,
        formats: &[DerivedSf],
        cfs: &[DerivedCf],
    ) -> Option<(usize, usize, DerivedSf, i64)> {
        let mut best: Option<(usize, usize, DerivedSf, i64, f64)> = None;
        for a in 0..formats.len() {
            for b in (a + 1)..formats.len() {
                // Merging into the golden format keeps its identity.
                let is_golden = formats[a].is_golden || formats[b].is_golden;
                let merged_fidelity = formats[a].format.fidelity.join(&formats[b].format.fidelity);
                let mut subscribers = formats[a].subscribers.clone();
                subscribers.extend_from_slice(&formats[b].subscribers);
                let merged = self.build_sf(merged_fidelity, subscribers, cfs, is_golden);
                // A merge is only admissible when the merged format still
                // retrieves fast enough for every subscriber (R2) — the RAW
                // fallback of `choose_coding` cannot always guarantee that
                // once the merged fidelity is much richer than a fast
                // consumer's own format.
                let adequate = merged.subscribers.iter().all(|&i| {
                    let cf = &cfs[i];
                    self.profiler
                        .retrieval_speed(&merged.format, cf.fidelity.sampling)
                        .factor()
                        >= cf.consumption_speed.factor()
                });
                if !adequate {
                    continue;
                }
                let before = formats[a].bytes_per_video_second.bytes() as i64
                    + formats[b].bytes_per_video_second.bytes() as i64;
                let saving = before - merged.bytes_per_video_second.bytes() as i64;
                let metric = match self.strategy {
                    // Heuristic: maximise the storage saving.
                    CoalesceStrategy::Heuristic => saving as f64,
                    // Distance-based: minimise knob distance (flip the sign so
                    // "larger is better" below).
                    CoalesceStrategy::DistanceBased => {
                        -knob_distance(&formats[a].format.fidelity, &formats[b].format.fidelity)
                    }
                };
                let better = match &best {
                    None => true,
                    Some((.., best_metric)) => metric > *best_metric,
                };
                if better {
                    best = Some((a, b, merged, saving, metric));
                }
            }
        }
        best.map(|(a, b, merged, saving, _)| (a, b, merged, saving))
    }

    fn apply_merge(&self, formats: &mut Vec<DerivedSf>, a: usize, b: usize, merged: DerivedSf) {
        // Remove the higher index first so the lower index stays valid.
        let (first, second) = if a < b { (a, b) } else { (b, a) };
        formats.remove(second);
        formats.remove(first);
        if merged.is_golden {
            formats.insert(0, merged);
        } else {
            formats.push(merged);
        }
    }
}

/// Normalised Euclidean distance between two fidelity options' knob ranks
/// (the §6.4 distance-based selection metric).
pub fn knob_distance(a: &Fidelity, b: &Fidelity) -> f64 {
    fn norm(rank: usize, count: usize) -> f64 {
        if count <= 1 {
            0.0
        } else {
            rank as f64 / (count - 1) as f64
        }
    }
    let dq = norm(a.quality.rank(), 4) - norm(b.quality.rank(), 4);
    let dc = norm(a.crop.rank(), 3) - norm(b.crop.rank(), 3);
    let dr = norm(a.resolution.rank(), 10) - norm(b.resolution.rank(), 10);
    let ds = norm(a.sampling.rank(), 5) - norm(b.sampling.rank(), 5);
    (dq * dq + dc * dc + dr * dr + ds * ds).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::ProfilerConfig;
    use vstore_ops::OperatorLibrary;
    use vstore_sim::CodingCostModel;
    use vstore_types::{
        Consumer, CropFactor, FrameSampling, ImageQuality, OperatorKind, Resolution,
    };

    fn profiler() -> Profiler {
        Profiler::new(
            OperatorLibrary::paper_testbed(),
            CodingCostModel::paper_testbed(),
            ProfilerConfig::fast_test(),
        )
    }

    fn cf(
        op: OperatorKind,
        target: f64,
        q: ImageQuality,
        c: CropFactor,
        r: Resolution,
        s: FrameSampling,
        speed: f64,
    ) -> DerivedCf {
        DerivedCf {
            consumer: Consumer::new(op, target),
            fidelity: Fidelity::new(q, c, r, s),
            accuracy: target,
            consumption_speed: Speed(speed),
        }
    }

    fn sample_cfs() -> Vec<DerivedCf> {
        vec![
            // A slow, accurate NN consumer needing rich fidelity.
            cf(
                OperatorKind::FullNN,
                0.95,
                ImageQuality::Good,
                CropFactor::C100,
                Resolution::R600,
                FrameSampling::S2_3,
                5.0,
            ),
            // A License consumer at medium fidelity.
            cf(
                OperatorKind::License,
                0.9,
                ImageQuality::Best,
                CropFactor::C100,
                Resolution::R540,
                FrameSampling::S1_2,
                20.0,
            ),
            // Near-identical License consumer (should coalesce freely).
            cf(
                OperatorKind::License,
                0.8,
                ImageQuality::Good,
                CropFactor::C100,
                Resolution::R540,
                FrameSampling::S1_6,
                60.0,
            ),
            // A very fast, low-fidelity Motion consumer (likely RAW).
            cf(
                OperatorKind::Motion,
                0.9,
                ImageQuality::Bad,
                CropFactor::C75,
                Resolution::R180,
                FrameSampling::S1_30,
                25_000.0,
            ),
            // A fast Diff consumer.
            cf(
                OperatorKind::Diff,
                0.9,
                ImageQuality::Best,
                CropFactor::C75,
                Resolution::R100,
                FrameSampling::S2_3,
                4_000.0,
            ),
        ]
    }

    #[test]
    fn golden_format_exists_and_is_richest() {
        let p = profiler();
        let result = Coalescer::new(&p).derive(&sample_cfs()).unwrap();
        let golden = &result.formats[0];
        assert!(golden.is_golden);
        for sf in &result.formats {
            assert!(golden.format.fidelity.richer_or_equal(&sf.format.fidelity));
        }
        assert_eq!(golden.format.coding, CodingOption::SMALLEST);
    }

    #[test]
    fn every_consumer_is_served_with_satisfiable_fidelity_and_speed() {
        let p = profiler();
        let cfs = sample_cfs();
        let result = Coalescer::new(&p).derive(&cfs).unwrap();
        for (i, cf) in cfs.iter().enumerate() {
            let sf_idx = result
                .subscription_of(i)
                .expect("every CF subscribes somewhere");
            let sf = &result.formats[sf_idx];
            // R1: satisfiable fidelity.
            assert!(
                sf.format.fidelity.richer_or_equal(&cf.fidelity),
                "R1 violated for CF {i}"
            );
            // R2: adequate retrieval speed.
            let retrieval = p.retrieval_speed(&sf.format, cf.fidelity.sampling);
            assert!(
                retrieval.factor() >= cf.consumption_speed.factor(),
                "R2 violated for CF {i}: retrieval {retrieval} < consumption {}",
                cf.consumption_speed
            );
        }
    }

    #[test]
    fn coalescing_reduces_format_count_below_cf_count() {
        let p = profiler();
        let cfs = sample_cfs();
        let result = Coalescer::new(&p).derive(&cfs).unwrap();
        assert!(result.rounds > 0, "no coalescing happened");
        assert!(
            result.formats.len() <= cfs.len(),
            "{} formats for {} CFs",
            result.formats.len(),
            cfs.len()
        );
    }

    #[test]
    fn very_fast_consumers_get_raw_storage() {
        let p = profiler();
        let cfs = sample_cfs();
        let result = Coalescer::new(&p).derive(&cfs).unwrap();
        // The 25 000× Motion consumer cannot be fed from any encoded format.
        let sf_idx = result.subscription_of(3).unwrap();
        assert!(
            result.formats[sf_idx].format.coding.is_raw(),
            "expected RAW for the fastest consumer, got {}",
            result.formats[sf_idx].format.coding
        );
    }

    #[test]
    fn ingest_budget_forces_more_coalescing() {
        let p = profiler();
        let cfs = sample_cfs();
        let unbudgeted = Coalescer::new(&p).derive(&cfs).unwrap();
        let budgeted = Coalescer::new(&p)
            .with_ingest_budget(Some(unbudgeted.total_ingest_cores * 0.6))
            .derive(&cfs)
            .unwrap();
        assert!(budgeted.total_ingest_cores <= unbudgeted.total_ingest_cores + 1e-9);
        assert!(budgeted.formats.len() <= unbudgeted.formats.len());
    }

    #[test]
    fn distance_based_is_valid_but_not_cheaper_than_heuristic() {
        let p = profiler();
        let cfs = sample_cfs();
        let heuristic = Coalescer::new(&p).derive(&cfs).unwrap();
        let distance = Coalescer::new(&p)
            .with_strategy(CoalesceStrategy::DistanceBased)
            .with_ingest_budget(Some(heuristic.total_ingest_cores))
            .derive(&cfs)
            .unwrap();
        // Both must satisfy R1/R2 (checked via subscription_of existing).
        for i in 0..cfs.len() {
            assert!(distance.subscription_of(i).is_some());
        }
        // §6.4: distance-based storage is at least as expensive.
        assert!(
            distance.total_bytes_per_video_second.bytes() + 1
                >= heuristic.total_bytes_per_video_second.bytes(),
            "distance {} vs heuristic {}",
            distance.total_bytes_per_video_second,
            heuristic.total_bytes_per_video_second
        );
    }

    #[test]
    fn empty_cf_list_is_rejected() {
        let p = profiler();
        assert!(Coalescer::new(&p).derive(&[]).is_err());
    }

    #[test]
    fn knob_distance_properties() {
        let a = Fidelity::INGESTION;
        let b = Fidelity::POOREST;
        assert_eq!(knob_distance(&a, &a), 0.0);
        assert!(
            knob_distance(&a, &b)
                > knob_distance(
                    &a,
                    &Fidelity::new(
                        ImageQuality::Best,
                        CropFactor::C100,
                        Resolution::R720,
                        FrameSampling::S2_3,
                    )
                )
        );
        assert!((knob_distance(&a, &b) - knob_distance(&b, &a)).abs() < 1e-12);
    }
}
