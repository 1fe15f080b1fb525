//! Adapting the configuration to an ingestion (transcoding) budget (§6.3,
//! Table 4).
//!
//! When the CPU cores available for transcoding one stream shrink, VStore
//! does not re-derive the whole configuration: it incrementally tunes the
//! *coding speed step* of individual storage formats towards cheaper
//! (faster) encodes, accepting a modest storage increase, until the
//! ingestion cost fits the budget. Faster coding only over-provisions
//! retrieval speed, so requirement R2 can never regress.

use crate::coalesce::DerivedSf;
use crate::profiler::Profiler;
use vstore_types::{CodingOption, Result, SpeedStep, StorageFormat, VStoreError};

/// One step of the Table-4 adaptation trace.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetAdaptation {
    /// The adapted storage formats (same order as the input).
    pub formats: Vec<DerivedSf>,
    /// Total ingestion cost after adaptation, in cores.
    pub total_ingest_cores: f64,
    /// Total storage cost after adaptation, bytes per video-second.
    pub total_bytes_per_video_second: u64,
    /// Whether the budget was met.
    pub within_budget: bool,
}

/// The next-faster speed step, if any.
fn faster(step: SpeedStep) -> Option<SpeedStep> {
    let rank = step.rank();
    SpeedStep::ALL.get(rank + 1).copied()
}

/// Adapt a derived storage-format set to an ingestion budget (CPU cores per
/// stream) by tuning coding speed steps from the most expensive format
/// first.
pub fn adapt_to_ingest_budget(
    profiler: &Profiler,
    formats: &[DerivedSf],
    budget_cores: f64,
) -> Result<BudgetAdaptation> {
    if formats.is_empty() {
        return Err(VStoreError::invalid_argument("no storage formats to adapt"));
    }
    if budget_cores <= 0.0 {
        return Err(VStoreError::invalid_argument(
            "ingestion budget must be positive",
        ));
    }
    let mut adapted: Vec<DerivedSf> = formats.to_vec();
    let total = |formats: &[DerivedSf]| -> f64 { formats.iter().map(|f| f.encode_cores).sum() };

    // Repeatedly take the format with the highest encode cost that can still
    // be made cheaper, and move its speed step one notch faster.
    let mut guard = 0;
    while total(&adapted) > budget_cores && guard < 1000 {
        guard += 1;
        let candidate = adapted
            .iter()
            .enumerate()
            .filter_map(|(i, sf)| match sf.format.coding {
                CodingOption::Encoded {
                    keyframe_interval,
                    speed,
                } => faster(speed).map(|next| (i, keyframe_interval, next, sf.encode_cores)),
                CodingOption::Raw => None,
            })
            .max_by(|a, b| a.3.total_cmp(&b.3));
        let (idx, keyframe_interval, next_speed, _) = match candidate {
            Some(c) => c,
            None => break, // everything already at the fastest step
        };
        let new_format = StorageFormat::new(
            adapted[idx].format.fidelity,
            CodingOption::Encoded {
                keyframe_interval,
                speed: next_speed,
            },
        );
        let profile = profiler.profile_storage(new_format);
        adapted[idx] = DerivedSf {
            format: new_format,
            subscribers: adapted[idx].subscribers.clone(),
            bytes_per_video_second: profile.bytes_per_video_second,
            encode_cores: profile.encode_cores,
            sequential_retrieval_speed: profile.sequential_retrieval_speed,
            is_golden: adapted[idx].is_golden,
        };
    }

    let total_cores = total(&adapted);
    Ok(BudgetAdaptation {
        within_budget: total_cores <= budget_cores + 1e-9,
        total_ingest_cores: total_cores,
        total_bytes_per_video_second: adapted
            .iter()
            .map(|f| f.bytes_per_video_second.bytes())
            .sum(),
        formats: adapted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::ProfilerConfig;
    use vstore_ops::OperatorLibrary;
    use vstore_sim::CodingCostModel;
    use vstore_types::{
        CropFactor, Fidelity, FrameSampling, ImageQuality, KeyframeInterval, Resolution,
    };

    fn profiler() -> Profiler {
        Profiler::new(
            OperatorLibrary::paper_testbed(),
            CodingCostModel::paper_testbed(),
            ProfilerConfig::fast_test(),
        )
    }

    fn sf(p: &Profiler, fidelity: Fidelity, coding: CodingOption, is_golden: bool) -> DerivedSf {
        let profile = p.profile_storage(StorageFormat::new(fidelity, coding));
        DerivedSf {
            format: StorageFormat::new(fidelity, coding),
            subscribers: vec![],
            bytes_per_video_second: profile.bytes_per_video_second,
            encode_cores: profile.encode_cores,
            sequential_retrieval_speed: profile.sequential_retrieval_speed,
            is_golden,
        }
    }

    fn paper_like_formats(p: &Profiler) -> Vec<DerivedSf> {
        vec![
            sf(p, Fidelity::INGESTION, CodingOption::SMALLEST, true),
            sf(
                p,
                Fidelity::new(
                    ImageQuality::Good,
                    CropFactor::C100,
                    Resolution::R540,
                    FrameSampling::S1_6,
                ),
                CodingOption::SMALLEST,
                false,
            ),
            sf(
                p,
                Fidelity::new(
                    ImageQuality::Best,
                    CropFactor::C100,
                    Resolution::R540,
                    FrameSampling::S1_30,
                ),
                CodingOption::Encoded {
                    keyframe_interval: KeyframeInterval::K10,
                    speed: vstore_types::SpeedStep::Fast,
                },
                false,
            ),
            sf(
                p,
                Fidelity::new(
                    ImageQuality::Best,
                    CropFactor::C100,
                    Resolution::R200,
                    FrameSampling::Full,
                ),
                CodingOption::Raw,
                false,
            ),
        ]
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let p = profiler();
        let formats = paper_like_formats(&p);
        let before: Vec<_> = formats.iter().map(|f| f.format).collect();
        let adapted = adapt_to_ingest_budget(&p, &formats, 100.0).unwrap();
        assert!(adapted.within_budget);
        let after: Vec<_> = adapted.formats.iter().map(|f| f.format).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn shrinking_budget_speeds_up_coding_and_grows_storage() {
        let p = profiler();
        let formats = paper_like_formats(&p);
        let unbudgeted: f64 = formats.iter().map(|f| f.encode_cores).sum();
        let mut prev_storage = 0u64;
        let mut prev_cores = f64::INFINITY;
        // Mirror Table 4: progressively smaller budgets.
        for budget in [
            unbudgeted * 0.8,
            unbudgeted * 0.5,
            unbudgeted * 0.3,
            unbudgeted * 0.15,
        ] {
            let adapted = adapt_to_ingest_budget(&p, &formats, budget).unwrap();
            assert!(
                adapted.total_ingest_cores <= prev_cores + 1e-9,
                "ingest cost should not grow as budgets shrink"
            );
            assert!(
                adapted.total_bytes_per_video_second >= prev_storage,
                "storage should not shrink as budgets shrink"
            );
            prev_storage = adapted.total_bytes_per_video_second;
            prev_cores = adapted.total_ingest_cores;
            // The golden format is still golden and fidelities are untouched.
            assert!(adapted.formats[0].is_golden);
            for (a, b) in adapted.formats.iter().zip(formats.iter()) {
                assert_eq!(a.format.fidelity, b.format.fidelity);
            }
        }
    }

    #[test]
    fn impossible_budget_reports_not_within() {
        let p = profiler();
        let formats = paper_like_formats(&p);
        let adapted = adapt_to_ingest_budget(&p, &formats, 0.001).unwrap();
        assert!(!adapted.within_budget);
        // Every encodable format should have been pushed to the fastest step.
        for sf in &adapted.formats {
            if let CodingOption::Encoded { speed, .. } = sf.format.coding {
                assert_eq!(speed, vstore_types::SpeedStep::Fastest);
            }
        }
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        let p = profiler();
        assert!(adapt_to_ingest_budget(&p, &[], 5.0).is_err());
        let formats = paper_like_formats(&p);
        assert!(adapt_to_ingest_budget(&p, &formats, 0.0).is_err());
    }
}
