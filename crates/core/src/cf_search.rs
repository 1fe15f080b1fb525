//! Configuring consumption formats (§4.2): for each consumer
//! `<operator, accuracy>`, find the fidelity with adequate accuracy and the
//! lowest consumption cost, profiling only a small subset of the space.
//!
//! The search exploits the paper's two observations:
//!
//! * **O1 (monotonicity)** — accuracy and consumption cost are non-decreasing
//!   in fidelity richness, so each 2-D (resolution × sampling) slice has an
//!   *accuracy boundary* that a staircase walk can trace while profiling only
//!   the cells it visits;
//! * **O2** — image quality does not affect consumption cost, so the quality
//!   knob can be fixed at its richest value during the spatial search and
//!   lowered afterwards as far as accuracy allows (to opportunistically save
//!   storage).

use crate::profiler::Profiler;
use vstore_types::{Consumer, Fidelity, FidelitySpace, Result, Speed, VStoreError};

/// A consumption format derived for one consumer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivedCf {
    /// The consumer this format serves.
    pub consumer: Consumer,
    /// The derived fidelity.
    pub fidelity: Fidelity,
    /// Profiled accuracy at that fidelity.
    pub accuracy: f64,
    /// Profiled consumption speed at that fidelity.
    pub consumption_speed: Speed,
}

/// The §4.2 search.
pub struct CfSearch<'a> {
    profiler: &'a Profiler,
    space: FidelitySpace,
}

impl<'a> CfSearch<'a> {
    /// A search over the full Table-1 fidelity space.
    pub fn new(profiler: &'a Profiler) -> Self {
        CfSearch {
            profiler,
            space: FidelitySpace::full(),
        }
    }

    /// A search over a restricted space.
    pub fn with_space(profiler: &'a Profiler, space: FidelitySpace) -> Self {
        CfSearch { profiler, space }
    }

    /// The space being searched.
    pub fn space(&self) -> &FidelitySpace {
        &self.space
    }

    /// Derive the consumption format for one consumer.
    pub fn derive(&self, consumer: Consumer) -> Result<DerivedCf> {
        let target = consumer.accuracy.value();
        let qualities = &self.space.qualities;
        let top_quality = *qualities
            .last()
            .ok_or_else(|| VStoreError::invalid_argument("empty quality axis"))?;

        // Step 1–3: search the 3-D (crop × resolution × sampling) space at
        // the richest image quality, one 2-D slice per crop value.
        let mut best: Option<DerivedCf> = None;
        for &crop in &self.space.crops {
            for candidate in self.explore_slice(consumer, top_quality, crop, target)? {
                let better = match &best {
                    None => true,
                    Some(b) => {
                        candidate.consumption_speed.factor() > b.consumption_speed.factor()
                            || (candidate.consumption_speed.factor()
                                == b.consumption_speed.factor()
                                && candidate.fidelity.richness_volume()
                                    < b.fidelity.richness_volume())
                    }
                };
                if better {
                    best = Some(candidate);
                }
            }
        }
        let mut chosen = best.ok_or_else(|| {
            VStoreError::AccuracyUnreachable(format!(
                "no fidelity in the search space reaches accuracy {target:.2} for {}",
                consumer.op
            ))
        })?;

        // Step 4: lower image quality while accuracy stays adequate. This
        // cannot reduce consumption cost (O2) but reduces storage cost
        // downstream.
        for &quality in qualities.iter().rev().skip(1) {
            let fidelity = Fidelity {
                quality,
                ..chosen.fidelity
            };
            let profile = self.profiler.profile_consumer(consumer.op, fidelity)?;
            if profile.accuracy + 1e-9 >= target {
                chosen = DerivedCf {
                    consumer,
                    fidelity,
                    accuracy: profile.accuracy,
                    consumption_speed: profile.consumption_speed,
                };
            } else {
                break;
            }
        }
        Ok(chosen)
    }

    /// Derive the consumption format by exhaustively profiling every fidelity
    /// option — the Figure 14 baseline.
    pub fn derive_exhaustive(&self, consumer: Consumer) -> Result<DerivedCf> {
        let target = consumer.accuracy.value();
        let mut best: Option<DerivedCf> = None;
        for fidelity in self.space.iter() {
            let profile = self.profiler.profile_consumer(consumer.op, fidelity)?;
            if profile.accuracy + 1e-9 < target {
                continue;
            }
            let candidate = DerivedCf {
                consumer,
                fidelity,
                accuracy: profile.accuracy,
                consumption_speed: profile.consumption_speed,
            };
            let better = match &best {
                None => true,
                Some(b) => candidate.consumption_speed.factor() > b.consumption_speed.factor(),
            };
            if better {
                best = Some(candidate);
            }
        }
        best.ok_or_else(|| {
            VStoreError::AccuracyUnreachable(format!(
                "no fidelity reaches accuracy {target:.2} for {}",
                consumer.op
            ))
        })
    }

    /// Explore one 2-D (resolution × sampling) slice at a fixed quality and
    /// crop: walk the accuracy boundary and return the boundary cells with
    /// adequate accuracy.
    fn explore_slice(
        &self,
        consumer: Consumer,
        quality: vstore_types::ImageQuality,
        crop: vstore_types::CropFactor,
        target: f64,
    ) -> Result<Vec<DerivedCf>> {
        let resolutions = &self.space.resolutions;
        let samplings = &self.space.samplings;
        if resolutions.is_empty() || samplings.is_empty() {
            return Ok(Vec::new());
        }
        let mut boundary = Vec::new();
        // Start at the top-right corner: richest sampling, richest resolution.
        let mut res_idx = resolutions.len() - 1;
        // Walk sampling rows from richest to poorest.
        for s_idx in (0..samplings.len()).rev() {
            let mut last_adequate: Option<DerivedCf> = None;
            // First make sure the current column is adequate for this poorer
            // row; if not, move right (richer resolution) until it is.
            loop {
                let fidelity = Fidelity {
                    quality,
                    crop,
                    resolution: resolutions[res_idx],
                    sampling: samplings[s_idx],
                };
                let profile = self.profiler.profile_consumer(consumer.op, fidelity)?;
                if profile.accuracy + 1e-9 >= target {
                    last_adequate = Some(DerivedCf {
                        consumer,
                        fidelity,
                        accuracy: profile.accuracy,
                        consumption_speed: profile.consumption_speed,
                    });
                    // Adequate: try to move left (poorer resolution).
                    if res_idx == 0 {
                        break;
                    }
                    res_idx -= 1;
                } else if last_adequate.is_some() {
                    // We just stepped past the boundary going left; step back.
                    res_idx += 1;
                    break;
                } else if res_idx + 1 < resolutions.len() {
                    // Inadequate and we have not seen an adequate cell in
                    // this row yet: move right (richer resolution).
                    res_idx += 1;
                } else {
                    // Even the richest resolution is inadequate for this row;
                    // poorer rows can only be worse (O1), so stop entirely.
                    break;
                }
            }
            match last_adequate {
                Some(cell) => boundary.push(cell),
                None => break,
            }
        }
        Ok(boundary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::ProfilerConfig;
    use vstore_ops::OperatorLibrary;
    use vstore_sim::CodingCostModel;
    use vstore_types::OperatorKind;

    fn profiler() -> Profiler {
        Profiler::new(
            OperatorLibrary::paper_testbed(),
            CodingCostModel::paper_testbed(),
            ProfilerConfig::fast_test(),
        )
    }

    fn reduced_space() -> FidelitySpace {
        FidelitySpace::reduced()
    }

    #[test]
    fn derived_cf_meets_target_accuracy() {
        let p = profiler();
        let search = CfSearch::new(&p);
        for (op, target) in [
            (OperatorKind::Motion, 0.9),
            (OperatorKind::FullNN, 0.8),
            (OperatorKind::License, 0.8),
        ] {
            let cf = search.derive(Consumer::new(op, target)).unwrap();
            assert!(
                cf.accuracy + 1e-9 >= target,
                "{op:?}: derived accuracy {} below target {target}",
                cf.accuracy
            );
            assert!(cf.consumption_speed.factor() > 0.0);
        }
    }

    #[test]
    fn lower_targets_get_cheaper_formats() {
        let p = profiler();
        let search = CfSearch::new(&p);
        let strict = search
            .derive(Consumer::new(OperatorKind::License, 0.95))
            .unwrap();
        let loose = search
            .derive(Consumer::new(OperatorKind::License, 0.7))
            .unwrap();
        assert!(
            loose.consumption_speed.factor() >= strict.consumption_speed.factor(),
            "loose target should not be slower: {} vs {}",
            loose.consumption_speed,
            strict.consumption_speed
        );
    }

    #[test]
    fn search_profiles_far_fewer_options_than_exhaustive() {
        let p = profiler();
        let search = CfSearch::with_space(&p, reduced_space());
        let consumer = Consumer::new(OperatorKind::SpecializedNN, 0.9);
        search.derive(consumer).unwrap();
        let guided_runs = p.stats().operator_runs;
        // The §4.2 bound: O((Nsample + Nres)·Ncrop + Nquality).
        let space = reduced_space();
        let bound = (space.samplings.len() + space.resolutions.len()) * space.crops.len()
            + space.qualities.len();
        assert!(
            guided_runs <= bound,
            "guided search used {guided_runs} runs, bound is {bound}"
        );
        assert!(
            guided_runs < space.len() / 3,
            "guided {guided_runs} vs space {}",
            space.len()
        );
    }

    #[test]
    fn exhaustive_and_guided_agree_on_adequacy() {
        let p = profiler();
        let space = FidelitySpace {
            qualities: vec![
                vstore_types::ImageQuality::Bad,
                vstore_types::ImageQuality::Best,
            ],
            crops: vec![vstore_types::CropFactor::C100],
            resolutions: vec![
                vstore_types::Resolution::R100,
                vstore_types::Resolution::R200,
                vstore_types::Resolution::R400,
                vstore_types::Resolution::R600,
            ],
            samplings: vec![
                vstore_types::FrameSampling::S1_30,
                vstore_types::FrameSampling::S1_2,
                vstore_types::FrameSampling::Full,
            ],
        };
        let consumer = Consumer::new(OperatorKind::SpecializedNN, 0.85);
        let guided = CfSearch::with_space(&p, space.clone())
            .derive(consumer)
            .unwrap();
        let exhaustive = CfSearch::with_space(&p, space)
            .derive_exhaustive(consumer)
            .unwrap();
        // Both must be adequate; the guided result must consume at a speed no
        // worse than ~20 % below the exhaustive optimum (boundary walks can
        // differ slightly when accuracy is locally flat).
        assert!(guided.accuracy + 1e-9 >= 0.85);
        assert!(exhaustive.accuracy + 1e-9 >= 0.85);
        assert!(
            guided.consumption_speed.factor() >= exhaustive.consumption_speed.factor() * 0.8,
            "guided {} vs exhaustive {}",
            guided.consumption_speed,
            exhaustive.consumption_speed
        );
    }

    #[test]
    fn accuracy_one_is_reachable_only_at_ingestion_like_fidelity() {
        let p = profiler();
        let search = CfSearch::new(&p);
        let cf = search
            .derive(Consumer::new(OperatorKind::FullNN, 1.0))
            .unwrap();
        assert_eq!(cf.accuracy, 1.0);
    }

    #[test]
    fn unreachable_target_in_tiny_space_errors() {
        let p = profiler();
        let space = FidelitySpace {
            qualities: vec![vstore_types::ImageQuality::Worst],
            crops: vec![vstore_types::CropFactor::C50],
            resolutions: vec![vstore_types::Resolution::R60],
            samplings: vec![vstore_types::FrameSampling::S1_30],
        };
        let search = CfSearch::with_space(&p, space);
        let err = search
            .derive(Consumer::new(OperatorKind::Ocr, 0.95))
            .unwrap_err();
        assert!(matches!(err, VStoreError::AccuracyUnreachable(_)));
    }
}
