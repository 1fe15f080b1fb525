//! Planning age-based data erosion (§4.4).
//!
//! As video ages, VStore deletes growing fractions of the non-golden storage
//! formats. Consumers that hit a deleted segment fall back along the
//! richer-than tree to an ancestor format (ultimately the golden format),
//! which keeps their accuracy intact but decays their effective speed. The
//! plan chooses, per age, how much of each format to delete so that the
//! *overall* (max-min fair) relative consumer speed follows a power-law
//! decay whose factor `k` is the smallest that brings the accumulated
//! storage under budget.

use crate::coalesce::DerivedSf;
use crate::profiler::Profiler;
use std::collections::BTreeMap;
use vstore_types::{
    power_law_target, ByteSize, ErosionPlan, ErosionStep, FormatId, Fraction, Result, Speed,
    VStoreError,
};

/// Everything the erosion planner needs to know about one consumer.
#[derive(Debug, Clone, PartialEq)]
struct ConsumerLane {
    /// The consumer's consumption speed on its consumption format.
    consumption_speed: Speed,
    /// Format indices of the fallback chain: position 0 is the home format
    /// the consumer subscribes to, the last entry is the golden root.
    chain: Vec<usize>,
    /// Retrieval speed of each chain level at this consumer's sampling rate.
    chain_speeds: Vec<Speed>,
}

impl ConsumerLane {
    /// Relative speed of this consumer given the cumulative deleted fraction
    /// of every format (indexed by format): the ratio of its decayed
    /// effective speed to its original speed, the paper's
    /// `α/((1−p)·α + p)` generalised to a multi-level fallback chain.
    fn relative_speed(&self, deleted_by_format: &[f64]) -> f64 {
        let original = self.consumption_speed.factor().max(1e-9);
        let mut remaining = 1.0_f64;
        let mut expected_time = 0.0_f64;
        for (level, (&fmt_idx, speed)) in
            self.chain.iter().zip(self.chain_speeds.iter()).enumerate()
        {
            let is_last = level + 1 == self.chain.len();
            let available = if is_last {
                1.0 // the golden root is never eroded
            } else {
                1.0 - deleted_by_format.get(fmt_idx).copied().unwrap_or(0.0)
            };
            let p_here = remaining * available.clamp(0.0, 1.0);
            // Falling back may make retrieval the bottleneck.
            let effective = speed.factor().min(original).max(1e-9);
            expected_time += p_here / effective;
            remaining -= p_here;
            if remaining <= 1e-12 {
                break;
            }
        }
        if remaining > 1e-12 {
            expected_time += remaining / original;
        }
        let decayed = 1.0 / expected_time.max(1e-12);
        (decayed / original).clamp(0.0, 1.0)
    }

    /// `true` if the given format participates in this consumer's fallback
    /// chain.
    fn uses_format(&self, format_idx: usize) -> bool {
        self.chain.contains(&format_idx)
    }
}

/// Inputs to the erosion planner.
#[derive(Debug, Clone)]
pub struct ErosionInputs<'a> {
    /// The derived storage formats (golden first), as produced by the
    /// coalescer.
    pub formats: &'a [DerivedSf],
    /// The ids assigned to those formats in the final configuration, in the
    /// same order.
    pub format_ids: &'a [FormatId],
    /// Per-consumer `(format index, consumption fidelity sampling, speed)`
    /// triples — the subscriptions.
    pub consumers: &'a [(usize, vstore_types::FrameSampling, Speed)],
    /// Video lifespan in days.
    pub lifespan_days: u32,
    /// Storage budget for one stream over its full lifespan.
    pub storage_budget: ByteSize,
}

/// Build the richer-than fallback parent of each format: the cheapest format
/// whose fidelity is richer-or-equal (excluding itself); the golden format
/// (index 0) is its own parent (the root).
fn fallback_parents(formats: &[DerivedSf]) -> Vec<usize> {
    formats
        .iter()
        .enumerate()
        .map(|(i, sf)| {
            if i == 0 {
                return 0;
            }
            let mut best: Option<(usize, u64)> = None;
            for (j, other) in formats.iter().enumerate() {
                if i == j || !other.format.fidelity.richer_or_equal(&sf.format.fidelity) {
                    continue;
                }
                let cost = other.bytes_per_video_second.bytes();
                if best.map(|(_, c)| cost < c).unwrap_or(true) {
                    best = Some((j, cost));
                }
            }
            best.map(|(j, _)| j).unwrap_or(0)
        })
        .collect()
}

/// The fallback chain of a format: itself, then parents up to the golden
/// root.
fn fallback_chain(parents: &[usize], start: usize) -> Vec<usize> {
    let mut chain = vec![start];
    let mut current = start;
    while current != 0 {
        let parent = parents[current];
        if chain.contains(&parent) {
            break;
        }
        chain.push(parent);
        current = parent;
    }
    if *chain.last().unwrap_or(&0) != 0 {
        chain.push(0);
    }
    chain
}

/// Build the consumer lanes: for each consumer, its fallback chain and the
/// retrieval speed of every chain level at that consumer's sampling rate.
fn build_lanes(
    profiler: &Profiler,
    inputs: &ErosionInputs<'_>,
    parents: &[usize],
) -> Vec<ConsumerLane> {
    inputs
        .consumers
        .iter()
        .map(|&(home, sampling, speed)| {
            let chain = fallback_chain(parents, home);
            let chain_speeds = chain
                .iter()
                .map(|&idx| profiler.retrieval_speed(&inputs.formats[idx].format, sampling))
                .collect();
            ConsumerLane {
                consumption_speed: speed,
                chain,
                chain_speeds,
            }
        })
        .collect()
}

/// Storage consumed by one stream over its lifespan under a given erosion
/// schedule (`deleted_by_age[age-1][format]` = cumulative deleted fraction).
fn total_storage(
    formats: &[DerivedSf],
    deleted_by_age: &[Vec<f64>],
    lifespan_days: u32,
) -> ByteSize {
    let seconds_per_day = 86_400.0;
    let mut total = 0u64;
    for age in 0..lifespan_days as usize {
        let deleted = &deleted_by_age[age.min(deleted_by_age.len().saturating_sub(1))];
        for (idx, sf) in formats.iter().enumerate() {
            let retain = if idx == 0 { 1.0 } else { 1.0 - deleted[idx] };
            total += (sf.bytes_per_video_second.bytes() as f64 * seconds_per_day * retain) as u64;
        }
    }
    ByteSize(total)
}

/// Plan data erosion. Returns a no-op plan when the un-eroded storage
/// already fits the budget, otherwise the gentlest power-law decay that
/// fits; errs when even deleting everything but the golden format cannot fit
/// the budget.
pub fn plan_erosion(profiler: &Profiler, inputs: &ErosionInputs<'_>) -> Result<ErosionPlan> {
    if inputs.formats.is_empty() || inputs.format_ids.len() != inputs.formats.len() {
        return Err(VStoreError::invalid_argument("formats and ids must align"));
    }
    let lifespan = inputs.lifespan_days.max(1);
    let parents = fallback_parents(inputs.formats);
    let lanes = build_lanes(profiler, inputs, &parents);

    // Pmin: the overall speed when every non-golden format is gone.
    let all_deleted: Vec<f64> = (0..inputs.formats.len())
        .map(|i| if i == 0 { 0.0 } else { 1.0 })
        .collect();
    let p_min = if lanes.is_empty() {
        1.0
    } else {
        lanes
            .iter()
            .map(|l| l.relative_speed(&all_deleted))
            .fold(1.0, f64::min)
    };

    // Feasibility: even with maximal erosion, does storage fit?
    let max_eroded: Vec<Vec<f64>> = (0..lifespan)
        .map(|age| {
            if age == 0 {
                vec![0.0; inputs.formats.len()]
            } else {
                all_deleted.clone()
            }
        })
        .collect();
    let minimum_possible = total_storage(inputs.formats, &max_eroded, lifespan);
    if minimum_possible > inputs.storage_budget {
        return Err(VStoreError::BudgetUnsatisfiable(format!(
            "storage budget {} cannot hold even maximally eroded video ({} required)",
            inputs.storage_budget, minimum_possible
        )));
    }

    // No erosion needed?
    let no_erosion: Vec<Vec<f64>> = vec![vec![0.0; inputs.formats.len()]; lifespan as usize];
    if total_storage(inputs.formats, &no_erosion, lifespan) <= inputs.storage_budget {
        return Ok(ErosionPlan::no_erosion(lifespan, p_min));
    }

    // Binary search the smallest decay factor k whose plan fits the budget.
    let plan_for = |k: f64| -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut deleted = vec![0.0; inputs.formats.len()];
        let mut by_age = Vec::with_capacity(lifespan as usize);
        let mut overall_by_age = Vec::with_capacity(lifespan as usize);
        for age in 1..=lifespan {
            let target = power_law_target(k, p_min, age);
            // Delete, fairly, until the overall speed drops to the target.
            let mut guard = 0;
            loop {
                let overall: f64 = lanes
                    .iter()
                    .map(|l| l.relative_speed(&deleted))
                    .fold(1.0, f64::min);
                if overall <= target + 1e-9 || guard > 10_000 {
                    break;
                }
                guard += 1;
                // The consumer currently worst off.
                #[expect(clippy::expect_used, reason = "lanes mirror the non-empty format list")]
                let (worst_idx, worst_speed) = lanes
                    .iter()
                    .enumerate()
                    .map(|(i, l)| (i, l.relative_speed(&deleted)))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("at least one lane");
                // Candidate formats: non-golden, not fully deleted; prefer the
                // one with the least impact on the worst consumer.
                let mut candidate: Option<(usize, f64)> = None;
                for idx in 1..inputs.formats.len() {
                    if deleted[idx] >= 1.0 - 1e-9 {
                        continue;
                    }
                    let mut probe = deleted.clone();
                    probe[idx] = (probe[idx] + 0.05).min(1.0);
                    let impact = worst_speed - lanes[worst_idx].relative_speed(&probe);
                    let better = match candidate {
                        None => true,
                        Some((_, best_impact)) => impact < best_impact,
                    };
                    if better {
                        candidate = Some((idx, impact));
                    }
                }
                let (chosen, _) = match candidate {
                    Some(c) => c,
                    None => break, // everything non-golden already gone
                };
                // Delete in 5 % steps until another consumer drops below the
                // worst one (max-min fairness) or the target is reached.
                loop {
                    deleted[chosen] = (deleted[chosen] + 0.05).min(1.0);
                    let overall: f64 = lanes
                        .iter()
                        .map(|l| l.relative_speed(&deleted))
                        .fold(1.0, f64::min);
                    let another_below = lanes
                        .iter()
                        .enumerate()
                        .any(|(i, l)| i != worst_idx && l.relative_speed(&deleted) < worst_speed);
                    if overall <= target + 1e-9
                        || another_below
                        || deleted[chosen] >= 1.0 - 1e-9
                        || lanes.iter().all(|l| !l.uses_format(chosen))
                    {
                        break;
                    }
                }
            }
            by_age.push(deleted.clone());
            overall_by_age.push(
                lanes
                    .iter()
                    .map(|l| l.relative_speed(&deleted))
                    .fold(1.0, f64::min),
            );
        }
        (by_age, overall_by_age)
    };

    let mut lo = 0.0f64;
    let mut hi = 8.0f64;
    let mut best: Option<(f64, Vec<Vec<f64>>, Vec<f64>)> = None;
    for _ in 0..24 {
        let mid = (lo + hi) / 2.0;
        let (by_age, overall) = plan_for(mid);
        if total_storage(inputs.formats, &by_age, lifespan) <= inputs.storage_budget {
            best = Some((mid, by_age, overall));
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let (k, by_age, overall) = match best {
        Some(found) => found,
        None => {
            // Fall back to the most aggressive decay examined.
            let (by_age, overall) = plan_for(hi);
            (hi, by_age, overall)
        }
    };

    let steps = by_age
        .iter()
        .zip(overall.iter())
        .enumerate()
        .map(|(i, (deleted, overall))| ErosionStep {
            age_days: i as u32 + 1,
            deleted: deleted
                .iter()
                .enumerate()
                .filter(|&(idx, frac)| idx != 0 && *frac > 0.0)
                .map(|(idx, frac)| (inputs.format_ids[idx], Fraction::new(*frac)))
                .collect::<BTreeMap<_, _>>(),
            overall_relative_speed: *overall,
        })
        .collect();

    Ok(ErosionPlan {
        decay_factor: k,
        p_min,
        lifespan_days: lifespan,
        steps,
    })
}

/// Total storage over the lifespan implied by an erosion plan, for a given
/// format list (golden is never eroded).
pub fn storage_under_plan(
    formats: &[DerivedSf],
    format_ids: &[FormatId],
    plan: &ErosionPlan,
) -> ByteSize {
    let seconds_per_day = 86_400.0;
    let mut total = 0u64;
    for age in 1..=plan.lifespan_days {
        let step = plan.step(age);
        for (idx, sf) in formats.iter().enumerate() {
            let deleted = if idx == 0 {
                0.0
            } else {
                step.map(|s| s.deleted_fraction(format_ids[idx]).value())
                    .unwrap_or(0.0)
            };
            total += (sf.bytes_per_video_second.bytes() as f64 * seconds_per_day * (1.0 - deleted))
                as u64;
        }
    }
    ByteSize(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cf_search::DerivedCf;
    use crate::coalesce::Coalescer;
    use crate::profiler::ProfilerConfig;
    use vstore_ops::OperatorLibrary;
    use vstore_sim::CodingCostModel;
    use vstore_types::{
        Consumer, CropFactor, Fidelity, FrameSampling, ImageQuality, OperatorKind, Resolution,
    };

    fn profiler() -> Profiler {
        Profiler::new(
            OperatorLibrary::paper_testbed(),
            CodingCostModel::paper_testbed(),
            ProfilerConfig::fast_test(),
        )
    }

    fn derived_formats(p: &Profiler) -> (Vec<DerivedSf>, Vec<(usize, FrameSampling, Speed)>) {
        let cfs = vec![
            DerivedCf {
                consumer: Consumer::new(OperatorKind::FullNN, 0.95),
                fidelity: Fidelity::new(
                    ImageQuality::Good,
                    CropFactor::C100,
                    Resolution::R600,
                    FrameSampling::S2_3,
                ),
                accuracy: 0.95,
                consumption_speed: Speed(5.0),
            },
            DerivedCf {
                consumer: Consumer::new(OperatorKind::License, 0.8),
                fidelity: Fidelity::new(
                    ImageQuality::Good,
                    CropFactor::C100,
                    Resolution::R540,
                    FrameSampling::S1_6,
                ),
                accuracy: 0.8,
                consumption_speed: Speed(60.0),
            },
            DerivedCf {
                consumer: Consumer::new(OperatorKind::Motion, 0.9),
                fidelity: Fidelity::new(
                    ImageQuality::Bad,
                    CropFactor::C75,
                    Resolution::R180,
                    FrameSampling::S1_30,
                ),
                accuracy: 0.9,
                consumption_speed: Speed(20_000.0),
            },
        ];
        let result = Coalescer::new(p).derive(&cfs).unwrap();
        let consumers: Vec<(usize, FrameSampling, Speed)> = cfs
            .iter()
            .enumerate()
            .map(|(i, cf)| {
                (
                    result.subscription_of(i).unwrap(),
                    cf.fidelity.sampling,
                    cf.consumption_speed,
                )
            })
            .collect();
        (result.formats, consumers)
    }

    fn ids(n: usize) -> Vec<FormatId> {
        (0..n as u32).map(FormatId).collect()
    }

    #[test]
    fn generous_budget_means_no_erosion() {
        let p = profiler();
        let (formats, consumers) = derived_formats(&p);
        let format_ids = ids(formats.len());
        let plan = plan_erosion(
            &p,
            &ErosionInputs {
                formats: &formats,
                format_ids: &format_ids,
                consumers: &consumers,
                lifespan_days: 10,
                storage_budget: ByteSize::from_tib(100.0),
            },
        )
        .unwrap();
        assert!(plan.is_no_op());
        assert_eq!(plan.decay_factor, 0.0);
    }

    #[test]
    fn tight_budget_produces_decaying_plan_under_budget() {
        let p = profiler();
        let (formats, consumers) = derived_formats(&p);
        let format_ids = ids(formats.len());
        let unconstrained: u64 = formats
            .iter()
            .map(|f| f.bytes_per_video_second.bytes() * 86_400 * 10)
            .sum();
        let budget = ByteSize(unconstrained * 8 / 10);
        let plan = plan_erosion(
            &p,
            &ErosionInputs {
                formats: &formats,
                format_ids: &format_ids,
                consumers: &consumers,
                lifespan_days: 10,
                storage_budget: budget,
            },
        )
        .unwrap();
        assert!(!plan.is_no_op());
        assert!(plan.decay_factor > 0.0);
        // Overall speed is non-increasing with age and bounded by [Pmin, 1].
        let mut prev = 1.0 + 1e-9;
        for step in &plan.steps {
            assert!(step.overall_relative_speed <= prev + 1e-9);
            assert!(step.overall_relative_speed >= plan.p_min - 1e-9);
            prev = step.overall_relative_speed;
        }
        // Deleted fractions only grow with age and never touch the golden
        // format.
        for w in plan.steps.windows(2) {
            for (id, frac) in &w[0].deleted {
                assert!(w[1].deleted_fraction(*id).value() + 1e-9 >= frac.value());
                assert!(!id.is_golden());
            }
        }
        // The plan meets the budget.
        assert!(storage_under_plan(&formats, &format_ids, &plan) <= budget);
    }

    #[test]
    fn impossible_budget_is_rejected() {
        let p = profiler();
        let (formats, consumers) = derived_formats(&p);
        let format_ids = ids(formats.len());
        let err = plan_erosion(
            &p,
            &ErosionInputs {
                formats: &formats,
                format_ids: &format_ids,
                consumers: &consumers,
                lifespan_days: 10,
                storage_budget: ByteSize::from_mib(1.0),
            },
        )
        .unwrap_err();
        assert!(matches!(err, VStoreError::BudgetUnsatisfiable(_)));
    }

    #[test]
    fn tighter_budgets_need_steeper_decay() {
        let p = profiler();
        let (formats, consumers) = derived_formats(&p);
        let format_ids = ids(formats.len());
        let unconstrained: u64 = formats
            .iter()
            .map(|f| f.bytes_per_video_second.bytes() * 86_400 * 10)
            .sum();
        let plan = |fraction: f64| {
            plan_erosion(
                &p,
                &ErosionInputs {
                    formats: &formats,
                    format_ids: &format_ids,
                    consumers: &consumers,
                    lifespan_days: 10,
                    storage_budget: ByteSize((unconstrained as f64 * fraction) as u64),
                },
            )
            .unwrap()
        };
        let loose = plan(0.95);
        let tight = plan(0.80);
        assert!(tight.decay_factor >= loose.decay_factor);
    }

    #[test]
    fn fallback_parents_form_a_tree_rooted_at_golden() {
        let p = profiler();
        let (formats, _) = derived_formats(&p);
        let parents = fallback_parents(&formats);
        assert_eq!(parents[0], 0);
        for (i, &parent) in parents.iter().enumerate().skip(1) {
            assert_ne!(parent, i, "format {i} is its own parent");
            assert!(
                formats[parent]
                    .format
                    .fidelity
                    .richer_or_equal(&formats[i].format.fidelity),
                "parent of {i} is not richer"
            );
            let chain = fallback_chain(&parents, i);
            assert_eq!(
                *chain.last().unwrap(),
                0,
                "chain of {i} does not reach golden"
            );
        }
    }
}
