//! The configuration data model produced by backward derivation (§4):
//! consumption formats, storage formats, subscriptions, and the data
//! erosion plan.

use crate::consumer::Consumer;
use crate::error::{Result, VStoreError};
use crate::fidelity::Fidelity;
use crate::format::{ConsumptionFormat, FormatId, StorageFormat};
use crate::units::{Fraction, Speed};
use std::collections::BTreeMap;
use std::fmt;

/// The binding of one consumer to its consumption format and, downstream,
/// to the storage format the consumption format subscribes to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Subscription {
    /// The consumer this subscription serves.
    pub consumer: Consumer,
    /// The consumption format derived for the consumer (§4.2).
    pub consumption: ConsumptionFormat,
    /// Expected consumption speed of the consumer on that format.
    pub consumption_speed: Speed,
    /// Expected accuracy (F1) achieved on that format.
    pub expected_accuracy: f64,
    /// The storage format the consumption format subscribes to (§4.3).
    pub storage: FormatId,
    /// Retrieval speed of that storage format when serving *this* consumer
    /// (its sampling rate determines how much GOP skipping applies).
    /// Requirement R2 demands this is at least `consumption_speed`.
    pub retrieval_speed: Speed,
}

/// One age step of the erosion plan: for a given video age (in days), the
/// cumulative fraction of segments deleted from each storage format.
#[derive(Debug, Clone, PartialEq)]
pub struct ErosionStep {
    /// Video age in days (1 = youngest full day).
    pub age_days: u32,
    /// Cumulative deleted fraction per storage format.
    pub deleted: BTreeMap<FormatId, Fraction>,
    /// The overall (max-min fair) relative consumer speed at this age.
    pub overall_relative_speed: f64,
}

impl ErosionStep {
    /// Deleted fraction of the given format at this age (zero if absent).
    pub fn deleted_fraction(&self, id: FormatId) -> Fraction {
        self.deleted.get(&id).copied().unwrap_or(Fraction::ZERO)
    }
}

/// The age-based data erosion plan (§4.4).
#[derive(Debug, Clone, PartialEq)]
pub struct ErosionPlan {
    /// The decay factor `k` of the power-law target
    /// `P(x) = (1 − Pmin)·x^(−k) + Pmin`.
    pub decay_factor: f64,
    /// The minimum overall relative speed (all non-golden formats deleted).
    pub p_min: f64,
    /// Video lifespan in days.
    pub lifespan_days: u32,
    /// One step per age, ordered by age.
    pub steps: Vec<ErosionStep>,
}

impl ErosionPlan {
    /// A plan that never deletes anything (decay factor 0).
    pub fn no_erosion(lifespan_days: u32, p_min: f64) -> Self {
        let steps = (1..=lifespan_days)
            .map(|age_days| ErosionStep {
                age_days,
                deleted: BTreeMap::new(),
                overall_relative_speed: 1.0,
            })
            .collect();
        ErosionPlan {
            decay_factor: 0.0,
            p_min,
            lifespan_days,
            steps,
        }
    }

    /// The power-law speed target for a given age.
    pub fn speed_target(&self, age_days: u32) -> f64 {
        power_law_target(self.decay_factor, self.p_min, age_days)
    }

    /// The plan step for a given age, if within the lifespan.
    pub fn step(&self, age_days: u32) -> Option<&ErosionStep> {
        self.steps.iter().find(|s| s.age_days == age_days)
    }

    /// `true` if the plan never deletes any segment.
    pub fn is_no_op(&self) -> bool {
        self.steps
            .iter()
            .all(|s| s.deleted.values().all(|f| f.value() == 0.0))
    }
}

/// The power-law overall-speed target `P(x) = (1 − Pmin)·x^(−k) + Pmin`
/// used to schedule erosion over video ages (§4.4).
pub fn power_law_target(decay_factor: f64, p_min: f64, age_days: u32) -> f64 {
    let x = f64::from(age_days.max(1));
    (1.0 - p_min) * x.powf(-decay_factor) + p_min
}

/// A complete VStore configuration: the global set of video formats plus the
/// per-consumer subscriptions and the erosion plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Configuration {
    /// All storage formats, keyed by id. Always contains
    /// [`FormatId::GOLDEN`].
    pub storage_formats: BTreeMap<FormatId, StorageFormat>,
    /// Sequential retrieval (decode) speed of each storage format, as
    /// profiled at configuration time — the per-format figure of Table 3(b).
    pub retrieval_speeds: BTreeMap<FormatId, Speed>,
    /// One subscription per consumer.
    pub subscriptions: Vec<Subscription>,
    /// The erosion plan (may be a no-op when storage is under budget).
    pub erosion: ErosionPlan,
}

impl Configuration {
    /// The golden storage format (richest fidelity, never eroded).
    pub fn golden(&self) -> Option<&StorageFormat> {
        self.storage_formats.get(&FormatId::GOLDEN)
    }

    /// Number of *unique* consumption formats across all subscriptions.
    pub fn unique_consumption_formats(&self) -> usize {
        let mut fids: Vec<Fidelity> = self
            .subscriptions
            .iter()
            .map(|s| s.consumption.fidelity)
            .collect();
        fids.sort_by_key(|f| {
            (
                f.quality.rank(),
                f.crop.rank(),
                f.resolution.rank(),
                f.sampling.rank(),
            )
        });
        fids.dedup();
        fids.len()
    }

    /// Total number of knob values across all unique consumption formats
    /// (4 each) and storage formats (4 fidelity + up to 2 coding each). The
    /// paper quotes 109 knobs for its sample configuration.
    pub fn knob_count(&self) -> usize {
        let cf_knobs = self.unique_consumption_formats() * 4;
        let sf_knobs: usize = self
            .storage_formats
            .values()
            .map(|sf| 4 + if sf.coding.is_raw() { 1 } else { 2 })
            .sum();
        cf_knobs + sf_knobs
    }

    /// The subscription of a given consumer, if present.
    pub fn subscription(&self, consumer: &Consumer) -> Option<&Subscription> {
        self.subscriptions.iter().find(|s| s.consumer == *consumer)
    }

    /// Validate the configuration invariants (requirements R1–R3):
    ///
    /// * every subscription references an existing storage format;
    /// * each storage format's fidelity is richer-or-equal to that of every
    ///   consumption format subscribing to it (R1);
    /// * each storage format's retrieval speed is at least the consumption
    ///   speed of every downstream consumer (R2);
    /// * the golden format exists and is richer-or-equal to every stored
    ///   format and every consumption format.
    pub fn validate(&self) -> Result<()> {
        let golden = self.golden().ok_or_else(|| {
            VStoreError::InvalidState("configuration lacks a golden format".into())
        })?;
        for (id, sf) in &self.storage_formats {
            if !golden.fidelity.richer_or_equal(&sf.fidelity) {
                return Err(VStoreError::InvalidState(format!(
                    "golden format {} is not richer than {} ({})",
                    golden.fidelity, id, sf.fidelity
                )));
            }
        }
        for sub in &self.subscriptions {
            let sf = self.storage_formats.get(&sub.storage).ok_or_else(|| {
                VStoreError::InvalidState(format!(
                    "subscription of {} references missing {}",
                    sub.consumer, sub.storage
                ))
            })?;
            if !sf.satisfies(&sub.consumption) {
                return Err(VStoreError::FidelityUnsatisfiable(format!(
                    "{} (fidelity {}) cannot serve consumer {} needing {}",
                    sub.storage, sf.fidelity, sub.consumer, sub.consumption.fidelity
                )));
            }
            // Requirement R2: retrieval must not bottleneck consumption. A
            // small tolerance absorbs profiling noise.
            if sub.retrieval_speed.factor() < sub.consumption_speed.factor() * 0.999 {
                return Err(VStoreError::InvalidState(format!(
                    "retrieval of {} ({}) slower than consumer {} ({})",
                    sub.storage, sub.retrieval_speed, sub.consumer, sub.consumption_speed
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Configuration: {} consumers, {} unique CFs, {} SFs, {} knobs",
            self.subscriptions.len(),
            self.unique_consumption_formats(),
            self.storage_formats.len(),
            self.knob_count()
        )?;
        for (id, sf) in &self.storage_formats {
            let speed = self
                .retrieval_speeds
                .get(id)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "?".into());
            writeln!(f, "  {id}: {} (retrieval {speed})", sf.label())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consumer::OperatorKind;
    use crate::format::CodingOption;
    use crate::knobs::{CropFactor, FrameSampling, ImageQuality, Resolution};

    fn sample_config() -> Configuration {
        let golden = StorageFormat::new(Fidelity::INGESTION, CodingOption::SMALLEST);
        let low = Fidelity::new(
            ImageQuality::Bad,
            CropFactor::C100,
            Resolution::R100,
            FrameSampling::S1_30,
        );
        let sf1 = StorageFormat::new(
            Fidelity::new(
                ImageQuality::Best,
                CropFactor::C100,
                Resolution::R200,
                FrameSampling::Full,
            ),
            CodingOption::Raw,
        );
        let mut storage_formats = BTreeMap::new();
        storage_formats.insert(FormatId::GOLDEN, golden);
        storage_formats.insert(FormatId(1), sf1);
        let mut retrieval_speeds = BTreeMap::new();
        retrieval_speeds.insert(FormatId::GOLDEN, Speed(23.0));
        retrieval_speeds.insert(FormatId(1), Speed(2000.0));
        let subscriptions = vec![
            Subscription {
                consumer: Consumer::new(OperatorKind::FullNN, 0.95),
                consumption: ConsumptionFormat::new(Fidelity::new(
                    ImageQuality::Good,
                    CropFactor::C100,
                    Resolution::R600,
                    FrameSampling::S2_3,
                )),
                consumption_speed: Speed(4.0),
                expected_accuracy: 0.96,
                storage: FormatId::GOLDEN,
                retrieval_speed: Speed(23.0),
            },
            Subscription {
                consumer: Consumer::new(OperatorKind::Motion, 0.9),
                consumption: ConsumptionFormat::new(low),
                consumption_speed: Speed(1500.0),
                expected_accuracy: 0.93,
                storage: FormatId(1),
                retrieval_speed: Speed(2000.0),
            },
        ];
        Configuration {
            storage_formats,
            retrieval_speeds,
            subscriptions,
            erosion: ErosionPlan::no_erosion(10, 0.1),
        }
    }

    #[test]
    fn valid_configuration_passes() {
        let cfg = sample_config();
        cfg.validate()
            .expect("sample configuration should be valid");
        assert_eq!(cfg.unique_consumption_formats(), 2);
        assert!(cfg.knob_count() > 0);
        assert!(cfg.golden().is_some());
        assert!(cfg.to_string().contains("SFg"));
    }

    #[test]
    fn unsatisfiable_fidelity_is_rejected() {
        let mut cfg = sample_config();
        // Make the Motion consumer demand a fidelity richer than SF1 offers.
        cfg.subscriptions[1].consumption = ConsumptionFormat::new(Fidelity::INGESTION);
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, VStoreError::FidelityUnsatisfiable(_)));
    }

    #[test]
    fn slow_retrieval_is_rejected() {
        let mut cfg = sample_config();
        cfg.subscriptions[1].retrieval_speed = Speed(10.0);
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, VStoreError::InvalidState(_)));
    }

    #[test]
    fn missing_golden_is_rejected() {
        let mut cfg = sample_config();
        cfg.storage_formats.remove(&FormatId::GOLDEN);
        // Repoint the NN subscription at SF1 so the only violation left is
        // the missing golden format.
        cfg.subscriptions[0].storage = FormatId(1);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn power_law_targets_decay() {
        let p1 = power_law_target(1.0, 0.1, 1);
        let p5 = power_law_target(1.0, 0.1, 5);
        let p10 = power_law_target(1.0, 0.1, 10);
        assert!((p1 - 1.0).abs() < 1e-12);
        assert!(p5 < p1 && p10 < p5);
        assert!(p10 >= 0.1);
        // Higher k decays faster.
        assert!(power_law_target(3.0, 0.1, 5) < power_law_target(1.0, 0.1, 5));
        // k = 0 never decays.
        assert_eq!(power_law_target(0.0, 0.1, 7), 1.0);
    }

    #[test]
    fn no_erosion_plan_is_no_op() {
        let plan = ErosionPlan::no_erosion(10, 0.05);
        assert!(plan.is_no_op());
        assert_eq!(plan.steps.len(), 10);
        assert_eq!(plan.speed_target(10), 1.0);
        assert_eq!(
            plan.step(3).unwrap().deleted_fraction(FormatId(1)),
            Fraction::ZERO
        );
    }
}
