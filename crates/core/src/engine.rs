//! The configuration engine: backward derivation end to end, plus the
//! alternative configurations the paper compares against (§6.2).

use crate::budget::adapt_to_ingest_budget;
use crate::cf_search::{CfSearch, DerivedCf};
use crate::coalesce::{CoalesceResult, CoalesceStrategy, Coalescer, DerivedSf};
use crate::erosion::{plan_erosion, ErosionInputs};
use crate::profiler::Profiler;
use std::collections::BTreeMap;
use std::sync::Arc;
use vstore_types::{
    ByteSize, CodingOption, CodingSpace, Configuration, Consumer, ConsumptionFormat, ErosionPlan,
    Fidelity, FidelitySpace, FormatId, Result, Speed, StorageFormat, Subscription,
};

/// Alternative configurations used as baselines in §6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alternative {
    /// `1→1`: store only the golden format; every consumer also consumes the
    /// golden fidelity (a classic analytics-oblivious video database).
    OneToOne,
    /// `1→N`: store only the golden format but give each consumer its
    /// VStore-derived consumption format (configuring consumption but not
    /// storage) — retrieval of the golden format caps everyone's speed.
    OneToN,
    /// `N→N`: store one format per unique consumption format (no
    /// coalescing).
    NToN,
}

/// Options controlling a configuration derivation.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// The fidelity space searched for consumption formats.
    pub fidelity_space: FidelitySpace,
    /// The coding space considered for storage formats.
    pub coding_space: CodingSpace,
    /// The coalescing pair-selection strategy.
    pub strategy: CoalesceStrategy,
    /// Ingestion budget in CPU cores per stream, if any.
    pub ingest_budget_cores: Option<f64>,
    /// Storage budget per stream over its lifespan, if any.
    pub storage_budget: Option<ByteSize>,
    /// Video lifespan in days.
    pub lifespan_days: u32,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            fidelity_space: FidelitySpace::full(),
            coding_space: CodingSpace::full(),
            strategy: CoalesceStrategy::Heuristic,
            ingest_budget_cores: None,
            storage_budget: None,
            lifespan_days: 10,
        }
    }
}

/// The backward-derivation configuration engine.
pub struct ConfigurationEngine {
    profiler: Arc<Profiler>,
    options: EngineOptions,
}

impl ConfigurationEngine {
    /// An engine over the given profiler with the given options.
    pub fn new(profiler: Arc<Profiler>, options: EngineOptions) -> Self {
        ConfigurationEngine { profiler, options }
    }

    /// An engine with default options (full spaces, heuristic coalescing, no
    /// budgets, 10-day lifespan).
    pub fn with_defaults(profiler: Arc<Profiler>) -> Self {
        ConfigurationEngine::new(profiler, EngineOptions::default())
    }

    /// The profiler in use.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The options in use.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    // -----------------------------------------------------------------
    // Step 1: consumption formats
    // -----------------------------------------------------------------

    /// Derive a consumption format for every consumer (§4.2).
    pub fn derive_consumption_formats(&self, consumers: &[Consumer]) -> Result<Vec<DerivedCf>> {
        let search = CfSearch::with_space(&self.profiler, self.options.fidelity_space.clone());
        consumers.iter().map(|&c| search.derive(c)).collect()
    }

    // -----------------------------------------------------------------
    // Step 2: storage formats
    // -----------------------------------------------------------------

    /// Coalesce consumption formats into storage formats (§4.3).
    pub fn derive_storage_formats(&self, cfs: &[DerivedCf]) -> Result<CoalesceResult> {
        Coalescer::new(&self.profiler)
            .with_strategy(self.options.strategy)
            .with_coding_space(self.options.coding_space.clone())
            .with_ingest_budget(self.options.ingest_budget_cores)
            .derive(cfs)
    }

    // -----------------------------------------------------------------
    // Full derivation
    // -----------------------------------------------------------------

    /// Run the full backward derivation for a consumer set and return a
    /// validated configuration.
    pub fn derive(&self, consumers: &[Consumer]) -> Result<Configuration> {
        if consumers.is_empty() {
            return Err(vstore_types::VStoreError::invalid_argument(
                "cannot derive a configuration for an empty consumer set",
            ));
        }
        let cfs = self.derive_consumption_formats(consumers)?;
        let mut coalesced = self.derive_storage_formats(&cfs)?;
        if let Some(budget) = self.options.ingest_budget_cores {
            if coalesced.total_ingest_cores > budget {
                let adapted = adapt_to_ingest_budget(&self.profiler, &coalesced.formats, budget)?;
                coalesced.total_ingest_cores = adapted.total_ingest_cores;
                coalesced.total_bytes_per_video_second =
                    ByteSize(adapted.total_bytes_per_video_second);
                coalesced.within_ingest_budget = adapted.within_budget;
                coalesced.formats = adapted.formats;
            }
        }
        let config = self.build_configuration(&cfs, &coalesced.formats)?;
        config.validate()?;
        Ok(config)
    }

    /// Build one of the §6.2 baseline configurations. These deliberately do
    /// not have to satisfy requirement R2 (that is the point of comparing
    /// against them), so they are not validated.
    pub fn derive_alternative(
        &self,
        consumers: &[Consumer],
        alternative: Alternative,
    ) -> Result<Configuration> {
        match alternative {
            Alternative::OneToOne => {
                let cfs: Vec<DerivedCf> = consumers
                    .iter()
                    .map(|&consumer| {
                        let profile = self
                            .profiler
                            .profile_consumer(consumer.op, Fidelity::INGESTION)?;
                        Ok(DerivedCf {
                            consumer,
                            fidelity: Fidelity::INGESTION,
                            accuracy: profile.accuracy,
                            consumption_speed: profile.consumption_speed,
                        })
                    })
                    .collect::<Result<_>>()?;
                let golden = self.golden_only_format(&cfs);
                self.build_configuration(&cfs, &[golden])
            }
            Alternative::OneToN => {
                let cfs = self.derive_consumption_formats(consumers)?;
                let golden = self.golden_only_format(&cfs);
                self.build_configuration(&cfs, &[golden])
            }
            Alternative::NToN => {
                let cfs = self.derive_consumption_formats(consumers)?;
                let result = Coalescer::new(&self.profiler)
                    .with_coding_space(self.options.coding_space.clone())
                    .with_max_merges(0)
                    .derive(&cfs)?;
                self.build_configuration(&cfs, &result.formats)
            }
        }
    }

    fn golden_only_format(&self, cfs: &[DerivedCf]) -> DerivedSf {
        let fidelity =
            Fidelity::join_all(cfs.iter().map(|cf| &cf.fidelity)).unwrap_or(Fidelity::INGESTION);
        let format = StorageFormat::new(fidelity, CodingOption::SMALLEST);
        let profile = self.profiler.profile_storage(format);
        DerivedSf {
            format,
            subscribers: (0..cfs.len()).collect(),
            bytes_per_video_second: profile.bytes_per_video_second,
            encode_cores: profile.encode_cores,
            sequential_retrieval_speed: profile.sequential_retrieval_speed,
            is_golden: true,
        }
    }

    /// Assemble a [`Configuration`] from derived consumption and storage
    /// formats, planning erosion when a storage budget is set.
    pub fn build_configuration(
        &self,
        cfs: &[DerivedCf],
        formats: &[DerivedSf],
    ) -> Result<Configuration> {
        let format_ids: Vec<FormatId> = formats
            .iter()
            .enumerate()
            .map(|(i, sf)| {
                if sf.is_golden {
                    FormatId::GOLDEN
                } else {
                    FormatId(i as u32)
                }
            })
            .collect();

        let mut storage_formats = BTreeMap::new();
        let mut retrieval_speeds = BTreeMap::new();
        for (sf, id) in formats.iter().zip(&format_ids) {
            storage_formats.insert(*id, sf.format);
            retrieval_speeds.insert(*id, sf.sequential_retrieval_speed);
        }

        let mut subscriptions = Vec::with_capacity(cfs.len());
        let mut erosion_consumers = Vec::with_capacity(cfs.len());
        for (i, cf) in cfs.iter().enumerate() {
            let sf_index = formats
                .iter()
                .position(|sf| sf.subscribers.contains(&i))
                .or_else(|| {
                    // Fall back to the cheapest format with satisfiable
                    // fidelity (used by the 1→1 / 1→N baselines whose single
                    // format serves everyone).
                    formats
                        .iter()
                        .position(|sf| sf.format.fidelity.richer_or_equal(&cf.fidelity))
                })
                .ok_or_else(|| {
                    vstore_types::VStoreError::FidelityUnsatisfiable(format!(
                        "no storage format can serve consumer {}",
                        cf.consumer
                    ))
                })?;
            let sf = &formats[sf_index];
            let retrieval_speed = self
                .profiler
                .retrieval_speed(&sf.format, cf.fidelity.sampling);
            subscriptions.push(Subscription {
                consumer: cf.consumer,
                consumption: ConsumptionFormat::new(cf.fidelity),
                consumption_speed: cf.consumption_speed,
                expected_accuracy: cf.accuracy,
                storage: format_ids[sf_index],
                retrieval_speed,
            });
            erosion_consumers.push((sf_index, cf.fidelity.sampling, cf.consumption_speed));
        }

        let erosion = match self.options.storage_budget {
            Some(budget) => plan_erosion(
                &self.profiler,
                &ErosionInputs {
                    formats,
                    format_ids: &format_ids,
                    consumers: &erosion_consumers,
                    lifespan_days: self.options.lifespan_days,
                    storage_budget: budget,
                },
            )?,
            None => ErosionPlan::no_erosion(self.options.lifespan_days, 0.0),
        };

        Ok(Configuration {
            storage_formats,
            retrieval_speeds,
            subscriptions,
            erosion,
        })
    }

    /// Total ingestion cost (cores) of a configuration on the profiling
    /// content.
    pub fn ingest_cores(&self, config: &Configuration) -> f64 {
        config
            .storage_formats
            .values()
            .map(|sf| self.profiler.profile_storage(*sf).encode_cores)
            .sum()
    }

    /// Total storage cost (bytes per video-second) of a configuration on the
    /// profiling content.
    pub fn storage_bytes_per_second(&self, config: &Configuration) -> ByteSize {
        config
            .storage_formats
            .values()
            .map(|sf| self.profiler.profile_storage(*sf).bytes_per_video_second)
            .sum()
    }

    /// The speed at which a consumer effectively runs under a configuration:
    /// the minimum of its consumption speed and the retrieval speed of the
    /// storage format it subscribes to.
    pub fn effective_consumer_speed(&self, config: &Configuration, consumer: &Consumer) -> Speed {
        config
            .subscription(consumer)
            .map(|sub| sub.consumption_speed.min(sub.retrieval_speed))
            .unwrap_or(Speed(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::ProfilerConfig;
    use vstore_ops::OperatorLibrary;
    use vstore_sim::CodingCostModel;
    use vstore_types::OperatorKind;

    fn profiler() -> Arc<Profiler> {
        Arc::new(Profiler::new(
            OperatorLibrary::paper_testbed(),
            CodingCostModel::paper_testbed(),
            ProfilerConfig::fast_test(),
        ))
    }

    fn small_consumer_set() -> Vec<Consumer> {
        vec![
            Consumer::new(OperatorKind::FullNN, 0.9),
            Consumer::new(OperatorKind::FullNN, 0.7),
            Consumer::new(OperatorKind::Motion, 0.9),
            Consumer::new(OperatorKind::License, 0.8),
            Consumer::new(OperatorKind::Diff, 0.9),
        ]
    }

    fn reduced_options() -> EngineOptions {
        EngineOptions {
            fidelity_space: FidelitySpace::reduced(),
            ..EngineOptions::default()
        }
    }

    #[test]
    fn full_derivation_produces_valid_configuration() {
        let engine = ConfigurationEngine::new(profiler(), reduced_options());
        let config = engine.derive(&small_consumer_set()).unwrap();
        config.validate().unwrap();
        assert!(config.golden().is_some());
        assert_eq!(config.subscriptions.len(), 5);
        // Every consumer meets its target accuracy.
        for sub in &config.subscriptions {
            assert!(sub.expected_accuracy + 1e-9 >= sub.consumer.accuracy.value());
        }
        // Coalescing produced fewer storage formats than consumers.
        assert!(config.storage_formats.len() <= 5);
    }

    #[test]
    fn one_to_one_keeps_single_format_and_full_accuracy() {
        let engine = ConfigurationEngine::new(profiler(), reduced_options());
        let config = engine
            .derive_alternative(&small_consumer_set(), Alternative::OneToOne)
            .unwrap();
        assert_eq!(config.storage_formats.len(), 1);
        for sub in &config.subscriptions {
            assert_eq!(sub.expected_accuracy, 1.0);
            assert_eq!(sub.consumption.fidelity, config.golden().unwrap().fidelity);
        }
    }

    #[test]
    fn one_to_n_bottlenecks_fast_consumers_on_retrieval() {
        let engine = ConfigurationEngine::new(profiler(), reduced_options());
        let consumers = small_consumer_set();
        let vstore = engine.derive(&consumers).unwrap();
        let one_to_n = engine
            .derive_alternative(&consumers, Alternative::OneToN)
            .unwrap();
        assert_eq!(one_to_n.storage_formats.len(), 1);
        // The fast Motion consumer is much slower under 1→N.
        let motion = Consumer::new(OperatorKind::Motion, 0.9);
        let vstore_speed = engine.effective_consumer_speed(&vstore, &motion);
        let baseline_speed = engine.effective_consumer_speed(&one_to_n, &motion);
        assert!(
            vstore_speed.factor() > baseline_speed.factor() * 2.0,
            "VStore {vstore_speed} vs 1→N {baseline_speed}"
        );
    }

    #[test]
    fn n_to_n_stores_more_formats_and_costs_more() {
        let engine = ConfigurationEngine::new(profiler(), reduced_options());
        let consumers = small_consumer_set();
        let vstore = engine.derive(&consumers).unwrap();
        let n_to_n = engine
            .derive_alternative(&consumers, Alternative::NToN)
            .unwrap();
        assert!(n_to_n.storage_formats.len() >= vstore.storage_formats.len());
        assert!(
            engine.storage_bytes_per_second(&n_to_n).bytes()
                >= engine.storage_bytes_per_second(&vstore).bytes()
        );
        assert!(engine.ingest_cores(&n_to_n) >= engine.ingest_cores(&vstore) * 0.99);
    }

    #[test]
    fn storage_budget_triggers_erosion_plan() {
        let base = ConfigurationEngine::new(profiler(), reduced_options());
        let consumers = small_consumer_set();
        let unbudgeted = base.derive(&consumers).unwrap();
        let per_second = base.storage_bytes_per_second(&unbudgeted).bytes();
        let ten_days = per_second * 86_400 * 10;
        let mut options = reduced_options();
        options.storage_budget = Some(ByteSize(ten_days * 17 / 20));
        let engine = ConfigurationEngine::new(profiler(), options);
        let config = engine.derive(&consumers).unwrap();
        assert!(!config.erosion.is_no_op(), "tight budget should erode");
        assert!(config.erosion.decay_factor > 0.0);
    }

    #[test]
    fn ingest_budget_is_respected() {
        let base = ConfigurationEngine::new(profiler(), reduced_options());
        let consumers = small_consumer_set();
        let unbudgeted = base.derive(&consumers).unwrap();
        let cores = base.ingest_cores(&unbudgeted);
        let mut options = reduced_options();
        options.ingest_budget_cores = Some(cores * 0.5);
        let engine = ConfigurationEngine::new(profiler(), options);
        let config = engine.derive(&consumers).unwrap();
        assert!(engine.ingest_cores(&config) <= cores * 0.5 + 0.5);
        config.validate().unwrap();
    }
}
