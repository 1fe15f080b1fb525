//! Integration tests of the backward-derivation pipeline across crates:
//! the full 24-consumer configuration, the requirements R1–R4 of §3.1, and
//! the behaviour of the alternative configurations.

use std::sync::{Arc, OnceLock};
use vstore_core::profiler::{Profiler, ProfilerConfig};
use vstore_core::{Alternative, ConfigurationEngine, EngineOptions};
use vstore_ops::OperatorLibrary;
use vstore_sim::CodingCostModel;
use vstore_types::{ByteSize, Configuration, Consumer, FidelitySpace, OperatorKind};

/// One fast profiler for the whole suite: its memo makes every profile
/// after the first free.
fn profiler() -> Arc<Profiler> {
    static PROFILER: OnceLock<Arc<Profiler>> = OnceLock::new();
    let profiler = PROFILER.get_or_init(|| {
        Arc::new(Profiler::new(
            OperatorLibrary::paper_testbed(),
            CodingCostModel::paper_testbed(),
            ProfilerConfig::fast_test(),
        ))
    });
    Arc::clone(profiler)
}

fn reduced_options() -> EngineOptions {
    EngineOptions {
        fidelity_space: FidelitySpace::reduced(),
        ..EngineOptions::default()
    }
}

/// The 24-consumer evaluation set over the reduced space, derived once and
/// read by three tests.
fn evaluation() -> &'static Configuration {
    static CONFIG: OnceLock<Configuration> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let engine = ConfigurationEngine::new(profiler(), reduced_options());
        engine
            .derive(&Consumer::evaluation_set())
            .expect("derivation succeeds")
    })
}

#[test]
fn full_24_consumer_configuration_satisfies_r1_to_r3() {
    let consumers = Consumer::evaluation_set();
    let config = evaluation();
    config.validate().expect("R1/R2 validation");

    assert_eq!(config.subscriptions.len(), 24);
    // The golden format serves as the root and is the richest stored format.
    let golden = config.golden().unwrap();
    for sf in config.storage_formats.values() {
        assert!(golden.fidelity.richer_or_equal(&sf.fidelity));
    }
    // R3: consolidation — far fewer storage formats than consumers, and
    // strictly fewer than unique consumption formats unless nothing could be
    // merged.
    assert!(config.storage_formats.len() < consumers.len());
    assert!(config.storage_formats.len() <= config.unique_consumption_formats());
    // Accuracy targets met.
    for sub in &config.subscriptions {
        assert!(sub.expected_accuracy + 1e-9 >= sub.consumer.accuracy.value());
    }
    // The configuration is non-trivial: multiple knobs derived automatically.
    assert!(
        config.knob_count() > 40,
        "only {} knobs",
        config.knob_count()
    );
}

#[test]
fn lower_accuracy_consumers_get_no_slower_formats() {
    let config = evaluation();
    for op in OperatorKind::QUERY_OPS {
        let mut last_speed = f64::INFINITY;
        // Accuracy levels in descending order: 0.95, 0.9, 0.8, 0.7.
        for accuracy in [0.95, 0.9, 0.8, 0.7] {
            let sub = config.subscription(&Consumer::new(op, accuracy)).unwrap();
            assert!(
                sub.consumption_speed.factor() >= last_speed * 0.999 || last_speed == f64::INFINITY,
                "{op:?}@{accuracy}: speed decreased when the target was relaxed"
            );
            last_speed = last_speed.min(sub.consumption_speed.factor());
        }
    }
}

#[test]
fn alternatives_rank_as_in_the_paper() {
    let engine = ConfigurationEngine::new(profiler(), reduced_options());
    let consumers: Vec<Consumer> = vec![
        Consumer::new(OperatorKind::Diff, 0.9),
        Consumer::new(OperatorKind::SpecializedNN, 0.9),
        Consumer::new(OperatorKind::FullNN, 0.9),
        Consumer::new(OperatorKind::FullNN, 0.7),
    ];
    let vstore = engine.derive(&consumers).unwrap();
    let one_to_one = engine
        .derive_alternative(&consumers, Alternative::OneToOne)
        .unwrap();
    let one_to_n = engine
        .derive_alternative(&consumers, Alternative::OneToN)
        .unwrap();
    let n_to_n = engine
        .derive_alternative(&consumers, Alternative::NToN)
        .unwrap();

    // Storage cost: 1→1 = 1→N ≤ VStore ≤ N→N.
    let storage = |cfg: &Configuration| engine.storage_bytes_per_second(cfg).bytes();
    assert_eq!(storage(&one_to_one), storage(&one_to_n));
    assert!(storage(&one_to_one) <= storage(&vstore));
    assert!(storage(&vstore) <= storage(&n_to_n));

    // Ingest cost: single-format baselines are cheapest, N→N most expensive.
    let ingest = |cfg: &Configuration| engine.ingest_cores(cfg);
    assert!(ingest(&one_to_one) <= ingest(&vstore) + 1e-9);
    assert!(ingest(&vstore) <= ingest(&n_to_n) + 1e-9);

    // Effective speed of the fast Diff consumer: VStore ≥ 1→N.
    let diff = Consumer::new(OperatorKind::Diff, 0.9);
    assert!(
        engine.effective_consumer_speed(&vstore, &diff).factor()
            >= engine.effective_consumer_speed(&one_to_n, &diff).factor()
    );
}

#[test]
fn storage_budget_produces_feasible_erosion_across_the_board() {
    let base = ConfigurationEngine::new(profiler(), reduced_options());
    let per_second = base.storage_bytes_per_second(evaluation()).bytes();
    let lifespan_days = 10u64;
    let footprint = per_second * 86_400 * lifespan_days;

    let engine = ConfigurationEngine::new(
        profiler(),
        EngineOptions {
            storage_budget: Some(ByteSize(footprint * 9 / 10)),
            lifespan_days: lifespan_days as u32,
            ..reduced_options()
        },
    );
    let config = engine.derive(&Consumer::evaluation_set()).unwrap();
    let plan = &config.erosion;
    assert!(plan.decay_factor >= 0.0);
    // Deleted fractions are cumulative (non-decreasing with age) and the
    // overall speed is non-increasing.
    let mut prev_speed = 1.0 + 1e-9;
    for step in &plan.steps {
        assert!(step.overall_relative_speed <= prev_speed + 1e-9);
        prev_speed = step.overall_relative_speed;
        for id in step.deleted.keys() {
            assert!(!id.is_golden(), "golden format must never be eroded");
        }
    }
}
