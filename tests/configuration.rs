//! Integration tests of the backward-derivation pipeline across crates:
//! the full 24-consumer configuration, the requirements R1–R4 of §3.1, and
//! the behaviour of the alternative configurations.

use std::sync::Arc;
use vstore_core::profiler::{Profiler, ProfilerConfig};
use vstore_core::{Alternative, CoalesceStrategy, ConfigurationEngine, EngineOptions};
use vstore_ops::OperatorLibrary;
use vstore_sim::CodingCostModel;
use vstore_types::{ByteSize, Consumer, FidelitySpace, OperatorKind};

fn profiler() -> Arc<Profiler> {
    Arc::new(Profiler::new(
        OperatorLibrary::paper_testbed(),
        CodingCostModel::paper_testbed(),
        ProfilerConfig::fast_test(),
    ))
}

fn reduced_options() -> EngineOptions {
    EngineOptions {
        fidelity_space: FidelitySpace::reduced(),
        ..EngineOptions::default()
    }
}

#[test]
fn full_24_consumer_configuration_satisfies_r1_to_r3() {
    let profiler = profiler();
    let engine = ConfigurationEngine::new(Arc::clone(&profiler), reduced_options());
    let consumers = Consumer::evaluation_set();
    let config = engine.derive(&consumers).expect("derivation succeeds");
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
    let profiler = profiler();
    let engine = ConfigurationEngine::new(profiler, reduced_options());
    let consumers = Consumer::evaluation_set();
    let config = engine.derive(&consumers).unwrap();
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
    let profiler = profiler();
    let engine = ConfigurationEngine::new(Arc::clone(&profiler), reduced_options());
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
    let storage = |cfg: &vstore_types::Configuration| engine.storage_bytes_per_second(cfg).bytes();
    assert_eq!(storage(&one_to_one), storage(&one_to_n));
    assert!(storage(&one_to_one) <= storage(&vstore));
    assert!(storage(&vstore) <= storage(&n_to_n));

    // Ingest cost: single-format baselines are cheapest, N→N most expensive.
    let ingest = |cfg: &vstore_types::Configuration| engine.ingest_cores(cfg);
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
fn distance_based_coalescing_never_beats_heuristic_storage() {
    let profiler = profiler();
    let heuristic_engine = ConfigurationEngine::new(Arc::clone(&profiler), reduced_options());
    let distance_engine = ConfigurationEngine::new(
        Arc::clone(&profiler),
        EngineOptions {
            strategy: CoalesceStrategy::DistanceBased,
            ..reduced_options()
        },
    );
    let consumers: Vec<Consumer> = OperatorKind::QUERY_OPS
        .iter()
        .flat_map(|&op| [0.9, 0.8].into_iter().map(move |a| Consumer::new(op, a)))
        .collect();
    let cfs = heuristic_engine
        .derive_consumption_formats(&consumers)
        .unwrap();
    let heuristic = heuristic_engine.derive_storage_formats(&cfs).unwrap();
    let distance = distance_engine.derive_storage_formats(&cfs).unwrap();
    assert!(
        distance.total_bytes_per_video_second.bytes() + 1
            >= heuristic.total_bytes_per_video_second.bytes()
    );
}

#[test]
fn storage_budget_produces_feasible_erosion_across_the_board() {
    let profiler = profiler();
    let base = ConfigurationEngine::new(Arc::clone(&profiler), reduced_options());
    let consumers = Consumer::evaluation_set();
    let unbudgeted = base.derive(&consumers).unwrap();
    let per_second = base.storage_bytes_per_second(&unbudgeted).bytes();
    let lifespan_days = 10u64;
    let footprint = per_second * 86_400 * lifespan_days;

    let engine = ConfigurationEngine::new(
        Arc::clone(&profiler),
        EngineOptions {
            storage_budget: Some(ByteSize(footprint * 9 / 10)),
            lifespan_days: lifespan_days as u32,
            ..reduced_options()
        },
    );
    let config = engine.derive(&consumers).unwrap();
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
