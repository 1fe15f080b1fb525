//! Cross-crate integration tests: the full VStore lifecycle — configure,
//! ingest, query, erode — exercised through the public service handle and
//! its request builders, plus the §6.2-style comparison against the
//! baseline configurations. Every store is in memory, so the suite leaves
//! nothing on disk.

use std::collections::BTreeMap;
use vstore::{
    Alternative, BackendOptions, ErodeRequest, IngestRequest, QueryRequest, QuerySpec, VStore,
    VStoreOptions,
};
use vstore_datasets::{Dataset, VideoSource};
use vstore_types::{Consumer, ErosionStep, Fraction, OperatorKind};

fn open_mem() -> VStore {
    let options = VStoreOptions::fast().with_backend(BackendOptions::Mem);
    VStore::open("unused: in memory", options).unwrap()
}

#[test]
fn configure_ingest_query_lifecycle() {
    let store = open_mem();
    let query_hi = QuerySpec::query_a(0.9);
    let query_lo = QuerySpec::query_a(0.7);
    let mut consumers = query_hi.consumers();
    consumers.extend(query_lo.consumers());

    let config = store.configure(&consumers).unwrap();
    config.validate().unwrap();
    assert!(!config.storage_formats.is_empty());
    assert_eq!(config.subscriptions.len(), 6);

    let source = VideoSource::new(Dataset::Jackson);
    let report = store
        .ingest(IngestRequest::new(&source).segments(3))
        .unwrap();
    assert_eq!(report.segments_written, 3 * config.storage_formats.len());
    assert!(report.transcode_cores() > 0.0);
    assert!(store.store_stats().live_segments > 0);

    // The query runs and the relaxed accuracy target is at least as fast.
    let hi = store
        .query(QueryRequest::new("jackson", &query_hi).segments(3))
        .unwrap();
    let lo = store
        .query(QueryRequest::new("jackson", &query_lo).segments(3))
        .unwrap();
    assert!(hi.speed.factor() > 1.0);
    assert!(
        lo.speed.factor() >= hi.speed.factor() * 0.9,
        "lower accuracy should not be meaningfully slower: {} vs {}",
        lo.speed,
        hi.speed
    );
    // Cascade stage invariants.
    for result in [&hi, &lo] {
        assert_eq!(result.stages.len(), 3);
        for w in result.stages.windows(2) {
            assert!(w[1].segments_processed <= w[0].segments_passed);
        }
    }
}

#[test]
fn vstore_beats_one_to_n_baseline_end_to_end() {
    let store = open_mem();
    let query = QuerySpec::query_b(0.8);
    let consumers = query.consumers();

    let vstore_cfg = store.configure(&consumers).unwrap();
    let baseline = store
        .engine()
        .derive_alternative(&consumers, Alternative::OneToN)
        .unwrap();

    // Ingest under both configurations; they share the golden format id,
    // so the baseline reads the same golden segments.
    let source = VideoSource::new(Dataset::Park);
    store
        .ingest(IngestRequest::new(&source).segments(2))
        .unwrap();
    store.install_configuration(baseline.clone());
    store
        .ingest(IngestRequest::new(&source).segments(2))
        .unwrap();

    store.install_configuration((*vstore_cfg).clone());
    let fast = store
        .query(QueryRequest::new("park", &query).segments(2))
        .unwrap();
    store.install_configuration(baseline);
    let slow = store
        .query(QueryRequest::new("park", &query).segments(2))
        .unwrap();
    assert!(
        fast.speed.factor() > slow.speed.factor(),
        "VStore {} should beat 1→N {}",
        fast.speed,
        slow.speed
    );
}

#[test]
fn erosion_degrades_speed_but_preserves_results() {
    let store = open_mem();
    let query = QuerySpec::query_a(0.8);
    store.configure(&query.consumers()).unwrap();
    let source = VideoSource::new(Dataset::Tucson);
    store
        .ingest(IngestRequest::new(&source).segments(2))
        .unwrap();

    let before = store
        .query(QueryRequest::new("tucson", &query).segments(2))
        .unwrap();

    // Install a plan that deletes 100 % of every non-golden format on day 1.
    let mut config = (*store.configuration().unwrap()).clone();
    let deleted: BTreeMap<_, _> = config
        .storage_formats
        .keys()
        .filter(|id| !id.is_golden())
        .map(|id| (*id, Fraction::ONE))
        .collect();
    config.erosion.steps = vec![ErosionStep {
        age_days: 1,
        deleted,
        overall_relative_speed: 0.5,
    }];
    store.install_configuration(config);
    let removed = store
        .erode(ErodeRequest::new("tucson").at_age_days(1))
        .unwrap();
    assert!(
        removed.segments_deleted > 0,
        "expected some segments to be eroded"
    );

    let after = store
        .query(QueryRequest::new("tucson", &query).segments(2))
        .unwrap();
    // All stages still execute (fallback to the golden format)…
    assert_eq!(after.stages[0].segments_processed, 2);
    assert!(after.stages.iter().any(|s| s.fallback_segments > 0));
    // …but the query can only be slower or equal.
    assert!(after.speed.factor() <= before.speed.factor() * 1.01);
}

#[test]
fn every_consumer_meets_its_accuracy_target() {
    let store = open_mem();
    let consumers: Vec<Consumer> = [
        (OperatorKind::Diff, 0.9),
        (OperatorKind::SpecializedNN, 0.8),
        (OperatorKind::FullNN, 0.9),
        (OperatorKind::Motion, 0.95),
        (OperatorKind::License, 0.8),
        (OperatorKind::Ocr, 0.7),
    ]
    .into_iter()
    .map(|(op, acc)| Consumer::new(op, acc))
    .collect();
    let config = store.configure(&consumers).unwrap();
    for sub in &config.subscriptions {
        assert!(
            sub.expected_accuracy + 1e-9 >= sub.consumer.accuracy.value(),
            "{} missed its target: {} < {}",
            sub.consumer,
            sub.expected_accuracy,
            sub.consumer.accuracy.value()
        );
        assert!(
            sub.retrieval_speed.factor() >= sub.consumption_speed.factor() * 0.999,
            "retrieval bottlenecks {}",
            sub.consumer
        );
    }
}
