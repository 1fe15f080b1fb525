//! What configuration derivation and queries output, pinned: the CRC-32 of
//! the `Debug` of the configurations derived for queries A and B at
//! accuracy 0.8 and 0.9 on the fast options, and of the timing-free fields
//! of their results over a fixed in-memory store, and of the per-frame
//! positives of the Diff stage. Any change to a configuration knob, an
//! operator model, an operator threshold or the search that moves one
//! derived format or one positive fails here.

use std::sync::Arc;
use vstore::{BackendOptions, IngestRequest, QueryRequest, QuerySpec, VStore, VStoreOptions};
use vstore_codec::Transcoder;
use vstore_datasets::{Dataset, VideoSource};
use vstore_ingest::IngestionPipeline;
use vstore_ops::{ops::DiffOperator, Operator};
use vstore_storage::{SegmentKey, SegmentReader, SegmentStore};
use vstore_types::{crc32, OperatorKind};

/// `(query, accuracy, crc32 of the derived configuration's Debug)`.
const PINNED: [(&str, f64, u32); 4] = [
    ("A", 0.8, 0x6b61_57d3),
    ("A", 0.9, 0xdbea_3310),
    ("B", 0.8, 0x3bba_552e),
    ("B", 0.9, 0x16ab_fe6a),
];

#[test]
fn derived_configurations_are_pinned() {
    let derived: Vec<(&str, f64, u32)> = PINNED
        .iter()
        .map(|&(name, accuracy, _)| {
            let query = match name {
                "A" => QuerySpec::query_a(accuracy),
                _ => QuerySpec::query_b(accuracy),
            };
            let store = VStore::open(
                "unused",
                VStoreOptions::fast().with_backend(BackendOptions::Mem),
            )
            .unwrap();
            let config = store.configure(&query.consumers()).unwrap();
            (name, accuracy, crc32(format!("{config:?}").as_bytes()))
        })
        .collect();
    assert_eq!(derived, PINNED, "{derived:#x?}");
}

/// `(query, dataset, crc32 of the result's timing-free fields)`.
const PINNED_RESULTS: [(&str, &str, u32); 2] =
    [("A", "jackson", 0xcdea_c31e), ("B", "park", 0x9ac4_34f2)];

#[test]
fn query_results_are_pinned() {
    let store = VStore::open(
        "unused",
        VStoreOptions::fast().with_backend(BackendOptions::Mem),
    )
    .unwrap();
    let queries = [QuerySpec::query_a(0.9), QuerySpec::query_b(0.9)];
    let consumers: Vec<_> = queries.iter().flat_map(QuerySpec::consumers).collect();
    store.configure(&consumers).unwrap();
    for dataset in [Dataset::Jackson, Dataset::Park] {
        let source = VideoSource::new(dataset);
        store
            .ingest(IngestRequest::new(&source).segments(3))
            .unwrap();
    }
    let results: Vec<(&str, &str, u32)> = queries
        .iter()
        .zip(PINNED_RESULTS)
        .map(|(query, (name, stream, _))| {
            let result = store
                .query(QueryRequest::new(stream, query).segments(3))
                .unwrap();
            // Positives per stage, frames consumed and fallbacks: what the
            // operators decided, with the modelled timings left out.
            let stages: Vec<_> = result
                .stages
                .iter()
                .map(|s| {
                    (
                        s.op,
                        s.segments_processed,
                        s.segments_passed,
                        s.frames_consumed,
                        s.fallback_segments,
                    )
                })
                .collect();
            let fields = format!("{:?} {stages:?}", result.positive_frames);
            (name, stream, crc32(fields.as_bytes()))
        })
        .collect();
    assert_eq!(results, PINNED_RESULTS, "{results:#x?}");
}

/// CRC-32 of the `(source index, positive)` of every frame `DiffOperator`
/// gives on the Diff consumer's views of Jackson segments 0–2 under query
/// A's configuration (accuracy 0.8), each segment one clip as the query
/// engine runs it. Frames of those segments lie on both sides of the
/// default threshold 1.5, within 0.5 of it, so a threshold of 1.0 or 2.0
/// moves a positive.
const PINNED_DIFF: u32 = 0x5d79_6917;

#[test]
fn diff_positives_are_pinned() {
    let facade = VStore::open(
        "unused",
        VStoreOptions::fast().with_backend(BackendOptions::Mem),
    )
    .unwrap();
    let config = facade
        .configure(&QuerySpec::query_a(0.8).consumers())
        .unwrap();
    let diff = config
        .subscriptions
        .iter()
        .find(|s| s.consumer.op == OperatorKind::Diff)
        .unwrap();
    let store = Arc::new(SegmentStore::open_mem_with_shards(1).unwrap());
    let reader = Arc::new(SegmentReader::disabled(Arc::clone(&store)));
    let pipeline = IngestionPipeline::new(Arc::clone(&reader), Transcoder::default());
    let source = VideoSource::new(Dataset::Jackson);
    let mut positives = Vec::new();
    for segment in 0..3 {
        pipeline.ingest_segment(&source, segment, &config).unwrap();
        let key = SegmentKey::new(Dataset::Jackson.name(), diff.storage, segment);
        let view = reader.get_view(&key, &diff.consumption).unwrap().unwrap();
        let output = DiffOperator::new().run(&view.segment.frames);
        positives.extend(output.frames.iter().map(|f| (f.source_index, f.positive)));
    }
    assert_eq!(positives.len(), 720, "{} frames", positives.len());
    let crc = crc32(format!("{positives:?}").as_bytes());
    assert_eq!(crc, PINNED_DIFF, "{crc:#x}");
}
