//! What ingest writes, pinned byte for byte: the stored container and the
//! `VSMETA` sidecar of Jackson segments 0, 3 and 31 in every storage format
//! of query A's derived configuration, as length and CRC-32, and the golden
//! format's of Dashcam (the fastest camera) and Park (the slowest). Any
//! change to the scene generator, the fidelity kernel, the encoder or the
//! sidecar scoring that moves a stored byte fails here, whether the
//! pipeline runs one transcode at a time or two at once.

use std::sync::Arc;
use vstore::{BackendOptions, Configuration, QuerySpec, VStore, VStoreOptions};
use vstore_codec::{wire::crc32, Transcoder};
use vstore_datasets::{Dataset, VideoSource};
use vstore_ingest::IngestionPipeline;
use vstore_storage::{SegmentKey, SegmentReader, SegmentStore};
use vstore_types::FormatId;

/// `(len, crc)` of some bytes.
type Digest = (usize, u32);

/// `(format, segment, container digest, sidecar digest)`.
type Pinned = (u32, u64, Digest, Digest);

/// Jackson in every storage format of query A's configuration.
const PINNED: [Pinned; 9] = [
    (0, 0, (344_483, 0x2525_1274), (1_323, 0x4a17_671f)),
    (0, 3, (318_834, 0xc999_c4d3), (1_451, 0x40b2_a770)),
    (0, 31, (360_599, 0x7e6b_0df5), (1_451, 0xe40f_6152)),
    (1, 0, (310_383, 0xd932_e59a), (1_323, 0xe7fa_6994)),
    (1, 3, (300_277, 0x197b_9a9c), (1_451, 0xd483_7be6)),
    (1, 31, (316_209, 0x6570_f26a), (1_451, 0x00b7_f0d4)),
    (2, 0, (58_342, 0xf0bc_9255), (52, 0x6180_a8a2)),
    (2, 3, (58_130, 0xdce2_fe11), (57, 0xb363_f51d)),
    (2, 31, (58_536, 0x6f69_9e68), (57, 0xec11_870c)),
];

/// Dashcam in the golden format.
const PINNED_DASHCAM: [Pinned; 3] = [
    (0, 0, (761_266, 0xa2f7_8768), (1_323, 0x68e5_7c89)),
    (0, 3, (735_381, 0x32e2_d502), (1_451, 0xe2d3_63f6)),
    (0, 31, (747_859, 0x8767_2b51), (1_451, 0x0216_946f)),
];

/// Park in the golden format.
const PINNED_PARK: [Pinned; 3] = [
    (0, 0, (154_820, 0x7afe_4862), (1_323, 0xf6cf_5316)),
    (0, 3, (156_391, 0xfdaf_d5d3), (1_451, 0x5bd1_51ee)),
    (0, 31, (195_383, 0x6b02_1247), (1_451, 0xc974_8e89)),
];

const SEGMENTS: [u64; 3] = [0, 3, 31];

fn digest(bytes: &[u8]) -> Digest {
    (bytes.len(), crc32(bytes))
}

/// A sidecar ends in the CRC-32 of its body, so a CRC over all of it is the
/// same residue for every sidecar; pin the body's.
fn sidecar_digest(bytes: &[u8]) -> Digest {
    (bytes.len(), crc32(&bytes[..bytes.len() - 4]))
}

fn query_a_config() -> Arc<Configuration> {
    let facade = VStore::open(
        "unused",
        VStoreOptions::fast().with_backend(BackendOptions::Mem),
    )
    .unwrap();
    facade
        .configure(&QuerySpec::query_a(0.8).consumers())
        .unwrap()
}

/// Ingest [`SEGMENTS`] of `dataset` through a pipeline of `workers`, and
/// digest what it stored in each of `formats`.
fn ingest_digests(
    config: &Configuration,
    workers: usize,
    dataset: Dataset,
    formats: &[FormatId],
) -> Vec<Pinned> {
    let store = Arc::new(SegmentStore::open_mem_with_shards(1).unwrap());
    let pipeline = IngestionPipeline::new(
        Arc::new(SegmentReader::disabled(Arc::clone(&store))),
        Transcoder::default(),
    )
    .with_workers(workers);
    let source = VideoSource::new(dataset);
    for segment in SEGMENTS {
        pipeline.ingest_segment(&source, segment, config).unwrap();
    }
    let mut seen = Vec::new();
    for id in formats {
        for segment in SEGMENTS {
            let key = SegmentKey::new(dataset.name(), *id, segment);
            let container = store.get(&key).unwrap().unwrap();
            let sidecar = store.get_segment_meta(&key).unwrap().unwrap();
            seen.push((id.0, segment, digest(&container), sidecar_digest(&sidecar)));
        }
    }
    seen
}

#[test]
fn query_a_ingest_writes_the_pinned_bytes() {
    let config = query_a_config();
    assert_eq!(config.storage_formats.len(), 3);
    assert!(config.storage_formats.contains_key(&FormatId::GOLDEN));
    let formats: Vec<FormatId> = config.storage_formats.keys().copied().collect();
    for workers in [1, 2] {
        let seen = ingest_digests(&config, workers, Dataset::Jackson, &formats);
        assert_eq!(seen, PINNED, "{workers} workers: {seen:#x?}");
    }
}

/// The fastest and the slowest camera, whose scenes the renderer builds
/// from the widest and the narrowest texture windows.
#[test]
fn golden_ingest_of_the_fastest_and_slowest_cameras_writes_the_pinned_bytes() {
    let config = query_a_config();
    for (dataset, pinned) in [
        (Dataset::Dashcam, PINNED_DASHCAM),
        (Dataset::Park, PINNED_PARK),
    ] {
        for workers in [1, 2] {
            let seen = ingest_digests(&config, workers, dataset, &[FormatId::GOLDEN]);
            assert_eq!(seen, pinned, "{dataset:?}, {workers} workers: {seen:#x?}");
        }
    }
}
