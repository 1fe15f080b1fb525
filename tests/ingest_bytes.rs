//! What ingest writes, pinned byte for byte: the stored container and the
//! `VSMETA` sidecar of Jackson segments 0, 3 and 31 in every storage format
//! of query A's derived configuration, as length and CRC-32. Any change to
//! the scene generator, the fidelity kernel, the encoder or the sidecar
//! scoring that moves a stored byte fails here.

use std::sync::Arc;
use vstore::{BackendOptions, QuerySpec, VStore, VStoreOptions};
use vstore_codec::{wire::crc32, Transcoder};
use vstore_datasets::{Dataset, VideoSource};
use vstore_ingest::IngestionPipeline;
use vstore_storage::{SegmentKey, SegmentReader, SegmentStore};
use vstore_types::FormatId;

/// `(len, crc)` of some bytes.
type Digest = (usize, u32);

/// `(format, segment, container digest, sidecar digest)`.
const PINNED: [(u32, u64, Digest, Digest); 9] = [
    (0, 0, (1_449_975, 0xf966_23cf), (1_323, 0x4a17_671f)),
    (0, 3, (1_437_901, 0x4d7f_4ac3), (1_451, 0x40b2_a770)),
    (0, 31, (1_451_293, 0xc704_8459), (1_451, 0xe40f_6152)),
    (1, 0, (310_383, 0xd932_e59a), (1_323, 0xe7fa_6994)),
    (1, 3, (300_277, 0x197b_9a9c), (1_451, 0xd483_7be6)),
    (1, 31, (316_209, 0x6570_f26a), (1_451, 0x00b7_f0d4)),
    (2, 0, (58_342, 0xf0bc_9255), (52, 0x6180_a8a2)),
    (2, 3, (58_130, 0xdce2_fe11), (57, 0xb363_f51d)),
    (2, 31, (58_536, 0x6f69_9e68), (57, 0xec11_870c)),
];

fn digest(bytes: &[u8]) -> Digest {
    (bytes.len(), crc32(bytes))
}

/// A sidecar ends in the CRC-32 of its body, so a CRC over all of it is the
/// same residue for every sidecar; pin the body's.
fn sidecar_digest(bytes: &[u8]) -> Digest {
    (bytes.len(), crc32(&bytes[..bytes.len() - 4]))
}

#[test]
fn query_a_ingest_writes_the_pinned_bytes() {
    let facade = VStore::open(
        "unused",
        VStoreOptions::fast().with_backend(BackendOptions::Mem),
    )
    .unwrap();
    let config = facade
        .configure(&QuerySpec::query_a(0.8).consumers())
        .unwrap();
    let store = Arc::new(SegmentStore::open_mem_with_shards(1).unwrap());
    let pipeline = IngestionPipeline::new(
        Arc::new(SegmentReader::disabled(Arc::clone(&store))),
        Transcoder::default(),
    );
    let source = VideoSource::new(Dataset::Jackson);
    for segment in [0, 3, 31] {
        pipeline.ingest_segment(&source, segment, &config).unwrap();
    }
    let mut seen = Vec::new();
    for id in config.storage_formats.keys() {
        for segment in [0, 3, 31] {
            let key = SegmentKey::new("jackson", *id, segment);
            let container = store.get(&key).unwrap().unwrap();
            let sidecar = store.get_segment_meta(&key).unwrap().unwrap();
            seen.push((id.0, segment, digest(&container), sidecar_digest(&sidecar)));
        }
    }
    assert_eq!(seen, PINNED, "{seen:#x?}");
    assert_eq!(config.storage_formats.len(), 3);
    assert!(config.storage_formats.contains_key(&FormatId::GOLDEN));
}
