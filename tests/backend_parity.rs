//! Backend parity: every [`StorageBackend`] must be observationally
//! identical to [`FsBackend`] — same store statistics byte for byte (the
//! record framing is backend-independent), same resource ledgers, same
//! query results. The backend trait changes *where* bytes live, never
//! *what* the store does. Covered backend: [`MemBackend`]. (The cold tier
//! is not one: it keeps one object per segment on a device of its own, and
//! no [`SegmentStore`] ever runs on that device.)

#![expect(clippy::disallowed_methods, reason = "removes its scratch stores")]

use std::sync::Arc;
use vstore::{
    BackendOptions, ErodeRequest, IngestRequest, QueryRequest, QuerySpec, VStore, VStoreOptions,
};
use vstore_datasets::{Dataset, VideoSource};
use vstore_storage::{FsBackend, MemBackend, SegmentKey, SegmentStore, StorageBackend};
use vstore_types::FormatId;

fn key(stream: &str, format: u32, index: u64) -> SegmentKey {
    SegmentKey::new(stream, FormatId(format), index)
}

/// Drive an identical put/overwrite/delete/compact workload and return the
/// stats trail.
fn run_store_workload(store: &SegmentStore) -> Vec<vstore_storage::StoreStats> {
    let mut trail = Vec::new();
    for i in 0..40 {
        store
            .put(
                &key("parity", 1, i),
                &vec![(i % 251) as u8; 700 + i as usize],
            )
            .unwrap();
    }
    for i in 0..10 {
        store.put(&key("parity", 1, i), &vec![9u8; 300]).unwrap(); // supersede
    }
    for i in 30..40 {
        store.delete(&key("parity", 1, i)).unwrap();
    }
    let _ = store.get(&key("parity", 1, 5)).unwrap();
    let _ = store.get(&key("parity", 1, 35)).unwrap(); // miss
    trail.push(store.stats());
    store.compact().unwrap();
    trail.push(store.stats());
    trail
}

#[test]
fn all_backends_produce_byte_identical_stats() {
    let fs = SegmentStore::open_temp_with_shards("backend-parity-fs", 4).unwrap();
    let fs_trail = run_store_workload(&fs);

    let mem = SegmentStore::open_mem_with_shards(4).unwrap();
    assert_eq!(
        fs_trail,
        run_store_workload(&mem),
        "StoreStats diverged between fs and mem (framing must be identical)"
    );
    // Key and byte accounting agree per (stream, format) too.
    assert_eq!(
        fs.segments_of("parity", FormatId(1)),
        mem.segments_of("parity", FormatId(1))
    );
    assert_eq!(
        fs.bytes_of("parity", FormatId(1)),
        mem.bytes_of("parity", FormatId(1))
    );
    std::fs::remove_dir_all(fs.dir()).ok();
}

#[test]
fn shard_meta_round_trips_identically_on_both_backends() {
    // Reopening on the same backend honours the recorded shard count on
    // both implementations (the SHARDS meta file goes through the trait).
    let dir =
        std::env::temp_dir().join(format!("vstore-backend-parity-meta-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let backends: Vec<Arc<dyn StorageBackend>> = vec![
        Arc::new(FsBackend::new(&dir).unwrap()),
        Arc::new(MemBackend::new()),
    ];
    for backend in backends {
        let store = SegmentStore::open_with_backend(Arc::clone(&backend), 3).unwrap();
        store.put(&key("meta", 1, 0), b"value").unwrap();
        store.sync().unwrap();
        drop(store);
        let reopened = SegmentStore::open_with_backend(backend, 16).unwrap();
        assert_eq!(reopened.shard_count(), 3);
        assert_eq!(reopened.get(&key("meta", 1, 0)).unwrap().unwrap(), b"value");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_lifecycle_ledgers_match_across_backends() {
    let query = QuerySpec::query_a(0.8);
    let source = VideoSource::new(Dataset::Jackson);

    let run = |backend: BackendOptions| {
        let store = VStore::open_temp(
            "backend-parity-lifecycle",
            VStoreOptions::fast().with_backend(backend),
        )
        .unwrap();
        store.configure(&query.consumers()).unwrap();
        let ingest = store
            .ingest(IngestRequest::new(&source).segments(3))
            .unwrap();
        let result = store
            .query(QueryRequest::new("jackson", &query).segments(3))
            .unwrap();
        let eroded = store
            .erode(ErodeRequest::new("jackson").at_age_days(5))
            .unwrap();
        let stats = store.store_stats();
        let dir = store.store_dir();
        drop(store);
        std::fs::remove_dir_all(dir).ok();
        (ingest, result, eroded, stats)
    };

    let (fs_ingest, fs_result, fs_eroded, fs_stats) = run(BackendOptions::Fs);
    let (mem_ingest, mem_result, mem_eroded, mem_stats) = run(BackendOptions::Mem);

    // Byte-identical ingest reports, query results and store statistics
    // (reads, writes, live and on-disk bytes): every cost a request reports
    // and every counter the store keeps is backend-independent.
    assert_eq!(fs_ingest, mem_ingest);
    assert_eq!(fs_result, mem_result);
    assert_eq!(fs_eroded, mem_eroded);
    assert_eq!(fs_stats, mem_stats);
}
