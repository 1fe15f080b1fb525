//! Concurrency stress test of the sharded segment store: many threads doing
//! mixed put/get/delete traffic while compaction runs concurrently, then
//! full consistency checks against per-thread models.

#![expect(clippy::disallowed_methods, reason = "removes its scratch stores")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vstore_storage::{SegmentKey, SegmentStore, StoreStats};
use vstore_types::DeterministicHasher;
use vstore_types::FormatId;

const WRITER_THREADS: u64 = 8;
const OPS_PER_THREAD: u64 = 400;
const KEYS_PER_THREAD: u64 = 48;

fn key(thread: u64, index: u64) -> SegmentKey {
    SegmentKey::new(format!("stress-{thread}"), FormatId(1), index)
}

fn value(thread: u64, index: u64, version: u64) -> Vec<u8> {
    let len = 200 + ((thread * 7 + index * 13 + version * 29) % 800) as usize;
    let byte = (thread * 31 + index + version) as u8;
    vec![byte; len]
}

#[test]
fn mixed_ops_under_concurrent_compaction_stay_consistent() {
    let store = Arc::new(SegmentStore::open_temp_with_shards("stress", 8).unwrap());
    assert_eq!(store.shard_count(), 8);

    // A compactor hammering the whole store while writers run.
    let stop = Arc::new(AtomicBool::new(false));
    let compactor = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rounds = 0u64;
            while !stop.load(Ordering::Relaxed) {
                store.compact().unwrap();
                rounds += 1;
                std::thread::yield_now();
            }
            rounds
        })
    };

    // Each writer owns its own stream, so it can keep an exact model of what
    // the store must contain.
    let mut handles = Vec::new();
    for thread in 0..WRITER_THREADS {
        let store = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            // model[i] = Some(version) when key i must be live.
            let mut model: Vec<Option<u64>> = vec![None; KEYS_PER_THREAD as usize];
            for op in 0..OPS_PER_THREAD {
                let draw = DeterministicHasher::new(thread).mix(op);
                let index = draw.below(KEYS_PER_THREAD);
                let slot = &mut model[index as usize];
                match draw.mix(1).below(10) {
                    // 60 % puts, 20 % deletes, 20 % reads.
                    0..=5 => {
                        store
                            .put(&key(thread, index), &value(thread, index, op))
                            .unwrap();
                        *slot = Some(op);
                    }
                    6 | 7 => {
                        store.delete(&key(thread, index)).unwrap();
                        *slot = None;
                    }
                    _ => {
                        let got = store.get(&key(thread, index)).unwrap();
                        match slot {
                            Some(version) => {
                                assert_eq!(got.unwrap(), value(thread, index, *version))
                            }
                            None => assert_eq!(got, None),
                        }
                    }
                }
            }
            model
        }));
    }
    let models: Vec<Vec<Option<u64>>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    stop.store(true, Ordering::Relaxed);
    let compaction_rounds = compactor.join().unwrap();
    assert!(compaction_rounds > 0, "compactor never ran");

    // Every thread's model must match the store exactly.
    let mut expected_live = 0usize;
    for (thread, model) in models.iter().enumerate() {
        for (index, slot) in model.iter().enumerate() {
            let k = key(thread as u64, index as u64);
            match slot {
                Some(version) => {
                    expected_live += 1;
                    assert_eq!(
                        store.get(&k).unwrap().unwrap(),
                        value(thread as u64, index as u64, *version),
                        "{k} diverged from model"
                    );
                }
                None => assert!(!store.contains(&k), "{k} should be deleted"),
            }
        }
    }
    assert_eq!(store.len(), expected_live);
    assert_eq!(store.keys().len(), expected_live);

    // Aggregate stats must equal the sum of the per-shard stats.
    let mut summed = StoreStats::default();
    for shard in store.shard_stats() {
        summed.accumulate(&shard);
    }
    assert_eq!(summed, store.stats());

    // A final quiescent compaction leaves no garbage and loses nothing.
    store.compact().unwrap();
    assert_eq!(store.len(), expected_live);
    assert!(
        store.stats().garbage_ratio() < 0.3,
        "garbage after final compact: {:.2}",
        store.stats().garbage_ratio()
    );

    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn stats_totals_survive_reopen() {
    let store = SegmentStore::open_temp_with_shards("stress-reopen", 4).unwrap();
    let dir = store.dir();
    for i in 0..100u64 {
        store.put(&key(i % 4, i), &value(i % 4, i, 0)).unwrap();
    }
    let live_before = store.stats().live_bytes;
    store.sync().unwrap();
    drop(store);

    let reopened = SegmentStore::open(&dir).unwrap();
    assert_eq!(reopened.shard_count(), 4);
    assert_eq!(reopened.len(), 100);
    assert_eq!(reopened.stats().live_bytes, live_before);
    let mut summed = StoreStats::default();
    for shard in reopened.shard_stats() {
        summed.accumulate(&shard);
    }
    assert_eq!(summed, reopened.stats());
    std::fs::remove_dir_all(dir).ok();
}
