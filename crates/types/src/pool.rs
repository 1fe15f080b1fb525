//! A minimal scoped worker pool: parallel map with deterministic output
//! order.
//!
//! The ingest fan-out, the query prefetch stage, parallel shard compaction
//! and cold-tier demotion all need the same shape of
//! parallelism: apply a function to every item of a batch on up to
//! `workers` threads and get the results back *in input order*, so
//! downstream accounting is identical to the sequential path. `scoped_map`
//! provides exactly that on `std::thread::scope` — no executor, no
//! channels, no external dependency.
//!
//! ## Panic safety
//!
//! A panicking task must never take the rest of the batch down with it
//! half-processed: every worker wraps the task body in [`catch_panic`], so
//! a panic in `f` stops only that task — the panicking worker and its
//! peers keep draining the remaining items, and only once the whole batch
//! has been processed does `scoped_map` resume the unwind with the
//! **original payload** (the caller sees `panic!("boom")`, not a generic
//! "a scoped thread panicked"). Long-running executors (the serve worker
//! pool) reuse [`catch_panic`] directly to convert a per-request panic
//! into an error response instead of a dead worker.

use crate::sync::lock_unpoisoned;
use std::sync::{Mutex, PoisonError};

/// The payload of a caught panic, as produced by
/// [`std::panic::catch_unwind`].
pub type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Run `f`, capturing a panic as an `Err(payload)` instead of unwinding
/// the caller.
///
/// The closure is wrapped in `AssertUnwindSafe`: callers hand in work whose
/// partial effects are either discarded on panic (`scoped_map` publishes a
/// result slot only on success) or confined to the failing request (the
/// serve executor answers that request with an error and moves on), so
/// observing interrupted state is not possible through this function.
pub fn catch_panic<R>(f: impl FnOnce() -> R) -> std::result::Result<R, PanicPayload> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
}

/// Best-effort human-readable message of a caught panic payload
/// (`panic!("…")` string literals and `format!`-style messages).
pub fn panic_message(payload: &PanicPayload) -> &str {
    if let Some(msg) = payload.downcast_ref::<&'static str>() {
        msg
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg
    } else {
        "<non-string panic payload>"
    }
}

/// Apply `f` to every item, using up to `workers` threads (the calling
/// thread is one of them), returning the results in input order.
///
/// With `workers <= 1` (or fewer than two items) no thread is spawned and
/// the items are processed on the calling thread in order — the exact
/// sequential path. A panic in `f` propagates to the caller with its
/// original payload, but only after the remaining items have been drained
/// by the surviving workers (see the [module docs](self)).
#[expect(
    clippy::expect_used,
    reason = "scoped workers fill every slot or propagate their panic"
)]
pub fn scoped_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.min(n).max(1);
    // Every worker takes the next unclaimed item from one shared cursor, so
    // long and short items balance across threads instead of convoying on
    // a slow one, and an item is never bound to a thread that has yet to
    // start. The task set is fixed — tasks never spawn tasks — so a drained
    // cursor means the batch is fully claimed and the worker can exit. One
    // worker is the calling thread walking the batch in order: the
    // sequential path is the same loop, so a panicking task leaves
    // identical side effects at every worker count (the repo's sequential
    // == parallel parity invariant).
    let cursor = Mutex::new(items.into_iter().enumerate());
    let claim = || lock_unpoisoned(&cursor).next();
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    // First panic payload caught by any worker; the workers themselves never
    // unwind, so the scope always joins cleanly and every non-panicking item
    // is processed exactly once.
    let first_panic: Mutex<Option<PanicPayload>> = Mutex::new(None);
    let work = |first: Option<(usize, T)>| {
        let mut next = first;
        while let Some((i, item)) = next {
            match catch_panic(|| f(i, item)) {
                Ok(result) => lock_unpoisoned(&results)[i] = Some(result),
                Err(payload) => {
                    lock_unpoisoned(&first_panic).get_or_insert(payload);
                }
            }
            next = claim();
        }
    };
    // The calling thread is worker 0: it would otherwise sleep through the
    // batch, and every thread not spawned is one wake-up the batch does
    // not wait on (a prefetch window of two spawns one thread, not two).
    // It claims item 0 before any peer exists, and goes on to whatever a
    // peer that is slow to be scheduled has not claimed yet: a batch of
    // short items (cache hits) never waits for a thread to wake up.
    std::thread::scope(|scope| {
        let (work, claim) = (&work, &claim);
        let own = claim();
        for _ in 1..workers {
            scope.spawn(move || work(claim()));
        }
        work(own);
    });
    if let Some(payload) = first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        std::panic::resume_unwind(payload);
    }
    results
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|slot| slot.expect("worker died before finishing task"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = scoped_map(items, 4, |_, x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..50).collect();
        let seq = scoped_map(items.clone(), 1, |i, x| x.wrapping_mul(31) ^ i as u64);
        let par = scoped_map(items, 8, |i, x| x.wrapping_mul(31) ^ i as u64);
        assert_eq!(seq, par);
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let calls = AtomicUsize::new(0);
        let results = scoped_map((0..37).collect::<Vec<i32>>(), 5, |_, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(results.len(), 37);
        assert_eq!(calls.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn empty_and_single_item_batches() {
        assert_eq!(scoped_map(Vec::<u8>::new(), 4, |_, x| x), Vec::<u8>::new());
        assert_eq!(scoped_map(vec![9], 4, |_, x| x + 1), vec![10]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate_with_their_original_payload() {
        scoped_map(vec![1, 2, 3, 4], 2, |_, x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }

    /// Regression (panic safety): a panicking task must not deadlock the
    /// pool or silently drop the other workers' results — every
    /// non-panicking item is still processed before the unwind resumes,
    /// identically at every worker count (sequential == parallel parity
    /// extends to the panic path).
    #[test]
    fn panicking_task_lets_remaining_workers_drain() {
        const ITEMS: usize = 64;
        for workers in [1, 4] {
            let processed = AtomicUsize::new(0);
            let outcome = catch_panic(|| {
                scoped_map((0..ITEMS).collect::<Vec<usize>>(), workers, |_, x| {
                    if x == 5 {
                        panic!("boom at {x}");
                    }
                    processed.fetch_add(1, Ordering::Relaxed);
                    x
                })
            });
            let payload = outcome.expect_err("the batch panic must propagate");
            assert_eq!(panic_message(&payload), "boom at 5");
            // Every item except the panicking one ran to completion: no
            // worker died early, no task was abandoned in the queue.
            assert_eq!(
                processed.load(Ordering::Relaxed),
                ITEMS - 1,
                "workers={workers}"
            );
        }
    }

    /// Several panicking tasks still drain the batch and resume exactly one
    /// unwind (the first payload caught) — never a deadlock or an abort.
    #[test]
    fn multiple_panics_resume_a_single_unwind() {
        let processed = AtomicUsize::new(0);
        let outcome = catch_panic(|| {
            scoped_map((0..32).collect::<Vec<usize>>(), 4, |_, x| {
                if x % 8 == 0 {
                    panic!("boom at {x}");
                }
                processed.fetch_add(1, Ordering::Relaxed);
                x
            })
        });
        let payload = outcome.expect_err("the batch panic must propagate");
        assert!(panic_message(&payload).starts_with("boom at"));
        assert_eq!(processed.load(Ordering::Relaxed), 32 - 4);
    }

    #[test]
    fn catch_panic_round_trips_success_and_payloads() {
        assert_eq!(catch_panic(|| 41 + 1).unwrap(), 42);
        let payload = catch_panic(|| -> u32 { panic!("kaput") }).unwrap_err();
        assert_eq!(panic_message(&payload), "kaput");
        let payload = catch_panic(|| -> u32 { panic!("{}-{}", "a", 7) }).unwrap_err();
        assert_eq!(panic_message(&payload), "a-7");
    }

    #[test]
    fn index_is_passed_through() {
        let out = scoped_map(vec!["a", "b", "c"], 2, |i, s| format!("{i}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    /// The calling thread works the batch as worker 0 instead of sleeping
    /// through it: with two workers only one thread is spawned. Each of the
    /// two items waits for the other to start, so they run on two threads
    /// at once, and item 0 (claimed before any peer exists) on the caller.
    #[test]
    fn calling_thread_is_one_of_the_workers() {
        use std::sync::atomic::AtomicBool;
        let caller = std::thread::current().id();
        let started = [AtomicBool::new(false), AtomicBool::new(false)];
        let ran_on = scoped_map(vec![0, 1], 2, |i, _| {
            started[i].store(true, Ordering::Release);
            while !started[1 - i].load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            std::thread::current().id()
        });
        assert_eq!(ran_on[0], caller);
        assert_ne!(ran_on[1], caller);
    }

    /// An imbalanced batch is redistributed: while one worker is held on a
    /// single long item, every other item of the batch must be picked up
    /// and finished by its peers — the batch never waits for the slow
    /// worker to get to a share of its own.
    #[test]
    fn a_long_item_never_holds_back_the_rest_of_the_batch() {
        use std::sync::atomic::AtomicBool;
        const ITEMS: usize = 16;
        const WORKERS: usize = 4;
        // Item 0 (worker 0's first) spins until every other item has been
        // completed by someone. Under static chunking this deadlocks
        // (worker 0 would have to finish item 0 before touching the rest
        // of its block); with a shared cursor, peers drain them.
        let done: Vec<AtomicBool> = (0..ITEMS).map(|_| AtomicBool::new(false)).collect();
        let results = scoped_map((0..ITEMS).collect::<Vec<usize>>(), WORKERS, |i, x| {
            if i == 0 {
                while !(1..ITEMS).all(|j| done[j].load(Ordering::Acquire)) {
                    std::thread::yield_now();
                }
            }
            done[i].store(true, Ordering::Release);
            x * 10
        });
        assert_eq!(results, (0..ITEMS).map(|x| x * 10).collect::<Vec<_>>());
    }
}
