//! A minimal scoped worker pool: parallel map with deterministic output
//! order.
//!
//! The ingest fan-out, the query prefetch stage, parallel shard compaction
//! and the serving front end's executor all need the same shape of
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

use parking_lot::Mutex;
use std::collections::VecDeque;

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
/// With `workers <= 1` (or fewer than two items) the items are processed on
/// the calling thread in order — the exact sequential path. A panic in `f`
/// propagates to the caller with its original payload, but only after the
/// remaining items have been drained by the surviving workers (see the
/// [module docs](self)).
pub fn scoped_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.min(n).max(1);
    if workers <= 1 || n <= 1 {
        // Same drain-then-unwind contract as the parallel path below, so a
        // panicking task leaves identical side effects at every worker
        // count (the repo's sequential == parallel parity invariant).
        let mut results = Vec::with_capacity(n);
        let mut first_panic: Option<PanicPayload> = None;
        for (i, item) in items.into_iter().enumerate() {
            match catch_panic(|| f(i, item)) {
                Ok(result) => results.push(result),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        return results;
    }
    // Work-stealing deque pool: every worker owns a deque seeded with a
    // contiguous block of indices. Owners pop their own front (cache-warm,
    // in-order, no contention on a shared cursor); a worker whose deque
    // runs dry steals from the *back* of a peer's deque, so long and short
    // items balance across threads instead of convoying on the slowest
    // chunk. The task set is fixed — tasks never spawn tasks — so
    // every-deque-empty means the batch is fully claimed and a worker that
    // finds no work anywhere can exit.
    let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w * n / workers..(w + 1) * n / workers).collect()))
        .collect();
    // First panic payload caught by any worker; the workers themselves never
    // unwind, so the scope always joins cleanly and every non-panicking item
    // is processed exactly once.
    let first_panic: Mutex<Option<PanicPayload>> = Mutex::new(None);
    // The next index for worker `w`: its own front, else a steal from the
    // back of the first non-empty peer deque (scanned round-robin from
    // `w + 1` to spread steal pressure).
    let next_task = |w: usize| -> Option<usize> {
        if let Some(i) = queues[w].lock().pop_front() {
            return Some(i);
        }
        for offset in 1..workers {
            if let Some(i) = queues[(w + offset) % workers].lock().pop_back() {
                return Some(i);
            }
        }
        None
    };
    let work = |w: usize| {
        while let Some(i) = next_task(w) {
            // vstore-lint: allow(no-unwrap) — next_task hands out each index once
            let item = tasks[i].lock().take().expect("task claimed twice");
            match catch_panic(|| f(i, item)) {
                Ok(result) => *results[i].lock() = Some(result),
                Err(payload) => {
                    let mut slot = first_panic.lock();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
        }
    };
    // The calling thread is worker 0: it would otherwise sleep through the
    // batch, and every thread not spawned is one wake-up the batch does
    // not wait on (a prefetch window of two spawns one thread, not two).
    std::thread::scope(|scope| {
        for w in 1..workers {
            let work = &work;
            scope.spawn(move || work(w));
        }
        work(0);
    });
    if let Some(payload) = first_panic.into_inner() {
        std::panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|slot| {
            // Scoped workers fill every slot or propagate their panic.
            slot.into_inner()
                .expect("worker died before finishing task") // vstore-lint: allow(no-unwrap)
        })
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
    /// at once, and item 0 (the front of worker 0's deque) on the caller.
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

    /// Work stealing actually redistributes an imbalanced batch: when one
    /// worker's seeded block is blocked on a single long task, its
    /// remaining items must be stolen and finished by the other workers —
    /// the batch never waits for the slow worker to drain its own chunk.
    #[test]
    fn imbalanced_items_are_stolen_from_the_busy_worker() {
        use std::sync::atomic::AtomicBool;
        const ITEMS: usize = 16;
        const WORKERS: usize = 4;
        // Worker 0 owns indices 0..4. Item 0 spins until every *other* item
        // of worker 0's block (1..4) has been completed by someone. Under
        // static chunking this deadlocks (worker 0 would have to finish
        // item 0 before touching 1..4); with stealing, peers drain them.
        let done: Vec<AtomicBool> = (0..ITEMS).map(|_| AtomicBool::new(false)).collect();
        let results = scoped_map((0..ITEMS).collect::<Vec<usize>>(), WORKERS, |i, x| {
            if i == 0 {
                while !(1..ITEMS / WORKERS).all(|j| done[j].load(Ordering::Acquire)) {
                    std::thread::yield_now();
                }
            }
            done[i].store(true, Ordering::Release);
            x * 10
        });
        assert_eq!(results, (0..ITEMS).map(|x| x * 10).collect::<Vec<_>>());
    }
}
