//! Poison-recovery helpers for `std::sync` primitives.
//!
//! Most of the workspace uses the `parking_lot` stub, whose guards recover
//! from poisoning transparently. The handful of places that need a
//! `Condvar` (bounded queues, the tier's per-key locks, live ingest, serve
//! shutdown) are on `std::sync::Mutex` and used to carry a
//! `.lock().expect("... poisoned")` at every call site. These helpers
//! centralize the same recover-from-poison policy — a panic while holding
//! one of these locks never leaves partially-applied state that a waiter
//! could misread; continuing with the inner guard matches what the
//! parking_lot stub does everywhere else — so the call sites stay free of
//! `expect`, which `clippy::expect_used` denies in library code.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Lock `mutex`, recovering the guard if a previous holder panicked.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Wait on `condvar`, recovering the guard if a holder panicked while we
/// were parked.
pub fn wait_unpoisoned<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// Wait on `condvar` with a timeout, recovering the guard on poison.
/// Returns the guard and whether the wait timed out.
pub fn wait_timeout_unpoisoned<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, bool) {
    let (guard, result) = condvar
        .wait_timeout(guard, timeout)
        .unwrap_or_else(|e| e.into_inner());
    (guard, result.timed_out())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Condvar, Mutex};

    #[test]
    fn lock_recovers_from_poison() {
        let mutex = Arc::new(Mutex::new(7_u32));
        let poisoner = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(mutex.is_poisoned());
        assert_eq!(*lock_unpoisoned(&mutex), 7);
    }

    #[test]
    fn wait_timeout_reports_timeout() {
        let mutex = Mutex::new(());
        let condvar = Condvar::new();
        let guard = lock_unpoisoned(&mutex);
        let (_guard, timed_out) =
            wait_timeout_unpoisoned(&condvar, guard, Duration::from_millis(1));
        assert!(timed_out);
    }
}
