//! The workspace's one way to take a `std::sync` lock or wait on a
//! `Condvar`; `clippy.toml`'s `disallowed-methods` bans the raw calls.
//!
//! One poison policy: a panic while holding one of these locks never leaves
//! partially-applied state a later holder could misread, so the helpers
//! continue with the inner guard, and call sites stay free of the `expect`
//! that `clippy::expect_used` denies in library code.

use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// Lock `mutex`, recovering the guard if a previous holder panicked.
#[expect(clippy::disallowed_methods, reason = "the one sanctioned call")]
pub fn lock_unpoisoned<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Take `lock` for shared reading, recovering the guard on poison.
#[expect(clippy::disallowed_methods, reason = "the one sanctioned call")]
pub fn read_unpoisoned<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Take `lock` for exclusive writing, recovering the guard on poison.
#[expect(clippy::disallowed_methods, reason = "the one sanctioned call")]
pub fn write_unpoisoned<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Wait on `condvar`, recovering the guard if a holder panicked while we
/// were parked.
#[expect(clippy::disallowed_methods, reason = "the one sanctioned call")]
pub fn wait_unpoisoned<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// Wait on `condvar` with a timeout, recovering the guard on poison.
/// Returns the guard and whether the wait timed out.
#[expect(clippy::disallowed_methods, reason = "the one sanctioned call")]
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
    use std::sync::{Arc, Condvar, Mutex, RwLock};

    #[test]
    fn lock_recovers_from_poison() {
        let mutex = Arc::new(Mutex::new(7_u32));
        let rwlock = Arc::new(RwLock::new(vec![1_u32, 2]));
        let (m, l) = (Arc::clone(&mutex), Arc::clone(&rwlock));
        let _ = std::thread::spawn(move || {
            let _guards = (lock_unpoisoned(&m), write_unpoisoned(&l));
            panic!("poison both locks");
        })
        .join();
        assert!(mutex.is_poisoned() && rwlock.is_poisoned());
        *lock_unpoisoned(&mutex) += 1;
        assert_eq!(*lock_unpoisoned(&mutex), 8);
        write_unpoisoned(&rwlock).push(3);
        assert_eq!(*read_unpoisoned(&rwlock), [1, 2, 3]);
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
