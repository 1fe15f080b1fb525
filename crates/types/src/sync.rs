//! The workspace's one way to take a `std::sync` lock or wait on a
//! `Condvar`; `clippy.toml`'s `disallowed-methods` bans the raw calls. In
//! debug builds the helpers are also the workspace's lock-order checker.
//!
//! One poison policy: a panic while holding one of these locks never leaves
//! partially-applied state a later holder could misread, so the helpers
//! continue with the inner guard, and call sites stay free of the `expect`
//! that `clippy::expect_used` denies in library code.
//!
//! # Lock order (debug builds)
//!
//! Each helper returns a [`Held`] guard. Under `cfg(debug_assertions)` a
//! lock's *class* is `type_name` of the value it guards, so every instance
//! of one type is one class, and two unrelated locks need distinct types
//! (a newtype where they would otherwise share one). Each thread keeps the
//! classes it holds, and the process keeps every (held → acquired) class
//! pair it has seen, as Linux lockdep does. The helpers panic, naming the
//! `#[track_caller]` sites involved, when
//!
//! - an acquisition closes a cycle in that graph: two paths that take the
//!   same classes in opposite orders can deadlock, whether or not this run
//!   interleaved them;
//! - a thread takes a class it already holds (one instance may be the one
//!   it holds, and a second instance has no order against the first);
//! - a thread waits on a condvar while it holds any class besides the
//!   waited-on one: the waker may need that lock first.
//!
//! [`observed_lock_order`] returns the classes and edges seen so far, for
//! a test to pin. Release builds compile all of this out: [`Held`] is a
//! transparent wrapper around the `std` guard.

use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// A guard taken through one of this module's helpers; it derefs to the
/// guarded value and releases the lock on drop. In debug builds it also
/// keeps the lock's class on the thread's held list until then.
#[cfg_attr(not(debug_assertions), repr(transparent))]
pub struct Held<G> {
    guard: G,
    #[cfg(debug_assertions)]
    entry: lockdep::Entry,
}

impl<G: Deref> Deref for Held<G> {
    type Target = G::Target;

    #[inline]
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Held<G> {
    #[inline]
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

impl<G> Held<G> {
    /// Check `T`'s class against what this thread holds, then `take` the
    /// lock.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    #[cfg_attr(
        not(debug_assertions),
        expect(clippy::extra_unused_type_parameters, reason = "T is the class")
    )]
    fn acquire<T: ?Sized>(take: impl FnOnce() -> G) -> Self {
        #[cfg(debug_assertions)]
        let entry = lockdep::acquire(std::any::type_name::<T>(), std::panic::Location::caller());
        Held {
            guard: take(),
            #[cfg(debug_assertions)]
            entry,
        }
    }
}

/// Lock `mutex`, recovering the guard if a previous holder panicked.
#[expect(clippy::disallowed_methods, reason = "the one sanctioned call")]
#[cfg_attr(debug_assertions, track_caller)]
pub fn lock_unpoisoned<T: ?Sized>(mutex: &Mutex<T>) -> Held<MutexGuard<'_, T>> {
    Held::acquire::<T>(|| mutex.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Take `lock` for shared reading, recovering the guard on poison.
#[expect(clippy::disallowed_methods, reason = "the one sanctioned call")]
#[cfg_attr(debug_assertions, track_caller)]
pub fn read_unpoisoned<T: ?Sized>(lock: &RwLock<T>) -> Held<RwLockReadGuard<'_, T>> {
    Held::acquire::<T>(|| lock.read().unwrap_or_else(PoisonError::into_inner))
}

/// Take `lock` for exclusive writing, recovering the guard on poison.
#[expect(clippy::disallowed_methods, reason = "the one sanctioned call")]
#[cfg_attr(debug_assertions, track_caller)]
pub fn write_unpoisoned<T: ?Sized>(lock: &RwLock<T>) -> Held<RwLockWriteGuard<'_, T>> {
    Held::acquire::<T>(|| lock.write().unwrap_or_else(PoisonError::into_inner))
}

/// Wait on `condvar`, recovering the guard if a holder panicked while we
/// were parked. In debug builds the guard's class leaves the held list for
/// the wait, and the wait panics if any other class is still held.
#[expect(clippy::disallowed_methods, reason = "the one sanctioned call")]
#[cfg_attr(debug_assertions, track_caller)]
pub fn wait_unpoisoned<'a, T>(
    condvar: &Condvar,
    held: Held<MutexGuard<'a, T>>,
) -> Held<MutexGuard<'a, T>> {
    #[cfg(debug_assertions)]
    let class = held.entry.park(std::panic::Location::caller());
    let guard = condvar
        .wait(held.guard)
        .unwrap_or_else(PoisonError::into_inner);
    Held {
        guard,
        #[cfg(debug_assertions)]
        entry: lockdep::acquire(class.0, class.1),
    }
}

/// Every lock class and every (held → acquired) class pair this process
/// has seen, each sorted.
#[cfg(debug_assertions)]
pub fn observed_lock_order() -> (Vec<&'static str>, Vec<(&'static str, &'static str)>) {
    lockdep::observed()
}

#[cfg(debug_assertions)]
mod lockdep {
    use std::cell::{Cell, RefCell};
    use std::collections::{BTreeMap, BTreeSet, HashSet};
    use std::panic::Location;
    use std::sync::{Mutex, PoisonError};

    type Class = &'static str;
    type Site = &'static Location<'static>;
    /// A (held → acquired) class pair.
    type Edge = (Class, Class);
    /// Where an edge's source was held from and its target taken.
    type Sites = (Site, Site);

    /// The process-wide graph: every class seen, and each edge with the
    /// sites that first took it.
    struct Graph {
        classes: BTreeSet<Class>,
        edges: BTreeMap<Edge, Sites>,
    }

    static GRAPH: Mutex<Graph> = Mutex::new(Graph {
        classes: BTreeSet::new(),
        edges: BTreeMap::new(),
    });

    thread_local! {
        /// What this thread holds: (acquisition id, class, site).
        static HELD: RefCell<Vec<(u64, Class, Site)>> = const { RefCell::new(Vec::new()) };
        static NEXT_ID: Cell<u64> = const { Cell::new(0) };
        /// Classes and edges already in [`GRAPH`], so repeat acquisitions
        /// stay off its lock.
        static KNOWN: RefCell<(HashSet<Class>, HashSet<Edge>)> =
            RefCell::new((HashSet::new(), HashSet::new()));
    }

    /// One entry of the thread's held list; dropping it removes that entry,
    /// whatever was taken after it.
    pub(super) struct Entry(u64, Class, Site);

    impl Entry {
        /// Leave the held list for a condvar wait at `site`; returns what
        /// re-acquiring after the wait needs.
        #[expect(clippy::panic, reason = "lockdep reports a broken rule by panicking")]
        pub(super) fn park(self, site: Site) -> (Class, Site) {
            let parked = (self.1, self.2);
            drop(self);
            if let Some((_, other, at)) = HELD.with_borrow(|held| held.first().copied()) {
                panic!(
                    "lockdep: condvar wait on {} at {site} while holding {other} (taken at {at})",
                    parked.0
                );
            }
            parked
        }
    }

    impl Drop for Entry {
        fn drop(&mut self) {
            let _ = HELD.try_with(|held| held.borrow_mut().retain(|h| h.0 != self.0));
        }
    }

    /// Check an acquisition of `class` at `site` against what this thread
    /// holds and what the process has seen, then add it to the held list.
    #[expect(clippy::panic, reason = "lockdep reports a broken rule by panicking")]
    pub(super) fn acquire(class: Class, site: Site) -> Entry {
        // Build any report before panicking, so no `RefCell` borrow or
        // graph lock is live while the held guards unwind.
        let held: Vec<(u64, Class, Site)> = HELD.with_borrow(Vec::clone);
        if let Some((_, _, first)) = held.iter().find(|h| h.1 == class) {
            panic!("lockdep: {class} taken at {site} while already held (taken at {first})");
        }
        let (known, new): (bool, Vec<(Class, Site)>) = KNOWN.with_borrow(|(classes, edges)| {
            let new = held.iter().filter(|h| !edges.contains(&(h.1, class)));
            (classes.contains(class), new.map(|h| (h.1, h.2)).collect())
        });
        if !known || !new.is_empty() {
            if let Err(report) = record(class, site, &new) {
                panic!("{report}");
            }
            KNOWN.with_borrow_mut(|(classes, edges)| {
                classes.insert(class);
                edges.extend(new.iter().map(|&(from, _)| (from, class)));
            });
        }
        let id = NEXT_ID.get();
        NEXT_ID.set(id + 1);
        HELD.with_borrow_mut(|held| held.push((id, class, site)));
        Entry(id, class, site)
    }

    /// Add `class` and an edge to it from each of `held` to the graph, or
    /// report the first edge that would close a cycle.
    #[expect(
        clippy::disallowed_methods,
        reason = "the checker's own lock, outside the graph it keeps"
    )]
    fn record(class: Class, site: Site, held: &[(Class, Site)]) -> Result<(), String> {
        let mut graph = GRAPH.lock().unwrap_or_else(PoisonError::into_inner);
        graph.classes.insert(class);
        for &(from, from_site) in held {
            if let Some(path) = graph.path(class, from) {
                let seen: Vec<String> = path
                    .iter()
                    .map(|((a, b), (a_site, b_site))| {
                        format!("  {a} (held from {a_site}) -> {b} (taken at {b_site})")
                    })
                    .collect();
                return Err(format!(
                    "lockdep: lock order inversion: {class} taken at {site} while holding \
                     {from} (taken at {from_site}), but the opposite order was seen:\n{}",
                    seen.join("\n")
                ));
            }
            graph
                .edges
                .entry((from, class))
                .or_insert((from_site, site));
        }
        Ok(())
    }

    impl Graph {
        /// A path of edges from `from` to `to`, if there is one.
        fn path(&self, from: Class, to: Class) -> Option<Vec<(Edge, Sites)>> {
            let mut seen = BTreeSet::from([from]);
            let mut stack = vec![(from, Vec::new())];
            while let Some((at, path)) = stack.pop() {
                let out = self.edges.range((at, "")..).take_while(|(e, _)| e.0 == at);
                for (&edge, &sites) in out {
                    let mut next = path.clone();
                    next.push((edge, sites));
                    if edge.1 == to {
                        return Some(next);
                    }
                    if seen.insert(edge.1) {
                        stack.push((edge.1, next));
                    }
                }
            }
            None
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the checker's own lock, outside the graph it keeps"
    )]
    pub(super) fn observed() -> (Vec<Class>, Vec<Edge>) {
        let graph = GRAPH.lock().unwrap_or_else(PoisonError::into_inner);
        let classes = graph.classes.iter().copied().collect();
        (classes, graph.edges.keys().copied().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, RwLock};

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

    /// Each test's classes are its own types, so no edge it records can
    /// meet one that the rest of the process takes.
    #[cfg(debug_assertions)]
    mod lockdep {
        use super::*;
        use std::any::type_name;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        /// The panic message of `f`, which must panic.
        fn panic_message(f: impl FnOnce()) -> String {
            let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("lockdep let it pass");
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        }

        /// Take `first` then `second` and hold both.
        fn nest<A, B>(first: &Mutex<A>, second: &Mutex<B>) {
            let _first = lock_unpoisoned(first);
            let _second = lock_unpoisoned(second);
        }

        /// The recorded edges among `classes`.
        fn edges_among(classes: &[&str]) -> Vec<(&'static str, &'static str)> {
            let (_, edges) = observed_lock_order();
            let ours = |class: &str| classes.contains(&class);
            edges
                .into_iter()
                .filter(|e| ours(e.0) && ours(e.1))
                .collect()
        }

        #[test]
        fn opposite_orders_panic_naming_both_sites() {
            struct One;
            struct Two;
            let (one, two) = (Mutex::new(One), RwLock::new(Two));
            for _ in 0..2 {
                let _one = lock_unpoisoned(&one);
                let _two = read_unpoisoned(&two);
            }
            // The same pair inverted, the second lock now written.
            let message = panic_message(|| {
                let _two = write_unpoisoned(&two);
                let _one = lock_unpoisoned(&one);
            });
            assert!(message.contains("lock order inversion"), "{message}");
            assert_eq!(message.matches("sync.rs").count(), 4, "{message}");
            let (one, two) = (type_name::<One>(), type_name::<Two>());
            assert_eq!(edges_among(&[one, two]), [(one, two)]);
        }

        #[test]
        fn a_consistent_order_records_its_edges_and_nothing_else() {
            struct First;
            struct Second;
            struct Third;
            struct Released;
            let (first, second) = (Mutex::new(First), Mutex::new(Second));
            let (third, released) = (Mutex::new(Third), Mutex::new(Released));
            for _ in 0..3 {
                // Released before the next acquisition: no edge.
                drop(lock_unpoisoned(&released));
                let _first = lock_unpoisoned(&first);
                let _second = lock_unpoisoned(&second);
                let _third = lock_unpoisoned(&third);
            }
            nest(&first, &third);
            let classes = [
                type_name::<First>(),
                type_name::<Second>(),
                type_name::<Third>(),
                type_name::<Released>(),
            ];
            let [first, second, third, _] = classes;
            let pinned = [(first, second), (first, third), (second, third)];
            let mut edges = edges_among(&classes);
            edges.sort_unstable();
            assert_eq!(edges, pinned);
        }

        #[test]
        fn a_two_cycle_panics_naming_both_sites() {
            struct PairA;
            struct PairB;
            let (a, b) = (Mutex::new(PairA), Mutex::new(PairB));
            nest(&a, &b);
            let message = panic_message(|| nest(&b, &a));
            assert!(message.contains("lock order inversion"), "{message}");
            let (a, b) = (type_name::<PairA>(), type_name::<PairB>());
            assert!(message.contains(&format!("  {a} (held from ")), "{message}");
            assert!(message.contains(&format!("-> {b} (taken at ")), "{message}");
            assert_eq!(edges_among(&[a, b]), [(a, b)]);
        }

        #[test]
        fn a_three_cycle_panics_naming_the_path_it_closes() {
            struct RingA;
            struct RingB;
            struct RingC;
            let (a, b, c) = (Mutex::new(RingA), Mutex::new(RingB), Mutex::new(RingC));
            nest(&a, &b);
            nest(&b, &c);
            let message = panic_message(|| nest(&c, &a));
            assert!(message.contains("lock order inversion"), "{message}");
            let classes = [
                type_name::<RingA>(),
                type_name::<RingB>(),
                type_name::<RingC>(),
            ];
            let [a, b, c] = classes;
            let path = message.lines().skip(1).collect::<Vec<_>>();
            assert_eq!(path.len(), 2, "{message}");
            assert!(path[0].contains(a) && path[0].contains(&format!("-> {b} ")));
            assert!(path[1].contains(b) && path[1].contains(&format!("-> {c} ")));
            assert!(!edges_among(&classes).contains(&(c, a)));
        }

        #[test]
        fn a_cycle_with_a_tail_reports_only_the_cycle() {
            struct HeadA;
            struct HeadB;
            struct Tail;
            let (a, b, tail) = (Mutex::new(HeadA), Mutex::new(HeadB), Mutex::new(Tail));
            nest(&a, &b);
            nest(&b, &tail);
            let message = panic_message(|| nest(&b, &a));
            assert!(message.contains("lock order inversion"), "{message}");
            assert_eq!(message.lines().count(), 2, "{message}");
            assert!(!message.contains(type_name::<Tail>()), "{message}");
        }

        #[test]
        fn a_diamond_in_one_order_does_not_panic() {
            struct Top;
            struct Left;
            struct Right;
            struct Bottom;
            let (top, left) = (Mutex::new(Top), Mutex::new(Left));
            let (right, bottom) = (Mutex::new(Right), Mutex::new(Bottom));
            nest(&top, &left);
            nest(&top, &right);
            nest(&left, &bottom);
            nest(&right, &bottom);
            // Both paths again, now all four deep in one consistent order.
            let top_guard = lock_unpoisoned(&top);
            nest(&left, &bottom);
            nest(&right, &bottom);
            drop(top_guard);
            let classes = [
                type_name::<Top>(),
                type_name::<Left>(),
                type_name::<Right>(),
                type_name::<Bottom>(),
            ];
            let [top, left, right, bottom] = classes;
            let mut edges = edges_among(&classes);
            edges.sort_unstable();
            let mut pinned = vec![
                (top, left),
                (top, right),
                (top, bottom),
                (left, bottom),
                (right, bottom),
            ];
            pinned.sort_unstable();
            assert_eq!(edges, pinned);
        }

        #[test]
        fn disjoint_chains_do_not_panic() {
            struct ChainA;
            struct ChainB;
            struct ChainC;
            struct ChainD;
            let (a, b) = (Mutex::new(ChainA), Mutex::new(ChainB));
            let (c, d) = (Mutex::new(ChainC), Mutex::new(ChainD));
            nest(&a, &b);
            nest(&c, &d);
            // Either chain may be taken while the other is not held.
            nest(&c, &d);
            nest(&a, &b);
            let classes = [
                type_name::<ChainA>(),
                type_name::<ChainB>(),
                type_name::<ChainC>(),
                type_name::<ChainD>(),
            ];
            let [a, b, c, d] = classes;
            let mut edges = edges_among(&classes);
            edges.sort_unstable();
            let mut pinned = vec![(a, b), (c, d)];
            pinned.sort_unstable();
            assert_eq!(edges, pinned);
        }

        #[test]
        fn guards_drop_out_of_order_and_a_held_class_is_never_nested() {
            struct Outer;
            struct Inner;
            struct Last;
            let (outer, inner, last) = (Mutex::new(Outer), Mutex::new(Inner), Mutex::new(Last));
            let outer_guard = lock_unpoisoned(&outer);
            let _inner = lock_unpoisoned(&inner);
            drop(outer_guard);
            // Dropping `Outer` removed its own entry, not the newest one.
            let _last = lock_unpoisoned(&last);
            let (_, edges) = observed_lock_order();
            assert!(edges.contains(&(type_name::<Inner>(), type_name::<Last>())));
            assert!(!edges.contains(&(type_name::<Outer>(), type_name::<Last>())));
            // A second instance of a held class has no order against it.
            let twin = Mutex::new(Inner);
            let message = panic_message(|| drop(lock_unpoisoned(&twin)));
            assert!(message.contains("already held"), "{message}");
        }

        #[test]
        fn a_wait_releases_its_class_and_panics_under_a_second_lock() {
            struct Flag(bool);
            struct Other;
            let (flag, condvar) = (Arc::new(Mutex::new(Flag(false))), Arc::new(Condvar::new()));
            let (f, c) = (Arc::clone(&flag), Arc::clone(&condvar));
            let setter = std::thread::spawn(move || {
                lock_unpoisoned(&f).0 = true;
                c.notify_all();
            });
            let mut held = lock_unpoisoned(&flag);
            while !held.0 {
                held = wait_unpoisoned(&condvar, held);
            }
            setter.join().unwrap();
            // Back from the wait, the class is held again.
            let twin = Mutex::new(Flag(true));
            assert!(panic_message(|| drop(lock_unpoisoned(&twin))).contains("already held"));
            drop(held);
            let other = Mutex::new(Other);
            let message = panic_message(|| {
                let _other = lock_unpoisoned(&other);
                drop(wait_unpoisoned(&condvar, lock_unpoisoned(&flag)));
            });
            assert!(message.contains("condvar wait"), "{message}");
        }
    }
}
