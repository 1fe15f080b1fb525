//! A bounded, closeable MPMC job queue — the back-pressure primitive shared
//! by the serving front end's request queue and the live ingest queue.
//!
//! ```text
//!  producers ──push(item, policy)──► [ VecDeque ≤ capacity ] ──pop()──► workers
//!                │                                                │
//!                └─ Reject: Err(Full)   Block: wait for a slot    └─ None once
//!                   Closed: Err(Closed)                              closed + drained
//! ```
//!
//! The queue never grows past `capacity`. A full queue either sheds the
//! pushed item back to the caller ([`QueueFullPolicy::Reject`]) or blocks
//! the caller until a worker frees a slot ([`QueueFullPolicy::Block`]).
//! [`close`](BoundedQueue::close) refuses new pushes while letting workers
//! drain everything already accepted: [`pop`](BoundedQueue::pop) keeps
//! returning items until the queue is both closed *and* empty, and only then
//! returns `None` — the graceful worker exit.
#![expect(
    clippy::disallowed_types,
    reason = "the one bounded queue, built on the VecDeque it bounds"
)]

use crate::sync::{lock_unpoisoned, wait_unpoisoned};
use crate::QueueFullPolicy;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a [`BoundedQueue::push`] did not enqueue; the rejected item rides
/// back to the caller in the error so nothing is silently dropped.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue was at capacity under [`QueueFullPolicy::Reject`].
    Full(T),
    /// The queue was closed.
    Closed {
        /// The item that was not enqueued.
        item: T,
        /// `true` when the close happened while this push was blocked
        /// awaiting a slot under [`QueueFullPolicy::Block`] (as opposed to
        /// the queue already being closed on entry).
        while_waiting: bool,
    },
}

impl<T> PushError<T> {
    /// Recover the item that was not enqueued.
    pub fn into_item(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed { item, .. } => item,
        }
    }
}

struct QueueState<T> {
    items: VecDeque<T>,
    /// `false` once [`BoundedQueue::close`] ran: pushes are refused, pops
    /// drain what remains and then return `None`.
    open: bool,
    peak_depth: usize,
}

/// A bounded multi-producer multi-consumer queue with blocking pop,
/// configurable full-queue policy, and graceful close-and-drain. See the
/// module docs for the protocol.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    /// Signalled when an item is pushed (poppers wait) or the queue closes.
    not_empty: Condvar,
    /// Signalled when an item is popped (blocked pushers wait) or the queue
    /// closes.
    not_full: Condvar,
    capacity: usize,
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("open", &self.is_open())
            .finish()
    }
}

impl<T> BoundedQueue<T> {
    /// An open queue holding at most `capacity` items.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                open: true,
                peak_depth: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// The capacity the queue was created with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueue `item`, applying `policy` when the queue is full. On success
    /// one waiting popper is woken; on failure the item is returned inside
    /// the [`PushError`].
    pub fn push(&self, item: T, policy: QueueFullPolicy) -> Result<(), PushError<T>> {
        let mut state = lock_unpoisoned(&self.state);
        if !state.open {
            return Err(PushError::Closed {
                item,
                while_waiting: false,
            });
        }
        if state.items.len() >= self.capacity {
            match policy {
                QueueFullPolicy::Reject => return Err(PushError::Full(item)),
                QueueFullPolicy::Block => {
                    while state.items.len() >= self.capacity && state.open {
                        state = wait_unpoisoned(&self.not_full, state);
                    }
                    if !state.open {
                        return Err(PushError::Closed {
                            item,
                            while_waiting: true,
                        });
                    }
                }
            }
        }
        state.items.push_back(item);
        state.peak_depth = state.peak_depth.max(state.items.len());
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeue the oldest item, blocking while the queue is empty but open.
    /// Returns `None` only once the queue is closed *and* drained — the
    /// graceful exit signal for worker loops. A successful pop wakes one
    /// pusher blocked on a full queue.
    pub fn pop(&self) -> Option<T> {
        let item = {
            let mut state = lock_unpoisoned(&self.state);
            loop {
                if let Some(item) = state.items.pop_front() {
                    break item;
                }
                if !state.open {
                    return None; // closed and drained
                }
                state = wait_unpoisoned(&self.not_empty, state);
            }
        };
        self.not_full.notify_one();
        Some(item)
    }

    /// Close the queue: refuse new pushes (including pushes currently
    /// blocked on a full queue), wake every waiting pusher and popper, and
    /// let poppers drain what was already accepted.
    pub fn close(&self) {
        {
            let mut state = lock_unpoisoned(&self.state);
            state.open = false;
        }
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// `true` until [`close`](Self::close) runs.
    #[must_use]
    pub fn is_open(&self) -> bool {
        lock_unpoisoned(&self.state).open
    }

    /// Items currently waiting in the queue.
    #[must_use]
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.state).items.len()
    }

    /// `true` when no items are waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The deepest the queue has ever been.
    #[must_use]
    pub fn peak_depth(&self) -> usize {
        lock_unpoisoned(&self.state).peak_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_peak_tracking() {
        let queue = BoundedQueue::new(4);
        for i in 0..3 {
            queue.push(i, QueueFullPolicy::Reject).unwrap();
        }
        assert_eq!(queue.len(), 3);
        assert_eq!(queue.peak_depth(), 3);
        assert_eq!(queue.pop(), Some(0));
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.peak_depth(), 3, "peak survives the drain");
        assert!(queue.is_empty());
    }

    #[test]
    fn reject_policy_sheds_at_capacity() {
        let queue = BoundedQueue::new(1);
        queue.push("a", QueueFullPolicy::Reject).unwrap();
        match queue.push("b", QueueFullPolicy::Reject) {
            Err(PushError::Full(item)) => assert_eq!(item, "b"),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(queue.len(), 1, "shed push left the queue untouched");
    }

    #[test]
    fn block_policy_waits_for_a_slot() {
        let queue = Arc::new(BoundedQueue::new(1));
        queue.push(0u32, QueueFullPolicy::Block).unwrap();
        let pusher = std::thread::spawn({
            let queue = Arc::clone(&queue);
            move || queue.push(1u32, QueueFullPolicy::Block)
        });
        // The pusher is blocked on the full queue; popping frees the slot.
        assert_eq!(queue.pop(), Some(0));
        pusher.join().unwrap().unwrap();
        assert_eq!(queue.pop(), Some(1));
    }

    #[test]
    fn close_refuses_pushes_but_drains_pops() {
        let queue = BoundedQueue::new(4);
        queue.push(1, QueueFullPolicy::Reject).unwrap();
        queue.close();
        match queue.push(2, QueueFullPolicy::Reject) {
            Err(PushError::Closed {
                item,
                while_waiting,
            }) => {
                assert_eq!(item, 2);
                assert!(!while_waiting);
            }
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(queue.pop(), Some(1), "accepted items drain after close");
        assert_eq!(queue.pop(), None, "closed and drained");
        assert!(!queue.is_open());
    }

    #[test]
    fn close_wakes_a_blocked_pusher() {
        let queue = Arc::new(BoundedQueue::new(1));
        queue.push(0u32, QueueFullPolicy::Block).unwrap();
        let pusher = std::thread::spawn({
            let queue = Arc::clone(&queue);
            move || queue.push(1u32, QueueFullPolicy::Block)
        });
        // Give the pusher time to park on the full queue, then close.
        while !pusher.is_finished() {
            queue.close();
            std::thread::yield_now();
        }
        match pusher.join().unwrap() {
            Err(PushError::Closed { while_waiting, .. }) => {
                // Either the close won the race before the push entered
                // (while_waiting == false) or it interrupted the wait; both
                // refuse the item.
                let _ = while_waiting;
            }
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn pop_blocks_until_a_push_arrives() {
        let queue = Arc::new(BoundedQueue::new(4));
        let popper = std::thread::spawn({
            let queue = Arc::clone(&queue);
            move || queue.pop()
        });
        queue.push(42u64, QueueFullPolicy::Reject).unwrap();
        assert_eq!(popper.join().unwrap(), Some(42));
    }
}
