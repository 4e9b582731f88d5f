//! Bounded MPMC queue on `std::sync::Mutex` + `Condvar`.
//!
//! One queue carries whole queries to the worker pool. Producers never
//! block: a full queue is an admission-control signal ([`PushError::Full`])
//! that the runtime converts into a reject with a retry-after hint.
//! Consumers pop one item at a time, so a free worker never waits behind
//! work another worker has claimed.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::poison;

/// Why a non-blocking push was refused. The rejected item is handed back.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — shed load or retry later.
    Full(T),
    /// The queue was closed (runtime shutting down).
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer FIFO.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue without blocking; a full or closed queue refuses the item.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = poison::lock(&self.state);
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeue the oldest item, waiting for one; `None` once the queue is
    /// closed and drained (the consumer should exit).
    pub fn pop(&self) -> Option<T> {
        let mut state = poison::lock(&self.state);
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = poison::wait(&self.not_empty, state);
        }
    }

    /// Items currently queued (a racy snapshot, for backpressure hints).
    pub fn len(&self) -> usize {
        poison::lock(&self.state).items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the queue: future pushes fail, consumers drain what remains
    /// and then [`BoundedQueue::pop`] returns `None`.
    pub fn close(&self) {
        let mut state = poison::lock(&self.state);
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
    }
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn full_queue_rejects() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn close_drains_then_signals() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert!(matches!(q.try_push(8), Err(PushError::Closed(8))));
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    /// Audit for the multi-connection ingress path (`crates/net` hands
    /// every connection thread straight to `try_push`): a simultaneous
    /// burst from N producers with no consumer running must admit EXACTLY
    /// `capacity` items — the len-check-then-push happens under one state
    /// mutex, so there is no window where two producers both observe a
    /// free slot and over-admit past the bound.
    #[test]
    fn concurrent_burst_never_over_admits() {
        const PRODUCERS: usize = 16;
        const PER_PRODUCER: usize = 64;
        const CAPACITY: usize = 37; // deliberately not a multiple of anything
        let q = std::sync::Arc::new(BoundedQueue::new(CAPACITY));
        let admitted = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(PRODUCERS));
        std::thread::scope(|s| {
            for t in 0..PRODUCERS {
                let q = q.clone();
                let admitted = admitted.clone();
                let barrier = barrier.clone();
                s.spawn(move || {
                    barrier.wait(); // maximally simultaneous burst
                    for i in 0..PER_PRODUCER {
                        if q.try_push(t * PER_PRODUCER + i).is_ok() {
                            admitted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            admitted.load(std::sync::atomic::Ordering::Relaxed),
            CAPACITY,
            "burst admission must stop exactly at the bound"
        );
        assert_eq!(q.len(), CAPACITY);
        // Draining frees exactly the admitted slots, no phantoms.
        q.close();
        let mut drained = 0;
        while q.pop().is_some() {
            drained += 1;
        }
        assert_eq!(drained, CAPACITY);
    }

    /// Same audit with consumers live: a sampling thread watches `len()`
    /// while producers burst and consumers drain; the queued depth must
    /// never exceed capacity at any observed instant.
    #[test]
    fn depth_never_exceeds_capacity_under_churn() {
        const CAPACITY: usize = 8;
        let q = std::sync::Arc::new(BoundedQueue::new(CAPACITY));
        let max_seen = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let _ = q.try_push(t * 10_000 + i); // rejects are fine
                    }
                });
            }
            {
                let q = q.clone();
                s.spawn(move || while q.pop().is_some() {});
            }
            {
                let q = q.clone();
                let max_seen = max_seen.clone();
                s.spawn(move || {
                    for _ in 0..50_000 {
                        let d = q.len();
                        max_seen.fetch_max(d, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
            // Producers finish first (scope join order is reverse-spawn, so
            // close after a short settle to release the consumer).
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.close();
        });
        assert!(
            max_seen.load(std::sync::atomic::Ordering::Relaxed) <= CAPACITY,
            "observed depth {} beyond capacity {CAPACITY}",
            max_seen.load(std::sync::atomic::Ordering::Relaxed)
        );
    }

    #[test]
    fn concurrent_producers_consumers_preserve_items() {
        let q = std::sync::Arc::new(BoundedQueue::new(16));
        let total = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            let producers: Vec<_> = (0..3u64)
                .map(|t| {
                    let q = q.clone();
                    s.spawn(move || {
                        for i in 0..500u64 {
                            let mut item = t * 1000 + i;
                            loop {
                                match q.try_push(item) {
                                    Ok(()) => break,
                                    Err(PushError::Full(back)) => {
                                        item = back;
                                        std::thread::yield_now();
                                    }
                                    Err(PushError::Closed(_)) => panic!("closed early"),
                                }
                            }
                        }
                    })
                })
                .collect();
            for _ in 0..2 {
                let q = q.clone();
                let total = total.clone();
                s.spawn(move || {
                    while let Some(v) = q.pop() {
                        total.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
            for p in producers {
                p.join().expect("producer");
            }
            // Consumers drain the remainder, then see Closed and exit.
            q.close();
        });
        let want: u64 = (0..3u64)
            .flat_map(|t| (0..500u64).map(move |i| t * 1000 + i))
            .sum();
        assert_eq!(total.load(std::sync::atomic::Ordering::Relaxed), want);
    }
}
