//! Bounded queue with explicit backpressure: the service's submission
//! queue and every fleet shard's chunk queue.
//!
//! `Mutex<VecDeque>` + `Condvar` rather than a channel: producers need
//! an immediate full/not-full answer (never blocking, never dropping),
//! the owning consumer needs a timed wait so it can wake up for linger
//! deadlines and steal polls, and other shards' thieves need a
//! non-blocking pop of the oldest entry (`pop_wait(Duration::ZERO)`).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Result of a non-blocking push.
#[derive(Debug, PartialEq, Eq)]
pub enum PushResult<T> {
    /// Enqueued.
    Ok,
    /// Queue at capacity; the item is handed back to the caller.
    Full(T),
    /// Queue closed; the item is handed back to the caller.
    Closed(T),
}

/// Result of a timed pop.
#[derive(Debug, PartialEq, Eq)]
pub enum PopResult<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue empty.
    TimedOut,
    /// The queue is closed *and* fully drained; no more items will come.
    Closed,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded FIFO queue: many producers (submitters, the fleet's
/// scheduler and retrying shards); one owning consumer, plus, on a fleet
/// shard, thieves that pop too. Every pop takes the oldest entry under
/// one lock, so an entry is taken exactly once.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        assert!(capacity > 0, "queue capacity must be at least 1");
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (racy by nature; for stats only).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// Whether the queue is currently empty (racy; for stats only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Try to enqueue without blocking. A full queue rejects — the
    /// caller gets the item back and decides (retry, shed, error out).
    pub fn try_push(&self, item: T) -> PushResult<T> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return PushResult::Closed(item);
        }
        if st.items.len() >= self.capacity {
            return PushResult::Full(item);
        }
        st.items.push_back(item);
        drop(st);
        self.available.notify_one();
        PushResult::Ok
    }

    /// Dequeue, waiting up to `timeout` for an item. Items still queued
    /// after close are drained before `Closed` is reported.
    pub fn pop_wait(&self, timeout: Duration) -> PopResult<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.items.pop_front() {
                return PopResult::Item(item);
            }
            if st.closed {
                return PopResult::Closed;
            }
            if timeout.is_zero() {
                return PopResult::TimedOut;
            }
            let (next, res) = self.available.wait_timeout(st, timeout).unwrap();
            st = next;
            if res.timed_out() {
                return match st.items.pop_front() {
                    Some(item) => PopResult::Item(item),
                    None if st.closed => PopResult::Closed,
                    None => PopResult::TimedOut,
                };
            }
        }
    }

    /// Close the queue: submitters are rejected from now on, the
    /// consumer drains what is left and then sees `Closed`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(4);
        assert_eq!(q.try_push(1), PushResult::Ok);
        assert_eq!(q.try_push(2), PushResult::Ok);
        assert_eq!(q.pop_wait(Duration::ZERO), PopResult::Item(1));
        assert_eq!(q.pop_wait(Duration::ZERO), PopResult::Item(2));
        assert_eq!(q.pop_wait(Duration::ZERO), PopResult::TimedOut);
    }

    #[test]
    fn full_queue_rejects_with_item_back() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push("a"), PushResult::Ok);
        assert_eq!(q.try_push("b"), PushResult::Ok);
        assert_eq!(q.try_push("c"), PushResult::Full("c"));
        let _ = q.pop_wait(Duration::ZERO);
        assert_eq!(q.try_push("c"), PushResult::Ok);
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = BoundedQueue::new(4);
        q.try_push(1);
        q.close();
        assert_eq!(q.try_push(2), PushResult::Closed(2));
        assert_eq!(q.pop_wait(Duration::ZERO), PopResult::Item(1));
        assert_eq!(q.pop_wait(Duration::ZERO), PopResult::Closed);
    }

    #[test]
    fn timed_wait_wakes_on_push() {
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.pop_wait(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.try_push(42), PushResult::Ok);
        assert_eq!(handle.join().unwrap(), PopResult::Item(42));
    }

    #[test]
    fn timed_wait_wakes_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.pop_wait(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(handle.join().unwrap(), PopResult::Closed);
    }
}
