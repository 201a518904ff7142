//! The event queue at the heart of the discrete-event simulator.
//!
//! [`EventQueue`] is a binary heap over one packed `u128` key per entry:
//! the timestamp in the high 64 bits over the insertion sequence number in
//! the low 64 bits. Ordering is a single integer compare, and it is exactly
//! the (time, insertion-order) delivery discipline that keeps every
//! simulation reproducible. `schedule` and `pop` are O(log n); sweep
//! scenarios keep only a few hundred events pending.
//!
//! Most events schedule a successor (a finished thread block issues the
//! next one), so `pop` leaves the popped entry in the heap's top slot and
//! the next `schedule` overwrites it in place, restoring heap order with a
//! single sift-down instead of a pop followed by a push. Keys are unique,
//! so the delivery order does not depend on the heap's internal layout.

use gpreempt_types::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// One scheduled entry: the packed `(time, seq)` ordering key and the
/// payload.
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (and, for
        // ties, the earliest insertion) is popped first.
        other.key.cmp(&self.key)
    }
}

/// Extracts the timestamp from a packed ordering key.
fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// A deterministic time-ordered event queue.
///
/// Events scheduled for the same timestamp are delivered in insertion order,
/// which keeps whole-simulation results reproducible regardless of how the
/// components interleave their scheduling calls.
///
/// # Example
///
/// ```
/// use gpreempt_sim::EventQueue;
/// use gpreempt_types::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(10), 'b');
/// q.schedule(SimTime::from_nanos(10), 'c');
/// q.schedule(SimTime::from_nanos(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
///
/// Events are `Copy`: `pop` hands out a copy of the payload and leaves the
/// entry in place for the next `schedule` to overwrite.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Whether the heap's top entry was already popped: it still occupies
    /// the top slot, waiting to be overwritten by `schedule` or removed by
    /// the next `pop`, `peek_time` or `reset`.
    popped_top: bool,
    next_seq: u64,
    now: SimTime,
    processed: u64,
    clamped: u64,
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue whose backing storage can hold `capacity`
    /// pending events before reallocating. Hot loops that know a lower
    /// bound on their concurrency pre-size the queue so steady-state
    /// scheduling never grows the backing storage.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            popped_top: false,
            next_seq: 0,
            now: SimTime::ZERO,
            processed: 0,
            clamped: 0,
        }
    }

    /// Total capacity of the backing storage, in pending events (useful for
    /// allocation tests).
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Grows the backing storage to hold at least `total` pending events.
    /// Reused queues call this after [`reset`](Self::reset) to restore the
    /// pre-sizing a fresh [`with_capacity`](Self::with_capacity) queue
    /// would have; a no-op once the storage has plateaued.
    pub fn reserve(&mut self, total: usize) {
        self.heap.reserve(total.saturating_sub(self.heap.len()));
    }

    /// Removes the already-popped top entry, if one is still in place.
    fn remove_popped_top(&mut self) {
        if self.popped_top {
            self.popped_top = false;
            self.heap.pop();
        }
    }

    /// Clears all pending events and rewinds the clock, sequence counter
    /// and processed/clamped counts to a fresh state while **keeping the
    /// backing allocation**. Harness-internal reruns reset-and-reuse one
    /// queue instead of re-growing an empty, capacity-zero one.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.popped_top = false;
        self.next_seq = 0;
        self.now = SimTime::ZERO;
        self.processed = 0;
        self.clamped = 0;
    }

    /// The current simulated time: the timestamp of the last popped event
    /// (zero before any event is popped).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of schedules whose requested time lay strictly in the past
    /// and was clamped forward to the current time. A nonzero count means
    /// some component asked for time travel — a causality bug that the
    /// clamp converts into a zero-delay event. Closed-loop simulations are
    /// expected to keep this at exactly zero.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Number of events still pending.
    pub fn len(&self) -> usize {
        self.heap.len() - self.popped_top as usize
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// Scheduling in the past is clamped to the current time so the clock
    /// never moves backwards; this turns causality bugs into zero-delay
    /// events rather than time travel, and [`clamped`](Self::clamped)
    /// counts every occurrence so they cannot pass silently.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let time = if time < self.now {
            self.clamped += 1;
            self.now
        } else {
            time
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = (time.as_nanos() as u128) << 64 | seq as u128;
        let entry = Entry { key, event };
        if self.popped_top {
            // Overwrite the popped entry; dropping the `PeekMut` guard sifts
            // the new entry down to its place.
            self.popped_top = false;
            *self.heap.peek_mut().expect("popped entry in place") = entry;
        } else {
            self.heap.push(entry);
        }
    }

    /// Schedules `event` after a delay relative to the current time.
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.remove_popped_top();
        let entry = self.heap.peek()?;
        let (time, event) = (key_time(entry.key), entry.event);
        debug_assert!(time >= self.now, "event queue time went backwards");
        self.popped_top = true;
        self.now = time;
        self.processed += 1;
        Some((time, event))
    }

    /// Returns the timestamp of the next pending event without popping it.
    /// Takes `&mut self` because it first removes an already-popped entry
    /// still occupying the top slot.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.remove_popped_top();
        self.heap.peek().map(|e| key_time(e.key))
    }
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &(self.heap.len() - self.popped_top as usize))
            .field("processed", &self.processed)
            .field("clamped", &self.clamped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_keep_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_and_counts() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
        assert_eq!(q.processed(), 1);
        assert!(q.pop().is_none());
        // popping from an empty queue does not move the clock
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    fn scheduling_in_the_past_is_clamped_and_counted() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), "a");
        q.pop();
        assert_eq!(q.clamped(), 0);
        q.schedule(SimTime::from_nanos(10), "late");
        assert_eq!(q.clamped(), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(100));
        // Scheduling exactly at `now` is a legal zero-delay event, not a
        // clamp.
        q.schedule(SimTime::from_nanos(100), "now");
        assert_eq!(q.clamped(), 1);
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(50), "first");
        q.pop();
        q.schedule_after(SimTime::from_nanos(10), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(60));
    }

    #[test]
    fn with_capacity_presizes_the_backend() {
        let q: EventQueue<u32> = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn reset_rewinds_the_clock_and_keeps_the_allocation() {
        let mut q = EventQueue::with_capacity(32);
        for i in 0..20u64 {
            q.schedule(SimTime::from_nanos(100 + i), i);
        }
        q.pop();
        let cap = q.capacity();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.processed(), 0);
        assert_eq!(q.clamped(), 0);
        assert!(q.capacity() >= cap, "reset must keep the allocation");
        // The reset queue behaves like a fresh one: earlier times are legal
        // again and FIFO order restarts from sequence zero.
        q.schedule(SimTime::from_nanos(5), 1);
        q.schedule(SimTime::from_nanos(5), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), 2)));
    }

    #[test]
    fn reserve_grows_to_the_requested_total() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.reserve(48);
        assert!(q.capacity() >= 48);
        let cap = q.capacity();
        q.reserve(16);
        assert_eq!(q.capacity(), cap, "a smaller reserve is a no-op");
    }
}
