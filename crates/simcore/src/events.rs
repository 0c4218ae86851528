//! A deterministic discrete-event queue.
//!
//! A binary heap ordered by `(time, insertion seq)`: ties on time are
//! broken by insertion order, so simulations that pop events and react
//! to them are fully deterministic regardless of payload type.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An entry in the queue: fires at `time`, carries `payload`.
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first, then by
        // insertion order for determinism.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with deterministic tie-breaking.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Pops the earliest event only if it fires at or before `time`.
    pub fn pop_due(&mut self, time: SimTime) -> Option<(SimTime, T)> {
        if self.peek_time()? <= time {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Drops every pending event whose payload fails the predicate.
    /// Surviving events keep their original insertion sequence, so pop
    /// order (including ties) is unchanged.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.heap.retain(|e| keep(&e.payload));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3), "c");
        q.push(t(1), "a");
        q.push(t(2), "b");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), Some((t(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn pop_due_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(t(10), "late");
        q.push(t(1), "early");
        assert_eq!(q.pop_due(t(5)), Some((t(1), "early")));
        assert_eq!(q.pop_due(t(5)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(7), ());
        assert_eq!(q.peek_time(), Some(t(7)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn retain_preserves_order_of_survivors() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(t(5), i); // all tied on time: order is insertion seq
        }
        q.push(t(1), 100);
        q.push(t(9), 101);
        q.retain(|&p| p % 2 == 0);
        let mut popped = Vec::new();
        while let Some((_, p)) = q.pop() {
            popped.push(p);
        }
        assert_eq!(popped, vec![100, 0, 2, 4, 6, 8]);
    }
}
