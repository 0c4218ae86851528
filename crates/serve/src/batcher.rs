//! Admission queue and dynamic batcher.
//!
//! Requests queue FIFO; a batch dispatches as soon as either
//! `max_batch_requests` requests are waiting or the oldest queued
//! request has waited `max_wait` (the standard size-or-timeout dynamic
//! batching rule). Dispatch additionally waits for a free dispatch slot
//! on its replica, and a dispatch forming *after* the timeout (e.g.
//! because every slot was busy) greedily takes every queued request up
//! to the size cap, so batches run full under backlog.

use lina_simcore::{SimDuration, SimTime};

/// Dynamic batching knobs.
#[derive(Clone, Debug)]
pub struct BatcherConfig {
    /// Dispatch immediately once this many requests are queued.
    pub max_batch_requests: usize,
    /// Dispatch once the oldest queued request has waited this long,
    /// even if the batch is not full.
    pub max_wait: SimDuration,
}

impl BatcherConfig {
    /// Validates the knobs.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch_requests` is zero.
    pub fn validate(&self) {
        assert!(
            self.max_batch_requests > 0,
            "batcher: max_batch_requests must be > 0"
        );
    }
}

/// One planned dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Dispatch {
    /// The instant the batch leaves the queue.
    pub at: SimTime,
    /// How many queued requests it takes (FIFO prefix).
    pub count: usize,
}

/// The dispatch-decision core of the dynamic batcher. It is a pure
/// function of the (sorted) waiting admissions, so the cluster event
/// loop and the property tests share one implementation.
#[derive(Clone, Debug)]
pub struct Batcher {
    config: BatcherConfig,
}

impl Batcher {
    /// Creates a batcher.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`BatcherConfig::validate`]).
    pub fn new(config: BatcherConfig) -> Self {
        config.validate();
        Batcher { config }
    }

    /// Plans the next dispatch: `waiting` yields the admission instants
    /// of the undispatched requests, oldest first (ascending), and
    /// `slot_free` is the instant the replica's next dispatch slot
    /// opens. Reads at most `max_batch_requests` instants. Returns
    /// `None` when nothing is waiting.
    ///
    /// The returned batch always contains at least one request, never
    /// more than `max_batch_requests`, and only requests that have
    /// arrived by the dispatch instant.
    pub fn next_dispatch(
        &self,
        waiting: impl IntoIterator<Item = SimTime>,
        slot_free: SimTime,
    ) -> Option<Dispatch> {
        let cap = self.config.max_batch_requests;
        let mut waiting = waiting.into_iter();
        let oldest = waiting.next()?;
        // The batch cannot leave before the oldest request exists nor
        // while every slot is busy.
        let earliest = oldest.max(slot_free);
        // Timeout rule: the oldest request waits at most max_wait
        // (longer only if no slot is free by then).
        let deadline = (oldest + self.config.max_wait).max(slot_free);
        // Size rule: if the batch fills before the deadline, go at the
        // filling arrival (or as soon as a slot frees up). The instants
        // ascend, so the requests waiting by the deadline are a prefix.
        let (count, last) = waiting
            .take(cap - 1)
            .take_while(|&a| a <= deadline)
            .fold((1, oldest), |(n, _), a| (n + 1, a));
        let at = if count == cap {
            last.max(earliest)
        } else {
            deadline
        };
        Some(Dispatch { at, count })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn batcher(max_batch: usize, wait_ms: u64) -> Batcher {
        Batcher::new(BatcherConfig {
            max_batch_requests: max_batch,
            max_wait: SimDuration::from_millis(wait_ms),
        })
    }

    #[test]
    fn dispatches_when_full() {
        let b = batcher(3, 100);
        let arrivals = [ms(1), ms(2), ms(3), ms(50)];
        let d = b.next_dispatch(arrivals, SimTime::ZERO).expect("pending");
        assert_eq!(
            d,
            Dispatch {
                at: ms(3),
                count: 3
            }
        );
    }

    #[test]
    fn dispatches_partial_on_timeout() {
        let b = batcher(8, 10);
        let arrivals = [ms(1), ms(5), ms(100)];
        let d = b.next_dispatch(arrivals, SimTime::ZERO).expect("pending");
        assert_eq!(
            d,
            Dispatch {
                at: ms(11),
                count: 2
            }
        );
    }

    #[test]
    fn busy_server_delays_and_fills_the_batch() {
        let b = batcher(4, 10);
        let arrivals = [ms(1), ms(5), ms(20), ms(30), ms(300)];
        // Server busy until t=40: the deadline passes while busy, and by
        // t=40 four requests are queued, so the batch leaves full.
        let d = b.next_dispatch(arrivals, ms(40)).expect("pending");
        assert_eq!(
            d,
            Dispatch {
                at: ms(40),
                count: 4
            }
        );
    }

    #[test]
    fn takes_at_most_the_size_cap() {
        let b = batcher(2, 1000);
        let arrivals = [ms(1), ms(1), ms(1), ms(1)];
        let d = b.next_dispatch(arrivals, SimTime::ZERO).expect("pending");
        assert_eq!(d.count, 2);
        let d2 = b
            .next_dispatch(arrivals[2..].iter().copied(), d.at)
            .expect("pending");
        assert_eq!(d2.count, 2);
    }

    #[test]
    fn exhausted_queue_returns_none() {
        let b = batcher(2, 1);
        assert!(b.next_dispatch([], SimTime::ZERO).is_none());
    }

    #[test]
    #[should_panic(expected = "max_batch_requests")]
    fn zero_batch_size_panics() {
        batcher(0, 1);
    }
}
