//! Admission queue and dynamic batcher.
//!
//! Requests queue FIFO; a batch dispatches as soon as either
//! `max_batch_requests` requests are waiting or the oldest queued
//! request has waited `max_wait` (the standard size-or-timeout dynamic
//! batching rule). Dispatch additionally waits for the single model
//! server to free up, and a dispatch forming *after* the timeout (e.g.
//! because the server was busy) greedily takes every queued request up
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
/// function of the (sorted) arrival trace, so the serving engine and
/// the property tests share one implementation.
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

    /// The configured knobs.
    pub fn config(&self) -> &BatcherConfig {
        &self.config
    }

    /// Plans the next dispatch: `arrivals` is the full sorted arrival
    /// trace, `next` the index of the first undispatched request, and
    /// `server_free` the instant the model server becomes available.
    /// Returns `None` once every request has been dispatched.
    ///
    /// The returned batch always contains at least one request, never
    /// more than `max_batch_requests`, and only requests that have
    /// arrived by the dispatch instant.
    pub fn next_dispatch(
        &self,
        arrivals: &[SimTime],
        next: usize,
        server_free: SimTime,
    ) -> Option<Dispatch> {
        if next >= arrivals.len() {
            return None;
        }
        let oldest = arrivals[next];
        // The batch cannot leave before the oldest request exists nor
        // while the server is busy.
        let earliest = oldest.max(server_free);
        // Timeout rule: the oldest request waits at most max_wait
        // (longer only if the server is still busy then).
        let deadline = (oldest + self.config.max_wait).max(server_free);
        // Size rule: if the batch fills before the deadline, go at the
        // filling arrival (or as soon as the server frees up).
        let fill = next + self.config.max_batch_requests - 1;
        let at = match arrivals.get(fill) {
            Some(&kth) if kth <= deadline => kth.max(earliest),
            _ => deadline,
        };
        let count = arrivals[next..]
            .iter()
            .take(self.config.max_batch_requests)
            .filter(|&&a| a <= at)
            .count();
        debug_assert!(count >= 1, "oldest arrival is always <= dispatch instant");
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
        let arrivals = vec![ms(1), ms(2), ms(3), ms(50)];
        let d = b
            .next_dispatch(&arrivals, 0, SimTime::ZERO)
            .expect("pending");
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
        let arrivals = vec![ms(1), ms(5), ms(100)];
        let d = b
            .next_dispatch(&arrivals, 0, SimTime::ZERO)
            .expect("pending");
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
        let arrivals = vec![ms(1), ms(5), ms(20), ms(30), ms(300)];
        // Server busy until t=40: the deadline passes while busy, and by
        // t=40 four requests are queued, so the batch leaves full.
        let d = b.next_dispatch(&arrivals, 0, ms(40)).expect("pending");
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
        let arrivals = vec![ms(1), ms(1), ms(1), ms(1)];
        let d = b
            .next_dispatch(&arrivals, 0, SimTime::ZERO)
            .expect("pending");
        assert_eq!(d.count, 2);
        let d2 = b.next_dispatch(&arrivals, 2, d.at).expect("pending");
        assert_eq!(d2.count, 2);
    }

    #[test]
    fn exhausted_queue_returns_none() {
        let b = batcher(2, 1);
        assert!(b.next_dispatch(&[ms(1)], 1, SimTime::ZERO).is_none());
    }

    #[test]
    #[should_panic(expected = "max_batch_requests")]
    fn zero_batch_size_panics() {
        batcher(0, 1);
    }
}
