//! SLO accounting.
//!
//! The tracker collects per-request [`RequestRecord`]s, terminal
//! failure outcomes ([`FailureRecord`]), and a queue-depth timeline as
//! serving progresses, then summarizes them into the
//! latency/throughput numbers a serving evaluation reports: p50/p95/p99
//! latency, mean queueing delay, SLO attainment (the fraction of
//! *offered* requests finishing within the target), throughput, goodput
//! (throughput counting only SLO-compliant requests), and availability
//! (the fraction of offered requests that completed at all).
//!
//! Every admitted request reaches exactly one terminal outcome
//! ([`RequestOutcome`]): completion (a [`RequestRecord`]), an explicit
//! drop (fail-fast displacement, retry-budget exhaustion, or admission
//! shedding), or a timeout. Availability and goodput come straight
//! from the outcome counts, so a run where everything fails still
//! yields a finite, meaningful report.

use lina_simcore::{Samples, SimDuration, SimTime};

use crate::request::RequestRecord;

/// How a request's life ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Served to completion (it has a [`RequestRecord`]).
    Completed,
    /// Dropped: fail-fast displacement, retry-budget exhaustion, a
    /// cluster-wide outage with no scheduled recovery, or admission
    /// shedding.
    Dropped,
    /// Still undispatched when the per-request timeout expired.
    TimedOut,
}

impl RequestOutcome {
    /// Stable lowercase name for metric labels.
    pub fn name(self) -> &'static str {
        match self {
            RequestOutcome::Completed => "completed",
            RequestOutcome::Dropped => "dropped",
            RequestOutcome::TimedOut => "timed-out",
        }
    }
}

/// A request that terminated without completing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailureRecord {
    /// Request id.
    pub id: usize,
    /// Original arrival instant.
    pub arrival: SimTime,
    /// Instant the terminal outcome was decided (the drop instant, or
    /// the timeout deadline).
    pub ended: SimTime,
    /// Tokens the request carried.
    pub tokens: usize,
    /// Which failure outcome ([`RequestOutcome::Completed`] never
    /// appears here).
    pub outcome: RequestOutcome,
}

/// Collects serving measurements.
#[derive(Clone, Debug)]
pub struct SloTracker {
    target: SimDuration,
    records: Vec<RequestRecord>,
    failures: Vec<FailureRecord>,
    depth_timeline: Vec<(SimTime, usize)>,
}

impl SloTracker {
    /// Creates a tracker with a latency target.
    pub fn new(target: SimDuration) -> Self {
        SloTracker {
            target,
            records: Vec::new(),
            failures: Vec::new(),
            depth_timeline: Vec::new(),
        }
    }

    /// The latency target.
    pub fn target(&self) -> SimDuration {
        self.target
    }

    /// Records one served request.
    pub fn record(&mut self, record: RequestRecord) {
        self.records.push(record);
    }

    /// Records one request that terminated without completing.
    pub fn record_failure(&mut self, failure: FailureRecord) {
        self.failures.push(failure);
    }

    /// Records the queue depth observed at an instant (the engine
    /// samples it at every dispatch, right after the batch leaves).
    pub fn record_depth(&mut self, at: SimTime, depth: usize) {
        self.depth_timeline.push((at, depth));
    }

    /// All per-request completion records, in dispatch order.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// All terminal failures, in the order they were decided.
    pub fn failures(&self) -> &[FailureRecord] {
        &self.failures
    }

    /// The queue-depth timeline, in time order.
    pub fn depth_timeline(&self) -> &[(SimTime, usize)] {
        &self.depth_timeline
    }

    /// Summarizes everything recorded so far. Never panics: a run with
    /// zero completions (or zero requests at all) reports zeroed
    /// latencies and throughputs, with availability and attainment
    /// defined from the outcome counts (both 1.0 when nothing was
    /// offered).
    pub fn report(&self) -> SloReport {
        let completed = self.records.len();
        let dropped = self
            .failures
            .iter()
            .filter(|f| f.outcome == RequestOutcome::Dropped)
            .count();
        let timed_out = self
            .failures
            .iter()
            .filter(|f| f.outcome == RequestOutcome::TimedOut)
            .count();
        let offered = completed + dropped + timed_out;

        let mut met = 0usize;
        let (p50, p95, p99, mean_queue_delay, makespan) = if self.records.is_empty() {
            (
                SimDuration::ZERO,
                SimDuration::ZERO,
                SimDuration::ZERO,
                SimDuration::ZERO,
                SimDuration::ZERO,
            )
        } else {
            let mut latencies = Samples::new();
            let mut queue_delays = Samples::new();
            let mut first_arrival = SimTime::MAX;
            let mut last_completion = SimTime::ZERO;
            for r in &self.records {
                latencies.push_duration(r.latency());
                queue_delays.push_duration(r.queue_delay());
                if r.latency() <= self.target {
                    met += 1;
                }
                first_arrival = first_arrival.min(r.arrival);
                last_completion = last_completion.max(r.completed);
            }
            // The throughput window runs from the earliest arrival,
            // not t = 0: under low load the idle lead-in before the
            // first request would otherwise deflate throughput and
            // goodput.
            (
                SimDuration::from_secs_f64(latencies.median()),
                SimDuration::from_secs_f64(latencies.p95()),
                SimDuration::from_secs_f64(latencies.p99()),
                SimDuration::from_secs_f64(queue_delays.mean()),
                last_completion - first_arrival,
            )
        };
        let span = makespan.as_secs_f64().max(f64::MIN_POSITIVE);
        let (attainment, availability) = if offered == 0 {
            (1.0, 1.0)
        } else {
            (
                met as f64 / offered as f64,
                completed as f64 / offered as f64,
            )
        };
        SloReport {
            requests: completed,
            offered,
            dropped,
            timed_out,
            target: self.target,
            p50,
            p95,
            p99,
            mean_queue_delay,
            attainment,
            availability,
            throughput: if completed == 0 {
                0.0
            } else {
                completed as f64 / span
            },
            goodput: if completed == 0 {
                0.0
            } else {
                met as f64 / span
            },
            makespan,
            max_queue_depth: self
                .depth_timeline
                .iter()
                .map(|&(_, d)| d)
                .max()
                .unwrap_or(0),
        }
    }
}

/// Aggregate serving metrics over the tracker's records, failures and
/// depth samples. Cluster-level counters, hedging totals among them,
/// live on [`ClusterOutcome`](crate::ClusterOutcome) only.
#[derive(Clone, Debug, PartialEq)]
pub struct SloReport {
    /// Requests served to completion.
    pub requests: usize,
    /// Requests that reached any terminal outcome (completed, dropped,
    /// or timed out) — on the healthy path this equals `requests`.
    pub offered: usize,
    /// Requests dropped (fail-fast, budget exhaustion, shedding).
    pub dropped: usize,
    /// Requests that outlived the per-request timeout undispatched.
    pub timed_out: usize,
    /// The latency target attainment is measured against.
    pub target: SimDuration,
    /// Median request latency (completions only).
    pub p50: SimDuration,
    /// 95th-percentile request latency (completions only).
    pub p95: SimDuration,
    /// 99th-percentile request latency (completions only).
    pub p99: SimDuration,
    /// Mean time spent queued before dispatch (completions only).
    pub mean_queue_delay: SimDuration,
    /// Fraction of *offered* requests completing within the target (a
    /// dropped or timed-out request counts against attainment).
    pub attainment: f64,
    /// Fraction of offered requests that completed at all (1.0 when
    /// nothing was offered).
    pub availability: f64,
    /// Served requests per second of makespan.
    pub throughput: f64,
    /// SLO-compliant requests per second of makespan.
    pub goodput: f64,
    /// Earliest recorded arrival to last completion.
    pub makespan: SimDuration,
    /// Largest queue depth seen at any dispatch.
    pub max_queue_depth: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: usize, arrival_ms: u64, dispatch_ms: u64, complete_ms: u64) -> RequestRecord {
        RequestRecord {
            id,
            arrival: SimTime::from_millis(arrival_ms),
            dispatched: SimTime::from_millis(dispatch_ms),
            completed: SimTime::from_millis(complete_ms),
            tokens: 1,
            batch: 0,
            service: SimTime::from_millis(complete_ms) - SimTime::from_millis(dispatch_ms),
        }
    }

    fn failure(
        id: usize,
        arrival_ms: u64,
        ended_ms: u64,
        outcome: RequestOutcome,
    ) -> FailureRecord {
        FailureRecord {
            id,
            arrival: SimTime::from_millis(arrival_ms),
            ended: SimTime::from_millis(ended_ms),
            tokens: 1,
            outcome,
        }
    }

    #[test]
    fn attainment_and_goodput() {
        let mut t = SloTracker::new(SimDuration::from_millis(10));
        // The trace starts 100 ms in: an idle lead-in that must not
        // count against throughput (the window opens at the first
        // arrival, not t = 0).
        t.record(record(0, 100, 101, 105)); // 5 ms: meets
        t.record(record(1, 100, 110, 120)); // 20 ms: misses
        t.record_depth(SimTime::from_millis(101), 3);
        t.record_depth(SimTime::from_millis(110), 1);
        let r = t.report();
        assert_eq!(r.requests, 2);
        assert_eq!(r.offered, 2);
        assert!((r.attainment - 0.5).abs() < 1e-12);
        assert!((r.availability - 1.0).abs() < 1e-12);
        assert_eq!(r.makespan, SimDuration::from_millis(20));
        assert!((r.throughput - 100.0).abs() < 1e-9);
        assert!((r.goodput - 50.0).abs() < 1e-9);
        assert_eq!(r.max_queue_depth, 3);
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut t = SloTracker::new(SimDuration::from_millis(50));
        for i in 0..100u64 {
            t.record(record(i as usize, 0, i, i + 1 + i / 10));
        }
        let r = t.report();
        assert!(r.p50 <= r.p95);
        assert!(r.p95 <= r.p99);
        assert!(r.p99 <= r.makespan);
    }

    #[test]
    fn failures_count_against_attainment_and_availability() {
        let mut t = SloTracker::new(SimDuration::from_millis(10));
        t.record(record(0, 100, 101, 105)); // meets
        t.record_failure(failure(1, 100, 140, RequestOutcome::Dropped));
        t.record_failure(failure(2, 102, 152, RequestOutcome::TimedOut));
        t.record_failure(failure(3, 104, 150, RequestOutcome::Dropped));
        let r = t.report();
        assert_eq!(r.requests, 1);
        assert_eq!(r.offered, 4);
        assert_eq!(r.dropped, 2);
        assert_eq!(r.timed_out, 1);
        assert!((r.availability - 0.25).abs() < 1e-12);
        assert!((r.attainment - 0.25).abs() < 1e-12);
    }

    #[test]
    fn all_dropped_report_is_finite() {
        let mut t = SloTracker::new(SimDuration::from_millis(10));
        for id in 0..4 {
            t.record_failure(failure(id, 100, 120, RequestOutcome::Dropped));
        }
        let r = t.report();
        assert_eq!(r.requests, 0);
        assert_eq!(r.offered, 4);
        assert_eq!(r.dropped, 4);
        assert_eq!(r.availability, 0.0);
        assert_eq!(r.attainment, 0.0);
        assert_eq!(r.throughput, 0.0);
        assert_eq!(r.goodput, 0.0);
        assert_eq!(r.p99, SimDuration::ZERO);
        assert_eq!(r.makespan, SimDuration::ZERO);
        assert!(r.availability.is_finite() && r.goodput.is_finite());
    }

    #[test]
    fn zero_request_report_is_defined() {
        let r = SloTracker::new(SimDuration::from_millis(1)).report();
        assert_eq!(r.requests, 0);
        assert_eq!(r.offered, 0);
        assert_eq!(r.availability, 1.0);
        assert_eq!(r.attainment, 1.0);
        assert_eq!(r.throughput, 0.0);
        assert_eq!(r.max_queue_depth, 0);
    }
}
