//! Request load balancing for the multi-replica cluster.
//!
//! A [`BalancerKind`] routes each arriving request to one replica,
//! seeing a snapshot of every replica's queue and server state at the
//! arrival instant. Three policies ship with the crate:
//!
//! * [`BalancerKind::RoundRobin`] — rotation, blind to load;
//! * [`BalancerKind::JoinShortestQueue`] — fewest outstanding tokens
//!   (queued plus in-flight), the classic JSQ rule at token
//!   granularity;
//! * [`BalancerKind::LeastExpectedLatency`] — SLO-aware: picks the
//!   replica whose expected completion (server drain time plus queued
//!   work over the replica's share of
//!   [`capacity`](crate::ClusterEngine::capacity)) is soonest.
//!
//! All policies route over *routable* replicas only: a crashed
//! replica is invisible until its recovery event, a replica the
//! autoscaler is draining receives nothing new while it finishes its
//! queue, and a freshly provisioned replica is invisible until its
//! weight reload completes — even when the excluded replica's (stale)
//! queue state would make it the argmin. The cluster engine guarantees at least one routable
//! replica at every pick (a total outage is handled upstream by the
//! degradation policy, before routing).
//!
//! Replica health arrives as a continuous *suspicion* score from the
//! gray-failure detector ([`crate::health`]), not a bool: `0.0`
//! is indistinguishable from baseline, `>= 1.0` excludes the replica
//! from the routable set (infinity marks a crashed or retired
//! replica), and intermediate values penalize the replica under
//! least-expected-latency without excluding it. Under the oracle
//! detector every live replica's suspicion is exactly `0.0`, so the
//! historical health-bit routing is reproduced bit for bit.
//!
//! Every pick is a pure function of the snapshots and the round-robin
//! anchor the cluster keeps beside the kind: the cluster engine's
//! bit-reproducibility rests on it.

use lina_simcore::SimTime;

/// One replica's queue and server state at a routing instant.
#[derive(Clone, Debug)]
pub(crate) struct ReplicaSnapshot {
    /// Replica index.
    pub id: usize,
    /// Gray-failure suspicion: `0.0` baseline-healthy, `>= 1.0`
    /// excluded from routing, `f64::INFINITY` for a crashed or
    /// decommissioned replica (which must never be picked). Values in
    /// `(0, 1)` keep the replica routable but penalize it under
    /// [`BalancerKind::LeastExpectedLatency`].
    pub suspicion: f64,
    /// Being drained for decommission by the autoscaler: it still
    /// finishes its queued work but receives no new requests.
    pub draining: bool,
    /// Still loading weights after an elastic scale-up: it will serve
    /// once provisioning completes, but receives no requests until
    /// then.
    pub provisioning: bool,
    /// Requests routed to this replica but not yet dispatched.
    pub queued_requests: usize,
    /// Tokens routed to this replica but not yet dispatched.
    pub queued_tokens: usize,
    /// Tokens across every batch in flight on the replica (0 when
    /// idle).
    pub in_flight_tokens: usize,
    /// Instant the replica expects to drain: the latest solo-priced
    /// completion of its in-flight batches (in the past when idle).
    /// Under a contended network it is an estimate, which the cluster
    /// pays for only when something reads it: [`SimTime::ZERO`] unless
    /// the balancer is [`BalancerKind::LeastExpectedLatency`] (its one
    /// reader) or a pricing detector is armed, like `capacity`.
    pub server_free: SimTime,
    /// The replica's sustainable throughput upper bound (requests/s),
    /// one replica's share of [`crate::ClusterEngine::capacity`], scaled down
    /// for device loss; a gray slowdown stays invisible. Zero when the
    /// caller did not probe it (only
    /// [`BalancerKind::LeastExpectedLatency`] reads it).
    pub capacity: f64,
}

impl ReplicaSnapshot {
    /// Tokens this replica still has to push through its server:
    /// queued plus in-flight.
    pub fn outstanding_tokens(&self) -> usize {
        self.queued_tokens + self.in_flight_tokens
    }

    /// Ready to receive new requests: suspicion under the exclusion
    /// threshold (which also excludes crashed replicas, whose
    /// suspicion is infinite), not draining toward decommission, and
    /// past its provisioning weight reload. Every balancer routes over
    /// the routable subset only.
    pub fn routable(&self) -> bool {
        self.suspicion < 1.0 && !self.draining && !self.provisioning
    }
}

/// The dispatch-time routing policy over replicas, chosen per run.
/// Every kind routes over the *routable* replicas only; the load-aware
/// kinds break ties toward the lowest replica id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalancerKind {
    /// Rotates through the routable replicas, blind to their load.
    ///
    /// The rotation anchors on the *last picked replica id*, not a
    /// positional cursor into the filtered list: under a mutating
    /// replica set (crashes, recoveries, elastic scale-up/down) a
    /// positional cursor skips or double-hits replicas whenever the
    /// filtered list shifts underneath it, while the id anchor always
    /// advances to the next routable id in cyclic order.
    RoundRobin,
    /// Joins the replica with the fewest outstanding tokens (queued
    /// plus in-flight).
    JoinShortestQueue,
    /// Joins the replica with the least expected completion latency:
    /// remaining server busy time plus the queued requests (and the new
    /// one) drained at the replica's probed capacity, stretched by
    /// `1 + suspicion` so a partially suspected replica keeps serving
    /// at reduced weight (an exact no-op at suspicion zero).
    /// Capacity-aware, so it generalizes JSQ to heterogeneous or
    /// degraded replicas.
    LeastExpectedLatency,
}

impl BalancerKind {
    /// The policy's display name.
    pub fn name(self) -> &'static str {
        match self {
            BalancerKind::RoundRobin => "round-robin",
            BalancerKind::JoinShortestQueue => "jsq",
            BalancerKind::LeastExpectedLatency => "least-latency",
        }
    }

    /// Chooses the replica for a request arriving at `now`: the `id`
    /// of one of the given *routable* snapshots (the caller guarantees
    /// at least one). `last` is the round-robin anchor, the id the
    /// previous pick routed to; only [`BalancerKind::RoundRobin`]
    /// reads or moves it.
    pub(crate) fn pick(
        self,
        replicas: &[ReplicaSnapshot],
        now: SimTime,
        last: &mut Option<usize>,
    ) -> usize {
        let routable = || replicas.iter().filter(|r| r.routable());
        match self {
            BalancerKind::RoundRobin => {
                // The next routable id strictly after the last pick,
                // wrapping to the smallest routable id.
                let after = routable()
                    .filter(|r| last.is_some_and(|l| r.id > l))
                    .map(|r| r.id)
                    .min();
                let id = after
                    .or_else(|| routable().map(|r| r.id).min())
                    .expect("round-robin: no routable replica");
                *last = Some(id);
                id
            }
            BalancerKind::JoinShortestQueue => {
                routable()
                    .min_by_key(|r| (r.outstanding_tokens(), r.id))
                    .expect("at least one routable replica")
                    .id
            }
            BalancerKind::LeastExpectedLatency => {
                let score = |r: &ReplicaSnapshot| {
                    let busy = r.server_free.saturating_since(now).as_secs_f64();
                    let rate = if r.capacity > 0.0 {
                        r.capacity
                    } else {
                        f64::INFINITY
                    };
                    (busy + (r.queued_requests as f64 + 1.0) / rate) * (1.0 + r.suspicion)
                };
                routable()
                    .min_by(|a, b| {
                        score(a)
                            .partial_cmp(&score(b))
                            .expect("scores are finite or +inf, never NaN")
                            .then(a.id.cmp(&b.id))
                    })
                    .expect("at least one routable replica")
                    .id
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::BalancerKind::{JoinShortestQueue, LeastExpectedLatency, RoundRobin};
    use super::*;

    /// Picks with a fresh round-robin anchor.
    fn pick(kind: BalancerKind, snaps: &[ReplicaSnapshot]) -> usize {
        kind.pick(snaps, SimTime::ZERO, &mut None)
    }

    /// One round-robin pick, moving the anchor `rr`.
    fn rotate(rr: &mut Option<usize>, snaps: &[ReplicaSnapshot]) -> usize {
        RoundRobin.pick(snaps, SimTime::ZERO, rr)
    }

    fn snap(id: usize, queued_tokens: usize, in_flight: usize, free_ms: u64) -> ReplicaSnapshot {
        ReplicaSnapshot {
            id,
            suspicion: 0.0,
            draining: false,
            provisioning: false,
            queued_requests: queued_tokens / 64,
            queued_tokens,
            in_flight_tokens: in_flight,
            server_free: SimTime::from_millis(free_ms),
            capacity: 100.0,
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut rr = None;
        let snaps = vec![snap(0, 0, 0, 0), snap(1, 0, 0, 0), snap(2, 0, 0, 0)];
        let picks: Vec<usize> = (0..6).map(|_| rotate(&mut rr, &snaps)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn jsq_prefers_fewest_outstanding_tokens() {
        // Replica 1 has the least queued + in-flight work.
        let snaps = vec![snap(0, 512, 0, 0), snap(1, 128, 64, 5), snap(2, 0, 256, 9)];
        assert_eq!(pick(JoinShortestQueue, &snaps), 1);
        // Ties break toward the lowest id.
        let tied = vec![snap(0, 128, 0, 0), snap(1, 128, 0, 0)];
        assert_eq!(pick(JoinShortestQueue, &tied), 0);
    }

    #[test]
    fn least_latency_accounts_for_busy_servers() {
        // Replica 0 is idle but deeply queued; replica 1 busy for 1 ms
        // with an empty queue: 1 ms + 1/100 s < 0 + 11/100 s.
        let mut a = snap(0, 640, 0, 0);
        a.queued_requests = 10;
        let mut b = snap(1, 0, 64, 1);
        b.queued_requests = 0;
        assert_eq!(pick(LeastExpectedLatency, &[a, b]), 1);
    }

    #[test]
    fn down_replica_is_never_picked_even_as_argmin() {
        // Replica 0 looks *ideal* on every axis — empty queue, idle
        // server — but it is down. Every policy must route around it.
        let mut down = snap(0, 0, 0, 0);
        down.suspicion = f64::INFINITY;
        let busy = snap(1, 512, 256, 9);
        let snaps = vec![down, busy];
        let mut rr = None;
        for _ in 0..4 {
            assert_eq!(rotate(&mut rr, &snaps), 1, "round-robin");
        }
        assert_eq!(pick(JoinShortestQueue, &snaps), 1, "jsq");
        assert_eq!(pick(LeastExpectedLatency, &snaps), 1, "least-latency");
    }

    #[test]
    fn round_robin_rotation_skips_the_dead() {
        let mut rr = None;
        let mut snaps = vec![snap(0, 0, 0, 0), snap(1, 0, 0, 0), snap(2, 0, 0, 0)];
        snaps[1].suspicion = f64::INFINITY;
        let picks: Vec<usize> = (0..4).map(|_| rotate(&mut rr, &snaps)).collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn round_robin_cursor_is_stable_under_a_mutating_replica_set() {
        // The positional-cursor bug this pins against: with replicas
        // {0, 1, 2}, picking 0 then 1 and *then* losing replica 1 used
        // to rewind the rotation to 0 (cursor 2 % 2 == 0), double-
        // hitting 0 and starving 2. The id-anchored rotation continues
        // at the next routable id.
        let mut rr = None;
        let three = vec![snap(0, 0, 0, 0), snap(1, 0, 0, 0), snap(2, 0, 0, 0)];
        assert_eq!(rotate(&mut rr, &three), 0);
        assert_eq!(rotate(&mut rr, &three), 1);
        let mut lost = three.clone();
        lost[1].suspicion = f64::INFINITY;
        assert_eq!(rotate(&mut rr, &lost), 2, "no double-hit of 0");
        // Replica 1 comes back and a new replica 3 joins (elastic
        // scale-up): the rotation picks up both without skipping.
        let mut grown = three.clone();
        grown.push(snap(3, 0, 0, 0));
        assert_eq!(rotate(&mut rr, &grown), 3);
        assert_eq!(rotate(&mut rr, &grown), 0, "wraps to the smallest id");
        assert_eq!(rotate(&mut rr, &grown), 1);
    }

    #[test]
    fn round_robin_covers_every_routable_replica_exactly_once_per_cycle() {
        // Rotation invariant under churn: across any window where the
        // routable set is fixed, K consecutive picks hit each replica
        // exactly once (no skips, no double-hits), regardless of what
        // the rotation saw before.
        let mut rr = None;
        let warm = vec![snap(0, 0, 0, 0), snap(1, 0, 0, 0), snap(4, 0, 0, 0)];
        for _ in 0..4 {
            rotate(&mut rr, &warm);
        }
        let stable = vec![
            snap(0, 0, 0, 0),
            snap(2, 0, 0, 0),
            snap(3, 0, 0, 0),
            snap(5, 0, 0, 0),
        ];
        let mut picks: Vec<usize> = (0..4).map(|_| rotate(&mut rr, &stable)).collect();
        picks.sort_unstable();
        assert_eq!(picks, vec![0, 2, 3, 5]);
    }

    #[test]
    fn draining_and_provisioning_replicas_are_never_picked_even_as_argmin() {
        // Mirror of the health-filter test for the autoscale lifecycle
        // states: an idle draining replica and an idle provisioning
        // replica both look ideal on every axis, but only the busy
        // active replica is routable.
        let mut draining = snap(0, 0, 0, 0);
        draining.draining = true;
        let mut provisioning = snap(1, 0, 0, 0);
        provisioning.provisioning = true;
        let busy = snap(2, 512, 256, 9);
        let snaps = vec![draining, provisioning, busy];
        let mut rr = None;
        for _ in 0..4 {
            assert_eq!(rotate(&mut rr, &snaps), 2, "round-robin");
        }
        assert_eq!(pick(JoinShortestQueue, &snaps), 2, "jsq");
        assert_eq!(pick(LeastExpectedLatency, &snaps), 2, "least-latency");
    }
}
