//! One replica's bookkeeping inside the cluster event loop: queue,
//! deadlines, executor, dispatch slot, degradation and lifecycle. Each
//! rule that keeps them consistent is written once, as a method the
//! loop calls.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;
use std::sync::Arc;

use lina_runner::{ExecutionPlan, FinishedBatch, ReplicaExecutor};
use lina_simcore::{SimDuration, SimTime};
use lina_workload::TokenBatch;

use crate::balancer::ReplicaSnapshot;
use crate::batcher::{Batcher, Dispatch};
use crate::faults::{Degradation, FaultKind};
use crate::health::{is_hedge, Race};
use crate::request::{Request, RequestRecord};

/// Where a replica is in its lifecycle. These are exactly the
/// reachable states: a crash retires a draining replica on the spot,
/// so a replica is never down and draining at once. Every replica of a
/// fault-free fixed-pool run stays [`ReplicaState::Up`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReplicaState {
    /// Serving (possibly still provisioning until `ready_at`).
    Up,
    /// Scale-down victim: receives no new admissions, finishes its
    /// queued and in-flight work, then retires.
    Draining,
    /// Crashed; invisible to the balancer until its recovery event.
    Down,
    /// Decommissioned at the carried instant: invisible to every part
    /// of the loop and no longer accruing cost.
    Retired(SimTime),
}

/// A request waiting in a replica's queue: its first arrival or a
/// re-admission after displacement, routed here at `at`.
struct Admission {
    at: SimTime,
    /// Prior displacement count (0 = first attempt).
    attempts: u32,
    req: Request,
}

/// A committed primary batch, from dispatch until it completes or
/// aborts: the one record of the batch, its hedge race included.
pub(crate) struct Flight {
    /// The replica running the primary.
    pub(crate) replica: usize,
    /// The primary's dispatch instant.
    pub(crate) dispatched: SimTime,
    /// The pristine plan: the primary's replica runs it, stretched by
    /// its degradation, and a hedge re-runs it elsewhere.
    pub(crate) plan: Arc<ExecutionPlan>,
    /// The detector's expectation, which every completion of the batch
    /// (primary or hedge) is judged against; `None` without a pricing
    /// detector.
    pub(crate) expected: Option<SimDuration>,
    /// The hedge race, once hedging could estimate a delay.
    pub(crate) race: Option<Race>,
    /// Dispatch moves the members' tokens out of their requests into
    /// this batch, which the re-shard monitor reads and the
    /// re-estimation window keeps, so no token is copied on the way.
    pub(crate) batch: Arc<TokenBatch>,
    /// The batch's requests, in the order their tokens tile `batch`.
    pub(crate) members: Vec<Member>,
}

/// A member of a [`Flight`]: the request without its tokens.
pub(crate) struct Member {
    id: usize,
    /// The original arrival.
    arrival: SimTime,
    /// Prior displacement count (0 = first attempt).
    attempts: u32,
    /// The request's tokens in the flight's batch; the members' ranges
    /// tile it in member order.
    tokens: Range<usize>,
}

impl Flight {
    /// The members as requests again, each with a copy of its tokens
    /// and its prior attempts, for re-admission after the flight
    /// aborted.
    pub(crate) fn displace(self) -> impl Iterator<Item = (Request, u32)> {
        self.members.into_iter().map(move |m| {
            let req = Request {
                id: m.id,
                arrival: m.arrival,
                tokens: self.batch.tokens[m.tokens].to_vec(),
            };
            (req, m.attempts)
        })
    }

    /// The members' records once primary batch `batch` was served by
    /// `fb`: the primary itself or its winning hedge.
    pub(crate) fn records(
        self,
        batch: u64,
        fb: &FinishedBatch,
    ) -> impl Iterator<Item = RequestRecord> + '_ {
        self.members.into_iter().map(move |m| RequestRecord {
            id: m.id,
            // The original arrival: latency spans failed attempts and
            // backoff waits.
            arrival: m.arrival,
            dispatched: fb.dispatched,
            completed: fb.completed,
            tokens: m.tokens.len(),
            batch: batch as usize,
            service: fb.report.total,
        })
    }
}

/// One replica's mutable state inside the event loop.
pub(crate) struct Replica {
    /// The undispatched requests routed here, FIFO, each with its
    /// routing ordinal on this replica. Both the ordinals and the
    /// admission instants ascend: routing happens in global time order
    /// and every removal keeps the order. (A re-admitted request's
    /// instant is its re-admission, not its original arrival.)
    queue: VecDeque<(usize, Admission)>,
    /// Timeout deadlines of routed requests as `(deadline, ordinal)`, a
    /// min-heap with lazy deletion: an entry whose request left the
    /// queue (dispatched, expired or displaced) is dropped when it
    /// surfaces. Empty without a timeout policy. A re-admitted request
    /// keeps its original arrival, so deadlines are not sorted in queue
    /// order.
    deadlines: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Executes this replica's in-flight batches under the configured
    /// network mode.
    executor: ReplicaExecutor,
    /// Primary batches the replica may have in flight at once.
    max_inflight: usize,
    /// The policy's request timeout, if any.
    timeout: Option<SimDuration>,
    /// Instant the most recently vacated dispatch slot opened (the
    /// completion that brought the replica back under `max_inflight`).
    /// A new dispatch cannot leave before it — at `max_inflight` = 1
    /// this is exactly the old `server_free` busy-until-done gate.
    /// Recovery weight reloads, emergency re-placements and re-shard
    /// transfers also push it forward.
    slot_free: SimTime,
    /// Tokens routed but not yet dispatched.
    queued_tokens: usize,
    state: ReplicaState,
    /// The fault factors; the executor always runs under their link
    /// scale.
    degradation: Degradation,
    /// Speculative hedge batches currently executing here. Excluded
    /// from dispatch-slot accounting so a hedge never blocks the
    /// replica's own primary dispatches.
    hedges_in_flight: usize,
    /// Instant the provisioning weight reload completes; balancers
    /// skip the replica before it. The initial pool is ready at time
    /// zero (its weights were loaded before the run).
    ready_at: SimTime,
    /// Instant this replica started accruing cost.
    commissioned: SimTime,
}

impl Replica {
    /// An up replica commissioned at `commissioned` whose first
    /// dispatch waits until `ready_at`.
    pub(crate) fn new(
        executor: ReplicaExecutor,
        max_inflight: usize,
        timeout: Option<SimDuration>,
        commissioned: SimTime,
        ready_at: SimTime,
    ) -> Self {
        Replica {
            queue: VecDeque::new(),
            deadlines: BinaryHeap::new(),
            executor,
            max_inflight,
            timeout,
            slot_free: ready_at,
            queued_tokens: 0,
            state: ReplicaState::Up,
            degradation: Degradation::default(),
            hedges_in_flight: 0,
            ready_at,
            commissioned,
        }
    }

    /// Up and dispatching, draining included.
    pub(crate) fn is_up(&self) -> bool {
        matches!(self.state, ReplicaState::Up | ReplicaState::Draining)
    }

    /// Commissioned and not yet retired, down included.
    pub(crate) fn is_live(&self) -> bool {
        !matches!(self.state, ReplicaState::Retired(_))
    }

    /// Up and not draining: a candidate for new work.
    pub(crate) fn accepts_work(&self) -> bool {
        self.state == ReplicaState::Up
    }

    /// Queued plus in-flight tokens.
    pub(crate) fn outstanding_tokens(&self) -> usize {
        self.queued_tokens + self.executor.in_flight_tokens()
    }

    /// In-flight primary batches: hedges ride outside the slot budget.
    fn primaries_in_flight(&self) -> usize {
        self.executor.in_flight() - self.hedges_in_flight
    }

    /// The slot-free rule: a primary that left at `at`, bringing the
    /// replica back under `max_inflight`, opens the slot at `at`, or
    /// later if a stall charged while it ran still holds dispatch.
    fn primary_left(&mut self, primaries: usize, at: SimTime) {
        if primaries == self.max_inflight - 1 {
            self.slot_free = self.slot_free.max(at);
        }
    }

    /// A weight reload or transfer holds dispatch until `at`.
    pub(crate) fn stall_until(&mut self, at: SimTime) {
        self.slot_free = self.slot_free.max(at);
    }

    /// The next executor event (stage boundary or completion).
    pub(crate) fn next_event(&mut self) -> Option<SimTime> {
        self.executor.next_event()
    }

    /// The next batch `batcher` would commit here, when the replica is
    /// up with a free dispatch slot.
    pub(crate) fn next_dispatch(&self, batcher: &Batcher) -> Option<Dispatch> {
        if !self.is_up() || self.primaries_in_flight() >= self.max_inflight {
            return None;
        }
        batcher.next_dispatch(self.queue.iter().map(|q| q.1.at), self.slot_free)
    }

    /// Queues `req`, routed here at `at` as admission `ordinal` after
    /// `attempts` displacements, with its timeout deadline.
    pub(crate) fn admit(&mut self, ordinal: usize, at: SimTime, attempts: u32, req: Request) {
        if let Some(to) = self.timeout {
            self.deadlines.push(Reverse((req.arrival + to, ordinal)));
        }
        self.queued_tokens += req.len();
        self.queue
            .push_back((ordinal, Admission { at, attempts, req }));
    }

    /// Moves the tokens of the front `d.count` requests into one batch:
    /// one allocation for the batch and none per token. A crash can
    /// still re-admit a member with its tokens, copied back from the
    /// flight. Each request's own token buffer is freed here, so token
    /// memory follows the live backlog and flights, not the run length.
    /// Returns the batch, its members and the backlog left at `d.at`.
    pub(crate) fn assemble(
        &mut self,
        d: Dispatch,
        shape: (usize, usize),
    ) -> (Arc<TokenBatch>, Vec<Member>, usize) {
        assert!(
            self.primaries_in_flight() < self.max_inflight,
            "replica dispatched past its {} in-flight batches",
            self.max_inflight
        );
        let batch_tokens: usize = self.queue.range(..d.count).map(|q| q.1.req.len()).sum();
        let mut tokens = Vec::with_capacity(batch_tokens);
        let members = self
            .queue
            .drain(..d.count)
            .map(|(_, mut adm)| {
                let start = tokens.len();
                tokens.append(&mut adm.req.tokens);
                Member {
                    id: adm.req.id,
                    arrival: adm.req.arrival,
                    attempts: adm.attempts,
                    tokens: start..tokens.len(),
                }
            })
            .collect();
        self.queued_tokens -= batch_tokens;
        // Admission instants ascend, so the requests already waiting
        // behind the batch are a prefix of what is left.
        let backlog = self.queue.partition_point(|q| q.1.at <= d.at);
        let (devices, experts) = shape;
        let batch = Arc::new(TokenBatch {
            tokens,
            devices,
            experts,
        });
        (batch, members, backlog)
    }

    /// Submits the pristine `plan` as this replica runs it: expert
    /// compute stretched by every slowdown it carries (gray degradation
    /// stretches service exactly like a visible slowdown; only the
    /// control plane cannot see it). Returns the executor's solo price
    /// when it priced one and it is the pristine plan's nominal price —
    /// no stretch and clean links — so the detector need not price a
    /// primary's plan again. A hedge (an id in the hedge namespace) runs
    /// outside the slot budget.
    pub(crate) fn submit(
        &mut self,
        id: u64,
        at: SimTime,
        plan: &Arc<ExecutionPlan>,
    ) -> Option<SimDuration> {
        let slow = self.degradation.compute_stretch();
        let run = if slow > 1.0 {
            let mut degraded = (**plan).clone();
            degraded.scale_compute(slow);
            Arc::new(degraded)
        } else {
            Arc::clone(plan)
        };
        let nominal = Arc::ptr_eq(&run, plan) && self.executor.link_scale() == 1.0;
        if is_hedge(id) {
            self.hedges_in_flight += 1;
        }
        let priced = self.executor.submit(id, at, run);
        priced.filter(|_| nominal)
    }

    /// The in-flight tokens of a replica that may start a hedge at `t`:
    /// taking work, past its reload, with a free executor slot (a hedge
    /// skips the dispatch budget but still takes capacity).
    pub(crate) fn hedge_load(&self, t: SimTime) -> Option<usize> {
        let free = self.executor.in_flight() < self.max_inflight;
        (self.accepts_work() && t >= self.ready_at && free)
            .then(|| self.executor.in_flight_tokens())
    }

    /// Fires the executor's events up to `t`; returns the finished
    /// batches after counting each out of its slot.
    pub(crate) fn advance_to(&mut self, t: SimTime) -> Vec<FinishedBatch> {
        let mut primaries = self.primaries_in_flight();
        let finished = self.executor.advance_to(t);
        for fb in &finished {
            if is_hedge(fb.id) {
                self.hedges_in_flight -= 1;
            } else {
                primaries -= 1;
                self.primary_left(primaries, fb.completed);
            }
        }
        finished
    }

    /// Cancels flight `id`, which lost its hedge race at `t`: a hedge
    /// frees its hedge slot; a primary may open the dispatch slot now.
    /// Either way a drain victim left idle retires.
    pub(crate) fn cancel(&mut self, id: u64, t: SimTime) {
        let ok = self.executor.abort(id);
        assert!(ok, "a raced flight was in flight");
        if is_hedge(id) {
            self.hedges_in_flight -= 1;
        } else {
            self.primary_left(self.primaries_in_flight(), t);
        }
        self.retire_if_idle(t);
    }

    /// Applies a gray fault or its clear, pushing the link scale to the
    /// executor.
    pub(crate) fn degrade(&mut self, kind: FaultKind) {
        self.degradation.apply(kind);
        self.executor.set_link_scale(self.degradation.link_scale());
    }

    /// Enters `state` on fresh fault factors (crash or recovery).
    fn reset(&mut self, state: ReplicaState) {
        self.state = state;
        self.degradation = Degradation::default();
        self.executor.set_link_scale(self.degradation.link_scale());
    }

    /// One of `devices` GPUs dies: compute stretches (links stand) and
    /// the re-placement holds dispatch until `ready`. False, with
    /// nothing changed, for the last device.
    pub(crate) fn lose_device(&mut self, devices: usize, ready: SimTime) -> bool {
        let survived = self.degradation.lose_device(devices);
        if survived {
            self.stall_until(ready);
        }
        survived
    }

    /// The replica, which is up, crashes at `at`: a drain victim
    /// retires on the spot (a recovery would revive a replica the
    /// autoscaler shed), any other goes down. Returns the aborted
    /// flights and the queued requests with their prior attempts.
    pub(crate) fn crash(&mut self, at: SimTime) -> (Vec<u64>, Vec<(Request, u32)>) {
        self.reset(if self.state == ReplicaState::Draining {
            ReplicaState::Retired(at)
        } else {
            ReplicaState::Down
        });
        let aborted = self.executor.abort_all();
        self.hedges_in_flight = 0;
        self.queued_tokens = 0;
        let queued = self
            .queue
            .drain(..)
            .map(|(_, a)| (a.req, a.attempts))
            .collect();
        (aborted, queued)
    }

    /// A down replica is up again on fresh hardware, dispatch held
    /// until `ready`; false, with nothing changed, for any other.
    pub(crate) fn recover(&mut self, ready: SimTime) -> bool {
        if self.state != ReplicaState::Down {
            return false;
        }
        self.reset(ReplicaState::Up);
        self.stall_until(ready);
        true
    }

    /// Scale-down at `at`: finish the queue and flights, then retire.
    pub(crate) fn drain(&mut self, at: SimTime) {
        self.state = ReplicaState::Draining;
        self.retire_if_idle(at);
    }

    /// Retires a draining replica the moment it has nothing queued and
    /// nothing in flight; cost accrual stops at `at`.
    pub(crate) fn retire_if_idle(&mut self, at: SimTime) {
        if self.state == ReplicaState::Draining
            && self.queue.is_empty()
            && self.executor.in_flight() == 0
        {
            self.state = ReplicaState::Retired(at);
        }
    }

    /// The earliest timeout deadline among the undispatched requests.
    pub(crate) fn next_deadline(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((deadline, ordinal))) = self.deadlines.peek() {
            if self.queue.binary_search_by_key(&ordinal, |q| q.0).is_ok() {
                return Some(deadline);
            }
            self.deadlines.pop();
        }
        None
    }

    /// Moves every undispatched request whose deadline (`arrival +
    /// timeout`) is at or before `now` into `expired` with its
    /// deadline, in queue order, in one rotation through the queue.
    pub(crate) fn expire(&mut self, now: SimTime, expired: &mut Vec<(Request, SimTime)>) {
        let timeout = self.timeout.expect("deadlines without a timeout");
        for _ in 0..self.queue.len() {
            let entry = self.queue.pop_front().expect("counted above");
            let deadline = entry.1.req.arrival + timeout;
            if deadline <= now {
                self.queued_tokens -= entry.1.req.len();
                expired.push((entry.1.req, deadline));
            } else {
                self.queue.push_back(entry);
            }
        }
    }

    /// The balancer's view at a routing instant. The event loop fires
    /// every executor event at or before the routing instant first, so
    /// in-flight counts here never include batches that already
    /// completed. `suspicion` comes from the run's detector: down and
    /// retired replicas are reported as infinitely suspect (the
    /// balancer contract for "unroutable"). The advertised capacity
    /// divides by the visible stretch only (exactly 1.0 when
    /// undegraded): the control plane never sees a gray fault directly.
    pub(crate) fn snapshot(
        &self,
        id: usize,
        capacity: f64,
        now: SimTime,
        suspicion: f64,
    ) -> ReplicaSnapshot {
        ReplicaSnapshot {
            id,
            suspicion: if self.is_up() {
                suspicion
            } else {
                f64::INFINITY
            },
            draining: self.state == ReplicaState::Draining,
            provisioning: self.is_up() && now < self.ready_at,
            queued_requests: self.queue.len(),
            queued_tokens: self.queued_tokens,
            in_flight_tokens: self.executor.in_flight_tokens(),
            server_free: self.executor.busy_until().unwrap_or(SimTime::ZERO),
            capacity: capacity / self.degradation.visible_stretch(),
        }
    }

    /// Pool cost in seconds, from commission until retired or `end`.
    pub(crate) fn replica_seconds(&self, end: SimTime) -> f64 {
        let until = match self.state {
            ReplicaState::Retired(at) => at,
            _ => end,
        };
        until.saturating_since(self.commissioned).as_secs_f64()
    }

    /// Nothing queued, tokens included.
    pub(crate) fn is_drained(&self) -> bool {
        self.queue.is_empty() && self.queued_tokens == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::BalancerKind;
    use crate::cluster::estimate_read;
    use crate::health::{HealthConfig, HealthMonitor, HedgeConfig, HedgeRuntime};
    use lina_baselines::InferScheme;
    use lina_model::{CostModel, DeviceSpec, MoeModelConfig};
    use lina_netsim::{ClusterSpec, SoloTimer, Topology};
    use lina_runner::inference::InferenceConfig;
    use lina_runner::{execute_plan_solo, plan_batch_layered, NetworkMode};
    use lina_workload::{Mode, TokenPath, TokenSource, WorkloadSpec};

    /// A batch id in the hedge namespace (the top half of `u64`).
    const HEDGE: u64 = 1 << 63;

    fn ms(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    struct Fixture {
        topo: Arc<Topology>,
        plan: Arc<ExecutionPlan>,
        /// The plan priced on a fresh timer.
        pristine: SimDuration,
        monitor: HealthMonitor,
    }

    fn fixture() -> Fixture {
        let model = MoeModelConfig::transformer_xl(6, 8).for_inference();
        let topo = Topology::new(ClusterSpec::with_total_gpus(8));
        let cost = CostModel::new(DeviceSpec::a100_inference(), model);
        let spec = WorkloadSpec::enwik8(8, 6);
        let batch = TokenSource::new(&spec, 1, 99).sample_batch(8, 512, Mode::Inference);
        let infer = InferenceConfig {
            scheme: InferScheme::Baseline,
            top_k: 1,
        };
        let plan = plan_batch_layered(&cost, &topo, &infer, None, &batch, None, false);
        let pristine = execute_plan_solo(&plan, &mut SoloTimer::new(&topo)).total;
        let topo = Arc::new(topo);
        Fixture {
            monitor: HealthMonitor::for_cluster(HealthConfig::phi_accrual(), 2, topo.clone()),
            topo,
            plan: Arc::new(plan),
            pristine,
        }
    }

    /// A replica as a round-robin cluster with the fixture's phi
    /// detector builds it: the detector is the estimate's only reader.
    fn replica(f: &Fixture, mode: NetworkMode, max_inflight: usize) -> Replica {
        let estimate = estimate_read(BalancerKind::RoundRobin, &HealthConfig::phi_accrual());
        let executor = ReplicaExecutor::new_shared(mode, f.topo.clone(), estimate);
        let timeout = Some(SimDuration::from_millis(10));
        Replica::new(
            executor,
            max_inflight,
            timeout,
            SimTime::ZERO,
            SimTime::ZERO,
        )
    }

    /// Queues request `100 + ordinal` with `ordinal + 1` tokens, routed
    /// at `at` ms with its original arrival at `arrival` ms, as the
    /// cluster's admission does (the fixture replicas time out after
    /// 10 ms).
    fn admit(rep: &mut Replica, ordinal: usize, at: u64, arrival: u64) {
        let token = TokenPath::new(0, 1, &[0, 1, 2]);
        let req = Request {
            id: 100 + ordinal,
            arrival: ms(arrival),
            tokens: vec![token; ordinal + 1],
        };
        let attempts = u32::from(at != arrival);
        rep.admit(ordinal, ms(at), attempts, req);
    }

    /// `Replica::{next_deadline, expire}` on a queue whose ring buffer
    /// has wrapped: a dispatch took three entries off the front, then
    /// re-admissions with older original arrivals joined the back, so
    /// deadlines are unsorted in queue order and the heap holds stale
    /// entries for the dispatched ordinals.
    #[test]
    fn timeouts_walk_a_wrapped_queue_in_order() {
        let f = fixture();
        let mut rep = replica(&f, NetworkMode::Solo, 1);
        for ordinal in 0..4 {
            admit(&mut rep, ordinal, ordinal as u64, ordinal as u64);
        }
        let (batch, _, backlog) = rep.assemble(
            Dispatch {
                at: ms(3),
                count: 3,
            },
            (8, 8),
        );
        assert_eq!(batch.tokens.len(), 1 + 2 + 3);
        assert_eq!(backlog, 1, "ordinal 3 waits behind the batch");
        admit(&mut rep, 4, 4, 1);
        admit(&mut rep, 5, 5, 5);
        admit(&mut rep, 6, 6, 2);
        let (_, back) = rep.queue.as_slices();
        assert!(!back.is_empty(), "the ring buffer wrapped");
        assert_eq!(rep.outstanding_tokens(), 4 + 5 + 6 + 7);
        // The stale (10, 0) and (11, 1) surface first and are dropped.
        assert_eq!(rep.next_deadline(), Some(ms(11)));

        let mut expired = Vec::new();
        rep.expire(ms(12), &mut expired);
        let gone: Vec<(usize, SimTime)> = expired.iter().map(|(r, d)| (r.id, *d)).collect();
        assert_eq!(gone, [(104, ms(11)), (106, ms(12))], "queue order");
        let left: Vec<usize> = rep.queue.iter().map(|q| q.0).collect();
        assert_eq!(left, [3, 5], "survivors keep their order");
        assert_eq!(rep.outstanding_tokens(), 4 + 6);
        assert_eq!(rep.next_deadline(), Some(ms(13)));

        expired.clear();
        rep.expire(ms(15), &mut expired);
        let gone: Vec<usize> = expired.iter().map(|(r, _)| r.id).collect();
        assert_eq!(gone, [103, 105]);
        assert!(rep.is_drained());
        assert_eq!(rep.next_deadline(), None);
    }

    /// With two slots, the completion that brings the replica back
    /// under its budget opens the slot at its own instant; the second
    /// completion, leaving the replica idle, does not move it.
    #[test]
    fn a_primary_completion_opens_the_slot_at_its_own_instant() {
        let f = fixture();
        let mut rep = replica(&f, NetworkMode::Solo, 2);
        let batcher = Batcher::new(crate::BatcherConfig {
            max_batch_requests: 1,
            max_wait: SimDuration::from_millis(1),
        });
        rep.submit(0, SimTime::ZERO, &f.plan);
        rep.submit(1, ms(1), &f.plan);
        admit(&mut rep, 0, 0, 0);
        assert_eq!(rep.next_dispatch(&batcher), None, "both slots taken");
        let done = rep.advance_to(ms(1) + f.pristine);
        assert_eq!(done.len(), 2);
        let first = SimTime::ZERO + f.pristine;
        assert_eq!(done[0].completed, first);
        let d = rep.next_dispatch(&batcher).expect("a slot is free");
        assert_eq!(d.at, first);
    }

    /// A stall charged to a busy replica (a re-shard transfer, or the
    /// re-placement after a device loss) outlives the primary it ran
    /// beside: the completion does not reopen the slot before it.
    #[test]
    fn a_completion_keeps_a_stall_charged_in_flight() {
        let f = fixture();
        let batcher = Batcher::new(crate::BatcherConfig {
            max_batch_requests: 1,
            max_wait: SimDuration::from_millis(1),
        });
        let ready = SimTime::ZERO + f.pristine + f.pristine;
        for device_loss in [false, true] {
            let mut rep = replica(&f, NetworkMode::Solo, 1);
            rep.submit(0, SimTime::ZERO, &f.plan);
            if device_loss {
                assert!(rep.lose_device(8, ready));
            } else {
                rep.stall_until(ready);
            }
            admit(&mut rep, 0, 0, 0);
            let done = rep.advance_to(ready);
            assert_eq!(done.len(), 1);
            assert!(done[0].completed < ready, "the primary ends first");
            let d = rep.next_dispatch(&batcher).expect("a slot is free");
            assert_eq!(d.at, ready, "device loss {device_loss}");
        }
    }

    /// Hedges ride outside the slot budget: a running hedge never
    /// blocks a primary dispatch, and neither its completion nor its
    /// cancellation moves the slot.
    #[test]
    fn a_hedge_never_takes_or_frees_a_primary_slot() {
        let f = fixture();
        let mut rep = replica(&f, NetworkMode::Solo, 1);
        let batcher = Batcher::new(crate::BatcherConfig {
            max_batch_requests: 1,
            max_wait: SimDuration::from_millis(1),
        });
        admit(&mut rep, 0, 0, 0);
        rep.submit(HEDGE, SimTime::ZERO, &f.plan);
        let d = rep
            .next_dispatch(&batcher)
            .expect("the hedge holds no slot");
        assert_eq!(d.at, SimTime::ZERO);
        rep.submit(HEDGE + 1, ms(1), &f.plan);
        rep.cancel(HEDGE + 1, ms(1));
        let done = rep.advance_to(SimTime::ZERO + f.pristine);
        assert_eq!(done.len(), 1);
        assert_eq!(
            rep.next_dispatch(&batcher),
            Some(d),
            "the slot did not move"
        );
        assert_eq!(rep.hedges_in_flight, 0);
    }

    /// A crash aborts every flight, hands back the queue with its
    /// tokens, and leaves nothing outstanding; a recovery brings the
    /// replica back up behind its reload on clean links.
    #[test]
    fn a_crash_empties_the_replica_and_a_recovery_resets_it() {
        let f = fixture();
        let mut rep = replica(&f, NetworkMode::Solo, 2);
        rep.degrade(FaultKind::GrayDegrade {
            compute_scale: 1.0,
            nic_scale: 0.5,
        });
        rep.submit(0, SimTime::ZERO, &f.plan);
        rep.submit(HEDGE, SimTime::ZERO, &f.plan);
        admit(&mut rep, 0, 0, 0);
        admit(&mut rep, 1, 1, 1);
        assert!(!rep.recover(ms(5)), "only a down replica recovers");
        let (aborted, queued) = rep.crash(ms(2));
        assert_eq!(aborted.len(), 2);
        let queued: Vec<(usize, usize, u32)> = queued
            .iter()
            .map(|(r, attempts)| (r.id, r.len(), *attempts))
            .collect();
        assert_eq!(queued, [(100, 1, 0), (101, 2, 0)]);
        assert!(!rep.is_up());
        assert_eq!(rep.outstanding_tokens(), 0);
        assert_eq!(rep.hedges_in_flight, 0);
        assert!(rep.is_drained());
        assert!(rep.recover(ms(7)));
        assert!(rep.accepts_work());
        assert_eq!(rep.executor.link_scale(), 1.0);
        // Recovered hardware prices the pristine plan again.
        assert!(rep.submit(1, ms(7), &f.plan).is_some());
        assert_eq!(rep.advance_to(ms(7) + f.pristine).len(), 1);
    }

    /// A crashed drain victim retires on the spot and accrues no cost
    /// past its crash.
    #[test]
    fn a_crashed_drain_victim_retires() {
        let f = fixture();
        let mut rep = replica(&f, NetworkMode::Solo, 1);
        rep.submit(0, SimTime::ZERO, &f.plan);
        rep.drain(ms(1));
        assert!(rep.is_live(), "still finishing its flight");
        rep.crash(ms(2));
        assert!(!rep.is_live());
        assert!(!rep.recover(ms(3)));
        assert_eq!(rep.replica_seconds(ms(9)), 0.002);
    }

    /// A drain victim whose last flight is a hedge retires when that
    /// hedge loses its race: no later event would retire it.
    #[test]
    fn a_drain_victim_retires_when_its_last_hedge_loses() {
        let f = fixture();
        let mut rep = replica(&f, NetworkMode::Solo, 1);
        rep.submit(HEDGE, SimTime::ZERO, &f.plan);
        rep.drain(ms(1));
        assert!(rep.is_live(), "still running its hedge");
        rep.cancel(HEDGE, ms(2));
        assert!(!rep.is_live());
        assert_eq!(rep.replica_seconds(ms(9)), 0.002);
    }

    mod pricing {
        //! The detector prices each batch once, at its primary's
        //! dispatch: a replica running the pristine plan on clean links
        //! hands over its executor's price, and a degraded replica's
        //! primary is priced again — both come out as the pristine
        //! plan's price on a fresh timer. A hedge is never priced: its
        //! completion is judged against its flight's expectation.

        use super::*;

        /// Submits the pristine plan on `rep` and prices the detector's
        /// expectation, as the cluster's dispatch does; returns whether
        /// the executor's price was reused and the expectation.
        fn submit(f: &mut Fixture, rep: &mut Replica, id: u64) -> (bool, SimDuration) {
            let nominal = rep.submit(id, SimTime::ZERO, &f.plan);
            let expected = f.monitor.price(&f.plan, nominal);
            (nominal.is_some(), expected.expect("a phi detector prices"))
        }

        #[test]
        fn a_pristine_replica_hands_its_price_to_the_detector() {
            let mut f = fixture();
            for (id, mode) in [NetworkMode::Solo, NetworkMode::Contended]
                .into_iter()
                .enumerate()
            {
                let mut rep = replica(&f, mode, 1);
                assert_eq!(
                    submit(&mut f, &mut rep, id as u64),
                    (true, f.pristine),
                    "{mode:?}"
                );
            }
        }

        #[test]
        fn degraded_replicas_reprice_the_pristine_plan() {
            let mut f = fixture();
            let mut gray = replica(&f, NetworkMode::Solo, 1);
            gray.degrade(FaultKind::GrayDegrade {
                compute_scale: 1.5,
                nic_scale: 0.5,
            });
            assert_eq!(submit(&mut f, &mut gray, 0), (false, f.pristine));
            let mut straggler = replica(&f, NetworkMode::Solo, 1);
            straggler.degrade(FaultKind::GrayDegrade {
                compute_scale: 2.0,
                nic_scale: 1.0,
            });
            assert_eq!(submit(&mut f, &mut straggler, 1), (false, f.pristine));
            // Both really ran slower than the price they were judged by.
            for rep in [&mut gray, &mut straggler] {
                let done = rep.advance_to(SimTime::from_secs_f64(10.0));
                assert!(done[0].report.total > f.pristine);
            }
        }

        #[test]
        fn restored_links_reuse_the_executor_price_again() {
            let mut f = fixture();
            let mut rep = replica(&f, NetworkMode::Solo, 2);
            rep.degrade(FaultKind::GrayDegrade {
                compute_scale: 1.0,
                nic_scale: 0.5,
            });
            assert_eq!(submit(&mut f, &mut rep, 0), (false, f.pristine));
            rep.degrade(FaultKind::GrayClear);
            assert_eq!(submit(&mut f, &mut rep, 1), (true, f.pristine));
        }

        #[test]
        fn a_hedge_onto_a_degraded_target_is_judged_by_its_flights_price() {
            let mut f = fixture();
            let mut primary = replica(&f, NetworkMode::Solo, 1);
            let mut target = replica(&f, NetworkMode::Solo, 1);
            target.degrade(FaultKind::GrayDegrade {
                compute_scale: 1.5,
                nic_scale: 1.0,
            });
            let mut rt = HedgeRuntime::new(HedgeConfig {
                quantile: 0.5,
                multiplier: 1.0,
                min_samples: 1,
            });
            // One delay sample arms hedging.
            let sample = SimDuration::from_micros(1);
            rt.primary_done(u64::MAX >> 1, None, sample, SimTime::ZERO);
            // The primary's dispatch as the cluster commits it: the
            // flight keeps the pristine plan, its one price and its race.
            admit(&mut primary, 0, 0, 0);
            let d = Dispatch {
                at: SimTime::ZERO,
                count: 1,
            };
            let (batch, members, _) = primary.assemble(d, (8, 8));
            let (reused, expected) = submit(&mut f, &mut primary, 0);
            assert_eq!((reused, expected), (true, f.pristine));
            let mut flight = Flight {
                replica: 0,
                dispatched: d.at,
                plan: Arc::clone(&f.plan),
                expected: Some(expected),
                race: rt.arm(0, d.at),
                batch,
                members,
            };
            let (t, id) = rt.next_timer().expect("armed");
            let race = flight.race.as_mut().expect("armed");
            let (hedge, to) = rt.fire(t, id, race, || Some(1)).expect("a free alternate");
            assert_eq!(to, 1);
            assert!(
                Arc::ptr_eq(&flight.plan, &f.plan),
                "a hedge re-runs the pristine plan"
            );
            // The gray target hands over no nominal price and nothing
            // prices the hedge: its completion is judged against the
            // flight's one expectation, which it overran.
            assert_eq!(target.submit(hedge, t, &flight.plan), None);
            let done = target.advance_to(SimTime::from_secs_f64(10.0));
            assert!(done[0].report.total > flight.expected.expect("priced"));
        }
    }
}
