//! Multi-replica serving: a cluster of replica servers behind a load
//! balancer, with deterministic fault injection.
//!
//! A [`ClusterEngine`] serves the *same* pre-generated open-loop
//! request trace a [`ServeEngine`] would (same seeds, same drift), but
//! routes each arriving request to one of `replicas` identical servers
//! via a [`BalancerKind`]. Every replica keeps its own admission queue,
//! dynamic [`Batcher`] timeline, and a
//! [`ReplicaExecutor`] running its in-flight batches; the cluster walks
//! a single K-server event loop over every event kind in global
//! `(time, priority)` order, so the run is deterministic down to the
//! bit.
//!
//! The loop owns routing, dispatch, and completion. Each controller's
//! runtime lives beside its config and the loop calls it directly
//! while armed: faults and crash accounting in [`crate::faults`], the
//! phi detector and hedged dispatch in [`crate::health`], elastic
//! autoscaling in [`crate::autoscale`], and proactive re-sharding in
//! [`crate::resharding`].
//!
//! Eight event kinds interleave, with the priority breaking ties at
//! one instant:
//!
//! 1. **faults** — the next [`FaultEvent`] of the configured
//!    [`FaultSchedule`](crate::FaultSchedule); a crash at the same
//!    instant as a completion aborts the batch (the failure wins the
//!    race);
//! 2. **executor events** — stage boundaries and batch completions
//!    inside a replica's executor; a completion frees a dispatch slot
//!    and materializes its members' records;
//! 3. **hedge timers** — an in-flight batch outlived the hedge delay
//!    ([`HedgeConfig`]): re-dispatch it speculatively to the
//!    least-suspected alternate replica. Placed right after executor
//!    events so a primary completing exactly at the deadline wins (its
//!    completion removes the timer before the timer can fire), and
//!    before admissions so an arrival at the same instant sees the
//!    hedge's in-flight work;
//! 4. **control ticks** — the autoscaler (when armed) observes the
//!    cluster every `interval` and may commission or drain replicas;
//!    it sees the instant's completions but not its admissions, so a
//!    decision never depends on work it could not have observed;
//! 5. **re-shard ticks** — the proactive re-sharder (when armed)
//!    profiles its per-expert load monitor every `interval` and may
//!    replicate, evict, or migrate expert replicas
//!    ([`ReshardPolicyKind`](crate::ReshardPolicyKind)); actuation
//!    charges the modeled PCIe transfer;
//! 6. **admissions** — a request (first arrival from the lazily
//!    generated trace stream, or re-admission after a fault) is routed
//!    by the balancer, which sees only routable replicas; an arrival
//!    beats a dispatch at the same instant, so a batch-filling arrival
//!    still joins the batch, exactly as the pre-fault loop's strict
//!    `dispatch < horizon` rule had it;
//! 7. **dispatch commits** — a replica's next batch leaves once no
//!    earlier event can change it;
//! 8. **timeouts** — a queued request whose sojourn since its
//!    *original* arrival exceeds the policy's `request_timeout`
//!    becomes an explicit `TimedOut` outcome (a dispatch at the same
//!    instant wins: the request just made it).
//!
//! With an empty schedule and the inert policy ([`FaultPlan::none`]),
//! no autoscaler, no re-sharder, and no hedging, only kinds 2, 6, and
//! 7 ever fire, in exactly the pre-fault order — the healthy path is
//! reproduced bit for bit.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use lina_model::{CostModel, LayeredPlacement};
use lina_netsim::Topology;
use lina_runner::inference::InferenceConfig;
use lina_runner::{plan_batch_layered, ExecutionPlan, FinishedBatch, ReplicaExecutor};
use lina_simcore::{EventQueue, Rng, SimDuration, SimTime};
use lina_workload::{TokenBatch, WorkloadSpec};

use crate::autoscale::{AutoscaleConfig, AutoscaleRuntime, ScaleDecision};
use crate::balancer::{BalancerKind, ReplicaSnapshot};
use crate::batcher::{Batcher, Dispatch};
use crate::engine::{ReestimationWindow, ServeConfig, ServeEngine};
use crate::faults::{Degradation, FaultEvent, FaultKind, FaultPlan, RecoveryClock};
use crate::health::{
    is_hedge, DetectorKind, HealthConfig, HealthMonitor, HedgeConfig, HedgeRuntime,
};
use crate::provisioning;
use crate::request::{Request, RequestRecord};
use crate::resharding::{ReshardConfig, ReshardRuntime};
use crate::slo::{FailureRecord, RequestOutcome, SloTracker};

use lina_core::TwoPhaseScheduler;

/// How the estimating schemes pool online observations across
/// replicas: the two topologies compare the value of pooling under
/// popularity drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EstimatorSharing {
    /// One estimator re-profiled from every replica's recent batches;
    /// all replicas' schedulers follow it, so it tracks drift at the
    /// cluster-wide batch rate.
    Shared,
    /// Each replica re-profiles only from its own recent batches, as K
    /// isolated single-server deployments would.
    PerReplica,
}

impl EstimatorSharing {
    /// The topology's display name.
    pub fn name(self) -> &'static str {
        match self {
            EstimatorSharing::Shared => "shared",
            EstimatorSharing::PerReplica => "per-replica",
        }
    }
}

/// Multi-replica serving configuration: the per-replica serving knobs
/// plus the cluster shape and its failure model.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Per-replica serving knobs and the shared request-trace knobs
    /// (arrival process, request count, drift, seeds).
    pub serve: ServeConfig,
    /// Number of identical replica servers.
    pub replicas: usize,
    /// Request routing policy.
    pub balancer: BalancerKind,
    /// Online re-estimation topology.
    pub sharing: EstimatorSharing,
    /// Fault schedule and graceful-degradation policy
    /// ([`FaultPlan::none`] for the healthy path).
    pub faults: FaultPlan,
    /// Elastic autoscaling; `None` keeps the pool fixed at `replicas`.
    /// (Fault schedules target the initial replicas only — elastically
    /// commissioned replicas are never in a generated schedule.)
    pub autoscale: Option<AutoscaleConfig>,
    /// Proactive expert re-sharding; `None` keeps the canonical
    /// expert-per-device placement for the whole run.
    pub resharding: Option<ReshardConfig>,
    /// Per-layer base expert placement every replica plans against;
    /// `None` keeps the canonical expert-per-device map at every
    /// layer. An armed re-sharder starts from this map and mutates
    /// every layer in lockstep; a device loss resets back to it.
    pub placement: Option<LayeredPlacement>,
    /// Locality-aware all-to-all pricing: tokens whose consecutive
    /// primary experts are co-located skip the dispatch wire (see
    /// [`lina_runner::plan_batch_layered`]). Off reproduces the
    /// historical pricing bit for bit.
    pub locality: bool,
    /// Gray-failure detector ([`HealthConfig::oracle`] reproduces the
    /// historical oracle-health-bit routing bit for bit).
    pub health: HealthConfig,
    /// Hedged dispatch for tail batches; `None` never hedges (the
    /// historical behaviour, bit for bit).
    pub hedging: Option<HedgeConfig>,
}

impl ClusterConfig {
    /// Validates the knobs.
    ///
    /// # Panics
    ///
    /// Panics if the serving config, fault plan, or cluster shape is
    /// invalid.
    pub fn validate(&self) {
        self.serve.validate();
        assert!(self.replicas > 0, "cluster: replicas must be > 0");
        self.faults.validate(self.replicas);
        if let Some(autoscale) = &self.autoscale {
            autoscale.validate(self.replicas);
        }
        if let Some(resharding) = &self.resharding {
            resharding.validate();
        }
        self.health.validate();
        if let Some(hedging) = &self.hedging {
            hedging.validate();
        }
    }
}

/// Everything a cluster run produced.
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    /// Cluster-wide per-request records, terminal failure outcomes, and
    /// queue-depth timeline (the depth samples are replica-local
    /// backlogs at each dispatch, in global time order).
    pub tracker: SloTracker,
    /// Batches dispatched across all replicas.
    pub batches: usize,
    /// Estimator re-profilings across all replicas (each shared-mode
    /// rebuild counts once; emergency device-loss rebuilds excluded).
    pub reestimations: usize,
    /// Admissions routed to each replica (a re-admitted request counts
    /// at every replica it was routed to).
    pub requests_per_replica: Vec<usize>,
    /// Tokens routed to each replica (same counting rule).
    pub tokens_per_replica: Vec<usize>,
    /// Batches dispatched by each replica.
    pub batches_per_replica: Vec<usize>,
    /// In-flight batches aborted by replica crashes.
    pub aborted_batches: usize,
    /// Fault events injected from the schedule.
    pub faults_injected: usize,
    /// Emergency expert re-placements after device losses.
    pub emergency_replacements: usize,
    /// Time to recover per crash that displaced work: from the crash
    /// instant until every displaced request reached a terminal
    /// outcome (completed elsewhere, dropped, or timed out).
    pub recovery_times: Vec<SimDuration>,
    /// Replicas commissioned by autoscale scale-up actions.
    pub scale_ups: usize,
    /// Replicas put into drain by autoscale scale-down actions.
    pub scale_downs: usize,
    /// Expert replicas added by the proactive re-sharder.
    pub replications: usize,
    /// Expert replicas dropped by the proactive re-sharder.
    pub evictions: usize,
    /// Experts moved wholesale by the proactive re-sharder.
    pub migrations: usize,
    /// Peak concurrently commissioned (not yet retired) replicas.
    pub peak_replicas: usize,
    /// Integrated pool cost in replica-seconds: each replica accrues
    /// from its commission instant until it retires (or the last event
    /// of the run). The currency of the cost-vs-SLO frontier.
    pub replica_seconds: f64,
    /// Instant of the last event the loop processed — the simulated
    /// span of the run (throughput denominators).
    pub last_event: SimTime,
    /// Primary-expert hops across all planned batches that were priced
    /// as local handoffs under locality-aware pricing (zero with
    /// locality off).
    pub local_hops: u64,
    /// Primary-expert hops that paid the dispatch wire (zero with
    /// locality off — the planner only counts when it prices).
    pub routed_hops: u64,
    /// Always zero: every batch is planned fresh (see
    /// [`PlanCacheStats`]).
    pub plan_cache: PlanCacheStats,
    /// Hedges actually issued (a timer that fired and found an
    /// alternate replica); zero with hedging off.
    pub hedges_issued: usize,
    /// Hedges that completed before their primary (the primary was
    /// cancelled and the hedge's completion served the requests).
    pub hedges_won: usize,
    /// Compute spent on cancelled duplicates (the losing side of every
    /// resolved hedge race, plus hedges orphaned by crashes) as a
    /// fraction of all batch compute; zero with hedging off.
    pub hedge_wasted_frac: f64,
}

impl ClusterOutcome {
    /// Summarizes the run (see [`SloTracker::report`]).
    pub fn report(&self) -> crate::SloReport {
        self.tracker.report()
    }

    /// Largest over smallest per-replica request count — 1.0 means the
    /// balancer spread arrivals perfectly evenly.
    pub fn routing_imbalance(&self) -> f64 {
        let max = self.requests_per_replica.iter().copied().max().unwrap_or(0);
        let min = self.requests_per_replica.iter().copied().min().unwrap_or(0);
        max as f64 / (min as f64).max(1.0)
    }

    /// Fraction of primary-expert hops priced as local handoffs under
    /// locality-aware pricing; zero when locality was off (no hops
    /// were counted at all).
    pub fn locality_fraction(&self) -> f64 {
        let total = self.local_hops + self.routed_hops;
        if total == 0 {
            0.0
        } else {
            self.local_hops as f64 / total as f64
        }
    }

    /// Mean time from a work-displacing crash until all of its
    /// displaced requests reached terminal outcomes; zero when no
    /// crash displaced work.
    pub fn mean_time_to_recover(&self) -> SimDuration {
        if self.recovery_times.is_empty() {
            return SimDuration::ZERO;
        }
        let total: SimDuration = self.recovery_times.iter().copied().sum();
        total.mul_f64(1.0 / self.recovery_times.len() as f64)
    }
}

/// Plan-cache counters. The simulator plans every batch fresh, so both
/// stay zero; the type remains so callers that read
/// [`ClusterOutcome::plan_cache`] keep compiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that returned a cached plan.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
}

impl PlanCacheStats {
    /// Hit fraction in [0, 1]; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

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

/// A popularity-estimator re-profiling window and the scheduler last
/// built from it.
struct Estimate {
    window: ReestimationWindow,
    scheduler: Option<TwoPhaseScheduler>,
    /// Batches pushed into the window over the run.
    observed: usize,
}

impl Estimate {
    fn new(scheduler: Option<TwoPhaseScheduler>, window: usize) -> Self {
        Estimate {
            window: ReestimationWindow::new(window),
            scheduler,
            observed: 0,
        }
    }

    /// Rebuilds the scheduler from the windowed batches.
    fn reprofile(&mut self, engine: &ServeEngine) {
        let estimator = self.window.profile(engine.config.path_length);
        self.scheduler = Some(TwoPhaseScheduler::new(engine.two_phase_config(), estimator));
    }

    /// Windows a served batch and re-profiles every `every` batches;
    /// true when it did.
    fn observe(&mut self, batch: TokenBatch, every: usize, engine: &ServeEngine) -> bool {
        self.window.push(batch);
        self.observed += 1;
        let due = self.observed.is_multiple_of(every);
        if due {
            self.reprofile(engine);
        }
        due
    }
}

/// One replica's mutable state inside the event loop.
struct Replica {
    /// Admission instants of requests routed here, ascending (routing
    /// happens in global time order; a re-admitted request's entry is
    /// its re-admission instant, not its original arrival).
    arrivals: Vec<SimTime>,
    /// The routed requests, parallel to `arrivals`.
    queue: Vec<Request>,
    /// Prior displacement count per routed request, parallel to
    /// `arrivals` (0 = first attempt).
    attempts: Vec<u32>,
    /// Routing ordinal on this replica per routed request, parallel to
    /// `arrivals` (ascending: requests are appended in routing order
    /// and every removal keeps the order).
    ordinals: Vec<usize>,
    /// Timeout deadlines of routed requests as `(deadline, ordinal)`, a
    /// min-heap with lazy deletion: an entry whose request left the
    /// undispatched tail (dispatched, expired or displaced) is dropped
    /// when it surfaces. Empty without a timeout policy. A re-admitted
    /// request keeps its original arrival, so deadlines are not sorted
    /// in queue order.
    deadlines: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Index of the first request not yet in a finalized dispatch.
    next: usize,
    /// Executes this replica's in-flight batches under the configured
    /// network mode.
    executor: ReplicaExecutor,
    /// Instant the most recently vacated dispatch slot opened (the
    /// completion that brought the replica back under `max_inflight`).
    /// A new dispatch cannot leave before it — at `max_inflight` = 1
    /// this is exactly the old `server_free` busy-until-done gate.
    /// Recovery weight reloads and emergency re-placements also push
    /// it forward.
    slot_free: SimTime,
    /// Tokens routed but not yet dispatched.
    queued_tokens: usize,
    /// This replica's own estimator (per-replica sharing; unused while
    /// the cluster runs a shared one).
    estimate: Estimate,
    /// Admissions routed here.
    requests: usize,
    /// Tokens routed here.
    tokens: usize,
    /// Batches this replica has dispatched.
    batches: usize,
    state: ReplicaState,
    /// The fault factors; the executor always runs under their link
    /// product.
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
    fn new(
        executor: ReplicaExecutor,
        estimate: Estimate,
        commissioned: SimTime,
        ready_at: SimTime,
    ) -> Self {
        Replica {
            arrivals: Vec::new(),
            queue: Vec::new(),
            attempts: Vec::new(),
            ordinals: Vec::new(),
            deadlines: BinaryHeap::new(),
            next: 0,
            executor,
            slot_free: ready_at,
            queued_tokens: 0,
            estimate,
            requests: 0,
            tokens: 0,
            batches: 0,
            state: ReplicaState::Up,
            degradation: Degradation::default(),
            hedges_in_flight: 0,
            ready_at,
            commissioned,
        }
    }

    /// Up and dispatching, draining included.
    fn is_up(&self) -> bool {
        matches!(self.state, ReplicaState::Up | ReplicaState::Draining)
    }

    /// Commissioned and not yet retired, down included.
    fn is_live(&self) -> bool {
        !matches!(self.state, ReplicaState::Retired(_))
    }

    /// Up and not draining: a candidate for new work.
    fn accepts_work(&self) -> bool {
        self.state == ReplicaState::Up
    }

    /// Queued plus in-flight tokens.
    fn outstanding_tokens(&self) -> usize {
        self.queued_tokens + self.executor.in_flight_tokens()
    }

    /// In-flight primary batches: hedges ride outside the slot budget.
    fn primaries_in_flight(&self) -> usize {
        self.executor.in_flight() - self.hedges_in_flight
    }

    /// The earliest timeout deadline among the undispatched requests.
    fn next_deadline(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((deadline, ordinal))) = self.deadlines.peek() {
            if self.ordinals[self.next..].binary_search(&ordinal).is_ok() {
                return Some(deadline);
            }
            self.deadlines.pop();
        }
        None
    }

    /// Moves every undispatched request whose deadline (`arrival +
    /// timeout`) is at or before `now` into `expired` with its
    /// deadline, in queue order, in one compaction pass.
    fn expire(
        &mut self,
        now: SimTime,
        timeout: SimDuration,
        expired: &mut Vec<(Request, SimTime)>,
    ) {
        let mut kept = self.next;
        for k in self.next..self.queue.len() {
            let slot = &mut self.queue[k];
            let deadline = slot.arrival + timeout;
            if deadline <= now {
                self.queued_tokens -= slot.tokens.len();
                let tokens = std::mem::take(&mut slot.tokens);
                expired.push((Request { tokens, ..*slot }, deadline));
            } else {
                self.queue.swap(kept, k);
                self.arrivals[kept] = self.arrivals[k];
                self.attempts[kept] = self.attempts[k];
                self.ordinals[kept] = self.ordinals[k];
                kept += 1;
            }
        }
        self.queue.truncate(kept);
        self.arrivals.truncate(kept);
        self.attempts.truncate(kept);
        self.ordinals.truncate(kept);
    }

    /// Updates the fault factors, then pushes their link product to the
    /// executor.
    fn degrade(&mut self, update: impl FnOnce(&mut Degradation)) {
        update(&mut self.degradation);
        self.executor.set_link_scale(self.degradation.link_scale());
    }

    /// Submits the pristine `plan` as this replica runs it: expert
    /// compute stretched by every slowdown it carries (gray degradation
    /// stretches service exactly like a visible slowdown; only the
    /// control plane cannot see it). Returns the executor's solo price
    /// when it priced one and it is the pristine plan's nominal price —
    /// no stretch and clean links — so the detector need not price the
    /// plan again.
    fn submit(&mut self, id: u64, at: SimTime, plan: &Arc<ExecutionPlan>) -> Option<SimDuration> {
        let slow = self.degradation.compute_stretch();
        let run = if slow > 1.0 {
            let mut degraded = (**plan).clone();
            degraded.scale_compute(slow);
            Arc::new(degraded)
        } else {
            Arc::clone(plan)
        };
        let nominal = Arc::ptr_eq(&run, plan) && self.executor.link_scale() == 1.0;
        let priced = self.executor.submit(id, at, run);
        priced.filter(|_| nominal)
    }

    /// Retires a draining replica the moment it has nothing queued and
    /// nothing in flight; cost accrual stops at `at`.
    fn retire_if_idle(&mut self, at: SimTime) {
        if self.state == ReplicaState::Draining
            && self.next == self.queue.len()
            && self.executor.in_flight() == 0
        {
            self.state = ReplicaState::Retired(at);
        }
    }

    /// The balancer's view at a routing instant. The event loop fires
    /// every executor event at or before the routing instant first, so
    /// in-flight counts here never include batches that already
    /// completed. `suspicion` comes from the run's [`HealthMonitor`]:
    /// down and retired replicas are reported as infinitely suspect
    /// (the balancer contract for "unroutable"). The advertised
    /// capacity divides by the visible stretch only (exactly 1.0 when
    /// undegraded): the control plane never sees a gray fault directly.
    fn snapshot(&self, id: usize, capacity: f64, now: SimTime, suspicion: f64) -> ReplicaSnapshot {
        ReplicaSnapshot {
            id,
            suspicion: if self.is_up() {
                suspicion
            } else {
                f64::INFINITY
            },
            draining: self.state == ReplicaState::Draining,
            provisioning: self.is_up() && now < self.ready_at,
            queued_requests: self.queue.len() - self.next,
            queued_tokens: self.queued_tokens,
            in_flight_tokens: self.executor.in_flight_tokens(),
            server_free: self.executor.busy_until().unwrap_or(SimTime::ZERO),
            capacity: capacity / self.degradation.visible_stretch(),
        }
    }
}

/// One admission: a request's first arrival (pulled lazily from the
/// trace stream) or a re-admission waiting in the retry queue after
/// displacement. The retry [`EventQueue`] orders by `(at, push order)`;
/// the stream wins ties against it.
struct Admission {
    at: SimTime,
    attempts: u32,
    req: Request,
}

/// The next step of the unified event loop, chosen in global
/// `(time, step)` order. Declaration order is the tie-break order at
/// one instant (see the module docs for why each kind sits where it
/// does), and replica ties break toward the lowest index.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    Fault,
    Executor(usize, SimTime),
    /// A hedge timer fired: the primary batch (id carried) is still in
    /// flight past its hedge deadline.
    Hedge(SimTime, u64),
    Control,
    Reshard,
    Admit,
    Dispatch(usize, Dispatch),
    Timeout(SimTime),
}

/// The multi-replica serving simulator. Holds a [`ServeEngine`] for
/// the shared machinery (trace generation, offline profiling, seed
/// derivation) plus the cluster config;
/// [`ClusterEngine::run`] is deterministic in all of them.
pub struct ClusterEngine<'a> {
    engine: ServeEngine<'a>,
    config: ClusterConfig,
}

impl<'a> ClusterEngine<'a> {
    /// Creates a cluster engine.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`ClusterConfig::validate`]),
    /// or if a base placement disagrees with the model's layer count or
    /// the workload's expert count, or leaves an expert unhosted.
    pub fn new(
        cost: &'a CostModel,
        topo: &'a Topology,
        spec: &'a WorkloadSpec,
        config: ClusterConfig,
    ) -> Self {
        config.validate();
        if let Some(p) = &config.placement {
            assert_eq!(
                p.n_layers(),
                cost.model.layers,
                "cluster: base placement layer count must match the model"
            );
            assert_eq!(
                p.experts(),
                spec.experts,
                "cluster: base placement expert count must match the workload"
            );
            assert!(
                p.is_complete(),
                "cluster: base placement must host every expert at every layer"
            );
        }
        ClusterEngine {
            engine: ServeEngine::new(cost, topo, spec, config.serve.clone()),
            config,
        }
    }

    /// The per-replica serving engine (trace generation, capacity).
    pub fn engine(&self) -> &ServeEngine<'a> {
        &self.engine
    }

    /// Upper bound on sustainable cluster throughput (requests/s):
    /// every replica serving full batches back to back.
    pub fn capacity(&self) -> f64 {
        self.config.replicas as f64 * self.engine.capacity()
    }

    /// Runs the full cluster simulation.
    pub fn run(&self) -> ClusterOutcome {
        self.run_stream(self.engine.request_stream())
    }

    /// Runs the cluster over a pre-generated request trace instead of
    /// the engine's lazy arrival stream. The trace must be in
    /// `(arrival, id)` order — [`ServeEngine::generate_requests`]
    /// produces exactly that. Lets benchmarks time the event loop
    /// without arrival-generation cost inside the measured region.
    /// Takes the trace by value so the loop moves requests into its
    /// queues instead of deep-cloning their token paths.
    pub fn run_trace(&self, trace: Vec<Request>) -> ClusterOutcome {
        self.run_stream(trace.into_iter())
    }

    /// The K-server event loop over a stream of first arrivals in
    /// `(arrival, id)` order.
    fn run_stream(&self, stream: impl Iterator<Item = Request>) -> ClusterOutcome {
        let (engine, cluster) = (&self.engine, &self.config);
        let config = &engine.config;
        let seeds = config.seeds();
        let offline = config
            .scheme
            .needs_scheduler()
            .then(|| engine.offline_scheduler(seeds.profile));
        let reload = provisioning::weight_reload(engine.cost, engine.topo, engine.spec.experts);
        // Only the capacity-aware consumers pay for the probe batch:
        // the least-expected-latency balancer and any armed autoscaler
        // (the predictive policy sizes the pool against it).
        let per_replica_capacity = if matches!(cluster.balancer, BalancerKind::LeastExpectedLatency)
            || cluster.autoscale.is_some()
        {
            engine.capacity()
        } else {
            0.0
        };
        let estimated = estimate_read(cluster.balancer, &cluster.health);
        let batch_tokens = config.batcher.max_batch_requests * config.tokens_per_request;
        // One topology clone per run, shared by every executor.
        let topo = Arc::new(engine.topo.clone());
        let n = cluster.replicas;
        let sim = ClusterSim {
            engine,
            cluster,
            replicas: (0..n)
                .map(|_| {
                    Replica::new(
                        ReplicaExecutor::new_shared(config.network, topo.clone(), estimated),
                        Estimate::new(offline.clone(), config.reestimate_window),
                        SimTime::ZERO,
                        SimTime::ZERO,
                    )
                })
                .collect(),
            monitor: HealthMonitor::for_cluster(cluster.health.clone(), n, topo.clone()),
            topo,
            last_pick: None,
            batcher: Batcher::new(config.batcher.clone()),
            infer: InferenceConfig {
                scheme: config.scheme,
                top_k: config.top_k,
            },
            per_replica_capacity,
            estimated,
            batch_tokens,
            reload,
            shared: Estimate::new(offline, config.reestimate_window),
            local_hops: 0,
            routed_hops: 0,
            stream: stream.peekable(),
            admissions: EventQueue::new(),
            snapshot_scratch: Vec::new(),
            autoscale: cluster.autoscale.as_ref().map(|cfg| {
                AutoscaleRuntime::new(cfg, n, reload, batch_tokens, per_replica_capacity)
            }),
            resharding: cluster.resharding.as_ref().map(|cfg| {
                ReshardRuntime::new(
                    cfg,
                    cluster.placement.as_ref(),
                    engine.spec.experts,
                    engine.topo.devices(),
                    engine.cost.model.layers,
                )
            }),
            hedging: cluster.hedging.clone().map(HedgeRuntime::new),
            retry: seeds.retry,
            now: SimTime::ZERO,
            next_fault: 0,
            tracker: SloTracker::new(config.slo),
            records: Vec::new(),
            pending: BTreeMap::new(),
            total_batches: 0,
            reestimations: 0,
            aborted_batches: 0,
            faults_injected: 0,
            emergency_replacements: 0,
            arrived: 0,
            recovery: RecoveryClock::default(),
            #[cfg(debug_assertions)]
            terminal_ids: Default::default(),
            #[cfg(debug_assertions)]
            admitted_ids: Default::default(),
        };
        sim.run()
    }
}

/// Whether a contended replica's solo-priced completion estimate has a
/// reader, so its executor must price each batch at submit: the
/// least-expected-latency balancer (through `busy_until`) or a pricing
/// detector (through the nominal price `Replica::submit` hands it).
/// Solo replicas always price: there the walk is the service time.
fn estimate_read(balancer: BalancerKind, health: &HealthConfig) -> bool {
    balancer == BalancerKind::LeastExpectedLatency || health.detector != DetectorKind::Oracle
}

/// The unified cluster event loop's state.
struct ClusterSim<'e, 'a, S: Iterator<Item = Request>> {
    engine: &'e ServeEngine<'a>,
    cluster: &'e ClusterConfig,
    /// One shared topology handle for every executor the run creates
    /// (initial pool and elastic scale-ups alike).
    topo: Arc<Topology>,
    /// The round-robin anchor: the replica id the previous pick of
    /// `cluster.balancer` routed to.
    last_pick: Option<usize>,
    batcher: Batcher,
    infer: InferenceConfig,
    per_replica_capacity: f64,
    /// Whether contended executors solo-price each batch at submit:
    /// only when the estimate has a reader.
    estimated: bool,
    /// Tokens in one full batch.
    batch_tokens: usize,
    /// Modeled PCIe transfer to (re)load one device's expert shard,
    /// charged before the first dispatch after a recovery, a device
    /// loss, or an elastic scale-up.
    reload: SimDuration,
    /// The cluster-wide estimator (shared sharing, and the starting
    /// profile of every elastic scale-up).
    shared: Estimate,
    /// Primary-expert hops priced as local handoffs, accumulated from
    /// every planned batch.
    local_hops: u64,
    /// Primary-expert hops that paid the dispatch wire.
    routed_hops: u64,
    replicas: Vec<Replica>,
    /// First arrivals in `(arrival, id)` order: the lazily generated
    /// trace stream or a pre-generated trace. Memory stays bounded by
    /// the live backlog.
    stream: std::iter::Peekable<S>,
    /// Re-admissions only (first arrivals come from `stream`).
    admissions: EventQueue<Admission>,
    /// Reused balancer-snapshot buffer: `admit` is per-request hot, so
    /// it must not allocate in steady state.
    snapshot_scratch: Vec<ReplicaSnapshot>,
    autoscale: Option<AutoscaleRuntime>,
    resharding: Option<ReshardRuntime>,
    /// The health detector the balancer consults. An oracle monitor
    /// reports zero suspicion for every replica, reproducing the
    /// historical boolean health bit exactly.
    monitor: HealthMonitor,
    hedging: Option<HedgeRuntime>,
    /// Seed stream for per-request retry-backoff jitter (inert at
    /// `jitter == 0`).
    retry: Rng,
    /// Instant of the most recently processed event (the loop runs in
    /// nondecreasing time order); the cost-accounting end of the run.
    now: SimTime,
    next_fault: usize,
    tracker: SloTracker,
    /// Per-request records materialize at the completion *event*,
    /// which under concurrent replicas need not follow dispatch order;
    /// they are sorted into dispatch order once the run drains.
    records: Vec<RequestRecord>,
    /// Member bookkeeping (request plus prior displacement count) from
    /// dispatch commit until the batch completes or aborts.
    pending: BTreeMap<u64, Vec<(Request, u32)>>,
    total_batches: usize,
    reestimations: usize,
    aborted_batches: usize,
    faults_injected: usize,
    emergency_replacements: usize,
    /// First arrivals pulled from the trace stream.
    arrived: usize,
    recovery: RecoveryClock,
    /// Conservation audit: ids that reached a terminal outcome.
    #[cfg(debug_assertions)]
    terminal_ids: std::collections::BTreeSet<usize>,
    /// Conservation audit: ids pulled from the trace stream.
    #[cfg(debug_assertions)]
    admitted_ids: std::collections::BTreeSet<usize>,
}

impl<S: Iterator<Item = Request>> ClusterSim<'_, '_, S> {
    /// Picks the next event in `(time, priority)` order; `None` when
    /// the run has drained.
    fn next_step(&mut self) -> Option<Step> {
        fn consider(best: &mut Option<(SimTime, Step)>, t: SimTime, step: Step) {
            if best.as_ref().is_none_or(|b| (t, &step) < (b.0, &b.1)) {
                *best = Some((t, step));
            }
        }
        let mut best = None;
        if let Some(e) = self.cluster.faults.schedule.events().get(self.next_fault) {
            consider(&mut best, e.at, Step::Fault);
        }
        for (i, rep) in self.replicas.iter_mut().enumerate() {
            if let Some(t) = rep.executor.next_event() {
                consider(&mut best, t, Step::Executor(i, t));
            }
        }
        // Hedge timers never drive the loop alone: one only exists
        // while its primary batch is in flight, which keeps an
        // executor event pending too. No `best.is_some()` gate needed.
        if let Some((t, primary)) = self.hedging.as_ref().and_then(HedgeRuntime::next_timer) {
            consider(&mut best, t, Step::Hedge(t, primary));
        }
        let next_arrival = self.stream.peek().map(|req| req.arrival);
        let next_retry = self.admissions.peek_time();
        if let Some(at) = match (next_arrival, next_retry) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        } {
            consider(&mut best, at, Step::Admit);
        }
        let max_inflight = self.engine.config.max_inflight;
        for (i, rep) in self.replicas.iter().enumerate() {
            if !rep.is_up() || rep.primaries_in_flight() >= max_inflight {
                continue;
            }
            if let Some(d) = self
                .batcher
                .next_dispatch(&rep.arrivals, rep.next, rep.slot_free)
            {
                consider(&mut best, d.at, Step::Dispatch(i, d));
            }
        }
        for rep in &mut self.replicas {
            if let Some(deadline) = rep.next_deadline() {
                consider(&mut best, deadline, Step::Timeout(deadline));
            }
        }
        // Control and re-shard ticks recur forever, so one never
        // drives the loop on its own: the controllers only observe
        // while some other event still gives the run work to do.
        if best.is_some() {
            if let Some(rt) = &self.autoscale {
                consider(&mut best, rt.next_at, Step::Control);
            }
            if let Some(rt) = &self.resharding {
                consider(&mut best, rt.next_at, Step::Reshard);
            }
        }
        best.map(|(_, step)| step)
    }

    fn run(mut self) -> ClusterOutcome {
        while let Some(step) = self.next_step() {
            match step {
                Step::Fault => {
                    let e = self.cluster.faults.schedule.events()[self.next_fault];
                    self.next_fault += 1;
                    self.now = e.at;
                    self.apply_fault(e);
                }
                Step::Executor(i, t) => {
                    self.now = t;
                    self.complete_on(i, t);
                }
                Step::Hedge(t, primary) => {
                    self.now = t;
                    self.fire_hedge(t, primary);
                }
                Step::Control => self.control(),
                Step::Reshard => self.reshard(),
                Step::Admit => self.admit_next(),
                Step::Dispatch(i, d) => {
                    self.now = d.at;
                    self.dispatch(i, d);
                }
                Step::Timeout(deadline) => {
                    self.now = deadline;
                    self.expire(deadline);
                }
            }
        }
        self.finish()
    }

    fn apply_fault(&mut self, e: FaultEvent) {
        self.faults_injected += 1;
        let rep = &mut self.replicas[e.replica];
        match e.kind {
            FaultKind::ReplicaRecover => self.recover(e.replica, e.at),
            // Every other fault hits a replica that is up; down and
            // retired replicas ignore it (recovery resets all
            // degradation state anyway).
            _ if !rep.is_up() => {}
            FaultKind::ReplicaCrash => self.crash(e.replica, e.at),
            FaultKind::DeviceLoss => self.device_loss(e.replica, e.at),
            // Gray faults degrade silently: only a detector that looks
            // can notice.
            kind => rep.degrade(|d| d.apply(kind)),
        }
    }

    /// The whole replica, which is up, goes down: abort its in-flight
    /// batches, displace its queued requests, and hand everything
    /// displaced to the degradation policy.
    fn crash(&mut self, i: usize, at: SimTime) {
        let rep = &mut self.replicas[i];
        // A crashed drain victim has nothing left to finish draining:
        // it retires on the spot (a recovery would revive a replica
        // the autoscaler already decided to shed).
        rep.state = if rep.state == ReplicaState::Draining {
            ReplicaState::Retired(at)
        } else {
            ReplicaState::Down
        };
        rep.degrade(|d| *d = Degradation::default());
        let aborted = rep.executor.abort_all();
        rep.hedges_in_flight = 0;
        self.monitor.reset(i);
        self.aborted_batches += aborted.len();
        let mut displaced: Vec<(Request, u32)> = Vec::new();
        for id in aborted {
            self.monitor.forget(id);
            // With a hedge racing it, a batch's members ride whichever
            // flight survives instead of being displaced.
            let batch = match &mut self.hedging {
                Some(rt) => rt.aborted(id, at),
                None => Some(id),
            };
            if let Some(batch) = batch {
                displaced.extend(
                    self.pending
                        .remove(&batch)
                        .expect("aborted batch was committed"),
                );
            }
        }
        let rep = &mut self.replicas[i];
        // Drain the undispatched tail by move — a displaced request's
        // token paths travel to the retry queue without a deep clone.
        displaced.extend(
            rep.queue
                .drain(rep.next..)
                .zip(rep.attempts.drain(rep.next..)),
        );
        rep.arrivals.truncate(rep.next);
        rep.ordinals.truncate(rep.next);
        rep.queued_tokens = 0;
        self.recovery.crash(at, displaced.iter().map(|(r, _)| r.id));

        let policy = self.cluster.faults.policy;
        for (req, attempts) in displaced {
            let n = attempts + 1;
            if !policy.retries() || n > policy.retry_budget {
                self.fail(req, at, RequestOutcome::Dropped);
                continue;
            }
            let retry_at = at + policy.backoff_jittered(n, req.id, &self.retry);
            self.readmit(req, n, retry_at, at);
        }
    }

    /// Parks `req` for re-admission at `at` — unless that lands past
    /// its timeout deadline, which ends it `TimedOut` instead.
    fn readmit(&mut self, req: Request, attempts: u32, at: SimTime, now: SimTime) {
        if let Some(to) = self.cluster.faults.policy.request_timeout {
            let deadline = req.arrival + to;
            if at > deadline {
                self.fail(req, deadline.max(now), RequestOutcome::TimedOut);
                return;
            }
        }
        self.admissions.push(at, Admission { at, attempts, req });
    }

    /// Fresh hardware comes back: clear all degradation state and gate
    /// the first dispatch behind the weight reload.
    fn recover(&mut self, i: usize, at: SimTime) {
        let reload = self.reload;
        let rep = &mut self.replicas[i];
        if rep.state != ReplicaState::Down {
            return;
        }
        rep.state = ReplicaState::Up;
        rep.degrade(|d| *d = Degradation::default());
        // The replica's own monitoring samples predate the crash:
        // flush them so a per-replica re-profile after recovery starts
        // from post-recovery observations only. (Under shared sharing
        // dispatch never fills the per-replica window, so this is a
        // no-op there — the pooled shared window survives untouched.)
        rep.estimate.window.clear();
        rep.slot_free = rep.slot_free.max(at + reload);
        // Post-recovery hardware is fresh: pre-crash latency history
        // (and any suspicion it earned) no longer describes it.
        self.monitor.reset(i);
    }

    /// One GPU of a replica that is up dies but the replica survives:
    /// emergency re-placement of the lost experts onto the survivors
    /// (modeled PCIe transfer gating the next dispatch, scheduler
    /// re-profiled from the re-estimation window) and a permanent
    /// compute stretch until recovery. Losing the last device escalates
    /// to a crash.
    fn device_loss(&mut self, i: usize, at: SimTime) {
        let devices = self.engine.topo.devices();
        let reload = self.reload;
        let rep = &mut self.replicas[i];
        // Lost devices stretch compute only: the link product stands.
        if !rep.degradation.lose_device(devices) {
            self.crash(i, at);
            return;
        }
        rep.slot_free = rep.slot_free.max(at + reload);
        self.emergency_replacements += 1;
        // Re-profile immediately from whatever the window holds — an
        // out-of-cycle rebuild (not counted as a periodic
        // re-estimation) so the next plan reflects current popularity
        // — then flush the source window: its samples were gathered
        // under the pre-loss placement.
        let engine = self.engine;
        if engine.config.scheme.estimates() {
            let est = self.estimate(i);
            if !est.window.is_empty() {
                est.reprofile(engine);
                est.window.clear();
            }
        }
        // A dynamic shard map does not survive the loss either: the
        // emergency re-replication restores the run's base layout, and
        // the proactive controller restarts from scratch.
        if let Some(rt) = &mut self.resharding {
            rt.reset();
        }
    }

    /// The estimator replica `i` plans with and feeds: the cluster-wide
    /// one under shared sharing, its own otherwise.
    fn estimate(&mut self, i: usize) -> &mut Estimate {
        match self.cluster.sharing {
            EstimatorSharing::Shared => &mut self.shared,
            EstimatorSharing::PerReplica => &mut self.replicas[i].estimate,
        }
    }

    /// Pops the earliest admission — the trace stream's head or the
    /// retry queue's head, the stream winning ties (a first arrival
    /// always precedes any re-admission at the same instant).
    fn admit_next(&mut self) {
        let take_stream = match (self.stream.peek(), self.admissions.peek_time()) {
            (Some(req), Some(at)) => req.arrival <= at,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!("Step::Admit without a pending admission"),
        };
        let adm = if take_stream {
            let req = self.stream.next().expect("peeked above");
            self.arrived += 1;
            #[cfg(debug_assertions)]
            self.admitted_ids.insert(req.id);
            Admission {
                at: req.arrival,
                attempts: 0,
                req,
            }
        } else {
            self.admissions.pop().expect("peeked above").1
        };
        self.now = adm.at;
        if let Some(rt) = &mut self.autoscale {
            if adm.attempts == 0 {
                rt.arrival();
            }
        }
        self.admit(adm);
    }

    /// One autoscaler control tick: observe the pool and the backlog,
    /// ask the policy, actuate its decision.
    fn control(&mut self) {
        let rt = self
            .autoscale
            .as_mut()
            .expect("control event without an autoscaler");
        // The serving pool, ready or still provisioning.
        let pool = self.replicas.iter().filter(|r| r.accepts_work());
        let outstanding = pool.clone().map(Replica::outstanding_tokens).sum();
        let (at, decision) = rt.tick(pool.count(), outstanding);
        self.now = at;
        match decision {
            ScaleDecision::Hold => {}
            ScaleDecision::ScaleUp(n) => {
                let live = self.replicas.iter().filter(|r| r.is_live()).count();
                for _ in 0..rt.grant_up(n, live) {
                    // A new replica starts from the cluster's current
                    // shared profile (the offline one under per-replica
                    // sharing, which never re-profiles the shared copy)
                    // and stays invisible to the balancers until its
                    // weight reload completes.
                    self.replicas.push(Replica::new(
                        ReplicaExecutor::new_shared(
                            self.engine.config.network,
                            self.topo.clone(),
                            self.estimated,
                        ),
                        Estimate::new(
                            self.shared.scheduler.clone(),
                            self.engine.config.reestimate_window,
                        ),
                        at,
                        at + self.reload,
                    ));
                }
                self.monitor.ensure(self.replicas.len());
            }
            ScaleDecision::ScaleDown(n) => {
                let serving = self.replicas.iter().filter(|r| r.accepts_work()).count();
                for _ in 0..rt.grant_down(n, serving) {
                    // The least-loaded serving replica drains, ties
                    // toward the newest so a still-provisioning replica
                    // goes first.
                    let victim = self
                        .replicas
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.accepts_work())
                        .min_by_key(|(i, r)| (r.outstanding_tokens(), Reverse(*i)))
                        .map(|(i, _)| i)
                        .expect("pool above minimum has a drain candidate");
                    let rep = &mut self.replicas[victim];
                    rep.state = ReplicaState::Draining;
                    rep.retire_if_idle(at);
                }
            }
        }
    }

    /// One proactive re-sharding tick; when the map changed, charge
    /// the modeled PCIe transfer for the weights moved and flush every
    /// monitoring and re-estimation window.
    fn reshard(&mut self) {
        let rt = self
            .resharding
            .as_mut()
            .expect("reshard event without a re-sharder");
        let (at, moved) = rt.tick();
        self.now = at;
        let Some(moved) = moved else { return };
        // Each up replica stalls behind the transfer for the replicas
        // that moved (evictions are free), priced by the same
        // primitive recovery reloads use.
        if moved > 0 {
            let charge = provisioning::reshard_transfer(
                self.engine.cost,
                self.engine.topo,
                moved,
                rt.config.transfer_cost,
            );
            for rep in self.replicas.iter_mut().filter(|r| r.is_up()) {
                rep.slot_free = rep.slot_free.max(at + charge);
            }
        }
        // No window sample gathered under the old map may survive it.
        self.shared.window.clear();
        for rep in &mut self.replicas {
            rep.estimate.window.clear();
        }
    }

    /// Routes one admission (first arrival or re-admission) through
    /// the balancer, which sees only routable replicas; applies the
    /// shedding admission controller to first arrivals.
    fn admit(&mut self, adm: Admission) {
        let now = adm.at;
        let policy = self.cluster.faults.policy;
        let n_alive = self.replicas.iter().filter(|r| r.is_up()).count();
        if n_alive == 0 {
            // Total outage. Retry policies park the admission until
            // the next scheduled recovery (the recovery fault fires
            // first at that instant, so a replica is up by then);
            // fail-fast, or a cluster that never recovers, drops.
            let recovery = self.cluster.faults.schedule.next_recovery_after(now);
            match recovery.filter(|_| policy.retries()) {
                Some(rec) => self.readmit(adm.req, adm.attempts, rec, now),
                None => self.fail(adm.req, now, RequestOutcome::Dropped),
            }
            return;
        }

        // Admission control: shed a *new* request when the surviving
        // capacity already has more than the threshold outstanding.
        // Re-admissions are exempt — shedding protects admitted work.
        if adm.attempts == 0 && policy.sheds() {
            let outstanding: usize = self
                .replicas
                .iter()
                .filter(|r| r.is_up())
                .map(Replica::outstanding_tokens)
                .sum();
            let cap = policy.shed_batches_per_replica * n_alive as f64 * self.batch_tokens as f64;
            if outstanding as f64 > cap {
                self.fail(adm.req, now, RequestOutcome::Dropped);
                return;
            }
        }

        // Build the balancer's view into the reusable scratch buffer:
        // one admission per request makes this the loop's hottest
        // allocation site without it.
        let mut snapshots = std::mem::take(&mut self.snapshot_scratch);
        snapshots.clear();
        let monitor = &self.monitor;
        snapshots.extend(self.replicas.iter().enumerate().map(|(i, r)| {
            r.snapshot(i, self.per_replica_capacity, now, monitor.suspicion(i, now))
        }));
        if !snapshots.iter().any(|s| s.routable()) {
            // Every live replica is draining, still provisioning, or
            // fully suspected. Rather than drop admitted work, un-gate
            // the live ones for this pick: the request queues behind
            // the drain, the weight reload, or the suspect replica
            // (deterministic emergency fallback). Infinite suspicion
            // means down/retired and stays out of bounds.
            for s in &mut snapshots {
                if s.suspicion.is_finite() {
                    s.suspicion = 0.0;
                    s.draining = false;
                    s.provisioning = false;
                }
            }
        }
        let balancer = self.cluster.balancer;
        let target = balancer.pick(&snapshots, now, &mut self.last_pick);
        assert!(
            self.replicas.get(target).is_some_and(Replica::is_up),
            "balancer {} picked unroutable or out-of-range replica {target}",
            balancer.name()
        );
        self.snapshot_scratch = snapshots;
        let rep = &mut self.replicas[target];
        if let Some(to) = policy.request_timeout {
            rep.deadlines
                .push(Reverse((adm.req.arrival + to, rep.requests)));
        }
        rep.ordinals.push(rep.requests);
        rep.requests += 1;
        rep.tokens += adm.req.tokens.len();
        rep.arrivals.push(now);
        rep.queued_tokens += adm.req.tokens.len();
        rep.attempts.push(adm.attempts);
        rep.queue.push(adm.req);
    }

    /// Fires the replica's executor events at `t`; completions free
    /// dispatch slots, feed the health detector, resolve hedge races,
    /// and materialize their members' records.
    fn complete_on(&mut self, i: usize, t: SimTime) {
        let max_inflight = self.engine.config.max_inflight;
        let rep = &mut self.replicas[i];
        let mut inflight = rep.primaries_in_flight();
        let finished = rep.executor.advance_to(t);
        for fb in &finished {
            if is_hedge(fb.id) {
                rep.hedges_in_flight -= 1;
                continue;
            }
            inflight -= 1;
            if inflight == max_inflight - 1 {
                rep.slot_free = fb.completed;
            }
        }
        for fb in finished {
            // Every completion here, hedge duplicates included, is a
            // latency observation for the detector.
            self.monitor
                .completed(i, fb.id, fb.report.total, fb.completed);
            let batch = if is_hedge(fb.id) {
                let rt = self.hedging.as_mut().expect("hedge id without a runtime");
                let (primary, racing) = rt.hedge_done(fb.id, fb.report.total, t);
                if let Some(p) = racing {
                    // The hedge beat a still-running primary: abort
                    // the original and free its dispatch slot now.
                    self.monitor.forget(primary);
                    let prep = &mut self.replicas[p];
                    let ok = prep.executor.abort(primary);
                    debug_assert!(ok, "raced primary was in flight");
                    if prep.primaries_in_flight() == max_inflight - 1 {
                        prep.slot_free = t;
                    }
                    prep.retire_if_idle(t);
                }
                primary
            } else {
                let lost = self
                    .hedging
                    .as_mut()
                    .and_then(|rt| rt.primary_done(fb.id, fb.report.total, t));
                if let Some((hedge, h)) = lost {
                    // The primary beat its hedge: cancel the copy.
                    self.monitor.forget(hedge);
                    let hrep = &mut self.replicas[h];
                    let ok = hrep.executor.abort(hedge);
                    debug_assert!(ok, "live hedge was in flight");
                    hrep.hedges_in_flight -= 1;
                }
                fb.id
            };
            self.complete_batch(batch, &fb);
        }
        // A drain victim decommissions at its last completion.
        self.replicas[i].retire_if_idle(t);
    }

    /// Materializes the records of primary batch `batch`'s members,
    /// served by the flight `fb`: the primary itself or its winning
    /// hedge, whose timeline the records then carry.
    fn complete_batch(&mut self, batch: u64, fb: &FinishedBatch) {
        let members = self
            .pending
            .remove(&batch)
            .expect("finished batch was committed");
        for (r, _) in members {
            self.records.push(RequestRecord {
                id: r.id,
                // The original arrival: latency spans failed attempts
                // and backoff waits.
                arrival: r.arrival,
                dispatched: fb.dispatched,
                completed: fb.completed,
                tokens: r.tokens.len(),
                batch: batch as usize,
                service: fb.report.total,
            });
            self.on_terminal(r.id, fb.completed);
        }
    }

    /// A hedge timer fired: the primary is still running past its
    /// deadline. Duplicate the batch onto the least-suspected routable
    /// alternate with spare executor capacity; first completion wins.
    fn fire_hedge(&mut self, t: SimTime, primary: u64) {
        let max_inflight = self.engine.config.max_inflight;
        let rt = self
            .hedging
            .as_mut()
            .expect("hedge timer without a runtime");
        let (replicas, monitor) = (&self.replicas, &self.monitor);
        let hedge = rt.fire(t, primary, |host| {
            // Candidates: up and taking work, past the weight reload,
            // not the primary's host, with a genuinely free executor
            // slot (the hedge consumes capacity even though it skips
            // the dispatch budget). Least suspicion wins; ties break
            // toward the lighter in-flight load, then the lower index.
            // None (single live replica, or everyone saturated) leaves
            // the primary alone with the batch.
            replicas
                .iter()
                .enumerate()
                .filter(|&(j, r)| {
                    j != host
                        && r.accepts_work()
                        && t >= r.ready_at
                        && r.executor.in_flight() < max_inflight
                })
                .min_by(|&(a, ra), &(b, rb)| {
                    monitor
                        .suspicion(a, t)
                        .total_cmp(&monitor.suspicion(b, t))
                        .then_with(|| {
                            ra.executor
                                .in_flight_tokens()
                                .cmp(&rb.executor.in_flight_tokens())
                        })
                        .then_with(|| a.cmp(&b))
                })
                .map(|(j, _)| j)
        });
        let Some((id, target, plan)) = hedge else {
            return;
        };
        let rep = &mut self.replicas[target];
        rep.hedges_in_flight += 1;
        // The duplicate runs at the target's true speed; its completion
        // feeds the detector like any other.
        let nominal = rep.submit(id, t, &plan);
        self.monitor.expect(id, &plan, nominal);
    }

    /// Commits the replica's next batch: plan, degrade, submit.
    fn dispatch(&mut self, i: usize, d: Dispatch) {
        let engine = self.engine;
        let rep = &self.replicas[i];
        let members = &rep.queue[rep.next..rep.next + d.count];
        let batch_tokens: usize = members.iter().map(|r| r.tokens.len()).sum();
        // One allocation per member token, plus the batch's own.
        let mut tokens = Vec::with_capacity(batch_tokens);
        for r in members {
            tokens.extend_from_slice(&r.tokens);
        }
        let batch = TokenBatch {
            tokens,
            devices: engine.topo.devices(),
            experts: engine.spec.experts,
        };
        let scheduler = match self.cluster.sharing {
            EstimatorSharing::Shared => &self.shared,
            EstimatorSharing::PerReplica => &rep.estimate,
        };
        // A diverged shard map overrides the configured base placement;
        // at the base, planning sees exactly the configured map (or the
        // canonical one when none was set), so an armed-but-inert
        // re-sharder stays bit-identical.
        let map = self
            .resharding
            .as_ref()
            .and_then(ReshardRuntime::plan_map)
            .or(self.cluster.placement.as_ref());
        let plan = Arc::new(plan_batch_layered(
            engine.cost,
            engine.topo,
            &self.infer,
            scheduler.scheduler.as_ref(),
            &batch,
            map,
            self.cluster.locality,
        ));
        self.local_hops += plan.local_hops;
        self.routed_hops += plan.routed_hops;
        let batch_id = self.total_batches as u64;
        // The detector's expectation and a hedge's re-run both use the
        // pristine plan; the replica's own degradation stretches a copy.
        if let Some(rt) = &mut self.hedging {
            rt.arm(batch_id, i, d.at, &plan);
        }
        let rep = &mut self.replicas[i];
        let nominal = rep.submit(batch_id, d.at, &plan);
        self.monitor.expect(batch_id, &plan, nominal);
        // Move the members into the pending map — taking each slot's
        // token paths rather than deep-cloning them (a crash can still
        // re-admit the request with its paths intact). The emptied
        // queue slots also bound a long trace's memory by the live
        // backlog, not the run length.
        let member_info: Vec<(Request, u32)> = rep.queue[rep.next..rep.next + d.count]
            .iter_mut()
            .zip(rep.attempts[rep.next..rep.next + d.count].iter().copied())
            .map(|(slot, attempts)| {
                let tokens = std::mem::take(&mut slot.tokens);
                (Request { tokens, ..*slot }, attempts)
            })
            .collect();
        self.pending.insert(batch_id, member_info);
        let backlog = rep.arrivals[rep.next + d.count..]
            .iter()
            .filter(|&&a| a <= d.at)
            .count();
        self.tracker.record_depth(d.at, backlog);
        rep.queued_tokens -= batch_tokens;
        rep.next += d.count;
        rep.batches += 1;
        self.total_batches += 1;

        // The re-shard load monitor counts every dispatched batch's
        // selections; the re-estimator then keeps the batch itself,
        // pooled cluster-wide (shared) or replica-locally.
        let every = engine
            .config
            .reestimate_every
            .filter(|_| engine.config.scheme.estimates());
        if let Some(rt) = &mut self.resharding {
            rt.observe(&batch);
        }
        let Some(every) = every else {
            return;
        };
        if self.estimate(i).observe(batch, every, engine) {
            self.reestimations += 1;
        }
    }

    /// Expires every queued request whose deadline has passed; the
    /// loop fires this at the earliest deadline, so `TimedOut` records
    /// carry exactly their deadline as the end instant.
    fn expire(&mut self, now: SimTime) {
        let to = self
            .cluster
            .faults
            .policy
            .request_timeout
            .expect("timeout event without a timeout policy");
        let mut expired: Vec<(Request, SimTime)> = Vec::new();
        for rep in &mut self.replicas {
            if rep.next_deadline().is_some_and(|d| d <= now) {
                rep.expire(now, to, &mut expired);
            }
        }
        for (req, deadline) in expired {
            self.fail(req, deadline, RequestOutcome::TimedOut);
        }
    }

    /// Records a terminal failure outcome.
    fn fail(&mut self, req: Request, ended: SimTime, outcome: RequestOutcome) {
        let id = req.id;
        self.tracker.record_failure(FailureRecord {
            id,
            arrival: req.arrival,
            ended,
            tokens: req.tokens.len(),
            outcome,
        });
        self.on_terminal(id, ended);
    }

    /// Terminal-outcome bookkeeping: time-to-recover accounting and
    /// the conservation audit.
    fn on_terminal(&mut self, id: usize, at: SimTime) {
        #[cfg(debug_assertions)]
        assert!(
            self.terminal_ids.insert(id),
            "request {id} reached two terminal outcomes"
        );
        self.recovery.terminal(id, at);
    }

    fn finish(mut self) -> ClusterOutcome {
        assert!(
            self.pending.is_empty(),
            "every committed batch must complete or abort"
        );
        // Conservation in every build: each first arrival pulled from
        // the stream reached a terminal outcome. The debug id sets
        // below also catch a request that reached two.
        assert_eq!(
            self.records.len() + self.tracker.failures().len(),
            self.arrived,
            "every admitted request must reach exactly one terminal outcome"
        );
        #[cfg(debug_assertions)]
        {
            for rep in &self.replicas {
                assert_eq!(rep.queue.len(), rep.next, "queued requests left behind");
            }
            assert_eq!(
                self.terminal_ids, self.admitted_ids,
                "every admitted request must reach exactly one terminal outcome"
            );
        }
        // Records enter the tracker in dispatch order (batch index,
        // then request id within the batch), exactly as the
        // pre-event-loop engine emitted them.
        self.records.sort_by_key(|r| (r.batch, r.id));
        for r in std::mem::take(&mut self.records) {
            self.tracker.record(r);
        }
        let (hedges_issued, hedges_won, hedge_wasted_frac) = self
            .hedging
            .as_ref()
            .map_or((0, 0, 0.0), HedgeRuntime::summary);
        self.tracker
            .record_hedges(hedges_issued, hedges_won, hedge_wasted_frac);
        // Pool cost: every replica accrues from commission until it
        // retired (or the last event of the run for survivors).
        let end = self.now;
        let replica_seconds: f64 = self
            .replicas
            .iter()
            .map(|r| {
                let until = match r.state {
                    ReplicaState::Retired(at) => at,
                    _ => end,
                };
                until.saturating_since(r.commissioned).as_secs_f64()
            })
            .sum();
        let (scale_ups, scale_downs, peak_replicas) = self
            .autoscale
            .as_ref()
            .map_or((0, 0, self.cluster.replicas), |rt| {
                (rt.scale_ups, rt.scale_downs, rt.peak_replicas)
            });
        let (replications, evictions, migrations) =
            self.resharding.as_ref().map_or((0, 0, 0), |rt| {
                (rt.replications, rt.evictions, rt.migrations)
            });
        ClusterOutcome {
            tracker: self.tracker,
            batches: self.total_batches,
            reestimations: self.reestimations,
            requests_per_replica: self.replicas.iter().map(|r| r.requests).collect(),
            tokens_per_replica: self.replicas.iter().map(|r| r.tokens).collect(),
            batches_per_replica: self.replicas.iter().map(|r| r.batches).collect(),
            aborted_batches: self.aborted_batches,
            faults_injected: self.faults_injected,
            emergency_replacements: self.emergency_replacements,
            recovery_times: self.recovery.times,
            scale_ups,
            scale_downs,
            replications,
            evictions,
            migrations,
            peak_replicas,
            hedges_issued,
            hedges_won,
            hedge_wasted_frac,
            replica_seconds,
            last_event: end,
            local_hops: self.local_hops,
            routed_hops: self.routed_hops,
            plan_cache: PlanCacheStats::default(),
        }
    }
}

/// Convenience wrapper: build a [`ClusterEngine`] and run it.
pub fn serve_cluster(
    cost: &CostModel,
    topo: &Topology,
    spec: &WorkloadSpec,
    config: ClusterConfig,
) -> ClusterOutcome {
    ClusterEngine::new(cost, topo, spec, config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use crate::batcher::BatcherConfig;
    use crate::faults::{DegradationPolicy, FaultSchedule};
    use lina_baselines::InferScheme;
    use lina_model::{DeviceSpec, MoeModelConfig};
    use lina_netsim::ClusterSpec;
    use lina_simcore::SimDuration;

    fn world() -> (CostModel, Topology, WorkloadSpec) {
        let model = MoeModelConfig::transformer_xl(6, 8).for_inference();
        let topo = Topology::new(ClusterSpec::with_total_gpus(8));
        let cost = CostModel::new(DeviceSpec::a100_inference(), model);
        let spec = WorkloadSpec::enwik8(8, 6);
        (cost, topo, spec)
    }

    fn config(scheme: InferScheme, rate: f64, replicas: usize) -> ClusterConfig {
        ClusterConfig {
            serve: ServeConfig {
                scheme,
                top_k: 1,
                path_length: 3,
                max_experts_per_device: 2,
                arrival: ArrivalProcess::Poisson { rate },
                batcher: BatcherConfig {
                    max_batch_requests: 4,
                    max_wait: SimDuration::from_millis(2),
                },
                slo: SimDuration::from_millis(50),
                n_requests: 96,
                tokens_per_request: 64,
                token_spread: 0.0,
                drift_period: Some(24),
                reestimate_every: Some(4),
                reestimate_window: 8,
                network: lina_runner::NetworkMode::Solo,
                max_inflight: 1,
                seed: 0xC1A5,
                perf: Default::default(),
            },
            replicas,
            balancer: BalancerKind::JoinShortestQueue,
            sharing: EstimatorSharing::Shared,
            faults: FaultPlan::none(),
            autoscale: None,
            resharding: None,
            placement: None,
            locality: false,
            health: HealthConfig::oracle(),
            hedging: None,
        }
    }

    fn crash_at(ms: u64, replica: usize) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_millis(ms),
            replica,
            kind: FaultKind::ReplicaCrash,
        }
    }

    fn recover_at(ms: u64, replica: usize) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_millis(ms),
            replica,
            kind: FaultKind::ReplicaRecover,
        }
    }

    #[test]
    fn cluster_serves_every_request_exactly_once() {
        let (cost, topo, spec) = world();
        let out = serve_cluster(&cost, &topo, &spec, config(InferScheme::Lina, 800.0, 3));
        let mut ids: Vec<usize> = out.tracker.records().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..96).collect::<Vec<_>>());
        assert_eq!(out.requests_per_replica.iter().sum::<usize>(), 96);
        assert_eq!(
            out.batches_per_replica.iter().sum::<usize>(),
            out.batches,
            "per-replica batch counts must add up"
        );
        assert!(out.reestimations > 0, "Lina re-estimates online");
        assert_eq!(out.faults_injected, 0);
        assert_eq!(out.aborted_batches, 0);
        assert!(out.tracker.failures().is_empty());
    }

    #[test]
    fn replica_timelines_never_overlap() {
        let (cost, topo, spec) = world();
        let out = serve_cluster(
            &cost,
            &topo,
            &spec,
            config(InferScheme::Baseline, 1500.0, 2),
        );
        // Group batch spans per batch id; all batches of one replica
        // are serialized, and every record obeys arrival <= dispatch.
        for r in out.tracker.records() {
            assert!(
                r.dispatched >= r.arrival,
                "request {} dispatched early",
                r.id
            );
            assert!(r.completed > r.dispatched);
        }
        // With 2 replicas, at most 2 batches may overlap at any time.
        let records = out.tracker.records();
        let mut spans: Vec<(SimTime, SimTime)> = records
            .iter()
            .map(|r| (r.dispatched, r.completed))
            .collect();
        spans.sort();
        spans.dedup();
        for (i, &(start, _)) in spans.iter().enumerate() {
            let concurrent = spans[..i].iter().filter(|&&(_, end)| end > start).count();
            assert!(
                concurrent < 2,
                "more concurrent batches than replicas at {start}"
            );
        }
    }

    #[test]
    fn cluster_is_deterministic() {
        let (cost, topo, spec) = world();
        for balancer in [
            BalancerKind::RoundRobin,
            BalancerKind::JoinShortestQueue,
            BalancerKind::LeastExpectedLatency,
        ] {
            for sharing in [EstimatorSharing::Shared, EstimatorSharing::PerReplica] {
                let mut c = config(InferScheme::Lina, 600.0, 3);
                c.balancer = balancer;
                c.sharing = sharing;
                let a = serve_cluster(&cost, &topo, &spec, c.clone());
                let b = serve_cluster(&cost, &topo, &spec, c);
                assert_eq!(a.tracker.records(), b.tracker.records());
                assert_eq!(a.requests_per_replica, b.requests_per_replica);
                assert_eq!(a.reestimations, b.reestimations);
            }
        }
    }

    #[test]
    fn single_replica_cluster_matches_single_server() {
        let (cost, topo, spec) = world();
        let c = config(InferScheme::Lina, 400.0, 1);
        let cluster = serve_cluster(&cost, &topo, &spec, c.clone());
        let single = crate::engine::serve(&cost, &topo, &spec, c.serve);
        assert_eq!(cluster.tracker.records(), single.tracker.records());
        assert_eq!(cluster.batches, single.batches);
        assert_eq!(cluster.reestimations, single.reestimations);
    }

    #[test]
    fn round_robin_splits_requests_evenly() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 500.0, 3);
        c.balancer = BalancerKind::RoundRobin;
        let out = serve_cluster(&cost, &topo, &spec, c);
        assert_eq!(out.requests_per_replica, vec![32, 32, 32]);
        assert!((out.routing_imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_replicas_scale_capacity_and_cut_the_tail() {
        let (cost, topo, spec) = world();
        let one = ClusterEngine::new(&cost, &topo, &spec, config(InferScheme::Baseline, 1.0, 1));
        let three = ClusterEngine::new(&cost, &topo, &spec, config(InferScheme::Baseline, 1.0, 3));
        assert!((three.capacity() - 3.0 * one.engine().capacity()).abs() < 1e-9);
        // Offer a load that swamps one replica but not three.
        let rate = 1.5 * one.engine().capacity();
        let swamped = serve_cluster(&cost, &topo, &spec, config(InferScheme::Baseline, rate, 1));
        let cruising = serve_cluster(&cost, &topo, &spec, config(InferScheme::Baseline, rate, 3));
        let (s, c) = (swamped.report(), cruising.report());
        assert!(
            c.p99 < s.p99,
            "3 replicas p99 {} must beat 1 replica p99 {} at the same offered load",
            c.p99,
            s.p99
        );
        assert!(c.attainment >= s.attainment);
    }

    #[test]
    fn per_replica_sharing_reestimates_locally() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Lina, 800.0, 2);
        c.sharing = EstimatorSharing::PerReplica;
        let out = serve_cluster(&cost, &topo, &spec, c);
        assert!(out.reestimations > 0);
    }

    #[test]
    #[should_panic(expected = "replicas")]
    fn zero_replicas_rejected() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 100.0, 1);
        c.replicas = 0;
        ClusterEngine::new(&cost, &topo, &spec, c);
    }

    #[test]
    fn empty_fault_schedule_matches_healthy_path() {
        let (cost, topo, spec) = world();
        let healthy = serve_cluster(&cost, &topo, &spec, config(InferScheme::Lina, 700.0, 3));
        // A live retry policy over an empty schedule must be inert:
        // nothing ever displaces, and without a timeout no new event
        // kind fires.
        let mut c = config(InferScheme::Lina, 700.0, 3);
        c.faults = FaultPlan {
            schedule: FaultSchedule::none(),
            policy: DegradationPolicy::retry_failover(None),
        };
        let armed = serve_cluster(&cost, &topo, &spec, c);
        assert_eq!(healthy.tracker.records(), armed.tracker.records());
        assert_eq!(
            healthy.tracker.depth_timeline(),
            armed.tracker.depth_timeline()
        );
        assert_eq!(healthy.report(), armed.report());
        assert_eq!(healthy.requests_per_replica, armed.requests_per_replica);
        assert!((armed.report().availability - 1.0).abs() < 1e-15);
    }

    #[test]
    fn crash_with_fail_fast_drops_displaced_work() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 2000.0, 3);
        c.faults = FaultPlan {
            schedule: FaultSchedule::from_script(vec![crash_at(10, 0)]),
            policy: DegradationPolicy::fail_fast(),
        };
        let out = serve_cluster(&cost, &topo, &spec, c);
        let report = out.report();
        assert!(report.dropped > 0, "the crash must displace something");
        assert_eq!(report.offered, 96, "every request reaches an outcome");
        assert_eq!(report.requests + report.dropped, 96);
        assert!(report.availability < 1.0);
        // Fail-fast terminates displaced work at the crash instant.
        assert_eq!(out.mean_time_to_recover(), SimDuration::ZERO);
        // The downed replica served nothing after the crash: all its
        // post-crash admissions went elsewhere.
        let mut ids: Vec<usize> = out
            .tracker
            .records()
            .iter()
            .map(|r| r.id)
            .chain(out.tracker.failures().iter().map(|f| f.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..96).collect::<Vec<_>>(), "conservation");
    }

    #[test]
    fn crash_and_recovery_with_retries_completes_everything() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 2000.0, 3);
        c.faults = FaultPlan {
            schedule: FaultSchedule::from_script(vec![
                crash_at(10, 0),
                crash_at(10, 1),
                crash_at(10, 2),
                recover_at(30, 0),
                recover_at(30, 1),
                recover_at(30, 2),
            ]),
            policy: DegradationPolicy::retry_failover(None),
        };
        let out = serve_cluster(&cost, &topo, &spec, c);
        let report = out.report();
        assert_eq!(report.requests, 96, "retries recover every request");
        assert!((report.availability - 1.0).abs() < 1e-15);
        assert!(out.aborted_batches > 0, "in-flight work was aborted");
        assert!(
            !out.recovery_times.is_empty(),
            "displaced work closes a crash group"
        );
        assert!(out.mean_time_to_recover() > SimDuration::ZERO);
        assert_eq!(out.faults_injected, 6);
    }

    #[test]
    fn overload_with_timeout_produces_timed_out_outcomes() {
        let (cost, topo, spec) = world();
        // Swamp a single replica so the queue outgrows the timeout.
        let mut c = config(InferScheme::Baseline, 100_000.0, 1);
        c.faults = FaultPlan {
            schedule: FaultSchedule::none(),
            policy: DegradationPolicy::retry_failover(Some(SimDuration::from_millis(10))),
        };
        let out = serve_cluster(&cost, &topo, &spec, c);
        let report = out.report();
        assert!(report.timed_out > 0, "overload must time requests out");
        assert_eq!(report.offered, 96);
        assert_eq!(report.requests + report.dropped + report.timed_out, 96);
        for f in out.tracker.failures() {
            assert!(f.ended >= f.arrival);
            if f.outcome == RequestOutcome::TimedOut {
                assert_eq!(f.ended, f.arrival + SimDuration::from_millis(10));
            }
        }
    }

    /// A re-admitted request keeps its original arrival, so its
    /// timeout deadline can precede those of requests queued ahead of
    /// it: round robin queues replica 0's displaced requests on
    /// replica 1 behind later first arrivals. Timeouts must still fire
    /// at each request's own deadline, in deadline order.
    #[test]
    fn timeouts_fire_at_their_deadlines_in_an_unsorted_queue() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 12000.0, 2);
        c.balancer = BalancerKind::RoundRobin;
        c.faults = FaultPlan {
            schedule: FaultSchedule::from_script(vec![crash_at(3, 0), recover_at(30, 0)]),
            policy: DegradationPolicy::retry_failover(Some(SimDuration::from_millis(6))),
        };
        let out = serve_cluster(&cost, &topo, &spec, c);
        // Even ids below 41 arrived on replica 0 before the crash and
        // were re-queued on replica 1 after the 1 ms backoff.
        let expected: Vec<usize> = (8..=40)
            .step_by(2)
            .chain(53..=67)
            .chain(72..=86)
            .chain(91..=95)
            .collect();
        let ids: Vec<usize> = out.tracker.failures().iter().map(|f| f.id).collect();
        assert_eq!(ids, expected);
        for f in out.tracker.failures() {
            assert_eq!(f.outcome, RequestOutcome::TimedOut);
            assert_eq!(
                f.ended,
                f.arrival + SimDuration::from_millis(6),
                "request {}",
                f.id
            );
        }
    }

    #[test]
    fn down_replica_is_never_routed() {
        let (cost, topo, spec) = world();
        for balancer in [
            BalancerKind::RoundRobin,
            BalancerKind::JoinShortestQueue,
            BalancerKind::LeastExpectedLatency,
        ] {
            let mut c = config(InferScheme::Baseline, 800.0, 3);
            c.balancer = balancer;
            // Replica 0 dies before the first arrival and never comes
            // back; nothing may ever be routed to it.
            c.faults = FaultPlan {
                schedule: FaultSchedule::from_script(vec![crash_at(0, 0)]),
                policy: DegradationPolicy::retry_failover(None),
            };
            let out = serve_cluster(&cost, &topo, &spec, c);
            assert_eq!(
                out.requests_per_replica[0],
                0,
                "{} routed to a dead replica",
                balancer.name()
            );
            assert_eq!(out.report().requests, 96);
            assert!((out.report().availability - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn generated_fault_schedule_is_deterministic() {
        let (cost, topo, spec) = world();
        let rates = crate::faults::FaultRateConfig::crashes(20.0, SimDuration::from_millis(20));
        let schedule = FaultSchedule::generate(&rates, 3, SimDuration::from_secs_f64(0.25), 0xFA17);
        let mut c = config(InferScheme::Lina, 1200.0, 3);
        c.faults = FaultPlan {
            schedule,
            policy: DegradationPolicy::retry_failover_shed(Some(SimDuration::from_millis(200))),
        };
        let a = serve_cluster(&cost, &topo, &spec, c.clone());
        let b = serve_cluster(&cost, &topo, &spec, c);
        assert_eq!(a.tracker.records(), b.tracker.records());
        assert_eq!(a.tracker.failures(), b.tracker.failures());
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.aborted_batches, b.aborted_batches);
        assert_eq!(a.recovery_times, b.recovery_times);
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn device_loss_slows_the_replica_and_replaces_experts() {
        let (cost, topo, spec) = world();
        let healthy = serve_cluster(
            &cost,
            &topo,
            &spec,
            config(InferScheme::Baseline, 2000.0, 1),
        );
        let mut c = config(InferScheme::Baseline, 2000.0, 1);
        c.faults = FaultPlan {
            schedule: FaultSchedule::from_script(vec![FaultEvent {
                at: SimTime::from_millis(5),
                replica: 0,
                kind: FaultKind::DeviceLoss,
            }]),
            policy: DegradationPolicy::retry_failover(None),
        };
        let degraded = serve_cluster(&cost, &topo, &spec, c);
        assert_eq!(degraded.emergency_replacements, 1);
        assert_eq!(degraded.report().requests, 96, "the replica stays up");
        assert!(
            degraded.report().makespan > healthy.report().makespan,
            "a lost device must stretch the run"
        );
    }

    #[test]
    fn link_degrade_and_straggler_stretch_service() {
        let (cost, topo, spec) = world();
        let healthy = serve_cluster(
            &cost,
            &topo,
            &spec,
            config(InferScheme::Baseline, 2000.0, 1),
        );
        for kind in [
            FaultKind::LinkDegrade { scale: 0.25 },
            FaultKind::StragglerStart { factor: 4.0 },
        ] {
            let mut c = config(InferScheme::Baseline, 2000.0, 1);
            c.faults = FaultPlan {
                schedule: FaultSchedule::from_script(vec![FaultEvent {
                    at: SimTime::ZERO,
                    replica: 0,
                    kind,
                }]),
                policy: DegradationPolicy::retry_failover(None),
            };
            let slow = serve_cluster(&cost, &topo, &spec, c);
            assert_eq!(slow.report().requests, 96);
            assert!(
                slow.report().makespan > healthy.report().makespan,
                "{kind:?} must stretch the run"
            );
        }
    }

    /// Overlapping link and gray-NIC episodes compose as a product: a
    /// no-op episode of one family nested inside the other's leaves the
    /// run bit-identical to the outer episode alone.
    #[test]
    fn nested_link_and_gray_nic_episodes_compose() {
        let (cost, topo, spec) = world();
        let run = |events: Vec<(u64, FaultKind)>| {
            let mut c = config(InferScheme::Baseline, 2000.0, 1);
            let events = events.into_iter().map(|(ms, kind)| FaultEvent {
                at: SimTime::from_millis(ms),
                replica: 0,
                kind,
            });
            c.faults = FaultPlan {
                schedule: FaultSchedule::from_script(events.collect()),
                policy: DegradationPolicy::retry_failover(None),
            };
            serve_cluster(&cost, &topo, &spec, c)
        };
        let noop_gray = [
            (
                5,
                FaultKind::GrayDegrade {
                    compute_scale: 1.0,
                    nic_scale: 1.0,
                },
            ),
            (15, FaultKind::GrayClear),
        ];
        let noop_link = [
            (5, FaultKind::LinkDegrade { scale: 1.0 }),
            (15, FaultKind::LinkRestore),
        ];
        let gray_nic = FaultKind::GrayDegrade {
            compute_scale: 1.0,
            nic_scale: 0.5,
        };
        for (outer, inner) in [
            (FaultKind::LinkDegrade { scale: 0.25 }, noop_gray),
            (gray_nic, noop_link),
        ] {
            let alone = run(vec![(0, outer)]);
            let nested = run([(0, outer)].into_iter().chain(inner).collect());
            assert_eq!(nested.faults_injected, 3);
            assert_eq!(
                alone.tracker.records(),
                nested.tracker.records(),
                "{outer:?}"
            );
            assert_eq!(
                alone.tracker.depth_timeline(),
                nested.tracker.depth_timeline(),
                "{outer:?}"
            );
            assert_eq!(alone.report(), nested.report(), "{outer:?}");
        }
    }

    use crate::autoscale::{AutoscaleConfig, AutoscalePolicyKind, ScaleDecision};

    fn scripted(
        script: Vec<ScaleDecision>,
        min: usize,
        max: usize,
        interval_ms: u64,
    ) -> AutoscaleConfig {
        AutoscaleConfig {
            policy: AutoscalePolicyKind::Scripted { script },
            interval: SimDuration::from_millis(interval_ms),
            cooldown: SimDuration::ZERO,
            min_replicas: min,
            max_replicas: max,
        }
    }

    #[test]
    fn armed_inert_autoscaler_matches_the_fixed_cluster() {
        let (cost, topo, spec) = world();
        let fixed = serve_cluster(&cost, &topo, &spec, config(InferScheme::Lina, 800.0, 3));
        let mut c = config(InferScheme::Lina, 800.0, 3);
        c.autoscale = Some(AutoscaleConfig::inert(3, SimDuration::from_millis(1)));
        let armed = serve_cluster(&cost, &topo, &spec, c);
        assert_eq!(fixed.tracker.records(), armed.tracker.records());
        assert_eq!(
            fixed.tracker.depth_timeline(),
            armed.tracker.depth_timeline()
        );
        assert_eq!(fixed.report(), armed.report());
        assert_eq!(fixed.requests_per_replica, armed.requests_per_replica);
        assert_eq!(armed.scale_ups, 0);
        assert_eq!(armed.scale_downs, 0);
        assert_eq!(armed.peak_replicas, 3);
        assert_eq!(fixed.replica_seconds, armed.replica_seconds);
    }

    #[test]
    fn scripted_scale_up_commissions_a_replica_that_serves() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 2000.0, 1);
        c.balancer = BalancerKind::JoinShortestQueue;
        c.autoscale = Some(scripted(vec![ScaleDecision::ScaleUp(1)], 1, 4, 1));
        let out = serve_cluster(&cost, &topo, &spec, c);
        assert_eq!(out.scale_ups, 1);
        assert_eq!(out.peak_replicas, 2);
        assert_eq!(out.requests_per_replica.len(), 2);
        assert!(
            out.requests_per_replica[1] > 0,
            "the commissioned replica must serve once provisioned"
        );
        assert_eq!(out.report().requests, 96, "nothing is lost while scaling");
        // The elastic replica commissioned after t=0, so the run costs
        // strictly less than two replicas held for its full span.
        assert!(out.replica_seconds > 0.0);
        assert!(
            out.replica_seconds < 2.0 * out.report().makespan.as_secs_f64(),
            "a late commission must cost less than a full-span pair"
        );
    }

    #[test]
    fn scripted_scale_down_drains_before_decommission() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 2000.0, 3);
        c.autoscale = Some(scripted(vec![ScaleDecision::ScaleDown(1)], 1, 3, 1));
        let out = serve_cluster(&cost, &topo, &spec, c);
        assert_eq!(out.scale_downs, 1);
        assert_eq!(out.report().requests, 96, "draining loses nothing");
        assert!(out.tracker.failures().is_empty());
        // One replica retired early: the integrated cost is below
        // three full-span replicas.
        let makespan_cost = 3.0 * out.report().makespan.as_secs_f64();
        assert!(
            out.replica_seconds < makespan_cost,
            "retired replica must stop accruing ({} vs {makespan_cost})",
            out.replica_seconds
        );
    }

    #[test]
    fn reactive_autoscaler_scales_up_under_a_spike() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 4000.0, 1);
        c.autoscale = Some(AutoscaleConfig {
            policy: AutoscalePolicyKind::Reactive {
                up_threshold: 1.0,
                down_threshold: 0.1,
            },
            interval: SimDuration::from_millis(2),
            cooldown: SimDuration::from_millis(4),
            min_replicas: 1,
            max_replicas: 4,
        });
        let out = serve_cluster(&cost, &topo, &spec, c);
        assert!(out.scale_ups > 0, "a swamped pool must grow");
        assert!(out.peak_replicas > 1);
        assert_eq!(out.report().requests, 96);
        let fixed = serve_cluster(
            &cost,
            &topo,
            &spec,
            config(InferScheme::Baseline, 4000.0, 1),
        );
        assert!(
            out.report().p99 < fixed.report().p99,
            "elastic capacity must beat the swamped static pool's tail"
        );
    }

    #[test]
    fn autoscaled_cluster_is_deterministic() {
        let (cost, topo, spec) = world();
        for kind in [
            AutoscalePolicyKind::Reactive {
                up_threshold: 1.0,
                down_threshold: 0.1,
            },
            AutoscalePolicyKind::Predictive {
                target_util: 0.7,
                window: 8,
            },
        ] {
            let mut c = config(InferScheme::Lina, 2500.0, 2);
            c.autoscale = Some(AutoscaleConfig {
                policy: kind,
                interval: SimDuration::from_millis(2),
                cooldown: SimDuration::from_millis(4),
                min_replicas: 1,
                max_replicas: 5,
            });
            let a = serve_cluster(&cost, &topo, &spec, c.clone());
            let b = serve_cluster(&cost, &topo, &spec, c);
            assert_eq!(a.tracker.records(), b.tracker.records());
            assert_eq!(a.tracker.failures(), b.tracker.failures());
            assert_eq!(a.scale_ups, b.scale_ups);
            assert_eq!(a.scale_downs, b.scale_downs);
            assert_eq!(a.peak_replicas, b.peak_replicas);
            assert_eq!(a.replica_seconds, b.replica_seconds);
        }
    }

    #[test]
    fn autoscaling_composes_with_faults() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 2500.0, 2);
        c.faults = FaultPlan {
            schedule: FaultSchedule::from_script(vec![crash_at(10, 0), recover_at(30, 0)]),
            policy: DegradationPolicy::retry_failover(None),
        };
        c.autoscale = Some(AutoscaleConfig {
            policy: AutoscalePolicyKind::Reactive {
                up_threshold: 1.0,
                down_threshold: 0.1,
            },
            interval: SimDuration::from_millis(2),
            cooldown: SimDuration::from_millis(4),
            min_replicas: 1,
            max_replicas: 4,
        });
        let out = serve_cluster(&cost, &topo, &spec, c);
        assert_eq!(
            out.report().requests,
            96,
            "retries plus elasticity lose nothing"
        );
        assert!((out.report().availability - 1.0).abs() < 1e-15);
    }

    #[test]
    fn device_loss_on_a_retired_replica_is_a_no_op() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Lina, 2000.0, 3);
        c.autoscale = Some(scripted(vec![ScaleDecision::ScaleDown(1)], 1, 3, 1));
        let fault_free = serve_cluster(&cost, &topo, &spec, c.clone());
        assert_eq!(
            fault_free.requests_per_replica[2], 1,
            "the drain victim retires after one request"
        );
        c.faults = FaultPlan {
            schedule: FaultSchedule::from_script(vec![FaultEvent {
                at: SimTime::from_micros(23_700),
                replica: 2,
                kind: FaultKind::DeviceLoss,
            }]),
            policy: DegradationPolicy::retry_failover(None),
        };
        let out = serve_cluster(&cost, &topo, &spec, c);
        assert_eq!(out.faults_injected, 1);
        assert_eq!(out.emergency_replacements, 0);
        assert_eq!(out.tracker.records(), fault_free.tracker.records());
        assert_eq!(out.reestimations, fault_free.reestimations);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn autoscale_range_excluding_initial_pool_rejected() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 500.0, 1);
        c.autoscale = Some(scripted(Vec::new(), 2, 4, 1));
        ClusterEngine::new(&cost, &topo, &spec, c);
    }

    use crate::resharding::{ReshardAction, ReshardConfig, ReshardPolicyKind};

    fn scripted_reshard(script: Vec<Vec<ReshardAction>>, interval_ms: u64) -> ReshardConfig {
        ReshardConfig {
            policy: ReshardPolicyKind::Scripted { script },
            interval: SimDuration::from_millis(interval_ms),
            window: 8,
            transfer_cost: 1.0,
        }
    }

    #[test]
    fn armed_inert_resharder_matches_the_fixed_cluster() {
        let (cost, topo, spec) = world();
        let fixed = serve_cluster(&cost, &topo, &spec, config(InferScheme::Lina, 800.0, 3));
        let mut c = config(InferScheme::Lina, 800.0, 3);
        c.resharding = Some(ReshardConfig::inert(SimDuration::from_millis(1)));
        let armed = serve_cluster(&cost, &topo, &spec, c);
        assert_eq!(fixed.tracker.records(), armed.tracker.records());
        assert_eq!(
            fixed.tracker.depth_timeline(),
            armed.tracker.depth_timeline()
        );
        assert_eq!(fixed.report(), armed.report());
        assert_eq!(fixed.requests_per_replica, armed.requests_per_replica);
        assert_eq!(fixed.reestimations, armed.reestimations);
        assert_eq!(fixed.batches, armed.batches);
        assert_eq!(armed.replications, 0);
        assert_eq!(armed.evictions, 0);
        assert_eq!(armed.migrations, 0);
        assert_eq!(fixed.replica_seconds, armed.replica_seconds);
    }

    #[test]
    fn scripted_replication_splits_the_hot_expert_and_serves() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 2000.0, 1);
        c.resharding = Some(scripted_reshard(vec![vec![ReshardAction::Replicate(0)]], 1));
        let out = serve_cluster(&cost, &topo, &spec, c.clone());
        assert_eq!(out.replications, 1, "the scripted replication lands");
        assert_eq!(out.report().requests, 96, "re-sharding loses nothing");
        assert!(out.tracker.failures().is_empty());
        // Bit-identical replay: actuation is deterministic.
        let again = serve_cluster(&cost, &topo, &spec, c);
        assert_eq!(out.tracker.records(), again.tracker.records());
        assert_eq!(out.replications, again.replications);
        // The replicated map diverges from the unsharded timeline: the
        // transfer charge and the split expert must show somewhere.
        let fixed = serve_cluster(
            &cost,
            &topo,
            &spec,
            config(InferScheme::Baseline, 2000.0, 1),
        );
        assert_ne!(
            fixed.tracker.records(),
            out.tracker.records(),
            "an applied replication must change the timeline"
        );
    }

    #[test]
    fn replicate_then_evict_returns_to_the_canonical_map() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 2000.0, 1);
        c.resharding = Some(scripted_reshard(
            vec![
                vec![ReshardAction::Replicate(0)],
                vec![ReshardAction::Evict(0)],
            ],
            1,
        ));
        let out = serve_cluster(&cost, &topo, &spec, c);
        assert_eq!(out.replications, 1);
        assert_eq!(out.evictions, 1, "the replicated expert can shed its copy");
        assert_eq!(out.report().requests, 96);
        assert!(out.tracker.failures().is_empty());
    }

    #[test]
    fn eviction_never_strands_a_single_homed_expert() {
        let (cost, topo, spec) = world();
        let fixed = serve_cluster(
            &cost,
            &topo,
            &spec,
            config(InferScheme::Baseline, 2000.0, 1),
        );
        let mut c = config(InferScheme::Baseline, 2000.0, 1);
        // Every expert starts single-homed: the eviction must refuse
        // (planning panics on a hostless expert) and the refused no-op
        // must leave the run bit-identical to the fixed cluster.
        c.resharding = Some(scripted_reshard(vec![vec![ReshardAction::Evict(3)]], 1));
        let out = serve_cluster(&cost, &topo, &spec, c);
        assert_eq!(out.evictions, 0, "the last replica is never evicted");
        assert_eq!(fixed.tracker.records(), out.tracker.records());
        assert_eq!(fixed.report(), out.report());
    }

    #[test]
    fn gray_degrade_stretches_service_without_tripping_the_health_bit() {
        let (cost, topo, spec) = world();
        let healthy = serve_cluster(
            &cost,
            &topo,
            &spec,
            config(InferScheme::Baseline, 2000.0, 1),
        );
        let mut c = config(InferScheme::Baseline, 2000.0, 1);
        c.faults = FaultPlan {
            schedule: FaultSchedule::from_script(vec![FaultEvent {
                at: SimTime::ZERO,
                replica: 0,
                kind: FaultKind::GrayDegrade {
                    compute_scale: 4.0,
                    nic_scale: 0.5,
                },
            }]),
            policy: DegradationPolicy::retry_failover(None),
        };
        let gray = serve_cluster(&cost, &topo, &spec, c);
        assert_eq!(gray.report().requests, 96, "gray never displaces work");
        assert_eq!(gray.aborted_batches, 0, "the health bit never trips");
        assert!(
            gray.report().makespan > healthy.report().makespan,
            "a gray fault must stretch the run"
        );
    }

    #[test]
    fn gray_clear_restores_the_healthy_timeline_tail() {
        let (cost, topo, spec) = world();
        let mut forever = config(InferScheme::Baseline, 2000.0, 1);
        forever.faults = FaultPlan {
            schedule: FaultSchedule::from_script(vec![FaultEvent {
                at: SimTime::ZERO,
                replica: 0,
                kind: FaultKind::GrayDegrade {
                    compute_scale: 4.0,
                    nic_scale: 1.0,
                },
            }]),
            policy: DegradationPolicy::retry_failover(None),
        };
        let mut cleared = config(InferScheme::Baseline, 2000.0, 1);
        cleared.faults = FaultPlan {
            schedule: FaultSchedule::from_script(vec![
                FaultEvent {
                    at: SimTime::ZERO,
                    replica: 0,
                    kind: FaultKind::GrayDegrade {
                        compute_scale: 4.0,
                        nic_scale: 1.0,
                    },
                },
                FaultEvent {
                    at: SimTime::from_millis(10),
                    replica: 0,
                    kind: FaultKind::GrayClear,
                },
            ]),
            policy: DegradationPolicy::retry_failover(None),
        };
        let slow = serve_cluster(&cost, &topo, &spec, forever);
        let recovered = serve_cluster(&cost, &topo, &spec, cleared);
        assert_eq!(recovered.report().requests, 96);
        assert!(
            recovered.report().makespan < slow.report().makespan,
            "clearing the gray fault must speed the tail back up"
        );
    }

    #[test]
    fn armed_phi_detector_is_bit_identical_on_the_healthy_path() {
        let (cost, topo, spec) = world();
        let oracle = serve_cluster(&cost, &topo, &spec, config(InferScheme::Lina, 800.0, 3));
        let mut c = config(InferScheme::Lina, 800.0, 3);
        c.balancer = BalancerKind::LeastExpectedLatency;
        c.health = HealthConfig::phi_accrual();
        let mut o = config(InferScheme::Lina, 800.0, 3);
        o.balancer = BalancerKind::LeastExpectedLatency;
        let detector = serve_cluster(&cost, &topo, &spec, c);
        let oracle_lel = serve_cluster(&cost, &topo, &spec, o);
        // With no faults the detector must never manufacture suspicion
        // that changes routing: the latency-aware balancer sees the
        // same scores an oracle run does (all well under exclusion),
        // and every request still completes exactly once.
        assert_eq!(detector.report().requests, 96);
        assert_eq!(
            detector.report().requests,
            oracle.report().requests,
            "an armed detector loses nothing on the healthy path"
        );
        assert_eq!(
            detector.requests_per_replica.iter().sum::<usize>(),
            oracle_lel.requests_per_replica.iter().sum::<usize>(),
        );
        assert!(detector.tracker.failures().is_empty());
    }

    #[test]
    fn phi_detector_routes_around_a_gray_replica() {
        let (cost, topo, spec) = world();
        let gray_fault = FaultPlan {
            schedule: FaultSchedule::from_script(vec![FaultEvent {
                at: SimTime::ZERO,
                replica: 0,
                kind: FaultKind::GrayDegrade {
                    compute_scale: 8.0,
                    nic_scale: 1.0,
                },
            }]),
            policy: DegradationPolicy::retry_failover(None),
        };
        let mut blind = config(InferScheme::Baseline, 1500.0, 3);
        blind.balancer = BalancerKind::LeastExpectedLatency;
        blind.faults = gray_fault.clone();
        let mut seeing = blind.clone();
        seeing.health = HealthConfig::phi_accrual();
        let blind = serve_cluster(&cost, &topo, &spec, blind);
        let seeing = serve_cluster(&cost, &topo, &spec, seeing);
        assert_eq!(blind.report().requests, 96);
        assert_eq!(seeing.report().requests, 96);
        assert!(
            seeing.requests_per_replica[0] < blind.requests_per_replica[0],
            "the detector must divert traffic off the gray replica \
             (detector {} vs oracle {})",
            seeing.requests_per_replica[0],
            blind.requests_per_replica[0]
        );
        assert!(
            seeing.report().p99 < blind.report().p99,
            "diverting off the gray replica must cut tail latency"
        );
    }

    #[test]
    fn armed_inert_hedging_matches_the_unhedged_cluster() {
        let (cost, topo, spec) = world();
        let plain = serve_cluster(&cost, &topo, &spec, config(InferScheme::Lina, 800.0, 3));
        let mut c = config(InferScheme::Lina, 800.0, 3);
        // min_samples beyond the run's batch count: armed but inert.
        c.hedging = Some(HedgeConfig {
            quantile: 0.95,
            multiplier: 2.0,
            min_samples: 1_000_000,
        });
        let armed = serve_cluster(&cost, &topo, &spec, c);
        assert_eq!(plain.tracker.records(), armed.tracker.records());
        assert_eq!(
            plain.tracker.depth_timeline(),
            armed.tracker.depth_timeline()
        );
        assert_eq!(armed.hedges_issued, 0);
        assert_eq!(armed.report().requests, plain.report().requests);
    }

    #[test]
    fn hedging_conserves_requests_under_a_straggler() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 1500.0, 3);
        c.health = HealthConfig::phi_accrual();
        // Median-based delay: the service distribution under a gray
        // straggler is bimodal, so a high quantile would land in the
        // straggler's own band and never fire.
        c.hedging = Some(HedgeConfig {
            quantile: 0.5,
            multiplier: 1.2,
            min_samples: 4,
        });
        c.faults = FaultPlan {
            schedule: FaultSchedule::from_script(vec![FaultEvent {
                at: SimTime::ZERO,
                replica: 0,
                kind: FaultKind::GrayDegrade {
                    compute_scale: 8.0,
                    nic_scale: 1.0,
                },
            }]),
            policy: DegradationPolicy::retry_failover(None),
        };
        let out = serve_cluster(&cost, &topo, &spec, c);
        let mut ids: Vec<usize> = out.tracker.records().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..96).collect::<Vec<_>>(),
            "hedging must serve every request exactly once"
        );
        assert!(
            out.hedges_issued > 0,
            "an 8x gray straggler must trigger hedges"
        );
        assert!(out.hedges_won <= out.hedges_issued);
        assert!((0.0..=1.0).contains(&out.hedge_wasted_frac));
        assert_eq!(out.report().hedges_issued, out.hedges_issued);
        assert_eq!(out.report().hedges_won, out.hedges_won);
    }

    #[test]
    fn hedging_survives_a_crash_of_the_primary_replica() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 1500.0, 3);
        c.hedging = Some(HedgeConfig {
            quantile: 0.5,
            multiplier: 1.0,
            min_samples: 2,
        });
        c.faults = FaultPlan {
            schedule: FaultSchedule::from_script(vec![
                FaultEvent {
                    at: SimTime::ZERO,
                    replica: 0,
                    kind: FaultKind::GrayDegrade {
                        compute_scale: 16.0,
                        nic_scale: 1.0,
                    },
                },
                crash_at(20, 0),
                recover_at(40, 0),
            ]),
            policy: DegradationPolicy::retry_failover(None),
        };
        let out = serve_cluster(&cost, &topo, &spec, c);
        // Conservation under the nastiest interleaving: hedges in
        // flight when their primary's replica crashes, primaries dying
        // with live hedges, and recovery mid-run.
        let mut terminal: Vec<usize> = out.tracker.records().iter().map(|r| r.id).collect();
        terminal.extend(out.tracker.failures().iter().map(|f| f.id));
        terminal.sort_unstable();
        terminal.dedup();
        assert_eq!(
            terminal,
            (0..96).collect::<Vec<_>>(),
            "every request reaches exactly one terminal outcome"
        );
    }

    mod pricing {
        //! The detector prices each batch once: a replica running the
        //! pristine plan on clean links hands over its executor's price,
        //! every other batch is priced again — and both come out as the
        //! pristine plan's price on a fresh timer.

        use super::*;
        use lina_netsim::SoloTimer;
        use lina_runner::{execute_plan_solo, NetworkMode};
        use lina_workload::{Mode, TokenSource};

        struct Fixture {
            topo: Arc<Topology>,
            plan: Arc<ExecutionPlan>,
            /// The plan priced on a fresh timer.
            pristine: SimDuration,
            monitor: HealthMonitor,
        }

        fn fixture() -> Fixture {
            let (cost, topo, spec) = world();
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
        /// detector builds it: the detector is the estimate's only
        /// reader.
        fn replica(f: &Fixture, mode: NetworkMode) -> Replica {
            let estimate = estimate_read(BalancerKind::RoundRobin, &HealthConfig::phi_accrual());
            let executor = ReplicaExecutor::new_shared(mode, f.topo.clone(), estimate);
            Replica::new(
                executor,
                Estimate::new(None, 8),
                SimTime::ZERO,
                SimTime::ZERO,
            )
        }

        /// Submits the pristine plan on `rep` and records the detector's
        /// expectation, as dispatch does; returns whether the executor's
        /// price was reused and the recorded expectation.
        fn submit(f: &mut Fixture, rep: &mut Replica, id: u64) -> (bool, SimDuration) {
            let nominal = rep.submit(id, SimTime::ZERO, &f.plan);
            f.monitor.expect(id, &f.plan, nominal);
            let expected = f.monitor.expectation(id).expect("a phi detector prices");
            (nominal.is_some(), expected)
        }

        #[test]
        fn a_pristine_replica_hands_its_price_to_the_detector() {
            let mut f = fixture();
            for (id, mode) in [NetworkMode::Solo, NetworkMode::Contended]
                .into_iter()
                .enumerate()
            {
                let mut rep = replica(&f, mode);
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
            let mut gray = replica(&f, NetworkMode::Solo);
            gray.degrade(|d| {
                d.apply(FaultKind::GrayDegrade {
                    compute_scale: 1.5,
                    nic_scale: 0.5,
                })
            });
            assert_eq!(submit(&mut f, &mut gray, 0), (false, f.pristine));
            let mut straggler = replica(&f, NetworkMode::Solo);
            straggler.degrade(|d| d.apply(FaultKind::StragglerStart { factor: 2.0 }));
            assert_eq!(submit(&mut f, &mut straggler, 1), (false, f.pristine));
            // Both really ran slower than the price they were judged by.
            for rep in [&mut gray, &mut straggler] {
                let done = rep.executor.advance_to(SimTime::from_secs_f64(10.0));
                assert!(done[0].report.total > f.pristine);
            }
        }

        #[test]
        fn restored_links_reuse_the_executor_price_again() {
            let mut f = fixture();
            let mut rep = replica(&f, NetworkMode::Solo);
            rep.degrade(|d| d.apply(FaultKind::LinkDegrade { scale: 0.5 }));
            assert_eq!(submit(&mut f, &mut rep, 0), (false, f.pristine));
            rep.degrade(|d| d.apply(FaultKind::LinkRestore));
            assert_eq!(submit(&mut f, &mut rep, 1), (true, f.pristine));
        }

        #[test]
        fn a_hedge_onto_a_degraded_target_reprices() {
            let mut f = fixture();
            let mut primary = replica(&f, NetworkMode::Solo);
            let mut target = replica(&f, NetworkMode::Solo);
            target.degrade(|d| {
                d.apply(FaultKind::GrayDegrade {
                    compute_scale: 1.5,
                    nic_scale: 1.0,
                })
            });
            let mut rt = HedgeRuntime::new(HedgeConfig {
                quantile: 0.5,
                multiplier: 1.0,
                min_samples: 1,
            });
            // One delay sample arms hedging.
            rt.primary_done(u64::MAX >> 1, SimDuration::from_micros(1), SimTime::ZERO);
            assert_eq!(submit(&mut f, &mut primary, 0), (true, f.pristine));
            rt.arm(0, 0, SimTime::ZERO, &f.plan);
            let (t, id) = rt.next_timer().expect("armed");
            let (hedge, to, plan) = rt.fire(t, id, |_| Some(1)).expect("a free alternate");
            assert_eq!(to, 1);
            assert!(
                Arc::ptr_eq(&plan, &f.plan),
                "a hedge re-runs the pristine plan"
            );
            assert_eq!(submit(&mut f, &mut target, hedge), (false, f.pristine));
        }
    }
}
