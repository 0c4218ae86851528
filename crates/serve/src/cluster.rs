//! Multi-replica serving: a cluster of replica servers behind a
//! pluggable load balancer, with deterministic fault injection.
//!
//! A [`ClusterEngine`] serves the *same* pre-generated open-loop
//! request trace a [`ServeEngine`] would (same seeds, same drift), but
//! routes each arriving request to one of `replicas` identical servers
//! via a [`LoadBalancer`]. Every replica keeps its own admission queue,
//! dynamic [`Batcher`](crate::Batcher) timeline, and a
//! [`ReplicaExecutor`] running its in-flight batches; the cluster walks
//! a single K-server event loop over every event kind in global
//! `(time, priority)` order, so the run is deterministic down to the
//! bit.
//!
//! Eight event kinds interleave, with the priority breaking ties at
//! one instant:
//!
//! 1. **faults** — the next [`FaultEvent`] of the configured
//!    [`FaultSchedule`]; a crash at the same instant as a completion
//!    aborts the batch (the failure wins the race);
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
//!    ([`ReshardPolicy`](crate::ReshardPolicy)); actuation charges the
//!    modeled PCIe transfer;
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
//!
//! # Gray failures, suspicion, and hedging
//!
//! A [`FaultKind::GrayDegrade`] slows a replica *without telling the
//! control plane*: the health bit stays up and the oracle detector
//! keeps routing into the degraded replica at full weight. An armed
//! phi-accrual detector ([`HealthConfig`], [`crate::HealthMonitor`])
//! instead infers per-replica suspicion from observed batch completion
//! latencies; balancers consume the continuous score through
//! [`ReplicaSnapshot::routable`]. Hedged dispatch ([`HedgeConfig`])
//! covers the residual tail: when an in-flight batch outlives a
//! quantile-derived delay, the batch is speculatively re-submitted on
//! the least-suspected alternate replica, the first completion wins,
//! and the loser is cancelled (per-batch abort). Every request still
//! reaches exactly one terminal outcome — the conservation audit runs
//! with hedging armed — and the wasted-compute fraction of hedging is
//! reported on [`ClusterOutcome`].
//!
//! # Proactive re-sharding
//!
//! An armed [`ReshardConfig`] turns the static expert placement
//! dynamic. At every re-shard tick the policy sees each expert's share
//! of the token-selections in a sliding monitoring window (the same
//! [`ReestimationWindow`] machinery the online re-estimator uses) and
//! may emit [`ReshardAction`]s. Applying any action charges every
//! healthy replica the modeled PCIe transfer for the weights moved
//! ([`provisioning::reshard_transfer`]) and flushes every monitoring and
//! re-estimation window (their samples predate the new map). Dispatch
//! then plans against the live shard map — a replicated expert's tokens
//! split across its replicas inside
//! [`plan_batch_layered`](lina_runner::plan_batch_layered).
//!
//! # Elastic autoscaling
//!
//! An armed [`AutoscaleConfig`] turns the fixed pool elastic. At every
//! control tick the policy sees pool sizes and backlog
//! ([`ClusterObservation`]) and returns a
//! [`ScaleDecision`](crate::autoscale::ScaleDecision). **Scale-up**
//! commissions fresh replicas that pay the shared provisioning weight
//! reload ([`crate::provisioning::provision_time`] — the same modeled
//! transfer crash recovery pays) before becoming routable.
//! **Scale-down** *drains*: the victim stops receiving admissions but
//! finishes every queued and in-flight request, then retires; its cost
//! stops accruing at the retire instant. The run's integrated pool
//! cost is reported as [`ClusterOutcome::replica_seconds`].
//!
//! # Failure semantics
//!
//! A **replica crash** aborts the replica's in-flight batches and
//! displaces both their members and every queued request; the
//! [`DegradationPolicy`] decides whether displaced work is dropped on
//! the spot (fail-fast) or re-admitted through the balancer with
//! capped exponential backoff and a retry budget. A **recovery**
//! brings the replica back with fresh hardware after a modeled weight
//! reload (PCIe transfer of its expert shard). A **device loss**
//! keeps the replica up but blocks dispatching while the lost experts
//! are re-replicated onto the survivors (an emergency re-placement
//! that re-profiles the scheduler from the re-estimation window) and
//! stretches later batches' expert compute by
//! `devices / (devices - lost)`. **Link degradation** rescales the
//! replica's network bandwidth; **stragglers** stretch expert
//! compute. The shedding policy additionally drops *new* admissions
//! whenever the healthy replicas' outstanding work exceeds the shed
//! threshold, protecting the tail of the requests already admitted.
//!
//! Two re-estimation topologies compare the value of pooling
//! observations under popularity drift ([`EstimatorSharing`]):
//!
//! * **Shared** — one popularity estimator re-profiled from a sliding
//!   window of *all* replicas' recently served batches; every replica's
//!   scheduler follows it. Every replica benefits from every
//!   observation, so the estimator tracks drift at the cluster-wide
//!   batch rate.
//! * **Per-replica** — each replica re-profiles only from batches it
//!   served itself, as K isolated single-server deployments would.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use lina_model::{CostModel, ExpertPlacement, LayeredPlacement};
use lina_netsim::{SoloTimer, Topology};
use lina_runner::inference::InferenceConfig;
use lina_runner::{
    execute_plan_solo, plan_batch_layered, ExecutionPlan, FinishedBatch, ReplicaExecutor,
};
use lina_simcore::{EventQueue, Rng, SimDuration, SimTime};
use lina_workload::{TokenBatch, WorkloadSpec};

use crate::autoscale::{AutoscaleConfig, AutoscalePolicy, ClusterObservation, ScaleDecision};
use crate::balancer::{BalancerKind, LoadBalancer, ReplicaSnapshot};
use crate::batcher::{Batcher, Dispatch};
use crate::engine::{ReestimationWindow, ServeConfig, ServeEngine};
use crate::faults::{DegradationPolicy, FaultEvent, FaultKind, FaultPlan, FaultSchedule};
use crate::health::{DetectorKind, HealthConfig, HealthMonitor, HedgeConfig};
use crate::provisioning;
use crate::request::{Request, RequestRecord};
use crate::resharding::{ReshardAction, ReshardConfig, ReshardObservation, ReshardPolicy};
use crate::slo::{FailureRecord, RequestOutcome, SloTracker};

use lina_core::{TwoPhaseConfig, TwoPhaseScheduler};

/// How the estimating schemes pool online observations across replicas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EstimatorSharing {
    /// One estimator re-profiled from every replica's recent batches;
    /// all replicas' schedulers follow it.
    Shared,
    /// Each replica re-profiles only from its own recent batches.
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

/// Where a replica is in its elastic lifecycle. Every replica of a
/// fixed-pool run stays [`ReplicaRole::Active`] forever.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReplicaRole {
    /// Serving normally (possibly still provisioning until `ready_at`).
    Active,
    /// Scale-down victim: receives no new admissions, finishes its
    /// queued and in-flight work, then retires.
    Draining,
    /// Decommissioned; invisible to every part of the loop and no
    /// longer accruing cost.
    Retired,
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
    /// This replica's scheduler (per-replica sharing; unused while the
    /// cluster runs a shared scheduler).
    scheduler: Option<TwoPhaseScheduler>,
    /// This replica's re-profiling window (per-replica sharing).
    window: ReestimationWindow,
    /// Batches this replica has dispatched.
    batches: usize,
    /// Up and dispatchable; a crashed replica is invisible to the
    /// balancer until its recovery event.
    healthy: bool,
    /// GPUs lost to [`FaultKind::DeviceLoss`] since the last recovery.
    devices_lost: usize,
    /// Expert-compute stretch from lost devices (survivors absorb the
    /// lost shard): `devices / (devices - devices_lost)`.
    compute_slowdown: f64,
    /// Expert-compute stretch from an active straggler episode.
    straggler: f64,
    /// Expert-compute stretch from an active *gray* degradation
    /// ([`FaultKind::GrayDegrade`]). Deliberately excluded from the
    /// balancer snapshot's capacity: the control plane is never told
    /// about gray faults, only the detector can infer them.
    gray_compute: f64,
    /// Speculative hedge batches currently executing here. Excluded
    /// from dispatch-slot accounting so a hedge never blocks the
    /// replica's own primary dispatches.
    hedges_in_flight: usize,
    /// Elastic lifecycle state.
    role: ReplicaRole,
    /// Instant the provisioning weight reload completes; balancers
    /// skip the replica before it. The initial pool is ready at time
    /// zero (its weights were loaded before the run).
    ready_at: SimTime,
    /// Instant this replica started accruing cost.
    commissioned: SimTime,
    /// Instant it stopped (retired); `None` while commissioned.
    retired_at: Option<SimTime>,
}

impl Replica {
    /// A healthy, active replica commissioned at `commissioned` whose
    /// first dispatch waits until `ready_at` (the provisioning weight
    /// reload; the initial pool is ready at time zero).
    fn new(
        executor: ReplicaExecutor,
        scheduler: Option<TwoPhaseScheduler>,
        window: usize,
        commissioned: SimTime,
        ready_at: SimTime,
    ) -> Self {
        Replica {
            arrivals: Vec::new(),
            queue: Vec::new(),
            attempts: Vec::new(),
            next: 0,
            executor,
            slot_free: ready_at,
            queued_tokens: 0,
            scheduler,
            window: ReestimationWindow::new(window),
            batches: 0,
            healthy: true,
            devices_lost: 0,
            compute_slowdown: 1.0,
            straggler: 1.0,
            gray_compute: 1.0,
            hedges_in_flight: 0,
            role: ReplicaRole::Active,
            ready_at,
            commissioned,
            retired_at: None,
        }
    }

    /// The balancer's view at a routing instant. The event loop fires
    /// every executor event at or before the routing instant first, so
    /// in-flight counts here never include batches that already
    /// completed. `suspicion` comes from the run's [`HealthMonitor`]:
    /// crashed and retired replicas are reported as infinitely suspect
    /// (the balancer contract for "unroutable"), everything else gets
    /// the detector's continuous score. Note the advertised capacity
    /// deliberately ignores `gray_compute`: the control plane never
    /// sees a gray fault directly.
    fn snapshot(&self, id: usize, capacity: f64, now: SimTime, suspicion: f64) -> ReplicaSnapshot {
        let slow = self.compute_slowdown * self.straggler;
        ReplicaSnapshot {
            id,
            suspicion: if self.healthy && self.role != ReplicaRole::Retired {
                suspicion
            } else {
                f64::INFINITY
            },
            draining: self.role == ReplicaRole::Draining,
            provisioning: self.healthy && now < self.ready_at,
            queued_requests: self.queue.len() - self.next,
            queued_tokens: self.queued_tokens,
            in_flight_tokens: self.executor.in_flight_tokens(),
            server_free: self.executor.busy_until(),
            capacity: if slow > 1.0 {
                capacity / slow
            } else {
                capacity
            },
        }
    }
}

/// One admission: a request's first arrival (pulled lazily from the
/// trace stream) or a re-admission waiting in the retry queue after
/// displacement. The retry [`EventQueue`] orders by `(at, push order)`,
/// and re-admissions are pushed in strictly increasing sequence — the
/// same order the old explicit-sequence heap produced — while "stream
/// head vs. retry head, stream wins ties" reproduces the merged order
/// bit for bit.
struct Admission {
    at: SimTime,
    attempts: u32,
    req: Request,
}

/// The event kinds of the unified loop. Declaration order is the
/// tie-break order at one instant (see the module docs for why each
/// kind sits where it does).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventClass {
    Fault,
    Executor,
    Hedge,
    Control,
    Reshard,
    Admit,
    Dispatch,
    Timeout,
}

/// The next step of the unified event loop, chosen in global
/// `(time, EventClass)` order, with replica ties breaking toward the
/// lowest index.
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
/// derivation) plus the cluster shape and fault plan;
/// [`ClusterEngine::run`] is deterministic in all of them.
pub struct ClusterEngine<'a> {
    engine: ServeEngine<'a>,
    replicas: usize,
    balancer: BalancerKind,
    sharing: EstimatorSharing,
    faults: FaultPlan,
    autoscale: Option<AutoscaleConfig>,
    resharding: Option<ReshardConfig>,
    placement: Option<LayeredPlacement>,
    locality: bool,
    health: HealthConfig,
    hedging: Option<HedgeConfig>,
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
            engine: ServeEngine::new(cost, topo, spec, config.serve),
            replicas: config.replicas,
            balancer: config.balancer,
            sharing: config.sharing,
            faults: config.faults,
            autoscale: config.autoscale,
            resharding: config.resharding,
            placement: config.placement,
            locality: config.locality,
            health: config.health,
            hedging: config.hedging,
        }
    }

    /// The per-replica serving engine (trace generation, capacity).
    pub fn engine(&self) -> &ServeEngine<'a> {
        &self.engine
    }

    /// Upper bound on sustainable cluster throughput (requests/s):
    /// every replica serving full batches back to back.
    pub fn capacity(&self) -> f64 {
        self.replicas as f64 * self.engine.capacity()
    }

    /// Runs the full cluster simulation.
    pub fn run(&self) -> ClusterOutcome {
        self.run_stream(Box::new(self.engine.request_stream()))
    }

    /// Runs the cluster over a pre-generated request trace instead of
    /// the engine's lazy arrival stream. The trace must be in
    /// `(arrival, id)` order — [`ServeEngine::generate_requests`]
    /// produces exactly that. Lets benchmarks time the event loop
    /// without arrival-generation cost inside the measured region.
    /// Takes the trace by value so the loop moves requests into its
    /// queues instead of deep-cloning their token paths.
    pub fn run_trace(&self, trace: Vec<Request>) -> ClusterOutcome {
        self.run_stream(Box::new(trace.into_iter()))
    }

    /// The K-server event loop over a stream of first arrivals in
    /// `(arrival, id)` order.
    fn run_stream<'e>(&'e self, stream: Box<dyn Iterator<Item = Request> + 'e>) -> ClusterOutcome {
        let engine = &self.engine;
        let config = &engine.config;
        let seeds = config.seeds();
        let offline = engine
            .needs_scheduler()
            .then(|| engine.offline_scheduler(seeds.profile));
        let reload = provisioning::weight_reload(engine.cost, engine.topo, engine.spec.experts);
        // Only the capacity-aware consumers pay for the probe batch:
        // the least-expected-latency balancer and any armed autoscaler
        // (the predictive policy sizes the pool against it).
        let per_replica_capacity = if matches!(self.balancer, BalancerKind::LeastExpectedLatency)
            || self.autoscale.is_some()
        {
            engine.capacity()
        } else {
            0.0
        };
        // One topology clone per run, shared by every executor.
        let topo = Arc::new(engine.topo.clone());
        let replicas: Vec<Replica> = (0..self.replicas)
            .map(|_| {
                Replica::new(
                    ReplicaExecutor::new_shared(config.network, topo.clone()),
                    offline.clone(),
                    config.reestimate_window,
                    SimTime::ZERO,
                    SimTime::ZERO,
                )
            })
            .collect();

        // The phi detector needs a per-batch nominal expectation to
        // compare completions against; the oracle never looks, so the
        // pricer (and its per-dispatch solo pricing cost) only exists
        // when armed.
        let expect = (self.health.detector != DetectorKind::Oracle)
            .then(|| SoloTimer::new_shared(topo.clone()));

        let autoscale = self.autoscale.as_ref().map(|cfg| AutoscaleRuntime {
            policy: cfg.policy.build(cfg.cooldown),
            next_at: SimTime::ZERO + cfg.interval,
            arrived_since_last: 0,
            provision_time: reload,
            config: cfg.clone(),
        });

        let resharding = self.resharding.as_ref().map(|cfg| ReshardRuntime {
            policy: cfg.policy.build(),
            next_at: SimTime::ZERO + cfg.interval,
            window: ReestimationWindow::new(cfg.window),
            shard_map: default_shard_map(
                self.placement.as_ref(),
                engine.spec.experts,
                engine.topo.devices(),
                engine.cost.model.layers,
            ),
            dirty: false,
            replications: 0,
            evictions: 0,
            migrations: 0,
            config: cfg.clone(),
        });

        let sim = ClusterSim {
            engine,
            topo,
            balancer: self.balancer.build(),
            schedule: &self.faults.schedule,
            policy: self.faults.policy,
            batcher: Batcher::new(config.batcher.clone()),
            infer: InferenceConfig {
                scheme: config.scheme,
                top_k: config.top_k,
            },
            two_phase: engine.two_phase_config(),
            sharing: self.sharing,
            per_replica_capacity,
            reload,
            // Shared-mode scheduler and window (used when sharing ==
            // Shared or the scheme never re-estimates; per-replica mode
            // uses the copies inside each Replica instead).
            shared_scheduler: offline,
            shared_window: ReestimationWindow::new(config.reestimate_window),
            base_map: self.placement.as_ref(),
            locality: self.locality,
            local_hops: 0,
            routed_hops: 0,
            replicas,
            // First arrivals stream lazily in `(arrival, id)` order;
            // the retry queue holds only re-admissions.
            stream: stream.peekable(),
            admissions: EventQueue::new(),
            snapshot_scratch: Vec::new(),
            autoscale,
            resharding,
            monitor: HealthMonitor::new(self.health.clone(), self.replicas),
            expect,
            expected_service: BTreeMap::new(),
            hedging: self.hedging.clone().map(HedgeRuntime::new),
            retry: seeds.retry,
            now: SimTime::ZERO,
            next_fault: 0,
            tracker: SloTracker::new(config.slo),
            records: Vec::new(),
            pending: BTreeMap::new(),
            total_batches: 0,
            reestimations: 0,
            requests_per_replica: vec![0; self.replicas],
            tokens_per_replica: vec![0; self.replicas],
            aborted_batches: 0,
            faults_injected: 0,
            emergency_replacements: 0,
            scale_ups: 0,
            scale_downs: 0,
            peak_replicas: self.replicas,
            crashes: Vec::new(),
            req_crash: BTreeMap::new(),
            recovery_times: Vec::new(),
            #[cfg(debug_assertions)]
            terminal_ids: BTreeSet::new(),
            #[cfg(debug_assertions)]
            admitted_ids: BTreeSet::new(),
        };
        sim.run()
    }
}

/// An armed autoscaler's runtime state inside the event loop.
struct AutoscaleRuntime {
    config: AutoscaleConfig,
    policy: Box<dyn AutoscalePolicy>,
    /// Next control tick.
    next_at: SimTime,
    /// First-arrival admissions since the previous tick (the
    /// policies' arrival-rate signal).
    arrived_since_last: usize,
    /// What a scale-up pays before the new replica is routable.
    provision_time: SimDuration,
}

/// An armed proactive re-sharder's runtime state inside the event loop.
struct ReshardRuntime {
    config: ReshardConfig,
    policy: Box<dyn ReshardPolicy>,
    /// Next re-shard tick.
    next_at: SimTime,
    /// The per-expert load monitor: a sliding window over recently
    /// dispatched batches, flushed on every shard-map change so stale
    /// pre-change samples never drive the next decision.
    window: ReestimationWindow,
    /// The live per-layer shard map every dispatch plans against once
    /// `dirty`. Actuation mutates every layer in lockstep (see
    /// [`ExpertPlacement::add_replica`] and friends), so a uniform
    /// starting map stays uniform and the historical single-map counts
    /// are reproduced exactly.
    shard_map: LayeredPlacement,
    /// True once the map diverges from the run's base layout (the
    /// configured placement, or canonical expert-per-device); while
    /// false, dispatch plans exactly as an unarmed run would, so an
    /// inert policy is bit-identical off-path.
    dirty: bool,
    replications: usize,
    evictions: usize,
    migrations: usize,
}

/// Batch-id namespace for speculative hedge dispatches. Primary ids
/// are dense counters from zero; hedge ids live in the top half of the
/// `u64` space so the two streams can share one executor without
/// collision and a hedge id is recognizable at a glance in a debugger.
const HEDGE_BASE: u64 = 1 << 63;

/// A speculative duplicate of one primary batch, in flight on an
/// alternate replica.
struct HedgeFlight {
    /// The hedge's own batch id (`HEDGE_BASE + seq`).
    id: u64,
    /// Replica executing the hedge.
    replica: usize,
    /// Instant the hedge was dispatched.
    dispatched: SimTime,
}

/// Per-primary hedge bookkeeping, from dispatch commit until both the
/// primary and any hedge reach a terminal state.
struct HedgeState {
    /// Replica executing the primary.
    primary_replica: usize,
    /// Instant the primary was dispatched (latency sample base).
    primary_dispatched: SimTime,
    /// When the hedge timer fires if the primary is still running.
    deadline: SimTime,
    /// The primary's execution plan as planned against the *base*
    /// shard map (cloned cheaply; a hedge re-runs the same plan on the
    /// alternate replica).
    plan: Arc<ExecutionPlan>,
    /// Set when the primary's replica crashed with the hedge still
    /// live; the hedge is then the batch's only path to completion.
    primary_gone: bool,
    /// The live hedge, if the timer already fired.
    hedge: Option<HedgeFlight>,
}

/// An armed hedged-dispatch runtime: quantile-tracked completion
/// latencies, per-primary timers, and waste accounting.
struct HedgeRuntime {
    config: HedgeConfig,
    /// Observed primary batch service times, kept sorted for O(log n)
    /// insertion and O(1) quantile lookup.
    samples: Vec<SimDuration>,
    /// Armed hedge timers keyed `(deadline, primary batch id)`.
    timers: BTreeMap<(SimTime, u64), ()>,
    /// Live hedge state per primary batch id.
    live: BTreeMap<u64, HedgeState>,
    /// Reverse index: hedge batch id → primary batch id.
    by_hedge: BTreeMap<u64, u64>,
    /// Allocator for hedge batch ids.
    next_hedge_seq: u64,
    issued: usize,
    won: usize,
    /// Executor time burned by hedges that lost (or primaries that
    /// lost to their hedge) — the duplicated work.
    wasted: SimDuration,
    /// Executor time of winning flights — the useful work baseline for
    /// the waste fraction.
    useful: SimDuration,
}

impl HedgeRuntime {
    fn new(config: HedgeConfig) -> Self {
        HedgeRuntime {
            config,
            samples: Vec::new(),
            timers: BTreeMap::new(),
            live: BTreeMap::new(),
            by_hedge: BTreeMap::new(),
            next_hedge_seq: 0,
            issued: 0,
            won: 0,
            wasted: SimDuration::ZERO,
            useful: SimDuration::ZERO,
        }
    }

    /// Records one observed primary service time (sorted insert).
    fn observe(&mut self, service: SimDuration) {
        let at = self.samples.partition_point(|&s| s <= service);
        self.samples.insert(at, service);
    }

    /// The hedge delay once enough samples exist: the configured
    /// quantile of observed service times, scaled by the multiplier.
    fn delay(&self) -> Option<SimDuration> {
        if self.samples.len() < self.config.min_samples {
            return None;
        }
        let idx = (((self.samples.len() - 1) as f64) * self.config.quantile).round() as usize;
        Some(self.samples[idx].mul_f64(self.config.multiplier))
    }
}

/// The base per-layer map a run plans against while no re-shard
/// action has diverged from it: the configured placement, or the
/// canonical expert-per-device layout repeated at every layer.
fn default_shard_map(
    base: Option<&LayeredPlacement>,
    experts: usize,
    devices: usize,
    layers: usize,
) -> LayeredPlacement {
    match base {
        Some(p) => p.clone(),
        None => {
            LayeredPlacement::uniform(ExpertPlacement::one_per_device(experts, devices), layers)
        }
    }
}

/// The unified cluster event loop's state.
struct ClusterSim<'e, 'a> {
    engine: &'e ServeEngine<'a>,
    /// One shared topology handle for every executor the run creates
    /// (initial pool and elastic scale-ups alike): one deep clone per
    /// run instead of one per replica.
    topo: Arc<Topology>,
    balancer: Box<dyn LoadBalancer>,
    schedule: &'e FaultSchedule,
    policy: DegradationPolicy,
    batcher: Batcher,
    infer: InferenceConfig,
    two_phase: TwoPhaseConfig,
    sharing: EstimatorSharing,
    per_replica_capacity: f64,
    /// Modeled PCIe transfer to (re)load one device's expert shard:
    /// `expert_swap * ceil(experts / devices)`. Charged before the
    /// first dispatch after a recovery (parallel per-device weight
    /// reload) and after a device loss (re-replicating the lost shard
    /// onto the survivors).
    reload: SimDuration,
    shared_scheduler: Option<TwoPhaseScheduler>,
    shared_window: ReestimationWindow,
    /// The configured per-layer base placement; `None` plans against
    /// the canonical expert-per-device map at every layer.
    base_map: Option<&'e LayeredPlacement>,
    /// Locality-aware all-to-all pricing toggle (see
    /// [`lina_runner::plan_batch_layered`]).
    locality: bool,
    /// Primary-expert hops priced as local handoffs, accumulated from
    /// every planned batch.
    local_hops: u64,
    /// Primary-expert hops that paid the dispatch wire.
    routed_hops: u64,
    replicas: Vec<Replica>,
    /// First arrivals in `(arrival, id)` order: the lazily generated
    /// trace stream or a pre-generated trace. Memory stays bounded by
    /// the live backlog.
    stream: std::iter::Peekable<Box<dyn Iterator<Item = Request> + 'e>>,
    /// Re-admissions only (first arrivals come from `stream`).
    admissions: EventQueue<Admission>,
    /// Reused balancer-snapshot buffer: `admit` is per-request hot, so
    /// it must not allocate in steady state.
    snapshot_scratch: Vec<ReplicaSnapshot>,
    /// Armed autoscaler, if any.
    autoscale: Option<AutoscaleRuntime>,
    /// Armed proactive re-sharder, if any.
    resharding: Option<ReshardRuntime>,
    /// The health detector the balancer consults. An
    /// [`DetectorKind::Oracle`] monitor reports zero suspicion for
    /// every commissioned replica, reproducing the historical boolean
    /// health bit exactly.
    monitor: HealthMonitor,
    /// Prices dispatched plans at nominal speed — no degradation, clean
    /// links, solo collectives — for the health detector's
    /// expected-latency estimate. The detector compares each
    /// completion against this expectation, so batch size and
    /// composition drop out of the signal entirely: a healthy solo
    /// replica observes exactly ratio 1.0. `None` under the oracle
    /// detector, which never prices an expectation.
    expect: Option<SoloTimer>,
    /// Expected nominal totals of in-flight batches (primaries and
    /// hedges alike), consumed at completion to form the detector's
    /// actual-over-expected observation.
    expected_service: BTreeMap<u64, SimDuration>,
    /// Armed hedged dispatch, if any.
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
    requests_per_replica: Vec<usize>,
    tokens_per_replica: Vec<usize>,
    aborted_batches: usize,
    faults_injected: usize,
    emergency_replacements: usize,
    scale_ups: usize,
    scale_downs: usize,
    peak_replicas: usize,
    /// Open crash groups: the crash instant and the displaced request
    /// ids still lacking a terminal outcome.
    crashes: Vec<(SimTime, BTreeSet<usize>)>,
    /// Which open crash group a displaced request belongs to.
    req_crash: BTreeMap<usize, usize>,
    /// Closed crash groups' time-to-recover.
    recovery_times: Vec<SimDuration>,
    /// Conservation audit: ids that reached a terminal outcome.
    #[cfg(debug_assertions)]
    terminal_ids: BTreeSet<usize>,
    /// Conservation audit: ids pulled from the trace stream.
    #[cfg(debug_assertions)]
    admitted_ids: BTreeSet<usize>,
}

impl ClusterSim<'_, '_> {
    /// Picks the next event in `(time, priority)` order; `None` when
    /// the run has drained.
    fn next_step(&mut self) -> Option<Step> {
        type Best = Option<(SimTime, EventClass, Step)>;
        fn consider(best: &mut Best, t: SimTime, class: EventClass, step: Step) {
            if best
                .as_ref()
                .is_none_or(|(bt, bc, _)| (t, class) < (*bt, *bc))
            {
                *best = Some((t, class, step));
            }
        }
        let mut best: Best = None;
        if let Some(e) = self.schedule.events().get(self.next_fault) {
            consider(&mut best, e.at, EventClass::Fault, Step::Fault);
        }
        for (i, rep) in self.replicas.iter_mut().enumerate() {
            if let Some(t) = rep.executor.next_event() {
                consider(&mut best, t, EventClass::Executor, Step::Executor(i, t));
            }
        }
        // Hedge timers never drive the loop alone: one only exists
        // while its primary batch is in flight, which keeps an
        // executor event pending too. No `best.is_some()` gate needed.
        if let Some(rt) = &self.hedging {
            if let Some((&(t, primary), ())) = rt.timers.iter().next() {
                consider(&mut best, t, EventClass::Hedge, Step::Hedge(t, primary));
            }
        }
        let next_arrival = self.stream.peek().map(|req| req.arrival);
        let next_retry = self.admissions.peek_time();
        if let Some(at) = match (next_arrival, next_retry) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        } {
            consider(&mut best, at, EventClass::Admit, Step::Admit);
        }
        let max_inflight = self.engine.config.max_inflight;
        for (i, rep) in self.replicas.iter().enumerate() {
            // Hedges ride along outside the slot budget: a replica's
            // own dispatch pipeline only counts primary batches.
            if !rep.healthy
                || rep.role == ReplicaRole::Retired
                || rep.executor.in_flight() - rep.hedges_in_flight >= max_inflight
            {
                continue;
            }
            if let Some(d) = self
                .batcher
                .next_dispatch(&rep.arrivals, rep.next, rep.slot_free)
            {
                consider(&mut best, d.at, EventClass::Dispatch, Step::Dispatch(i, d));
            }
        }
        if let Some(to) = self.policy.request_timeout {
            for rep in &self.replicas {
                for r in &rep.queue[rep.next..] {
                    let deadline = r.arrival + to;
                    consider(
                        &mut best,
                        deadline,
                        EventClass::Timeout,
                        Step::Timeout(deadline),
                    );
                }
            }
        }
        // Control and re-shard ticks recur forever, so one never
        // drives the loop on its own: the controllers only observe
        // while some other event still gives the run work to do.
        if let Some(rt) = &self.autoscale {
            if best.is_some() {
                consider(&mut best, rt.next_at, EventClass::Control, Step::Control);
            }
        }
        if let Some(rt) = &self.resharding {
            if best.is_some() {
                consider(&mut best, rt.next_at, EventClass::Reshard, Step::Reshard);
            }
        }
        best.map(|(_, _, step)| step)
    }

    fn run(mut self) -> ClusterOutcome {
        while let Some(step) = self.next_step() {
            match step {
                Step::Fault => {
                    let e = self.schedule.events()[self.next_fault];
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
        match e.kind {
            FaultKind::ReplicaCrash => self.crash(e.replica, e.at),
            FaultKind::ReplicaRecover => self.recover(e.replica, e.at),
            FaultKind::DeviceLoss => self.device_loss(e.replica, e.at),
            // Non-crash faults are no-ops on a down replica: recovery
            // resets all degradation state anyway.
            FaultKind::LinkDegrade { scale } => {
                let rep = &mut self.replicas[e.replica];
                if rep.healthy {
                    rep.executor.set_link_scale(scale);
                }
            }
            FaultKind::LinkRestore => {
                let rep = &mut self.replicas[e.replica];
                if rep.healthy {
                    rep.executor.set_link_scale(1.0);
                }
            }
            FaultKind::StragglerStart { factor } => {
                let rep = &mut self.replicas[e.replica];
                if rep.healthy {
                    rep.straggler = factor;
                }
            }
            FaultKind::StragglerEnd => {
                let rep = &mut self.replicas[e.replica];
                if rep.healthy {
                    rep.straggler = 1.0;
                }
            }
            // Gray faults degrade silently: service stretches but the
            // health bit stays up, so only the detector (if armed with
            // one that actually looks) can notice.
            FaultKind::GrayDegrade {
                compute_scale,
                nic_scale,
            } => {
                let rep = &mut self.replicas[e.replica];
                if rep.healthy {
                    rep.gray_compute = compute_scale;
                    rep.executor.set_link_scale(nic_scale);
                }
            }
            FaultKind::GrayClear => {
                let rep = &mut self.replicas[e.replica];
                if rep.healthy {
                    rep.gray_compute = 1.0;
                    rep.executor.set_link_scale(1.0);
                }
            }
        }
    }

    /// The whole replica goes down: abort its in-flight batches,
    /// displace its queued requests, and hand everything displaced to
    /// the degradation policy.
    fn crash(&mut self, i: usize, at: SimTime) {
        let rep = &mut self.replicas[i];
        if !rep.healthy {
            return;
        }
        rep.healthy = false;
        rep.devices_lost = 0;
        rep.compute_slowdown = 1.0;
        rep.straggler = 1.0;
        rep.gray_compute = 1.0;
        let aborted = rep.executor.abort_all();
        rep.hedges_in_flight = 0;
        self.monitor.reset(i);
        self.aborted_batches += aborted.len();
        let mut displaced: Vec<(Request, u32)> = Vec::new();
        for id in aborted {
            // An aborted flight never completes, so its expectation is
            // never consumed — drop it here.
            self.expected_service.remove(&id);
            if id >= HEDGE_BASE {
                // A speculative hedge died with its host replica. The
                // primary (elsewhere) usually still carries the batch;
                // only if it had already crashed too do the members
                // finally displace.
                let rt = self.hedging.as_mut().expect("hedge id without a runtime");
                let primary = rt.by_hedge.remove(&id).expect("hedge id was registered");
                let st = rt.live.get_mut(&primary).expect("hedge had live state");
                let hf = st.hedge.take().expect("hedge flight was recorded");
                rt.wasted += at.saturating_since(hf.dispatched);
                if st.primary_gone {
                    rt.live.remove(&primary);
                    displaced.extend(
                        self.pending
                            .remove(&primary)
                            .expect("orphaned batch was committed"),
                    );
                }
                continue;
            }
            if let Some(rt) = self.hedging.as_mut() {
                if let Some(st) = rt.live.get_mut(&id) {
                    if st.hedge.is_some() {
                        // A hedge is still racing this batch elsewhere:
                        // the members ride the hedge instead of being
                        // displaced, so the crash costs them nothing
                        // beyond the head start they lose.
                        st.primary_gone = true;
                        continue;
                    }
                    // Timer armed but never fired: disarm it.
                    rt.timers.remove(&(st.deadline, id));
                    rt.live.remove(&id);
                }
            }
            displaced.extend(
                self.pending
                    .remove(&id)
                    .expect("aborted batch was committed"),
            );
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
        rep.queued_tokens = 0;
        // A crashed drain victim has nothing left to finish draining:
        // retire it on the spot (a recovery would revive a replica the
        // autoscaler already decided to shed).
        if rep.role == ReplicaRole::Draining {
            rep.role = ReplicaRole::Retired;
            rep.retired_at = Some(at);
        }

        // Open a crash group for time-to-recover accounting; a request
        // displaced a second time migrates to the newest group (its
        // old group closes now if that emptied it).
        if !displaced.is_empty() {
            let ids: BTreeSet<usize> = displaced.iter().map(|(r, _)| r.id).collect();
            for &id in &ids {
                if let Some(ci) = self.req_crash.get(&id).copied() {
                    self.crashes[ci].1.remove(&id);
                    if self.crashes[ci].1.is_empty() {
                        self.recovery_times
                            .push(at.saturating_since(self.crashes[ci].0));
                    }
                }
            }
            let ci = self.crashes.len();
            for &id in &ids {
                self.req_crash.insert(id, ci);
            }
            self.crashes.push((at, ids));
        }

        for (req, attempts) in displaced {
            if !self.policy.retries() {
                self.fail(req, at, RequestOutcome::Dropped);
                continue;
            }
            let n = attempts + 1;
            if n > self.policy.retry_budget {
                self.fail(req, at, RequestOutcome::Dropped);
                continue;
            }
            let retry_at = at + self.policy.backoff_jittered(n, req.id, &self.retry);
            if let Some(to) = self.policy.request_timeout {
                let deadline = req.arrival + to;
                if retry_at > deadline {
                    self.fail(req, deadline.max(at), RequestOutcome::TimedOut);
                    continue;
                }
            }
            self.admissions.push(
                retry_at,
                Admission {
                    at: retry_at,
                    attempts: n,
                    req,
                },
            );
        }
    }

    /// Fresh hardware comes back: clear all degradation state and gate
    /// the first dispatch behind the weight reload.
    fn recover(&mut self, i: usize, at: SimTime) {
        let reload = self.reload;
        let rep = &mut self.replicas[i];
        if rep.healthy || rep.role == ReplicaRole::Retired {
            return;
        }
        rep.healthy = true;
        rep.devices_lost = 0;
        rep.compute_slowdown = 1.0;
        rep.straggler = 1.0;
        rep.gray_compute = 1.0;
        rep.executor.set_link_scale(1.0);
        // The replica's own monitoring samples predate the crash:
        // flush them so a per-replica re-profile after recovery starts
        // from post-recovery observations only. (Under shared sharing
        // dispatch never fills the per-replica window, so this is a
        // no-op there — the pooled shared window survives untouched.)
        rep.window.clear();
        rep.slot_free = rep.slot_free.max(at + reload);
        // Post-recovery hardware is fresh: pre-crash latency history
        // (and any suspicion it earned) no longer describes it.
        self.monitor.reset(i);
    }

    /// One GPU dies but the replica survives: emergency re-placement
    /// of the lost experts onto the survivors (modeled PCIe transfer
    /// gating the next dispatch, scheduler re-profiled from the
    /// re-estimation window) and a permanent compute stretch until
    /// recovery. Losing the last device escalates to a crash.
    fn device_loss(&mut self, i: usize, at: SimTime) {
        if !self.replicas[i].healthy {
            return;
        }
        let devices = self.engine.topo.devices();
        if self.replicas[i].devices_lost + 1 >= devices {
            self.crash(i, at);
            return;
        }
        let reload = self.reload;
        let rep = &mut self.replicas[i];
        rep.devices_lost += 1;
        rep.compute_slowdown = devices as f64 / (devices - rep.devices_lost) as f64;
        rep.slot_free = rep.slot_free.max(at + reload);
        self.emergency_replacements += 1;
        // Re-profile immediately from whatever the window holds — an
        // out-of-cycle rebuild (not counted as a periodic
        // re-estimation) so the next plan reflects current popularity
        // — then flush the source window: its samples were gathered
        // under the pre-loss placement.
        if self.engine.estimates() {
            let path_length = self.engine.config.path_length;
            match self.sharing {
                EstimatorSharing::Shared => {
                    if !self.shared_window.is_empty() {
                        let estimator = self.shared_window.profile(path_length);
                        self.shared_scheduler =
                            Some(TwoPhaseScheduler::new(self.two_phase.clone(), estimator));
                        self.shared_window.clear();
                    }
                }
                EstimatorSharing::PerReplica => {
                    let rep = &mut self.replicas[i];
                    if !rep.window.is_empty() {
                        let estimator = rep.window.profile(path_length);
                        rep.scheduler =
                            Some(TwoPhaseScheduler::new(self.two_phase.clone(), estimator));
                        rep.window.clear();
                    }
                }
            }
        }
        // A dynamic shard map does not survive the loss either: the
        // emergency re-replication restores the run's base layout, and
        // the proactive controller restarts from scratch.
        let base_map = self.base_map;
        if let Some(rt) = &mut self.resharding {
            rt.shard_map = default_shard_map(
                base_map,
                self.engine.spec.experts,
                self.engine.topo.devices(),
                self.engine.cost.model.layers,
            );
            rt.dirty = false;
            rt.window.clear();
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
                rt.arrived_since_last += 1;
            }
        }
        self.admit(adm);
    }

    /// One autoscaler control tick: observe the pool and the backlog,
    /// ask the policy, actuate its decision.
    fn control(&mut self) {
        let batch_tokens =
            self.engine.config.batcher.max_batch_requests * self.engine.config.tokens_per_request;
        let per_replica_capacity = self.per_replica_capacity;
        let rt = self
            .autoscale
            .as_mut()
            .expect("control event without an autoscaler");
        let at = rt.next_at;
        rt.next_at = at + rt.config.interval;
        self.now = at;
        let (mut ready, mut provisioning, mut draining) = (0usize, 0usize, 0usize);
        let (mut queued_requests, mut outstanding) = (0usize, 0usize);
        for rep in &self.replicas {
            if !rep.healthy || rep.role == ReplicaRole::Retired {
                continue;
            }
            match rep.role {
                ReplicaRole::Draining => draining += 1,
                ReplicaRole::Active => {
                    if at < rep.ready_at {
                        provisioning += 1;
                    } else {
                        ready += 1;
                    }
                    // A draining replica's leftover work is its own to
                    // finish; only active replicas' backlog argues for
                    // more capacity.
                    queued_requests += rep.queue.len() - rep.next;
                    outstanding += rep.queued_tokens + rep.executor.in_flight_tokens();
                }
                ReplicaRole::Retired => unreachable!(),
            }
        }
        let obs = ClusterObservation {
            now: at,
            ready,
            provisioning,
            draining,
            queued_requests,
            outstanding_tokens: outstanding,
            arrived_since_last: rt.arrived_since_last,
            interval: rt.config.interval,
            batch_tokens,
            per_replica_capacity,
            provision_time: rt.provision_time,
            min_replicas: rt.config.min_replicas,
            max_replicas: rt.config.max_replicas,
        };
        rt.arrived_since_last = 0;
        match rt.policy.decide(&obs) {
            ScaleDecision::Hold => {}
            ScaleDecision::ScaleUp(n) => self.scale_up(n, at),
            ScaleDecision::ScaleDown(n) => self.scale_down(n, at),
        }
    }

    /// Commissions up to `n` fresh replicas. `max_replicas` is a
    /// hardware budget: it caps every not-yet-retired replica —
    /// draining (and even crashed) replicas hold their slot until they
    /// retire. Each new replica pays the provisioning weight reload
    /// before its first dispatch and stays invisible to the balancers
    /// until then.
    fn scale_up(&mut self, n: usize, at: SimTime) {
        let engine = self.engine;
        let rt = self
            .autoscale
            .as_ref()
            .expect("scale-up without an autoscaler");
        let max = rt.config.max_replicas;
        let ready_at = at + rt.provision_time;
        for _ in 0..n {
            let pool = self
                .replicas
                .iter()
                .filter(|r| r.retired_at.is_none())
                .count();
            if pool >= max {
                break;
            }
            // A new replica starts from the cluster's current shared
            // profile (per-replica sharing never re-profiles the shared
            // copy, so this is the offline profile there — the same
            // starting point the initial pool had).
            self.replicas.push(Replica::new(
                ReplicaExecutor::new_shared(engine.config.network, self.topo.clone()),
                self.shared_scheduler.clone(),
                engine.config.reestimate_window,
                at,
                ready_at,
            ));
            self.monitor.ensure(self.replicas.len());
            self.requests_per_replica.push(0);
            self.tokens_per_replica.push(0);
            self.scale_ups += 1;
            let live = self
                .replicas
                .iter()
                .filter(|r| r.retired_at.is_none())
                .count();
            self.peak_replicas = self.peak_replicas.max(live);
        }
    }

    /// Drains up to `n` replicas toward decommission (stopping at
    /// `min_replicas`): the least-loaded active replica — ties toward
    /// the newest, so a still-provisioning replica goes first — stops
    /// receiving admissions and retires once idle.
    fn scale_down(&mut self, n: usize, at: SimTime) {
        let min = self
            .autoscale
            .as_ref()
            .expect("scale-down without an autoscaler")
            .config
            .min_replicas;
        for _ in 0..n {
            let pool = self
                .replicas
                .iter()
                .filter(|r| r.healthy && r.role == ReplicaRole::Active)
                .count();
            if pool <= min {
                break;
            }
            let victim = self
                .replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| r.healthy && r.role == ReplicaRole::Active)
                .min_by_key(|(i, r)| (r.queued_tokens + r.executor.in_flight_tokens(), Reverse(*i)))
                .map(|(i, _)| i)
                .expect("pool above minimum has a drain candidate");
            self.replicas[victim].role = ReplicaRole::Draining;
            self.scale_downs += 1;
            self.try_retire(victim, at);
        }
    }

    /// Retires a draining replica the moment it has nothing queued and
    /// nothing in flight; cost accrual stops at `at`.
    fn try_retire(&mut self, i: usize, at: SimTime) {
        let rep = &mut self.replicas[i];
        if rep.role == ReplicaRole::Draining
            && rep.next == rep.queue.len()
            && rep.executor.in_flight() == 0
        {
            rep.role = ReplicaRole::Retired;
            rep.retired_at = Some(at);
        }
    }

    /// One proactive re-sharding tick: profile the monitoring window
    /// into per-expert load shares, ask the policy, apply its shard-map
    /// mutations deterministically, and — when anything changed —
    /// charge the modeled PCIe transfer for the weights moved and flush
    /// every monitoring and re-estimation window.
    fn reshard(&mut self) {
        let experts = self.engine.spec.experts;
        let devices = self.engine.topo.devices();
        let layers = self.engine.cost.model.layers;
        let base_map = self.base_map;
        let rt = self
            .resharding
            .as_mut()
            .expect("reshard event without a re-sharder");
        let at = rt.next_at;
        rt.next_at = at + rt.config.interval;
        self.now = at;
        let counts = rt.window.expert_token_counts(experts);
        let total: u64 = counts.iter().sum();
        let share: Vec<f64> = counts
            .iter()
            .map(|&c| {
                if total == 0 {
                    0.0
                } else {
                    c as f64 / total as f64
                }
            })
            .collect();
        // The policy sees one layer's replica counts: actuation keeps
        // every layer in lockstep, so layer 0 speaks for the map.
        let replicas_per_expert: Vec<usize> =
            rt.shard_map.layer(0).hosts.iter().map(Vec::len).collect();
        // Per-device capacity: the canonical density plus one slot of
        // headroom, so replication always has somewhere to go without
        // letting the map degenerate into every-expert-everywhere.
        let cap = experts.div_ceil(devices) + 1;
        let actions = rt.policy.decide(&ReshardObservation {
            now: at,
            expert_share: &share,
            replicas: &replicas_per_expert,
            devices,
            max_experts_per_device: cap,
        });
        // Each action mutates every layer of the map in lockstep; a
        // layer where the deterministic rule finds no eligible move is
        // skipped, and the action counts once if any layer moved. On a
        // uniform map every layer accepts or refuses identically, so
        // the historical single-map counts are reproduced exactly.
        let mut moved = 0usize;
        let mut applied = false;
        for action in actions {
            match action {
                ReshardAction::Replicate(e) => {
                    let mut ok = false;
                    for layer in rt.shard_map.layers_mut() {
                        ok |= layer.add_replica(e, devices, cap);
                    }
                    if ok {
                        rt.replications += 1;
                        moved += 1;
                        applied = true;
                    }
                }
                ReshardAction::Evict(e) => {
                    let mut ok = false;
                    for layer in rt.shard_map.layers_mut() {
                        ok |= layer.drop_replica(e, devices);
                    }
                    if ok {
                        rt.evictions += 1;
                        applied = true;
                    }
                }
                ReshardAction::Migrate(e) => {
                    let mut ok = false;
                    for layer in rt.shard_map.layers_mut() {
                        ok |= layer.migrate_replica(e, devices, cap);
                    }
                    if ok {
                        rt.migrations += 1;
                        moved += 1;
                        applied = true;
                    }
                }
            }
        }
        if !applied {
            return;
        }
        rt.dirty = rt.shard_map != default_shard_map(base_map, experts, devices, layers);
        rt.window.clear();
        // Actuation: each healthy replica stalls behind the PCIe
        // transfer for the replicas that moved (evictions are free),
        // priced by the same primitive recovery reloads use.
        if moved > 0 {
            let charge = provisioning::reshard_transfer(
                self.engine.cost,
                self.engine.topo,
                moved,
                rt.config.transfer_cost,
            );
            for rep in &mut self.replicas {
                if rep.healthy && rep.role != ReplicaRole::Retired {
                    rep.slot_free = rep.slot_free.max(at + charge);
                }
            }
        }
        // The placement changed: no window sample gathered under the
        // old map may survive it.
        self.shared_window.clear();
        for rep in &mut self.replicas {
            rep.window.clear();
        }
    }

    /// Routes one admission (first arrival or re-admission) through
    /// the balancer, which sees only routable replicas; applies the
    /// shedding admission controller to first arrivals.
    fn admit(&mut self, adm: Admission) {
        let now = adm.at;
        let n_alive = self
            .replicas
            .iter()
            .filter(|r| r.healthy && r.role != ReplicaRole::Retired)
            .count();
        if n_alive == 0 {
            // Total outage. Retry policies park the admission until
            // the next scheduled recovery (the recovery fault fires
            // first at that instant, so a replica is healthy by then);
            // fail-fast, or a cluster that never recovers, drops.
            if self.policy.retries() {
                if let Some(rec) = self.schedule.next_recovery_after(now) {
                    if let Some(to) = self.policy.request_timeout {
                        let deadline = adm.req.arrival + to;
                        if rec > deadline {
                            self.fail(adm.req, deadline.max(now), RequestOutcome::TimedOut);
                            return;
                        }
                    }
                    self.admissions.push(
                        rec,
                        Admission {
                            at: rec,
                            attempts: adm.attempts,
                            req: adm.req,
                        },
                    );
                    return;
                }
            }
            self.fail(adm.req, now, RequestOutcome::Dropped);
            return;
        }

        // Admission control: shed a *new* request when the surviving
        // capacity already has more than the threshold outstanding.
        // Re-admissions are exempt — shedding protects admitted work.
        if adm.attempts == 0 && self.policy.sheds() {
            let outstanding: usize = self
                .replicas
                .iter()
                .filter(|r| r.healthy && r.role != ReplicaRole::Retired)
                .map(|r| r.queued_tokens + r.executor.in_flight_tokens())
                .sum();
            let batch_tokens = self.engine.config.batcher.max_batch_requests
                * self.engine.config.tokens_per_request;
            let cap = self.policy.shed_batches_per_replica * n_alive as f64 * batch_tokens as f64;
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
            // means crashed/retired and stays out of bounds.
            for s in &mut snapshots {
                if s.suspicion.is_finite() {
                    s.suspicion = 0.0;
                    s.draining = false;
                    s.provisioning = false;
                }
            }
        }
        let target = self.balancer.pick(&snapshots, now);
        assert!(
            target < self.replicas.len()
                && self.replicas[target].healthy
                && self.replicas[target].role != ReplicaRole::Retired,
            "balancer {} picked unroutable or out-of-range replica {target}",
            self.balancer.name()
        );
        self.snapshot_scratch = snapshots;
        self.requests_per_replica[target] += 1;
        self.tokens_per_replica[target] += adm.req.tokens.len();
        let rep = &mut self.replicas[target];
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
        // Slot accounting counts primary batches only: hedges ride
        // along outside the dispatch budget.
        let mut inflight = rep.executor.in_flight() - rep.hedges_in_flight;
        let finished = rep.executor.advance_to(t);
        for fb in &finished {
            if fb.id >= HEDGE_BASE {
                rep.hedges_in_flight -= 1;
                continue;
            }
            inflight -= 1;
            if inflight == max_inflight - 1 {
                rep.slot_free = fb.completed;
            }
        }
        for fb in finished {
            // Every real completion on this replica is a latency
            // observation for the detector, hedge duplicates included:
            // actual service over the batch's nominal expectation. The
            // map only ever holds entries when a non-oracle detector
            // priced them at dispatch.
            if let Some(nominal) = self.expected_service.remove(&fb.id) {
                self.monitor
                    .observe(i, nominal, fb.report.total, fb.completed);
            }
            if fb.id >= HEDGE_BASE {
                self.hedge_finished(fb, t);
                continue;
            }
            if let Some(rt) = self.hedging.as_mut() {
                rt.observe(fb.report.total);
                rt.useful += fb.report.total;
                if let Some(st) = rt.live.remove(&fb.id) {
                    rt.timers.remove(&(st.deadline, fb.id));
                    if let Some(hf) = st.hedge {
                        // The primary beat its hedge: cancel the
                        // speculative copy and charge its burn.
                        rt.by_hedge.remove(&hf.id);
                        rt.wasted += t.saturating_since(hf.dispatched);
                        self.expected_service.remove(&hf.id);
                        let hrep = &mut self.replicas[hf.replica];
                        let ok = hrep.executor.abort(hf.id);
                        debug_assert!(ok, "live hedge was in flight");
                        hrep.hedges_in_flight -= 1;
                    }
                }
            }
            let members = self
                .pending
                .remove(&fb.id)
                .expect("finished batch was committed");
            for (r, _) in members {
                self.records.push(RequestRecord {
                    id: r.id,
                    // The original arrival: latency spans failed
                    // attempts and backoff waits.
                    arrival: r.arrival,
                    dispatched: fb.dispatched,
                    completed: fb.completed,
                    tokens: r.tokens.len(),
                    batch: fb.id as usize,
                    service: fb.report.total,
                });
                self.on_terminal(r.id, fb.completed);
            }
        }
        // A drain victim decommissions at its last completion.
        self.try_retire(i, t);
    }

    /// A hedge batch completed: it wins whatever race is still open
    /// (the executor's abort-wins-ties rule already purged it if the
    /// primary resolved first this instant) and its members' records
    /// materialize against the *primary* batch id.
    fn hedge_finished(&mut self, fb: FinishedBatch, t: SimTime) {
        let max_inflight = self.engine.config.max_inflight;
        let rt = self.hedging.as_mut().expect("hedge id without a runtime");
        let primary = rt
            .by_hedge
            .remove(&fb.id)
            .expect("finished hedge was registered");
        let st = rt
            .live
            .remove(&primary)
            .expect("finished hedge had live state");
        rt.won += 1;
        rt.useful += fb.report.total;
        if !st.primary_gone {
            // The hedge beat a still-running primary: abort the
            // original and free its dispatch slot now.
            rt.wasted += t.saturating_since(st.primary_dispatched);
            self.expected_service.remove(&primary);
            let prep = &mut self.replicas[st.primary_replica];
            let ok = prep.executor.abort(primary);
            debug_assert!(ok, "raced primary was in flight");
            if prep.executor.in_flight() - prep.hedges_in_flight == max_inflight - 1 {
                prep.slot_free = t;
            }
        }
        let members = self
            .pending
            .remove(&primary)
            .expect("hedged batch was committed");
        for (r, _) in members {
            self.records.push(RequestRecord {
                id: r.id,
                arrival: r.arrival,
                // The winning flight's timeline: the batch completed
                // via the hedge's dispatch.
                dispatched: fb.dispatched,
                completed: fb.completed,
                tokens: r.tokens.len(),
                batch: primary as usize,
                service: fb.report.total,
            });
            self.on_terminal(r.id, fb.completed);
        }
        if !st.primary_gone {
            // The abort may have emptied a drain victim.
            self.try_retire(st.primary_replica, t);
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
        rt.timers.remove(&(t, primary));
        let primary_replica = rt
            .live
            .get(&primary)
            .expect("hedge timer had live state")
            .primary_replica;
        // Candidate pool: commissioned, not the primary's host, with a
        // genuinely free executor slot (the hedge consumes capacity
        // even though it skips the dispatch budget). Least suspicion
        // wins; ties break toward the lighter backlog, then the lower
        // index — fully deterministic.
        let monitor = &self.monitor;
        let candidate = self
            .replicas
            .iter()
            .enumerate()
            .filter(|&(j, r)| {
                j != primary_replica
                    && r.healthy
                    && r.role == ReplicaRole::Active
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
            .map(|(j, _)| j);
        let Some(target) = candidate else {
            // Nowhere to hedge (single live replica, or everyone
            // saturated): the primary keeps the batch alone.
            return;
        };
        let rt = self.hedging.as_mut().expect("checked above");
        let id = HEDGE_BASE + rt.next_hedge_seq;
        rt.next_hedge_seq += 1;
        rt.issued += 1;
        rt.by_hedge.insert(id, primary);
        let st = rt.live.get_mut(&primary).expect("checked above");
        st.hedge = Some(HedgeFlight {
            id,
            replica: target,
            dispatched: t,
        });
        let base = st.plan.clone();
        // The hedge's completion feeds the detector like any other, so
        // it needs the same nominal expectation as its primary.
        if let Some(timer) = &mut self.expect {
            let nominal = execute_plan_solo(&base, timer).total;
            self.expected_service.insert(id, nominal);
        }
        let trep = &mut self.replicas[target];
        trep.hedges_in_flight += 1;
        // The duplicate runs at the target's true speed — visible
        // degradation and silent gray stretch alike.
        let slow = trep.compute_slowdown * trep.straggler * trep.gray_compute;
        let plan = if slow > 1.0 {
            let mut degraded = (*base).clone();
            degraded.scale_compute(slow);
            Arc::new(degraded)
        } else {
            base
        };
        trep.executor.submit(id, t, plan);
    }

    /// Commits the replica's next batch: plan, degrade, submit.
    fn dispatch(&mut self, i: usize, d: Dispatch) {
        let rep = &self.replicas[i];
        let members = &rep.queue[rep.next..rep.next + d.count];
        // Gray degradation stretches service exactly like a visible
        // slowdown would — it is only the *control plane* that cannot
        // see it.
        let slow = rep.compute_slowdown * rep.straggler * rep.gray_compute;
        let batch_tokens: usize = members.iter().map(|r| r.tokens.len()).sum();
        let batch = TokenBatch {
            tokens: members
                .iter()
                .flat_map(|r| r.tokens.iter().cloned())
                .collect(),
            devices: self.engine.topo.devices(),
            experts: self.engine.spec.experts,
        };
        let scheduler = match self.sharing {
            EstimatorSharing::Shared => self.shared_scheduler.as_ref(),
            EstimatorSharing::PerReplica => rep.scheduler.as_ref(),
        };
        // A dirty shard map overrides the configured base placement;
        // while at the base, planning sees exactly the configured map
        // (or the canonical one when none was set) — an
        // armed-but-inert re-sharder stays bit-identical.
        let base = self
            .resharding
            .as_ref()
            .filter(|rt| rt.dirty)
            .map(|rt| &rt.shard_map)
            .or(self.base_map);
        let base_plan = Arc::new(plan_batch_layered(
            self.engine.cost,
            self.engine.topo,
            &self.infer,
            scheduler,
            &batch,
            base,
            self.locality,
        ));
        self.local_hops += base_plan.local_hops;
        self.routed_hops += base_plan.routed_hops;
        // A hedge re-runs the pristine base plan on an alternate (its
        // own degradation applied at issue time), so capture the Arc
        // before the degraded-copy branch moves it.
        let hedge_plan = self.hedging.is_some().then(|| base_plan.clone());
        // The armed detector's expectation: the pristine plan at
        // nominal replica speed, priced before degradation stretches a
        // copy. Whatever the replica silently adds on top of this is
        // exactly the gray signal.
        let nominal = self
            .expect
            .as_mut()
            .map(|timer| execute_plan_solo(&base_plan, timer).total);
        // Degraded replicas stretch a private copy; the pristine plan
        // stays with the hedge state.
        let plan = if slow > 1.0 {
            let mut degraded = (*base_plan).clone();
            degraded.scale_compute(slow);
            Arc::new(degraded)
        } else {
            base_plan
        };
        let batch_id = self.total_batches as u64;
        if let Some(nominal) = nominal {
            self.expected_service.insert(batch_id, nominal);
        }
        let rep = &mut self.replicas[i];
        rep.executor.submit(batch_id, d.at, plan);
        // Move the members into the pending map — taking each slot's
        // token paths rather than deep-cloning them (a crash can still
        // re-admit the request with its paths intact). The emptied
        // queue slots also bound a long trace's memory by the live
        // backlog, not the run length.
        let member_info: Vec<(Request, u32)> = rep.queue[rep.next..rep.next + d.count]
            .iter_mut()
            .zip(rep.attempts[rep.next..rep.next + d.count].iter().copied())
            .map(|(slot, attempts)| {
                (
                    Request {
                        id: slot.id,
                        arrival: slot.arrival,
                        tokens: std::mem::take(&mut slot.tokens),
                    },
                    attempts,
                )
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

        // Arm the hedge timer: once enough service samples exist to
        // estimate the delay quantile, any primary still running past
        // it gets a speculative duplicate.
        if let Some(rt) = &mut self.hedging {
            if let Some(delay) = rt.delay() {
                let deadline = d.at + delay;
                rt.timers.insert((deadline, batch_id), ());
                rt.live.insert(
                    batch_id,
                    HedgeState {
                        primary_replica: i,
                        primary_dispatched: d.at,
                        deadline,
                        plan: hedge_plan
                            .clone()
                            .expect("armed hedging captured the base plan"),
                        primary_gone: false,
                        hedge: None,
                    },
                );
            }
        }

        // The re-shard load monitor samples every dispatched batch
        // (sharing the batch with the re-estimator when both are
        // armed).
        let reestimate_every = self
            .engine
            .config
            .reestimate_every
            .filter(|_| self.engine.estimates());
        let mut batch = Some(batch);
        if let Some(rt) = &mut self.resharding {
            let sample = if reestimate_every.is_some() {
                batch.clone()
            } else {
                batch.take()
            };
            rt.window.push(sample.expect("the batch is still here"));
        }

        // Online re-placement: pool observations cluster-wide (shared)
        // or keep them replica-local (per-replica).
        if let (Some(every), Some(batch)) = (reestimate_every, batch) {
            let path_length = self.engine.config.path_length;
            match self.sharing {
                EstimatorSharing::Shared => {
                    self.shared_window.push(batch);
                    if self.total_batches.is_multiple_of(every) {
                        let estimator = self.shared_window.profile(path_length);
                        self.shared_scheduler =
                            Some(TwoPhaseScheduler::new(self.two_phase.clone(), estimator));
                        self.reestimations += 1;
                    }
                }
                EstimatorSharing::PerReplica => {
                    let rep = &mut self.replicas[i];
                    rep.window.push(batch);
                    if rep.batches.is_multiple_of(every) {
                        let estimator = rep.window.profile(path_length);
                        rep.scheduler =
                            Some(TwoPhaseScheduler::new(self.two_phase.clone(), estimator));
                        self.reestimations += 1;
                    }
                }
            }
        }
    }

    /// Expires every queued request whose deadline has passed; the
    /// loop fires this at the earliest deadline, so `TimedOut` records
    /// carry exactly their deadline as the end instant.
    fn expire(&mut self, now: SimTime) {
        let to = self
            .policy
            .request_timeout
            .expect("timeout event without a timeout policy");
        let mut expired: Vec<(Request, SimTime)> = Vec::new();
        for rep in &mut self.replicas {
            let mut k = rep.next;
            while k < rep.queue.len() {
                let deadline = rep.queue[k].arrival + to;
                if deadline <= now {
                    let req = rep.queue.remove(k);
                    rep.arrivals.remove(k);
                    rep.attempts.remove(k);
                    rep.queued_tokens -= req.tokens.len();
                    expired.push((req, deadline));
                } else {
                    k += 1;
                }
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

    /// Terminal-outcome bookkeeping: close the request's crash group
    /// when it was the last displaced member, and audit conservation.
    fn on_terminal(&mut self, id: usize, at: SimTime) {
        #[cfg(debug_assertions)]
        assert!(
            self.terminal_ids.insert(id),
            "request {id} reached two terminal outcomes"
        );
        if let Some(ci) = self.req_crash.remove(&id) {
            self.crashes[ci].1.remove(&id);
            if self.crashes[ci].1.is_empty() {
                self.recovery_times
                    .push(at.saturating_since(self.crashes[ci].0));
            }
        }
    }

    fn finish(mut self) -> ClusterOutcome {
        assert!(
            self.pending.is_empty(),
            "every committed batch must complete or abort"
        );
        if let Some(rt) = &self.hedging {
            assert!(
                rt.live.is_empty() && rt.timers.is_empty() && rt.by_hedge.is_empty(),
                "every hedge race must resolve by the end of the run"
            );
        }
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
        let (hedges_issued, hedges_won, hedge_wasted_frac) = match &self.hedging {
            Some(rt) => {
                let useful = rt.useful.as_secs_f64();
                let wasted = rt.wasted.as_secs_f64();
                let frac = if useful + wasted > 0.0 {
                    wasted / (useful + wasted)
                } else {
                    0.0
                };
                (rt.issued, rt.won, frac)
            }
            None => (0, 0, 0.0),
        };
        self.tracker
            .record_hedges(hedges_issued, hedges_won, hedge_wasted_frac);
        // Pool cost: every replica accrues from commission until it
        // retired (or the last event of the run for survivors).
        let end = self.now;
        let replica_seconds: f64 = self
            .replicas
            .iter()
            .map(|r| {
                r.retired_at
                    .unwrap_or(end)
                    .saturating_since(r.commissioned)
                    .as_secs_f64()
            })
            .sum();
        ClusterOutcome {
            tracker: self.tracker,
            batches: self.total_batches,
            reestimations: self.reestimations,
            requests_per_replica: self.requests_per_replica,
            tokens_per_replica: self.tokens_per_replica,
            batches_per_replica: self.replicas.iter().map(|r| r.batches).collect(),
            aborted_batches: self.aborted_batches,
            faults_injected: self.faults_injected,
            emergency_replacements: self.emergency_replacements,
            recovery_times: self.recovery_times,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            replications: self.resharding.as_ref().map_or(0, |rt| rt.replications),
            evictions: self.resharding.as_ref().map_or(0, |rt| rt.evictions),
            migrations: self.resharding.as_ref().map_or(0, |rt| rt.migrations),
            peak_replicas: self.peak_replicas,
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
}
