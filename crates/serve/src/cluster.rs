//! Serving: a cluster of replica servers behind a load balancer, with
//! deterministic fault injection. [`ClusterEngine`] is the only thing
//! that runs a serving simulation; a single server is the one-replica
//! case ([`ClusterConfig::single`]).
//!
//! A [`ClusterEngine`] streams the open-loop request trace its
//! [`ServeEngine`] generates (seeds, drift) and routes each arriving
//! request to one of `replicas` identical servers via a
//! [`BalancerKind`]. This module is the event loop: one K-server loop
//! over every event kind in global `(time, priority)` order, so the
//! run is deterministic down to the bit. A replica's own bookkeeping
//! (its admission queue and deadlines, dynamic [`Batcher`] timeline,
//! the [`ReplicaExecutor`] running its in-flight batches, its dispatch
//! slot, degradation and lifecycle) lives behind methods in
//! `replica.rs`, each rule written once there.
//!
//! The loop routes, calls the controllers and writes the outcome:
//! every [`ClusterOutcome`] counter and record is written where the
//! event it counts happens, and those writes are the loop's emit sites.
//! Each controller's runtime lives beside its config and the loop
//! calls it directly while armed: faults and crash accounting in
//! [`crate::faults`], the phi detector and hedged dispatch in
//! [`crate::health`], elastic autoscaling in [`crate::autoscale`], and
//! proactive re-sharding in [`crate::resharding`]. The loop also owns
//! the popularity estimators: a [`EstimatorSharing::Shared`] run holds
//! exactly one, fed by every replica; a
//! [`EstimatorSharing::PerReplica`] run holds one per replica, each
//! starting from the offline profile when its replica is commissioned.
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
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use lina_core::TwoPhaseScheduler;
use lina_model::{CostModel, LayeredPlacement};
use lina_netsim::Topology;
use lina_runner::inference::InferenceConfig;
use lina_runner::{plan_batch_layered, ReplicaExecutor};
use lina_simcore::{EventQueue, Rng, SimDuration, SimTime};
use lina_workload::WorkloadSpec;

use crate::autoscale::{AutoscaleConfig, AutoscaleRuntime, ScaleDecision};
use crate::balancer::{BalancerKind, ReplicaSnapshot};
use crate::batcher::{Batcher, Dispatch};
use crate::engine::{Estimate, ServeConfig, ServeEngine};
use crate::faults::{FaultEvent, FaultKind, FaultPlan, RecoveryClock};
use crate::health::{
    is_hedge, DetectorKind, HealthConfig, HealthMonitor, HedgeConfig, HedgeRuntime,
};
use crate::provisioning;
use crate::replica::{Flight, Replica};
use crate::request::{Request, RequestRecord};
use crate::resharding::{ReshardConfig, ReshardRuntime};
use crate::slo::{FailureRecord, RequestOutcome, SloTracker};

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
    /// The healthy single server: one replica, round-robin, a shared
    /// estimator, no faults, no controllers, no base placement,
    /// locality off, the oracle detector and no hedging. Configs that
    /// differ in a few fields spell only those and fill the rest with
    /// `..ClusterConfig::single(serve)`.
    pub fn single(serve: ServeConfig) -> ClusterConfig {
        ClusterConfig {
            serve,
            replicas: 1,
            balancer: BalancerKind::RoundRobin,
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

/// Everything a cluster run produced. The event loop builds this one
/// value in place: each counter is written where the event it counts
/// happens, and only `replica_seconds`, `hedge_wasted_frac` and
/// `last_event` are folded at the end of the run. It is the only home
/// of every counter here, the hedge totals included
/// ([`SloReport`](crate::SloReport) summarizes the tracker alone).
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
    /// Hedges that completed their batch: they beat a running primary
    /// (which was cancelled), or rescued it after the primary's replica
    /// crashed.
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

/// The serving simulator, from one replica up. Holds a [`ServeEngine`] for
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
        let offline = engine.offline_scheduler();
        let reload = provisioning::weight_reload(engine.cost, engine.topo, engine.spec.experts);
        // Only the capacity-aware consumers pay for the probe batch:
        // the least-expected-latency balancer and any armed autoscaler
        // (the predictive policy sizes the pool against it). The probe
        // plans with this run's offline profile instead of building its
        // own.
        let per_replica_capacity = if matches!(cluster.balancer, BalancerKind::LeastExpectedLatency)
            || cluster.autoscale.is_some()
        {
            engine.capacity_with(offline.as_ref())
        } else {
            0.0
        };
        // A shared run's one estimate starts from the offline profile;
        // per-replica estimates are made as replicas are commissioned.
        let (estimates, offline) = match cluster.sharing {
            EstimatorSharing::Shared => (vec![Estimate::new(offline, config)], None),
            EstimatorSharing::PerReplica => (Vec::new(), offline),
        };
        let batch_tokens = config.batcher.max_batch_requests * config.tokens_per_request;
        // One topology clone per run, shared by every executor.
        let topo = Arc::new(engine.topo.clone());
        let n = cluster.replicas;
        let mut sim = ClusterSim {
            engine,
            cluster,
            replicas: Vec::new(),
            monitor: HealthMonitor::for_cluster(cluster.health.clone(), 0, topo.clone()),
            topo,
            last_pick: None,
            batcher: Batcher::new(config.batcher.clone()),
            infer: InferenceConfig {
                scheme: config.scheme,
                top_k: config.top_k,
            },
            per_replica_capacity,
            batch_tokens,
            reload,
            estimates,
            offline,
            stream: stream.peekable(),
            admissions: EventQueue::new(),
            snapshot_scratch: Vec::new(),
            autoscale: cluster
                .autoscale
                .as_ref()
                .map(|cfg| AutoscaleRuntime::new(cfg, reload, batch_tokens, per_replica_capacity)),
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
            retry: config.seeds().retry,
            now: SimTime::ZERO,
            next_fault: 0,
            out: ClusterOutcome {
                tracker: SloTracker::new(config.slo),
                batches: 0,
                reestimations: 0,
                requests_per_replica: Vec::new(),
                tokens_per_replica: Vec::new(),
                batches_per_replica: Vec::new(),
                aborted_batches: 0,
                faults_injected: 0,
                emergency_replacements: 0,
                recovery_times: Vec::new(),
                scale_ups: 0,
                scale_downs: 0,
                replications: 0,
                evictions: 0,
                migrations: 0,
                peak_replicas: n,
                replica_seconds: 0.0,
                last_event: SimTime::ZERO,
                local_hops: 0,
                routed_hops: 0,
                plan_cache: PlanCacheStats::default(),
                hedges_issued: 0,
                hedges_won: 0,
                hedge_wasted_frac: 0.0,
            },
            records: Vec::new(),
            pending: BTreeMap::new(),
            arrived: 0,
            terminated: Vec::new(),
            recovery: RecoveryClock::default(),
        };
        for _ in 0..n {
            sim.commission(SimTime::ZERO, SimTime::ZERO);
        }
        sim.run()
    }
}

/// Whether a contended replica's solo-priced completion estimate has a
/// reader, so its executor must price each batch at submit: the
/// least-expected-latency balancer (through `busy_until`) or a pricing
/// detector (through the nominal price `Replica::submit` hands it).
/// Solo replicas always price: there the walk is the service time.
pub(crate) fn estimate_read(balancer: BalancerKind, health: &HealthConfig) -> bool {
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
    /// Tokens in one full batch.
    batch_tokens: usize,
    /// Modeled PCIe transfer to (re)load one device's expert shard,
    /// charged before the first dispatch after a recovery, a device
    /// loss, or an elastic scale-up.
    reload: SimDuration,
    /// The popularity estimators: exactly one under shared sharing,
    /// one per commissioned replica under per-replica sharing (see
    /// [`ClusterSim::estimate_of`]).
    estimates: Vec<Estimate>,
    /// The offline profile each per-replica estimate starts from;
    /// `None` under shared sharing, whose one estimate took it.
    offline: Option<TwoPhaseScheduler>,
    replicas: Vec<Replica>,
    /// First arrivals in `(arrival, id)` order: the lazily generated
    /// trace stream or a pre-generated trace. Memory stays bounded by
    /// the live backlog.
    stream: std::iter::Peekable<S>,
    /// Re-admissions only (first arrivals come from `stream`): each
    /// displaced request with its displacement count, at its retry
    /// instant. Orders by `(at, push order)`; the stream wins ties.
    admissions: EventQueue<(Request, u32)>,
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
    /// The outcome under construction: every counter is written here,
    /// as it happens, and `finish` only adds the end-of-run folds.
    out: ClusterOutcome,
    /// Per-request records materialize at the completion *event*,
    /// which under concurrent replicas need not follow dispatch order;
    /// they are sorted into dispatch order once the run drains.
    records: Vec<RequestRecord>,
    /// Every committed primary batch, by id, until it completes or
    /// aborts; each leaves exactly once. The one per-batch map: a
    /// flight carries its detector expectation and its hedge race.
    pending: BTreeMap<u64, Flight>,
    /// First arrivals pulled from the trace stream.
    arrived: usize,
    /// Exactly-once audit, indexed by request id (grown on demand):
    /// whether the request already reached a terminal outcome.
    terminated: Vec<bool>,
    recovery: RecoveryClock,
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
        // `consider` keeps the strict minimum of a total order, so one
        // pass over the replicas picks the same step in any order.
        for (i, rep) in self.replicas.iter_mut().enumerate() {
            if let Some(t) = rep.next_event() {
                consider(&mut best, t, Step::Executor(i, t));
            }
            if let Some(d) = rep.next_dispatch(&self.batcher) {
                consider(&mut best, d.at, Step::Dispatch(i, d));
            }
            if let Some(deadline) = rep.next_deadline() {
                consider(&mut best, deadline, Step::Timeout(deadline));
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

    /// Adds a replica commissioned at `at` whose first dispatch waits
    /// until `ready_at`, with its slot in every per-replica counter and
    /// in the detector; under per-replica sharing it gets its own
    /// estimate, starting from the offline profile.
    fn commission(&mut self, at: SimTime, ready_at: SimTime) {
        let config = &self.engine.config;
        if self.cluster.sharing == EstimatorSharing::PerReplica {
            let estimate = Estimate::new(self.offline.clone(), config);
            self.estimates.push(estimate);
        }
        let estimated = estimate_read(self.cluster.balancer, &self.cluster.health);
        let executor = ReplicaExecutor::new_shared(config.network, self.topo.clone(), estimated);
        let timeout = self.cluster.faults.policy.request_timeout;
        let replica = Replica::new(executor, config.max_inflight, timeout, at, ready_at);
        self.replicas.push(replica);
        let out = &mut self.out;
        for counts in [
            &mut out.requests_per_replica,
            &mut out.tokens_per_replica,
            &mut out.batches_per_replica,
        ] {
            counts.push(0);
        }
        self.monitor.ensure(self.replicas.len());
    }

    /// Index into `estimates` of the estimator replica `i` plans with
    /// and feeds: the one shared estimate, or its own.
    fn estimate_of(&self, i: usize) -> usize {
        match self.cluster.sharing {
            EstimatorSharing::Shared => 0,
            EstimatorSharing::PerReplica => i,
        }
    }

    fn apply_fault(&mut self, e: FaultEvent) {
        self.out.faults_injected += 1;
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
            kind => rep.degrade(kind),
        }
    }

    /// The whole replica, which is up, goes down: abort its in-flight
    /// batches, displace its queued requests, and hand everything
    /// displaced to the degradation policy.
    fn crash(&mut self, i: usize, at: SimTime) {
        let (aborted, queued) = self.replicas[i].crash(at);
        self.monitor.reset(i);
        self.out.aborted_batches += aborted.len();
        let mut displaced: Vec<(Request, u32)> = Vec::new();
        for id in aborted {
            let batch = self.batch_of(id);
            let flight = self
                .pending
                .get_mut(&batch)
                .expect("aborted batch was committed");
            // With a hedge racing it, a batch's members ride whichever
            // flight survives instead of being displaced.
            let carried = (self.hedging.as_mut().zip(flight.race.as_mut()))
                .is_some_and(|(rt, race)| rt.aborted(batch, id, race, flight.dispatched, at));
            if !carried {
                let flight = self.pending.remove(&batch).expect("looked up above");
                displaced.extend(flight.displace());
            }
        }
        displaced.extend(queued);
        // A request displaced again leaves its older recovery group
        // (in id order) before the crash opens the new one.
        let ids: BTreeSet<usize> = displaced.iter().map(|(r, _)| r.id).collect();
        for &id in &ids {
            self.leave_recovery(id, at);
        }
        self.recovery.crash(at, ids);

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

    /// The primary batch whose flight `id` finished: `id` itself, or
    /// the primary a hedge duplicated (the hedge leaves the hedge map).
    fn batch_of(&mut self, id: u64) -> u64 {
        match &mut self.hedging {
            Some(rt) if is_hedge(id) => rt.primary_of(id),
            _ => id,
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
        self.admissions.push(at, (req, attempts));
    }

    /// Fresh hardware comes back: clear all degradation state and gate
    /// the first dispatch behind the weight reload.
    fn recover(&mut self, i: usize, at: SimTime) {
        if !self.replicas[i].recover(at + self.reload) {
            return;
        }
        // The replica's own monitoring samples predate the crash:
        // flush them so a per-replica re-profile after recovery starts
        // from post-recovery observations only. The pooled shared
        // window survives untouched.
        if self.cluster.sharing == EstimatorSharing::PerReplica {
            let k = self.estimate_of(i);
            self.estimates[k].flush();
        }
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
        if !self.replicas[i].lose_device(self.engine.topo.devices(), at + self.reload) {
            self.crash(i, at);
            return;
        }
        self.out.emergency_replacements += 1;
        // Re-profile immediately from whatever the window holds — an
        // out-of-cycle rebuild (not counted as a periodic
        // re-estimation) — then flush the source window: its samples
        // were gathered under the pre-loss placement.
        let k = self.estimate_of(i);
        self.estimates[k].rebuild(self.engine);
        // A dynamic shard map does not survive the loss either: the
        // emergency re-replication restores the run's base layout, and
        // the proactive controller restarts from scratch.
        if let Some(rt) = &mut self.resharding {
            rt.reset();
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
        let (at, (req, attempts)) = if take_stream {
            let req = self.stream.next().expect("peeked above");
            self.arrived += 1;
            (req.arrival, (req, 0))
        } else {
            self.admissions.pop().expect("peeked above")
        };
        self.now = at;
        if let Some(rt) = &mut self.autoscale {
            if attempts == 0 {
                rt.arrival();
            }
        }
        self.admit(at, attempts, req);
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
                let granted = rt.grant_up(n, live);
                self.out.scale_ups += granted;
                self.out.peak_replicas = self.out.peak_replicas.max(live + granted);
                // A new replica stays invisible to the balancers until
                // its weight reload completes.
                for _ in 0..granted {
                    self.commission(at, at + self.reload);
                }
            }
            ScaleDecision::ScaleDown(n) => {
                let serving = self.replicas.iter().filter(|r| r.accepts_work()).count();
                let granted = rt.grant_down(n, serving);
                self.out.scale_downs += granted;
                for _ in 0..granted {
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
                    self.replicas[victim].drain(at);
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
        let (at, applied) = rt.tick();
        self.now = at;
        let Some(applied) = applied else { return };
        self.out.replications += applied.replications;
        self.out.evictions += applied.evictions;
        self.out.migrations += applied.migrations;
        // Each up replica stalls behind the transfer for the replicas
        // that moved (evictions are free), priced by the same
        // primitive recovery reloads use.
        let moved = applied.replications + applied.migrations;
        if moved > 0 {
            let charge = provisioning::reshard_transfer(
                self.engine.cost,
                self.engine.topo,
                moved,
                rt.config.transfer_cost,
            );
            for rep in self.replicas.iter_mut().filter(|r| r.is_up()) {
                rep.stall_until(at + charge);
            }
        }
        // No window sample gathered under the old map may survive it.
        for estimate in &mut self.estimates {
            estimate.flush();
        }
    }

    /// Routes one admission at `now` (first arrival or re-admission)
    /// through the balancer, which sees only routable replicas; applies
    /// the shedding admission controller to first arrivals.
    fn admit(&mut self, now: SimTime, attempts: u32, req: Request) {
        let policy = self.cluster.faults.policy;
        let n_alive = self.replicas.iter().filter(|r| r.is_up()).count();
        if n_alive == 0 {
            // Total outage. Retry policies park the admission until
            // the next scheduled recovery (the recovery fault fires
            // first at that instant, so a replica is up by then);
            // fail-fast, or a cluster that never recovers, drops.
            let recovery = self.cluster.faults.schedule.next_recovery_after(now);
            match recovery.filter(|_| policy.retries()) {
                Some(rec) => self.readmit(req, attempts, rec, now),
                None => self.fail(req, now, RequestOutcome::Dropped),
            }
            return;
        }

        // Admission control: shed a *new* request when the surviving
        // capacity already has more than the threshold outstanding.
        // Re-admissions are exempt — shedding protects admitted work.
        if attempts == 0 && policy.sheds() {
            let outstanding: usize = self
                .replicas
                .iter()
                .filter(|r| r.is_up())
                .map(Replica::outstanding_tokens)
                .sum();
            let cap = policy.shed_batches_per_replica * n_alive as f64 * self.batch_tokens as f64;
            if outstanding as f64 > cap {
                self.fail(req, now, RequestOutcome::Dropped);
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
        let ordinal = self.out.requests_per_replica[target];
        self.out.requests_per_replica[target] += 1;
        self.out.tokens_per_replica[target] += req.len();
        self.replicas[target].admit(ordinal, now, attempts, req);
    }

    /// Fires the replica's executor events at `t`; completions free
    /// dispatch slots, feed the health detector, resolve hedge races,
    /// and materialize their members' records.
    fn complete_on(&mut self, i: usize, t: SimTime) {
        for fb in self.replicas[i].advance_to(t) {
            let service = fb.report.total;
            let batch = self.batch_of(fb.id);
            let mut flight = self
                .pending
                .remove(&batch)
                .expect("finished batch was committed");
            // Every completion, a winning hedge's included, is a latency
            // observation against the flight's one expectation.
            if let Some(expected) = flight.expected {
                self.monitor.observe(i, expected, service, fb.completed);
            }
            let loser = match &mut self.hedging {
                Some(rt) if is_hedge(fb.id) => {
                    self.out.hedges_won += 1;
                    let race = flight.race.as_ref().expect("a hedge ran a race");
                    // The hedge beat a still-running primary: abort the
                    // original and free its dispatch slot now.
                    rt.hedge_won(race, flight.dispatched, service, t)
                        .then_some((batch, flight.replica))
                }
                // The primary beat its hedge: cancel the copy.
                Some(rt) => rt.primary_done(batch, flight.race.take(), service, t),
                None => None,
            };
            if let Some((id, r)) = loser {
                self.replicas[r].cancel(id, t);
            }
            // Materialize the members' records, on the timeline of
            // the flight that served them.
            for record in flight.records(batch, &fb) {
                self.on_terminal(record.id, fb.completed);
                self.records.push(record);
            }
        }
        // A drain victim decommissions at its last completion.
        self.replicas[i].retire_if_idle(t);
    }

    /// A hedge timer fired: the primary is still running past its
    /// deadline. Duplicate the batch onto the least-suspected routable
    /// alternate with spare executor capacity; first completion wins.
    fn fire_hedge(&mut self, t: SimTime, primary: u64) {
        let rt = self
            .hedging
            .as_mut()
            .expect("hedge timer without a runtime");
        let flight = self
            .pending
            .get_mut(&primary)
            .expect("hedge timer had a live flight");
        let race = flight.race.as_mut().expect("hedge timer had a race");
        let (replicas, monitor, host) = (&self.replicas, &self.monitor, flight.replica);
        let hedge = rt.fire(t, primary, race, || {
            // Candidates: any replica but the primary's host that can
            // start a hedge now. Least suspicion wins; ties break
            // toward the lighter in-flight load, then the lower index.
            // None (single live replica, or everyone saturated) leaves
            // the primary alone with the batch.
            let candidates = replicas.iter().enumerate().filter(|&(j, _)| j != host);
            candidates
                .filter_map(|(j, r)| Some((j, r.hedge_load(t)?)))
                .min_by(|&(a, la), &(b, lb)| {
                    let (sa, sb) = (monitor.suspicion(a, t), monitor.suspicion(b, t));
                    sa.total_cmp(&sb).then(la.cmp(&lb)).then(a.cmp(&b))
                })
                .map(|(j, _)| j)
        });
        let Some((id, target)) = hedge else {
            return;
        };
        self.out.hedges_issued += 1;
        // The duplicate re-runs the pristine plan at the target's true
        // speed; its completion is judged against the flight's
        // expectation, so it is not priced.
        self.replicas[target].submit(id, t, &flight.plan);
    }

    /// Commits the replica's next batch: assemble, plan, degrade,
    /// submit.
    fn dispatch(&mut self, i: usize, d: Dispatch) {
        let engine = self.engine;
        let shape = (engine.topo.devices(), engine.spec.experts);
        let (batch, members, backlog) = self.replicas[i].assemble(d, shape);
        // A diverged shard map overrides the configured base placement;
        // at the base, planning sees exactly the configured map (or the
        // canonical one when none was set), so an armed-but-inert
        // re-sharder stays bit-identical.
        let map = self
            .resharding
            .as_ref()
            .and_then(ReshardRuntime::plan_map)
            .or(self.cluster.placement.as_ref());
        let k = self.estimate_of(i);
        let plan = Arc::new(plan_batch_layered(
            engine.cost,
            engine.topo,
            &self.infer,
            self.estimates[k].scheduler(),
            &batch,
            map,
            self.cluster.locality,
        ));
        self.out.local_hops += plan.local_hops;
        self.out.routed_hops += plan.routed_hops;
        let batch_id = self.out.batches as u64;
        // The detector's expectation and a hedge's re-run both use the
        // pristine plan; the replica's own degradation stretches a copy.
        let nominal = self.replicas[i].submit(batch_id, d.at, &plan);
        let flight = Flight {
            replica: i,
            dispatched: d.at,
            expected: self.monitor.price(&plan, nominal),
            race: self.hedging.as_mut().and_then(|rt| rt.arm(batch_id, d.at)),
            plan,
            batch: Arc::clone(&batch),
            members,
        };
        assert!(
            self.pending.insert(batch_id, flight).is_none(),
            "batch {batch_id} committed twice"
        );
        self.out.tracker.record_depth(d.at, backlog);
        self.out.batches_per_replica[i] += 1;
        self.out.batches += 1;

        // The re-shard load monitor counts every dispatched batch's
        // selections; the re-estimator then keeps the batch itself,
        // pooled cluster-wide (shared) or replica-locally.
        if let Some(rt) = &mut self.resharding {
            rt.observe(&batch);
        }
        if self.estimates[k].observe(batch, engine) {
            self.out.reestimations += 1;
        }
    }

    /// Expires every queued request whose deadline has passed; the
    /// loop fires this at the earliest deadline, so `TimedOut` records
    /// carry exactly their deadline as the end instant.
    fn expire(&mut self, now: SimTime) {
        let mut expired: Vec<(Request, SimTime)> = Vec::new();
        for rep in &mut self.replicas {
            if rep.next_deadline().is_some_and(|d| d <= now) {
                rep.expire(now, &mut expired);
            }
        }
        for (req, deadline) in expired {
            self.fail(req, deadline, RequestOutcome::TimedOut);
        }
    }

    /// Records a terminal failure outcome.
    fn fail(&mut self, req: Request, ended: SimTime, outcome: RequestOutcome) {
        let id = req.id;
        self.out.tracker.record_failure(FailureRecord {
            id,
            arrival: req.arrival,
            ended,
            tokens: req.tokens.len(),
            outcome,
        });
        self.on_terminal(id, ended);
    }

    /// Terminal-outcome bookkeeping: the exactly-once audit and
    /// time-to-recover accounting.
    fn on_terminal(&mut self, id: usize, at: SimTime) {
        if id >= self.terminated.len() {
            self.terminated.resize(id + 1, false);
        }
        assert!(
            !std::mem::replace(&mut self.terminated[id], true),
            "request {id} reached two terminal outcomes"
        );
        self.leave_recovery(id, at);
    }

    /// Request `id` left its recovery group at `at` (it terminated or
    /// was displaced again); records the group's time to recover when
    /// it was the last member out.
    fn leave_recovery(&mut self, id: usize, at: SimTime) {
        if let Some(took) = self.recovery.leave(id, at) {
            self.out.recovery_times.push(took);
        }
    }

    fn finish(mut self) -> ClusterOutcome {
        assert!(
            self.pending.is_empty(),
            "every committed batch must complete or abort"
        );
        assert!(
            self.replicas.iter().all(Replica::is_drained),
            "queued requests or tokens left behind"
        );
        // Conservation: each first arrival pulled from the stream
        // reached a terminal outcome, and `on_terminal` already proved
        // that none reached two.
        let out = &mut self.out;
        assert_eq!(
            self.records.len() + out.tracker.failures().len(),
            self.arrived,
            "every admitted request must reach exactly one terminal outcome"
        );
        // Records enter the tracker in dispatch order (batch index,
        // then request id within the batch), exactly as the
        // pre-event-loop engine emitted them. Each must be causal: a
        // request is dispatched no earlier than it arrived, and
        // completes no earlier than it was dispatched.
        self.records.sort_by_key(|r| (r.batch, r.id));
        for r in std::mem::take(&mut self.records) {
            assert!(
                r.arrival <= r.dispatched && r.dispatched <= r.completed,
                "request {} out of order: arrived {}, dispatched {}, completed {}",
                r.id,
                r.arrival,
                r.dispatched,
                r.completed
            );
            out.tracker.record(r);
        }
        if let Some(rt) = &self.hedging {
            out.hedge_wasted_frac = rt.wasted_frac();
        }
        // Pool cost: every replica accrues from commission until it
        // retired (or the last event of the run for survivors).
        let end = self.now;
        out.replica_seconds = self.replicas.iter().map(|r| r.replica_seconds(end)).sum();
        out.last_event = end;
        self.out
    }
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
        let serve = ServeConfig {
            batcher: BatcherConfig {
                max_batch_requests: 4,
                max_wait: SimDuration::from_millis(2),
            },
            slo: SimDuration::from_millis(50),
            tokens_per_request: 64,
            drift_period: Some(24),
            reestimate_every: Some(4),
            ..ServeConfig::new(scheme, ArrivalProcess::Poisson { rate }, 96, 0xC1A5)
        };
        ClusterConfig {
            replicas,
            balancer: BalancerKind::JoinShortestQueue,
            ..ClusterConfig::single(serve)
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
        let out =
            ClusterEngine::new(&cost, &topo, &spec, config(InferScheme::Lina, 800.0, 3)).run();
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
        let out = ClusterEngine::new(
            &cost,
            &topo,
            &spec,
            config(InferScheme::Baseline, 1500.0, 2),
        )
        .run();
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
                let a = ClusterEngine::new(&cost, &topo, &spec, c.clone()).run();
                let b = ClusterEngine::new(&cost, &topo, &spec, c).run();
                assert_eq!(a.tracker.records(), b.tracker.records());
                assert_eq!(a.requests_per_replica, b.requests_per_replica);
                assert_eq!(a.reestimations, b.reestimations);
            }
        }
    }

    #[test]
    fn round_robin_splits_requests_evenly() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 500.0, 3);
        c.balancer = BalancerKind::RoundRobin;
        let out = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let swamped =
            ClusterEngine::new(&cost, &topo, &spec, config(InferScheme::Baseline, rate, 1)).run();
        let cruising =
            ClusterEngine::new(&cost, &topo, &spec, config(InferScheme::Baseline, rate, 3)).run();
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
        let out = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let healthy =
            ClusterEngine::new(&cost, &topo, &spec, config(InferScheme::Lina, 700.0, 3)).run();
        // A live retry policy over an empty schedule must be inert:
        // nothing ever displaces, and without a timeout no new event
        // kind fires.
        let mut c = config(InferScheme::Lina, 700.0, 3);
        c.faults = FaultPlan {
            schedule: FaultSchedule::none(),
            policy: DegradationPolicy::retry_failover(None),
        };
        let armed = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let out = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let out = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let out = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let out = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
            let out = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let a = ClusterEngine::new(&cost, &topo, &spec, c.clone()).run();
        let b = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let healthy = ClusterEngine::new(
            &cost,
            &topo,
            &spec,
            config(InferScheme::Baseline, 2000.0, 1),
        )
        .run();
        let mut c = config(InferScheme::Baseline, 2000.0, 1);
        c.faults = FaultPlan {
            schedule: FaultSchedule::from_script(vec![FaultEvent {
                at: SimTime::from_millis(5),
                replica: 0,
                kind: FaultKind::DeviceLoss,
            }]),
            policy: DegradationPolicy::retry_failover(None),
        };
        let degraded = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let healthy = ClusterEngine::new(
            &cost,
            &topo,
            &spec,
            config(InferScheme::Baseline, 2000.0, 1),
        )
        .run();
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
            let slow = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
            ClusterEngine::new(&cost, &topo, &spec, c).run()
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
        let fixed =
            ClusterEngine::new(&cost, &topo, &spec, config(InferScheme::Lina, 800.0, 3)).run();
        let mut c = config(InferScheme::Lina, 800.0, 3);
        c.autoscale = Some(AutoscaleConfig::inert(3, SimDuration::from_millis(1)));
        let armed = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let out = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let out = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let out = ClusterEngine::new(&cost, &topo, &spec, c).run();
        assert!(out.scale_ups > 0, "a swamped pool must grow");
        assert!(out.peak_replicas > 1);
        assert_eq!(out.report().requests, 96);
        let fixed = ClusterEngine::new(
            &cost,
            &topo,
            &spec,
            config(InferScheme::Baseline, 4000.0, 1),
        )
        .run();
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
            let a = ClusterEngine::new(&cost, &topo, &spec, c.clone()).run();
            let b = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let out = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let fault_free = ClusterEngine::new(&cost, &topo, &spec, c.clone()).run();
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
        let out = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let fixed =
            ClusterEngine::new(&cost, &topo, &spec, config(InferScheme::Lina, 800.0, 3)).run();
        let mut c = config(InferScheme::Lina, 800.0, 3);
        c.resharding = Some(ReshardConfig::inert(SimDuration::from_millis(1)));
        let armed = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let out = ClusterEngine::new(&cost, &topo, &spec, c.clone()).run();
        assert_eq!(out.replications, 1, "the scripted replication lands");
        assert_eq!(out.report().requests, 96, "re-sharding loses nothing");
        assert!(out.tracker.failures().is_empty());
        // Bit-identical replay: actuation is deterministic.
        let again = ClusterEngine::new(&cost, &topo, &spec, c).run();
        assert_eq!(out.tracker.records(), again.tracker.records());
        assert_eq!(out.replications, again.replications);
        // The replicated map diverges from the unsharded timeline: the
        // transfer charge and the split expert must show somewhere.
        let fixed = ClusterEngine::new(
            &cost,
            &topo,
            &spec,
            config(InferScheme::Baseline, 2000.0, 1),
        )
        .run();
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
        let out = ClusterEngine::new(&cost, &topo, &spec, c).run();
        assert_eq!(out.replications, 1);
        assert_eq!(out.evictions, 1, "the replicated expert can shed its copy");
        assert_eq!(out.report().requests, 96);
        assert!(out.tracker.failures().is_empty());
    }

    #[test]
    fn eviction_never_strands_a_single_homed_expert() {
        let (cost, topo, spec) = world();
        let fixed = ClusterEngine::new(
            &cost,
            &topo,
            &spec,
            config(InferScheme::Baseline, 2000.0, 1),
        )
        .run();
        let mut c = config(InferScheme::Baseline, 2000.0, 1);
        // Every expert starts single-homed: the eviction must refuse
        // (planning panics on a hostless expert) and the refused no-op
        // must leave the run bit-identical to the fixed cluster.
        c.resharding = Some(scripted_reshard(vec![vec![ReshardAction::Evict(3)]], 1));
        let out = ClusterEngine::new(&cost, &topo, &spec, c).run();
        assert_eq!(out.evictions, 0, "the last replica is never evicted");
        assert_eq!(fixed.tracker.records(), out.tracker.records());
        assert_eq!(fixed.report(), out.report());
    }

    #[test]
    fn gray_degrade_stretches_service_without_tripping_the_health_bit() {
        let (cost, topo, spec) = world();
        let healthy = ClusterEngine::new(
            &cost,
            &topo,
            &spec,
            config(InferScheme::Baseline, 2000.0, 1),
        )
        .run();
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
        let gray = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let slow = ClusterEngine::new(&cost, &topo, &spec, forever).run();
        let recovered = ClusterEngine::new(&cost, &topo, &spec, cleared).run();
        assert_eq!(recovered.report().requests, 96);
        assert!(
            recovered.report().makespan < slow.report().makespan,
            "clearing the gray fault must speed the tail back up"
        );
    }

    #[test]
    fn armed_phi_detector_is_bit_identical_on_the_healthy_path() {
        let (cost, topo, spec) = world();
        let oracle =
            ClusterEngine::new(&cost, &topo, &spec, config(InferScheme::Lina, 800.0, 3)).run();
        let mut c = config(InferScheme::Lina, 800.0, 3);
        c.balancer = BalancerKind::LeastExpectedLatency;
        c.health = HealthConfig::phi_accrual();
        let mut o = config(InferScheme::Lina, 800.0, 3);
        o.balancer = BalancerKind::LeastExpectedLatency;
        let detector = ClusterEngine::new(&cost, &topo, &spec, c).run();
        let oracle_lel = ClusterEngine::new(&cost, &topo, &spec, o).run();
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
        let blind = ClusterEngine::new(&cost, &topo, &spec, blind).run();
        let seeing = ClusterEngine::new(&cost, &topo, &spec, seeing).run();
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
        let plain =
            ClusterEngine::new(&cost, &topo, &spec, config(InferScheme::Lina, 800.0, 3)).run();
        let mut c = config(InferScheme::Lina, 800.0, 3);
        // min_samples beyond the run's batch count: armed but inert.
        c.hedging = Some(HedgeConfig {
            quantile: 0.95,
            multiplier: 2.0,
            min_samples: 1_000_000,
        });
        let armed = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
        let out = ClusterEngine::new(&cost, &topo, &spec, c).run();
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
    }

    /// Three replicas with hedging armed after two samples, replica 0 a
    /// 16x gray straggler from the start (so its primaries outlive the
    /// hedge delay), and replica `crashed` crashing at `at_ms` and
    /// recovering at 40 ms. Asserts that every request reached exactly
    /// one terminal outcome: the ids of the records and failures are
    /// each request once.
    fn crash_under_hedge(crashed: usize, at_ms: u64) -> ClusterOutcome {
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
                crash_at(at_ms, crashed),
                recover_at(40, crashed),
            ]),
            policy: DegradationPolicy::retry_failover(None),
        };
        let out = ClusterEngine::new(&cost, &topo, &spec, c).run();
        let mut terminal: Vec<usize> = out.tracker.records().iter().map(|r| r.id).collect();
        terminal.extend(out.tracker.failures().iter().map(|f| f.id));
        terminal.sort_unstable();
        assert_eq!(
            terminal,
            (0..96).collect::<Vec<_>>(),
            "every request reaches exactly one terminal outcome"
        );
        assert!(out.tracker.failures().is_empty(), "retries lose nothing");
        out
    }

    /// At 18 ms the straggler crashes under a primary whose hedge is
    /// running elsewhere: the hedge carries the batch alone and wins
    /// without cancelling the dead primary. (`Replica::cancel` asserts
    /// its flight is still in flight, so a completion that cancelled a
    /// crashed flight would panic.)
    #[test]
    fn hedging_survives_a_crash_of_the_primary_replica() {
        let out = crash_under_hedge(0, 18);
        assert_eq!(out.aborted_batches, 1, "the crash took the hedged primary");
        assert!(out.hedges_won > 0);
    }

    /// At 18 ms replica 2 crashes under a hedge whose primary still
    /// runs on the straggler: the primary carries the batch alone and
    /// its completion cancels nothing.
    #[test]
    fn hedging_survives_a_crash_of_the_hedge_replica() {
        let out = crash_under_hedge(2, 18);
        assert!(out.aborted_batches > 0);
        assert!(out.hedges_won <= out.hedges_issued);
    }
}
