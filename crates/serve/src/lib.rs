//! # lina-serve
//!
//! Open-loop request serving on top of the inference driver: the
//! paper's §7.3 evaluates Lina on fixed pre-formed batches, and this
//! crate closes the gap to a deployment by modelling the *request
//! path* in continuous simulated time:
//!
//! * [`ArrivalProcess`] — deterministic-seeded Poisson, bursty
//!   two-state MMPP, and diurnal arrivals with a flash-crowd overlay;
//! * [`Batcher`] — an admission queue plus dynamic batcher
//!   (max-batch-size and max-wait knobs) that forms
//!   [`TokenBatch`](lina_workload::TokenBatch)es from queued requests;
//! * [`ServeEngine`] — the per-replica context: it generates the
//!   request trace, builds the offline-profiled scheduler, and probes
//!   a replica's capacity;
//! * [`ClusterEngine`] — the one serving loop: N replica servers
//!   behind a [`BalancerKind`] (round-robin, join-shortest-queue,
//!   least-expected-latency), each with its own admission queue and
//!   batcher timeline, planning each formed batch with
//!   [`plan_batch_layered`](lina_runner::plan_batch_layered), pricing
//!   it on a [`ReplicaExecutor`](lina_runner::ReplicaExecutor), and
//!   charging every request its queueing delay plus service time;
//!   replicas share one popularity estimator or keep per-replica ones
//!   ([`EstimatorSharing`]), and [`ClusterConfig::single`] is the
//!   healthy single server;
//! * [`SloTracker`] — per-request latency percentiles, throughput,
//!   goodput, SLO attainment, availability, explicit terminal outcomes
//!   ([`RequestOutcome`]), and a queue-depth timeline;
//! * popularity drift and online re-placement — the workload's class
//!   ranking rotates every `drift_period` requests, and the Lina
//!   schemes periodically re-profile the popularity estimator from
//!   recently served batches, re-running placement against the drifted
//!   distribution;
//! * deterministic fault injection and graceful degradation — a seeded
//!   [`FaultSchedule`] injects replica crashes/recoveries, device
//!   losses, and gray episodes into the cluster event loop, and a [`DegradationPolicy`] (fail-fast, retry + failover,
//!   or retry + failover + load shedding) decides what happens to the
//!   displaced work;
//! * gray-failure detection and hedged dispatch — *gray* faults
//!   ([`FaultKind::GrayDegrade`]: a slow GPU, a degraded link, or
//!   both) slow a replica without tripping its health bit; a phi-accrual-style detector ([`health`]) turns
//!   observed batch latencies into a continuous suspicion score the
//!   balancers route on ([`HealthConfig`]), and an optional [`HedgeConfig`]
//!   re-dispatches a quantile-late batch to the least-suspected
//!   alternate, first completion winning; the default
//!   [`DetectorKind::Oracle`] reproduces the historical boolean health
//!   bit bit-for-bit;
//! * elastic autoscaling — an [`AutoscalePolicyKind`] (reactive
//!   queue-depth thresholds with hysteresis, or a predictive forecast
//!   over an observation window) evaluated at a fixed control interval
//!   resizes the replica pool: scale-up pays the shared provisioning
//!   weight-reload cost ([`provisioning`]), scale-down drains in-flight
//!   work before decommissioning, and the run reports its integrated
//!   pool cost in replica-seconds — the cost axis of the cost-vs-SLO
//!   frontier ([`ClusterOutcome::replica_seconds`]);
//! * proactive expert re-sharding — a [`ReshardPolicyKind`] fed by an
//!   online per-expert load monitor replicates hot experts and evicts
//!   cold replicas mid-serving ([`resharding`]); actuation pays the modeled PCIe transfer
//!   ([`provisioning::reshard_transfer`]), and every later batch is
//!   planned against the new shard map;
//! * diurnal traffic — [`ArrivalProcess::Diurnal`] composes a
//!   sinusoidal base rate with seeded flash-crowd overlays, and every
//!   arrival process streams lazily
//!   ([`ArrivalProcess::stream`]), so million-request traces run in
//!   constant memory.
//!
//! Everything is seeded: the same [`ServeConfig`] produces a
//! bit-identical request trace, dispatch schedule, and summary.

#![warn(missing_docs)]

pub mod arrival;
pub mod autoscale;
pub mod balancer;
pub mod batcher;
pub mod cluster;
pub mod engine;
pub mod faults;
pub mod health;
pub mod provisioning;
mod replica;
pub mod request;
pub mod resharding;
pub mod slo;

pub use arrival::{ArrivalProcess, ArrivalStream};
pub use autoscale::{AutoscaleConfig, AutoscalePolicyKind, ScaleDecision};
pub use balancer::BalancerKind;
pub use batcher::{Batcher, BatcherConfig};
pub use cluster::{ClusterConfig, ClusterEngine, ClusterOutcome, EstimatorSharing, PlanCacheStats};
pub use engine::{ServeConfig, ServeEngine};
pub use faults::{
    DegradationPolicy, FaultEvent, FaultKind, FaultPlan, FaultRateConfig, FaultSchedule, PolicyKind,
};
pub use health::{DetectorKind, HealthConfig, HedgeConfig};
pub use lina_runner::NetworkMode;
pub use provisioning::{provision_time, reshard_transfer, weight_reload};
pub use request::{Request, RequestRecord};
pub use resharding::{ReshardAction, ReshardConfig, ReshardPolicyKind};
pub use slo::{FailureRecord, RequestOutcome, SloReport, SloTracker};
