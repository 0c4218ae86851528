//! Per-layer cost, measured from outside the library.
//!
//! A traced iteration re-runs each layer's public function on exactly
//! the traffic the simulation saw. For serving, every dispatched batch
//! is rebuilt from the run's `RequestRecord`s (batch index → request
//! ids → tokens of the pre-generated trace) and planned, priced solo or
//! submitted to a contended executor, while the estimator is
//! re-profiled at the loop's cadence. For training, the step's graph is
//! built and executed, and its collectives are replayed on a fresh
//! network at their executed launch instants.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use lina_baselines::InferScheme;
use lina_core::{PopularityEstimator, TwoPhaseConfig, TwoPhaseScheduler};
use lina_model::{balanced_routing, build_train_step, OpKind};
use lina_netsim::{CollectiveEngine, Network, SoloTimer};
use lina_runner::inference::InferenceConfig;
use lina_runner::{execute, execute_plan_solo, plan_batch, NetworkMode, ReplicaExecutor};
use lina_serve::{ClusterConfig, ClusterOutcome, Request, ServeConfig};
use lina_simcore::{Rng, SimDuration, SimTime};
use lina_workload::{Mode, TokenBatch, TokenSource};

use crate::workloads::{ServeWorld, TrainWorld};

/// Wall time of each call into one layer, in seconds.
#[derive(Default)]
pub struct Timings(Vec<f64>);

impl Timings {
    /// Runs `f` and records its wall time.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.0.push(t0.elapsed().as_secs_f64());
        out
    }

    /// Calls recorded.
    pub fn calls(&self) -> usize {
        self.0.len()
    }

    /// Total busy time in seconds.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The recorded call times.
    pub fn samples(&self) -> &[f64] {
        &self.0
    }
}

/// What a serving replay measured.
#[derive(Default)]
pub struct ServeReplay {
    /// Estimator profiles plus scheduler rebuilds (`core`).
    pub profile: Timings,
    /// Token × layer rows the profiles consumed.
    pub profile_token_layers: u64,
    /// `plan_batch` calls (`plan`).
    pub plan: Timings,
    /// Bytes of every planned all-to-all.
    pub a2a_bytes: f64,
    /// Planned all-to-all collectives.
    pub collectives: u64,
    /// `execute_plan_solo` calls (`solo`).
    pub solo: Timings,
    /// Contended executor `submit` and `next_event` calls (`net`).
    pub net: Timings,
    /// Contended executor `advance_to` calls (`net`).
    pub net_advance: Timings,
    /// Batches submitted to the contended executor.
    pub net_submits: u64,
    /// Most batches in flight on the contended executor at once.
    pub net_peak_inflight: usize,
    /// Batches replayed.
    pub batches: usize,
    /// Replayed batches whose priced service equals the record's.
    pub matched: usize,
}

impl ServeReplay {
    /// Busy time of every replayed layer, in seconds.
    pub fn busy(&self) -> f64 {
        self.profile.total()
            + self.plan.total()
            + self.solo.total()
            + self.net.total()
            + self.net_advance.total()
    }
}

/// The serving engine's scheduler configuration: the paper's
/// scheduling overheads scaled from 16384 tokens per device down to a
/// full batch of this config.
fn two_phase_config(world: &ServeWorld, serve: &ServeConfig) -> TwoPhaseConfig {
    let devices = world.topo.devices();
    let full_tokens_per_device = (serve.batcher.max_batch_requests * serve.tokens_per_request)
        .div_ceil(devices)
        .max(1);
    let factor = (full_tokens_per_device as f64 / 16_384.0).clamp(1.0 / 512.0, 1.0);
    let mut cfg = TwoPhaseConfig::paper_defaults(devices);
    cfg.top_k = serve.top_k;
    cfg.max_experts_per_device = serve.max_experts_per_device;
    cfg.schedule_time = cfg.schedule_time.mul_f64(factor);
    cfg.resume_time = cfg.resume_time.mul_f64(factor);
    cfg
}

/// The offline profiling batches: training-distribution tokens drawn
/// from the config's profile seed (the second draw of its root seed).
fn offline_batches(world: &ServeWorld, serve: &ServeConfig) -> Vec<TokenBatch> {
    let mut root = Rng::new(serve.seed);
    let _token_seed = root.next_u64();
    let profile_seed = root.next_u64();
    let mut src = TokenSource::new(&world.spec, serve.top_k, profile_seed);
    (0..8)
        .map(|_| src.sample_batch(world.topo.devices(), 1024, Mode::Train))
        .collect()
}

fn token_layers(batches: &[TokenBatch], layers: usize) -> u64 {
    batches
        .iter()
        .map(|b| (b.tokens.len() * layers) as u64)
        .sum()
}

/// Re-profiles the estimator from `batches` and rebuilds the scheduler.
fn reprofile(
    r: &mut ServeReplay,
    batches: &[TokenBatch],
    layers: usize,
    two_phase: &TwoPhaseConfig,
    path_length: usize,
) -> TwoPhaseScheduler {
    r.profile_token_layers += token_layers(batches, layers);
    r.profile.time(|| {
        TwoPhaseScheduler::new(
            two_phase.clone(),
            PopularityEstimator::profile(batches, path_length),
        )
    })
}

/// Advances the contended executor through every event up to `until`
/// (all of them when `None`), collecting each finished batch's service.
fn drain(
    ex: &mut ReplicaExecutor,
    until: Option<SimTime>,
    r: &mut ServeReplay,
    finished: &mut BTreeMap<u64, SimDuration>,
) {
    while let Some(t) = r.net.time(|| ex.next_event()) {
        if until.is_some_and(|u| t > u) {
            break;
        }
        for fb in r.net_advance.time(|| ex.advance_to(t)) {
            finished.insert(fb.id, fb.report.total);
        }
    }
}

/// Replays a serving run's batches through the planner, the solo
/// pricer or the contended executor, and the estimator.
///
/// The contended replay runs every batch on one executor, so it is
/// exact only for single-replica configs. Re-estimation follows the
/// shared-estimator cadence; batches displaced by faults, degraded
/// replicas, and re-sharded placements are replayed as if healthy, so
/// they show up as mismatches.
pub fn replay_serving(
    world: &ServeWorld,
    config: &ClusterConfig,
    trace: &[Request],
    out: &ClusterOutcome,
) -> ServeReplay {
    let serve = &config.serve;
    let layers = world.cost.model.layers;
    let infer = InferenceConfig {
        scheme: serve.scheme,
        top_k: serve.top_k,
    };
    let needs_scheduler = matches!(
        serve.scheme,
        InferScheme::Lina | InferScheme::LinaNoEstimation | InferScheme::LinaNoFinetune
    );
    let reestimate_every = serve.reestimate_every.filter(|_| {
        matches!(
            serve.scheme,
            InferScheme::Lina | InferScheme::LinaNoFinetune
        )
    });
    let two_phase = two_phase_config(world, serve);
    let mut r = ServeReplay::default();
    let mut scheduler = needs_scheduler.then(|| {
        let batches = offline_batches(world, serve);
        reprofile(&mut r, &batches, layers, &two_phase, serve.path_length)
    });

    // Batch index → (dispatch instant, recorded service, member ids).
    // Records arrive sorted by (batch, id), which is queue order for
    // requests that were never re-admitted.
    let mut batches: BTreeMap<usize, (SimTime, SimDuration, Vec<usize>)> = BTreeMap::new();
    for rec in out.tracker.records() {
        batches
            .entry(rec.batch)
            .or_insert_with(|| (rec.dispatched, rec.service, Vec::new()))
            .2
            .push(rec.id);
    }

    let mut timer = SoloTimer::new(&world.topo);
    let mut executor = (serve.network == NetworkMode::Contended)
        .then(|| ReplicaExecutor::new(NetworkMode::Contended, &world.topo));
    let mut finished: BTreeMap<u64, SimDuration> = BTreeMap::new();
    let mut window: VecDeque<TokenBatch> = VecDeque::new();
    for (&b, (dispatched, service, ids)) in &batches {
        let batch = TokenBatch {
            tokens: ids
                .iter()
                .flat_map(|&id| trace[id].tokens.iter().cloned())
                .collect(),
            devices: world.topo.devices(),
            experts: world.spec.experts,
        };
        let plan = r
            .plan
            .time(|| plan_batch(&world.cost, &world.topo, &infer, scheduler.as_ref(), &batch));
        for spec in plan
            .layers
            .iter()
            .flat_map(|lp| lp.dispatch.iter().chain(lp.combine_a2a.iter()))
        {
            r.a2a_bytes += spec.total_bytes();
            r.collectives += 1;
        }
        match executor.as_mut() {
            None => {
                let report = r.solo.time(|| execute_plan_solo(&plan, &mut timer));
                r.matched += usize::from(report.total == *service);
            }
            Some(ex) => {
                drain(ex, Some(*dispatched), &mut r, &mut finished);
                let plan = Arc::new(plan);
                r.net.time(|| ex.submit(b as u64, *dispatched, plan));
                r.net_submits += 1;
                r.net_peak_inflight = r.net_peak_inflight.max(ex.in_flight());
            }
        }
        r.batches += 1;
        if let Some(every) = reestimate_every {
            window.push_back(batch);
            if window.len() > serve.reestimate_window {
                window.pop_front();
            }
            if (b + 1) % every == 0 {
                let recent = window.make_contiguous();
                scheduler = Some(reprofile(
                    &mut r,
                    recent,
                    layers,
                    &two_phase,
                    serve.path_length,
                ));
            }
        }
    }
    if let Some(ex) = executor.as_mut() {
        drain(ex, None, &mut r, &mut finished);
        r.matched = batches
            .iter()
            .filter(|&(&b, (_, service, _))| finished.get(&(b as u64)) == Some(service))
            .count();
    }
    r
}

/// What a training replay measured.
#[derive(Default)]
pub struct TrainReplay {
    /// Balanced-routing generation (`workload`).
    pub routing: Timings,
    /// `build_train_step` calls (`graph`).
    pub build: Timings,
    /// Ops across every built graph.
    pub ops: usize,
    /// `execute` calls (`exec`).
    pub exec: Timings,
    /// Collective launches replayed (`net`).
    pub net: Timings,
    /// Network advances to the next launch instant (`net`).
    pub net_advance: Timings,
    /// Collectives replayed.
    pub net_submits: u64,
    /// Most collectives in flight at once.
    pub net_peak_inflight: usize,
    /// Replayed collectives whose duration equals the executed window.
    pub matched: usize,
    /// Tokens stepped across every scheme.
    pub tokens: usize,
}

/// Builds and executes one step per scheme, then replays each step's
/// collectives; returns each step's simulated makespan.
pub fn replay_train(world: &TrainWorld, seed: u64, r: &mut TrainReplay) -> Vec<SimDuration> {
    let model = &world.cost.model;
    let devices = world.topo.devices();
    let mut makespans = Vec::new();
    for scheme in world.schemes {
        let routing = r
            .routing
            .time(|| balanced_routing(model, devices, world.batch));
        let mut opts = scheme.step_options(model.experts, &world.topo);
        opts.seed = seed;
        let graph = r
            .build
            .time(|| build_train_step(&world.cost, &world.topo, world.batch, &routing, &opts));
        r.ops += graph.len();
        r.tokens += world.batch.tokens_per_device() * devices;
        let mut policy = scheme.policy();
        let exec = r
            .exec
            .time(|| execute(&graph, &world.topo, policy.as_mut()));
        makespans.push(exec.makespan);

        // Every collective, launched on an idle network at its executed
        // instant (ties in op order).
        let mut comms: Vec<(SimTime, SimTime, usize)> = graph
            .ops()
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op.kind, OpKind::Comm { .. }))
            .filter_map(|(i, _)| exec.op_windows[i].map(|(s, e)| (s, e, i)))
            .collect();
        comms.sort_unstable();
        let mut engine = CollectiveEngine::new(Network::new(world.topo.clone()));
        let mut done: BTreeMap<u64, SimDuration> = BTreeMap::new();
        for &(start, _, i) in &comms {
            for d in r.net_advance.time(|| engine.advance_to(start)) {
                done.insert(d.tag, d.at - d.started);
            }
            let OpKind::Comm { spec, .. } = &graph.ops()[i].kind else {
                unreachable!("filtered to comm ops");
            };
            r.net.time(|| engine.start(spec, i as u64));
            r.net_submits += 1;
            r.net_peak_inflight = r.net_peak_inflight.max(engine.active());
        }
        for d in r.net_advance.time(|| engine.run_to_idle()) {
            done.insert(d.tag, d.at - d.started);
        }
        r.matched += comms
            .iter()
            .filter(|&&(s, e, i)| done.get(&(i as u64)) == Some(&(e - s)))
            .count();
    }
    makespans
}
