//! Randomized property tests of the serving subsystem, swept over
//! deterministically seeded configurations: determinism, conservation
//! through the batcher, latency accounting, and stability below
//! saturation.

use lina_baselines::InferScheme;
use lina_model::{CostModel, DeviceSpec, ExpertPlacement, LayeredPlacement, MoeModelConfig};
use lina_netsim::{ClusterSpec, DeviceId, Topology};
use lina_serve::{
    ArrivalProcess, AutoscaleConfig, AutoscalePolicyKind, BalancerKind, Batcher, BatcherConfig,
    ClusterConfig, ClusterEngine, ClusterOutcome, DegradationPolicy, EstimatorSharing, FaultPlan,
    FaultRateConfig, FaultSchedule, HealthConfig, HedgeConfig, NetworkMode, Request, ReshardAction,
    ReshardConfig, ReshardPolicyKind, ScaleDecision, ServeConfig,
};
use lina_simcore::{Rng, SimDuration, SimTime};
use lina_workload::WorkloadSpec;

/// How many randomized rounds a sweep runs. The nightly soak job
/// raises this through `LINA_PROP_ROUNDS`; the default keeps the
/// ordinary test tier fast.
fn rounds(default: usize) -> usize {
    std::env::var("LINA_PROP_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn world() -> (CostModel, Topology, WorkloadSpec) {
    let model = MoeModelConfig::transformer_xl(6, 8).for_inference();
    let topo = Topology::new(ClusterSpec::with_total_gpus(8));
    let cost = CostModel::new(DeviceSpec::a100_inference(), model);
    let spec = WorkloadSpec::enwik8(8, 6);
    (cost, topo, spec)
}

/// Identities between a run's outcome counters that hold for every
/// configuration of a `replicas`-replica cluster: per-replica batches
/// sum to the total, every per-replica vector has one slot per
/// commissioned replica, the peak pool lies between the initial pool
/// and every replica ever commissioned, and no more hedges won than
/// were issued.
fn assert_outcome_consistent(out: &ClusterOutcome, replicas: usize, round: usize) {
    assert_eq!(
        out.batches_per_replica.iter().sum::<usize>(),
        out.batches,
        "round {round}: per-replica batches sum to the total"
    );
    let commissioned = replicas + out.scale_ups;
    for (name, v) in [
        ("requests", &out.requests_per_replica),
        ("tokens", &out.tokens_per_replica),
        ("batches", &out.batches_per_replica),
    ] {
        assert_eq!(
            v.len(),
            commissioned,
            "round {round}: one {name} slot per commissioned replica"
        );
    }
    assert!(
        replicas <= out.peak_replicas && out.peak_replicas <= commissioned,
        "round {round}: peak {} outside [{replicas}, {commissioned}]",
        out.peak_replicas
    );
    assert!(
        out.hedges_won <= out.hedges_issued,
        "round {round}: {} hedges won of {} issued",
        out.hedges_won,
        out.hedges_issued
    );
}

/// Every terminal outcome carries exactly its trace request's token
/// count: a request displaced from an aborted flight gets back its own
/// tokens, not a neighbour's share of the batch.
fn assert_tokens_per_request(out: &ClusterOutcome, trace: &[Request], round: usize) {
    for r in out.tracker.records() {
        assert_eq!(
            r.tokens,
            trace[r.id].len(),
            "round {round}: request {} served with the wrong token count",
            r.id
        );
    }
    for f in out.tracker.failures() {
        assert_eq!(
            f.tokens,
            trace[f.id].len(),
            "round {round}: request {} failed with the wrong token count",
            f.id
        );
    }
}

/// A randomized but valid config drawn from a meta-rng.
fn arb_config(meta: &mut Rng, scheme: InferScheme) -> ServeConfig {
    // Drawn in field order: the base's seed is evaluated last.
    let path_length = 1 + meta.index(3);
    let max_experts_per_device = 1 + meta.index(4);
    let arrival = if meta.bernoulli(0.5) {
        ArrivalProcess::Poisson {
            rate: meta.uniform(50.0, 2000.0),
        }
    } else {
        let rate = meta.uniform(50.0, 2000.0);
        ArrivalProcess::Mmpp {
            calm_rate: rate * 0.5,
            burst_rate: rate * 2.0,
            mean_calm: meta.uniform(0.05, 0.5),
            mean_burst: meta.uniform(0.02, 0.2),
        }
    };
    let batcher = BatcherConfig {
        max_batch_requests: 1 + meta.index(8),
        max_wait: SimDuration::from_micros(meta.below(5_000) + 100),
    };
    let n_requests = 24 + meta.index(40);
    ServeConfig {
        path_length,
        max_experts_per_device,
        batcher,
        slo: SimDuration::from_millis(50),
        tokens_per_request: 16 + meta.index(100),
        token_spread: if meta.bernoulli(0.5) {
            meta.uniform(0.0, 0.9)
        } else {
            0.0
        },
        drift_period: meta.bernoulli(0.5).then(|| 8 + meta.index(24)),
        reestimate_every: meta.bernoulli(0.5).then(|| 2 + meta.index(6)),
        reestimate_window: 4 + meta.index(8),
        ..ServeConfig::new(scheme, arrival, n_requests, meta.next_u64())
    }
}

/// Same seed, same config: bit-identical request trace, per-request
/// records, and summary.
#[test]
fn same_seed_is_bit_identical() {
    let (cost, topo, spec) = world();
    let mut meta = Rng::new(0x5E1D);
    for scheme in [InferScheme::Baseline, InferScheme::Lina] {
        for _ in 0..3 {
            let config = ClusterConfig::single(arb_config(&mut meta, scheme));
            let engine_a = ClusterEngine::new(&cost, &topo, &spec, config.clone());
            let engine_b = ClusterEngine::new(&cost, &topo, &spec, config);
            let req_a = engine_a.engine().generate_requests();
            let req_b = engine_b.engine().generate_requests();
            assert_eq!(req_a.len(), req_b.len());
            for (a, b) in req_a.iter().zip(&req_b) {
                assert_eq!(a.arrival, b.arrival);
                assert_eq!(a.tokens, b.tokens);
            }
            let out_a = engine_a.run();
            let out_b = engine_b.run();
            assert_eq!(out_a.tracker.records(), out_b.tracker.records());
            assert_eq!(out_a.batches, out_b.batches);
            assert_eq!(out_a.reestimations, out_b.reestimations);
            assert_eq!(out_a.report(), out_b.report());
        }
    }
}

/// The batcher conserves requests and tokens: every request is served
/// exactly once, total served tokens equal total offered tokens, and
/// no batch exceeds the size cap.
#[test]
fn batcher_conserves_requests_and_tokens() {
    let (cost, topo, spec) = world();
    let mut meta = Rng::new(0xC0);
    for _ in 0..6 {
        let config = arb_config(&mut meta, InferScheme::Baseline);
        let cap = config.batcher.max_batch_requests;
        let n = config.n_requests;
        let offered: usize =
            ClusterEngine::new(&cost, &topo, &spec, ClusterConfig::single(config.clone()))
                .engine()
                .generate_requests()
                .iter()
                .map(|r| r.tokens.len())
                .sum();
        let out = ClusterEngine::new(&cost, &topo, &spec, ClusterConfig::single(config)).run();
        let records = out.tracker.records();
        let mut ids: Vec<usize> = records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..n).collect::<Vec<_>>(),
            "each request served exactly once"
        );
        let total_tokens: usize = records.iter().map(|r| r.tokens).sum();
        assert_eq!(total_tokens, offered, "token conservation");
        let mut batch_sizes = vec![0usize; out.batches];
        for r in records {
            batch_sizes[r.batch] += 1;
        }
        for (b, &size) in batch_sizes.iter().enumerate() {
            assert!(
                size >= 1 && size <= cap,
                "batch {b} took {size} requests (cap {cap})"
            );
        }
    }
}

/// Latency accounting: every request's latency is at least its own
/// service time, dispatch never precedes arrival, and batches execute
/// one at a time.
#[test]
fn latency_dominates_service_time() {
    let (cost, topo, spec) = world();
    let mut meta = Rng::new(0x1A7);
    for scheme in [InferScheme::Baseline, InferScheme::Lina] {
        let config = arb_config(&mut meta, scheme);
        let out = ClusterEngine::new(&cost, &topo, &spec, ClusterConfig::single(config)).run();
        for r in out.tracker.records() {
            assert!(r.dispatched >= r.arrival);
            assert_eq!(r.completed, r.dispatched + r.service);
            assert!(
                r.latency() >= r.service,
                "request {} latency < service",
                r.id
            );
            assert_eq!(r.latency(), r.queue_delay() + r.service);
        }
        let mut spans: Vec<_> = out
            .tracker
            .records()
            .iter()
            .map(|r| (r.dispatched, r.completed))
            .collect();
        spans.sort();
        spans.dedup();
        for w in spans.windows(2) {
            assert!(w[1].0 >= w[0].1, "batches overlap on the single server");
        }
    }
}

/// The cluster conserves requests and tokens across replicas for every
/// balancer and estimator-sharing mode, and stays bit-deterministic.
#[test]
fn cluster_conserves_and_is_deterministic_across_policies() {
    let (cost, topo, spec) = world();
    let mut meta = Rng::new(0xC1);
    for balancer in [
        BalancerKind::RoundRobin,
        BalancerKind::JoinShortestQueue,
        BalancerKind::LeastExpectedLatency,
    ] {
        for sharing in [EstimatorSharing::Shared, EstimatorSharing::PerReplica] {
            let serve = arb_config(&mut meta, InferScheme::Lina);
            let config = ClusterConfig {
                replicas: 2 + meta.index(3),
                balancer,
                sharing,
                ..ClusterConfig::single(serve)
            };
            let n = config.serve.n_requests;
            let offered: usize = ClusterEngine::new(&cost, &topo, &spec, config.clone())
                .engine()
                .generate_requests()
                .iter()
                .map(|r| r.tokens.len())
                .sum();
            let out = ClusterEngine::new(&cost, &topo, &spec, config.clone()).run();
            let mut ids: Vec<usize> = out.tracker.records().iter().map(|r| r.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..n).collect::<Vec<_>>(), "{balancer:?}/{sharing:?}");
            let total_tokens: usize = out.tracker.records().iter().map(|r| r.tokens).sum();
            assert_eq!(total_tokens, offered);
            assert_eq!(out.requests_per_replica.iter().sum::<usize>(), n);
            let again = ClusterEngine::new(&cost, &topo, &spec, config).run();
            assert_eq!(out.tracker.records(), again.tracker.records());
        }
    }
}

/// An adversarial sorted arrival trace: alternating bursts (many
/// requests at the exact same instant), exact ties with the batching
/// deadline, long idle gaps, and jittery trickles.
fn adversarial_arrivals(meta: &mut Rng, n: usize, max_wait: SimDuration) -> Vec<SimTime> {
    let mut arrivals = Vec::with_capacity(n);
    let mut t = SimTime::ZERO;
    while arrivals.len() < n {
        match meta.index(4) {
            // Burst: a pile of identical timestamps.
            0 => {
                let k = 1 + meta.index(10);
                for _ in 0..k {
                    arrivals.push(t);
                }
            }
            // Tie with the deadline of the oldest queued request.
            1 => {
                t += max_wait;
                arrivals.push(t);
            }
            // Long gap: far past any pending deadline.
            2 => {
                t += SimDuration::from_millis(meta.below(50) + 20);
                arrivals.push(t);
            }
            // Trickle: sub-timeout jitter.
            _ => {
                t += SimDuration::from_micros(meta.below(900) + 1);
                arrivals.push(t);
            }
        }
    }
    arrivals.truncate(n);
    arrivals
}

/// `Batcher::next_dispatch` invariants over adversarial traces — the
/// contract the cluster event loop leans on for every replica's queue:
/// every request dispatched exactly once as a FIFO prefix, batches
/// never exceed the cap, a dispatch never precedes its oldest member's
/// arrival or a dispatch slot freeing up, and every member has arrived
/// by the dispatch instant.
#[test]
fn batcher_dispatch_invariants_under_adversarial_traces() {
    let mut meta = Rng::new(0xBA7C4);
    for round in 0..rounds(40) {
        let cap = 1 + meta.index(8);
        let max_wait = SimDuration::from_micros(meta.below(4_000) + 50);
        let batcher = Batcher::new(BatcherConfig {
            max_batch_requests: cap,
            max_wait,
        });
        let n = 20 + meta.index(120);
        let arrivals = adversarial_arrivals(&mut meta, n, max_wait);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "trace sorted");

        // Walk the dispatch loop with a busy server: each batch holds
        // the server for a pseudo-random service time, sometimes long
        // enough that several deadlines expire while it runs.
        let mut server_free = SimTime::ZERO;
        let mut next = 0usize;
        let mut dispatches = Vec::new();
        while let Some(d) = batcher.next_dispatch(arrivals[next..].iter().copied(), server_free) {
            assert!(d.count >= 1, "round {round}: empty batch");
            assert!(
                d.count <= cap,
                "round {round}: batch of {} exceeds cap {cap}",
                d.count
            );
            assert!(
                d.at >= arrivals[next].max(server_free),
                "round {round}: dispatch at {} before max(arrival {}, server_free {})",
                d.at,
                arrivals[next],
                server_free
            );
            // Every member (FIFO prefix) has arrived by the dispatch.
            assert!(
                arrivals[next + d.count - 1] <= d.at,
                "round {round}: member arrives after dispatch"
            );
            // A partial batch means nothing else was available: the
            // next undispatched request arrives strictly after `at`.
            if d.count < cap {
                if let Some(&later) = arrivals.get(next + d.count) {
                    assert!(
                        later > d.at,
                        "round {round}: partial batch left an arrived request queued"
                    );
                }
            }
            dispatches.push((next, d));
            next += d.count;
            server_free = d.at + SimDuration::from_micros(meta.below(3_000) + 10);
        }
        // Exactly once, in FIFO prefix order, covering the trace.
        assert_eq!(next, n, "round {round}: {next} of {n} requests dispatched");
        let mut expected_start = 0usize;
        let mut prev_at = SimTime::ZERO;
        for &(start, d) in &dispatches {
            assert_eq!(start, expected_start, "round {round}: non-FIFO batch");
            expected_start += d.count;
            assert!(
                d.at >= prev_at,
                "round {round}: dispatch instants must be nondecreasing"
            );
            prev_at = d.at;
        }
    }
}

/// Below saturation the queue drains: arrivals at a small fraction of
/// capacity keep queueing delay near the batching timeout, and backlog
/// stays bounded; well past saturation the delay blows up.
#[test]
fn queue_drains_below_capacity_and_grows_past_it() {
    let (cost, topo, spec) = world();
    let base = ServeConfig {
        batcher: BatcherConfig {
            max_batch_requests: 4,
            max_wait: SimDuration::from_millis(1),
        },
        slo: SimDuration::from_millis(50),
        tokens_per_request: 64,
        ..ServeConfig::new(
            InferScheme::Baseline,
            ArrivalProcess::Poisson { rate: 1.0 },
            96,
            0xD12A1,
        )
    };
    let capacity =
        ClusterEngine::new(&cost, &topo, &spec, ClusterConfig::single(base.clone())).capacity();
    let run_at = |frac: f64| {
        let mut config = base.clone();
        config.arrival = ArrivalProcess::Poisson {
            rate: frac * capacity,
        };
        ClusterEngine::new(&cost, &topo, &spec, ClusterConfig::single(config))
            .run()
            .report()
    };
    let calm = run_at(0.25);
    let swamped = run_at(4.0);
    // Underloaded: delays sit near the batching timeout, not the
    // queue; backlog is a handful of requests at worst.
    assert!(
        calm.mean_queue_delay <= base.batcher.max_wait * 4,
        "underloaded queue delay {} should be near the {} timeout",
        calm.mean_queue_delay,
        base.batcher.max_wait
    );
    assert!(calm.max_queue_depth <= 3 * base.batcher.max_batch_requests);
    // Overloaded: the open loop keeps arriving, so delay and backlog
    // grow far beyond the underloaded run.
    assert!(swamped.mean_queue_delay > calm.mean_queue_delay * 10);
    assert!(swamped.max_queue_depth > calm.max_queue_depth);
    assert!(
        swamped.p99 > calm.p99 * 2,
        "overload p99 {} vs calm {}",
        swamped.p99,
        calm.p99
    );
    assert!(swamped.attainment <= calm.attainment);
}

/// A randomized degradation policy (always a retry family so faults
/// exercise the re-admission machinery).
fn arb_policy(meta: &mut Rng) -> DegradationPolicy {
    let timeout = meta
        .bernoulli(0.5)
        .then(|| SimDuration::from_millis(meta.below(80) + 20));
    let mut policy = if meta.bernoulli(0.5) {
        DegradationPolicy::retry_failover(timeout)
    } else {
        DegradationPolicy::retry_failover_shed(timeout)
    };
    policy.retry_budget = meta.index(5) as u32;
    policy
}

/// Under arbitrary generated fault schedules and every degradation
/// policy, every admitted request reaches exactly one terminal outcome
/// (completed, dropped, or timed out), tokens are conserved across
/// outcomes, and the whole run is bit-deterministic.
#[test]
fn faults_conserve_every_request_and_stay_deterministic() {
    let (cost, topo, spec) = world();
    let mut meta = Rng::new(0xFA1175);
    for round in 0..rounds(6) {
        let serve_config = arb_config(&mut meta, InferScheme::Lina);
        let replicas = 2 + meta.index(3);
        let rates = FaultRateConfig {
            crash_rate: meta.uniform(5.0, 40.0),
            mean_recovery: SimDuration::from_millis(meta.below(40) + 5),
            device_loss_rate: meta.uniform(0.0, 5.0),
            degrade_rate: meta.uniform(0.0, 5.0),
            degrade_scale: meta.uniform(0.2, 1.0),
            mean_degrade: SimDuration::from_millis(meta.below(30) + 5),
            straggler_rate: meta.uniform(0.0, 5.0),
            straggler_factor: meta.uniform(1.0, 4.0),
            mean_straggle: SimDuration::from_millis(meta.below(30) + 5),
            gray_rate: 0.0,
            gray_compute: 1.0,
            gray_nic: 1.0,
            mean_gray: SimDuration::from_millis(10),
            flap_rate: 0.0,
            flap_nic: 1.0,
            mean_flap: SimDuration::from_millis(2),
        };
        let schedule = FaultSchedule::generate(
            &rates,
            replicas,
            SimDuration::from_secs_f64(2.0),
            meta.next_u64(),
        );
        let policy = if meta.bernoulli(0.25) {
            DegradationPolicy::fail_fast()
        } else {
            arb_policy(&mut meta)
        };
        let config = ClusterConfig {
            replicas,
            balancer: BalancerKind::JoinShortestQueue,
            faults: FaultPlan { schedule, policy },
            ..ClusterConfig::single(serve_config)
        };
        let n = config.serve.n_requests;
        let trace = ClusterEngine::new(&cost, &topo, &spec, config.clone())
            .engine()
            .generate_requests();
        let offered_tokens: usize = trace.iter().map(Request::len).sum();
        let out = ClusterEngine::new(&cost, &topo, &spec, config.clone()).run();
        assert_tokens_per_request(&out, &trace, round);
        assert_outcome_consistent(&out, replicas, round);

        // Exactly one terminal outcome per request.
        let mut ids: Vec<usize> = out
            .tracker
            .records()
            .iter()
            .map(|r| r.id)
            .chain(out.tracker.failures().iter().map(|f| f.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..n).collect::<Vec<_>>(),
            "round {round}: every request exactly one terminal outcome"
        );
        // Token conservation across outcomes.
        let terminal_tokens: usize = out
            .tracker
            .records()
            .iter()
            .map(|r| r.tokens)
            .chain(out.tracker.failures().iter().map(|f| f.tokens))
            .sum();
        assert_eq!(terminal_tokens, offered_tokens, "round {round}: tokens");
        // Outcome counts add up in the report.
        let report = out.report();
        assert_eq!(report.offered, n);
        assert_eq!(report.requests + report.dropped + report.timed_out, n);
        assert!(report.availability.is_finite() && report.goodput.is_finite());

        // Bit-determinism under the same fault plan.
        let again = ClusterEngine::new(&cost, &topo, &spec, config).run();
        assert_eq!(out.tracker.records(), again.tracker.records());
        assert_eq!(out.tracker.failures(), again.tracker.failures());
        assert_eq!(out.recovery_times, again.recovery_times);
        assert_eq!(report, again.report(), "round {round}: determinism");
    }
}

/// Degeneracy: an *armed* retry policy over an *empty* schedule is
/// inert — the healthy-path timeline, records, depth samples, and
/// report reproduce [`FaultPlan::none`] bit for bit at zero tolerance.
#[test]
fn empty_fault_schedule_is_bit_identical_to_healthy_path() {
    let (cost, topo, spec) = world();
    let mut meta = Rng::new(0xDE6E);
    for sharing in [EstimatorSharing::Shared, EstimatorSharing::PerReplica] {
        let serve = arb_config(&mut meta, InferScheme::Lina);
        let config = ClusterConfig {
            replicas: 2 + meta.index(3),
            balancer: BalancerKind::JoinShortestQueue,
            sharing,
            ..ClusterConfig::single(serve)
        };
        let healthy = ClusterEngine::new(&cost, &topo, &spec, config.clone()).run();
        let mut armed = config.clone();
        armed.faults = FaultPlan {
            schedule: FaultSchedule::none(),
            // No timeout: with nothing to displace or expire, the
            // retry machinery must never perturb the event order.
            policy: DegradationPolicy::retry_failover(None),
        };
        let with_policy = ClusterEngine::new(&cost, &topo, &spec, armed).run();
        assert_eq!(healthy.tracker.records(), with_policy.tracker.records());
        assert_eq!(
            healthy.tracker.depth_timeline(),
            with_policy.tracker.depth_timeline()
        );
        assert!(with_policy.tracker.failures().is_empty());
        assert_eq!(healthy.report(), with_policy.report());
        assert_eq!(
            healthy.requests_per_replica,
            with_policy.requests_per_replica
        );
        assert_eq!(healthy.batches, with_policy.batches);
        assert_eq!(healthy.reestimations, with_policy.reestimations);
    }
}

/// Conservation and bit-determinism survive *arbitrary* autoscale
/// decision sequences: a scripted policy replays meta-rng-generated
/// scale-ups and scale-downs at a random control cadence, and every
/// request still reaches exactly one terminal outcome with all tokens
/// accounted for, twice identically.
#[test]
fn arbitrary_autoscale_decisions_conserve_and_stay_deterministic() {
    let (cost, topo, spec) = world();
    let mut meta = Rng::new(0xE1A5);
    for round in 0..rounds(6) {
        let serve_config = arb_config(&mut meta, InferScheme::Lina);
        let replicas = 1 + meta.index(3);
        let max_replicas = replicas + 1 + meta.index(4);
        let script: Vec<ScaleDecision> = (0..12 + meta.index(20))
            .map(|_| match meta.index(4) {
                0 => ScaleDecision::Hold,
                1 => ScaleDecision::ScaleUp(1 + meta.index(2)),
                2 => ScaleDecision::ScaleDown(1 + meta.index(2)),
                _ => ScaleDecision::ScaleUp(1),
            })
            .collect();
        let config = ClusterConfig {
            replicas,
            balancer: match meta.index(3) {
                0 => BalancerKind::RoundRobin,
                1 => BalancerKind::JoinShortestQueue,
                _ => BalancerKind::LeastExpectedLatency,
            },
            autoscale: Some(AutoscaleConfig {
                policy: AutoscalePolicyKind::Scripted { script },
                interval: SimDuration::from_micros(meta.below(3_000) + 200),
                cooldown: SimDuration::ZERO,
                min_replicas: 1,
                max_replicas,
            }),
            ..ClusterConfig::single(serve_config)
        };
        let n = config.serve.n_requests;
        let trace = ClusterEngine::new(&cost, &topo, &spec, config.clone())
            .engine()
            .generate_requests();
        let offered_tokens: usize = trace.iter().map(Request::len).sum();
        let out = ClusterEngine::new(&cost, &topo, &spec, config.clone()).run();
        assert_tokens_per_request(&out, &trace, round);

        let mut ids: Vec<usize> = out
            .tracker
            .records()
            .iter()
            .map(|r| r.id)
            .chain(out.tracker.failures().iter().map(|f| f.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..n).collect::<Vec<_>>(),
            "round {round}: every request exactly one terminal outcome under elasticity"
        );
        let terminal_tokens: usize = out
            .tracker
            .records()
            .iter()
            .map(|r| r.tokens)
            .chain(out.tracker.failures().iter().map(|f| f.tokens))
            .sum();
        assert_eq!(terminal_tokens, offered_tokens, "round {round}: tokens");
        assert!(
            out.peak_replicas <= max_replicas,
            "round {round}: the actuator never exceeds max_replicas"
        );
        assert!(out.replica_seconds > 0.0);
        assert_eq!(
            out.requests_per_replica.len(),
            replicas + out.scale_ups,
            "round {round}: one routing slot per commissioned replica"
        );
        assert_outcome_consistent(&out, replicas, round);

        let again = ClusterEngine::new(&cost, &topo, &spec, config).run();
        assert_eq!(out.tracker.records(), again.tracker.records());
        assert_eq!(out.tracker.failures(), again.tracker.failures());
        assert_eq!(out.scale_ups, again.scale_ups);
        assert_eq!(out.scale_downs, again.scale_downs);
        assert_eq!(out.replica_seconds, again.replica_seconds);
        assert_eq!(out.report(), again.report(), "round {round}: determinism");
    }
}

/// Degeneracy: an *armed* autoscaler whose policy can never trigger
/// (infinite up-threshold, negative down-threshold) reproduces the
/// fixed-replica engine bit for bit — control ticks observe but must
/// not perturb the event order, the records, or the pool.
#[test]
fn inert_autoscaler_is_bit_identical_to_fixed_cluster() {
    let (cost, topo, spec) = world();
    let mut meta = Rng::new(0x1E27);
    for _ in 0..4 {
        let replicas = 1 + meta.index(4);
        let config = ClusterConfig {
            replicas,
            balancer: BalancerKind::JoinShortestQueue,
            ..ClusterConfig::single(arb_config(&mut meta, InferScheme::Lina))
        };
        let fixed = ClusterEngine::new(&cost, &topo, &spec, config.clone()).run();
        let mut armed = config.clone();
        armed.autoscale = Some(AutoscaleConfig::inert(
            replicas,
            SimDuration::from_micros(meta.below(2_000) + 100),
        ));
        let elastic = ClusterEngine::new(&cost, &topo, &spec, armed).run();
        assert_eq!(fixed.tracker.records(), elastic.tracker.records());
        assert_eq!(
            fixed.tracker.depth_timeline(),
            elastic.tracker.depth_timeline()
        );
        assert_eq!(fixed.report(), elastic.report());
        assert_eq!(fixed.requests_per_replica, elastic.requests_per_replica);
        assert_eq!(fixed.batches, elastic.batches);
        assert_eq!(fixed.reestimations, elastic.reestimations);
        assert_eq!(elastic.scale_ups, 0);
        assert_eq!(elastic.scale_downs, 0);
        assert_eq!(elastic.peak_replicas, replicas);
        assert_eq!(fixed.replica_seconds, elastic.replica_seconds);
    }
}

/// Conservation and bit-determinism survive *arbitrary* re-shard
/// schedules: a scripted policy replays meta-rng-generated
/// replications, evictions, and migrations at a random control cadence
/// under every balancer, and every request still reaches exactly one
/// terminal outcome with all tokens accounted for, twice identically.
#[test]
fn arbitrary_reshard_schedules_conserve_and_stay_deterministic() {
    let (cost, topo, spec) = world();
    let mut meta = Rng::new(0x2E5A);
    for (round, balancer) in [
        BalancerKind::RoundRobin,
        BalancerKind::JoinShortestQueue,
        BalancerKind::LeastExpectedLatency,
    ]
    .into_iter()
    .cycle()
    .take(6)
    .enumerate()
    {
        let scheme = if meta.bernoulli(0.5) {
            InferScheme::Lina
        } else {
            InferScheme::Baseline
        };
        let experts = spec.experts;
        let script: Vec<Vec<ReshardAction>> = (0..8 + meta.index(16))
            .map(|_| {
                (0..meta.index(3))
                    .map(|_| match meta.index(3) {
                        0 => ReshardAction::Replicate(meta.index(experts)),
                        1 => ReshardAction::Evict(meta.index(experts)),
                        _ => ReshardAction::Migrate(meta.index(experts)),
                    })
                    .collect()
            })
            .collect();
        let serve = arb_config(&mut meta, scheme);
        let replicas = 1 + meta.index(3);
        let config = ClusterConfig {
            replicas,
            balancer,
            resharding: Some(ReshardConfig {
                policy: ReshardPolicyKind::Scripted { script },
                interval: SimDuration::from_micros(meta.below(3_000) + 200),
                window: 4 + meta.index(8),
                transfer_cost: meta.uniform(0.0, 2.0),
            }),
            ..ClusterConfig::single(serve)
        };
        let n = config.serve.n_requests;
        let trace = ClusterEngine::new(&cost, &topo, &spec, config.clone())
            .engine()
            .generate_requests();
        let offered_tokens: usize = trace.iter().map(Request::len).sum();
        let out = ClusterEngine::new(&cost, &topo, &spec, config.clone()).run();
        assert_tokens_per_request(&out, &trace, round);

        let mut ids: Vec<usize> = out
            .tracker
            .records()
            .iter()
            .map(|r| r.id)
            .chain(out.tracker.failures().iter().map(|f| f.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..n).collect::<Vec<_>>(),
            "round {round}: every request exactly one terminal outcome under re-sharding"
        );
        let terminal_tokens: usize = out
            .tracker
            .records()
            .iter()
            .map(|r| r.tokens)
            .chain(out.tracker.failures().iter().map(|f| f.tokens))
            .sum();
        assert_eq!(terminal_tokens, offered_tokens, "round {round}: tokens");
        assert_outcome_consistent(&out, replicas, round);

        let again = ClusterEngine::new(&cost, &topo, &spec, config).run();
        assert_eq!(out.tracker.records(), again.tracker.records());
        assert_eq!(out.tracker.failures(), again.tracker.failures());
        assert_eq!(out.replications, again.replications);
        assert_eq!(out.evictions, again.evictions);
        assert_eq!(out.migrations, again.migrations);
        assert_eq!(out.report(), again.report(), "round {round}: determinism");
    }
}

/// Degeneracy: an *armed* re-sharder running the inert policy observes
/// at every tick but can never mutate the shard map — it must
/// reproduce the fixed cluster bit for bit, mirroring the autoscale
/// and fault degeneracy suites.
#[test]
fn inert_resharder_is_bit_identical_to_fixed_cluster() {
    let (cost, topo, spec) = world();
    let mut meta = Rng::new(0x12E5);
    for _ in 0..4 {
        let serve = arb_config(&mut meta, InferScheme::Lina);
        let config = ClusterConfig {
            replicas: 1 + meta.index(4),
            balancer: BalancerKind::JoinShortestQueue,
            ..ClusterConfig::single(serve)
        };
        let fixed = ClusterEngine::new(&cost, &topo, &spec, config.clone()).run();
        let mut armed = config.clone();
        armed.resharding = Some(ReshardConfig::inert(SimDuration::from_micros(
            meta.below(2_000) + 100,
        )));
        let dynamic = ClusterEngine::new(&cost, &topo, &spec, armed).run();
        assert_eq!(fixed.tracker.records(), dynamic.tracker.records());
        assert_eq!(
            fixed.tracker.depth_timeline(),
            dynamic.tracker.depth_timeline()
        );
        assert_eq!(fixed.report(), dynamic.report());
        assert_eq!(fixed.requests_per_replica, dynamic.requests_per_replica);
        assert_eq!(fixed.batches, dynamic.batches);
        assert_eq!(fixed.reestimations, dynamic.reestimations);
        assert_eq!(dynamic.replications, 0);
        assert_eq!(dynamic.evictions, 0);
        assert_eq!(dynamic.migrations, 0);
        assert_eq!(fixed.replica_seconds, dynamic.replica_seconds);
    }
}

/// Arming an explicit base placement that *is* the canonical layout
/// (uniform one-expert-per-device across every layer, locality off)
/// must be invisible: per-request records, depth timeline, report,
/// replica accounting, and pool cost all reproduce the plain run bit
/// for bit, and no locality hops are counted. This pins the serving
/// side of the layered-placement contract — the armed code path plans
/// every batch against the explicit base, yet nothing observable may
/// move.
#[test]
fn uniform_layered_base_is_bit_identical_to_plain() {
    let (cost, topo, spec) = world();
    let canonical = LayeredPlacement::uniform(
        ExpertPlacement::one_per_device(spec.experts, topo.devices()),
        cost.model.layers,
    );
    let mut meta = Rng::new(0xA11F);
    for scheme in [InferScheme::Baseline, InferScheme::Lina, InferScheme::Ideal] {
        for resharding in [
            None,
            Some(ReshardConfig {
                policy: ReshardPolicyKind::Threshold {
                    hot: 1.8,
                    cold: 0.2,
                    hysteresis: 2,
                    transfer_budget: 2,
                },
                interval: SimDuration::from_micros(800),
                window: 6,
                transfer_cost: 0.5,
            }),
        ] {
            let serve = arb_config(&mut meta, scheme);
            let plain = ClusterConfig {
                replicas: 2 + meta.index(2),
                resharding: resharding.clone(),
                ..ClusterConfig::single(serve)
            };
            let mut armed = plain.clone();
            armed.placement = Some(canonical.clone());
            let base = ClusterEngine::new(&cost, &topo, &spec, plain).run();
            let out = ClusterEngine::new(&cost, &topo, &spec, armed).run();
            let tag = format!("{scheme:?} resharding={}", resharding.is_some());
            assert_eq!(
                base.tracker.records(),
                out.tracker.records(),
                "{tag}: records diverged under a canonical armed base"
            );
            assert_eq!(
                base.tracker.depth_timeline(),
                out.tracker.depth_timeline(),
                "{tag}: depth timeline diverged"
            );
            assert_eq!(base.report(), out.report(), "{tag}: report diverged");
            assert_eq!(base.requests_per_replica, out.requests_per_replica);
            assert_eq!(base.tokens_per_replica, out.tokens_per_replica);
            assert_eq!(base.batches_per_replica, out.batches_per_replica);
            assert_eq!(base.replica_seconds, out.replica_seconds);
            assert_eq!(base.replications, out.replications);
            assert_eq!(
                (base.local_hops, base.routed_hops),
                (0, 0),
                "{tag}: plain run must not count locality hops"
            );
            assert_eq!(
                (out.local_hops, out.routed_hops),
                (0, 0),
                "{tag}: locality off must not count hops even when armed"
            );
        }
    }
}

/// Under generated gray/flap fault schedules — optionally mixed with
/// crashes — every combination of balancer, detector, and hedging
/// still conserves requests and tokens, reports consistent hedge
/// counters, and stays bit-deterministic.
#[test]
fn gray_faults_with_hedging_conserve_and_stay_deterministic() {
    let (cost, topo, spec) = world();
    let mut meta = Rng::new(0x62A9F);
    for round in 0..rounds(6) {
        let serve_config = arb_config(&mut meta, InferScheme::Lina);
        let replicas = 2 + meta.index(3);
        let mut rates = FaultRateConfig::gray(
            meta.uniform(2.0, 12.0),
            meta.uniform(2.0, 8.0),
            meta.uniform(0.3, 1.0),
            SimDuration::from_millis(meta.below(40) + 10),
        );
        rates.flap_rate = meta.uniform(0.0, 6.0);
        rates.flap_nic = meta.uniform(0.2, 0.9);
        rates.mean_flap = SimDuration::from_millis(meta.below(5) + 1);
        if meta.bernoulli(0.5) {
            rates.crash_rate = meta.uniform(1.0, 10.0);
            rates.mean_recovery = SimDuration::from_millis(meta.below(30) + 5);
        }
        let schedule = FaultSchedule::generate(
            &rates,
            replicas,
            SimDuration::from_secs_f64(2.0),
            meta.next_u64(),
        );
        let balancer = match meta.index(3) {
            0 => BalancerKind::RoundRobin,
            1 => BalancerKind::JoinShortestQueue,
            _ => BalancerKind::LeastExpectedLatency,
        };
        let health = if meta.bernoulli(0.5) {
            HealthConfig::phi_accrual()
        } else {
            HealthConfig::oracle()
        };
        let hedging = meta.bernoulli(0.7).then(|| HedgeConfig {
            quantile: meta.uniform(0.5, 0.95),
            multiplier: meta.uniform(1.2, 3.0),
            min_samples: 4 + meta.index(16),
        });
        let config = ClusterConfig {
            replicas,
            balancer,
            faults: FaultPlan {
                schedule,
                policy: arb_policy(&mut meta),
            },
            health,
            hedging,
            ..ClusterConfig::single(serve_config)
        };
        let n = config.serve.n_requests;
        let trace = ClusterEngine::new(&cost, &topo, &spec, config.clone())
            .engine()
            .generate_requests();
        let offered_tokens: usize = trace.iter().map(Request::len).sum();
        let out = ClusterEngine::new(&cost, &topo, &spec, config.clone()).run();
        assert_tokens_per_request(&out, &trace, round);

        // Exactly one terminal outcome per request, tokens conserved.
        let mut ids: Vec<usize> = out
            .tracker
            .records()
            .iter()
            .map(|r| r.id)
            .chain(out.tracker.failures().iter().map(|f| f.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..n).collect::<Vec<_>>(),
            "round {round}: every request exactly one terminal outcome under gray faults"
        );
        let terminal_tokens: usize = out
            .tracker
            .records()
            .iter()
            .map(|r| r.tokens)
            .chain(out.tracker.failures().iter().map(|f| f.tokens))
            .sum();
        assert_eq!(terminal_tokens, offered_tokens, "round {round}: tokens");

        // Hedge counters are internally consistent.
        assert_outcome_consistent(&out, replicas, round);
        assert!(out.hedges_won <= out.hedges_issued, "round {round}");
        assert!(
            (0.0..=1.0).contains(&out.hedge_wasted_frac),
            "round {round}: wasted frac {}",
            out.hedge_wasted_frac
        );

        // Bit-determinism, hedge accounting included.
        let again = ClusterEngine::new(&cost, &topo, &spec, config).run();
        assert_eq!(out.tracker.records(), again.tracker.records());
        assert_eq!(out.tracker.failures(), again.tracker.failures());
        assert_eq!(
            (out.hedges_issued, out.hedges_won),
            (again.hedges_issued, again.hedges_won)
        );
        assert_eq!(out.hedge_wasted_frac, again.hedge_wasted_frac);
        assert_eq!(out.report(), again.report(), "round {round}: determinism");
    }
}

/// Degeneracy: an explicitly armed oracle detector plus a hedging
/// runtime that can never reach its sample floor reproduces the plain
/// unhedged run bit for bit on every balancer — records, depth
/// timeline, report, and per-replica accounting — and issues zero
/// hedges.
#[test]
fn armed_oracle_and_inert_hedging_reproduce_the_plain_run() {
    let (cost, topo, spec) = world();
    let mut meta = Rng::new(0x1DE47);
    for balancer in [
        BalancerKind::RoundRobin,
        BalancerKind::JoinShortestQueue,
        BalancerKind::LeastExpectedLatency,
    ] {
        let serve = arb_config(&mut meta, InferScheme::Lina);
        let config = ClusterConfig {
            replicas: 2 + meta.index(3),
            balancer,
            ..ClusterConfig::single(serve)
        };
        let plain = ClusterEngine::new(&cost, &topo, &spec, config.clone()).run();
        let mut armed = config.clone();
        armed.hedging = Some(HedgeConfig {
            quantile: 0.95,
            multiplier: 2.0,
            // Unreachable sample floor: the runtime is armed but can
            // never derive a delay, so no batch is ever hedged.
            min_samples: usize::MAX,
        });
        let out = ClusterEngine::new(&cost, &topo, &spec, armed).run();
        assert_eq!(
            plain.tracker.records(),
            out.tracker.records(),
            "{balancer:?}: records diverged under armed-but-inert hedging"
        );
        assert_eq!(plain.tracker.depth_timeline(), out.tracker.depth_timeline());
        assert_eq!(
            plain.report(),
            out.report(),
            "{balancer:?}: report diverged"
        );
        assert_eq!(plain.requests_per_replica, out.requests_per_replica);
        assert_eq!(plain.batches, out.batches);
        assert_eq!(out.hedges_issued, 0, "{balancer:?}: inert runtime hedged");
    }
}

/// Seeded retry jitter keeps every conservation invariant: with a
/// non-zero jitter fraction on the backoff, crashes still leave each
/// request exactly one terminal outcome, all tokens accounted for, and
/// the run bit-deterministic; with jitter zero, the armed field is
/// invisible against the unjittered run.
#[test]
fn jittered_backoff_conserves_and_stays_deterministic() {
    let (cost, topo, spec) = world();
    let mut meta = Rng::new(0x717E4);
    for round in 0..rounds(4) {
        let serve_config = arb_config(&mut meta, InferScheme::Lina);
        let replicas = 2 + meta.index(3);
        let rates = FaultRateConfig::crashes(
            meta.uniform(5.0, 30.0),
            SimDuration::from_millis(meta.below(30) + 5),
        );
        let schedule = FaultSchedule::generate(
            &rates,
            replicas,
            SimDuration::from_secs_f64(2.0),
            meta.next_u64(),
        );
        let mut policy = arb_policy(&mut meta);
        policy.jitter = meta.uniform(0.05, 0.5);
        let config = ClusterConfig {
            replicas,
            balancer: BalancerKind::JoinShortestQueue,
            faults: FaultPlan { schedule, policy },
            ..ClusterConfig::single(serve_config)
        };
        let n = config.serve.n_requests;
        let trace = ClusterEngine::new(&cost, &topo, &spec, config.clone())
            .engine()
            .generate_requests();
        let offered_tokens: usize = trace.iter().map(Request::len).sum();
        let out = ClusterEngine::new(&cost, &topo, &spec, config.clone()).run();
        assert_tokens_per_request(&out, &trace, round);
        let mut ids: Vec<usize> = out
            .tracker
            .records()
            .iter()
            .map(|r| r.id)
            .chain(out.tracker.failures().iter().map(|f| f.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..n).collect::<Vec<_>>(),
            "round {round}: jittered retries lost or duplicated a request"
        );
        let terminal_tokens: usize = out
            .tracker
            .records()
            .iter()
            .map(|r| r.tokens)
            .chain(out.tracker.failures().iter().map(|f| f.tokens))
            .sum();
        assert_eq!(terminal_tokens, offered_tokens, "round {round}: tokens");
        let again = ClusterEngine::new(&cost, &topo, &spec, config.clone()).run();
        assert_eq!(out.tracker.records(), again.tracker.records());
        assert_eq!(out.tracker.failures(), again.tracker.failures());
        assert_eq!(out.report(), again.report(), "round {round}: determinism");

        // Jitter zero is bit-invisible: the field rides the same seeded
        // stream but multiplies it away before it can reorder anything.
        let mut flat = config.clone();
        flat.faults.policy.jitter = 0.0;
        let mut plain = config;
        plain.faults.policy.jitter = 0.0;
        let a = ClusterEngine::new(&cost, &topo, &spec, flat).run();
        let b = ClusterEngine::new(&cost, &topo, &spec, plain).run();
        assert_eq!(a.tracker.records(), b.tracker.records());
        assert_eq!(a.report(), b.report());
    }
}

/// A random per-layer base placement: every expert of every layer is
/// hosted on one or two distinct random devices.
fn arb_placement(
    meta: &mut Rng,
    layers: usize,
    experts: usize,
    devices: usize,
) -> LayeredPlacement {
    let layer = |meta: &mut Rng| {
        let hosts = (0..experts)
            .map(|_| {
                let first = meta.index(devices);
                let mut hosts = vec![DeviceId(first as u32)];
                if meta.bernoulli(0.3) {
                    let second = (first + 1 + meta.index(devices - 1)) % devices;
                    hosts.push(DeviceId(second as u32));
                }
                hosts
            })
            .collect();
        ExpertPlacement::uniform(hosts)
    };
    LayeredPlacement::from_layers((0..layers).map(|_| layer(meta)).collect())
}

/// Every controller armed at once, each family drawn at random per
/// round: generated crash, device-loss, link-degrade, straggler, gray
/// and flap faults; fail-fast or retry with jitter and shedding; a
/// reactive, predictive or scripted autoscaler; a threshold or
/// scripted re-sharder; a random per-layer base placement with
/// locality on or off; the phi detector with or without hedging;
/// shared or per-replica estimators; solo or contended pricing at 1-4
/// batches in flight; Lina, Baseline or Ideal. Every run conserves
/// requests and tokens, keeps its counters consistent, is identical
/// when run twice, and a run over the pre-generated trace is identical
/// to the streamed one.
#[test]
fn every_controller_armed_at_once_conserves_and_stays_deterministic() {
    let (cost, topo, spec) = world();
    let mut meta = Rng::new(0xA11C0);
    for round in 0..rounds(100) {
        let scheme = match meta.index(3) {
            0 => InferScheme::Lina,
            1 => InferScheme::Baseline,
            _ => InferScheme::Ideal,
        };
        let mut serve = arb_config(&mut meta, scheme);
        if meta.bernoulli(0.5) {
            serve.network = NetworkMode::Contended;
        }
        serve.max_inflight = 1 + meta.index(4);
        let replicas = 1 + meta.index(3);
        // Each fault family is on or off independently.
        let rate = |meta: &mut Rng, hi: f64| {
            if meta.bernoulli(0.5) {
                meta.uniform(0.5, hi)
            } else {
                0.0
            }
        };
        let rates = FaultRateConfig {
            crash_rate: rate(&mut meta, 20.0),
            mean_recovery: SimDuration::from_millis(meta.below(30) + 5),
            device_loss_rate: rate(&mut meta, 5.0),
            degrade_rate: rate(&mut meta, 5.0),
            degrade_scale: meta.uniform(0.2, 1.0),
            mean_degrade: SimDuration::from_millis(meta.below(30) + 5),
            straggler_rate: rate(&mut meta, 5.0),
            straggler_factor: meta.uniform(1.0, 4.0),
            mean_straggle: SimDuration::from_millis(meta.below(30) + 5),
            gray_rate: rate(&mut meta, 10.0),
            gray_compute: meta.uniform(1.0, 6.0),
            gray_nic: meta.uniform(0.3, 1.0),
            mean_gray: SimDuration::from_millis(meta.below(30) + 5),
            flap_rate: rate(&mut meta, 6.0),
            flap_nic: meta.uniform(0.2, 0.9),
            mean_flap: SimDuration::from_millis(meta.below(5) + 1),
        };
        let schedule = FaultSchedule::generate(
            &rates,
            replicas,
            SimDuration::from_secs_f64(2.0),
            meta.next_u64(),
        );
        let policy = if meta.bernoulli(0.25) {
            DegradationPolicy::fail_fast()
        } else {
            let mut policy = arb_policy(&mut meta);
            if meta.bernoulli(0.5) {
                policy.jitter = meta.uniform(0.05, 0.5);
            }
            policy
        };
        let max_replicas = replicas + meta.index(3);
        let autoscale = match meta.index(4) {
            0 => None,
            1 => Some(AutoscalePolicyKind::Reactive {
                up_threshold: meta.uniform(0.5, 3.0),
                down_threshold: meta.uniform(0.0, 0.4),
            }),
            2 => Some(AutoscalePolicyKind::Predictive {
                target_util: meta.uniform(0.3, 1.0),
                window: 2 + meta.index(6),
            }),
            _ => Some(AutoscalePolicyKind::Scripted {
                script: (0..8 + meta.index(16))
                    .map(|_| match meta.index(3) {
                        0 => ScaleDecision::Hold,
                        1 => ScaleDecision::ScaleUp(1 + meta.index(2)),
                        _ => ScaleDecision::ScaleDown(1 + meta.index(2)),
                    })
                    .collect(),
            }),
        }
        .map(|policy| AutoscaleConfig {
            policy,
            interval: SimDuration::from_micros(meta.below(3_000) + 200),
            cooldown: SimDuration::from_micros(meta.below(4_000)),
            min_replicas: 1,
            max_replicas,
        });
        let experts = spec.experts;
        let resharding = match meta.index(3) {
            0 => None,
            1 => Some(ReshardPolicyKind::Threshold {
                hot: meta.uniform(1.2, 2.5),
                cold: meta.uniform(0.1, 0.8),
                hysteresis: 1 + meta.index(3),
                transfer_budget: 1 + meta.index(3),
            }),
            _ => Some(ReshardPolicyKind::Scripted {
                script: (0..8 + meta.index(16))
                    .map(|_| {
                        (0..meta.index(3))
                            .map(|_| match meta.index(3) {
                                0 => ReshardAction::Replicate(meta.index(experts)),
                                1 => ReshardAction::Evict(meta.index(experts)),
                                _ => ReshardAction::Migrate(meta.index(experts)),
                            })
                            .collect()
                    })
                    .collect(),
            }),
        }
        .map(|policy| ReshardConfig {
            policy,
            interval: SimDuration::from_micros(meta.below(3_000) + 200),
            window: 4 + meta.index(8),
            transfer_cost: meta.uniform(0.0, 2.0),
        });
        let placement = meta
            .bernoulli(0.5)
            .then(|| arb_placement(&mut meta, cost.model.layers, experts, topo.devices()));
        let config = ClusterConfig {
            replicas,
            balancer: match meta.index(3) {
                0 => BalancerKind::RoundRobin,
                1 => BalancerKind::JoinShortestQueue,
                _ => BalancerKind::LeastExpectedLatency,
            },
            sharing: if meta.bernoulli(0.5) {
                EstimatorSharing::Shared
            } else {
                EstimatorSharing::PerReplica
            },
            faults: FaultPlan { schedule, policy },
            autoscale,
            resharding,
            placement,
            locality: meta.bernoulli(0.5),
            health: if meta.bernoulli(0.5) {
                HealthConfig::phi_accrual()
            } else {
                HealthConfig::oracle()
            },
            hedging: meta.bernoulli(0.5).then(|| HedgeConfig {
                quantile: meta.uniform(0.3, 0.9),
                multiplier: meta.uniform(1.0, 1.5),
                min_samples: 2 + meta.index(6),
            }),
            ..ClusterConfig::single(serve)
        };
        let n = config.serve.n_requests;
        let engine = ClusterEngine::new(&cost, &topo, &spec, config);
        let trace = engine.engine().generate_requests();
        let out = engine.run();
        assert_tokens_per_request(&out, &trace, round);
        assert_outcome_consistent(&out, replicas, round);
        let mut ids: Vec<usize> = out
            .tracker
            .records()
            .iter()
            .map(|r| r.id)
            .chain(out.tracker.failures().iter().map(|f| f.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..n).collect::<Vec<_>>(),
            "round {round}: every request exactly one terminal outcome"
        );
        // `ClusterOutcome`'s `Debug` prints every counter, record,
        // failure and depth sample, floats in round-trip form, so
        // equal strings are identical outcomes.
        let digest = format!("{out:?}");
        assert_eq!(
            digest,
            format!("{:?}", engine.run()),
            "round {round}: determinism"
        );
        assert_eq!(
            digest,
            format!("{:?}", engine.run_trace(trace)),
            "round {round}: run_trace over the generated trace must match run"
        );
    }
}
