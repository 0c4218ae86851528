//! Golden digests of six serving runs, one per controller family.
//!
//! Each test folds everything a run produced — every request record,
//! every failure, the queue-depth timeline, and every outcome counter —
//! into one 128-bit FNV digest and compares it with a pinned value. A
//! refactor of the serving path must leave all six untouched; any
//! change to what the simulator computes moves at least one of them.
//!
//! Each test also checks that its run exercised the controller it is
//! named after (faults fired, hedges issued, ...), so a pinned digest
//! never silently covers an inert configuration.

use lina::baselines::InferScheme;
use lina::model::{CostModel, DeviceSpec, MoeModelConfig};
use lina::netsim::{ClusterSpec, Topology};
use lina::runner::Fnv128;
use lina::serve::{
    serve, ArrivalProcess, AutoscaleConfig, AutoscalePolicyKind, BalancerKind, BatcherConfig,
    ClusterConfig, ClusterEngine, ClusterOutcome, DegradationPolicy, EstimatorSharing, FaultEvent,
    FaultKind, FaultPlan, FaultRateConfig, FaultSchedule, HealthConfig, HedgeConfig, NetworkMode,
    RequestOutcome, ReshardConfig, ReshardPolicyKind, ServeConfig, SloTracker,
};
use lina::simcore::{SimDuration, SimTime};
use lina::workload::WorkloadSpec;

/// A 6-layer Transformer-XL MoE over 8 GPUs.
fn world() -> (CostModel, Topology, WorkloadSpec) {
    let model = MoeModelConfig::transformer_xl(6, 8).for_inference();
    let topo = Topology::new(ClusterSpec::with_total_gpus(8));
    let cost = CostModel::new(DeviceSpec::a100_inference(), model);
    let spec = WorkloadSpec::enwik8(8, 6);
    (cost, topo, spec)
}

fn serve_config(scheme: InferScheme, rate: f64) -> ServeConfig {
    ServeConfig {
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
        token_spread: 0.25,
        drift_period: Some(24),
        reestimate_every: Some(4),
        reestimate_window: 8,
        network: NetworkMode::Solo,
        max_inflight: 1,
        seed: 0x601D,
        perf: Default::default(),
    }
}

fn cluster_config(scheme: InferScheme, rate: f64, replicas: usize) -> ClusterConfig {
    ClusterConfig {
        serve: serve_config(scheme, rate),
        replicas,
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

fn run(config: ClusterConfig) -> ClusterOutcome {
    let (cost, topo, spec) = world();
    ClusterEngine::new(&cost, &topo, &spec, config).run()
}

/// Folds the records, failures, and depth timeline into `d`.
fn tracker_digest(d: &mut Fnv128, t: &SloTracker) {
    d.write_u64(t.records().len() as u64);
    for r in t.records() {
        for v in [r.id as u64, r.tokens as u64, r.batch as u64] {
            d.write_u64(v);
        }
        for at in [r.arrival, r.dispatched, r.completed] {
            d.write_u64(at.as_nanos());
        }
        d.write_u64(r.service.as_nanos());
    }
    d.write_u64(t.failures().len() as u64);
    for f in t.failures() {
        d.write_u64(f.id as u64);
        d.write_u64(f.arrival.as_nanos());
        d.write_u64(f.ended.as_nanos());
        d.write_u64(f.tokens as u64);
        d.write_u64(match f.outcome {
            RequestOutcome::Completed => 0,
            RequestOutcome::Dropped => 1,
            RequestOutcome::TimedOut => 2,
        });
    }
    d.write_u64(t.depth_timeline().len() as u64);
    for &(at, depth) in t.depth_timeline() {
        d.write_u64(at.as_nanos());
        d.write_u64(depth as u64);
    }
}

/// Digest of a cluster run: the tracker plus every outcome counter.
fn cluster_digest(out: &ClusterOutcome) -> u128 {
    let mut d = Fnv128::new();
    tracker_digest(&mut d, &out.tracker);
    for v in [
        out.batches,
        out.reestimations,
        out.aborted_batches,
        out.faults_injected,
        out.emergency_replacements,
        out.scale_ups,
        out.scale_downs,
        out.replications,
        out.evictions,
        out.migrations,
        out.peak_replicas,
        out.hedges_issued,
        out.hedges_won,
    ] {
        d.write_u64(v as u64);
    }
    for per_replica in [
        &out.requests_per_replica,
        &out.tokens_per_replica,
        &out.batches_per_replica,
    ] {
        d.write_u64(per_replica.len() as u64);
        per_replica.iter().for_each(|&v| d.write_u64(v as u64));
    }
    d.write_u64(out.recovery_times.len() as u64);
    out.recovery_times
        .iter()
        .for_each(|r| d.write_u64(r.as_nanos()));
    d.write_u64(out.hedge_wasted_frac.to_bits());
    d.write_u64(out.replica_seconds.to_bits());
    d.write_u64(out.last_event.as_nanos());
    d.write_u64(out.local_hops);
    d.write_u64(out.routed_hops);
    d.finish()
}

fn assert_digest(name: &str, actual: u128, golden: u128) {
    assert_eq!(
        actual, golden,
        "{name}: digest {actual:#034x} differs from the pinned {golden:#034x}"
    );
}

/// Every request reached exactly one terminal outcome.
fn assert_conserved(out: &ClusterOutcome, offered: usize) {
    let mut ids: Vec<usize> = out
        .tracker
        .records()
        .iter()
        .map(|r| r.id)
        .chain(out.tracker.failures().iter().map(|f| f.id))
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..offered).collect::<Vec<_>>());
}

#[test]
fn jsq_lina_shared_reestimation_under_drift() {
    let mut c = cluster_config(InferScheme::Lina, 900.0, 3);
    c.balancer = BalancerKind::JoinShortestQueue;
    let out = run(c);
    assert_conserved(&out, 96);
    assert!(out.reestimations > 0);
    assert_digest(
        "jsq_lina_shared",
        cluster_digest(&out),
        0x1153_b830_f4ea_c4a0_953b_e7c8_bcce_9f0c,
    );
}

#[test]
fn contended_baseline_four_in_flight() {
    let mut c = cluster_config(InferScheme::Baseline, 3000.0, 1);
    c.serve.network = NetworkMode::Contended;
    c.serve.max_inflight = 4;
    let out = run(c);
    assert_conserved(&out, 96);
    assert_digest(
        "contended_baseline",
        cluster_digest(&out),
        0xeabe_a305_073c_5554_b4ba_bff0_6978_7efc,
    );
}

#[test]
fn crash_faults_with_retry_shed_and_timeout() {
    let mut c = cluster_config(InferScheme::Lina, 3000.0, 3);
    c.balancer = BalancerKind::JoinShortestQueue;
    c.serve.n_requests = 192;
    let rates = FaultRateConfig {
        device_loss_rate: 10.0,
        ..FaultRateConfig::crashes(40.0, SimDuration::from_millis(10))
    };
    c.faults = FaultPlan {
        schedule: FaultSchedule::generate(&rates, 3, SimDuration::from_secs_f64(0.2), 0xFA17),
        policy: DegradationPolicy::retry_failover_shed(Some(SimDuration::from_millis(10))),
    };
    let out = run(c);
    assert_conserved(&out, 192);
    let report = out.report();
    assert!(out.aborted_batches > 0, "a crash must abort work");
    assert!(
        out.emergency_replacements > 0,
        "a device loss must re-place"
    );
    assert!(report.dropped > 0 && report.timed_out > 0);
    assert_digest(
        "crash_faults",
        cluster_digest(&out),
        0x3db0_5924_435d_644f_dd70_c1f4_8614_e624,
    );
}

#[test]
fn autoscaler_plus_resharder() {
    let mut c = cluster_config(InferScheme::Baseline, 3500.0, 1);
    c.balancer = BalancerKind::LeastExpectedLatency;
    c.locality = true;
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
    c.resharding = Some(ReshardConfig {
        policy: ReshardPolicyKind::Threshold {
            hot: 1.5,
            cold: 0.5,
            hysteresis: 1,
            transfer_budget: 2,
        },
        interval: SimDuration::from_millis(3),
        window: 8,
        transfer_cost: 1.0,
    });
    let out = run(c);
    assert_conserved(&out, 96);
    assert!(out.scale_ups > 0, "the swamped pool must grow");
    assert!(out.replications > 0, "the skew must trigger replication");
    assert!(out.local_hops > 0);
    assert_digest(
        "autoscale_reshard",
        cluster_digest(&out),
        0x0ba0_8bcc_05e9_3ca6_4b24_f51c_e158_774e,
    );
}

#[test]
fn gray_faults_with_phi_detector_and_hedging() {
    let mut c = cluster_config(InferScheme::Lina, 1500.0, 3);
    c.balancer = BalancerKind::LeastExpectedLatency;
    c.sharing = EstimatorSharing::PerReplica;
    c.health = HealthConfig::phi_accrual();
    c.hedging = Some(HedgeConfig {
        quantile: 0.5,
        multiplier: 1.2,
        min_samples: 4,
    });
    c.faults = FaultPlan {
        schedule: FaultSchedule::from_script(vec![
            FaultEvent {
                at: SimTime::ZERO,
                replica: 0,
                kind: FaultKind::GrayDegrade {
                    compute_scale: 8.0,
                    nic_scale: 0.5,
                },
            },
            FaultEvent {
                at: SimTime::from_millis(40),
                replica: 0,
                kind: FaultKind::GrayClear,
            },
        ]),
        policy: DegradationPolicy::retry_failover(None),
    };
    let out = run(c);
    assert_conserved(&out, 96);
    assert!(out.hedges_issued > 0, "the gray replica must draw hedges");
    assert_digest(
        "gray_phi_hedge",
        cluster_digest(&out),
        0x1537_94bf_1ab6_a160_76c5_fa6b_514a_d08d,
    );
}

#[test]
fn single_server_serve() {
    let (cost, topo, spec) = world();
    let out = serve(&cost, &topo, &spec, serve_config(InferScheme::Lina, 400.0));
    assert!(out.reestimations > 0);
    let mut d = Fnv128::new();
    tracker_digest(&mut d, &out.tracker);
    d.write_u64(out.batches as u64);
    d.write_u64(out.reestimations as u64);
    assert_digest(
        "single_server",
        d.finish(),
        0x2b3e_78fd_b513_6d66_ee5f_7d75_189b_95e7,
    );
}
