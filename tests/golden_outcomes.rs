//! Golden digests of ten serving runs and of one training step per
//! training scheme.
//!
//! The ten serving runs are one per controller family,
//! one with every controller armed at once, one pairing the
//! autoscaler with device loss on a contended network, and two
//! contended runs that each read a batch's solo-priced completion
//! estimate through one consumer only (the least-expected-latency
//! balancer, the phi detector).
//!
//! Each test folds everything a run produced — every request record,
//! every failure, the queue-depth timeline, and every outcome counter —
//! into one 128-bit FNV digest and compares it with a pinned value. A
//! refactor of the serving path must leave all ten untouched; any
//! change to what the simulator computes moves at least one of them.
//!
//! Each test also checks that its run exercised the controller it is
//! named after (faults fired, hedges issued, ...), so a pinned digest
//! never silently covers an inert configuration.
//!
//! Two of them (`everything_armed`, `contended_baseline_four_in_flight`)
//! also run the config over its eagerly generated trace
//! (`ClusterEngine::run_trace`) and require the lazy stream's digest.
//! One more test needs no pinned value: calls on one reused engine must
//! digest as the same calls on fresh engines do.
//!
//! The training digests fold every op window and the makespan of one
//! step, so a change to any communication policy's launch decisions
//! moves the digest of the scheme that runs it.

use lina::baselines::{InferScheme, TrainScheme};
use lina::model::{BatchShape, CostModel, DeviceSpec, MoeModelConfig};
use lina::netsim::{ClusterSpec, Topology};
use lina::runner::{run_train_step, Fnv128};
use lina::serve::{
    ArrivalProcess, AutoscaleConfig, AutoscalePolicyKind, BalancerKind, BatcherConfig,
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
        replicas,
        ..ClusterConfig::single(serve_config(scheme, rate))
    }
}

fn run(config: ClusterConfig) -> ClusterOutcome {
    let (cost, topo, spec) = world();
    ClusterEngine::new(&cost, &topo, &spec, config).run()
}

/// Runs the config over its eagerly generated trace instead of the
/// lazy arrival stream.
fn run_trace(config: ClusterConfig) -> ClusterOutcome {
    let (cost, topo, spec) = world();
    let engine = ClusterEngine::new(&cost, &topo, &spec, config);
    engine.run_trace(engine.engine().generate_requests())
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
    let out = run(c.clone());
    assert_conserved(&out, 96);
    let digest = cluster_digest(&out);
    assert_eq!(
        digest,
        cluster_digest(&run_trace(c)),
        "run_trace over the generated trace must match run"
    );
    assert_digest(
        "contended_baseline",
        digest,
        0xeabe_a305_073c_5554_b4ba_bff0_6978_7efc,
    );
}

/// Contended replicas whose solo-priced completion estimate is read by
/// the least-expected-latency balancer alone (the oracle detector never
/// prices a batch).
#[test]
fn contended_least_latency_oracle() {
    let mut c = cluster_config(InferScheme::Lina, 3000.0, 3);
    c.serve.network = NetworkMode::Contended;
    c.serve.max_inflight = 2;
    c.balancer = BalancerKind::LeastExpectedLatency;
    let out = run(c);
    assert_conserved(&out, 96);
    assert!(
        out.requests_per_replica.iter().all(|&n| n > 0),
        "the balancer must spread the load"
    );
    assert_digest(
        "contended_least_latency",
        cluster_digest(&out),
        0x431d_6f31_5633_3f7a_e28c_7e6b_3f72_ca67,
    );
}

/// Contended replicas whose solo-priced completion estimate is read by
/// the phi detector alone (round-robin routing reads no estimate). The
/// gray fault lands after the detector has warmed up on healthy
/// samples; the gray replica must then draw suspicion and lose its
/// round-robin share.
#[test]
fn contended_round_robin_phi_detector() {
    let mut c = cluster_config(InferScheme::Baseline, 600.0, 3);
    c.serve.n_requests = 192;
    c.serve.network = NetworkMode::Contended;
    c.serve.max_inflight = 2;
    c.health = HealthConfig::phi_accrual();
    c.faults = FaultPlan {
        schedule: FaultSchedule::from_script(vec![FaultEvent {
            at: SimTime::from_millis(80),
            replica: 0,
            kind: FaultKind::GrayDegrade {
                compute_scale: 8.0,
                nic_scale: 0.5,
            },
        }]),
        policy: DegradationPolicy::retry_failover(None),
    };
    let out = run(c);
    assert_conserved(&out, 192);
    let served = &out.requests_per_replica;
    assert!(
        served[0] < served[1].min(served[2]),
        "the detector must steer round-robin off the gray replica: {served:?}"
    );
    assert_digest(
        "contended_rr_phi",
        cluster_digest(&out),
        0x8046_fc90_37ee_b644_6b53_da3b_2ad9_307d,
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

/// Every controller at once: crash and gray faults under retry, shed,
/// timeout and jitter; the reactive autoscaler; the threshold
/// re-sharder; the phi detector with hedging; a contended network with
/// two batches in flight; and per-replica estimators.
#[test]
fn everything_armed() {
    let mut c = cluster_config(InferScheme::Lina, 3000.0, 3);
    c.serve.n_requests = 192;
    c.serve.network = NetworkMode::Contended;
    c.serve.max_inflight = 2;
    c.balancer = BalancerKind::LeastExpectedLatency;
    c.sharing = EstimatorSharing::PerReplica;
    c.locality = true;
    c.health = HealthConfig::phi_accrual();
    c.hedging = Some(HedgeConfig {
        quantile: 0.5,
        multiplier: 1.2,
        min_samples: 4,
    });
    let rates = FaultRateConfig {
        gray_rate: 30.0,
        gray_compute: 6.0,
        gray_nic: 0.5,
        mean_gray: SimDuration::from_millis(10),
        ..FaultRateConfig::crashes(100.0, SimDuration::from_millis(20))
    };
    c.faults = FaultPlan {
        schedule: FaultSchedule::generate(&rates, 3, SimDuration::from_secs_f64(0.2), 0xA11),
        policy: DegradationPolicy {
            jitter: 0.5,
            shed_batches_per_replica: 2.0,
            ..DegradationPolicy::retry_failover_shed(Some(SimDuration::from_millis(4)))
        },
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
    let out = run(c.clone());
    assert_conserved(&out, 192);
    let digest = cluster_digest(&out);
    assert_eq!(
        digest,
        cluster_digest(&run(c.clone())),
        "the run is deterministic"
    );
    assert_eq!(
        digest,
        cluster_digest(&run_trace(c)),
        "run_trace over the generated trace must match run"
    );
    let report = out.report();
    assert!(out.aborted_batches > 0, "a crash must abort work");
    assert!(report.dropped > 0 && report.timed_out > 0);
    assert!(out.reestimations > 0);
    assert!(out.scale_ups > 0 && out.scale_downs > 0);
    assert!(out.replications > 0);
    assert!(out.hedges_issued > 0 && out.hedges_won > 0);
    assert_digest(
        "everything_armed",
        digest,
        0xb043_cf66_dfe0_1bdd_d62a_1c35_4d99_b269,
    );
}

/// The autoscaler under device loss, on a contended network: the pool
/// grows and shrinks while devices fail under it, on serving replicas
/// (which re-place their experts) and on replicas the autoscaler has
/// retired or not yet provisioned.
#[test]
fn autoscaler_under_device_loss_contended() {
    let mut c = cluster_config(InferScheme::Lina, 3000.0, 3);
    c.serve.n_requests = 192;
    c.serve.network = NetworkMode::Contended;
    c.serve.max_inflight = 2;
    c.balancer = BalancerKind::JoinShortestQueue;
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
    let rates = FaultRateConfig {
        device_loss_rate: 15.0,
        ..FaultRateConfig::crashes(0.0, SimDuration::ZERO)
    };
    c.faults = FaultPlan {
        schedule: FaultSchedule::generate(&rates, 3, SimDuration::from_secs_f64(0.2), 0xDE71),
        policy: DegradationPolicy::retry_failover(None),
    };
    let out = run(c);
    assert_conserved(&out, 192);
    assert!(
        out.scale_ups > 0 && out.scale_downs > 0,
        "the pool must move"
    );
    assert!(
        out.emergency_replacements > 0,
        "a device loss must re-place"
    );
    assert!(
        out.faults_injected > out.emergency_replacements,
        "some device loss must land off the serving pool"
    );
    assert_digest(
        "autoscale_device_loss",
        cluster_digest(&out),
        0xea5e_5268_6e39_9969_9275_407e_fde2_c9e7,
    );
}

#[test]
fn single_server_serve() {
    let out = run(ClusterConfig::single(serve_config(
        InferScheme::Lina,
        400.0,
    )));
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

/// One engine serves a sequence of calls exactly as a fresh engine
/// serves each: no run leaves state behind that a later call reads.
/// Lina with the least-expected-latency balancer (which probes the
/// capacity inside the run), per-replica re-estimation and drift.
#[test]
fn reused_engine_matches_fresh_engines() {
    let (cost, topo, spec) = world();
    let mut c = cluster_config(InferScheme::Lina, 900.0, 3);
    c.balancer = BalancerKind::LeastExpectedLatency;
    c.sharing = EstimatorSharing::PerReplica;
    let fresh = || ClusterEngine::new(&cost, &topo, &spec, c.clone());
    let trace = |e: &ClusterEngine| e.engine().generate_requests();
    let reused = fresh();
    assert_eq!(
        reused.capacity().to_bits(),
        fresh().capacity().to_bits(),
        "capacity"
    );
    let first = reused.run();
    assert!(first.reestimations > 0);
    assert_conserved(&first, 96);
    let runs = [
        ("run", first, fresh().run()),
        (
            "run_trace",
            reused.run_trace(trace(&reused)),
            fresh().run_trace(trace(&fresh())),
        ),
        ("second run", reused.run(), fresh().run()),
    ];
    for (call, reused, fresh) in runs {
        assert_eq!(
            cluster_digest(&reused),
            cluster_digest(&fresh),
            "{call} on a reused engine differs from a fresh engine's"
        );
    }
}

#[test]
fn training_step_per_scheme() {
    // Two sequences per device keep the steps short enough that DDP
    // buckets queue behind each other, so fair-share, naive priority
    // and fixed each launch them differently. The all-to-all stays
    // under Lina's 30 MB micro-op size, so LinaNoPack builds the same
    // graph as PriorityPartition and shares its digest.
    let model = MoeModelConfig::bert2gpt2(8);
    let topo = Topology::new(ClusterSpec::with_total_gpus(8));
    let batch = BatchShape {
        seqs_per_device: 2,
        seq_len: model.seq_len,
    };
    let cost = CostModel::new(DeviceSpec::a100(), model);
    let golden: [(TrainScheme, u128); 7] = [
        (
            TrainScheme::Baseline,
            0xec13_259c_d49c_c117_1f78_d24d_8956_23f5,
        ),
        (
            TrainScheme::Tutel,
            0xbe9b_f0dc_9522_244c_02ee_2272_3090_3adb,
        ),
        (
            TrainScheme::Fixed,
            0x7f3b_0e20_f304_049e_9fa1_7d05_bc4e_0272,
        ),
        (
            TrainScheme::PriorityOnly,
            0x22f0_6fd5_cd27_a758_7908_394f_044a_6714,
        ),
        (
            TrainScheme::PriorityPartition,
            0x213f_425f_b229_7777_9b97_c77f_1d79_1dbf,
        ),
        (
            TrainScheme::LinaNoPack,
            0x213f_425f_b229_7777_9b97_c77f_1d79_1dbf,
        ),
        (
            TrainScheme::Lina {
                experts_per_device: 2,
            },
            0x2df8_0510_31d8_11d6_fd13_e96f_bd84_c627,
        ),
    ];
    for (scheme, pinned) in golden {
        let exec = run_train_step(&cost, &topo, batch, scheme, 1).exec;
        let mut d = Fnv128::new();
        d.write_u64(exec.op_windows.len() as u64);
        for (start, end) in exec.op_windows.iter().map(|w| w.expect("every op ran")) {
            d.write_u64(start.as_nanos());
            d.write_u64(end.as_nanos());
        }
        d.write_u64(exec.makespan.as_nanos());
        assert_digest(scheme.name(), d.finish(), pinned);
    }
}
