//! The four benchmark workloads and the one function that builds every
//! serving workload's configuration.
//!
//! Each workload is one fixed-size simulation per iteration. Serving
//! arrivals are open-loop in simulated time and generated from the
//! seed; the training workload runs one step per scheme with the seed
//! as its jitter seed.

use lina_baselines::{InferScheme, TrainScheme};
use lina_model::{BatchShape, CostModel, DeviceSpec, MoeModelConfig};
use lina_netsim::{ClusterSpec, Topology};
use lina_serve::{
    ArrivalProcess, AutoscaleConfig, AutoscalePolicyKind, BalancerKind, BatcherConfig,
    ClusterConfig, DegradationPolicy, EstimatorSharing, FaultEvent, FaultKind, FaultPlan,
    FaultSchedule, HealthConfig, HedgeConfig, NetworkMode, ReshardConfig, ReshardPolicyKind,
    ServeConfig,
};
use lina_simcore::{SimDuration, SimTime};
use lina_workload::WorkloadSpec;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Lina scheme, 3 replicas, JSQ, shared re-estimation under drift,
    /// solo pricing: estimator re-profiling and solo pricing dominate.
    LinaDrift,
    /// Baseline scheme on one replica with contended pricing and
    /// overlapping batches: network water-filling dominates.
    ContendedBaseline,
    /// Baseline scheme under a flash crowd above capacity with every
    /// controller armed: the event loop over deep queues dominates.
    OverloadArmed,
    /// One training step per scheme: graph building and the op-graph
    /// executor.
    TrainStep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LinaDrift,
        Workload::ContendedBaseline,
        Workload::OverloadArmed,
        Workload::TrainStep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LinaDrift => "lina_drift",
            Workload::ContendedBaseline => "contended_baseline",
            Workload::OverloadArmed => "overload_armed",
            Workload::TrainStep => "train_step",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload drives the serving cluster.
    pub fn serving(self) -> bool {
        self != Workload::TrainStep
    }
}

/// Simulation size: `Full` is what the benchmark measures, `Tiny` is
/// the self-check size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A seconds-fast size for the self-check.
    Tiny,
}

impl Size {
    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Size> {
        match name {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }
}

/// Experts (= GPUs) of the serving cluster's replicas.
const SERVE_EXPERTS: usize = 8;

/// The serving model, cluster, and gating workload every serving
/// workload shares: 6-layer Transformer-XL MoE over 8 GPUs.
pub struct ServeWorld {
    /// Inference cost model.
    pub cost: CostModel,
    /// One replica's topology.
    pub topo: Topology,
    /// The token-gating workload.
    pub spec: WorkloadSpec,
}

impl ServeWorld {
    /// Builds the world.
    pub fn new() -> Self {
        let model = MoeModelConfig::transformer_xl(6, SERVE_EXPERTS);
        let spec = WorkloadSpec::enwik8(SERVE_EXPERTS, model.layers);
        ServeWorld {
            cost: CostModel::new(DeviceSpec::a100_inference(), model.for_inference()),
            topo: Topology::new(ClusterSpec::with_total_gpus(SERVE_EXPERTS)),
            spec,
        }
    }
}

/// The paper's training setting: Transformer-XL MoE on 16 GPUs.
pub struct TrainWorld {
    /// Training cost model.
    pub cost: CostModel,
    /// The 16-GPU topology.
    pub topo: Topology,
    /// Per-device batch shape.
    pub batch: BatchShape,
    /// The schemes each iteration steps once: the DeepSpeed-like
    /// baseline and full Lina with the paper's 4-expert packing.
    pub schemes: [TrainScheme; 2],
}

impl TrainWorld {
    /// Builds the world at a size.
    pub fn new(size: Size) -> Self {
        let experts = 16;
        let layers = match size {
            Size::Full => 24,
            Size::Tiny => 2,
        };
        let model = MoeModelConfig::transformer_xl(layers, experts);
        let batch = BatchShape {
            seqs_per_device: 64,
            seq_len: model.seq_len,
        };
        TrainWorld {
            cost: CostModel::new(DeviceSpec::a100(), model),
            topo: Topology::new(ClusterSpec::with_total_gpus(experts)),
            batch,
            schemes: [
                TrainScheme::Baseline,
                TrainScheme::Lina {
                    experts_per_device: 4,
                },
            ],
        }
    }
}

/// Offered load of a serving workload as a fraction of the cluster's
/// probed capacity.
pub fn load(workload: Workload) -> f64 {
    match workload {
        Workload::LinaDrift => 0.75,
        Workload::ContendedBaseline => 1.2,
        // Above capacity even once the autoscaler has grown the pool
        // to its maximum, so queues stay deep for the whole run.
        Workload::OverloadArmed => 2.5,
        Workload::TrainStep => unreachable!("train_step has no offered load"),
    }
}

/// Requests per simulated run.
fn n_requests(workload: Workload, size: Size) -> usize {
    match (workload, size) {
        (Workload::LinaDrift, Size::Full) => 600,
        (Workload::ContendedBaseline, Size::Full) => 1200,
        (Workload::OverloadArmed, Size::Full) => 3600,
        (_, Size::Tiny) => 96,
        (Workload::TrainStep, _) => unreachable!("train_step serves no requests"),
    }
}

/// Builds a serving workload's cluster configuration at an arrival
/// `rate` (requests per simulated second). Every serving knob of every
/// workload is set here and nowhere else; `perf` stays at its default
/// so the benchmark measures whatever the library ships.
pub fn cluster_config(workload: Workload, seed: u64, size: Size, rate: f64) -> ClusterConfig {
    let n_requests = n_requests(workload, size);
    // Two-state bursts: each burst floods the cluster past its mean
    // rate for ~10 simulated milliseconds, short enough that a run
    // holds many burst cycles and its total work varies little with
    // the seed.
    let mmpp = ArrivalProcess::Mmpp {
        calm_rate: 0.3 * rate,
        burst_rate: 1.7 * rate,
        mean_calm: 0.01,
        mean_burst: 0.01,
    };
    let serve = ServeConfig {
        scheme: InferScheme::Baseline,
        top_k: 1,
        path_length: 3,
        max_experts_per_device: 2,
        arrival: mmpp,
        batcher: BatcherConfig {
            max_batch_requests: 8,
            max_wait: SimDuration::from_millis(2),
        },
        slo: SimDuration::from_millis(60),
        n_requests,
        tokens_per_request: 256,
        // A modest size spread: wide spreads make the work of a run
        // differ from one seed to the next.
        token_spread: 0.25,
        drift_period: None,
        reestimate_every: None,
        reestimate_window: 8,
        network: NetworkMode::Solo,
        max_inflight: 1,
        seed,
        perf: Default::default(),
    };
    let healthy = ClusterConfig {
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
    };
    match workload {
        Workload::LinaDrift => ClusterConfig {
            serve: ServeConfig {
                scheme: InferScheme::Lina,
                drift_period: Some((n_requests / 6).max(1)),
                reestimate_every: Some(4),
                // Batches wait to fill: with the 2 ms wait, whether a
                // seed's bursts built queues decided between ~80 and
                // ~170 batches a run, and with them the re-estimations,
                // so the work of a run swung by a third across seeds.
                batcher: BatcherConfig {
                    max_batch_requests: 8,
                    max_wait: SimDuration::from_millis(40),
                },
                ..healthy.serve
            },
            replicas: 3,
            balancer: BalancerKind::JoinShortestQueue,
            ..healthy
        },
        Workload::ContendedBaseline => ClusterConfig {
            serve: ServeConfig {
                network: NetworkMode::Contended,
                max_inflight: 4,
                ..healthy.serve
            },
            ..healthy
        },
        Workload::OverloadArmed => {
            let replicas = 3;
            // The span the trace would need at the mean rate; faults,
            // the diurnal period, and flash crowds scale with it. The
            // faults are scripted at fixed fractions of the span: a
            // seeded schedule's few crashes would swing the work of a
            // run by a third from one seed to the next.
            let horizon = n_requests as f64 / rate.max(f64::MIN_POSITIVE);
            let span = SimDuration::from_secs_f64(horizon);
            let at = |frac: f64| SimTime::ZERO + span.mul_f64(frac);
            let fault = |frac, replica, kind| FaultEvent {
                at: at(frac),
                replica,
                kind,
            };
            let gray = FaultKind::GrayDegrade {
                compute_scale: 3.0,
                nic_scale: 0.5,
            };
            let schedule = FaultSchedule::from_script(vec![
                fault(0.15, 0, FaultKind::ReplicaCrash),
                fault(0.25, 0, FaultKind::ReplicaRecover),
                fault(0.35, 1, gray),
                fault(0.55, 1, FaultKind::GrayClear),
                fault(0.6, 2, FaultKind::ReplicaCrash),
                fault(0.7, 2, FaultKind::ReplicaRecover),
                fault(0.75, 0, gray),
                fault(0.9, 0, FaultKind::GrayClear),
            ]);
            ClusterConfig {
                serve: ServeConfig {
                    arrival: ArrivalProcess::Diurnal {
                        base_rate: rate,
                        amplitude: 0.3,
                        period: span.mul_f64(0.5),
                        flash_every: horizon / 64.0,
                        flash_mean: horizon / 320.0,
                        flash_mult: 2.0,
                    },
                    batcher: BatcherConfig {
                        max_batch_requests: 16,
                        max_wait: SimDuration::from_millis(2),
                    },
                    tokens_per_request: 64,
                    ..healthy.serve
                },
                replicas,
                balancer: BalancerKind::JoinShortestQueue,
                faults: FaultPlan {
                    schedule,
                    policy: DegradationPolicy {
                        jitter: 0.5,
                        ..DegradationPolicy::retry_failover_shed(Some(SimDuration::from_millis(80)))
                    },
                },
                autoscale: Some(AutoscaleConfig {
                    policy: AutoscalePolicyKind::Reactive {
                        up_threshold: 4.0,
                        down_threshold: 0.5,
                    },
                    interval: SimDuration::from_millis(5),
                    cooldown: SimDuration::from_millis(15),
                    min_replicas: 2,
                    max_replicas: 5,
                }),
                resharding: Some(ReshardConfig {
                    policy: ReshardPolicyKind::Threshold {
                        hot: 1.5,
                        cold: 0.5,
                        hysteresis: 2,
                        transfer_budget: 1,
                    },
                    interval: SimDuration::from_millis(10),
                    window: 8,
                    transfer_cost: 1.0,
                }),
                health: HealthConfig::phi_accrual(),
                // Median-based, so batches stuck on a gray replica are
                // actually hedged.
                hedging: Some(HedgeConfig {
                    quantile: 0.5,
                    multiplier: 1.5,
                    min_samples: 8,
                }),
                ..healthy
            }
        }
        Workload::TrainStep => unreachable!("train_step has no cluster config"),
    }
}
