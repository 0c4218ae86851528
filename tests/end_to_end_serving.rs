//! End-to-end serving integration tests: the open-loop subsystem must
//! compose arrivals, batching, the inference driver, and SLO tracking
//! into the expected macro behaviour — Lina's re-placement beats the
//! static baseline's tail under skewed traffic at moderate load, and
//! the whole pipeline is deterministic.

use lina::baselines::InferScheme;
use lina::model::{CostModel, DeviceSpec, MoeModelConfig};
use lina::netsim::{ClusterSpec, Topology};
use lina::serve::{ArrivalProcess, BatcherConfig, ClusterConfig, ClusterEngine, ServeConfig};
use lina::simcore::SimDuration;
use lina::workload::WorkloadSpec;

fn world(experts: usize) -> (CostModel, Topology, WorkloadSpec) {
    let model = MoeModelConfig::transformer_xl(12, experts).for_inference();
    let topo = Topology::new(ClusterSpec::with_total_gpus(experts));
    let cost = CostModel::new(DeviceSpec::a100_inference(), model);
    let spec = WorkloadSpec::enwik8(experts, 12);
    (cost, topo, spec)
}

/// The contended serving regime where placement quality shows: few
/// large requests keep each batch's per-device compute big enough to
/// hide Lina's expert-swap PCIe cost, and a shallow packing cap (2
/// experts per device) bounds the number of swaps per layer.
fn config(scheme: InferScheme, rate: f64) -> ServeConfig {
    ServeConfig {
        batcher: BatcherConfig {
            max_batch_requests: 4,
            max_wait: SimDuration::from_millis(4),
        },
        tokens_per_request: 8192,
        drift_period: Some(16),
        reestimate_every: Some(8),
        reestimate_window: 16,
        ..ServeConfig::new(scheme, ArrivalProcess::Poisson { rate }, 64, 0xE2E)
    }
}

/// At a contended load (70% of the baseline's saturation), Lina's
/// estimation-based re-placement must beat the static baseline on tail
/// latency: shorter batches drain the queue the skew builds up.
#[test]
fn lina_beats_static_baseline_p95_at_moderate_load() {
    let (cost, topo, spec) = world(16);
    let probe = ClusterConfig::single(config(InferScheme::Baseline, 1.0));
    let rate = 0.7 * ClusterEngine::new(&cost, &topo, &spec, probe).capacity();
    let run = |scheme| {
        let single = ClusterConfig::single(config(scheme, rate));
        ClusterEngine::new(&cost, &topo, &spec, single)
            .run()
            .report()
    };
    let (base, lina) = (run(InferScheme::Baseline), run(InferScheme::Lina));
    assert!(
        lina.p95 <= base.p95,
        "lina p95 {} must not exceed baseline p95 {}",
        lina.p95,
        base.p95
    );
    assert!(
        lina.attainment >= base.attainment,
        "lina attainment {} fell below baseline {}",
        lina.attainment,
        base.attainment
    );
}

/// Two identical runs produce bit-identical serving outcomes, through
/// every layer of the stack (arrivals, tokens, batching, inference,
/// re-estimation).
#[test]
fn serving_is_deterministic_end_to_end() {
    let (cost, topo, spec) = world(8);
    let mut cfg = config(InferScheme::Lina, 600.0);
    cfg.tokens_per_request = 1024;
    cfg.arrival = ArrivalProcess::Mmpp {
        calm_rate: 400.0,
        burst_rate: 1500.0,
        mean_calm: 0.2,
        mean_burst: 0.05,
    };
    let a = ClusterEngine::new(&cost, &topo, &spec, ClusterConfig::single(cfg.clone())).run();
    let b = ClusterEngine::new(&cost, &topo, &spec, ClusterConfig::single(cfg)).run();
    assert_eq!(a.tracker.records(), b.tracker.records());
    assert_eq!(a.tracker.depth_timeline(), b.tracker.depth_timeline());
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.reestimations, b.reestimations);
    assert_eq!(a.report(), b.report());
}

/// The serving loop surfaces the expected load response: pushing the
/// offered rate well past capacity degrades attainment and inflates
/// queueing delay relative to a lightly loaded run.
#[test]
fn saturation_degrades_the_slo() {
    let (cost, topo, spec) = world(8);
    let small = |scheme, rate| {
        let mut cfg = config(scheme, rate);
        cfg.tokens_per_request = 1024;
        cfg
    };
    let probe = ClusterConfig::single(small(InferScheme::Baseline, 1.0));
    let capacity = ClusterEngine::new(&cost, &topo, &spec, probe).capacity();
    let run = |load: f64| {
        let single = ClusterConfig::single(small(InferScheme::Baseline, load * capacity));
        ClusterEngine::new(&cost, &topo, &spec, single)
            .run()
            .report()
    };
    let (calm, hot) = (run(0.3), run(3.0));
    assert!(hot.mean_queue_delay > calm.mean_queue_delay);
    assert!(hot.attainment <= calm.attainment);
    assert!(hot.p99 >= calm.p99);
}
