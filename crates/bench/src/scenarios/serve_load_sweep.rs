//! Serving load sweep: latency–throughput curves for the open-loop
//! serving subsystem (`lina-serve`), sweeping offered load from
//! underload to past saturation of the static baseline.
//!
//! At each load point every scheme serves the *same* arrival trace
//! (same seed), so the comparison isolates the placement policy: the
//! baseline's skew-inflated service times compound through the queue,
//! while Lina's estimation-based re-placement keeps batches short and
//! the queue drained. Requests drift in topic popularity over the run
//! and Lina re-profiles its estimator online.

use lina_baselines::InferScheme;
use lina_model::MoeModelConfig;
use lina_serve::{
    serve_cluster, ArrivalProcess, BatcherConfig, ClusterConfig, NetworkMode, ServeConfig,
    ServeEngine,
};
use lina_simcore::{Report, SimDuration, Table};

use crate::ScenarioCtx;

fn config(
    scheme: InferScheme,
    rate: f64,
    n_requests: usize,
    tokens_per_request: usize,
) -> ServeConfig {
    ServeConfig {
        scheme,
        top_k: 1,
        path_length: 3,
        max_experts_per_device: 2,
        arrival: ArrivalProcess::Poisson { rate },
        batcher: BatcherConfig {
            max_batch_requests: 4,
            max_wait: SimDuration::from_millis(4),
        },
        slo: SimDuration::from_millis(60),
        n_requests,
        tokens_per_request,
        token_spread: 0.0,
        drift_period: Some((n_requests / 4).max(1)),
        reestimate_every: Some(8),
        reestimate_window: 16,
        network: NetworkMode::Solo,
        max_inflight: 1,
        seed: 0x10AD,
        perf: Default::default(),
    }
}

/// Runs the experiment.
pub fn run(ctx: &ScenarioCtx) -> Report {
    let mut report = Report::new();
    let n_requests = ctx.requests;
    let tokens_per_request = match ctx.tier {
        crate::Tier::Full => 8192,
        crate::Tier::Smoke => 2048,
    };
    let experts = 16;
    let model = MoeModelConfig::transformer_xl(12, experts);
    let topo = crate::topo(experts);
    let cost = crate::infer_cost(model.clone());
    let spec = crate::workload_for(&model, experts, model.layers);

    // Anchor the sweep on the static baseline's saturation rate.
    let probe = ServeEngine::new(
        &cost,
        &topo,
        &spec,
        config(InferScheme::Baseline, 1.0, n_requests, tokens_per_request),
    );
    let capacity = probe.capacity();
    report.metric_unit("baseline_capacity", capacity, "req/s");
    report.text(format!(
        "baseline capacity ~{capacity:.0} req/s (full batches back to back); \
         {n_requests} requests per point\n"
    ));

    let schemes = [
        InferScheme::Baseline,
        InferScheme::Lina,
        InferScheme::LinaNoEstimation,
        InferScheme::Ideal,
    ];
    for load in ctx.pick(&[0.3, 0.5, 0.7, 0.85, 1.0], &[0.5, 1.0]) {
        let rate = load * capacity;
        let mut table = Table::new(
            format!(
                "offered load {:.0}% of baseline capacity ({rate:.0} req/s)",
                load * 100.0
            ),
            &[
                "scheme",
                "p50",
                "p95",
                "p99",
                "SLO att.",
                "throughput",
                "goodput",
            ],
        );
        for scheme in schemes {
            let serve = config(scheme, rate, n_requests, tokens_per_request);
            let out = serve_cluster(&cost, &topo, &spec, ClusterConfig::single(serve));
            let r = out.report();
            if scheme == InferScheme::Lina {
                report.metric_unit(
                    format!("lina_slo_attainment_load{:.0}", load * 100.0),
                    r.attainment,
                    "frac",
                );
            }
            table.row(&[
                scheme.name().into(),
                r.p50.to_string(),
                r.p95.to_string(),
                r.p99.to_string(),
                format!("{:.1}%", r.attainment * 100.0),
                format!("{:.0} req/s", r.throughput),
                format!("{:.0} req/s", r.goodput),
            ]);
        }
        report.table(table);
    }
    report.text(
        "reading the sweep: at low load every scheme hides behind the\n\
         batching timeout; as load approaches the baseline's saturation its\n\
         skewed batches queue up and the tail explodes, while Lina's\n\
         re-placed batches keep service times short enough to drain.",
    );
    report
}
