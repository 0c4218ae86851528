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
use lina_serve::{ArrivalProcess, BatcherConfig, ClusterConfig, ServeConfig};
use lina_simcore::{Report, SimDuration, Table};

use crate::serving::{sized, ServeWorld};
use crate::ScenarioCtx;

fn config(
    scheme: InferScheme,
    rate: f64,
    n_requests: usize,
    tokens_per_request: usize,
) -> ClusterConfig {
    ClusterConfig::single(ServeConfig {
        batcher: BatcherConfig {
            max_batch_requests: 4,
            max_wait: SimDuration::from_millis(4),
        },
        tokens_per_request,
        drift_period: Some((n_requests / 4).max(1)),
        reestimate_every: Some(8),
        reestimate_window: 16,
        ..ServeConfig::new(scheme, ArrivalProcess::Poisson { rate }, n_requests, 0x10AD)
    })
}

/// Runs the experiment.
pub fn run(ctx: &ScenarioCtx) -> Report {
    let mut report = Report::new();
    let (n_requests, tokens_per_request) = sized(ctx, ctx.requests, ctx.requests);
    let world = ServeWorld::new(12, 16);

    // Anchor the sweep on the static baseline's saturation rate.
    let capacity = world.capacity(config(
        InferScheme::Baseline,
        1.0,
        n_requests,
        tokens_per_request,
    ));
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
            let r = world
                .run(config(scheme, rate, n_requests, tokens_per_request))
                .report();
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
