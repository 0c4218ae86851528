//! Multi-replica serving cluster sweep: offered load × load balancer ×
//! estimator sharing, all replicas running the full Lina scheme on one
//! drifting open-loop trace.
//!
//! The experiment behind the sweep: arrivals come in bursts (a
//! two-state MMPP whose burst phase floods the cluster past its
//! aggregate capacity), and requests vary widely in size. Each burst
//! re-rolls a transient queue imbalance: blind round-robin keeps
//! rotating into replicas still draining heavy batches, while the
//! queue-aware balancers (join-shortest-queue over outstanding tokens,
//! least-expected-latency over queue depth and capacity) divert around
//! them. Estimator sharing is swept alongside: a shared estimator
//! re-profiles from every replica's batches at the cluster-wide batch
//! rate, per-replica estimators only at their own. The headline metric
//! is round-robin's p99 over JSQ's at the highest offered load with
//! shared estimation (≥ 1 means JSQ wins the tail).

use lina_baselines::InferScheme;
use lina_serve::{ArrivalProcess, BalancerKind, ClusterConfig, EstimatorSharing, ServeConfig};
use lina_simcore::{Report, Table};

use crate::scenario::slug;
use crate::serving::{sized, ServeWorld};
use crate::ScenarioCtx;

/// Replica servers behind the balancer.
const REPLICAS: usize = 3;

fn cluster_config(
    rate: f64,
    n_requests: usize,
    tokens_per_request: usize,
    balancer: BalancerKind,
    sharing: EstimatorSharing,
) -> ClusterConfig {
    // Two-state MMPP: bursts at 1.7x the mean rate with calm valleys
    // between them. Each burst floods the cluster past its aggregate
    // capacity, re-rolling the transient queue imbalance that separates
    // the balancers; sustained overload would instead equalize every
    // policy on the final drain.
    let arrival = ArrivalProcess::Mmpp {
        calm_rate: 0.3 * rate,
        burst_rate: 1.7 * rate,
        mean_calm: 0.02,
        mean_burst: 0.02,
    };
    let serve = ServeConfig {
        tokens_per_request,
        // Heterogeneous request sizes (0.1x–1.9x nominal): the work
        // imbalance blind round-robin cannot see.
        token_spread: 0.9,
        // Popularity drifts a handful of times over the run; the
        // estimating schemes re-profile every few batches.
        drift_period: Some((n_requests / 6).max(1)),
        reestimate_every: Some(4),
        ..ServeConfig::new(InferScheme::Lina, arrival, n_requests, 0x5EED)
    };
    ClusterConfig {
        replicas: REPLICAS,
        balancer,
        sharing,
        ..ClusterConfig::single(serve)
    }
}

/// Runs the experiment.
pub fn run(ctx: &ScenarioCtx) -> Report {
    let mut report = Report::new();
    // Long enough per point that routing quality, not batching noise,
    // sets the tail: at smoke sizes each replica still sees ~50
    // requests over a dozen-plus burst/calm cycles.
    let (n_requests, tokens_per_request) =
        sized(ctx, ctx.requests * REPLICAS, ctx.requests * REPLICAS * 4);
    let world = ServeWorld::new(6, 8);

    // Anchor the sweep on the cluster's aggregate saturation rate.
    let capacity = world.capacity(cluster_config(
        1.0,
        n_requests,
        tokens_per_request,
        BalancerKind::RoundRobin,
        EstimatorSharing::Shared,
    ));
    report.metric_unit("cluster_capacity", capacity, "req/s");
    report.text(format!(
        "{REPLICAS} replicas, aggregate capacity ~{capacity:.0} req/s; \
         {n_requests} requests per point on one drifting trace\n"
    ));

    let balancers = [
        BalancerKind::RoundRobin,
        BalancerKind::JoinShortestQueue,
        BalancerKind::LeastExpectedLatency,
    ];
    let sharings = [EstimatorSharing::Shared, EstimatorSharing::PerReplica];
    let loads = ctx.pick(&[0.3, 0.5, 0.75], &[0.5, 0.75]);
    let high_load = *loads.last().expect("nonempty load sweep");
    let mut high_load_p99 = Vec::new();
    for &load in &loads {
        let rate = load * capacity;
        let mut table = Table::new(
            format!(
                "offered load {:.0}% of cluster capacity ({rate:.0} req/s)",
                load * 100.0
            ),
            &[
                "balancer",
                "estimator",
                "p99",
                "SLO att.",
                "goodput",
                "imbalance",
            ],
        );
        for balancer in balancers {
            for sharing in sharings {
                let out = world.run(cluster_config(
                    rate,
                    n_requests,
                    tokens_per_request,
                    balancer,
                    sharing,
                ));
                let r = out.report();
                let cell = format!("{}_{}", slug(balancer.name()), slug(sharing.name()));
                report.metric_unit(
                    format!("p99_ms_{cell}_load{:.0}", load * 100.0),
                    r.p99.as_millis_f64(),
                    "ms",
                );
                report.metric_unit(
                    format!("goodput_{cell}_load{:.0}", load * 100.0),
                    r.goodput,
                    "req/s",
                );
                if load == high_load {
                    report.metric_unit(
                        format!("attainment_{cell}_load{:.0}", load * 100.0),
                        r.attainment,
                        "frac",
                    );
                    if sharing == EstimatorSharing::Shared {
                        high_load_p99.push((balancer, r.p99));
                    }
                }
                table.row(&[
                    balancer.name().into(),
                    sharing.name().into(),
                    r.p99.to_string(),
                    format!("{:.1}%", r.attainment * 100.0),
                    format!("{:.0} req/s", r.goodput),
                    format!("{:.2}x", out.routing_imbalance()),
                ]);
            }
        }
        report.table(table);
    }

    // Headline: blind rotation's tail over JSQ's at the highest load,
    // both with shared estimation (≥ 1: queue-awareness wins).
    let p99_of = |kind| {
        high_load_p99
            .iter()
            .find(|&&(b, _)| b == kind)
            .map(|&(_, p)| p.as_secs_f64())
            .expect("swept at high load")
    };
    let rr = p99_of(BalancerKind::RoundRobin);
    let jsq = p99_of(BalancerKind::JoinShortestQueue);
    report.metric("rr_over_jsq_p99_high_load", rr / jsq.max(f64::MIN_POSITIVE));
    report.text(
        "reading the sweep: every burst floods the cluster past capacity\n\
         for a few tens of milliseconds, and round-robin keeps rotating\n\
         into replicas still draining heavy batches — its tail carries the\n\
         backlog of whichever replica each burst happened to overload.\n\
         Join-shortest-queue (outstanding tokens) and least-expected-latency\n\
         (queue over capacity) divert around the busy replica and flatten\n\
         the p99. Estimator sharing re-profiles placement from all\n\
         replicas' batches at the cluster-wide batch rate — three times the\n\
         cadence a per-replica counter manages — though at these sizes both\n\
         track the drift closely enough that routing, not estimation,\n\
         dominates the tail.",
    );
    report
}
