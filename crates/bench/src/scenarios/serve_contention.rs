//! Serving under network contention: how much the solo (uncontended)
//! collective costing underestimates tail latency once a replica admits
//! overlapping batches.
//!
//! The serving engine's historical costing prices every batch's
//! all-to-alls as if they ran alone on the wire. With an admission
//! depth of two, a bursty arrival process keeps a second batch in
//! flight whenever the queue backs up — and the two batches' dispatch
//! and combine all-to-alls then share the same NICs. This sweep runs
//! the *same* MMPP trace at each offered load under both
//! [`NetworkMode`]s: `solo` keeps pricing each collective alone on the
//! wire (overlap is free), `contended` runs every in-flight batch's collectives on one
//! shared network so they fair-share bandwidth. The gap between the two
//! p99s is exactly the error a capacity plan based on solo costing
//! would make. The headline metric is `contended_over_solo_p99` at the
//! highest offered load (≥ 1: contention never makes the tail faster).

use lina_baselines::InferScheme;
use lina_serve::{ArrivalProcess, BatcherConfig, ClusterConfig, NetworkMode, ServeConfig};
use lina_simcore::{Report, SimDuration, Table};

use crate::serving::{sized, ServeWorld};
use crate::ScenarioCtx;

/// Admission depth: one batch executing plus one admitted behind it.
const MAX_INFLIGHT: usize = 2;

/// Bursty arrivals averaging `mean_rate`: the burst phase runs 5x the
/// calm phase's rate and holds for a quarter of the calm dwell, so
/// bursts reliably push the replica past one-batch-at-a-time.
fn bursty(mean_rate: f64) -> ArrivalProcess {
    let calm_rate = mean_rate / 1.8;
    ArrivalProcess::Mmpp {
        calm_rate,
        burst_rate: 5.0 * calm_rate,
        mean_calm: 0.4,
        mean_burst: 0.1,
    }
}

fn config(
    network: NetworkMode,
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
        network,
        max_inflight: MAX_INFLIGHT,
        ..ServeConfig::new(InferScheme::Baseline, bursty(rate), n_requests, 0xC0CE)
    })
}

/// Runs the experiment.
pub fn run(ctx: &ScenarioCtx) -> Report {
    let mut report = Report::new();
    // Enough batches at smoke that the burst phase actually overlaps some.
    let (n_requests, tokens_per_request) = sized(ctx, ctx.requests, ctx.requests.max(24));
    let world = ServeWorld::new(12, 8);

    // Anchor offered load on the solo one-batch-at-a-time capacity
    // (the number a solo-costed capacity plan would use).
    let capacity = world.capacity(config(
        NetworkMode::Solo,
        1.0,
        n_requests,
        tokens_per_request,
    ));
    report.metric_unit("solo_capacity", capacity, "req/s");
    report.text(format!(
        "solo-costed capacity ~{capacity:.0} req/s; bursty MMPP arrivals \
         (burst phase 5x calm), admission depth {MAX_INFLIGHT}; \
         {n_requests} requests per point\n"
    ));

    let loads = ctx.pick(&[0.4, 0.8, 1.0, 1.2], &[0.6, 1.2]);
    let mut headline = f64::NAN;
    for &load in &loads {
        let rate = load * capacity;
        let mut table = Table::new(
            format!(
                "offered load {:.0}% of solo capacity ({rate:.0} req/s)",
                load * 100.0
            ),
            &["network", "p50", "p99", "mean queue", "SLO att."],
        );
        let mut p99s = Vec::new();
        for network in [NetworkMode::Solo, NetworkMode::Contended] {
            let r = world
                .run(config(network, rate, n_requests, tokens_per_request))
                .report();
            p99s.push(r.p99.as_secs_f64());
            table.row(&[
                network.name().into(),
                r.p50.to_string(),
                r.p99.to_string(),
                r.mean_queue_delay.to_string(),
                format!("{:.1}%", r.attainment * 100.0),
            ]);
        }
        report.table(table);
        let ratio = p99s[1] / p99s[0].max(f64::MIN_POSITIVE);
        report.metric_unit(
            format!("contended_over_solo_p99_load{:.0}", load * 100.0),
            ratio,
            "x",
        );
        headline = ratio;
    }
    // The last sweep point is the highest offered load.
    report.metric_unit("contended_over_solo_p99", headline, "x");
    report.text(format!(
        "reading the sweep: at low load batches rarely overlap and both\n\
         pricings agree; past saturation the backlog keeps two batches in\n\
         flight, their all-to-alls fair-share the NICs, and the solo costing\n\
         underestimates p99 by {:.1}% at the highest load.",
        (headline - 1.0) * 100.0
    ));
    report
}
