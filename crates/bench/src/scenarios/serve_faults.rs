//! Fault injection and graceful degradation: crash intensity ×
//! recovery time × degradation policy on the multi-replica cluster.
//!
//! The experiment: the three-replica cluster of `serve_cluster` runs at
//! a moderate load (60% of aggregate capacity — enough headroom that
//! the survivors *could* absorb failover work), and a scripted schedule
//! crashes replicas one at a time across the middle of the arrival
//! span, each coming back after a fixed recovery time plus a modeled
//! weight-reload cost. Three degradation policies handle the displaced
//! work: `fail-fast` drops it on the spot, `retry-failover` re-admits
//! it through the balancer with capped exponential backoff, and
//! `retry-failover-shed` adds queue-depth admission control. The
//! headline metrics are the availability and SLO-attainment gaps
//! between shedding failover and fail-fast at the default cell (both
//! must be strictly positive: graceful degradation has to buy
//! something), plus a degeneracy probe — an *armed* retry policy over
//! an *empty* schedule must reproduce the healthy-path report bit for
//! bit.

use lina_baselines::InferScheme;
use lina_serve::{
    ArrivalProcess, BalancerKind, ClusterConfig, DegradationPolicy, FaultEvent, FaultKind,
    FaultPlan, FaultSchedule, ServeConfig,
};
use lina_simcore::{Report, SimDuration, SimTime, Table};

use crate::scenario::slug;
use crate::serving::{identical, sized, ServeWorld};
use crate::ScenarioCtx;

/// Replica servers behind the balancer.
const REPLICAS: usize = 3;

/// Offered load as a fraction of aggregate capacity: low enough that
/// two survivors can drain a third replica's failed-over work.
const LOAD: f64 = 0.6;

/// The default sweep cell the headline gaps are read from (present at
/// both tiers).
const DEFAULT_CRASHES: usize = 4;
const DEFAULT_RECOVERY_MS: u64 = 10;

fn serve_config(rate: f64, n_requests: usize, tokens_per_request: usize) -> ServeConfig {
    ServeConfig {
        tokens_per_request,
        token_spread: 0.9,
        drift_period: Some((n_requests / 6).max(1)),
        reestimate_every: Some(4),
        // Steady Poisson arrivals: the transient we are studying is the
        // failure, not the arrival process.
        ..ServeConfig::new(
            InferScheme::Lina,
            ArrivalProcess::Poisson { rate },
            n_requests,
            0x5EED,
        )
    }
}

fn cluster_config(serve: ServeConfig, faults: FaultPlan) -> ClusterConfig {
    ClusterConfig {
        replicas: REPLICAS,
        balancer: BalancerKind::JoinShortestQueue,
        faults,
        ..ClusterConfig::single(serve)
    }
}

/// `crashes` replica crashes evenly spaced over the middle 70% of the
/// arrival span, rotating over replicas, each recovering after
/// `recovery`.
fn crash_script(crashes: usize, recovery: SimDuration, span: SimDuration) -> FaultSchedule {
    let mut events = Vec::new();
    for i in 0..crashes {
        let frac = 0.15 + 0.7 * i as f64 / crashes as f64;
        let at = SimTime::ZERO + span.mul_f64(frac);
        let replica = i % REPLICAS;
        events.push(FaultEvent {
            at,
            replica,
            kind: FaultKind::ReplicaCrash,
        });
        events.push(FaultEvent {
            at: at + recovery,
            replica,
            kind: FaultKind::ReplicaRecover,
        });
    }
    FaultSchedule::from_script(events)
}

/// Runs the experiment.
pub fn run(ctx: &ScenarioCtx) -> Report {
    let mut report = Report::new();
    let (n_requests, tokens_per_request) =
        sized(ctx, ctx.requests * REPLICAS, ctx.requests * REPLICAS * 4);
    let world = ServeWorld::new(6, 8);

    // Anchor on aggregate capacity, then measure the healthy arrival
    // span so scripted crashes land mid-run at every tier.
    let capacity = world.capacity(cluster_config(
        serve_config(1.0, n_requests, tokens_per_request),
        FaultPlan::none(),
    ));
    let rate = LOAD * capacity;
    let serve = serve_config(rate, n_requests, tokens_per_request);
    let span = world.span(serve.clone());
    report.metric_unit("cluster_capacity", capacity, "req/s");
    report.text(format!(
        "{REPLICAS} replicas at {:.0}% load ({rate:.0} req/s), {n_requests} \
         requests over a {span} healthy span; scripted crashes rotate over \
         replicas and recover after a fixed repair time plus weight reload\n",
        LOAD * 100.0
    ));

    let policies = [
        DegradationPolicy::fail_fast(),
        DegradationPolicy::retry_failover(Some(SimDuration::from_millis(300))),
        DegradationPolicy::retry_failover_shed(Some(SimDuration::from_millis(300))),
    ];
    let crash_counts = ctx.pick(&[2, DEFAULT_CRASHES, 8], &[DEFAULT_CRASHES]);
    let recoveries_ms = ctx.pick(&[DEFAULT_RECOVERY_MS, 40], &[DEFAULT_RECOVERY_MS]);
    let mut default_cell: Vec<(&'static str, f64, f64)> = Vec::new();
    for &crashes in &crash_counts {
        for &rec_ms in &recoveries_ms {
            let recovery = SimDuration::from_millis(rec_ms);
            let schedule = crash_script(crashes, recovery, span);
            let mut table = Table::new(
                format!("{crashes} crashes, {recovery} recovery"),
                &[
                    "policy",
                    "avail.",
                    "SLO att.",
                    "goodput",
                    "dropped",
                    "timed out",
                    "aborted",
                    "mean TTR",
                ],
            );
            for policy in policies {
                let faults = FaultPlan {
                    schedule: schedule.clone(),
                    policy,
                };
                let out = world.run(cluster_config(serve.clone(), faults));
                let r = out.report();
                let ttr = out.mean_time_to_recover();
                let cell = format!("{}_c{crashes}_r{rec_ms}ms", slug(policy.kind.name()));
                report.metric_unit(format!("availability_{cell}"), r.availability, "frac");
                report.metric_unit(format!("attainment_{cell}"), r.attainment, "frac");
                report.metric_unit(format!("goodput_{cell}"), r.goodput, "req/s");
                report.metric_unit(format!("ttr_ms_{cell}"), ttr.as_millis_f64(), "ms");
                if crashes == DEFAULT_CRASHES && rec_ms == DEFAULT_RECOVERY_MS {
                    default_cell.push((policy.kind.name(), r.availability, r.attainment));
                }
                table.row(&[
                    policy.kind.name().into(),
                    format!("{:.1}%", r.availability * 100.0),
                    format!("{:.1}%", r.attainment * 100.0),
                    format!("{:.0} req/s", r.goodput),
                    r.dropped.to_string(),
                    r.timed_out.to_string(),
                    out.aborted_batches.to_string(),
                    ttr.to_string(),
                ]);
            }
            report.table(table);
        }
    }

    // Headline: what graceful degradation buys over fail-fast at the
    // default cell — both gaps must be strictly positive.
    let cell_of = |name: &str| {
        default_cell
            .iter()
            .find(|&&(n, _, _)| n == name)
            .copied()
            .expect("default cell swept")
    };
    let (_, ff_avail, ff_att) = cell_of("fail-fast");
    let (_, shed_avail, shed_att) = cell_of("retry-failover-shed");
    report.metric("shed_minus_failfast_availability", shed_avail - ff_avail);
    report.metric("shed_minus_failfast_attainment", shed_att - ff_att);

    // Degeneracy probe: an armed retry policy over an empty schedule
    // must be inert — bit-for-bit the healthy path.
    let healthy = world.run(cluster_config(serve.clone(), FaultPlan::none()));
    let armed = world.run(cluster_config(
        serve,
        FaultPlan {
            schedule: FaultSchedule::none(),
            policy: DegradationPolicy::retry_failover_shed(None),
        },
    ));
    report.metric_unit(
        "empty_schedule_p99_delta_ms",
        (healthy.report().p99.as_millis_f64() - armed.report().p99.as_millis_f64()).abs(),
        "ms",
    );
    report.metric("empty_schedule_identical", identical(&healthy, &armed));

    report.text(
        "reading the sweep: every crash aborts the replica's in-flight batch\n\
         and displaces its queue. Fail-fast turns each displaced request into\n\
         a dropped outcome — availability falls roughly with crashes x work\n\
         in flight — while retry + failover re-admits them through the\n\
         balancer (which routes around the down replica) at a few ms of\n\
         backoff; with recovery times well under the SLO, most displaced\n\
         requests still complete in target, so both availability and\n\
         attainment recover. Shedding only separates from plain failover\n\
         when the post-failure backlog exceeds what survivors can drain;\n\
         at 60% load its admission controller stays quiet and the two\n\
         failover rows agree. Time-to-recover measures crash instant to the\n\
         last displaced request reaching a terminal outcome; fail-fast's is\n\
         zero by construction (everything terminates at the crash).",
    );
    report
}
