//! Elastic autoscaling frontier: trace shape × scaling policy × SLO
//! target on a diurnal / flash-crowd trace, reported as cost
//! (replica-seconds) versus SLO attainment.
//!
//! The experiment: a sinusoidal diurnal envelope swings the offered
//! load between 0.5x and 3.5x one replica's capacity (flash-crowd
//! overlays spike it to 7x), so the trace's *mean* rate already
//! exceeds a minimally provisioned pool while its *peak* needs triple
//! that. Two static baselines bracket the frontier — `static_min`
//! (melts at every crest) and `static_max` (pays for the peak all
//! night) — and two autoscaling policies walk it: `reactive`
//! (queue-depth thresholds with hysteresis and a cooldown) and
//! `predictive` (a least-squares forecast over an observation window).
//! Scale-up pays the modeled weight-reload provisioning cost before a
//! new replica takes traffic; scale-down drains the victim before
//! decommissioning it. The headline metric is
//! `frontier_dominates_static_min`: 1 iff some autoscaled policy
//! strictly beats `static_min` on SLO attainment at no more pool cost
//! than `static_max` — elasticity must buy tail latency without
//! peak-provisioned spend. A degeneracy probe re-runs the fixed pool
//! with an *armed but inert* autoscaler and demands a bit-identical
//! outcome.

use lina_baselines::InferScheme;
use lina_serve::{
    ArrivalProcess, AutoscaleConfig, AutoscalePolicyKind, BalancerKind, BatcherConfig,
    ClusterConfig, ServeConfig,
};
use lina_simcore::{Report, SimDuration, Table};

use crate::serving::{identical, ServeWorld};
use crate::ScenarioCtx;

/// The minimally provisioned pool: the `static_min` baseline and every
/// autoscaled run's starting size.
const MIN_REPLICAS: usize = 2;

/// The peak-provisioned pool: the `static_max` baseline and the
/// autoscalers' hardware budget.
const MAX_REPLICAS: usize = 6;

/// Autoscalers may drain below `static_min` in the trough.
const ELASTIC_FLOOR: usize = 1;

/// Diurnal base rate in units of one replica's capacity: the mean
/// demand alone overruns `static_min`'s aggregate capacity.
const BASE_LOAD: f64 = 2.0;

/// Relative swing of the diurnal envelope: the rate ranges over
/// 0.5x–3.5x one replica's capacity before any flash crowd.
const AMPLITUDE: f64 = 0.75;

/// Whole diurnal cycles in the trace.
const PERIODS: f64 = 3.0;

/// Mean calm gap between flash-crowd onsets, as a fraction of one
/// period.
const FLASH_EVERY_FRAC: f64 = 1.0 / 3.0;

/// Mean flash-crowd dwell, as a fraction of one period.
const FLASH_MEAN_FRAC: f64 = 1.0 / 20.0;

/// Rate multiplier while a flash crowd is active.
const FLASH_MULT: f64 = 2.0;

/// Control-loop evaluations per diurnal period.
const TICKS_PER_PERIOD: f64 = 120.0;

fn serve_config(arrival: ArrivalProcess, slo: SimDuration, n_requests: usize) -> ServeConfig {
    ServeConfig {
        // Large batches of small requests: the trace needs 100k+
        // requests to cover whole diurnal cycles, and batch count —
        // not token count — is what the simulator's wall clock buys.
        batcher: BatcherConfig {
            max_batch_requests: 64,
            max_wait: SimDuration::from_millis(2),
        },
        slo,
        // Uniform request sizes keep the capacity anchor exact.
        tokens_per_request: 4,
        // Static placement without estimation or re-profiling: the
        // transient under study is the pool resizing, not placement.
        ..ServeConfig::new(InferScheme::Baseline, arrival, n_requests, 0xD1A1)
    }
}

fn cluster_config(
    serve: ServeConfig,
    replicas: usize,
    autoscale: Option<AutoscaleConfig>,
) -> ClusterConfig {
    ClusterConfig {
        replicas,
        balancer: BalancerKind::JoinShortestQueue,
        autoscale,
        ..ClusterConfig::single(serve)
    }
}

/// One cell of the policy sweep: a label, the starting pool, and the
/// autoscaler (if any).
struct PolicyCell {
    name: &'static str,
    replicas: usize,
    autoscale: Option<AutoscaleConfig>,
    elastic: bool,
}

fn policy_cells(interval: SimDuration) -> Vec<PolicyCell> {
    let cooldown = interval * 3;
    let bounds = |policy| AutoscaleConfig {
        policy,
        interval,
        cooldown,
        min_replicas: ELASTIC_FLOOR,
        max_replicas: MAX_REPLICAS,
    };
    vec![
        PolicyCell {
            name: "static_min",
            replicas: MIN_REPLICAS,
            autoscale: None,
            elastic: false,
        },
        PolicyCell {
            name: "static_max",
            replicas: MAX_REPLICAS,
            autoscale: None,
            elastic: false,
        },
        PolicyCell {
            name: "reactive",
            replicas: MIN_REPLICAS,
            autoscale: Some(bounds(AutoscalePolicyKind::Reactive {
                up_threshold: 1.25,
                down_threshold: 0.3,
            })),
            elastic: true,
        },
        PolicyCell {
            name: "predictive",
            replicas: MIN_REPLICAS,
            autoscale: Some(bounds(AutoscalePolicyKind::Predictive {
                target_util: 0.6,
                window: 24,
            })),
            elastic: true,
        },
    ]
}

/// Runs the experiment.
pub fn run(ctx: &ScenarioCtx) -> Report {
    let mut report = Report::new();
    // The acceptance bar is a >= 100k-request trace even at smoke tier:
    // the subsystem's point is whole diurnal cycles, and a short trace
    // never leaves the first crest.
    let n_requests = match ctx.tier {
        crate::Tier::Full => (ctx.requests * 500).max(100_000),
        crate::Tier::Smoke => 100_000,
    };
    let world = ServeWorld::new(6, 8);

    // Anchor every knob on one replica's sustainable throughput so the
    // crest melts `static_min` at any tier or hardware profile.
    let placeholder = ArrivalProcess::Poisson { rate: 1.0 };
    let probe = serve_config(placeholder, SimDuration::from_millis(60), n_requests);
    let cap1 = world.capacity(cluster_config(probe, 1, None));
    let batch_service = 64.0 / cap1;
    report.metric_unit("replica_capacity", cap1, "req/s");

    // SLO targets as multiples of a full batch's wait + service time.
    let slo_mults = ctx.pick(&[2.0, 4.0], &[2.0]);
    let shapes: Vec<(&'static str, f64)> = ctx.pick(
        &[("diurnal", 1.0), ("flash", FLASH_MULT)],
        &[("flash", FLASH_MULT)],
    );

    let base_rate = BASE_LOAD * cap1;
    let headline_shape = *shapes.last().expect("nonempty shape sweep");
    let headline_slo = slo_mults[0];
    let mut headline_cells: Vec<(&'static str, bool, f64, f64)> = Vec::new();
    let mut headline_interval = None;
    for &(shape, flash_mult) in &shapes {
        let mean_rate = ArrivalProcess::Diurnal {
            base_rate,
            amplitude: AMPLITUDE,
            period: SimDuration::from_secs_f64(1.0),
            flash_every: FLASH_EVERY_FRAC,
            flash_mean: FLASH_MEAN_FRAC,
            flash_mult,
        }
        .mean_rate();
        let span = n_requests as f64 / mean_rate;
        let period = span / PERIODS;
        let interval = SimDuration::from_secs_f64(period / TICKS_PER_PERIOD);
        let arrival = ArrivalProcess::Diurnal {
            base_rate,
            amplitude: AMPLITUDE,
            period: SimDuration::from_secs_f64(period),
            flash_every: period * FLASH_EVERY_FRAC,
            flash_mean: period * FLASH_MEAN_FRAC,
            flash_mult,
        };
        report.text(format!(
            "{shape}: mean {mean_rate:.0} req/s ({:.2}x one replica) over \
             {PERIODS:.0} periods of {}; pool {MIN_REPLICAS}-{MAX_REPLICAS} \
             replicas, control tick every {interval}\n",
            mean_rate / cap1,
            SimDuration::from_secs_f64(period),
        ));
        for &slo_mult in &slo_mults {
            let slo = SimDuration::from_secs_f64(slo_mult * (batch_service + 0.002));
            let serve = serve_config(arrival.clone(), slo, n_requests);
            let mut table = Table::new(
                format!("{shape} trace, SLO {slo} ({slo_mult:.0}x batch time)"),
                &[
                    "policy", "p99", "SLO att.", "goodput", "cost", "peak", "ups", "downs",
                ],
            );
            for cell in policy_cells(interval) {
                let config = cluster_config(serve.clone(), cell.replicas, cell.autoscale);
                let out = world.run(config);
                let r = out.report();
                let tag = format!("{}_{shape}_slo{slo_mult:.0}x", cell.name);
                report.metric_unit(format!("attainment_{tag}"), r.attainment, "frac");
                report.metric_unit(format!("p99_ms_{tag}"), r.p99.as_millis_f64(), "ms");
                report.metric_unit(format!("cost_rs_{tag}"), out.replica_seconds, "replica-s");
                report.metric(format!("peak_replicas_{tag}"), out.peak_replicas as f64);
                if shape == headline_shape.0 && slo_mult == headline_slo {
                    headline_cells.push((
                        cell.name,
                        cell.elastic,
                        r.attainment,
                        out.replica_seconds,
                    ));
                    headline_interval = Some(interval);
                }
                table.row(&[
                    cell.name.into(),
                    r.p99.to_string(),
                    format!("{:.1}%", r.attainment * 100.0),
                    format!("{:.0} req/s", r.goodput),
                    format!("{:.1} replica-s", out.replica_seconds),
                    out.peak_replicas.to_string(),
                    out.scale_ups.to_string(),
                    out.scale_downs.to_string(),
                ]);
            }
            report.table(table);
        }
    }

    // Headline: the frontier at the default cell. An autoscaled policy
    // "dominates static_min" when it strictly beats it on attainment
    // while spending no more than static_max — elasticity has to buy
    // tail latency without peak-provisioned cost.
    let anchor = |name: &str| {
        headline_cells
            .iter()
            .find(|&&(n, _, _, _)| n == name)
            .map(|&(_, _, att, cost_rs)| (att, cost_rs))
            .expect("baseline swept at the headline cell")
    };
    let (min_att, _) = anchor("static_min");
    let (max_att, max_cost) = anchor("static_max");
    let dominating: Vec<_> = headline_cells
        .iter()
        .filter(|&&(_, elastic, att, cost_rs)| elastic && att > min_att && cost_rs <= max_cost)
        .collect();
    report.metric(
        "frontier_dominates_static_min",
        if dominating.is_empty() { 0.0 } else { 1.0 },
    );
    let best = dominating.iter().max_by(|a, b| {
        (a.2, -a.3)
            .partial_cmp(&(b.2, -b.3))
            .expect("finite frontier coordinates")
    });
    if let Some(&&(name, _, att, cost_rs)) = best {
        report.metric(
            "best_frontier_cost_savings_frac",
            1.0 - cost_rs / max_cost.max(f64::MIN_POSITIVE),
        );
        report.text(format!(
            "frontier: {name} attains {:.1}% (static_min {:.1}%, static_max \
             {:.1}%) at {cost_rs:.1} replica-s, {:.0}% of static_max's \
             {max_cost:.1}\n",
            att * 100.0,
            min_att * 100.0,
            max_att * 100.0,
            100.0 * cost_rs / max_cost.max(f64::MIN_POSITIVE),
        ));
    }

    // Degeneracy probe: a fixed pool re-run with an *armed but inert*
    // autoscaler (thresholds no observation can cross) must reproduce
    // the plain run bit for bit — arming the control loop alone may
    // not perturb the simulation.
    let interval = headline_interval.expect("headline cell swept");
    let probe_requests = (n_requests / 10).max(1_000);
    let probe_slo = SimDuration::from_secs_f64(headline_slo * (batch_service + 0.002));
    let probe_arrival = ArrivalProcess::Diurnal {
        base_rate,
        amplitude: AMPLITUDE,
        period: SimDuration::from_secs_f64(probe_requests as f64 / base_rate / PERIODS),
        flash_every: 0.0,
        flash_mean: 0.0,
        flash_mult: 1.0,
    };
    let probe_serve = serve_config(probe_arrival, probe_slo, probe_requests);
    let plain = world.run(cluster_config(probe_serve.clone(), MIN_REPLICAS, None));
    let inert = Some(AutoscaleConfig::inert(MIN_REPLICAS, interval));
    let armed = world.run(cluster_config(probe_serve, MIN_REPLICAS, inert));
    report.metric("inert_autoscaler_identical", identical(&plain, &armed));

    report.text(
        "reading the sweep: the diurnal mean alone (2.26x one replica with\n\
         flash crowds) overruns static_min's two replicas, so its backlog\n\
         compounds through every crest and attainment collapses; static_max\n\
         rides out even flash crowds but pays six replicas around the clock.\n\
         The autoscalers start from the same two replicas, pay a modeled\n\
         weight-reload delay on every scale-up, and drain before every\n\
         scale-down: reactive follows the queue up the crest a few control\n\
         ticks late, predictive extrapolates the ramp and commissions ahead\n\
         of it. Cost is the integral of the commissioned pool over the run\n\
         (replica-seconds) — the frontier is attainment bought per\n\
         replica-second, and the headline asserts some elastic policy beats\n\
         static_min's attainment without exceeding static_max's spend.",
    );
    report
}
