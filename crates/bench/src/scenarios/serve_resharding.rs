//! Proactive expert re-sharding under skew drift: drift rate × policy
//! × transfer cost on drifting popularity traces.
//!
//! The experiment: the workload's Zipf class ranking rotates every
//! `n_requests / phases` requests, so the hot experts change while the
//! cluster serves. Lina's answer is *epoch-based*: the estimating
//! scheme re-profiles its popularity estimator every few batches and
//! the two-phase scheduler re-places experts against the refreshed
//! profile — but between epochs the profile is stale, so every
//! mis-estimated layer falls back to the fine-tune re-schedule (a full
//! blocking schedule plus a late weight swap). The proactive arm keeps
//! the scheme static (Baseline, no estimation, no scheduling overhead)
//! and instead arms the threshold re-sharding control loop
//! ([`ReshardPolicyKind::Threshold`]): an
//! online per-expert load monitor feeds hot/cold watermarks, a hot
//! expert gains a replica on the least-crowded device (dispatch then
//! splits its tokens across the replicas), a cold replicated expert
//! loses one, and every weight-moving actuation charges the modeled
//! PCIe transfer to all replicas. The headline metric
//! `reshard_over_epoch_p99` divides the epoch arm's p99 by the best
//! proactive cell's (≥ 1: continuous re-sharding beats epoch-based
//! re-placement under drift); `inert_resharding_identical` re-runs a
//! reduced trace with an *armed but inert* re-sharder and demands a
//! bit-identical outcome.

use lina_baselines::InferScheme;
use lina_serve::{
    ArrivalProcess, BalancerKind, BatcherConfig, ClusterConfig, ReshardConfig, ReshardPolicyKind,
    ServeConfig,
};
use lina_simcore::{Report, SimDuration, Table};

use crate::serving::{identical, ServeWorld};
use crate::ScenarioCtx;

/// Replica servers behind the balancer.
const REPLICAS: usize = 2;

/// Experts per layer — deliberately half the device count, so the
/// static placement leaves spare devices and re-sharding has somewhere
/// to put a hot expert's replica that is not already busy (a replica
/// co-hosted on a loaded device pays the inter-expert weight swap,
/// which at serving batch sizes costs more than the split saves).
const EXPERTS: usize = 4;

/// Devices in each replica's topology.
const DEVICES: usize = 8;

/// Offered load as a fraction of the static pool's capacity: enough
/// headroom that the arms differ on service-time tails, not on a
/// saturation death spiral.
const LOAD: f64 = 0.6;

/// The epoch arm re-profiles its estimator every this many batches —
/// roughly once per drift phase at the headline drift rate, the
/// epoch-based re-placement cadence under study.
const EPOCH_BATCHES: usize = 16;

/// Re-sharding control ticks per drift phase: the proactive loop gets
/// a handful of chances to react inside each phase.
const TICKS_PER_PHASE: f64 = 8.0;

/// Batches the re-sharder's load monitor holds.
const MONITOR_WINDOW: usize = 8;

fn serve_config(
    scheme: InferScheme,
    reestimate_every: Option<usize>,
    drift_period: usize,
    rate: f64,
    slo: SimDuration,
    n_requests: usize,
) -> ServeConfig {
    // Uniform 256-token requests keep the capacity anchor exact.
    ServeConfig {
        batcher: BatcherConfig {
            max_batch_requests: 16,
            max_wait: SimDuration::from_millis(2),
        },
        slo,
        drift_period: Some(drift_period),
        reestimate_every,
        ..ServeConfig::new(scheme, ArrivalProcess::Poisson { rate }, n_requests, 0x5A2D)
    }
}

fn cluster_config(serve: ServeConfig, resharding: Option<ReshardConfig>) -> ClusterConfig {
    ClusterConfig {
        replicas: REPLICAS,
        balancer: BalancerKind::JoinShortestQueue,
        resharding,
        ..ClusterConfig::single(serve)
    }
}

fn threshold(transfer_cost: f64, interval: SimDuration) -> ReshardConfig {
    ReshardConfig {
        policy: ReshardPolicyKind::Threshold {
            // The monitor aggregates token selections across layers,
            // which flattens per-layer skew: trip just above the fair
            // share, and keep the cold watermark low enough that a
            // fresh replica (which halves the per-replica share) is
            // not immediately evicted back.
            hot: 1.1,
            cold: 0.5,
            hysteresis: 1,
            transfer_budget: 2,
        },
        interval,
        window: MONITOR_WINDOW,
        transfer_cost,
    }
}

/// One cell of the policy sweep.
struct PolicyCell {
    name: String,
    scheme: InferScheme,
    reestimate_every: Option<usize>,
    resharding: Option<ReshardConfig>,
    proactive: bool,
}

fn policy_cells(transfer_costs: &[f64], interval: SimDuration) -> Vec<PolicyCell> {
    let mut cells = vec![
        PolicyCell {
            name: "static".into(),
            scheme: InferScheme::Baseline,
            reestimate_every: None,
            resharding: None,
            proactive: false,
        },
        PolicyCell {
            name: "epoch_lina".into(),
            scheme: InferScheme::Lina,
            reestimate_every: Some(EPOCH_BATCHES),
            resharding: None,
            proactive: false,
        },
    ];
    for &tc in transfer_costs {
        cells.push(PolicyCell {
            name: format!("threshold_tx{}", (tc * 100.0).round() as u32),
            scheme: InferScheme::Baseline,
            reestimate_every: None,
            resharding: Some(threshold(tc, interval)),
            proactive: true,
        });
    }
    cells
}

/// Runs the experiment.
pub fn run(ctx: &ScenarioCtx) -> Report {
    let mut report = Report::new();
    // Enough requests that every drift phase spans several monitoring
    // windows and re-estimation epochs even at smoke tier.
    let n_requests = match ctx.tier {
        crate::Tier::Full => (ctx.requests * 20).max(4_000),
        crate::Tier::Smoke => 2_000,
    };
    let world = ServeWorld {
        topo: crate::topo(DEVICES),
        ..ServeWorld::new(6, EXPERTS)
    };

    // Anchor the offered load on the static pool's capacity (a full
    // skewed batch under the one-expert-per-device placement, served
    // back to back): the drift hurts every arm from the same baseline.
    let placeholder_slo = SimDuration::from_millis(60);
    let probe = serve_config(
        InferScheme::Baseline,
        None,
        n_requests,
        1.0,
        placeholder_slo,
        n_requests,
    );
    let cap = world.capacity(cluster_config(probe, None));
    let rate = LOAD * cap;
    let batch_service = 16.0 * REPLICAS as f64 / cap;
    let slo = SimDuration::from_secs_f64(3.0 * (batch_service + 0.002));
    report.metric_unit("cluster_capacity", cap, "req/s");
    report.text(format!(
        "{REPLICAS} replicas at {:.0}% of the static pool's ~{cap:.0} req/s, \
         {n_requests} requests per cell, SLO {slo}\n",
        LOAD * 100.0,
    ));

    // Sweep: drift rate (phases per run) x policy x transfer cost.
    let phase_counts = ctx.pick(&[4usize, 8, 16], &[8]);
    let transfer_costs = ctx.pick(&[0.0, 1.0, 4.0], &[0.25, 1.0]);
    let headline_phases = *phase_counts.last().expect("nonempty drift sweep");
    let mut headline_epoch_p99 = None;
    let mut headline_best: Option<(String, f64, usize, usize, usize)> = None;
    let mut headline_interval = None;
    for &phases in &phase_counts {
        let drift_period = (n_requests / phases).max(1);
        let phase_time = drift_period as f64 / rate;
        let interval = SimDuration::from_secs_f64(phase_time / TICKS_PER_PHASE);
        let mut table = Table::new(
            format!(
                "{phases} drift phases ({drift_period} requests each), \
                 re-shard tick every {interval}"
            ),
            &[
                "policy", "p99", "SLO att.", "goodput", "repl", "evict", "migr",
            ],
        );
        for cell in policy_cells(&transfer_costs, interval) {
            let serve = serve_config(
                cell.scheme,
                cell.reestimate_every,
                drift_period,
                rate,
                slo,
                n_requests,
            );
            let out = world.run(cluster_config(serve, cell.resharding.clone()));
            let r = out.report();
            let tag = format!("{}_d{phases}", cell.name);
            report.metric_unit(format!("p99_ms_{tag}"), r.p99.as_millis_f64(), "ms");
            report.metric_unit(format!("attainment_{tag}"), r.attainment, "frac");
            if cell.proactive {
                report.metric(
                    format!("reshard_actions_{tag}"),
                    (out.replications + out.evictions + out.migrations) as f64,
                );
            }
            if phases == headline_phases {
                let p99 = r.p99.as_secs_f64();
                if cell.name == "epoch_lina" {
                    headline_epoch_p99 = Some(p99);
                }
                let beats_best = match &headline_best {
                    Some((_, best, _, _, _)) => p99 < *best,
                    None => true,
                };
                if cell.proactive && beats_best {
                    headline_best = Some((
                        cell.name.clone(),
                        p99,
                        out.replications,
                        out.evictions,
                        out.migrations,
                    ));
                }
                headline_interval = Some(interval);
            }
            table.row(&[
                cell.name.clone(),
                r.p99.to_string(),
                format!("{:.1}%", r.attainment * 100.0),
                format!("{:.0} req/s", r.goodput),
                out.replications.to_string(),
                out.evictions.to_string(),
                out.migrations.to_string(),
            ]);
        }
        report.table(table);
    }

    // Headline: the epoch arm's tail over the best proactive cell's at
    // the fastest swept drift (>= 1: continuous re-sharding wins).
    let epoch_p99 = headline_epoch_p99.expect("epoch arm swept at the headline drift");
    let (best_name, best_p99, repl, evict, migr) =
        headline_best.expect("a proactive cell swept at the headline drift");
    report.metric(
        "reshard_over_epoch_p99",
        epoch_p99 / best_p99.max(f64::MIN_POSITIVE),
    );
    report.text(format!(
        "headline: {best_name} p99 {:.1} ms vs epoch_lina {:.1} ms at \
         {headline_phases} drift phases ({repl} replications, {evict} \
         evictions, {migr} migrations)\n",
        best_p99 * 1e3,
        epoch_p99 * 1e3,
    ));

    // Degeneracy probe: a reduced trace re-run with an *armed but
    // inert* re-sharder (the control loop ticks and observes, the
    // policy never acts) must reproduce the plain run bit for bit.
    let interval = headline_interval.expect("headline cell swept");
    let probe_requests = (n_requests / 10).max(1_000);
    let probe_drift = (probe_requests / headline_phases).max(1);
    let probe_serve = serve_config(
        InferScheme::Baseline,
        None,
        probe_drift,
        rate,
        slo,
        probe_requests,
    );
    let plain = world.run(cluster_config(probe_serve.clone(), None));
    let inert = Some(ReshardConfig::inert(interval));
    let armed = world.run(cluster_config(probe_serve, inert));
    report.metric("inert_resharding_identical", identical(&plain, &armed));

    report.text(
        "reading the sweep: the static arm pins every rotation's hot\n\
         expert to one device, so its p99 carries that device's serial\n\
         expert queue through the whole run. The epoch arm (Lina +\n\
         periodic re-estimation) re-places well right after each\n\
         re-profile, but between epochs the estimate trails the drift and\n\
         every mis-estimated layer pays the blocking fine-tune\n\
         re-schedule plus a late weight swap. The proactive arm watches\n\
         per-expert load continuously: a hot expert gains a replica\n\
         within a couple of control ticks (dispatch splits its tokens\n\
         across the copies), cold replicas are evicted for free, and the\n\
         modeled PCIe transfer briefly stalls every replica on each\n\
         weight move — the transfer-cost sweep shows the amortization\n\
         holding until transfers cost several times the real reload.",
    );
    report
}
