//! Gray-failure detection and hedged dispatch: gray intensity ×
//! {blind oracle, phi detector, detector + hedging}.
//!
//! The experiment: the three-replica cluster runs behind the
//! round-robin balancer at a moderate load, and a scripted
//! gray fault slows replica 0 across the middle of the arrival span —
//! the replica still answers, just `compute_scale`× slower, and the
//! control plane is never told (the oracle health bit stays up). Three
//! arms face the same schedule: `blind` keeps the oracle detector and
//! routes a full share of traffic into the straggler; `detector` arms
//! the phi-accrual suspicion estimator so the balancer diverts around
//! it as the score rises; `detector+hedged` adds quantile-delay hedged
//! dispatch so batches already stuck on the straggler are re-issued to
//! the least-suspected alternate, first completion winning. A healthy
//! run (no fault) bounds the recoverable gap. Headline metrics at the
//! default intensity: `detector_recovers_oracle_gap_frac` — the
//! fraction of the blind arm's p99 inflation the detector claws back;
//! `hedged_over_unhedged_p99` — the tail ratio hedging buys on top of
//! detection (≥ 1: hedges only fire for batches detection alone cannot
//! rescue); and `hedge_wasted_compute_frac` — the fraction of executor
//! time burned on losing flights, which must stay small. A degeneracy
//! probe pins the contract that an armed-but-inert hedge runtime over
//! the same gray schedule reproduces the blind arm bit for bit.
//!
//! The hedge delay is median-based (quantile 0.5): under a gray
//! straggler the observed service distribution is bimodal, and a high
//! quantile would land in the straggler's own band and never fire.

use lina_baselines::InferScheme;
use lina_serve::{
    ArrivalProcess, BalancerKind, ClusterConfig, DegradationPolicy, FaultEvent, FaultKind,
    FaultPlan, FaultSchedule, HealthConfig, HedgeConfig, ServeConfig,
};
use lina_simcore::{Report, SimDuration, SimTime, Table};

use crate::serving::{identical, sized, ServeWorld};
use crate::ScenarioCtx;

/// Replica servers behind the balancer.
const REPLICAS: usize = 3;

/// Offered load as a fraction of aggregate capacity: low enough that
/// the two clean replicas can absorb the diverted share.
const LOAD: f64 = 0.55;

/// The sweep cell the headline metrics are read from (present at both
/// tiers).
const DEFAULT_SCALE: f64 = 8.0;

fn serve_config(rate: f64, n_requests: usize, tokens_per_request: usize) -> ServeConfig {
    ServeConfig {
        tokens_per_request,
        token_spread: 0.3,
        drift_period: Some((n_requests / 6).max(1)),
        reestimate_every: Some(4),
        // Steady Poisson arrivals: the transient under study is the
        // gray episode, not the arrival process.
        ..ServeConfig::new(
            InferScheme::Lina,
            ArrivalProcess::Poisson { rate },
            n_requests,
            0x64A7,
        )
    }
}

fn cluster_config(
    serve: ServeConfig,
    faults: FaultPlan,
    health: HealthConfig,
    hedging: Option<HedgeConfig>,
) -> ClusterConfig {
    ClusterConfig {
        replicas: REPLICAS,
        // Round-robin: the balancer with no queue-depth feedback, so
        // health is the *only* signal that can divert traffic — the
        // cleanest read on what detection alone buys. (Queue-aware
        // balancers partially self-correct around a straggler by
        // construction.)
        balancer: BalancerKind::RoundRobin,
        faults,
        health,
        hedging,
        ..ClusterConfig::single(serve)
    }
}

/// The phi-accrual detector with a stretched suspicion half-life:
/// round-robin consults nothing but the routable bit, so the score
/// must hold above the exclusion threshold across the straggler's
/// (long) inter-completion gaps or the balancer resumes feeding it.
fn detector() -> HealthConfig {
    HealthConfig {
        half_life: SimDuration::from_millis(50),
        ..HealthConfig::phi_accrual()
    }
}

/// Median-based hedging: fire at 1.5× the observed median after a
/// short warm-up.
fn hedge() -> HedgeConfig {
    HedgeConfig {
        quantile: 0.5,
        multiplier: 1.5,
        min_samples: 8,
    }
}

/// One gray episode on replica 0 across the back half of the span:
/// onset after the detector's baseline has warmed up on clean samples
/// (16 batch observations), clear near the end so the recovery tail is
/// visible.
fn gray_script(scale: f64, span: SimDuration) -> FaultSchedule {
    let onset = SimTime::ZERO + span.mul_f64(0.4);
    let clear = SimTime::ZERO + span.mul_f64(0.9);
    FaultSchedule::from_script(vec![
        FaultEvent {
            at: onset,
            replica: 0,
            kind: FaultKind::GrayDegrade {
                compute_scale: scale,
                // Intensity k throttles the link to 1/k too: gray
                // hardware faults (thermal throttling, a NIC
                // renegotiated to a lower rate, a degraded PCIe lane)
                // rarely hit compute alone, and Lina batches are
                // all-to-all-dominated, so the link is where a gray
                // episode actually bites.
                nic_scale: 1.0 / scale,
            },
        },
        FaultEvent {
            at: clear,
            replica: 0,
            kind: FaultKind::GrayClear,
        },
    ])
}

/// Runs the experiment.
pub fn run(ctx: &ScenarioCtx) -> Report {
    let mut report = Report::new();
    let (n_requests, tokens_per_request) =
        sized(ctx, ctx.requests * REPLICAS, ctx.requests * REPLICAS * 6);
    let world = ServeWorld::new(6, 8);

    // Anchor on aggregate capacity, then measure the healthy arrival
    // span so the scripted episode lands mid-run at every tier.
    let capacity = world.capacity(cluster_config(
        serve_config(1.0, n_requests, tokens_per_request),
        FaultPlan::none(),
        HealthConfig::oracle(),
        None,
    ));
    let rate = LOAD * capacity;
    let serve = serve_config(rate, n_requests, tokens_per_request);
    let span = world.span(serve.clone());
    report.metric_unit("cluster_capacity", capacity, "req/s");
    report.text(format!(
        "{REPLICAS} replicas at {:.0}% load ({rate:.0} req/s), {n_requests} \
         requests over a {span} healthy span; a scripted gray episode slows \
         replica 0 over the middle 60% of the span without tripping its \
         health bit\n",
        LOAD * 100.0
    ));

    // Healthy bound for the recoverable gap.
    let healthy = world.run(cluster_config(
        serve.clone(),
        FaultPlan::none(),
        HealthConfig::oracle(),
        None,
    ));
    let p99_healthy = healthy.report().p99.as_millis_f64();
    report.metric_unit("p99_ms_healthy", p99_healthy, "ms");

    let policy = DegradationPolicy::retry_failover(None);
    let scales = ctx.pick(&[2.0, 4.0, DEFAULT_SCALE], &[DEFAULT_SCALE]);
    let mut headline: Option<(f64, f64, f64, f64)> = None;
    let mut blind = None;
    for &scale in &scales {
        let schedule = gray_script(scale, span);
        let arms: [(&str, HealthConfig, Option<HedgeConfig>); 3] = [
            ("blind", HealthConfig::oracle(), None),
            ("detector", detector(), None),
            ("detector_hedged", detector(), Some(hedge())),
        ];
        let mut table = Table::new(
            format!("{scale:.0}x gray compute on replica 0"),
            &[
                "arm",
                "p99",
                "SLO att.",
                "gray share",
                "hedges",
                "won",
                "wasted",
            ],
        );
        let mut cell: Vec<(&str, f64, f64)> = Vec::new();
        for (arm, health, hedging) in arms {
            let hedged = hedging.is_some();
            let faults = FaultPlan {
                schedule: schedule.clone(),
                policy,
            };
            let out = world.run(cluster_config(serve.clone(), faults, health, hedging));
            let r = out.report();
            let p99 = r.p99.as_millis_f64();
            let gray_share = out.requests_per_replica[0] as f64 / r.requests as f64;
            let tag = format!("{arm}_x{scale:.0}");
            report.metric_unit(format!("p99_ms_{tag}"), p99, "ms");
            report.metric_unit(format!("attainment_{tag}"), r.attainment, "frac");
            report.metric_unit(format!("gray_replica_share_{tag}"), gray_share, "frac");
            if hedged {
                report.metric(format!("hedges_issued_{tag}"), out.hedges_issued as f64);
                report.metric(format!("hedges_won_{tag}"), out.hedges_won as f64);
                report.metric_unit(
                    format!("hedge_wasted_frac_{tag}"),
                    out.hedge_wasted_frac,
                    "frac",
                );
            }
            cell.push((arm, p99, out.hedge_wasted_frac));
            table.row(&[
                arm.into(),
                r.p99.to_string(),
                format!("{:.1}%", r.attainment * 100.0),
                format!("{:.1}%", gray_share * 100.0),
                out.hedges_issued.to_string(),
                out.hedges_won.to_string(),
                format!("{:.1}%", out.hedge_wasted_frac * 100.0),
            ]);
            if scale == DEFAULT_SCALE && arm == "blind" {
                blind = Some(out);
            }
        }
        report.table(table);
        if scale == DEFAULT_SCALE {
            let p99_of = |name: &str| {
                cell.iter()
                    .find(|&&(n, _, _)| n == name)
                    .copied()
                    .expect("default cell swept")
            };
            let (_, p99_blind, _) = p99_of("blind");
            let (_, p99_det, _) = p99_of("detector");
            let (_, p99_hedged, wasted) = p99_of("detector_hedged");
            headline = Some((p99_blind, p99_det, p99_hedged, wasted));
        }
    }

    // Headlines at the default intensity.
    let (p99_blind, p99_det, p99_hedged, wasted) = headline.expect("default scale swept");
    let gap = p99_blind - p99_healthy;
    let recovered = if gap > 0.0 {
        (p99_blind - p99_det) / gap
    } else {
        1.0
    };
    report.metric("detector_recovers_oracle_gap_frac", recovered);
    report.metric("hedged_over_unhedged_p99", p99_det / p99_hedged);
    report.metric("hedge_wasted_compute_frac", wasted);

    // Degeneracy probe: the oracle detector with an armed hedge
    // runtime that can never reach its sample floor must reproduce the
    // blind arm at the default intensity bit for bit.
    let blind = blind.expect("default scale swept");
    let faults = FaultPlan {
        schedule: gray_script(DEFAULT_SCALE, span),
        policy,
    };
    let inert = world.run(cluster_config(
        serve,
        faults,
        HealthConfig::oracle(),
        Some(HedgeConfig {
            quantile: 0.95,
            multiplier: 2.0,
            min_samples: usize::MAX,
        }),
    ));
    report.metric("oracle_inert_hedging_identical", identical(&blind, &inert));

    report.text(
        "reading the sweep: the blind arm keeps trusting the oracle health\n\
         bit, so the balancer routes a full share of traffic into the slowed\n\
         replica for the whole episode and the tail inflates with the gray\n\
         intensity. The detector arm infers suspicion from observed batch\n\
         latencies (phi-accrual over an EWMA vs the warmed-up baseline) and\n\
         diverts new work around the straggler within a few batches of\n\
         onset; what it cannot rescue are batches already in flight there,\n\
         which is exactly the tail hedged dispatch attacks — a median-based\n\
         hedge delay re-issues stuck batches to the least-suspected\n\
         alternate and the first completion wins. Wasted compute stays low\n\
         because hedges only fire for batches whose primary is genuinely\n\
         late, so the loser is usually the straggler's flight.",
    );
    report
}
