//! Inter-layer expert affinity placement under locality-aware
//! all-to-all pricing: workload correlation × placement arm.
//!
//! The experiment: the gating model's `map_correlation` knob controls
//! how often a token's expert at layer `l` is determined by its expert
//! at layer `l-1` (a class that "moves with its group" follows the
//! canonical chain). The affinity arm profiles that structure offline
//! — [`AffinityStats`] counts per-layer-pair expert co-selections over
//! a held-out trace — and feeds it to the greedy
//! [`affinity_placement`] placer, which co-locates each expert with
//! the device sending it the most traffic. Every replica then serves
//! with locality-aware pricing: a token whose consecutive-layer
//! primary experts share a device skips the dispatch wire for that
//! hop, so co-located chains turn inter-layer all-to-alls into local
//! handoffs. The independent arm prices the same workload with the
//! same locality rule but the canonical one-expert-per-device layout,
//! which only rides self-chains — so the gap between the arms is
//! exactly the placement's doing. The headline metric
//! `affinity_over_independent_p99` divides the independent arm's p99
//! by the affinity arm's at the highest swept correlation (≥ 1:
//! affinity-aware placement does not lose the tail);
//! `uniform_layered_identical` re-runs a reduced trace with an *armed
//! but canonical* layered base (locality off) and demands a
//! bit-identical outcome.
//!
//! [`AffinityStats`]: lina_workload::AffinityStats
//! [`affinity_placement`]: lina_baselines::affinity_placement

use lina_baselines::{affinity_placement, InferScheme};
use lina_model::{ExpertPlacement, LayeredPlacement};
use lina_serve::{ArrivalProcess, BatcherConfig, ClusterConfig, ServeConfig};
use lina_simcore::{Report, SimDuration, Table};
use lina_workload::{AffinityStats, Mode, TokenSource, WorkloadSpec};

use crate::serving::{identical, ServeWorld};
use crate::ScenarioCtx;

/// Replica servers behind the balancer.
const REPLICAS: usize = 2;

/// Experts per layer == devices per replica: every expert has exactly
/// one home under both arms, so locality rides are decided purely by
/// whether the placement aligned consecutive layers' chains (a
/// replicated expert never rides — the planner cannot know which copy
/// serves a token).
const EXPERTS: usize = 8;

/// Offered load as a fraction of the plain pool's capacity: enough
/// headroom that the arms differ on dispatch-byte tails, not on a
/// saturation death spiral.
const LOAD: f64 = 0.6;

/// Held-out profiling trace: batches × tokens-per-device fed to the
/// affinity collector before serving starts (the paper's offline
/// profiling stage, repurposed for co-selection counts).
const PROFILE_BATCHES: usize = 8;
const PROFILE_TOKENS: usize = 512;

fn serve_config(rate: f64, slo: SimDuration, n_requests: usize) -> ServeConfig {
    // Uniform 256-token requests keep the capacity anchor exact.
    ServeConfig {
        batcher: BatcherConfig {
            max_batch_requests: 16,
            max_wait: SimDuration::from_millis(2),
        },
        slo,
        // The base placement governs dispatch under the static scheme;
        // scheduling arms would re-place per batch and hide it.
        ..ServeConfig::new(
            InferScheme::Baseline,
            ArrivalProcess::Poisson { rate },
            n_requests,
            0xAF11,
        )
    }
}

fn cluster_config(
    serve: ServeConfig,
    placement: Option<LayeredPlacement>,
    locality: bool,
) -> ClusterConfig {
    ClusterConfig {
        replicas: REPLICAS,
        placement,
        locality,
        ..ClusterConfig::single(serve)
    }
}

/// Profiles per-layer-pair co-selection counts from a held-out trace
/// of the given workload (same gating model, disjoint seed from the
/// serving stream).
fn profile_affinity(spec: &WorkloadSpec, layers: usize) -> AffinityStats {
    let mut src = TokenSource::new(spec, 1, 0x0AFF_11E7);
    let batches: Vec<_> = (0..PROFILE_BATCHES)
        .map(|_| src.sample_batch(EXPERTS, PROFILE_TOKENS, Mode::Inference))
        .collect();
    AffinityStats::from_batches(&batches, layers, EXPERTS)
}

/// Runs the experiment.
pub fn run(ctx: &ScenarioCtx) -> Report {
    let mut report = Report::new();
    let n_requests = match ctx.tier {
        crate::Tier::Full => (ctx.requests * 20).max(4_000),
        crate::Tier::Smoke => 1_500,
    };
    let mut world = ServeWorld::new(6, EXPERTS);
    let base_spec = world.spec.clone();
    let layers = base_spec.layers;
    let devices = world.topo.devices();

    // Anchor the offered load on the plain pool's capacity (canonical
    // placement, no locality pricing): every arm at every correlation
    // faces the same request rate, so only the dispatch pricing moves.
    let placeholder_slo = SimDuration::from_millis(60);
    let probe = serve_config(1.0, placeholder_slo, n_requests);
    let cap = world.capacity(cluster_config(probe, None, false));
    let rate = LOAD * cap;
    let batch_service = 16.0 * REPLICAS as f64 / cap;
    let slo = SimDuration::from_secs_f64(3.0 * (batch_service + 0.002));
    report.metric_unit("cluster_capacity", cap, "req/s");
    report.text(format!(
        "{REPLICAS} replicas at {:.0}% of the plain pool's ~{cap:.0} req/s, \
         {n_requests} requests per cell, SLO {slo}\n",
        LOAD * 100.0,
    ));

    let canonical =
        LayeredPlacement::uniform(ExpertPlacement::one_per_device(EXPERTS, devices), layers);

    // Sweep: inter-layer map correlation x placement arm.
    let correlations = ctx.pick(&[0.0, 0.45, 0.9], &[0.0, 0.9]);
    let headline_corr = *correlations.last().expect("nonempty correlation sweep");
    let mut headline: Option<(f64, f64)> = None;
    for &corr in &correlations {
        world.spec = spec_with(&base_spec, corr);
        let stats = profile_affinity(&world.spec, layers);
        let affinity = affinity_placement(&stats, layers, devices, 1);
        let mut table = Table::new(
            format!(
                "map correlation {corr:.2} (profiled affinity score {:.3})",
                stats.affinity_score()
            ),
            &["arm", "p99", "SLO att.", "goodput", "local frac"],
        );
        let arms: [(&str, Option<LayeredPlacement>, bool); 3] = [
            ("canonical_nolocal", None, false),
            ("independent", Some(canonical.clone()), true),
            ("affinity", Some(affinity), true),
        ];
        let mut arm_p99 = [0.0f64; 3];
        for (i, (name, placement, locality)) in arms.into_iter().enumerate() {
            let serve = serve_config(rate, slo, n_requests);
            let out = world.run(cluster_config(serve, placement, locality));
            let r = out.report();
            let tag = format!("{name}_c{}", (corr * 100.0).round() as u32);
            report.metric_unit(format!("p99_ms_{tag}"), r.p99.as_millis_f64(), "ms");
            report.metric_unit(format!("attainment_{tag}"), r.attainment, "frac");
            report.metric_unit(
                format!("locality_fraction_{tag}"),
                out.locality_fraction(),
                "frac",
            );
            arm_p99[i] = r.p99.as_secs_f64();
            table.row(&[
                name.to_string(),
                r.p99.to_string(),
                format!("{:.1}%", r.attainment * 100.0),
                format!("{:.0} req/s", r.goodput),
                format!("{:.1}%", out.locality_fraction() * 100.0),
            ]);
        }
        if corr == headline_corr {
            headline = Some((arm_p99[1], arm_p99[2]));
        }
        report.table(table);
    }

    // Headline: the canonical layout's tail over the affinity layout's
    // under the same locality pricing at the strongest correlation
    // (>= 1: co-locating the profiled chains wins the tail).
    let (independent_p99, affinity_p99) = headline.expect("headline correlation swept");
    report.metric(
        "affinity_over_independent_p99",
        independent_p99 / affinity_p99.max(f64::MIN_POSITIVE),
    );
    report.text(format!(
        "headline: affinity p99 {:.1} ms vs independent {:.1} ms at \
         correlation {headline_corr:.2}\n",
        affinity_p99 * 1e3,
        independent_p99 * 1e3,
    ));

    // Degeneracy probe: a reduced trace re-run with an *armed but
    // canonical* layered base (uniform one-expert-per-device at every
    // layer, locality off) must reproduce the plain run bit for bit —
    // the armed code path prices through an explicit layered
    // placement, yet nothing observable may move.
    let probe_requests = (n_requests / 5).max(500);
    world.spec = spec_with(&base_spec, headline_corr);
    let probe_serve = serve_config(rate, slo, probe_requests);
    let plain = world.run(cluster_config(probe_serve.clone(), None, false));
    let armed = world.run(cluster_config(probe_serve, Some(canonical), false));
    report.metric("uniform_layered_identical", identical(&plain, &armed));

    report.text(
        "reading the sweep: the no-locality arm prices every dispatch\n\
         over the wire regardless of placement, so its tail is flat in\n\
         the correlation. Turning locality pricing on under the\n\
         canonical layout only removes the accidental rides (a token\n\
         whose consecutive experts happen to share a home). The\n\
         affinity arm aligns each layer's experts with the devices that\n\
         fed them in the profile, so as the map correlation grows the\n\
         co-selected chains collapse onto single devices, the local\n\
         fraction climbs, and the dispatch all-to-alls shed the bytes\n\
         the tail was queuing on. Even at zero map correlation the\n\
         arms do not fully tie: the gating model's class canonicals and\n\
         per-batch topic bursts correlate consecutive layers on their\n\
         own, and the profiler picks that residual structure up too —\n\
         the sweep isolates how much the *map* correlation adds on\n\
         top. The gain is workload structure, not a free lunch.",
    );
    report
}

/// The base workload with the swept inter-layer correlation.
fn spec_with(base: &WorkloadSpec, corr: f64) -> WorkloadSpec {
    let mut spec = base.clone();
    spec.map_correlation = corr;
    spec
}
