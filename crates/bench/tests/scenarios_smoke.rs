//! Smoke-tier integration test: every registered scenario must run,
//! produce a non-empty report with at least one named metric, and be
//! deterministic across repeated runs.

use lina_bench::{ScenarioCtx, REGISTRY};

#[test]
fn registry_is_nonempty_and_ids_unique() {
    assert!(!REGISTRY.is_empty());
    let mut ids: Vec<&str> = REGISTRY.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    let n = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), n, "duplicate scenario ids in registry");
}

#[test]
fn serving_scenarios_are_registered() {
    // Both serving experiments must be reachable from `reproduce`
    // (its --list and --only flags resolve through the same registry).
    for id in [
        "serve_load_sweep",
        "serve_autoscale",
        "serve_cluster",
        "serve_contention",
        "serve_faults",
        "serve_gray",
        "serve_resharding",
        "serve_affinity",
    ] {
        assert!(
            lina_bench::find(id).is_some(),
            "{id} missing from the scenario registry"
        );
    }
}

#[test]
fn every_scenario_runs_at_smoke_tier_and_is_deterministic() {
    let ctx = ScenarioCtx::smoke();
    for scenario in REGISTRY {
        let first = (scenario.run)(&ctx);
        assert!(
            !first.is_empty(),
            "scenario {} produced an empty report",
            scenario.id
        );
        assert!(
            !first.metrics().is_empty(),
            "scenario {} produced no named metrics",
            scenario.id
        );
        for m in first.metrics() {
            assert!(
                m.value.is_finite(),
                "scenario {} metric {} is not finite",
                scenario.id,
                m.name
            );
        }
        if scenario.id == "serve_cluster" {
            let headline = first
                .metrics()
                .iter()
                .find(|m| m.name == "rr_over_jsq_p99_high_load")
                .expect("serve_cluster reports the balancer headline metric");
            assert!(
                headline.value >= 1.0,
                "queue-aware routing must not lose the high-load tail: \
                 round-robin p99 / jsq p99 = {}",
                headline.value
            );
        }
        if scenario.id == "serve_faults" {
            let metric = |name: &str| {
                first
                    .metrics()
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("serve_faults reports {name}"))
                    .value
            };
            // Graceful degradation must strictly beat fail-fast on both
            // availability and SLO attainment at the default cell.
            assert!(
                metric("shed_minus_failfast_availability") > 0.0,
                "retry+failover+shedding must strictly improve availability"
            );
            assert!(
                metric("shed_minus_failfast_attainment") > 0.0,
                "retry+failover+shedding must strictly improve attainment"
            );
            // An empty fault schedule with an armed policy reproduces
            // the healthy path bit for bit.
            assert_eq!(
                metric("empty_schedule_identical"),
                1.0,
                "empty schedule must be bit-identical to the healthy path"
            );
            assert_eq!(metric("empty_schedule_p99_delta_ms"), 0.0);
        }
        if scenario.id == "serve_gray" {
            let metric = |name: &str| {
                first
                    .metrics()
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("serve_gray reports {name}"))
                    .value
            };
            // The phi detector must claw back at least half of the
            // p99 inflation the blind oracle arm suffers under the
            // gray straggler.
            assert!(
                metric("detector_recovers_oracle_gap_frac") >= 0.5,
                "the detector must recover at least half the gray p99 gap, got {}",
                metric("detector_recovers_oracle_gap_frac")
            );
            // Hedged dispatch must not lose tail latency on top of
            // detection.
            assert!(
                metric("hedged_over_unhedged_p99") >= 1.0,
                "hedging must not inflate the detector arm's p99, got {}",
                metric("hedged_over_unhedged_p99")
            );
            // Hedges only fire for genuinely late batches, so wasted
            // compute stays bounded.
            assert!(
                metric("hedge_wasted_compute_frac") <= 0.15,
                "hedge wasted-compute fraction too high: {}",
                metric("hedge_wasted_compute_frac")
            );
            // An armed-but-inert hedge runtime over the same gray
            // schedule reproduces the blind arm bit for bit.
            assert_eq!(
                metric("oracle_inert_hedging_identical"),
                1.0,
                "inert hedging must be bit-identical to the blind arm"
            );
        }
        if scenario.id == "serve_autoscale" {
            let metric = |name: &str| {
                first
                    .metrics()
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("serve_autoscale reports {name}"))
                    .value
            };
            // At least one autoscaling policy must strictly beat the
            // static-min pool on SLO attainment at no more than the
            // static-max pool's replica-second cost.
            assert_eq!(
                metric("frontier_dominates_static_min"),
                1.0,
                "no autoscaling policy dominated static_min on the frontier"
            );
            // An armed-but-inert autoscaler reproduces the fixed pool
            // bit for bit.
            assert_eq!(
                metric("inert_autoscaler_identical"),
                1.0,
                "inert autoscaler must be bit-identical to the fixed pool"
            );
        }
        if scenario.id == "serve_resharding" {
            let metric = |name: &str| {
                first
                    .metrics()
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("serve_resharding reports {name}"))
                    .value
            };
            // Proactive re-sharding must match or beat Lina's
            // epoch-based re-placement on p99 under the drifting trace.
            assert!(
                metric("reshard_over_epoch_p99") >= 1.0,
                "proactive re-sharding must not lose to epoch-based re-placement"
            );
            // An armed-but-inert re-sharder reproduces the fixed
            // cluster bit for bit.
            assert_eq!(
                metric("inert_resharding_identical"),
                1.0,
                "inert re-sharder must be bit-identical to the fixed cluster"
            );
        }
        if scenario.id == "serve_affinity" {
            let metric = |name: &str| {
                first
                    .metrics()
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("serve_affinity reports {name}"))
                    .value
            };
            // Affinity-aware placement must match or beat the
            // canonical layout's tail under the same locality pricing
            // at the strongest swept correlation.
            assert!(
                metric("affinity_over_independent_p99") >= 1.0,
                "affinity placement must not lose to the independent layout"
            );
            // An armed-but-canonical layered base with locality off
            // reproduces the plain cluster bit for bit.
            assert_eq!(
                metric("uniform_layered_identical"),
                1.0,
                "canonical layered base must be bit-identical to the plain run"
            );
        }
        if scenario.id == "serve_contention" {
            let headline = first
                .metrics()
                .iter()
                .find(|m| m.name == "contended_over_solo_p99")
                .expect("serve_contention reports the pricing-gap headline metric");
            assert!(
                headline.value >= 1.0,
                "network contention must not make the tail faster: \
                 contended p99 / solo p99 = {}",
                headline.value
            );
        }
        let second = (scenario.run)(&ctx);
        assert_eq!(
            first.render(),
            second.render(),
            "scenario {} rendered output is nondeterministic",
            scenario.id
        );
        assert_eq!(
            first.to_json().render_compact(),
            second.to_json().render_compact(),
            "scenario {} JSON report is nondeterministic",
            scenario.id
        );
    }
}
