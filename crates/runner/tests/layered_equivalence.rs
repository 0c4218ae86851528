//! Zero-tolerance equivalence pins for the layered-placement planner
//! entry point.
//!
//! [`plan_batch_layered`] generalizes [`plan_batch`] from the canonical
//! one-expert-per-device map to a first-class per-layer placement plus
//! an optional locality-aware pricing mode. The contract: with
//! locality off, both `base: None` and a [`LayeredPlacement::uniform`]
//! base of the canonical map must reproduce [`plan_batch`] *exactly* —
//! every duration, every collective spec, every flag.
//! The comparison hashes the full `Debug` rendering of the plan, so
//! any field drift fails.

use lina_baselines::InferScheme;
use lina_core::{PopularityEstimator, TwoPhaseConfig, TwoPhaseScheduler};
use lina_model::{CostModel, DeviceSpec, ExpertPlacement, LayeredPlacement, MoeModelConfig};
use lina_netsim::{ClusterSpec, Topology};
use lina_runner::inference::InferenceConfig;
use lina_runner::{plan_batch, plan_batch_layered, ExecutionPlan};
use lina_workload::{Mode, TokenBatch, TokenSource, WorkloadSpec};

fn fingerprint(plan: &ExecutionPlan) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in format!("{plan:?}").bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn world(experts: usize) -> (CostModel, Topology, TwoPhaseScheduler, Vec<TokenBatch>) {
    let model = MoeModelConfig::transformer_xl(6, experts);
    let layers = model.layers;
    let spec = WorkloadSpec::enwik8(experts, layers);
    let topo = Topology::new(ClusterSpec::with_total_gpus(experts));
    let cost = CostModel::new(DeviceSpec::a100_inference(), model.for_inference());
    let mut profile_src = TokenSource::new(&spec, 1, 0xBEEF);
    let profile: Vec<TokenBatch> = (0..4)
        .map(|_| profile_src.sample_batch(experts, 1024, Mode::Train))
        .collect();
    let estimator = PopularityEstimator::profile(&profile, 3);
    let scheduler = TwoPhaseScheduler::new(TwoPhaseConfig::paper_defaults(experts), estimator);
    let mut infer_src = TokenSource::new(&spec, 1, 0xCAFE);
    let batches = (0..3)
        .map(|_| infer_src.sample_batch(experts, 1024, Mode::Inference))
        .collect();
    (cost, topo, scheduler, batches)
}

/// `base: None, locality: false` is `plan_batch`, bit for bit, for
/// every scheme.
#[test]
fn layered_none_matches_plan_batch() {
    for experts in [4usize, 8] {
        let (cost, topo, scheduler, batches) = world(experts);
        for scheme in InferScheme::all() {
            let config = InferenceConfig { scheme, top_k: 1 };
            for batch in &batches {
                let plain = plan_batch(&cost, &topo, &config, Some(&scheduler), batch);
                let layered =
                    plan_batch_layered(&cost, &topo, &config, Some(&scheduler), batch, None, false);
                assert_eq!(
                    fingerprint(&plain),
                    fingerprint(&layered),
                    "scheme {} experts {experts}: layered(None) diverged from plan_batch",
                    scheme.name()
                );
                assert_eq!((layered.local_hops, layered.routed_hops), (0, 0));
            }
        }
    }
}

/// A uniform layered base of the canonical one-expert-per-device map
/// with locality off is `plan_batch`, bit for bit, for every scheme.
#[test]
fn uniform_layered_matches_single_map() {
    for experts in [4usize, 8] {
        let (cost, topo, scheduler, batches) = world(experts);
        let uniform = LayeredPlacement::uniform(
            ExpertPlacement::one_per_device(experts, experts),
            cost.model.layers,
        );
        for scheme in InferScheme::all() {
            let config = InferenceConfig { scheme, top_k: 1 };
            for batch in &batches {
                let plain = plan_batch(&cost, &topo, &config, Some(&scheduler), batch);
                let layered = plan_batch_layered(
                    &cost,
                    &topo,
                    &config,
                    Some(&scheduler),
                    batch,
                    Some(&uniform),
                    false,
                );
                assert_eq!(
                    fingerprint(&plain),
                    fingerprint(&layered),
                    "scheme {} experts {experts}: uniform layered diverged",
                    scheme.name()
                );
            }
        }
    }
}

/// Locality pricing only removes dispatch bytes: with every expert on
/// every token's home unreachable (one expert per device, tokens
/// spread), turning locality on must never *slow* a plan, and on a
/// single-device topology every hop is local.
#[test]
fn locality_counts_hops_and_never_adds_bytes() {
    let experts = 8usize;
    let (cost, topo, scheduler, batches) = world(experts);
    let base = LayeredPlacement::uniform(
        ExpertPlacement::one_per_device(experts, experts),
        cost.model.layers,
    );
    for scheme in InferScheme::all() {
        let config = InferenceConfig { scheme, top_k: 1 };
        for batch in &batches {
            let off = plan_batch_layered(
                &cost,
                &topo,
                &config,
                Some(&scheduler),
                batch,
                Some(&base),
                false,
            );
            let on = plan_batch_layered(
                &cost,
                &topo,
                &config,
                Some(&scheduler),
                batch,
                Some(&base),
                true,
            );
            assert_eq!((off.local_hops, off.routed_hops), (0, 0));
            if scheme == InferScheme::Ideal {
                // Ideal's balanced gate is synthetic routing: locality
                // pricing is disabled, so the plans are identical.
                assert_eq!(fingerprint(&off), fingerprint(&on));
                continue;
            }
            assert!(
                on.local_hops + on.routed_hops > 0,
                "locality pricing must count every primary hop"
            );
            for (l_off, l_on) in off.layers.iter().zip(&on.layers) {
                let bytes = |spec: &Option<lina_netsim::CollectiveSpec>| match spec {
                    Some(lina_netsim::CollectiveSpec::AllToAll { sizes, .. }) => {
                        sizes.iter().flatten().sum::<f64>()
                    }
                    _ => 0.0,
                };
                assert!(
                    bytes(&l_on.dispatch) <= bytes(&l_off.dispatch),
                    "locality pricing added dispatch bytes"
                );
                assert_eq!(
                    bytes(&l_on.combine_a2a),
                    bytes(&l_off.combine_a2a),
                    "combine pricing must be untouched"
                );
            }
        }
    }
}
