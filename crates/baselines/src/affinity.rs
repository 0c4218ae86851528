//! Affinity-aware expert placement (ExFlow/MoETuner-style).
//!
//! [`affinity_placement`] turns measured inter-layer co-selection
//! counts ([`AffinityStats`]) into a per-layer
//! [`LayeredPlacement`]: layer 0 spreads experts round-robin, and each
//! deeper layer greedily co-locates every expert with the device that
//! already hosts the predecessors sending it the most traffic, under a
//! per-device capacity. Tokens that follow a co-located chain then
//! skip the dispatch wire entirely under the runner's locality-aware
//! all-to-all pricing, so high `map_correlation` workloads turn their
//! inter-layer all-to-alls into local handoffs.

use lina_model::{ExpertPlacement, LayeredPlacement};
use lina_netsim::DeviceId;
use lina_workload::AffinityStats;

/// Greedy graph-partition co-location of high-affinity expert chains.
///
/// Layer 0 places expert `e` on device `e % devices` (the canonical
/// round-robin spread). For every deeper layer, experts are taken in
/// descending order of incoming co-selection traffic (ties toward the
/// lower expert id) and assigned to the device whose layer-`l` experts
/// send them the most tokens, subject to `per_device` capacity; when
/// the preferred devices are full — or an expert saw no traffic — it
/// falls back to the least-loaded device (ties toward the lower id).
/// Every expert gets exactly one host per layer.
///
/// # Panics
///
/// Panics when the capacity cannot hold the experts
/// (`devices * per_device < experts`) or `layers == 0`.
pub fn affinity_placement(
    stats: &AffinityStats,
    layers: usize,
    devices: usize,
    per_device: usize,
) -> LayeredPlacement {
    let experts = stats.experts();
    assert!(layers > 0, "affinity_placement: zero layers");
    assert!(
        devices * per_device >= experts,
        "affinity_placement: {experts} experts never fit {devices} x {per_device} slots"
    );
    let round_robin = |e: usize| e % devices;
    let mut per_layer: Vec<Vec<usize>> = Vec::with_capacity(layers);
    per_layer.push((0..experts).map(round_robin).collect());
    for l in 1..layers {
        let prev = &per_layer[l - 1];
        // No measured hop (model deeper than the profiled paths):
        // repeat the previous layer's layout so chains stay co-located.
        if l > stats.hops() {
            let copy = prev.clone();
            per_layer.push(copy);
            continue;
        }
        let pairs = stats.pair_counts(l - 1);
        // Traffic each expert would receive per device if it landed
        // there: sum of co-selections from the predecessors the device
        // hosts at layer l-1.
        let mut inbound = vec![vec![0u64; devices]; experts];
        for (e, row) in pairs.iter().enumerate() {
            for (f, &c) in row.iter().enumerate() {
                inbound[f][prev[e]] += c;
            }
        }
        let mut order: Vec<usize> = (0..experts).collect();
        order.sort_by_key(|&f| (std::cmp::Reverse(inbound[f].iter().sum::<u64>()), f));
        let mut load = vec![0usize; devices];
        let mut assigned = vec![usize::MAX; experts];
        for f in order {
            let best = (0..devices)
                .filter(|&d| load[d] < per_device && inbound[f][d] > 0)
                .max_by(|&a, &b| inbound[f][a].cmp(&inbound[f][b]).then(b.cmp(&a)));
            let d = best.unwrap_or_else(|| {
                (0..devices)
                    .filter(|&d| load[d] < per_device)
                    .min_by_key(|&d| (load[d], d))
                    .expect("capacity checked above")
            });
            assigned[f] = d;
            load[d] += 1;
        }
        per_layer.push(assigned);
    }
    LayeredPlacement::from_layers(
        per_layer
            .into_iter()
            .map(|homes| {
                ExpertPlacement::uniform(
                    homes
                        .into_iter()
                        .map(|d| vec![DeviceId(d as u32)])
                        .collect(),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lina_workload::{TokenBatch, TokenPath};

    fn chain_stats(layers: usize, experts: usize, succ: &dyn Fn(u16) -> u16) -> AffinityStats {
        let tokens: Vec<TokenPath> = (0..experts as u16)
            .flat_map(|e| {
                let mut sel = vec![e];
                let mut cur = e;
                for _ in 1..layers {
                    cur = succ(cur);
                    sel.push(cur);
                }
                std::iter::repeat_n(TokenPath::new(e as usize, 1, &sel), 10)
            })
            .collect();
        let batch = TokenBatch {
            tokens,
            devices: 1,
            experts,
        };
        AffinityStats::from_batches(std::slice::from_ref(&batch), layers, experts)
    }

    #[test]
    fn chained_experts_land_on_their_predecessor_device() {
        // Successor chain e -> (e + 4) % 8 on 4 devices, 2 per device.
        let stats = chain_stats(3, 8, &|e| (e + 4) % 8);
        let p = affinity_placement(&stats, 3, 4, 2);
        assert_eq!(p.n_layers(), 3);
        for l in 1..3 {
            for e in 0..8u16 {
                let f = (e + 4) % 8;
                assert_eq!(
                    p.layer(l - 1).hosts[e as usize][0],
                    p.layer(l).hosts[f as usize][0],
                    "expert {e} at layer {} should chain to {f}",
                    l - 1
                );
            }
        }
    }

    #[test]
    fn capacity_is_respected_and_every_expert_hosted() {
        // Everyone chains to expert 0: capacity must force spill.
        let stats = chain_stats(4, 8, &|_| 0);
        let p = affinity_placement(&stats, 4, 4, 2);
        for l in 0..4 {
            let placement = p.layer(l);
            assert!(placement.is_complete());
            assert!(placement.max_per_device(4) <= 2);
            assert_eq!(placement.total_replicas(), 8);
        }
    }

    #[test]
    fn empty_stats_fall_back_to_balanced_layout() {
        let stats = AffinityStats::new(3, 8);
        let p = affinity_placement(&stats, 3, 4, 2);
        for l in 0..3 {
            assert_eq!(p.layer(l).max_per_device(4), 2);
        }
    }

    #[test]
    fn model_deeper_than_profile_repeats_last_layout() {
        let stats = chain_stats(2, 8, &|e| (e + 1) % 8);
        let p = affinity_placement(&stats, 5, 4, 2);
        for l in 2..5 {
            assert_eq!(p.layer(l), p.layer(1));
        }
    }

    #[test]
    #[should_panic(expected = "never fit")]
    fn impossible_capacity_panics() {
        let stats = AffinityStats::new(2, 8);
        affinity_placement(&stats, 2, 2, 2);
    }
}
