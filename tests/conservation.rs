//! Cross-crate conservation and invariant checks: tokens are neither
//! created nor destroyed anywhere between the gate and the experts, the
//! network delivers exactly the bytes the collectives describe, and the
//! simulated clock never runs backwards.

use lina::model::{assign_replicas, ExpertPlacement, LayerRouting};
use lina::netsim::{
    AllToAllAlgo, ClusterSpec, CollectiveEngine, CollectiveSpec, DeviceId, Network, Topology,
};
use lina::simcore::Rng;
use lina::workload::{Mode, TokenSource, WorkloadSpec};

#[test]
fn dispatch_conserves_tokens_for_every_placement_shape() {
    let topo = Topology::new(ClusterSpec::paper_testbed());
    let mut rng = Rng::new(404);
    for trial in 0..50 {
        // Random routing.
        let mut routing = LayerRouting::empty(16, 16);
        for d in 0..16 {
            for e in 0..16 {
                routing.counts[d][e] = rng.below(200) as usize;
            }
        }
        // Random replica placement: every expert gets 1-4 hosts.
        let mut hosts = Vec::new();
        for _ in 0..16 {
            let n = 1 + rng.index(4);
            let mut hs: Vec<DeviceId> = Vec::new();
            while hs.len() < n {
                let d = DeviceId(rng.below(16) as u32);
                if !hs.contains(&d) {
                    hs.push(d);
                }
            }
            hosts.push(hs);
        }
        let placement = ExpertPlacement::uniform(hosts);
        let plan = assign_replicas(&routing, &placement, &topo);
        let dispatched: usize = plan.sizes.iter().flatten().sum();
        let computed: usize = (0..16).map(|d| plan.compute_load(d)).sum();
        assert_eq!(dispatched, routing.total(), "trial {trial}: dispatch leak");
        assert_eq!(computed, routing.total(), "trial {trial}: compute leak");
        // Only hosts compute their experts.
        for d in 0..16 {
            for e in 0..16 {
                if plan.compute[d][e] > 0 {
                    assert!(
                        placement.hosts[e].contains(&DeviceId(d as u32)),
                        "trial {trial}: device {d} computed unhosted expert {e}"
                    );
                }
            }
        }
    }
}

#[test]
fn network_delivers_exactly_the_collective_bytes() {
    let topo = Topology::new(ClusterSpec::paper_testbed());
    let specs = [
        CollectiveSpec::uniform_all_to_all(topo.device_ids().collect(), 3e6, AllToAllAlgo::Flat),
        CollectiveSpec::AllReduce {
            participants: topo.device_ids().collect(),
            bytes: 40e6,
        },
    ];
    for spec in specs {
        let mut engine = CollectiveEngine::new(Network::new(topo.clone()));
        engine.start(&spec, 0);
        let done = engine.run_to_idle();
        assert_eq!(done.len(), 1);
        let delivered = engine.network().stats().bytes_delivered;
        let expected = spec.total_bytes();
        assert!(
            (delivered - expected).abs() / expected < 1e-6,
            "delivered {delivered} vs spec {expected}"
        );
    }
}

#[test]
fn hierarchical_all_to_all_also_conserves_end_to_end_payload() {
    // The hierarchical plan forwards through proxies; the *logical*
    // payload (what arrives at final destinations) must still equal the
    // flat payload even though more bytes cross intra-node links.
    let topo = Topology::new(ClusterSpec::paper_testbed());
    let flat =
        CollectiveSpec::uniform_all_to_all(topo.device_ids().collect(), 2e6, AllToAllAlgo::Flat);
    let hier = CollectiveSpec::uniform_all_to_all(
        topo.device_ids().collect(),
        2e6,
        AllToAllAlgo::Hierarchical,
    );
    assert_eq!(flat.total_bytes(), hier.total_bytes());
    for spec in [flat, hier] {
        let mut engine = CollectiveEngine::new(Network::new(topo.clone()));
        engine.start(&spec, 0);
        assert_eq!(engine.run_to_idle().len(), 1);
    }
}

#[test]
fn workload_batches_conserve_tokens_through_routing() {
    let spec = WorkloadSpec::enwik8(16, 12);
    let mut src = TokenSource::new(&spec, 1, 5);
    for mode in [Mode::Train, Mode::Inference] {
        let batch = src.sample_batch(16, 333, Mode::Inference);
        let _ = mode;
        for layer in 0..12 {
            let routing = batch.routing_for_layer(layer);
            assert_eq!(
                routing.total(),
                batch.len(),
                "layer {layer} lost selections"
            );
        }
    }
}

#[test]
fn simulated_clock_is_monotonic_under_stress() {
    let topo = Topology::new(ClusterSpec::paper_testbed());
    let mut engine = CollectiveEngine::new(Network::new(topo.clone()));
    let mut rng = Rng::new(777);
    let mut last = engine.now();
    for tag in 0..30u64 {
        let bytes = 1e5 + rng.f64() * 5e6;
        engine.start(
            &CollectiveSpec::uniform_all_to_all(
                topo.device_ids().collect(),
                bytes,
                if rng.bernoulli(0.5) {
                    AllToAllAlgo::Flat
                } else {
                    AllToAllAlgo::Hierarchical
                },
            ),
            tag,
        );
        if let Some(next) = engine.next_event() {
            let done = engine.advance_to(next);
            for d in &done {
                assert!(d.at >= last, "completion time regressed");
                last = last.max(d.at);
            }
        }
    }
    engine.run_to_idle();
}
