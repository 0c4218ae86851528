//! Randomized property tests of routing, placement, and op-graph
//! construction, swept over deterministically seeded cases.

use lina_model::{
    assign_replicas, balanced_routing, build_train_step, BatchShape, CostModel, DeviceSpec,
    ExpertPlacement, LayerRouting, MoeModelConfig, OpKind, TrainStepOptions,
};
use lina_netsim::{ClusterSpec, CollectiveSpec, DeviceId, Topology};
use lina_simcore::Rng;

fn topo16() -> Topology {
    Topology::new(ClusterSpec::paper_testbed())
}

/// Dispatch conserves every selection and computes only on hosts, for
/// arbitrary routings and replica structures.
#[test]
fn dispatch_conservation() {
    let mut meta = Rng::new(0xD15);
    for _ in 0..48 {
        let topo = topo16();
        let counts: Vec<Vec<usize>> = (0..16)
            .map(|_| (0..16).map(|_| meta.index(500)).collect())
            .collect();
        let routing = LayerRouting {
            experts: 16,
            counts,
        };
        let hosts: Vec<Vec<DeviceId>> = (0..16)
            .map(|_| {
                let mut hs = vec![DeviceId(meta.below(16) as u32)];
                for _ in 0..2 {
                    let d = DeviceId(meta.below(16) as u32);
                    if !hs.contains(&d) {
                        hs.push(d);
                    }
                }
                hs
            })
            .collect();
        let placement = ExpertPlacement::uniform(hosts);
        let plan = assign_replicas(&routing, &placement, &topo);
        let moved: usize = plan.sizes.iter().flatten().sum();
        let computed: usize = plan.compute.iter().flatten().sum();
        assert_eq!(moved, routing.total());
        assert_eq!(computed, routing.total());
        for d in 0..16 {
            for e in 0..16 {
                if plan.compute[d][e] > 0 {
                    assert!(placement.hosts[e].contains(&DeviceId(d as u32)));
                }
            }
        }
    }
}

/// Replica load balance: with equal shares, no replica of an expert
/// carries more than its fair share plus the soft-cap slack.
#[test]
fn replica_loads_respect_soft_caps() {
    let mut meta = Rng::new(0x10AD);
    for _ in 0..48 {
        let per_device = 1 + meta.index(4);
        let tokens = 64 + meta.index(1984);
        let topo = topo16();
        let placement = ExpertPlacement::packed(16, &topo, per_device);
        let routing = LayerRouting::balanced(16, 16, tokens, 2);
        let plan = assign_replicas(&routing, &placement, &topo);
        for e in 0..16 {
            let total = routing.tokens_to_expert(e);
            let replicas = placement.hosts[e].len();
            let fair = total.div_ceil(replicas);
            for host in &placement.hosts[e] {
                let load = plan.compute[host.0 as usize][e];
                assert!(
                    load <= fair + fair / 2 + 1,
                    "expert {e} replica {host:?}: {load} > soft cap of {fair}"
                );
            }
        }
    }
}

/// Training-step graphs are well-formed for every scheme knob
/// combination: acyclic, complete, and conserving gradient volume.
#[test]
fn train_graphs_are_well_formed() {
    let mut meta = Rng::new(0x93A9);
    for _ in 0..24 {
        let experts = 1usize << (1 + meta.index(4));
        let seqs = 1 + meta.index(8);
        let partition_mb = meta.uniform(5.0, 60.0);
        let pipeline = meta.bernoulli(0.5);
        let model = MoeModelConfig::transformer_xl(2, experts);
        let topo = Topology::new(ClusterSpec::with_total_gpus(experts));
        let cost = CostModel::new(DeviceSpec::a100(), model.clone());
        let batch = BatchShape {
            seqs_per_device: seqs * 4,
            seq_len: model.seq_len,
        };
        let routing = balanced_routing(&model, experts, batch);
        let mut opts = TrainStepOptions::lina(ExpertPlacement::one_per_device(experts, experts));
        opts.a2a_chunking = lina_model::A2aChunking::FixedBytes(partition_mb * 1e6);
        opts.grad_comm = lina_model::GradCommMode::Partitioned {
            chunk_bytes: partition_mb * 1e6,
        };
        opts.pipeline_ffn = pipeline;
        let graph = build_train_step(&cost, &topo, batch, &routing, &opts);
        // Allreduce volume equals the non-expert gradient volume.
        let total: f64 = graph
            .ops()
            .iter()
            .filter_map(|op| match &op.kind {
                OpKind::Comm {
                    spec: CollectiveSpec::AllReduce { bytes, .. },
                    ..
                } => Some(*bytes),
                _ => None,
            })
            .sum();
        let expected = (model.non_expert_params() * model.grad_dtype_bytes) as f64;
        assert!((total - expected).abs() / expected < 1e-6);
    }
}

/// Balanced routing is exactly conserving and at most `devices` apart.
#[test]
fn balanced_routing_is_fair() {
    let mut meta = Rng::new(0xFA19);
    for _ in 0..128 {
        let devices = 1 + meta.index(31);
        let experts = 1 + meta.index(31);
        let tokens = meta.index(5000);
        let k = 1 + meta.index(2);
        let r = LayerRouting::balanced(devices, experts, tokens, k);
        assert_eq!(r.total(), devices * tokens * k);
        let counts: Vec<usize> = (0..experts).map(|e| r.tokens_to_expert(e)).collect();
        let max = counts.iter().max().expect("experts > 0");
        let min = counts.iter().min().expect("experts > 0");
        assert!(max - min <= devices);
    }
}
