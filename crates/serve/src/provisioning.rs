//! Shared provisioning / weight-reload cost model.
//!
//! Bringing serving capacity online is never free: a replica that
//! (re)joins the cluster must first load its expert shard onto every
//! device over PCIe. The same modeled transfer gates four paths:
//!
//! * **crash recovery** — fresh hardware replacing a crashed replica
//!   reloads all weights before its first dispatch
//!   ([`FaultKind::ReplicaRecover`](crate::FaultKind::ReplicaRecover));
//! * **device loss** — the lost shard is re-replicated onto the
//!   surviving devices before the next dispatch
//!   ([`FaultKind::DeviceLoss`](crate::FaultKind::DeviceLoss));
//! * **autoscale scale-up** — a newly provisioned replica is invisible
//!   to the balancers until the reload completes
//!   (`crate::autoscale`);
//! * **re-sharding** — each expert replica the re-sharder adds is
//!   copied over PCIe while every up replica waits
//!   ([`reshard_transfer`]; evictions are free).
//!
//! Keeping the formula in one place guarantees fault recovery and
//! elastic scale-up can never drift apart on what provisioning costs.

use lina_model::CostModel;
use lina_netsim::Topology;
use lina_simcore::SimDuration;

/// Modeled PCIe transfer to (re)load one device's expert shard:
/// `expert_swap * ceil(experts / devices)`. Every device loads its
/// shard in parallel, so the wall-clock cost is one shard, not the
/// whole model.
pub fn weight_reload(cost: &CostModel, topo: &Topology, experts: usize) -> SimDuration {
    cost.expert_swap(topo.spec().pcie_bw) * (experts.div_ceil(topo.devices()) as u64)
}

/// Wall-clock cost to bring a *new* replica online (autoscale
/// scale-up). Identical to the crash-recovery weight reload today:
/// provisioning is dominated by moving the expert weights onto the
/// devices, and both paths must price that movement the same way.
pub fn provision_time(cost: &CostModel, topo: &Topology, experts: usize) -> SimDuration {
    weight_reload(cost, topo, experts)
}

/// Wall-clock cost of a proactive re-sharding actuation that moves
/// `moved` expert-weight replicas (a replication copies one replica;
/// evictions are free). Priced as `moved` serial
/// [`expert_swap`](CostModel::expert_swap)s over PCIe, scaled by the
/// configured `transfer_cost` — the same transfer primitive the
/// reload helpers above charge, so reactive recovery and proactive
/// re-sharding can never drift apart on what moving weights costs.
pub fn reshard_transfer(
    cost: &CostModel,
    topo: &Topology,
    moved: usize,
    transfer_cost: f64,
) -> SimDuration {
    (cost.expert_swap(topo.spec().pcie_bw) * (moved as u64)).mul_f64(transfer_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lina_model::{DeviceSpec, MoeModelConfig};
    use lina_netsim::ClusterSpec;

    #[test]
    fn reload_matches_the_inline_formula_it_replaced() {
        let model = MoeModelConfig::transformer_xl(6, 8).for_inference();
        let topo = Topology::new(ClusterSpec::with_total_gpus(8));
        let cost = CostModel::new(DeviceSpec::a100_inference(), model);
        // The inline expression the cluster loop used before extraction; the
        // helper must reproduce it bit for bit (serve_faults metrics
        // pin the recovery timeline).
        let inline =
            cost.expert_swap(topo.spec().pcie_bw) * (8usize.div_ceil(topo.devices()) as u64);
        assert_eq!(weight_reload(&cost, &topo, 8), inline);
        assert_eq!(provision_time(&cost, &topo, 8), inline);
    }

    #[test]
    fn reshard_transfer_prices_serial_swaps() {
        let model = MoeModelConfig::transformer_xl(6, 8).for_inference();
        let topo = Topology::new(ClusterSpec::with_total_gpus(8));
        let cost = CostModel::new(DeviceSpec::a100_inference(), model);
        let swap = cost.expert_swap(topo.spec().pcie_bw);
        assert_eq!(reshard_transfer(&cost, &topo, 3, 1.0), swap * 3);
        assert_eq!(reshard_transfer(&cost, &topo, 2, 0.5), swap);
        assert_eq!(
            reshard_transfer(&cost, &topo, 5, 0.0),
            SimDuration::ZERO,
            "free transfers model an idealized interconnect"
        );
    }

    #[test]
    fn reload_scales_with_experts_per_device() {
        let model = MoeModelConfig::transformer_xl(6, 16).for_inference();
        let topo = Topology::new(ClusterSpec::with_total_gpus(8));
        let cost = CostModel::new(DeviceSpec::a100_inference(), model);
        let shallow = weight_reload(&cost, &topo, 8);
        let deep = weight_reload(&cost, &topo, 16);
        assert_eq!(deep, shallow * 2, "two experts per device, two swaps");
    }
}
