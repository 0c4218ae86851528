//! Token routing and expert placement.
//!
//! [`LayerRouting`] summarizes the gate's decision for one MoE layer:
//! how many token-selections each device routes to each expert.
//! [`ExpertPlacement`] describes which devices host (replicas of) which
//! experts — one-per-device in the baseline, packed/replicated under
//! Lina. [`assign_replicas`] turns a routing plus a placement into the
//! actual all-to-all transfer matrix and per-device expert compute load,
//! preferring local replicas exactly like Lina's coordinated all-to-all.

// Expert/device indices address several parallel matrices at once;
// zipped iterators would obscure that.
#![allow(clippy::needless_range_loop)]

use lina_netsim::{DeviceId, Topology};

/// Per-layer token-to-expert assignment counts.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRouting {
    /// Number of experts in the layer.
    pub experts: usize,
    /// `counts[d][e]` = token-selections device `d` routes to expert `e`.
    pub counts: Vec<Vec<usize>>,
}

impl LayerRouting {
    /// Creates an empty routing for `devices` devices and `experts`
    /// experts.
    pub fn empty(devices: usize, experts: usize) -> Self {
        LayerRouting {
            experts,
            counts: vec![vec![0; experts]; devices],
        }
    }

    /// A perfectly balanced routing: each device spreads
    /// `tokens_per_device * top_k` selections evenly over all experts
    /// (what the load-balancing loss drives training towards, and what
    /// the paper's "Ideal" inference benchmark forces).
    pub fn balanced(
        devices: usize,
        experts: usize,
        tokens_per_device: usize,
        top_k: usize,
    ) -> Self {
        let total = tokens_per_device * top_k;
        let base = total / experts;
        let rem = total % experts;
        let counts = (0..devices)
            .map(|_| (0..experts).map(|e| base + usize::from(e < rem)).collect())
            .collect();
        LayerRouting { experts, counts }
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.counts.len()
    }

    /// Total selections routed to expert `e` across all devices.
    pub fn tokens_to_expert(&self, e: usize) -> usize {
        self.counts.iter().map(|row| row[e]).sum()
    }

    /// Total selections in the batch.
    pub fn total(&self) -> usize {
        self.counts
            .iter()
            .map(|row| row.iter().sum::<usize>())
            .sum()
    }

    /// Normalized expert popularity (fractions summing to 1; all zeros
    /// if the routing is empty).
    pub fn popularity(&self) -> Vec<f64> {
        let total = self.total() as f64;
        (0..self.experts)
            .map(|e| {
                if total == 0.0 {
                    0.0
                } else {
                    self.tokens_to_expert(e) as f64 / total
                }
            })
            .collect()
    }

    /// Ratio of the most to the least popular expert's token count
    /// (`f64::INFINITY` if some expert receives nothing).
    pub fn skew(&self) -> f64 {
        let max = (0..self.experts)
            .map(|e| self.tokens_to_expert(e))
            .max()
            .unwrap_or(0);
        let min = (0..self.experts)
            .map(|e| self.tokens_to_expert(e))
            .min()
            .unwrap_or(0);
        if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }
}

/// Which devices host (replicas of) which experts.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpertPlacement {
    /// `hosts[e]` = devices hosting a replica of expert `e`, in order.
    pub hosts: Vec<Vec<DeviceId>>,
    /// `shares[e][r]` = intended fraction of expert `e`'s load handled
    /// by replica `r` (relative weights; they need not sum to 1).
    /// Parallel to `hosts`.
    pub shares: Vec<Vec<f64>>,
}

impl ExpertPlacement {
    /// Builds a placement with equal shares per replica.
    pub fn uniform(hosts: Vec<Vec<DeviceId>>) -> Self {
        let shares = hosts.iter().map(|h| vec![1.0; h.len()]).collect();
        ExpertPlacement { hosts, shares }
    }

    /// The baseline placement: expert `e` lives on device `e`.
    ///
    /// # Panics
    ///
    /// Panics if `experts > devices`.
    pub fn one_per_device(experts: usize, devices: usize) -> Self {
        assert!(
            experts <= devices,
            "one_per_device: more experts than devices"
        );
        Self::uniform((0..experts).map(|e| vec![DeviceId(e as u32)]).collect())
    }

    /// Lina's training-time packing: every device hosts `per_device`
    /// experts, chosen so each node holds a contiguous replica set. When
    /// a node's devices can jointly hold all experts
    /// (`per_device * gpus_per_node >= experts`), every node gets a full
    /// copy and all-to-all becomes intra-node (the paper's 8-expert
    /// case) or disappears entirely (the 2-expert case).
    ///
    /// # Panics
    ///
    /// Panics if `per_device` is zero.
    pub fn packed(experts: usize, topo: &Topology, per_device: usize) -> Self {
        assert!(per_device > 0, "packed: zero experts per device");
        let mut hosts = vec![Vec::new(); experts];
        for d in topo.device_ids() {
            let node = topo.node_of(d).0 as usize;
            let local = topo.local_rank(d);
            let g = topo.spec().gpus_per_node;
            for i in 0..per_device {
                // Walk experts so that consecutive local ranks cover
                // consecutive expert blocks, restarting per node.
                let slot = local * per_device + i;
                let e = (node * g * per_device + slot) % experts;
                if !hosts[e].contains(&d) {
                    hosts[e].push(d);
                }
            }
        }
        Self::uniform(hosts)
    }

    /// Number of experts.
    pub fn experts(&self) -> usize {
        self.hosts.len()
    }

    /// Total replicas across all experts.
    pub fn total_replicas(&self) -> usize {
        self.hosts.iter().map(Vec::len).sum()
    }

    /// Experts hosted on device `d`.
    pub fn experts_on(&self, d: DeviceId) -> Vec<usize> {
        self.hosts
            .iter()
            .enumerate()
            .filter(|(_, hs)| hs.contains(&d))
            .map(|(e, _)| e)
            .collect()
    }

    /// Maximum number of experts hosted by any device.
    pub fn max_per_device(&self, devices: usize) -> usize {
        (0..devices)
            .map(|d| self.experts_on(DeviceId(d as u32)).len())
            .max()
            .unwrap_or(0)
    }

    /// True if every expert has at least one host.
    pub fn is_complete(&self) -> bool {
        self.hosts.iter().all(|hs| !hs.is_empty())
    }

    /// Experts hosted per device (the crowding signal the
    /// deterministic shard-map mutations below break ties on).
    pub fn device_load(&self, devices: usize) -> Vec<usize> {
        let mut load = vec![0usize; devices];
        for hosts in &self.hosts {
            for d in hosts {
                load[d.0 as usize] += 1;
            }
        }
        load
    }

    /// Adds a replica of expert `e` on the least-crowded device not
    /// already hosting it (ties toward the lowest id), respecting the
    /// per-device cap. Returns false when no eligible device exists.
    pub fn add_replica(&mut self, e: usize, devices: usize, cap: usize) -> bool {
        let load = self.device_load(devices);
        let target = (0..devices)
            .filter(|&d| load[d] < cap && !self.hosts[e].contains(&DeviceId(d as u32)))
            .min_by_key(|&d| (load[d], d));
        match target {
            Some(d) => {
                self.hosts[e].push(DeviceId(d as u32));
                self.shares[e].push(1.0);
                true
            }
            None => false,
        }
    }

    /// Drops expert `e`'s replica on its most-crowded host (ties toward
    /// the highest device id); refuses to drop the last replica — an
    /// expert must always stay hosted somewhere or planning would panic.
    pub fn drop_replica(&mut self, e: usize, devices: usize) -> bool {
        if self.hosts[e].len() <= 1 {
            return false;
        }
        let load = self.device_load(devices);
        let idx = self.hosts[e]
            .iter()
            .enumerate()
            .max_by_key(|(_, d)| (load[d.0 as usize], d.0))
            .map(|(idx, _)| idx)
            .expect("multi-replica expert has hosts");
        self.hosts[e].remove(idx);
        self.shares[e].remove(idx);
        true
    }
}

/// One [`ExpertPlacement`] per MoE layer.
///
/// Historically a single placement was applied identically to every
/// layer; a `LayeredPlacement` makes the per-layer structure first
/// class so an affinity-aware placer can co-locate experts that are
/// chosen *in sequence* by the same token — the planner then prices
/// each layer's all-to-all against that layer's own map. The
/// [`uniform`](Self::uniform) constructor reproduces the historical
/// behavior bit for bit: every layer shares one map, and planning
/// reduces to exactly the single-map walk.
#[derive(Clone, Debug, PartialEq)]
pub struct LayeredPlacement {
    layers: Vec<ExpertPlacement>,
}

impl LayeredPlacement {
    /// The historical shape: one placement applied to every layer.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`.
    pub fn uniform(placement: ExpertPlacement, layers: usize) -> Self {
        assert!(layers > 0, "LayeredPlacement: zero layers");
        LayeredPlacement {
            layers: vec![placement; layers],
        }
    }

    /// A genuinely per-layer placement.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or the layers disagree on the
    /// expert count.
    pub fn from_layers(layers: Vec<ExpertPlacement>) -> Self {
        assert!(!layers.is_empty(), "LayeredPlacement: zero layers");
        let experts = layers[0].experts();
        assert!(
            layers.iter().all(|p| p.experts() == experts),
            "LayeredPlacement: layers disagree on expert count"
        );
        LayeredPlacement { layers }
    }

    /// The placement for layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn layer(&self, l: usize) -> &ExpertPlacement {
        &self.layers[l]
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Experts per layer.
    pub fn experts(&self) -> usize {
        self.layers[0].experts()
    }

    /// All per-layer placements, in layer order.
    pub fn layers(&self) -> &[ExpertPlacement] {
        &self.layers
    }

    /// Mutable access to every layer's placement (the serving
    /// cluster's re-sharder actuates one action across all layers).
    pub fn layers_mut(&mut self) -> &mut [ExpertPlacement] {
        &mut self.layers
    }

    /// True if every expert has a host on every layer.
    pub fn is_complete(&self) -> bool {
        self.layers.iter().all(ExpertPlacement::is_complete)
    }
}

/// Result of mapping a routing onto a placement.
#[derive(Clone, Debug)]
pub struct DispatchPlan {
    /// `sizes[src][dst]` = token-selections moving from device `src` to
    /// device `dst` for expert computation.
    pub sizes: Vec<Vec<usize>>,
    /// `compute[d][e]` = token-selections device `d` computes for
    /// expert `e` (zero for experts it does not host).
    pub compute: Vec<Vec<usize>>,
}

impl DispatchPlan {
    /// Token-selections device `d` computes in total.
    pub fn compute_load(&self, d: usize) -> usize {
        self.compute[d].iter().sum()
    }

    /// The all-to-all byte matrix given bytes per token-selection.
    pub fn byte_matrix(&self, bytes_per_token: f64) -> Vec<Vec<f64>> {
        self.sizes
            .iter()
            .map(|row| row.iter().map(|&c| c as f64 * bytes_per_token).collect())
            .collect()
    }
}

/// The transpose of a square matrix: `out[j][i] = m[i][j]`. A
/// dispatch's [`DispatchPlan::sizes`] transposed is its combine
/// all-to-all.
pub fn transpose<T: Copy + Default>(m: &[Vec<T>]) -> Vec<Vec<T>> {
    let n = m.len();
    let mut out = vec![vec![T::default(); n]; n];
    for (i, row) in m.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            out[j][i] = v;
        }
    }
    out
}

/// Assigns each (device, expert) token count to a replica of the expert:
/// prefer a replica on the same device, then the same node, then the
/// globally least-loaded replica; token counts for one expert from one
/// device may split across replicas to balance load.
///
/// # Panics
///
/// Panics if the placement is missing a host for an expert that
/// receives tokens. Debug builds also panic if the routing and the
/// placement disagree on the expert count.
pub fn assign_replicas(
    routing: &LayerRouting,
    placement: &ExpertPlacement,
    topo: &Topology,
) -> DispatchPlan {
    debug_assert_eq!(
        routing.experts,
        placement.experts(),
        "assign_replicas: routing and placement expert counts differ"
    );
    let devices = routing.devices();
    let mut sizes = vec![vec![0usize; devices]; devices];
    let mut compute = vec![vec![0usize; placement.experts()]; devices];
    // Per-expert and per-source scratch, cleared and refilled each time.
    let mut fairs: Vec<usize> = Vec::new();
    let mut load: Vec<usize> = Vec::new();
    let mut deferred: Vec<(usize, usize)> = Vec::new();
    let mut local: Vec<usize> = Vec::new();
    for e in 0..placement.experts() {
        let total: usize = (0..devices).map(|d| routing.counts[d][e]).sum();
        if total == 0 {
            continue;
        }
        let hosts = &placement.hosts[e];
        assert!(!hosts.is_empty(), "assign_replicas: expert {e} has no host");
        // Per-replica fair shares follow the placement's intent.
        let weight_sum: f64 = placement.shares[e].iter().sum();
        fairs.clear();
        fairs.extend(
            placement.shares[e]
                .iter()
                .map(|&w| ((total as f64) * w / weight_sum).ceil() as usize),
        );
        load.clear();
        load.resize(hosts.len(), 0);
        let mut assign = |d: usize, h: usize, take: usize, load: &mut Vec<usize>| {
            let dst = hosts[h].0 as usize;
            sizes[d][dst] += take;
            compute[dst][e] += take;
            load[h] += take;
        };
        // Phase A: sources with a local replica claim it first — a
        // same-device replica takes everything; a same-node replica
        // takes up to a softened fair share (locality beats strict
        // balance up to 50% overload). Remote-only sources defer.
        deferred.clear();
        for d in 0..devices {
            let mut remaining = routing.counts[d][e];
            if remaining == 0 {
                continue;
            }
            let src = DeviceId(d as u32);
            if let Some(h) = (0..hosts.len()).find(|&h| hosts[h] == src) {
                assign(d, h, remaining, &mut load);
                continue;
            }
            // Same-node replicas, least-filled first, soft-capped at
            // 1.5x their intended share.
            local.clear();
            local.extend((0..hosts.len()).filter(|&h| topo.same_node(hosts[h], src)));
            local.sort_by_key(|&h| (load[h] * 1000 / fairs[h].max(1), h));
            for &h in &local {
                if remaining == 0 {
                    break;
                }
                let soft_cap = fairs[h] + fairs[h] / 2;
                let take = remaining.min(soft_cap.saturating_sub(load[h]));
                if take > 0 {
                    assign(d, h, take, &mut load);
                    remaining -= take;
                }
            }
            if remaining > 0 {
                deferred.push((d, remaining));
            }
        }
        // Phase B: remote/overflow traffic goes to the least-loaded
        // replica under the fair cap; when every replica is at the cap,
        // fall back to plain least-loaded.
        for &(d, mut remaining) in &deferred {
            while remaining > 0 {
                let under: Option<usize> = (0..hosts.len())
                    .filter(|&h| load[h] < fairs[h])
                    .min_by_key(|&h| (load[h] * 1000 / fairs[h].max(1), h));
                match under {
                    Some(h) => {
                        let take = remaining.min(fairs[h] - load[h]);
                        assign(d, h, take, &mut load);
                        remaining -= take;
                    }
                    None => {
                        // Everyone is at their share: top up the
                        // relatively least-filled replica.
                        let h = (0..hosts.len())
                            .min_by_key(|&h| (load[h] * 1000 / fairs[h].max(1), h))
                            .expect("nonempty");
                        assign(d, h, remaining, &mut load);
                        remaining = 0;
                    }
                }
            }
        }
    }
    DispatchPlan { sizes, compute }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lina_netsim::ClusterSpec;

    fn topo16() -> Topology {
        Topology::new(ClusterSpec::paper_testbed())
    }

    #[test]
    fn balanced_routing_is_uniform() {
        let r = LayerRouting::balanced(4, 4, 100, 2);
        assert_eq!(r.total(), 800);
        for e in 0..4 {
            assert_eq!(r.tokens_to_expert(e), 200);
        }
        assert!((r.skew() - 1.0).abs() < 1e-12);
        for p in r.popularity() {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn balanced_routing_distributes_remainder() {
        let r = LayerRouting::balanced(1, 3, 10, 1);
        assert_eq!(r.total(), 10);
        let counts: Vec<usize> = (0..3).map(|e| r.tokens_to_expert(e)).collect();
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
    }

    #[test]
    fn one_per_device_placement() {
        let p = ExpertPlacement::one_per_device(4, 16);
        assert!(p.is_complete());
        assert_eq!(p.total_replicas(), 4);
        assert_eq!(p.experts_on(DeviceId(2)), vec![2]);
        assert_eq!(p.experts_on(DeviceId(10)), Vec::<usize>::new());
    }

    #[test]
    fn packed_two_per_device_covers_all_experts() {
        let topo = topo16();
        let p = ExpertPlacement::packed(16, &topo, 2);
        assert!(p.is_complete());
        // 16 devices x 2 slots = 32 replicas over 16 experts = 2 each.
        assert_eq!(p.total_replicas(), 32);
        for hs in &p.hosts {
            assert_eq!(hs.len(), 2);
        }
        assert_eq!(p.max_per_device(16), 2);
    }

    #[test]
    fn packed_full_node_replica_set_keeps_traffic_local() {
        // 8 experts, 8 GPUs over 2 nodes, 2 per device: each node holds
        // all 8 experts, so no selection needs to cross nodes.
        let topo = Topology::new(ClusterSpec::with_total_gpus(8));
        let p = ExpertPlacement::packed(8, &topo, 2);
        assert!(p.is_complete());
        let r = LayerRouting::balanced(8, 8, 512, 2);
        let plan = assign_replicas(&r, &p, &topo);
        for (s, row) in plan.sizes.iter().enumerate() {
            for (d, &c) in row.iter().enumerate() {
                if c > 0 {
                    assert!(
                        topo.same_node(DeviceId(s as u32), DeviceId(d as u32)),
                        "selection crossed nodes: {s} -> {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_all_experts_everywhere_means_no_transfer() {
        let topo = Topology::new(ClusterSpec::with_total_gpus(2));
        let p = ExpertPlacement::packed(2, &topo, 2);
        let r = LayerRouting::balanced(2, 2, 512, 2);
        let plan = assign_replicas(&r, &p, &topo);
        for (s, row) in plan.sizes.iter().enumerate() {
            assert!(row.iter().enumerate().all(|(d, &c)| d == s || c == 0));
        }
    }

    #[test]
    fn assign_replicas_conserves_tokens() {
        let topo = topo16();
        let p = ExpertPlacement::packed(16, &topo, 2);
        let mut r = LayerRouting::empty(16, 16);
        // Skewed: everyone loves expert 3.
        for d in 0..16 {
            r.counts[d][3] = 100;
            r.counts[d][7] = 10;
        }
        let plan = assign_replicas(&r, &p, &topo);
        let computed: usize = (0..16).map(|d| plan.compute_load(d)).sum();
        assert_eq!(computed, r.total());
        let moved: usize = plan.sizes.iter().flatten().sum();
        assert_eq!(moved, r.total());
        // Only hosts of expert 3 compute it.
        for d in 0..16 {
            if plan.compute[d][3] > 0 {
                assert!(p.experts_on(DeviceId(d as u32)).contains(&3));
            }
        }
    }

    #[test]
    fn replicas_split_load_of_popular_expert() {
        let topo = topo16();
        // Expert 0 has 4 replicas; all devices send it lots of tokens.
        let mut hosts = vec![vec![DeviceId(0), DeviceId(4), DeviceId(8), DeviceId(12)]];
        hosts.extend((1..16).map(|e| vec![DeviceId(e as u32)]));
        let p = ExpertPlacement::uniform(hosts);
        let mut r = LayerRouting::empty(16, 16);
        for d in 0..16 {
            r.counts[d][0] = 400;
        }
        let plan = assign_replicas(&r, &p, &topo);
        let loads: Vec<usize> = [0, 4, 8, 12].iter().map(|&d| plan.compute[d][0]).collect();
        let total: usize = loads.iter().sum();
        assert_eq!(total, 6400);
        for &l in &loads {
            assert!(
                (l as f64 - 1600.0).abs() <= 160.0,
                "replica load {l} far from fair share 1600 ({loads:?})"
            );
        }
    }

    #[test]
    fn local_replica_preferred() {
        let topo = topo16();
        let p = ExpertPlacement::packed(16, &topo, 16);
        // Every device hosts every expert: nothing should move.
        let r = LayerRouting::balanced(16, 16, 128, 2);
        let plan = assign_replicas(&r, &p, &topo);
        for (s, row) in plan.sizes.iter().enumerate() {
            assert!(row.iter().enumerate().all(|(d, &c)| d == s || c == 0));
        }
    }

    #[test]
    fn weighted_shares_bias_replica_loads() {
        let topo = topo16();
        // Expert 0 has two replicas with a 3:1 intended split.
        let mut p = ExpertPlacement::uniform(vec![vec![DeviceId(0), DeviceId(8)]]);
        p.shares[0] = vec![3.0, 1.0];
        let mut r = LayerRouting::empty(16, 1);
        for d in 0..16 {
            r.counts[d][0] = 400;
        }
        let plan = assign_replicas(&r, &p, &topo);
        let l0 = plan.compute[0][0] as f64;
        let l8 = plan.compute[8][0] as f64;
        assert_eq!(l0 as usize + l8 as usize, 6400);
        assert!(
            (l0 / l8 - 3.0).abs() < 0.6,
            "replica loads {l0}/{l8} should honor the 3:1 shares"
        );
    }

    #[test]
    fn byte_matrix_scales() {
        let topo = topo16();
        let p = ExpertPlacement::one_per_device(16, 16);
        let r = LayerRouting::balanced(16, 16, 64, 1);
        let plan = assign_replicas(&r, &p, &topo);
        let bytes = plan.byte_matrix(1024.0);
        for (s, row) in plan.sizes.iter().enumerate() {
            for (d, &c) in row.iter().enumerate() {
                assert_eq!(bytes[s][d], c as f64 * 1024.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "no host")]
    fn missing_host_panics() {
        let topo = topo16();
        let p = ExpertPlacement::uniform(vec![vec![]]);
        let mut r = LayerRouting::empty(16, 1);
        r.counts[0][0] = 5;
        assign_replicas(&r, &p, &topo);
    }

    #[test]
    fn device_load_counts_hosted_replicas() {
        let mut p = ExpertPlacement::one_per_device(4, 8);
        assert_eq!(p.device_load(8), vec![1, 1, 1, 1, 0, 0, 0, 0]);
        p.hosts[0].push(DeviceId(4));
        p.shares[0].push(1.0);
        assert_eq!(p.device_load(8), vec![1, 1, 1, 1, 1, 0, 0, 0]);
    }

    #[test]
    fn add_replica_prefers_least_crowded_lowest_id() {
        let mut p = ExpertPlacement::one_per_device(4, 8);
        assert!(p.add_replica(0, 8, 2));
        // Devices 4..8 are empty; the lowest id wins.
        assert_eq!(p.hosts[0], vec![DeviceId(0), DeviceId(4)]);
        assert_eq!(p.shares[0], vec![1.0, 1.0]);
    }

    #[test]
    fn add_replica_respects_cap_and_existing_hosts() {
        // Every device already hosts one expert; cap 1 leaves nowhere.
        let mut p = ExpertPlacement::one_per_device(4, 4);
        assert!(!p.add_replica(0, 4, 1));
        // Cap 2 allows a second tenant (lowest id not hosting 0 is 1).
        assert!(p.add_replica(0, 4, 2));
        assert_eq!(p.hosts[0], vec![DeviceId(0), DeviceId(1)]);
    }

    #[test]
    fn drop_replica_refuses_last_and_picks_most_crowded() {
        let mut p = ExpertPlacement::one_per_device(4, 4);
        assert!(!p.drop_replica(0, 4), "last replica must survive");
        assert!(p.add_replica(0, 4, 2));
        // Device 1 now hosts two experts (1 and the new replica of 0):
        // it is the most crowded, so the drop peels the replica there.
        assert!(p.drop_replica(0, 4));
        assert_eq!(p.hosts[0], vec![DeviceId(0)]);
        assert_eq!(p.shares[0], vec![1.0]);
    }

    #[test]
    fn uniform_layered_placement_replicates_one_map() {
        let base = ExpertPlacement::one_per_device(4, 8);
        let lp = LayeredPlacement::uniform(base.clone(), 6);
        assert_eq!(lp.n_layers(), 6);
        assert_eq!(lp.experts(), 4);
        assert!(lp.is_complete());
        for l in 0..6 {
            assert_eq!(lp.layer(l), &base);
        }
    }

    #[test]
    fn from_layers_keeps_per_layer_maps() {
        let a = ExpertPlacement::one_per_device(4, 8);
        let mut b = a.clone();
        assert!(b.add_replica(2, 8, 2));
        let lp = LayeredPlacement::from_layers(vec![a.clone(), b.clone()]);
        assert_eq!(lp.layer(0), &a);
        assert_eq!(lp.layer(1), &b);
        assert_ne!(lp.layer(0), lp.layer(1));
    }

    #[test]
    #[should_panic(expected = "disagree on expert count")]
    fn from_layers_rejects_mismatched_experts() {
        LayeredPlacement::from_layers(vec![
            ExpertPlacement::one_per_device(4, 8),
            ExpertPlacement::one_per_device(5, 8),
        ]);
    }
}
