//! Cluster topology: nodes, devices, and network links.
//!
//! The testbed in the paper is four worker nodes, each with four A100
//! GPUs, connected by 100 Gbps InfiniBand; GPUs within a node communicate
//! over NVLink. We model that as a two-level topology:
//!
//! * each device owns a pair of intra-node links (`NvlinkTx`/`NvlinkRx`),
//! * each node owns a pair of inter-node links (`NicTx`/`NicRx`).
//!
//! A flow between devices on the same node traverses the source's
//! `NvlinkTx` and the destination's `NvlinkRx`; a flow between nodes
//! traverses the source device's `NicTx` and the destination device's
//! `NicRx` (A100 clusters of the paper's era give each GPU its own
//! 100 Gbps HCA). Inter-node links are the slowest and are where the
//! contention the paper's training-side analysis studies happens.

use lina_simcore::SimDuration;

/// Identifies a device (GPU) in the cluster by global rank.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DeviceId(pub u32);

/// Identifies a worker node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Identifies a network link (an index into [`Topology::link_capacities`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// The links one flow traverses, stored inline: a route in this
/// topology crosses at most two links. Dereferences to the link slice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Path {
    links: [LinkId; 2],
    len: u8,
}

impl std::ops::Deref for Path {
    type Target = [LinkId];

    fn deref(&self) -> &[LinkId] {
        &self.links[..self.len as usize]
    }
}

/// Kind of a link, for diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkKind {
    /// Intra-node transmit port of a device.
    NvlinkTx(DeviceId),
    /// Intra-node receive port of a device.
    NvlinkRx(DeviceId),
    /// Inter-node transmit port of a device's NIC.
    NicTx(DeviceId),
    /// Inter-node receive port of a device's NIC.
    NicRx(DeviceId),
}

/// Static description of the cluster hardware.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Number of worker nodes.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Per-device NVLink bandwidth per direction, bytes/s.
    pub nvlink_bw: f64,
    /// Per-device NIC bandwidth per direction, bytes/s.
    pub nic_bw: f64,
    /// Base latency of an inter-node flow.
    pub inter_latency: SimDuration,
    /// Base latency of an intra-node flow.
    pub intra_latency: SimDuration,
    /// Fixed software overhead of launching one collective operation
    /// (NCCL kernel launch and group setup).
    pub collective_launch_overhead: SimDuration,
    /// Device memory capacity in bytes (A100-40GB in the paper).
    pub device_memory: f64,
    /// Host-to-device transfer bandwidth for DRAM offloading, bytes/s.
    pub pcie_bw: f64,
}

impl ClusterSpec {
    /// The paper's testbed: 4 nodes x 4 A100-40GB, 100 Gbps InfiniBand,
    /// NVLink intra-node.
    pub fn paper_testbed() -> Self {
        ClusterSpec {
            nodes: 4,
            gpus_per_node: 4,
            // NVLink-connected A100s within a node: ~150 GB/s
            // effective per direction per device.
            nvlink_bw: 150e9,
            // 100 Gbps InfiniBand per GPU ~ 12.5 GB/s; effective ~ 12.
            nic_bw: 12e9,
            inter_latency: SimDuration::from_micros(8),
            intra_latency: SimDuration::from_micros(3),
            collective_launch_overhead: SimDuration::from_micros(60),
            device_memory: 40e9,
            pcie_bw: 24e9,
        }
    }

    /// A testbed with the given total GPU count, allocated the way a
    /// shared-cluster scheduler hands out small jobs: 2- and 4-GPU jobs
    /// are scattered one GPU per node (which is why the paper's Table 1
    /// sees inter-node all-to-all costs even at 4 experts), the 8-GPU
    /// job gets two full 4-GPU servers (which is why packing 2 experts
    /// per device "avoids inter-node all-to-all" there), and 16 GPUs
    /// take all four servers.
    ///
    /// # Panics
    ///
    /// Panics if `total_gpus` is not one of 1, 2, 4, 8, or 16.
    pub fn with_total_gpus(total_gpus: usize) -> Self {
        let mut spec = Self::paper_testbed();
        let (nodes, per_node) = match total_gpus {
            1 => (1, 1),
            2 => (2, 1),
            4 => (4, 1),
            8 => (2, 4),
            16 => (4, 4),
            _ => panic!("with_total_gpus: unsupported GPU count {total_gpus}"),
        };
        spec.nodes = nodes;
        spec.gpus_per_node = per_node;
        spec
    }

    /// Total number of devices.
    pub fn total_devices(&self) -> usize {
        self.nodes * self.gpus_per_node
    }
}

/// Concrete topology built from a [`ClusterSpec`]: link tables and
/// device/node mappings.
///
/// # Examples
///
/// ```
/// use lina_netsim::{ClusterSpec, DeviceId, Topology};
///
/// let topo = Topology::new(ClusterSpec::paper_testbed());
/// assert_eq!(topo.devices(), 16);
/// assert!(topo.same_node(DeviceId(0), DeviceId(3)));
/// assert!(!topo.same_node(DeviceId(3), DeviceId(4)));
/// ```
#[derive(Clone, Debug)]
pub struct Topology {
    spec: ClusterSpec,
    link_kinds: Vec<LinkKind>,
    link_capacities: Vec<f64>,
}

impl Topology {
    /// Builds the link tables for a cluster.
    ///
    /// # Panics
    ///
    /// Panics if the spec has zero nodes or zero GPUs per node.
    pub fn new(spec: ClusterSpec) -> Self {
        assert!(spec.nodes > 0, "Topology::new: zero nodes");
        assert!(spec.gpus_per_node > 0, "Topology::new: zero GPUs per node");
        let devices = spec.total_devices();
        let mut link_kinds = Vec::new();
        let mut link_capacities = Vec::new();
        // Layout: [NvTx(d) for d] [NvRx(d) for d] [NicTx(n) for n] [NicRx(n) for n].
        for d in 0..devices {
            link_kinds.push(LinkKind::NvlinkTx(DeviceId(d as u32)));
            link_capacities.push(spec.nvlink_bw);
        }
        for d in 0..devices {
            link_kinds.push(LinkKind::NvlinkRx(DeviceId(d as u32)));
            link_capacities.push(spec.nvlink_bw);
        }
        for d in 0..devices {
            link_kinds.push(LinkKind::NicTx(DeviceId(d as u32)));
            link_capacities.push(spec.nic_bw);
        }
        for d in 0..devices {
            link_kinds.push(LinkKind::NicRx(DeviceId(d as u32)));
            link_capacities.push(spec.nic_bw);
        }
        Topology {
            spec,
            link_kinds,
            link_capacities,
        }
    }

    /// The cluster spec this topology was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Total number of devices.
    pub fn devices(&self) -> usize {
        self.spec.total_devices()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.spec.nodes
    }

    /// All device ids in rank order.
    pub fn device_ids(&self) -> impl Iterator<Item = DeviceId> {
        (0..self.devices() as u32).map(DeviceId)
    }

    /// Node hosting a device.
    ///
    /// # Panics
    ///
    /// Panics if the device id is out of range.
    pub fn node_of(&self, d: DeviceId) -> NodeId {
        assert!(
            (d.0 as usize) < self.devices(),
            "node_of: device {} out of range",
            d.0
        );
        NodeId(d.0 / self.spec.gpus_per_node as u32)
    }

    /// Local rank of a device within its node.
    pub fn local_rank(&self, d: DeviceId) -> usize {
        d.0 as usize % self.spec.gpus_per_node
    }

    /// Device id for a (node, local rank) pair.
    ///
    /// # Panics
    ///
    /// Panics if the pair is out of range.
    pub fn device_at(&self, node: NodeId, local: usize) -> DeviceId {
        assert!((node.0 as usize) < self.spec.nodes, "device_at: bad node");
        assert!(local < self.spec.gpus_per_node, "device_at: bad local rank");
        DeviceId(node.0 * self.spec.gpus_per_node as u32 + local as u32)
    }

    /// True if the two devices share a node.
    pub fn same_node(&self, a: DeviceId, b: DeviceId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.link_kinds.len()
    }

    /// Capacity of each link in bytes/s, indexed by [`LinkId`].
    pub fn link_capacities(&self) -> &[f64] {
        &self.link_capacities
    }

    /// Kind of a link.
    pub fn link_kind(&self, l: LinkId) -> LinkKind {
        self.link_kinds[l.0 as usize]
    }

    fn nv_tx(&self, d: DeviceId) -> LinkId {
        LinkId(d.0)
    }

    fn nv_rx(&self, d: DeviceId) -> LinkId {
        LinkId(self.devices() as u32 + d.0)
    }

    fn nic_tx(&self, d: DeviceId) -> LinkId {
        LinkId(2 * self.devices() as u32 + d.0)
    }

    fn nic_rx(&self, d: DeviceId) -> LinkId {
        LinkId(3 * self.devices() as u32 + d.0)
    }

    /// Links traversed by a flow from `src` to `dst`. Empty for a
    /// device-local copy (`src == dst`).
    pub fn path(&self, src: DeviceId, dst: DeviceId) -> Path {
        if src == dst {
            return Path {
                links: [LinkId(0); 2],
                len: 0,
            };
        }
        let links = if self.same_node(src, dst) {
            [self.nv_tx(src), self.nv_rx(dst)]
        } else {
            [self.nic_tx(src), self.nic_rx(dst)]
        };
        Path { links, len: 2 }
    }

    /// Base latency of a flow from `src` to `dst`.
    pub fn latency(&self, src: DeviceId, dst: DeviceId) -> SimDuration {
        if src == dst {
            SimDuration::from_micros(1)
        } else if self.same_node(src, dst) {
            self.spec.intra_latency
        } else {
            self.spec.inter_latency
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(ClusterSpec::paper_testbed())
    }

    #[test]
    fn paper_testbed_shape() {
        let t = topo();
        assert_eq!(t.devices(), 16);
        assert_eq!(t.nodes(), 4);
        // 16 NvTx + 16 NvRx + 16 NicTx + 16 NicRx.
        assert_eq!(t.link_count(), 64);
    }

    #[test]
    fn node_and_local_rank_mapping() {
        let t = topo();
        assert_eq!(t.node_of(DeviceId(0)), NodeId(0));
        assert_eq!(t.node_of(DeviceId(3)), NodeId(0));
        assert_eq!(t.node_of(DeviceId(4)), NodeId(1));
        assert_eq!(t.node_of(DeviceId(15)), NodeId(3));
        assert_eq!(t.local_rank(DeviceId(6)), 2);
        assert_eq!(t.device_at(NodeId(1), 2), DeviceId(6));
        for d in t.device_ids() {
            assert_eq!(t.device_at(t.node_of(d), t.local_rank(d)), d);
        }
    }

    #[test]
    fn same_node_predicate() {
        let t = topo();
        assert!(t.same_node(DeviceId(0), DeviceId(3)));
        assert!(!t.same_node(DeviceId(3), DeviceId(4)));
    }

    #[test]
    fn intra_node_path_uses_nvlink() {
        let t = topo();
        let p = t.path(DeviceId(1), DeviceId(2));
        assert_eq!(p.len(), 2);
        assert_eq!(t.link_kind(p[0]), LinkKind::NvlinkTx(DeviceId(1)));
        assert_eq!(t.link_kind(p[1]), LinkKind::NvlinkRx(DeviceId(2)));
    }

    #[test]
    fn inter_node_path_uses_nics() {
        let t = topo();
        let p = t.path(DeviceId(1), DeviceId(14));
        assert_eq!(p.len(), 2);
        assert_eq!(t.link_kind(p[0]), LinkKind::NicTx(DeviceId(1)));
        assert_eq!(t.link_kind(p[1]), LinkKind::NicRx(DeviceId(14)));
    }

    #[test]
    fn loopback_path_is_empty() {
        let t = topo();
        assert!(t.path(DeviceId(5), DeviceId(5)).is_empty());
    }

    #[test]
    fn latency_ordering() {
        let t = topo();
        let local = t.latency(DeviceId(0), DeviceId(0));
        let intra = t.latency(DeviceId(0), DeviceId(1));
        let inter = t.latency(DeviceId(0), DeviceId(4));
        assert!(local < intra);
        assert!(intra < inter);
    }

    #[test]
    fn with_total_gpus_variants() {
        assert_eq!(ClusterSpec::with_total_gpus(2).nodes, 2);
        assert_eq!(ClusterSpec::with_total_gpus(2).gpus_per_node, 1);
        assert_eq!(ClusterSpec::with_total_gpus(4).nodes, 4);
        assert_eq!(ClusterSpec::with_total_gpus(8).nodes, 2);
        assert_eq!(ClusterSpec::with_total_gpus(8).gpus_per_node, 4);
        assert_eq!(ClusterSpec::with_total_gpus(16).nodes, 4);
    }

    #[test]
    fn link_capacities_match_kinds() {
        let t = topo();
        for l in 0..t.link_count() {
            let id = LinkId(l as u32);
            let cap = t.link_capacities()[l];
            match t.link_kind(id) {
                LinkKind::NvlinkTx(_) | LinkKind::NvlinkRx(_) => {
                    assert_eq!(cap, t.spec().nvlink_bw)
                }
                LinkKind::NicTx(_) | LinkKind::NicRx(_) => assert_eq!(cap, t.spec().nic_bw),
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_of_out_of_range_panics() {
        topo().node_of(DeviceId(16));
    }
}
