//! # lina-netsim
//!
//! A flow-level simulator of the paper's GPU cluster: a two-level
//! topology (NVLink within nodes, 100 Gbps NICs between them), weighted
//! max-min fair bandwidth sharing, and the collective operations MoE
//! execution is built from (all-to-all — flat, hierarchical, and
//! unequal-split — ring allreduce, broadcast, and point-to-point sends).
//!
//! Contention is emergent: overlapping collectives split links under the
//! fluid fair-share model, which is what produces the paper's Figure 3
//! slowdown distribution without any hard-coded factors.

#![warn(missing_docs)]

pub mod collectives;
pub mod fairshare;
pub mod network;
pub mod solo;
pub mod topology;

pub use collectives::{
    AllToAllAlgo, CollectiveDone, CollectiveEngine, CollectiveId, CollectiveSpec,
};
pub use fairshare::{max_min_rates, FlowDemand};
pub use network::{FlowDone, FlowId, FlowSpec, NetStats, Network};
pub use solo::SoloTimer;
pub use topology::{ClusterSpec, DeviceId, LinkId, LinkKind, NodeId, Path, Topology};
