//! Collective communication operations over the flow-level network.
//!
//! The MoE execution uses two collectives:
//!
//! * **all-to-all** — every participant sends a (possibly unequal) byte
//!   count to every other participant. A flat decomposition launches all
//!   pairwise flows at once; the hierarchical variant (Tutel-style, and
//!   what the paper enables for both systems) does an intra-node
//!   exchange, an inter-node exchange of node-aggregated chunks, and an
//!   intra-node scatter.
//! * **allreduce** — ring algorithm over participants in rank order; each
//!   device moves `2 (P-1) / P x bytes` to its ring successor. We use the
//!   fluid single-phase model of the ring (identical completion time on a
//!   homogeneous topology, and a faithful share of bandwidth under
//!   contention).
//!
//! Every flow of a collective carries weight `1 / k`, where `k` is the
//! maximum number of the collective's concurrent flows over any link it
//! uses, so two overlapping collectives share a link evenly no matter how
//! many flows each decomposes into (mirroring two NCCL communicators).

use std::collections::BTreeMap;

use lina_simcore::{SimDuration, SimTime};

use crate::network::{FlowDone, FlowSpec, Network};
use crate::topology::{DeviceId, Topology};

/// Identifies a running collective operation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CollectiveId(pub u64);

/// All-to-all decomposition strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllToAllAlgo {
    /// All pairwise flows at once.
    Flat,
    /// Intra-node gather, inter-node exchange, intra-node scatter.
    Hierarchical,
}

/// Specification of a collective to launch.
#[derive(Clone, Debug)]
pub enum CollectiveSpec {
    /// All-to-all with per-pair sizes: `sizes[i][j]` bytes travel from
    /// `participants[i]` to `participants[j]`. Unequal splits are the
    /// mechanism behind Lina's inference-time coordination.
    AllToAll {
        /// Participating devices in rank order.
        participants: Vec<DeviceId>,
        /// Byte matrix, `sizes[src_rank][dst_rank]`.
        sizes: Vec<Vec<f64>>,
        /// Decomposition strategy.
        algo: AllToAllAlgo,
    },
    /// Ring allreduce of `bytes` per participant.
    AllReduce {
        /// Participating devices in rank order (ring order).
        participants: Vec<DeviceId>,
        /// Gradient bytes reduced on each device.
        bytes: f64,
    },
}

impl CollectiveSpec {
    /// Builds a uniform all-to-all where every participant sends
    /// `bytes_per_pair` to every other participant (the training-time
    /// equal split).
    pub fn uniform_all_to_all(
        participants: Vec<DeviceId>,
        bytes_per_pair: f64,
        algo: AllToAllAlgo,
    ) -> Self {
        let p = participants.len();
        let sizes = vec![vec![bytes_per_pair; p]; p];
        CollectiveSpec::AllToAll {
            participants,
            sizes,
            algo,
        }
    }

    /// Total payload bytes moved by this collective (excluding
    /// device-local copies).
    pub fn total_bytes(&self) -> f64 {
        match self {
            CollectiveSpec::AllToAll {
                participants,
                sizes,
                ..
            } => {
                let mut total = 0.0;
                for (i, row) in sizes.iter().enumerate() {
                    for (j, &b) in row.iter().enumerate() {
                        if participants[i] != participants[j] {
                            total += b;
                        }
                    }
                }
                total
            }
            CollectiveSpec::AllReduce {
                participants,
                bytes,
            } => {
                let p = participants.len() as f64;
                if p < 2.0 {
                    0.0
                } else {
                    2.0 * (p - 1.0) * *bytes
                }
            }
        }
    }
}

/// One phase of a decomposed collective: flows to launch together.
#[derive(Clone, Debug, Default)]
struct PhasePlan {
    flows: Vec<(DeviceId, DeviceId, f64)>,
}

#[derive(Clone, Debug)]
struct RunningCollective {
    phases: Vec<PhasePlan>,
    current: usize,
    outstanding: usize,
    tag: u64,
    launch_overhead: SimDuration,
    started: SimTime,
}

/// A completed-collective notification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CollectiveDone {
    /// The collective that finished.
    pub id: CollectiveId,
    /// Caller-defined tag.
    pub tag: u64,
    /// Completion instant.
    pub at: SimTime,
    /// Launch instant, for duration accounting.
    pub started: SimTime,
}

/// Drives collectives over a [`Network`], handling phase transitions.
///
/// Every flow a collective starts carries the collective's id as its
/// tag, and the engine owns the network outright, so each flow
/// completion belongs to a running collective.
#[derive(Clone, Debug)]
pub struct CollectiveEngine {
    net: Network,
    /// Running collectives in ascending id order (ids only grow, so a
    /// new one is pushed at the end).
    running: Vec<(CollectiveId, RunningCollective)>,
    next_id: u64,
    /// Per-link flow counts of the phase being launched, all zero
    /// between launches.
    link_share: Vec<u32>,
    /// Flow completions of the current network segment (empty between
    /// segments).
    flows_done: Vec<FlowDone>,
}

impl CollectiveEngine {
    /// Wraps a network.
    pub fn new(net: Network) -> Self {
        CollectiveEngine {
            link_share: vec![0; net.topology().link_count()],
            net,
            running: Vec::new(),
            next_id: 0,
            flows_done: Vec::new(),
        }
    }

    /// Immutable access to the underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Scales every link capacity of the underlying network (fault
    /// injection: 1.0 = healthy, < 1.0 = degraded); see
    /// [`Network::set_capacity_scale`]. Running collectives re-share
    /// the changed links from the current instant onward.
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is finite and positive.
    pub fn set_capacity_scale(&mut self, scale: f64) {
        self.net.set_capacity_scale(scale);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Number of collectives in flight.
    pub fn active(&self) -> usize {
        self.running.len()
    }

    fn plan(&self, spec: &CollectiveSpec) -> Vec<PhasePlan> {
        match spec {
            CollectiveSpec::AllToAll {
                participants,
                sizes,
                algo,
            } => match algo {
                AllToAllAlgo::Flat => {
                    let mut phase = PhasePlan::default();
                    for (i, &src) in participants.iter().enumerate() {
                        for (j, &dst) in participants.iter().enumerate() {
                            if src != dst && sizes[i][j] > 0.0 {
                                phase.flows.push((src, dst, sizes[i][j]));
                            }
                        }
                    }
                    vec![phase]
                }
                AllToAllAlgo::Hierarchical => self.plan_hierarchical(participants, sizes),
            },
            CollectiveSpec::AllReduce {
                participants,
                bytes,
            } => {
                let p = participants.len();
                if p < 2 {
                    return vec![PhasePlan::default()];
                }
                // Fluid ring: each device streams 2(P-1)/P x bytes to its
                // successor; all segments move concurrently.
                let per_edge = 2.0 * (p as f64 - 1.0) / p as f64 * *bytes;
                let mut phase = PhasePlan::default();
                for (i, &src) in participants.iter().enumerate() {
                    let dst = participants[(i + 1) % p];
                    phase.flows.push((src, dst, per_edge));
                }
                vec![phase]
            }
        }
    }

    /// Hierarchical all-to-all: route data for remote device `(m, q)`
    /// through the local device with local rank `q`.
    fn plan_hierarchical(&self, participants: &[DeviceId], sizes: &[Vec<f64>]) -> Vec<PhasePlan> {
        let topo = self.net.topology();
        let rank_of: BTreeMap<DeviceId, usize> = participants
            .iter()
            .enumerate()
            .map(|(r, &d)| (d, r))
            .collect();
        let mut gather = PhasePlan::default();
        let mut exchange = PhasePlan::default();
        let mut scatter = PhasePlan::default();
        // Phase 1: device i forwards to the local proxy with the same
        // local rank as each remote destination.
        let mut proxy_load: BTreeMap<(DeviceId, DeviceId), f64> = BTreeMap::new();
        for (&src, &i) in &rank_of {
            for (&dst, &j) in &rank_of {
                let b = sizes[i][j];
                if b <= 0.0 || src == dst {
                    continue;
                }
                if topo.same_node(src, dst) {
                    // Local traffic goes direct in phase 1.
                    gather.flows.push((src, dst, b));
                    continue;
                }
                let proxy = topo.device_at(topo.node_of(src), topo.local_rank(dst));
                if proxy != src {
                    gather.flows.push((src, proxy, b));
                }
                // Phase 2: proxy sends the aggregate for (remote node,
                // local rank) to its peer proxy on the destination node.
                let peer = topo.device_at(topo.node_of(dst), topo.local_rank(dst));
                *proxy_load.entry((proxy, peer)).or_insert(0.0) += b;
                // Phase 3: the peer proxy is the destination itself
                // (same local rank), so no scatter flow is needed unless
                // the routing had to come in on a different rank. With
                // same-rank routing, peer == dst, so scatter only handles
                // the degenerate single-GPU-node case.
                if peer != dst {
                    scatter.flows.push((peer, dst, b));
                }
            }
        }
        for ((src, dst), b) in proxy_load {
            exchange.flows.push((src, dst, b));
        }
        let mut phases = Vec::new();
        if !gather.flows.is_empty() {
            phases.push(gather);
        }
        if !exchange.flows.is_empty() {
            phases.push(exchange);
        }
        if !scatter.flows.is_empty() {
            phases.push(scatter);
        }
        if phases.is_empty() {
            phases.push(PhasePlan::default());
        }
        phases
    }

    /// Starts the flows of `rc`'s current phase.
    fn launch_phase(
        net: &mut Network,
        link_share: &mut [u32],
        id: CollectiveId,
        rc: &mut RunningCollective,
    ) {
        let phase = &rc.phases[rc.current];
        let overhead = if rc.current == 0 {
            rc.launch_overhead
        } else {
            SimDuration::ZERO
        };
        let weight = phase_weight(net.topology(), link_share, phase);
        rc.outstanding = phase.flows.len();
        for &(src, dst, bytes) in &phase.flows {
            net.start_flow(FlowSpec {
                src,
                dst,
                bytes,
                weight,
                extra_latency: overhead,
                tag: id.0,
            });
        }
    }

    /// Launches a collective; completion is reported by
    /// [`CollectiveEngine::advance_to`] with the given tag.
    pub fn start(&mut self, spec: &CollectiveSpec, tag: u64) -> CollectiveId {
        let phases = self.plan(spec);
        let id = CollectiveId(self.next_id);
        self.next_id += 1;
        let mut rc = RunningCollective {
            phases,
            current: 0,
            outstanding: 0,
            tag,
            launch_overhead: self.net.topology().spec().collective_launch_overhead,
            started: self.net.now(),
        };
        Self::launch_phase(&mut self.net, &mut self.link_share, id, &mut rc);
        self.running.push((id, rc));
        // An empty first phase (e.g. single-participant collective)
        // completes at the current instant; advance_to picks it up.
        id
    }

    /// Cancels every running collective and its flows without reporting
    /// completions — the replica driving them has crashed. Time does not
    /// advance; the engine is reusable afterwards (recovery).
    pub fn cancel_all(&mut self) {
        self.running.clear();
        self.net.cancel_all_flows();
    }

    /// Cancels every running collective carrying `tag` (and its flows)
    /// without reporting a completion — the batch driving it was
    /// aborted (e.g. a hedged duplicate lost the race). Returns how
    /// many collectives were cancelled; surviving collectives re-share
    /// the freed links from the current instant onward.
    pub fn cancel_tagged(&mut self, tag: u64) -> usize {
        let before = self.running.len();
        let net = &mut self.net;
        self.running.retain(|(id, rc)| {
            if rc.tag != tag {
                return true;
            }
            // Flows are tagged with the collective id, not the caller tag.
            net.cancel_flows_with_tag(id.0);
            false
        });
        before - self.running.len()
    }

    /// Next instant at which anything changes: a flow event or an
    /// empty-phase promotion.
    pub fn next_event(&mut self) -> Option<SimTime> {
        if self.running.iter().any(|(_, rc)| rc.outstanding == 0) {
            return Some(self.net.now());
        }
        self.net.next_event()
    }

    /// Advances to `t`, promoting phases and completing collectives.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<CollectiveDone> {
        let mut done = Vec::new();
        self.advance_into(t, &mut done);
        done
    }

    /// [`CollectiveEngine::advance_to`], appending the completions to
    /// `done`.
    fn advance_into(&mut self, t: SimTime, done: &mut Vec<CollectiveDone>) {
        loop {
            // Promote any collective whose current phase has no
            // outstanding flows (empty phases or freshly finished ones),
            // in id order. Only a first phase can be empty, so a phase
            // launched here is never promoted again in the same pass.
            let (net, link_share) = (&mut self.net, &mut self.link_share);
            self.running.retain_mut(|(id, rc)| {
                if rc.outstanding != 0 {
                    return true;
                }
                if rc.current + 1 < rc.phases.len() {
                    rc.current += 1;
                    Self::launch_phase(net, link_share, *id, rc);
                    return true;
                }
                done.push(CollectiveDone {
                    id: *id,
                    tag: rc.tag,
                    at: net.now(),
                    started: rc.started,
                });
                false
            });
            if self.net.now() >= t {
                break;
            }
            self.net.step(t, &mut self.flows_done);
            for fd in self.flows_done.drain(..) {
                let owner = self
                    .running
                    .binary_search_by_key(&CollectiveId(fd.tag), |(id, _)| *id)
                    .ok()
                    .map(|i| &mut self.running[i].1)
                    .filter(|rc| rc.outstanding > 0);
                let Some(rc) = owner else {
                    panic!(
                        "CollectiveEngine: flow {:?} completed for no running collective (tag {})",
                        fd.id, fd.tag
                    )
                };
                rc.outstanding -= 1;
            }
        }
    }

    /// Runs until all collectives complete; returns completions in order.
    /// Returns what completed so far if progress stalls.
    pub fn run_to_idle(&mut self) -> Vec<CollectiveDone> {
        let mut done = Vec::new();
        while self.active() > 0 {
            let Some(next) = self.next_event() else { break };
            // Step slightly past the event to process completions. This
            // gives every completion a 1 ns drain segment of its own on
            // the network; that segment is part of the pinned arithmetic
            // (solo prices and golden digests depend on it), so it must
            // not be optimised away.
            self.advance_into(next + SimDuration::from_nanos(1), &mut done);
        }
        done
    }
}

/// Per-flow weight so the collective's aggregate weight on its most
/// shared link is 1. Counts flows per link in `link_share`, which must
/// be all zero, and leaves it all zero again.
fn phase_weight(topo: &Topology, link_share: &mut [u32], phase: &PhasePlan) -> f64 {
    let mut max_share = 1;
    for &(src, dst, _) in &phase.flows {
        for l in topo.path(src, dst).iter() {
            let share = &mut link_share[l.0 as usize];
            *share += 1;
            max_share = max_share.max(*share);
        }
    }
    for &(src, dst, _) in &phase.flows {
        for l in topo.path(src, dst).iter() {
            link_share[l.0 as usize] = 0;
        }
    }
    1.0 / max_share as f64
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::topology::{ClusterSpec, Topology};

    fn engine() -> CollectiveEngine {
        CollectiveEngine::new(Network::new(Topology::new(ClusterSpec::paper_testbed())))
    }

    fn devs(n: u32) -> Vec<DeviceId> {
        (0..n).map(DeviceId).collect()
    }

    /// A two-participant all-to-all with one nonzero entry: a single
    /// `src -> dst` flow of weight 1.
    pub(crate) fn one_flow(src: u32, dst: u32, bytes: f64) -> CollectiveSpec {
        CollectiveSpec::AllToAll {
            participants: vec![DeviceId(src), DeviceId(dst)],
            sizes: vec![vec![0.0, bytes], vec![0.0, 0.0]],
            algo: AllToAllAlgo::Flat,
        }
    }

    #[test]
    fn send_completes_in_transfer_time() {
        let mut e = engine();
        let bw = e.network().topology().spec().nic_bw;
        e.start(&one_flow(0, 4, 1e9), 9);
        let done = e.run_to_idle();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 9);
        let secs = done[0].at.as_secs_f64();
        let expected = 1e9 / bw;
        assert!(
            (secs - expected).abs() / expected < 0.02,
            "{secs} vs {expected}"
        );
    }

    #[test]
    fn flat_all_to_all_16_devices() {
        let mut e = engine();
        let bw = e.network().topology().spec().nic_bw;
        // 32 MiB per device total, split evenly over 16 destinations.
        let per_pair = 32.0 * 1024.0 * 1024.0 / 16.0;
        let spec = CollectiveSpec::uniform_all_to_all(devs(16), per_pair, AllToAllAlgo::Flat);
        e.start(&spec, 0);
        let done = e.run_to_idle();
        assert_eq!(done.len(), 1);
        // Bottleneck: each device's NIC carries 12 remote destinations
        // x per_pair bytes.
        let nic_bytes = 12.0 * per_pair;
        let expected = nic_bytes / bw;
        let secs = done[0].at.as_secs_f64();
        assert!(
            (secs - expected).abs() / expected < 0.05,
            "a2a took {secs}, expected ~{expected}"
        );
    }

    #[test]
    fn hierarchical_matches_flat_volume_on_nic() {
        let per_pair = 1e6;
        let spec_flat = CollectiveSpec::uniform_all_to_all(devs(16), per_pair, AllToAllAlgo::Flat);
        let spec_hier =
            CollectiveSpec::uniform_all_to_all(devs(16), per_pair, AllToAllAlgo::Hierarchical);
        let mut e1 = engine();
        e1.start(&spec_flat, 0);
        let t_flat = e1.run_to_idle()[0].at;
        let mut e2 = engine();
        e2.start(&spec_hier, 0);
        let t_hier = e2.run_to_idle()[0].at;
        // Same inter-node volume; hierarchical adds serialized
        // intra-node gather/scatter phases over PCIe-class links, so it
        // pays a bounded premium in the fluid model.
        let ratio = t_hier.as_secs_f64() / t_flat.as_secs_f64();
        assert!((0.7..1.8).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn intra_node_all_to_all_avoids_nic() {
        let mut e = engine();
        let spec = CollectiveSpec::uniform_all_to_all(devs(4), 1e8, AllToAllAlgo::Flat);
        e.start(&spec, 0);
        let done = e.run_to_idle();
        // 3e8 bytes per intra-node port at 22 GB/s ~ 14ms; the NIC at
        // 11 GB/s would need at least twice that for the same volume.
        let intra_bw = e.network().topology().spec().nvlink_bw;
        let expected = 3e8 / intra_bw;
        let secs = done[0].at.as_secs_f64();
        assert!(
            (secs - expected).abs() / expected < 0.1,
            "took {secs}, expected ~{expected}"
        );
    }

    #[test]
    fn allreduce_ring_time_scales_with_bytes() {
        let mut e = engine();
        let bw = e.network().topology().spec().nic_bw;
        let bytes = 100e6;
        e.start(
            &CollectiveSpec::AllReduce {
                participants: devs(16),
                bytes,
            },
            0,
        );
        let done = e.run_to_idle();
        // Each ring edge carries 2 * 15/16 * bytes; the slowest edges
        // are the inter-node ones over a device NIC.
        let expected = 2.0 * 15.0 / 16.0 * bytes / bw;
        let secs = done[0].at.as_secs_f64();
        assert!(
            (secs - expected).abs() / expected < 0.05,
            "allreduce took {secs}, expected ~{expected}"
        );
    }

    #[test]
    fn cancel_tagged_drops_only_the_matching_collective() {
        // Alone, a one-flow transfer completes in its solo transfer
        // time. Starting a contending transfer and cancelling it
        // mid-flight must return the survivor to roughly its solo
        // completion.
        let spec = |dst| one_flow(0, dst, 1e9);
        let mut solo = engine();
        solo.start(&spec(4), 1);
        let solo_at = solo.run_to_idle()[0].at;

        let mut e = engine();
        e.start(&spec(4), 1);
        e.start(&spec(8), 2);
        assert_eq!(e.active(), 2);
        // Cancel an unknown tag: a no-op.
        assert_eq!(e.cancel_tagged(7), 0);
        // Drive partway, then cancel the contender.
        let done = e.advance_to(SimTime::from_millis(10));
        assert!(done.is_empty());
        assert_eq!(e.cancel_tagged(2), 1);
        assert_eq!(e.active(), 1);
        let done = e.run_to_idle();
        assert_eq!(done.len(), 1, "only the survivor completes");
        assert_eq!(done[0].tag, 1);
        // Sharing the NIC for 10ms then running alone: strictly later
        // than solo but far sooner than a fully halved share.
        assert!(done[0].at > solo_at, "{} vs solo {}", done[0].at, solo_at);
        assert!(
            done[0].at < solo_at + SimDuration::from_millis(20),
            "cancelled contender kept slowing the survivor: {} vs solo {}",
            done[0].at,
            solo_at
        );
    }

    #[test]
    fn overlapping_collectives_slow_each_other_down() {
        // An all-to-all alone vs overlapped with an allreduce: the
        // overlapped one should take roughly 2x (fair halves), which is
        // the Figure 3 phenomenon.
        let per_pair = 2e6;
        let a2a = CollectiveSpec::uniform_all_to_all(devs(16), per_pair, AllToAllAlgo::Flat);
        let mut solo = engine();
        solo.start(&a2a, 0);
        let t_solo = solo.run_to_idle()[0].at.as_secs_f64();

        let mut both = engine();
        both.start(&a2a, 0);
        both.start(
            &CollectiveSpec::AllReduce {
                participants: devs(16),
                bytes: 500e6,
            },
            1,
        );
        let done = both.advance_to(SimTime::from_secs_f64(10.0));
        let t_a2a = done
            .iter()
            .find(|d| d.tag == 0)
            .expect("a2a completes")
            .at
            .as_secs_f64();
        let slowdown = t_a2a / t_solo;
        assert!(
            (1.6..2.4).contains(&slowdown),
            "slowdown {slowdown} (solo {t_solo}, overlapped {t_a2a})"
        );
    }

    #[test]
    fn unequal_all_to_all_bottleneck_is_heavy_receiver() {
        let mut e = engine();
        let bw = e.network().topology().spec().nic_bw;
        let participants = devs(16);
        // Everyone sends 10 MiB to device 0 and nothing else: device 0's
        // NIC rx is the bottleneck (12 remote senders).
        let mut sizes = vec![vec![0.0; 16]; 16];
        for (i, row) in sizes.iter_mut().enumerate() {
            if i != 0 {
                row[0] = 10e6;
            }
        }
        e.start(
            &CollectiveSpec::AllToAll {
                participants,
                sizes,
                algo: AllToAllAlgo::Flat,
            },
            0,
        );
        let done = e.run_to_idle();
        let expected = 12.0 * 10e6 / bw;
        let secs = done[0].at.as_secs_f64();
        assert!(
            (secs - expected).abs() / expected < 0.05,
            "took {secs}, expected ~{expected}"
        );
    }

    #[test]
    fn single_participant_collectives_complete_immediately() {
        let mut e = engine();
        e.start(
            &CollectiveSpec::AllReduce {
                participants: devs(1),
                bytes: 1e9,
            },
            0,
        );
        let done = e.run_to_idle();
        assert_eq!(done.len(), 1);
        assert!(done[0].at.as_secs_f64() < 1e-3);
    }

    #[test]
    fn total_bytes_accounting() {
        let a2a = CollectiveSpec::uniform_all_to_all(devs(4), 100.0, AllToAllAlgo::Flat);
        assert_eq!(a2a.total_bytes(), 12.0 * 100.0);
        let ar = CollectiveSpec::AllReduce {
            participants: devs(4),
            bytes: 100.0,
        };
        assert_eq!(ar.total_bytes(), 600.0);
    }

    /// Only the engine's own flows count towards a collective. A flow
    /// started on the engine's network with the tag of a running
    /// collective finishes first (1 kB, ~8 µs, against a 1 GB transfer
    /// that takes ~83 ms alone) and ends the transfer's count early; the
    /// transfer's own flow then completes for no running collective,
    /// which the engine must refuse rather than skip.
    #[test]
    #[should_panic(expected = "completed for no running collective")]
    fn a_stray_flow_cannot_complete_a_collective() {
        let mut e = engine();
        e.start(&one_flow(0, 4, 1e9), 0);
        e.net.start_flow(FlowSpec {
            src: DeviceId(8),
            dst: DeviceId(12),
            bytes: 1e3,
            weight: 1.0,
            extra_latency: SimDuration::ZERO,
            tag: 0,
        });
        e.advance_to(SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn capacity_scale_stretches_a_send() {
        let send = one_flow(0, 4, 1e9);
        let mut healthy = engine();
        healthy.start(&send, 0);
        let healthy = healthy.run_to_idle()[0].at.as_secs_f64();
        let mut degraded = engine();
        degraded.set_capacity_scale(0.5);
        assert_eq!(degraded.network().capacity_scale(), 0.5);
        degraded.start(&send, 0);
        let degraded = degraded.run_to_idle()[0].at.as_secs_f64();
        let ratio = degraded / healthy;
        assert!((ratio - 2.0).abs() < 0.01, "half bandwidth ratio {ratio}");
    }

    #[test]
    fn concurrent_collectives_both_complete() {
        let mut e = engine();
        for tag in 0..4 {
            e.start(
                &CollectiveSpec::uniform_all_to_all(devs(16), 1e6, AllToAllAlgo::Flat),
                tag,
            );
        }
        let done = e.run_to_idle();
        assert_eq!(done.len(), 4);
        let mut tags: Vec<u64> = done.iter().map(|d| d.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 1, 2, 3]);
    }
}
