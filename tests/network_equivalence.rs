//! Differential test of the flow-level network against a reference.
//!
//! `oracle` below is a test-local copy of the textbook implementation:
//! a `BTreeMap` flow table re-collected on every recompute and an
//! allocating water-filling loop that scans every link for each
//! bottleneck and every flow for each freeze, plus the collective loop
//! that drove it (`BTreeMap` phase weights, a phase plan per launch).
//! The production `Network` keeps an id-ordered latency list, an
//! unordered transfer list, a solver whose link -> flow index persists
//! across solves and that replays its last solve's rounds after
//! departures, and a cached next event; these tests drive both
//! through the same seeded scripts and require every observable to be
//! the same bits. The solo test does the same for `SoloTimer`, and the
//! concurrent-collective test for `CollectiveEngine` with many
//! collectives in flight, cancelled and re-shared at once.

use lina::netsim::{
    max_min_rates, AllToAllAlgo, ClusterSpec, CollectiveEngine, CollectiveSpec, DeviceId,
    FlowDemand, FlowDone, FlowId, FlowSpec, Network, SoloTimer, Topology,
};
use lina::simcore::{Rng, SimDuration, SimTime};

/// How many seeds a seeded-script test runs. The nightly soak job
/// raises this through `LINA_PROP_ROUNDS`, as it does for the serve
/// property tests; the default keeps the ordinary test tier fast.
fn rounds(default: u64) -> u64 {
    std::env::var("LINA_PROP_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

mod oracle {
    use std::collections::BTreeMap;

    use super::*;

    pub fn max_min_rates(capacities: &[f64], flows: &[(f64, &[u32])]) -> Vec<f64> {
        let n = flows.len();
        let mut rates = vec![0.0f64; n];
        let mut frozen = vec![false; n];
        for (i, f) in flows.iter().enumerate() {
            if f.1.is_empty() {
                rates[i] = f64::INFINITY;
                frozen[i] = true;
            }
        }
        let mut remaining: Vec<f64> = capacities.to_vec();
        let mut link_weight = vec![0.0f64; capacities.len()];
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                for &l in f.1 {
                    link_weight[l as usize] += f.0;
                }
            }
        }
        loop {
            let mut bottleneck: Option<(usize, f64)> = None;
            for (l, &w) in link_weight.iter().enumerate() {
                if w > 1e-12 {
                    let level = remaining[l] / w;
                    match bottleneck {
                        Some((_, best)) if level >= best => {}
                        _ => bottleneck = Some((l, level)),
                    }
                }
            }
            let Some((bl, level)) = bottleneck else { break };
            let level = level.max(0.0);
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] || !f.1.contains(&(bl as u32)) {
                    continue;
                }
                let rate = f.0 * level;
                rates[i] = rate;
                frozen[i] = true;
                for &l in f.1 {
                    remaining[l as usize] = (remaining[l as usize] - rate).max(0.0);
                    link_weight[l as usize] -= f.0;
                }
            }
            link_weight[bl] = link_weight[bl].max(0.0);
        }
        rates
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Phase {
        Latency { left: SimDuration },
        Transfer,
    }

    struct ActiveFlow {
        links: Vec<u32>,
        weight: f64,
        phase: Phase,
        total: f64,
        remaining: f64,
        rate: f64,
        tag: u64,
    }

    pub struct Network {
        topo: Topology,
        now: SimTime,
        flows: BTreeMap<FlowId, ActiveFlow>,
        next_id: u64,
        rates_valid: bool,
        pub flows_completed: u64,
        pub bytes_delivered: f64,
        capacity_scale: f64,
    }

    impl Network {
        pub fn new(topo: Topology) -> Self {
            Network {
                topo,
                now: SimTime::ZERO,
                flows: BTreeMap::new(),
                next_id: 0,
                rates_valid: true,
                flows_completed: 0,
                bytes_delivered: 0.0,
                capacity_scale: 1.0,
            }
        }

        pub fn set_capacity_scale(&mut self, scale: f64) {
            if scale != self.capacity_scale {
                self.capacity_scale = scale;
                self.rates_valid = false;
            }
        }

        pub fn cancel_all_flows(&mut self) {
            self.flows.clear();
            self.rates_valid = false;
        }

        pub fn cancel_flows_with_tag(&mut self, tag: u64) {
            let before = self.flows.len();
            self.flows.retain(|_, f| f.tag != tag);
            if self.flows.len() != before {
                self.rates_valid = false;
            }
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn active_flows(&self) -> usize {
            self.flows.len()
        }

        pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
            let links: Vec<u32> = self
                .topo
                .path(spec.src, spec.dst)
                .iter()
                .map(|l| l.0)
                .collect();
            let latency = self.topo.latency(spec.src, spec.dst) + spec.extra_latency;
            let id = FlowId(self.next_id);
            self.next_id += 1;
            self.flows.insert(
                id,
                ActiveFlow {
                    links,
                    weight: spec.weight,
                    phase: Phase::Latency { left: latency },
                    total: spec.bytes,
                    remaining: spec.bytes,
                    rate: 0.0,
                    tag: spec.tag,
                },
            );
            self.rates_valid = false;
            id
        }

        fn recompute_rates(&mut self) {
            if self.rates_valid {
                return;
            }
            let transferring: Vec<FlowId> = self
                .flows
                .iter()
                .filter(|(_, f)| f.phase == Phase::Transfer)
                .map(|(&id, _)| id)
                .collect();
            let demands: Vec<(f64, &[u32])> = transferring
                .iter()
                .map(|id| {
                    let f = &self.flows[id];
                    (f.weight, f.links.as_slice())
                })
                .collect();
            let rates = if self.capacity_scale == 1.0 {
                max_min_rates(self.topo.link_capacities(), &demands)
            } else {
                let scaled: Vec<f64> = self
                    .topo
                    .link_capacities()
                    .iter()
                    .map(|c| c * self.capacity_scale)
                    .collect();
                max_min_rates(&scaled, &demands)
            };
            for (id, rate) in transferring.into_iter().zip(rates) {
                self.flows.get_mut(&id).expect("flow exists").rate = rate;
            }
            self.rates_valid = true;
        }

        pub fn next_event(&mut self) -> Option<SimTime> {
            self.recompute_rates();
            let mut earliest: Option<SimTime> = None;
            for f in self.flows.values() {
                let t = match &f.phase {
                    Phase::Latency { left } => self.now + *left,
                    Phase::Transfer => {
                        if f.remaining <= 0.0 || f.rate.is_infinite() {
                            self.now
                        } else if f.rate > 0.0 {
                            self.now
                                + SimDuration::from_secs_f64(f.remaining / f.rate)
                                + SimDuration::from_nanos(1)
                        } else {
                            continue;
                        }
                    }
                };
                earliest = Some(match earliest {
                    None => t,
                    Some(e) => e.min(t),
                });
            }
            earliest
        }

        pub fn advance_to(&mut self, t: SimTime) -> Vec<FlowDone> {
            let mut done = Vec::new();
            while self.now < t {
                self.recompute_rates();
                let seg_end = match self.next_event() {
                    Some(e) if e < t => e,
                    _ => t,
                };
                let dt = seg_end - self.now;
                let dt_secs = dt.as_secs_f64();
                let mut transitioned = false;
                let mut completed: Vec<FlowId> = Vec::new();
                for (&id, f) in self.flows.iter_mut() {
                    match &mut f.phase {
                        Phase::Latency { left } => {
                            if *left <= dt {
                                f.phase = Phase::Transfer;
                                transitioned = true;
                                if f.links.is_empty() || f.remaining <= 0.0 {
                                    completed.push(id);
                                }
                            } else {
                                *left -= dt;
                            }
                        }
                        Phase::Transfer => {
                            if f.rate.is_infinite() {
                                f.remaining = 0.0;
                            } else {
                                f.remaining -= f.rate * dt_secs;
                            }
                            let eps = f.rate * 2e-9 + 1e-9;
                            if f.remaining <= eps {
                                completed.push(id);
                            }
                        }
                    }
                }
                self.now = seg_end;
                if !completed.is_empty() {
                    transitioned = true;
                    for id in completed {
                        let f = self.flows.remove(&id).expect("completed flow exists");
                        self.flows_completed += 1;
                        self.bytes_delivered += f.total;
                        done.push(FlowDone {
                            id,
                            tag: f.tag,
                            at: self.now,
                        });
                    }
                }
                if transitioned {
                    self.rates_valid = false;
                }
            }
            done
        }

        pub fn flow_rate(&mut self, id: FlowId) -> Option<f64> {
            self.recompute_rates();
            self.flows.get(&id).map(|f| match f.phase {
                Phase::Latency { .. } => 0.0,
                Phase::Transfer => f.rate,
            })
        }
    }
}

/// The collective loop `SoloTimer` runs, over the oracle network: the
/// phase plan of an all-to-all, `BTreeMap` per-link phase weights, and
/// the engine's promote / advance / `run_to_idle` stepping (each event
/// overshot by the pinned 1 ns).
mod oracle_solo {
    use std::collections::BTreeMap;

    use super::*;

    pub fn plan(topo: &Topology, spec: &CollectiveSpec) -> Vec<Vec<(DeviceId, DeviceId, f64)>> {
        let (participants, sizes, algo) = match spec {
            CollectiveSpec::AllToAll {
                participants,
                sizes,
                algo,
            } => (participants, sizes, algo),
            CollectiveSpec::AllReduce {
                participants,
                bytes,
            } => {
                let p = participants.len();
                if p < 2 {
                    return vec![Vec::new()];
                }
                let per_edge = 2.0 * (p as f64 - 1.0) / p as f64 * *bytes;
                let ring = (0..p).map(|i| (participants[i], participants[(i + 1) % p], per_edge));
                return vec![ring.collect()];
            }
        };
        if *algo == AllToAllAlgo::Flat {
            let mut phase = Vec::new();
            for (i, &src) in participants.iter().enumerate() {
                for (j, &dst) in participants.iter().enumerate() {
                    if src != dst && sizes[i][j] > 0.0 {
                        phase.push((src, dst, sizes[i][j]));
                    }
                }
            }
            return vec![phase];
        }
        let rank_of: BTreeMap<DeviceId, usize> = participants
            .iter()
            .enumerate()
            .map(|(r, &d)| (d, r))
            .collect();
        let (mut gather, mut exchange, mut scatter) = (Vec::new(), Vec::new(), Vec::new());
        let mut proxy_load: BTreeMap<(DeviceId, DeviceId), f64> = BTreeMap::new();
        for (&src, &i) in &rank_of {
            for (&dst, &j) in &rank_of {
                let b = sizes[i][j];
                if b <= 0.0 || src == dst {
                    continue;
                }
                if topo.same_node(src, dst) {
                    gather.push((src, dst, b));
                    continue;
                }
                let proxy = topo.device_at(topo.node_of(src), topo.local_rank(dst));
                if proxy != src {
                    gather.push((src, proxy, b));
                }
                let peer = topo.device_at(topo.node_of(dst), topo.local_rank(dst));
                *proxy_load.entry((proxy, peer)).or_insert(0.0) += b;
                if peer != dst {
                    scatter.push((peer, dst, b));
                }
            }
        }
        for ((src, dst), b) in proxy_load {
            exchange.push((src, dst, b));
        }
        let phases: Vec<_> = [gather, exchange, scatter]
            .into_iter()
            .filter(|p| !p.is_empty())
            .collect();
        if phases.is_empty() {
            vec![Vec::new()]
        } else {
            phases
        }
    }

    pub fn phase_weight(topo: &Topology, phase: &[(DeviceId, DeviceId, f64)]) -> f64 {
        let mut per_link: BTreeMap<u32, usize> = BTreeMap::new();
        for &(src, dst, _) in phase {
            for l in topo.path(src, dst).iter() {
                *per_link.entry(l.0).or_insert(0) += 1;
            }
        }
        1.0 / per_link.values().copied().max().unwrap_or(1) as f64
    }

    /// Duration of `spec` alone on a fresh oracle network whose links
    /// run at `scale` of nominal.
    pub fn time(topo: &Topology, scale: f64, spec: &CollectiveSpec) -> SimDuration {
        let mut net = oracle::Network::new(topo.clone());
        net.set_capacity_scale(scale);
        let phases = plan(topo, spec);
        let mut current = 0;
        let launch = |net: &mut oracle::Network, current: usize| {
            let phase = &phases[current];
            let weight = phase_weight(topo, phase);
            let extra_latency = if current == 0 {
                topo.spec().collective_launch_overhead
            } else {
                SimDuration::ZERO
            };
            for &(src, dst, bytes) in phase {
                net.start_flow(FlowSpec {
                    src,
                    dst,
                    bytes,
                    weight,
                    extra_latency,
                    tag: 0,
                });
            }
            phase.len()
        };
        let started = net.now();
        let mut outstanding = launch(&mut net, current);
        loop {
            let next = if outstanding == 0 {
                net.now()
            } else {
                net.next_event()
                    .expect("the oracle collective never finishes")
            };
            let t = next + SimDuration::from_nanos(1);
            loop {
                if outstanding == 0 {
                    if current + 1 == phases.len() {
                        return net.now() - started;
                    }
                    current += 1;
                    outstanding = launch(&mut net, current);
                }
                if net.now() >= t {
                    break;
                }
                let seg_end = match net.next_event() {
                    Some(e) if e < t => e,
                    _ => t,
                };
                outstanding -= net.advance_to(seg_end).len();
            }
        }
    }
}

/// The collective engine's loop over the oracle network, for many
/// collectives at once: a `BTreeMap` of running collectives promoted in
/// id order, flow completions charged to the collective named by the
/// flow's tag, cancellation by caller tag, and `run_to_idle` stepping
/// each event overshot by the pinned 1 ns.
mod oracle_engine {
    use std::collections::BTreeMap;

    use lina::netsim::{CollectiveDone, CollectiveId};

    use super::*;

    struct Running {
        phases: Vec<Vec<(DeviceId, DeviceId, f64)>>,
        current: usize,
        outstanding: usize,
        tag: u64,
        started: SimTime,
    }

    pub struct Engine {
        topo: Topology,
        net: oracle::Network,
        running: BTreeMap<u64, Running>,
        next_id: u64,
    }

    impl Engine {
        pub fn new(topo: Topology) -> Self {
            Engine {
                net: oracle::Network::new(topo.clone()),
                topo,
                running: BTreeMap::new(),
                next_id: 0,
            }
        }

        pub fn now(&self) -> SimTime {
            self.net.now()
        }

        pub fn active(&self) -> usize {
            self.running.len()
        }

        pub fn set_capacity_scale(&mut self, scale: f64) {
            self.net.set_capacity_scale(scale);
        }

        /// Starts the current phase of collective `id`.
        fn launch(&mut self, id: u64) {
            let rc = self.running.get_mut(&id).expect("running");
            let phase = &rc.phases[rc.current];
            let weight = oracle_solo::phase_weight(&self.topo, phase);
            let extra_latency = if rc.current == 0 {
                self.topo.spec().collective_launch_overhead
            } else {
                SimDuration::ZERO
            };
            rc.outstanding = phase.len();
            for &(src, dst, bytes) in phase {
                self.net.start_flow(FlowSpec {
                    src,
                    dst,
                    bytes,
                    weight,
                    extra_latency,
                    tag: id,
                });
            }
        }

        pub fn start(&mut self, spec: &CollectiveSpec, tag: u64) -> CollectiveId {
            let id = self.next_id;
            self.next_id += 1;
            let running = Running {
                phases: oracle_solo::plan(&self.topo, spec),
                current: 0,
                outstanding: 0,
                tag,
                started: self.net.now(),
            };
            self.running.insert(id, running);
            self.launch(id);
            CollectiveId(id)
        }

        pub fn cancel_tagged(&mut self, tag: u64) -> usize {
            let ids: Vec<u64> = self
                .running
                .iter()
                .filter(|(_, rc)| rc.tag == tag)
                .map(|(&id, _)| id)
                .collect();
            for &id in &ids {
                self.running.remove(&id);
                self.net.cancel_flows_with_tag(id);
            }
            ids.len()
        }

        pub fn next_event(&mut self) -> Option<SimTime> {
            if self.running.values().any(|rc| rc.outstanding == 0) {
                return Some(self.net.now());
            }
            self.net.next_event()
        }

        pub fn advance_to(&mut self, t: SimTime) -> Vec<CollectiveDone> {
            let mut done = Vec::new();
            loop {
                let ids: Vec<u64> = self.running.keys().copied().collect();
                for id in ids {
                    let rc = &self.running[&id];
                    if rc.outstanding != 0 {
                        continue;
                    }
                    if rc.current + 1 < rc.phases.len() {
                        self.running.get_mut(&id).expect("running").current += 1;
                        self.launch(id);
                    } else {
                        done.push(CollectiveDone {
                            id: CollectiveId(id),
                            tag: rc.tag,
                            at: self.net.now(),
                            started: rc.started,
                        });
                        self.running.remove(&id);
                    }
                }
                if self.net.now() >= t {
                    return done;
                }
                let seg_end = match self.net.next_event() {
                    Some(e) if e < t => e,
                    _ => t,
                };
                for fd in self.net.advance_to(seg_end) {
                    let rc = self
                        .running
                        .get_mut(&fd.tag)
                        .expect("a flow completes only for a running collective");
                    rc.outstanding -= 1;
                }
            }
        }

        pub fn run_to_idle(&mut self) -> Vec<CollectiveDone> {
            let mut done = Vec::new();
            while self.active() > 0 {
                let Some(next) = self.next_event() else { break };
                done.extend(self.advance_to(next + SimDuration::from_nanos(1)));
            }
            done
        }
    }
}

/// Both networks side by side, with every live flow id.
struct Pair {
    net: Network,
    oracle: oracle::Network,
    live: Vec<FlowId>,
    devices: u32,
}

impl Pair {
    fn new(spec: ClusterSpec) -> Self {
        let devices = spec.total_devices() as u32;
        Pair {
            net: Network::new(Topology::new(spec.clone())),
            oracle: oracle::Network::new(Topology::new(spec)),
            live: Vec::new(),
            devices,
        }
    }

    /// Asserts every observable is the same bits on both sides.
    fn check(&mut self, what: &str) {
        assert_eq!(self.net.now(), self.oracle.now(), "{what}: now");
        assert_eq!(
            self.net.next_event(),
            self.oracle.next_event(),
            "{what}: next_event"
        );
        assert_eq!(
            self.net.active_flows(),
            self.oracle.active_flows(),
            "{what}: active_flows"
        );
        for &id in &self.live {
            let a = self.net.flow_rate(id).map(f64::to_bits);
            let b = self.oracle.flow_rate(id).map(f64::to_bits);
            assert_eq!(a, b, "{what}: flow_rate({id:?})");
        }
        let stats = self.net.stats();
        assert_eq!(
            stats.flows_completed, self.oracle.flows_completed,
            "{what}: flows_completed"
        );
        assert_eq!(
            stats.bytes_delivered.to_bits(),
            self.oracle.bytes_delivered.to_bits(),
            "{what}: bytes_delivered"
        );
    }

    fn advance_to(&mut self, t: SimTime, what: &str) {
        let a = self.net.advance_to(t);
        let b = self.oracle.advance_to(t);
        assert_eq!(a, b, "{what}: completions");
        self.live.retain(|id| !a.iter().any(|d| d.id == *id));
    }

    /// Starts a random flow, moving `bytes` if given.
    fn random_flow(&mut self, rng: &mut Rng, bytes: Option<f64>) {
        let src = rng.below(self.devices as u64) as u32;
        // One flow in eight is a loopback copy.
        let dst = if rng.bernoulli(0.125) {
            src
        } else {
            rng.below(self.devices as u64) as u32
        };
        let bytes = bytes.unwrap_or_else(|| match rng.index(5) {
            0 => 0.0,
            1 => rng.uniform(1.0, 1e4),
            _ => rng.uniform(1e5, 4e7),
        });
        let weight = *rng
            .choose(&[1.0, 0.25, 1.0 / 3.0, 1.0 / 7.0, 2.5, 0.1])
            .expect("non-empty");
        let extra_latency = if rng.bernoulli(0.3) {
            SimDuration::from_nanos(rng.range_inclusive(1, 50_000))
        } else {
            SimDuration::ZERO
        };
        let spec = FlowSpec {
            src: DeviceId(src),
            dst: DeviceId(dst),
            bytes,
            weight,
            extra_latency,
            tag: rng.below(6),
        };
        let a = self.net.start_flow(spec.clone());
        let b = self.oracle.start_flow(spec);
        assert_eq!(a, b, "flow ids");
        self.live.push(a);
    }
}

/// Runs one seeded script: staggered bursts of flows, partial and
/// event-exact advances, capacity changes and cancellations, then a
/// drain to idle.
fn run_script(spec: ClusterSpec, seed: u64) {
    let mut rng = Rng::new(seed);
    let mut p = Pair::new(spec);
    for step in 0..400 {
        let what = format!("seed {seed} step {step}");
        match rng.index(20) {
            0..=6 => {
                // One burst in three moves equal payloads, so flows that
                // join at different instants can finish in one segment.
                let bytes = rng.bernoulli(0.3).then(|| rng.uniform(1e5, 4e7));
                for _ in 0..1 + rng.index(12) {
                    p.random_flow(&mut rng, bytes);
                }
            }
            7..=10 => {
                if let Some(t) = p.net.next_event() {
                    p.advance_to(t, &what);
                }
            }
            11..=13 => {
                // Overshoot the next event by up to 1 ns, as the
                // collective engine does, or stop well short of it.
                if let Some(t) = p.net.next_event() {
                    let t = t + SimDuration::from_nanos(rng.below(2));
                    p.advance_to(t, &what);
                }
            }
            14..=15 => {
                let t = p.net.now() + SimDuration::from_nanos(rng.range_inclusive(0, 3_000_000));
                p.advance_to(t, &what);
            }
            16 => {
                let scale = *rng.choose(&[1.0, 0.5, 0.25, 0.8]).expect("non-empty");
                p.net.set_capacity_scale(scale);
                p.oracle.set_capacity_scale(scale);
            }
            17..=18 => {
                let tag = rng.below(6);
                p.net.cancel_flows_with_tag(tag);
                p.oracle.cancel_flows_with_tag(tag);
                // Cancelled flows are gone on both sides: flow_rate
                // reports `None` for them, which the check compares.
            }
            _ => {
                if rng.bernoulli(0.2) {
                    p.net.cancel_all_flows();
                    p.oracle.cancel_all_flows();
                }
            }
        }
        p.check(&what);
    }
    let mut drains = 0;
    while let Some(t) = p.net.next_event() {
        p.advance_to(t + SimDuration::from_nanos(1), "drain");
        p.check("drain");
        drains += 1;
        assert!(drains < 100_000, "seed {seed}: drain does not terminate");
    }
    assert_eq!(p.oracle.next_event(), None);
}

#[test]
fn network_matches_the_reference_on_eight_gpus() {
    for seed in 0..rounds(12) {
        run_script(ClusterSpec::with_total_gpus(8), seed);
    }
}

#[test]
fn network_matches_the_reference_on_the_paper_testbed() {
    for seed in 100..100 + rounds(12) {
        run_script(ClusterSpec::paper_testbed(), seed);
    }
}

/// Infinite NVLink bandwidth gives intra-node transfers an infinite
/// rate: they finish in a zero-length segment, and no step may assume
/// every drain event lies at least 1 ns out.
#[test]
fn network_matches_the_reference_with_unbounded_links() {
    for seed in 400..400 + rounds(4) {
        let mut spec = ClusterSpec::with_total_gpus(8);
        spec.nvlink_bw = f64::INFINITY;
        run_script(spec, seed);
    }
}

/// A random all-to-all over `devices` GPUs: a random participant set
/// (sometimes one device), per-destination skew, and zero-byte pairs.
fn random_all_to_all(rng: &mut Rng, devices: u32) -> CollectiveSpec {
    let participants: Vec<DeviceId> = if rng.bernoulli(0.1) {
        vec![DeviceId(rng.below(devices as u64) as u32)]
    } else if rng.bernoulli(0.6) {
        (0..devices).map(DeviceId).collect()
    } else {
        let mut p: Vec<DeviceId> = (0..devices)
            .filter(|_| rng.bernoulli(0.6))
            .map(DeviceId)
            .collect();
        if p.is_empty() {
            p.push(DeviceId(0));
        }
        p
    };
    let n = participants.len();
    let skew: Vec<f64> = (0..n).map(|_| rng.uniform(0.05, 4.0)).collect();
    // Each source leaves its own share of pairs empty, so the busiest
    // link is sometimes a receiver's and sometimes a sender's.
    let sizes: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            let zero = rng.uniform(0.0, 0.8);
            (0..n)
                .map(|j| {
                    if rng.bernoulli(zero) {
                        0.0
                    } else {
                        skew[j] * rng.uniform(1e4, 2e6)
                    }
                })
                .collect()
        })
        .collect();
    let algo = if rng.bernoulli(0.5) {
        AllToAllAlgo::Flat
    } else {
        AllToAllAlgo::Hierarchical
    };
    CollectiveSpec::AllToAll {
        participants,
        sizes,
        algo,
    }
}

/// A reused `SoloTimer` prices random all-to-alls to the same
/// nanosecond as the oracle collective loop on a fresh oracle network,
/// before, during and after a 0.5 capacity degradation.
#[test]
fn solo_timer_matches_the_reference_collective_loop() {
    for (spec, seed) in [
        (ClusterSpec::with_total_gpus(8), 7),
        (ClusterSpec::paper_testbed(), 8),
    ] {
        let devices = spec.total_devices() as u32;
        let topo = Topology::new(spec);
        let mut timer = SoloTimer::new(&topo);
        let mut rng = Rng::new(seed);
        for case in 0..150 {
            let a2a = random_all_to_all(&mut rng, devices);
            let healthy = timer.time(&a2a);
            assert_eq!(healthy, oracle_solo::time(&topo, 1.0, &a2a), "case {case}");
            if case % 5 == 0 {
                timer.set_capacity_scale(0.5);
                let degraded = timer.time(&a2a);
                assert_eq!(
                    degraded,
                    oracle_solo::time(&topo, 0.5, &a2a),
                    "case {case} at 0.5"
                );
                timer.set_capacity_scale(1.0);
                assert_eq!(
                    timer.time(&a2a),
                    healthy,
                    "case {case} after the round trip"
                );
            }
        }
    }
}

/// A random ring allreduce over some of `devices` GPUs (sometimes one).
fn random_allreduce(rng: &mut Rng, devices: u32) -> CollectiveSpec {
    let participants: Vec<DeviceId> = if rng.bernoulli(0.5) {
        (0..devices).map(DeviceId).collect()
    } else {
        (0..devices)
            .filter(|_| rng.bernoulli(0.5))
            .map(DeviceId)
            .collect()
    };
    CollectiveSpec::AllReduce {
        participants,
        bytes: rng.uniform(1e5, 5e7),
    }
}

/// One seeded script over many concurrent collectives: all-to-alls and
/// allreduces started at staggered instants under a handful of caller
/// tags, mid-flight `cancel_tagged`, event-exact, overshot and arbitrary
/// `advance_to` horizons, capacity-scale changes and `run_to_idle`
/// drains. Every `CollectiveDone` must be the same bits as the oracle's.
/// Returns how many collectives completed.
fn run_collective_script(spec: ClusterSpec, seed: u64) -> usize {
    let devices = spec.total_devices() as u32;
    let topo = Topology::new(spec);
    let mut engine = CollectiveEngine::new(Network::new(topo.clone()));
    let mut oracle = oracle_engine::Engine::new(topo);
    let mut rng = Rng::new(seed);
    let mut completed = 0;
    for step in 0..300 {
        let what = format!("seed {seed} step {step}");
        match rng.index(16) {
            0..=4 => {
                let spec = if rng.bernoulli(0.6) {
                    random_all_to_all(&mut rng, devices)
                } else {
                    random_allreduce(&mut rng, devices)
                };
                let tag = rng.below(5);
                assert_eq!(
                    engine.start(&spec, tag),
                    oracle.start(&spec, tag),
                    "{what}: ids"
                );
            }
            5..=8 => {
                if let Some(t) = engine.next_event() {
                    let t = t + SimDuration::from_nanos(rng.below(2));
                    let done = engine.advance_to(t);
                    assert_eq!(done, oracle.advance_to(t), "{what}: completions");
                    completed += done.len();
                }
            }
            9..=10 => {
                let t = engine.now() + SimDuration::from_nanos(rng.range_inclusive(0, 3_000_000));
                let done = engine.advance_to(t);
                assert_eq!(done, oracle.advance_to(t), "{what}: completions");
                completed += done.len();
            }
            11 => {
                let scale = *rng.choose(&[1.0, 0.5, 0.25, 0.8]).expect("non-empty");
                engine.set_capacity_scale(scale);
                oracle.set_capacity_scale(scale);
            }
            12..=13 => {
                let tag = rng.below(5);
                assert_eq!(
                    engine.cancel_tagged(tag),
                    oracle.cancel_tagged(tag),
                    "{what}: cancelled"
                );
            }
            14 if rng.bernoulli(0.3) => {
                let done = engine.run_to_idle();
                assert_eq!(done, oracle.run_to_idle(), "{what}: drain");
                completed += done.len();
            }
            _ => {}
        }
        assert_eq!(engine.now(), oracle.now(), "{what}: now");
        assert_eq!(engine.active(), oracle.active(), "{what}: active");
        assert_eq!(
            engine.next_event(),
            oracle.next_event(),
            "{what}: next_event"
        );
    }
    let done = engine.run_to_idle();
    assert_eq!(done, oracle.run_to_idle(), "seed {seed}: final drain");
    completed += done.len();
    assert_eq!(engine.active(), 0, "seed {seed}: the engine drains");
    completed
}

#[test]
fn concurrent_collectives_match_the_reference_engine() {
    for seed in 0..rounds(6) {
        for completed in [
            run_collective_script(ClusterSpec::with_total_gpus(8), 200 + seed),
            run_collective_script(ClusterSpec::paper_testbed(), 300 + seed),
        ] {
            // Each default script must exercise the engine. The soak's
            // extra seeds may be quiet: the oracle agrees on every
            // completion, so a quiet seed says nothing of the engine.
            assert!(
                seed >= 6 || completed > 20,
                "seed {seed}: only {completed} completions"
            );
        }
    }
}

#[test]
fn max_min_rates_matches_the_reference() {
    let mut rng = Rng::new(42);
    for problem in 0..2000 {
        let links = 1 + rng.index(24);
        let caps: Vec<f64> = (0..links)
            .map(|_| match rng.index(8) {
                0 => 0.0,
                1 => 12e9,
                _ => rng.uniform(1e6, 2e11),
            })
            .collect();
        // Paths may be empty and may repeat a link.
        let paths: Vec<Vec<u32>> = (0..rng.index(64))
            .map(|_| (0..rng.index(5)).map(|_| rng.index(links) as u32).collect())
            .collect();
        let weights: Vec<f64> = paths
            .iter()
            .map(|_| match rng.index(3) {
                0 => 1.0,
                1 => 1.0 / (1 + rng.index(16)) as f64,
                _ => rng.uniform(0.01, 4.0),
            })
            .collect();
        let demands: Vec<FlowDemand<'_>> = weights
            .iter()
            .zip(&paths)
            .map(|(&weight, links)| FlowDemand { weight, links })
            .collect();
        let reference: Vec<(f64, &[u32])> = weights
            .iter()
            .zip(&paths)
            .map(|(&w, p)| (w, p.as_slice()))
            .collect();
        let a: Vec<u64> = max_min_rates(&caps, &demands)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        let b: Vec<u64> = oracle::max_min_rates(&caps, &reference)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        assert_eq!(a, b, "problem {problem}");
    }
}
