//! Flow-level network simulation.
//!
//! A [`Network`] tracks active flows over a [`Topology`] and advances them
//! in time under weighted max-min fair sharing. A flow passes through two
//! phases:
//!
//! 1. a *latency* phase of fixed duration (propagation plus software
//!    overhead) during which it consumes no bandwidth, then
//! 2. a *transfer* phase during which it drains its byte count at the
//!    fair-share rate, recomputed whenever the active flow set changes.
//!
//! The owner drives the simulation with [`Network::next_event`] /
//! [`Network::advance_to`]; completions are reported with the tag the
//! flow was started with.
//!
//! Active flows live in two lists. Flows in their latency phase sit in
//! `pending`, in id order (ids only grow, so a new flow is pushed at the
//! end), each with the instant its latency ends; the network caches the
//! earliest of those deadlines. A flow whose latency runs out joins the
//! `FairShare` solver owned by the network and moves to `transfers`, a
//! dense list in no particular order that drops finished flows with
//! `swap_remove`. Each segment is one drain pass over `transfers`;
//! `pending` is scanned only by a segment that reaches the cached
//! deadline, which ends the latency phases due by then and takes the
//! minimum over the rest. Cancelling pending flows retakes that minimum
//! too, since a stale one would end a segment early. The segment sorts
//! its completions by id before it reports them, counts them into
//! [`NetStats`] and takes them out of the solver, so completion order and
//! the byte sum do not depend on the list order. The solver's
//! link -> flow index persists across recomputes, and after departures
//! alone it replays the rounds they left unchanged (see
//! [`crate::fairshare`]).
//!
//! The answer of [`Network::next_event`] is cached until the next
//! mutation. Finding it costs one `f64` division per transfer, and each
//! rate change pays that once: a segment in which no flow changed phase
//! divides on its way through the flows and caches the answer; a
//! segment that ends at the cached event (and so ends a flow) does not
//! divide; and a step of at most 1 ns, such as the collective engine's
//! step past each completion, needs no answer at all, since every drain
//! event lies at least 1 ns out.

use std::sync::Arc;

use lina_simcore::{SimDuration, SimTime};

use crate::fairshare::{check_capacities, FairShare};
use crate::topology::{DeviceId, Path, Topology};

/// Identifies an active flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u64);

/// Parameters of a new flow.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Source device.
    pub src: DeviceId,
    /// Destination device.
    pub dst: DeviceId,
    /// Payload size in bytes. Zero-byte flows complete at latency expiry.
    pub bytes: f64,
    /// Fair-share weight (see [`crate::fairshare`]).
    pub weight: f64,
    /// Extra latency added on top of the topology's base latency (e.g. a
    /// collective launch overhead, charged to the first phase).
    pub extra_latency: SimDuration,
    /// Caller-defined tag reported on completion.
    pub tag: u64,
}

/// A flow in its latency phase.
#[derive(Clone, Debug)]
struct PendingFlow {
    id: FlowId,
    path: Path,
    weight: f64,
    /// When the latency phase ends.
    until: SimTime,
    bytes: f64,
    tag: u64,
}

/// A flow in its transfer phase, draining at the rate of its solver
/// slot (the solver holds its path and weight).
#[derive(Clone, Debug)]
struct Transfer {
    id: FlowId,
    slot: u32,
    total: f64,
    remaining: f64,
    tag: u64,
}

/// A flow that finished in the current segment; `slot` is the solver
/// slot it still holds, if it got as far as its transfer phase.
#[derive(Clone, Copy, Debug)]
struct Finished {
    id: FlowId,
    tag: u64,
    total: f64,
    slot: Option<u32>,
}

/// A completed-flow notification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowDone {
    /// The flow that finished.
    pub id: FlowId,
    /// Tag from the [`FlowSpec`].
    pub tag: u64,
    /// Completion instant.
    pub at: SimTime,
}

/// Aggregate network counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    /// Flows completed since construction.
    pub flows_completed: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: f64,
}

/// The flow-level network simulator.
#[derive(Clone, Debug)]
pub struct Network {
    topo: Arc<Topology>,
    now: SimTime,
    /// Flows in their latency phase, in ascending id order.
    pending: Vec<PendingFlow>,
    /// The earliest `until` in `pending` (`None` when it is empty).
    pending_until: Option<SimTime>,
    /// Flows in their transfer phase, in no particular order.
    transfers: Vec<Transfer>,
    /// The current segment's completions (empty between segments).
    finished: Vec<Finished>,
    next_id: u64,
    rates_valid: bool,
    /// Memoized [`Network::next_event`] answer; `None` when stale.
    next_event: Option<Option<SimTime>>,
    stats: NetStats,
    /// Multiplier applied to every link capacity (fault injection:
    /// 1.0 = healthy, < 1.0 = degraded NIC/NVLink bandwidth).
    capacity_scale: f64,
    solver: FairShare,
}

impl Network {
    /// Creates an idle network over the given topology.
    pub fn new(topo: Topology) -> Self {
        Network::new_shared(Arc::new(topo))
    }

    /// Creates an idle network over a shared topology handle. Replicas
    /// of one cluster all price against the same immutable topology, so
    /// sharing the `Arc` avoids a deep topology clone per network.
    ///
    /// # Panics
    ///
    /// Panics if a link capacity is negative or NaN.
    pub fn new_shared(topo: Arc<Topology>) -> Self {
        // The topology is immutable and the capacity scale is always
        // positive, so every solve sees capacities checked here.
        check_capacities(topo.link_capacities());
        Network {
            solver: FairShare::new(topo.link_count()),
            topo,
            now: SimTime::ZERO,
            pending: Vec::new(),
            pending_until: None,
            transfers: Vec::new(),
            finished: Vec::new(),
            next_id: 0,
            rates_valid: true,
            next_event: None,
            stats: NetStats::default(),
            capacity_scale: 1.0,
        }
    }

    /// The current link-capacity multiplier (1.0 when healthy).
    pub fn capacity_scale(&self) -> f64 {
        self.capacity_scale
    }

    /// Scales every link capacity by `scale` relative to the topology's
    /// nominal bandwidth. In-flight transfers re-share the degraded (or
    /// restored) links from the current instant onward — the fluid
    /// model is piecewise-linear, so the change is exact.
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is finite and positive.
    pub fn set_capacity_scale(&mut self, scale: f64) {
        assert!(
            scale.is_finite() && scale > 0.0,
            "set_capacity_scale: bad scale {scale}"
        );
        if scale != self.capacity_scale {
            self.capacity_scale = scale;
            self.invalidate();
        }
    }

    /// Cancels every active flow without completing it (no completion is
    /// reported and no stats are counted) — the device driving them has
    /// failed. Time does not advance.
    pub fn cancel_all_flows(&mut self) {
        self.pending.clear();
        self.pending_until = None;
        self.transfers.clear();
        self.solver.clear();
        self.invalidate();
    }

    /// Cancels every active flow carrying `tag` without completing it
    /// (no completion is reported and no stats are counted) — the
    /// collective driving them was aborted. Other flows re-share the
    /// freed bandwidth from the current instant onward.
    pub fn cancel_flows_with_tag(&mut self, tag: u64) {
        let before = self.active_flows();
        self.pending.retain(|f| f.tag != tag);
        self.pending_until = self.pending.iter().map(|f| f.until).min();
        let mut i = 0;
        while i < self.transfers.len() {
            if self.transfers[i].tag == tag {
                self.solver.leave(self.transfers.swap_remove(i).slot);
            } else {
                i += 1;
            }
        }
        if self.active_flows() != before {
            self.invalidate();
        }
    }

    /// Marks the rates and the next-event answer stale after a change
    /// to the flow set or the capacities.
    fn invalidate(&mut self) {
        self.rates_valid = false;
        self.next_event = None;
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of active flows (both phases).
    pub fn active_flows(&self) -> usize {
        self.pending.len() + self.transfers.len()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Starts a flow at the current time.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative/non-finite or `weight` is not
    /// finite and positive.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(
            spec.bytes >= 0.0 && spec.bytes.is_finite(),
            "start_flow: bad byte count {}",
            spec.bytes
        );
        assert!(
            spec.weight > 0.0 && spec.weight.is_finite(),
            "start_flow: bad weight {}",
            spec.weight
        );
        let path = self.topo.path(spec.src, spec.dst);
        let latency = self.topo.latency(spec.src, spec.dst) + spec.extra_latency;
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let until = self.now + latency;
        self.pending_until = Some(self.pending_until.map_or(until, |u| u.min(until)));
        self.pending.push(PendingFlow {
            id,
            path,
            weight: spec.weight,
            until,
            bytes: spec.bytes,
            tag: spec.tag,
        });
        // A flow in its latency phase does not change rates yet, but
        // handling it lazily keeps the logic uniform.
        self.invalidate();
        id
    }

    fn recompute_rates(&mut self) {
        if !self.rates_valid {
            self.solver
                .solve(self.topo.link_capacities(), self.capacity_scale);
            self.rates_valid = true;
        }
    }

    /// The next instant at which network state changes (a latency phase
    /// expires or a flow completes), or `None` if no active flow can make
    /// progress.
    pub fn next_event(&mut self) -> Option<SimTime> {
        if let Some(cached) = self.next_event {
            return cached;
        }
        self.recompute_rates();
        let mut drain_min = Drain::default();
        for f in &self.transfers {
            drain_min.add(f.remaining, self.solver.rate(f.slot));
        }
        let earliest = drain_min.earliest(self.now, self.pending_until);
        self.next_event = Some(earliest);
        earliest
    }

    /// Advances simulated time to `t`, processing any internal phase
    /// transitions on the way, and returns flows that completed (in
    /// deterministic id order per completion instant).
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<FlowDone> {
        let mut done = Vec::new();
        self.advance_into(t, &mut done);
        done
    }

    /// [`Network::advance_to`], appending the completions to `done`.
    fn advance_into(&mut self, t: SimTime, done: &mut Vec<FlowDone>) {
        assert!(t >= self.now, "advance_to: time going backwards");
        while self.now < t {
            self.step(t, done);
        }
    }

    /// Where a segment that may run to `t` ends: the next event if that
    /// comes first, else `t`.
    ///
    /// A step of at most 1 ns needs no drain minimum: every drain event
    /// lies at least 1 ns out, as [`Drain::earliest`] rounds up, and a
    /// transfer always has bytes left. So unless some rate is infinite,
    /// only a latency expiry can come before `t`. The collective engine
    /// takes such a step after every completion.
    fn segment_end(&mut self, t: SimTime) -> SimTime {
        if self.next_event.is_none() && t <= self.now + SimDuration::from_nanos(1) {
            self.recompute_rates();
            if !self.solver.unbounded() {
                return match self.pending_until {
                    Some(until) if until < t => until,
                    _ => t,
                };
            }
        }
        match self.next_event() {
            Some(e) if e < t => e,
            _ => t,
        }
    }

    /// Advances by one segment towards `t` (which must be later than
    /// now): to the next event, or to `t` if that comes first. Appends
    /// the segment's completions to `done`.
    pub(crate) fn step(&mut self, t: SimTime, done: &mut Vec<FlowDone>) {
        let seg_end = self.segment_end(t);
        // A segment that ends at the cached next event ends a flow or a
        // latency phase, which voids any minimum taken on the way; the
        // drain pass divides only in other segments.
        let due = self.next_event == Some(Some(seg_end));
        let dt_secs = (seg_end - self.now).as_secs_f64();
        let (solver, finished) = (&mut self.solver, &mut self.finished);
        // Drain every transfer over the segment, and unless it is due,
        // take the next-event minimum over the ones that remain.
        let mut drain_min = Drain::default();
        let mut i = 0;
        while i < self.transfers.len() {
            let f = &mut self.transfers[i];
            let rate = solver.rate(f.slot);
            if rate.is_infinite() {
                f.remaining = 0.0;
            } else {
                f.remaining -= rate * dt_secs;
            }
            // Tolerate sub-nanosecond rounding: anything the current
            // rate would drain in 2ns counts as done.
            if f.remaining <= rate * 2e-9 + 1e-9 {
                finished.push(Finished {
                    id: f.id,
                    tag: f.tag,
                    total: f.total,
                    slot: Some(f.slot),
                });
                self.transfers.swap_remove(i);
            } else {
                if !due {
                    drain_min.add(f.remaining, rate);
                }
                i += 1;
            }
        }
        // Then end the latency phases due by the segment's end, if any
        // is. A flow whose latency ran out joins the solver (if it still
        // has bytes to move); it starts draining in the next segment.
        let expired = self.pending_until.is_some_and(|u| u <= seg_end);
        if expired {
            let mut until_min: Option<SimTime> = None;
            let transfers = &mut self.transfers;
            self.pending.retain(|f| {
                if f.until > seg_end {
                    until_min = Some(until_min.map_or(f.until, |m| m.min(f.until)));
                    return true;
                }
                if f.path.is_empty() || f.bytes <= 0.0 {
                    finished.push(Finished {
                        id: f.id,
                        tag: f.tag,
                        total: f.bytes,
                        slot: None,
                    });
                } else {
                    let links = f.path.iter().map(|l| l.0);
                    transfers.push(Transfer {
                        id: f.id,
                        slot: solver.join(f.id.0, f.weight, links),
                        total: f.bytes,
                        remaining: f.bytes,
                        tag: f.tag,
                    });
                }
                false
            });
            self.pending_until = until_min;
        }
        self.now = seg_end;
        if expired || !self.finished.is_empty() {
            // The flow set changed: re-solve before the next event.
            self.invalidate();
        } else {
            // Same flows at the same rates: the minimum taken on the way
            // through is the next event; a due segment took none, so
            // `next_event` scans for it.
            self.next_event = (!due).then(|| drain_min.earliest(seg_end, self.pending_until));
        }
        // Report in id order, whichever list a flow finished in.
        self.finished.sort_unstable_by_key(|f| f.id);
        for f in self.finished.drain(..) {
            if let Some(slot) = f.slot {
                self.solver.leave(slot);
            }
            self.stats.flows_completed += 1;
            // `remaining` may be a few bytes short of zero; count
            // the full payload as delivered.
            self.stats.bytes_delivered += f.total;
            done.push(FlowDone {
                id: f.id,
                tag: f.tag,
                at: seg_end,
            });
        }
    }

    /// Convenience: runs the network until all flows complete, returning
    /// the completion time of the last one. Returns `None` if some flow
    /// can never complete (zero-capacity path).
    pub fn run_to_idle(&mut self) -> Option<SimTime> {
        let mut last = self.now;
        let mut done = Vec::new();
        while self.active_flows() > 0 {
            let next = self.next_event()?;
            done.clear();
            self.advance_into(next, &mut done);
            if let Some(d) = done.last() {
                last = d.at;
            }
        }
        Some(last)
    }

    /// Current rate of a flow in bytes/s (0 during the latency phase).
    pub fn flow_rate(&mut self, id: FlowId) -> Option<f64> {
        self.recompute_rates();
        if self.pending.binary_search_by_key(&id, |f| f.id).is_ok() {
            return Some(0.0);
        }
        let f = self.transfers.iter().find(|f| f.id == id)?;
        Some(self.solver.rate(f.slot))
    }
}

/// The shortest time to drain over the transferring flows, in seconds.
/// Taking the minimum before converting is exact: `from_secs_f64` and
/// the saturating `SimTime + SimDuration` are both monotone, and the
/// minimum of `f64`s does not depend on the order they come in.
#[derive(Default)]
struct Drain {
    secs: Option<f64>,
    immediate: bool,
}

impl Drain {
    fn add(&mut self, remaining: f64, rate: f64) {
        if remaining <= 0.0 || rate.is_infinite() {
            self.immediate = true;
        } else if rate > 0.0 {
            let secs = remaining / rate;
            self.secs = Some(self.secs.map_or(secs, |m| m.min(secs)));
        }
        // Otherwise a zero-capacity path: stalled forever.
    }

    /// The next event at `now`, given the earliest latency expiry.
    fn earliest(&self, now: SimTime, latency: Option<SimTime>) -> Option<SimTime> {
        if self.immediate {
            return Some(now);
        }
        // Round up by one nanosecond so advancing to the event time
        // provably drains the flow.
        let drain = self
            .secs
            .map(|secs| now + SimDuration::from_secs_f64(secs) + SimDuration::from_nanos(1));
        match (latency, drain) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClusterSpec;

    fn net() -> Network {
        Network::new(Topology::new(ClusterSpec::paper_testbed()))
    }

    fn spec(src: u32, dst: u32, bytes: f64) -> FlowSpec {
        FlowSpec {
            src: DeviceId(src),
            dst: DeviceId(dst),
            bytes,
            weight: 1.0,
            extra_latency: SimDuration::ZERO,
            tag: 0,
        }
    }

    #[test]
    fn single_inter_node_flow_takes_bytes_over_bandwidth() {
        let mut n = net();
        let bw = n.topology().spec().nic_bw;
        let lat = n.topology().spec().inter_latency;
        n.start_flow(spec(0, 4, 1e9));
        let end = n.run_to_idle().expect("completes");
        let expected = lat + SimDuration::from_secs_f64(1e9 / bw);
        let err = (end.as_secs_f64() - expected.as_secs_f64()).abs();
        assert!(err < 1e-6, "end {end} vs expected {expected}");
    }

    #[test]
    fn intra_node_flow_uses_nvlink_speed() {
        let mut n = net();
        let bw = n.topology().spec().nvlink_bw;
        n.start_flow(spec(0, 1, 1e9));
        let end = n.run_to_idle().expect("completes");
        // ~4ms at 250 GB/s, far faster than the NIC.
        assert!(end.as_secs_f64() < 1e9 / bw * 1.1 + 1e-4);
    }

    #[test]
    fn two_flows_share_a_nic_fairly() {
        let mut n = net();
        let bw = n.topology().spec().nic_bw;
        // Both flows leave device 0: they share its NIC.
        n.start_flow(spec(0, 4, 1e9));
        n.start_flow(spec(0, 5, 1e9));
        let end = n.run_to_idle().expect("completes");
        let expected = 2e9 / bw;
        assert!(
            (end.as_secs_f64() - expected).abs() / expected < 0.01,
            "end {} vs {}",
            end.as_secs_f64(),
            expected
        );
    }

    #[test]
    fn short_flow_finishing_frees_bandwidth() {
        let mut n = net();
        let bw = n.topology().spec().nic_bw;
        n.start_flow(spec(0, 4, 1e9));
        n.start_flow(spec(0, 5, 0.2e9));
        let end = n.run_to_idle().expect("completes");
        // Shared until the short one drains (0.4e9 total transferred at
        // bw/2 each => t1 = 0.4/bw... then the long one has 0.8e9 left at
        // full bw. Total = 0.4e9/bw*... compute: phase1 dt = 0.2e9/(bw/2)
        // = 0.4e9/bw; long transferred 0.2e9, 0.8e9 left at bw =>
        // 0.8e9/bw. Total 1.2e9/bw.
        let expected = 1.2e9 / bw;
        assert!(
            (end.as_secs_f64() - expected).abs() / expected < 0.01,
            "end {} vs {}",
            end.as_secs_f64(),
            expected
        );
    }

    #[test]
    fn loopback_flow_completes_after_latency_only() {
        let mut n = net();
        n.start_flow(spec(3, 3, 5e9));
        let end = n.run_to_idle().expect("completes");
        assert!(end.as_secs_f64() < 1e-5, "loopback took {end}");
    }

    #[test]
    fn zero_byte_flow_completes_at_latency() {
        let mut n = net();
        let lat = n.topology().spec().inter_latency;
        n.start_flow(spec(0, 8, 0.0));
        let end = n.run_to_idle().expect("completes");
        assert_eq!(end, SimTime::ZERO + lat);
    }

    #[test]
    fn extra_latency_is_charged() {
        let mut n = net();
        let mut s = spec(0, 4, 0.0);
        s.extra_latency = SimDuration::from_millis(3);
        n.start_flow(s);
        let end = n.run_to_idle().expect("completes");
        assert!(end >= SimTime::from_millis(3));
    }

    #[test]
    fn completions_carry_tags() {
        let mut n = net();
        let mut s = spec(0, 4, 1e6);
        s.tag = 77;
        n.start_flow(s);
        let mut done = Vec::new();
        while done.is_empty() {
            let t = n.next_event().expect("event");
            done = n.advance_to(t);
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 77);
    }

    #[test]
    fn flows_on_disjoint_paths_do_not_interact() {
        let mut n = net();
        let bw = n.topology().spec().nic_bw;
        n.start_flow(spec(0, 4, 1e9)); // node 0 -> 1
        n.start_flow(spec(8, 12, 1e9)); // node 2 -> 3
        let end = n.run_to_idle().expect("completes");
        let expected = 1e9 / bw;
        assert!(
            (end.as_secs_f64() - expected).abs() / expected < 0.01,
            "end {} vs {}",
            end.as_secs_f64(),
            expected
        );
    }

    #[test]
    fn weighted_flows_split_proportionally() {
        let mut n = net();
        let mut heavy = spec(0, 4, 1e9);
        heavy.weight = 3.0;
        let light = spec(0, 5, 1e9);
        let heavy_id = n.start_flow(heavy);
        let light_id = n.start_flow(light);
        // Let latency elapse so both are transferring.
        let t = SimTime::from_micros(50);
        n.advance_to(t);
        let hr = n.flow_rate(heavy_id).expect("active");
        let lr = n.flow_rate(light_id).expect("active");
        assert!((hr / lr - 3.0).abs() < 0.01, "ratio {}", hr / lr);
    }

    #[test]
    fn advance_past_everything_is_fine() {
        let mut n = net();
        n.start_flow(spec(0, 4, 1e6));
        let done = n.advance_to(SimTime::from_millis(500));
        assert_eq!(done.len(), 1);
        assert_eq!(n.active_flows(), 0);
        assert_eq!(n.next_event(), None);
    }

    #[test]
    fn stats_count_completions() {
        let mut n = net();
        n.start_flow(spec(0, 4, 1e6));
        n.start_flow(spec(4, 0, 1e6));
        n.run_to_idle();
        assert_eq!(n.stats().flows_completed, 2);
    }

    #[test]
    #[should_panic(expected = "time going backwards")]
    fn backwards_advance_panics() {
        let mut n = net();
        n.advance_to(SimTime::from_millis(5));
        n.advance_to(SimTime::from_millis(4));
    }

    #[test]
    fn degraded_capacity_slows_transfers_proportionally() {
        let mut healthy = net();
        healthy.start_flow(spec(0, 4, 1e9));
        let t_healthy = healthy.run_to_idle().expect("completes");
        let mut degraded = net();
        degraded.set_capacity_scale(0.5);
        degraded.start_flow(spec(0, 4, 1e9));
        let t_degraded = degraded.run_to_idle().expect("completes");
        let ratio = t_degraded.as_secs_f64() / t_healthy.as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.02, "half bandwidth ratio {ratio}");
    }

    #[test]
    fn restoring_capacity_mid_flow_speeds_the_remainder() {
        // Degraded to 50% for the first half of the transfer, then
        // restored: the flow finishes between the all-healthy and
        // all-degraded completion times.
        let mut n = net();
        let bw = n.topology().spec().nic_bw;
        n.set_capacity_scale(0.5);
        n.start_flow(spec(0, 4, 1e9));
        let healthy_secs = 1e9 / bw;
        n.advance_to(SimTime::from_secs_f64(healthy_secs));
        n.set_capacity_scale(1.0);
        let end = n.run_to_idle().expect("completes");
        let secs = end.as_secs_f64();
        assert!(
            secs > healthy_secs * 1.2 && secs < 2.0 * healthy_secs,
            "piecewise transfer took {secs}, healthy {healthy_secs}"
        );
    }

    #[test]
    fn cancelled_flows_never_complete() {
        let mut n = net();
        n.start_flow(spec(0, 4, 1e9));
        n.start_flow(spec(0, 5, 1e9));
        n.advance_to(SimTime::from_millis(1));
        n.cancel_all_flows();
        assert_eq!(n.active_flows(), 0);
        assert_eq!(n.next_event(), None);
        let done = n.advance_to(SimTime::from_secs_f64(10.0));
        assert!(done.is_empty(), "cancelled flows reported completions");
        assert_eq!(n.stats().flows_completed, 0);
    }

    /// The cached earliest deadline follows cancellations: once the
    /// flow holding it is gone, the next event is the next live expiry.
    #[test]
    fn cancelling_the_earliest_deadline_moves_the_next_event() {
        let mut n = net();
        let lat = n.topology().spec().inter_latency;
        for (tag, micros) in [(1, 30), (2, 10), (3, 20)] {
            let mut s = spec(0, 4, 1e6);
            s.extra_latency = SimDuration::from_micros(micros);
            s.tag = tag;
            n.start_flow(s);
        }
        let at = |micros| SimTime::ZERO + lat + SimDuration::from_micros(micros);
        assert_eq!(n.next_event(), Some(at(10)));
        n.cancel_flows_with_tag(2);
        assert_eq!(n.next_event(), Some(at(20)));
        n.cancel_flows_with_tag(3);
        assert_eq!(n.next_event(), Some(at(30)));
        n.cancel_all_flows();
        assert_eq!(n.next_event(), None);
        // A flow started after the cancels sees no stale deadline.
        n.start_flow(spec(0, 4, 1e6));
        assert_eq!(n.next_event(), Some(SimTime::ZERO + lat));
    }

    #[test]
    #[should_panic(expected = "bad scale")]
    fn zero_capacity_scale_rejected() {
        net().set_capacity_scale(0.0);
    }

    #[test]
    #[should_panic(expected = "start_flow: bad weight")]
    fn infinite_weight_rejected_at_start() {
        let mut s = spec(0, 4, 1e6);
        s.weight = f64::INFINITY;
        net().start_flow(s);
    }

    #[test]
    #[should_panic(expected = "negative capacity")]
    fn negative_capacity_rejected_at_construction() {
        let mut s = ClusterSpec::paper_testbed();
        s.nic_bw = -1.0;
        Network::new(Topology::new(s));
    }

    /// Completions of one segment come out in id order and add into the
    /// byte count in that order, whichever phase each flow finished in.
    #[test]
    fn one_segment_reports_in_id_order() {
        // Ids 0 and 2 transfer equal payloads on disjoint paths; id 1 is
        // a zero-byte flow whose latency is stretched to end exactly
        // when the other two finish draining.
        let run = |extra: SimDuration| {
            let mut n = net();
            n.start_flow(spec(8, 12, 1e6));
            let mut zero = spec(0, 4, 0.0);
            zero.extra_latency = extra;
            n.start_flow(zero);
            n.start_flow(spec(1, 5, 1e6));
            let mut done = Vec::new();
            while let Some(t) = n.next_event() {
                done.push(n.advance_to(t));
            }
            (n, done)
        };
        let (_, plain) = run(SimDuration::ZERO);
        let drained = plain.last().expect("segments")[0].at;
        let lat = net().topology().spec().inter_latency;
        let (n, done) = run(drained - (SimTime::ZERO + lat));
        let last = done.last().expect("segments");
        let ids: Vec<u64> = last.iter().map(|d| d.id.0).collect();
        assert_eq!(ids, [0, 1, 2]);
        assert!(last.iter().all(|d| d.at == drained));
        assert_eq!(n.stats().flows_completed, 3);
        assert_eq!(n.stats().bytes_delivered, 2e6);
    }
}
