//! Executes an op graph over the simulated cluster.
//!
//! The engine reproduces the execution environment Lina operates in:
//!
//! * each device runs its compute ops on one compute stream, in
//!   readiness order;
//! * each communication class (all-to-all / allreduce / control)
//!   behaves like an NCCL process-group stream: at most one collective
//!   in flight, no preemption once launched;
//! * at every event the engine launches, in launch rounds until a round
//!   launches nothing, the oldest pending all-to-all if its stream is
//!   free, the oldest pending allreduce if its stream is free and the
//!   [`CommPolicy`] admits it, then the oldest control op if its stream
//!   is free. When to admit an allreduce is the only control a
//!   communication scheduler actually has (§4.1); the policy decides on
//!   the state before the round's first launch.
//!
//! Overlapping collectives share links under the network's max-min
//! model, which is where the baseline's all-to-all slowdown comes from.

use std::collections::VecDeque;

use lina_core::CommPolicy;
use lina_model::{CommClass, OpGraph, OpId, OpKind};
use lina_netsim::{CollectiveEngine, CollectiveSpec, Network, Topology};
use lina_simcore::{Lane, SimDuration, SimTime, SpanKind, StreamId, Timeline};

/// Execution outcome of one op graph.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// Recorded spans for all ops.
    pub timeline: Timeline,
    /// Completion time of the last op.
    pub makespan: SimDuration,
    /// Per-op `(start, end)` windows, indexed by op id.
    pub op_windows: Vec<Option<(SimTime, SimTime)>>,
}

impl ExecResult {
    /// The window of op `id`.
    ///
    /// # Panics
    ///
    /// Panics if the op never ran (cannot happen after a successful
    /// execution).
    pub fn window(&self, id: OpId) -> (SimTime, SimTime) {
        self.op_windows[id.0 as usize].expect("op executed")
    }

    /// Duration of op `id`.
    pub fn duration(&self, id: OpId) -> SimDuration {
        let (s, e) = self.window(id);
        e - s
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Pending,
    Ready,
    Running,
    Done,
}

struct EngineState<'a> {
    graph: &'a OpGraph,
    status: Vec<Status>,
    unmet: Vec<usize>,
    dependents: Vec<Vec<OpId>>,
    // Compute side.
    device_queue: Vec<VecDeque<OpId>>,
    device_busy: Vec<Option<(OpId, SimTime)>>,
    // Communication side.
    /// Ready comm ops as `(ready at, op, class)`; sorted, oldest first.
    pending_comm: Vec<(SimTime, OpId, CommClass)>,
    active_comm: Vec<(CommClass, OpId)>,
    a2a_ops: Vec<OpId>,
    /// Completed backward all-to-alls ([`CommPolicy::Fixed`]'s layer
    /// boundaries); forward ones do not count.
    backward_a2a_done: usize,
    coll: CollectiveEngine,
    now: SimTime,
    timeline: Timeline,
    op_windows: Vec<Option<(SimTime, SimTime)>>,
    done_count: usize,
}

impl<'a> EngineState<'a> {
    fn new(graph: &'a OpGraph, topo: &Topology) -> Self {
        let n = graph.len();
        let devices = topo.devices();
        let mut unmet = vec![0usize; n];
        let mut dependents = vec![Vec::new(); n];
        for (i, op) in graph.ops().iter().enumerate() {
            unmet[i] = op.deps.len();
            for d in &op.deps {
                dependents[d.0 as usize].push(OpId(i as u32));
            }
        }
        let a2a_ops = graph.comm_ops(CommClass::AllToAll);
        EngineState {
            graph,
            status: vec![Status::Pending; n],
            unmet,
            dependents,
            device_queue: vec![VecDeque::new(); devices],
            device_busy: vec![None; devices],
            pending_comm: Vec::new(),
            active_comm: Vec::new(),
            a2a_ops,
            backward_a2a_done: 0,
            coll: CollectiveEngine::new(Network::new(topo.clone())),
            now: SimTime::ZERO,
            timeline: Timeline::new(),
            op_windows: vec![None; n],
            done_count: 0,
        }
    }

    fn mark_ready(&mut self, id: OpId) {
        debug_assert_eq!(self.status[id.0 as usize], Status::Pending);
        self.status[id.0 as usize] = Status::Ready;
        match &self.graph.op(id).kind {
            OpKind::Compute { device, .. } => {
                self.device_queue[device.0 as usize].push_back(id);
            }
            OpKind::Comm { meta, .. } => {
                self.pending_comm.push((self.now, id, meta.class));
            }
        }
    }

    fn complete(&mut self, id: OpId, started: SimTime) {
        let i = id.0 as usize;
        debug_assert_eq!(self.status[i], Status::Running);
        self.status[i] = Status::Done;
        self.done_count += 1;
        self.op_windows[i] = Some((started, self.now));
        let op = self.graph.op(id);
        match &op.kind {
            OpKind::Compute { device, span, .. } => {
                self.timeline.record(
                    StreamId {
                        device: device.0,
                        lane: Lane::Compute,
                    },
                    *span,
                    started,
                    self.now,
                    op.label.clone(),
                );
            }
            OpKind::Comm { spec, meta } => {
                let (lane, span) = match meta.class {
                    CommClass::AllToAll => (Lane::AllToAll, SpanKind::AllToAll),
                    CommClass::Allreduce => (Lane::Allreduce, SpanKind::Allreduce),
                    CommClass::Control => (Lane::Control, SpanKind::ControlComm),
                };
                for d in participants(spec) {
                    self.timeline.record(
                        StreamId { device: d, lane },
                        span,
                        started,
                        self.now,
                        op.label.clone(),
                    );
                }
                if meta.class == CommClass::AllToAll && meta.backward {
                    self.backward_a2a_done += 1;
                }
            }
        }
        for dep in self.dependents[i].clone() {
            let j = dep.0 as usize;
            self.unmet[j] -= 1;
            if self.unmet[j] == 0 {
                self.mark_ready(dep);
            }
        }
    }

    fn start_compute_ops(&mut self) {
        for d in 0..self.device_queue.len() {
            if self.device_busy[d].is_none() {
                if let Some(id) = self.device_queue[d].pop_front() {
                    let OpKind::Compute { duration, .. } = &self.graph.op(id).kind else {
                        unreachable!("compute queue holds compute ops");
                    };
                    self.status[id.0 as usize] = Status::Running;
                    self.device_busy[d] = Some((id, self.now + *duration));
                    // Stash the start for span recording.
                    self.op_windows[id.0 as usize] = Some((self.now, SimTime::MAX));
                }
            }
        }
    }

    fn stream_free(&self, class: CommClass) -> bool {
        !self.active_comm.iter().any(|(c, _)| *c == class)
    }

    fn a2a_imminent(&self) -> bool {
        self.a2a_ops.iter().any(|&id| {
            self.status[id.0 as usize] == Status::Pending
                && self
                    .graph
                    .op(id)
                    .deps
                    .iter()
                    .all(|d| matches!(self.status[d.0 as usize], Status::Done | Status::Running))
        })
    }

    /// Launches pending op `id`; its class stream must be free.
    fn launch(&mut self, id: OpId) {
        let pos = self
            .pending_comm
            .iter()
            .position(|&(_, p, _)| p == id)
            .expect("launching a pending op");
        let OpKind::Comm { spec, meta } = &self.graph.op(id).kind else {
            unreachable!("pending comm is a comm op");
        };
        debug_assert!(self.stream_free(meta.class));
        self.pending_comm.remove(pos);
        let i = id.0 as usize;
        self.status[i] = Status::Running;
        self.op_windows[i] = Some((self.now, SimTime::MAX));
        self.coll.start(spec, id.0 as u64);
        self.active_comm.push((meta.class, id));
    }

    /// Runs launch rounds (see the module doc) until one launches
    /// nothing.
    fn launch_comms(&mut self, policy: CommPolicy) {
        self.pending_comm.sort_unstable();
        loop {
            let oldest = |class| self.pending_comm.iter().find(|p| p.2 == class).map(|p| p.1);
            let a2a = oldest(CommClass::AllToAll);
            let a2a_free = self.stream_free(CommClass::AllToAll);
            let round = [
                a2a.filter(|_| a2a_free),
                oldest(CommClass::Allreduce).filter(|_| {
                    self.stream_free(CommClass::Allreduce)
                        && policy.admits_allreduce(
                            a2a.is_some() || !a2a_free,
                            self.backward_a2a_done,
                            || self.a2a_imminent(),
                        )
                }),
                oldest(CommClass::Control).filter(|_| self.stream_free(CommClass::Control)),
            ];
            if round.iter().all(Option::is_none) {
                return;
            }
            for id in round.into_iter().flatten() {
                self.launch(id);
            }
        }
    }

    /// Safeguard against non-work-conserving policies: if nothing is
    /// running anywhere but comm ops are pending, force-launch the
    /// oldest pending op per free class so the simulation cannot
    /// deadlock.
    fn force_progress(&mut self) -> bool {
        let nothing_running =
            self.device_busy.iter().all(Option::is_none) && self.active_comm.is_empty();
        if !nothing_running || self.pending_comm.is_empty() {
            return false;
        }
        // `launch_comms` left the queue sorted.
        for (_, id, class) in self.pending_comm.clone() {
            if self.stream_free(class) {
                self.launch(id);
            }
        }
        true
    }
}

fn participants(spec: &CollectiveSpec) -> Vec<u32> {
    match spec {
        CollectiveSpec::AllToAll { participants, .. }
        | CollectiveSpec::AllReduce { participants, .. } => {
            participants.iter().map(|d| d.0).collect()
        }
        CollectiveSpec::Broadcast {
            root, participants, ..
        } => {
            let mut v: Vec<u32> = participants.iter().map(|d| d.0).collect();
            if !v.contains(&root.0) {
                v.push(root.0);
            }
            v
        }
        CollectiveSpec::Send { src, dst, .. } => vec![src.0, dst.0],
    }
}

/// Executes `graph` on `topo` under `policy`.
///
/// # Panics
///
/// Panics if the graph cannot make progress (a malformed graph; cannot
/// happen for builder-produced graphs).
pub fn execute(graph: &OpGraph, topo: &Topology, policy: &CommPolicy) -> ExecResult {
    let mut st = EngineState::new(graph, topo);
    // Seed the ready set.
    for i in 0..graph.len() {
        if st.unmet[i] == 0 {
            st.mark_ready(OpId(i as u32));
        }
    }
    while st.done_count < graph.len() {
        st.start_compute_ops();
        st.launch_comms(*policy);
        // Earliest next event across compute and network.
        let t_comp = st
            .device_busy
            .iter()
            .filter_map(|b| b.map(|(_, end)| end))
            .min();
        let t_comm = st.coll.next_event();
        let next = match (t_comp, t_comm) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => {
                if st.force_progress() {
                    continue;
                }
                panic!(
                    "engine stalled at {} with {}/{} ops done",
                    st.now,
                    st.done_count,
                    graph.len()
                );
            }
        };
        debug_assert!(next >= st.now, "time went backwards");
        // Advance communication; +1ns so completions at `next` are seen.
        let comm_done = st.coll.advance_to(next);
        st.now = next.max(st.coll.now());
        for cd in comm_done {
            let id = OpId(cd.tag as u32);
            st.active_comm.retain(|(_, oid)| *oid != id);
            let started = st.op_windows[id.0 as usize].expect("launched").0;
            st.now = st.now.max(cd.at);
            st.complete(id, started);
        }
        // Complete compute ops due by now.
        for d in 0..st.device_busy.len() {
            if let Some((id, end)) = st.device_busy[d] {
                if end <= st.now {
                    st.device_busy[d] = None;
                    let started = st.op_windows[id.0 as usize].expect("started").0;
                    st.complete(id, started);
                }
            }
        }
    }
    let makespan = st.timeline.horizon() - SimTime::ZERO;
    ExecResult {
        timeline: st.timeline,
        makespan,
        op_windows: st.op_windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lina_baselines::TrainScheme;
    use lina_model::{
        balanced_routing, build_train_step, BatchShape, CommMeta, CostModel, DeviceSpec,
        MoeModelConfig,
    };
    use lina_netsim::{AllToAllAlgo, ClusterSpec};
    use lina_simcore::SpanKind;

    /// A 1 MB collective of `class` over every device of `topo`.
    fn comm(
        graph: &mut OpGraph,
        topo: &Topology,
        class: CommClass,
        backward: bool,
        deps: Vec<OpId>,
    ) -> OpId {
        let participants = topo.device_ids().collect();
        let spec = match class {
            CommClass::AllToAll => {
                CollectiveSpec::uniform_all_to_all(participants, 1e6, AllToAllAlgo::Flat)
            }
            _ => CollectiveSpec::AllReduce {
                participants,
                bytes: 1e6,
            },
        };
        let meta = CommMeta {
            class,
            layer: 0,
            chunk: 0,
            nchunks: 1,
            bytes_per_device: 1e6,
            backward,
            op_index: 0,
        };
        graph.add_comm(spec, meta, deps, "comm")
    }

    fn topo4() -> Topology {
        Topology::new(ClusterSpec::with_total_gpus(4))
    }

    fn run(scheme: TrainScheme, experts: usize, layers: usize) -> (ExecResult, OpGraph) {
        let model = MoeModelConfig::transformer_xl(layers, experts);
        let topo = Topology::new(ClusterSpec::with_total_gpus(experts));
        let cost = CostModel::new(DeviceSpec::a100(), model.clone());
        let batch = BatchShape {
            seqs_per_device: 4,
            seq_len: model.seq_len,
        };
        let routing = balanced_routing(&model, experts, batch);
        let opts = scheme.step_options(experts, &topo);
        let graph = build_train_step(&cost, &topo, batch, &routing, &opts);
        let result = execute(&graph, &topo, &scheme.policy());
        (result, graph)
    }

    #[test]
    fn baseline_step_completes_all_ops() {
        let (result, graph) = run(TrainScheme::Baseline, 4, 4);
        assert!(result.op_windows.iter().all(Option::is_some));
        assert!(result.makespan > SimDuration::ZERO);
        assert_eq!(result.op_windows.len(), graph.len());
    }

    #[test]
    fn windows_respect_dependencies() {
        let (result, graph) = run(TrainScheme::Baseline, 4, 4);
        for (i, op) in graph.ops().iter().enumerate() {
            let (start, _) = result.window(OpId(i as u32));
            for d in &op.deps {
                let (_, dep_end) = result.window(*d);
                assert!(
                    dep_end <= start,
                    "op {i} started {start} before dep {:?} ended {dep_end}",
                    d
                );
            }
        }
    }

    #[test]
    fn lina_step_completes_and_is_not_slower() {
        let (base, _) = run(TrainScheme::Baseline, 4, 4);
        let (lina, _) = run(TrainScheme::LinaNoPack, 4, 4);
        assert!(
            lina.makespan <= base.makespan.mul_f64(1.05),
            "lina {} vs baseline {}",
            lina.makespan,
            base.makespan
        );
    }

    #[test]
    fn all_schemes_terminate() {
        for scheme in [
            TrainScheme::Baseline,
            TrainScheme::Tutel,
            TrainScheme::Fixed,
            TrainScheme::PriorityOnly,
            TrainScheme::PriorityPartition,
            TrainScheme::LinaNoPack,
            TrainScheme::Lina {
                experts_per_device: 2,
            },
        ] {
            let (result, _) = run(scheme, 4, 2);
            assert!(result.makespan > SimDuration::ZERO, "{}", scheme.name());
        }
    }

    #[test]
    fn timeline_has_all_span_kinds() {
        let (result, _) = run(TrainScheme::Baseline, 4, 2);
        for kind in [
            SpanKind::Attention,
            SpanKind::Gate,
            SpanKind::ExpertFfn,
            SpanKind::Combine,
            SpanKind::Optimizer,
            SpanKind::AllToAll,
            SpanKind::Allreduce,
        ] {
            assert!(
                result.timeline.total_by_kind(kind) > SimDuration::ZERO,
                "missing {kind:?} spans"
            );
        }
    }

    #[test]
    fn deterministic_execution() {
        let (a, _) = run(
            TrainScheme::Lina {
                experts_per_device: 2,
            },
            4,
            3,
        );
        let (b, _) = run(
            TrainScheme::Lina {
                experts_per_device: 2,
            },
            4,
            3,
        );
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.op_windows, b.op_windows);
    }

    #[test]
    fn empty_graph_completes_immediately() {
        let topo = Topology::new(ClusterSpec::with_total_gpus(4));
        let graph = OpGraph::new();
        let result = execute(&graph, &topo, &CommPolicy::FairShare);
        assert_eq!(result.makespan, SimDuration::ZERO);
        assert!(result.timeline.is_empty());
    }

    #[test]
    fn single_compute_op_runs_for_its_duration() {
        let topo = Topology::new(ClusterSpec::with_total_gpus(4));
        let mut graph = OpGraph::new();
        graph.add_compute(
            lina_netsim::DeviceId(2),
            SimDuration::from_millis(7),
            SpanKind::Other,
            vec![],
            "solo",
        );
        let result = execute(&graph, &topo, &CommPolicy::FairShare);
        assert_eq!(result.makespan, SimDuration::from_millis(7));
    }

    #[test]
    fn single_comm_op_without_compute_still_launches() {
        // A graph that is pure communication: the engine must drive the
        // collective to completion with no compute events to anchor on.
        let topo = topo4();
        let mut graph = OpGraph::new();
        comm(&mut graph, &topo, CommClass::AllToAll, false, vec![]);
        let result = execute(&graph, &topo, &CommPolicy::FairShare);
        assert!(result.makespan > SimDuration::ZERO);
    }

    #[test]
    fn non_work_conserving_policy_cannot_deadlock_the_engine() {
        // With no all-to-all the step is never at a layer boundary, so
        // `Fixed` never admits the allreduce: the force-progress
        // safeguard must still finish the step.
        let topo = topo4();
        let mut graph = OpGraph::new();
        let ar = comm(&mut graph, &topo, CommClass::Allreduce, true, vec![]);
        let result = execute(&graph, &topo, &CommPolicy::Fixed);
        assert_eq!(result.window(ar).0, SimTime::ZERO);
        assert!(result.makespan > SimDuration::ZERO);
    }

    #[test]
    fn a2a_launches_immediately() {
        let topo = topo4();
        let mut graph = OpGraph::new();
        let ar = comm(&mut graph, &topo, CommClass::Allreduce, true, vec![]);
        let a2a = comm(&mut graph, &topo, CommClass::AllToAll, true, vec![]);
        let result = execute(&graph, &topo, &CommPolicy::Lina);
        assert_eq!(result.window(a2a).0, SimTime::ZERO);
        assert_eq!(result.window(ar).0, result.window(a2a).1);
    }

    #[test]
    fn fair_share_launches_both() {
        let topo = topo4();
        let mut graph = OpGraph::new();
        let a2a = comm(&mut graph, &topo, CommClass::AllToAll, true, vec![]);
        let ar = comm(&mut graph, &topo, CommClass::Allreduce, true, vec![]);
        let result = execute(&graph, &topo, &CommPolicy::FairShare);
        assert_eq!(result.window(a2a).0, SimTime::ZERO);
        assert_eq!(result.window(ar).0, SimTime::ZERO);
    }

    #[test]
    fn fair_share_respects_busy_streams() {
        let topo = topo4();
        let mut graph = OpGraph::new();
        let first = comm(&mut graph, &topo, CommClass::AllToAll, true, vec![]);
        let second = comm(&mut graph, &topo, CommClass::AllToAll, true, vec![]);
        let ar = comm(&mut graph, &topo, CommClass::Allreduce, true, vec![]);
        let result = execute(&graph, &topo, &CommPolicy::FairShare);
        assert_eq!(result.window(ar).0, SimTime::ZERO);
        assert_eq!(result.window(second).0, result.window(first).1);
    }

    #[test]
    fn allreduce_deferred_while_a2a_active() {
        // The allreduce becomes ready while the all-to-all is in flight.
        let topo = topo4();
        let mut graph = OpGraph::new();
        let a2a = comm(&mut graph, &topo, CommClass::AllToAll, true, vec![]);
        let grad = graph.add_compute(
            lina_netsim::DeviceId(0),
            SimDuration::from_micros(10),
            SpanKind::Attention,
            vec![],
            "grad",
        );
        let ar = comm(&mut graph, &topo, CommClass::Allreduce, true, vec![grad]);
        let lina = execute(&graph, &topo, &CommPolicy::Lina);
        assert!(lina.window(a2a).1 > lina.window(grad).1);
        assert_eq!(lina.window(ar).0, lina.window(a2a).1);
        let fair = execute(&graph, &topo, &CommPolicy::FairShare);
        assert_eq!(fair.window(ar).0, fair.window(grad).1);
    }

    #[test]
    fn a2a_present_via_active() {
        // No all-to-all is pending once the allreduce becomes ready, so
        // only the in-flight one can make an all-to-all present; the
        // naive-priority gate has no look-ahead to defer it otherwise.
        let topo = topo4();
        let mut graph = OpGraph::new();
        let a2a = comm(&mut graph, &topo, CommClass::AllToAll, false, vec![]);
        let grad = graph.add_compute(
            lina_netsim::DeviceId(0),
            SimDuration::from_micros(10),
            SpanKind::Attention,
            vec![],
            "grad",
        );
        let ar = comm(&mut graph, &topo, CommClass::Allreduce, true, vec![grad]);
        let result = execute(&graph, &topo, &CommPolicy::NaivePriority);
        assert!(result.window(a2a).1 > result.window(grad).1);
        assert_eq!(result.window(ar).0, result.window(a2a).1);
    }

    #[test]
    fn allreduce_runs_in_gaps() {
        // Exactly one micro-op at a time: the second waits for the first.
        let topo = topo4();
        let mut graph = OpGraph::new();
        let first = comm(&mut graph, &topo, CommClass::Allreduce, true, vec![]);
        let second = comm(&mut graph, &topo, CommClass::Allreduce, true, vec![]);
        let result = execute(&graph, &topo, &CommPolicy::Lina);
        assert_eq!(result.window(first).0, SimTime::ZERO);
        assert_eq!(result.window(second).0, result.window(first).1);
    }

    #[test]
    fn one_allreduce_in_flight_blocks_more() {
        // The second allreduce becomes ready while the first is in flight.
        let topo = topo4();
        let mut graph = OpGraph::new();
        let first = comm(&mut graph, &topo, CommClass::Allreduce, true, vec![]);
        let grad = graph.add_compute(
            lina_netsim::DeviceId(0),
            SimDuration::from_micros(10),
            SpanKind::Attention,
            vec![],
            "grad",
        );
        let second = comm(&mut graph, &topo, CommClass::Allreduce, true, vec![grad]);
        let result = execute(&graph, &topo, &CommPolicy::Lina);
        assert!(result.window(first).1 > result.window(grad).1);
        assert_eq!(result.window(second).0, result.window(first).1);
    }

    #[test]
    fn fixed_counts_only_backward_all_to_alls() {
        // Two all-to-alls, then a long compute op: a pending allreduce
        // launches at the second all-to-all's end when both were
        // backward (a layer boundary), and only when the safeguard
        // forces it once the compute ends when both were forward.
        let topo = topo4();
        for backward in [true, false] {
            let mut graph = OpGraph::new();
            let first = comm(&mut graph, &topo, CommClass::AllToAll, backward, vec![]);
            let second = comm(
                &mut graph,
                &topo,
                CommClass::AllToAll,
                backward,
                vec![first],
            );
            let busy = graph.add_compute(
                lina_netsim::DeviceId(0),
                SimDuration::from_millis(10),
                SpanKind::Attention,
                vec![],
                "busy",
            );
            let ar = comm(&mut graph, &topo, CommClass::Allreduce, true, vec![]);
            let result = execute(&graph, &topo, &CommPolicy::Fixed);
            let expected = if backward { second } else { busy };
            assert!(result.window(second).1 < result.window(busy).1);
            assert_eq!(result.window(ar).0, result.window(expected).1);
        }
    }

    #[test]
    fn compute_stream_is_serial_per_device() {
        let (result, _) = run(TrainScheme::Baseline, 4, 3);
        for d in 0..4 {
            let mut spans: Vec<(SimTime, SimTime)> = result
                .timeline
                .spans()
                .iter()
                .filter(|s| s.stream.device == d && s.stream.lane == Lane::Compute)
                .map(|s| (s.start, s.end))
                .collect();
            spans.sort();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlapping compute on device {d}");
            }
        }
    }
}
