//! Executors that price an [`ExecutionPlan`].
//!
//! The planner in [`crate::plan`] resolves every scheduling decision;
//! what remains is attaching times to the stages, and that depends on
//! the network model:
//!
//! * **Solo** ([`execute_plan_solo`], [`NetworkMode::Solo`]) prices each
//!   collective as if it ran alone on the wire, replaying it through
//!   the fluid network on a reused [`SoloTimer`] — the classical
//!   `run_inference_batch` costing, bit-for-bit.
//! * **Contended** ([`NetworkMode::Contended`]) feeds the collective
//!   stages of *all* in-flight batches on a replica through one shared
//!   [`Network`], so concurrent dispatch/combine all-to-alls fair-share
//!   NIC bandwidth and each batch's all-to-all takes however long the
//!   contended network actually needs (the Figure 3 phenomenon, applied
//!   to serving).
//!
//! [`ReplicaExecutor`] is the event-driven surface the serving cluster
//! drives: `submit` a planned batch at its dispatch instant, ask for the
//! `next_event` horizon, and `advance_to` a time to collect
//! [`FinishedBatch`]es. The solo variant is the degenerate case whose
//! completions are known at submit time.

use std::collections::BTreeMap;
use std::sync::Arc;

use lina_netsim::{CollectiveDone, CollectiveEngine, Network, SoloTimer, Topology};
use lina_simcore::{EventQueue, SimDuration, SimTime};

use crate::inference::InferenceReport;
use crate::plan::ExecutionPlan;

/// Which network model executes a plan's collectives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetworkMode {
    /// Every collective priced alone on an idle wire ([`SoloTimer`]).
    Solo,
    /// In-flight batches on a replica share its links fair-share.
    Contended,
}

impl NetworkMode {
    /// Stable lowercase name for configs and labels.
    pub fn name(self) -> &'static str {
        match self {
            NetworkMode::Solo => "solo",
            NetworkMode::Contended => "contended",
        }
    }
}

/// Prices a plan with solo (uncontended) collectives.
///
/// This is the exact costing of the pre-refactor inference driver: the
/// equivalence test in `tests/solo_equivalence.rs` pins it bit-for-bit
/// against reports captured before the planner/executor split.
pub fn execute_plan_solo(plan: &ExecutionPlan, timer: &mut SoloTimer) -> InferenceReport {
    let n = plan.layers.len();
    let mut total = SimDuration::ZERO;
    let mut layer_times = Vec::with_capacity(n);
    let mut a2a_times = Vec::with_capacity(n);
    let mut finetunes = 0;
    let mut estimates = 0;
    let mut accurate = 0;
    let mut max_idle_frac: f64 = 0.0;
    // Phase-one time the previous layer's overlap window could not
    // absorb blocks the current layer's scheduling stage.
    let mut unabsorbed = SimDuration::ZERO;
    for lp in &plan.layers {
        total += lp.attention;
        let mut layer_time = lp.gate + unabsorbed + lp.sched_block;
        unabsorbed = SimDuration::ZERO;
        let d1 = lp
            .dispatch
            .as_ref()
            .map(|s| timer.time(s))
            .unwrap_or(SimDuration::ZERO);
        let slowest = lp.slowest_compute();
        max_idle_frac = max_idle_frac.max(lp.idle_frac());
        let d2 = lp
            .combine_a2a
            .as_ref()
            .map(|s| timer.time(s))
            .unwrap_or(SimDuration::ZERO);
        layer_time += d1 + slowest + d2 + lp.combine;
        if let Some(budget) = lp.phase_one {
            let window = d1 + slowest + d2 + lp.combine + lp.attention + lp.gate;
            unabsorbed = budget.saturating_sub(window);
        }
        estimates += lp.estimated as usize;
        accurate += lp.accurate as usize;
        finetunes += lp.finetuned as usize;
        a2a_times.push(d1 + d2);
        layer_times.push(layer_time);
        total += layer_time;
    }
    InferenceReport {
        total,
        layer_times,
        a2a_times,
        finetunes,
        estimates,
        accurate,
        max_idle_frac,
    }
}

/// A batch that finished executing on a replica.
#[derive(Clone, Debug)]
pub struct FinishedBatch {
    /// Submission-order id (the cluster's global batch counter).
    pub id: u64,
    /// Dispatch instant.
    pub dispatched: SimTime,
    /// Completion instant.
    pub completed: SimTime,
    /// Tokens in the batch.
    pub tokens: usize,
    /// Per-batch measurements; `report.total == completed - dispatched`.
    pub report: InferenceReport,
}

/// Executes submitted plans for one replica under a [`NetworkMode`].
pub enum ReplicaExecutor {
    /// Solo pricing: completions known at submit time.
    Solo(Box<SoloReplica>),
    /// Shared-network execution on an event queue.
    Contended(Box<ContendedReplica>),
}

impl ReplicaExecutor {
    /// Builds an executor for a replica spanning `topo`.
    pub fn new(mode: NetworkMode, topo: &Topology) -> Self {
        ReplicaExecutor::new_shared(mode, Arc::new(topo.clone()))
    }

    /// Builds an executor over a shared topology handle — the cluster
    /// builds one `Arc<Topology>` per run and every replica shares it
    /// instead of deep-cloning the topology per executor.
    pub fn new_shared(mode: NetworkMode, topo: Arc<Topology>) -> Self {
        match mode {
            NetworkMode::Solo => ReplicaExecutor::Solo(Box::new(SoloReplica {
                timer: SoloTimer::new_shared(topo),
                inflight: Vec::new(),
                last_completion: SimTime::ZERO,
            })),
            NetworkMode::Contended => ReplicaExecutor::Contended(Box::new(ContendedReplica {
                engine: CollectiveEngine::new(Network::new_shared(topo.clone())),
                estimator: SoloTimer::new_shared(topo),
                queue: EventQueue::new(),
                batches: BTreeMap::new(),
                finished: Vec::new(),
                last_completion: SimTime::ZERO,
            })),
        }
    }

    /// Starts a planned batch at `at` (must be `>=` every previously
    /// observed event/submit time). Returns the plan's solo price on
    /// this replica's links ([`execute_plan_solo`] at the current
    /// [`ReplicaExecutor::link_scale`]): the batch's service time in
    /// solo mode, the completion estimate in contended mode.
    pub fn submit(&mut self, id: u64, at: SimTime, plan: Arc<ExecutionPlan>) -> SimDuration {
        match self {
            ReplicaExecutor::Solo(s) => s.submit(id, at, plan),
            ReplicaExecutor::Contended(c) => c.submit(id, at, plan),
        }
    }

    /// Next instant at which this replica's state can change (a batch
    /// completion in solo mode; any stage boundary or network event in
    /// contended mode), or `None` when nothing is in flight.
    pub fn next_event(&mut self) -> Option<SimTime> {
        match self {
            ReplicaExecutor::Solo(s) => s.inflight.iter().map(|f| f.completed).min(),
            ReplicaExecutor::Contended(c) => c.next_horizon(),
        }
    }

    /// Advances to `t` and returns batches that completed by then,
    /// ordered by `(completed, id)`.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<FinishedBatch> {
        match self {
            ReplicaExecutor::Solo(s) => s.advance_to(t),
            ReplicaExecutor::Contended(c) => c.advance_to(t),
        }
    }

    /// Batches currently in flight.
    pub fn in_flight(&self) -> usize {
        match self {
            ReplicaExecutor::Solo(s) => s.inflight.len(),
            ReplicaExecutor::Contended(c) => c.batches.len(),
        }
    }

    /// Tokens across in-flight batches.
    pub fn in_flight_tokens(&self) -> usize {
        match self {
            ReplicaExecutor::Solo(s) => s.inflight.iter().map(|f| f.tokens).sum(),
            ReplicaExecutor::Contended(c) => c.batches.values().map(|b| b.plan.tokens).sum(),
        }
    }

    /// Aborts every in-flight batch — the replica crashed. Returns the
    /// aborted batch ids (ascending); no completion is ever reported
    /// for them. Contended collectives and their network flows are
    /// cancelled; the executor is reusable after recovery.
    ///
    /// The cluster loop drains every executor event strictly before the
    /// crash instant first, so nothing already completed is in limbo; a
    /// batch completing exactly at the crash instant is aborted (the
    /// fault fires first at ties).
    pub fn abort_all(&mut self) -> Vec<u64> {
        match self {
            ReplicaExecutor::Solo(s) => {
                let mut ids: Vec<u64> = s.inflight.drain(..).map(|f| f.id).collect();
                ids.sort_unstable();
                ids
            }
            ReplicaExecutor::Contended(c) => {
                debug_assert!(
                    c.finished.is_empty(),
                    "abort_all: undrained completions on the replica"
                );
                let ids: Vec<u64> = c.batches.keys().copied().collect();
                c.batches.clear();
                c.queue.clear();
                c.engine.cancel_all();
                ids
            }
        }
    }

    /// Aborts one in-flight batch — a hedged duplicate lost the race.
    /// No completion is ever reported for it; other batches are
    /// untouched (contended survivors re-share the freed links from the
    /// current instant onward). Returns whether the batch was found.
    ///
    /// A batch completing exactly at the abort instant but not yet
    /// drained is aborted too — the abort wins ties, mirroring
    /// [`ReplicaExecutor::abort_all`] at a crash instant.
    pub fn abort(&mut self, id: u64) -> bool {
        match self {
            ReplicaExecutor::Solo(s) => {
                let before = s.inflight.len();
                s.inflight.retain(|f| f.id != id);
                s.inflight.len() != before
            }
            ReplicaExecutor::Contended(c) => c.abort(id),
        }
    }

    /// Scales the replica's link bandwidth (fault injection: 1.0 =
    /// healthy, < 1.0 = degraded NIC). Solo pricing charges subsequent
    /// plans their solo time on the degraded links; contended
    /// execution re-shares the degraded links immediately, in-flight
    /// collectives included.
    pub fn set_link_scale(&mut self, scale: f64) {
        match self {
            ReplicaExecutor::Solo(s) => s.timer.set_capacity_scale(scale),
            ReplicaExecutor::Contended(c) => {
                c.engine.network_mut().set_capacity_scale(scale);
                c.estimator.set_capacity_scale(scale);
            }
        }
    }

    /// The current link-bandwidth multiplier (1.0 when healthy).
    pub fn link_scale(&self) -> f64 {
        match self {
            ReplicaExecutor::Solo(s) => s.timer.capacity_scale(),
            ReplicaExecutor::Contended(c) => c.estimator.capacity_scale(),
        }
    }

    /// When the replica expects to drain: the latest in-flight
    /// completion (solo-priced estimate in contended mode, where actual
    /// completions can land later under contention), or the last
    /// observed completion when idle.
    pub fn busy_until(&self) -> SimTime {
        match self {
            ReplicaExecutor::Solo(s) => s
                .inflight
                .iter()
                .map(|f| f.completed)
                .max()
                .unwrap_or(s.last_completion),
            ReplicaExecutor::Contended(c) => c
                .batches
                .values()
                .map(|b| b.expected_completion)
                .max()
                .unwrap_or(c.last_completion),
        }
    }
}

/// Solo-pricing executor: each submitted plan is priced immediately
/// with uncontended collectives; "execution" is just waiting out the
/// precomputed completion instant.
pub struct SoloReplica {
    timer: SoloTimer,
    inflight: Vec<FinishedBatch>,
    last_completion: SimTime,
}

impl SoloReplica {
    fn submit(&mut self, id: u64, at: SimTime, plan: Arc<ExecutionPlan>) -> SimDuration {
        let report = execute_plan_solo(&plan, &mut self.timer);
        let total = report.total;
        self.inflight.push(FinishedBatch {
            id,
            dispatched: at,
            completed: at + total,
            tokens: plan.tokens,
            report,
        });
        total
    }

    fn advance_to(&mut self, t: SimTime) -> Vec<FinishedBatch> {
        let mut out: Vec<FinishedBatch> = Vec::new();
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].completed <= t {
                out.push(self.inflight.swap_remove(i));
            } else {
                i += 1;
            }
        }
        out.sort_by_key(|f| (f.completed, f.id));
        if let Some(last) = out.last() {
            self.last_completion = self.last_completion.max(last.completed);
        }
        out
    }
}

/// Progress marker: the next stage a contended batch will execute.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Step {
    /// Attention + gate + (unabsorbed phase-one + blocking schedule).
    PreDispatch,
    /// Dispatch all-to-all (skipped when the layer has no remote pair).
    Dispatch,
    /// Slowest-device expert compute.
    Compute,
    /// Combine all-to-all.
    CombineA2a,
    /// Combine op.
    Combine,
    /// Zero-duration bookkeeping closing the layer.
    LayerEnd,
}

struct ContendedBatch {
    id: u64,
    dispatched: SimTime,
    expected_completion: SimTime,
    plan: Arc<ExecutionPlan>,
    layer: usize,
    next: Step,
    /// Start of the current layer's MoE accounting (after attention).
    moe_start: SimTime,
    unabsorbed: SimDuration,
    /// Measured dispatch / combine all-to-all times of the current layer.
    d1: SimDuration,
    d2: SimDuration,
    layer_times: Vec<SimDuration>,
    a2a_times: Vec<SimDuration>,
    finetunes: usize,
    estimates: usize,
    accurate: usize,
    max_idle_frac: f64,
}

/// Shared-network executor: every in-flight batch's collectives run on
/// one [`Network`], so overlapping all-to-alls contend for links. Local
/// stages (attention, gate, scheduling, expert compute, combine op) are
/// timer events — compute does not contend across batches because each
/// replica serves one batch per GPU stream; only the wire is shared.
pub struct ContendedReplica {
    engine: CollectiveEngine,
    /// Solo pricing used for the `busy_until` completion estimate.
    estimator: SoloTimer,
    /// Timer events for non-collective stage boundaries (payload =
    /// batch id).
    queue: EventQueue<u64>,
    batches: BTreeMap<u64, ContendedBatch>,
    finished: Vec<FinishedBatch>,
    last_completion: SimTime,
}

impl ContendedReplica {
    fn submit(&mut self, id: u64, at: SimTime, plan: Arc<ExecutionPlan>) -> SimDuration {
        // Process anything due before the dispatch instant, then pin the
        // network clock to it so collective launches are stamped at `at`.
        self.drive(at);
        for d in self.engine.advance_to(at) {
            self.on_collective_done(d);
        }
        let solo_total = execute_plan_solo(&plan, &mut self.estimator).total;
        let n = plan.layers.len();
        let b = ContendedBatch {
            id,
            dispatched: at,
            expected_completion: at + solo_total,
            plan,
            layer: 0,
            next: Step::PreDispatch,
            moe_start: at,
            unabsorbed: SimDuration::ZERO,
            d1: SimDuration::ZERO,
            d2: SimDuration::ZERO,
            layer_times: Vec::with_capacity(n),
            a2a_times: Vec::with_capacity(n),
            finetunes: 0,
            estimates: 0,
            accurate: 0,
            max_idle_frac: 0.0,
        };
        self.run_steps(b, at);
        solo_total
    }

    /// Earliest pending event: a stage timer or a network event.
    fn next_horizon(&mut self) -> Option<SimTime> {
        let eng = if self.engine.active() > 0 {
            self.engine.next_event()
        } else {
            None
        };
        match (eng, self.queue.peek_time()) {
            (None, q) => q,
            (e, None) => e,
            (Some(a), Some(b)) => Some(a.min(b)),
        }
    }

    /// Processes every event with time `<= t`, in time order (network
    /// completions before timer events at the same instant).
    fn drive(&mut self, t: SimTime) {
        while let Some(h) = self.next_horizon() {
            if h > t {
                break;
            }
            // Advancing the network is exact regardless of step size
            // (piecewise-linear fluid flows), so stepping to each event
            // horizon keeps collective launches and stage boundaries
            // correctly interleaved.
            for d in self.engine.advance_to(h) {
                self.on_collective_done(d);
            }
            while let Some((at, id)) = self.queue.pop_due(h) {
                self.on_timer(id, at);
            }
        }
    }

    fn advance_to(&mut self, t: SimTime) -> Vec<FinishedBatch> {
        self.drive(t);
        let mut out: Vec<FinishedBatch> = self.finished.drain(..).collect();
        out.sort_by_key(|f| (f.completed, f.id));
        out
    }

    /// See [`ReplicaExecutor::abort`]. A live batch blocks on exactly
    /// one thing — a collective (tagged with its id) or a stage timer —
    /// so whichever of the two cancellations misses, the other hits.
    fn abort(&mut self, id: u64) -> bool {
        if self.batches.remove(&id).is_some() {
            if self.engine.cancel_tagged(id) == 0 {
                self.queue.retain(|&b| b != id);
            }
            return true;
        }
        // Completed at this very instant but not yet drained: the abort
        // wins the tie.
        let before = self.finished.len();
        self.finished.retain(|f| f.id != id);
        self.finished.len() != before
    }

    fn on_timer(&mut self, id: u64, at: SimTime) {
        let b = self
            .batches
            .remove(&id)
            .expect("timer event for live batch");
        self.run_steps(b, at);
    }

    fn on_collective_done(&mut self, d: CollectiveDone) {
        let mut b = self
            .batches
            .remove(&d.tag)
            .expect("collective completion for live batch");
        let measured = d.at - d.started;
        match b.next {
            // `next` was already advanced past the all-to-all stage when
            // the collective launched, so it names the stage *after* it.
            Step::Compute => b.d1 = measured,
            Step::Combine => b.d2 = measured,
            other => unreachable!("collective completed while batch awaits {other:?}"),
        }
        self.run_steps(b, d.at);
    }

    /// Executes stages from `now` until the batch blocks on a timer or
    /// collective, or finishes.
    fn run_steps(&mut self, mut b: ContendedBatch, now: SimTime) {
        let mut finished_at = None;
        loop {
            let lp = &b.plan.layers[b.layer];
            match b.next {
                Step::PreDispatch => {
                    let dur = lp.attention + lp.gate + b.unabsorbed + lp.sched_block;
                    b.moe_start = now + lp.attention;
                    b.unabsorbed = SimDuration::ZERO;
                    b.next = Step::Dispatch;
                    if dur > SimDuration::ZERO {
                        self.queue.push(now + dur, b.id);
                        break;
                    }
                }
                Step::Dispatch => {
                    b.next = Step::Compute;
                    if let Some(spec) = &lp.dispatch {
                        self.engine.start(spec, b.id);
                        break;
                    }
                    b.d1 = SimDuration::ZERO;
                }
                Step::Compute => {
                    b.max_idle_frac = b.max_idle_frac.max(lp.idle_frac());
                    let dur = lp.slowest_compute();
                    b.next = Step::CombineA2a;
                    if dur > SimDuration::ZERO {
                        self.queue.push(now + dur, b.id);
                        break;
                    }
                }
                Step::CombineA2a => {
                    b.next = Step::Combine;
                    if let Some(spec) = &lp.combine_a2a {
                        self.engine.start(spec, b.id);
                        break;
                    }
                    b.d2 = SimDuration::ZERO;
                }
                Step::Combine => {
                    b.next = Step::LayerEnd;
                    if lp.combine > SimDuration::ZERO {
                        self.queue.push(now + lp.combine, b.id);
                        break;
                    }
                }
                Step::LayerEnd => {
                    b.layer_times.push(now - b.moe_start);
                    b.a2a_times.push(b.d1 + b.d2);
                    b.estimates += lp.estimated as usize;
                    b.accurate += lp.accurate as usize;
                    b.finetunes += lp.finetuned as usize;
                    if let Some(budget) = lp.phase_one {
                        // The planner only sets phase_one when a next
                        // layer exists. The window uses the *measured*
                        // all-to-all times: contention stretches the
                        // window and absorbs more of the overlapped
                        // scheduling.
                        let next_lp = &b.plan.layers[b.layer + 1];
                        let window = b.d1
                            + lp.slowest_compute()
                            + b.d2
                            + lp.combine
                            + next_lp.attention
                            + next_lp.gate;
                        b.unabsorbed = budget.saturating_sub(window);
                    }
                    b.d1 = SimDuration::ZERO;
                    b.d2 = SimDuration::ZERO;
                    b.layer += 1;
                    if b.layer == b.plan.layers.len() {
                        finished_at = Some(now);
                        break;
                    }
                    b.next = Step::PreDispatch;
                }
            }
        }
        match finished_at {
            Some(at) => {
                self.last_completion = self.last_completion.max(at);
                self.finished.push(FinishedBatch {
                    id: b.id,
                    dispatched: b.dispatched,
                    completed: at,
                    tokens: b.plan.tokens,
                    report: InferenceReport {
                        total: at - b.dispatched,
                        layer_times: b.layer_times,
                        a2a_times: b.a2a_times,
                        finetunes: b.finetunes,
                        estimates: b.estimates,
                        accurate: b.accurate,
                        max_idle_frac: b.max_idle_frac,
                    },
                });
            }
            None => {
                self.batches.insert(b.id, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::InferenceConfig;
    use crate::plan::plan_batch;
    use lina_baselines::InferScheme;
    use lina_core::{PopularityEstimator, TwoPhaseConfig, TwoPhaseScheduler};
    use lina_model::{CostModel, DeviceSpec, MoeModelConfig};
    use lina_netsim::ClusterSpec;
    use lina_workload::{Mode, TokenBatch, TokenSource, WorkloadSpec};

    fn setup() -> (CostModel, Topology, TwoPhaseScheduler, Vec<TokenBatch>) {
        let model = MoeModelConfig::transformer_xl(6, 8).for_inference();
        let topo = Topology::new(ClusterSpec::with_total_gpus(8));
        let cost = CostModel::new(DeviceSpec::a100_inference(), model);
        let spec = WorkloadSpec::enwik8(8, 6);
        let mut src = TokenSource::new(&spec, 1, 7);
        let profile: Vec<TokenBatch> = (0..6)
            .map(|_| src.sample_batch(8, 1024, Mode::Train))
            .collect();
        let estimator = PopularityEstimator::profile(&profile, 3);
        let scheduler = TwoPhaseScheduler::new(TwoPhaseConfig::paper_defaults(8), estimator);
        let mut infer = TokenSource::new(&spec, 1, 1234);
        let batches = (0..4)
            .map(|_| infer.sample_batch(8, 2048, Mode::Inference))
            .collect();
        (cost, topo, scheduler, batches)
    }

    fn plans(scheme: InferScheme) -> (Topology, Vec<Arc<ExecutionPlan>>) {
        let (cost, topo, sched, batches) = setup();
        let config = InferenceConfig { scheme, top_k: 1 };
        let plans = batches
            .iter()
            .map(|b| Arc::new(plan_batch(&cost, &topo, &config, Some(&sched), b)))
            .collect();
        (topo, plans)
    }

    /// Both paths run the same fluid network, but the solo timer steps
    /// 1ns past each event while the event-driven executor steps exactly
    /// to it, which perturbs the byte-drain segmentation by a couple of
    /// nanoseconds per collective.
    fn assert_close(a: SimDuration, b: SimDuration, tol: SimDuration, ctx: &str) {
        let d = if a > b { a - b } else { b - a };
        assert!(d <= tol, "{ctx}: {a} vs {b} differ by {d}");
    }

    /// With at most one batch in flight there is nothing to contend
    /// with: the contended executor must reproduce solo pricing down to
    /// event-rounding noise (the network arithmetic is
    /// translation-invariant, so absolute launch times do not matter).
    #[test]
    fn contended_degenerates_to_solo_when_alone() {
        let layer_tol = SimDuration::from_nanos(16);
        for scheme in [InferScheme::Baseline, InferScheme::Lina] {
            let (topo, plans) = plans(scheme);
            let mut timer = SoloTimer::new(&topo);
            let mut exec = ReplicaExecutor::new(NetworkMode::Contended, &topo);
            let mut at = SimTime::ZERO;
            for (i, plan) in plans.iter().enumerate() {
                let solo = execute_plan_solo(plan, &mut timer);
                exec.submit(i as u64, at, plan.clone());
                let done = exec.advance_to(SimTime::MAX);
                assert_eq!(done.len(), 1, "{scheme:?} batch {i}");
                let fb = &done[0];
                let total_tol = SimDuration::from_nanos(16 * plan.n_layers() as u64);
                let ctx = format!("{scheme:?} batch {i}");
                assert_close(fb.report.total, solo.total, total_tol, &ctx);
                assert_eq!(fb.report.layer_times.len(), solo.layer_times.len());
                for (l, (&got, &want)) in fb
                    .report
                    .layer_times
                    .iter()
                    .zip(&solo.layer_times)
                    .enumerate()
                {
                    assert_close(got, want, layer_tol, &format!("{ctx} layer {l}"));
                }
                for (l, (&got, &want)) in
                    fb.report.a2a_times.iter().zip(&solo.a2a_times).enumerate()
                {
                    assert_close(got, want, layer_tol, &format!("{ctx} a2a {l}"));
                }
                assert_eq!(fb.report.estimates, solo.estimates);
                assert_eq!(fb.report.finetunes, solo.finetunes);
                assert_eq!(fb.report.accurate, solo.accurate);
                assert_eq!(
                    fb.report.max_idle_frac.to_bits(),
                    solo.max_idle_frac.to_bits()
                );
                // Next batch starts strictly after this one drains, with
                // an uneven gap to vary absolute launch times.
                at = fb.completed + SimDuration::from_micros(137 + 41 * i as u64);
            }
        }
    }

    /// Overlapping batches share the wire: every batch still finishes
    /// exactly once with all tokens accounted, and nobody beats their
    /// solo time.
    #[test]
    fn overlapping_batches_contend_and_conserve_tokens() {
        let (topo, plans) = plans(InferScheme::Baseline);
        let mut timer = SoloTimer::new(&topo);
        let solo: Vec<InferenceReport> = plans
            .iter()
            .map(|p| execute_plan_solo(p, &mut timer))
            .collect();
        let mut exec = ReplicaExecutor::new(NetworkMode::Contended, &topo);
        let submitted_tokens: usize = plans.iter().map(|p| p.tokens).sum();
        // Submit all four close together so their all-to-alls overlap.
        let mut at = SimTime::ZERO;
        for (i, plan) in plans.iter().enumerate() {
            exec.submit(i as u64, at, plan.clone());
            at += SimDuration::from_micros(50);
        }
        assert_eq!(exec.in_flight(), 4);
        assert_eq!(exec.in_flight_tokens(), submitted_tokens);
        let done = exec.advance_to(SimTime::MAX);
        assert_eq!(done.len(), 4, "every batch finishes exactly once");
        assert_eq!(exec.in_flight(), 0);
        let finished_tokens: usize = done.iter().map(|f| f.tokens).sum();
        assert_eq!(finished_tokens, submitted_tokens, "tokens conserved");
        let mut slowdowns = Vec::new();
        for fb in &done {
            let s = &solo[fb.id as usize];
            assert!(
                fb.report.total >= s.total,
                "batch {} contended total {} beat solo {}",
                fb.id,
                fb.report.total,
                s.total
            );
            slowdowns.push(fb.report.total.as_secs_f64() / s.total.as_secs_f64());
        }
        // At least one batch must actually have been slowed by sharing.
        assert!(
            slowdowns.iter().any(|&s| s > 1.001),
            "no contention observed: slowdowns {slowdowns:?}"
        );
    }

    /// Identical submissions produce identical completions.
    #[test]
    fn contended_executor_is_deterministic() {
        let run = || {
            let (topo, plans) = plans(InferScheme::Lina);
            let mut exec = ReplicaExecutor::new(NetworkMode::Contended, &topo);
            let mut at = SimTime::ZERO;
            for (i, plan) in plans.iter().enumerate() {
                exec.submit(i as u64, at, plan.clone());
                at += SimDuration::from_micros(200);
            }
            exec.advance_to(SimTime::MAX)
                .into_iter()
                .map(|f| (f.id, f.completed, f.report.total))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// Aborting clears in-flight work in both modes: no completions are
    /// ever reported for aborted batches, the live-state counters drop
    /// to zero (the balancer reads them), and the executor keeps working
    /// for post-recovery submissions.
    #[test]
    fn abort_clears_in_flight_work_in_both_modes() {
        for mode in [NetworkMode::Solo, NetworkMode::Contended] {
            let (topo, plans) = plans(InferScheme::Baseline);
            let mut exec = ReplicaExecutor::new(mode, &topo);
            exec.submit(0, SimTime::ZERO, plans[0].clone());
            exec.submit(1, SimTime::from_micros(40), plans[1].clone());
            assert_eq!(exec.in_flight(), 2, "{mode:?}");
            assert!(exec.in_flight_tokens() > 0);
            let aborted = exec.abort_all();
            assert_eq!(aborted, vec![0, 1], "{mode:?}");
            assert_eq!(exec.in_flight(), 0, "{mode:?}");
            assert_eq!(exec.in_flight_tokens(), 0, "{mode:?}");
            assert_eq!(exec.next_event(), None, "{mode:?}");
            let done = exec.advance_to(SimTime::MAX);
            assert!(done.is_empty(), "{mode:?}: aborted batches completed");
            // The replica recovers and serves again.
            exec.submit(2, SimTime::from_millis(400), plans[2].clone());
            let done = exec.advance_to(SimTime::MAX);
            assert_eq!(done.len(), 1, "{mode:?}");
            assert_eq!(done[0].id, 2);
        }
    }

    /// Aborting a single batch never reports its completion, leaves the
    /// other in-flight batch to finish normally, and is a no-op for
    /// unknown or already-drained ids — in both modes.
    #[test]
    fn abort_drops_one_batch_and_spares_the_rest() {
        for mode in [NetworkMode::Solo, NetworkMode::Contended] {
            let (topo, plans) = plans(InferScheme::Baseline);
            let mut exec = ReplicaExecutor::new(mode, &topo);
            exec.submit(0, SimTime::ZERO, plans[0].clone());
            exec.submit(1, SimTime::from_micros(40), plans[1].clone());
            assert_eq!(exec.in_flight(), 2, "{mode:?}");
            assert!(!exec.abort(99), "{mode:?}: unknown id aborted");
            assert!(exec.abort(0), "{mode:?}");
            assert!(!exec.abort(0), "{mode:?}: double abort succeeded");
            assert_eq!(exec.in_flight(), 1, "{mode:?}");
            let done = exec.advance_to(SimTime::MAX);
            assert_eq!(done.len(), 1, "{mode:?}: survivor finishes once");
            assert_eq!(done[0].id, 1, "{mode:?}");
            assert_eq!(exec.in_flight(), 0, "{mode:?}");
            // The replica keeps serving after the abort.
            exec.submit(2, SimTime::from_millis(400), plans[2].clone());
            let done = exec.advance_to(SimTime::MAX);
            assert_eq!(done.len(), 1, "{mode:?}");
            assert_eq!(done[0].id, 2);
        }
    }

    /// Aborting mid-collective frees the wire: a survivor contending
    /// with the aborted batch speeds up relative to both running fully
    /// contended.
    #[test]
    fn contended_abort_releases_link_share() {
        let (topo, plans) = plans(InferScheme::Baseline);
        let run = |abort_partner: bool| {
            let mut exec = ReplicaExecutor::new(NetworkMode::Contended, &topo);
            exec.submit(0, SimTime::ZERO, plans[0].clone());
            exec.submit(1, SimTime::ZERO, plans[0].clone());
            // Let both progress into their first all-to-alls.
            let mid = SimTime::from_micros(400);
            let early = exec.advance_to(mid);
            assert!(early.is_empty(), "nothing should finish this early");
            if abort_partner {
                assert!(exec.abort(1));
            }
            let done = exec.advance_to(SimTime::MAX);
            let fb = done.iter().find(|f| f.id == 0).expect("batch 0 finishes");
            fb.completed
        };
        let contended = run(false);
        let relieved = run(true);
        assert!(
            relieved < contended,
            "freed bandwidth must speed the survivor: {relieved} vs {contended}"
        );
    }

    /// A degraded link stretches all-to-all pricing in both modes, and
    /// restoring it returns pricing to the healthy baseline.
    #[test]
    fn link_degradation_slows_batches_and_restores() {
        for mode in [NetworkMode::Solo, NetworkMode::Contended] {
            let (topo, plans) = plans(InferScheme::Baseline);
            let run_one = |exec: &mut ReplicaExecutor, id: u64, at: SimTime| {
                exec.submit(id, at, plans[0].clone());
                let done = exec.advance_to(SimTime::MAX);
                assert_eq!(done.len(), 1);
                done[0].report.total
            };
            let mut exec = ReplicaExecutor::new(mode, &topo);
            let healthy = run_one(&mut exec, 0, SimTime::ZERO);
            exec.set_link_scale(0.25);
            let degraded = run_one(&mut exec, 1, SimTime::from_secs_f64(1.0));
            exec.set_link_scale(1.0);
            let restored = run_one(&mut exec, 2, SimTime::from_secs_f64(2.0));
            assert!(
                degraded > healthy,
                "{mode:?}: quartered bandwidth must slow the batch \
                 ({degraded} vs {healthy})"
            );
            let drift = if restored > healthy {
                restored - healthy
            } else {
                healthy - restored
            };
            assert!(
                drift <= SimDuration::from_nanos(16 * plans[0].n_layers() as u64),
                "{mode:?}: restored pricing {restored} vs healthy {healthy}"
            );
        }
    }

    /// Compute scaling stretches only the expert-compute stages.
    #[test]
    fn scale_compute_stretches_solo_totals() {
        let (topo, plans) = plans(InferScheme::Baseline);
        let mut timer = SoloTimer::new(&topo);
        let base = execute_plan_solo(&plans[0], &mut timer);
        let mut scaled = (*plans[0]).clone();
        scaled.scale_compute(1.5);
        let slow = execute_plan_solo(&scaled, &mut timer);
        assert!(slow.total > base.total);
        let compute_delta: SimDuration = plans[0]
            .layers
            .iter()
            .map(|l| l.slowest_compute().mul_f64(0.5))
            .sum();
        let got = slow.total - base.total;
        let err = if got > compute_delta {
            got - compute_delta
        } else {
            compute_delta - got
        };
        assert!(
            err <= SimDuration::from_nanos(2 * plans[0].n_layers() as u64),
            "compute-only scaling: delta {got} vs expected {compute_delta}"
        );
    }

    /// The solo variant's bookkeeping: busy_until tracks the precomputed
    /// completion and advance_to drains in completion order.
    #[test]
    fn solo_replica_tracks_completions() {
        let (topo, plans) = plans(InferScheme::Baseline);
        let mut exec = ReplicaExecutor::new(NetworkMode::Solo, &topo);
        assert_eq!(exec.next_event(), None);
        exec.submit(0, SimTime::ZERO, plans[0].clone());
        exec.submit(1, SimTime::from_micros(10), plans[1].clone());
        assert_eq!(exec.in_flight(), 2);
        let first = exec.next_event().expect("two in flight");
        assert!(exec.busy_until() >= first);
        let done = exec.advance_to(first);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].completed, first);
        let rest = exec.advance_to(SimTime::MAX);
        assert_eq!(rest.len(), 1);
        assert!(rest[0].completed >= first);
        assert_eq!(exec.in_flight(), 0);
        assert_eq!(exec.busy_until(), rest[0].completed);
    }
}
