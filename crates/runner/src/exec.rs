//! Executors that price an [`ExecutionPlan`].
//!
//! The planner in [`crate::plan`] resolves every scheduling decision;
//! what remains is attaching times to the stages. One walker owns the
//! stage sequence and its per-layer accounting (the phase-one overlap
//! carry, layer and all-to-all times, estimate counters) and yields
//! each blocking stage in turn: a local wait or a collective. The
//! [`NetworkMode`] decides only who times a collective:
//!
//! * **Solo** ([`execute_plan_solo`], [`NetworkMode::Solo`]) prices each
//!   collective as if it ran alone on the wire, replaying it through
//!   the fluid network on a reused [`SoloTimer`].
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
//! [`FinishedBatch`]es. In solo mode `submit` walks the whole plan at
//! once and only the batch's completion waits on the event queue. A
//! contended executor solo-prices a batch at submit only when built to
//! estimate ([`ReplicaExecutor::new_shared`]): the estimate feeds
//! [`ReplicaExecutor::busy_until`] and the price `submit` returns, and
//! a replica whose estimate nobody reads should not pay for the walk.

use std::collections::BTreeMap;
use std::sync::Arc;

use lina_netsim::{CollectiveDone, CollectiveEngine, CollectiveSpec, Network, SoloTimer, Topology};
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
    let mut walk = LayerWalk::new(SimTime::ZERO, plan.n_layers());
    let end = walk.run_solo(plan, timer, SimTime::ZERO);
    walk.finish(end)
}

/// What a [`LayerWalk`] blocks on next.
enum Blocked<'p> {
    /// A local stage (attention through scheduling, expert compute, or
    /// the combine op) lasting this long.
    Wait(SimDuration),
    /// An all-to-all; its measured time goes to
    /// [`LayerWalk::collective_done`].
    Collective(&'p CollectiveSpec),
    /// Every layer has run.
    Done,
}

/// The stage a [`LayerWalk`] runs next within the current layer.
#[derive(Clone, Copy, Debug)]
enum Stage {
    /// Attention + gate + (unabsorbed phase-one + blocking schedule).
    Gate,
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

/// One batch's walk through its plan's stages, in execution order,
/// with the per-layer accounting both network modes share. The caller
/// times each blocking stage and resumes the walk at the instant the
/// stage ends.
struct LayerWalk {
    dispatched: SimTime,
    layer: usize,
    stage: Stage,
    /// Start of the current layer's MoE accounting (after attention).
    moe_start: SimTime,
    /// Measured all-to-all time of the current layer.
    a2a: SimDuration,
    /// Phase-one time the previous layer's overlap window could not
    /// absorb; it blocks the current layer's scheduling stage.
    unabsorbed: SimDuration,
    /// Per-layer accumulators; `total` is set by [`LayerWalk::finish`].
    report: InferenceReport,
}

impl LayerWalk {
    fn new(dispatched: SimTime, layers: usize) -> Self {
        LayerWalk {
            dispatched,
            layer: 0,
            stage: Stage::Gate,
            moe_start: dispatched,
            a2a: SimDuration::ZERO,
            unabsorbed: SimDuration::ZERO,
            report: InferenceReport {
                total: SimDuration::ZERO,
                layer_times: Vec::with_capacity(layers),
                a2a_times: Vec::with_capacity(layers),
                finetunes: 0,
                estimates: 0,
                accurate: 0,
                max_idle_frac: 0.0,
            },
        }
    }

    /// Runs the zero-duration stages due at `now` and returns the
    /// stage the walk then blocks on.
    fn advance<'p>(&mut self, plan: &'p ExecutionPlan, now: SimTime) -> Blocked<'p> {
        while let Some(lp) = plan.layers.get(self.layer) {
            match self.stage {
                Stage::Gate => {
                    self.stage = Stage::Dispatch;
                    self.moe_start = now + lp.attention;
                    let unabsorbed = std::mem::take(&mut self.unabsorbed);
                    let dur = lp.attention + lp.gate + unabsorbed + lp.sched_block;
                    if dur > SimDuration::ZERO {
                        return Blocked::Wait(dur);
                    }
                }
                Stage::Dispatch => {
                    self.stage = Stage::Compute;
                    if let Some(spec) = &lp.dispatch {
                        return Blocked::Collective(spec);
                    }
                }
                Stage::Compute => {
                    self.stage = Stage::CombineA2a;
                    let r = &mut self.report;
                    r.max_idle_frac = r.max_idle_frac.max(lp.idle_frac());
                    let dur = lp.slowest_compute();
                    if dur > SimDuration::ZERO {
                        return Blocked::Wait(dur);
                    }
                }
                Stage::CombineA2a => {
                    self.stage = Stage::Combine;
                    if let Some(spec) = &lp.combine_a2a {
                        return Blocked::Collective(spec);
                    }
                }
                Stage::Combine => {
                    self.stage = Stage::LayerEnd;
                    if lp.combine > SimDuration::ZERO {
                        return Blocked::Wait(lp.combine);
                    }
                }
                Stage::LayerEnd => {
                    let r = &mut self.report;
                    r.layer_times.push(now - self.moe_start);
                    r.a2a_times.push(self.a2a);
                    r.estimates += lp.estimated as usize;
                    r.accurate += lp.accurate as usize;
                    r.finetunes += lp.finetuned as usize;
                    // Phase one overlaps everything from this layer's
                    // dispatch through the next layer's gate, with the
                    // *measured* all-to-all times: contention stretches
                    // the window and absorbs more of the scheduling.
                    if let (Some(budget), Some(next)) =
                        (lp.phase_one, plan.layers.get(self.layer + 1))
                    {
                        let window = self.a2a
                            + lp.slowest_compute()
                            + lp.combine
                            + next.attention
                            + next.gate;
                        self.unabsorbed = budget.saturating_sub(window);
                    }
                    self.a2a = SimDuration::ZERO;
                    self.layer += 1;
                    self.stage = Stage::Gate;
                }
            }
        }
        Blocked::Done
    }

    /// Records the measured time of the collective the walk blocked on.
    fn collective_done(&mut self, measured: SimDuration) {
        debug_assert!(
            matches!(self.stage, Stage::Compute | Stage::Combine),
            "collective completed while the walk awaits {:?}",
            self.stage
        );
        self.a2a += measured;
    }

    /// Walks the rest of the plan from `now`, timing each collective
    /// alone on `timer`; returns the instant the walk is done.
    fn run_solo(
        &mut self,
        plan: &ExecutionPlan,
        timer: &mut SoloTimer,
        mut now: SimTime,
    ) -> SimTime {
        loop {
            match self.advance(plan, now) {
                Blocked::Wait(dur) => now += dur,
                Blocked::Collective(spec) => {
                    let measured = timer.time(spec);
                    self.collective_done(measured);
                    now += measured;
                }
                Blocked::Done => return now,
            }
        }
    }

    /// The batch's report for a walk that finished at `now`.
    fn finish(self, now: SimTime) -> InferenceReport {
        InferenceReport {
            total: now - self.dispatched,
            ..self.report
        }
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

/// A batch in flight on a replica.
struct InFlight {
    /// Solo-priced completion: exact in solo mode, an estimate in
    /// contended mode, `None` when the executor does not estimate.
    expected: Option<SimTime>,
    plan: Arc<ExecutionPlan>,
    walk: LayerWalk,
}

/// Executes submitted plans for one replica under a [`NetworkMode`].
///
/// In contended mode local stages (attention, gate, scheduling, expert
/// compute, combine op) are timer events and only the wire is shared:
/// compute does not contend across batches, because each replica
/// serves one batch per GPU stream.
pub struct ReplicaExecutor {
    /// Solo pricing: the service time in solo mode, the completion
    /// estimate in an estimating contended executor; `None` in a
    /// contended executor that does not estimate.
    timer: Option<SoloTimer>,
    /// The replica's shared network in contended mode; `None` in solo
    /// mode, where the timer prices every collective at submit.
    engine: Option<CollectiveEngine>,
    /// Stage-boundary timers (payload = batch id). In solo mode a
    /// batch's only event is its completion.
    queue: EventQueue<u64>,
    batches: BTreeMap<u64, InFlight>,
    finished: Vec<FinishedBatch>,
    last_completion: SimTime,
}

impl ReplicaExecutor {
    /// Builds an executor for a replica spanning `topo`. A contended
    /// one does not estimate.
    pub fn new(mode: NetworkMode, topo: &Topology) -> Self {
        ReplicaExecutor::new_shared(mode, Arc::new(topo.clone()), false)
    }

    /// Builds an executor over a shared topology handle — the cluster
    /// builds one `Arc<Topology>` per run and every replica shares it
    /// instead of deep-cloning the topology per executor.
    ///
    /// `estimate` makes a contended executor solo-price every batch at
    /// submit, for [`ReplicaExecutor::busy_until`] and the price
    /// [`ReplicaExecutor::submit`] returns. A solo executor always
    /// prices, since the price is the service time.
    pub fn new_shared(mode: NetworkMode, topo: Arc<Topology>, estimate: bool) -> Self {
        let contended = mode == NetworkMode::Contended;
        ReplicaExecutor {
            engine: contended.then(|| CollectiveEngine::new(Network::new_shared(topo.clone()))),
            timer: (!contended || estimate).then(|| SoloTimer::new_shared(topo)),
            queue: EventQueue::new(),
            batches: BTreeMap::new(),
            finished: Vec::new(),
            last_completion: SimTime::ZERO,
        }
    }

    /// Starts a planned batch at `at` (must be `>=` every previously
    /// observed event/submit time). Returns the plan's solo price on
    /// this replica's links ([`execute_plan_solo`] at the current
    /// [`ReplicaExecutor::link_scale`]) when the executor prices: the
    /// batch's service time in solo mode, the completion estimate in
    /// an estimating contended executor. A contended executor that
    /// does not estimate returns `None` and never walks the plan solo.
    pub fn submit(
        &mut self,
        id: u64,
        at: SimTime,
        plan: Arc<ExecutionPlan>,
    ) -> Option<SimDuration> {
        // Process anything due by the dispatch instant, then pin the
        // network clock to it so collective launches are stamped at `at`.
        self.drive(at);
        if let Some(engine) = &mut self.engine {
            for d in engine.advance_to(at) {
                self.on_collective_done(d);
            }
        }
        let mut walk = LayerWalk::new(at, plan.n_layers());
        let expected = self
            .timer
            .as_mut()
            .map(|timer| walk.run_solo(&plan, timer, at));
        let mut b = InFlight {
            expected,
            plan,
            walk,
        };
        if self.engine.is_some() {
            // The shared network times this batch's collectives; a
            // solo walk only estimated its completion.
            if expected.is_some() {
                b.walk = LayerWalk::new(at, b.plan.n_layers());
            }
            self.resume(id, b, at);
        } else {
            let done = expected.expect("a solo executor always prices");
            self.queue.push(done, id);
            self.batches.insert(id, b);
        }
        expected.map(|done| done - at)
    }

    /// Next instant at which this replica's state can change (a batch
    /// completion in solo mode; any stage boundary or network event in
    /// contended mode), or `None` when nothing is in flight.
    pub fn next_event(&mut self) -> Option<SimTime> {
        let net = self
            .engine
            .as_mut()
            .filter(|e| e.active() > 0)
            .and_then(CollectiveEngine::next_event);
        match (net, self.queue.peek_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advances to `t` and returns batches that completed by then,
    /// ordered by `(completed, id)`.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<FinishedBatch> {
        self.drive(t);
        let mut out = std::mem::take(&mut self.finished);
        out.sort_by_key(|f| (f.completed, f.id));
        out
    }

    /// Batches currently in flight.
    pub fn in_flight(&self) -> usize {
        self.batches.len()
    }

    /// Tokens across in-flight batches.
    pub fn in_flight_tokens(&self) -> usize {
        self.batches.values().map(|b| b.plan.tokens).sum()
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
        debug_assert!(
            self.finished.is_empty(),
            "abort_all: undrained completions on the replica"
        );
        let ids: Vec<u64> = self.batches.keys().copied().collect();
        self.batches.clear();
        self.queue.clear();
        if let Some(engine) = &mut self.engine {
            engine.cancel_all();
        }
        ids
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
        if self.batches.remove(&id).is_some() {
            // A live batch blocks on exactly one thing — a collective
            // (tagged with its id) or a timer — so whichever of the two
            // cancellations misses, the other hits.
            if self
                .engine
                .as_mut()
                .is_none_or(|e| e.cancel_tagged(id) == 0)
            {
                self.queue.retain(|&b| b != id);
            }
            return true;
        }
        let before = self.finished.len();
        self.finished.retain(|f| f.id != id);
        self.finished.len() != before
    }

    /// Scales the replica's link bandwidth (fault injection: 1.0 =
    /// healthy, < 1.0 = degraded NIC). Solo pricing charges subsequent
    /// plans their solo time on the degraded links; contended
    /// execution re-shares the degraded links immediately, in-flight
    /// collectives included.
    pub fn set_link_scale(&mut self, scale: f64) {
        if let Some(engine) = &mut self.engine {
            engine.set_capacity_scale(scale);
        }
        if let Some(timer) = &mut self.timer {
            timer.set_capacity_scale(scale);
        }
    }

    /// The current link-bandwidth multiplier (1.0 when healthy).
    pub fn link_scale(&self) -> f64 {
        match (&self.engine, &self.timer) {
            (Some(engine), _) => engine.network().capacity_scale(),
            (None, Some(timer)) => timer.capacity_scale(),
            (None, None) => unreachable!("a solo executor always holds its timer"),
        }
    }

    /// When the replica expects to drain: the latest in-flight
    /// completion (solo-priced estimate in contended mode, where actual
    /// completions can land later under contention), or the last
    /// observed completion when idle. `None` when the executor does
    /// not estimate.
    pub fn busy_until(&self) -> Option<SimTime> {
        self.timer.as_ref()?;
        let latest = self.batches.values().filter_map(|b| b.expected).max();
        Some(latest.unwrap_or(self.last_completion))
    }

    /// Processes every event with time `<= t`, in time order (network
    /// completions before timer events at the same instant).
    fn drive(&mut self, t: SimTime) {
        while let Some(h) = self.next_event() {
            if h > t {
                break;
            }
            // Advancing the network is exact regardless of step size
            // (piecewise-linear fluid flows), so stepping to each event
            // horizon keeps collective launches and stage boundaries
            // correctly interleaved.
            if let Some(engine) = &mut self.engine {
                for d in engine.advance_to(h) {
                    self.on_collective_done(d);
                }
            }
            while let Some((at, id)) = self.queue.pop_due(h) {
                let b = self
                    .batches
                    .remove(&id)
                    .expect("timer event for live batch");
                self.resume(id, b, at);
            }
        }
    }

    fn on_collective_done(&mut self, d: CollectiveDone) {
        let mut b = self
            .batches
            .remove(&d.tag)
            .expect("collective completion for live batch");
        b.walk.collective_done(d.at - d.started);
        self.resume(d.tag, b, d.at);
    }

    /// Walks batch `id` from `now` until it blocks on a timer or a
    /// collective, or finishes.
    fn resume(&mut self, id: u64, mut b: InFlight, now: SimTime) {
        match b.walk.advance(&b.plan, now) {
            Blocked::Wait(dur) => self.queue.push(now + dur, id),
            Blocked::Collective(spec) => {
                let engine = self.engine.as_mut().expect("solo walks finish at submit");
                engine.start(spec, id);
            }
            Blocked::Done => {
                self.last_completion = self.last_completion.max(now);
                self.finished.push(FinishedBatch {
                    id,
                    dispatched: b.walk.dispatched,
                    completed: now,
                    tokens: b.plan.tokens,
                    report: b.walk.finish(now),
                });
                return;
            }
        }
        self.batches.insert(id, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::InferenceConfig;
    use crate::plan::{plan_batch, LayerPlan};
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

    /// Solo-mode bookkeeping: busy_until tracks the precomputed
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
        assert!(exec.busy_until() >= Some(first));
        let done = exec.advance_to(first);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].completed, first);
        let rest = exec.advance_to(SimTime::MAX);
        assert_eq!(rest.len(), 1);
        assert!(rest[0].completed >= first);
        assert_eq!(exec.in_flight(), 0);
        assert_eq!(exec.busy_until(), Some(rest[0].completed));

        // A submit fires every completion due by its instant first: the
        // batch completing exactly then leaves the in-flight set but is
        // still reported, once, by the next `advance_to`.
        let mut exec = ReplicaExecutor::new(NetworkMode::Solo, &topo);
        exec.submit(0, SimTime::ZERO, plans[0].clone());
        exec.submit(1, SimTime::from_micros(10), plans[1].clone());
        let first = exec.next_event().expect("two in flight");
        let second = exec.busy_until().expect("a solo executor prices");
        assert!(second > first, "the fixture's batches finish apart");
        let price = exec
            .submit(2, first, plans[2].clone())
            .expect("a solo executor prices");
        assert_eq!(exec.in_flight(), 2);
        assert_eq!(exec.busy_until(), Some(second.max(first + price)));
        let all = exec.advance_to(SimTime::MAX);
        let mut ids: Vec<u64> = all.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2], "every batch exactly once");
        assert!(all
            .windows(2)
            .all(|w| (w[0].completed, w[0].id) < (w[1].completed, w[1].id)));
        assert_eq!(all[0].completed, first);
        let third = all.iter().find(|f| f.id == 2).expect("batch 2 finishes");
        assert_eq!(third.completed, first + price);
        assert_eq!(exec.in_flight(), 0);
    }

    /// A collective-free 2-layer plan whose layers differ in attention
    /// and gate: layer 0's phase-one budget overlaps its compute and
    /// combine plus the *next* layer's attention and gate, identically
    /// in both modes. Without collectives there is no event rounding,
    /// so equality is exact.
    #[test]
    fn phase_one_window_spans_the_next_layers_attention_and_gate() {
        let us = SimDuration::from_micros;
        let layer = |attention, gate, phase_one| LayerPlan {
            attention: us(attention),
            gate: us(gate),
            sched_block: SimDuration::ZERO,
            dispatch: None,
            compute: vec![us(20), us(12)],
            combine_a2a: None,
            combine: us(3),
            phase_one,
            estimated: false,
            accurate: false,
            finetuned: false,
        };
        let plan = ExecutionPlan {
            tokens: 8,
            layers: vec![layer(10, 5, Some(us(100))), layer(40, 30, None)],
            local_hops: 0,
            routed_hops: 0,
        };
        // Layer 0 is gate 5 + compute 20 + combine 3. Its window is
        // 20 + 3 + layer 1's attention 40 + gate 30 = 93, so 7 of the
        // 100 µs phase one block layer 1: gate 30 + 7 + 20 + 3.
        let want_layers = vec![us(28), us(60)];
        let want_total = us(10 + 28 + 40 + 60);
        let topo = Topology::new(ClusterSpec::with_total_gpus(8));
        let solo = execute_plan_solo(&plan, &mut SoloTimer::new(&topo));
        assert_eq!(solo.layer_times, want_layers, "solo");
        assert_eq!(solo.total, want_total, "solo");
        let mut exec = ReplicaExecutor::new_shared(NetworkMode::Contended, Arc::new(topo), true);
        let at = SimTime::from_micros(7);
        assert_eq!(exec.submit(0, at, Arc::new(plan)), Some(want_total));
        let done = exec.advance_to(SimTime::MAX);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].report.layer_times, want_layers, "contended");
        assert_eq!(done[0].report.total, want_total, "contended");
        assert_eq!(done[0].completed, at + want_total);
    }

    /// A finished batch's id, completion instant and service.
    type Completion = (u64, SimTime, SimDuration);

    /// Submits every plan 50 us apart, then drains; returns each
    /// submit's price and every completion.
    fn overlap(
        exec: &mut ReplicaExecutor,
        plans: &[Arc<ExecutionPlan>],
    ) -> (Vec<Option<SimDuration>>, Vec<Completion>) {
        let mut at = SimTime::ZERO;
        let prices = plans
            .iter()
            .zip(0..)
            .map(|(plan, id)| {
                let price = exec.submit(id, at, plan.clone());
                at += SimDuration::from_micros(50);
                price
            })
            .collect();
        let done = exec
            .advance_to(SimTime::MAX)
            .into_iter()
            .map(|f| (f.id, f.completed, f.report.total))
            .collect();
        (prices, done)
    }

    /// A contended executor built without a reader for its estimate
    /// holds no timer, so it never walks a plan solo: `submit` prices
    /// nothing, `busy_until` is unknown, and the batches run exactly as
    /// on an estimating executor.
    #[test]
    fn a_contended_executor_without_a_reader_never_prices() {
        let (topo, plans) = plans(InferScheme::Lina);
        let topo = Arc::new(topo);
        let mut blind = ReplicaExecutor::new_shared(NetworkMode::Contended, topo.clone(), false);
        let (prices, done) = overlap(&mut blind, &plans);
        assert!(blind.timer.is_none(), "no timer to touch");
        assert!(prices.iter().all(Option::is_none), "{prices:?}");
        assert_eq!(blind.busy_until(), None);
        let mut estimating = ReplicaExecutor::new_shared(NetworkMode::Contended, topo, true);
        let (priced, with_estimates) = overlap(&mut estimating, &plans);
        assert!(priced.iter().all(Option::is_some));
        assert_eq!(done, with_estimates, "the estimate never steers execution");
    }

    /// An estimating contended executor returns exactly the solo price
    /// of each plan on its current links, and `busy_until` is the
    /// latest estimated completion.
    #[test]
    fn an_estimating_contended_executor_returns_the_solo_price() {
        let (topo, plans) = plans(InferScheme::Baseline);
        let mut timer = SoloTimer::new(&topo);
        let mut exec = ReplicaExecutor::new_shared(NetworkMode::Contended, Arc::new(topo), true);
        let mut latest = SimTime::ZERO;
        for (id, plan) in plans.iter().enumerate() {
            let scale = if id % 2 == 0 { 1.0 } else { 0.5 };
            exec.set_link_scale(scale);
            timer.set_capacity_scale(scale);
            let at = SimTime::from_micros(30 * id as u64);
            let price = exec.submit(id as u64, at, plan.clone());
            let solo = execute_plan_solo(plan, &mut timer).total;
            assert_eq!(price, Some(solo), "batch {id} at link scale {scale}");
            latest = latest.max(at + solo);
            assert_eq!(exec.busy_until(), Some(latest), "batch {id}");
        }
    }
}
