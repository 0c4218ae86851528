//! Gray-failure detection: continuous per-replica *suspicion* scores
//! replacing the oracle health bit, plus the hedged-dispatch knobs.
//!
//! A gray-degraded replica ([`FaultKind::GrayDegrade`]) keeps its
//! health bit up — the control plane is never told — so bit-consuming
//! balancers would keep routing into it at full weight. The
//! [`HealthMonitor`] closes the loop from the *data plane* instead:
//! every completed batch feeds the ratio of the serving replica's
//! observed completion latency over the batch's *expected* latency
//! (the pristine plan priced at nominal replica speed) into a
//! phi-accrual-style estimator, and routing consumes the resulting
//! suspicion score in place of the raw bool. Normalizing by the
//! per-batch expectation — rather than by token count — keeps batch
//! size and composition out of the signal: a healthy replica sits at
//! ratio 1.0 whether it served two requests or twenty, so whatever
//! stretch a gray fault adds stands directly against the baseline.
//! Each batch is priced once: when the serving replica runs the
//! pristine plan on clean links (no compute stretch, link scale exactly
//! 1.0), the expectation is the solo price its executor just computed
//! — a reused [`SoloTimer`] is history-independent, so that is the same
//! bits as a fresh price. Only batches a degraded replica runs (and
//! hedges onto one) are priced again, pristine, on the monitor's timer.
//!
//! * Suspicion is continuous: `0.0` is a replica indistinguishable from
//!   the cluster baseline; `>= 1.0` excludes it from routing (the
//!   balancer's routable gate), and values in between
//!   penalize the replica under the latency-aware balancer without
//!   excluding it.
//! * An excluded replica receives no traffic and therefore no fresh
//!   samples, which would deadlock it out of the pool forever.
//!   Suspicion decays deterministically with the time since the
//!   replica's last sample ([`HealthConfig::half_life`]), so an
//!   excluded replica periodically drops back under the threshold and
//!   earns a probe request that refreshes its estimate.
//! * A suspected replica re-enters through *probation*: until four
//!   consecutive clean samples accrue, its suspicion is floored at 0.5
//!   — routable, but penalized — so a flapping link cannot oscillate
//!   the pool at full amplitude.
//! * [`DetectorKind::Oracle`] is the degeneracy mode: `observe` is a
//!   no-op and suspicion is identically zero, reproducing the
//!   historical oracle-health-bit behaviour bit for bit.
//!
//! The monitor is deterministic: suspicion is a pure function of the
//! observation sequence and the query instant, so the cluster loop's
//! bit-reproducibility survives the detector being armed.
//!
//! Hedged dispatch ([`HedgeConfig`]) covers the residual tail: when an
//! in-flight batch outlives a quantile-derived delay, the cluster
//! re-submits it on the least-suspected alternate replica, the first
//! completion wins, and the loser is cancelled. A hedge whose primary's
//! replica crashes carries the batch alone. Every request still reaches
//! exactly one terminal outcome, and the wasted-compute fraction is
//! reported on [`ClusterOutcome`](crate::ClusterOutcome).
//!
//! [`FaultKind::GrayDegrade`]: crate::FaultKind::GrayDegrade

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use lina_netsim::{SoloTimer, Topology};
use lina_runner::{execute_plan_solo, ExecutionPlan};
use lina_simcore::{SimDuration, SimTime};

/// Which gray-failure detector the cluster runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorKind {
    /// The historical control-plane oracle: suspicion is identically
    /// zero, so routing sees exactly the raw health bit (crashes still
    /// exclude a replica — the oracle knows about those).
    Oracle,
    /// Phi-accrual-style detection over observed batch completion
    /// latencies versus each batch's expected latency: suspicion grows
    /// with how many baseline standard deviations the replica's
    /// smoothed actual-over-expected ratio sits above the cluster
    /// mean.
    PhiAccrual,
}

/// Gray-failure detector configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthConfig {
    /// The detector to run.
    pub detector: DetectorKind,
    /// Half-life of the deterministic time-decay applied to suspicion
    /// since the replica's last sample — the probe-window escape hatch
    /// that keeps an excluded replica from starving forever.
    pub half_life: SimDuration,
}

impl HealthConfig {
    /// The oracle degeneracy mode: suspicion identically zero, routing
    /// bit-identical to the historical health-bit behaviour.
    pub fn oracle() -> Self {
        HealthConfig {
            detector: DetectorKind::Oracle,
            half_life: SimDuration::from_millis(20),
        }
    }

    /// The phi-accrual detector with default thresholds.
    pub fn phi_accrual() -> Self {
        HealthConfig {
            detector: DetectorKind::PhiAccrual,
            ..HealthConfig::oracle()
        }
    }

    /// Validates the knobs.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive half-life.
    pub fn validate(&self) {
        assert!(
            self.half_life > SimDuration::ZERO,
            "health: half-life must be positive"
        );
    }
}

/// Phi — baseline standard deviations above the cluster mean — at which
/// suspicion reaches 1.0 and the replica stops being routable.
const SUSPECT_THRESHOLD: f64 = 4.0;
/// Cluster-wide completed-batch samples before the detector arms; until
/// the baseline holds this many, suspicion is zero everywhere.
const WARMUP_SAMPLES: u64 = 16;
/// EWMA smoothing factor for the per-replica service estimate (higher
/// reacts faster, flaps harder).
const EWMA_ALPHA: f64 = 0.2;
/// Consecutive clean samples a suspected replica must serve before its
/// probation floor lifts.
const PROBATION: usize = 4;

/// Hedged-dispatch configuration: when an in-flight batch outlives a
/// quantile-derived delay, the cluster re-dispatches it speculatively
/// to the least-suspected alternate replica and the first completion
/// wins (the loser is cancelled). `None` in
/// [`ClusterConfig::hedging`](crate::ClusterConfig::hedging) never
/// hedges — the historical behaviour, bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct HedgeConfig {
    /// Quantile of observed batch service times the hedge delay is
    /// derived from (e.g. 0.95).
    pub quantile: f64,
    /// The hedge fires after `multiplier ×` the quantile service time.
    pub multiplier: f64,
    /// Completed batches observed before hedging arms; until then no
    /// batch is ever hedged (there is no delay estimate to trust).
    pub min_samples: usize,
}

impl HedgeConfig {
    /// Hedge at 2× the observed p95 service time, after 16 samples.
    pub fn p95x2() -> Self {
        HedgeConfig {
            quantile: 0.95,
            multiplier: 2.0,
            min_samples: 16,
        }
    }

    /// Validates the knobs.
    ///
    /// # Panics
    ///
    /// Panics on a quantile outside `(0, 1)`, a multiplier below 1, or
    /// a zero sample floor.
    pub fn validate(&self) {
        assert!(
            self.quantile > 0.0 && self.quantile < 1.0,
            "hedge: quantile {} outside (0, 1)",
            self.quantile
        );
        assert!(
            self.multiplier >= 1.0 && self.multiplier.is_finite(),
            "hedge: multiplier {} must be >= 1",
            self.multiplier
        );
        assert!(self.min_samples > 0, "hedge: min_samples must be > 0");
    }
}

/// Batch-id namespace for speculative hedge dispatches. Primary ids
/// are dense counters from zero; hedge ids live in the top half of the
/// `u64` space, so both streams share one executor without collision.
const HEDGE_BASE: u64 = 1 << 63;

/// Whether batch `id` is a speculative hedge rather than a primary.
pub(crate) fn is_hedge(id: u64) -> bool {
    id >= HEDGE_BASE
}

/// A speculative duplicate of one primary batch, in flight on an
/// alternate replica.
struct HedgeFlight {
    id: u64,
    replica: usize,
    dispatched: SimTime,
}

/// Per-primary hedge bookkeeping, from dispatch commit until both the
/// primary and any hedge reach a terminal state.
struct HedgeState {
    primary_replica: usize,
    /// Instant the primary was dispatched (its waste when it loses).
    primary_dispatched: SimTime,
    /// When the timer fires if the primary is still running.
    deadline: SimTime,
    /// The primary's pristine plan; a hedge re-runs it elsewhere.
    plan: Arc<ExecutionPlan>,
    /// The primary's replica crashed with the hedge still live; the
    /// hedge is then the batch's only path to completion.
    primary_gone: bool,
    /// The live hedge, once the timer fired.
    hedge: Option<HedgeFlight>,
}

/// Armed hedged dispatch inside the cluster event loop: the delay
/// estimate, per-primary timers and races, and waste accounting. The
/// cluster owns the executors; every method here only decides and
/// tells it which flight to start or cancel.
pub(crate) struct HedgeRuntime {
    config: HedgeConfig,
    /// Observed primary service times, sorted.
    samples: Vec<SimDuration>,
    /// Armed timers as `(deadline, primary batch id)`.
    timers: BTreeSet<(SimTime, u64)>,
    live: BTreeMap<u64, HedgeState>,
    /// Hedge batch id to its primary's id.
    by_hedge: BTreeMap<u64, u64>,
    next_hedge_seq: u64,
    issued: usize,
    won: usize,
    /// Executor time of the losing flights: the duplicated work.
    wasted: SimDuration,
    /// Executor time of the winning flights.
    useful: SimDuration,
}

impl HedgeRuntime {
    pub(crate) fn new(config: HedgeConfig) -> Self {
        HedgeRuntime {
            config,
            samples: Vec::new(),
            timers: BTreeSet::new(),
            live: BTreeMap::new(),
            by_hedge: BTreeMap::new(),
            next_hedge_seq: 0,
            issued: 0,
            won: 0,
            wasted: SimDuration::ZERO,
            useful: SimDuration::ZERO,
        }
    }

    /// The configured quantile of observed service times, scaled by
    /// the multiplier, once enough samples exist.
    fn delay(&self) -> Option<SimDuration> {
        if self.samples.len() < self.config.min_samples {
            return None;
        }
        let idx = (((self.samples.len() - 1) as f64) * self.config.quantile).round() as usize;
        Some(self.samples[idx].mul_f64(self.config.multiplier))
    }

    /// Primary batch `primary` was just dispatched on `replica` at
    /// `at`: arm its timer once a delay can be estimated.
    pub(crate) fn arm(
        &mut self,
        primary: u64,
        replica: usize,
        at: SimTime,
        plan: &Arc<ExecutionPlan>,
    ) {
        let Some(delay) = self.delay() else { return };
        let deadline = at + delay;
        self.timers.insert((deadline, primary));
        self.live.insert(
            primary,
            HedgeState {
                primary_replica: replica,
                primary_dispatched: at,
                deadline,
                plan: plan.clone(),
                primary_gone: false,
                hedge: None,
            },
        );
    }

    /// The earliest armed timer as `(deadline, primary batch id)`.
    pub(crate) fn next_timer(&self) -> Option<(SimTime, u64)> {
        self.timers.first().copied()
    }

    /// The timer of `primary` fired at `t` with the primary still
    /// running. `pick` chooses an alternate replica given the primary's
    /// host; when it finds one, the hedge is issued and this returns
    /// its batch id, its replica, and the pristine plan to run there.
    pub(crate) fn fire(
        &mut self,
        t: SimTime,
        primary: u64,
        pick: impl FnOnce(usize) -> Option<usize>,
    ) -> Option<(u64, usize, Arc<ExecutionPlan>)> {
        self.timers.remove(&(t, primary));
        let st = self
            .live
            .get_mut(&primary)
            .expect("hedge timer had live state");
        let replica = pick(st.primary_replica)?;
        let id = HEDGE_BASE + self.next_hedge_seq;
        self.next_hedge_seq += 1;
        self.issued += 1;
        self.by_hedge.insert(id, primary);
        st.hedge = Some(HedgeFlight {
            id,
            replica,
            dispatched: t,
        });
        Some((id, replica, st.plan.clone()))
    }

    /// Primary `primary` completed at `t` after `service`: a delay
    /// sample, and the end of its race. Returns the losing hedge to
    /// cancel as `(hedge id, replica)`, if one was running.
    pub(crate) fn primary_done(
        &mut self,
        primary: u64,
        service: SimDuration,
        t: SimTime,
    ) -> Option<(u64, usize)> {
        let at = self.samples.partition_point(|&s| s <= service);
        self.samples.insert(at, service);
        self.useful += service;
        let st = self.live.remove(&primary)?;
        self.timers.remove(&(st.deadline, primary));
        let hedge = st.hedge?;
        self.by_hedge.remove(&hedge.id);
        self.wasted += t.saturating_since(hedge.dispatched);
        Some((hedge.id, hedge.replica))
    }

    /// Hedge `hedge` completed at `t` after `service` and won its race.
    /// Returns the primary batch it served and, when that primary is
    /// still running, the replica to cancel it on.
    pub(crate) fn hedge_done(
        &mut self,
        hedge: u64,
        service: SimDuration,
        t: SimTime,
    ) -> (u64, Option<usize>) {
        let primary = self
            .by_hedge
            .remove(&hedge)
            .expect("finished hedge was registered");
        let st = self
            .live
            .remove(&primary)
            .expect("finished hedge had live state");
        self.won += 1;
        self.useful += service;
        if st.primary_gone {
            return (primary, None);
        }
        self.wasted += t.saturating_since(st.primary_dispatched);
        (primary, Some(st.primary_replica))
    }

    /// Flight `id`, primary or hedge, died in a crash at `at`. Returns
    /// the primary batch whose members are now displaced, or `None`
    /// while the other flight still carries them.
    pub(crate) fn aborted(&mut self, id: u64, at: SimTime) -> Option<u64> {
        if is_hedge(id) {
            let primary = self.by_hedge.remove(&id).expect("hedge id was registered");
            let st = self.live.get_mut(&primary).expect("hedge had live state");
            let hedge = st.hedge.take().expect("hedge flight was recorded");
            self.wasted += at.saturating_since(hedge.dispatched);
            if !st.primary_gone {
                return None;
            }
            self.live.remove(&primary);
            return Some(primary);
        }
        if let Some(st) = self.live.get_mut(&id) {
            if st.hedge.is_some() {
                st.primary_gone = true;
                return None;
            }
            self.timers.remove(&(st.deadline, id));
            self.live.remove(&id);
        }
        Some(id)
    }

    /// `(issued, won, wasted fraction of all batch compute)`.
    ///
    /// # Panics
    ///
    /// Panics if a race is still open: every one must resolve by the
    /// end of the run.
    pub(crate) fn summary(&self) -> (usize, usize, f64) {
        assert!(
            self.live.is_empty() && self.timers.is_empty() && self.by_hedge.is_empty(),
            "every hedge race must resolve by the end of the run"
        );
        let useful = self.useful.as_secs_f64();
        let wasted = self.wasted.as_secs_f64();
        let frac = if useful + wasted > 0.0 {
            wasted / (useful + wasted)
        } else {
            0.0
        };
        (self.issued, self.won, frac)
    }
}

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Clone, Debug, Default)]
struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    fn push(&mut self, x: f64) {
        self.count += 1;
        let d = x - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (x - self.mean);
    }

    /// The sample standard deviation, floored at 5% of the mean (see
    /// [`HealthMonitor::phi`]).
    fn floored_std(&self) -> f64 {
        let std = if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        };
        std.max(0.05 * self.mean).max(f64::MIN_POSITIVE)
    }
}

/// One replica's detector state.
#[derive(Clone, Debug, Default)]
struct ReplicaHealth {
    /// Smoothed actual-over-expected service ratio; `None` before the
    /// first sample.
    ewma: Option<f64>,
    /// Instant of the most recent sample (drives the time decay).
    last_sample: Option<SimTime>,
    /// Suspicion crossed 1.0 and the probation streak has not yet
    /// cleared it.
    suspected: bool,
    /// Consecutive clean samples while suspected.
    good_streak: usize,
}

/// The per-replica gray-failure detector: feed it every completed
/// batch's service observation, query a suspicion score at routing
/// instants. See the [module docs](self) for the model.
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    config: HealthConfig,
    /// Cluster-wide actual-over-expected ratio baseline. Samples whose
    /// own z-score already exceeds the suspect threshold are kept out
    /// (a gray replica's service ratios would poison the very mean and
    /// variance the detection compares against).
    baseline: Welford,
    replicas: Vec<ReplicaHealth>,
    /// Prices dispatched plans at nominal speed (no degradation, clean
    /// links, solo collectives) for the expectation each completion is
    /// judged against, so batch size and composition drop out of the
    /// signal: a healthy solo replica observes exactly ratio 1.0.
    /// `None` under the oracle detector, which never prices one. Each
    /// batch is priced once: a replica running the pristine plan on
    /// clean links hands over the price its executor just computed, and
    /// this timer prices only the batches a degraded replica runs.
    pricer: Option<SoloTimer>,
    /// Expected nominal totals of in-flight batches (primaries and
    /// hedges alike), consumed at completion.
    expected: BTreeMap<u64, SimDuration>,
}

impl HealthMonitor {
    /// A monitor over `n` replicas with no observations yet.
    pub fn new(config: HealthConfig, n: usize) -> Self {
        HealthMonitor {
            config,
            baseline: Welford::default(),
            replicas: vec![ReplicaHealth::default(); n],
            pricer: None,
            expected: BTreeMap::new(),
        }
    }

    /// The cluster loop's monitor: as [`HealthMonitor::new`], pricing
    /// batch expectations on `topo` unless the detector is the oracle.
    pub(crate) fn for_cluster(config: HealthConfig, n: usize, topo: Arc<Topology>) -> Self {
        let pricer = (config.detector != DetectorKind::Oracle).then(|| SoloTimer::new_shared(topo));
        HealthMonitor {
            pricer,
            ..HealthMonitor::new(config, n)
        }
    }

    /// Records the expectation batch `id`'s completion will be judged
    /// against: its pristine `plan` priced solo at nominal speed (a
    /// no-op without a pricer). `nominal` is that price when the caller
    /// already has it — the executor priced the same plan on clean
    /// links, and a reused [`SoloTimer`] is history-independent, so it
    /// is the same bits; only `None` prices the plan here.
    pub(crate) fn expect(&mut self, id: u64, plan: &ExecutionPlan, nominal: Option<SimDuration>) {
        if let Some(timer) = &mut self.pricer {
            let total = match nominal {
                Some(total) => {
                    debug_assert_eq!(
                        total,
                        execute_plan_solo(plan, timer).total,
                        "a reused price must equal the pristine plan's"
                    );
                    total
                }
                None => execute_plan_solo(plan, timer).total,
            };
            self.expected.insert(id, total);
        }
    }

    /// The expectation recorded for batch `id`, if any.
    #[cfg(test)]
    pub(crate) fn expectation(&self, id: u64) -> Option<SimDuration> {
        self.expected.get(&id).copied()
    }

    /// Batch `id` completed on `replica` after `service`: one
    /// observation against its expectation, if one was priced.
    pub(crate) fn completed(
        &mut self,
        replica: usize,
        id: u64,
        service: SimDuration,
        now: SimTime,
    ) {
        if let Some(expected) = self.expected.remove(&id) {
            self.observe(replica, expected, service, now);
        }
    }

    /// Batch `id` will never complete (aborted or cancelled).
    pub(crate) fn forget(&mut self, id: u64) {
        self.expected.remove(&id);
    }

    /// Grows the tracked pool to `n` replicas (elastic scale-up); the
    /// new replicas start with blank state.
    pub fn ensure(&mut self, n: usize) {
        if self.replicas.len() < n {
            self.replicas.resize(n, ReplicaHealth::default());
        }
    }

    /// Raw phi (baseline standard deviations above the mean) of a
    /// replica's current estimate; zero while unarmed or unwarmed. The
    /// standard deviation is floored at 5% of the mean: under solo
    /// pricing a healthy replica's actual-over-expected ratio is
    /// *exactly* 1.0 every sample, so the raw baseline variance
    /// degenerates to zero and an unfloored phi would explode on the
    /// first speck of noise.
    fn phi(&self, replica: usize) -> f64 {
        if self.config.detector == DetectorKind::Oracle || self.baseline.count < WARMUP_SAMPLES {
            return 0.0;
        }
        let Some(ewma) = self.replicas[replica].ewma else {
            return 0.0;
        };
        ((ewma - self.baseline.mean) / self.baseline.floored_std()).max(0.0)
    }

    /// Feeds one completed batch's observation: `service` actually
    /// spent on `replica` against the batch's `expected` nominal
    /// latency, completing at `now`. A no-op under the oracle
    /// detector.
    pub fn observe(
        &mut self,
        replica: usize,
        expected: SimDuration,
        service: SimDuration,
        now: SimTime,
    ) {
        if self.config.detector == DetectorKind::Oracle {
            return;
        }
        let x = service.as_secs_f64() / expected.as_secs_f64().max(f64::MIN_POSITIVE);
        let rh = &mut self.replicas[replica];
        rh.ewma = Some(match rh.ewma {
            Some(prev) => EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * prev,
            None => x,
        });
        rh.last_sample = Some(now);
        // Anomalous samples stay out of the baseline: admitting a gray
        // replica's service ratios would drag the mean up and inflate
        // the variance in lockstep with the replica's own EWMA, and
        // phi would chase the threshold without ever crossing it. The
        // gate is per-sample (the sample's own z-score against the
        // current baseline), not the replica's suspected flag — the
        // flag lags by design.
        let armed = self.baseline.count >= WARMUP_SAMPLES;
        let clean =
            !armed || (x - self.baseline.mean) / self.baseline.floored_std() < SUSPECT_THRESHOLD;
        if clean {
            self.baseline.push(x);
        }
        let phi = self.phi(replica);
        let norm = phi / SUSPECT_THRESHOLD;
        let rh = &mut self.replicas[replica];
        if norm >= 1.0 {
            rh.suspected = true;
            rh.good_streak = 0;
        } else if rh.suspected {
            if norm < 0.5 {
                rh.good_streak += 1;
                if rh.good_streak >= PROBATION {
                    rh.suspected = false;
                    rh.good_streak = 0;
                }
            } else {
                rh.good_streak = 0;
            }
        }
    }

    /// The replica's suspicion at `now`: `0.0` is baseline-healthy,
    /// `>= 1.0` should be excluded from routing. Deterministic in the
    /// observation history and `now`.
    pub fn suspicion(&self, replica: usize, now: SimTime) -> f64 {
        if self.config.detector == DetectorKind::Oracle {
            return 0.0;
        }
        let rh = &self.replicas[replica];
        let mut score = self.phi(replica) / SUSPECT_THRESHOLD;
        // Decay since the last sample: an excluded replica earns a
        // probe once its score halves under the threshold.
        if let Some(last) = rh.last_sample {
            let elapsed = now.saturating_since(last).as_secs_f64();
            score *=
                (-elapsed / self.config.half_life.as_secs_f64() * std::f64::consts::LN_2).exp();
        }
        // Probation: a suspected replica stays penalized (but
        // routable) until its clean streak clears it.
        if rh.suspected {
            score = score.max(0.5);
        }
        score
    }

    /// True while the replica is in the suspected/probation regime.
    pub fn suspected(&self, replica: usize) -> bool {
        self.replicas[replica].suspected
    }

    /// Forgets a replica's history (crash or recovery: the hardware
    /// behind the estimate is gone).
    pub fn reset(&mut self, replica: usize) {
        self.replicas[replica] = ReplicaHealth::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    /// Nominal expected service of the synthetic test batches.
    const EXPECTED: SimDuration = SimDuration::from_micros(640);

    /// Feeds `monitor` one healthy (ratio 1.0) round-robin sample per
    /// replica.
    fn feed_healthy(monitor: &mut HealthMonitor, replicas: usize, round: u64) {
        for r in 0..replicas {
            monitor.observe(r, EXPECTED, EXPECTED, ms(round * 2));
        }
    }

    #[test]
    fn oracle_suspicion_is_identically_zero() {
        let mut m = HealthMonitor::new(HealthConfig::oracle(), 2);
        for round in 0..32 {
            feed_healthy(&mut m, 2, round);
            // Even a grossly slow sample moves nothing.
            m.observe(1, EXPECTED, SimDuration::from_millis(64), ms(round * 2 + 1));
        }
        assert_eq!(m.suspicion(0, ms(100)), 0.0);
        assert_eq!(m.suspicion(1, ms(100)), 0.0);
        assert!(!m.suspected(1));
    }

    #[test]
    fn warmup_gates_detection() {
        let mut m = HealthMonitor::new(HealthConfig::phi_accrual(), 2);
        // A handful of wildly slow samples before the baseline holds
        // `WARMUP_SAMPLES` must not suspect anything.
        for i in 0..4 {
            m.observe(1, EXPECTED, SimDuration::from_millis(64), ms(i));
        }
        assert_eq!(m.suspicion(1, ms(4)), 0.0);
    }

    #[test]
    fn slow_replica_crosses_the_threshold_and_peers_stay_clear() {
        let mut m = HealthMonitor::new(HealthConfig::phi_accrual(), 3);
        for round in 0..16 {
            feed_healthy(&mut m, 3, round);
        }
        // Replica 2 turns gray: 4x the baseline per-token service.
        for i in 0..8 {
            m.observe(2, EXPECTED, SimDuration::from_micros(2560), ms(40 + i));
        }
        let now = ms(48);
        assert!(
            m.suspicion(2, now) >= 1.0,
            "gray replica suspicion {} must exclude it",
            m.suspicion(2, now)
        );
        assert!(m.suspected(2));
        assert!(m.suspicion(0, now) < 0.5, "healthy peers stay routable");
        assert!(m.suspicion(1, now) < 0.5);
    }

    #[test]
    fn decay_reopens_a_probe_window() {
        let mut m = HealthMonitor::new(HealthConfig::phi_accrual(), 2);
        for round in 0..16 {
            feed_healthy(&mut m, 2, round);
        }
        for i in 0..8 {
            m.observe(1, EXPECTED, SimDuration::from_micros(2560), ms(40 + i));
        }
        assert!(m.suspicion(1, ms(48)) >= 1.0);
        // Long after its last sample the score has decayed under the
        // exclusion threshold (probation floors it at 0.5, routable).
        let later = ms(48) + SimDuration::from_millis(500);
        let decayed = m.suspicion(1, later);
        assert!(
            (0.5..1.0).contains(&decayed),
            "decayed suspicion {decayed} must re-admit the replica as penalized"
        );
    }

    #[test]
    fn probation_clears_after_a_clean_streak() {
        let mut m = HealthMonitor::new(HealthConfig::phi_accrual(), 2);
        for round in 0..16 {
            feed_healthy(&mut m, 2, round);
        }
        for i in 0..8 {
            m.observe(1, EXPECTED, SimDuration::from_micros(2560), ms(40 + i));
        }
        assert!(m.suspected(1));
        // Clean samples: the EWMA drifts back down; the suspected flag
        // holds (with its 0.5 floor) until the streak clears it.
        let mut cleared_at = None;
        for i in 0..64 {
            m.observe(1, EXPECTED, EXPECTED, ms(100 + i));
            if !m.suspected(1) {
                cleared_at = Some(i);
                break;
            }
        }
        let cleared_at = cleared_at.expect("a clean streak must clear probation");
        assert!(
            cleared_at + 1 >= PROBATION as u64,
            "probation cleared after only {cleared_at} samples"
        );
        assert!(
            m.suspicion(1, ms(200)) < 0.5,
            "cleared replica is unfloored"
        );
    }

    #[test]
    fn reset_forgets_the_history() {
        let mut m = HealthMonitor::new(HealthConfig::phi_accrual(), 2);
        for round in 0..16 {
            feed_healthy(&mut m, 2, round);
        }
        for i in 0..8 {
            m.observe(1, EXPECTED, SimDuration::from_micros(2560), ms(40 + i));
        }
        assert!(m.suspicion(1, ms(48)) >= 1.0);
        m.reset(1);
        assert_eq!(m.suspicion(1, ms(48)), 0.0, "fresh hardware, fresh slate");
        assert!(!m.suspected(1));
    }

    #[test]
    fn ensure_grows_with_blank_state() {
        let mut m = HealthMonitor::new(HealthConfig::phi_accrual(), 1);
        for i in 0..32 {
            m.observe(0, EXPECTED, EXPECTED, ms(i));
        }
        m.ensure(3);
        assert_eq!(m.suspicion(2, ms(32)), 0.0);
        m.ensure(2); // never shrinks
        assert_eq!(m.suspicion(2, ms(32)), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn out_of_range_hedge_quantile_rejected() {
        let mut c = HedgeConfig::p95x2();
        c.quantile = 1.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "multiplier")]
    fn sub_unity_hedge_multiplier_rejected() {
        let mut c = HedgeConfig::p95x2();
        c.multiplier = 0.5;
        c.validate();
    }
}
