//! Elastic autoscaling policies for the serving cluster.
//!
//! The cluster engine evaluates an [`AutoscalePolicy`] at a fixed
//! control interval inside its unified event loop (a dedicated event
//! priority class, between executor completions and admissions at one
//! instant). The policy sees a [`ClusterObservation`] — pool sizes,
//! backlog, and the arrival count since the previous tick — and
//! returns a [`ScaleDecision`]; the engine actuates it elastically:
//!
//! * **scale-up** commissions fresh replicas that pay the modeled
//!   weight-reload/provisioning cost
//!   ([`crate::provisioning::provision_time`]) before becoming
//!   routable;
//! * **scale-down** drains the least-loaded replica — it receives no
//!   new requests but finishes its queued and in-flight work — and
//!   decommissions it once idle; its cost stops accruing at the retire
//!   instant ([`ClusterOutcome::replica_seconds`]).
//!
//! `max_replicas` is a hardware budget: draining and crashed replicas
//! hold their slot until they retire.
//!
//! Two shipped policies bracket the design space, in the spirit of
//! Lina's online popularity re-estimation (react to what you observe)
//! versus its offline profile (predict from a window of history):
//!
//! * [`AutoscalePolicyKind::Reactive`] — queue-depth thresholds with
//!   hysteresis (distinct up/down thresholds) and a cooldown;
//! * [`AutoscalePolicyKind::Predictive`] — a least-squares trend
//!   forecast of the arrival rate over a sliding observation window
//!   (a [`ReestimationWindow`](crate::engine)-style history), sized to
//!   land capacity *before* the forecast load arrives.
//!
//! Every policy is deterministic: decisions are pure functions of the
//! observation stream and the policy's own state, so an autoscaled run
//! is bit-reproducible like everything else in the crate — and an
//! armed policy that never triggers leaves the event loop bit-identical
//! to the fixed-replica engine.
//!
//! [`ClusterOutcome::replica_seconds`]: crate::ClusterOutcome::replica_seconds

use std::collections::VecDeque;

use lina_simcore::{SimDuration, SimTime};

/// One elastic resizing decision, actuated at the control tick that
/// produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Keep the current pool.
    Hold,
    /// Commission this many new replicas (clamped to the configured
    /// maximum pool size).
    ScaleUp(usize),
    /// Drain this many replicas toward decommission (clamped to the
    /// configured minimum pool size).
    ScaleDown(usize),
}

/// What a policy observes at a control tick.
#[derive(Clone, Debug)]
pub struct ClusterObservation {
    /// The control tick instant.
    pub now: SimTime,
    /// Replicas up, routable, and past their provisioning reload.
    pub ready: usize,
    /// Replicas commissioned but still loading weights.
    pub provisioning: usize,
    /// Replicas draining toward decommission.
    pub draining: usize,
    /// Requests queued (undispatched) across ready and provisioning
    /// replicas.
    pub queued_requests: usize,
    /// Tokens queued plus in-flight across ready and provisioning
    /// replicas.
    pub outstanding_tokens: usize,
    /// First-arrival admissions since the previous control tick.
    pub arrived_since_last: usize,
    /// The control interval (ticks are `interval` apart).
    pub interval: SimDuration,
    /// Tokens in one full batch (`max_batch_requests ·
    /// tokens_per_request`) — the natural unit of per-replica backlog.
    pub batch_tokens: usize,
    /// One replica's probed sustainable throughput (requests/s); zero
    /// when unprobed.
    pub per_replica_capacity: f64,
    /// Wall-clock cost to bring a new replica online (the weight
    /// reload a scale-up pays before the replica is routable).
    pub provision_time: SimDuration,
    /// Smallest pool the configuration allows.
    pub min_replicas: usize,
    /// Largest pool the configuration allows.
    pub max_replicas: usize,
}

impl ClusterObservation {
    /// Ready plus provisioning replicas: the pool a decision should
    /// size against (provisioning capacity is already paid for and
    /// arrives shortly).
    pub fn pool(&self) -> usize {
        self.ready + self.provisioning
    }

    /// Outstanding work per pooled replica, in full-batch units — the
    /// reactive policy's load signal.
    pub fn batches_per_replica(&self) -> f64 {
        self.outstanding_tokens as f64 / self.batch_tokens.max(1) as f64 / self.pool().max(1) as f64
    }

    /// Arrival rate observed over the last control interval
    /// (requests/s).
    pub fn arrival_rate(&self) -> f64 {
        let secs = self.interval.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.arrived_since_last as f64 / secs
        }
    }
}

/// A deterministic elastic-sizing policy, evaluated once per control
/// interval.
pub trait AutoscalePolicy {
    /// Short display name (table/metric label).
    fn name(&self) -> &'static str;

    /// Decides the pool change for this tick. Must be a pure function
    /// of the observation stream and the policy's own state (the
    /// cluster's bit-reproducibility rests on it).
    fn decide(&mut self, obs: &ClusterObservation) -> ScaleDecision;
}

/// Threshold-reactive policy: scale up when the per-replica backlog
/// exceeds `up_threshold` full batches, drain one replica when it
/// falls below `down_threshold`. The gap between the thresholds is
/// the hysteresis band; `cooldown` spaces consecutive actions.
#[derive(Clone, Debug)]
pub struct ReactivePolicy {
    up_threshold: f64,
    down_threshold: f64,
    cooldown: SimDuration,
    last_action: Option<SimTime>,
}

impl ReactivePolicy {
    /// Creates the policy; thresholds are in full batches of
    /// outstanding work per pooled replica.
    pub fn new(up_threshold: f64, down_threshold: f64, cooldown: SimDuration) -> Self {
        assert!(
            up_threshold > down_threshold,
            "reactive: up_threshold must exceed down_threshold (hysteresis)"
        );
        assert!(up_threshold > 0.0, "reactive: up_threshold must be > 0");
        ReactivePolicy {
            up_threshold,
            down_threshold,
            cooldown,
            last_action: None,
        }
    }

    fn cooling(&self, now: SimTime) -> bool {
        self.last_action.is_some_and(|at| now < at + self.cooldown)
    }
}

impl AutoscalePolicy for ReactivePolicy {
    fn name(&self) -> &'static str {
        "reactive"
    }

    fn decide(&mut self, obs: &ClusterObservation) -> ScaleDecision {
        if self.cooling(obs.now) {
            return ScaleDecision::Hold;
        }
        let load = obs.batches_per_replica();
        let pool = obs.pool();
        if load > self.up_threshold && pool < obs.max_replicas {
            // Enough replicas to bring the backlog back under the
            // threshold, capped at the configured maximum.
            let want = (obs.outstanding_tokens as f64
                / (self.up_threshold * obs.batch_tokens.max(1) as f64))
                .ceil() as usize;
            let target = want.clamp(pool + 1, obs.max_replicas);
            self.last_action = Some(obs.now);
            return ScaleDecision::ScaleUp(target - pool);
        }
        if load < self.down_threshold && pool > obs.min_replicas {
            self.last_action = Some(obs.now);
            return ScaleDecision::ScaleDown(1);
        }
        ScaleDecision::Hold
    }
}

/// Predictive policy: keeps a sliding window of observed arrival
/// rates (one sample per control tick), fits a least-squares linear
/// trend, and sizes the pool for the rate forecast one provisioning
/// lead-time ahead — so capacity lands *before* the ramp it serves.
#[derive(Clone, Debug)]
pub struct PredictivePolicy {
    target_util: f64,
    window: VecDeque<f64>,
    cap: usize,
    cooldown: SimDuration,
    last_action: Option<SimTime>,
}

impl PredictivePolicy {
    /// Creates the policy: size the pool so each replica runs at
    /// `target_util` of its probed capacity against the forecast
    /// rate; keep `window` rate samples (≥ 2, one per tick).
    pub fn new(target_util: f64, window: usize, cooldown: SimDuration) -> Self {
        assert!(
            target_util > 0.0 && target_util <= 1.0,
            "predictive: target_util must be in (0, 1]"
        );
        assert!(window >= 2, "predictive: window must hold >= 2 samples");
        PredictivePolicy {
            target_util,
            window: VecDeque::new(),
            cap: window,
            cooldown,
            last_action: None,
        }
    }

    /// Least-squares forecast of the rate `lead_ticks` past the last
    /// sample; clamped at zero (a falling trend never forecasts a
    /// negative rate).
    fn forecast(&self, lead_ticks: f64) -> f64 {
        let n = self.window.len() as f64;
        let mean_x = (n - 1.0) / 2.0;
        let mean_y = self.window.iter().sum::<f64>() / n;
        let (mut cov, mut var) = (0.0, 0.0);
        for (i, y) in self.window.iter().enumerate() {
            let dx = i as f64 - mean_x;
            cov += dx * (y - mean_y);
            var += dx * dx;
        }
        let slope = if var > 0.0 { cov / var } else { 0.0 };
        (mean_y + slope * (n - 1.0 - mean_x + lead_ticks)).max(0.0)
    }
}

impl AutoscalePolicy for PredictivePolicy {
    fn name(&self) -> &'static str {
        "predictive"
    }

    fn decide(&mut self, obs: &ClusterObservation) -> ScaleDecision {
        self.window.push_back(obs.arrival_rate());
        if self.window.len() > self.cap {
            self.window.pop_front();
        }
        if self.window.len() < 2 || obs.per_replica_capacity <= 0.0 || self.cooling(obs.now) {
            return ScaleDecision::Hold;
        }
        // Forecast at the horizon where newly commissioned capacity
        // would come online: one provisioning reload plus one tick.
        let lead = (obs.provision_time + obs.interval).as_secs_f64()
            / obs.interval.as_secs_f64().max(f64::MIN_POSITIVE);
        let rate = self.forecast(lead);
        let per_replica = self.target_util * obs.per_replica_capacity;
        let target =
            ((rate / per_replica).ceil() as usize).clamp(obs.min_replicas, obs.max_replicas);
        let pool = obs.pool();
        if target > pool {
            self.last_action = Some(obs.now);
            ScaleDecision::ScaleUp(target - pool)
        } else if target < pool && pool > obs.min_replicas {
            // Drain conservatively — one replica per tick — so a noisy
            // forecast dip cannot flush capacity it will want back.
            self.last_action = Some(obs.now);
            ScaleDecision::ScaleDown(1)
        } else {
            ScaleDecision::Hold
        }
    }
}

impl PredictivePolicy {
    fn cooling(&self, now: SimTime) -> bool {
        self.last_action.is_some_and(|at| now < at + self.cooldown)
    }
}

/// Replays a fixed decision script, one entry per control tick
/// ([`ScaleDecision::Hold`] once exhausted). The property tests drive
/// the engine through arbitrary generated decision sequences with it.
#[derive(Clone, Debug)]
pub struct ScriptedPolicy {
    script: Vec<ScaleDecision>,
    next: usize,
}

impl ScriptedPolicy {
    /// Creates the policy from a decision list.
    pub fn new(script: Vec<ScaleDecision>) -> Self {
        ScriptedPolicy { script, next: 0 }
    }
}

impl AutoscalePolicy for ScriptedPolicy {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn decide(&mut self, _obs: &ClusterObservation) -> ScaleDecision {
        let d = self
            .script
            .get(self.next)
            .copied()
            .unwrap_or(ScaleDecision::Hold);
        self.next += 1;
        d
    }
}

/// Constructible policy selector for configs, sweeps, and the bench
/// registry (a `Box<dyn AutoscalePolicy>` itself is not `Clone`).
#[derive(Clone, Debug)]
pub enum AutoscalePolicyKind {
    /// [`ReactivePolicy`]: backlog thresholds with hysteresis.
    Reactive {
        /// Scale up above this per-replica backlog (full batches).
        up_threshold: f64,
        /// Drain below this per-replica backlog; may be negative to
        /// never scale down.
        down_threshold: f64,
    },
    /// [`PredictivePolicy`]: windowed trend forecast.
    Predictive {
        /// Fraction of per-replica capacity to size against.
        target_util: f64,
        /// Rate samples kept (one per control tick).
        window: usize,
    },
    /// [`ScriptedPolicy`]: fixed decision replay (tests).
    Scripted {
        /// One decision per control tick.
        script: Vec<ScaleDecision>,
    },
}

impl AutoscalePolicyKind {
    /// Builds a fresh policy of this kind.
    pub fn build(&self, cooldown: SimDuration) -> Box<dyn AutoscalePolicy> {
        match self {
            AutoscalePolicyKind::Reactive {
                up_threshold,
                down_threshold,
            } => Box::new(ReactivePolicy::new(
                *up_threshold,
                *down_threshold,
                cooldown,
            )),
            AutoscalePolicyKind::Predictive {
                target_util,
                window,
            } => Box::new(PredictivePolicy::new(*target_util, *window, cooldown)),
            AutoscalePolicyKind::Scripted { script } => {
                Box::new(ScriptedPolicy::new(script.clone()))
            }
        }
    }

    /// The policy's display name.
    pub fn name(&self) -> &'static str {
        match self {
            AutoscalePolicyKind::Reactive { .. } => "reactive",
            AutoscalePolicyKind::Predictive { .. } => "predictive",
            AutoscalePolicyKind::Scripted { .. } => "scripted",
        }
    }
}

/// Elastic-autoscaling configuration for a cluster run.
#[derive(Clone, Debug)]
pub struct AutoscaleConfig {
    /// The sizing policy.
    pub policy: AutoscalePolicyKind,
    /// Control interval: the policy is evaluated every `interval`
    /// while the run has work outstanding.
    pub interval: SimDuration,
    /// Minimum time between two non-hold decisions of the shipped
    /// policies.
    pub cooldown: SimDuration,
    /// Smallest pool the actuator will drain to.
    pub min_replicas: usize,
    /// Largest pool the actuator will grow to.
    pub max_replicas: usize,
}

impl AutoscaleConfig {
    /// Validates the knobs against the initial pool size.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive interval, a zero minimum, an inverted
    /// min/max range, an initial pool outside it, or invalid policy
    /// parameters.
    pub fn validate(&self, initial_replicas: usize) {
        assert!(
            self.interval > SimDuration::ZERO,
            "autoscale: interval must be > 0"
        );
        assert!(
            self.min_replicas >= 1,
            "autoscale: min_replicas must be >= 1"
        );
        assert!(
            self.max_replicas >= self.min_replicas,
            "autoscale: max_replicas must be >= min_replicas"
        );
        assert!(
            (self.min_replicas..=self.max_replicas).contains(&initial_replicas),
            "autoscale: initial replicas {initial_replicas} outside [{}, {}]",
            self.min_replicas,
            self.max_replicas
        );
        // Surface bad policy parameters at config time, not mid-run.
        let _ = self.policy.build(self.cooldown);
    }

    /// An armed-but-inert configuration: the reactive policy with an
    /// infinite up-threshold and a negative down-threshold can never
    /// trigger, so the control loop runs but the pool stays fixed —
    /// the degeneracy the equivalence tests pin bit-for-bit against
    /// the fixed-replica engine.
    pub fn inert(replicas: usize, interval: SimDuration) -> Self {
        AutoscaleConfig {
            policy: AutoscalePolicyKind::Reactive {
                up_threshold: f64::INFINITY,
                down_threshold: -1.0,
            },
            interval,
            cooldown: SimDuration::ZERO,
            min_replicas: replicas,
            max_replicas: replicas,
        }
    }
}

/// One replica as a control tick sees it.
pub(crate) enum PoolMember {
    /// Up and taking admissions (still provisioning before
    /// `ready_at`), with its undispatched requests and its queued plus
    /// in-flight tokens.
    Serving {
        ready_at: SimTime,
        queued_requests: usize,
        outstanding_tokens: usize,
    },
    /// Draining toward decommission.
    Draining,
    /// Down or retired: outside the pool.
    Out,
}

/// An armed autoscaler inside the cluster event loop: the policy, its
/// tick clock, the arrival count it reads, and the actuation counters.
/// The cluster commissions and drains replicas as the grants say.
pub(crate) struct AutoscaleRuntime {
    config: AutoscaleConfig,
    policy: Box<dyn AutoscalePolicy>,
    /// Next control tick.
    pub(crate) next_at: SimTime,
    /// First-arrival admissions since the previous tick.
    arrived: usize,
    provision_time: SimDuration,
    batch_tokens: usize,
    per_replica_capacity: f64,
    pub(crate) scale_ups: usize,
    pub(crate) scale_downs: usize,
    /// Peak concurrently commissioned (not yet retired) replicas.
    pub(crate) peak_replicas: usize,
}

impl AutoscaleRuntime {
    pub(crate) fn new(
        config: &AutoscaleConfig,
        replicas: usize,
        provision_time: SimDuration,
        batch_tokens: usize,
        per_replica_capacity: f64,
    ) -> Self {
        AutoscaleRuntime {
            policy: config.policy.build(config.cooldown),
            next_at: SimTime::ZERO + config.interval,
            arrived: 0,
            provision_time,
            batch_tokens,
            per_replica_capacity,
            scale_ups: 0,
            scale_downs: 0,
            peak_replicas: replicas,
            config: config.clone(),
        }
    }

    /// Counts one first-arrival admission.
    pub(crate) fn arrival(&mut self) {
        self.arrived += 1;
    }

    /// One control tick over the pool: observe it, ask the policy.
    /// Returns the tick instant and the decision. A draining replica's
    /// leftover work is its own to finish, so only serving replicas'
    /// backlog argues for more capacity.
    pub(crate) fn tick(
        &mut self,
        pool: impl Iterator<Item = PoolMember>,
    ) -> (SimTime, ScaleDecision) {
        let at = self.next_at;
        self.next_at = at + self.config.interval;
        let mut obs = ClusterObservation {
            now: at,
            ready: 0,
            provisioning: 0,
            draining: 0,
            queued_requests: 0,
            outstanding_tokens: 0,
            arrived_since_last: std::mem::take(&mut self.arrived),
            interval: self.config.interval,
            batch_tokens: self.batch_tokens,
            per_replica_capacity: self.per_replica_capacity,
            provision_time: self.provision_time,
            min_replicas: self.config.min_replicas,
            max_replicas: self.config.max_replicas,
        };
        for member in pool {
            match member {
                PoolMember::Serving {
                    ready_at,
                    queued_requests,
                    outstanding_tokens,
                } => {
                    if at < ready_at {
                        obs.provisioning += 1;
                    } else {
                        obs.ready += 1;
                    }
                    obs.queued_requests += queued_requests;
                    obs.outstanding_tokens += outstanding_tokens;
                }
                PoolMember::Draining => obs.draining += 1,
                PoolMember::Out => {}
            }
        }
        (at, self.policy.decide(&obs))
    }

    /// How many of `n` requested replicas to commission with `live`
    /// not yet retired, capped by `max_replicas`.
    pub(crate) fn grant_up(&mut self, n: usize, live: usize) -> usize {
        let k = n.min(self.config.max_replicas.saturating_sub(live));
        self.scale_ups += k;
        self.peak_replicas = self.peak_replicas.max(live + k);
        k
    }

    /// How many of `n` requested replicas to drain with `serving` up
    /// and taking work, stopping at `min_replicas`.
    pub(crate) fn grant_down(&mut self, n: usize, serving: usize) -> usize {
        let k = n.min(serving.saturating_sub(self.config.min_replicas));
        self.scale_downs += k;
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(now_ms: u64, outstanding: usize, pool: usize, arrived: usize) -> ClusterObservation {
        ClusterObservation {
            now: SimTime::from_millis(now_ms),
            ready: pool,
            provisioning: 0,
            draining: 0,
            queued_requests: outstanding / 64,
            outstanding_tokens: outstanding,
            arrived_since_last: arrived,
            interval: SimDuration::from_millis(100),
            batch_tokens: 256,
            per_replica_capacity: 100.0,
            provision_time: SimDuration::from_millis(50),
            min_replicas: 1,
            max_replicas: 8,
        }
    }

    use lina_simcore::SimTime;

    #[test]
    fn reactive_scales_up_proportionally_and_respects_the_cap() {
        let mut p = ReactivePolicy::new(1.5, 0.25, SimDuration::ZERO);
        // 2 replicas, 10 batches outstanding: 5 per replica > 1.5 →
        // grow to ceil(10 / 1.5) = 7 replicas.
        assert_eq!(p.decide(&obs(0, 10 * 256, 2, 0)), ScaleDecision::ScaleUp(5));
        // An absurd backlog clamps at max_replicas.
        assert_eq!(
            p.decide(&obs(100, 1000 * 256, 2, 0)),
            ScaleDecision::ScaleUp(6)
        );
    }

    #[test]
    fn reactive_hysteresis_and_cooldown_prevent_thrash() {
        let mut p = ReactivePolicy::new(1.5, 0.25, SimDuration::from_millis(500));
        assert_eq!(p.decide(&obs(0, 8 * 256, 2, 0)), ScaleDecision::ScaleUp(4));
        // Inside the cooldown even an empty cluster holds.
        assert_eq!(p.decide(&obs(100, 0, 6, 0)), ScaleDecision::Hold);
        // Past it, an idle pool drains one replica per tick.
        assert_eq!(p.decide(&obs(600, 0, 6, 0)), ScaleDecision::ScaleDown(1));
        // In the hysteresis band (0.25 < load < 1.5) nothing happens.
        let mut q = ReactivePolicy::new(1.5, 0.25, SimDuration::ZERO);
        assert_eq!(q.decide(&obs(0, 256, 2, 0)), ScaleDecision::Hold);
    }

    #[test]
    fn reactive_never_leaves_the_configured_range() {
        let mut p = ReactivePolicy::new(1.5, 0.25, SimDuration::ZERO);
        // Already at max: hold even under load.
        assert_eq!(p.decide(&obs(0, 100 * 256, 8, 0)), ScaleDecision::Hold);
        // Already at min: hold even when idle.
        assert_eq!(p.decide(&obs(100, 0, 1, 0)), ScaleDecision::Hold);
    }

    #[test]
    fn predictive_rides_a_rising_ramp_before_it_lands() {
        let mut p = PredictivePolicy::new(0.8, 8, SimDuration::ZERO);
        // Arrival rate climbing 100 → 500 requests/s across ticks
        // (interval 100 ms → samples are arrivals/0.1 s).
        let mut decision = ScaleDecision::Hold;
        for (tick, arrived) in [10, 20, 30, 40, 50].iter().enumerate() {
            decision = p.decide(&obs(tick as u64 * 100, 0, 2, *arrived));
        }
        // Last observed rate 500/s, trend +100/s per tick, ~1.5 ticks
        // of lead → forecast ≥ 600/s; at 0.8·100/s per replica the
        // target outgrows the 2-replica pool by far.
        match decision {
            ScaleDecision::ScaleUp(n) => assert!(n >= 4, "forecast must lead the ramp, got {n}"),
            other => panic!("expected a scale-up, got {other:?}"),
        }
    }

    #[test]
    fn predictive_drains_one_at_a_time_when_the_rate_falls() {
        let mut p = PredictivePolicy::new(0.8, 4, SimDuration::ZERO);
        let mut last = ScaleDecision::Hold;
        for (tick, arrived) in [50, 30, 10, 5, 2].iter().enumerate() {
            last = p.decide(&obs(tick as u64 * 100, 0, 6, *arrived));
        }
        assert_eq!(last, ScaleDecision::ScaleDown(1));
    }

    #[test]
    fn predictive_holds_without_capacity_or_history() {
        let mut p = PredictivePolicy::new(0.8, 4, SimDuration::ZERO);
        // First tick: only one sample.
        assert_eq!(p.decide(&obs(0, 0, 2, 100)), ScaleDecision::Hold);
        // No probed capacity: cannot size, must hold.
        let mut blind = obs(100, 0, 2, 500);
        blind.per_replica_capacity = 0.0;
        assert_eq!(p.decide(&blind), ScaleDecision::Hold);
    }

    #[test]
    fn scripted_replays_then_holds() {
        let mut p = ScriptedPolicy::new(vec![
            ScaleDecision::ScaleUp(2),
            ScaleDecision::Hold,
            ScaleDecision::ScaleDown(1),
        ]);
        assert_eq!(p.decide(&obs(0, 0, 1, 0)), ScaleDecision::ScaleUp(2));
        assert_eq!(p.decide(&obs(1, 0, 3, 0)), ScaleDecision::Hold);
        assert_eq!(p.decide(&obs(2, 0, 3, 0)), ScaleDecision::ScaleDown(1));
        assert_eq!(p.decide(&obs(3, 0, 2, 0)), ScaleDecision::Hold);
    }

    #[test]
    fn inert_config_never_triggers() {
        let cfg = AutoscaleConfig::inert(3, SimDuration::from_millis(10));
        cfg.validate(3);
        let mut p = cfg.policy.build(cfg.cooldown);
        for t in 0..50 {
            // Idle, swamped, anything: always hold.
            assert_eq!(p.decide(&obs(t, 0, 3, 0)), ScaleDecision::Hold);
            assert_eq!(
                p.decide(&obs(t, 10_000 * 256, 3, 10_000)),
                ScaleDecision::Hold
            );
        }
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_thresholds_rejected() {
        ReactivePolicy::new(0.25, 1.5, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn initial_pool_outside_range_rejected() {
        let cfg = AutoscaleConfig {
            policy: AutoscalePolicyKind::Reactive {
                up_threshold: 1.0,
                down_threshold: 0.1,
            },
            interval: SimDuration::from_millis(10),
            cooldown: SimDuration::ZERO,
            min_replicas: 2,
            max_replicas: 4,
        };
        cfg.validate(1);
    }
}
