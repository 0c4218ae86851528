//! Elastic autoscaling for the serving cluster.
//!
//! The cluster engine evaluates the configured [`AutoscalePolicyKind`]
//! at a fixed control interval inside its unified event loop (a
//! dedicated event priority class, between executor completions and
//! admissions at one instant). The policy observes the serving pool's
//! size and backlog and the arrival count since the previous tick, and
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
//!   (a history like the popularity re-estimation window), sized to
//!   land capacity *before* the forecast load arrives.
//!
//! Every policy is deterministic: decisions are pure functions of the
//! observation stream and the run's policy state (the cooldown anchor,
//! the rate window, the script cursor), so an autoscaled run
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

/// What the policy observes at a control tick; the configured knobs
/// it sizes against live in [`AutoscaleRuntime`].
struct ClusterObservation {
    /// The control tick instant.
    now: SimTime,
    /// Serving replicas, ready or still provisioning: the pool a
    /// decision sizes against (provisioning capacity is already paid
    /// for and arrives shortly).
    pool: usize,
    /// Tokens queued plus in-flight across the pool.
    outstanding_tokens: usize,
    /// First-arrival admissions since the previous control tick.
    arrived: usize,
}

/// The elastic-sizing policy, evaluated once per control interval.
/// Every decision is a pure function of the observation stream and the
/// run's own policy state (the cluster's bit-reproducibility rests on
/// it).
#[derive(Clone, Debug)]
pub enum AutoscalePolicyKind {
    /// Threshold-reactive: scale up when the per-replica backlog
    /// exceeds `up_threshold` full batches, drain one replica when it
    /// falls below `down_threshold`. The gap between the thresholds is
    /// the hysteresis band; the cooldown spaces consecutive actions.
    Reactive {
        /// Scale up above this per-replica backlog (full batches).
        up_threshold: f64,
        /// Drain below this per-replica backlog; may be negative to
        /// never scale down.
        down_threshold: f64,
    },
    /// Predictive: keeps a sliding window of observed arrival rates
    /// (one sample per control tick), fits a least-squares linear
    /// trend, and sizes the pool for the rate forecast one provisioning
    /// lead-time ahead — so capacity lands *before* the ramp it serves.
    Predictive {
        /// Fraction of per-replica capacity to size against.
        target_util: f64,
        /// Rate samples kept (one per control tick, >= 2).
        window: usize,
    },
    /// Replays a fixed decision script, one entry per control tick
    /// ([`ScaleDecision::Hold`] once exhausted) and blind to the
    /// cooldown. The property tests drive the engine through arbitrary
    /// generated decision sequences with it.
    Scripted {
        /// One decision per control tick.
        script: Vec<ScaleDecision>,
    },
}

/// Elastic-autoscaling configuration for a cluster run.
#[derive(Clone, Debug)]
pub struct AutoscaleConfig {
    /// The sizing policy.
    pub policy: AutoscalePolicyKind,
    /// Control interval: the policy is evaluated every `interval`
    /// while the run has work outstanding.
    pub interval: SimDuration,
    /// Minimum time between two non-hold decisions of the reactive and
    /// predictive policies.
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
        match self.policy {
            AutoscalePolicyKind::Reactive {
                up_threshold,
                down_threshold,
            } => {
                assert!(
                    up_threshold > down_threshold,
                    "reactive: up_threshold must exceed down_threshold (hysteresis)"
                );
                assert!(up_threshold > 0.0, "reactive: up_threshold must be > 0");
            }
            AutoscalePolicyKind::Predictive {
                target_util,
                window,
            } => {
                assert!(
                    target_util > 0.0 && target_util <= 1.0,
                    "predictive: target_util must be in (0, 1]"
                );
                assert!(window >= 2, "predictive: window must hold >= 2 samples");
            }
            AutoscalePolicyKind::Scripted { .. } => {}
        }
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

/// An armed autoscaler inside the cluster event loop: the policy and
/// its state, the tick clock, and the arrival count it reads. The
/// cluster commissions and drains replicas as the grants say, and
/// counts them.
pub(crate) struct AutoscaleRuntime {
    config: AutoscaleConfig,
    /// Next control tick.
    pub(crate) next_at: SimTime,
    /// First-arrival admissions since the previous tick.
    arrived: usize,
    provision_time: SimDuration,
    batch_tokens: usize,
    per_replica_capacity: f64,
    /// The last non-hold decision's tick: the cooldown runs from it.
    last_action: Option<SimTime>,
    /// The predictive policy's arrival-rate samples, oldest first.
    rates: VecDeque<f64>,
    /// The scripted policy's next entry.
    cursor: usize,
}

impl AutoscaleRuntime {
    pub(crate) fn new(
        config: &AutoscaleConfig,
        provision_time: SimDuration,
        batch_tokens: usize,
        per_replica_capacity: f64,
    ) -> Self {
        AutoscaleRuntime {
            next_at: SimTime::ZERO + config.interval,
            arrived: 0,
            provision_time,
            batch_tokens,
            per_replica_capacity,
            last_action: None,
            rates: VecDeque::new(),
            cursor: 0,
            config: config.clone(),
        }
    }

    /// Counts one first-arrival admission.
    pub(crate) fn arrival(&mut self) {
        self.arrived += 1;
    }

    /// One control tick over the `pool` serving replicas (ready or
    /// provisioning) and their queued plus in-flight tokens. A
    /// draining replica's leftover work is its own to finish, so only
    /// the serving pool's backlog argues for more capacity. Returns the
    /// tick instant and the decision.
    pub(crate) fn tick(
        &mut self,
        pool: usize,
        outstanding_tokens: usize,
    ) -> (SimTime, ScaleDecision) {
        let at = self.next_at;
        self.next_at = at + self.config.interval;
        let obs = ClusterObservation {
            now: at,
            pool,
            outstanding_tokens,
            arrived: std::mem::take(&mut self.arrived),
        };
        (at, self.decide(&obs))
    }

    /// The configured policy's decision for one observation.
    fn decide(&mut self, obs: &ClusterObservation) -> ScaleDecision {
        let cooling = self
            .last_action
            .is_some_and(|at| obs.now < at + self.config.cooldown);
        let (pool, min, max) = (obs.pool, self.config.min_replicas, self.config.max_replicas);
        let decision = match &self.config.policy {
            AutoscalePolicyKind::Reactive {
                up_threshold,
                down_threshold,
            } => {
                // Outstanding work per pooled replica, in full batches.
                let load = obs.outstanding_tokens as f64
                    / self.batch_tokens.max(1) as f64
                    / pool.max(1) as f64;
                if cooling {
                    ScaleDecision::Hold
                } else if load > *up_threshold && pool < max {
                    // Enough replicas to bring the backlog back under
                    // the threshold, capped at the configured maximum.
                    let want = (obs.outstanding_tokens as f64
                        / (up_threshold * self.batch_tokens.max(1) as f64))
                        .ceil() as usize;
                    ScaleDecision::ScaleUp(want.clamp(pool + 1, max) - pool)
                } else if load < *down_threshold && pool > min {
                    ScaleDecision::ScaleDown(1)
                } else {
                    ScaleDecision::Hold
                }
            }
            AutoscalePolicyKind::Predictive {
                target_util,
                window,
            } => {
                // `validate` keeps the interval positive.
                let secs = self.config.interval.as_secs_f64();
                self.rates.push_back(obs.arrived as f64 / secs);
                if self.rates.len() > *window {
                    self.rates.pop_front();
                }
                if self.rates.len() < 2 || self.per_replica_capacity <= 0.0 || cooling {
                    ScaleDecision::Hold
                } else {
                    // Forecast at the horizon where newly commissioned
                    // capacity would come online: one provisioning
                    // reload plus one tick.
                    let lead = (self.provision_time + self.config.interval).as_secs_f64() / secs;
                    let rate = forecast(&self.rates, lead);
                    let per_replica = target_util * self.per_replica_capacity;
                    let target = ((rate / per_replica).ceil() as usize).clamp(min, max);
                    if target > pool {
                        ScaleDecision::ScaleUp(target - pool)
                    } else if target < pool && pool > min {
                        // Drain conservatively — one replica per tick —
                        // so a noisy forecast dip cannot flush capacity
                        // it will want back.
                        ScaleDecision::ScaleDown(1)
                    } else {
                        ScaleDecision::Hold
                    }
                }
            }
            AutoscalePolicyKind::Scripted { script } => {
                let decision = script.get(self.cursor).copied();
                self.cursor += 1;
                return decision.unwrap_or(ScaleDecision::Hold);
            }
        };
        if decision != ScaleDecision::Hold {
            self.last_action = Some(obs.now);
        }
        decision
    }

    /// How many of `n` requested replicas to commission with `live`
    /// not yet retired, capped by `max_replicas`.
    pub(crate) fn grant_up(&self, n: usize, live: usize) -> usize {
        n.min(self.config.max_replicas.saturating_sub(live))
    }

    /// How many of `n` requested replicas to drain with `serving` up
    /// and taking work, stopping at `min_replicas`.
    pub(crate) fn grant_down(&self, n: usize, serving: usize) -> usize {
        n.min(serving.saturating_sub(self.config.min_replicas))
    }
}

/// Least-squares forecast of the rate `lead_ticks` past the last of
/// `rates` (one sample per tick); clamped at zero (a falling trend
/// never forecasts a negative rate).
fn forecast(rates: &VecDeque<f64>, lead_ticks: f64) -> f64 {
    let n = rates.len() as f64;
    let mean_x = (n - 1.0) / 2.0;
    let mean_y = rates.iter().sum::<f64>() / n;
    let (mut cov, mut var) = (0.0, 0.0);
    for (i, y) in rates.iter().enumerate() {
        let dx = i as f64 - mean_x;
        cov += dx * (y - mean_y);
        var += dx * dx;
    }
    let slope = if var > 0.0 { cov / var } else { 0.0 };
    (mean_y + slope * (n - 1.0 - mean_x + lead_ticks)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A config over `policy` with 100 ms ticks and pool bounds [1, 8].
    fn config(policy: AutoscalePolicyKind, cooldown_ms: u64) -> AutoscaleConfig {
        AutoscaleConfig {
            policy,
            interval: SimDuration::from_millis(100),
            cooldown: SimDuration::from_millis(cooldown_ms),
            min_replicas: 1,
            max_replicas: 8,
        }
    }

    /// A validated runtime over `cfg` with 256-token batches, 100
    /// requests/s per replica, and a 50 ms provisioning reload.
    fn runtime(cfg: &AutoscaleConfig) -> AutoscaleRuntime {
        cfg.validate(cfg.min_replicas);
        AutoscaleRuntime::new(cfg, SimDuration::from_millis(50), 256, 100.0)
    }

    fn reactive(cooldown_ms: u64) -> AutoscaleRuntime {
        runtime(&config(
            AutoscalePolicyKind::Reactive {
                up_threshold: 1.5,
                down_threshold: 0.25,
            },
            cooldown_ms,
        ))
    }

    fn predictive(window: usize) -> AutoscaleRuntime {
        runtime(&config(
            AutoscalePolicyKind::Predictive {
                target_util: 0.8,
                window,
            },
            0,
        ))
    }

    fn obs(now_ms: u64, outstanding: usize, pool: usize, arrived: usize) -> ClusterObservation {
        ClusterObservation {
            now: SimTime::from_millis(now_ms),
            pool,
            outstanding_tokens: outstanding,
            arrived,
        }
    }

    #[test]
    fn reactive_scales_up_proportionally_and_respects_the_cap() {
        let mut p = reactive(0);
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
        let mut p = reactive(500);
        assert_eq!(p.decide(&obs(0, 8 * 256, 2, 0)), ScaleDecision::ScaleUp(4));
        // Inside the cooldown even an empty cluster holds.
        assert_eq!(p.decide(&obs(100, 0, 6, 0)), ScaleDecision::Hold);
        // Past it, an idle pool drains one replica per tick.
        assert_eq!(p.decide(&obs(600, 0, 6, 0)), ScaleDecision::ScaleDown(1));
        // In the hysteresis band (0.25 < load < 1.5) nothing happens.
        let mut q = reactive(0);
        assert_eq!(q.decide(&obs(0, 256, 2, 0)), ScaleDecision::Hold);
    }

    #[test]
    fn reactive_never_leaves_the_configured_range() {
        let mut p = reactive(0);
        // Already at max: hold even under load.
        assert_eq!(p.decide(&obs(0, 100 * 256, 8, 0)), ScaleDecision::Hold);
        // Already at min: hold even when idle.
        assert_eq!(p.decide(&obs(100, 0, 1, 0)), ScaleDecision::Hold);
    }

    #[test]
    fn predictive_rides_a_rising_ramp_before_it_lands() {
        let mut p = predictive(8);
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
        let mut p = predictive(4);
        let mut last = ScaleDecision::Hold;
        for (tick, arrived) in [50, 30, 10, 5, 2].iter().enumerate() {
            last = p.decide(&obs(tick as u64 * 100, 0, 6, *arrived));
        }
        assert_eq!(last, ScaleDecision::ScaleDown(1));
    }

    #[test]
    fn predictive_holds_without_capacity_or_history() {
        let mut p = predictive(4);
        // First tick: only one sample.
        assert_eq!(p.decide(&obs(0, 0, 2, 100)), ScaleDecision::Hold);
        // No probed capacity: cannot size, must hold.
        p.per_replica_capacity = 0.0;
        assert_eq!(p.decide(&obs(100, 0, 2, 500)), ScaleDecision::Hold);
    }

    #[test]
    fn scripted_replays_then_holds() {
        let mut p = runtime(&config(
            AutoscalePolicyKind::Scripted {
                script: vec![
                    ScaleDecision::ScaleUp(2),
                    ScaleDecision::Hold,
                    ScaleDecision::ScaleDown(1),
                ],
            },
            0,
        ));
        assert_eq!(p.decide(&obs(0, 0, 1, 0)), ScaleDecision::ScaleUp(2));
        assert_eq!(p.decide(&obs(1, 0, 3, 0)), ScaleDecision::Hold);
        assert_eq!(p.decide(&obs(2, 0, 3, 0)), ScaleDecision::ScaleDown(1));
        assert_eq!(p.decide(&obs(3, 0, 2, 0)), ScaleDecision::Hold);
    }

    #[test]
    fn inert_config_never_triggers() {
        let mut p = runtime(&AutoscaleConfig::inert(3, SimDuration::from_millis(10)));
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
        let reactive = AutoscalePolicyKind::Reactive {
            up_threshold: 0.25,
            down_threshold: 1.5,
        };
        config(reactive, 0).validate(1);
    }

    #[test]
    #[should_panic(expected = "reactive: up_threshold must be > 0")]
    fn non_positive_up_threshold_rejected() {
        let reactive = AutoscalePolicyKind::Reactive {
            up_threshold: 0.0,
            down_threshold: -1.0,
        };
        config(reactive, 0).validate(1);
    }

    #[test]
    #[should_panic(expected = "predictive: target_util must be in (0, 1]")]
    fn zero_target_util_rejected() {
        let predictive = AutoscalePolicyKind::Predictive {
            target_util: 0.0,
            window: 4,
        };
        config(predictive, 0).validate(1);
    }

    #[test]
    #[should_panic(expected = "predictive: target_util must be in (0, 1]")]
    fn target_util_above_one_rejected() {
        let predictive = AutoscalePolicyKind::Predictive {
            target_util: 1.5,
            window: 4,
        };
        config(predictive, 0).validate(1);
    }

    #[test]
    #[should_panic(expected = "predictive: window must hold >= 2 samples")]
    fn single_sample_window_rejected() {
        let predictive = AutoscalePolicyKind::Predictive {
            target_util: 0.8,
            window: 1,
        };
        config(predictive, 0).validate(1);
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
