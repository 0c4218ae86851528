//! Proactive expert re-sharding under skew drift.
//!
//! Lina re-places experts at *epoch* boundaries: the online
//! re-estimation window periodically re-profiles the popularity
//! estimator and the two-phase scheduler re-plans placement for the
//! next batches. Between epochs, a drifting workload leaves the hot
//! expert pinned to one device. This module closes that gap with a
//! continuous control loop (HarMoEny-style): an online per-expert load
//! monitor (a sliding window of per-batch expert selection counts over
//! the same dispatched batches the re-estimator reads) feeds a
//! [`ReshardPolicyKind`] that, mid-serving, emits [`ReshardAction`]s —
//! replicate a hot expert onto another device, or evict a cold
//! replica. The cluster event loop evaluates the policy at a fixed
//! control interval as its own priority class. Applying any action
//! charges every up replica the modeled PCIe transfer for the replicas
//! copied
//! ([`crate::provisioning::reshard_transfer`]) and flushes every
//! monitoring and re-estimation window (their samples predate the new
//! map). Actions mutate every layer of the map in lockstep, and
//! dispatch then plans against the live map: a replicated expert's
//! tokens split across its replicas inside
//! [`plan_batch_layered`](lina_runner::plan_batch_layered). A device
//! loss resets the map to the run's base layout.

use std::collections::VecDeque;

use lina_model::{ExpertPlacement, LayeredPlacement};
use lina_simcore::{SimDuration, SimTime};
use lina_workload::TokenBatch;

/// One shard-map mutation a policy may request. Expert indices refer
/// to the model's global expert ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReshardAction {
    /// Add one more replica of the expert on the least-crowded device
    /// with spare capacity (a no-op when every device is full or
    /// already hosts it).
    Replicate(usize),
    /// Remove the expert's replica from the most-crowded device
    /// hosting it (a no-op when only one replica remains — an expert
    /// must always stay hosted somewhere).
    Evict(usize),
}

/// The re-sharding policy: observes per-expert load, decides
/// shard-map mutations. Every decision is deterministic in the
/// observation and the run's policy state, so the cluster event loop
/// replays bit-identically.
#[derive(Clone, Debug)]
pub enum ReshardPolicyKind {
    /// The reference policy: hot/cold watermarks with hysteresis and a
    /// per-tick transfer budget.
    ///
    /// An expert whose *per-replica* load share exceeds `hot / experts`
    /// for `hysteresis` consecutive ticks gains a replica; an expert
    /// with more than one replica whose per-replica share falls below
    /// `cold / experts` for `hysteresis` consecutive ticks loses one.
    /// At most `transfer_budget` weight-moving actions are emitted per
    /// tick, hottest-first, so a drifting trace amortizes transfers
    /// instead of thrashing the PCIe bus.
    Threshold {
        /// Hot watermark in fair-share units (e.g. 2.0 means "twice
        /// the fair share").
        hot: f64,
        /// Cold watermark in fair-share units.
        cold: f64,
        /// Consecutive ticks a watermark must hold before acting.
        hysteresis: usize,
        /// Max weight-moving actions per tick.
        transfer_budget: usize,
    },
    /// Replays the given per-tick actions, one entry per control tick
    /// (holds after the script runs out). Drives the property tests'
    /// arbitrary reshard schedules; an empty script observes every
    /// tick and never acts.
    Scripted {
        /// Actions per control tick.
        script: Vec<Vec<ReshardAction>>,
    },
}

/// Re-sharding configuration: the policy, its control cadence, the
/// monitoring window, and the transfer cost scale.
#[derive(Clone, Debug)]
pub struct ReshardConfig {
    /// The policy evaluated each tick.
    pub policy: ReshardPolicyKind,
    /// Control interval (first tick fires one interval into the run).
    pub interval: SimDuration,
    /// Batches the load monitor's sliding window holds.
    pub window: usize,
    /// Scale on the modeled per-expert PCIe weight transfer charged to
    /// every replica when an actuation moves weights (1.0 = one
    /// [`expert_swap`](lina_model::CostModel::expert_swap) per moved
    /// replica; 0.0 models free transfers).
    pub transfer_cost: f64,
}

impl ReshardConfig {
    /// An armed-but-inert configuration: the control loop ticks and
    /// observes at `interval` but can never mutate the shard map. Used
    /// by the degeneracy tests: the outcome must be bit-identical to
    /// running with no re-sharding at all.
    pub fn inert(interval: SimDuration) -> Self {
        ReshardConfig {
            policy: ReshardPolicyKind::Scripted { script: Vec::new() },
            interval,
            window: 8,
            transfer_cost: 1.0,
        }
    }

    /// Validates the knobs.
    ///
    /// # Panics
    ///
    /// Panics on a zero interval or window, or a non-finite/negative
    /// transfer cost.
    pub fn validate(&self) {
        assert!(
            self.interval > SimDuration::ZERO,
            "resharding: interval must be > 0"
        );
        assert!(self.window > 0, "resharding: window must be > 0");
        assert!(
            self.transfer_cost.is_finite() && self.transfer_cost >= 0.0,
            "resharding: transfer_cost must be finite and >= 0"
        );
        if let ReshardPolicyKind::Threshold {
            hot,
            cold,
            hysteresis,
            ..
        } = &self.policy
        {
            assert!(
                hot.is_finite() && cold.is_finite() && cold < hot,
                "resharding: watermarks must satisfy cold < hot"
            );
            assert!(*hysteresis > 0, "resharding: hysteresis must be > 0");
        }
    }
}

/// An armed re-sharder inside the cluster event loop: the policy state,
/// its tick clock, the per-expert load monitor, and the live shard
/// map. The cluster counts what each tick applied.
pub(crate) struct ReshardRuntime {
    pub(crate) config: ReshardConfig,
    /// The threshold policy's consecutive hot and cold ticks per
    /// expert.
    hot_streak: Vec<usize>,
    cold_streak: Vec<usize>,
    /// The scripted policy's next entry.
    cursor: usize,
    /// Next re-shard tick.
    pub(crate) next_at: SimTime,
    /// The load monitor: token-selections per expert, summed over every
    /// layer, of each of the last `config.window` dispatched batches
    /// (oldest first), flushed on every map change.
    window: VecDeque<Vec<u64>>,
    /// The run's base layout: the configured placement, or the
    /// canonical expert-per-device map at every layer.
    base: LayeredPlacement,
    /// The live map. Actions mutate every layer in lockstep, so a
    /// uniform map stays uniform.
    shard_map: LayeredPlacement,
    /// The live map differs from `base`. While false, dispatch plans
    /// exactly as an unarmed run would.
    dirty: bool,
    experts: usize,
    devices: usize,
}

/// The actions one re-shard tick applied (an action counts once if it
/// changed any layer).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReshardApplied {
    /// Expert replicas added.
    pub(crate) replications: usize,
    /// Expert replicas dropped.
    pub(crate) evictions: usize,
}

impl ReshardRuntime {
    /// A runtime starting from `placement`, or from the canonical
    /// expert-per-device map when none is configured.
    pub(crate) fn new(
        config: &ReshardConfig,
        placement: Option<&LayeredPlacement>,
        experts: usize,
        devices: usize,
        layers: usize,
    ) -> Self {
        let base = placement.cloned().unwrap_or_else(|| {
            LayeredPlacement::uniform(ExpertPlacement::one_per_device(experts, devices), layers)
        });
        ReshardRuntime {
            hot_streak: vec![0; experts],
            cold_streak: vec![0; experts],
            cursor: 0,
            next_at: SimTime::ZERO + config.interval,
            window: VecDeque::new(),
            shard_map: base.clone(),
            base,
            dirty: false,
            experts,
            devices,
            config: config.clone(),
        }
    }

    /// Samples one dispatched batch into the load monitor, evicting
    /// the oldest batch past the window.
    pub(crate) fn observe(&mut self, batch: &TokenBatch) {
        let mut counts = vec![0u64; self.experts];
        for tok in &batch.tokens {
            for &e in tok.selections() {
                counts[e as usize] += 1;
            }
        }
        self.window.push_back(counts);
        if self.window.len() > self.config.window {
            self.window.pop_front();
        }
    }

    /// The map dispatch plans against once it diverged from the base.
    pub(crate) fn plan_map(&self) -> Option<&LayeredPlacement> {
        self.dirty.then_some(&self.shard_map)
    }

    /// Back to the base layout with an empty monitor (a device loss's
    /// emergency re-replication restores the base layout).
    pub(crate) fn reset(&mut self) {
        self.shard_map.clone_from(&self.base);
        self.dirty = false;
        self.window.clear();
    }

    /// One tick: profile the monitor into per-expert load shares, ask
    /// the policy, and apply its actions. Returns the tick instant and,
    /// when any action changed the map, what it applied.
    pub(crate) fn tick(&mut self) -> (SimTime, Option<ReshardApplied>) {
        let at = self.next_at;
        self.next_at = at + self.config.interval;
        let mut counts = vec![0u64; self.experts];
        for batch in &self.window {
            for (c, &b) in counts.iter_mut().zip(batch) {
                *c += b;
            }
        }
        let total: u64 = counts.iter().sum();
        let share: Vec<f64> = counts
            .iter()
            .map(|&c| {
                if total == 0 {
                    0.0
                } else {
                    c as f64 / total as f64
                }
            })
            .collect();
        // Layer 0 speaks for the lockstep map.
        let replicas: Vec<usize> = self.shard_map.layer(0).hosts.iter().map(Vec::len).collect();
        // The canonical density plus one slot of headroom, so
        // replication always has somewhere to go without letting the
        // map degenerate into every-expert-everywhere.
        let cap = self.experts.div_ceil(self.devices) + 1;
        let actions = self.decide(&share, &replicas);
        // A layer where the rule finds no eligible move is skipped; an
        // action counts once if any layer moved.
        let mut applied = ReshardApplied::default();
        for action in actions {
            let mut ok = false;
            for layer in self.shard_map.layers_mut() {
                ok |= match action {
                    ReshardAction::Replicate(e) => layer.add_replica(e, self.devices, cap),
                    ReshardAction::Evict(e) => layer.drop_replica(e, self.devices),
                };
            }
            if ok {
                match action {
                    ReshardAction::Replicate(_) => applied.replications += 1,
                    ReshardAction::Evict(_) => applied.evictions += 1,
                }
            }
        }
        if applied == ReshardApplied::default() {
            return (at, None);
        }
        self.dirty = self.shard_map != self.base;
        self.window.clear();
        (at, Some(applied))
    }

    /// The configured policy's actions for one tick, applied in order,
    /// given each expert's share of the monitored token-selections
    /// (all-zero on an empty window) and its replica count.
    fn decide(&mut self, share: &[f64], replicas: &[usize]) -> Vec<ReshardAction> {
        let (hot, cold, hysteresis, transfer_budget) = match &self.config.policy {
            ReshardPolicyKind::Threshold {
                hot,
                cold,
                hysteresis,
                transfer_budget,
            } => (*hot, *cold, *hysteresis, *transfer_budget),
            ReshardPolicyKind::Scripted { script } => {
                let actions = script.get(self.cursor).cloned();
                self.cursor += 1;
                return actions.unwrap_or_default();
            }
        };
        let experts = share.len();
        let fair = 1.0 / experts.max(1) as f64;
        let observed: f64 = share.iter().sum();
        if observed <= 0.0 {
            // An empty monitoring window (e.g. right after a shard-map
            // change flushed it) resets the streaks: stale momentum
            // must not trigger on the first post-flush tick.
            self.hot_streak.fill(0);
            self.cold_streak.fill(0);
            return Vec::new();
        }
        // Rank hot candidates hottest-first so the transfer budget
        // goes to the worst offender; ties break on the lower id for
        // determinism.
        let mut hot_ranked: Vec<usize> = Vec::new();
        for e in 0..experts {
            let per_replica = share[e] / replicas[e].max(1) as f64;
            if per_replica > hot * fair {
                self.hot_streak[e] += 1;
            } else {
                self.hot_streak[e] = 0;
            }
            if replicas[e] > 1 && per_replica < cold * fair {
                self.cold_streak[e] += 1;
            } else {
                self.cold_streak[e] = 0;
            }
            if self.hot_streak[e] >= hysteresis {
                hot_ranked.push(e);
            }
        }
        hot_ranked.sort_by(|&a, &b| {
            share[b]
                .partial_cmp(&share[a])
                .expect("shares are finite")
                .then(a.cmp(&b))
        });
        let mut actions = Vec::new();
        for e in hot_ranked {
            if actions.len() >= transfer_budget {
                break;
            }
            actions.push(ReshardAction::Replicate(e));
            self.hot_streak[e] = 0;
        }
        // Evictions move no weights (dropping a replica is free), so
        // they ride outside the transfer budget.
        for e in 0..experts {
            if self.cold_streak[e] >= hysteresis {
                actions.push(ReshardAction::Evict(e));
                self.cold_streak[e] = 0;
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A validated runtime over `policy` with `experts` experts, one
    /// per device, on a one-layer model.
    fn runtime(policy: ReshardPolicyKind, experts: usize) -> ReshardRuntime {
        let config = ReshardConfig {
            policy,
            ..ReshardConfig::inert(SimDuration::from_millis(1))
        };
        config.validate();
        ReshardRuntime::new(&config, None, experts, experts, 1)
    }

    /// The threshold policy over four experts.
    fn threshold(hot: f64, cold: f64, hysteresis: usize, transfer_budget: usize) -> ReshardRuntime {
        let policy = ReshardPolicyKind::Threshold {
            hot,
            cold,
            hysteresis,
            transfer_budget,
        };
        runtime(policy, 4)
    }

    #[test]
    fn threshold_replicates_a_hot_expert_after_hysteresis() {
        let mut p = threshold(2.0, 0.5, 2, 1);
        let share = [0.7, 0.1, 0.1, 0.1];
        let replicas = [1usize, 1, 1, 1];
        // First tick arms the streak, second fires.
        assert!(p.decide(&share, &replicas).is_empty());
        assert_eq!(
            p.decide(&share, &replicas),
            vec![ReshardAction::Replicate(0)]
        );
        // The streak resets after acting.
        assert!(p.decide(&share, &replicas).is_empty());
    }

    #[test]
    fn threshold_evicts_a_cold_replicated_expert() {
        let mut p = threshold(4.0, 0.8, 1, 1);
        // Expert 0 holds 2 replicas but receives a sub-fair share.
        let share = [0.05, 0.35, 0.3, 0.3];
        let replicas = [2usize, 1, 1, 1];
        assert_eq!(p.decide(&share, &replicas), vec![ReshardAction::Evict(0)]);
    }

    #[test]
    fn threshold_never_evicts_the_last_replica() {
        let mut p = threshold(4.0, 0.8, 1, 1);
        let share = [0.01, 0.33, 0.33, 0.33];
        let replicas = [1usize, 1, 1, 1];
        // Cold but single-homed: no action.
        assert!(p.decide(&share, &replicas).is_empty());
    }

    #[test]
    fn transfer_budget_caps_replications_hottest_first() {
        let mut p = threshold(1.2, 0.1, 1, 1);
        let share = [0.45, 0.4, 0.05, 0.1];
        let replicas = [1usize, 1, 1, 1];
        // Both 0 and 1 are hot; budget 1 picks the hotter (0).
        assert_eq!(
            p.decide(&share, &replicas),
            vec![ReshardAction::Replicate(0)]
        );
        // Once 0's replica lands, its per-replica share cools below
        // the watermark and the budget goes to expert 1.
        let replicas = [2usize, 1, 1, 1];
        assert_eq!(
            p.decide(&share, &replicas),
            vec![ReshardAction::Replicate(1)]
        );
    }

    #[test]
    fn per_replica_share_decides_hotness() {
        let mut p = threshold(2.0, 0.1, 1, 4);
        // Expert 0 is hot in aggregate but already has 3 replicas:
        // per-replica share 0.2 < 2.0/4 — no further replication.
        let share = [0.6, 0.2, 0.1, 0.1];
        let replicas = [3usize, 1, 1, 1];
        assert!(p.decide(&share, &replicas).is_empty());
    }

    #[test]
    fn empty_window_resets_streaks_and_holds() {
        let mut p = threshold(2.0, 0.5, 2, 1);
        let share = [0.7, 0.1, 0.1, 0.1];
        let replicas = [1usize, 1, 1, 1];
        assert!(p.decide(&share, &replicas).is_empty());
        // A flushed window wipes the armed streak.
        let zero = [0.0; 4];
        assert!(p.decide(&zero, &replicas).is_empty());
        assert!(p.decide(&share, &replicas).is_empty());
        assert_eq!(
            p.decide(&share, &replicas),
            vec![ReshardAction::Replicate(0)]
        );
    }

    #[test]
    fn scripted_policy_replays_then_holds() {
        let script = vec![
            vec![ReshardAction::Replicate(1)],
            vec![],
            vec![ReshardAction::Evict(1), ReshardAction::Replicate(0)],
        ];
        let mut p = runtime(ReshardPolicyKind::Scripted { script }, 2);
        let share = [0.5, 0.5];
        let replicas = [1usize, 1];
        assert_eq!(
            p.decide(&share, &replicas),
            vec![ReshardAction::Replicate(1)]
        );
        assert!(p.decide(&share, &replicas).is_empty());
        assert_eq!(
            p.decide(&share, &replicas),
            vec![ReshardAction::Evict(1), ReshardAction::Replicate(0)]
        );
        assert!(p.decide(&share, &replicas).is_empty());
    }

    #[test]
    fn inert_config_validates() {
        ReshardConfig::inert(SimDuration::from_millis(1)).validate();
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_rejected() {
        let mut c = ReshardConfig::inert(SimDuration::from_millis(1));
        c.interval = SimDuration::ZERO;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "cold < hot")]
    fn inverted_watermarks_rejected() {
        let c = ReshardConfig {
            policy: ReshardPolicyKind::Threshold {
                hot: 0.5,
                cold: 2.0,
                hysteresis: 1,
                transfer_budget: 1,
            },
            interval: SimDuration::from_millis(1),
            window: 8,
            transfer_cost: 1.0,
        };
        c.validate();
    }
}
