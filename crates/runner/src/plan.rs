//! Inference planner: lowers one batch under a scheme into a typed
//! [`ExecutionPlan`].
//!
//! The plan captures every *decision* of the layer-by-layer inference
//! walk — placements, phase-two verdicts, per-device expert compute
//! segments, the unequal-split all-to-all [`CollectiveSpec`]s, and the
//! scheduling phases with their overlap budgets — but no *timing*.
//! All of Lina's scheduling decisions are timing-independent (phase
//! one sees only the observed token paths, phase two only compares the
//! estimate against the actual routing), so they resolve here once and
//! the executors in [`crate::exec`] merely price the stages:
//! [`crate::exec::execute_plan_solo`] with each collective alone on an
//! idle network, and [`crate::exec::ReplicaExecutor`] either that way
//! or on a shared network where concurrent batches fair-share NIC
//! bandwidth.

use lina_baselines::InferScheme;
use lina_core::{PhaseOne, PhaseTwo, TwoPhaseScheduler};
use lina_model::{
    assign_replicas, transpose, CostModel, ExpertPlacement, LayerRouting, LayeredPlacement,
};
use lina_netsim::{AllToAllAlgo, CollectiveSpec, DeviceId, Topology};
use lina_simcore::SimDuration;
use lina_workload::TokenBatch;

use crate::inference::InferenceConfig;

/// One MoE layer's lowered stages, in execution order: attention →
/// gate → scheduling → dispatch all-to-all → expert compute → combine
/// all-to-all → combine op.
#[derive(Clone, Debug)]
pub struct LayerPlan {
    /// Attention ahead of the MoE layer (advances the clock but stays
    /// outside the per-layer MoE accounting).
    pub attention: SimDuration,
    /// Gate compute.
    pub gate: SimDuration,
    /// Scheduling time that blocks this layer unconditionally: the
    /// full reactive schedule (w/o estimation), the resume broadcast,
    /// or the fine-tune re-schedule. The *overlapped* phase-one time is
    /// not here — it is charged by the executor as whatever part of
    /// the previous layer's `phase_one` budget its actual overlap
    /// window could not absorb.
    pub sched_block: SimDuration,
    /// Dispatch all-to-all, `None` when no token crosses devices.
    pub dispatch: Option<CollectiveSpec>,
    /// Per-device expert compute (hosted experts run sequentially,
    /// swap overheads included; the slowest device gates the layer).
    pub compute: Vec<SimDuration>,
    /// Combine all-to-all back to the token owners.
    pub combine_a2a: Option<CollectiveSpec>,
    /// Combine op after the return all-to-all.
    pub combine: SimDuration,
    /// `Some(schedule_time)` when this layer launches phase one for
    /// the next layer. The budget overlaps everything from this
    /// layer's dispatch through the next layer's gate; the executor
    /// charges the remainder to the next layer's scheduling stage.
    pub phase_one: Option<SimDuration>,
    /// An estimate (from the previous layer's phase one) was consumed
    /// at this layer.
    pub estimated: bool,
    /// The consumed estimate matched the actual top-2k popularity.
    pub accurate: bool,
    /// Phase two fine-tuned the placement at this layer.
    pub finetuned: bool,
}

impl LayerPlan {
    /// The layer's critical-path expert compute (slowest device).
    pub fn slowest_compute(&self) -> SimDuration {
        self.compute
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Idle fraction of the least-loaded device relative to the
    /// slowest (the §2.2 straggler measurement); 0 when no device
    /// computes.
    pub fn idle_frac(&self) -> f64 {
        let slowest = self.slowest_compute();
        if slowest == SimDuration::ZERO {
            return 0.0;
        }
        let fastest = self
            .compute
            .iter()
            .copied()
            .min()
            .unwrap_or(SimDuration::ZERO);
        (slowest - fastest).ratio(slowest)
    }
}

/// A whole batch lowered to per-layer stages.
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    /// Tokens in the batch.
    pub tokens: usize,
    /// Per-layer stages in execution order.
    pub layers: Vec<LayerPlan>,
    /// Under locality-aware pricing: token-hops that skipped the
    /// dispatch wire (the layer's expert already lived on the token's
    /// device, or on the device that computed its previous layer's
    /// expert). Always 0 when locality pricing is off.
    pub local_hops: u64,
    /// Under locality-aware pricing: token-hops whose dispatch crossed
    /// the wire. Always 0 when locality pricing is off.
    pub routed_hops: u64,
}

impl ExecutionPlan {
    /// Number of model layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Stretches every per-device expert-compute segment by `factor`
    /// (≥ 1): the degraded-replica model for a straggling GPU or a lost
    /// device whose experts were packed onto the survivors. Attention,
    /// gate, scheduling, and the all-to-all specs are untouched — only
    /// the expert compute the surviving devices must absorb slows down.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and ≥ 1.
    pub fn scale_compute(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "scale_compute: bad factor {factor}"
        );
        if factor == 1.0 {
            return;
        }
        for layer in &mut self.layers {
            for c in &mut layer.compute {
                *c = c.mul_f64(factor);
            }
        }
    }
}

/// Builds the unequal-split all-to-all spec for a token-count matrix,
/// or `None` when no token crosses devices (a purely local exchange
/// costs nothing in this model).
pub(crate) fn a2a_spec(
    topo: &Topology,
    sizes: &[Vec<usize>],
    bytes_per_token: f64,
) -> Option<CollectiveSpec> {
    let devices = sizes.len();
    let any_remote = sizes
        .iter()
        .enumerate()
        .any(|(i, row)| row.iter().enumerate().any(|(j, &c)| i != j && c > 0));
    if !any_remote {
        return None;
    }
    let participants: Vec<DeviceId> = topo.device_ids().collect();
    let byte_sizes: Vec<Vec<f64>> = sizes
        .iter()
        .map(|row| row.iter().map(|&c| c as f64 * bytes_per_token).collect())
        .collect();
    debug_assert_eq!(devices, participants.len());
    Some(CollectiveSpec::AllToAll {
        participants,
        sizes: byte_sizes,
        algo: AllToAllAlgo::Flat,
    })
}

/// Lowers one batch under the scheme; `scheduler` is required for the
/// Lina schemes and ignored by Baseline/Ideal. Plans against the
/// canonical one-expert-per-device map without locality pricing.
///
/// # Panics
///
/// Panics if a Lina scheme is requested without a scheduler.
pub fn plan_batch(
    cost: &CostModel,
    topo: &Topology,
    config: &InferenceConfig,
    scheduler: Option<&TwoPhaseScheduler>,
    batch: &TokenBatch,
) -> ExecutionPlan {
    plan_batch_layered(cost, topo, config, scheduler, batch, None, false)
}

/// [`plan_batch`] against per-layer base placements: every layer that
/// would fall back to the static one-expert-per-device placement uses
/// its *own* entry of `base` instead (the serving cluster's proactive
/// re-sharding publishes its mutated shard map here, including devices
/// hosting *replicated* experts — [`assign_replicas`] splits such an
/// expert's tokens across its replicas). The Lina schemes' per-layer
/// scheduled placements still take precedence. `base: None` plans
/// against the canonical map.
///
/// With `locality` on, a token whose layer-`l` expert lives on the
/// device that computed its layer-`l-1` expert (or on its own
/// attention shard) contributes **no dispatch bytes** for that hop:
/// the activation is already resident, so the all-to-all is priced on
/// the actually-crossing token counts. Both network modes inherit
/// this automatically — solo and contended pricing time the
/// [`CollectiveSpec`]s built here. `base: None, locality: false` is
/// [`plan_batch`].
///
/// # Panics
///
/// Panics if a Lina scheme is requested without a scheduler, if a
/// base disagrees with the model's layer or expert count, or if a base
/// leaves some expert hostless.
pub fn plan_batch_layered(
    cost: &CostModel,
    topo: &Topology,
    config: &InferenceConfig,
    scheduler: Option<&TwoPhaseScheduler>,
    batch: &TokenBatch,
    base: Option<&LayeredPlacement>,
    locality: bool,
) -> ExecutionPlan {
    let model = &cost.model;
    let devices = topo.devices();
    let layers = model.layers;
    // The busiest device's share of the batch (ceiling division: a
    // batch smaller than the device count still puts at least one
    // token on some device; remainder tokens land on the critical
    // path).
    let tokens_per_device = batch.len().div_ceil(devices);
    assert!(
        !config.scheme.needs_scheduler() || scheduler.is_some(),
        "plan: {:?} requires a scheduler",
        config.scheme
    );

    if let Some(lp) = base {
        assert_eq!(
            lp.n_layers(),
            layers,
            "plan: layered base has {} layers, model has {layers}",
            lp.n_layers()
        );
        assert_eq!(
            lp.experts(),
            model.experts,
            "plan: layered base has {} experts, model has {}",
            lp.experts(),
            model.experts
        );
    }
    // Built lazily only when no base was supplied; per-layer lookups
    // borrow instead of cloning a map per layer per batch.
    let canonical = base
        .is_none()
        .then(|| ExpertPlacement::one_per_device(model.experts, devices));
    let static_for = |layer: usize| -> &ExpertPlacement {
        match base {
            Some(lp) => lp.layer(layer),
            None => canonical.as_ref().expect("built when base is None"),
        }
    };
    // The Ideal scheme's balanced routing is synthetic — it does not
    // correspond to the batch's token paths, so there is no resident
    // copy to ride on.
    let locality = locality && config.scheme != InferScheme::Ideal;
    let attention = cost.attention_fwd(tokens_per_device);
    let gate = cost.gate_fwd(tokens_per_device);
    let combine = cost.combine(tokens_per_device);
    let swap = cost.expert_swap(topo.spec().pcie_bw);

    let mut plan = ExecutionPlan {
        tokens: batch.len(),
        layers: Vec::with_capacity(layers),
        local_hops: 0,
        routed_hops: 0,
    };
    let mut pending_phase_one: Option<PhaseOne> = None;
    // Locality pricing tracks, per token, the device that computed its
    // previous layer's (primary) expert — `None` at layer 0 or when
    // the expert was replicated (the ride target is ambiguous).
    let mut prev_host: Vec<Option<DeviceId>> = if locality {
        vec![None; batch.len()]
    } else {
        Vec::new()
    };

    for layer in 0..layers {
        // Actual routing (Ideal forces a balanced gate).
        let routing = match config.scheme {
            InferScheme::Ideal => {
                LayerRouting::balanced(devices, model.experts, tokens_per_device, config.top_k)
            }
            _ => batch.routing_for_layer(layer),
        };

        // Scheduling: decide this layer's placement and its blocking
        // cost (the phase-one overlap remainder is the executor's).
        // `None` means the static one-expert-per-device placement —
        // Baseline/Ideal and non-estimated layers borrow it instead of
        // cloning it per layer per batch.
        let mut placement: Option<ExpertPlacement> = None;
        let mut sched_block = SimDuration::ZERO;
        let mut swapped_late = false;
        let mut estimated = false;
        let mut accurate = false;
        let mut finetuned = false;
        // Baseline and Ideal keep the static placement.
        if config.scheme.estimates() {
            let s = scheduler.expect("checked above");
            if let Some(p1) = std::mem::take(&mut pending_phase_one) {
                estimated = true;
                let actual_pop = routing.popularity();
                let two_k = 2 * config.top_k;
                accurate = lina_core::PopularityEstimator::estimate_matches(
                    &p1.estimate,
                    &actual_pop,
                    two_k.min(model.experts),
                );
                if config.scheme == InferScheme::Lina {
                    match s.phase_two(&p1, &actual_pop) {
                        PhaseTwo::Resume => {
                            sched_block += s.config().resume_time;
                            placement = Some(p1.placement);
                        }
                        PhaseTwo::Finetune(p) => {
                            sched_block += s.config().schedule_time;
                            finetuned = true;
                            placement = Some(p);
                            swapped_late = true;
                        }
                    }
                } else {
                    // w/o fine-tuning: trust the estimate blindly.
                    placement = Some(p1.placement);
                }
            }
        } else if config.scheme.needs_scheduler() {
            // w/o estimation: schedule from the actual routing.
            let s = scheduler.expect("checked above");
            placement = Some(s.schedule_from_actual(&routing));
            // Reactive scheduling blocks the layer entirely.
            sched_block += s.config().schedule_time;
            swapped_late = true;
        }

        let used_placement = placement.as_ref().unwrap_or_else(|| static_for(layer));
        let dispatch_plan = assign_replicas(&routing, used_placement, topo);
        // Locality-aware pricing: a token whose layer-l expert lives
        // where its layer-(l-1) expert computed (or on its own
        // attention shard) never touches the dispatch wire — its
        // activation is already resident. The collective is priced on
        // the reduced, actually-crossing matrix; compute is untouched
        // (every token still runs on its expert's device). Only the
        // top-1 copy can ride; with `top_k > 1` the secondary copies
        // always dispatch from the token's shard. Replicated experts
        // are priced conservatively (no ride — which replica serves
        // the token is a load-balancing decision, not a residency
        // guarantee).
        let dispatch = if locality {
            let host_of: Vec<Option<DeviceId>> = used_placement
                .hosts
                .iter()
                .map(|hs| if hs.len() == 1 { Some(hs[0]) } else { None })
                .collect();
            let mut sizes = dispatch_plan.sizes.clone();
            for (t, prev) in prev_host.iter_mut().enumerate() {
                let tok = &batch.tokens[t];
                if layer >= tok.layers() {
                    continue;
                }
                let e = tok.primary(layer);
                let this_host = host_of[e as usize];
                let home = batch.device_of(t);
                match this_host {
                    Some(h) if h.0 as usize == home => plan.local_hops += 1,
                    Some(h) if *prev == Some(h) => {
                        plan.local_hops += 1;
                        debug_assert!(sizes[home][h.0 as usize] > 0);
                        sizes[home][h.0 as usize] -= 1;
                    }
                    _ => plan.routed_hops += 1,
                }
                *prev = this_host;
            }
            a2a_spec(topo, &sizes, model.token_bytes())
        } else {
            a2a_spec(topo, &dispatch_plan.sizes, model.token_bytes())
        };

        // Expert computation per device: sequential over hosted
        // experts with double-buffered weight swaps; a post-gate
        // placement change cannot prefetch the first expert's weights.
        let mut compute: Vec<SimDuration> = Vec::with_capacity(devices);
        for d in 0..devices {
            let mut t = SimDuration::ZERO;
            let mut computed = 0;
            let mut prev_compute = SimDuration::ZERO;
            for e in 0..model.experts {
                let tok = dispatch_plan.compute[d][e];
                if tok > 0 {
                    if computed > 0 {
                        t += swap.saturating_sub(prev_compute);
                    }
                    let c = cost.expert_fwd(tok);
                    t += c;
                    prev_compute = c;
                    computed += 1;
                }
            }
            if swapped_late && computed > 0 {
                t += swap;
            }
            compute.push(t);
        }

        let combine_a2a = a2a_spec(topo, &transpose(&dispatch_plan.sizes), model.token_bytes());

        // Phase one for the next layer starts as soon as this layer's
        // gate fixed the token paths; the budget overlaps everything
        // through the next layer's gate (§6.2).
        let mut phase_one = None;
        if layer + 1 < layers && config.scheme.estimates() {
            let s = scheduler.expect("checked above");
            pending_phase_one = s.phase_one(&batch.tokens, layer + 1);
            if pending_phase_one.is_some() {
                phase_one = Some(s.config().schedule_time);
            }
        }

        plan.layers.push(LayerPlan {
            attention,
            gate,
            sched_block,
            dispatch,
            compute,
            combine_a2a,
            combine,
            phase_one,
            estimated,
            accurate,
            finetuned,
        });
    }
    plan
}
