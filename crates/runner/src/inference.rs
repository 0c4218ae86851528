//! Inference-batch driver.
//!
//! Simulates one batch through every MoE layer of a model under a
//! scheme from Figure 16 (Baseline, Ideal, Lina, and the two Lina
//! ablations). Inference is synchronous layer by layer — attention,
//! gate, (scheduling), dispatch all-to-all, per-device expert compute,
//! combine all-to-all, combine.
//!
//! Lina's phase one runs overlapped with the previous layer's expert
//! computation; only the part of the scheduling time that exceeds the
//! overlap window blocks. Phase two blocks for the resume broadcast or,
//! on a fine-tune, the full scheduling time (§6.2, §7.3.1).
//!
//! The heavy lifting lives in two layers underneath this entry point:
//! [`crate::plan::plan_batch`] lowers the batch's scheduling decisions
//! into an [`crate::plan::ExecutionPlan`], and
//! [`crate::exec::execute_plan_solo`] prices its stages with solo
//! (uncontended) collectives. `run_inference_batch` is the convenience
//! wrapper gluing the two with a fresh timer.

use lina_core::TwoPhaseScheduler;
use lina_model::CostModel;
use lina_netsim::{SoloTimer, Topology};
use lina_simcore::{Samples, SimDuration};
use lina_workload::TokenBatch;

use crate::exec::execute_plan_solo;
use crate::plan::plan_batch;

pub use lina_baselines::InferScheme;

/// Per-batch measurements.
#[derive(Clone, Debug)]
pub struct InferenceReport {
    /// End-to-end batch time.
    pub total: SimDuration,
    /// Per-layer MoE time (gate through combine, including scheduling).
    pub layer_times: Vec<SimDuration>,
    /// Per-layer all-to-all time (dispatch plus combine).
    pub a2a_times: Vec<SimDuration>,
    /// Layers where phase two fine-tuned the placement.
    pub finetunes: usize,
    /// Layers where an estimate was produced.
    pub estimates: usize,
    /// Layers where the estimate matched the actual top-2k.
    pub accurate: usize,
    /// Largest per-layer idle fraction of the least-loaded device
    /// (the §2.2 straggler measurement).
    pub max_idle_frac: f64,
}

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct InferenceConfig {
    /// Scheme under test.
    pub scheme: InferScheme,
    /// Gate fan-out (1 in the paper's inference).
    pub top_k: usize,
}

/// Runs one batch under the scheme; `scheduler` is required for the
/// Lina schemes and ignored by Baseline/Ideal.
///
/// Equivalent to lowering with [`plan_batch`] and pricing with
/// [`execute_plan_solo`] on a fresh timer; callers running many batches
/// should do that themselves and reuse the timer (as
/// [`run_inference_batches`] does).
///
/// # Panics
///
/// Panics if a Lina scheme is requested without a scheduler.
pub fn run_inference_batch(
    cost: &CostModel,
    topo: &Topology,
    config: &InferenceConfig,
    scheduler: Option<&TwoPhaseScheduler>,
    batch: &TokenBatch,
) -> InferenceReport {
    let plan = plan_batch(cost, topo, config, scheduler, batch);
    execute_plan_solo(&plan, &mut SoloTimer::new(topo))
}

/// Aggregated inference statistics over many batches.
pub struct InferenceSummary {
    /// End-to-end batch times (seconds).
    pub totals: Samples,
    /// All per-layer MoE times pooled.
    pub layer_times: Samples,
    /// All per-layer all-to-all times pooled.
    pub a2a_times: Samples,
    /// Layers where phase one produced an estimate, summed over
    /// batches. Zero for the schemes that never estimate (Baseline,
    /// Ideal, w/o estimation) — the rate accessors return `None` then,
    /// so "never estimated" is distinguishable from "estimated and
    /// always resumed".
    pub estimates: usize,
    /// Estimated layers that phase two fine-tuned.
    pub finetunes: usize,
    /// Estimated layers whose estimate matched the actual top-2k.
    pub accurate: usize,
}

impl InferenceSummary {
    /// Fraction of estimated layers that were fine-tuned, or `None` if
    /// no estimates were made.
    pub fn finetune_rate(&self) -> Option<f64> {
        (self.estimates > 0).then(|| self.finetunes as f64 / self.estimates as f64)
    }

    /// Fraction of estimated layers whose estimate matched, or `None`
    /// if no estimates were made.
    pub fn accuracy(&self) -> Option<f64> {
        (self.estimates > 0).then(|| self.accurate as f64 / self.estimates as f64)
    }
}

/// Runs many batches and aggregates.
pub fn run_inference_batches(
    cost: &CostModel,
    topo: &Topology,
    config: &InferenceConfig,
    scheduler: Option<&TwoPhaseScheduler>,
    batches: &[TokenBatch],
) -> InferenceSummary {
    let mut totals = Samples::new();
    let mut layer_times = Samples::new();
    let mut a2a_times = Samples::new();
    let mut finetunes = 0usize;
    let mut estimates = 0usize;
    let mut accurate = 0usize;
    let mut timer = SoloTimer::new(topo);
    for batch in batches {
        let plan = plan_batch(cost, topo, config, scheduler, batch);
        let r = execute_plan_solo(&plan, &mut timer);
        totals.push_duration(r.total);
        for &t in &r.layer_times {
            layer_times.push_duration(t);
        }
        for &t in &r.a2a_times {
            a2a_times.push_duration(t);
        }
        finetunes += r.finetunes;
        estimates += r.estimates;
        accurate += r.accurate;
    }
    InferenceSummary {
        totals,
        layer_times,
        a2a_times,
        estimates,
        finetunes,
        accurate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lina_core::{PopularityEstimator, TwoPhaseConfig};
    use lina_model::{DeviceSpec, MoeModelConfig};
    use lina_netsim::ClusterSpec;
    use lina_workload::{Mode, TokenSource, WorkloadSpec};

    fn setup() -> (CostModel, Topology, TwoPhaseScheduler, Vec<TokenBatch>) {
        let model = MoeModelConfig::transformer_xl(12, 16).for_inference();
        let topo = Topology::new(ClusterSpec::with_total_gpus(16));
        let cost = CostModel::new(DeviceSpec::a100_inference(), model);
        let spec = WorkloadSpec::enwik8(16, 12);
        let mut src = TokenSource::new(&spec, 1, 7);
        let profile: Vec<TokenBatch> = (0..8)
            .map(|_| src.sample_batch(16, 1024, Mode::Train))
            .collect();
        let estimator = PopularityEstimator::profile(&profile, 3);
        // Tests run a quarter of the paper's batch (4k tokens/device),
        // so the fixed scheduling overheads scale down accordingly.
        let mut cfg = TwoPhaseConfig::paper_defaults(16);
        cfg.schedule_time = SimDuration::from_micros(1550);
        cfg.resume_time = SimDuration::from_micros(360);
        let scheduler = TwoPhaseScheduler::new(cfg, estimator);
        let mut infer = TokenSource::new(&spec, 1, 1234);
        let batches: Vec<TokenBatch> = (0..6)
            .map(|_| infer.sample_batch(16, 4096, Mode::Inference))
            .collect();
        (cost, topo, scheduler, batches)
    }

    #[test]
    fn ideal_beats_baseline() {
        let (cost, topo, _, batches) = setup();
        let base = run_inference_batch(
            &cost,
            &topo,
            &InferenceConfig {
                scheme: InferScheme::Baseline,
                top_k: 1,
            },
            None,
            &batches[0],
        );
        let ideal = run_inference_batch(
            &cost,
            &topo,
            &InferenceConfig {
                scheme: InferScheme::Ideal,
                top_k: 1,
            },
            None,
            &batches[0],
        );
        assert!(
            ideal.total < base.total,
            "ideal {} >= baseline {}",
            ideal.total,
            base.total
        );
        assert!(base.max_idle_frac > 0.2, "skew should idle devices");
        assert!(ideal.max_idle_frac < 0.05, "ideal is balanced");
    }

    #[test]
    fn lina_between_ideal_and_baseline() {
        let (cost, topo, sched, batches) = setup();
        let run = |scheme| {
            run_inference_batches(
                &cost,
                &topo,
                &InferenceConfig { scheme, top_k: 1 },
                Some(&sched),
                &batches,
            )
        };
        let mut base = run(InferScheme::Baseline);
        let mut ideal = run(InferScheme::Ideal);
        let mut lina = run(InferScheme::Lina);
        let (b, i, l) = (
            base.totals.median(),
            ideal.totals.median(),
            lina.totals.median(),
        );
        assert!(l < b, "lina {l} >= baseline {b}");
        assert!(i <= l * 1.01, "ideal {i} > lina {l}");
    }

    #[test]
    fn lina_estimates_and_sometimes_finetunes() {
        let (cost, topo, sched, batches) = setup();
        let s = run_inference_batches(
            &cost,
            &topo,
            &InferenceConfig {
                scheme: InferScheme::Lina,
                top_k: 1,
            },
            Some(&sched),
            &batches,
        );
        let accuracy = s.accuracy().expect("lina estimates");
        let ft_rate = s.finetune_rate().expect("lina estimates");
        assert!(accuracy > 0.3, "accuracy {accuracy}");
        assert!(ft_rate < 0.9, "finetune rate {ft_rate}");
        // Fine-tuning triggers on *significant* deviations only, so it
        // fires at most as often as the strict accuracy metric misses.
        assert!(
            ft_rate <= (1.0 - accuracy) + 1e-9,
            "ft rate {ft_rate} vs inaccuracy {}",
            1.0 - accuracy
        );
    }

    #[test]
    fn no_estimation_is_slower_than_lina() {
        let (cost, topo, sched, batches) = setup();
        let run = |scheme| {
            run_inference_batches(
                &cost,
                &topo,
                &InferenceConfig { scheme, top_k: 1 },
                Some(&sched),
                &batches,
            )
        };
        let mut lina = run(InferScheme::Lina);
        let mut noest = run(InferScheme::LinaNoEstimation);
        assert!(
            noest.totals.median() > lina.totals.median(),
            "w/o estimation {} <= lina {}",
            noest.totals.median(),
            lina.totals.median()
        );
    }

    #[test]
    fn no_finetune_hurts_tail_more_than_median() {
        let (cost, topo, sched, batches) = setup();
        let run = |scheme| {
            run_inference_batches(
                &cost,
                &topo,
                &InferenceConfig { scheme, top_k: 1 },
                Some(&sched),
                &batches,
            )
        };
        let lina = run(InferScheme::Lina);
        let noft = run(InferScheme::LinaNoFinetune);
        // Without the check there is no resume cost, so the median can
        // even improve; but unchecked misestimates make the *relative*
        // per-layer tail worse than Lina's.
        let rel = |mut s: lina_simcore::Samples| s.p95() / s.median().max(1e-12);
        assert!(
            rel(noft.layer_times) >= rel(lina.layer_times) * 0.95,
            "w/o ft relative tail unexpectedly better than lina's"
        );
    }

    /// The w/o-fine-tuning ablation runs phase one like Lina but never
    /// phase two: on every batch where Lina fine-tunes, it makes the
    /// same estimates and reports no fine-tune.
    #[test]
    fn no_finetune_estimates_but_never_finetunes() {
        let (cost, topo, sched, batches) = setup();
        let run = |scheme, batch| {
            run_inference_batch(
                &cost,
                &topo,
                &InferenceConfig { scheme, top_k: 1 },
                Some(&sched),
                batch,
            )
        };
        let mut finetuned = 0;
        for batch in &batches {
            let lina = run(InferScheme::Lina, batch);
            if lina.finetunes == 0 {
                continue;
            }
            finetuned += 1;
            let noft = run(InferScheme::LinaNoFinetune, batch);
            assert_eq!(noft.estimates, lina.estimates);
            assert_eq!(noft.finetunes, 0);
        }
        assert!(finetuned > 0, "Lina fine-tuned no batch");
    }

    #[test]
    fn non_estimating_schemes_report_no_estimates() {
        let (cost, topo, sched, batches) = setup();
        for scheme in [
            InferScheme::Baseline,
            InferScheme::Ideal,
            InferScheme::LinaNoEstimation,
        ] {
            let s = run_inference_batches(
                &cost,
                &topo,
                &InferenceConfig { scheme, top_k: 1 },
                Some(&sched),
                &batches[..1],
            );
            assert_eq!(s.estimates, 0, "{scheme:?}");
            assert_eq!(s.accuracy(), None, "{scheme:?}");
            assert_eq!(s.finetune_rate(), None, "{scheme:?}");
        }
    }

    #[test]
    fn report_shapes() {
        let (cost, topo, sched, batches) = setup();
        let r = run_inference_batch(
            &cost,
            &topo,
            &InferenceConfig {
                scheme: InferScheme::Lina,
                top_k: 1,
            },
            Some(&sched),
            &batches[0],
        );
        assert_eq!(r.layer_times.len(), 12);
        assert_eq!(r.a2a_times.len(), 12);
        // Estimation covers layers l..layers-1 = 3..=11.
        assert_eq!(r.estimates, 9);
        assert!(r.total > SimDuration::ZERO);
    }

    /// Regression: a batch with fewer tokens than devices used to get
    /// `tokens_per_device = 0` from floor division and thus zero
    /// attention/gate/combine cost. The busiest device's share is now
    /// a ceiling, so even a 1-token batch pays for the non-MoE ops.
    #[test]
    fn sub_device_count_batch_pays_non_moe_cost() {
        let model = MoeModelConfig::transformer_xl(6, 8).for_inference();
        let topo = Topology::new(ClusterSpec::with_total_gpus(8));
        let cost = CostModel::new(DeviceSpec::a100_inference(), model);
        let spec = WorkloadSpec::enwik8(8, 6);
        let mut src = TokenSource::new(&spec, 1, 99);
        // One request of a single token on 8 devices.
        let tiny = TokenBatch {
            tokens: src.sample_batch(1, 1, Mode::Inference).tokens,
            devices: topo.devices(),
            experts: spec.experts,
        };
        assert!(tiny.len() < topo.devices());
        let config = InferenceConfig {
            scheme: InferScheme::Baseline,
            top_k: 1,
        };
        let r = run_inference_batch(&cost, &topo, &config, None, &tiny);
        // Attention runs outside the per-layer MoE accounting, so the
        // total in excess of the layer times is exactly the attention
        // cost. It must exceed the zero-token floor (the fixed kernel
        // overhead a `tokens_per_device = 0` run still pays): floor
        // division used to make a sub-device-count batch's attention,
        // gate, and combine token-free.
        let moe: SimDuration = r.layer_times.iter().copied().sum();
        let attention = r.total - moe;
        let zero_floor = cost.attention_fwd(0).mul_f64(cost.model.layers as f64);
        assert!(
            attention > zero_floor,
            "attention {attention} must carry real token cost (zero-token floor {zero_floor})"
        );
        // One token ceil-divided over 8 devices is one token on the
        // busiest device: the attention total is exactly that cost.
        let expected = cost.attention_fwd(1).mul_f64(cost.model.layers as f64);
        assert_eq!(attention, expected);
        // The gate + combine live inside layer_times; with one token
        // they must also be non-zero, so every layer time is positive.
        for (l, &t) in r.layer_times.iter().enumerate() {
            assert!(t > SimDuration::ZERO, "layer {l} is free");
        }
    }

    /// Batch cost is monotone in batch size: more tokens never cost
    /// less (remainder tokens used to be dropped from compute).
    #[test]
    fn batch_cost_is_monotone_in_batch_size() {
        let model = MoeModelConfig::transformer_xl(6, 8).for_inference();
        let topo = Topology::new(ClusterSpec::with_total_gpus(8));
        let cost = CostModel::new(DeviceSpec::a100_inference(), model);
        let spec = WorkloadSpec::enwik8(8, 6);
        let config = InferenceConfig {
            scheme: InferScheme::Baseline,
            top_k: 1,
        };
        let mut src = TokenSource::new(&spec, 1, 42);
        // One growing token pool, truncated to nested prefixes: batch
        // k's tokens are a superset of batch k-1's.
        let pool = src.sample_batch(1, 64, Mode::Inference).tokens;
        let mut prev = SimDuration::ZERO;
        for n in [1usize, 2, 5, 8, 9, 16, 33, 64] {
            let batch = TokenBatch {
                tokens: pool[..n].to_vec(),
                devices: topo.devices(),
                experts: spec.experts,
            };
            let r = run_inference_batch(&cost, &topo, &config, None, &batch);
            assert!(
                r.total >= prev,
                "cost not monotone: {n} tokens cost {} < smaller batch {}",
                r.total,
                prev
            );
            prev = r.total;
        }
    }

    #[test]
    #[should_panic(expected = "requires a scheduler")]
    fn lina_without_scheduler_panics() {
        let (cost, topo, _, batches) = setup();
        run_inference_batch(
            &cost,
            &topo,
            &InferenceConfig {
                scheme: InferScheme::Lina,
                top_k: 1,
            },
            None,
            &batches[0],
        );
    }
}
