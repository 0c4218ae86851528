//! Lina's two-phase inference scheduling protocol (§5.2, §6.2).
//!
//! * **Phase one** runs right after the popularity estimate for the
//!   next layer is available (i.e. once the current layer's gate has
//!   fixed each token's path): it computes the estimation-based
//!   placement. All coordination piggybacks on the regular all-to-all
//!   and the ~6.2 ms of scheduling logic overlaps with the current
//!   layer's expert computation.
//! * **Phase two** runs after the next layer's gate produces the actual
//!   routing: the scheduler compares the estimated and actual top-2k
//!   expert sets. A match costs only a resume broadcast (~1.45 ms);
//!   a mismatch re-runs the placement with the actual popularity and
//!   blocks for the full scheduling time.

use lina_model::{ExpertPlacement, LayerRouting};
use lina_simcore::SimDuration;
use lina_workload::TokenPath;

use crate::inference::estimator::PopularityEstimator;
use crate::inference::placement::{popularity_placement, PlacementConfig};

/// Configuration of the two-phase scheduler.
#[derive(Clone, Debug)]
pub struct TwoPhaseConfig {
    /// Devices in the cluster.
    pub devices: usize,
    /// Gate fan-out `k` (1 in inference).
    pub top_k: usize,
    /// Maximum experts packed per device (paper: 4).
    pub max_experts_per_device: usize,
    /// Full scheduling-logic time (collect, decide, coordinate): the
    /// paper measures ~6.2 ms for either phase.
    pub schedule_time: SimDuration,
    /// Phase-two cost when no fine-tuning is needed (resume broadcast):
    /// ~1.45 ms.
    pub resume_time: SimDuration,
    /// Relative popularity excess a missed top-2k expert must show
    /// before phase two re-schedules (near-tie swaps leave the packing
    /// intact, per §7.3.2's error analysis).
    pub deviation_tolerance: f64,
}

impl TwoPhaseConfig {
    /// The paper's defaults for a cluster of `devices` devices.
    pub fn paper_defaults(devices: usize) -> Self {
        TwoPhaseConfig {
            devices,
            top_k: 1,
            max_experts_per_device: 4,
            schedule_time: SimDuration::from_micros(6200),
            resume_time: SimDuration::from_micros(1450),
            deviation_tolerance: 0.25,
        }
    }
}

/// Phase-one output: the placement to use for the next layer.
#[derive(Clone, Debug)]
pub struct PhaseOne {
    /// Estimation-based placement.
    pub placement: ExpertPlacement,
    /// The popularity estimate behind it (for the phase-two check).
    pub estimate: Vec<f64>,
}

/// Phase-two outcome.
#[derive(Clone, Debug, PartialEq)]
pub enum PhaseTwo {
    /// Estimate held: broadcast resume; keep the placement.
    Resume,
    /// Estimate deviated: re-scheduled placement from the actual
    /// popularity.
    Finetune(ExpertPlacement),
}

/// The two-phase scheduler. Stateless between layers apart from the
/// estimator tables.
#[derive(Clone, Debug)]
pub struct TwoPhaseScheduler {
    config: TwoPhaseConfig,
    estimator: PopularityEstimator,
}

impl TwoPhaseScheduler {
    /// Builds a scheduler from a profiled estimator.
    pub fn new(config: TwoPhaseConfig, estimator: PopularityEstimator) -> Self {
        TwoPhaseScheduler { config, estimator }
    }

    /// The configuration.
    pub fn config(&self) -> &TwoPhaseConfig {
        &self.config
    }

    /// The estimator.
    pub fn estimator(&self) -> &PopularityEstimator {
        &self.estimator
    }

    fn placement_config(&self) -> PlacementConfig {
        PlacementConfig {
            devices: self.config.devices,
            max_experts_per_device: self.config.max_experts_per_device,
        }
    }

    /// True once enough layers have been observed for estimation (Lina
    /// starts scheduling from the `l`-th layer).
    pub fn can_estimate(&self, next_layer: usize) -> bool {
        next_layer >= self.estimator.path_length()
    }

    /// Phase one for `next_layer`, using tokens' observed paths up to
    /// `next_layer - 1`. Returns `None` while the model is still within
    /// the first `l` layers (the "slower start" of Table 5).
    pub fn phase_one(&self, tokens: &[TokenPath], next_layer: usize) -> Option<PhaseOne> {
        if !self.can_estimate(next_layer) || next_layer == 0 {
            return None;
        }
        let estimate =
            self.estimator
                .estimate_popularity(tokens, next_layer - 1, self.config.top_k);
        if estimate.iter().all(|&v| v <= 0.0) {
            return None;
        }
        let placement = popularity_placement(&estimate, self.placement_config());
        Some(PhaseOne {
            placement,
            estimate,
        })
    }

    /// Phase two: checks the estimate against the actual popularity
    /// ([`LayerRouting::popularity`] of the gate's routing).
    pub fn phase_two(&self, phase_one: &PhaseOne, actual_pop: &[f64]) -> PhaseTwo {
        let two_k = (2 * self.config.top_k).min(actual_pop.len());
        if PopularityEstimator::deviates_too_far(
            &phase_one.estimate,
            actual_pop,
            two_k,
            self.config.deviation_tolerance,
        )
        .is_none()
        {
            PhaseTwo::Resume
        } else {
            PhaseTwo::Finetune(popularity_placement(actual_pop, self.placement_config()))
        }
    }

    /// Reactive scheduling from the actual routing (the w/o-estimation
    /// ablation): always blocks for the full schedule time.
    pub fn schedule_from_actual(&self, actual: &LayerRouting) -> ExpertPlacement {
        popularity_placement(&actual.popularity(), self.placement_config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lina_workload::{Mode, TokenBatch, TokenSource, WorkloadSpec};

    fn scheduler(l: usize) -> (TwoPhaseScheduler, TokenSource) {
        let spec = WorkloadSpec::enwik8(16, 12);
        let mut src = TokenSource::new(&spec, 1, 11);
        let batches: Vec<TokenBatch> = (0..8)
            .map(|_| src.sample_batch(16, 512, Mode::Train))
            .collect();
        let est = PopularityEstimator::profile(&batches, l);
        let cfg = TwoPhaseConfig::paper_defaults(16);
        (TwoPhaseScheduler::new(cfg, est), src)
    }

    #[test]
    fn no_estimation_before_l_layers() {
        let (s, mut src) = scheduler(3);
        let batch = src.sample_batch(16, 64, Mode::Inference);
        assert!(s.phase_one(&batch.tokens, 0).is_none());
        assert!(s.phase_one(&batch.tokens, 2).is_none());
        assert!(s.phase_one(&batch.tokens, 3).is_some());
    }

    #[test]
    fn phase_two_resumes_on_match() {
        let (s, mut src) = scheduler(3);
        let batch = src.sample_batch(16, 512, Mode::Inference);
        let next_layer = 7;
        let p1 = s.phase_one(&batch.tokens, next_layer).expect("estimable");
        let actual = batch.routing_for_layer(next_layer);
        match s.phase_two(&p1, &actual.popularity()) {
            PhaseTwo::Resume => {}
            PhaseTwo::Finetune(p) => {
                // A fine-tune must produce a complete placement.
                assert!(p.is_complete());
            }
        }
    }

    #[test]
    fn phase_two_finetunes_on_gross_mismatch() {
        let (s, mut src) = scheduler(3);
        let batch = src.sample_batch(16, 256, Mode::Inference);
        let p1 = s.phase_one(&batch.tokens, 6).expect("estimable");
        // Fabricate an actual routing concentrated on the expert the
        // estimate ranks last.
        let est_rank = crate::inference::estimator::top_indices(&p1.estimate, 16);
        let coldest = *est_rank.last().expect("16 experts");
        let mut actual = LayerRouting::empty(16, 16);
        for d in 0..16 {
            actual.counts[d][coldest] = 100;
        }
        match s.phase_two(&p1, &actual.popularity()) {
            PhaseTwo::Finetune(p) => {
                assert!(p.is_complete());
                assert!(
                    p.hosts[coldest].len() > 1,
                    "fine-tuned placement must replicate the hot expert"
                );
            }
            PhaseTwo::Resume => panic!("gross mismatch must trigger fine-tuning"),
        }
    }

    #[test]
    fn finetune_rate_reasonable_at_l3() {
        // Table 5: fine-tuning kicks in for ~26% of layers at l = 3 and
        // ~77% at l = 1. Verify the ordering and a sane range.
        let mut rates = Vec::new();
        for l in [1usize, 3] {
            let (s, _) = scheduler(l);
            let spec = WorkloadSpec::enwik8(16, 12);
            let mut infer = TokenSource::new(&spec, 1, 321);
            let mut finetunes = 0;
            let mut total = 0;
            for _ in 0..10 {
                let batch = infer.sample_batch(16, 256, Mode::Inference);
                for next_layer in l.max(1)..12 {
                    if let Some(p1) = s.phase_one(&batch.tokens, next_layer) {
                        let actual = batch.routing_for_layer(next_layer);
                        if matches!(
                            s.phase_two(&p1, &actual.popularity()),
                            PhaseTwo::Finetune(_)
                        ) {
                            finetunes += 1;
                        }
                        total += 1;
                    }
                }
            }
            rates.push(finetunes as f64 / total as f64);
        }
        assert!(
            rates[0] > rates[1],
            "l=1 fine-tune rate {} must exceed l=3 rate {}",
            rates[0],
            rates[1]
        );
        assert!(rates[1] < 0.8, "l=3 fine-tune rate {} too high", rates[1]);
    }
}
