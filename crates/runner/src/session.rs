//! Multi-step training sessions with Lina's online packing controller.
//!
//! §6.1: "Expert packing is dynamically adjusted after 10 training
//! steps. In the forward pass, the controller records the completion
//! times of all-to-all and FFN micro-ops. When FFN micro-ops are
//! shorter than all-to-all, the controller starts to pack experts" —
//! re-evaluated every four steps, with a one-time synchronous expert-
//! parameter exchange charged when the packing changes.

use lina_baselines::TrainScheme;
use lina_core::{PackingController, PackingDecision, PackingObservation};
use lina_model::{BatchShape, CommClass, CostModel, OpKind};
use lina_netsim::{AllToAllAlgo, CollectiveSpec, SoloTimer, Topology};
use lina_simcore::{SimDuration, SpanKind};

use crate::train::{run_train_step, StepMetrics};

/// Configuration of a training session.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Steps to simulate.
    pub steps: usize,
    /// Step at which the controller first adjusts (paper: 10).
    pub warmup_steps: usize,
    /// Re-evaluation period after warm-up (paper: 4).
    pub adjust_every: usize,
    /// Base seed; each step jitters independently.
    pub seed: u64,
}

impl SessionConfig {
    /// The paper's settings at a reduced step count.
    pub fn paper_defaults(steps: usize) -> Self {
        SessionConfig {
            steps,
            warmup_steps: 10,
            adjust_every: 4,
            seed: 1,
        }
    }
}

/// Outcome of a session.
pub struct SessionReport {
    /// Per-step metrics, in order.
    pub steps: Vec<StepMetrics>,
    /// Experts per device over time (entry per step).
    pub packing_trace: Vec<usize>,
    /// Total one-time parameter-exchange cost charged by repacking.
    pub repack_cost: SimDuration,
    /// The converged packing degree.
    pub final_packing: usize,
}

/// Measures the FFN and all-to-all micro-op completion times of a step
/// (the controller's §6.1 observables).
fn observe(run: &crate::train::StepRun) -> PackingObservation {
    let mut ffn_total = SimDuration::ZERO;
    let mut ffn_n = 0u64;
    let mut a2a_total = SimDuration::ZERO;
    let mut a2a_n = 0u64;
    for (op, s, e) in run.exec.executed(&run.graph) {
        match &op.kind {
            OpKind::Compute { span, .. } if *span == SpanKind::ExpertFfn && !op.backward => {
                ffn_total += e - s;
                ffn_n += 1;
            }
            _ if op.comm_class() == Some(CommClass::AllToAll) && !op.backward => {
                a2a_total += e - s;
                a2a_n += 1;
            }
            _ => {}
        }
    }
    PackingObservation {
        ffn_micro: if ffn_n == 0 {
            SimDuration::ZERO
        } else {
            ffn_total / ffn_n
        },
        a2a_micro: if a2a_n == 0 {
            SimDuration::MAX
        } else {
            a2a_total / a2a_n
        },
    }
}

/// One-time cost of redistributing expert parameters when the packing
/// grows: a synchronous all-to-all of the newly hosted expert weights
/// (§6.1's "one-time synchronous all-to-all to exchange expert
/// parameters").
fn repack_exchange_cost(
    cost: &CostModel,
    topo: &Topology,
    old_per_device: usize,
    new_per_device: usize,
) -> SimDuration {
    let added = new_per_device.saturating_sub(old_per_device);
    if added == 0 {
        return SimDuration::ZERO;
    }
    let bytes = cost.model.expert_bytes() * cost.model.layers as f64 * added as f64;
    let per_pair = bytes / topo.devices() as f64;
    let spec = CollectiveSpec::uniform_all_to_all(
        topo.device_ids().collect(),
        per_pair,
        AllToAllAlgo::Flat,
    );
    SoloTimer::new(topo).time(&spec)
}

/// Runs a Lina training session: baseline micro-op scheduling from step
/// 0, with the packing controller warmed up and adjusting on the
/// paper's schedule. Returns per-step metrics and the packing trace.
pub fn run_lina_session(
    cost: &CostModel,
    topo: &Topology,
    batch: BatchShape,
    config: &SessionConfig,
) -> SessionReport {
    let experts = cost.model.experts;
    let mut controller = PackingController::new(experts);
    let mut steps = Vec::with_capacity(config.steps);
    let mut packing_trace = Vec::with_capacity(config.steps);
    let mut repack_cost = SimDuration::ZERO;
    let mut last_adjust = config.warmup_steps;
    for step in 0..config.steps {
        let per_device = controller.experts_per_device();
        let scheme = TrainScheme::Lina {
            experts_per_device: per_device,
        };
        let run = run_train_step(cost, topo, batch, scheme, config.seed + step as u64);
        packing_trace.push(per_device);
        let due = step + 1 >= config.warmup_steps
            && (step + 1 == config.warmup_steps || step + 1 >= last_adjust + config.adjust_every);
        if due {
            last_adjust = step + 1;
            let obs = observe(&run);
            let before = controller.experts_per_device();
            if controller.decide(obs) == PackingDecision::Grow {
                repack_cost +=
                    repack_exchange_cost(cost, topo, before, controller.experts_per_device());
            }
        }
        steps.push(run.metrics);
    }
    SessionReport {
        steps,
        packing_trace,
        repack_cost,
        final_packing: controller.experts_per_device(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lina_model::{DeviceSpec, MoeModelConfig};
    use lina_netsim::ClusterSpec;

    fn setup(experts: usize) -> (CostModel, Topology, BatchShape) {
        let model = MoeModelConfig::transformer_xl(4, experts);
        let topo = Topology::new(ClusterSpec::with_total_gpus(experts));
        let batch = BatchShape {
            seqs_per_device: 64,
            seq_len: model.seq_len,
        };
        (CostModel::new(DeviceSpec::a100(), model), topo, batch)
    }

    #[test]
    fn controller_grows_packing_and_speeds_up() {
        let (cost, topo, batch) = setup(16);
        let config = SessionConfig {
            steps: 20,
            warmup_steps: 4,
            adjust_every: 2,
            seed: 3,
        };
        let report = run_lina_session(&cost, &topo, batch, &config);
        assert_eq!(report.steps.len(), 20);
        assert_eq!(report.packing_trace[0], 1);
        assert!(
            report.final_packing > 1,
            "controller never packed: trace {:?}",
            report.packing_trace
        );
        // Post-convergence steps are faster than the unpacked start.
        let first = report.steps[0].step_time;
        let last = report.steps.last().expect("steps").step_time;
        assert!(
            last < first,
            "packing did not pay off: first {first}, last {last}"
        );
        assert!(report.repack_cost > SimDuration::ZERO);
    }

    #[test]
    fn packing_trace_is_monotone() {
        let (cost, topo, batch) = setup(8);
        let config = SessionConfig {
            steps: 14,
            warmup_steps: 3,
            adjust_every: 2,
            seed: 5,
        };
        let report = run_lina_session(&cost, &topo, batch, &config);
        for w in report.packing_trace.windows(2) {
            assert!(w[1] >= w[0], "packing shrank: {:?}", report.packing_trace);
        }
        assert!(report.final_packing <= 8);
    }

    #[test]
    fn two_expert_session_converges_to_full_replication() {
        let (cost, topo, batch) = setup(2);
        let config = SessionConfig {
            steps: 10,
            warmup_steps: 2,
            adjust_every: 1,
            seed: 7,
        };
        let report = run_lina_session(&cost, &topo, batch, &config);
        assert_eq!(
            report.final_packing, 2,
            "2-expert case should replicate fully"
        );
        // Once fully packed there is no all-to-all left.
        assert_eq!(
            report.steps.last().expect("steps").a2a_total,
            SimDuration::ZERO
        );
    }
}
