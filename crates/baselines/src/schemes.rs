//! Named end-to-end schemes: a policy plus graph-construction options.
//!
//! These are the systems and ablations the evaluation compares:
//! Figure 10's Baseline (DeepSpeed) / Tutel / Lina, and Figure 14's
//! incremental design points (priority, +partitioning, +pipelining,
//! fixed).

use lina_core::CommPolicy;
use lina_model::{A2aChunking, ExpertPlacement, GradCommMode, TrainStepOptions};

/// The training systems/ablations under evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrainScheme {
    /// DeepSpeed MoE: fair-share streams, DDP bucketing, whole-tensor
    /// flat all-to-all.
    Baseline,
    /// Tutel-like: adds modest all-to-all chunking with FFN overlap but
    /// keeps uncoordinated streams (performs close to Baseline, per the
    /// paper).
    Tutel,
    /// Figure 14 "fixed": allreduce between all-to-all pairs, fused
    /// tensors.
    Fixed,
    /// Figure 14 "priority": strict priority only, fused tensors.
    PriorityOnly,
    /// Figure 14 "+tensor partitioning": priority with Lina's
    /// partitioned micro-ops, no pipelining.
    PriorityPartition,
    /// Full communication scheduler (priority + partitioning +
    /// pipelining) with one expert per device (packing ablated).
    LinaNoPack,
    /// Complete Lina, with the given experts-per-device packing.
    Lina {
        /// Experts packed per device (the controller's outcome).
        experts_per_device: usize,
    },
}

impl TrainScheme {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            TrainScheme::Baseline => "baseline",
            TrainScheme::Tutel => "tutel",
            TrainScheme::Fixed => "fixed",
            TrainScheme::PriorityOnly => "priority",
            TrainScheme::PriorityPartition => "priority+partition",
            TrainScheme::LinaNoPack => "lina-nopack",
            TrainScheme::Lina { .. } => "lina",
        }
    }

    /// The communication policy of one step. Boxed only because the
    /// benchmark calls `execute(.., policy.as_mut())`; other callers
    /// pass `&scheme.policy()`.
    pub fn policy(&self) -> Box<CommPolicy> {
        Box::new(match self {
            TrainScheme::Baseline | TrainScheme::Tutel => CommPolicy::FairShare,
            TrainScheme::Fixed => CommPolicy::Fixed,
            TrainScheme::PriorityOnly => CommPolicy::NaivePriority,
            TrainScheme::PriorityPartition | TrainScheme::LinaNoPack | TrainScheme::Lina { .. } => {
                CommPolicy::Lina
            }
        })
    }

    /// Graph-construction options for a model with `experts` experts on
    /// a cluster topology with `devices` devices.
    ///
    /// # Panics
    ///
    /// Panics if a Lina packing degree is zero.
    pub fn step_options(&self, experts: usize, topo: &lina_netsim::Topology) -> TrainStepOptions {
        let devices = topo.devices();
        let baseline = || TrainStepOptions::baseline(experts, devices);
        match self {
            TrainScheme::Baseline | TrainScheme::Fixed | TrainScheme::PriorityOnly => baseline(),
            // Tutel overlaps all-to-all with expert compute in two halves.
            TrainScheme::Tutel => TrainStepOptions {
                a2a_chunking: A2aChunking::Count(2),
                pipeline_ffn: true,
                ..baseline()
            },
            TrainScheme::PriorityPartition => TrainStepOptions {
                grad_comm: GradCommMode::Partitioned { chunk_bytes: 30e6 },
                ..baseline()
            },
            TrainScheme::LinaNoPack => {
                TrainStepOptions::lina(ExpertPlacement::one_per_device(experts, devices))
            }
            TrainScheme::Lina { experts_per_device } => {
                assert!(*experts_per_device > 0, "Lina scheme: zero packing");
                TrainStepOptions::lina(ExpertPlacement::packed(experts, topo, *experts_per_device))
            }
        }
    }
}

/// The inference schemes of Figure 16.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InferScheme {
    /// DeepSpeed MoE: static one-expert-per-device placement.
    Baseline,
    /// Perfectly balanced gate output on the static placement (lower
    /// bound; the paper modifies the gate to emit balanced selections).
    Ideal,
    /// Full Lina: two-phase scheduling with estimation and fine-tuning.
    Lina,
    /// Lina w/o estimation: reactive scheduling from the actual routing
    /// at every layer (blocks each layer on the scheduler).
    LinaNoEstimation,
    /// Lina w/o fine-tuning: trusts the estimate blindly.
    LinaNoFinetune,
}

impl InferScheme {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            InferScheme::Baseline => "baseline",
            InferScheme::Ideal => "ideal",
            InferScheme::Lina => "lina",
            InferScheme::LinaNoEstimation => "lina w/o est",
            InferScheme::LinaNoFinetune => "lina w/o ft",
        }
    }

    /// All schemes, for sweeps.
    pub fn all() -> [InferScheme; 5] {
        [
            InferScheme::Baseline,
            InferScheme::Ideal,
            InferScheme::Lina,
            InferScheme::LinaNoEstimation,
            InferScheme::LinaNoFinetune,
        ]
    }

    /// Plans through the two-phase scheduler: the three Lina schemes.
    pub fn needs_scheduler(&self) -> bool {
        matches!(
            self,
            InferScheme::Lina | InferScheme::LinaNoEstimation | InferScheme::LinaNoFinetune
        )
    }

    /// Estimates each next layer's popularity ahead of its gate (phase
    /// one), so a serving run re-profiles the estimator online: Lina
    /// and Lina w/o fine-tuning.
    pub fn estimates(&self) -> bool {
        matches!(self, InferScheme::Lina | InferScheme::LinaNoFinetune)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lina_netsim::{ClusterSpec, Topology};

    #[test]
    fn scheme_options_are_consistent() {
        let topo = Topology::new(ClusterSpec::paper_testbed());
        for scheme in [
            TrainScheme::Baseline,
            TrainScheme::Tutel,
            TrainScheme::Fixed,
            TrainScheme::PriorityOnly,
            TrainScheme::PriorityPartition,
            TrainScheme::LinaNoPack,
            TrainScheme::Lina {
                experts_per_device: 2,
            },
        ] {
            let opts = scheme.step_options(16, &topo);
            assert!(opts.placement.is_complete(), "{}", scheme.name());
            let _ = scheme.policy();
        }
    }

    #[test]
    fn baseline_uses_buckets_lina_partitions() {
        let topo = Topology::new(ClusterSpec::paper_testbed());
        let b = TrainScheme::Baseline.step_options(16, &topo);
        assert!(matches!(b.grad_comm, GradCommMode::Bucketed { .. }));
        assert!(matches!(b.a2a_chunking, A2aChunking::Whole));
        let l = TrainScheme::Lina {
            experts_per_device: 2,
        }
        .step_options(16, &topo);
        assert!(matches!(l.grad_comm, GradCommMode::Partitioned { .. }));
        assert!(matches!(l.a2a_chunking, A2aChunking::FixedBytes(_)));
        assert!(l.pipeline_ffn);
    }

    #[test]
    fn lina_packing_replicates() {
        let topo = Topology::new(ClusterSpec::paper_testbed());
        let l = TrainScheme::Lina {
            experts_per_device: 2,
        }
        .step_options(16, &topo);
        assert_eq!(l.placement.total_replicas(), 32);
    }

    #[test]
    fn scheme_policies() {
        assert_eq!(*TrainScheme::Baseline.policy(), CommPolicy::FairShare);
        assert_eq!(
            *TrainScheme::PriorityOnly.policy(),
            CommPolicy::NaivePriority
        );
        assert_eq!(*TrainScheme::Fixed.policy(), CommPolicy::Fixed);
        assert_eq!(
            *TrainScheme::Lina {
                experts_per_device: 2
            }
            .policy(),
            CommPolicy::Lina
        );
    }

    #[test]
    fn infer_scheme_roster() {
        let names: Vec<&str> = InferScheme::all().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 5);
    }
}
