//! Operation graphs.
//!
//! A training step compiles to a DAG of *compute ops* (pinned to a
//! device, with a duration from the cost model) and *communication ops*
//! (a collective spec plus the logical operation it is a chunk of). The
//! runner executes the DAG over the network simulator; scheduling
//! policies only decide the admission order of communication ops —
//! exactly the control a real communication scheduler has over NCCL.

use lina_netsim::{CollectiveSpec, DeviceId};
use lina_simcore::{SimDuration, SpanKind};

/// Index of an op within its graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId(pub u32);

/// Communication class, the granularity at which priorities apply.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CommClass {
    /// Expert-parallel all-to-all (blocking for the compute stream).
    AllToAll,
    /// Data-parallel gradient allreduce (asynchronous wrt compute).
    Allreduce,
}

/// What an op does.
#[derive(Clone, Debug)]
pub enum OpKind {
    /// Computation on one device.
    Compute {
        /// Device the kernel runs on.
        device: DeviceId,
        /// Kernel duration.
        duration: SimDuration,
        /// Category for the timeline.
        span: SpanKind,
    },
    /// A collective communication operation; its spec's collective is
    /// its stream ([`Op::comm_class`]).
    Comm {
        /// What to launch on the network.
        spec: CollectiveSpec,
        /// The logical operation this micro-op is a chunk of (chunks of
        /// one partitioned tensor share it).
        logical: usize,
    },
}

/// One node of the DAG.
#[derive(Clone, Debug)]
pub struct Op {
    /// Ops that must complete before this one starts.
    pub deps: Vec<OpId>,
    /// Payload.
    pub kind: OpKind,
    /// Model layer this op belongs to, if any.
    pub layer: Option<usize>,
    /// True for backward-pass work.
    pub backward: bool,
}

impl Op {
    /// The stream a comm op runs on, named by its spec's collective;
    /// `None` for compute.
    pub fn comm_class(&self) -> Option<CommClass> {
        match &self.kind {
            OpKind::Compute { .. } => None,
            OpKind::Comm { spec, .. } => Some(match spec {
                CollectiveSpec::AllToAll { .. } => CommClass::AllToAll,
                CollectiveSpec::AllReduce { .. } => CommClass::Allreduce,
            }),
        }
    }

    /// True for the work of an MoE layer's window, gate through
    /// combine: gate, expert FFN and combine compute, and all-to-all.
    pub fn in_moe_window(&self) -> bool {
        match &self.kind {
            OpKind::Compute { span, .. } => {
                matches!(
                    span,
                    SpanKind::Gate | SpanKind::ExpertFfn | SpanKind::Combine
                )
            }
            OpKind::Comm { .. } => self.comm_class() == Some(CommClass::AllToAll),
        }
    }
}

/// A dependency graph of ops. Construction is append-only and an op may
/// only depend on previously added ops, so the graph is acyclic by
/// construction and id order is a topological order.
#[derive(Clone, Debug, Default)]
pub struct OpGraph {
    ops: Vec<Op>,
}

impl OpGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the graph has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The ops, indexable by [`OpId`].
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Access one op.
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.0 as usize]
    }

    /// Adds an op.
    ///
    /// # Panics
    ///
    /// Panics if a dependency references an op not yet added (which
    /// would create a cycle or dangling edge).
    pub fn add(&mut self, op: Op) -> OpId {
        let id = OpId(self.ops.len() as u32);
        for d in &op.deps {
            assert!(d.0 < id.0, "OpGraph::add: dependency {:?} not yet added", d);
        }
        self.ops.push(op);
        id
    }

    /// Adds a compute op tagged with its layer and pass direction.
    pub fn add_compute(
        &mut self,
        device: DeviceId,
        duration: SimDuration,
        span: SpanKind,
        deps: Vec<OpId>,
        layer: Option<usize>,
        backward: bool,
    ) -> OpId {
        self.add(Op {
            deps,
            kind: OpKind::Compute {
                device,
                duration,
                span,
            },
            layer,
            backward,
        })
    }

    /// Adds a communication op, a chunk of logical operation `logical`
    /// of `layer`.
    pub fn add_comm(
        &mut self,
        spec: CollectiveSpec,
        logical: usize,
        layer: usize,
        backward: bool,
        deps: Vec<OpId>,
    ) -> OpId {
        self.add(Op {
            deps,
            kind: OpKind::Comm { spec, logical },
            layer: Some(layer),
            backward,
        })
    }

    /// Ids of comm ops of a class.
    pub fn comm_ops(&self, class: CommClass) -> Vec<OpId> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.comm_class() == Some(class))
            .map(|(i, _)| OpId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lina_netsim::AllToAllAlgo;

    #[test]
    fn build_and_validate() {
        let mut g = OpGraph::new();
        let a = g.add_compute(
            DeviceId(0),
            SimDuration::from_millis(1),
            SpanKind::Attention,
            vec![],
            None,
            false,
        );
        let b = g.add_comm(
            CollectiveSpec::uniform_all_to_all(
                vec![DeviceId(0), DeviceId(1)],
                10.0,
                AllToAllAlgo::Flat,
            ),
            0,
            0,
            false,
            vec![a],
        );
        let c = g.add_comm(
            CollectiveSpec::AllReduce {
                participants: vec![DeviceId(0), DeviceId(1)],
                bytes: 10.0,
            },
            1,
            0,
            true,
            vec![b],
        );
        assert_eq!(g.len(), 3);
        assert_eq!(g.comm_ops(CommClass::AllToAll), vec![b]);
        assert_eq!(g.comm_ops(CommClass::Allreduce), vec![c]);
        assert_eq!(g.op(a).comm_class(), None);
        assert!(g.op(b).in_moe_window() && !g.op(c).in_moe_window());
        assert!(!g.op(a).in_moe_window());
    }

    #[test]
    #[should_panic(expected = "not yet added")]
    fn forward_dependency_panics() {
        let mut g = OpGraph::new();
        g.add_compute(
            DeviceId(0),
            SimDuration::ZERO,
            SpanKind::Attention,
            vec![OpId(5)],
            None,
            false,
        );
    }
}
