//! Operation graphs.
//!
//! A training step compiles to a DAG of *compute ops* (pinned to a
//! device, with a duration from the cost model) and *communication ops*
//! (a collective spec plus metadata the scheduler keys on). The runner
//! executes the DAG over the network simulator; scheduling policies only
//! decide the admission order of communication ops — exactly the control
//! a real communication scheduler has over NCCL.

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

/// Metadata attached to a communication op.
#[derive(Clone, Copy, Debug)]
pub struct CommMeta {
    /// Class of the operation.
    pub class: CommClass,
    /// Model layer the op belongs to.
    pub layer: usize,
    /// Chunk index when the tensor is partitioned into micro-ops.
    pub chunk: usize,
    /// Total chunks of the parent tensor (1 = not partitioned).
    pub nchunks: usize,
    /// Payload bytes per participating device (for diagnostics).
    pub bytes_per_device: f64,
    /// True for backward-pass communication.
    pub backward: bool,
    /// Identifier of the logical operation this micro-op belongs to
    /// (chunks of one partitioned tensor share it).
    pub op_index: usize,
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
    /// A collective communication operation.
    Comm {
        /// What to launch on the network.
        spec: CollectiveSpec,
        /// Scheduling metadata.
        meta: CommMeta,
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
    /// Human-readable label for timelines.
    pub label: String,
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

    /// Convenience: adds an untagged compute op.
    pub fn add_compute(
        &mut self,
        device: DeviceId,
        duration: SimDuration,
        span: SpanKind,
        deps: Vec<OpId>,
        label: impl Into<String>,
    ) -> OpId {
        self.add_compute_tagged(device, duration, span, deps, None, false, label)
    }

    /// Adds a compute op tagged with its layer and pass direction.
    #[allow(clippy::too_many_arguments)]
    pub fn add_compute_tagged(
        &mut self,
        device: DeviceId,
        duration: SimDuration,
        span: SpanKind,
        deps: Vec<OpId>,
        layer: Option<usize>,
        backward: bool,
        label: impl Into<String>,
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
            label: label.into(),
        })
    }

    /// Convenience: adds a communication op (layer/direction tags come
    /// from the meta).
    pub fn add_comm(
        &mut self,
        spec: CollectiveSpec,
        meta: CommMeta,
        deps: Vec<OpId>,
        label: impl Into<String>,
    ) -> OpId {
        self.add(Op {
            deps,
            kind: OpKind::Comm { spec, meta },
            layer: Some(meta.layer),
            backward: meta.backward,
            label: label.into(),
        })
    }

    /// Ids of comm ops of a class.
    pub fn comm_ops(&self, class: CommClass) -> Vec<OpId> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(&op.kind, OpKind::Comm { meta, .. } if meta.class == class))
            .map(|(i, _)| OpId(i as u32))
            .collect()
    }

    /// Total compute duration charged to a device (serial sum).
    pub fn compute_time_on(&self, device: DeviceId) -> SimDuration {
        self.ops
            .iter()
            .filter_map(|op| match &op.kind {
                OpKind::Compute {
                    device: d,
                    duration,
                    ..
                } if *d == device => Some(*duration),
                _ => None,
            })
            .sum()
    }

    /// Validates structural invariants: all dependency edges point
    /// backwards (acyclicity) and every op has a well-formed payload
    /// (a comm op's chunk is in range and its class names its spec's
    /// collective). Returns the number of edges checked.
    pub fn validate(&self) -> usize {
        let mut edges = 0;
        for (i, op) in self.ops.iter().enumerate() {
            for d in &op.deps {
                assert!((d.0 as usize) < i, "op {i} depends forward on {:?}", d);
                edges += 1;
            }
            if let OpKind::Comm { spec, meta } = &op.kind {
                assert!(meta.chunk < meta.nchunks, "op {i}: chunk out of range");
                let agrees = match meta.class {
                    CommClass::AllToAll => matches!(spec, CollectiveSpec::AllToAll { .. }),
                    CommClass::Allreduce => matches!(spec, CollectiveSpec::AllReduce { .. }),
                };
                assert!(
                    agrees,
                    "op {i}: {:?} op carries another collective's spec",
                    meta.class
                );
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lina_netsim::AllToAllAlgo;

    fn comm_meta() -> CommMeta {
        CommMeta {
            class: CommClass::AllToAll,
            layer: 0,
            chunk: 0,
            nchunks: 1,
            bytes_per_device: 1.0,
            backward: false,
            op_index: 0,
        }
    }

    #[test]
    fn build_and_validate() {
        let mut g = OpGraph::new();
        let a = g.add_compute(
            DeviceId(0),
            SimDuration::from_millis(1),
            SpanKind::Attention,
            vec![],
            "attn",
        );
        let b = g.add_comm(
            CollectiveSpec::uniform_all_to_all(
                vec![DeviceId(0), DeviceId(1)],
                10.0,
                AllToAllAlgo::Flat,
            ),
            comm_meta(),
            vec![a],
            "a2a",
        );
        let _c = g.add_compute(
            DeviceId(1),
            SimDuration::from_millis(2),
            SpanKind::ExpertFfn,
            vec![b],
            "ffn",
        );
        assert_eq!(g.len(), 3);
        assert_eq!(g.validate(), 2);
        assert_eq!(g.comm_ops(CommClass::AllToAll), vec![OpId(1)]);
        assert!(g.comm_ops(CommClass::Allreduce).is_empty());
    }

    #[test]
    fn compute_time_sums_per_device() {
        let mut g = OpGraph::new();
        g.add_compute(
            DeviceId(0),
            SimDuration::from_millis(1),
            SpanKind::Gate,
            vec![],
            "",
        );
        g.add_compute(
            DeviceId(0),
            SimDuration::from_millis(2),
            SpanKind::Combine,
            vec![],
            "",
        );
        g.add_compute(
            DeviceId(1),
            SimDuration::from_millis(5),
            SpanKind::Gate,
            vec![],
            "",
        );
        assert_eq!(g.compute_time_on(DeviceId(0)), SimDuration::from_millis(3));
        assert_eq!(g.compute_time_on(DeviceId(1)), SimDuration::from_millis(5));
        assert_eq!(g.compute_time_on(DeviceId(2)), SimDuration::ZERO);
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
            "bad",
        );
    }

    #[test]
    #[should_panic(expected = "carries another collective's spec")]
    fn validate_rejects_a_class_its_spec_disagrees_with() {
        let mut g = OpGraph::new();
        g.add_comm(
            CollectiveSpec::AllReduce {
                participants: vec![DeviceId(0), DeviceId(1)],
                bytes: 10.0,
            },
            comm_meta(),
            vec![],
            "a2a",
        );
        g.validate();
    }
}
