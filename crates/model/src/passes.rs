//! Compiling a training step into an op graph.
//!
//! The builder lays out the forward and backward passes of an MoE model
//! under hybrid (data + expert) parallelism. The options encode the
//! *mechanisms* whose combinations the paper evaluates:
//!
//! * gradient communication as PyTorch-DDP-style fused **buckets**
//!   (baseline) or Lina's equal-sized **partitioned micro-ops**;
//! * all-to-all as a whole-tensor op (baseline) or **chunked micro-ops**,
//!   optionally **pipelined** with the expert FFN;
//! * an [`ExpertPlacement`] that replicates/packs experts, which shrinks
//!   or eliminates all-to-all traffic (Lina's expert packing).
//!
//! Which mechanisms a system uses is chosen by its scheme in
//! `lina-baselines`; this module only builds the DAG. Every all-to-all
//! is built with the flat algorithm.

// Device/layer indices address several parallel structures at once
// (op tails, dependency lists, `DeviceId`); zipped iterators would
// obscure that.
#![allow(clippy::needless_range_loop)]

use lina_netsim::{AllToAllAlgo, CollectiveSpec, DeviceId, Topology};
use lina_simcore::{Rng, SimDuration, SpanKind};

use crate::config::{BatchShape, MoeModelConfig};
use crate::cost::CostModel;
use crate::graph::{OpGraph, OpId};
use crate::routing::{assign_replicas, transpose, DispatchPlan, ExpertPlacement, LayerRouting};

/// Log-normal sigma applied to every compute duration (models kernel
/// time variance).
const JITTER_SIGMA: f64 = 0.03;

/// How non-expert gradients travel through allreduce.
#[derive(Clone, Copy, Debug)]
pub enum GradCommMode {
    /// Fuse consecutive gradients into buckets of roughly this many
    /// bytes (PyTorch DistributedDataParallel's behaviour).
    Bucketed {
        /// Bucket capacity in bytes (DDP default is 25 MiB).
        bucket_bytes: f64,
    },
    /// Partition every gradient tensor into equal chunks of at most
    /// this many bytes; one allreduce micro-op per chunk, never fusing
    /// across gradients (Lina §4.2).
    Partitioned {
        /// Partition size in bytes (the paper uses 30 MB).
        chunk_bytes: f64,
    },
}

/// How the all-to-all tensor is split into micro-ops.
#[derive(Clone, Copy, Debug)]
pub enum A2aChunking {
    /// One whole-tensor all-to-all (baseline).
    Whole,
    /// Micro-ops of at most this many bytes per device (Lina).
    FixedBytes(f64),
    /// A fixed number of equal micro-ops (Tutel-style two-way overlap).
    Count(usize),
}

/// Options controlling how the step graph is built.
#[derive(Clone, Debug)]
pub struct TrainStepOptions {
    /// Gradient allreduce granularity.
    pub grad_comm: GradCommMode,
    /// All-to-all micro-op granularity.
    pub a2a_chunking: A2aChunking,
    /// Pipeline expert FFN chunks with all-to-all micro-ops (requires
    /// chunking to have an effect).
    pub pipeline_ffn: bool,
    /// Expert-to-device placement (packing/replication).
    pub placement: ExpertPlacement,
    /// Seed for the compute-duration jitter stream.
    pub seed: u64,
}

impl TrainStepOptions {
    /// The DeepSpeed-like baseline: bucketed allreduce, whole-tensor
    /// all-to-all, one expert per device.
    pub fn baseline(experts: usize, devices: usize) -> Self {
        TrainStepOptions {
            grad_comm: GradCommMode::Bucketed {
                bucket_bytes: 25.0 * 1024.0 * 1024.0,
            },
            a2a_chunking: A2aChunking::Whole,
            pipeline_ffn: false,
            placement: ExpertPlacement::one_per_device(experts, devices),
            seed: 1,
        }
    }

    /// Lina's full configuration: partitioned micro-ops (30 MB),
    /// chunked + pipelined all-to-all, and the given packing.
    pub fn lina(placement: ExpertPlacement) -> Self {
        TrainStepOptions {
            grad_comm: GradCommMode::Partitioned { chunk_bytes: 30e6 },
            a2a_chunking: A2aChunking::FixedBytes(30e6),
            pipeline_ffn: true,
            placement,
            seed: 1,
        }
    }
}

/// Builder state for one training step.
struct StepBuilder<'a> {
    cost: &'a CostModel,
    topo: &'a Topology,
    opts: &'a TrainStepOptions,
    batch: BatchShape,
    graph: OpGraph,
    rng: Rng,
    /// The next logical comm operation's id.
    next_logical: usize,
}

impl<'a> StepBuilder<'a> {
    fn model(&self) -> &MoeModelConfig {
        &self.cost.model
    }

    fn devices(&self) -> usize {
        self.topo.devices()
    }

    fn jittered(&mut self, d: SimDuration) -> SimDuration {
        d.mul_f64(self.rng.jitter(JITTER_SIGMA))
    }

    /// Draws the id of a new logical comm operation.
    fn new_logical(&mut self) -> usize {
        self.next_logical += 1;
        self.next_logical - 1
    }

    /// Number of all-to-all micro-ops for a dispatch plan.
    fn a2a_chunks(&self, plan: &DispatchPlan) -> usize {
        match self.opts.a2a_chunking {
            A2aChunking::Whole => 1,
            A2aChunking::Count(n) => n.max(1),
            A2aChunking::FixedBytes(chunk_bytes) => {
                let max_send = (0..self.devices())
                    .map(|d| plan.sizes[d].iter().sum::<usize>())
                    .max()
                    .unwrap_or(0) as f64
                    * self.model().token_bytes();
                ((max_send / chunk_bytes).ceil() as usize).max(1)
            }
        }
    }

    /// Emits the all-to-all micro-ops for `sizes` (bytes), splitting into
    /// `nchunks`; returns one op id per chunk. `deps_per_chunk` gives
    /// each chunk its own dependencies (pipelining); a single entry is
    /// shared by all chunks. Returns an empty vec if there is no remote
    /// traffic at all (fully local dispatch).
    fn emit_a2a(
        &mut self,
        sizes: &[Vec<f64>],
        nchunks: usize,
        layer: usize,
        backward: bool,
        deps_per_chunk: &[Vec<OpId>],
    ) -> Vec<OpId> {
        let any_remote = sizes
            .iter()
            .enumerate()
            .any(|(i, row)| row.iter().enumerate().any(|(j, &b)| i != j && b > 0.0));
        if !any_remote {
            return Vec::new();
        }
        let participants: Vec<DeviceId> = self.topo.device_ids().collect();
        let logical = self.new_logical();
        let mut ids = Vec::with_capacity(nchunks);
        for chunk in 0..nchunks {
            let chunk_sizes: Vec<Vec<f64>> = sizes
                .iter()
                .map(|row| row.iter().map(|&b| b / nchunks as f64).collect())
                .collect();
            let spec = CollectiveSpec::AllToAll {
                participants: participants.clone(),
                sizes: chunk_sizes,
                algo: AllToAllAlgo::Flat,
            };
            let deps = deps_per_chunk[chunk.min(deps_per_chunk.len() - 1)].clone();
            ids.push(self.graph.add_comm(spec, logical, layer, backward, deps));
        }
        ids
    }

    /// Emits the expert computation for a dispatch plan, one op per
    /// device per chunk; chunk `i` depends on all-to-all chunk `i` when
    /// pipelining, else on every all-to-all chunk. Returns per-device
    /// op ids of the *last* chunk (what downstream ops wait on), plus
    /// the op ids grouped by chunk (for pipelining the next
    /// all-to-all).
    fn emit_expert_compute(
        &mut self,
        plan: &DispatchPlan,
        a2a_ids: &[OpId],
        extra_deps: &[Vec<OpId>],
        nchunks: usize,
        layer: usize,
        backward: bool,
    ) -> (Vec<OpId>, Vec<Vec<OpId>>) {
        let pipeline = self.opts.pipeline_ffn && !a2a_ids.is_empty();
        let mut last_per_device = Vec::with_capacity(self.devices());
        let mut per_chunk: Vec<Vec<OpId>> = vec![Vec::new(); nchunks];
        for d in 0..self.devices() {
            let tokens = plan.compute_load(d);
            let mut last = None;
            for chunk in 0..nchunks {
                let chunk_tokens = tokens / nchunks + usize::from(chunk < tokens % nchunks);
                let dur = if backward {
                    self.cost.expert_bwd(chunk_tokens)
                } else {
                    self.cost.expert_fwd(chunk_tokens)
                };
                let dur = self.jittered(dur);
                let mut deps: Vec<OpId> = extra_deps[d].clone();
                if pipeline {
                    if let Some(&a) = a2a_ids.get(chunk.min(a2a_ids.len() - 1)) {
                        deps.push(a);
                    }
                } else {
                    deps.extend_from_slice(a2a_ids);
                }
                if let Some(prev) = last {
                    deps.push(prev);
                }
                let id = self.graph.add_compute(
                    DeviceId(d as u32),
                    dur,
                    SpanKind::ExpertFfn,
                    deps,
                    Some(layer),
                    backward,
                );
                last = Some(id);
                per_chunk[chunk].push(id);
            }
            last_per_device.push(last.expect("nchunks >= 1"));
        }
        (last_per_device, per_chunk)
    }

    /// Builds the forward pass; returns per-device tail ops.
    fn forward(&mut self, routing: &[LayerRouting]) -> Vec<OpId> {
        let tokens = self.batch.tokens_per_device();
        let mut tails: Vec<Option<OpId>> = vec![None; self.devices()];
        for layer in 0..self.model().layers {
            let plan = assign_replicas(&routing[layer], &self.opts.placement, self.topo);
            let nchunks = self.a2a_chunks(&plan);
            // Attention + gate per device.
            let mut gate_ids = Vec::with_capacity(self.devices());
            for d in 0..self.devices() {
                let dep: Vec<OpId> = tails[d].into_iter().collect();
                let attn_dur = self.jittered(self.cost.attention_fwd(tokens));
                let attn = self.graph.add_compute(
                    DeviceId(d as u32),
                    attn_dur,
                    SpanKind::Attention,
                    dep,
                    Some(layer),
                    false,
                );
                let gate_dur = self.jittered(self.cost.gate_fwd(tokens));
                let gate = self.graph.add_compute(
                    DeviceId(d as u32),
                    gate_dur,
                    SpanKind::Gate,
                    vec![attn],
                    Some(layer),
                    false,
                );
                gate_ids.push(gate);
            }
            // First all-to-all: tokens to experts.
            let bytes = plan.byte_matrix(self.model().token_bytes());
            let a2a1 = self.emit_a2a(&bytes, nchunks, layer, false, &[gate_ids.clone()]);
            // Expert FFN.
            let gate_deps: Vec<Vec<OpId>> =
                (0..self.devices()).map(|d| vec![gate_ids[d]]).collect();
            let (ffn_last, ffn_chunks) =
                self.emit_expert_compute(&plan, &a2a1, &gate_deps, nchunks, layer, false);
            // Second all-to-all: results back to token owners
            // (transposed sizes); when pipelining, chunk i only waits
            // for FFN chunk i.
            let bytes_t = transpose(&bytes);
            let a2a2_deps: Vec<Vec<OpId>> = if self.opts.pipeline_ffn && !a2a1.is_empty() {
                ffn_chunks.clone()
            } else {
                vec![ffn_last.clone()]
            };
            let a2a2 = self.emit_a2a(&bytes_t, nchunks, layer, false, &a2a2_deps);
            // Combine per device.
            for d in 0..self.devices() {
                let mut deps: Vec<OpId> = a2a2.clone();
                deps.push(ffn_last[d]);
                let dur = self.jittered(self.cost.combine(tokens));
                let id = self.graph.add_compute(
                    DeviceId(d as u32),
                    dur,
                    SpanKind::Combine,
                    deps,
                    Some(layer),
                    false,
                );
                tails[d] = Some(id);
            }
        }
        tails
            .into_iter()
            .map(|t| t.expect("at least one layer"))
            .collect()
    }

    /// Builds the backward pass; returns (per-device tail ops, all
    /// allreduce op ids).
    fn backward(
        &mut self,
        routing: &[LayerRouting],
        fwd_tails: Vec<OpId>,
    ) -> (Vec<OpId>, Vec<OpId>) {
        let tokens = self.batch.tokens_per_device();
        let mut tails = fwd_tails;
        let mut allreduce_ids: Vec<OpId> = Vec::new();
        // DDP-style bucket state: gradients accumulate in production
        // order (reverse layers) and flush when the bucket is full.
        let mut bucket_bytes_acc = 0.0;
        let mut bucket_deps: Vec<OpId> = Vec::new();
        for layer in (0..self.model().layers).rev() {
            let plan = assign_replicas(&routing[layer], &self.opts.placement, self.topo);
            let nchunks = self.a2a_chunks(&plan);
            let bytes = plan.byte_matrix(self.model().token_bytes());
            // Combine backward per device.
            let mut comb_ids = Vec::with_capacity(self.devices());
            for d in 0..self.devices() {
                let dur = self.jittered(self.cost.combine(tokens));
                let id = self.graph.add_compute(
                    DeviceId(d as u32),
                    dur,
                    SpanKind::Combine,
                    vec![tails[d]],
                    Some(layer),
                    true,
                );
                comb_ids.push(id);
            }
            // All-to-all #2 backward: output grads to experts (same
            // direction pattern as forward's transpose... the gradient
            // of the combine flows back along the forward #2 links).
            let bytes_t = transpose(&bytes);
            let a2a2b = self.emit_a2a(&bytes_t, nchunks, layer, true, &[comb_ids.clone()]);
            // Expert FFN backward.
            let comb_deps: Vec<Vec<OpId>> =
                (0..self.devices()).map(|d| vec![comb_ids[d]]).collect();
            let (ffn_last, ffn_chunks) =
                self.emit_expert_compute(&plan, &a2a2b, &comb_deps, nchunks, layer, true);
            // All-to-all #1 backward: input grads back to token owners.
            let a2a1_deps: Vec<Vec<OpId>> = if self.opts.pipeline_ffn && !a2a2b.is_empty() {
                ffn_chunks.clone()
            } else {
                vec![ffn_last.clone()]
            };
            let a2a1b = self.emit_a2a(&bytes, nchunks, layer, true, &a2a1_deps);
            // Gate + attention backward per device; produces this
            // layer's non-expert gradients.
            let mut grad_ready = Vec::with_capacity(self.devices());
            for d in 0..self.devices() {
                let mut deps: Vec<OpId> = a2a1b.clone();
                deps.push(ffn_last[d]);
                let gate_dur = self.jittered(self.cost.gate_bwd(tokens));
                let gate = self.graph.add_compute(
                    DeviceId(d as u32),
                    gate_dur,
                    SpanKind::Gate,
                    deps,
                    Some(layer),
                    true,
                );
                let attn_dur = self.jittered(self.cost.attention_bwd(tokens));
                let attn = self.graph.add_compute(
                    DeviceId(d as u32),
                    attn_dur,
                    SpanKind::Attention,
                    vec![gate],
                    Some(layer),
                    true,
                );
                grad_ready.push(attn);
                tails[d] = attn;
            }
            // Gradient communication for this layer's non-expert grads.
            let grad_bytes = self.model().non_expert_grad_bytes_per_layer(layer);
            match self.opts.grad_comm {
                GradCommMode::Bucketed { bucket_bytes } => {
                    bucket_bytes_acc += grad_bytes;
                    bucket_deps.extend_from_slice(&grad_ready);
                    let flush = bucket_bytes_acc >= bucket_bytes || layer == 0;
                    if flush {
                        let logical = self.new_logical();
                        let deps = std::mem::take(&mut bucket_deps);
                        allreduce_ids.push(self.emit_allreduce(
                            bucket_bytes_acc,
                            logical,
                            layer,
                            deps,
                        ));
                        bucket_bytes_acc = 0.0;
                    }
                }
                GradCommMode::Partitioned { chunk_bytes } => {
                    let n = ((grad_bytes / chunk_bytes).ceil() as usize).max(1);
                    let logical = self.new_logical();
                    for _ in 0..n {
                        allreduce_ids.push(self.emit_allreduce(
                            grad_bytes / n as f64,
                            logical,
                            layer,
                            grad_ready.clone(),
                        ));
                    }
                }
            }
        }
        (tails, allreduce_ids)
    }

    /// Emits one backward allreduce micro-op of `bytes` per device.
    fn emit_allreduce(
        &mut self,
        bytes: f64,
        logical: usize,
        layer: usize,
        deps: Vec<OpId>,
    ) -> OpId {
        let spec = CollectiveSpec::AllReduce {
            participants: self.topo.device_ids().collect(),
            bytes,
        };
        self.graph.add_comm(spec, logical, layer, true, deps)
    }

    fn finish(mut self, routing: &[LayerRouting]) -> OpGraph {
        let fwd_tails = self.forward(routing);
        let (bwd_tails, allreduce_ids) = self.backward(routing, fwd_tails);
        // Optimizer step per device waits for that device's backward
        // tail and every allreduce.
        for d in 0..self.devices() {
            let mut deps = allreduce_ids.clone();
            deps.push(bwd_tails[d]);
            let dur = self.jittered(self.cost.optimizer_step());
            self.graph.add_compute(
                DeviceId(d as u32),
                dur,
                SpanKind::Optimizer,
                deps,
                None,
                true,
            );
        }
        self.graph
    }
}

/// Builds the op graph of one training step.
///
/// `routing` gives the per-layer token routing (one entry per model
/// layer); training routing is near-balanced thanks to the auxiliary
/// loss, so most callers pass [`LayerRouting::balanced`] entries.
///
/// # Panics
///
/// Panics if `routing.len() != model.layers` or the placement is
/// missing hosts.
pub fn build_train_step(
    cost: &CostModel,
    topo: &Topology,
    batch: BatchShape,
    routing: &[LayerRouting],
    opts: &TrainStepOptions,
) -> OpGraph {
    assert_eq!(
        routing.len(),
        cost.model.layers,
        "build_train_step: routing entries must match layers"
    );
    assert!(
        opts.placement.is_complete(),
        "build_train_step: incomplete placement"
    );
    let builder = StepBuilder {
        cost,
        topo,
        opts,
        batch,
        graph: OpGraph::new(),
        rng: Rng::new(opts.seed),
        next_logical: 0,
    };
    builder.finish(routing)
}

/// Convenience: balanced routing for every layer of a model.
pub fn balanced_routing(
    model: &MoeModelConfig,
    devices: usize,
    batch: BatchShape,
) -> Vec<LayerRouting> {
    (0..model.layers)
        .map(|_| {
            LayerRouting::balanced(
                devices,
                model.experts,
                batch.tokens_per_device(),
                model.top_k,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::DeviceSpec;
    use crate::graph::{CommClass, OpKind};
    use lina_netsim::ClusterSpec;

    /// Per-device bytes of each allreduce micro-op of `g`.
    fn allreduce_bytes(g: &OpGraph) -> impl Iterator<Item = f64> + '_ {
        g.ops().iter().filter_map(|op| match &op.kind {
            OpKind::Comm {
                spec: CollectiveSpec::AllReduce { bytes, .. },
                ..
            } => Some(*bytes),
            _ => None,
        })
    }

    fn setup(experts: usize) -> (CostModel, Topology, BatchShape) {
        let model = MoeModelConfig::transformer_xl(12, experts);
        let topo = Topology::new(ClusterSpec::with_total_gpus(experts));
        let batch = BatchShape {
            seqs_per_device: 4,
            seq_len: model.seq_len,
        };
        (CostModel::new(DeviceSpec::a100(), model), topo, batch)
    }

    #[test]
    fn baseline_graph_structure() {
        let (cost, topo, batch) = setup(16);
        let routing = balanced_routing(&cost.model, 16, batch);
        let opts = TrainStepOptions::baseline(16, 16);
        let g = build_train_step(&cost, &topo, batch, &routing, &opts);
        // 2 a2a per layer per direction = 4 x layers comm ops.
        let a2a = g.comm_ops(CommClass::AllToAll);
        assert_eq!(a2a.len(), 4 * cost.model.layers);
        // Bucketed allreduce: far fewer ops than layers x 2.
        let ar = g.comm_ops(CommClass::Allreduce);
        assert!(!ar.is_empty());
        assert!(ar.len() <= cost.model.layers);
    }

    #[test]
    fn lina_graph_partitions_comm() {
        let (cost, topo, batch) = setup(16);
        let routing = balanced_routing(&cost.model, 16, batch);
        let placement = ExpertPlacement::one_per_device(16, 16);
        let mut opts = TrainStepOptions::lina(placement);
        opts.a2a_chunking = A2aChunking::FixedBytes(1e6);
        let g = build_train_step(&cost, &topo, batch, &routing, &opts);
        let baseline_g = build_train_step(
            &cost,
            &topo,
            batch,
            &routing,
            &TrainStepOptions::baseline(16, 16),
        );
        assert!(
            g.comm_ops(CommClass::AllToAll).len() > baseline_g.comm_ops(CommClass::AllToAll).len(),
            "chunked a2a must produce more micro-ops"
        );
        assert!(
            g.comm_ops(CommClass::Allreduce).len()
                > baseline_g.comm_ops(CommClass::Allreduce).len(),
            "partitioned allreduce must produce more micro-ops"
        );
    }

    #[test]
    fn full_packing_eliminates_a2a() {
        // 2 experts on 2 devices with 2 experts per device: pure data
        // parallelism (the paper's 2-expert observation).
        let (cost, topo, batch) = setup(2);
        let routing = balanced_routing(&cost.model, 2, batch);
        let placement = ExpertPlacement::packed(2, &topo, 2);
        let opts = TrainStepOptions::lina(placement);
        let g = build_train_step(&cost, &topo, batch, &routing, &opts);
        assert!(g.comm_ops(CommClass::AllToAll).is_empty());
        assert!(!g.comm_ops(CommClass::Allreduce).is_empty());
    }

    #[test]
    fn partitioned_chunks_respect_size() {
        let (cost, topo, batch) = setup(4);
        let routing = balanced_routing(&cost.model, 4, batch);
        let placement = ExpertPlacement::one_per_device(4, 4);
        let mut opts = TrainStepOptions::lina(placement);
        let chunk = 5e6;
        opts.grad_comm = GradCommMode::Partitioned { chunk_bytes: chunk };
        let g = build_train_step(&cost, &topo, batch, &routing, &opts);
        for bytes in allreduce_bytes(&g) {
            assert!(
                bytes <= chunk * 1.01,
                "chunk of {bytes} bytes exceeds partition size"
            );
        }
    }

    #[test]
    fn allreduce_volume_matches_non_expert_grads() {
        let (cost, topo, batch) = setup(4);
        let routing = balanced_routing(&cost.model, 4, batch);
        for opts in [
            TrainStepOptions::baseline(4, 4),
            TrainStepOptions::lina(ExpertPlacement::one_per_device(4, 4)),
        ] {
            let g = build_train_step(&cost, &topo, batch, &routing, &opts);
            let total: f64 = allreduce_bytes(&g).sum();
            let expected = (cost.model.non_expert_params() * cost.model.grad_dtype_bytes) as f64;
            assert!(
                (total - expected).abs() / expected < 1e-6,
                "allreduce volume {total} vs grads {expected}"
            );
        }
    }

    #[test]
    fn optimizer_is_last_and_depends_on_allreduce() {
        let (cost, topo, batch) = setup(4);
        let routing = balanced_routing(&cost.model, 4, batch);
        let g = build_train_step(
            &cost,
            &topo,
            batch,
            &routing,
            &TrainStepOptions::baseline(4, 4),
        );
        let ar = g.comm_ops(CommClass::Allreduce);
        let opt_ops: Vec<_> = g
            .ops()
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(&op.kind, OpKind::Compute { span, .. } if *span == SpanKind::Optimizer))
            .collect();
        assert_eq!(opt_ops.len(), 4);
        for (_, op) in opt_ops {
            for a in &ar {
                assert!(op.deps.contains(a), "optimizer must wait for allreduce");
            }
        }
    }
}
