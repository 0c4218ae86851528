//! # lina-model
//!
//! MoE Transformer model descriptions and execution planning: the
//! paper's model presets with parameter accounting, an analytic A100
//! cost model, token-routing and expert-placement structures, and the
//! compiler from a training step to an op graph that the runner
//! executes over the simulated cluster.

#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod graph;
pub mod passes;
pub mod routing;

pub use config::{BatchShape, ModelKind, MoeModelConfig};
pub use cost::{CostModel, DeviceSpec};
pub use graph::{CommClass, Op, OpGraph, OpId, OpKind};
pub use passes::{balanced_routing, build_train_step, A2aChunking, GradCommMode, TrainStepOptions};
pub use routing::{
    assign_replicas, transpose, DispatchPlan, ExpertPlacement, LayerRouting, LayeredPlacement,
};
