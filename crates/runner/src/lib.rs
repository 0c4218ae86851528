//! # lina-runner
//!
//! Execution drivers tying the model, workload, schedulers, and network
//! simulator together: the op-graph engine, the training-step and
//! inference-batch drivers with metric extraction, and the parallel
//! sweep harness used by the benchmarks.
//!
//! Inference is layered: [`plan`] lowers a batch's scheduling decisions
//! into a typed [`ExecutionPlan`], and [`exec`] prices the plan's
//! stages under a [`NetworkMode`] — solo closed-form collectives, or a
//! shared network where concurrent batches contend for links.

#![warn(missing_docs)]

pub mod digest;
pub mod engine;
pub mod exec;
pub mod inference;
pub mod plan;
pub mod session;
pub mod sweep;
pub mod train;

pub use digest::Fnv128;
pub use engine::{execute, ExecResult};
pub use exec::{execute_plan_solo, FinishedBatch, NetworkMode, ReplicaExecutor};
pub use inference::{
    run_inference_batch, run_inference_batches, InferenceConfig, InferenceReport, InferenceSummary,
};
pub use plan::{plan_batch, plan_batch_layered, ExecutionPlan, LayerPlan};
pub use session::{run_lina_session, SessionConfig, SessionReport};
pub use sweep::{default_threads, parallel_map};
pub use train::{
    run_train_step, run_train_steps, solo_collective_time, summarize_steps, StepMetrics, StepRun,
    TrainSummary,
};
