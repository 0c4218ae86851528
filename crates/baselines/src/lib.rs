//! # lina-baselines
//!
//! The comparison systems and ablations of the evaluation, as the
//! named scheme roster (training and inference) the benchmark harness
//! sweeps: the DeepSpeed-like fair-share baseline, a Tutel-like
//! variant, the fixed and naive-priority strawmen of §4.1/Figure 14,
//! and Lina's design points. Each training scheme is a
//! [`lina_core::CommPolicy`] plus graph-construction options.

#![warn(missing_docs)]

pub mod affinity;
pub mod schemes;

pub use affinity::affinity_placement;
pub use schemes::{InferScheme, TrainScheme};
