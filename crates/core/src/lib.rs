//! # lina-core
//!
//! The paper's primary contribution, faithfully reimplemented:
//!
//! * **Training** (§4): a priority-based micro-op communication
//!   scheduler that guarantees all-to-all full bandwidth (allreduce
//!   micro-ops run only in the gaps), plus the expert-packing
//!   controller that grows packing until expert-FFN micro-ops match
//!   all-to-all micro-ops for pipelining.
//! * **Inference** (§5): sample-path popularity estimation from the
//!   cross-layer expert-selection pattern, Eq. (1) device allocation
//!   with first-fit-decreasing packing and replication, and the
//!   two-phase (estimate, then fine-tune on deviation) protocol.
//!
//! [`CommPolicy`] names every training communication policy — Lina's
//! and the baselines' — as one closed enum. The execution engine runs
//! one launch sequence for all of them and asks the policy only when
//! an allreduce may launch.

#![warn(missing_docs)]

pub mod inference;
pub mod policy;
pub mod training;

pub use inference::{
    popularity_placement, top_indices, PhaseOne, PhaseTwo, PlacementConfig, PopularityEstimator,
    TwoPhaseConfig, TwoPhaseScheduler,
};
pub use policy::CommPolicy;
pub use training::{PackingController, PackingDecision, PackingObservation, PackingPlan};
