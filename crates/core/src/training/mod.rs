//! Lina's training-side controller: expert packing. The priority
//! micro-op communication scheduler is [`crate::CommPolicy::Lina`].

pub mod packing;

pub use packing::{PackingController, PackingDecision, PackingObservation, PackingPlan};
