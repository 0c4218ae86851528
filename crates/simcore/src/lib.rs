//! # lina-simcore
//!
//! Discrete-event simulation substrate for the Lina reproduction:
//! deterministic time ([`SimTime`]/[`SimDuration`]), an event queue with
//! deterministic tie-breaking, a seedable RNG with the distributions the
//! workload model needs, statistics (percentiles/CDFs), a CUDA-stream-style
//! timeline recorder, and plain-text table rendering for benchmark output.
//!
//! Nothing in this crate knows about MoE or networks; it is the common
//! ground the rest of the workspace stands on.

#![warn(missing_docs)]

pub mod events;
pub mod json;
pub mod report;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;
pub mod timeline;

pub use events::EventQueue;
pub use json::Json;
pub use report::{Metric, Report, Section};
pub use rng::{Rng, Zipf};
pub use stats::{geomean, Samples};
pub use table::{format_bytes, format_pct, format_secs, format_speedup, Table};
pub use time::{SimDuration, SimTime};
pub use timeline::{Lane, Span, SpanKind, StreamId, Timeline};
