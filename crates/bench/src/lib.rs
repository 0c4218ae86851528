//! # lina-bench
//!
//! The declarative experiment layer that regenerates every table and
//! figure of the paper's evaluation, plus the eight `serve_*` serving
//! scenarios (see `DESIGN.md` §3 for the full index). Each experiment
//! is a [`Scenario`] in the [`REGISTRY`]: a tier-sized function from a
//! [`ScenarioCtx`] to a typed [`lina_simcore::Report`] (plain-text
//! tables plus named metrics).
//! The `reproduce` binary drives the whole registry — `--list`,
//! `--only <id>`, `--tier smoke|full`, `--threads N`, `--json <path>`
//! — and `--only <id>` prints one scenario's banner and tables.
//!
//! Full-tier experiment sizes default to quick-but-representative
//! settings and scale up via environment variables:
//!
//! * `LINA_STEPS` — training steps per configuration (default 8),
//! * `LINA_BATCHES` — inference batches per configuration (default 12),
//! * `LINA_TOKENS` — inference tokens per device (default 16384),
//! * `LINA_REQUESTS` — requests per serving run (default 256).

#![warn(missing_docs)]

pub mod scenario;
pub mod scenarios;
mod serving;

pub use scenario::{find, slug, Scenario, ScenarioCtx, Tier, REGISTRY};

use lina_baselines::TrainScheme;
use lina_core::TwoPhaseScheduler;
use lina_model::{BatchShape, CostModel, DeviceSpec, MoeModelConfig};
use lina_netsim::{ClusterSpec, Topology};
use lina_workload::{TokenBatch, WorkloadSpec};

/// Training steps per configuration.
pub fn steps() -> usize {
    env_usize("LINA_STEPS", 8)
}

/// Inference batches per configuration.
pub fn batches() -> usize {
    env_usize("LINA_BATCHES", 12)
}

/// Inference tokens per device.
pub fn tokens_per_device() -> usize {
    env_usize("LINA_TOKENS", 16_384)
}

/// Requests per serving run: the base each `serve_*` scenario sizes
/// its trace from.
pub fn requests() -> usize {
    env_usize("LINA_REQUESTS", 256)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The benchmark batch shape used throughout training experiments
/// (chosen so the per-device all-to-all tensor is ~67-100 MB, giving
/// the paper's ~37% all-to-all step-time share and several 30 MB
/// micro-ops per tensor).
pub fn train_batch(model: &MoeModelConfig) -> BatchShape {
    BatchShape {
        seqs_per_device: 64,
        seq_len: model.seq_len,
    }
}

/// Training cost model for a model preset.
pub fn train_cost(model: MoeModelConfig) -> CostModel {
    CostModel::new(DeviceSpec::a100(), model)
}

/// Inference cost model (decode-efficiency device profile, top-1 gate).
pub fn infer_cost(model: MoeModelConfig) -> CostModel {
    CostModel::new(DeviceSpec::a100_inference(), model.for_inference())
}

/// Topology for an expert count (experts == GPUs; small jobs scatter
/// across nodes the way the shared cluster allocates them — see
/// `ClusterSpec::with_total_gpus`).
pub fn topo(experts: usize) -> Topology {
    Topology::new(ClusterSpec::with_total_gpus(experts))
}

/// The paper's training model roster: Transformer-XL (24L), GPT-2,
/// BERT2GPT2.
pub fn training_models(experts: usize) -> Vec<MoeModelConfig> {
    vec![
        MoeModelConfig::transformer_xl(24, experts),
        MoeModelConfig::gpt2(experts),
        MoeModelConfig::bert2gpt2(experts),
    ]
}

/// The paper's packing outcome per setting (§7.2): 2 experts per device
/// everywhere except 16-expert Transformer-XL, which uses 4.
pub fn paper_packing(model: &MoeModelConfig) -> usize {
    if model.name == "Transformer-XL" && model.experts == 16 {
        4
    } else {
        2.min(model.experts)
    }
}

/// The full Lina training scheme for a model.
pub fn lina_scheme(model: &MoeModelConfig) -> TrainScheme {
    TrainScheme::Lina {
        experts_per_device: paper_packing(model),
    }
}

/// Workload spec for an inference model preset.
pub fn workload_for(model: &MoeModelConfig, experts: usize, layers: usize) -> WorkloadSpec {
    match model.name.as_str() {
        "Transformer-XL" => WorkloadSpec::enwik8(experts, layers),
        "BERT-Large" => WorkloadSpec::wmt_en_de(experts, layers),
        "T5" => WorkloadSpec::wmt_fr(experts, layers),
        _ => WorkloadSpec::enwik8(experts, layers),
    }
}

/// A profiled two-phase scheduler plus inference batches for a
/// workload (see [`ScenarioCtx::inference_setup_with`]).
pub struct InferenceSetup {
    /// The profiled scheduler.
    pub scheduler: TwoPhaseScheduler,
    /// Inference batches.
    pub batches: Vec<TokenBatch>,
}

/// Formats an optional rate (e.g. [`InferenceSummary::accuracy`]) as a
/// percentage, or `-` when the scheme never produced an estimate.
///
/// [`InferenceSummary::accuracy`]: lina_runner::inference::InferenceSummary::accuracy
pub fn format_rate(rate: Option<f64>) -> String {
    match rate {
        Some(r) => format!("{:.1}%", r * 100.0),
        None => "-".into(),
    }
}

/// Prints a standard header for a benchmark binary.
pub fn banner(id: &str, description: &str) {
    println!("==================================================================");
    println!("{id}: {description}");
    println!("(paper: Accelerating Distributed MoE Training and Inference with");
    println!(" Lina, USENIX ATC 2023 — simulated reproduction)");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_matches_paper() {
        assert_eq!(paper_packing(&MoeModelConfig::transformer_xl(24, 16)), 4);
        assert_eq!(paper_packing(&MoeModelConfig::transformer_xl(24, 8)), 2);
        assert_eq!(paper_packing(&MoeModelConfig::gpt2(16)), 2);
        assert_eq!(paper_packing(&MoeModelConfig::transformer_xl(24, 2)), 2);
    }

    #[test]
    fn setup_builds() {
        let spec = WorkloadSpec::enwik8(4, 12);
        let s = ScenarioCtx::full().inference_setup_with(&spec, 4, 3, 2, 256);
        assert_eq!(s.batches.len(), 2);
        assert_eq!(s.scheduler.estimator().path_length(), 3);
    }

    #[test]
    fn roster_is_three_models() {
        assert_eq!(training_models(4).len(), 3);
    }
}
