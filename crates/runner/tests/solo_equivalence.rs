//! Bit-for-bit equivalence pin for the planner/executor refactor.
//!
//! The fingerprints below were captured from `run_inference_batch`
//! *before* `crates/runner/src/inference.rs` was split into a planner
//! (`plan.rs`) and pluggable executors (`exec.rs`). Every scheme of the
//! Figure 16 grid — both models, both expert counts — must keep
//! producing the exact same reports through `execute_plan_solo`:
//! total, per-layer times, all-to-all times, estimate/fine-tune
//! counters, and the idle-fraction float, down to the last bit.
//!
//! If an intentional cost-model change invalidates these constants,
//! re-capture them by running the test with `--nocapture` and pasting
//! the printed table (every mismatch prints its actual value).

use lina_baselines::InferScheme;
use lina_core::{PopularityEstimator, TwoPhaseConfig, TwoPhaseScheduler};
use lina_model::{CostModel, DeviceSpec, MoeModelConfig};
use lina_netsim::{ClusterSpec, Topology};
use lina_runner::inference::{run_inference_batch, InferenceConfig};
use lina_workload::{Mode, TokenBatch, TokenSource, WorkloadSpec};

/// FNV-1a, the same dependency-free hash used elsewhere in the repo.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Mirrors `lina_bench::ScenarioCtx::inference_setup_with` (profiling
/// on the training distribution, inference on the skewed stream) at a
/// size small enough for a unit test.
fn grid_case(
    model: MoeModelConfig,
    experts: usize,
) -> (CostModel, Topology, TwoPhaseScheduler, Vec<TokenBatch>) {
    let layers = model.layers;
    let spec = match model.name.as_str() {
        "BERT-Large" => WorkloadSpec::wmt_en_de(experts, layers),
        _ => WorkloadSpec::enwik8(experts, layers),
    };
    let topo = Topology::new(ClusterSpec::with_total_gpus(experts));
    let cost = CostModel::new(DeviceSpec::a100_inference(), model.for_inference());
    let mut profile_src = TokenSource::new(&spec, 1, 0xBEEF);
    let profile: Vec<TokenBatch> = (0..6)
        .map(|_| profile_src.sample_batch(experts, 2048, Mode::Train))
        .collect();
    let estimator = PopularityEstimator::profile(&profile, 3);
    let scheduler = TwoPhaseScheduler::new(TwoPhaseConfig::paper_defaults(experts), estimator);
    let mut infer_src = TokenSource::new(&spec, 1, 0xCAFE);
    let batches = (0..3)
        .map(|_| infer_src.sample_batch(experts, 2048, Mode::Inference))
        .collect();
    (cost, topo, scheduler, batches)
}

/// One number summarizing every field of every batch report for a
/// (model, experts, scheme) cell.
fn fingerprint(
    cost: &CostModel,
    topo: &Topology,
    scheduler: &TwoPhaseScheduler,
    batches: &[TokenBatch],
    scheme: InferScheme,
) -> u64 {
    let config = InferenceConfig { scheme, top_k: 1 };
    let mut h = Fnv::new();
    for batch in batches {
        let r = run_inference_batch(cost, topo, &config, Some(scheduler), batch);
        h.write_u64(r.total.as_nanos());
        for &t in &r.layer_times {
            h.write_u64(t.as_nanos());
        }
        for &t in &r.a2a_times {
            h.write_u64(t.as_nanos());
        }
        h.write_u64(r.finetunes as u64);
        h.write_u64(r.estimates as u64);
        h.write_u64(r.accurate as u64);
        h.write_u64(r.max_idle_frac.to_bits());
    }
    h.0
}

#[test]
fn fig16_grid_matches_pre_refactor_reports() {
    // (model label, experts, scheme name, fingerprint) — captured
    // before the planner/executor split.
    let expected: &[(&str, usize, &str, u64)] = &[
        ("Transformer-XL", 4, "baseline", 0x22971ae5fbc0ffaf),
        ("Transformer-XL", 4, "ideal", 0x89cb09d601e73061),
        ("Transformer-XL", 4, "lina", 0x95160ea0c8248afa),
        ("Transformer-XL", 4, "lina w/o est", 0xe9ce89e179fd605c),
        ("Transformer-XL", 4, "lina w/o ft", 0xd5ddbee1260cd048),
        ("Transformer-XL", 16, "baseline", 0x72ed710b80fcf50a),
        ("Transformer-XL", 16, "ideal", 0xd17c89b44a3fee0c),
        ("Transformer-XL", 16, "lina", 0x1c744f4b2e88bab3),
        ("Transformer-XL", 16, "lina w/o est", 0xa3479738b50e11f6),
        ("Transformer-XL", 16, "lina w/o ft", 0x468525de1a9295f1),
        ("BERT-Large", 4, "baseline", 0xc2503ea24069b866),
        ("BERT-Large", 4, "ideal", 0xe93964c6ae0dd9f),
        ("BERT-Large", 4, "lina", 0xed58cea4857312e8),
        ("BERT-Large", 4, "lina w/o est", 0x411aa16a923146a0),
        ("BERT-Large", 4, "lina w/o ft", 0xf2e1eecc1f0a0680),
        ("BERT-Large", 16, "baseline", 0x99231524b1227111),
        ("BERT-Large", 16, "ideal", 0xe705e56c57d7df61),
        ("BERT-Large", 16, "lina", 0x15bb76170013d70a),
        ("BERT-Large", 16, "lina w/o est", 0x821acb721fb67704),
        ("BERT-Large", 16, "lina w/o ft", 0x3fd1b731f64ee1ed),
    ];

    let mut mismatches = Vec::new();
    let mut i = 0;
    for (ctor, label) in [
        (
            MoeModelConfig::transformer_xl as fn(usize, usize) -> MoeModelConfig,
            "Transformer-XL",
        ),
        (
            (|_l, e| MoeModelConfig::bert_large(e)) as fn(usize, usize) -> MoeModelConfig,
            "BERT-Large",
        ),
    ] {
        for experts in [4usize, 16] {
            let (cost, topo, scheduler, batches) = grid_case(ctor(12, experts), experts);
            for scheme in InferScheme::all() {
                let got = fingerprint(&cost, &topo, &scheduler, &batches, scheme);
                let (elabel, eexperts, escheme, want) = expected[i];
                assert_eq!((elabel, eexperts, escheme), (label, experts, scheme.name()));
                if got != want {
                    mismatches.push(format!(
                        "        (\"{label}\", {experts}, \"{}\", {got:#x}),",
                        scheme.name()
                    ));
                }
                i += 1;
            }
        }
    }
    assert_eq!(i, expected.len());
    assert!(
        mismatches.is_empty(),
        "fingerprints diverged from the pre-refactor reports; actuals:\n{}",
        mismatches.join("\n")
    );
}
