//! The declarative experiment registry.
//!
//! Every table and figure of the paper's evaluation (plus the serving
//! load sweep) is a [`Scenario`]: an id, a paper reference, a size
//! tier-aware `run` function from a [`ScenarioCtx`] to a typed
//! [`Report`]. The registry is the single source of truth that the
//! `reproduce` driver, the per-figure wrapper binaries, the smoke-tier
//! integration test, and CI's `bench_summary.json` artifact all drive.

use lina_model::MoeModelConfig;
use lina_simcore::Report;
use lina_workload::WorkloadSpec;

use crate::scenarios;

/// Experiment size tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Seconds-scale sizes: reduced sweeps, few steps/batches. Used by
    /// CI and the `scenarios_smoke` integration test.
    Smoke,
    /// The historical full sizes (env-var scalable): every sweep point
    /// the per-figure binaries have always run.
    Full,
}

impl Tier {
    /// Parses `"smoke"` / `"full"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Tier> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(Tier::Smoke),
            "full" => Some(Tier::Full),
            _ => None,
        }
    }

    /// The tier's lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Smoke => "smoke",
            Tier::Full => "full",
        }
    }
}

/// Shared experiment sizing passed to every scenario. Scenarios read
/// sizes from here (never from the environment) so a context fully
/// determines a run — the determinism the smoke test asserts.
#[derive(Clone, Debug)]
pub struct ScenarioCtx {
    /// Size tier; scenarios reduce their sweep grids at `Smoke`.
    pub tier: Tier,
    /// Training steps per configuration.
    pub steps: usize,
    /// Inference batches per configuration.
    pub batches: usize,
    /// Inference tokens per device.
    pub tokens_per_device: usize,
    /// Requests per serving load point.
    pub requests: usize,
    /// Profiling batches used to fit the popularity estimator.
    pub profile_batches: usize,
}

impl ScenarioCtx {
    /// Full-tier context with the historical env-var-scalable sizes
    /// (`LINA_STEPS`, `LINA_BATCHES`, `LINA_TOKENS`, `LINA_REQUESTS`).
    pub fn full() -> ScenarioCtx {
        ScenarioCtx {
            tier: Tier::Full,
            steps: crate::steps(),
            batches: crate::batches(),
            tokens_per_device: crate::tokens_per_device(),
            requests: crate::requests(),
            profile_batches: 12,
        }
    }

    /// Smoke-tier context: fixed small sizes, independent of the
    /// environment.
    pub fn smoke() -> ScenarioCtx {
        ScenarioCtx {
            tier: Tier::Smoke,
            steps: 2,
            batches: 2,
            tokens_per_device: 1024,
            requests: 12,
            profile_batches: 3,
        }
    }

    /// The standard context for a tier.
    pub fn for_tier(tier: Tier) -> ScenarioCtx {
        match tier {
            Tier::Smoke => ScenarioCtx::smoke(),
            Tier::Full => ScenarioCtx::full(),
        }
    }

    /// Tier-dependent sweep grid: the full list at `Full`, the reduced
    /// list at `Smoke`.
    pub fn pick<T: Clone>(&self, full: &[T], smoke: &[T]) -> Vec<T> {
        match self.tier {
            Tier::Full => full.to_vec(),
            Tier::Smoke => smoke.to_vec(),
        }
    }

    /// The training model roster: the paper's three models at `Full`,
    /// Transformer-XL alone at `Smoke`.
    pub fn training_models(&self, experts: usize) -> Vec<MoeModelConfig> {
        match self.tier {
            Tier::Full => crate::training_models(experts),
            Tier::Smoke => vec![MoeModelConfig::transformer_xl(24, experts)],
        }
    }

    /// Standard inference setup at this context's batch/token sizes.
    pub fn inference_setup(
        &self,
        spec: &WorkloadSpec,
        devices: usize,
        path_length: usize,
    ) -> crate::InferenceSetup {
        self.inference_setup_with(
            spec,
            devices,
            path_length,
            self.batches,
            self.tokens_per_device,
        )
    }

    /// Inference setup with explicit batch/token overrides (profiling
    /// depth still follows the context).
    pub fn inference_setup_with(
        &self,
        spec: &WorkloadSpec,
        devices: usize,
        path_length: usize,
        n_batches: usize,
        tokens_per_dev: usize,
    ) -> crate::InferenceSetup {
        crate::inference_setup_sized(
            spec,
            devices,
            path_length,
            n_batches,
            tokens_per_dev,
            self.profile_batches,
        )
    }
}

/// One registered experiment.
pub struct Scenario {
    /// Stable id — also the name of the standalone wrapper binary
    /// (e.g. `fig10_step_speedup`).
    pub id: &'static str,
    /// The paper artifact it reproduces (`"Table 1"`, `"Figure 10"`).
    pub paper_ref: &'static str,
    /// One-line description (also the banner subtitle).
    pub description: &'static str,
    /// Runs the experiment at the given sizes.
    pub run: fn(&ScenarioCtx) -> Report,
}

/// Every experiment, in paper order (motivation → design → training
/// evaluation → inference evaluation → serving).
pub const REGISTRY: &[Scenario] = &[
    Scenario {
        id: "table1",
        paper_ref: "Table 1",
        description: "all-to-all completion time and ratio (training & inference)",
        run: scenarios::table1::run,
    },
    Scenario {
        id: "fig2_timeline",
        paper_ref: "Figure 2",
        description: "forward-pass timeline of one MoE layer (419M model)",
        run: scenarios::fig2_timeline::run,
    },
    Scenario {
        id: "fig3_slowdown_cdf",
        paper_ref: "Figure 3",
        description: "CDF of all-to-all slowdown under allreduce overlap (baseline)",
        run: scenarios::fig3_slowdown_cdf::run,
    },
    Scenario {
        id: "fig4_expert_sweep",
        paper_ref: "Figure 4",
        description: "all-to-all share of step time vs number of experts",
        run: scenarios::fig4_expert_sweep::run,
    },
    Scenario {
        id: "fig5_backward_timeline",
        paper_ref: "Figure 5",
        description: "backward-pass timeline: all-to-all prolonged by allreduce (GPT-2)",
        run: scenarios::fig5_backward_timeline::run,
    },
    Scenario {
        id: "fig6_popularity",
        paper_ref: "Figure 6",
        description: "expert popularity: training vs inference (enwik8)",
        run: scenarios::fig6_popularity::run,
    },
    Scenario {
        id: "fig7_schedules",
        paper_ref: "Figure 7",
        description: "scheduling strategies for backward all-to-all + allreduce",
        run: scenarios::fig7_schedules::run,
    },
    Scenario {
        id: "fig8_microops",
        paper_ref: "Figure 8",
        description: "tensor partitioning and pipelined micro-ops (Lina)",
        run: scenarios::fig8_microops::run,
    },
    Scenario {
        id: "fig9_pattern",
        paper_ref: "Figure 9",
        description: "token-level expert-selection pattern across layers",
        run: scenarios::fig9_pattern::run,
    },
    Scenario {
        id: "table2",
        paper_ref: "Table 2",
        description: "top-4 popular experts per layer (12-expert inference)",
        run: scenarios::table2::run,
    },
    Scenario {
        id: "fig10_step_speedup",
        paper_ref: "Figure 10",
        description: "training step-time speedup of Lina",
        run: scenarios::fig10_step_speedup::run,
    },
    Scenario {
        id: "fig11_12_layer_speedup",
        paper_ref: "Figures 11/12",
        description: "MoE-layer forward and backward speedup",
        run: scenarios::fig11_12_layer_speedup::run,
    },
    Scenario {
        id: "fig13_a2a_speedup",
        paper_ref: "Figure 13",
        description: "backward all-to-all time speedup",
        run: scenarios::fig13_a2a_speedup::run,
    },
    Scenario {
        id: "table3",
        paper_ref: "Table 3",
        description: "pipelining efficiency with/without expert packing",
        run: scenarios::table3::run,
    },
    Scenario {
        id: "table4",
        paper_ref: "Table 4",
        description: "GPU utilization and peak memory (16-expert models)",
        run: scenarios::table4::run,
    },
    Scenario {
        id: "fig14_ablation",
        paper_ref: "Figure 14",
        description: "scheduler ablation: priority / +partitioning / +pipelining / fixed",
        run: scenarios::fig14_ablation::run,
    },
    Scenario {
        id: "fig15_partition_size",
        paper_ref: "Figure 15",
        description: "partition-size sweep (16-expert models)",
        run: scenarios::fig15_partition_size::run,
    },
    Scenario {
        id: "fig16_inference",
        paper_ref: "Figure 16",
        description: "median/95%ile inference time normalized to Ideal",
        run: scenarios::fig16_inference::run,
    },
    Scenario {
        id: "fig17_layer_time",
        paper_ref: "Figure 17",
        description: "95%ile MoE-layer time, Baseline vs Lina",
        run: scenarios::fig17_layer_time::run,
    },
    Scenario {
        id: "fig18_a2a_tail",
        paper_ref: "Figure 18",
        description: "tail all-to-all time per layer (16-expert)",
        run: scenarios::fig18_a2a_tail::run,
    },
    Scenario {
        id: "fig19_accuracy",
        paper_ref: "Figure 19",
        description: "estimation accuracy per layer (16-expert)",
        run: scenarios::fig19_accuracy::run,
    },
    Scenario {
        id: "table5",
        paper_ref: "Table 5",
        description: "sample-path length sweep (16-expert models)",
        run: scenarios::table5::run,
    },
    Scenario {
        id: "table6",
        paper_ref: "Table 6",
        description: "generalizability across tasks and datasets (l = 3)",
        run: scenarios::table6::run,
    },
    Scenario {
        id: "serve_load_sweep",
        paper_ref: "Serving sweep",
        description: "open-loop latency vs offered load (Transformer-XL, 16 experts)",
        run: scenarios::serve_load_sweep::run,
    },
    Scenario {
        id: "serve_autoscale",
        paper_ref: "Serving autoscale",
        description: "elastic autoscaling: trace shape x policy x SLO cost-vs-attainment frontier",
        run: scenarios::serve_autoscale::run,
    },
    Scenario {
        id: "serve_cluster",
        paper_ref: "Serving cluster",
        description: "multi-replica serving: load balancer x estimator sharing under drift",
        run: scenarios::serve_cluster::run,
    },
    Scenario {
        id: "serve_contention",
        paper_ref: "Serving contention",
        description: "solo vs contended collective pricing under bursty overlap",
        run: scenarios::serve_contention::run,
    },
    Scenario {
        id: "serve_resharding",
        paper_ref: "Serving resharding",
        description: "proactive expert re-sharding: drift rate x policy x transfer cost vs epoch re-placement",
        run: scenarios::serve_resharding::run,
    },
    Scenario {
        id: "serve_affinity",
        paper_ref: "Serving affinity",
        description: "inter-layer affinity placement: map correlation x placement arm under locality-aware all-to-alls",
        run: scenarios::serve_affinity::run,
    },
    Scenario {
        id: "serve_faults",
        paper_ref: "Serving faults",
        description: "fault injection: crash intensity x recovery x degradation policy",
        run: scenarios::serve_faults::run,
    },
    Scenario {
        id: "serve_gray",
        paper_ref: "Serving gray faults",
        description: "gray-failure detection and hedged dispatch: gray intensity x {oracle, detector, detector+hedging}",
        run: scenarios::serve_gray::run,
    },
];

/// Looks up a scenario by id.
pub fn find(id: &str) -> Option<&'static Scenario> {
    REGISTRY.iter().find(|s| s.id == id)
}

/// Entry point for the thin per-figure wrapper binaries: runs the
/// scenario at `Full` tier and reprints the historical stdout (banner,
/// tables, notes).
///
/// # Panics
///
/// Panics if `id` is not registered.
pub fn run_standalone(id: &str) {
    let scenario = find(id).unwrap_or_else(|| panic!("unknown scenario id {id:?}"));
    crate::banner(scenario.paper_ref, scenario.description);
    let report = (scenario.run)(&ScenarioCtx::full());
    print!("{}", report.render());
}

/// Lowercases a display name into a metric-friendly slug
/// (`"Transformer-XL"` → `"transformer_xl"`).
pub fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_31_experiments() {
        assert_eq!(REGISTRY.len(), 31);
        let mut ids: Vec<&str> = REGISTRY.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 31, "scenario ids must be unique");
        assert!(find("table1").is_some());
        assert!(find("serve_load_sweep").is_some());
        assert!(find("serve_autoscale").is_some());
        assert!(find("serve_cluster").is_some());
        assert!(find("serve_contention").is_some());
        assert!(find("serve_faults").is_some());
        assert!(find("serve_gray").is_some());
        assert!(find("serve_resharding").is_some());
        assert!(find("serve_affinity").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn tier_parsing() {
        assert_eq!(Tier::parse("smoke"), Some(Tier::Smoke));
        assert_eq!(Tier::parse("Full"), Some(Tier::Full));
        assert_eq!(Tier::parse("medium"), None);
        assert_eq!(Tier::Smoke.name(), "smoke");
    }

    #[test]
    fn slugs() {
        assert_eq!(slug("Transformer-XL"), "transformer_xl");
        assert_eq!(slug("BERT-Large"), "bert_large");
        assert_eq!(slug("WMT French"), "wmt_french");
    }

    #[test]
    fn smoke_ctx_is_small() {
        let ctx = ScenarioCtx::smoke();
        assert!(ctx.steps <= 4 && ctx.batches <= 4 && ctx.tokens_per_device <= 4096);
        assert_eq!(ctx.pick(&[2, 4, 8, 16], &[16]), vec![16]);
        assert_eq!(ctx.training_models(8).len(), 1);
        let full = ScenarioCtx::for_tier(Tier::Full);
        assert_eq!(full.pick(&[2, 4, 8, 16], &[16]), vec![2, 4, 8, 16]);
        assert_eq!(full.training_models(8).len(), 3);
    }
}
