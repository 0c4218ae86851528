//! The experiment implementations behind the registry — one module per
//! table/figure of the paper (plus the serving load sweep), each
//! exposing `run(&ScenarioCtx) -> Report`.
//!
//! A scenario never prints and never reads the environment: all sizing
//! comes from the [`crate::ScenarioCtx`], all output goes into the
//! returned [`lina_simcore::Report`]. At `Full` tier the rendered
//! report is the historical per-binary stdout; at `Smoke` tier sweep
//! grids shrink to a seconds-scale subset.

pub mod fig10_step_speedup;
pub mod fig11_12_layer_speedup;
pub mod fig13_a2a_speedup;
pub mod fig14_ablation;
pub mod fig15_partition_size;
pub mod fig16_inference;
pub mod fig17_layer_time;
pub mod fig18_a2a_tail;
pub mod fig19_accuracy;
pub mod fig2_timeline;
pub mod fig3_slowdown_cdf;
pub mod fig4_expert_sweep;
pub mod fig5_backward_timeline;
pub mod fig6_popularity;
pub mod fig7_schedules;
pub mod fig8_microops;
pub mod fig9_pattern;
pub mod serve_affinity;
pub mod serve_autoscale;
pub mod serve_cluster;
pub mod serve_contention;
pub mod serve_faults;
pub mod serve_gray;
pub mod serve_load_sweep;
pub mod serve_resharding;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

/// Arithmetic mean, 0.0 for an empty slice.
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
