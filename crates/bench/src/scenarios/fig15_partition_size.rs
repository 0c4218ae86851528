//! Figure 15: training step time of 16-expert models as the tensor
//! partition size sweeps from 10 MB to 100 MB (paper: sizes beyond
//! 50 MB slow Transformer-XL and BERT2GPT2; several sizes around
//! 10-30 MB are equally good; very small partitions pay per-op
//! overhead).

use lina_baselines::TrainScheme;
use lina_model::{A2aChunking, GradCommMode};
use lina_simcore::{format_secs, geomean, Report, Table};

use crate::ScenarioCtx;

/// Runs the experiment.
pub fn run(ctx: &ScenarioCtx) -> Report {
    let mut report = Report::new();
    let experts = 16usize;
    let sizes_mb = [5.0, 10.0, 30.0, 50.0, 100.0];
    let mut table = Table::new(
        "step time vs partition size (no packing; priority scheduler)",
        &["model", "5MB", "10MB", "30MB", "50MB", "100MB"],
    );
    let mut per_size: Vec<Vec<f64>> = vec![Vec::new(); sizes_mb.len()];
    for model in ctx.training_models(experts) {
        let topo = crate::topo(experts);
        let cost = crate::train_cost(model.clone());
        let batch = crate::train_batch(&model);
        let mut cells = vec![model.name.clone()];
        for (si, &mb) in sizes_mb.iter().enumerate() {
            let bytes = mb * 1e6;
            let scheme = TrainScheme::LinaNoPack;
            // Override both partition sizes.
            let mut step_times: Vec<f64> = Vec::new();
            for seed in 0..ctx.steps.min(5) as u64 {
                let mut opts = scheme.step_options(experts, &topo);
                opts.grad_comm = GradCommMode::Partitioned { chunk_bytes: bytes };
                opts.a2a_chunking = A2aChunking::FixedBytes(bytes);
                opts.seed = 171 + seed;
                let routing = lina_model::balanced_routing(&cost.model, 16, batch);
                let graph = lina_model::build_train_step(&cost, &topo, batch, &routing, &opts);
                let exec = lina_runner::execute(&graph, &topo, &scheme.policy());
                step_times.push(exec.makespan.as_secs_f64());
            }
            let mean = step_times.iter().sum::<f64>() / step_times.len() as f64;
            per_size[si].push(mean);
            cells.push(format_secs(mean));
        }
        table.row(&cells);
    }
    report.table(table);
    report.text(
        "paper: 30 MB minimizes the period blocked by all-to-all in most\n\
         cases; beyond 50 MB Transformer-XL and BERT2GPT2 slow down; below\n\
         ~10 MB per-micro-op transmission overhead begins to dominate.",
    );
    for (si, &mb) in sizes_mb.iter().enumerate() {
        report.metric_unit(
            format!("step_time_{}mb_geomean", mb as usize),
            geomean(&per_size[si]),
            "s",
        );
    }
    report
}
