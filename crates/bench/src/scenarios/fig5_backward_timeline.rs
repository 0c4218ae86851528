//! Figure 5: timeline of backward-propagating an MoE layer under
//! hybrid parallelism — the first all-to-all is prolonged by the
//! concurrent allreduce.

use lina_baselines::TrainScheme;
use lina_model::{CommClass, MoeModelConfig};
use lina_runner::train::run_train_step;
use lina_simcore::{format_speedup, Report, SimTime};

use crate::ScenarioCtx;

/// Runs the experiment.
pub fn run(_ctx: &ScenarioCtx) -> Report {
    let mut report = Report::new();
    // GPT-2's per-layer gradients flush DDP buckets mid-backward, so
    // allreduce overlaps the expert-parallel all-to-all.
    let model = MoeModelConfig::gpt2(16);
    let topo = crate::topo(16);
    let cost = crate::train_cost(model.clone());
    let batch = crate::train_batch(&model);
    let run = run_train_step(&cost, &topo, batch, TrainScheme::Baseline, 5);

    // Find the most-slowed overlapped backward all-to-all and render a
    // window around it.
    let m = &run.metrics;
    let mut worst: Option<(usize, f64)> = None;
    for (i, (&s, &o)) in m
        .a2a_bwd_slowdowns
        .iter()
        .zip(&m.a2a_bwd_overlapped)
        .enumerate()
    {
        if o {
            match worst {
                Some((_, best)) if best >= s => {}
                _ => worst = Some((i, s)),
            }
        }
    }
    let Some((_, slowdown)) = worst else {
        report.text("no overlap occurred in this step (try more steps)");
        report.metric_unit("worst_overlapped_slowdown", 0.0, "x");
        return report;
    };
    report.text(format!(
        "worst overlapped backward all-to-all slowdown: {}",
        format_speedup(slowdown)
    ));
    report.metric_unit("worst_overlapped_slowdown", slowdown, "x");

    // Render the window around an allreduce that overlaps an
    // all-to-all (the Figure 5 situation).
    let a2a_windows: Vec<(SimTime, SimTime)> = run
        .exec
        .executed(&run.graph)
        .filter(|(op, _, _)| op.comm_class() == Some(CommClass::AllToAll) && op.backward)
        .map(|(_, s, e)| (s, e))
        .collect();
    let mut window: Option<(SimTime, SimTime)> = None;
    for (op, s, e) in run.exec.executed(&run.graph) {
        if op.comm_class() == Some(CommClass::Allreduce) {
            let overlaps = a2a_windows.iter().any(|&(as_, ae)| as_ < e && ae > s);
            if overlaps && window.is_none_or(|(ws, we)| (e - s) > (we - ws)) {
                window = Some((s, e));
            }
        }
    }
    let (s, e) = window.expect("an allreduce overlapped an all-to-all");
    let pad = (e - s) / 3;
    let timeline = run.exec.timeline(&run.graph);
    report.text(timeline.render_ascii(s - pad, e + pad, 110));
    report.text("glyphs: A attention, G gate, # all-to-all, F expert FFN, C combine, = allreduce");
    report.text("paper: the median slowdown over such overlaps is 1.83x (Figure 3).");
    report
}
