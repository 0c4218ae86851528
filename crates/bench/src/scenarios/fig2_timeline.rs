//! Figure 2: timeline of the forward pass of one MoE layer, showing
//! all-to-all dominating (the paper measures 74.9% of the layer).

use lina_baselines::TrainScheme;
use lina_model::{CommClass, MoeModelConfig};
use lina_runner::train::run_train_step;
use lina_simcore::{format_pct, Report, SimDuration, SimTime};

use crate::ScenarioCtx;

/// Runs the experiment.
pub fn run(_ctx: &ScenarioCtx) -> Report {
    let mut report = Report::new();
    let model = MoeModelConfig::transformer_xl(12, 16);
    let topo = crate::topo(16);
    let cost = crate::train_cost(model.clone());
    let batch = crate::train_batch(&model);
    let run = run_train_step(&cost, &topo, batch, TrainScheme::Baseline, 11);

    // Find the forward window of layer 5 (mid-model): gate to combine.
    let layer = 5usize;
    let mut lo = SimTime::MAX;
    let mut hi = SimTime::ZERO;
    let mut a2a_time = SimDuration::ZERO;
    for (op, s, e) in run.exec.executed(&run.graph) {
        if op.layer != Some(layer) || op.backward || !op.in_moe_window() {
            continue;
        }
        lo = lo.min(s);
        hi = hi.max(e);
        if op.comm_class() == Some(CommClass::AllToAll) {
            a2a_time += e - s;
        }
    }
    let layer_time = hi - lo;
    let share = a2a_time.ratio(layer_time);
    report.text(format!(
        "MoE layer {layer} forward: {layer_time}, all-to-all {a2a_time} ({})",
        format_pct(share)
    ));
    report.text("paper: all-to-all takes 74.9% of the MoE layer's forward pass\n");
    report.text(run.exec.timeline(&run.graph).render_ascii(lo, hi, 100));
    report.text("glyphs: G gate, # all-to-all, F expert FFN, C combine, = allreduce");
    report.metric_unit("fwd_layer_a2a_share", share, "frac");
    report.metric_unit("fwd_layer_time", layer_time.as_secs_f64(), "s");
    report
}
