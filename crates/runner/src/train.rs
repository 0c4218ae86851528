//! Training-step driver and metric extraction.
//!
//! Runs one or more training steps of a model under a [`TrainScheme`]
//! and extracts the metrics the paper reports: step time, MoE-layer
//! forward/backward time, all-to-all completion time and its slowdown
//! versus an uncontended run (Figure 3), pipelining efficiency
//! (Table 3), and GPU utilization (Table 4).

use std::collections::BTreeMap;

use lina_baselines::TrainScheme;
use lina_model::{balanced_routing, build_train_step, BatchShape, CommClass, CostModel, OpKind};
use lina_netsim::{SoloTimer, Topology};
use lina_simcore::{Samples, SimDuration, SimTime};

use crate::engine::{execute, ExecResult};

/// Metrics of one training step.
#[derive(Clone, Debug)]
pub struct StepMetrics {
    /// Wall-clock of the whole step (through the optimizer).
    pub step_time: SimDuration,
    /// Mean forward MoE-layer time (gate through combine).
    pub fwd_layer_time: SimDuration,
    /// Mean backward MoE-layer time.
    pub bwd_layer_time: SimDuration,
    /// Total all-to-all stream occupancy over the step.
    pub a2a_total: SimDuration,
    /// Completion time of each *logical* backward all-to-all (chunks of
    /// one tensor aggregated).
    pub a2a_bwd_times: Vec<SimDuration>,
    /// Per logical backward all-to-all: completion time divided by its
    /// uncontended (solo) completion time.
    pub a2a_bwd_slowdowns: Vec<f64>,
    /// Aligned with `a2a_bwd_slowdowns`: true when the op's window
    /// overlapped an in-flight allreduce (the Figure 3 condition).
    pub a2a_bwd_overlapped: Vec<bool>,
    /// Fraction of all-to-all time with the compute stream busy.
    pub pipelining_efficiency: f64,
    /// Mean compute-stream utilization across devices.
    pub compute_util: f64,
}

/// One step's raw execution plus its metrics.
pub struct StepRun {
    /// Extracted metrics.
    pub metrics: StepMetrics,
    /// Raw execution: each op's window ([`ExecResult::timeline`]
    /// lowers them to the step's timeline).
    pub exec: ExecResult,
    /// The graph that ran (for further analysis).
    pub graph: lina_model::OpGraph,
}

/// Runs one training step.
pub fn run_train_step(
    cost: &CostModel,
    topo: &Topology,
    batch: BatchShape,
    scheme: TrainScheme,
    seed: u64,
) -> StepRun {
    let model = &cost.model;
    let routing = balanced_routing(model, topo.devices(), batch);
    let mut opts = scheme.step_options(model.experts, topo);
    opts.seed = seed;
    let graph = build_train_step(cost, topo, batch, &routing, &opts);
    let exec = execute(&graph, topo, &scheme.policy());
    let metrics = extract_metrics(&graph, topo, &exec, model.layers);
    StepRun {
        metrics,
        exec,
        graph,
    }
}

/// Runs `steps` steps (different jitter seeds) and returns the metrics
/// of each.
pub fn run_train_steps(
    cost: &CostModel,
    topo: &Topology,
    batch: BatchShape,
    scheme: TrainScheme,
    steps: usize,
    base_seed: u64,
) -> Vec<StepMetrics> {
    (0..steps)
        .map(|s| run_train_step(cost, topo, batch, scheme, base_seed + s as u64).metrics)
        .collect()
}

fn extract_metrics(
    graph: &lina_model::OpGraph,
    topo: &Topology,
    exec: &ExecResult,
    layers: usize,
) -> StepMetrics {
    // MoE-layer windows: gate/ffn/combine compute plus all-to-all comm,
    // grouped by (layer, direction).
    let mut fwd_windows: Vec<(SimTime, SimTime)> = vec![(SimTime::MAX, SimTime::ZERO); layers];
    let mut bwd_windows: Vec<(SimTime, SimTime)> = vec![(SimTime::MAX, SimTime::ZERO); layers];
    for (op, s, e) in exec.executed(graph) {
        let Some(layer) = op.layer.filter(|_| op.in_moe_window()) else {
            continue;
        };
        let w = if op.backward {
            &mut bwd_windows[layer]
        } else {
            &mut fwd_windows[layer]
        };
        w.0 = w.0.min(s);
        w.1 = w.1.max(e);
    }
    let mean_window = |ws: &[(SimTime, SimTime)]| -> SimDuration {
        let durs: Vec<SimDuration> = ws
            .iter()
            .filter(|(s, e)| e > s)
            .map(|&(s, e)| e - s)
            .collect();
        if durs.is_empty() {
            SimDuration::ZERO
        } else {
            durs.iter().copied().sum::<SimDuration>() / durs.len() as u64
        }
    };

    // Allreduce windows, for the Figure 3 overlap condition.
    let ar_windows: Vec<(SimTime, SimTime)> = exec
        .executed(graph)
        .filter(|(op, _, _)| op.comm_class() == Some(CommClass::Allreduce))
        .map(|(_, s, e)| (s, e))
        .collect();
    // Logical backward all-to-all completion times and slowdowns, keyed
    // by (layer, logical id): layer ascending.
    let mut logical: BTreeMap<(Option<usize>, usize), (SimTime, SimTime, f64)> = BTreeMap::new();
    let mut a2a_total = SimDuration::ZERO;
    let mut solo_cache: BTreeMap<u64, SimDuration> = BTreeMap::new();
    let mut solo_timer = SoloTimer::new(topo);
    for (op, s, e) in exec.executed(graph) {
        let OpKind::Comm { spec, logical: id } = &op.kind else {
            continue;
        };
        if op.comm_class() != Some(CommClass::AllToAll) {
            continue;
        }
        a2a_total += e - s;
        // Solo time for one chunk, cached by rounded size; a forward
        // chunk fills the cache a backward one of that size reads.
        let size_key = spec.total_bytes().round() as u64;
        let solo = *solo_cache
            .entry(size_key)
            .or_insert_with(|| solo_timer.time(spec));
        if !op.backward {
            continue;
        }
        let entry = logical
            .entry((op.layer, *id))
            .or_insert((SimTime::MAX, SimTime::ZERO, 0.0));
        entry.0 = entry.0.min(s);
        entry.1 = entry.1.max(e);
        entry.2 += solo.as_secs_f64();
    }
    let mut a2a_bwd_times = Vec::new();
    let mut a2a_bwd_slowdowns = Vec::new();
    let mut a2a_bwd_overlapped = Vec::new();
    for (s, e, solo_secs) in logical.values() {
        let actual = *e - *s;
        a2a_bwd_times.push(actual);
        if *solo_secs > 0.0 {
            a2a_bwd_slowdowns.push(actual.as_secs_f64() / solo_secs);
            a2a_bwd_overlapped.push(ar_windows.iter().any(|&(ws, we)| ws < *e && we > *s));
        }
    }

    let timeline = exec.timeline(graph);
    StepMetrics {
        step_time: exec.makespan,
        fwd_layer_time: mean_window(&fwd_windows),
        bwd_layer_time: mean_window(&bwd_windows),
        a2a_total,
        a2a_bwd_times,
        a2a_bwd_slowdowns,
        a2a_bwd_overlapped,
        pipelining_efficiency: timeline.pipelining_efficiency(),
        compute_util: timeline.mean_compute_utilization(topo.devices() as u32),
    }
}

/// Aggregates per-step metrics into distribution summaries.
pub fn summarize_steps(steps: &[StepMetrics]) -> TrainSummary {
    let mut step_time = Samples::new();
    let mut a2a_total = Samples::new();
    let mut slowdowns = Samples::new();
    let mut util = Samples::new();
    for m in steps {
        step_time.push_duration(m.step_time);
        a2a_total.push_duration(m.a2a_total);
        for &s in &m.a2a_bwd_slowdowns {
            slowdowns.push(s);
        }
        util.push(m.compute_util);
    }
    TrainSummary {
        step_time,
        a2a_total,
        slowdowns,
        util,
    }
}

/// Distribution summaries over steps.
pub struct TrainSummary {
    /// Step time samples (seconds).
    pub step_time: Samples,
    /// Per-step total all-to-all time samples.
    pub a2a_total: Samples,
    /// Per-logical-op backward all-to-all slowdowns.
    pub slowdowns: Samples,
    /// Compute-utilization samples.
    pub util: Samples,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lina_model::{DeviceSpec, MoeModelConfig};
    use lina_netsim::{ClusterSpec, CollectiveSpec};

    fn setup(experts: usize, layers: usize) -> (CostModel, Topology, BatchShape) {
        let model = MoeModelConfig::transformer_xl(layers, experts);
        let topo = Topology::new(ClusterSpec::with_total_gpus(experts));
        let batch = BatchShape {
            seqs_per_device: 8,
            seq_len: model.seq_len,
        };
        (CostModel::new(DeviceSpec::a100(), model), topo, batch)
    }

    /// GPT-2 has large enough per-layer gradients that DDP buckets
    /// flush mid-backward, creating the contention of Figures 3/5.
    fn setup_gpt2(experts: usize) -> (CostModel, Topology, BatchShape) {
        let model = MoeModelConfig::gpt2(experts);
        let topo = Topology::new(ClusterSpec::with_total_gpus(experts));
        let batch = BatchShape {
            seqs_per_device: 8,
            seq_len: model.seq_len,
        };
        (CostModel::new(DeviceSpec::a100(), model), topo, batch)
    }

    #[test]
    fn baseline_a2a_is_contended_in_backward() {
        let (cost, topo, batch) = setup_gpt2(16);
        let run = run_train_step(&cost, &topo, batch, TrainScheme::Baseline, 3);
        let m = &run.metrics;
        assert!(!m.a2a_bwd_slowdowns.is_empty());
        let overlapped: Vec<f64> = m
            .a2a_bwd_slowdowns
            .iter()
            .zip(&m.a2a_bwd_overlapped)
            .filter(|(_, &o)| o)
            .map(|(&s, _)| s)
            .collect();
        assert!(
            !overlapped.is_empty(),
            "some backward all-to-all must overlap an allreduce"
        );
        let mean: f64 = overlapped.iter().sum::<f64>() / overlapped.len() as f64;
        assert!(
            mean > 1.2,
            "overlapped all-to-all should be slowed, got mean {mean:.2}"
        );
    }

    #[test]
    fn lina_reduces_step_time_and_slowdown() {
        let (cost, topo, batch) = setup_gpt2(16);
        let base = run_train_step(&cost, &topo, batch, TrainScheme::Baseline, 3).metrics;
        let lina = run_train_step(&cost, &topo, batch, TrainScheme::LinaNoPack, 3).metrics;
        assert!(
            lina.step_time < base.step_time,
            "lina {} >= baseline {}",
            lina.step_time,
            base.step_time
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&lina.a2a_bwd_slowdowns) < mean(&base.a2a_bwd_slowdowns) + 1e-9,
            "lina slowdown {:.2} vs baseline {:.2}",
            mean(&lina.a2a_bwd_slowdowns),
            mean(&base.a2a_bwd_slowdowns)
        );
    }

    #[test]
    fn layer_windows_are_positive() {
        let (cost, topo, batch) = setup(4, 4);
        let m = run_train_step(&cost, &topo, batch, TrainScheme::Baseline, 1).metrics;
        assert!(m.fwd_layer_time > SimDuration::ZERO);
        assert!(m.bwd_layer_time > SimDuration::ZERO);
        assert!(
            m.bwd_layer_time > m.fwd_layer_time,
            "backward should cost more"
        );
        assert!(m.a2a_total > SimDuration::ZERO);
        assert!(m.compute_util > 0.0 && m.compute_util <= 1.0);
    }

    #[test]
    fn packing_pipelining_beats_nopack() {
        // A batch big enough that 30 MB partitioning yields multiple
        // all-to-all micro-ops (per-device tensor ~ 67 MB).
        let (cost, topo, _) = setup(16, 4);
        let batch = BatchShape {
            seqs_per_device: 64,
            seq_len: cost.model.seq_len,
        };
        let nopack = run_train_step(&cost, &topo, batch, TrainScheme::LinaNoPack, 1).metrics;
        // The paper's 16-expert Transformer-XL setting packs 4 experts
        // per device: each node then holds a full replica set and
        // all-to-all becomes intra-node.
        let packed = run_train_step(
            &cost,
            &topo,
            batch,
            TrainScheme::Lina {
                experts_per_device: 4,
            },
            1,
        )
        .metrics;
        assert!(nopack.pipelining_efficiency > 0.0, "pipelining must engage");
        assert!(
            packed.pipelining_efficiency > nopack.pipelining_efficiency,
            "packed {:.2} <= nopack {:.2}",
            packed.pipelining_efficiency,
            nopack.pipelining_efficiency
        );
    }

    #[test]
    fn chunks_of_a_logical_all_to_all_fold_into_one_entry() {
        // 30 MB micro-ops split LinaNoPack's ~67 MB per-device tensor;
        // Tutel halves every all-to-all.
        let (cost, topo, _) = setup(16, 4);
        let layers = cost.model.layers;
        let batch = BatchShape {
            seqs_per_device: 64,
            seq_len: cost.model.seq_len,
        };
        // Two logical all-to-alls per layer and pass.
        for (scheme, chunked) in [
            (TrainScheme::Baseline, false),
            (TrainScheme::Tutel, true),
            (TrainScheme::LinaNoPack, true),
        ] {
            let run = run_train_step(&cost, &topo, batch, scheme, 1);
            let name = scheme.name();
            let a2a_ops = run.graph.comm_ops(CommClass::AllToAll).len();
            assert_eq!(a2a_ops > 4 * layers, chunked, "{name}: {a2a_ops} ops");
            assert_eq!(run.metrics.a2a_bwd_times.len(), 2 * layers, "{name}");
        }
    }

    #[test]
    fn summary_aggregates() {
        let (cost, topo, batch) = setup(4, 2);
        let steps = run_train_steps(&cost, &topo, batch, TrainScheme::Baseline, 3, 10);
        assert_eq!(steps.len(), 3);
        let summary = summarize_steps(&steps);
        assert_eq!(summary.step_time.len(), 3);
        assert!(summary.step_time.mean() > 0.0);
        assert!(summary.util.mean() > 0.0);
    }

    #[test]
    fn solo_time_is_positive_and_scales() {
        let topo = Topology::new(ClusterSpec::paper_testbed());
        let devs: Vec<_> = topo.device_ids().collect();
        let mut timer = SoloTimer::new(&topo);
        let small = timer.time(&CollectiveSpec::uniform_all_to_all(
            devs.clone(),
            1e5,
            lina_netsim::AllToAllAlgo::Hierarchical,
        ));
        let large = timer.time(&CollectiveSpec::uniform_all_to_all(
            devs,
            1e6,
            lina_netsim::AllToAllAlgo::Hierarchical,
        ));
        assert!(large > small);
        assert!(small > SimDuration::ZERO);
    }
}
