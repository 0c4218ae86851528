//! Micro-benchmarks of the simulator and scheduler hot paths: these
//! quantify the cost of the reproduction's own machinery (as opposed to
//! the table/figure binaries, which report *simulated* time).
//!
//! The harness is self-contained (`harness = false`): each case is
//! warmed up, then timed over enough iterations to fill a ~200 ms
//! window, reporting mean wall-clock time and heap allocations per
//! iteration. Allocations are counted by this binary's own global
//! allocator, so the library crates carry no instrumentation.
//!
//! An optional argument runs only the cases whose name contains it:
//!
//! ```text
//! cargo bench -p lina-bench --bench microbench -- solo/
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use lina_baselines::{InferScheme, TrainScheme};
use lina_core::{popularity_placement, PlacementConfig, PopularityEstimator};
use lina_model::{
    assign_replicas, balanced_routing, build_train_step, BatchShape, CostModel, DeviceSpec,
    ExpertPlacement, LayerRouting, MoeModelConfig,
};
use lina_netsim::{
    max_min_rates, AllToAllAlgo, ClusterSpec, CollectiveSpec, FlowDemand, SoloTimer, Topology,
};
use lina_runner::{
    execute, execute_plan_solo, plan_batch, run_train_step, InferenceConfig, NetworkMode,
    ReplicaExecutor,
};
use lina_simcore::{SimDuration, SimTime};
use lina_workload::{Mode, TokenBatch, TokenPath, TokenSource, WorkloadSpec};

/// The system allocator, counting every allocation and reallocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The case-name filter: the first argument that is not a flag
/// (`cargo bench` passes `--bench` itself).
fn filter() -> Option<&'static str> {
    static FILTER: OnceLock<Option<String>> = OnceLock::new();
    FILTER
        .get_or_init(|| std::env::args().skip(1).find(|a| !a.starts_with('-')))
        .as_deref()
}

/// Times `f` and prints one result line, unless the filter excludes
/// `name`. Returns-value of `f` is black-boxed through
/// `std::hint::black_box` to stop the optimizer from deleting the work.
fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    if filter().is_some_and(|pat| !name.contains(pat)) {
        return;
    }
    // Warm-up and per-iteration estimate.
    let start = Instant::now();
    std::hint::black_box(f());
    let once = start.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.2 / once) as u64).clamp(1, 100_000);
    let allocs = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs;
    report(name, start.elapsed().as_secs_f64(), allocs, iters);
}

/// Like [`bench`], but each iteration's input comes from `setup`, which
/// runs outside the timed region and the allocation count, and the
/// value `f` returns is dropped outside them too.
fn bench_with_setup<I, T>(name: &str, mut setup: impl FnMut() -> I, mut f: impl FnMut(I) -> T) {
    if filter().is_some_and(|pat| !name.contains(pat)) {
        return;
    }
    let input = setup();
    let start = Instant::now();
    std::hint::black_box(f(input));
    let once = start.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.2 / once) as u64).clamp(1, 100_000);
    let (mut secs, mut allocs) = (0.0, 0);
    for _ in 0..iters {
        let input = setup();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let start = Instant::now();
        let out = std::hint::black_box(f(input));
        secs += start.elapsed().as_secs_f64();
        allocs += ALLOCATIONS.load(Ordering::Relaxed) - before;
        drop(out);
    }
    report(name, secs, allocs, iters);
}

/// Prints one result line from a case's totals over `iters` iterations.
fn report(name: &str, secs: f64, allocs: u64, iters: u64) {
    let allocs = allocs as f64 / iters as f64;
    println!(
        "{name:<40} {:>12} / iter  {allocs:>10.0} allocs / iter  ({iters} iters)",
        lina_simcore::format_secs(secs / iters as f64)
    );
}

fn bench_fairshare() {
    for &flows in &[16usize, 64, 240] {
        let capacities = vec![12e9; 64];
        let paths: Vec<Vec<u32>> = (0..flows)
            .map(|i| vec![(i % 32) as u32, 32 + (i % 32) as u32])
            .collect();
        let demands: Vec<FlowDemand<'_>> = paths
            .iter()
            .map(|p| FlowDemand {
                weight: 1.0,
                links: p,
            })
            .collect();
        bench(&format!("fairshare/max_min_rates/{flows}"), || {
            max_min_rates(&capacities, &demands)
        });
    }
}

fn bench_collectives() {
    let topo = Topology::new(ClusterSpec::paper_testbed());
    for (name, algo) in [
        ("flat", AllToAllAlgo::Flat),
        ("hierarchical", AllToAllAlgo::Hierarchical),
    ] {
        let spec = CollectiveSpec::uniform_all_to_all(topo.device_ids().collect(), 2e6, algo);
        bench(&format!("collectives/a2a_16dev/{name}"), || {
            SoloTimer::new(&topo).time(&spec)
        });
    }
    // The serving shape: a flat all-to-all over 2 nodes x 4 GPUs with
    // skewed per-pair sizes, priced on one reused timer.
    let topo = Topology::new(ClusterSpec::with_total_gpus(8));
    let participants: Vec<_> = topo.device_ids().collect();
    let sizes: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            (0..8)
                .map(|j| {
                    if i == j {
                        0.0
                    } else {
                        2e5 * (1 + (3 * i + 5 * j) % 7) as f64
                    }
                })
                .collect()
        })
        .collect();
    let spec = CollectiveSpec::AllToAll {
        participants,
        sizes,
        algo: AllToAllAlgo::Flat,
    };
    let mut timer = SoloTimer::new(&topo);
    bench("solo/a2a_8gpu_unequal", || timer.time(&spec));
    // One serving batch as the cluster prices it: a planned 6-layer
    // Baseline batch over the same 8 GPUs, a dispatch and a combine
    // all-to-all per layer, through `execute_plan_solo`.
    let model = MoeModelConfig::transformer_xl(6, 8).for_inference();
    let cost = CostModel::new(DeviceSpec::a100_inference(), model);
    let mut src = TokenSource::new(&WorkloadSpec::enwik8(8, 6), 1, 1234);
    let batch = src.sample_batch(8, 2048, Mode::Inference);
    let config = InferenceConfig {
        scheme: InferScheme::Baseline,
        top_k: 1,
    };
    let plan = plan_batch(&cost, &topo, &config, None, &batch);
    let collectives = plan
        .layers
        .iter()
        .map(|lp| usize::from(lp.dispatch.is_some()) + usize::from(lp.combine_a2a.is_some()))
        .sum::<usize>();
    assert_eq!(collectives, 12, "one dispatch and one combine per layer");
    bench("solo/serving_batch", || {
        execute_plan_solo(&plan, &mut timer)
    });
    // The same batch alone on a fresh contended executor, built as the
    // cluster builds it when nothing reads the completion estimate: the
    // layer walk driven by stage timers and the shared network.
    let plan = Arc::new(plan);
    let topo = Arc::new(topo);
    bench("exec/contended_serving_batch", || {
        let mut exec =
            ReplicaExecutor::new_shared(NetworkMode::Contended, Arc::clone(&topo), false);
        exec.submit(0, SimTime::ZERO, Arc::clone(&plan));
        exec.advance_to(SimTime::MAX)
    });
    // Four copies of it submitted 200 us apart on one contended
    // executor, so their collectives overlap on the shared network:
    // the shape of a replica with four batches in flight. The
    // `_estimated` case also solo-prices each batch at submit, as a
    // replica whose estimate has a reader does; the difference between
    // the two is the estimate's cost.
    let four_batches = |estimate: bool| {
        let mut exec =
            ReplicaExecutor::new_shared(NetworkMode::Contended, Arc::clone(&topo), estimate);
        for id in 0..4 {
            let at = SimTime::ZERO + SimDuration::from_micros(200 * id);
            exec.submit(id, at, Arc::clone(&plan));
        }
        exec.advance_to(SimTime::MAX)
    };
    bench("exec/contended_four_batches", || four_batches(false));
    bench("exec/contended_four_batches_estimated", || {
        four_batches(true)
    });
}

fn bench_placement() {
    let topo = Topology::new(ClusterSpec::paper_testbed());
    let pop: Vec<f64> = (0..16).map(|e| 1.0 / (e + 1) as f64).collect();
    let config = PlacementConfig {
        devices: 16,
        max_experts_per_device: 4,
    };
    bench("popularity_placement_16", || {
        popularity_placement(&pop, config)
    });
    let placement = popularity_placement(&pop, config);
    let routing = LayerRouting::balanced(16, 16, 16_384, 1);
    bench("assign_replicas_16", || {
        assign_replicas(&routing, &placement, &topo)
    });
}

fn bench_estimator() {
    let spec = WorkloadSpec::enwik8(16, 12);
    let mut src = TokenSource::new(&spec, 1, 1);
    let profile: Vec<TokenBatch> = (0..4)
        .map(|_| src.sample_batch(16, 1024, Mode::Train))
        .collect();
    bench("estimator_profile_l3", || {
        PopularityEstimator::profile(&profile, 3)
    });
    let est = PopularityEstimator::profile(&profile, 3);
    let batch = src.sample_batch(16, 1024, Mode::Inference);
    bench("estimate_popularity_16k_tokens", || {
        est.estimate_popularity(&batch.tokens, 6, 1)
    });
    // The served shape: simbench's `lina_drift` replicas run 8 experts
    // over 6 layers at l = 3 on full 2,048-token batches.
    let spec = WorkloadSpec::enwik8(8, 6);
    let mut src = TokenSource::new(&spec, 1, 1);
    let profile: Vec<TokenBatch> = (0..4)
        .map(|_| src.sample_batch(8, 256, Mode::Train))
        .collect();
    let est = PopularityEstimator::profile(&profile, 3);
    let batch = src.sample_batch(8, 256, Mode::Inference);
    bench("estimate_popularity_served_2k_tokens", || {
        est.estimate_popularity(&batch.tokens, 4, 1)
    });
}

fn bench_step_simulation() {
    let model = MoeModelConfig::transformer_xl(4, 16);
    let topo = Topology::new(ClusterSpec::with_total_gpus(16));
    let cost = CostModel::new(DeviceSpec::a100(), model.clone());
    let batch = BatchShape {
        seqs_per_device: 32,
        seq_len: model.seq_len,
    };
    let routing = balanced_routing(&model, 16, batch);
    for scheme in [TrainScheme::Baseline, TrainScheme::LinaNoPack] {
        let opts = scheme.step_options(16, &topo);
        bench(
            &format!("step_simulation/4layer_16dev/{}", scheme.name()),
            || {
                let graph = build_train_step(&cost, &topo, batch, &routing, &opts);
                execute(&graph, &topo, &scheme.policy())
            },
        );
    }
}

/// A whole training step at simbench's `train_step` shape (24-layer
/// Transformer-XL on 16 GPUs, 64 sequences per device, Lina at packing
/// 4): graph build, execution and metric extraction.
fn bench_step_metrics() {
    let model = MoeModelConfig::transformer_xl(24, 16);
    let topo = Topology::new(ClusterSpec::with_total_gpus(16));
    let batch = BatchShape {
        seqs_per_device: 64,
        seq_len: model.seq_len,
    };
    let cost = CostModel::new(DeviceSpec::a100(), model);
    for scheme in [
        TrainScheme::Baseline,
        TrainScheme::Lina {
            experts_per_device: 4,
        },
    ] {
        bench(
            &format!("step_metrics/24layer_16dev/{}", scheme.name()),
            || run_train_step(&cost, &topo, batch, scheme, 1).metrics,
        );
    }
}

fn bench_workload() {
    let spec = WorkloadSpec::enwik8(16, 12);
    let mut src = TokenSource::new(&spec, 1, 9);
    // 12 layers at top-1 fit inside each token: one allocation per
    // iteration, the batch's token `Vec`.
    bench("sample_batch_8k_tokens", move || {
        src.sample_batch(16, 512, Mode::Inference)
    });
    // The serving trace's token stage: each request samples as a
    // one-device batch, and the popular classes rotate every 100
    // requests. One allocation per request (its token `Vec`) plus the
    // source's construction and the outer `Vec`.
    let spec = WorkloadSpec::enwik8(8, 6);
    bench("workload/request_stream", || {
        let mut src = TokenSource::new(&spec, 1, 9);
        (0..600)
            .map(|id| {
                src.set_class_rotation(id / 100);
                src.sample_batch(1, 256, Mode::Inference).tokens
            })
            .collect::<Vec<Vec<TokenPath>>>()
    });
}

fn bench_batch_assembly() {
    // Dispatch moves a full batch's member tokens (8 requests of 256)
    // into the shared batch the planner reads, as `ClusterSim::dispatch`
    // does: allocations for the batch and its `Arc`, none per token,
    // and each request's emptied buffer freed. The requests are cloned
    // afresh outside the timed region.
    let spec = WorkloadSpec::enwik8(8, 6);
    let mut src = TokenSource::new(&spec, 1, 9);
    let requests: Vec<Vec<TokenPath>> = (0..8)
        .map(|_| src.sample_batch(1, 256, Mode::Inference).tokens)
        .collect();
    let batch_tokens = requests.iter().map(Vec::len).sum();
    bench_with_setup(
        "serve/batch_assembly",
        || requests.clone(),
        |requests| {
            let mut tokens = Vec::with_capacity(batch_tokens);
            for mut r in requests {
                tokens.append(&mut r);
            }
            Arc::new(TokenBatch {
                tokens,
                devices: 8,
                experts: spec.experts,
            })
        },
    );
}

fn bench_packed_dispatch() {
    let topo = Topology::new(ClusterSpec::paper_testbed());
    let placement = ExpertPlacement::packed(16, &topo, 4);
    let routing = LayerRouting::balanced(16, 16, 16_384, 2);
    bench("assign_replicas_packed4", || {
        assign_replicas(&routing, &placement, &topo)
    });
}

fn main() {
    println!("lina micro-benchmarks (wall-clock cost of the simulator itself)");
    println!("----------------------------------------------------------------");
    bench_fairshare();
    bench_collectives();
    bench_placement();
    bench_estimator();
    bench_step_simulation();
    bench_step_metrics();
    bench_workload();
    bench_batch_assembly();
    bench_packed_dispatch();
}
