//! Heap allocations of a training step, counted by this binary's own
//! global allocator: building the microbench's step graph (4-layer
//! Transformer-XL on 16 GPUs) costs at most 4 allocations per op, and
//! executing it at most 3. An op and a span carry no label, and the
//! engine walks a completed op's dependents without copying them.
//!
//! Counts are per thread, so the harness running tests in parallel
//! does not leak one test's allocations into another's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lina_baselines::TrainScheme;
use lina_model::{
    balanced_routing, build_train_step, BatchShape, CostModel, DeviceSpec, MoeModelConfig,
};
use lina_netsim::{ClusterSpec, Topology};
use lina_runner::execute;

/// The system allocator, counting every allocation and reallocation
/// made on the current thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its value and the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// The microbench's `step_simulation/4layer_16dev` step under `scheme`:
/// allocations per op of building its graph and of executing it.
fn per_op(scheme: TrainScheme) -> (f64, f64) {
    let model = MoeModelConfig::transformer_xl(4, 16);
    let topo = Topology::new(ClusterSpec::with_total_gpus(16));
    let cost = CostModel::new(DeviceSpec::a100(), model.clone());
    let batch = BatchShape {
        seqs_per_device: 32,
        seq_len: model.seq_len,
    };
    let routing = balanced_routing(&model, 16, batch);
    let opts = scheme.step_options(16, &topo);
    let policy = scheme.policy();
    let (graph, built) = allocations(|| build_train_step(&cost, &topo, batch, &routing, &opts));
    let (result, executed) = allocations(|| execute(&graph, &topo, &policy));
    assert!(result.op_windows.iter().all(Option::is_some));
    let ops = graph.len() as f64;
    (built as f64 / ops, executed as f64 / ops)
}

#[test]
fn a_training_step_allocates_a_few_times_per_op() {
    for scheme in [TrainScheme::Baseline, TrainScheme::LinaNoPack] {
        let (build, exec) = per_op(scheme);
        let name = scheme.name();
        assert!(
            build <= 4.0,
            "{name}: build_train_step makes {build:.2} allocations per op"
        );
        assert!(
            exec <= 3.0,
            "{name}: execute makes {exec:.2} allocations per op"
        );
    }
}
