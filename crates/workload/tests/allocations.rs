//! Heap allocations of token sampling, counted by this binary's own
//! global allocator: a served token's path lives inside the token, so a
//! request costs one allocation (its token `Vec`), and only paths longer
//! than the inline capacity allocate per token.
//!
//! Counts are per thread, so the harness running tests in parallel
//! does not leak one test's allocations into another's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lina_workload::{Mode, TokenPath, TokenSource, WorkloadSpec};

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

/// An 8k-token inference batch at 12 layers, top-1: the token `Vec` and,
/// on a source's first call, its burst-topic buffer.
#[test]
fn a_batch_of_inline_paths_allocates_only_its_vec() {
    let mut src = TokenSource::new(&WorkloadSpec::enwik8(16, 12), 1, 9);
    let (batch, n) = allocations(|| src.sample_batch(16, 512, Mode::Inference));
    assert_eq!(batch.len(), 8192);
    assert!(n <= 2, "{n} allocations for the first batch");
    let (_, n) = allocations(|| src.sample_batch(16, 512, Mode::Inference));
    assert_eq!(n, 1, "a later batch reuses the topic buffer");
}

/// The serving trace's token stage: 600 one-device requests at 6 layers,
/// top-1, with the popular classes rotating every 100 requests, cost one
/// allocation each plus the source and the outer `Vec`.
#[test]
fn a_request_stream_allocates_once_per_request() {
    const REQUESTS: usize = 600;
    let spec = WorkloadSpec::enwik8(8, 6);
    let (requests, n) = allocations(|| {
        let mut src = TokenSource::new(&spec, 1, 9);
        (0..REQUESTS)
            .map(|id| {
                src.set_class_rotation(id / 100);
                src.sample_batch(1, 256, Mode::Inference).tokens
            })
            .collect::<Vec<Vec<TokenPath>>>()
    });
    assert_eq!(requests.len(), REQUESTS);
    let (_, fixed) = allocations(|| TokenSource::new(&spec, 1, 9));
    assert!(
        n <= REQUESTS + fixed + 2,
        "{n} allocations for {REQUESTS} requests ({fixed} to build the source)"
    );
}

/// Paths beyond the inline capacity (24 layers at top-2) spill: one
/// allocation per token, on top of the batch's `Vec`.
#[test]
fn spilled_paths_allocate_once_per_token() {
    let mut src = TokenSource::new(&WorkloadSpec::enwik8(8, 24), 2, 9);
    src.sample_batch(1, 1, Mode::Inference);
    let (batch, n) = allocations(|| src.sample_batch(2, 64, Mode::Inference));
    assert_eq!(batch.tokens[0].selections().len(), 48);
    assert_eq!(n, batch.len() + 1);
    let (_, n) = allocations(|| src.sample_token(Mode::Inference));
    assert_eq!(n, 1);
    let (_, n) = allocations(|| batch.tokens[0].clone());
    assert_eq!(n, 1);
}
