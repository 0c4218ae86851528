//! The reference job the benchmark times beside every iteration.
//!
//! The job is the benchmark's own code and calls nothing in the
//! library, so its CPU time depends only on how fast the host runs this
//! process at that moment. Dividing an iteration's CPU time by the
//! reference job's, measured just before and after it, cancels the
//! slowdowns other tenants of a shared host cause in both alike.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// Events the job pops: tens of milliseconds of work.
const EVENTS: u64 = 200_000;

/// Pending events the job's heap holds.
const PENDING: u64 = 4096;

/// The reference job: a small discrete-event loop over a binary heap
/// with a short allocation and some floating-point work per event, the
/// mix a simulator iteration is made of. It always does the same work.
pub fn job() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = BinaryHeap::with_capacity(PENDING as usize);
    for id in 0..PENDING {
        heap.push((Reverse(next() % 1_000_000), id));
    }
    let (mut acc, mut sum) = (0.0f64, 0u64);
    for _ in 0..EVENTS {
        let (Reverse(t), id) = heap.pop().expect("every pop is followed by a push");
        let payload: Vec<f64> = (0..next() % 24 + 8).map(|k| (k ^ id) as f64).collect();
        acc += payload.iter().map(|v| (v * 1.000_001).sqrt()).sum::<f64>();
        sum = sum.wrapping_add(t ^ id);
        heap.push((Reverse(t + next() % 10_000), id));
    }
    black_box(acc);
    black_box(sum)
}
