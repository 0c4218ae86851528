//! Randomized property tests of the simulation substrate, driven by the
//! crate's own deterministic RNG (the environment vendors no external
//! property-testing framework, so each property sweeps many seeded
//! cases explicitly).

use lina_simcore::{EventQueue, Rng, Samples, SimDuration, SimTime, Zipf};

#[test]
fn simtime_add_sub_roundtrip() {
    let mut rng = Rng::new(0xA11CE);
    for _ in 0..500 {
        let time = SimTime::from_nanos(rng.below(u64::MAX / 4));
        let dur = SimDuration::from_nanos(rng.below(u64::MAX / 4));
        assert_eq!((time + dur) - time, dur);
        assert_eq!((time + dur) - dur, time);
    }
}

#[test]
fn duration_f64_roundtrip_is_tight() {
    let mut rng = Rng::new(0xB0B);
    for _ in 0..500 {
        let ns = rng.below(10_000_000_000_000);
        let d = SimDuration::from_nanos(ns);
        let back = SimDuration::from_secs_f64(d.as_secs_f64());
        // f64 has 53 bits of mantissa; error is bounded by the scale.
        let err = back.as_nanos().abs_diff(ns);
        assert!(err <= 1 + ns / (1 << 50), "{ns} -> {err}");
    }
}

#[test]
fn percentiles_are_monotone_and_bounded() {
    let mut rng = Rng::new(0xC0DE);
    for _ in 0..100 {
        let n = 1 + rng.index(199);
        let mut values: Vec<f64> = (0..n).map(|_| rng.uniform(-1e7, 1e7)).collect();
        let mut s = Samples::from_values(values.clone());
        let (p1, p2) = (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0));
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        assert!(s.percentile(lo) <= s.percentile(hi) + 1e-9);
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert!(s.percentile(0.0) >= values[0] - 1e-9);
        assert!(s.percentile(100.0) <= values[values.len() - 1] + 1e-9);
    }
}

#[test]
fn mean_lies_between_min_and_max() {
    let mut rng = Rng::new(0xD1CE);
    for _ in 0..100 {
        let n = 1 + rng.index(99);
        let values: Vec<f64> = (0..n).map(|_| rng.uniform(-1e6, 1e6)).collect();
        let s = Samples::from_values(values);
        assert!(s.min() - 1e-9 <= s.mean() && s.mean() <= s.max() + 1e-9);
    }
}

#[test]
fn event_queue_pops_sorted() {
    let mut rng = Rng::new(0xE4E);
    for _ in 0..100 {
        let n = 1 + rng.index(199);
        let times: Vec<u64> = (0..n).map(|_| rng.below(1_000_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            count += 1;
        }
        assert_eq!(count, times.len());
    }
}

#[test]
fn rng_below_is_in_range() {
    let mut meta = Rng::new(0xF00);
    for _ in 0..50 {
        let seed = meta.next_u64();
        let bound = 1 + meta.below(1_000_000);
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            assert!(rng.below(bound) < bound);
        }
    }
}

#[test]
fn zipf_pmf_normalizes() {
    let mut rng = Rng::new(0x21F);
    for _ in 0..200 {
        let n = 1 + rng.index(63);
        let s = rng.uniform(0.0, 3.0);
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}

#[test]
fn shuffle_preserves_multiset() {
    let mut meta = Rng::new(0x5F0F);
    for _ in 0..100 {
        let n = meta.index(50);
        let mut v: Vec<u32> = (0..n).map(|_| meta.below(100) as u32).collect();
        let mut rng = Rng::new(meta.next_u64());
        let mut shuffled = v.clone();
        rng.shuffle(&mut shuffled);
        shuffled.sort_unstable();
        v.sort_unstable();
        assert_eq!(shuffled, v);
    }
}
