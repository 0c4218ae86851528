//! Randomized property tests of the workload generator, swept over many
//! deterministic seeds.

use lina_simcore::Rng;
use lina_workload::{pattern_ratio, popularity, AffinityStats, Mode, TokenSource, WorkloadSpec};

/// Batches always have the requested shape and in-range selections.
#[test]
fn batches_are_well_formed() {
    let mut meta = Rng::new(0xB47C ^ 0x1234);
    for _ in 0..32 {
        let seed = meta.next_u64();
        let experts = 1usize << (1 + meta.index(4));
        let tokens = 1 + meta.index(199);
        let top_k = (1 + meta.index(2)).min(experts);
        let spec = WorkloadSpec::enwik8(experts, 6);
        let mut src = TokenSource::new(&spec, top_k, seed);
        for mode in [Mode::Train, Mode::Inference] {
            let batch = src.sample_batch(4, tokens, mode);
            assert_eq!(batch.len(), 4 * tokens);
            for tok in &batch.tokens {
                assert!(tok.class < spec.classes);
                assert_eq!(tok.layers(), 6);
                assert_eq!(tok.selections().len(), 6 * top_k);
                for layer in 0..6 {
                    let sel = tok.selection(layer);
                    let mut distinct = sel.to_vec();
                    distinct.sort_unstable();
                    distinct.dedup();
                    assert_eq!(distinct.len(), top_k, "duplicate experts in top-k");
                    for &e in sel {
                        assert!((e as usize) < experts);
                    }
                }
            }
        }
    }
}

/// Popularity is a distribution and routing conserves tokens at every
/// layer.
#[test]
fn popularity_is_a_distribution() {
    let mut meta = Rng::new(0xD157);
    for _ in 0..16 {
        let seed = meta.next_u64();
        let tokens = 16 + meta.index(240);
        let spec = WorkloadSpec::wmt_en_de(16, 8);
        let mut src = TokenSource::new(&spec, 1, seed);
        let batch = src.sample_batch(8, tokens, Mode::Inference);
        for layer in 0..8 {
            let pop = popularity(&batch, layer);
            let total: f64 = pop.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(pop.iter().all(|&p| (0.0..=1.0).contains(&p)));
            let routing = batch.routing_for_layer(layer);
            assert_eq!(routing.total(), batch.len());
        }
    }
}

/// The pattern ratio is a proper fraction and grows with k.
#[test]
fn pattern_ratio_is_fraction_monotone_in_k() {
    let mut meta = Rng::new(0x9A77);
    for _ in 0..8 {
        let seed = meta.next_u64();
        let spec = WorkloadSpec::enwik8(16, 8);
        let mut src = TokenSource::new(&spec, 1, seed);
        let batch = src.sample_batch(8, 512, Mode::Inference);
        for layer in 0..7 {
            let mut last = 0.0;
            for k in 1..=4 {
                let r = pattern_ratio(&batch, layer, k);
                assert!((0.0..=1.0).contains(&r));
                assert!(r + 1e-12 >= last, "ratio fell as k grew");
                last = r;
            }
        }
    }
}

/// Measured inter-layer affinity rises with `map_correlation` and
/// collapses to (near) zero when consecutive layers select
/// independently.
#[test]
fn affinity_rises_with_map_correlation() {
    let mut meta = Rng::new(0xAF1A);
    for _ in 0..4 {
        let seed = meta.next_u64();
        let mut scores = Vec::new();
        for &corr in &[0.0, 0.3, 0.6, 0.9] {
            let mut spec = WorkloadSpec::enwik8(8, 6);
            // Fine class granularity: with only ~experts classes, a
            // layer's expert nearly identifies the class and the class
            // carries affinity on its own even at zero correlation.
            spec.classes = 256;
            // Bursts correlate layers through the per-batch topic
            // boost (both layers skew toward the topic classes), which
            // is real affinity but not the map correlation under test.
            spec.burst_strength = 0.0;
            spec.map_correlation = corr;
            let mut src = TokenSource::new(&spec, 1, seed);
            let batches: Vec<_> = (0..4)
                .map(|_| src.sample_batch(4, 512, Mode::Inference))
                .collect();
            let stats = AffinityStats::from_batches(&batches, 6, 8);
            scores.push(stats.affinity_score());
        }
        assert!(
            scores[0].abs() < 0.05,
            "independent layers must score near zero, got {}",
            scores[0]
        );
        for w in scores.windows(2) {
            assert!(
                w[1] + 0.02 > w[0],
                "affinity fell as correlation grew: {scores:?}"
            );
        }
        assert!(
            scores[3] > scores[0] + 0.1,
            "full correlation must clearly beat independence: {scores:?}"
        );
    }
}

/// Determinism: the same seed reproduces the same batch.
#[test]
fn seeded_reproducibility() {
    let mut meta = Rng::new(0x5EED);
    for _ in 0..16 {
        let seed = meta.next_u64();
        let spec = WorkloadSpec::imdb(8, 6);
        let mut a = TokenSource::new(&spec, 1, seed);
        let mut b = TokenSource::new(&spec, 1, seed);
        let ba = a.sample_batch(4, 64, Mode::Inference);
        let bb = b.sample_batch(4, 64, Mode::Inference);
        assert_eq!(ba.tokens, bb.tokens);
    }
}
