//! Statistical analyses of token workloads.
//!
//! These functions compute the empirical quantities the paper's
//! motivation section reports: per-layer expert popularity (Figure 6,
//! Table 2) and the cross-layer expert-selection pattern ratio
//! (Figure 9).

use std::collections::BTreeMap;

use crate::tokens::TokenBatch;

/// Normalized expert popularity at a layer: fraction of primary
/// selections landing on each expert.
pub fn popularity(batch: &TokenBatch, layer: usize) -> Vec<f64> {
    let mut counts = vec![0usize; batch.experts];
    for tok in &batch.tokens {
        counts[tok.primary(layer) as usize] += 1;
    }
    let total = batch.tokens.len().max(1) as f64;
    counts.into_iter().map(|c| c as f64 / total).collect()
}

/// Max/min popularity ratio at a layer (Figure 6's skew measure).
/// Returns `f64::INFINITY` when some expert receives nothing.
pub fn popularity_skew(batch: &TokenBatch, layer: usize) -> f64 {
    let pop = popularity(batch, layer);
    let max = pop.iter().copied().fold(0.0, f64::max);
    let min = pop.iter().copied().fold(f64::INFINITY, f64::min);
    if min <= 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

/// The `n` most popular experts at a layer, most popular first
/// (Table 2's rows).
pub fn top_experts(batch: &TokenBatch, layer: usize, n: usize) -> Vec<usize> {
    let pop = popularity(batch, layer);
    let mut idx: Vec<usize> = (0..pop.len()).collect();
    idx.sort_by(|&a, &b| pop[b].partial_cmp(&pop[a]).expect("finite").then(a.cmp(&b)));
    idx.truncate(n);
    idx
}

/// Figure 9's pattern ratio: among tokens that selected the same expert
/// at `layer`, the fraction whose `layer + 1` primary selection falls in
/// their group's locally ranked top-k. Token-weighted across groups;
/// returns 0 for an empty batch or the last layer.
pub fn pattern_ratio(batch: &TokenBatch, layer: usize, k: usize) -> f64 {
    if batch.tokens.is_empty() || layer + 1 >= batch.tokens[0].layers() {
        return 0.0;
    }
    // Group tokens by primary expert at `layer`.
    let mut groups: BTreeMap<u16, Vec<u16>> = BTreeMap::new();
    for tok in &batch.tokens {
        groups
            .entry(tok.primary(layer))
            .or_default()
            .push(tok.primary(layer + 1));
    }
    let mut matched = 0usize;
    let mut total = 0usize;
    for next in groups.values() {
        // Rank next-layer experts within the group.
        let mut counts: BTreeMap<u16, usize> = BTreeMap::new();
        for &e in next {
            *counts.entry(e).or_insert(0) += 1;
        }
        let mut ranked: Vec<(u16, usize)> = counts.into_iter().collect();
        ranked.sort_by_key(|&(e, c)| (std::cmp::Reverse(c), e));
        let topk: Vec<u16> = ranked.iter().take(k).map(|&(e, _)| e).collect();
        matched += next.iter().filter(|e| topk.contains(e)).count();
        total += next.len();
    }
    if total == 0 {
        0.0
    } else {
        matched as f64 / total as f64
    }
}

/// Mean pattern ratio over all adjacent layer pairs of the model.
pub fn mean_pattern_ratio(batch: &TokenBatch, k: usize) -> f64 {
    if batch.tokens.is_empty() {
        return 0.0;
    }
    let layers = batch.tokens[0].layers();
    if layers < 2 {
        return 0.0;
    }
    let sum: f64 = (0..layers - 1).map(|l| pattern_ratio(batch, l, k)).sum();
    sum / (layers - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gating::Mode;
    use crate::spec::WorkloadSpec;
    use crate::tokens::{TokenPath, TokenSource};

    fn batch(mode: Mode) -> TokenBatch {
        let mut s = TokenSource::new(&WorkloadSpec::enwik8(16, 12), 1, 42);
        s.sample_batch(16, 512, mode)
    }

    #[test]
    fn popularity_sums_to_one() {
        let b = batch(Mode::Inference);
        for layer in 0..12 {
            let pop = popularity(&b, layer);
            let total: f64 = pop.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "layer {layer}: {total}");
        }
    }

    #[test]
    fn inference_more_skewed_than_training() {
        let bt = batch(Mode::Train);
        let bi = batch(Mode::Inference);
        let st = popularity_skew(&bt, 6);
        let si = popularity_skew(&bi, 6);
        assert!(si > st * 1.5, "train skew {st}, inference skew {si}");
    }

    #[test]
    fn inference_skew_in_paper_range() {
        // Paper: most popular expert gets 4.02x (4-expert) to 5.56x
        // (16-expert) the least popular one.
        let b = batch(Mode::Inference);
        let mean_skew: f64 = (0..12).map(|l| popularity_skew(&b, l)).sum::<f64>() / 12.0;
        assert!(
            (2.0..12.0).contains(&mean_skew),
            "mean inference skew {mean_skew} out of plausible range"
        );
    }

    #[test]
    fn top_experts_differ_across_layers() {
        let b = batch(Mode::Inference);
        let t4: Vec<Vec<usize>> = (0..12).map(|l| top_experts(&b, l, 4)).collect();
        // Table 2: layers have (mostly) different top-4 sets.
        let distinct: std::collections::BTreeSet<&Vec<usize>> = t4.iter().collect();
        assert!(
            distinct.len() >= 8,
            "only {} distinct top-4 sets",
            distinct.len()
        );
    }

    #[test]
    fn pattern_ratio_in_paper_range() {
        // Paper: ~41.9% at k=1, ~54.6% at k=2, increasing with k.
        let b = batch(Mode::Inference);
        let r1 = mean_pattern_ratio(&b, 1);
        let r2 = mean_pattern_ratio(&b, 2);
        let r3 = mean_pattern_ratio(&b, 3);
        assert!((0.3..0.6).contains(&r1), "k=1 ratio {r1}");
        assert!(r2 > r1, "k=2 {r2} not above k=1 {r1}");
        assert!(r3 > r2, "k=3 {r3} not above k=2 {r2}");
    }

    #[test]
    fn pattern_ratio_deeper_layers_higher() {
        let b = batch(Mode::Inference);
        let early: f64 = (0..4).map(|l| pattern_ratio(&b, l, 1)).sum::<f64>() / 4.0;
        let late: f64 = (7..11).map(|l| pattern_ratio(&b, l, 1)).sum::<f64>() / 4.0;
        assert!(late > early, "late {late} <= early {early}");
    }

    #[test]
    fn pattern_ratio_handles_degenerate_input() {
        let empty = TokenBatch {
            tokens: vec![],
            devices: 1,
            experts: 4,
        };
        assert_eq!(pattern_ratio(&empty, 0, 1), 0.0);
        let single_layer = TokenBatch {
            tokens: vec![TokenPath::new(0, 1, &[0])],
            devices: 1,
            experts: 4,
        };
        assert_eq!(pattern_ratio(&single_layer, 0, 1), 0.0);
        assert_eq!(mean_pattern_ratio(&single_layer, 1), 0.0);
    }

    #[test]
    fn perfectly_persistent_tokens_have_ratio_one() {
        // All tokens pick expert (class % 4) at every layer: groups are
        // pure, so the ratio is 1 at any k.
        let tokens: Vec<TokenPath> = (0..64)
            .map(|i| TokenPath::new(i, 1, &[(i % 4) as u16; 3]))
            .collect();
        let b = TokenBatch {
            tokens,
            devices: 1,
            experts: 4,
        };
        assert!((pattern_ratio(&b, 0, 1) - 1.0).abs() < 1e-12);
    }
}
