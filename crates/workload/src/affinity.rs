//! Inter-layer expert-affinity statistics.
//!
//! The generative gating model routes a token class through a
//! depth-persistent chain of experts: with probability
//! [`WorkloadSpec::map_correlation`](crate::WorkloadSpec) a class's
//! layer-`l` expert group moves *together* to its layer-`l+1` group, so
//! consecutive layers' selections are correlated. [`AffinityStats`]
//! measures that correlation directly from served token paths: for
//! every adjacent layer pair it counts how often expert `e` at layer
//! `l` is followed by expert `f` at layer `l+1` on the same token (the
//! top-1 selection — the copy that could physically stay resident on
//! the expert's device). The counts feed the affinity-aware placer in
//! `lina-baselines`, which co-locates high-affinity chains so the
//! inter-layer all-to-all becomes a local handoff.

use crate::tokens::{TokenBatch, TokenPath};

/// Per-layer-pair expert co-selection counts harvested from token
/// paths.
#[derive(Clone, Debug, PartialEq)]
pub struct AffinityStats {
    experts: usize,
    /// `counts[l][e][f]` = tokens whose primary expert was `e` at layer
    /// `l` and `f` at layer `l + 1`.
    counts: Vec<Vec<Vec<u64>>>,
}

impl AffinityStats {
    /// An empty collector for a model with `layers` MoE layers of
    /// `experts` experts each (`layers - 1` adjacent pairs).
    ///
    /// # Panics
    ///
    /// Panics on a zero-layer or zero-expert shape.
    pub fn new(layers: usize, experts: usize) -> Self {
        assert!(layers > 0, "AffinityStats: zero layers");
        assert!(experts > 0, "AffinityStats: zero experts");
        AffinityStats {
            experts,
            counts: vec![vec![vec![0; experts]; experts]; layers.saturating_sub(1)],
        }
    }

    /// Number of adjacent layer pairs tracked (`layers - 1`).
    pub fn hops(&self) -> usize {
        self.counts.len()
    }

    /// Experts per layer.
    pub fn experts(&self) -> usize {
        self.experts
    }

    /// Folds one token's primary-expert path into the counts. Paths
    /// shorter than the tracked depth contribute only the pairs they
    /// cover.
    pub fn record_path(&mut self, path: &TokenPath) {
        let depth = path.layers().min(self.counts.len() + 1);
        for l in 0..depth.saturating_sub(1) {
            let e = path.primary(l) as usize;
            let f = path.primary(l + 1) as usize;
            self.counts[l][e][f] += 1;
        }
    }

    /// Folds every token of a batch.
    pub fn record_batch(&mut self, batch: &TokenBatch) {
        for path in &batch.tokens {
            self.record_path(path);
        }
    }

    /// Builds the statistics from a profiling corpus in one call.
    pub fn from_batches(batches: &[TokenBatch], layers: usize, experts: usize) -> Self {
        let mut stats = Self::new(layers, experts);
        for b in batches {
            stats.record_batch(b);
        }
        stats
    }

    /// The co-selection count matrix for the `hop`-th adjacent pair
    /// (`counts[e][f]` = layer-`hop` expert `e` followed by layer-
    /// `hop + 1` expert `f`).
    pub fn pair_counts(&self, hop: usize) -> &[Vec<u64>] {
        &self.counts[hop]
    }

    /// Affinity strength of one hop: the excess probability mass the
    /// modal *conditional* successor carries over the modal *marginal*
    /// successor,
    /// `sum_e P(e) * max_f P(f | e)  -  max_f P(f)`.
    ///
    /// Under independent layers the conditional distribution equals the
    /// marginal for every predecessor, so the score collapses to ~0
    /// (small positive sampling bias aside); a deterministic
    /// `e -> f` chain scores `1 - max_f P(f)`.
    pub fn hop_score(&self, hop: usize) -> f64 {
        let m = &self.counts[hop];
        let total: u64 = m.iter().flatten().sum();
        if total == 0 {
            return 0.0;
        }
        let conditional: u64 = m
            .iter()
            .map(|row| row.iter().copied().max().unwrap_or(0))
            .sum();
        let marginal = (0..self.experts)
            .map(|f| m.iter().map(|row| row[f]).sum::<u64>())
            .max()
            .unwrap_or(0);
        (conditional as f64 - marginal as f64) / total as f64
    }

    /// Mean [`hop_score`](Self::hop_score) over every recorded hop —
    /// the scalar the property tests sweep against `map_correlation`.
    pub fn affinity_score(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        let sum: f64 = (0..self.hops()).map(|h| self.hop_score(h)).sum();
        sum / self.hops() as f64
    }

    /// Total token-hops recorded.
    pub fn samples(&self) -> u64 {
        self.counts.first().map_or(0, |m| m.iter().flatten().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(selections: &[u16]) -> TokenPath {
        TokenPath::new(0, 1, selections)
    }

    #[test]
    fn counts_follow_primary_pairs() {
        let mut s = AffinityStats::new(3, 4);
        s.record_path(&path(&[0, 1, 2]));
        s.record_path(&path(&[0, 1, 3]));
        assert_eq!(s.hops(), 2);
        assert_eq!(s.pair_counts(0)[0][1], 2);
        assert_eq!(s.pair_counts(1)[1][2], 1);
        assert_eq!(s.pair_counts(1)[1][3], 1);
        assert_eq!(s.samples(), 2);
    }

    #[test]
    fn deterministic_chain_scores_high_independent_scores_zero() {
        let mut chain = AffinityStats::new(2, 4);
        for e in 0..4u16 {
            for _ in 0..25 {
                chain.record_path(&path(&[e, (e + 1) % 4]));
            }
        }
        // Deterministic successor: conditional mass 1, marginal 1/4.
        assert!((chain.affinity_score() - 0.75).abs() < 1e-12);

        let mut indep = AffinityStats::new(2, 4);
        for e in 0..4u16 {
            for f in 0..4u16 {
                for _ in 0..25 {
                    indep.record_path(&path(&[e, f]));
                }
            }
        }
        assert_eq!(indep.affinity_score(), 0.0);
    }

    #[test]
    fn short_paths_only_cover_their_hops() {
        let mut s = AffinityStats::new(4, 2);
        s.record_path(&path(&[0, 1]));
        assert_eq!(s.pair_counts(0)[0][1], 1);
        assert_eq!(s.pair_counts(1).iter().flatten().sum::<u64>(), 0);
        assert_eq!(s.pair_counts(2).iter().flatten().sum::<u64>(), 0);
    }

    #[test]
    fn single_layer_model_has_no_hops() {
        let s = AffinityStats::new(1, 4);
        assert_eq!(s.hops(), 0);
        assert_eq!(s.affinity_score(), 0.0);
    }
}
