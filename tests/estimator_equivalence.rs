//! Differential test of the popularity estimator against a reference
//! implementation kept here as the oracle: `Ψ` tables keyed by
//! `Vec<u16>` expert paths in `BTreeMap`s with per-path `Vec<f64>`
//! distributions, and a sort-based top-k. The library's packed-code
//! tables must give bit-identical distributions, path counts and
//! popularity estimates.

use std::collections::BTreeMap;

use lina::core::{top_indices, PopularityEstimator};
use lina::simcore::Rng;
use lina::workload::{Mode, TokenBatch, TokenPath, TokenSource, WorkloadSpec};

/// The reference estimator: the straightforward representation.
struct Oracle {
    path_length: usize,
    experts: usize,
    layers: usize,
    tables: Vec<Vec<BTreeMap<Vec<u16>, Vec<f64>>>>,
    marginals: Vec<Vec<f64>>,
}

fn suffix(tok: &TokenPath, layer: usize, l: usize) -> Vec<u16> {
    let start = (layer + 1).saturating_sub(l);
    (start..=layer).map(|i| tok.primary(i)).collect()
}

fn normalized(mut dist: Vec<f64>) -> Vec<f64> {
    let total: f64 = dist.iter().sum();
    if total > 0.0 {
        for v in &mut dist {
            *v /= total;
        }
    }
    dist
}

impl Oracle {
    fn profile(batches: &[TokenBatch], path_length: usize) -> Self {
        let experts = batches[0].experts;
        let layers = batches[0].tokens[0].layers();
        let mut tables: Vec<Vec<BTreeMap<Vec<u16>, Vec<f64>>>> =
            vec![vec![BTreeMap::new(); layers - 1]; path_length];
        let mut marginals = vec![vec![0.0f64; experts]; layers];
        for tok in batches.iter().flat_map(|b| &b.tokens) {
            for layer in 0..layers {
                marginals[layer][tok.primary(layer) as usize] += 1.0;
                if layer + 1 < layers {
                    for len in 1..=path_length {
                        let dist = tables[len - 1][layer]
                            .entry(suffix(tok, layer, len))
                            .or_insert_with(|| vec![0.0; experts]);
                        dist[tok.primary(layer + 1) as usize] += 1.0;
                    }
                }
            }
        }
        let tables = tables
            .into_iter()
            .map(|per_layer| {
                per_layer
                    .into_iter()
                    .map(|m| m.into_iter().map(|(k, d)| (k, normalized(d))).collect())
                    .collect()
            })
            .collect();
        let marginals = marginals.into_iter().map(normalized).collect();
        Oracle {
            path_length,
            experts,
            layers,
            tables,
            marginals,
        }
    }

    fn paths_at(&self, layer: usize) -> usize {
        self.tables[self.path_length - 1]
            .get(layer)
            .map_or(0, BTreeMap::len)
    }

    fn next_layer_distribution(&self, token: &TokenPath, layer: usize) -> &[f64] {
        for len in (1..=self.path_length).rev() {
            let key = suffix(token, layer, len);
            if let Some(dist) = self.tables[len - 1].get(layer).and_then(|t| t.get(&key)) {
                return dist;
            }
        }
        &self.marginals[(layer + 1).min(self.layers - 1)]
    }

    fn estimate_popularity(&self, tokens: &[TokenPath], layer: usize, top_k: usize) -> Vec<f64> {
        let mut agg = vec![0.0f64; self.experts];
        if tokens.is_empty() {
            return agg;
        }
        for tok in tokens {
            let dist = self.next_layer_distribution(tok, layer);
            for &e in &sorted_top_indices(dist, top_k) {
                agg[e] += dist[e];
            }
        }
        for v in &mut agg {
            *v /= tokens.len() as f64;
        }
        agg
    }
}

/// The reference top-k: sort every index, keep the first `k`.
fn sorted_top_indices(values: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[b]
            .partial_cmp(&values[a])
            .expect("finite popularity")
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Inference tokens of the profiled workload plus uniformly random
/// paths, most of which were never profiled at full length.
fn probes(spec: &WorkloadSpec, layers: usize, experts: usize) -> Vec<TokenPath> {
    let mut src = TokenSource::new(spec, 1, 99);
    let mut tokens = src.sample_batch(8, 64, Mode::Inference).tokens;
    let mut rng = Rng::new(0xE57);
    tokens.extend((0..128).map(|_| {
        TokenPath::new(
            0,
            1,
            &(0..layers)
                .map(|_| rng.index(experts) as u16)
                .collect::<Vec<_>>(),
        )
    }));
    tokens
}

#[test]
fn packed_tables_match_the_reference_bit_for_bit() {
    let layers = 8;
    for experts in [8usize, 16] {
        let spec = WorkloadSpec::enwik8(experts, layers);
        let mut src = TokenSource::new(&spec, 2, 7);
        let batches: Vec<TokenBatch> = (0..4)
            .map(|_| src.sample_batch(8, 256, Mode::Train))
            .collect();
        let probe = probes(&spec, layers, experts);
        for l in [1usize, 3, 6] {
            let est = PopularityEstimator::profile(&batches, l);
            let oracle = Oracle::profile(&batches, l);
            assert_eq!(est.layers(), oracle.layers);
            assert_eq!(est.experts(), oracle.experts);
            let mut unseen = 0;
            for layer in 0..layers {
                assert_eq!(
                    est.paths_at(layer),
                    oracle.paths_at(layer),
                    "paths_at({layer}), experts {experts}, l {l}"
                );
                for tok in &probe {
                    let want = oracle.next_layer_distribution(tok, layer);
                    if layer + 1 < layers
                        && !oracle.tables[l - 1][layer].contains_key(&suffix(tok, layer, l))
                    {
                        unseen += 1;
                    }
                    assert_eq!(
                        bits(est.next_layer_distribution(tok, layer)),
                        bits(want),
                        "Ψ at layer {layer}, experts {experts}, l {l}, path {:?}",
                        suffix(tok, layer, l)
                    );
                }
                for top_k in [1usize, 2] {
                    assert_eq!(
                        bits(&est.estimate_popularity(&probe, layer, top_k)),
                        bits(&oracle.estimate_popularity(&probe, layer, top_k)),
                        "popularity at layer {layer}, experts {experts}, l {l}, top-{top_k}"
                    );
                }
            }
            // Every single expert occurs as a primary, so only longer
            // paths can go unseen and exercise the back-off.
            assert!(l == 1 || unseen > 0, "no unseen path probed at l {l}");
        }
    }
}

/// The estimator's path-memo slot cap (`MEMO_SLOTS` in
/// `lina_core::inference::estimator`): codes share a slot modulo it.
const MEMO_SLOTS: usize = 4096;

#[test]
fn memo_eviction_matches_the_reference_bit_for_bit() {
    // 16 experts at l = 6 give 16^6 path codes for 4096 slots. The
    // probe holds more distinct full-length paths than slots, then
    // repeats them in reverse, so a path comes back only after other
    // codes have taken its slot.
    let (layers, experts, l) = (8, 16, 6);
    let spec = WorkloadSpec::enwik8(experts, layers);
    let mut src = TokenSource::new(&spec, 2, 7);
    let batches: Vec<TokenBatch> = (0..4)
        .map(|_| src.sample_batch(8, 256, Mode::Train))
        .collect();
    let mut once = TokenSource::new(&spec, 1, 99)
        .sample_batch(8, 512, Mode::Inference)
        .tokens;
    let mut rng = Rng::new(0xE71C);
    once.extend((0..4096).map(|_| {
        TokenPath::new(
            0,
            1,
            &(0..layers)
                .map(|_| rng.index(experts) as u16)
                .collect::<Vec<_>>(),
        )
    }));
    let mut probe = once.clone();
    probe.extend(once.into_iter().rev());
    assert!(probe.len() >= 3 * MEMO_SLOTS);

    let est = PopularityEstimator::profile(&batches, l);
    let oracle = Oracle::profile(&batches, l);
    let mut evicted_revisits = 0;
    for layer in 0..layers {
        // A direct-mapped replay of the memo's slots: count the tokens
        // whose path was seen before but lost its slot since.
        let mut slots = vec![None; MEMO_SLOTS];
        let mut seen = std::collections::HashSet::new();
        for tok in &probe {
            let code = tok.path_code(layer, l, experts);
            let slot = &mut slots[(code % MEMO_SLOTS as u64) as usize];
            if !seen.insert(code) && *slot != Some(code) {
                evicted_revisits += 1;
            }
            *slot = Some(code);
        }
        if layer + 1 >= l {
            assert!(
                seen.len() > MEMO_SLOTS,
                "only {} distinct paths at layer {layer}",
                seen.len()
            );
        }
        for top_k in [1usize, 2] {
            assert_eq!(
                bits(&est.estimate_popularity(&probe, layer, top_k)),
                bits(&oracle.estimate_popularity(&probe, layer, top_k)),
                "popularity at layer {layer}, top-{top_k}"
            );
        }
    }
    assert!(evicted_revisits > 0, "no path revisited after eviction");
}

#[test]
fn top_indices_matches_the_sorting_reference() {
    let mut rng = Rng::new(0x7095);
    for _ in 0..2000 {
        let n = rng.index(20);
        // Few distinct levels, so most vectors carry ties.
        let levels = 1 + rng.index(4);
        let values: Vec<f64> = (0..n)
            .map(|_| match rng.index(8) {
                0 => -0.0,
                1 => f64::INFINITY,
                _ => rng.index(levels) as f64 * 0.25,
            })
            .collect();
        let k = rng.index(n + 3);
        assert_eq!(
            top_indices(&values, k),
            sorted_top_indices(&values, k),
            "values {values:?}, k {k}"
        );
    }
}
