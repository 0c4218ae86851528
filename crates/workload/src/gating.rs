//! The "trained gating network" as a generative model.
//!
//! A real MoE gate routes a token from its embedding; the paper observes
//! that this routing is driven by fixed per-token features (part of
//! speech, meaning), which is why tokens that co-selected an expert at
//! layer `i` tend to co-select again at `i+1`. We capture exactly that
//! structure: every token carries a latent class, each layer has a fixed
//! class-to-expert map (the "specialization" the gate learned), and a
//! token follows its class's expert with the layer's persistence
//! probability, otherwise drawing from a layer-wide background
//! distribution.

use lina_simcore::{Rng, Zipf};

use crate::spec::WorkloadSpec;

/// Sampling mode: training data (uniform classes, balanced background —
/// the regime the load-balancing loss produces) or inference requests
/// (skewed classes and background).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Balanced, as during late training.
    Train,
    /// Workload-driven, as during serving.
    Inference,
}

/// The generative gate.
#[derive(Clone, Debug)]
pub struct GatingModel {
    spec: WorkloadSpec,
    /// `persistence[layer]` = `spec.persistence(layer)`.
    persistence: Vec<f64>,
    /// `sigma[layer][class]` = canonical expert of a class at a layer.
    sigma: Vec<Vec<u16>>,
    /// Per-layer background CDF over experts for inference (a permuted
    /// mild Zipf, so each layer has different residually popular
    /// experts, per Table 2).
    background: Vec<Vec<f64>>,
}

impl GatingModel {
    /// Materializes the "trained" model from a spec (deterministic in
    /// the spec's seed).
    ///
    /// # Panics
    ///
    /// Panics if the spec has zero experts, classes, or layers.
    pub fn new(spec: &WorkloadSpec) -> Self {
        assert!(spec.experts > 0 && spec.classes > 0 && spec.layers > 0);
        let rng = Rng::new(spec.seed);
        let mut sigma: Vec<Vec<u16>> = Vec::with_capacity(spec.layers);
        for layer in 0..spec.layers {
            let mut layer_rng = rng.derive(layer as u64 + 1);
            let assignment = if layer == 0 {
                // Layer 0: classes dealt to experts nearly evenly (the
                // auxiliary loss pushes the gate towards balance) in a
                // random arrangement.
                let mut a: Vec<u16> = (0..spec.classes)
                    .map(|c| (c % spec.experts) as u16)
                    .collect();
                layer_rng.shuffle(&mut a);
                a
            } else {
                // Deeper layers: with probability `map_correlation` a
                // class moves *together with its layer-(l-1) group* to a
                // permuted expert (same features, different specialist);
                // otherwise it is regrouped. Regrouped classes are dealt
                // to the least-loaded experts so each layer stays
                // balanced over training data.
                let mut perm: Vec<u16> = (0..spec.experts as u16).collect();
                layer_rng.shuffle(&mut perm);
                let prev = &sigma[layer - 1];
                let mut a = vec![u16::MAX; spec.classes];
                let mut counts = vec![0usize; spec.experts];
                let mut regrouped = Vec::new();
                for c in 0..spec.classes {
                    if layer_rng.bernoulli(spec.map_correlation) {
                        let e = perm[prev[c] as usize];
                        a[c] = e;
                        counts[e as usize] += 1;
                    } else {
                        regrouped.push(c);
                    }
                }
                layer_rng.shuffle(&mut regrouped);
                let mut expert_order: Vec<usize> = (0..spec.experts).collect();
                layer_rng.shuffle(&mut expert_order);
                for c in regrouped {
                    let &e = expert_order
                        .iter()
                        .min_by_key(|&&e| counts[e])
                        .expect("experts > 0");
                    a[c] = e as u16;
                    counts[e] += 1;
                }
                a
            };
            sigma.push(assignment);
        }
        let mut background = Vec::with_capacity(spec.layers);
        for layer in 0..spec.layers {
            let mut layer_rng = rng.derive(0x1000 + layer as u64);
            // Convert the target max/min ratio to the exponent that
            // achieves it for this expert count.
            let exponent = if spec.experts > 1 {
                spec.background_max_min.max(1.0).ln() / (spec.experts as f64).ln()
            } else {
                0.0
            };
            let zipf = Zipf::new(spec.experts, exponent);
            let mut weights: Vec<f64> = (0..spec.experts).map(|e| zipf.pmf(e)).collect();
            layer_rng.shuffle(&mut weights);
            let mut cdf = Vec::with_capacity(spec.experts);
            let mut acc = 0.0;
            for w in weights {
                acc += w;
                cdf.push(acc);
            }
            let total = *cdf.last().expect("experts > 0");
            for v in &mut cdf {
                *v /= total;
            }
            background.push(cdf);
        }
        GatingModel {
            spec: spec.clone(),
            persistence: (0..spec.layers).map(|l| spec.persistence(l)).collect(),
            sigma,
            background,
        }
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Samples the gate's top-`k` selections for a token of `class` at
    /// every layer into `out`, `[layer][k]`. At each layer the first
    /// expert is the class's canonical expert with the layer's
    /// persistence probability; remaining slots are distinct background
    /// draws.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or above the expert count, or if `out` does
    /// not hold `k` selections per layer.
    pub fn select_path(&self, class: usize, k: usize, mode: Mode, rng: &mut Rng, out: &mut [u16]) {
        let experts = self.spec.experts;
        assert!(
            k >= 1 && k <= experts && out.len() == self.sigma.len() * k,
            "select_path: bad top_k {k} for {} selections",
            out.len()
        );
        match mode {
            Mode::Train => self.fill_path(class, k, rng, out, |rng, _| rng.index(experts) as u16),
            Mode::Inference => self.fill_path(class, k, rng, out, |rng, cdf| {
                let u = rng.f64();
                cdf.partition_point(|&c| c <= u).min(experts - 1) as u16
            }),
        }
    }

    /// [`GatingModel::select_path`] for one mode: `background` draws one
    /// background expert, given the layer's inference CDF.
    fn fill_path(
        &self,
        class: usize,
        k: usize,
        rng: &mut Rng,
        out: &mut [u16],
        background: impl Fn(&mut Rng, &[f64]) -> u16,
    ) {
        let rows = self
            .persistence
            .iter()
            .zip(&self.sigma)
            .zip(&self.background);
        for (out, ((&p, sigma), cdf)) in out.chunks_exact_mut(k).zip(rows) {
            out[0] = if rng.bernoulli(p) {
                sigma[class]
            } else {
                background(rng, cdf)
            };
            let mut chosen = 1;
            while chosen < k {
                let e = background(rng, cdf);
                if !out[..chosen].contains(&e) {
                    out[chosen] = e;
                    chosen += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl GatingModel {
        /// The exact marginal expert distribution at a layer given a class
        /// distribution: the oracle the sampled popularity is checked
        /// against.
        fn marginal_popularity(&self, layer: usize, class_probs: &[f64], mode: Mode) -> Vec<f64> {
            let e = self.spec.experts;
            let p = self.spec.persistence(layer);
            let mut pop = vec![0.0; e];
            for (c, &pc) in class_probs.iter().enumerate() {
                pop[self.sigma[layer][c] as usize] += pc * p;
            }
            match mode {
                Mode::Train => {
                    for v in pop.iter_mut() {
                        *v += (1.0 - p) / e as f64;
                    }
                }
                Mode::Inference => {
                    let cdf = &self.background[layer];
                    let mut prev = 0.0;
                    for (i, &c) in cdf.iter().enumerate() {
                        pop[i] += (1.0 - p) * (c - prev);
                        prev = c;
                    }
                }
            }
            pop
        }
    }

    fn model() -> GatingModel {
        GatingModel::new(&WorkloadSpec::enwik8(16, 12))
    }

    #[test]
    fn deterministic_in_seed() {
        let a = model();
        let b = model();
        let classes = a.spec().classes;
        for layer in 0..12 {
            for class in 0..classes {
                assert_eq!(a.sigma[layer][class], b.sigma[layer][class]);
            }
        }
    }

    #[test]
    fn layers_specialize_differently() {
        let m = model();
        let classes = m.spec().classes;
        let same = (0..classes)
            .filter(|&c| m.sigma[0][c] == m.sigma[1][c])
            .count();
        // Rearrangement: well under all classes coincide.
        assert!(
            same < classes / 2,
            "layers 0 and 1 identical for {same}/{classes}"
        );
    }

    #[test]
    fn class_assignment_is_balanced_per_layer() {
        let m = model();
        let classes = m.spec().classes;
        let experts = m.spec().experts;
        let per = classes / experts;
        for layer in 0..12 {
            let mut counts = vec![0usize; experts];
            for c in 0..classes {
                counts[m.sigma[layer][c] as usize] += 1;
            }
            // Layer 0 is dealt exactly evenly; deeper layers keep
            // correlated groups and rebalance via regrouped classes, so
            // allow small deviations.
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            if layer == 0 {
                assert_eq!((*min, *max), (per, per), "layer 0 counts {counts:?}");
            } else {
                assert!(max - min <= per + 2, "layer {layer} counts {counts:?}");
            }
        }
    }

    #[test]
    fn groups_move_together_across_layers() {
        // With map_correlation, classes sharing an expert at layer i
        // share one again at layer i+1 far more often than chance.
        let m = model();
        let classes = m.spec().classes;
        let mut together = 0usize;
        let mut total = 0usize;
        for layer in 0..11 {
            for a in 0..classes {
                for b in (a + 1)..classes {
                    if m.sigma[layer][a] == m.sigma[layer][b] {
                        total += 1;
                        if m.sigma[layer + 1][a] == m.sigma[layer + 1][b] {
                            together += 1;
                        }
                    }
                }
            }
        }
        let rate = together as f64 / total as f64;
        let chance = 1.0 / m.spec().experts as f64;
        assert!(
            rate > 2.0 * chance,
            "group cohesion {rate} vs chance {chance}"
        );
    }

    #[test]
    fn select_returns_distinct_topk() {
        let m = model();
        let mut rng = Rng::new(5);
        let mut path = [0u16; 12 * 2];
        for _ in 0..1000 {
            m.select_path(10, 2, Mode::Inference, &mut rng, &mut path);
            for sel in path.chunks_exact(2) {
                assert_ne!(sel[0], sel[1]);
                assert!(sel.iter().all(|&e| (e as usize) < 16));
            }
        }
    }

    #[test]
    fn persistence_drives_canonical_selection() {
        let m = model();
        let mut rng = Rng::new(7);
        let layer = 11;
        let class = 20;
        let canon = m.sigma[layer][class];
        let n = 20_000;
        let mut path = [0u16; 12];
        let hits = (0..n)
            .filter(|_| {
                m.select_path(class, 1, Mode::Inference, &mut rng, &mut path);
                path[layer] == canon
            })
            .count();
        let p = m.spec().persistence(layer);
        let rate = hits as f64 / n as f64;
        // Canonical selected with at least the persistence probability
        // (background can also land on it).
        assert!(rate >= p - 0.02, "rate {rate} < persistence {p}");
        assert!(rate <= p + 0.12, "rate {rate} implausibly high vs {p}");
    }

    #[test]
    fn train_marginal_is_nearly_uniform() {
        let m = model();
        let classes = m.spec().classes;
        let uniform = vec![1.0 / classes as f64; classes];
        let pop = m.marginal_popularity(6, &uniform, Mode::Train);
        let total: f64 = pop.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        let max = pop.iter().copied().fold(0.0, f64::max);
        let min = pop.iter().copied().fold(1.0, f64::min);
        assert!(max / min < 1.4, "training popularity skewed: {}", max / min);
    }

    #[test]
    fn inference_marginal_is_skewed_under_zipf_classes() {
        let m = model();
        let classes = m.spec().classes;
        let zipf = Zipf::new(classes, m.spec().inference_class_skew);
        let class_probs: Vec<f64> = (0..classes).map(|c| zipf.pmf(c)).collect();
        let pop = m.marginal_popularity(6, &class_probs, Mode::Inference);
        let max = pop.iter().copied().fold(0.0, f64::max);
        let min = pop.iter().copied().fold(1.0, f64::min);
        assert!(
            max / min > 2.0,
            "inference popularity not skewed enough: {:.2}",
            max / min
        );
    }

    #[test]
    #[should_panic(expected = "bad top_k")]
    fn zero_topk_panics() {
        let m = model();
        let mut rng = Rng::new(1);
        m.select_path(0, 0, Mode::Train, &mut rng, &mut []);
    }
}
