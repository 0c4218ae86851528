//! Expert-popularity estimation from token-level selection patterns (§5.2).
//!
//! In a profiling stage (run on training-distribution data once the
//! load-balancing loss has stabilized), Lina groups tokens by the
//! sample path of experts they traversed over the last `l` layers and
//! records, for each path, the empirical distribution `Ψ_j^{i+1}` of the
//! next layer's selection. At inference, each token's observed path is
//! looked up; its top-k next-layer experts and their probabilities feed
//! Eq. (1) to estimate per-expert device demand before the gate runs.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use lina_workload::{TokenBatch, TokenPath};

/// Slot cap of `estimate_popularity`'s per-call path memo. Up to it the
/// memo is dense in the `experts^l` path codes; past it codes share
/// slots modulo the cap. 4096 keeps the paper's 16 experts at `l = 3`
/// collision-free.
const MEMO_SLOTS: usize = 4096;

/// Largest full-length `Ψ` table, in counts (`experts^l * experts`),
/// that `profile` counts into a dense array indexed by path code
/// instead of through the table's hash map. 2^16 covers the paper's 16
/// experts at `l = 3`.
const DENSE_COUNTS: usize = 1 << 16;

/// A memo slot no path code has claimed: every code is below
/// `experts^l <= u64::MAX`.
const EMPTY_SLOT: u64 = u64::MAX;

/// Profiled `Ψ` tables and lookup logic.
#[derive(Clone, Debug)]
pub struct PopularityEstimator {
    /// Sample-path length `l`.
    path_length: usize,
    experts: usize,
    layers: usize,
    /// `radix[len-1] = experts^len`: a length-`len` suffix's code is the
    /// full path code modulo `radix[len-1]` (its low `len` digits).
    radix: Vec<u64>,
    /// `tables[len-1][i]` maps the path of primary experts for layers
    /// `i-len+1 ..= i` to the selection distribution at layer `i+1`.
    /// Lengths 1..=l are all profiled so lookups can back off from the
    /// full path to shorter suffixes when a path was never observed.
    tables: Vec<Vec<PsiTable>>,
    /// Fallback per-layer marginal distribution for unseen paths.
    marginals: Vec<Vec<f64>>,
}

/// One `(len, layer)` `Ψ` table: packed path code → row of a flat,
/// `experts`-wide row store. While profiling a row holds integer
/// counts (exact in `f64`); [`PsiTable::normalize`] turns each into its
/// distribution.
#[derive(Clone, Debug, Default)]
struct PsiTable {
    rows: HashMap<u64, u32, BuildHasherDefault<PathHasher>>,
    dists: Vec<f64>,
}

impl PsiTable {
    /// The row of a path code, zeroed on first sight.
    fn row_mut(&mut self, code: u64, experts: usize) -> &mut [f64] {
        let fresh = u32::try_from(self.rows.len()).expect("profile: more than u32::MAX paths");
        let row = *self.rows.entry(code).or_insert(fresh);
        if row == fresh {
            self.dists.resize(self.dists.len() + experts, 0.0);
        }
        &mut self.dists[row as usize * experts..][..experts]
    }

    /// Adds every count row of `longer` into the row of its code's low
    /// digits (`code % radix`): the table of a shorter suffix.
    fn fold_from(&mut self, longer: &PsiTable, radix: u64, experts: usize) {
        for (&code, &row) in &longer.rows {
            let counts = &longer.dists[row as usize * experts..][..experts];
            for (c, &n) in self.row_mut(code % radix, experts).iter_mut().zip(counts) {
                *c += n;
            }
        }
    }

    fn normalize(&mut self, experts: usize) {
        for row in self.dists.chunks_exact_mut(experts) {
            normalize(row);
        }
    }

    fn get(&self, code: u64, experts: usize) -> Option<&[f64]> {
        let row = *self.rows.get(&code)? as usize;
        Some(&self.dists[row * experts..(row + 1) * experts])
    }
}

/// Divides counts by their total, summed in index order. Every partial
/// sum of integer counts is exact, so the result depends only on the
/// counts, not on how they were accumulated.
fn normalize(dist: &mut [f64]) {
    let total: f64 = dist.iter().sum();
    if total > 0.0 {
        for v in dist {
            *v /= total;
        }
    }
}

/// Folded-multiply hash of a path code: the 128-bit product's halves
/// XORed, so both the bucket (low) bits and the tag (high) bits depend
/// on every digit of the code.
#[derive(Clone, Copy, Debug, Default)]
struct PathHasher(u64);

impl Hasher for PathHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let m = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl PopularityEstimator {
    /// Profiles the estimator from training-distribution batches:
    /// anything that yields batch references, such as a slice or a
    /// window of shared batches.
    ///
    /// # Panics
    ///
    /// Panics if `path_length` is zero, no batches are given, the first
    /// batch is empty, `experts^path_length` overflows a `u64` path
    /// code, or a batch's expert count or a token's layer count differs
    /// from the first batch's.
    pub fn profile<'b>(
        batches: impl IntoIterator<Item = &'b TokenBatch>,
        path_length: usize,
    ) -> Self {
        assert!(path_length > 0, "profile: zero path length");
        let mut batches = batches.into_iter().peekable();
        let first = batches
            .peek()
            .copied()
            .unwrap_or_else(|| panic!("profile: no batches"));
        assert!(
            !first.tokens.is_empty(),
            "profile: first batch has no tokens"
        );
        let experts = first.experts;
        let layers = first.tokens[0].layers();
        let radix: Vec<u64> = (1..=path_length)
            .map(|len| {
                u32::try_from(len)
                    .ok()
                    .and_then(|len| (experts as u64).checked_pow(len))
                    .unwrap_or_else(|| {
                        panic!("profile: {experts}^{path_length} overflows a u64 path code")
                    })
            })
            .collect();
        let mut tables: Vec<Vec<PsiTable>> = (0..path_length)
            .map(|_| vec![PsiTable::default(); layers.saturating_sub(1)])
            .collect();
        let mut marginals = vec![vec![0.0f64; experts]; layers];
        let (full, suffixes) = tables.split_last_mut().expect("path_length > 0");
        // `experts^(l-1)`: the digits a full-length code keeps when the
        // next primary shifts in.
        let keep = radix[path_length - 1] / (experts as u64).max(1);
        // Small tables are counted densely, one `experts`-wide row per
        // path code and layer (`n` counts per layer), and copied into
        // their tables after.
        let mut dense = usize::try_from(radix[path_length - 1])
            .ok()
            .and_then(|codes| codes.checked_mul(experts))
            .filter(|&n| n <= DENSE_COUNTS)
            .map(|n| (vec![0.0f64; n * full.len()], n));
        for batch in batches {
            assert_eq!(
                batch.experts, experts,
                "profile: batch expert count differs from the first batch's"
            );
            for tok in &batch.tokens {
                assert_eq!(
                    tok.layers(),
                    layers,
                    "profile: token layer count differs from the first batch's"
                );
                // One pass over the strided primaries, rolling the
                // path code: before layer `i` is shifted in, `code` is
                // `tok.path_code(i - 1, path_length, experts)`.
                let mut code = 0u64;
                let primaries = tok.selections().iter().step_by(tok.top_k());
                for (layer, &e) in primaries.enumerate() {
                    let e = usize::from(e);
                    marginals[layer][e] += 1.0;
                    if layer > 0 {
                        match &mut dense {
                            Some((counts, n)) => {
                                counts[(layer - 1) * *n + code as usize * experts + e] += 1.0
                            }
                            None => full[layer - 1].row_mut(code, experts)[e] += 1.0,
                        }
                    }
                    code = code % keep * experts as u64 + e as u64;
                }
            }
        }
        // Every observed path has a nonzero count, so a zero row is a
        // path never seen, which the table leaves out.
        if let Some((counts, n)) = dense {
            for (table, layer) in full.iter_mut().zip(counts.chunks_exact(n)) {
                for (code, row) in (0u64..).zip(layer.chunks_exact(experts)) {
                    if row.iter().any(|&c| c > 0.0) {
                        table.row_mut(code, experts).copy_from_slice(row);
                    }
                }
            }
        }
        // A shorter suffix's table sums the full-length rows sharing its
        // low digits. Counts are exact integers, so this equals counting
        // every token into it.
        for (per_layer, &radix) in suffixes.iter_mut().zip(&radix) {
            for (table, longer) in per_layer.iter_mut().zip(full.iter()) {
                table.fold_from(longer, radix, experts);
            }
        }
        for table in tables.iter_mut().flatten() {
            table.normalize(experts);
        }
        for dist in &mut marginals {
            normalize(dist);
        }
        PopularityEstimator {
            path_length,
            experts,
            layers,
            radix,
            tables,
            marginals,
        }
    }

    /// The profiled path length `l`.
    pub fn path_length(&self) -> usize {
        self.path_length
    }

    /// Experts per layer.
    pub fn experts(&self) -> usize {
        self.experts
    }

    /// Layers profiled.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Number of distinct full-length profiled paths ending at `layer`.
    pub fn paths_at(&self, layer: usize) -> usize {
        self.tables[self.path_length - 1]
            .get(layer)
            .map_or(0, |t| t.rows.len())
    }

    /// `Ψ_j^{layer+1}` for the token's observed path up to `layer`.
    /// Unseen full-length paths back off to progressively shorter
    /// suffixes, and finally to the layer marginal.
    pub fn next_layer_distribution(&self, token: &TokenPath, layer: usize) -> &[f64] {
        self.distribution_of(
            token.path_code(layer, self.path_length, self.experts),
            layer,
        )
    }

    /// [`Self::next_layer_distribution`] of a packed path code.
    fn distribution_of(&self, code: u64, layer: usize) -> &[f64] {
        for len in (1..=self.path_length).rev() {
            let dist = self.tables[len - 1]
                .get(layer)
                .and_then(|t| t.get(code % self.radix[len - 1], self.experts));
            if let Some(dist) = dist {
                return dist;
            }
        }
        &self.marginals[(layer + 1).min(self.layers - 1)]
    }

    /// Eq. (1)'s aggregate: estimated popularity of each expert at
    /// `layer + 1`, averaging each token's top-k probabilities from its
    /// `Ψ` distribution. The result is an (unnormalized, <= 1 per
    /// entry) fraction-of-demand vector.
    pub fn estimate_popularity(
        &self,
        tokens: &[TokenPath],
        layer: usize,
        top_k: usize,
    ) -> Vec<f64> {
        let mut agg = vec![0.0f64; self.experts];
        if tokens.is_empty() {
            return agg;
        }
        // Each distinct path code is resolved once: its Ψ row goes to
        // `rows` and its top-k to a `width`-long run of `tops`, and its
        // direct-mapped slot keeps the code and that index. A code that
        // finds another code in its slot resolves again into the
        // evicted entry, so the memo never outgrows its slots. Each
        // token still adds its own terms into `agg` in token order, so
        // every sum is bit-identical to resolving every token.
        let width = top_k.min(self.experts);
        let slots = self.memo_slots();
        let mut memo = vec![(EMPTY_SLOT, 0usize); slots];
        let resolved = slots.min(tokens.len());
        let mut rows: Vec<&[f64]> = Vec::with_capacity(resolved);
        let mut tops: Vec<usize> = Vec::with_capacity(resolved * width);
        let mut top = Vec::with_capacity(width);
        for tok in tokens {
            let code = tok.path_code(layer, self.path_length, self.experts);
            // Codes are below `experts^l`, so this is `code % slots`
            // with a constant divisor.
            let (tag, i) = &mut memo[(code % MEMO_SLOTS as u64) as usize];
            if *tag != code {
                let dist = self.distribution_of(code, layer);
                top_indices_into(dist, top_k, &mut top);
                if *tag == EMPTY_SLOT {
                    *i = rows.len();
                    rows.push(dist);
                    tops.extend_from_slice(&top);
                } else {
                    rows[*i] = dist;
                    tops[*i * width..][..width].copy_from_slice(&top);
                }
                *tag = code;
            }
            let dist = rows[*i];
            for &e in &tops[*i * width..][..width] {
                agg[e] += dist[e];
            }
        }
        for v in &mut agg {
            *v /= tokens.len() as f64;
        }
        agg
    }

    /// Slots of [`Self::estimate_popularity`]'s path memo: one per
    /// full-length code up to [`MEMO_SLOTS`].
    fn memo_slots(&self) -> usize {
        self.radix[self.path_length - 1].min(MEMO_SLOTS as u64) as usize
    }

    /// True if the estimate's top-`2k` experts match the actual
    /// popularity's top-`2k` (the paper's phase-two deviation check and
    /// its accuracy definition).
    pub fn estimate_matches(estimated: &[f64], actual: &[f64], two_k: usize) -> bool {
        Self::deviates_too_far(estimated, actual, two_k, 0.0).is_none()
    }

    /// The paper's phase-two check asks whether the actual selection
    /// "deviates too far" from the estimate: a top-`2k` set mismatch
    /// only matters when a missed expert is *meaningfully* more popular
    /// than a kept one — the paper itself observes that estimation
    /// errors usually swap experts of similar popularity, which leaves
    /// the packing decision intact. Returns the worst relative excess
    /// when the deviation exceeds `tolerance`, else `None`.
    pub fn deviates_too_far(
        estimated: &[f64],
        actual: &[f64],
        two_k: usize,
        tolerance: f64,
    ) -> Option<f64> {
        let est_top = top_indices(estimated, two_k);
        let act_top = top_indices(actual, two_k);
        let missed: Vec<usize> = act_top
            .iter()
            .copied()
            .filter(|e| !est_top.contains(e))
            .collect();
        if missed.is_empty() {
            return None;
        }
        // The least actually-popular expert we kept in the estimate's
        // top set.
        let kept_min = est_top
            .iter()
            .map(|&e| actual[e])
            .fold(f64::INFINITY, f64::min)
            .max(1e-12);
        let worst_missed = missed.iter().map(|&e| actual[e]).fold(0.0, f64::max);
        let excess = worst_missed / kept_min - 1.0;
        if excess > tolerance {
            Some(excess)
        } else {
            None
        }
    }
}

/// Indices of the `k` largest entries (ties broken by lower index),
/// ordered by descending value.
///
/// # Panics
///
/// Panics if any value is NaN.
pub fn top_indices(values: &[f64], k: usize) -> Vec<usize> {
    let mut top = Vec::with_capacity(k.min(values.len()));
    top_indices_into(values, k, &mut top);
    top
}

/// [`top_indices`] into a reused buffer: an O(n·k) insertion selection.
/// Scanning in index order and inserting only ahead of strictly smaller
/// values keeps equal values in index order.
fn top_indices_into(values: &[f64], k: usize, top: &mut Vec<usize>) {
    top.clear();
    for (i, &v) in values.iter().enumerate() {
        assert!(!v.is_nan(), "finite popularity");
        let pos = top.iter().position(|&j| v > values[j]).unwrap_or(top.len());
        if pos < k {
            top.truncate(k - 1);
            top.insert(pos, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lina_workload::{Mode, TokenSource, WorkloadSpec};

    fn source() -> TokenSource {
        TokenSource::new(&WorkloadSpec::enwik8(16, 12), 1, 7)
    }

    /// Two small training batches from [`source`].
    fn two_batches() -> (TokenBatch, TokenBatch) {
        let mut src = source();
        (
            src.sample_batch(16, 4, Mode::Train),
            src.sample_batch(16, 4, Mode::Train),
        )
    }

    fn profiled(l: usize) -> (PopularityEstimator, TokenSource) {
        let mut src = source();
        let batches: Vec<TokenBatch> = (0..8)
            .map(|_| src.sample_batch(16, 512, Mode::Train))
            .collect();
        (PopularityEstimator::profile(&batches, l), src)
    }

    #[test]
    fn top_indices_basics() {
        assert_eq!(top_indices(&[0.1, 0.5, 0.3], 2), vec![1, 2]);
        assert_eq!(top_indices(&[0.5, 0.5], 1), vec![0]);
        assert_eq!(top_indices(&[1.0], 5), vec![0]);
        assert_eq!(top_indices(&[0.2, 0.7, 0.2, 0.7], 3), vec![1, 3, 0]);
        assert!(top_indices(&[0.3, 0.1], 0).is_empty());
    }

    #[test]
    fn paper_shape_memo_is_collision_free() {
        // 16 experts at l = 3: one slot per path code.
        let (est, _) = profiled(3);
        assert_eq!(est.experts(), 16);
        assert!(MEMO_SLOTS >= est.experts().pow(3));
        assert_eq!(est.memo_slots() as u64, est.radix[2]);
    }

    #[test]
    fn distributions_are_normalized() {
        let (est, _) = profiled(3);
        for table in est.tables.iter().flatten() {
            assert_eq!(table.dists.len(), table.rows.len() * est.experts);
            for dist in table.dists.chunks_exact(est.experts) {
                let total: f64 = dist.iter().sum();
                assert!((total - 1.0).abs() < 1e-9, "sum {total}");
            }
        }
        for m in &est.marginals {
            let total: f64 = m.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "overflows a u64 path code")]
    fn overflowing_path_code_panics() {
        let batch = TokenBatch {
            tokens: vec![TokenPath::new(0, 1, &[0; 20])],
            devices: 1,
            experts: 1 << 16,
        };
        PopularityEstimator::profile(&[batch], 5);
    }

    #[test]
    #[should_panic(expected = "first batch has no tokens")]
    fn empty_first_batch_panics() {
        let (mut empty, full) = two_batches();
        empty.tokens.clear();
        PopularityEstimator::profile(&[empty, full], 3);
    }

    #[test]
    #[should_panic(expected = "batch expert count differs")]
    fn mismatched_expert_count_panics() {
        let (first, mut other) = two_batches();
        other.experts = 8;
        PopularityEstimator::profile(&[first, other], 3);
    }

    #[test]
    #[should_panic(expected = "token layer count differs")]
    fn mismatched_layer_count_panics() {
        let (first, mut other) = two_batches();
        let short = &other.tokens[1];
        other.tokens[1] = TokenPath::new(short.class, 1, &short.selections()[1..]);
        PopularityEstimator::profile(&[first, other], 3);
    }

    #[test]
    #[should_panic(expected = "finite popularity")]
    fn top_indices_panics_on_nan() {
        top_indices(&[0.2, f64::NAN, 0.1], 1);
    }

    #[test]
    fn longer_paths_give_more_tables() {
        let (e1, _) = profiled(1);
        let (e3, _) = profiled(3);
        assert!(
            e3.paths_at(6) > e1.paths_at(6),
            "l=3 should distinguish more paths"
        );
        // l=1 at layer 6 has at most `experts` paths.
        assert!(e1.paths_at(6) <= 16);
    }

    #[test]
    fn estimate_tracks_actual_popularity() {
        let (est, mut src) = profiled(3);
        let batch = src.sample_batch(16, 512, Mode::Inference);
        let layer = 6;
        let estimated = est.estimate_popularity(&batch.tokens, layer, 1);
        let actual = lina_workload::popularity(&batch, layer + 1);
        // Rank correlation proxy: the estimated top-4 should share most
        // members with the actual top-4.
        let est_top = top_indices(&estimated, 4);
        let act_top = top_indices(&actual, 4);
        let overlap = est_top.iter().filter(|e| act_top.contains(e)).count();
        assert!(
            overlap >= 2,
            "top-4 overlap only {overlap} (est {est_top:?}, act {act_top:?})"
        );
    }

    #[test]
    fn accuracy_improves_with_path_length() {
        let spec = WorkloadSpec::enwik8(16, 12);
        let mut accuracies = Vec::new();
        for l in [1usize, 3, 6] {
            let mut src = TokenSource::new(&spec, 1, 7);
            let batches: Vec<TokenBatch> = (0..12)
                .map(|_| src.sample_batch(16, 1024, Mode::Train))
                .collect();
            let est = PopularityEstimator::profile(&batches, l);
            let mut hits = 0;
            let mut total = 0;
            let mut infer = TokenSource::new(&spec, 1, 99);
            for _ in 0..24 {
                let batch = infer.sample_batch(16, 512, Mode::Inference);
                for layer in 3..11 {
                    let estimated = est.estimate_popularity(&batch.tokens, layer, 1);
                    let actual = lina_workload::popularity(&batch, layer + 1);
                    if PopularityEstimator::estimate_matches(&estimated, &actual, 2) {
                        hits += 1;
                    }
                    total += 1;
                }
            }
            accuracies.push(hits as f64 / total as f64);
        }
        assert!(
            accuracies[1] > accuracies[0],
            "l=3 accuracy {} not above l=1 {}",
            accuracies[1],
            accuracies[0]
        );
        assert!(
            accuracies[2] >= accuracies[1] * 0.9,
            "l=6 accuracy {} collapsed vs l=3 {}",
            accuracies[2],
            accuracies[1]
        );
    }

    #[test]
    fn deviation_tolerance_forgives_near_ties() {
        let est = [0.30, 0.28, 0.22, 0.20];
        // Actual swaps the #2 and #3 experts, but their popularity is
        // close: no significant deviation.
        let act = [0.30, 0.24, 0.26, 0.20];
        assert!(!PopularityEstimator::estimate_matches(&est, &act, 2));
        assert!(PopularityEstimator::deviates_too_far(&est, &act, 2, 0.25).is_none());
        // A genuinely hot missed expert is flagged.
        let act_hot = [0.30, 0.10, 0.50, 0.10];
        let excess = PopularityEstimator::deviates_too_far(&est, &act_hot, 2, 0.25);
        assert!(excess.is_some());
        assert!(excess.expect("deviates") > 0.25);
    }

    #[test]
    fn zero_tolerance_equals_strict_matching() {
        let est = [0.4, 0.3, 0.2, 0.1];
        let act = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(
            PopularityEstimator::estimate_matches(&est, &act, 2),
            PopularityEstimator::deviates_too_far(&est, &act, 2, 0.0).is_none()
        );
    }

    #[test]
    fn estimate_matches_requires_same_sets() {
        let est = [0.5, 0.3, 0.1, 0.1];
        let act_same = [0.4, 0.4, 0.1, 0.1];
        let act_diff = [0.1, 0.1, 0.4, 0.4];
        assert!(PopularityEstimator::estimate_matches(&est, &act_same, 2));
        assert!(!PopularityEstimator::estimate_matches(&est, &act_diff, 2));
    }

    #[test]
    fn unseen_path_falls_back_to_marginal() {
        let (est, _) = profiled(3);
        // An implausible path unlikely to be profiled.
        let tok = TokenPath::new(0, 1, &(0..12).map(|i| (i % 16) as u16).collect::<Vec<_>>());
        // Must not panic and must return a normalized distribution.
        let d = est.next_layer_distribution(&tok, 6);
        let total: f64 = d.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_tokens_give_zero_estimate() {
        let (est, _) = profiled(3);
        let e = est.estimate_popularity(&[], 5, 1);
        assert!(e.iter().all(|&v| v == 0.0));
    }
}
