//! Token streams and batches.
//!
//! A [`TokenSource`] draws tokens (latent class + full per-layer expert
//! selections) from a [`GatingModel`] under a training or inference
//! class distribution. Batches carry enough structure for both sides of
//! the evaluation: per-layer [`LayerRouting`] matrices for the execution
//! engine and per-token sample paths for Lina's popularity estimator.
//! A token stores its path inside itself up to 12 selections (every
//! serving shape) and spills longer paths to the heap, so a batch of
//! serving tokens is one allocation, its token `Vec`.

use lina_simcore::{Rng, Zipf};

use lina_model::LayerRouting;

use crate::gating::{GatingModel, Mode};
use crate::spec::WorkloadSpec;

/// One token's trajectory through the model: its class and the gate's
/// top-k selections at every layer, stored token-major (`[layer][k]`,
/// primary first within a layer) inside the token up to 12 selections
/// and in one heap allocation beyond.
#[derive(Clone)]
pub struct TokenPath {
    /// Latent semantic class (not visible to schedulers; only the
    /// generator and tests may look at it).
    pub class: usize,
    /// The selections and the gate fan-out.
    selections: Selections,
}

/// Selections a token holds without a heap allocation: every serving
/// shape (6 layers at top-1 or top-2, 12 layers at top-1).
const INLINE: usize = 12;

/// A token's flat `[layer][k]` selections and its fan-out `k`: inline up
/// to [`INLINE`] selections, spilled to the heap beyond. `k` lives in
/// each variant, beside the enum tag, so a [`TokenPath`] is 40 bytes on
/// 64-bit targets.
#[derive(Clone)]
enum Selections {
    Inline {
        top_k: u16,
        len: u8,
        buf: [u16; INLINE],
    },
    Spilled {
        top_k: u16,
        buf: Box<[u16]>,
    },
}

impl Selections {
    /// `len` zero selections of fan-out `top_k`.
    ///
    /// # Panics
    ///
    /// Panics if `top_k` is zero, does not divide `len` or exceeds
    /// `u16::MAX`.
    fn zeroed(top_k: usize, len: usize) -> Self {
        assert!(
            top_k > 0 && len.is_multiple_of(top_k),
            "TokenPath: {len} selections are not whole layers of top-{top_k}"
        );
        let top_k = u16::try_from(top_k).expect("TokenPath: top-k beyond u16");
        if len <= INLINE {
            Selections::Inline {
                top_k,
                len: len as u8,
                buf: [0; INLINE],
            }
        } else {
            Selections::Spilled {
                top_k,
                buf: vec![0; len].into_boxed_slice(),
            }
        }
    }

    fn top_k(&self) -> usize {
        match *self {
            Selections::Inline { top_k, .. } | Selections::Spilled { top_k, .. } => top_k.into(),
        }
    }

    fn as_slice(&self) -> &[u16] {
        match self {
            Selections::Inline { len, buf, .. } => &buf[..usize::from(*len)],
            Selections::Spilled { buf, .. } => buf,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u16] {
        match self {
            Selections::Inline { len, buf, .. } => &mut buf[..usize::from(*len)],
            Selections::Spilled { buf, .. } => buf,
        }
    }
}

impl TokenPath {
    /// A path from its flat `[layer][k]` selections.
    ///
    /// # Panics
    ///
    /// Panics if `top_k` is zero, does not divide the selection count or
    /// exceeds `u16::MAX`.
    pub fn new(class: usize, top_k: usize, selections: &[u16]) -> Self {
        let mut path = TokenPath {
            class,
            selections: Selections::zeroed(top_k, selections.len()),
        };
        path.selections.as_mut_slice().copy_from_slice(selections);
        path
    }

    /// Layers the path covers.
    pub fn layers(&self) -> usize {
        self.selections().len() / self.top_k()
    }

    /// Gate fan-out: selections per layer.
    pub fn top_k(&self) -> usize {
        self.selections.top_k()
    }

    /// The gate's top-k experts at a layer, primary first.
    pub fn selection(&self, layer: usize) -> &[u16] {
        let k = self.top_k();
        &self.selections()[layer * k..][..k]
    }

    /// Every selection, `[layer][k]` token-major.
    pub fn selections(&self) -> &[u16] {
        self.selections.as_slice()
    }

    /// The primary (top-1) expert at a layer.
    pub fn primary(&self, layer: usize) -> u16 {
        self.selections()[layer * self.top_k()]
    }

    /// The estimator's sample-path key: the primary selections of layers
    /// `layer - len + 1 ..= layer` (from layer 0 when `layer + 1 < len`)
    /// packed as base-`experts` digits, oldest most significant, i.e.
    /// `Σ primary(i) · experts^(layer - i)`. Codes of suffixes of equal
    /// length are unique, and the code of a suffix of length `k < len` is
    /// this code modulo `experts^k`. The caller keeps `experts^len` within
    /// `u64`.
    pub fn path_code(&self, layer: usize, len: usize, experts: usize) -> u64 {
        let k = self.top_k();
        let start = (layer + 1).saturating_sub(len);
        self.selections()[start * k..(layer + 1) * k]
            .iter()
            .step_by(k)
            .fold(0, |code, &e| {
                debug_assert!(
                    usize::from(e) < experts,
                    "path_code: expert {e} >= {experts}"
                );
                code * experts as u64 + u64::from(e)
            })
    }
}

impl PartialEq for TokenPath {
    fn eq(&self, other: &Self) -> bool {
        self.class == other.class
            && self.top_k() == other.top_k()
            && self.selections() == other.selections()
    }
}

impl Eq for TokenPath {}

impl std::fmt::Debug for TokenPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenPath")
            .field("class", &self.class)
            .field("top_k", &self.top_k())
            .field("selections", &self.selections())
            .finish()
    }
}

/// A batch of tokens spread across devices.
#[derive(Clone, Debug)]
pub struct TokenBatch {
    /// Tokens in batch order.
    pub tokens: Vec<TokenPath>,
    /// Number of devices the batch is sharded over (contiguous blocks).
    pub devices: usize,
    /// Experts per layer.
    pub experts: usize,
}

impl TokenBatch {
    /// Tokens homed on device `d`.
    pub fn tokens_on(&self, d: usize) -> &[TokenPath] {
        let per = self.tokens.len() / self.devices;
        let start = d * per;
        let end = if d + 1 == self.devices {
            self.tokens.len()
        } else {
            start + per
        };
        &self.tokens[start..end]
    }

    /// Device homing token index `t`: the block [`tokens_on`] puts it
    /// in. A batch with fewer tokens than devices homes every token on
    /// the last device.
    ///
    /// [`tokens_on`]: TokenBatch::tokens_on
    pub fn device_of(&self, t: usize) -> usize {
        let per = self.tokens.len() / self.devices;
        if per == 0 {
            return self.devices - 1;
        }
        (t / per).min(self.devices - 1)
    }

    /// The routing matrix of one layer: counts of (token, selection)
    /// pairs from each device to each expert.
    pub fn routing_for_layer(&self, layer: usize) -> LayerRouting {
        let mut routing = LayerRouting::empty(self.devices, self.experts);
        for d in 0..self.devices {
            for tok in self.tokens_on(d) {
                for &e in tok.selection(layer) {
                    routing.counts[d][e as usize] += 1;
                }
            }
        }
        routing
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True if the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// Draws token batches for a workload.
///
/// # Examples
///
/// ```
/// use lina_workload::{Mode, TokenSource, WorkloadSpec};
///
/// let spec = WorkloadSpec::enwik8(16, 12);
/// let mut source = TokenSource::new(&spec, 1, 42);
/// let batch = source.sample_batch(16, 64, Mode::Inference);
/// assert_eq!(batch.len(), 16 * 64);
/// let routing = batch.routing_for_layer(0);
/// assert_eq!(routing.total(), batch.len());
/// ```
#[derive(Clone, Debug)]
pub struct TokenSource {
    gating: GatingModel,
    class_dist: Zipf,
    top_k: usize,
    rng: Rng,
    /// Popularity-drift rotation: the sampled Zipf *rank* is mapped to
    /// class `(rank + rotation) % classes`, so rotating shifts which
    /// latent classes are currently popular without touching the
    /// trained class-to-expert maps.
    class_rotation: usize,
    /// The current inference batch's burst topics, kept between calls
    /// so a batch allocates only its token `Vec`.
    topics: Vec<usize>,
}

impl TokenSource {
    /// Creates a source for a workload. `top_k` is the gate fan-out
    /// (2 in training, 1 in inference per the paper); `seed` controls
    /// the sampling stream, independent of the model seed.
    pub fn new(spec: &WorkloadSpec, top_k: usize, seed: u64) -> Self {
        let gating = GatingModel::new(spec);
        let class_dist = Zipf::new(spec.classes, spec.inference_class_skew);
        TokenSource {
            gating,
            class_dist,
            top_k,
            rng: Rng::new(seed),
            class_rotation: 0,
            topics: Vec::new(),
        }
    }

    /// The underlying gating model.
    pub fn gating(&self) -> &GatingModel {
        &self.gating
    }

    /// Sets the popularity-drift rotation: inference class ranks map to
    /// class `(rank + rotation) % classes`, so advancing the rotation
    /// makes previously cold classes (and hence their canonical
    /// experts) popular. Training-mode sampling is uniform over classes
    /// and therefore unaffected.
    pub fn set_class_rotation(&mut self, rotation: usize) {
        self.class_rotation = rotation % self.gating.spec().classes;
    }

    /// The current popularity-drift rotation.
    pub fn class_rotation(&self) -> usize {
        self.class_rotation
    }

    /// Maps a sampled popularity rank to a class under the current
    /// rotation.
    fn rank_to_class(&self, rank: usize) -> usize {
        (rank + self.class_rotation) % self.gating.spec().classes
    }

    /// Samples one token's full trajectory.
    pub fn sample_token(&mut self, mode: Mode) -> TokenPath {
        let class = match mode {
            Mode::Train => self.rng.index(self.gating.spec().classes),
            Mode::Inference => {
                let rank = self.class_dist.sample(&mut self.rng);
                self.rank_to_class(rank)
            }
        };
        self.sample_token_of_class(class, mode)
    }

    /// Samples a batch of `tokens_per_device * devices` tokens.
    ///
    /// Inference batches are *bursty*: a few topic classes are boosted
    /// for the whole batch, so expert popularity varies batch to batch
    /// (this is what gives the baseline its heavy tail and makes
    /// unchecked misestimates costly).
    ///
    /// # Panics
    ///
    /// Panics if `devices` or `tokens_per_device` is zero.
    pub fn sample_batch(
        &mut self,
        devices: usize,
        tokens_per_device: usize,
        mode: Mode,
    ) -> TokenBatch {
        assert!(
            devices > 0 && tokens_per_device > 0,
            "sample_batch: empty shape"
        );
        let n = devices * tokens_per_device;
        let spec = self.gating.spec();
        let (burst_topics, burst_strength, experts) =
            (spec.burst_topics, spec.burst_strength, spec.experts);
        self.topics.clear();
        if mode == Mode::Inference {
            for _ in 0..burst_topics {
                let rank = self.class_dist.sample(&mut self.rng);
                let class = self.rank_to_class(rank);
                self.topics.push(class);
            }
        }
        let tokens = (0..n)
            .map(|_| {
                if !self.topics.is_empty() && self.rng.bernoulli(burst_strength) {
                    let class = self.topics[self.rng.index(self.topics.len())];
                    self.sample_token_of_class(class, mode)
                } else {
                    self.sample_token(mode)
                }
            })
            .collect();
        TokenBatch {
            tokens,
            devices,
            experts,
        }
    }

    /// Samples a token with a fixed latent class: one whole-path draw
    /// straight into the token's selections.
    pub fn sample_token_of_class(&mut self, class: usize, mode: Mode) -> TokenPath {
        let k = self.top_k;
        let mut path = TokenPath {
            class,
            selections: Selections::zeroed(k, self.gating.spec().layers * k),
        };
        self.gating.select_path(
            class,
            k,
            mode,
            &mut self.rng,
            path.selections.as_mut_slice(),
        );
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source() -> TokenSource {
        TokenSource::new(&WorkloadSpec::enwik8(16, 12), 1, 99)
    }

    #[test]
    fn batch_shape_and_sharding() {
        let mut s = source();
        let b = s.sample_batch(4, 128, Mode::Inference);
        assert_eq!(b.len(), 512);
        for d in 0..4 {
            assert_eq!(b.tokens_on(d).len(), 128);
        }
        assert_eq!(b.device_of(0), 0);
        assert_eq!(b.device_of(127), 0);
        assert_eq!(b.device_of(128), 1);
        assert_eq!(b.device_of(511), 3);
    }

    #[test]
    fn routing_conserves_selections() {
        let mut s = TokenSource::new(&WorkloadSpec::enwik8(16, 12), 2, 3);
        let b = s.sample_batch(4, 64, Mode::Train);
        let r = b.routing_for_layer(5);
        // top-2: every token contributes 2 selections.
        assert_eq!(r.total(), 512);
        assert_eq!(r.devices(), 4);
    }

    #[test]
    fn training_routing_is_roughly_balanced() {
        let mut s = TokenSource::new(&WorkloadSpec::enwik8(16, 12), 2, 5);
        let b = s.sample_batch(16, 512, Mode::Train);
        let r = b.routing_for_layer(6);
        let skew = r.skew();
        assert!(skew < 1.5, "training skew {skew}");
    }

    #[test]
    fn inference_routing_is_skewed() {
        let mut s = source();
        let b = s.sample_batch(16, 512, Mode::Inference);
        let r = b.routing_for_layer(6);
        let skew = r.skew();
        assert!(skew > 2.0, "inference skew only {skew}");
    }

    #[test]
    fn sub_device_batches_home_on_the_last_device() {
        let mut s = source();
        let mut b = s.sample_batch(1, 3, Mode::Inference);
        b.devices = 8;
        for t in 0..3 {
            assert_eq!(b.device_of(t), 7);
        }
        assert_eq!(b.tokens_on(7).len(), 3);
        assert!(b.tokens_on(0).is_empty());
    }

    #[test]
    fn paths_and_codes() {
        let tok = TokenPath::new(0, 1, &[3, 7, 1, 4]);
        assert_eq!(tok.layers(), 4);
        assert_eq!(tok.selection(1), &[7]);
        assert_eq!(tok.primary(2), 1);
        assert_eq!(tok.path_code(3, 2, 10), 14);
        assert_eq!(tok.path_code(3, 2, 16), 16 + 4);
        assert_eq!(tok.path_code(3, 4, 10), 3714);
        // Suffixes reaching before layer 0 stop there.
        assert_eq!(tok.path_code(3, 10, 10), 3714);
        assert_eq!(tok.path_code(0, 3, 10), 3);
        assert_eq!(tok.path_code(1, 3, 10), 37);
        // A shorter suffix is the low digits of a longer one.
        assert_eq!(tok.path_code(3, 4, 8) % 8u64.pow(3), tok.path_code(3, 3, 8));
        // Top-2: codes read only the primaries, strided past the rest.
        let two = TokenPath::new(0, 2, &[3, 9, 7, 0, 1, 5, 4, 2]);
        assert_eq!(two.layers(), 4);
        assert_eq!(two.selection(2), &[1, 5]);
        assert_eq!(two.primary(3), 4);
        assert_eq!(two.path_code(3, 4, 10), 3714);
        assert_eq!(two.path_code(1, 3, 10), 37);
    }

    /// Both storage forms, on either side of the inline capacity, read
    /// back exactly as a flat `Vec` of the same selections.
    #[test]
    fn storage_agrees_with_a_flat_reference() {
        for k in [1, 2] {
            for len in [10, 11, 12, 13, 14, 48].into_iter().filter(|l| l % k == 0) {
                let flat: Vec<u16> = (0..len).map(|i| (i * 7 % 16) as u16).collect();
                let tok = TokenPath::new(3, k, &flat);
                let inline = matches!(tok.selections, Selections::Inline { .. });
                assert_eq!(inline, len <= INLINE, "{len} selections");
                assert_eq!((tok.layers(), tok.top_k()), (len / k, k));
                assert_eq!(tok.selections(), flat);
                for layer in 0..len / k {
                    assert_eq!(tok.selection(layer), &flat[layer * k..][..k]);
                    assert_eq!(tok.primary(layer), flat[layer * k]);
                    for n in 1..=4 {
                        let start = (layer + 1).saturating_sub(n);
                        let code = (start..=layer).fold(0, |c, l| c * 16 + u64::from(flat[l * k]));
                        assert_eq!(tok.path_code(layer, n, 16), code);
                    }
                }
                assert_eq!(tok.clone(), tok);
                let mut other = flat.clone();
                other[len - 1] ^= 1;
                assert_ne!(TokenPath::new(3, k, &other), tok);
                assert_ne!(TokenPath::new(4, k, &flat), tok);
            }
        }
        assert_ne!(TokenPath::new(0, 1, &[1, 2]), TokenPath::new(0, 2, &[1, 2]));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_token_is_at_most_40_bytes() {
        assert!(std::mem::size_of::<TokenPath>() <= 40);
    }

    #[test]
    #[should_panic(expected = "not whole layers of top-2")]
    fn ragged_selections_panic() {
        TokenPath::new(0, 2, &[1, 2, 3]);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = source();
        let mut b = source();
        let ba = a.sample_batch(2, 16, Mode::Inference);
        let bb = b.sample_batch(2, 16, Mode::Inference);
        assert_eq!(ba.tokens, bb.tokens);
    }

    #[test]
    fn class_rotation_shifts_popular_classes() {
        let spec = WorkloadSpec::enwik8(16, 12);
        let classes = spec.classes;
        let count_classes = |rotation: usize| {
            let mut s = TokenSource::new(&spec, 1, 77);
            s.set_class_rotation(rotation);
            let b = s.sample_batch(8, 512, Mode::Inference);
            let mut counts = vec![0usize; classes];
            for tok in &b.tokens {
                counts[tok.class] += 1;
            }
            counts
        };
        let base = count_classes(0);
        let rotated = count_classes(classes / 2);
        // The same sampling stream shifted by half the class space: the
        // modal class moves by exactly the rotation.
        let argmax = |c: &[usize]| {
            c.iter()
                .enumerate()
                .max_by_key(|&(_, &v)| v)
                .expect("nonempty")
                .0
        };
        assert_eq!((argmax(&base) + classes / 2) % classes, argmax(&rotated));
        // Training mode is uniform over classes and unaffected in shape.
        let mut s = TokenSource::new(&spec, 1, 77);
        s.set_class_rotation(5);
        assert_eq!(s.class_rotation(), 5);
    }

    #[test]
    fn rotation_wraps_modulo_classes() {
        let spec = WorkloadSpec::enwik8(16, 12);
        let mut s = TokenSource::new(&spec, 1, 7);
        s.set_class_rotation(spec.classes + 3);
        assert_eq!(s.class_rotation(), 3);
    }

    #[test]
    fn different_sampling_seeds_differ() {
        let mut a = TokenSource::new(&WorkloadSpec::enwik8(16, 12), 1, 1);
        let mut b = TokenSource::new(&WorkloadSpec::enwik8(16, 12), 1, 2);
        let ba = a.sample_batch(2, 64, Mode::Inference);
        let bb = b.sample_batch(2, 64, Mode::Inference);
        assert_ne!(ba.tokens, bb.tokens);
    }
}
