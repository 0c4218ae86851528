//! MoE model configurations.
//!
//! The paper converts dense Transformer language models to MoE by
//! replacing every FFN layer with an MoE layer (one FFN expert per
//! device, top-2 gating in training, top-1 in inference). This module
//! describes those models and computes their parameter/tensor sizes; the
//! presets mirror the evaluation's models, whose parameter counts match
//! the paper's Table 1 within a few percent.

/// Architecture family, which decides which passes a step runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelKind {
    /// Encoder-only (BERT-style).
    Encoder,
    /// Decoder-only (GPT-style, Transformer-XL).
    Decoder,
    /// Encoder-decoder (BERT2GPT2, T5).
    EncoderDecoder,
}

/// Configuration of an MoE Transformer model.
///
/// # Examples
///
/// ```
/// use lina_model::MoeModelConfig;
///
/// let model = MoeModelConfig::transformer_xl(12, 16);
/// // The preset matches the paper's 419M-parameter Table 1 entry.
/// let params = model.total_params() as f64;
/// assert!((params - 419e6).abs() / 419e6 < 0.12);
/// assert_eq!(model.for_inference().top_k, 1);
/// ```
#[derive(Clone, Debug)]
pub struct MoeModelConfig {
    /// Human-readable name, e.g. `"Transformer-XL"`.
    pub name: String,
    /// Architecture family.
    pub kind: ModelKind,
    /// Number of Transformer layers (each contributes one MoE layer).
    pub layers: usize,
    /// Hidden (embedding) dimension `H`.
    pub hidden: usize,
    /// Expert FFN inner dimension `F` (typically `4 H`).
    pub ffn_hidden: usize,
    /// Vocabulary size (embedding table rows).
    pub vocab: usize,
    /// Tokens per sequence.
    pub seq_len: usize,
    /// Attention span (keys attended per query). Transformer-XL's
    /// segment memory makes this larger than `seq_len`.
    pub attn_span: usize,
    /// Number of experts per MoE layer (== number of devices in the
    /// paper's expert-parallel setup).
    pub experts: usize,
    /// Experts selected per token (2 in training, 1 in inference).
    pub top_k: usize,
    /// Bytes per parameter/activation element (2 for fp16).
    pub dtype_bytes: usize,
    /// Bytes per gradient element in the data-parallel allreduce
    /// (mixed-precision training reduces fp32 master gradients).
    pub grad_dtype_bytes: usize,
}

impl MoeModelConfig {
    /// Transformer-XL preset (24-layer encoder in the paper's training
    /// set; 12/24/36-layer variants appear in Table 1).
    pub fn transformer_xl(layers: usize, experts: usize) -> Self {
        MoeModelConfig {
            name: "Transformer-XL".into(),
            kind: ModelKind::Decoder,
            layers,
            hidden: 512,
            ffn_hidden: 2048,
            vocab: 32_000,
            seq_len: 512,
            attn_span: 2048,
            experts,
            top_k: 2,
            dtype_bytes: 2,
            grad_dtype_bytes: 4,
        }
    }

    /// GPT-2 preset (12-layer decoder).
    pub fn gpt2(experts: usize) -> Self {
        MoeModelConfig {
            name: "GPT-2".into(),
            kind: ModelKind::Decoder,
            layers: 12,
            hidden: 768,
            ffn_hidden: 3072,
            vocab: 50_257,
            seq_len: 512,
            attn_span: 512,
            experts,
            top_k: 2,
            dtype_bytes: 2,
            grad_dtype_bytes: 4,
        }
    }

    /// BERT2GPT2 preset (12-layer encoder-decoder).
    pub fn bert2gpt2(experts: usize) -> Self {
        MoeModelConfig {
            name: "BERT2GPT2".into(),
            kind: ModelKind::EncoderDecoder,
            layers: 12,
            hidden: 768,
            ffn_hidden: 3072,
            vocab: 30_522,
            seq_len: 448,
            attn_span: 448,
            experts,
            top_k: 2,
            dtype_bytes: 2,
            grad_dtype_bytes: 4,
        }
    }

    /// BERT-Large preset (the paper's translation inference model).
    pub fn bert_large(experts: usize) -> Self {
        MoeModelConfig {
            name: "BERT-Large".into(),
            kind: ModelKind::Encoder,
            layers: 12,
            hidden: 1024,
            ffn_hidden: 4096,
            vocab: 30_522,
            seq_len: 384,
            attn_span: 384,
            experts,
            top_k: 2,
            dtype_bytes: 2,
            grad_dtype_bytes: 4,
        }
    }

    /// T5 preset (Table 6 generalizability tasks).
    pub fn t5(experts: usize) -> Self {
        MoeModelConfig {
            name: "T5".into(),
            kind: ModelKind::EncoderDecoder,
            layers: 12,
            hidden: 768,
            ffn_hidden: 3072,
            vocab: 32_128,
            seq_len: 512,
            attn_span: 512,
            experts,
            top_k: 2,
            dtype_bytes: 2,
            grad_dtype_bytes: 4,
        }
    }

    /// Switches the model to inference-time gating (top-1, per the
    /// paper's §7.1).
    pub fn for_inference(mut self) -> Self {
        self.top_k = 1;
        self
    }

    /// Parameters in one attention block (QKV + output projections;
    /// encoder-decoder models average in the decoder's cross-attention).
    pub fn attention_params(&self) -> usize {
        let base = 4 * self.hidden * self.hidden + 4 * self.hidden;
        match self.kind {
            ModelKind::EncoderDecoder => base * 3 / 2,
            _ => base,
        }
    }

    /// Parameters in one expert FFN (two linear layers with bias).
    pub fn expert_params(&self) -> usize {
        2 * self.hidden * self.ffn_hidden + self.ffn_hidden + self.hidden
    }

    /// Parameters in one gating network.
    pub fn gate_params(&self) -> usize {
        self.hidden * self.experts
    }

    /// Parameters in the layer norms and embeddings shared across the
    /// data-parallel group.
    pub fn embedding_params(&self) -> usize {
        self.vocab * self.hidden
    }

    /// Parameters of the output head. The paper's language models tie
    /// the head to the embedding table, so this adds nothing; it exists
    /// as an extension point for untied variants.
    pub fn head_params(&self) -> usize {
        0
    }

    /// Total parameters of the model (all experts included).
    pub fn total_params(&self) -> usize {
        self.layers
            * (self.attention_params()
                + self.gate_params()
                + self.experts * self.expert_params()
                + 4 * self.hidden)
            + self.embedding_params()
            + self.head_params()
    }

    /// Parameters replicated on every device under data parallelism
    /// (everything except the experts), i.e. the gradient volume that
    /// goes through allreduce each step.
    pub fn non_expert_params(&self) -> usize {
        self.layers * (self.attention_params() + self.gate_params() + 4 * self.hidden)
            + self.embedding_params()
            + self.head_params()
    }

    /// Parameters resident per device: non-expert replica plus the
    /// device's own expert in each layer.
    pub fn params_per_device(&self) -> usize {
        self.non_expert_params() + self.layers * self.expert_params()
    }

    /// Bytes of one expert's parameters.
    pub fn expert_bytes(&self) -> f64 {
        (self.expert_params() * self.dtype_bytes) as f64
    }

    /// Bytes of non-expert gradients produced per layer (attention +
    /// gate + layer norms). Embedding gradients are charged to layer 0.
    pub fn non_expert_grad_bytes_per_layer(&self, layer: usize) -> f64 {
        let mut params = self.attention_params() + self.gate_params() + 4 * self.hidden;
        if layer == 0 {
            // Embedding gradients are produced at the very end of the
            // backward pass.
            params += self.embedding_params();
        }
        (params * self.grad_dtype_bytes) as f64
    }

    /// Bytes each device contributes to one all-to-all: every local
    /// token's activation travels to `top_k` experts.
    pub fn a2a_bytes_per_device(&self, tokens_per_device: usize) -> f64 {
        (tokens_per_device * self.top_k * self.hidden * self.dtype_bytes) as f64
    }

    /// Token embedding bytes.
    pub fn token_bytes(&self) -> f64 {
        (self.hidden * self.dtype_bytes) as f64
    }
}

/// A training/inference batch shape.
#[derive(Clone, Copy, Debug)]
pub struct BatchShape {
    /// Sequences per device.
    pub seqs_per_device: usize,
    /// Tokens per sequence (usually the model's `seq_len`).
    pub seq_len: usize,
}

impl BatchShape {
    /// Tokens each device processes per step.
    pub fn tokens_per_device(&self) -> usize {
        self.seqs_per_device * self.seq_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transformer_xl_param_counts_match_table1() {
        // Table 1: 12L+117M / 24L+233M / 36L+349M at 4 experts;
        // 12L+419M / 24L+838M / 36L+1.2B at 16 experts.
        let cases = [
            (12, 4, 117e6),
            (24, 4, 233e6),
            (36, 4, 349e6),
            (12, 16, 419e6),
            (24, 16, 838e6),
            (36, 16, 1_200e6),
        ];
        for (layers, experts, expected) in cases {
            let m = MoeModelConfig::transformer_xl(layers, experts);
            let got = m.total_params() as f64;
            let err = (got - expected).abs() / expected;
            assert!(
                err < 0.12,
                "{layers}L/{experts}e: {got:.2e} params vs paper {expected:.2e} ({:.0}% off)",
                err * 100.0
            );
        }
    }

    #[test]
    fn non_expert_smaller_than_total() {
        let m = MoeModelConfig::gpt2(16);
        assert!(m.non_expert_params() < m.total_params());
        assert!(m.params_per_device() < m.total_params());
        assert!(m.params_per_device() > m.non_expert_params());
    }

    #[test]
    fn inference_gating_is_top1() {
        let m = MoeModelConfig::transformer_xl(12, 4).for_inference();
        assert_eq!(m.top_k, 1);
    }

    #[test]
    fn a2a_bytes_scale_with_tokens_and_topk() {
        let m = MoeModelConfig::transformer_xl(12, 4);
        let b1 = m.a2a_bytes_per_device(1000);
        let b2 = m.a2a_bytes_per_device(2000);
        assert!((b2 / b1 - 2.0).abs() < 1e-12);
        let inf = m.clone().for_inference();
        assert!(
            (m.a2a_bytes_per_device(1000) / inf.a2a_bytes_per_device(1000) - 2.0).abs() < 1e-12
        );
    }

    #[test]
    fn grad_bytes_include_embeddings_once() {
        let m = MoeModelConfig::gpt2(4);
        let l0 = m.non_expert_grad_bytes_per_layer(0);
        let l1 = m.non_expert_grad_bytes_per_layer(1);
        assert!(l0 > l1);
        let total: f64 = (0..m.layers)
            .map(|l| m.non_expert_grad_bytes_per_layer(l))
            .sum();
        assert!(
            (total - (m.non_expert_params() * m.grad_dtype_bytes) as f64).abs() < 1.0,
            "per-layer grads must sum to the non-expert volume"
        );
    }

    #[test]
    fn batch_shape_tokens() {
        let b = BatchShape {
            seqs_per_device: 8,
            seq_len: 512,
        };
        assert_eq!(b.tokens_per_device(), 4096);
    }

    #[test]
    fn presets_have_distinct_names() {
        let names = [
            MoeModelConfig::transformer_xl(12, 4).name,
            MoeModelConfig::gpt2(4).name,
            MoeModelConfig::bert2gpt2(4).name,
            MoeModelConfig::bert_large(4).name,
            MoeModelConfig::t5(4).name,
        ];
        let mut unique = names.to_vec();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
