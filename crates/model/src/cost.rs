//! Analytic compute cost model.
//!
//! GPU kernel durations are estimated from FLOP counts divided by an
//! effective throughput, plus a fixed launch overhead. Absolute numbers
//! only need to be A100-plausible; every result in the paper is about
//! *relative* magnitudes (communication vs computation, skewed vs
//! balanced), which FLOP scaling preserves.

use lina_simcore::SimDuration;

use crate::config::MoeModelConfig;

/// Compute capability of one device.
#[derive(Clone, Copy, Debug)]
pub struct DeviceSpec {
    /// Effective dense-GEMM throughput, FLOP/s (not the marketing peak).
    pub matmul_flops: f64,
    /// Effective memory bandwidth, bytes/s.
    pub mem_bw: f64,
    /// Fixed per-kernel launch overhead.
    pub kernel_overhead: SimDuration,
    /// Equivalent FLOPs per token of non-GEMM work in a Transformer
    /// block (softmax, layer norms, dropout, residuals, host-side
    /// launches). The paper's profiles show large stretches of
    /// low-SM-efficiency time; this term reproduces the resulting
    /// compute/communication balance.
    pub aux_flops_per_token: f64,
}

impl DeviceSpec {
    /// A100-40GB with realistic efficiency on the paper's modest GEMM
    /// shapes (H = 512..1024 GEMMs reach a small fraction of the
    /// 312 TFLOPS fp16 tensor-core peak; the paper itself reports very
    /// low SM efficiency).
    pub fn a100() -> Self {
        DeviceSpec {
            // Large-M fp16 GEMMs reach ~55-60% of the 312 TFLOPS peak.
            matmul_flops: 180e12,
            mem_bw: 1.3e12,
            kernel_overhead: SimDuration::from_micros(12),
            aux_flops_per_token: 32e6,
        }
    }

    /// A100 running inference: decode-time GEMMs are smaller and far
    /// less efficient than training's large fused batches, and the
    /// paper's Table 1 inference all-to-all ratios (~27-32%) imply a
    /// markedly lower effective throughput.
    pub fn a100_inference() -> Self {
        DeviceSpec {
            matmul_flops: 55e12,
            mem_bw: 1.3e12,
            kernel_overhead: SimDuration::from_micros(12),
            aux_flops_per_token: 20e6,
        }
    }

    /// Time for `flops` of dense math.
    pub fn gemm_time(&self, flops: f64) -> SimDuration {
        SimDuration::from_secs_f64(flops / self.matmul_flops) + self.kernel_overhead
    }

    /// Time for a memory-bound pass over `bytes`.
    pub fn mem_time(&self, bytes: f64) -> SimDuration {
        SimDuration::from_secs_f64(bytes / self.mem_bw) + self.kernel_overhead
    }
}

/// Cost model binding a model configuration to a device.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Device characteristics.
    pub device: DeviceSpec,
    /// Model configuration.
    pub model: MoeModelConfig,
}

impl CostModel {
    /// Creates a cost model.
    pub fn new(device: DeviceSpec, model: MoeModelConfig) -> Self {
        CostModel { device, model }
    }

    /// FLOPs of the attention block forward pass over `tokens` tokens
    /// arranged in sequences of the model's `seq_len`: four projections
    /// (`4 x 2 H^2` per token) plus score/value matmuls
    /// (`2 x 2 S H` per token).
    fn attention_flops(&self, tokens: usize) -> f64 {
        let h = self.model.hidden as f64;
        let s = self.model.attn_span as f64;
        // Two FLOPs per parameter-MAC: the projection volume follows
        // the (possibly cross-attention-bearing) parameter count.
        let proj = 2.0 * self.model.attention_params() as f64;
        tokens as f64 * (proj + 4.0 * s * h + self.device.aux_flops_per_token)
    }

    /// Attention forward time for `tokens` local tokens.
    pub fn attention_fwd(&self, tokens: usize) -> SimDuration {
        self.device.gemm_time(self.attention_flops(tokens))
    }

    /// Attention backward time (~2x forward).
    pub fn attention_bwd(&self, tokens: usize) -> SimDuration {
        self.device.gemm_time(2.0 * self.attention_flops(tokens))
    }

    /// Gating network forward time: one `H x E` matmul per token plus a
    /// top-k selection pass.
    pub fn gate_fwd(&self, tokens: usize) -> SimDuration {
        let h = self.model.hidden as f64;
        let e = self.model.experts as f64;
        self.device.gemm_time(tokens as f64 * 2.0 * h * e)
            + self.device.mem_time(tokens as f64 * e * 4.0)
    }

    /// Gating backward time.
    pub fn gate_bwd(&self, tokens: usize) -> SimDuration {
        let h = self.model.hidden as f64;
        let e = self.model.experts as f64;
        self.device.gemm_time(tokens as f64 * 4.0 * h * e)
    }

    /// One expert's FFN forward over `tokens` routed tokens:
    /// `2 x 2 H F` FLOPs per token.
    pub fn expert_fwd(&self, tokens: usize) -> SimDuration {
        let h = self.model.hidden as f64;
        let f = self.model.ffn_hidden as f64;
        self.device.gemm_time(tokens as f64 * 4.0 * h * f)
    }

    /// One expert's FFN backward (~2x forward).
    pub fn expert_bwd(&self, tokens: usize) -> SimDuration {
        let h = self.model.hidden as f64;
        let f = self.model.ffn_hidden as f64;
        self.device.gemm_time(tokens as f64 * 8.0 * h * f)
    }

    /// Combine (weighted sum + reshape) time: memory-bound over the
    /// routed activations.
    pub fn combine(&self, tokens: usize) -> SimDuration {
        let bytes = (tokens * self.model.top_k * self.model.hidden * self.model.dtype_bytes) as f64;
        self.device.mem_time(3.0 * bytes)
    }

    /// Optimizer step over this device's resident parameters
    /// (memory-bound: read param+grad+state, write param+state).
    pub fn optimizer_step(&self) -> SimDuration {
        let bytes = (self.model.params_per_device() * self.model.dtype_bytes) as f64;
        self.device.mem_time(6.0 * bytes)
    }

    /// Time to swap one expert's weights between host DRAM and the
    /// device over PCIe at `pcie_bw` bytes/s.
    pub fn expert_swap(&self, pcie_bw: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.model.expert_bytes() / pcie_bw)
            + self.device.kernel_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm() -> CostModel {
        CostModel::new(DeviceSpec::a100(), MoeModelConfig::transformer_xl(12, 16))
    }

    #[test]
    fn costs_scale_linearly_with_tokens() {
        let c = cm();
        let overhead = c.device.kernel_overhead.as_secs_f64();
        for (a, b) in [
            (c.attention_fwd(1000), c.attention_fwd(2000)),
            (c.expert_fwd(1000), c.expert_fwd(2000)),
            (c.gate_bwd(1000), c.gate_bwd(2000)),
        ] {
            let pure_a = a.as_secs_f64() - overhead;
            let pure_b = b.as_secs_f64() - overhead;
            assert!((pure_b / pure_a - 2.0).abs() < 0.05, "{pure_a} vs {pure_b}");
        }
    }

    #[test]
    fn backward_costs_about_twice_forward() {
        let c = cm();
        let fwd = c.expert_fwd(4096).as_secs_f64();
        let bwd = c.expert_bwd(4096).as_secs_f64();
        assert!((bwd / fwd - 2.0).abs() < 0.25, "ratio {}", bwd / fwd);
    }

    #[test]
    fn expert_ffn_magnitude_is_plausible() {
        // 4096 tokens through a 512x2048 FFN on an A100: ~0.2ms of math.
        let c = cm();
        let t = c.expert_fwd(4096).as_secs_f64();
        assert!(t > 20e-6 && t < 2e-3, "expert fwd {t}s");
    }

    #[test]
    fn zero_tokens_cost_only_launch_overhead() {
        let c = cm();
        assert_eq!(c.expert_fwd(0), c.device.kernel_overhead);
    }

    #[test]
    fn combine_scales_with_topk() {
        let train = cm();
        let infer = CostModel::new(
            DeviceSpec::a100(),
            MoeModelConfig::transformer_xl(12, 16).for_inference(),
        );
        assert!(train.combine(4096) > infer.combine(4096));
    }

    #[test]
    fn expert_swap_time() {
        let c = cm();
        // ~4.2M params x 2B / 24 GB/s ~ 0.35ms.
        let t = c.expert_swap(24e9).as_secs_f64();
        assert!(t > 5e-5 && t < 5e-3, "swap {t}s");
    }

    #[test]
    fn optimizer_step_nontrivial() {
        let c = cm();
        let t = c.optimizer_step().as_secs_f64();
        assert!(t > 1e-4, "optimizer {t}s too fast");
    }
}
