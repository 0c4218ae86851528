//! Pins the token sampler's output stream bit for bit.
//!
//! Each case digests (FNV-1a, 64-bit) every sampled token's class and
//! `[layer][k]` selections across three batches (the third under a
//! popularity-drift rotation), single tokens, and fixed-class tokens.
//! The enwik8(8, 6) and enwik8(16, 12) constants were recorded from the
//! nested `Vec<Vec<u16>>` token layout, the others from the sampler that
//! drew one layer per call, so any change to the RNG draw order or to
//! how selections are stored shows up here first.

use lina::workload::{Mode, TokenPath, TokenSource, WorkloadSpec};

fn fold(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fold_token(h: &mut u64, tok: &TokenPath) {
    fold(h, tok.class as u64);
    fold(h, tok.layers() as u64);
    for layer in 0..tok.layers() {
        for &e in tok.selection(layer) {
            fold(h, u64::from(e));
        }
    }
}

fn stream_digest(spec: &WorkloadSpec, top_k: usize, mode: Mode) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    let mut src = TokenSource::new(spec, top_k, 17);
    for round in 0..3 {
        if round == 2 {
            src.set_class_rotation(5);
        }
        let batch = src.sample_batch(4, 32, mode);
        fold(&mut h, batch.tokens.len() as u64);
        for tok in &batch.tokens {
            assert_eq!(tok.top_k(), top_k);
            fold_token(&mut h, tok);
        }
    }
    for _ in 0..16 {
        let tok = src.sample_token(mode);
        fold_token(&mut h, &tok);
    }
    for class in 0..16 {
        let tok = src.sample_token_of_class(class * 3 % spec.classes, mode);
        fold_token(&mut h, &tok);
    }
    h
}

#[test]
fn sampler_streams_match_the_recorded_digests() {
    // Digests per spec, in `runs` order. enwik8 at 24 layers reaches the
    // 0.97 persistence clamp in its deepest layers.
    let runs = [
        (Mode::Train, 1),
        (Mode::Train, 2),
        (Mode::Inference, 1),
        (Mode::Inference, 2),
    ];
    let cases = [
        (
            WorkloadSpec::enwik8(8, 6),
            [
                0xc2b2_9e99_cf70_c1a8,
                0x430d_a423_9df3_3423,
                0x8f7b_d234_4404_c50a,
                0xc48a_fae6_69f7_1fe8,
            ],
        ),
        (
            WorkloadSpec::enwik8(16, 12),
            [
                0x8212_5550_12d3_ab7e,
                0x6541_26cf_e666_867d,
                0x7401_bb9a_bfb1_6cdd,
                0xeb42_63ea_e359_a19e,
            ],
        ),
        (
            WorkloadSpec::enwik8(8, 24),
            [
                0xc40a_b165_74f4_20a8,
                0xe14a_55d1_06cb_b9c6,
                0xaa95_9449_6bbd_3c2e,
                0xdbb4_e161_ba15_274c,
            ],
        ),
        (
            WorkloadSpec::wmt_en_de(16, 12),
            [
                0x66ae_db2f_1329_2029,
                0x230c_8f97_62f9_fe5b,
                0xccf5_37c2_0669_f743,
                0x7bb3_30e6_e318_0c28,
            ],
        ),
    ];
    for (spec, digests) in cases {
        let (name, experts, layers) = (&spec.name, spec.experts, spec.layers);
        for ((mode, k), want) in runs.into_iter().zip(digests) {
            let got = stream_digest(&spec, k, mode);
            assert_eq!(
                got, want,
                "{name}({experts}, {layers}), {mode:?}, top-{k}: {got:#018x}"
            );
        }
    }
}
