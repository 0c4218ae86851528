//! Pins the token sampler's output stream bit for bit.
//!
//! Each case digests (FNV-1a, 64-bit) every sampled token's class and
//! `[layer][k]` selections across three batches (the third under a
//! popularity-drift rotation), single tokens, and fixed-class tokens.
//! The constants were recorded from the nested `Vec<Vec<u16>>` token
//! layout, so any change to the RNG draw order or to how selections
//! are stored shows up here first.

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
    // (experts, layers, mode, top-k, digest)
    let cases = [
        (8, 6, Mode::Train, 1, 0xc2b2_9e99_cf70_c1a8),
        (8, 6, Mode::Train, 2, 0x430d_a423_9df3_3423),
        (8, 6, Mode::Inference, 1, 0x8f7b_d234_4404_c50a),
        (8, 6, Mode::Inference, 2, 0xc48a_fae6_69f7_1fe8),
        (16, 12, Mode::Train, 1, 0x8212_5550_12d3_ab7e),
        (16, 12, Mode::Train, 2, 0x6541_26cf_e666_867d),
        (16, 12, Mode::Inference, 1, 0x7401_bb9a_bfb1_6cdd),
        (16, 12, Mode::Inference, 2, 0xeb42_63ea_e359_a19e),
    ];
    for (experts, layers, mode, k, want) in cases {
        let got = stream_digest(&WorkloadSpec::enwik8(experts, layers), k, mode);
        assert_eq!(
            got, want,
            "enwik8({experts}, {layers}), {mode:?}, top-{k}: {got:#018x}"
        );
    }
}
