//! A 128-bit FNV-1a digest for pinning simulator outputs.

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Incremental 128-bit FNV-1a over `u64` words. Golden-output tests
/// fold every record of a run into one of these; at 128 bits an
/// accidental collision between two different runs is negligible.
#[derive(Clone, Copy, Debug)]
pub struct Fnv128(u128);

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128(FNV128_OFFSET)
    }
}

impl Fnv128 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv128::default()
    }

    /// Folds one word into the digest, byte by byte.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u128 {
        self.0
    }
}
