//! splitmix64: the only source of randomness in the benchmark. Every
//! tree, op stream and request frame is a pure function of `--seed`.

/// A seeded splitmix64 generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent generator derived from this seed and `tag`, so the
    /// tree builder, each actor and each probe draw from separate
    /// streams: adding a draw to one never shifts another.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n` must be non-zero).
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// A lower-case name of `min..=max` letters.
    pub fn name(&mut self, min: usize, max: usize) -> String {
        let len = min + self.below(max - min + 1);
        (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }
}
