//! splitmix64 — the repo's one seeded generator.
//!
//! It lives here because `dc-fault` sits at the bottom of the dependency
//! graph (under `dc-blockdev`): the fault injector, the crash monitor,
//! the fleet simulator and every `repro` campaign draw from this type,
//! so a seed names one stream everywhere. (`crates/dst` keeps its own
//! copy: the model checker is dependency-free by design.)

/// splitmix64: tiny, fast, and statistically fine for fault sampling
/// and workload generation.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`, 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// One draw reduced into `0..n` (`0` when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Skewed pick in `0..n` from one draw: 90% land in the hot first
    /// tenth.
    pub fn skewed(&mut self, n: usize) -> usize {
        let r = self.next_u64();
        if r % 10 < 9 {
            (r >> 8) as usize % (n / 10).max(1)
        } else {
            (r >> 8) as usize % n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    /// Every campaign stream in the repo is this one; these values were
    /// computed from the splitmix64 reference, not from this code.
    #[test]
    fn the_stream_of_seed_0x5eed_is_pinned() {
        let mut r = SplitMix64::new(0x5EED);
        let draws: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(
            draws,
            [
                0x09f1_fd9d_03f0_a9b4,
                0x5532_7416_1bbf_8475,
                0x5d5b_ca46_96b3_43b3,
                0x70d2_9b6c_7d22_528d,
                0x0bf2_b716_f991_5475,
                0x5eb7_f92b_9538_7cca,
                0x296c_d0f2_c21d_7f90,
                0x1289_a698_05c1_25b1,
            ]
        );
        let mut r = SplitMix64::new(0x5EED);
        let below: Vec<u64> = (0..8).map(|_| r.below(100)).collect();
        assert_eq!(below, [52, 5, 91, 97, 93, 30, 68, 5]);
        assert_eq!(SplitMix64::new(0x5EED).below(0), 0);
        let mut r = SplitMix64::new(0x5EED);
        let skewed: Vec<usize> = (0..8).map(|_| r.skewed(1000)).collect();
        assert_eq!(skewed, [37, 48, 27, 26, 96, 88, 79, 13]);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
