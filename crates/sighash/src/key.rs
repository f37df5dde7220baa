//! Boot-time key material and the top-level hashing API.

use crate::multilinear::{self, splitmix64};
use crate::signature::Signature;
use crate::state::HashState;
use crate::{LANES, SCHEDULE_LEN};

/// Boot-time random key material for path-signature hashing.
///
/// A `HashKey` holds one cyclic schedule of random 64-bit keys per lane plus
/// a per-lane initial offset. It is generated once per kernel instance
/// (`§3.3`: "We choose a random key at boot time for our signature hash
/// function"), so the same path produces different signatures across kernel
/// instances and an adversary cannot search for collisions offline.
pub struct HashKey {
    /// Per-lane cyclic key schedules; all keys are forced odd so every
    /// multiplier is invertible modulo 2^64. This layout drives the
    /// byte-at-a-time oracle path (wrap handling, equivalence tests).
    lanes: [Box<[u64; SCHEDULE_LEN]>; LANES],
    /// The same key material interleaved position-major: `wide[p]` holds
    /// the four lanes' keys for stream position `p` in 32 contiguous
    /// bytes, so the wide mixing loop streams one array sequentially
    /// instead of striding four 16 KB tables in parallel.
    wide: Box<[[u64; LANES]; SCHEDULE_LEN]>,
    /// Per-lane initial accumulator value (the `k_0` term of the
    /// multilinear family).
    init: [u64; LANES],
}

impl HashKey {
    /// Creates key material deterministically from `seed`.
    ///
    /// Tests pass a fixed seed for reproducibility; a kernel passes entropy
    /// (see [`HashKey::from_entropy`]).
    pub fn from_seed(seed: u64) -> Self {
        let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut init = [0u64; LANES];
        let mut lanes: Vec<Box<[u64; SCHEDULE_LEN]>> = Vec::with_capacity(LANES);
        for lane_init in init.iter_mut() {
            *lane_init = splitmix64(&mut x);
            let mut sched = Box::new([0u64; SCHEDULE_LEN]);
            for k in sched.iter_mut() {
                // Odd multipliers keep every key invertible mod 2^64.
                *k = splitmix64(&mut x) | 1;
            }
            lanes.push(sched);
        }
        let lanes: [Box<[u64; SCHEDULE_LEN]>; LANES] =
            lanes.try_into().unwrap_or_else(|_| unreachable!());
        let mut wide = Box::new([[0u64; LANES]; SCHEDULE_LEN]);
        for (p, row) in wide.iter_mut().enumerate() {
            for (lane, slot) in row.iter_mut().enumerate() {
                *slot = lanes[lane][p];
            }
        }
        HashKey { lanes, wide, init }
    }

    /// Creates key material from OS entropy (what a real boot would do).
    pub fn from_entropy() -> Self {
        // `RandomState` seeds itself from OS entropy; hashing two fixed
        // values extracts two independent 64-bit samples.
        use std::collections::hash_map::RandomState;
        use std::hash::{BuildHasher, Hasher};
        let rs = RandomState::new();
        let mut h1 = rs.build_hasher();
        h1.write_u64(0x5eed);
        let mut h2 = rs.build_hasher();
        h2.write_u64(0xb007);
        Self::from_seed(h1.finish() ^ h2.finish().rotate_left(32))
    }

    /// Returns the hash state representing the empty path (the root).
    pub fn root_state(&self) -> HashState {
        HashState::new(self.init)
    }

    /// Feeds one canonical path component into `state`.
    ///
    /// The component must be a plain name: not empty, not `"."`, not
    /// `".."`, and containing no `/`. Callers (the VFS walker) are
    /// responsible for canonicalization; this is debug-asserted here.
    pub fn push_component(&self, state: &mut HashState, name: &[u8]) {
        debug_assert!(!name.is_empty(), "empty component fed to hasher");
        debug_assert!(name != b"." && name != b"..", "dot component fed to hasher");
        debug_assert!(!name.contains(&b'/'), "component contains a slash");
        // The wide path assumes the wrap-salt perturbation is zero for
        // every word of this component; components that start at or
        // straddle a schedule wrap (paths past ~8 KB of components) take
        // the oracle path, which handles the perturbation per word.
        if (state.pos as usize) + multilinear::words_for(name) <= SCHEDULE_LEN {
            state.pos =
                multilinear::mix_component_wide(&mut state.acc, state.pos, &self.wide, name);
        } else {
            self.push_component_oracle(state, name);
        }
    }

    /// The byte-at-a-time reference path: one [`multilinear::mix_component`]
    /// pass per lane over that lane's own schedule. Kept public as the
    /// oracle the wide path is equivalence-tested against, and as the
    /// fallback for components that straddle a schedule wrap.
    pub fn push_component_oracle(&self, state: &mut HashState, name: &[u8]) {
        for lane in 0..LANES {
            let sched: &[u64; SCHEDULE_LEN] = &self.lanes[lane];
            let (acc, pos) =
                multilinear::mix_component(state.acc[lane], state.pos, sched, name, lane as u64);
            state.acc[lane] = acc;
            if lane == LANES - 1 {
                state.pos = pos;
            }
        }
    }

    /// Finalizes `state` into a 256-bit [`Signature`].
    ///
    /// Finalization does not modify `state`, so a stored per-dentry state
    /// can keep being extended by deeper lookups.
    pub fn finish(&self, state: &HashState) -> Signature {
        let mut out = [0u64; LANES];
        for (lane, slot) in out.iter_mut().enumerate() {
            *slot = multilinear::finalize(state.acc[lane], state.pos, lane as u64);
        }
        Signature::from_lanes(out)
    }

    /// Convenience: hashes a sequence of components from the root.
    pub fn hash_components<'a, I>(&self, comps: I) -> Signature
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut st = self.root_state();
        for c in comps {
            self.push_component(&mut st, c);
        }
        self.finish(&st)
    }
}

impl std::fmt::Debug for HashKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Key material is secret; never print it.
        f.write_str("HashKey {{ <secret> }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = HashKey::from_seed(7);
        let b = HashKey::from_seed(7);
        let s1 = a.hash_components([b"x".as_slice(), b"y".as_slice()]);
        let s2 = b.hash_components([b"x".as_slice(), b"y".as_slice()]);
        assert_eq!(s1, s2);
    }

    #[test]
    fn different_seeds_differ() {
        let a = HashKey::from_seed(1);
        let b = HashKey::from_seed(2);
        let p = [b"same".as_slice(), b"path".as_slice()];
        assert_ne!(a.hash_components(p), b.hash_components(p));
    }

    #[test]
    fn resume_equals_whole() {
        let key = HashKey::from_seed(99);
        let whole = key.hash_components([b"a".as_slice(), b"bb".as_slice(), b"ccc".as_slice()]);
        let mut prefix = key.root_state();
        key.push_component(&mut prefix, b"a");
        let stored = prefix; // as if stored in the dentry for /a
        let mut resumed = stored;
        key.push_component(&mut resumed, b"bb");
        key.push_component(&mut resumed, b"ccc");
        assert_eq!(whole, key.finish(&resumed));
    }

    #[test]
    fn debug_does_not_leak() {
        let key = HashKey::from_seed(3);
        assert!(!format!("{key:?}").contains('['));
    }

    #[test]
    fn entropy_keys_differ() {
        let a = HashKey::from_entropy();
        let b = HashKey::from_entropy();
        let p = [b"etc".as_slice()];
        // Two fresh boots must disagree on the signature of the same path.
        assert_ne!(a.hash_components(p), b.hash_components(p));
    }

    /// Deterministic pseudo-random byte generator for the equivalence
    /// sweeps (the offline build has no rand crate).
    fn prng_bytes(x: &mut u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                let b = (crate::multilinear::splitmix64(x) & 0xff) as u8;
                if b == b'/' {
                    b'_'
                } else {
                    b.max(1)
                }
            })
            .collect()
    }

    #[test]
    fn wide_matches_oracle_over_random_streams() {
        // The wide 8-bytes-per-step path must be bit-identical to the
        // byte-at-a-time oracle for every component length and alignment,
        // including zero-length-word tails and odd word counts.
        let key = HashKey::from_seed(0x57ee7);
        let mut x = 0x1234_5678u64;
        for trial in 0..400 {
            let ncomps = 1 + (trial % 11);
            let mut wide_st = key.root_state();
            let mut oracle_st = key.root_state();
            for i in 0..ncomps {
                let len = 1 + ((crate::multilinear::splitmix64(&mut x) as usize) % 63);
                let comp = prng_bytes(&mut x, len);
                key.push_component(&mut wide_st, &comp);
                key.push_component_oracle(&mut oracle_st, &comp);
                assert_eq!(
                    wide_st, oracle_st,
                    "trial {trial}, component {i}, len {len}"
                );
            }
            assert_eq!(key.finish(&wide_st), key.finish(&oracle_st));
        }
    }

    #[test]
    fn wide_matches_oracle_with_resume_splits() {
        // A state stored mid-path by the wide path must resume
        // identically under either path — dentries don't record which
        // mixing loop produced their stored HashState.
        let key = HashKey::from_seed(77);
        let mut x = 0xfeed_beefu64;
        for trial in 0..100 {
            let comps: Vec<Vec<u8>> = (0..8)
                .map(|_| {
                    let len = 1 + ((crate::multilinear::splitmix64(&mut x) as usize) % 40);
                    prng_bytes(&mut x, len)
                })
                .collect();
            let split = trial % (comps.len() + 1);
            let mut whole = key.root_state();
            for c in &comps {
                key.push_component_oracle(&mut whole, c);
            }
            // Prefix via wide, suffix via oracle — and the reverse.
            let mut a = key.root_state();
            for c in &comps[..split] {
                key.push_component(&mut a, c);
            }
            let stored = a;
            let mut resumed = stored;
            for c in &comps[split..] {
                key.push_component_oracle(&mut resumed, c);
            }
            assert_eq!(whole, resumed);
            let mut b = key.root_state();
            for c in &comps[..split] {
                key.push_component_oracle(&mut b, c);
            }
            let mut resumed_b = b;
            for c in &comps[split..] {
                key.push_component(&mut resumed_b, c);
            }
            assert_eq!(whole, resumed_b);
            assert_eq!(key.finish(&whole), key.finish(&resumed));
        }
    }

    #[test]
    fn wide_falls_back_identically_at_schedule_wrap() {
        // Components that straddle the SCHEDULE_LEN wrap take the oracle
        // path inside push_component; the states must stay identical
        // through the transition and beyond it.
        let key = HashKey::from_seed(21);
        let comp = vec![b'q'; 61]; // 16 words + separator
        let n = SCHEDULE_LEN / 17 + 4; // crosses the wrap
        let mut dispatch = key.root_state();
        let mut oracle = key.root_state();
        for _ in 0..n {
            key.push_component(&mut dispatch, &comp);
            key.push_component_oracle(&mut oracle, &comp);
            assert_eq!(dispatch, oracle);
        }
        assert!(dispatch.words_consumed() as usize > SCHEDULE_LEN);
        assert_eq!(key.finish(&dispatch), key.finish(&oracle));
    }

    #[test]
    fn boot_key_randomization_survives_wide_layout() {
        // Regression: the wide interleaved schedule must be derived from
        // the same boot-time key material, not a fixed table — two boots
        // (seeds) must disagree on every path, under both mixing paths.
        let boot_a = HashKey::from_seed(0xA11CE);
        let boot_b = HashKey::from_seed(0xB0B);
        let mut x = 3u64;
        for _ in 0..50 {
            let len = 1 + (x as usize % 32);
            let comp = prng_bytes(&mut x, len);
            let pa = [comp.as_slice()];
            assert_ne!(boot_a.hash_components(pa), boot_b.hash_components(pa));
            // And the wide path leaks nothing the oracle wouldn't: same
            // key, same input ⇒ same output regardless of layout.
            let mut st_wide = boot_a.root_state();
            boot_a.push_component(&mut st_wide, &comp);
            let mut st_oracle = boot_a.root_state();
            boot_a.push_component_oracle(&mut st_oracle, &comp);
            assert_eq!(st_wide, st_oracle);
        }
    }
}
