//! Boot-time key material and the top-level hashing API.

use crate::multilinear::{self, splitmix64};
use crate::signature::Signature;
use crate::state::HashState;
use crate::{LANES, SCHEDULE_LEN};

/// Boot-time random key material for path-signature hashing.
///
/// A `HashKey` holds one random 64-bit key per lane and stream position,
/// plus a per-lane initial offset. It is generated once per kernel
/// instance (`§3.3`: "We choose a random key at boot time for our
/// signature hash function"), so the same path produces different
/// signatures across kernel instances and an adversary cannot search for
/// collisions offline.
pub struct HashKey {
    /// The keys, position-major: `wide[p]` holds the four lanes' keys for
    /// stream position `p` in 32 contiguous bytes, so the mixing loop
    /// streams one array sequentially. All keys are odd, so every
    /// multiplier is invertible modulo 2^64.
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
        let mut wide = Box::new([[0u64; LANES]; SCHEDULE_LEN]);
        for (lane, lane_init) in init.iter_mut().enumerate() {
            *lane_init = splitmix64(&mut x);
            for row in wide.iter_mut() {
                row[lane] = splitmix64(&mut x) | 1;
            }
        }
        HashKey { wide, init }
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

    /// The state of `state`'s path extended by one canonical component,
    /// or `None` when the component would run past the key schedule
    /// ([`SCHEDULE_LEN`] words): such a path has no signature, and a
    /// lookup of it walks.
    ///
    /// The component must be a plain name: not empty, not `"."`, not
    /// `".."`, and containing no `/`. Callers (the VFS walker) are
    /// responsible for canonicalization; this is debug-asserted here.
    #[must_use]
    #[inline]
    pub fn extend(&self, state: &HashState, name: &[u8]) -> Option<HashState> {
        fits(state, name)?;
        let mut acc = state.acc;
        let pos = multilinear::mix_component_wide(&mut acc, state.pos, &self.wide, name);
        Some(HashState { acc, pos })
    }

    /// The byte-at-a-time reference for [`extend`](HashKey::extend): one
    /// [`multilinear::mix_component`] pass per lane. Tests compare the
    /// wide mixing loop against it.
    #[must_use]
    pub fn extend_oracle(&self, state: &HashState, name: &[u8]) -> Option<HashState> {
        fits(state, name)?;
        let mut next = *state;
        for (lane, acc) in next.acc.iter_mut().enumerate() {
            (*acc, next.pos) = multilinear::mix_component(*acc, state.pos, &self.wide, name, lane);
        }
        Some(next)
    }

    /// [`extend`](HashKey::extend) in place, for a path its caller knows
    /// to fit the schedule (a test's, a benchmark's).
    ///
    /// # Panics
    ///
    /// If the component runs past the key schedule.
    pub fn push_component(&self, state: &mut HashState, name: &[u8]) {
        *state = self
            .extend(state, name)
            .expect("component runs past the key schedule");
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
    ///
    /// # Panics
    ///
    /// If the path runs past the key schedule ([`SCHEDULE_LEN`] words,
    /// about 8 KB of components).
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

/// `Some` when `name` fits the schedule after `state`'s words.
#[inline]
fn fits(state: &HashState, name: &[u8]) -> Option<()> {
    debug_assert!(!name.is_empty(), "empty component fed to hasher");
    debug_assert!(name != b"." && name != b"..", "dot component fed to hasher");
    debug_assert!(!name.contains(&b'/'), "component contains a slash");
    (state.pos as usize + multilinear::words_for(name) <= SCHEDULE_LEN).then_some(())
}

impl std::fmt::Debug for HashKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Key material is secret; never print it.
        f.write_str("HashKey { <secret> }")
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
        assert_eq!(format!("{key:?}"), "HashKey { <secret> }");
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
                oracle_st = key.extend_oracle(&oracle_st, &comp).unwrap();
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
                whole = key.extend_oracle(&whole, c).unwrap();
            }
            // Prefix via wide, suffix via oracle — and the reverse.
            let mut a = key.root_state();
            for c in &comps[..split] {
                key.push_component(&mut a, c);
            }
            let stored = a;
            let mut resumed = stored;
            for c in &comps[split..] {
                resumed = key.extend_oracle(&resumed, c).unwrap();
            }
            assert_eq!(whole, resumed);
            let mut b = key.root_state();
            for c in &comps[..split] {
                b = key.extend_oracle(&b, c).unwrap();
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
    fn wide_and_oracle_refuse_alike_at_the_schedule_end() {
        // Both mixing loops agree on every state up to the end of the
        // schedule, and both refuse the first component that would
        // cross it.
        let key = HashKey::from_seed(21);
        let comp = vec![b'q'; 61]; // 16 words + separator
        let mut wide = key.root_state();
        let mut oracle = key.root_state();
        for _ in 0..SCHEDULE_LEN / 17 {
            wide = key.extend(&wide, &comp).unwrap();
            oracle = key.extend_oracle(&oracle, &comp).unwrap();
            assert_eq!(wide, oracle);
        }
        assert_eq!(wide.words_consumed() as usize, SCHEDULE_LEN / 17 * 17);
        assert_eq!(key.extend(&wide, &comp), None);
        assert_eq!(key.extend_oracle(&oracle, &comp), None);
        assert_eq!(key.finish(&wide), key.finish(&oracle));
    }

    #[test]
    fn key_material_is_one_table_of_64_kib() {
        let key = HashKey::from_seed(5);
        assert_eq!(std::mem::size_of_val(&*key.wide), 64 * 1024);
        assert_eq!(std::mem::size_of_val(&key.init), 32);
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
            st_oracle = boot_a.extend_oracle(&st_oracle, &comp).unwrap();
            assert_eq!(st_wide, st_oracle);
        }
    }
}
