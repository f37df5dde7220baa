//! The per-lane multilinear mixing primitive.
//!
//! Each lane computes `acc = k_0 + Σ k_p · w_p (mod 2^64)` over the stream
//! of 32-bit words derived from the path, with per-position random odd keys
//! `k_p`. With 32-bit words and 64-bit keys this family is
//! 2^-32-almost-universal per lane; four independent lanes bring the
//! pairwise collision probability below 2^-128 even against adversarial
//! component choices, matching the paper's brute-force analysis (§3.3).
//! The bound needs a key of its own at every position, so a stream never
//! runs past [`SCHEDULE_LEN`] words ([`crate::HashKey::extend`] refuses).
//!
//! A component is fed as its bytes packed little-endian into words, followed
//! by a separator word tagged with the component length. The length tag
//! makes the word stream an injective encoding of the component sequence
//! (zero-padding of the final word cannot be confused with real bytes, and
//! `("ab","c")` cannot collide with `("a","bc")` structurally).

use crate::SCHEDULE_LEN;

/// 64-bit SplitMix step; used for key-schedule generation and finalization.
pub(crate) fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Final avalanche (the `fmix64` finisher).
fn fmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

/// Marker OR-ed into a separator word; component lengths are far below it.
const SEPARATOR_TAG: u32 = 0x8000_0000;

/// Golden-ratio constant folded into each lane's finalization under its
/// lane index, so lanes stay independent even if their accumulators
/// coincide.
const LANE_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
fn mix_word(acc: u64, k: u64, word: u32) -> u64 {
    acc.wrapping_add(k.wrapping_mul(word as u64))
}

/// Mixes one path component (bytes plus a length-tagged separator) into
/// lane `lane`'s accumulator one word at a time, returning the new
/// `(acc, pos)`: the reference [`mix_component_wide`] is tested against.
/// The caller checks that the component fits the schedule.
pub(crate) fn mix_component(
    mut acc: u64,
    mut pos: u32,
    wide: &[[u64; crate::LANES]; SCHEDULE_LEN],
    name: &[u8],
    lane: usize,
) -> (u64, u32) {
    let mut chunks = name.chunks_exact(4);
    for chunk in &mut chunks {
        let w = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        acc = mix_word(acc, wide[pos as usize][lane], w);
        pos += 1;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 4];
        last[..rem.len()].copy_from_slice(rem);
        let w = u32::from_le_bytes(last);
        acc = mix_word(acc, wide[pos as usize][lane], w);
        pos += 1;
    }
    // Length-tagged separator word: makes the encoding injective.
    let sep = SEPARATOR_TAG | (name.len() as u32 & 0x7fff_ffff);
    acc = mix_word(acc, wide[pos as usize][lane], sep);
    (acc, pos + 1)
}

/// Wide-word mixing over the position-major (interleaved) schedule:
/// processes 8 path bytes — two 32-bit words — per multiply-accumulate
/// step, updating all four lane accumulators in the unrolled inner body.
///
/// Bit-identical to running [`mix_component`] per lane: each lane's
/// accumulator is `k_0 + Σ k_p·w_p (mod 2^64)`, and wrapping addition is
/// commutative and associative, so regrouping the terms two-positions-
/// at-a-time cannot change the sum. The interleaved schedule stores the
/// four lanes' keys for one position in 32 contiguous bytes, so a step
/// touches one or two cache lines instead of four distant ones.
///
/// Precondition (checked by the caller, debug-asserted here): the whole
/// component fits the schedule, `pos + words(name) ≤ SCHEDULE_LEN`.
#[inline]
pub(crate) fn mix_component_wide(
    acc: &mut [u64; crate::LANES],
    pos: u32,
    wide: &[[u64; crate::LANES]; SCHEDULE_LEN],
    name: &[u8],
) -> u32 {
    let mut p = pos as usize;
    debug_assert!(p + words_for(name) <= SCHEDULE_LEN);
    let mut chunks = name.chunks_exact(8);
    for chunk in &mut chunks {
        let w0 = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) as u64;
        let w1 = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]) as u64;
        let k0 = &wide[p];
        let k1 = &wide[p + 1];
        for lane in 0..crate::LANES {
            acc[lane] = acc[lane]
                .wrapping_add(k0[lane].wrapping_mul(w0))
                .wrapping_add(k1[lane].wrapping_mul(w1));
        }
        p += 2;
    }
    let rem = chunks.remainder();
    let mut tail = rem;
    if tail.len() >= 4 {
        let w = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]) as u64;
        let k = &wide[p];
        for lane in 0..crate::LANES {
            acc[lane] = acc[lane].wrapping_add(k[lane].wrapping_mul(w));
        }
        p += 1;
        tail = &tail[4..];
    }
    if !tail.is_empty() {
        let mut last = [0u8; 4];
        last[..tail.len()].copy_from_slice(tail);
        let w = u32::from_le_bytes(last) as u64;
        let k = &wide[p];
        for lane in 0..crate::LANES {
            acc[lane] = acc[lane].wrapping_add(k[lane].wrapping_mul(w));
        }
        p += 1;
    }
    let sep = (SEPARATOR_TAG | (name.len() as u32 & 0x7fff_ffff)) as u64;
    let k = &wide[p];
    for lane in 0..crate::LANES {
        acc[lane] = acc[lane].wrapping_add(k[lane].wrapping_mul(sep));
    }
    (p + 1) as u32
}

/// 32-bit words a component occupies in the stream, separator included.
#[inline]
pub(crate) fn words_for(name: &[u8]) -> usize {
    name.len().div_ceil(4) + 1
}

/// Finalizes a lane accumulator into 64 output bits.
///
/// The stream position and lane index are folded in so prefixes of a path
/// never share a signature with the path itself, and lanes stay independent
/// even if their accumulators coincide.
#[inline]
pub(crate) fn finalize(acc: u64, pos: u32, lane: u64) -> u64 {
    fmix64(acc ^ ((pos as u64) << 1 | 1) ^ lane.wrapping_mul(LANE_SALT))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HashKey, HashState};

    #[test]
    fn boundary_shift_changes_hash() {
        // ("ab","c") must differ from ("a","bc") and from ("abc").
        let key = HashKey::from_seed(11);
        let s1 = key.hash_components([b"ab".as_slice(), b"c".as_slice()]);
        let s2 = key.hash_components([b"a".as_slice(), b"bc".as_slice()]);
        let s3 = key.hash_components([b"abc".as_slice()]);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_ne!(s2, s3);
    }

    #[test]
    fn padding_is_not_confusable() {
        // A name with explicit NUL-ish tail bytes must differ from the
        // zero-padded shorter name occupying the same words.
        let key = HashKey::from_seed(12);
        let s_short = key.hash_components([b"abcd".as_slice()]);
        let s_long = key.hash_components([b"abcd\0\0\0".as_slice()]);
        assert_ne!(s_short, s_long);
    }

    #[test]
    fn prefix_differs_from_whole() {
        let key = HashKey::from_seed(13);
        let p = key.hash_components([b"usr".as_slice()]);
        let q = key.hash_components([b"usr".as_slice(), b"lib".as_slice()]);
        assert_ne!(p, q);
    }

    #[test]
    fn long_paths_past_the_schedule_are_refused() {
        // Components fill the schedule, and the one that would cross its
        // end is refused whatever it holds: no state exists past it.
        let key = HashKey::from_seed(14);
        let comp = vec![b'x'; 64]; // 16 words + separator per component
        let mut st = key.root_state();
        for _ in 0..SCHEDULE_LEN / 17 {
            st = key.extend(&st, &comp).unwrap();
        }
        // 2 040 words are used, 8 are left.
        assert_eq!(key.extend(&st, &comp), None);
        assert_eq!(key.extend(&st, &[b't'; 29]), None); // 8 words + separator
        assert!(key.extend(&st, &[b't'; 28]).is_some()); // 7 words + separator
    }

    /// A 252-byte component: 63 words plus its separator, 64 words.
    fn name(lead: u8, tag: &str) -> Vec<u8> {
        let mut n = vec![lead];
        n.extend_from_slice(tag.as_bytes());
        n.resize(252, b'x');
        n
    }

    /// The states of two 33-component paths of 252-byte names, as far as
    /// each extends: they differ by +1 in the first word of component 0
    /// (`A`→`B`) and, at word 2 048, in the first word of component 32
    /// (`B`→`C`). A schedule that wraps at word 2 048 with a salted word
    /// cancels the two differences in every lane under every key.
    fn the_pair(key: &HashKey) -> [Vec<Option<HashState>>; 2] {
        [(b'A', b'B'), (b'B', b'C')].map(|(first, last)| {
            let mut comps = vec![name(first, "00")];
            comps.extend((1..32).map(|i| name(b'm', &format!("{i:02}"))));
            comps.push(name(last, "32"));
            let mut st = Some(key.root_state());
            comps
                .iter()
                .map(|c| {
                    st = st.and_then(|s| key.extend(&s, c));
                    st
                })
                .collect()
        })
    }

    #[test]
    fn the_pair_that_collided_past_the_schedule_is_refused() {
        for seed in [1, 42, 0xdead_beef, 0x1234_5678_9abc] {
            let key = HashKey::from_seed(seed);
            let [a, b] = the_pair(&key);
            // Component 32 is refused for both paths.
            assert_eq!((a[32], b[32]), (None, None), "seed {seed:#x}");
            // Every state that exists is its own path's: no two of the
            // 64 signatures are equal.
            let sigs: std::collections::HashSet<_> = a
                .iter()
                .chain(&b)
                .flatten()
                .map(|s| key.finish(s))
                .collect();
            assert_eq!(sigs.len(), 64, "seed {seed:#x}");
            assert_eq!(a[31].unwrap().words_consumed() as usize, SCHEDULE_LEN);
        }
    }

    #[test]
    fn the_same_difference_within_the_schedule_is_seen() {
        // Control: +1 in the first word of component 0 and -1 in the
        // first word of component 16 (word 1 024), both within the
        // schedule, sign differently.
        for seed in [1, 42, 0xdead_beef, 0x1234_5678_9abc] {
            let key = HashKey::from_seed(seed);
            let path = |first: u8, mid: u8| {
                let mut comps = vec![name(first, "00")];
                comps.extend((1..16).map(|i| name(b'm', &format!("{i:02}"))));
                comps.push(name(mid, "16"));
                key.hash_components(comps.iter().map(Vec::as_slice))
            };
            assert_ne!(path(b'A', b'C'), path(b'B', b'B'), "seed {seed:#x}");
        }
    }

    #[test]
    fn a_state_ending_at_the_schedule_signs_and_one_more_word_is_refused() {
        let key = HashKey::from_seed(16);
        let mut st = key.root_state();
        for i in 0..32 {
            st = key.extend(&st, &name(b'd', &format!("{i:02}"))).unwrap();
        }
        assert_eq!(st.words_consumed() as usize, SCHEDULE_LEN);
        let full = key.finish(&st);
        assert_ne!(full, key.finish(&key.root_state()));
        assert_eq!(key.extend(&st, b"a"), None);
        // One word short of the end: a 1-word name is refused (it needs
        // two with its separator), and a state one word short signs.
        let mut short = key.root_state();
        for i in 0..31 {
            short = key.extend(&short, &name(b'd', &format!("{i:02}"))).unwrap();
        }
        let last = vec![b'z'; 248]; // 62 words + separator
        short = key.extend(&short, &last).unwrap();
        assert_eq!(short.words_consumed() as usize, SCHEDULE_LEN - 1);
        assert_eq!(key.extend(&short, b"a"), None);
    }

    #[test]
    fn no_collisions_on_small_corpus() {
        // Smoke test: hash a few thousand distinct synthetic paths and
        // require zero full-signature collisions.
        let key = HashKey::from_seed(15);
        let mut seen = std::collections::HashSet::new();
        for i in 0..40u32 {
            for j in 0..40u32 {
                for k in 0..4u32 {
                    let a = format!("d{i}");
                    let b = format!("e{j}");
                    let c = format!("f{k}");
                    let sig = key.hash_components([a.as_bytes(), b.as_bytes(), c.as_bytes()]);
                    assert!(seen.insert(sig), "collision at {a}/{b}/{c}");
                }
            }
        }
        assert_eq!(seen.len(), 40 * 40 * 4);
    }
}
