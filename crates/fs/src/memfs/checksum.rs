//! The one checksum of the on-disk format: journal headers and commit
//! records, and the warm-restart index's headers and payload.
//!
//! A block image is read a 64-bit word at a time into four lanes, so the
//! four multiplies of a 32-byte stride are independent of each other and
//! a 4 KiB image costs a few hundred cycles, not one dependent multiply
//! per byte. It guards against torn and rotted blocks, not against an
//! adversary.

const SEED: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
];

/// One odd multiplier per lane.
const MUL: [u64; 4] = [
    0xFF51_AFD7_ED55_8CCD,
    0xC4CE_B9FE_1A85_EC53,
    0x8CB9_2BA7_2F3D_8DD7,
    0xD6E8_FEB8_6659_FD93,
];

/// Folds `word` into `lane`. For a fixed word this is a bijection of the
/// lane (xor, odd multiply and rotate each are), and for a fixed lane a
/// bijection of the word — the two facts [`sum64`]'s guarantee rests on.
#[inline(always)]
fn step(lane: u64, word: u64, mul: u64) -> u64 {
    (lane ^ word).wrapping_mul(mul).rotate_left(29)
}

fn word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// Checksum of `parts`, each taken as its own byte string: its words go
/// round-robin to the four lanes, a tail shorter than a word is
/// zero-padded into one more, and its length closes it (so neither a
/// zero-extended part nor the same bytes cut at another boundary sums the
/// same). The lanes are folded and avalanched at the end.
///
/// Two inputs with equal part lengths that differ inside a single
/// aligned word (one flipped bit, one rotted byte) never collide: the
/// differing word enters one `step`, whose result differs; every later
/// step of that lane, the fold and the avalanche are bijections of what
/// they are handed, and the other lanes are equal.
pub(crate) fn sum64(parts: &[&[u8]]) -> u64 {
    let mut l = SEED;
    for part in parts {
        let mut strides = part.chunks_exact(32);
        for s in &mut strides {
            for i in 0..4 {
                l[i] = step(l[i], word(&s[8 * i..8 * i + 8]), MUL[i]);
            }
        }
        // At most three whole words and one short one remain.
        for (i, w) in strides.remainder().chunks(8).enumerate() {
            l[i] = step(l[i], word(w), MUL[i]);
        }
        l[3] = step(l[3], part.len() as u64, MUL[3]);
    }
    let mut h = l[1..].iter().fold(l[0], |h, &lane| step(h, lane, MUL[0]));
    h ^= h >> 32;
    h = h.wrapping_mul(MUL[1]);
    h ^ (h >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn image(seed: u64) -> Vec<u8> {
        let mut s = seed;
        (0..512)
            .flat_map(|_| splitmix(&mut s).to_le_bytes())
            .collect()
    }

    #[test]
    fn one_changed_word_or_byte_always_changes_the_sum() {
        for seed in 0..8u64 {
            let base = image(seed);
            // A block of zeroes and a block of ones are what a fresh
            // bitmap and a full one look like; cover them too.
            for base in [base, vec![0u8; 4096], vec![0xff; 4096]] {
                let want = sum64(&[&base]);
                let mut s = seed ^ 0xABCD;
                for pos in 0..512 {
                    let mut img = base.clone();
                    let delta = splitmix(&mut s) | 1;
                    let at = pos * 8;
                    let w = u64::from_le_bytes(img[at..at + 8].try_into().unwrap());
                    img[at..at + 8].copy_from_slice(&(w ^ delta).to_le_bytes());
                    assert_ne!(sum64(&[&img]), want, "word {pos}, delta {delta:#x}");
                    // And one byte of that word, by every single bit.
                    for bit in 0..8 {
                        let mut img = base.clone();
                        img[at + pos % 8] ^= 1 << bit;
                        assert_ne!(sum64(&[&img]), want, "byte {}, bit {bit}", at + pos % 8);
                    }
                }
            }
        }
    }

    #[test]
    fn one_changed_word_is_caught_in_any_part_of_a_commit() {
        // The shape the journal sums: a descriptor prefix, then images.
        let desc = image(1)[..44].to_vec();
        let (a, b) = (image(2), image(3));
        let want = sum64(&[&desc, &a, &b]);
        for at in 0..desc.len() {
            let mut d = desc.clone();
            d[at] ^= 0x40;
            assert_ne!(sum64(&[&d, &a, &b]), want, "descriptor byte {at}");
        }
        for pos in 0..512 {
            let mut img = b.clone();
            img[pos * 8 + 3] ^= 0x01;
            assert_ne!(sum64(&[&desc, &a, &img]), want, "second image, word {pos}");
        }
    }

    #[test]
    fn swapped_words_change_the_sum() {
        let base = image(4);
        let want = sum64(&[&base]);
        let swapped = |i: usize, j: usize| {
            let mut img = base.clone();
            for k in 0..8 {
                img.swap(i * 8 + k, j * 8 + k);
            }
            sum64(&[&img])
        };
        for i in 0..508 {
            assert_ne!(
                swapped(i, i + 4),
                want,
                "same lane: words {i} and {}",
                i + 4
            );
            assert_ne!(
                swapped(i, i + 1),
                want,
                "two lanes: words {i} and {}",
                i + 1
            );
        }
        assert_ne!(swapped(0, 508), want);
        assert_ne!(swapped(2, 511), want);
    }

    #[test]
    fn length_and_part_boundaries_are_part_of_the_sum() {
        let base = image(5);
        let want = sum64(&[&base]);
        // Truncated, at every length down to nothing.
        for len in 0..base.len() {
            assert_ne!(sum64(&[&base[..len]]), want, "cut to {len}");
        }
        // Zero-extended: the padding a short tail word gets must not
        // make "abc" and "abc\0" the same string.
        for len in [0usize, 1, 3, 7, 8, 9, 31, 32, 33, 100] {
            let short = &base[..len];
            let mut longer = short.to_vec();
            for _ in 0..9 {
                longer.push(0);
                assert_ne!(sum64(&[&longer]), sum64(&[short]), "{len} + zeroes");
            }
        }
        // The same bytes, cut into parts at different places.
        let mut seen = vec![want];
        for cut in [0usize, 1, 8, 20, 32, 2048, 4095, 4096] {
            let s = sum64(&[&base[..cut], &base[cut..]]);
            assert!(!seen.contains(&s), "boundary at {cut} collides");
            seen.push(s);
        }
        assert_ne!(sum64(&[]), sum64(&[&[]]));
    }

    #[test]
    fn the_sum_is_pinned() {
        // The on-disk format: a change here needs a superblock MAGIC bump.
        assert_eq!(sum64(&[]), 0x5616_40a9_bd1c_54bf);
        assert_eq!(sum64(&[b"memfs", &[0u8; 4096]]), 0x1401_f0de_d56c_8278);
    }
}
