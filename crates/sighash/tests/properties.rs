//! Property tests for the path-signature hash (§3.3 requirements), on
//! `dc_fault::check`: a case is a component list (the script the driver
//! shrinks) plus whatever else the property draws.

use dc_fault::{check, SplitMix64};
use dc_sighash::{HashKey, Signature};
use std::ops::Range;

/// Cases per property in Tier-1; the `#[ignore]`d soak runs 100×.
const CASES: Range<u64> = 0..256;
const SOAK: Range<u64> = 256..25_600;

/// An arbitrary non-empty, slash-free byte string up to NAME_MAX-ish that
/// is neither `.` nor `..`.
fn component(rng: &mut SplitMix64) -> Vec<u8> {
    loop {
        let c: Vec<u8> = (0..1 + rng.below(63))
            .map(|_| rng.below(256) as u8)
            .filter(|&b| b != b'/')
            .collect();
        if !c.is_empty() && c != b"." && c != b".." {
            return c;
        }
    }
}

fn components(rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    (0..rng.below(12)).map(|_| component(rng)).collect()
}

/// A component list and a split point in `0..=12` (clamped by the user).
fn split_components(rng: &mut SplitMix64) -> (usize, Vec<Vec<u8>>) {
    let comps = components(rng);
    (rng.below(13) as usize, comps)
}

fn sig_of(key: &HashKey, comps: &[Vec<u8>]) -> Signature {
    key.hash_components(comps.iter().map(|c| c.as_slice()))
}

/// Resuming from any stored prefix state is equivalent to hashing the
/// whole path at once — the property that makes relative lookups
/// resumable from cwd dentries (§3.1).
fn resume_from_any_prefix_matches_whole(cases: Range<u64>) {
    check(cases, split_components, |&split, comps| {
        let key = HashKey::from_seed(0x5eed);
        let split = split.min(comps.len());
        let mut whole = key.root_state();
        for c in comps {
            key.push_component(&mut whole, c);
        }
        let mut prefix = key.root_state();
        for c in &comps[..split] {
            key.push_component(&mut prefix, c);
        }
        let stored = prefix; // Copy, as a dentry would hold it
        let mut resumed = stored;
        for c in &comps[split..] {
            key.push_component(&mut resumed, c);
        }
        assert_eq!(key.finish(&whole), key.finish(&resumed));
        // And the intermediate state itself is identical.
        assert_eq!(whole, resumed);
    });
}

/// Distinct component sequences essentially never collide (240-bit
/// signatures; a generated collision would be astronomical).
fn distinct_paths_get_distinct_signatures(cases: Range<u64>) {
    check(
        cases,
        |rng| (components(rng), components(rng)),
        |b, a| {
            if a != b.as_slice() {
                let key = HashKey::from_seed(0x5eed);
                assert_ne!(sig_of(&key, a), sig_of(&key, b));
            }
        },
    );
}

/// Signatures are deterministic per key and disagree across keys.
fn keyed_determinism(cases: Range<u64>) {
    check(
        cases,
        |rng| ((), components(rng)),
        |_, comps| {
            if comps.is_empty() {
                return;
            }
            let s1 = sig_of(&HashKey::from_seed(1), comps);
            assert_eq!(s1, sig_of(&HashKey::from_seed(1), comps));
            assert_ne!(s1, sig_of(&HashKey::from_seed(2), comps));
        },
    );
}

/// The 240 compared bits round-trip through storage, and the bucket
/// index stays in range for every table size used.
fn sig240_round_trip_and_index_range(cases: Range<u64>) {
    check(
        cases,
        |rng| ((), components(rng)),
        |_, comps| {
            let sig = sig_of(&HashKey::from_seed(3), comps);
            assert_eq!(Signature::from_sig240(sig.sig240()), sig);
            for shift in [4usize, 8, 12, 16] {
                assert!(sig.bucket_index_for(1 << shift) < (1 << shift));
            }
        },
    );
}

/// The wide 8-bytes-per-step mixing path is bit-identical to the
/// byte-at-a-time oracle over arbitrary component streams, including
/// resume-from-a-stored-prefix splits where the prefix and suffix
/// were mixed by different paths.
fn wide_equals_oracle_with_arbitrary_splits(cases: Range<u64>) {
    check(cases, split_components, |&split, comps| {
        let key = HashKey::from_seed(0xfa57);
        let split = split.min(comps.len());
        let mut oracle = key.root_state();
        for c in comps {
            key.push_component_oracle(&mut oracle, c);
        }
        // Wide prefix, oracle suffix.
        let mut mixed = key.root_state();
        for c in &comps[..split] {
            key.push_component(&mut mixed, c);
        }
        let stored = mixed; // as a dentry would hold it
        let mut resumed = stored;
        for c in &comps[split..] {
            key.push_component_oracle(&mut resumed, c);
        }
        assert_eq!(oracle, resumed);
        // All-wide must agree too.
        let mut wide = key.root_state();
        for c in comps {
            key.push_component(&mut wide, c);
        }
        assert_eq!(oracle, wide);
        assert_eq!(key.finish(&oracle), key.finish(&wide));
    });
}

/// Concatenation boundaries are unambiguous: moving a byte between
/// adjacent components changes the signature.
fn component_boundaries_are_injective(cases: Range<u64>) {
    check(
        cases,
        |rng| ((component(rng), component(rng)), Vec::<()>::new()),
        |(a, b), _| {
            let key = HashKey::from_seed(4);
            // Move the last byte of `a` to the front of `b`.
            let Some((&moved, a_rest)) = a.split_last().filter(|(_, rest)| !rest.is_empty()) else {
                return;
            };
            let b2 = [&[moved], b.as_slice()].concat();
            assert_ne!(
                key.hash_components([a.as_slice(), b.as_slice()]),
                key.hash_components([a_rest, b2.as_slice()])
            );
        },
    );
}

/// One Tier-1 `#[test]` per property, and one soak over all of them.
macro_rules! properties {
    ($($test:ident = $property:ident;)*) => {
        $(#[test]
        fn $test() {
            $property(CASES);
        })*

        #[test]
        #[ignore = "soak: 100x the Tier-1 cases, for the nightly lane"]
        fn soak() {
            $($property(SOAK);)*
        }
    };
}

properties! {
    resume_matches_whole = resume_from_any_prefix_matches_whole;
    distinct_paths_differ = distinct_paths_get_distinct_signatures;
    keys_determine_signatures = keyed_determinism;
    sig240_round_trips = sig240_round_trip_and_index_range;
    wide_equals_oracle = wide_equals_oracle_with_arbitrary_splits;
    boundaries_are_injective = component_boundaries_are_injective;
}
