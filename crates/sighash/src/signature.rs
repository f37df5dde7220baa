//! The 256-bit output: 16 index bits + 240 signature bits.

use crate::INDEX_BITS;

/// A finalized 256-bit path signature.
///
/// Following §3.3 of the paper, the low [`INDEX_BITS`] bits of lane 0 index
/// the direct-lookup hash table, and the remaining [`crate::SIGNATURE_BITS`] bits
/// are the value compared against stored dentries in place of a full path
/// string comparison. The index bits and the compared bits do not overlap,
/// so bucket residency reveals nothing about the compared signature.
///
/// `PartialEq`/`Hash` operate on the *signature* bits only (two signatures
/// that differ only in index bits compare equal — such values cannot be
/// produced by the hash itself, which always emits all 256 bits, but the
/// distinction matters for [`Signature::sig240`] round-trips).
#[derive(Clone, Copy, Debug)]
pub struct Signature {
    lanes: [u64; 4],
}

impl Signature {
    pub(crate) fn from_lanes(lanes: [u64; 4]) -> Self {
        Signature { lanes }
    }

    /// Reconstructs a signature from its compared 240 bits (index bits zero).
    ///
    /// Used by storage that persists only the compared bits.
    pub fn from_sig240(sig: [u64; 4]) -> Self {
        let mut lanes = sig;
        lanes[0] &= !Self::index_mask();
        Signature { lanes }
    }

    #[inline]
    fn index_mask() -> u64 {
        (1u64 << INDEX_BITS) - 1
    }

    /// The DLHT bucket index: the low 16 bits.
    #[inline]
    pub fn bucket_index(&self) -> u32 {
        (self.lanes[0] & Self::index_mask()) as u32
    }

    /// A bucket index reduced to a table with `buckets` slots
    /// (`buckets` must be a power of two no larger than 2^16).
    #[inline]
    pub fn bucket_index_for(&self, buckets: usize) -> usize {
        debug_assert!(buckets.is_power_of_two());
        debug_assert!(buckets <= 1 << INDEX_BITS);
        (self.bucket_index() as usize) & (buckets - 1)
    }

    /// The 240 compared bits, with the index bits masked to zero.
    #[inline]
    pub fn sig240(&self) -> [u64; 4] {
        let mut s = self.lanes;
        s[0] &= !Self::index_mask();
        s
    }

    /// All 256 bits — the compared 240 plus the table-index bits — for
    /// transport. Unlike [`sig240`](Signature::sig240), this preserves
    /// the index bits, so a signature reconstructed with
    /// [`from_wire`](Signature::from_wire) probes the same DLHT bucket
    /// as the original.
    #[inline]
    pub fn to_wire(&self) -> [u64; 4] {
        self.lanes
    }

    /// Reconstructs a signature from [`to_wire`](Signature::to_wire)
    /// output (exact round-trip, index bits included).
    #[inline]
    pub fn from_wire(lanes: [u64; 4]) -> Self {
        Signature { lanes }
    }
}

impl PartialEq for Signature {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.sig240() == other.sig240()
    }
}

impl Eq for Signature {}

impl std::hash::Hash for Signature {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.sig240().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HashKey;

    #[test]
    fn index_within_range() {
        let key = HashKey::from_seed(5);
        let sig = key.hash_components([b"etc".as_slice(), b"passwd".as_slice()]);
        assert!(sig.bucket_index() < (1 << INDEX_BITS));
        assert!(sig.bucket_index_for(1024) < 1024);
    }

    #[test]
    fn sig240_masks_index_bits() {
        let key = HashKey::from_seed(5);
        let sig = key.hash_components([b"a".as_slice()]);
        let s = sig.sig240();
        assert_eq!(s[0] & ((1 << INDEX_BITS) - 1), 0);
    }

    #[test]
    fn from_sig240_round_trips_equality() {
        let key = HashKey::from_seed(5);
        let sig = key.hash_components([b"x".as_slice(), b"y".as_slice()]);
        let rebuilt = Signature::from_sig240(sig.sig240());
        assert_eq!(sig, rebuilt);
    }

    #[test]
    fn equality_ignores_index_bits() {
        let key = HashKey::from_seed(6);
        let sig = key.hash_components([b"q".as_slice()]);
        let mut lanes = sig.sig240();
        lanes[0] |= 0x3; // perturb index bits only
        let other = Signature::from_lanes(lanes);
        assert_eq!(sig, other);
        // But bucket indices may differ — that's the caller's concern.
    }

    #[test]
    fn hashable_in_std_collections() {
        let key = HashKey::from_seed(7);
        let mut set = std::collections::HashSet::new();
        set.insert(key.hash_components([b"m".as_slice()]));
        assert!(set.contains(&key.hash_components([b"m".as_slice()])));
        assert!(!set.contains(&key.hash_components([b"n".as_slice()])));
    }
}
