//! Resumable intermediate hash state.

use crate::LANES;

/// Intermediate state of the path hash after some prefix of components.
///
/// The paper stores this in every dentry ("we store the intermediate state
/// of the hash function in each dentry so that hashing can resume from any
/// prefix", §3.1), which is what makes relative-path fastpath lookups cheap:
/// a lookup of `foo/bar` under `/home/alice` resumes from the state stored
/// in `/home/alice`'s dentry instead of re-hashing the working directory's
/// absolute path.
///
/// The state is 40 bytes and `Copy`; equality compares the exact
/// accumulator values. Only [`HashKey`](crate::HashKey) makes one, and
/// never past the key schedule: `words_consumed() ≤ SCHEDULE_LEN`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HashState {
    /// Per-lane accumulators.
    pub(crate) acc: [u64; LANES],
    /// Stream position in 32-bit words (shared by all lanes), at most
    /// [`SCHEDULE_LEN`](crate::SCHEDULE_LEN).
    pub(crate) pos: u32,
}

impl HashState {
    pub(crate) fn new(init: [u64; LANES]) -> Self {
        HashState { acc: init, pos: 0 }
    }

    /// Number of 32-bit words consumed so far; the root state is at 0.
    pub fn words_consumed(&self) -> u32 {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HashKey;

    #[test]
    fn push_advances_words() {
        let key = HashKey::from_seed(1);
        let mut st = key.root_state();
        key.push_component(&mut st, b"abcdefgh"); // 2 words + separator
        assert_eq!(st.words_consumed(), 3);
    }

    #[test]
    fn state_is_copy_and_small() {
        // The state must stay small enough to embed in every dentry.
        assert!(std::mem::size_of::<HashState>() <= 40);
        let key = HashKey::from_seed(1);
        let mut a = key.root_state();
        key.push_component(&mut a, b"x");
        let b = a; // Copy
        assert_eq!(a, b);
    }
}
