//! Keyed, resumable path-signature hashing for the direct-lookup fast path.
//!
//! This crate implements the signature scheme of §3.3 of *How to Get More
//! Value From Your File System Directory Cache* (SOSP '15):
//!
//! - A **2-universal multilinear hash** (after Lemire & Kaser, "Strongly
//!   universal string hashing is fast") over the canonicalized path,
//!   producing 256 bits from four independent 64-bit lanes.
//! - The hash is **keyed with boot-time randomness**, so signatures are not
//!   predictable across kernel instances and offline collision search is
//!   impossible.
//! - The low 16 bits index the direct-lookup hash table (DLHT) and the
//!   remaining **240 bits are the signature** compared in place of the full
//!   path string. Index bits and signature bits are taken from independent
//!   lanes, so observing bucket residency leaks nothing about the compared
//!   signature (the paper's side-channel caveat).
//! - Hashing is **resumable from any prefix**: the intermediate
//!   [`HashState`] is small and `Copy`, and is stored in each dentry so a
//!   relative lookup can resume from the current working directory without
//!   re-hashing its absolute path.
//! - A signature stands for **one path within the key schedule**: every
//!   word position has keys of its own, and a component that would run
//!   past [`SCHEDULE_LEN`] words is refused ([`HashKey::extend`] returns
//!   `None`), so no state and no signature exists past it.
//!
//! # Examples
//!
//! ```
//! use dc_sighash::HashKey;
//!
//! let key = HashKey::from_seed(42);
//! let usr = key.extend(&key.root_state(), b"usr").unwrap(); // stored in `usr`'s dentry
//! let include = key.extend(&usr, b"include").unwrap();
//!
//! // Resuming from a stored prefix state is equivalent to hashing the
//! // whole path at once.
//! let sig = key.hash_components([b"usr".as_slice(), b"include"]);
//! assert_eq!(sig, key.finish(&include));
//!
//! // Nothing past the key schedule (2 048 words) is signed.
//! let long = [b'x'; 252]; // 64 words with its separator
//! let st = (0..33).try_fold(key.root_state(), |s, _| key.extend(&s, &long));
//! assert_eq!(st, None);
//! ```

mod key;
mod multilinear;
mod signature;
mod state;

pub use key::HashKey;
pub use signature::Signature;
pub use state::HashState;

/// Number of independent 64-bit hash lanes (4 × 64 = 256 bits of output).
pub const LANES: usize = 4;

/// Length of the key schedule: one key per lane for each of the first
/// `SCHEDULE_LEN` 32-bit words of a path (about 8 KB of components).
/// `PATH_MAX` does not bound a cwd-relative or `*at` lookup's path, so
/// longer ones exist; nothing past the schedule is signed
/// ([`HashKey::extend`] refuses), and their lookups walk.
pub const SCHEDULE_LEN: usize = 2048;

/// Bits of the output used to index the DLHT (the paper uses 16).
pub const INDEX_BITS: u32 = 16;

/// Bits of the output compared as the path signature (the paper uses 240).
pub const SIGNATURE_BITS: u32 = 240;
