//! The Prefix Check Cache (§3.1).

use crate::dsync::{AtomicU32, AtomicU64, Ordering};
use crate::seqlock::SeqCount;
use crate::stats::Counter;
use dc_obs::{Recorder, TraceEvent};
use parking_lot::Mutex;
use std::sync::atomic::AtomicBool;

/// Associativity of each PCC set.
const WAYS: usize = 8;

/// Logical bytes per entry used for sizing: a key and a sequence number
/// (the paper's entries are 16 bytes after pointer-bit compression; ours
/// store the directory's never-reused 64-bit id, which plays the role of
/// pointer + reallocation generation).
/// The per-entry version word adds a small constant overhead reported by
/// [`Pcc::approx_bytes`].
const ENTRY_BYTES: usize = 16;

/// Sentinel key marking an empty entry.
const INVALID: u64 = 0;

struct Entry {
    ver: SeqCount,
    key: AtomicU64,
    seq: AtomicU64,
}

impl Entry {
    /// Consistent snapshot of `(key, seq)`, or `None` if a writer is
    /// active.
    #[inline]
    fn read(&self) -> Option<(u64, u64)> {
        let start = self.ver.try_read_begin()?;
        let key = self.key.load(Ordering::Relaxed);
        let seq = self.seq.load(Ordering::Relaxed);
        (!self.ver.read_retry(start)).then_some((key, seq))
    }

    /// Publishes `(key, seq)`; the caller holds the set's writer lock.
    #[inline]
    fn write(&self, key: u64, seq: u64) {
        self.ver.write_begin();
        self.key.store(key, Ordering::Relaxed);
        self.seq.store(seq, Ordering::Relaxed);
        self.ver.write_end();
    }
}

struct Set {
    ways: [Entry; WAYS],
    /// Round-robin victim pointer (cheap LRU approximation).
    clock: AtomicU32,
    /// Serializes writers within the set; readers never take it.
    write_lock: Mutex<()>,
}

/// A per-credential cache of successful prefix checks, keyed by directory.
///
/// An entry `(key, seq)`, `key` the id of directory `D`, asserts: *every
/// check a lookup makes before it examines `D`'s children, along the path
/// `D` is signed with, passed for the owning credential while `D`'s
/// version counter was `seq`.* While the counter holds one value `D`
/// holds one path ([`Dentry::sign`](crate::Dentry::sign)). The entry
/// answers for every name in `D`, and only while `D`'s counter still
/// equals `seq`: any permission or structure change above `D`, and any
/// re-signing of `D`, bumps it, invalidating the entry in every PCC
/// without touching them (§3.2).
///
/// The table is set-associative. Reads are lock-free (per-entry version
/// validation guarantees a consistent `(key, seq)` pair or a
/// retry-as-miss); writes serialize per set on a tiny mutex, which is off
/// the lookup critical path — exactly the paper's trade of penalizing
/// infrequent mutations to keep hits cheap.
pub struct Pcc {
    sets: Box<[Set]>,
    mask: u64,
    /// Check outcomes, striped: threads sharing a credential share this
    /// PCC.
    hits: Counter,
    misses: Counter,
    /// The resident cap's second-chance bit: set by an attach on the
    /// `pcc_for` slowpath (never by a fastpath borrow), cleared when the
    /// cap's sweep passes this PCC over (DESIGN.md §14.3).
    referenced: AtomicBool,
    obs: Recorder,
}

impl Pcc {
    /// A PCC of roughly `bytes` logical capacity (the paper uses 64 KB).
    pub fn new(bytes: usize) -> Pcc {
        Pcc::new_with_obs(bytes, Recorder::disabled())
    }

    /// A PCC that additionally reports each check to `obs` as a
    /// `PccCheck { hit, stale }` span.
    pub fn new_with_obs(bytes: usize, obs: Recorder) -> Pcc {
        let entries = (bytes / ENTRY_BYTES).max(WAYS);
        let nsets = (entries / WAYS).next_power_of_two();
        let sets = (0..nsets)
            .map(|_| Set {
                ways: std::array::from_fn(|_| Entry {
                    ver: SeqCount::new(),
                    key: AtomicU64::new(INVALID),
                    seq: AtomicU64::new(0),
                }),
                clock: AtomicU32::new(0),
                write_lock: Mutex::new(()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let [hits, misses] = Counter::group();
        Pcc {
            sets,
            mask: (nsets - 1) as u64,
            hits,
            misses,
            referenced: AtomicBool::new(false),
            obs,
        }
    }

    #[inline]
    fn set_of(&self, key: u64) -> &Set {
        // Fibonacci hashing spreads sequential keys across sets.
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        &self.sets[(h & self.mask) as usize]
    }

    /// Is a prefix check under `key` memoized at exactly version
    /// `cur_seq`?
    #[inline]
    pub fn check(&self, key: u64, cur_seq: u64) -> bool {
        let mut stale = false;
        for e in &self.set_of(key).ways {
            if let Some((ekey, eseq)) = e.read() {
                if ekey == key {
                    if eseq == cur_seq {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        self.obs.event(|| TraceEvent::PccCheck {
                            hit: true,
                            stale: false,
                        });
                        return true;
                    }
                    // Stale version: a definitive miss for this key.
                    stale = true;
                    break;
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.obs
            .event(|| TraceEvent::PccCheck { hit: false, stale });
        false
    }

    /// Memoizes a successful prefix check under `key` at version `seq`.
    pub fn insert(&self, key: u64, seq: u64) {
        let set = self.set_of(key);
        let _g = set.write_lock.lock();
        // Refresh in place if the key already has a way; otherwise use
        // an empty way; otherwise evict round-robin.
        let mut victim = None;
        for (i, e) in set.ways.iter().enumerate() {
            let ekey = e.key.load(Ordering::Acquire);
            if ekey == key {
                victim = Some(i);
                break;
            }
            if ekey == INVALID && victim.is_none() {
                victim = Some(i);
            }
        }
        let victim =
            victim.unwrap_or_else(|| (set.clock.fetch_add(1, Ordering::Relaxed) as usize) % WAYS);
        set.ways[victim].write(key, seq);
    }

    /// Drops every memoized result (the paper's wraparound flush).
    pub fn invalidate_all(&self) {
        for set in self.sets.iter() {
            let _g = set.write_lock.lock();
            for e in &set.ways {
                e.write(INVALID, 0);
            }
        }
    }

    /// Total logical entries the table can hold.
    pub fn capacity(&self) -> usize {
        (self.mask as usize + 1) * WAYS
    }

    /// Memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.sets.len() * std::mem::size_of::<Set>()
    }

    /// `(hits, misses)` counters.
    pub fn hit_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Resets the hit/miss counters.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Marks this PCC referenced. A plain store, and only when the bit
    /// is clear: the slow walks that re-attach a hot PCC read a shared
    /// line and write none.
    #[inline]
    pub(crate) fn reference(&self) {
        if !self.referenced.load(Ordering::Relaxed) {
            self.referenced.store(true, Ordering::Relaxed);
        }
    }

    /// Clears the referenced bit; returns whether it was set.
    pub(crate) fn clear_reference(&self) -> bool {
        self.referenced.swap(false, Ordering::Relaxed)
    }

    /// Logical bytes held by currently-published entries (the
    /// per-tenant reports). The table itself is fixed, so flushing frees
    /// none of them. O(capacity).
    pub fn occupied_bytes(&self) -> usize {
        self.occupancy() * ENTRY_BYTES
    }

    /// Number of currently-published entries (diagnostics; O(capacity)).
    pub fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .flat_map(|s| s.ways.iter())
            .filter(|e| e.key.load(Ordering::Relaxed) != INVALID)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_check_hits_on_matching_seq() {
        let pcc = Pcc::new(64 * 1024);
        pcc.insert(42, 7);
        assert!(pcc.check(42, 7));
        assert!(!pcc.check(42, 8), "stale seq must miss");
        assert!(!pcc.check(43, 7), "unknown key must miss");
    }

    #[test]
    fn refresh_updates_seq_in_place() {
        let pcc = Pcc::new(64 * 1024);
        pcc.insert(42, 1);
        pcc.insert(42, 2);
        assert!(!pcc.check(42, 1));
        assert!(pcc.check(42, 2));
        // In-place refresh should not consume extra ways.
        assert_eq!(pcc.occupancy(), 1);
    }

    #[test]
    fn capacity_matches_requested_bytes() {
        let pcc = Pcc::new(64 * 1024);
        assert_eq!(pcc.capacity(), 4096); // 64 KB / 16 B
        assert_eq!(std::mem::size_of::<Entry>(), 24, "id, seq, version");
        let small = Pcc::new(1024);
        assert_eq!(small.capacity(), 64);
    }

    #[test]
    fn eviction_within_a_set_is_bounded() {
        let pcc = Pcc::new(1024); // 8 sets × 8 ways
        for id in 1..=1000u64 {
            pcc.insert(id, 0);
        }
        assert!(pcc.occupancy() <= pcc.capacity());
        let resident = (990..=1000u64).filter(|&id| pcc.check(id, 0)).count();
        assert!(resident >= 5, "only {resident} of the last ids resident");
    }

    #[test]
    fn invalidate_all_flushes() {
        let pcc = Pcc::new(4096);
        for id in 1..100u64 {
            pcc.insert(id, 3);
        }
        pcc.invalidate_all();
        assert_eq!(pcc.occupancy(), 0);
        assert!(!pcc.check(50, 3));
    }

    #[test]
    fn concurrent_check_insert_never_validates_wrong_pair() {
        use std::sync::Arc;
        let pcc = Arc::new(Pcc::new(1024));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Writer: republishes id=7 only ever with seq=100, interleaved
        // with churn on other ids (including seq=99 values) that recycle
        // the same ways.
        let w = {
            let pcc = pcc.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    pcc.insert(7, 100);
                    pcc.insert(8 + (i % 64), 99);
                    i += 1;
                }
            })
        };
        // Reader: (7, 99) was never inserted and must never validate.
        for _ in 0..200_000 {
            assert!(
                !pcc.check(7, 99),
                "validated a (id, seq) pair that was never inserted"
            );
        }
        stop.store(true, Ordering::Relaxed);
        w.join().unwrap();
        // The writer's last churn insert may have evicted id 7 from its
        // set: publish it once more before looking for it.
        pcc.insert(7, 100);
        assert!(pcc.check(7, 100));
    }
}
