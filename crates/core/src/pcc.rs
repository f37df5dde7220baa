//! The Prefix Check Cache (§3.1).

use crate::dentry::DentryId;
use crate::dsync::{AtomicU32, AtomicU64, Ordering};
use crate::stats::Counter;
use dc_obs::{Recorder, TraceEvent};
use parking_lot::Mutex;

/// Associativity of each PCC set.
const WAYS: usize = 8;

/// Logical bytes per entry used for sizing: a dentry id and a sequence
/// number (the paper's entries are 16 bytes after pointer-bit compression;
/// ours store the full 64-bit never-reused id, which plays the role of
/// pointer + reallocation generation). The per-entry version word adds a
/// small constant overhead reported by [`Pcc::approx_bytes`].
const ENTRY_BYTES: usize = 16;

/// Sentinel id marking an empty entry.
const INVALID: u64 = 0;

struct Entry {
    /// Per-entry seqlock: odd = write in progress.
    ver: AtomicU32,
    id: AtomicU64,
    seq: AtomicU64,
}

impl Entry {
    /// Consistent snapshot of `(id, seq)`, or `None` if a writer is active.
    #[inline]
    fn read(&self) -> Option<(u64, u64)> {
        let v1 = self.ver.load(Ordering::Acquire);
        if v1 & 1 != 0 {
            return None;
        }
        let id = self.id.load(Ordering::Acquire);
        let seq = self.seq.load(Ordering::Acquire);
        let v2 = self.ver.load(Ordering::Acquire);
        (v1 == v2).then_some((id, seq))
    }

    /// Publishes `(id, seq)`; the caller holds the set's writer lock.
    #[inline]
    fn write(&self, id: u64, seq: u64) {
        self.ver.fetch_add(1, Ordering::AcqRel); // odd: writer active
        self.id.store(id, Ordering::Release);
        self.seq.store(seq, Ordering::Release);
        self.ver.fetch_add(1, Ordering::Release); // even: published
    }
}

struct Set {
    ways: [Entry; WAYS],
    /// Round-robin victim pointer (cheap LRU approximation).
    clock: AtomicU32,
    /// Serializes writers within the set; readers never take it.
    write_lock: Mutex<()>,
}

/// A per-credential cache of successful prefix checks.
///
/// An entry `(dentry_id, seq)` asserts: *at the moment the owning
/// credential last walked to this dentry from the root, it held search
/// permission on every ancestor directory, and the dentry's version
/// counter was `seq`.* The fastpath accepts the memoized result only if
/// the dentry's **current** counter still equals `seq`; any permission or
/// structure change along the path bumps the counter and thereby
/// invalidates every PCC entry for the subtree without touching the PCCs
/// themselves (§3.2).
///
/// The table is set-associative. Reads are lock-free (per-entry version
/// validation guarantees a consistent `(id, seq)` pair or a retry-as-miss);
/// writes serialize per set on a tiny mutex, which is off the lookup
/// critical path — exactly the paper's trade of penalizing infrequent
/// mutations to keep hits cheap.
///
/// Behind the table proper sits a second, an eighth its size, that holds
/// only the directories a revalidation climbed past
/// ([`check_dir`](Pcc::check_dir) / [`insert_dir`](Pcc::insert_dir)). One
/// directory's entry answers for every name below it, and there are far
/// fewer directories than names; kept apart, a working set of names that
/// overflows the table cannot evict them, and they cannot crowd a working
/// set that fits.
pub struct Pcc {
    /// The table's sets, then the directory table's.
    sets: Box<[Set]>,
    mask: u64,
    dir_mask: u64,
    /// Check outcomes, striped: threads sharing a credential share this
    /// PCC.
    hits: Counter,
    misses: Counter,
    /// Monotonic attach stamp maintained by the dcache's eviction policy
    /// (bumped only on the `pcc_for` slowpath, never on fastpath borrows).
    last_used: AtomicU64,
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
        let dir_nsets = (nsets / 8).max(1);
        let sets = (0..nsets + dir_nsets)
            .map(|_| Set {
                ways: std::array::from_fn(|_| Entry {
                    ver: AtomicU32::new(0),
                    id: AtomicU64::new(INVALID),
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
            dir_mask: (dir_nsets - 1) as u64,
            hits,
            misses,
            last_used: AtomicU64::new(0),
            obs,
        }
    }

    #[inline]
    fn set_of(&self, id: DentryId) -> &Set {
        // Fibonacci hashing spreads sequential ids across sets.
        let h = id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        &self.sets[(h & self.mask) as usize]
    }

    #[inline]
    fn dir_set_of(&self, id: DentryId) -> &Set {
        let h = id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        &self.sets[(self.mask + 1 + (h & self.dir_mask)) as usize]
    }

    /// Is a prefix check for `id` memoized at exactly version `cur_seq`?
    #[inline]
    pub fn check(&self, id: DentryId, cur_seq: u64) -> bool {
        self.check_in(self.set_of(id), id, cur_seq)
    }

    /// [`check`](Pcc::check) against the directory table.
    #[inline]
    pub fn check_dir(&self, id: DentryId, cur_seq: u64) -> bool {
        self.check_in(self.dir_set_of(id), id, cur_seq)
    }

    #[inline]
    fn check_in(&self, set: &Set, id: DentryId, cur_seq: u64) -> bool {
        debug_assert_ne!(id, INVALID);
        let mut stale = false;
        for e in &set.ways {
            if let Some((eid, eseq)) = e.read() {
                if eid == id {
                    if eseq == cur_seq {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        self.obs.event(|| TraceEvent::PccCheck {
                            hit: true,
                            stale: false,
                        });
                        return true;
                    }
                    // Stale version: a definitive miss for this dentry.
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

    /// Memoizes a successful prefix check for `id` at version `seq`.
    pub fn insert(&self, id: DentryId, seq: u64) {
        Self::insert_in(self.set_of(id), id, seq)
    }

    /// Memoizes a successful prefix check for a directory in the
    /// directory table.
    pub fn insert_dir(&self, id: DentryId, seq: u64) {
        Self::insert_in(self.dir_set_of(id), id, seq)
    }

    fn insert_in(set: &Set, id: DentryId, seq: u64) {
        debug_assert_ne!(id, INVALID);
        let _g = set.write_lock.lock();
        // Refresh in place if the dentry already has a way; otherwise use
        // an empty way; otherwise evict round-robin.
        let mut victim = None;
        for (i, e) in set.ways.iter().enumerate() {
            let eid = e.id.load(Ordering::Acquire);
            if eid == id {
                victim = Some(i);
                break;
            }
            if eid == INVALID && victim.is_none() {
                victim = Some(i);
            }
        }
        let victim =
            victim.unwrap_or_else(|| (set.clock.fetch_add(1, Ordering::Relaxed) as usize) % WAYS);
        set.ways[victim].write(id, seq);
    }

    /// Removes any memoized result for `id` (used when a directory
    /// reference loses access and must not be re-validated, §3.2).
    pub fn forget(&self, id: DentryId) {
        for set in [self.set_of(id), self.dir_set_of(id)] {
            let _g = set.write_lock.lock();
            for e in &set.ways {
                if e.id.load(Ordering::Acquire) == id {
                    e.write(INVALID, 0);
                }
            }
        }
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

    /// Total logical entries the table proper can hold.
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

    /// Records a use of this PCC at logical time `t` (a dcache-global
    /// attach tick). Called from the slowpath attach only so the
    /// lock-free check path stays store-free.
    #[inline]
    pub fn touch(&self, t: u64) {
        self.last_used.store(t, Ordering::Relaxed);
    }

    /// Logical time of the last [`touch`](Pcc::touch) — the LRU key the
    /// dcache's resident-PCC cap evicts by.
    pub fn last_used(&self) -> u64 {
        self.last_used.load(Ordering::Relaxed)
    }

    /// Logical bytes held by currently-published entries — the
    /// reclaimable share of this PCC under memory pressure (the table
    /// itself is fixed; flushing only empties the ways). O(capacity).
    pub fn occupied_bytes(&self) -> usize {
        self.occupancy() * ENTRY_BYTES
    }

    /// Number of currently-published entries (diagnostics; O(capacity)).
    pub fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .flat_map(|s| s.ways.iter())
            .filter(|e| e.id.load(Ordering::Relaxed) != INVALID)
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
        assert!(!pcc.check(43, 7), "unknown dentry must miss");
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
    fn forget_removes_entry() {
        let pcc = Pcc::new(4096);
        pcc.insert(5, 9);
        assert!(pcc.check(5, 9));
        pcc.forget(5);
        assert!(!pcc.check(5, 9));
    }

    #[test]
    fn directories_are_memoized_apart() {
        let pcc = Pcc::new(1024); // 8 sets × 8 ways, and 1 × 8 for directories
        pcc.insert_dir(7, 3);
        assert!(pcc.check_dir(7, 3));
        assert!(!pcc.check_dir(7, 4), "stale seq must miss");
        assert!(!pcc.check(7, 3), "the table proper never saw it");
        // Names churning through the table proper never evict it...
        for id in 100..1100u64 {
            pcc.insert(id, 0);
        }
        assert!(pcc.check_dir(7, 3));
        // ...and directories churning through theirs evict no name.
        let resident: Vec<u64> = (100..1100u64).filter(|&id| pcc.check(id, 0)).collect();
        for id in 2000..2100u64 {
            pcc.insert_dir(id, 0);
        }
        assert!(resident.iter().all(|&id| pcc.check(id, 0)));
        assert_eq!(pcc.capacity(), 64);
        // Both answer to `forget` and to the flush.
        pcc.insert(7, 3);
        pcc.insert_dir(7, 3);
        pcc.forget(7);
        assert!(!pcc.check(7, 3) && !pcc.check_dir(7, 3));
        pcc.insert_dir(8, 1);
        pcc.invalidate_all();
        assert!(!pcc.check_dir(8, 1));
        assert_eq!(pcc.occupancy(), 0);
    }

    #[test]
    fn capacity_matches_requested_bytes() {
        let pcc = Pcc::new(64 * 1024);
        assert_eq!(pcc.capacity(), 4096); // 64 KB / 16 B
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
