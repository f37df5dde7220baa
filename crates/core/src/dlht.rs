//! The Direct Lookup Hash Table (§3.1, §3.3) — lock-free read side.
//!
//! Each bucket head is an atomic pointer to a chain of immutable,
//! cache-line-sized [`Node`]s, one per entry: the full 240-bit
//! signature, the weak dentry reference and the `next` link share one
//! 64-byte line. A warm hit on a bucket's first entry reads the head
//! and that line; an entry costs one line whatever else its bucket
//! holds (DESIGN.md §13.2).
//!
//! `lookup` pins the epoch and traverses without any lock — the
//! RCU-analog probe the paper's flat Figure 8 read scaling depends on.
//! Mutators rebuild the affected bucket's chain as fresh allocations,
//! publish with one CAS on the bucket head, and retire the replaced
//! nodes through the epoch collector (`defer_destroy`); a failed CAS
//! frees the speculative copy and retries against the new head.
//! Published nodes are never mutated, and ABA is impossible while
//! pinned: a retired node's address cannot be reused until every guard
//! that could have observed it unpins. The linearization point of every
//! mutation is the single bucket-head CAS, which is what the
//! `crates/dst` linearizability models check.

use crate::dentry::Dentry;
use crate::dsync::{AtomicU64, Ordering};
use crate::stats::Counter;
use crossbeam_epoch::{self as epoch, Atomic, Owned, Shared};
use std::sync::{Arc, Weak};

/// One immutable entry: the four signature lanes, the weak dentry ref
/// and the chain link, in one cache line. Published nodes are never
/// mutated; `next` is atomic only for assembly and traversal under the
/// epoch API.
#[repr(C, align(64))]
struct Node {
    sig: [u64; 4],
    dentry: Weak<Dentry>,
    next: Atomic<Node>,
}

// The layout contract the cache-line argument rests on (DESIGN.md §13).
const _: () = {
    assert!(std::mem::size_of::<Node>() == 64);
    assert!(std::mem::align_of::<Node>() == 64);
};

/// Bytes of one entry node: a table's entries cost [`Dlht::len`] of
/// these, which is how [`crate::Dcache::reclaimable_bytes`] counts them.
pub(crate) const NODE_BYTES: usize = std::mem::size_of::<Node>();

type Item = ([u64; 4], Weak<Dentry>);

/// Exact table sizes for space-overhead reporting (`repro space`).
/// Every count is produced by walking the live structure under an epoch
/// guard — never estimated from counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DlhtFootprint {
    /// Bucket heads allocated.
    pub buckets: usize,
    /// Bytes per bucket head (one atomic pointer).
    pub bucket_bytes: usize,
    /// Live entries, one node each (walked).
    pub entries: u64,
    /// Bytes per entry node.
    pub entry_bytes: usize,
}

impl DlhtFootprint {
    /// Total bytes of the table.
    pub fn total_bytes(&self) -> usize {
        self.buckets * self.bucket_bytes + self.reclaimable_bytes() as usize
    }

    /// Bytes a shrink could reclaim: everything except the fixed bucket
    /// array.
    pub fn reclaimable_bytes(&self) -> u64 {
        self.entries * self.entry_bytes as u64
    }
}

/// A system-wide (per mount namespace) hash table mapping full-path
/// signatures directly to dentries.
///
/// - Indexed by the low 16 signature bits; nodes compare the
///   remaining 240 bits instead of path strings (§3.3).
/// - Lazily populated by slowpath walks; entries are weak, and coherence
///   shootdowns precede any structural change (§3.2).
/// - A dentry lives in at most **one** DLHT under **one** signature at a
///   time — the rule that makes mount aliases and namespaces tractable
///   (§4.3). The membership record lives in the dentry and is maintained
///   by [`crate::Dcache`], which owns the insert/remove protocol; this
///   type only provides the raw buckets.
pub struct Dlht {
    /// Namespace id this table serves (diagnostics).
    ns: u64,
    buckets: Box<[Atomic<Node>]>,
    mask: usize,
    entries: AtomicU64,
    /// Probe outcomes, striped: every reader of the namespace bumps one.
    hits: Counter,
    misses: Counter,
}

impl Dlht {
    /// A table with `buckets` heads (power of two ≤ 2^16).
    pub fn new(ns: u64, buckets: usize) -> Arc<Dlht> {
        assert!(buckets.is_power_of_two() && buckets <= (1 << 16));
        let [hits, misses] = Counter::group();
        Arc::new(Dlht {
            ns,
            buckets: (0..buckets).map(|_| Atomic::null()).collect(),
            mask: buckets - 1,
            entries: AtomicU64::new(0),
            hits,
            misses,
        })
    }

    /// The namespace this table serves.
    pub fn ns(&self) -> u64 {
        self.ns
    }

    pub(crate) fn bucket_index(&self, sig: &crate::Signature) -> usize {
        sig.bucket_index_for(self.mask + 1)
    }

    /// Looks up a dentry by signature (the fastpath's first step).
    /// Lock-free: pins the epoch and walks the immutable chain
    /// published at the bucket head.
    pub fn lookup(&self, sig: &crate::Signature) -> Option<Arc<Dentry>> {
        let guard = epoch::pin();
        self.lookup_with(sig, &guard)
    }

    /// [`lookup`](Dlht::lookup) under a pin the caller already holds —
    /// the fastpath pins once per resolution, and re-entering the
    /// thread-local pin bookkeeping per probe is measurable at §13
    /// scale.
    pub fn lookup_with(&self, sig: &crate::Signature, guard: &epoch::Guard) -> Option<Arc<Dentry>> {
        let want = sig.sig240();
        let mut cur = self.buckets[self.bucket_index(sig)].load(Ordering::Acquire, guard);
        // SAFETY: loaded under `guard`; a node unlinked since is retired
        // through the epoch, so it outlives the guard.
        while let Some(n) = unsafe { cur.as_ref() } {
            if n.sig == want {
                if let Some(d) = n.dentry.upgrade().filter(|d| !d.is_dead()) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(d);
                }
            }
            cur = n.next.load(Ordering::Acquire, guard);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Assembles a fresh chain from `items`, in order. Unpublished
    /// until the caller's CAS succeeds.
    fn build_chain<'g>(items: Vec<Item>, guard: &'g epoch::Guard) -> Shared<'g, Node> {
        let mut head = Shared::null();
        for (sig, dentry) in items.into_iter().rev() {
            let next = Atomic::null();
            next.store(head, Ordering::Relaxed);
            head = Owned::new(Node { sig, dentry, next }).into_shared(guard);
        }
        head
    }

    /// Frees a chain no reader can reach: a speculative copy after a
    /// failed CAS, or a bucket of a table being dropped.
    fn drop_unpublished<'g>(mut head: Shared<'g, Node>, guard: &'g epoch::Guard) {
        while !head.is_null() {
            // SAFETY: unreachable by readers; we are the only owner.
            let owned = unsafe { head.into_owned() };
            head = owned.next.load(Ordering::Relaxed, guard);
        }
    }

    /// Retires every node of a replaced (published) chain.
    fn retire<'g>(mut head: Shared<'g, Node>, guard: &'g epoch::Guard) {
        // SAFETY: loaded under `guard`, and each node is only retired
        // below, so it stays allocated while the guard is held.
        while let Some(n) = unsafe { head.as_ref() } {
            let next = n.next.load(Ordering::Acquire, guard);
            // SAFETY: unlinked by a successful CAS; concurrent readers
            // hold their own guards.
            unsafe { guard.defer_destroy(head) };
            head = next;
        }
    }

    /// The entries of the chain at `head`, in order.
    fn collect<'g>(mut cur: Shared<'g, Node>, guard: &'g epoch::Guard) -> Vec<Item> {
        let mut items = Vec::new();
        // SAFETY: the chain was loaded under `guard`, which outlives the
        // walk; retired nodes are freed only after it unpins.
        while let Some(n) = unsafe { cur.as_ref() } {
            items.push((n.sig, n.dentry.clone()));
            cur = n.next.load(Ordering::Acquire, guard);
        }
        items
    }

    /// The copy-edit-publish loop: snapshot the bucket's items, let
    /// `edit` produce the replacement set (or `None` to abort without
    /// publishing), build a fresh immutable copy, CAS the bucket head,
    /// retire the old chain, and move the entry count by the change.
    fn mutate(&self, idx: usize, edit: impl Fn(Vec<Item>) -> Option<Vec<Item>>) {
        let guard = epoch::pin();
        let bucket = &self.buckets[idx];
        loop {
            let head = bucket.load(Ordering::Acquire, &guard);
            let items = Self::collect(head, &guard);
            let before = items.len() as u64;
            let Some(kept) = edit(items) else {
                return;
            };
            let after = kept.len() as u64;
            let fresh = Self::build_chain(kept, &guard);
            match bucket.compare_exchange(head, fresh, Ordering::AcqRel, Ordering::Acquire, &guard)
            {
                Ok(_) => {
                    Self::retire(head, &guard);
                    // Wrapping: a shorter chain subtracts.
                    self.entries
                        .fetch_add(after.wrapping_sub(before), Ordering::Relaxed);
                    return;
                }
                Err(_) => Self::drop_unpublished(fresh, &guard),
            }
        }
    }

    /// Raw bucket insert. The caller (the dcache) holds the dentry's
    /// membership lock and has already removed any previous entry.
    /// Returns the bucket, which [`remove_raw`](Dlht::remove_raw) takes.
    pub(crate) fn insert_raw(&self, sig: crate::Signature, dentry: &Arc<Dentry>) -> usize {
        let idx = self.bucket_index(&sig);
        let want = sig.sig240();
        self.mutate(idx, |items| {
            // Copy the bucket, replacing dead or duplicate entries under
            // the same signature.
            let mut kept: Vec<Item> = Vec::with_capacity(items.len() + 1);
            for (isig, weak) in items {
                let keep = isig != want
                    || weak
                        .upgrade()
                        .is_some_and(|d| !d.is_dead() && d.id() != dentry.id());
                if keep {
                    kept.push((isig, weak));
                }
            }
            kept.push((want, Arc::downgrade(dentry)));
            Some(kept)
        });
        idx
    }

    /// Raw removal from bucket `idx` of the entries `is_it` picks (the
    /// dcache picks its dentry's node by address, with no upgrade),
    /// pruning any whose dentry is gone. Publishes nothing when neither
    /// removes an entry.
    pub(crate) fn remove_raw(&self, idx: usize, is_it: impl Fn(&Weak<Dentry>) -> bool) {
        self.mutate(idx, |items| {
            let before = items.len();
            let kept: Vec<Item> = items
                .into_iter()
                .filter(|(_, weak)| weak.strong_count() > 0 && !is_it(weak))
                .collect();
            (kept.len() != before).then_some(kept)
        });
    }

    /// Entry nodes in the table, counted by every publish; equal to
    /// the walked [`footprint`](Dlht::footprint)'s once no publish is in
    /// flight.
    pub fn len(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters.
    pub fn hit_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Entries in bucket `idx`, by walking it.
    fn bucket_len(&self, idx: usize, guard: &epoch::Guard) -> u64 {
        let mut cur = self.buckets[idx].load(Ordering::Acquire, guard);
        let mut entries = 0;
        // SAFETY: loaded under `guard`, as in `lookup_with`.
        while let Some(n) = unsafe { cur.as_ref() } {
            entries += 1;
            cur = n.next.load(Ordering::Acquire, guard);
        }
        entries
    }

    /// Bucket occupancy histogram over *entries*: `[empty, 1, 2, 3+]`
    /// (the §6.5 hash table discussion).
    pub fn occupancy(&self) -> [u64; 4] {
        let guard = epoch::pin();
        let mut h = [0u64; 4];
        for idx in 0..=self.mask {
            h[(self.bucket_len(idx, &guard) as usize).min(3)] += 1;
        }
        h
    }

    /// Exact footprint of this table: entries are counted by walking
    /// every bucket, not estimated from the entry counter.
    pub fn footprint(&self) -> DlhtFootprint {
        let guard = epoch::pin();
        DlhtFootprint {
            buckets: self.mask + 1,
            bucket_bytes: std::mem::size_of::<Atomic<Node>>(),
            entries: (0..=self.mask).map(|i| self.bucket_len(i, &guard)).sum(),
            entry_bytes: NODE_BYTES,
        }
    }

    /// Memory footprint in bytes (space-overhead reporting).
    pub fn approx_bytes(&self) -> usize {
        self.footprint().total_bytes()
    }
}

impl Drop for Dlht {
    fn drop(&mut self) {
        // SAFETY: &mut self: the table is unreachable; free nodes
        // directly.
        unsafe {
            let guard = epoch::unprotected();
            for bucket in self.buckets.iter() {
                let head = bucket.swap(Shared::null(), Ordering::AcqRel, guard);
                Self::drop_unpublished(head, guard);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dentry::{DentryState, NegKind};
    use crate::HashKey;

    fn dentry(id: u64) -> Arc<Dentry> {
        Dentry::new(id, 1, "n", None, DentryState::Negative(NegKind::Enoent), 0)
    }

    /// The dcache's removal: `d`'s node, picked by address.
    fn remove(t: &Dlht, sig: &crate::Signature, d: &Arc<Dentry>) {
        t.remove_raw(t.bucket_index(sig), |w| w.as_ptr() == Arc::as_ptr(d));
    }

    #[test]
    fn insert_lookup_remove_cycle() {
        let key = HashKey::from_seed(1);
        let t = Dlht::new(0, 1 << 8);
        let d = dentry(1);
        let sig = key.hash_components([b"etc".as_slice(), b"passwd".as_slice()]);
        t.insert_raw(sig, &d);
        assert_eq!(t.lookup(&sig).unwrap().id(), 1);
        assert_eq!(t.len(), 1);
        remove(&t, &sig, &d);
        assert!(t.lookup(&sig).is_none());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn removal_takes_only_the_node_at_its_address() {
        let key = HashKey::from_seed(6);
        let t = Dlht::new(0, 1 << 8);
        let sig = key.hash_components([b"twin".as_slice()]);
        let (d1, d2) = (dentry(1), dentry(2));
        let bucket = t.insert_raw(sig, &d1);
        assert_eq!(t.insert_raw(sig, &d2), bucket);
        remove(&t, &sig, &dentry(3));
        assert_eq!(t.footprint().entries, 2, "no node at that address");
        remove(&t, &sig, &d1);
        assert_eq!(t.lookup(&sig).unwrap().id(), 2);
        assert_eq!((t.len(), t.footprint().entries), (1, 1));
    }

    #[test]
    fn same_signature_reinsert_does_not_duplicate() {
        let key = HashKey::from_seed(2);
        let t = Dlht::new(0, 1 << 8);
        let d = dentry(1);
        let sig = key.hash_components([b"a".as_slice()]);
        t.insert_raw(sig, &d);
        t.insert_raw(sig, &d);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&sig).unwrap().id(), 1);
    }

    #[test]
    fn len_tracks_walked_entries_when_insert_prunes_several() {
        let key = HashKey::from_seed(9);
        let t = Dlht::new(0, 1 << 8);
        let sig = key.hash_components([b"a".as_slice()]);
        let (d1, d2, d3) = (dentry(1), dentry(2), dentry(3));
        t.insert_raw(sig, &d1);
        t.insert_raw(sig, &d2);
        assert_eq!(t.len(), 2);
        d1.set_flag(crate::dentry::FLAG_DEAD);
        d2.set_flag(crate::dentry::FLAG_DEAD);
        // One insert prunes both dead entries: the delta is 1 - 2.
        t.insert_raw(sig, &d3);
        assert_eq!(t.footprint().entries, 1);
        assert_eq!(t.len(), t.footprint().entries);
        assert_eq!(t.lookup(&sig).unwrap().id(), 3);
    }

    #[test]
    fn dead_dentries_are_not_returned() {
        let key = HashKey::from_seed(3);
        let t = Dlht::new(0, 1 << 8);
        let d = dentry(1);
        let sig = key.hash_components([b"x".as_slice()]);
        t.insert_raw(sig, &d);
        d.set_flag(crate::dentry::FLAG_DEAD);
        assert!(t.lookup(&sig).is_none());
        d.clear_flag(crate::dentry::FLAG_DEAD);
    }

    #[test]
    fn dropped_dentries_vanish() {
        let key = HashKey::from_seed(4);
        let t = Dlht::new(0, 1 << 8);
        let sig = key.hash_components([b"gone".as_slice()]);
        {
            let d = dentry(9);
            t.insert_raw(sig, &d);
        } // d dropped; weak can no longer upgrade
        assert!(t.lookup(&sig).is_none());
    }

    #[test]
    fn distinct_signatures_coexist_in_shared_buckets() {
        let key = HashKey::from_seed(5);
        let t = Dlht::new(0, 1 << 4);
        // tiny table to force bucket sharing and long chains
        let dentries: Vec<_> = (0..64).map(dentry).collect();
        let sigs: Vec<_> = (0..64)
            .map(|i| key.hash_components([format!("f{i}").as_bytes()]))
            .collect();
        for (d, s) in dentries.iter().zip(&sigs) {
            t.insert_raw(*s, d);
        }
        for (d, s) in dentries.iter().zip(&sigs) {
            assert_eq!(t.lookup(s).unwrap().id(), d.id());
        }
        assert_eq!(t.len(), 64);
        let occ = t.occupancy();
        assert_eq!(occ.iter().sum::<u64>(), 16);
    }

    #[test]
    fn overflow_groups_preserve_every_entry() {
        // 64 entries over 4 buckets: every bucket chains several nodes.
        // Entries must survive interleaved removal.
        let key = HashKey::from_seed(55);
        let t = Dlht::new(0, 1 << 2);
        let dentries: Vec<_> = (0..64).map(dentry).collect();
        let sigs: Vec<_> = (0..64)
            .map(|i| key.hash_components([format!("ov{i}").as_bytes()]))
            .collect();
        for (d, s) in dentries.iter().zip(&sigs) {
            t.insert_raw(*s, d);
        }
        let fp = t.footprint();
        assert_eq!(fp.entries, 64);
        assert_eq!(t.occupancy(), [0, 0, 0, 4], "every bucket chains 3+ nodes");
        // Remove every other entry; the rest must remain reachable.
        for i in (0..64).step_by(2) {
            remove(&t, &sigs[i], &dentries[i]);
        }
        for i in 0..64 {
            if i % 2 == 0 {
                assert!(t.lookup(&sigs[i]).is_none());
            } else {
                assert_eq!(t.lookup(&sigs[i]).unwrap().id(), dentries[i].id());
            }
        }
        assert_eq!(t.len(), 32);
        assert_eq!(t.footprint().entries, 32);
    }

    #[test]
    fn footprint_counts_real_blocks() {
        let key = HashKey::from_seed(7);
        let t = Dlht::new(0, 1 << 4);
        let held: Vec<_> = (0..10u64).map(dentry).collect();
        for (i, d) in held.iter().enumerate() {
            t.insert_raw(key.hash_components([format!("f{i}").as_bytes()]), d);
        }
        let fp = t.footprint();
        assert_eq!(fp.entries, 10);
        assert_eq!((fp.buckets, fp.bucket_bytes, fp.entry_bytes), (16, 8, 64));
        assert_eq!(fp.total_bytes(), 16 * 8 + 10 * 64);
        assert_eq!(fp.reclaimable_bytes(), 10 * 64);
        assert_eq!(t.approx_bytes(), fp.total_bytes());
        // A one-entry bucket holds one node and no empty slot.
        let one = Dlht::new(0, 1 << 4);
        one.insert_raw(key.hash_components([b"solo".as_slice()]), &held[0]);
        assert_eq!(one.occupancy(), [15, 1, 0, 0]);
        assert_eq!(one.footprint().total_bytes(), 16 * 8 + 64);
    }

    #[test]
    fn concurrent_mutators_and_readers_converge() {
        let key = HashKey::from_seed(8);
        let t = Dlht::new(0, 1 << 4);
        let dentries: Vec<_> = (0..32u64).map(dentry).collect();
        let sigs: Vec<_> = (0..32)
            .map(|i| key.hash_components([format!("s{i}").as_bytes()]))
            .collect();
        std::thread::scope(|s| {
            for chunk in 0..4 {
                let t = &t;
                let dentries = &dentries;
                let sigs = &sigs;
                s.spawn(move || {
                    for round in 0..200 {
                        for i in (chunk * 8)..(chunk * 8 + 8) {
                            if round % 2 == 0 {
                                t.insert_raw(sigs[i], &dentries[i]);
                            } else {
                                remove(t, &sigs[i], &dentries[i]);
                            }
                        }
                    }
                    // End on an insert so the final state is full.
                    for i in (chunk * 8)..(chunk * 8 + 8) {
                        t.insert_raw(sigs[i], &dentries[i]);
                    }
                });
            }
            for _ in 0..4 {
                let t = &t;
                let sigs = &sigs;
                let dentries = &dentries;
                s.spawn(move || {
                    for _ in 0..2000 {
                        for (i, sig) in sigs.iter().enumerate() {
                            if let Some(d) = t.lookup(sig) {
                                assert_eq!(d.id(), dentries[i].id());
                            }
                        }
                    }
                });
            }
        });
        for (i, sig) in sigs.iter().enumerate() {
            assert_eq!(t.lookup(sig).unwrap().id(), dentries[i].id());
        }
        assert_eq!(t.len(), 32);
    }
}
