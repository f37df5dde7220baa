//! The Direct Lookup Hash Table (§3.1, §3.3) — lock-free read side.
//!
//! Each bucket head is an atomic pointer to one immutable,
//! cache-line-aligned [`Group`] holding up to [`GROUP_SLOTS`] entries
//! inline — the 240-bit signature tags and the entry slots live in the
//! group itself, so a warm probe is one pointer dereference plus a
//! bounded in-line scan, with no per-entry pointer chase. Buckets
//! overflowing a group grow a rare `next` group.
//!
//! `lookup` pins the epoch and traverses without any lock — the
//! RCU-analog probe the paper's flat Figure 8 read scaling depends on.
//! Mutators rebuild the affected bucket's groups as fresh allocations,
//! publish with one CAS on the bucket head, and retire the replaced
//! groups through the epoch collector (`defer_destroy`); a failed CAS
//! frees the speculative copy and retries against the new head.
//! Published groups are never mutated, and ABA is impossible while
//! pinned: a retired group's address cannot be reused until every guard
//! that could have observed it unpins. The linearization point of every
//! mutation is the single bucket-head CAS, which is what the
//! `crates/dst` linearizability models check.

use crate::dentry::Dentry;
use crate::dsync::{AtomicU64, Ordering};
use crate::stats::Counter;
use crossbeam_epoch::{self as epoch, Atomic, Owned, Shared};
use std::sync::{Arc, Weak};

/// Entries stored inline per bucket group. With 2^16 buckets and a
/// lazily-populated table, almost every occupied bucket holds one or two
/// entries; four slots keep even collision buckets to a single group.
const GROUP_SLOTS: usize = 4;

/// One entry slot of a bucket group: the remaining signature
/// lanes (lane 0 lives in the group's tag array) + the weak dentry ref.
struct Slot {
    rest: [u64; 3],
    dentry: Weak<Dentry>,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            rest: [0; 3],
            dentry: Weak::new(),
        }
    }
}

/// One immutable, cache-line-aligned bucket group.
///
/// Field order is load-bearing: the first 64 bytes hold everything a
/// failing probe needs — the four quick-reject tags (lane 0 of each
/// slot's masked signature), the live-slot count, and the overflow
/// pointer — so a bucket miss costs exactly one cache line after the
/// head dereference. Slots start at byte 64; a tag match reads one more
/// line to compare the remaining 192 signature bits and upgrade the
/// weak reference. Published groups are never mutated; `next` is atomic
/// only for assembly and traversal under the epoch API.
#[repr(C, align(64))]
struct Group {
    tags: [u64; GROUP_SLOTS],
    len: u32,
    _pad0: u32,
    next: Atomic<Group>,
    _pad1: [u64; 2],
    slots: [Slot; GROUP_SLOTS],
}

// The layout contract the cache-line argument rests on (DESIGN.md §13).
const _: () = {
    assert!(std::mem::size_of::<Group>() == 192);
    assert!(std::mem::align_of::<Group>() == 64);
    assert!(std::mem::offset_of!(Group, slots) == 64);
};

impl Group {
    fn from_chunk(chunk: &[Item]) -> Group {
        let mut g = Group {
            tags: [0; GROUP_SLOTS],
            len: chunk.len() as u32,
            _pad0: 0,
            next: Atomic::null(),
            _pad1: [0; 2],
            slots: [Slot::empty(), Slot::empty(), Slot::empty(), Slot::empty()],
        };
        for (i, (sig, dentry)) in chunk.iter().enumerate() {
            g.tags[i] = sig[0];
            g.slots[i] = Slot {
                rest: [sig[1], sig[2], sig[3]],
                dentry: dentry.clone(),
            };
        }
        g
    }
}

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
    /// Live bucket groups.
    pub groups: u64,
    /// Bytes per bucket group.
    pub group_bytes: usize,
    /// Live entries across all slots (walked).
    pub entries: u64,
}

impl DlhtFootprint {
    /// Total bytes of the table.
    pub fn total_bytes(&self) -> usize {
        self.buckets * self.bucket_bytes + self.groups as usize * self.group_bytes
    }

    /// Bytes a shrink could reclaim: everything except the fixed bucket
    /// array.
    pub fn reclaimable_bytes(&self) -> u64 {
        self.groups * self.group_bytes as u64
    }
}

/// A system-wide (per mount namespace) hash table mapping full-path
/// signatures directly to dentries.
///
/// - Indexed by the low 16 signature bits; groups compare the
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
    buckets: Box<[Atomic<Group>]>,
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

    fn bucket_index(&self, sig: &crate::Signature) -> usize {
        sig.bucket_index_for(self.mask + 1)
    }

    /// Looks up a dentry by signature (the fastpath's first step).
    /// Lock-free: pins the epoch and scans the immutable groups
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
        let idx = self.bucket_index(sig);
        let want = sig.sig240();
        let mut cur = self.buckets[idx].load(Ordering::Acquire, guard);
        let found = 'probe: loop {
            let Some(g) = (unsafe { cur.as_ref() }) else {
                break None;
            };
            for i in 0..g.len as usize {
                if g.tags[i] == want[0] {
                    let s = &g.slots[i];
                    if s.rest == [want[1], want[2], want[3]] {
                        if let Some(d) = s.dentry.upgrade() {
                            if !d.is_dead() {
                                break 'probe Some(d);
                            }
                        }
                    }
                }
            }
            cur = g.next.load(Ordering::Acquire, guard);
        };
        match found {
            Some(d) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(d)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Assembles a fresh group list from `items`: full groups of
    /// [`GROUP_SLOTS`], overflow continuing in `next` groups. Unpublished
    /// until the caller's CAS succeeds.
    fn build_groups<'g>(items: Vec<Item>, guard: &'g epoch::Guard) -> Shared<'g, Group> {
        let mut head = Shared::null();
        for chunk in items.chunks(GROUP_SLOTS).rev() {
            let group = Owned::new(Group::from_chunk(chunk));
            group.next.store(head, Ordering::Relaxed);
            head = group.into_shared(guard);
        }
        head
    }

    /// Frees a group list no reader can reach: a speculative copy after
    /// a failed CAS, or a bucket of a table being dropped.
    fn drop_unpublished_groups<'g>(mut head: Shared<'g, Group>, guard: &'g epoch::Guard) {
        while !head.is_null() {
            // Safety: unreachable by readers; we are the only owner.
            let owned = unsafe { head.into_owned() };
            head = owned.next.load(Ordering::Relaxed, guard);
            drop(owned);
        }
    }

    /// Retires every group of a replaced (published) list.
    fn retire_groups<'g>(mut head: Shared<'g, Group>, guard: &'g epoch::Guard) {
        while let Some(g) = unsafe { head.as_ref() } {
            let next = g.next.load(Ordering::Acquire, guard);
            // Safety: unlinked by a successful CAS; concurrent readers
            // hold their own guards.
            unsafe { guard.defer_destroy(head) };
            head = next;
        }
    }

    fn collect_groups(head: Shared<'_, Group>, guard: &epoch::Guard) -> Vec<Item> {
        let mut items = Vec::new();
        let mut cur = head;
        while let Some(g) = unsafe { cur.as_ref() } {
            for i in 0..g.len as usize {
                let s = &g.slots[i];
                items.push((
                    [g.tags[i], s.rest[0], s.rest[1], s.rest[2]],
                    s.dentry.clone(),
                ));
            }
            cur = g.next.load(Ordering::Acquire, guard);
        }
        items
    }

    /// The copy-edit-publish loop: snapshot the bucket's items, let
    /// `edit` produce the replacement set (or `None` to abort without
    /// publishing), build a fresh immutable copy, CAS the bucket head,
    /// retire the old groups. `edit` also returns the entry-counter
    /// delta to apply on success.
    fn mutate(&self, idx: usize, edit: impl Fn(Vec<Item>) -> Option<(Vec<Item>, i64)>) {
        let guard = epoch::pin();
        let bucket = &self.buckets[idx];
        loop {
            let head = bucket.load(Ordering::Acquire, &guard);
            let items = Self::collect_groups(head, &guard);
            let Some((kept, delta)) = edit(items) else {
                return;
            };
            let fresh = Self::build_groups(kept, &guard);
            match bucket.compare_exchange(head, fresh, Ordering::AcqRel, Ordering::Acquire, &guard)
            {
                Ok(_) => {
                    Self::retire_groups(head, &guard);
                    self.apply_delta(delta);
                    return;
                }
                Err(_) => Self::drop_unpublished_groups(fresh, &guard),
            }
        }
    }

    fn apply_delta(&self, delta: i64) {
        match delta.cmp(&0) {
            std::cmp::Ordering::Greater => {
                self.entries.fetch_add(delta as u64, Ordering::Relaxed);
            }
            std::cmp::Ordering::Less => {
                self.entries.fetch_sub((-delta) as u64, Ordering::Relaxed);
            }
            std::cmp::Ordering::Equal => {}
        }
    }

    /// Raw bucket insert. The caller (the dcache) holds the dentry's
    /// membership lock and has already removed any previous entry.
    pub(crate) fn insert_raw(&self, sig: crate::Signature, dentry: &Arc<Dentry>) {
        let idx = self.bucket_index(&sig);
        let want = sig.sig240();
        self.mutate(idx, |items| {
            // Copy the bucket, replacing dead or duplicate entries under
            // the same signature.
            let mut kept: Vec<Item> = Vec::with_capacity(items.len() + 1);
            let mut pruned = 0i64;
            for (isig, weak) in items {
                let keep = isig != want
                    || weak
                        .upgrade()
                        .is_some_and(|d| !d.is_dead() && d.id() != dentry.id());
                if keep {
                    kept.push((isig, weak));
                } else {
                    pruned += 1;
                }
            }
            kept.push((want, Arc::downgrade(dentry)));
            Some((kept, 1 - pruned))
        });
    }

    /// Raw bucket removal by signature + dentry id.
    pub(crate) fn remove_raw(&self, sig: &crate::Signature, id: crate::DentryId) {
        let idx = self.bucket_index(sig);
        let want = sig.sig240();
        self.mutate(idx, |items| {
            let mut kept: Vec<Item> = Vec::with_capacity(items.len());
            let mut removed = 0i64;
            for (isig, weak) in items {
                let keep = if isig != want {
                    true
                } else {
                    match weak.upgrade() {
                        Some(d) => d.id() != id,
                        None => false, // prune dead weak entries opportunistically
                    }
                };
                if keep {
                    kept.push((isig, weak));
                } else {
                    removed += 1;
                }
            }
            if removed == 0 {
                return None;
            }
            Some((kept, -removed))
        });
    }

    /// Approximate number of live entries.
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

    /// `(entries, groups)` in bucket `idx`, by walking it.
    fn bucket_census(&self, idx: usize, guard: &epoch::Guard) -> (u64, u64) {
        let mut entries = 0;
        let mut groups = 0;
        let mut cur = self.buckets[idx].load(Ordering::Acquire, guard);
        while let Some(g) = unsafe { cur.as_ref() } {
            entries += g.len as u64;
            groups += 1;
            cur = g.next.load(Ordering::Acquire, guard);
        }
        (entries, groups)
    }

    /// Bucket occupancy histogram over *entries*: `[empty, 1, 2, 3+]`
    /// (the §6.5 hash table discussion).
    pub fn occupancy(&self) -> [u64; 4] {
        let guard = epoch::pin();
        let mut h = [0u64; 4];
        for idx in 0..=self.mask {
            let (entries, _) = self.bucket_census(idx, &guard);
            h[(entries as usize).min(3)] += 1;
        }
        h
    }

    /// Exact footprint of this table: groups and entries are counted
    /// by walking every bucket, not estimated from the entry counter.
    pub fn footprint(&self) -> DlhtFootprint {
        let guard = epoch::pin();
        let mut entries = 0;
        let mut groups = 0;
        for idx in 0..=self.mask {
            let (e, g) = self.bucket_census(idx, &guard);
            entries += e;
            groups += g;
        }
        DlhtFootprint {
            buckets: self.mask + 1,
            bucket_bytes: std::mem::size_of::<Atomic<Group>>(),
            groups,
            group_bytes: std::mem::size_of::<Group>(),
            entries,
        }
    }

    /// Memory footprint in bytes (space-overhead reporting).
    pub fn approx_bytes(&self) -> usize {
        self.footprint().total_bytes()
    }
}

impl Drop for Dlht {
    fn drop(&mut self) {
        // &mut self: the table is unreachable; free groups directly.
        unsafe {
            let guard = epoch::unprotected();
            for bucket in self.buckets.iter() {
                let head = bucket.swap(Shared::null(), Ordering::AcqRel, guard);
                Self::drop_unpublished_groups(head, guard);
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

    #[test]
    fn insert_lookup_remove_cycle() {
        let key = HashKey::from_seed(1);
        let t = Dlht::new(0, 1 << 8);
        let d = dentry(1);
        let sig = key.hash_components([b"etc".as_slice(), b"passwd".as_slice()]);
        t.insert_raw(sig, &d);
        assert_eq!(t.lookup(&sig).unwrap().id(), 1);
        assert_eq!(t.len(), 1);
        t.remove_raw(&sig, d.id());
        assert!(t.lookup(&sig).is_none());
        assert_eq!(t.len(), 0);
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
        // tiny table to force bucket sharing and overflow groups
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
        // 64 entries over 4 buckets: every bucket needs multiple groups
        // (4 slots each). Entries must survive interleaved removal.
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
        assert!(fp.groups > 16, "4 buckets x 4 slots must overflow");
        // Remove every other entry; the rest must remain reachable.
        for i in (0..64).step_by(2) {
            t.remove_raw(&sigs[i], dentries[i].id());
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
        assert!(fp.groups > 0 && fp.groups <= 10);
        assert_eq!(fp.buckets, 16);
        assert_eq!(fp.group_bytes, 192);
        assert_eq!(
            fp.total_bytes(),
            16 * fp.bucket_bytes + fp.groups as usize * fp.group_bytes
        );
        assert_eq!(fp.reclaimable_bytes(), fp.groups * fp.group_bytes as u64);
        assert_eq!(t.approx_bytes(), fp.total_bytes());
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
                                t.remove_raw(&sigs[i], dentries[i].id());
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
