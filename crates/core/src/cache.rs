//! The directory-cache facade: allocation, hashing tables, coherence.

use crate::config::DcacheConfig;
use crate::dentry::{Dentry, DentryId, DentryState, NegKind, FLAG_DEAD, FLAG_DIR_COMPLETE};
use crate::dlht::{Dlht, DlhtFootprint};
use crate::inode::{Inode, SbId};
use crate::lru::{DentryLru, EvictOutcome};
use crate::pcc::Pcc;
use crate::seqlock::SeqLock;
use crate::stats::{DcacheStats, SpaceReport};
use dc_cred::Cred;
use dc_obs::{Recorder, TraceEvent};
use dc_rcu::SnapMap;
use dc_sighash::HashKey;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Mount-namespace identity (each namespace owns a private DLHT, §4.3).
pub type NsId = u64;

/// The directory cache.
///
/// One instance per kernel. Owns dentry allocation, the per-namespace
/// direct-lookup tables, per-credential prefix check caches, the LRU, and
/// the coherence machinery of §3.2: the global `rename_lock` seqlock, the
/// global `invalidation` counter, and recursive subtree shootdowns.
pub struct Dcache {
    /// Feature configuration (baseline / optimized / ablations).
    pub config: DcacheConfig,
    /// Boot-time signature hash key (§3.3).
    pub key: HashKey,
    /// Behavior counters.
    pub stats: DcacheStats,
    /// Observability hook: DLHT probes and PCC checks report here (a
    /// disabled recorder — the default — drops them for free).
    pub obs: Recorder,
    /// Global rename seqlock: writers are structural mutations, readers
    /// are optimistic slowpath walks (§3.2).
    pub rename_lock: SeqLock,
    dlhts: SnapMap<NsId, Arc<Dlht>>,
    /// Namespaces whose DLHT was retired by teardown. Consulted (under
    /// the same mutex that serializes retirement) before lazily creating
    /// a table, so a walker racing teardown cannot resurrect a dead
    /// namespace's table into the map — it gets a private orphan table
    /// that dies with its last holder instead (DESIGN.md §14). A few
    /// bytes per destroyed namespace, ever.
    retired_ns: Mutex<HashSet<NsId>>,
    lru: DentryLru,
    /// Global shootdown counter: slowpath results may only be published to
    /// DLHT/PCC if this did not move during the walk (§3.2).
    invalidation: AtomicU64,
    next_id: AtomicU64,
    live: AtomicU64,
    tick: AtomicU64,
    pccs: Mutex<Vec<PccSlot>>,
}

/// Registry entry for one resident PCC: which credential it is attached
/// to (weak — creds drop freely), which namespace keys it, and the PCC
/// itself (weak — the cred's cache map holds the only strong reference,
/// so detaching it there is how eviction frees memory).
struct PccSlot {
    cred: Weak<Cred>,
    ns: NsId,
    pcc: Weak<Pcc>,
}

impl Dcache {
    /// Builds a cache from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DcacheConfig::validate`].
    pub fn new(config: DcacheConfig) -> Arc<Dcache> {
        Dcache::new_with_obs(config, Recorder::disabled())
    }

    /// Builds a cache that reports DLHT probes and PCC checks to `obs`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DcacheConfig::validate`].
    pub fn new_with_obs(config: DcacheConfig, obs: Recorder) -> Arc<Dcache> {
        config.validate().expect("invalid dcache config");
        let key = match config.hash_seed {
            Some(seed) => HashKey::from_seed(seed),
            None => HashKey::from_entropy(),
        };
        Arc::new(Dcache {
            config,
            key,
            stats: DcacheStats::default(),
            obs,
            rename_lock: SeqLock::new(),
            dlhts: SnapMap::new(),
            retired_ns: Mutex::new(HashSet::new()),
            lru: DentryLru::new(8),
            invalidation: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            live: AtomicU64::new(0),
            tick: AtomicU64::new(1),
            pccs: Mutex::new(Vec::new()),
        })
    }

    fn alloc_id(&self) -> DentryId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Live (hashed) dentries.
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Pins the reclamation epoch, for one lookup or for a whole batch of
    /// them. Only an outermost pin publishes the epoch (a store and a
    /// fence) and is accounted (`epoch_pins`, `EpochPin`); one taken while
    /// the thread is already pinned is a nesting-count bump. A server
    /// worker that holds this guard across a batch therefore pays, and
    /// records, one pin for all the lookups inside it. Not to be held
    /// across a blocking wait: a pinned epoch delays reclamation globally.
    pub fn pin(&self) -> crossbeam_epoch::Guard {
        let nested = crossbeam_epoch::is_pinned();
        let guard = crossbeam_epoch::pin();
        if !nested {
            self.stats.epoch_pins.fetch_add(1, Ordering::Relaxed);
            self.obs.event(|| TraceEvent::EpochPin);
        }
        guard
    }

    // --- allocation ------------------------------------------------------

    /// Creates the root dentry of a superblock. Root dentries are pinned
    /// by their superblock and never enter the LRU. It carries no hash
    /// state: at a namespace's root the state is the key's root state by
    /// definition, and under a mountpoint it is whatever path led there.
    pub fn new_root(&self, sb: SbId, inode: Arc<Inode>) -> Arc<Dentry> {
        let d = Dentry::new(
            self.alloc_id(),
            sb,
            "",
            None,
            DentryState::Positive(inode),
            0,
        );
        self.live.fetch_add(1, Ordering::Relaxed);
        d
    }

    /// Allocates and hashes a child dentry under `parent`.
    ///
    /// The caller holds `parent.dir_lock()` and has verified no live child
    /// exists for `name`.
    pub fn d_alloc(&self, parent: &Arc<Dentry>, name: &str, state: DentryState) -> Arc<Dentry> {
        let d = Dentry::new(
            self.alloc_id(),
            parent.sb(),
            name,
            Some(parent.clone()),
            state,
            0,
        );
        parent.insert_child(d.clone());
        self.live.fetch_add(1, Ordering::Relaxed);
        self.lru.insert(&d);
        self.maybe_shrink();
        d
    }

    /// Per-parent cached-child lookup (`d_lookup`).
    pub fn d_lookup(&self, parent: &Dentry, name: &str) -> Option<Arc<Dentry>> {
        parent.get_child(name)
    }

    // --- state transitions ------------------------------------------------

    /// Converts a dentry to a negative entry of the given kind, keeping it
    /// hashed so future lookups hit the cached absence (§5.2). Any cached
    /// children (e.g. deep `ENOTDIR` children of an unlinked file) are
    /// unhashed, since their cause is gone.
    pub fn make_negative(&self, d: &Arc<Dentry>, kind: NegKind) {
        for child in d.children_snapshot() {
            self.unhash_subtree(&child);
        }
        // Also drops a symlink's target signature: it must not outlive
        // the object (the path may be recreated as a different symlink).
        d.set_state(DentryState::Negative(kind));
        // Listings of the parent change: the entry vanished.
        if let Some(p) = d.parent() {
            p.bump_children_version();
        }
        self.stats.neg_created.fetch_add(1, Ordering::Relaxed);
    }

    /// Unhashes a dentry: removes it from its parent, the DLHT, and the
    /// accounting. The dentry stays usable through existing references
    /// (Linux `d_drop` semantics) but is never returned by lookups again.
    ///
    /// `reclaim` marks space-pressure eviction, which additionally breaks
    /// the parent's completeness claim (§5.1); removals that mirror a real
    /// file-system deletion keep completeness intact.
    pub fn unhash(&self, d: &Arc<Dentry>, reclaim: bool) {
        // Only the transition into DEAD does the bookkeeping.
        if d.flag(FLAG_DEAD) {
            return;
        }
        d.set_flag(FLAG_DEAD);
        if let Some(parent) = d.parent() {
            if reclaim {
                // Break the completeness claim BEFORE the child leaves
                // the parent: a racing lookup that misses the child must
                // not see DIR_COMPLETE still set and fabricate ENOENT
                // for a file the file system still has. (The child-map
                // lock orders the flag clear before any post-removal
                // miss.)
                parent.bump_child_evict_gen();
                if parent.flag(FLAG_DIR_COMPLETE) {
                    parent.clear_flag(FLAG_DIR_COMPLETE);
                    self.stats.complete_breaks.fetch_add(1, Ordering::Relaxed);
                }
            }
            parent.remove_child_if(&d.name(), d.id());
        }
        self.dlht_remove(d);
        d.bump_seq();
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    /// Moves a dentry to a new parent and/or name (the cache half of
    /// `rename`). The caller holds the global rename lock and both
    /// directories' `dir_lock`s, and has already shot down the subtree.
    ///
    /// Any dentry currently hashed at the destination must have been
    /// unhashed or converted by the caller beforehand.
    pub fn d_move(&self, d: &Arc<Dentry>, new_parent: &Arc<Dentry>, new_name: &str) {
        if let Some(old_parent) = d.parent() {
            old_parent.remove_child_if(&d.name(), d.id());
        }
        debug_assert!(
            new_parent.get_child(new_name).is_none_or(|p| p.is_dead()),
            "destination name still hashed"
        );
        d.set_name_parent(new_name, Some(new_parent.clone()));
        new_parent.insert_child(d.clone());
    }

    /// Unhashes a dentry and every cached descendant (rmdir of a directory
    /// with cached negative children, symlink retargeting, …).
    pub fn unhash_subtree(&self, d: &Arc<Dentry>) {
        let mut stack = vec![d.clone()];
        while let Some(n) = stack.pop() {
            stack.extend(n.children_snapshot());
            self.unhash(&n, false);
        }
    }

    // --- DLHT -------------------------------------------------------------

    fn make_dlht(&self, ns: NsId) -> Arc<Dlht> {
        // Tenant sharding (DESIGN.md §14): the init namespace gets the
        // full-size table; tenant namespaces get the (typically much
        // smaller) per-tenant size so 1000+ namespaces don't cost 1000
        // full bucket arrays — and one tenant's churn stays confined to
        // its own table.
        let buckets = match self.config.dlht_tenant_buckets {
            Some(tb) if ns != 0 => tb,
            _ => self.config.dlht_buckets,
        };
        Dlht::new(ns, buckets)
    }

    /// The DLHT serving namespace `ns`, created on first use. The hit
    /// path is an epoch-protected snapshot scan — no lock.
    ///
    /// A namespace whose table was [retired](Dcache::retire_dlht) gets a
    /// fresh *orphan* table (never registered in the map): a walker
    /// racing teardown publishes into it harmlessly and the table dies
    /// with the walker's handle, instead of leaking a map entry for a
    /// dead namespace forever.
    pub fn dlht_for(&self, ns: NsId) -> Arc<Dlht> {
        if let Some(t) = self.dlhts.get(ns) {
            return t;
        }
        // Serialize lazy creation against retirement: holding the
        // retired-set mutex across the check *and* the insert means a
        // concurrent `retire_dlht` either sees our entry (and removes
        // it) or we see its tombstone (and stay out of the map).
        let retired = self.retired_ns.lock();
        if retired.contains(&ns) {
            return self.make_dlht(ns);
        }
        self.dlhts.get_or_insert_with(ns, || self.make_dlht(ns))
    }

    /// Retires namespace `ns`'s DLHT: unregisters it and tombstones the
    /// namespace id so no racing walker re-creates a map entry. Returns
    /// the table so the caller can account its final footprint; entries
    /// die when the last handle (ours, plus any namespace-memoized
    /// fastpath handles still held by in-flight readers) drops — no
    /// per-entry unlinking, which is what makes teardown O(tenant
    /// table) rather than O(fleet) (DESIGN.md §14).
    pub fn retire_dlht(&self, ns: NsId) -> Option<Arc<Dlht>> {
        let mut retired = self.retired_ns.lock();
        retired.insert(ns);
        self.dlhts.remove(ns)
    }

    /// Live per-namespace tables (diagnostics; the init namespace's
    /// table counts once created).
    pub fn dlht_count(&self) -> usize {
        self.dlhts.len()
    }

    /// Per-namespace DLHT footprints, walked (the `repro space` top-K
    /// tenant report).
    pub fn ns_footprints(&self) -> Vec<(NsId, DlhtFootprint)> {
        self.dlhts
            .entries()
            .into_iter()
            .map(|(ns, t)| (ns, t.footprint()))
            .collect()
    }

    /// Per-namespace DLHT hit/miss counters, as `(ns, hits, misses)`.
    pub fn ns_hit_stats(&self) -> Vec<(NsId, u64, u64)> {
        self.dlhts
            .entries()
            .into_iter()
            .map(|(ns, t)| {
                let (h, m) = t.hit_stats();
                (ns, h, m)
            })
            .collect()
    }

    /// Direct lookup by full-path signature in namespace `ns`.
    pub fn dlht_lookup(&self, ns: NsId, sig: &crate::Signature) -> Option<Arc<Dentry>> {
        let guard = crossbeam_epoch::pin();
        self.dlht_lookup_in(&self.dlht_for(ns), sig, &guard)
    }

    /// Direct lookup against an already-resolved namespace table (the
    /// fastpath's memoized handle — skips the per-namespace map scan of
    /// [`dlht_lookup`](Dcache::dlht_lookup) while keeping its probe
    /// accounting).
    pub fn dlht_lookup_in(
        &self,
        dlht: &Dlht,
        sig: &crate::Signature,
        guard: &crossbeam_epoch::Guard,
    ) -> Option<Arc<Dentry>> {
        let found = dlht.lookup_with(sig, guard);
        let hit = found.is_some();
        self.obs.event(|| TraceEvent::DlhtProbe { hit });
        found
    }

    /// Publishes `dentry` under `sig` in namespace `ns`'s DLHT, evicting
    /// any previous membership (one table, one signature at a time; §4.3)
    /// and, if that membership was under a different signature, every
    /// prefix check memoized under it (`bump_seq`).
    /// Returns `false` if the dentry died concurrently.
    pub fn dlht_insert(&self, ns: NsId, sig: crate::Signature, dentry: &Arc<Dentry>) -> bool {
        self.dlht_insert_in(&self.dlht_for(ns), sig, dentry)
    }

    /// [`dlht_insert`](Dcache::dlht_insert) against an already-resolved
    /// table handle (the walk's namespace-memoized one — skips the
    /// per-namespace map scan on every publish).
    pub fn dlht_insert_in(
        &self,
        table: &Arc<Dlht>,
        sig: crate::Signature,
        dentry: &Arc<Dentry>,
    ) -> bool {
        let mut membership = dentry.dlht_entry().lock();
        if dentry.is_dead() {
            return false;
        }
        if let Some((old_table, old_sig)) = membership.take() {
            // An upgrade failure means the old table was retired with
            // its namespace and the entry already died with it.
            if let Some(old) = old_table.upgrade() {
                old.remove_raw(&old_sig, dentry.id());
            }
            // One signature per dentry (§4.3): a dentry reached by a
            // second path (a bind mount) is re-signed, and the prefix
            // checks memoized under the old path say nothing about the
            // new one. Moving between two namespaces' tables under the
            // same signature is the same path and keeps them.
            if old_sig != sig {
                dentry.bump_seq();
            }
        }
        table.insert_raw(sig, dentry);
        *membership = Some((Arc::downgrade(table), sig));
        true
    }

    /// Removes `dentry` from whichever DLHT holds it, if any. A no-op
    /// when that table was already retired wholesale by namespace
    /// teardown.
    pub fn dlht_remove(&self, dentry: &Arc<Dentry>) {
        let mut membership = dentry.dlht_entry().lock();
        if let Some((table, sig)) = membership.take() {
            if let Some(t) = table.upgrade() {
                t.remove_raw(&sig, dentry.id());
            }
        }
    }

    // --- PCC ---------------------------------------------------------------

    /// The prefix check cache for `(cred, ns)`, created on first use and
    /// shared by every process with the same credential in the same
    /// namespace (§3.1, §4.1).
    ///
    /// Creation past the configured
    /// [`pcc_max_resident`](DcacheConfig::pcc_max_resident) cap detaches
    /// the least-recently-used resident PCC from its credential — the
    /// cred-count pressure policy of DESIGN.md §14. The recency stamp is
    /// refreshed here (once per slowpath attach, not on the lock-free
    /// fastpath borrow), so fleet-hot creds keep their caches while a
    /// burst of one-shot creds churns through the tail.
    pub fn pcc_for(&self, cred: &Arc<Cred>, ns: NsId) -> Arc<Pcc> {
        let bytes = self.config.pcc_bytes;
        let mut created = false;
        let any = cred.cache_for(ns, || {
            created = true;
            Arc::new(Pcc::new_with_obs(bytes, self.obs.clone()))
        });
        let pcc = any
            .downcast::<Pcc>()
            .expect("cred cache slot held a non-PCC value");
        pcc.touch(self.tick.fetch_add(1, Ordering::Relaxed));
        if created {
            let mut list = self.pccs.lock();
            list.push(PccSlot {
                cred: Arc::downgrade(cred),
                ns,
                pcc: Arc::downgrade(&pcc),
            });
            self.enforce_pcc_cap(&mut list);
        }
        pcc
    }

    /// Detaches the coldest resident PCCs until the registry fits the
    /// configured cap. Caller holds the registry lock.
    fn enforce_pcc_cap(&self, list: &mut Vec<PccSlot>) {
        let Some(cap) = self.config.pcc_max_resident else {
            return;
        };
        if list.len() <= cap {
            return;
        }
        // Dead slots (cred dropped, or cache detached elsewhere) go
        // first and cost nothing.
        list.retain(|s| s.pcc.strong_count() > 0 && s.cred.strong_count() > 0);
        while list.len() > cap {
            let coldest = list
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.pcc.upgrade().map(|p| (i, p.last_used())))
                .min_by_key(|&(_, t)| t);
            let Some((idx, _)) = coldest else { break };
            let slot = list.swap_remove(idx);
            if let Some(cred) = slot.cred.upgrade() {
                cred.remove_cache(slot.ns);
            }
            self.stats.pcc_evictions.fetch_add(1, Ordering::Relaxed);
            self.obs.event(|| TraceEvent::PccEvict);
        }
    }

    /// Detaches every resident PCC keyed by namespace `ns` from its
    /// credential (namespace teardown). Returns `(instances, lines)`:
    /// PCCs detached and the occupied lines they held.
    pub fn detach_pccs_for_ns(&self, ns: NsId) -> (u64, u64) {
        let mut instances = 0u64;
        let mut lines = 0u64;
        let mut list = self.pccs.lock();
        list.retain(|slot| {
            if slot.ns != ns {
                return slot.pcc.strong_count() > 0;
            }
            if let Some(pcc) = slot.pcc.upgrade() {
                instances += 1;
                lines += pcc.occupancy() as u64;
                if let Some(cred) = slot.cred.upgrade() {
                    cred.remove_cache(ns);
                }
            }
            false
        });
        self.stats
            .pccs_detached
            .fetch_add(instances, Ordering::Relaxed);
        (instances, lines)
    }

    /// Resident PCC instances (diagnostics; prunes dead slots).
    pub fn resident_pccs(&self) -> usize {
        let mut list = self.pccs.lock();
        list.retain(|s| s.pcc.strong_count() > 0);
        list.len()
    }

    /// Resident PCC instances and occupied bytes for namespace `ns`
    /// (the `repro space` per-tenant report).
    pub fn pcc_stats_for_ns(&self, ns: NsId) -> (usize, u64) {
        let list = self.pccs.lock();
        let mut n = 0usize;
        let mut bytes = 0u64;
        for slot in list.iter().filter(|s| s.ns == ns) {
            if let Some(pcc) = slot.pcc.upgrade() {
                n += 1;
                bytes += pcc.occupied_bytes() as u64;
            }
        }
        (n, bytes)
    }

    /// Borrows the PCC for `(cred, ns)` under a caller-held epoch guard —
    /// the fastpath variant of [`pcc_for`](Dcache::pcc_for): no nested
    /// pin, no `Arc` clones, no downcast allocation. `None` when no PCC
    /// is attached yet; the caller runs `pcc_for` once to create it.
    pub fn pcc_ref<'g>(
        &self,
        cred: &Cred,
        ns: NsId,
        guard: &'g crossbeam_epoch::Guard,
    ) -> Option<&'g Pcc> {
        let any = cred.cache_ref(ns, guard)?;
        any.downcast_ref::<Pcc>()
    }

    /// Flushes every live PCC (the paper's version-wraparound handling;
    /// also used by cold-cache experiment resets).
    pub fn flush_all_pccs(&self) {
        let mut list = self.pccs.lock();
        list.retain(|slot| match slot.pcc.upgrade() {
            Some(pcc) => {
                pcc.invalidate_all();
                true
            }
            None => false,
        });
    }

    /// Flushes resident PCCs coldest-first until roughly `need_bytes` of
    /// occupied lines have been emptied. Returns the bytes flushed. The
    /// memory-pressure path prefers this to an indiscriminate
    /// [`flush_all_pccs`](Dcache::flush_all_pccs): batch tenants' idle
    /// caches drain before a hot tenant loses a single line.
    fn flush_cold_pccs(&self, need_bytes: u64) -> u64 {
        let mut list = self.pccs.lock();
        let mut live: Vec<(u64, Arc<Pcc>)> = Vec::with_capacity(list.len());
        list.retain(|slot| match slot.pcc.upgrade() {
            Some(pcc) => {
                live.push((pcc.last_used(), pcc));
                true
            }
            None => false,
        });
        drop(list);
        live.sort_unstable_by_key(|&(t, _)| t);
        let mut freed = 0u64;
        for (_, pcc) in live {
            if freed >= need_bytes {
                break;
            }
            let occupied = pcc.occupied_bytes() as u64;
            if occupied == 0 {
                continue;
            }
            pcc.invalidate_all();
            freed += occupied;
        }
        freed
    }

    // --- coherence ----------------------------------------------------------

    /// Current shootdown counter value.
    #[inline]
    pub fn invalidation_counter(&self) -> u64 {
        self.invalidation.load(Ordering::Acquire)
    }

    /// Advances the shootdown counter, preventing concurrent slowpath
    /// walks from publishing stale results (§3.2).
    #[inline]
    pub fn bump_invalidation(&self) -> u64 {
        self.invalidation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Invalidates cached prefix checks for `d` and every cached
    /// descendant by bumping their version counters; with `structural`
    /// also evicts them from the DLHT and clears their resumable hash
    /// states (rename / mount changes — the path strings themselves became
    /// stale). Returns the number of dentries visited — the linear cost
    /// the paper measures in Figure 7.
    pub fn shoot_subtree(&self, d: &Arc<Dentry>, structural: bool) -> u64 {
        let mut visited = 0u64;
        let mut stack = vec![d.clone()];
        while let Some(n) = stack.pop() {
            visited += 1;
            // Publish the edited snapshot before bumping the seq:
            // a lock-free reader that validates against the post-bump seq
            // must observe the post-shootdown snapshot.
            if structural {
                self.dlht_remove(&n);
                n.clear_hash_state();
            }
            n.bump_seq();
            stack.extend(n.children_snapshot());
        }
        self.stats.shootdowns.fetch_add(1, Ordering::Relaxed);
        self.stats
            .shootdown_visits
            .fetch_add(visited, Ordering::Relaxed);
        visited
    }

    // --- eviction -------------------------------------------------------------

    fn maybe_shrink(&self) {
        let live = self.live() as usize;
        if live > self.config.capacity {
            self.shrink(live - self.config.capacity + 64);
        }
        if let Some(budget) = self.config.mem_budget_bytes {
            // Cheap under-estimate (dentry structs only — no DLHT walk on
            // the alloc path). Once it trips, `shrink_to_bytes` does exact
            // accounting and evicts well below the trip point, so this
            // does not retrigger on every allocation.
            if live * std::mem::size_of::<Dentry>() > budget {
                self.shrink_to_bytes(budget as u64);
            }
        }
    }

    /// Evicts up to `target` unused leaf dentries in approximate LRU
    /// order. Returns how many were evicted.
    pub fn shrink(&self, target: usize) -> usize {
        let mut evicted_total = 0;
        // A few passes peel subtrees bottom-up: evicting leaves exposes
        // their parents as the next pass's leaves.
        for _ in 0..4 {
            if evicted_total >= target {
                break;
            }
            let budget = (target - evicted_total) * 8 + 32;
            let evicted = self.lru.scan(budget, |d| {
                if self.try_evict(d) {
                    EvictOutcome::Evicted
                } else {
                    EvictOutcome::Keep
                }
            });
            if evicted == 0 {
                break;
            }
            evicted_total += evicted;
        }
        evicted_total
    }

    fn try_evict(&self, d: &Arc<Dentry>) -> bool {
        // Evictable: hashed, a leaf, with no external references. The two
        // expected strong references are the parent's children map and the
        // scan's own handle. Root dentries (no parent) are pinned.
        if d.parent().is_none() || !d.has_no_children() {
            return false;
        }
        if Arc::strong_count(d) != 2 {
            return false;
        }
        self.unhash(d, true);
        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The cache's *reclaimable* footprint in bytes: dentry structs, DLHT
    /// bucket groups (walked — the fixed bucket arrays
    /// survive any shrink and are excluded; see [`Dcache::space_report`]
    /// for the full footprint), and occupied PCC lines. This is what a
    /// memory-pressure shrink can actually free, minus the pinned floor
    /// (roots, cwds, open files).
    pub fn reclaimable_bytes(&self) -> u64 {
        let mut group_bytes = 0u64;
        for t in self.dlhts.values() {
            group_bytes += t.footprint().reclaimable_bytes();
        }
        let mut pcc_bytes = 0u64;
        {
            let mut list = self.pccs.lock();
            list.retain(|s| s.pcc.strong_count() > 0);
            for slot in list.iter() {
                if let Some(pcc) = slot.pcc.upgrade() {
                    pcc_bytes += pcc.occupied_bytes() as u64;
                }
            }
        }
        self.live() * std::mem::size_of::<Dentry>() as u64 + group_bytes + pcc_bytes
    }

    /// Memory-pressure entry point: reclaims until the footprint measured
    /// by [`Dcache::reclaimable_bytes`] is at most `target_bytes`, or
    /// nothing evictable remains. Dentries go first (leaf-first LRU passes
    /// through the ordinary `unhash(reclaim)` coherence path — their DLHT
    /// slots go with them); if the cache is still over budget the
    /// PCCs are flushed. Returns the bytes actually freed.
    pub fn shrink_to_bytes(&self, target_bytes: u64) -> u64 {
        let before = self.reclaimable_bytes();
        if before <= target_bytes {
            return 0;
        }
        let per = std::mem::size_of::<Dentry>() as u64;
        // Bounded passes: pinned dentries can make the target unreachable.
        for _ in 0..8 {
            let now = self.reclaimable_bytes();
            if now <= target_bytes {
                break;
            }
            let goal = ((now - target_bytes) / per + 1) as usize;
            if self.shrink(goal) == 0 {
                break;
            }
        }
        let over = self.reclaimable_bytes().saturating_sub(target_bytes);
        if over > 0 {
            // Dentries alone couldn't get there (pinned floor): drain
            // PCC lines, coldest caches first, falling back to a full
            // flush only if the cold tail wasn't enough.
            self.flush_cold_pccs(over);
            if self.reclaimable_bytes() > target_bytes {
                self.flush_all_pccs();
            }
        }
        let freed = before.saturating_sub(self.reclaimable_bytes());
        self.stats.shrinks.fetch_add(1, Ordering::Relaxed);
        self.stats
            .shrink_bytes_freed
            .fetch_add(freed, Ordering::Relaxed);
        self.obs.event(|| TraceEvent::Shrink {
            target_bytes,
            freed_bytes: freed,
        });
        freed
    }

    /// Evicts everything evictable (the dcache half of a cold-cache
    /// reset). Pinned dentries (roots, cwds, open files) survive.
    pub fn drop_unused(&self) -> usize {
        let mut total = 0;
        loop {
            let n = self.shrink(usize::MAX / 16);
            if n == 0 {
                return total;
            }
            total += n;
        }
    }

    // --- reporting ---------------------------------------------------------

    /// Space-overhead report (§6.1). DLHT numbers come from walking the
    /// real buckets: exact head and group sizes, not stand-ins.
    pub fn space_report(&self) -> SpaceReport {
        let mut dlht_bytes = 0usize;
        let mut dlht_buckets = 0usize;
        let mut dlht_groups = 0u64;
        let mut dlht_entries = 0u64;
        let mut dlht_bucket_bytes = 0usize;
        let mut dlht_group_bytes = 0usize;
        for t in self.dlhts.values() {
            let fp = t.footprint();
            dlht_bytes += fp.total_bytes();
            dlht_buckets += fp.buckets;
            dlht_groups += fp.groups;
            dlht_entries += fp.entries;
            dlht_bucket_bytes = fp.bucket_bytes;
            dlht_group_bytes = fp.group_bytes;
        }
        let pccs = {
            let mut list = self.pccs.lock();
            list.retain(|s| s.pcc.strong_count() > 0);
            list.len()
        };
        SpaceReport {
            dentry_bytes: std::mem::size_of::<Dentry>(),
            live_dentries: self.live(),
            dlht_bytes,
            dlht_bucket_bytes,
            dlht_group_bytes,
            dlht_buckets,
            dlht_groups,
            dlht_entries,
            snap_slab_bytes: crate::snapslab::footprint().total_bytes(),
            pcc_bytes_each: Pcc::new(self.config.pcc_bytes).approx_bytes(),
            pccs,
        }
    }

    /// DLHT bucket occupancy aggregated over namespaces (§6.5).
    pub fn dlht_occupancy(&self) -> [u64; 4] {
        let mut total = [0u64; 4];
        for t in self.dlhts.values() {
            let o = t.occupancy();
            for i in 0..4 {
                total[i] += o[i];
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dentry::DentryKind;
    use dc_blockdev::{CachedDisk, DiskConfig};
    use dc_fs::{FileSystem, MemFs};

    fn cache(config: DcacheConfig) -> Arc<Dcache> {
        Dcache::new(config.with_seed(42))
    }

    fn root_inode(dc: &Dcache) -> Arc<Inode> {
        let disk = Arc::new(CachedDisk::new(DiskConfig {
            capacity_blocks: 4096,
            ..Default::default()
        }));
        let fs = MemFs::mkfs(
            disk,
            dc_fs::MemFsConfig {
                max_inodes: 4096,
                ..Default::default()
            },
        )
        .unwrap();
        let attr = fs.getattr(fs.root_ino()).unwrap();
        let _ = dc;
        Inode::new(1, fs, attr)
    }

    fn neg(dc: &Dcache, parent: &Arc<Dentry>, name: &str) -> Arc<Dentry> {
        dc.d_alloc(parent, name, DentryState::Negative(NegKind::Enoent))
    }

    #[test]
    fn alloc_and_lookup_children() {
        let dc = cache(DcacheConfig::optimized());
        let root = dc.new_root(1, root_inode(&dc));
        let etc = neg(&dc, &root, "etc");
        assert_eq!(dc.d_lookup(&root, "etc").unwrap().id(), etc.id());
        assert!(dc.d_lookup(&root, "usr").is_none());
        assert_eq!(dc.live(), 2);
    }

    #[test]
    fn unhash_removes_and_is_idempotent() {
        let dc = cache(DcacheConfig::optimized());
        let root = dc.new_root(1, root_inode(&dc));
        let d = neg(&dc, &root, "x");
        dc.unhash(&d, false);
        assert!(dc.d_lookup(&root, "x").is_none());
        assert!(d.is_dead());
        let live = dc.live();
        dc.unhash(&d, false);
        assert_eq!(dc.live(), live, "double unhash must not double count");
    }

    #[test]
    fn reclaim_unhash_breaks_completeness() {
        let dc = cache(DcacheConfig::optimized());
        let root = dc.new_root(1, root_inode(&dc));
        let d = neg(&dc, &root, "x");
        root.set_flag(FLAG_DIR_COMPLETE);
        let gen_before = root.child_evict_gen();
        dc.unhash(&d, true);
        assert!(!root.flag(FLAG_DIR_COMPLETE));
        assert!(root.child_evict_gen() > gen_before);
        // A deletion-driven unhash leaves completeness alone.
        let e = neg(&dc, &root, "y");
        root.set_flag(FLAG_DIR_COMPLETE);
        dc.unhash(&e, false);
        assert!(root.flag(FLAG_DIR_COMPLETE));
    }

    #[test]
    fn dlht_membership_moves_between_signatures() {
        let dc = cache(DcacheConfig::optimized());
        let root = dc.new_root(1, root_inode(&dc));
        let d = neg(&dc, &root, "f");
        let sig_a = dc.key.hash_components([b"a".as_slice()]);
        let sig_b = dc.key.hash_components([b"b".as_slice()]);
        assert!(dc.dlht_insert(0, sig_a, &d));
        assert!(dc.dlht_lookup(0, &sig_a).is_some());
        // Re-publishing under another namespace moves the single entry.
        assert!(dc.dlht_insert(7, sig_b, &d));
        assert!(dc.dlht_lookup(0, &sig_a).is_none());
        assert_eq!(dc.dlht_lookup(7, &sig_b).unwrap().id(), d.id());
        dc.dlht_remove(&d);
        assert!(dc.dlht_lookup(7, &sig_b).is_none());
    }

    #[test]
    fn shoot_subtree_counts_and_invalidates() {
        let dc = cache(DcacheConfig::optimized());
        let root = dc.new_root(1, root_inode(&dc));
        let a = neg(&dc, &root, "a");
        let b = neg(&dc, &a, "b");
        let c = neg(&dc, &b, "c");
        let sig = dc.key.hash_components([b"a".as_slice(), b"b".as_slice()]);
        dc.dlht_insert(0, sig, &b);
        b.sign(Some(dc.key.root_state()), 1);
        let seqs = [a.seq(), b.seq(), c.seq()];
        let visited = dc.shoot_subtree(&a, true);
        assert_eq!(visited, 3);
        assert_eq!(a.seq(), seqs[0] + 1);
        assert_eq!(b.seq(), seqs[1] + 1);
        assert_eq!(c.seq(), seqs[2] + 1);
        assert!(dc.dlht_lookup(0, &sig).is_none());
        assert!(b.view(&crossbeam_epoch::pin()).hash_state.is_none());
        // Non-structural shootdown bumps seqs but keeps DLHT entries.
        dc.dlht_insert(0, sig, &b);
        dc.shoot_subtree(&a, false);
        assert!(dc.dlht_lookup(0, &sig).is_some());
    }

    #[test]
    fn make_negative_drops_stale_children() {
        let dc = cache(DcacheConfig::optimized());
        let root = dc.new_root(1, root_inode(&dc));
        let f = neg(&dc, &root, "file");
        let deep = dc.d_alloc(&f, "below", DentryState::Negative(NegKind::Enotdir));
        dc.make_negative(&f, NegKind::Enoent);
        assert_eq!(f.kind(), DentryKind::Negative(NegKind::Enoent));
        assert!(deep.is_dead());
        assert!(f.get_child("below").is_none());
    }

    #[test]
    fn capacity_pressure_evicts_leaves_only() {
        let dc = cache(DcacheConfig::optimized().with_capacity(64));
        let root = dc.new_root(1, root_inode(&dc));
        // Build 16 dirs × 16 children; interior dirs must survive while
        // they have cached children.
        let mut dirs = Vec::new();
        for i in 0..16 {
            let d = neg(&dc, &root, &format!("d{i}"));
            for j in 0..16 {
                neg(&dc, &d, &format!("f{j}"));
            }
            dirs.push(d);
        }
        assert!(
            dc.live() <= 64 + 64 + 1,
            "eviction kept the cache near capacity (live={})",
            dc.live()
        );
        // Held references (dirs vec) are never evicted.
        for d in &dirs {
            assert!(!d.is_dead());
        }
    }

    #[test]
    fn drop_unused_empties_everything_unpinned() {
        let dc = cache(DcacheConfig::optimized());
        let root = dc.new_root(1, root_inode(&dc));
        {
            let a = neg(&dc, &root, "a");
            let _b = neg(&dc, &a, "b");
            let _c = neg(&dc, &root, "c");
        }
        assert_eq!(dc.live(), 4);
        let evicted = dc.drop_unused();
        assert_eq!(evicted, 3);
        assert_eq!(dc.live(), 1, "only the pinned root remains");
        assert!(!root.is_dead());
    }

    #[test]
    fn shrink_to_bytes_reclaims_to_budget() {
        let dc = cache(DcacheConfig::optimized());
        let root = dc.new_root(1, root_inode(&dc));
        for i in 0..512 {
            neg(&dc, &root, &format!("f{i}"));
        }
        let before = dc.reclaimable_bytes();
        let budget = before / 4;
        let freed = dc.shrink_to_bytes(budget);
        assert!(freed > 0);
        assert!(dc.reclaimable_bytes() <= budget);
        assert!(!root.is_dead(), "pinned root survives pressure");
        assert_eq!(dc.stats.shrinks.load(Ordering::Relaxed), 1);
        assert_eq!(
            dc.stats.shrink_bytes_freed.load(Ordering::Relaxed),
            freed,
            "freed-bytes counter matches the return value"
        );
    }

    #[test]
    fn shrink_to_bytes_under_budget_is_free() {
        let dc = cache(DcacheConfig::optimized());
        let root = dc.new_root(1, root_inode(&dc));
        neg(&dc, &root, "only");
        assert_eq!(dc.shrink_to_bytes(u64::MAX), 0);
        assert_eq!(dc.stats.shrinks.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn shrink_to_bytes_flushes_pccs_as_last_resort() {
        let dc = cache(DcacheConfig::optimized());
        let root = dc.new_root(1, root_inode(&dc));
        let held: Vec<_> = (0..64).map(|i| neg(&dc, &root, &format!("f{i}"))).collect();
        let cred = dc_cred::Cred::user(1000, 1000);
        let pcc = dc.pcc_for(&cred, 0);
        for d in &held {
            pcc.insert(d.id(), d.seq());
        }
        assert!(pcc.occupied_bytes() > 0);
        // Every dentry is pinned by `held`, so only the PCC can give
        // memory back.
        dc.shrink_to_bytes(0);
        assert_eq!(pcc.occupied_bytes(), 0, "PCC lines were reclaimed");
        for d in &held {
            assert!(!d.is_dead(), "pinned dentries survive");
        }
    }

    #[test]
    fn mem_budget_triggers_auto_shrink() {
        let budget = 64 * 1024;
        let dc = cache(DcacheConfig::optimized().with_mem_budget(budget));
        let root = dc.new_root(1, root_inode(&dc));
        for i in 0..4096 {
            neg(&dc, &root, &format!("f{i}"));
        }
        assert!(
            dc.stats.shrinks.load(Ordering::Relaxed) > 0,
            "budget pressure fired at least once"
        );
        assert!(
            dc.live() as usize * std::mem::size_of::<Dentry>() <= budget,
            "cache stayed within budget (live={})",
            dc.live()
        );
    }

    #[test]
    fn pin_nests_and_unwinds() {
        let dc = cache(DcacheConfig::optimized());
        assert!(!crossbeam_epoch::is_pinned());
        {
            let _outer = dc.pin();
            assert!(crossbeam_epoch::is_pinned());
            drop(dc.pin());
            assert!(crossbeam_epoch::is_pinned());
        }
        assert!(!crossbeam_epoch::is_pinned());
    }

    #[test]
    fn only_the_outermost_pin_is_accounted() {
        let dc = cache(DcacheConfig::optimized());
        {
            let _outer = dc.pin();
            let _inner = dc.pin();
        }
        assert_eq!(dc.stats.epoch_pins.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_pin_is_per_thread() {
        let dc = cache(DcacheConfig::optimized());
        let _pin = dc.pin();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!crossbeam_epoch::is_pinned());
                drop(dc.pin());
            });
        });
        assert_eq!(dc.stats.epoch_pins.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pcc_sharing_follows_cred_and_namespace() {
        let dc = cache(DcacheConfig::optimized());
        let cred = dc_cred::Cred::user(1000, 1000);
        let p1 = dc.pcc_for(&cred, 0);
        let p2 = dc.pcc_for(&cred, 0);
        assert!(Arc::ptr_eq(&p1, &p2), "same cred+ns share a PCC");
        let p3 = dc.pcc_for(&cred, 1);
        assert!(!Arc::ptr_eq(&p1, &p3), "namespaces get private PCCs");
        let other = dc_cred::Cred::user(1000, 1000);
        let p4 = dc.pcc_for(&other, 0);
        assert!(
            !Arc::ptr_eq(&p1, &p4),
            "distinct cred objects get their own"
        );
        // Global flush reaches them all.
        p1.insert(5, 1);
        p4.insert(6, 1);
        dc.flush_all_pccs();
        assert!(!p1.check(5, 1));
        assert!(!p4.check(6, 1));
    }

    #[test]
    fn invalidation_counter_monotone() {
        let dc = cache(DcacheConfig::optimized());
        let a = dc.invalidation_counter();
        let b = dc.bump_invalidation();
        assert!(b > a);
        assert_eq!(dc.invalidation_counter(), b);
    }
}
