//! The coherence protocol of §3.2, in one place. A lookup skips the walk
//! on a dentry's signature (its DLHT entry and hash state), a memoized
//! prefix check (a PCC entry `(id, seq)`) and the dentry's block
//! ([`DentrySnap`]). Every change that can falsify one is a
//! [`Dcache::shootdown`], every fact a slow walk caches goes through
//! [`Publications`], and every fast answer comes from
//! [`Dcache::validate`] or [`vouched`]. `dc-vfs` passes in what only it
//! knows (mount edges, a block's signing mount, permission) as values
//! and closures.
//!
//! A dentry's `seq` moves whenever a prefix check through it may have
//! become false, and a PCC entry answers only at the seq it memoized, so
//! one bump kills the entry in every credential's PCC. The invalidation
//! counter moves at the end of every shootdown: a slow walk samples it
//! before it reads anything and publishes only if it has not moved.
//! Checked, then published, with shootdowns excluded: a shootdown
//! write-holds the cache's `shooting` lock across its walk and its bump,
//! and [`Publications::apply`] read-holds it across the comparison and
//! the publication. So a walk either publishes before a shootdown begins
//! (which then evicts what it published), or began before the bump and
//! publishes nothing, or began after it and read only what the shootdown
//! left. The bump comes last: a walk that sampled the counter mid-way
//! could have read a hash state the shootdown had yet to clear (model (c)
//! in `crates/dst/tests/coherence_model.rs` finds that order). Lock order:
//! `rename_lock`'s write side, then `shooting` (a rename's shootdown, the
//! slow walk's writer-excluding fallback). Slow walks and revalidation
//! climbs also validate against the `rename_lock` structural changes
//! write-hold.
//!
//! **The seq sandwich.** A reader samples `seq`, reads the block once,
//! and answers from that read only if the dentry is alive and `seq` has
//! not moved. A writer publishes the edited block first (copy, edit,
//! `AcqRel` swap under the dentry's edge lock, so racing edits compose)
//! and bumps `seq` after (an `AcqRel` RMW: one modification order per
//! counter, which the PCC's exact-equality check relies on). A reader
//! whose samples agree raced no acknowledged change — the window a
//! concurrent `chmod` may occupy; bump-then-publish would pair the new seq
//! with the old block (`seqlock_model.rs` catches it). Facts read together
//! (a hash state and its mount, a link signature and it) share one block.
//!
//! **`rename_lock`'s orderings.** `read_begin` loads `Acquire` until even;
//! `read_retry` issues `fence(Acquire)` before its `Relaxed` load, so no
//! data load of the section is satisfied after the validating one.
//! `write_begin` is a `Release` increment then `fence(Release)`, so the
//! odd value precedes the section's stores; `write_end` is a `Release`
//! increment. Validated means every data load saw memory from before any
//! overlapping write (Linux's `read_seqbegin` / `read_seqretry`).

use crate::cache::Dcache;
use crate::dentry::{Dentry, DentryId, DentryKind, DentrySnap};
use crate::dlht::Dlht;
use crate::dsync::Ordering;
use crate::inode::Inode;
use crate::pcc::Pcc;
use crate::scratch::{InlineVec, INLINE_COMPONENTS};
use crossbeam_epoch::Guard;
use dc_fs::{FileType, FsError, FsResult};
use dc_obs::TraceEvent;
use dc_sighash::{HashState, Signature};
use std::collections::HashSet;
use std::sync::Arc;

/// Maximum symlink-signature chain length on the fastpath.
const MAX_LINK_CHAIN: u32 = 40;

/// Restarts after a seq mismatch before the fastpath gives up.
const MAX_READ_RETRIES: u32 = 3;

/// The far half of the seq sandwich.
#[inline]
fn unmoved(d: &Dentry, seq: u64) -> bool {
    !d.is_dead() && d.seq() == seq
}

/// The seq sandwich for a reader with no miss path of its own: `read`'s
/// answer from one read of `d`'s block, if `pcc` vouches for `d` at the
/// seq sampled before that read and the seq still holds after it.
#[inline]
pub fn vouched<'a, T>(
    pcc: &Pcc,
    d: &'a Dentry,
    guard: &'a Guard,
    read: impl FnOnce(&'a DentrySnap) -> Option<T>,
) -> Option<T> {
    let seq = d.seq();
    let seen = d.view(guard);
    if !pcc.check(d.id(), seq) {
        return None;
    }
    let out = read(seen)?;
    unmoved(d, seq).then_some(out)
}

/// A slow walk's publications: queued while it walks, applied once it
/// validated, and only if no shootdown ran since it began — checked and
/// published under `shooting`'s read side, after `rename_lock`'s write
/// side if the walk holds that.
pub struct Publications<'d> {
    dcache: &'d Dcache,
    inv0: u64,
    /// `None` when the walk may not memoize prefix checks.
    pcc: Option<Arc<Pcc>>,
    entries: Vec<(Arc<Dentry>, Signature, HashState, u64)>,
    memos: Vec<(DentryId, u64)>,
    /// Symlink target signatures as read through one mount (§4.2): applied
    /// after the entries, whose re-signing clears an earlier walk's.
    links: Vec<(Arc<Dentry>, Signature, u64)>,
}

impl Publications<'_> {
    /// Queues what a walk learned of `d`, reached through `mount` by the
    /// path whose hash state is `state`: its prefix check, unless its seq
    /// is memoized already (repeated walks would re-publish every
    /// component), and its DLHT entry, unless `d` holds that state (a
    /// stored state and the entry under its signature come and go
    /// together).
    pub fn add(&mut self, d: &Arc<Dentry>, state: HashState, mount: u64) {
        if let Some(pcc) = &self.pcc {
            let seq = d.seq();
            if !pcc.check(d.id(), seq) {
                self.memos.push((d.id(), seq));
            }
        }
        if d.hash_state_via(mount) != Some(state) {
            let sig = self.dcache.key.finish(&state);
            self.entries.push((d.clone(), sig, state, mount));
        }
    }

    /// Queues a symlink's target signature as read through `mount`.
    pub fn link(&mut self, link: Arc<Dentry>, sig: Signature, mount: u64) {
        self.links.push((link, sig, mount));
    }

    /// Applies the queue unless the invalidation counter moved since the
    /// walk began; an empty queue takes no lock. `table` (a namespace's
    /// memoized handle: a walk racing teardown publishes into the dying
    /// table, never a revived one) is resolved only if a dentry is to be
    /// entered.
    pub fn apply<'t>(self, table: impl FnOnce() -> &'t Arc<Dlht>) {
        if self.entries.is_empty() && self.memos.is_empty() && self.links.is_empty() {
            return;
        }
        let _no_shootdown = self.dcache.shooting.read();
        if self.dcache.invalidation_counter() != self.inv0 {
            return;
        }
        if !self.entries.is_empty() {
            let table = table();
            for (d, sig, state, mount) in &self.entries {
                d.sign(Some(*state), *mount);
                self.dcache.dlht_insert_in(table, *sig, d);
            }
        }
        if let Some(pcc) = &self.pcc {
            for &(id, seq) in &self.memos {
                pcc.insert(id, seq);
            }
        }
        for (link, sig, mount) in &self.links {
            link.store_link_sig(*sig, *mount);
        }
    }
}

impl Dcache {
    #[inline]
    pub(crate) fn invalidation_counter(&self) -> u64 {
        self.invalidation.load(Ordering::Acquire)
    }

    pub(crate) fn bump_invalidation(&self) -> u64 {
        self.invalidation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// One shootdown, slow walks' publication excluded throughout: shoots
    /// `tops`' cached subtrees and, through `mounts` (every namespace's
    /// (mountpoint, mount root) edges), the trees mounted inside them,
    /// then bumps the invalidation counter.
    /// `structural` (rename, mount changes: paths moved) also evicts them
    /// from the DLHT and clears their hash states; otherwise (`chmod`,
    /// `chown`) only their prefix checks die. The baseline reads no seq,
    /// DLHT entry or hash state, so it shoots nothing. An unmount shoots
    /// the mount's tree, not the mountpoint: mounting shot that, and while
    /// covered nothing in its namespace signs it or memoizes its check.
    pub fn shootdown<'a>(
        &self,
        tops: impl IntoIterator<Item = &'a Arc<Dentry>>,
        structural: bool,
        mounts: &[(Arc<Dentry>, Arc<Dentry>)],
    ) {
        if !self.config.fastpath {
            return;
        }
        let _no_publication = self.shooting.write();
        let mut seen = HashSet::new();
        let mut stack: Vec<Arc<Dentry>> = tops.into_iter().cloned().collect();
        while let Some(top) = stack.pop() {
            if !seen.insert(top.id()) {
                continue;
            }
            self.shoot_subtree(&top, structural);
            let within = |mp: &Arc<Dentry>| {
                std::iter::successors(Some(mp.clone()), |d| d.parent())
                    .any(|d| Arc::ptr_eq(&d, &top))
            };
            let below = mounts.iter().filter(|(mp, _)| within(mp));
            stack.extend(below.map(|(_, root)| root.clone()));
        }
        self.bump_invalidation();
    }

    /// Invalidates cached prefix checks for `d` and every cached
    /// descendant by bumping their version counters; with `structural`
    /// also evicts them from the DLHT and clears their resumable hash
    /// states. Returns the number of dentries visited — the linear cost
    /// the paper measures in Figure 7.
    pub fn shoot_subtree(&self, d: &Arc<Dentry>, structural: bool) -> u64 {
        let mut visited = 0u64;
        let mut stack = vec![d.clone()];
        while let Some(n) = stack.pop() {
            visited += 1;
            // Publish the edited block before bumping the seq: a reader
            // that validates against the post-bump seq must observe the
            // post-shootdown block.
            if structural {
                self.dlht_remove(&n);
                n.clear_hash_state();
            }
            n.bump_seq();
            stack.extend(n.children_snapshot());
        }
        let stats = &self.stats;
        stats.shootdowns.fetch_add(1, Ordering::Relaxed);
        stats.shootdown_visits.fetch_add(visited, Ordering::Relaxed);
        visited
    }

    /// Opens a slow walk's queue: samples the invalidation counter, then
    /// lets the walk memoize prefix checks into `pcc` only if it starts at
    /// the namespace `root` or at an `anchor` `pcc` vouches for — every
    /// memoized check starts at the root (§3.2's directory references).
    pub fn publications(
        &self,
        pcc: Option<Arc<Pcc>>,
        anchor: &Dentry,
        root: bool,
    ) -> Publications<'_> {
        let inv0 = self.invalidation_counter();
        let pcc = pcc.filter(|p| root || p.check(anchor.id(), anchor.seq()));
        Publications {
            dcache: self,
            inv0,
            pcc,
            entries: Vec::new(),
            memos: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Signs a mount's root through `mount`, with no state yet, dropping
    /// whatever another mount of its superblock left (§4.3).
    pub fn sign_mount_root(&self, root: &Dentry, mount: u64) {
        root.sign(None, mount);
    }

    /// Stores a hash state rebuilt from `d`'s ancestors into an empty slot
    /// only: the first signer keeps it, and an empty slot means no DLHT
    /// entry either, so nothing is contradicted.
    pub fn sign_unsigned(&self, d: &Dentry, state: HashState, mount: u64, guard: &Guard) {
        if d.view(guard).hash_state.is_none() {
            d.sign(Some(state), mount);
        }
    }

    /// A fast lookup's validation (§3.1): probes `dlht` for `sig` and
    /// answers (`Some(Err)`, e.g. a negative hit, is definitive) or not
    /// (`None`: walk), from one seq sample and one block read per dentry.
    /// A stale PCC entry is [revalidated](Dcache::revalidate): a live DLHT
    /// entry proves the path maps to the dentry, as structural changes
    /// evict before they mutate. Aliases and, with `follow_last`, a final
    /// symlink's target signature are followed only under the namespace
    /// root (`plain_root`), which their translation was read under; an
    /// alias speaks for a target that has not moved and is signed through
    /// its mount. `mount_of(d, id)` is mount `id` if it still serves `d`.
    /// Generic: the warm hit compiles into the caller.
    #[inline]
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    pub fn validate<'g, M>(
        &self,
        dlht: &Dlht,
        pcc: &Pcc,
        sig: &Signature,
        follow_last: bool,
        require_dir: bool,
        plain_root: bool,
        guard: &'g Guard,
        mount_of: impl Fn(&Dentry, u64) -> Option<&'g M>,
        mut climb: impl FnMut(&Arc<Dentry>, u64, &mut dyn FnMut(&Dentry, u64) -> bool) -> Option<()>,
    ) -> Option<FsResult<(&'g M, Arc<Dentry>, Arc<Inode>)>> {
        let stats = &self.stats;
        'restart: for _ in 0..MAX_READ_RETRIES {
            let Some(mut obj) = self.dlht_lookup_in(dlht, sig, guard) else {
                stats.fast_miss_dlht.fetch_add(1, Ordering::Relaxed);
                return None;
            };
            if self.config.fastpath_always_miss {
                // Figure 6 synthetic: pay the whole fastpath, then miss at
                // the PCC and fall back.
                stats.fast_miss_pcc.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            // Set when an alias led to `obj`: the seq and the mount the
            // alias recorded for it.
            let mut via: Option<(u64, u64)> = None;
            for _ in 0..MAX_LINK_CHAIN {
                let seq = obj.seq();
                let seen = obj.view(guard);
                if let Some((target_seq, mount)) = via {
                    if obj.is_dead() || seq != target_seq || seen.mount != mount {
                        stats.fast_miss_seq.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                }
                if !pcc.check(obj.id(), seq) {
                    if !self.revalidate(pcc, &obj, seen.mount, seq, &mut climb) {
                        stats.fast_miss_pcc.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                    stats.fast_revalidations.fetch_add(1, Ordering::Relaxed);
                }
                let hit = match seen.kind() {
                    DentryKind::Alias => {
                        let (target, target_seq) = seen.alias_target()?;
                        if !plain_root {
                            return None;
                        }
                        via = Some((target_seq, seen.mount));
                        obj = target;
                        continue;
                    }
                    DentryKind::Positive {
                        ftype: FileType::Symlink,
                        ..
                    } if follow_last => {
                        if !plain_root {
                            return None;
                        }
                        let lsig = seen.link_sig?;
                        let Some(next) = self.dlht_lookup_in(dlht, &lsig, guard) else {
                            stats.fast_miss_dlht.fetch_add(1, Ordering::Relaxed);
                            return None;
                        };
                        via = None;
                        obj = next;
                        continue;
                    }
                    DentryKind::Negative(kind) if self.config.negative_dentries => Err(kind),
                    DentryKind::Negative(_) | DentryKind::Partial { .. } => return None,
                    DentryKind::Positive { ftype, .. } => {
                        let inode = seen.inode()?.clone();
                        Ok((ftype, inode, mount_of(&obj, seen.mount)?))
                    }
                };
                if !unmoved(&obj, seq) {
                    stats.read_retries.fetch_add(1, Ordering::Relaxed);
                    self.obs.event(|| TraceEvent::ReadRetry);
                    continue 'restart;
                }
                return Some(match hit {
                    Err(kind) => {
                        stats.fast_neg_hits.fetch_add(1, Ordering::Relaxed);
                        stats.fast_hits.fetch_add(1, Ordering::Relaxed);
                        Err(kind.error())
                    }
                    Ok((ftype, ..)) if require_dir && ftype != FileType::Directory => {
                        Err(FsError::NotDir)
                    }
                    Ok((_, inode, mount)) => {
                        stats.fast_hits.fetch_add(1, Ordering::Relaxed);
                        Ok((mount, obj, inode))
                    }
                });
            }
            return Some(Err(FsError::Loop));
        }
        None
    }

    /// Re-executes `obj`'s prefix check over its cached ancestors: a PCC
    /// miss may only mean it "has not executed recently" (§3.1). `climb`
    /// checks each ancestor, its seq sampled before it is read, up to one
    /// `memoized` by an earlier climb. The leaf is memoized if unmoved, the
    /// directories if no rename overlapped: `chmod` changes bits before it
    /// shoots, so a sample of the old bits dies, but a rename shoots before
    /// it moves, and a directory sampled in between would keep the old
    /// ancestors' verdict (the leaf, out of the DLHT first, cannot).
    fn revalidate(
        &self,
        pcc: &Pcc,
        obj: &Arc<Dentry>,
        signed_via: u64,
        seq: u64,
        climb: &mut impl FnMut(&Arc<Dentry>, u64, &mut dyn FnMut(&Dentry, u64) -> bool) -> Option<()>,
    ) -> bool {
        let renames = self.rename_lock.try_read_begin();
        let mut climbed: InlineVec<(DentryId, u64), INLINE_COMPONENTS> = InlineVec::new();
        let passed = climb(obj, signed_via, &mut |dir, dir_seq| {
            let memoized = pcc.check_dir(dir.id(), dir_seq);
            if !memoized {
                climbed.push((dir.id(), dir_seq));
            }
            memoized
        });
        if passed.is_none() || !unmoved(obj, seq) {
            return false;
        }
        pcc.insert(obj.id(), seq);
        if renames.is_some_and(|r| !self.rename_lock.read_retry(r)) {
            for &(id, dir_seq) in climbed.iter() {
                pcc.insert_dir(id, dir_seq);
            }
        }
        true
    }
}
