//! The coherence protocol of §3.2, in one place. A lookup skips the walk
//! on a dentry's signature (its DLHT entry and hash state), its
//! directory's memoized prefix check (a PCC entry `(id, seq)`) and the
//! dentry's block ([`DentrySnap`]). Every change that can falsify one is a
//! [`Dcache::shootdown`], every fact a slow walk caches goes through
//! [`Publications`], every fast answer comes from [`Dcache::validate`],
//! and every prefix check is its climb ([`Dcache::anchored`] asks it with
//! no probe). `dc-vfs` passes in what only it knows (mount edges, a
//! block's signing mount, permission) as values and closures.
//!
//! A dentry's `seq` moves whenever a prefix check through it may have
//! become false, and a PCC entry answers only at the seq it memoized, so
//! one bump kills the entry in every credential's PCC. The invalidation
//! counter moves at the end of every shootdown: a slow walk samples it
//! before it reads anything and publishes only if it has not moved.
//! A directory's memo speaks for the path it is signed with: while its
//! seq holds one value it holds at most one hash state ([`Dentry::sign`]),
//! a walk memoizes it only if it holds the state of the path the walk
//! searched it by, and a climb reads that state between two samples of
//! the seq it probes at.
//!
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
use crate::dentry::{Dentry, DentryKind, DentrySnap};
use crate::dlht::Dlht;
use crate::dsync::Ordering;
use crate::inode::Inode;
use crate::pcc::Pcc;
use crate::scratch::{InlineVec, INLINE_COMPONENTS};
use crate::stats::Counter;
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
    memos: Vec<(Arc<Dentry>, HashState, u64)>,
    /// Symlink target signatures as read through one mount (§4.2): applied
    /// after the entries, whose re-signing clears an earlier walk's.
    links: Vec<(Arc<Dentry>, Signature, u64)>,
}

impl Publications<'_> {
    /// Queues `d`'s DLHT entry, reached through `mount` by the path whose
    /// hash state is `state`, unless `d` holds that state (a stored state
    /// and the entry under its signature come and go together).
    pub fn add(&mut self, d: &Arc<Dentry>, state: HashState, mount: u64) {
        if d.hash_state_via(mount) != Some(state) {
            let sig = self.dcache.key.finish(&state);
            self.entries.push((d.clone(), sig, state, mount));
        }
    }

    /// Queues the prefix check of `dir`, about to be searched by the path
    /// hashed in `path`, unless memoized already (repeated walks would
    /// re-publish it). It is memoized only if `dir` holds `path` once the
    /// walk's entries are applied, at the seq it has now.
    pub fn searched(&mut self, dir: &Arc<Dentry>, path: &HashState) {
        let seq = dir.seq();
        if self
            .pcc
            .as_ref()
            .is_some_and(|pcc| !pcc.check(dir.id(), seq))
        {
            self.memos.push((dir.clone(), *path, seq));
        }
    }

    /// Queues a symlink's target signature as read through `mount`.
    pub fn link(&mut self, link: Arc<Dentry>, sig: Signature, mount: u64) {
        self.links.push((link, sig, mount));
    }

    /// Memoizes nothing unless `anchored` holds for the walk's PCC: a walk
    /// moving to a new anchor (a process root an absolute link jumps to)
    /// asks its prefix check as it asked its first anchor's.
    pub fn anchor(&mut self, anchored: impl FnOnce(&Pcc) -> bool) {
        self.pcc = self.pcc.take().filter(|p| anchored(p));
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
            let guard = &crossbeam_epoch::pin();
            for (dir, path, seq) in &self.memos {
                let held = dir.seq() == *seq && dir.view(guard).hash_state == Some(*path);
                if held && unmoved(dir, *seq) {
                    pcc.insert(dir.id(), *seq);
                }
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
            // post-shootdown block. Clearing a state bumps it already.
            let cleared = structural && {
                self.dlht_remove(&n);
                n.clear_hash_state()
            };
            if !cleared {
                n.bump_seq();
            }
            stack.extend(n.children_snapshot());
        }
        let stats = &self.stats;
        stats.shootdowns.fetch_add(1, Ordering::Relaxed);
        stats.shootdown_visits.fetch_add(visited, Ordering::Relaxed);
        visited
    }

    /// Opens a slow walk's queue: samples the invalidation counter, then
    /// (fields are evaluated in order) lets the walk memoize prefix checks
    /// into `pcc` only if its anchor is `anchored` there
    /// ([`Dcache::anchored`]) — every memoized check starts at the root
    /// (§3.2's directory references). A shootdown that falsifies the
    /// anchor's check after the sample stops the queue.
    pub fn publications(
        &self,
        pcc: Option<Arc<Pcc>>,
        anchored: impl FnOnce(&Pcc) -> bool,
    ) -> Publications<'_> {
        Publications {
            dcache: self,
            inv0: self.invalidation_counter(),
            pcc: pcc.filter(|p| anchored(p)),
            entries: Vec::new(),
            memos: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Signs a mount's root through `mount` (the namespace root with the
    /// root state), dropping whatever another mount of its superblock left
    /// (§4.3).
    pub fn sign_mount_root(&self, root: &Dentry, mount: u64, ns_root: bool) {
        root.sign(ns_root.then(|| self.key.root_state()), mount);
    }

    /// A fast lookup's validation (§3.1): probes `dlht` for `sig` and
    /// answers (`Some(Err)`, e.g. a negative hit, is definitive) or not
    /// (`None`: walk), from one seq sample and one block read per dentry,
    /// each [prefix-checked](Dcache::prefix_checked) at the directory
    /// that holds it: a DLHT entry found under a signature the block's
    /// hash state finishes to proves the path maps to the dentry, as
    /// structural changes evict before they mutate. Aliases
    /// and, with `follow_last`, a final symlink's target signature are
    /// followed only under the namespace root (`plain_root`), which their
    /// translation was read under; an alias speaks for a target that has
    /// not moved and is signed through its mount. `mount_of(d, id)` is
    /// mount `id` if it still serves `d`, `edge(m)` its root and what is
    /// above it, `search(i)` a climb's permission to pass directory `i`.
    /// The lookup counters count a `lookup` only, not a walk asking for a
    /// directory (its resume, a POSIX `..`). Generic: the warm hit
    /// compiles into the caller.
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
        lookup: bool,
        guard: &'g Guard,
        mount_of: impl Fn(&Dentry, u64) -> Option<&'g M>,
        edge: impl Fn(&'g M) -> (&'g Arc<Dentry>, Option<&'g (M, Arc<Dentry>)>),
        search: impl Fn(&Inode) -> bool,
    ) -> Option<FsResult<(&'g M, Arc<Dentry>, Arc<Inode>)>> {
        let stats = &self.stats;
        let count = |c: &Counter| lookup.then(|| c.fetch_add(1, Ordering::Relaxed));
        'restart: for _ in 0..MAX_READ_RETRIES {
            let Some(mut obj) = self.dlht_lookup_in(dlht, sig, guard) else {
                count(&stats.fast_miss_dlht);
                return None;
            };
            if self.config.fastpath_always_miss {
                // Figure 6 synthetic: pay the whole fastpath, then miss at
                // the PCC and fall back.
                count(&stats.fast_miss_pcc);
                return None;
            }
            // Set when an alias led to `obj`: the seq and the mount the
            // alias recorded for it.
            let mut via: Option<(u64, u64)> = None;
            // The signature `obj` was found under, if a probe found it.
            let mut probed = Some(*sig);
            for _ in 0..MAX_LINK_CHAIN {
                let seq = obj.seq();
                let seen = obj.view(guard);
                if let Some((target_seq, mount)) = via {
                    if obj.is_dead() || seq != target_seq || seen.mount != mount {
                        count(&stats.fast_miss_seq);
                        return None;
                    }
                }
                let checked = mount_of(&obj, seen.mount).filter(|&m| {
                    self.prefix_checked(pcc, &obj, seen, probed, m, &edge, &search, guard)
                });
                let Some(mount) = checked else {
                    count(&stats.fast_miss_pcc);
                    return None;
                };
                let hit = match seen.kind() {
                    DentryKind::Alias => {
                        let (target, target_seq) = seen.alias_target()?;
                        if !plain_root {
                            return None;
                        }
                        via = Some((target_seq, seen.mount));
                        probed = None;
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
                        let lsig = *seen.link_sig.as_deref()?;
                        let Some(next) = self.dlht_lookup_in(dlht, &lsig, guard) else {
                            count(&stats.fast_miss_dlht);
                            return None;
                        };
                        via = None;
                        probed = Some(lsig);
                        obj = next;
                        continue;
                    }
                    DentryKind::Negative(kind) if self.config.negative_dentries => Err(kind),
                    DentryKind::Negative(_) | DentryKind::Partial { .. } => return None,
                    DentryKind::Positive { ftype, .. } => {
                        let inode = seen.inode()?.clone();
                        Ok((ftype, inode, mount))
                    }
                };
                if !unmoved(&obj, seq) {
                    count(&stats.read_retries);
                    if lookup {
                        self.obs.event(|| TraceEvent::ReadRetry);
                    }
                    continue 'restart;
                }
                return Some(match hit {
                    Err(kind) => {
                        count(&stats.fast_neg_hits);
                        count(&stats.fast_hits);
                        Err(kind.error())
                    }
                    Ok((ftype, ..)) if require_dir && ftype != FileType::Directory => {
                        Err(FsError::NotDir)
                    }
                    Ok((_, inode, mount)) => {
                        count(&stats.fast_hits);
                        Ok((mount, obj, inode))
                    }
                });
            }
            return Some(Err(FsError::Loop));
        }
        None
    }

    /// Whether `d`'s prefix check has passed for `pcc` along the path `d`
    /// holds: [`prefix_checked`](Dcache::prefix_checked) with no probe,
    /// through the mount `mount_of` accepts, between two samples of `d`'s
    /// seq. It vouches for a slow walk's anchor and for the directory a
    /// POSIX `..` leaves; the arguments are [`validate`](Dcache::validate)'s.
    #[allow(clippy::type_complexity)]
    pub fn anchored<'g, M: 'g>(
        &self,
        pcc: &Pcc,
        d: &Dentry,
        guard: &'g Guard,
        mount_of: impl Fn(&Dentry, u64) -> Option<&'g M>,
        edge: impl Fn(&'g M) -> (&'g Arc<Dentry>, Option<&'g (M, Arc<Dentry>)>),
        search: impl Fn(&Inode) -> bool,
    ) -> bool {
        let (seq, seen) = (d.seq(), d.view(guard));
        let checked = mount_of(d, seen.mount)
            .is_some_and(|m| self.prefix_checked(pcc, d, seen, None, m, &edge, &search, guard));
        checked && unmoved(d, seq)
    }

    /// `obj`'s prefix check (§3.1): one climb from the directory its
    /// lookup searched last (across a mount root, the mountpoint's) to the
    /// first one memoized, so a warm hit stops at the first; past a miss,
    /// each must be searchable (a symlink hop is skipped). The climb
    /// starts from the state `obj` was `probed` by, if a probe found it: a
    /// re-signed block may hold another path's state while the old entry
    /// still stands. Each directory must hold its path's state, read
    /// between two samples of the seq it is probed at. A climb past a miss
    /// is a revalidation, and memoizes what it climbed if no rename
    /// overlapped: `chmod` changes bits before it shoots, so a sample of
    /// the old bits dies, but a rename shoots before it moves, and a
    /// directory sampled in between would keep the old ancestors' verdict.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn prefix_checked<'g: 'o, 'o, M>(
        &self,
        pcc: &Pcc,
        obj: &'o Dentry,
        seen: &'o DentrySnap,
        probed: Option<Signature>,
        mut mount: &'g M,
        edge: &impl Fn(&'g M) -> (&'g Arc<Dentry>, Option<&'g (M, Arc<Dentry>)>),
        search: &impl Fn(&Inode) -> bool,
        guard: &'g Guard,
    ) -> bool {
        let renames = self.rename_lock.try_read_begin();
        let mut climbed: Option<InlineVec<(u64, u64), INLINE_COMPONENTS>> = None;
        let passed = (|| {
            let found = |h: &HashState| probed.is_none_or(|p| self.key.finish(h) == p);
            let mut below = seen.hash_state.filter(found)?;
            let mut at: Option<&'o Dentry> = None;
            loop {
                let (mut d, mut snap) = match at {
                    None => (obj, seen),
                    Some(dir) => (dir, dir.view(guard)),
                };
                loop {
                    let (root, above) = edge(mount);
                    if !std::ptr::eq(d, &**root) {
                        break;
                    }
                    let Some((pm, mp)) = above else {
                        return Some(()); // the namespace root
                    };
                    (mount, d, snap) = (pm, &**mp, mp.view(guard));
                }
                let dir = snap.parent_in()?;
                let (seq, dir_seen) = (dir.seq(), dir.view(guard));
                let path = dir_seen.hash_state?;
                let h = self.key.extend(&path, snap.name.as_bytes())?;
                (h == below && dir.seq() == seq).then_some(())?;
                if pcc.check(dir.id(), seq) {
                    return Some(());
                }
                climbed
                    .get_or_insert_with(InlineVec::new)
                    .push((dir.id(), seq));
                match dir_seen.inode() {
                    Some(inode) if inode.is_dir() => search(inode).then_some(())?,
                    Some(inode) if inode.ftype() == FileType::Symlink => {}
                    _ => return None,
                }
                below = path;
                at = Some(dir);
            }
        })()
        .is_some();
        if let Some(climbed) = climbed.filter(|_| passed) {
            let stats = &self.stats;
            stats.fast_revalidations.fetch_add(1, Ordering::Relaxed);
            if renames.is_some_and(|r| !self.rename_lock.read_retry(r)) {
                for &(key, seq) in climbed.iter() {
                    pcc.insert(key, seq);
                }
            }
        }
        passed
    }
}
