//! The fastpath: single-hash-lookup path resolution (§3).
//!
//! A fastpath lookup is: resume the signature hash from the anchor
//! dentry's stored state, feed the components, probe the namespace's DLHT
//! once, validate the memoized prefix check in the credential's PCC, and
//! perform the final object's own permission check inline. *Any* miss —
//! missing hash state, DLHT miss, PCC miss, version mismatch, stale mount
//! hint, partial dentry — falls back to the slowpath, which repopulates
//! the caches (§3.1).
//!
//! Dot-dot components are either preprocessed lexically (Plan 9 mode) or
//! verified with an extra fastpath probe per `..` (POSIX mode), as
//! compared in Figure 6 (§4.2). Symlinks encountered at the final
//! component chain through the link's recorded target signature; literal
//! paths crossing symlinks mid-path hit the alias dentries created by the
//! slowpath (§4.2).

use crate::kernel::Kernel;
use crate::path::{ParsedPath, PathRef, WalkRef, WalkResult};
use crate::process::Process;
use crate::scratch::{InlineVec, INLINE_COMPONENTS};
use dc_cred::MAY_EXEC;
use dc_fs::{FileType, FsError, FsResult};
use dc_obs::TraceEvent;
use dcache_core::{Dentry, DentryId, DentryKind, HashState, Pcc};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Maximum symlink-signature chain length on the fastpath.
const MAX_LINK_CHAIN: u32 = 40;

/// Maximum optimistic restarts after a per-dentry seq mismatch before
/// giving up and taking the slowpath.
const MAX_READ_RETRIES: u32 = 3;

impl Kernel {
    /// Attempts a direct lookup under the caller's epoch pin. `None`
    /// means "fall back to the slowpath"; `Some(Err(_))` is a definitive
    /// answer (e.g. a negative-dentry hit). A hit borrows its mount for
    /// as long as the pin is held.
    pub(crate) fn fast_resolve<'g>(
        &self,
        proc: &Process,
        start: Option<&'g PathRef>,
        parsed: &ParsedPath<'_>,
        follow_last: bool,
        guard: &'g crossbeam_epoch::Guard,
    ) -> Option<FsResult<WalkRef<'g>>> {
        let stats = &self.dcache.stats;
        stats.fast_attempts.fetch_add(1, Ordering::Relaxed);
        // Borrow the per-process lookup state under the pin we already
        // hold — no nested pins, no refcount churn (§13). Values swapped
        // out by a concurrent `chroot`/`setns`/`commit_creds` stay alive
        // until the guard drops.
        let ns = proc.namespace_read(guard);
        let cred = proc.cred_read(guard);
        let root = proc.root_read(guard);
        // The anchor stays a borrow until a ".." climb actually moves it:
        // the common absolute-path lookup never touches the PathRef
        // refcounts (§13).
        let base: &'g PathRef = if parsed.absolute {
            root
        } else {
            match start {
                Some(s) => s,
                None => proc.cwd_read(guard),
            }
        };
        let mut anchor_owned: Option<PathRef> = None;
        let mut attached = None;
        let pcc = self.pcc_under(cred, ns.id, &mut attached, guard);
        let lexical = self.dcache.config.lexical_dotdot;

        // Phase 1: reduce components against the anchor, handling "..".
        // Inline scratch: a warm hit must not touch the heap (§13).
        let mut pending: InlineVec<&str, INLINE_COMPONENTS> = InlineVec::new();
        for &c in &parsed.components {
            if c != ".." {
                pending.push(c);
                continue;
            }
            if !lexical {
                // POSIX mode: one extra fastpath permission probe per
                // dot-dot (§4.2).
                let anchor = anchor_owned.as_ref().unwrap_or(base);
                self.posix_dotdot_check(ns, pcc, anchor, &pending, cred, guard)?;
            }
            if pending.pop().is_none() {
                // Climbing above the anchor.
                let anchor = anchor_owned.as_ref().unwrap_or(base);
                if Arc::ptr_eq(&anchor.dentry, &root.dentry) && anchor.mount.id == root.mount.id {
                    continue; // ".." at the process root stays put
                }
                anchor_owned = Some(anchor.dotdot());
            }
        }
        let anchor = anchor_owned.as_ref().unwrap_or(base);

        // Phase 2: hash the reduced path.
        let mut h: HashState = self.state_at(ns, &anchor.mount, &anchor.dentry, guard)?;
        for c in &pending {
            self.dcache.key.push_component(&mut h, c.as_bytes());
        }

        // Anchor-only results (e.g. "/", "a/.." lexical) short-circuit.
        if pending.is_empty() {
            let dentry = anchor.dentry.clone();
            let inode = dentry.inode()?; // partial/negative anchors: fallback
            if parsed.require_dir && !inode.is_dir() {
                return Some(Err(FsError::NotDir));
            }
            // A climbed anchor is a local of this call: borrow its mount
            // from the namespace's table instead (absent there: slowpath).
            let mount = match &anchor_owned {
                None => &base.mount,
                Some(climbed) => ns.mount_by_id_read(climbed.mount.id, guard)?,
            };
            stats.fast_hits.fetch_add(1, Ordering::Relaxed);
            return Some(Ok(WalkResult {
                mount,
                dentry,
                inode: Some(inode),
            }));
        }

        let sig = self.dcache.key.finish(&h);
        let plain_root = ns.is_root(&root.mount, &root.dentry, guard);
        self.fast_validate(
            ns,
            pcc,
            cred,
            &sig,
            follow_last,
            parsed.require_dir,
            plain_root,
            guard,
        )
    }

    /// The PCC of `(cred, ns)`, borrowed under the lookup's pin — no
    /// reference taken. The first lookup for the pair attaches one, and
    /// holds it in `attached`.
    pub(crate) fn pcc_under<'g>(
        &self,
        cred: &Arc<dc_cred::Cred>,
        ns: dcache_core::NsId,
        attached: &'g mut Option<Arc<Pcc>>,
        guard: &'g crossbeam_epoch::Guard,
    ) -> &'g Pcc {
        match self.dcache.pcc_ref(cred, ns, guard) {
            Some(pcc) => pcc,
            None => attached.insert(self.dcache.pcc_for(cred, ns)),
        }
    }

    /// Phase 3 of the fastpath: validates a signature against the DLHT
    /// and answers definitively or not at all. Shared by path-keyed
    /// resolution ([`fast_resolve`](Kernel::fast_resolve)) and
    /// signature-keyed server lookups ([`Kernel::lookup_sig`]); the
    /// caller must hold an epoch pin.
    ///
    /// `plain_root` says the caller's process root is the namespace root.
    /// A symlink's memoized translation — its alias children, its target
    /// signature — was made by a walk that read the link body under *its*
    /// root; an absolute body means something else under a `chroot`, and
    /// the fastpath never reads bodies, so a chrooted caller falls back at
    /// the first alias or link hop.
    ///
    /// Runs optimistically: dentry fields are read from epoch-published
    /// snapshots, and every terminal answer is revalidated against the
    /// per-dentry seq counter. A mismatch means a writer republished
    /// mid-read — restart from the DLHT probe (bounded; exhaustion
    /// falls back to the slowpath).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fast_validate<'g>(
        &self,
        ns: &Arc<crate::namespace::MountNamespace>,
        pcc: &Pcc,
        cred: &dc_cred::Cred,
        sig: &dcache_core::Signature,
        follow_last: bool,
        require_dir: bool,
        plain_root: bool,
        guard: &'g crossbeam_epoch::Guard,
    ) -> Option<FsResult<WalkRef<'g>>> {
        let stats = &self.dcache.stats;
        let dlht = ns.dlht(&self.dcache);
        let mut attempts = 0u32;
        'restart: loop {
            if attempts == MAX_READ_RETRIES {
                return None;
            }
            attempts += 1;
            let Some(first) = self.dcache.dlht_lookup_in(dlht, sig, guard) else {
                stats.fast_miss_dlht.fetch_add(1, Ordering::Relaxed);
                return None;
            };
            if self.dcache.config.fastpath_always_miss {
                // Figure 6 synthetic: pay the whole fastpath, then miss at
                // the PCC and fall back.
                stats.fast_miss_pcc.fetch_add(1, Ordering::Relaxed);
                return None;
            }

            // Validate the hit, dereferencing aliases and (when
            // following) chaining through symlink target signatures.
            let mut obj = first;
            // Set when an alias led to `obj`: the seq and the mount the
            // alias recorded for it.
            let mut via: Option<(u64, u64)> = None;
            let mut chain = 0u32;
            loop {
                chain += 1;
                if chain > MAX_LINK_CHAIN {
                    return Some(Err(FsError::Loop));
                }
                // One sample of the counter, one read of the block: every
                // answer below about `obj` comes from that read, and a
                // terminal answer re-checks the counter before it is given.
                let seq = obj.seq();
                let seen = obj.view(guard);
                // An alias speaks for its target only while the target has
                // not moved and is signed through the mount the alias
                // reached it by: the target's prefix check (below) is the
                // one memoized for the path it is signed under.
                if let Some((target_seq, mount)) = via {
                    if obj.is_dead() || seq != target_seq || seen.mount != mount {
                        stats.fast_miss_seq.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                }
                // Prefix check for the literal dentry we matched. On a PCC
                // miss the check may simply "not have executed recently"
                // (§3.1): since a live DLHT entry proves the path mapping is
                // structurally current (structural changes evict entries),
                // the prefix check can be re-executed over the in-memory
                // ancestor chain — far cheaper than the full slowpath. Any
                // doubt (permission failure, odd ancestors, path-sensitive
                // LSMs) still falls back.
                if !pcc.check(obj.id(), seq) {
                    if self
                        .fast_revalidate(ns, pcc, &obj, seen.mount, seq, cred, guard)
                        .is_none()
                    {
                        stats.fast_miss_pcc.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                    stats.fast_revalidations.fetch_add(1, Ordering::Relaxed);
                }
                let ftype = match seen.kind() {
                    // Alias dentries redirect to the real object (§4.2); its
                    // own prefix must also be validated ("The PCC is
                    // separately checked for the target dentry").
                    DentryKind::Alias => {
                        let (target, target_seq) = seen.alias_target()?;
                        if !plain_root {
                            return None;
                        }
                        via = Some((target_seq, seen.mount));
                        obj = target;
                        continue;
                    }
                    // Final-position symlink: follow via the recorded target
                    // signature without touching the link body.
                    DentryKind::Positive {
                        ftype: FileType::Symlink,
                        ..
                    } if follow_last => {
                        if !plain_root {
                            return None;
                        }
                        let lsig = seen.link_sig?;
                        let Some(next) = self.dcache.dlht_lookup_in(dlht, &lsig, guard) else {
                            stats.fast_miss_dlht.fetch_add(1, Ordering::Relaxed);
                            return None;
                        };
                        via = None;
                        obj = next;
                        continue;
                    }
                    // Partial dentries need a slowpath upgrade.
                    DentryKind::Partial { .. } => return None,
                    // Negative hit: a definitive cached absence (§5.2).
                    DentryKind::Negative(kind) => {
                        if !self.dcache.config.negative_dentries {
                            return None;
                        }
                        if obj.is_dead() || obj.seq() != seq {
                            stats.read_retries.fetch_add(1, Ordering::Relaxed);
                            self.dcache.obs.event(|| TraceEvent::ReadRetry);
                            continue 'restart;
                        }
                        stats.fast_neg_hits.fetch_add(1, Ordering::Relaxed);
                        stats.fast_hits.fetch_add(1, Ordering::Relaxed);
                        return Some(Err(kind.error()));
                    }
                    DentryKind::Positive { ftype, .. } => ftype,
                };
                let inode = seen.inode()?.clone();
                // Mount validation against the mount the block was signed
                // through (§4.3). Borrowed under the lookup's pin, and
                // returned that way: only a caller that keeps the result
                // takes a reference.
                let mount = ns.mount_by_id_read(seen.mount, guard)?;
                if mount.sb.id != obj.sb() || !mount.sb.fs.supports_fastpath() {
                    return None;
                }
                // The counter has not moved since the block was read: a
                // concurrent rename/chmod/unlink did not republish it.
                if obj.is_dead() || obj.seq() != seq {
                    stats.read_retries.fetch_add(1, Ordering::Relaxed);
                    self.dcache.obs.event(|| TraceEvent::ReadRetry);
                    continue 'restart;
                }
                if require_dir && ftype != FileType::Directory {
                    return Some(Err(FsError::NotDir));
                }
                stats.fast_hits.fetch_add(1, Ordering::Relaxed);
                return Some(Ok(WalkResult {
                    mount,
                    dentry: obj,
                    inode: Some(inode),
                }));
            }
        }
    }

    /// Re-executes a prefix check over the cached ancestor chain of a
    /// DLHT-resident dentry: search permission on every positive ancestor
    /// directory, hopping mounts toward the namespace root, up to the
    /// first one this credential has climbed past before — that entry
    /// covers everything above it. Succeeding memoizes the result, and the
    /// directories climbed past (their checks were part of this one) in
    /// the PCC's directory table, so the next miss below any of them
    /// stops there: a working set that overflows the PCC pays one level
    /// per miss. Any irregularity returns `None` and the full
    /// slowpath decides (preserving directory-reference semantics for
    /// cwd-relative access and precise errno reporting).
    #[allow(clippy::too_many_arguments)]
    fn fast_revalidate(
        &self,
        ns: &crate::namespace::MountNamespace,
        pcc: &Pcc,
        obj: &Arc<Dentry>,
        signed_via: u64,
        seq_sample: u64,
        cred: &dc_cred::Cred,
        guard: &crossbeam_epoch::Guard,
    ) -> Option<()> {
        if self.security.needs_path() {
            return None; // path reconstruction: let the slowpath do it
        }
        let mut mount = ns.mount_by_id_read(signed_via, guard)?;
        if mount.sb.id != obj.sb() {
            return None;
        }
        let renames = self.dcache.rename_lock.try_read_begin();
        // `(id, seq)` of the directories climbed past, each sampled before
        // anything above it is read.
        let mut climbed: InlineVec<(DentryId, u64), INLINE_COMPONENTS> = InlineVec::new();
        let mut d = obj.clone();
        'climb: loop {
            // Hop over mount roots to the mountpoint they cover.
            while Arc::ptr_eq(&d, &mount.root) {
                match &mount.parent {
                    Some((pm, mp)) => {
                        mount = pm;
                        d = mp.clone();
                    }
                    None => break 'climb,
                }
            }
            let parent = d.parent()?;
            let parent_seq = parent.seq();
            // Search permission on every positive ancestor directory;
            // symlink hops in alias chains carry no permission of their
            // own and are skipped, anything unexpected falls back.
            match parent.view(guard).inode() {
                Some(inode) if inode.is_dir() => {
                    if self.permission(cred, inode, MAY_EXEC, None).is_err() {
                        return None;
                    }
                    if pcc.check_dir(parent.id(), parent_seq) {
                        break;
                    }
                    climbed.push((parent.id(), parent_seq));
                }
                Some(inode) if inode.ftype() == FileType::Symlink => {}
                Some(_) => return None,
                None => return None, // negative/partial ancestor: slowpath
            }
            d = parent;
        }
        if obj.is_dead() || obj.seq() != seq_sample {
            return None; // raced with an invalidation; be conservative
        }
        pcc.insert(obj.id(), seq_sample);
        // A permission change is applied before its subtree's counters
        // move, so a directory's sample that saw the old bits is an entry
        // the shootdown kills. A rename moves the counters first and the
        // dentry afterwards: a sample taken in between would outlive the
        // move with the old ancestors' verdict, and unlike `obj` — in the
        // DLHT a moment ago, which the shootdown empties before it bumps —
        // nothing says a directory was not in that window. So directories
        // are memoized only if no rename ran while we climbed.
        if renames.is_some_and(|r| !self.dcache.rename_lock.read_retry(r)) {
            for &(id, seq) in climbed.iter() {
                pcc.insert_dir(id, seq);
            }
        }
        Some(())
    }

    /// The directory holding `parsed`'s final component, when the
    /// fastpath still vouches for it — a live DLHT entry under the literal
    /// prefix whose memoized prefix check is current — and the
    /// one-component path left to walk from there. A lookup that missed as
    /// a whole has usually kept its directory: a name was created, renamed
    /// or shot down under a directory that stayed cached. Its slow walk
    /// resumes one component from the end, the way an `*at()` call
    /// resumes at its directory handle, instead of at the root.
    ///
    /// `None` walks the whole path: a single component, a `..` anywhere,
    /// a prefix that ends in or passes through a symlink (its literal
    /// path continues in alias dentries, which only the full walk
    /// extends), a negative or partial directory, or any doubt. The
    /// caller holds the `rename_lock` read section the walk is validated
    /// against, so a directory that moves between this probe and the walk
    /// fails the walk as it would have failed the full one.
    pub(crate) fn fast_parent<'a>(
        &self,
        proc: &Process,
        start: Option<&PathRef>,
        parsed: &ParsedPath<'a>,
    ) -> Option<(PathRef, ParsedPath<'a>)> {
        let config = &self.dcache.config;
        if !config.fastpath || config.fastpath_always_miss {
            return None;
        }
        let (&last, dirs) = parsed.components.split_last()?;
        if dirs.is_empty() || last == ".." || dirs.contains(&"..") {
            return None;
        }
        let guard = &crossbeam_epoch::pin();
        let ns = proc.namespace_read(guard);
        let base = match start {
            _ if parsed.absolute => proc.root_read(guard),
            Some(s) => s,
            None => proc.cwd_read(guard),
        };
        let pcc = self.dcache.pcc_ref(proc.cred_read(guard), ns.id, guard)?;
        let mut h = self.state_at(ns, &base.mount, &base.dentry, guard)?;
        for c in dirs {
            self.dcache.key.push_component(&mut h, c.as_bytes());
        }
        let sig = self.dcache.key.finish(&h);
        let dir = self
            .dcache
            .dlht_lookup_in(ns.dlht(&self.dcache), &sig, guard)?;
        let seq = dir.seq();
        let seen = dir.view(guard);
        let mount = ns.mount_by_id_read(seen.mount, guard)?;
        // A positive directory (not an alias, a partial or a negative
        // entry, not a symlink) reached by its canonical path, by the
        // mount it was published through, and not republished while we
        // looked.
        let positive_dir = matches!(
            seen.kind(),
            DentryKind::Positive {
                ftype: FileType::Directory,
                ..
            }
        );
        let vouched = pcc.check(dir.id(), seq)
            && positive_dir
            && seen.hash_state == Some(h)
            && mount.sb.id == dir.sb()
            && mount.sb.fs.supports_fastpath()
            && !dir.is_dead()
            && dir.seq() == seq;
        if !vouched {
            return None;
        }
        let mut components = InlineVec::new();
        components.push(last);
        let rest = ParsedPath {
            absolute: false,
            components,
            require_dir: parsed.require_dir,
        };
        Some((PathRef::new(mount.clone(), dir), rest))
    }

    /// POSIX-mode dot-dot verification: resolve the prefix built so far
    /// with one extra fastpath probe and re-check permission to search it
    /// (§4.2). Returns `None` to force the slowpath.
    fn posix_dotdot_check(
        &self,
        ns: &crate::namespace::MountNamespace,
        pcc: &Pcc,
        anchor: &PathRef,
        pending: &[&str],
        cred: &dc_cred::Cred,
        guard: &crossbeam_epoch::Guard,
    ) -> Option<()> {
        let dentry: Arc<Dentry> = if pending.is_empty() {
            anchor.dentry.clone()
        } else {
            let mut h: HashState = self.state_at(ns, &anchor.mount, &anchor.dentry, guard)?;
            for c in pending {
                self.dcache.key.push_component(&mut h, c.as_bytes());
            }
            let sig = self.dcache.key.finish(&h);
            self.dcache
                .dlht_lookup_in(ns.dlht(&self.dcache), &sig, guard)?
        };
        // The prefix must be a real directory (a symlink prefix needs the
        // slowpath: ".." is relative to the link *target*).
        let inode = dentry.inode()?;
        if !inode.is_dir() {
            return None;
        }
        // Prefix check for the intermediate + inline search permission.
        let at_root = Arc::ptr_eq(&dentry, &ns.root_mount_read(guard).root);
        if !at_root && !pcc.check(dentry.id(), dentry.seq()) {
            return None;
        }
        if self.permission(cred, &inode, MAY_EXEC, None).is_err() {
            return None; // let the slowpath produce the precise error
        }
        Some(())
    }
}
