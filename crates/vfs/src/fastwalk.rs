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
use crate::mount::Mount;
use crate::namespace::MountNamespace;
use crate::path::{ParsedPath, PathRef, WalkRef, WalkResult};
use crate::process::Process;
use dc_cred::{Cred, MAY_EXEC};
use dc_fs::{FsError, FsResult};
use dcache_core::scratch::{InlineVec, INLINE_COMPONENTS};
use dcache_core::{Dentry, DentrySnap, HashState, Pcc};
use std::sync::atomic::Ordering;
use std::sync::Arc;

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
        cred: &Arc<Cred>,
        ns: dcache_core::NsId,
        attached: &'g mut Option<Arc<Pcc>>,
        guard: &'g crossbeam_epoch::Guard,
    ) -> &'g Pcc {
        match self.dcache.pcc_ref(cred, ns, guard) {
            Some(pcc) => pcc,
            None => attached.insert(self.dcache.pcc_for(cred, ns)),
        }
    }

    /// Phase 3 of the fastpath, for path- and signature-keyed lookups:
    /// [`Dcache::validate`](dcache_core::Dcache::validate) with this
    /// kernel's mounts and permission check, under the caller's pin.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fast_validate<'g>(
        &self,
        ns: &Arc<MountNamespace>,
        pcc: &Pcc,
        cred: &Cred,
        sig: &dcache_core::Signature,
        follow_last: bool,
        require_dir: bool,
        plain_root: bool,
        guard: &'g crossbeam_epoch::Guard,
    ) -> Option<FsResult<WalkRef<'g>>> {
        let hit = self.dcache.validate(
            ns.dlht(&self.dcache),
            pcc,
            sig,
            follow_last,
            require_dir,
            plain_root,
            guard,
            |obj, id| signing_mount(ns, obj, id, guard),
            |m| (&m.root, m.parent.as_ref()),
            |dir| !self.security.needs_path() && self.permission(cred, dir, MAY_EXEC, None).is_ok(),
        )?;
        Some(hit.map(|(mount, dentry, inode)| WalkResult {
            mount,
            dentry,
            inode: Some(inode),
        }))
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
        // A positive directory (not an alias, a partial or a negative
        // entry, not a symlink) reached by its canonical path, by the
        // mount it was published through, and not republished while we
        // looked.
        let mount = self.dcache.vouched(pcc, &dir, guard, |seen| {
            let positive_dir = seen.inode().is_some_and(|i| i.is_dir());
            (positive_dir && seen.hash_state == Some(h)).then_some(())?;
            signing_mount(ns, &dir, seen.mount, guard)
        })?;
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
    /// (§4.2). `None` leaves the precise answer to the slowpath.
    fn posix_dotdot_check(
        &self,
        ns: &MountNamespace,
        pcc: &Pcc,
        anchor: &PathRef,
        pending: &[&str],
        cred: &Cred,
        guard: &crossbeam_epoch::Guard,
    ) -> Option<()> {
        let (dentry, probed): (Arc<Dentry>, _) = if pending.is_empty() {
            (anchor.dentry.clone(), None)
        } else {
            let mut h: HashState = self.state_at(ns, &anchor.mount, &anchor.dentry, guard)?;
            for c in pending {
                self.dcache.key.push_component(&mut h, c.as_bytes());
            }
            let sig = self.dcache.key.finish(&h);
            let found = self
                .dcache
                .dlht_lookup_in(ns.dlht(&self.dcache), &sig, guard)?;
            (found, Some(h))
        };
        // A real directory (".." under a symlink is relative to its target)
        // with a current prefix check, still signed with the path it was
        // found by, unless it is the namespace root.
        let dir = |seen: &DentrySnap| {
            (probed.is_none() || seen.hash_state == probed).then_some(())?;
            seen.inode().filter(|i| i.is_dir()).cloned()
        };
        let inode = match Arc::ptr_eq(&dentry, &ns.root_mount_read(guard).root) {
            true => dir(dentry.view(guard)),
            false => self.dcache.vouched(pcc, &dentry, guard, dir),
        }?;
        self.permission(cred, &inode, MAY_EXEC, None).ok()
    }
}

/// Mount `id`, under the lookup's pin, if it still serves `d` on the
/// fastpath: it exists in `ns` and holds `d`'s superblock (§4.3).
fn signing_mount<'g>(
    ns: &MountNamespace,
    d: &Dentry,
    id: u64,
    guard: &'g crossbeam_epoch::Guard,
) -> Option<&'g Arc<Mount>> {
    let mount = ns.mount_by_id_read(id, guard)?;
    (mount.sb.id == d.sb() && mount.sb.fs.supports_fastpath()).then_some(mount)
}
