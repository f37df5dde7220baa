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
use dcache_core::{Dentry, HashState, Inode, Pcc};
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
            h = self.dcache.key.extend(&h, c.as_bytes())?;
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
            true,
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
        ns: &MountNamespace,
        pcc: &Pcc,
        cred: &Cred,
        sig: &dcache_core::Signature,
        follow_last: bool,
        require_dir: bool,
        plain_root: bool,
        lookup: bool,
        guard: &'g crossbeam_epoch::Guard,
    ) -> Option<FsResult<WalkRef<'g>>> {
        let hit = self.dcache.validate(
            ns.dlht(&self.dcache),
            pcc,
            sig,
            follow_last,
            require_dir,
            plain_root,
            lookup,
            guard,
            |obj, id| signing_mount(ns, obj, id, guard),
            edge,
            self.search(cred),
        )?;
        Some(hit.map(|(mount, dentry, inode)| WalkResult {
            mount,
            dentry,
            inode: Some(inode),
        }))
    }

    /// Whether `at`'s prefix check has passed for `pcc`, `at` signed
    /// through its own mount ([`Dcache::anchored`](dcache_core::Dcache::anchored)).
    pub(crate) fn anchored(
        &self,
        ns: &MountNamespace,
        pcc: &Pcc,
        cred: &Cred,
        at: &PathRef,
        guard: &crossbeam_epoch::Guard,
    ) -> bool {
        let mount_of =
            |d: &Dentry, id| signing_mount(ns, d, id, guard).filter(|m| m.id == at.mount.id);
        self.dcache
            .anchored(pcc, &at.dentry, guard, mount_of, edge, self.search(cred))
    }

    /// A climb's permission to pass a directory: a path-keyed LSM needs
    /// the walk's path string, so it passes none.
    fn search<'a>(&'a self, cred: &'a Cred) -> impl Fn(&Inode) -> bool + 'a {
        |dir| !self.security.needs_path() && self.permission(cred, dir, MAY_EXEC, None).is_ok()
    }

    /// The directory `dirs` name below `at`, validated as a lookup of it
    /// would be with no symlink or alias followed and a directory
    /// required, and counted as no lookup (a symlink, an alias, a negative
    /// or partial entry is `None`).
    fn fast_dir<'g>(
        &self,
        ns: &MountNamespace,
        pcc: &Pcc,
        cred: &Cred,
        at: &PathRef,
        dirs: &[&str],
        guard: &'g crossbeam_epoch::Guard,
    ) -> Option<WalkRef<'g>> {
        let mut h = self.state_at(ns, &at.mount, &at.dentry, guard)?;
        for c in dirs {
            h = self.dcache.key.extend(&h, c.as_bytes())?;
        }
        let sig = self.dcache.key.finish(&h);
        self.fast_validate(ns, pcc, cred, &sig, false, true, false, false, guard)?
            .ok()
    }

    /// The directory holding `parsed`'s final component, when the
    /// fastpath still vouches for it ([`fast_dir`](Kernel::fast_dir): a
    /// current DLHT entry under the literal prefix whose prefix check
    /// passes, climbing past dead memos as a lookup would), and the
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
        if !self.dcache.config.fastpath {
            return None;
        }
        let (&last, dirs) = parsed.components.split_last()?;
        if dirs.is_empty() || last == ".." || dirs.contains(&"..") {
            return None;
        }
        let guard = &crossbeam_epoch::pin();
        let (ns, cred) = (proc.namespace_read(guard), proc.cred_read(guard));
        let base = match start {
            _ if parsed.absolute => proc.root_read(guard),
            Some(s) => s,
            None => proc.cwd_read(guard),
        };
        let pcc = self.dcache.pcc_ref(cred, ns.id, guard)?;
        let dir = self.fast_dir(ns, pcc, cred, base, dirs, guard)?;
        let mut components = InlineVec::new();
        components.push(last);
        let rest = ParsedPath {
            absolute: false,
            components,
            require_dir: parsed.require_dir,
        };
        Some((PathRef::new(dir.mount.clone(), dir.dentry), rest))
    }

    /// POSIX-mode dot-dot verification: the prefix built so far must be a
    /// directory whose prefix check passes, as [`fast_dir`](Kernel::fast_dir)
    /// finds it (the anchor itself: [`anchored`](Kernel::anchored)), and
    /// searchable (§4.2). `None` leaves the precise answer to the slowpath.
    fn posix_dotdot_check(
        &self,
        ns: &MountNamespace,
        pcc: &Pcc,
        anchor: &PathRef,
        pending: &[&str],
        cred: &Cred,
        guard: &crossbeam_epoch::Guard,
    ) -> Option<()> {
        let dir = |i: &Arc<Inode>| i.is_dir() && self.anchored(ns, pcc, cred, anchor, guard);
        let inode = match pending {
            [] => anchor.dentry.inode().filter(dir),
            _ => self.fast_dir(ns, pcc, cred, anchor, pending, guard)?.inode,
        }?;
        self.permission(cred, &inode, MAY_EXEC, None).ok()
    }
}

/// A mount's root and what is above it: its parent mount and mountpoint.
#[allow(clippy::type_complexity)]
fn edge(m: &Arc<Mount>) -> (&Arc<Dentry>, Option<&(Arc<Mount>, Arc<Dentry>)>) {
    (&m.root, m.parent.as_ref())
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
