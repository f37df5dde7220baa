//! The POSIX-flavored syscall surface, grouped by family.

mod dir;
mod io;
mod meta;
mod mountctl;
mod name;
mod open;
mod stat;

use crate::kernel::Kernel;
use crate::mount::Mount;
use crate::path::WalkResult;
use dc_cred::{Cred, MAY_EXEC, MAY_WRITE};
use dc_fs::{FsError, FsResult, InodeAttr, MODE_STICKY};
use dcache_core::{Dentry, DentryKind, DentryState, Inode, NegKind, FLAG_DIR_COMPLETE};
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl Kernel {
    /// Checks write+search permission on a parent directory and the
    /// mount's read-only flag — the gate for every namespace mutation.
    pub(crate) fn check_dir_mutable(
        &self,
        cred: &Cred,
        parent: &WalkResult,
        path_hint: Option<&str>,
    ) -> FsResult<()> {
        if parent.mount.flags.read_only {
            return Err(FsError::RoFs);
        }
        let inode = parent.require_inode()?;
        // Path-sensitive LSMs fail closed without a path; reconstruct it
        // when the caller did not have one at hand.
        let computed = match path_hint {
            Some(_) => None,
            None => self.path_hint(&parent.mount, &parent.dentry),
        };
        self.permission(
            cred,
            inode,
            MAY_WRITE | MAY_EXEC,
            path_hint.or(computed.as_deref()),
        )
    }

    /// Reconstructs a path hint only when some LSM needs one.
    pub(crate) fn path_hint(&self, mount: &Arc<Mount>, dentry: &Arc<Dentry>) -> Option<String> {
        self.security
            .needs_path()
            .then(|| self.vfs_path_of(&crate::path::PathRef::new(mount.clone(), dentry.clone())))
    }

    /// POSIX sticky-bit deletion rule: in a sticky directory only root,
    /// the directory owner, or the entry owner may remove/rename it.
    pub(crate) fn sticky_ok(cred: &Cred, parent: &InodeAttr, target: &InodeAttr) -> bool {
        if parent.mode & MODE_STICKY == 0 {
            return true;
        }
        cred.uid == 0 || cred.uid == target.uid || cred.uid == parent.uid
    }

    /// Upgrades a partial dentry (readdir-born, §5.1) into a positive one,
    /// or a negative one if the object vanished below us. The caller
    /// holds the parent's `dir_lock`.
    pub(crate) fn upgrade_partial_locked(&self, mount: &Mount, d: &Arc<Dentry>) -> FsResult<()> {
        let DentryKind::Partial { ino, .. } = d.kind() else {
            return Ok(()); // someone else upgraded it
        };
        match mount.sb.fs.getattr(ino) {
            Ok(attr) => {
                let inode = self.icache.get_or_create(mount.sb.id, &mount.sb.fs, attr);
                d.set_state(DentryState::Positive(inode));
                Ok(())
            }
            Err(FsError::NoEnt) => {
                self.dcache.make_negative(d, NegKind::Enoent);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// The component-lookup protocol, under the parent's held `dir_lock`
    /// — the one place a name is looked up in a directory, for the walk
    /// (`SlowWalk::lookup_child`, once its unlocked probe finds no live
    /// entry) and for every mutating syscall's final component:
    /// per-parent cache probe (a partial entry is upgraded
    /// in place), completeness short-circuit (§5.1), then the low-level
    /// file system. Returns a positive or negative dentry; `ENOENT` only
    /// where negative dentries may not be created.
    pub(crate) fn lookup_one_locked(
        &self,
        mount: &Mount,
        parent: &Arc<Dentry>,
        name: &str,
    ) -> FsResult<Arc<Dentry>> {
        // A dying same-name entry (mid-eviction) can briefly coexist with
        // a still-set completeness flag — eviction clears the flag between
        // marking the child dead and removing it; seeing one disqualifies
        // the completeness short-circuit below, so eviction races can
        // never fabricate ENOENT for a file the file system still has,
        // and memory pressure can slow a lookup down but never fail it.
        let mut dying_hit = false;
        if let Some(c) = self.dcache.d_lookup(parent, name) {
            if !c.is_dead() {
                self.upgrade_partial_locked(mount, &c)?;
                return Ok(c);
            }
            dying_hit = true;
        }
        let fs = &mount.sb.fs;
        let dir_ino = parent.inode().ok_or(FsError::NoEnt)?.ino;
        let complete = self.dcache.config.dir_completeness && parent.flag(FLAG_DIR_COMPLETE);
        let stats = &self.dcache.stats;
        let found = if complete && !dying_hit {
            // A complete directory proves absence without the file system.
            stats.complete_neg_avoided.fetch_add(1, Ordering::Relaxed);
            Err(FsError::NoEnt)
        } else {
            stats.miss_fs.fetch_add(1, Ordering::Relaxed);
            self.dcache.obs.event(|| dc_obs::TraceEvent::FsMiss);
            fs.lookup(dir_ino, name)
        };
        let state = match found {
            Ok(attr) => DentryState::Positive(self.icache.get_or_create(mount.sb.id, fs, attr)),
            Err(FsError::NoEnt) if self.negatives_allowed(fs) => {
                DentryState::Negative(NegKind::Enoent)
            }
            Err(e) => return Err(e),
        };
        Ok(self.dcache.d_alloc(parent, name, state))
    }

    /// [`lookup_one_locked`](Kernel::lookup_one_locked) for a name about to
    /// be created: `EEXIST` if it is taken, else its cached negative
    /// dentry, if there is one, for
    /// [`instantiate_created`](Kernel::instantiate_created) to flip.
    pub(crate) fn lookup_free_locked(
        &self,
        mount: &Mount,
        parent: &Arc<Dentry>,
        name: &str,
    ) -> FsResult<Option<Arc<Dentry>>> {
        match self.lookup_one_locked(mount, parent, name) {
            Ok(d) if !matches!(d.kind(), DentryKind::Negative(_)) => Err(FsError::Exist),
            Ok(negative) => Ok(Some(negative)),
            Err(FsError::NoEnt) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Installs a freshly-created object into the dcache: flips an
    /// existing negative dentry positive (evicting stale deep-negative
    /// children, §5.2) or allocates a new child. Caller holds the
    /// parent's `dir_lock`.
    pub(crate) fn instantiate_created(
        &self,
        parent: &Arc<Dentry>,
        existing: Option<Arc<Dentry>>,
        name: &str,
        inode: Arc<Inode>,
    ) -> Arc<Dentry> {
        refresh_dir(parent);
        match existing {
            Some(d) if !d.is_dead() => {
                debug_assert!(matches!(d.kind(), DentryKind::Negative(_)));
                for ch in d.children_snapshot() {
                    self.dcache.unhash_subtree(&ch);
                }
                d.set_state(DentryState::Positive(inode));
                // The entry appeared: parent listings change.
                parent.bump_children_version();
                d
            }
            _ => self
                .dcache
                .d_alloc(parent, name, DentryState::Positive(inode)),
        }
    }
}

/// Re-reads a directory's attributes from its file system after an entry
/// was added to or removed from it. Size, link count and times are the
/// file system's to say, and `stat` has to answer the same whether the
/// directory stayed cached since or was evicted and looked up again.
pub(crate) fn refresh_dir(dir: &Dentry) {
    if let Some(inode) = dir.inode() {
        if let Ok(attr) = inode.fs.getattr(inode.ino) {
            inode.store_attr(attr);
        }
    }
}
