//! `unlink`, `rename`, `link`, `symlink` — the namespace mutations whose
//! coherence §3.2 is about.

use crate::kernel::Kernel;
use crate::path::PathRef;
use crate::process::Process;
use crate::timing::SyscallClass;
use dc_fs::{FsError, FsResult};
use dcache_core::{Dentry, DentryState, NegKind, FLAG_DIR_COMPLETE};
use std::sync::Arc;

impl Kernel {
    /// `unlink(2)`.
    pub fn unlink(&self, proc: &Process, path: &str) -> FsResult<()> {
        self.timing
            .record(SyscallClass::Unlink, || self.unlink_at(proc, None, path))
    }

    /// `unlinkat(2)` with `AT_REMOVEDIR` selecting rmdir behavior.
    pub fn unlinkat(&self, proc: &Process, dirfd: u32, path: &str, rmdir: bool) -> FsResult<()> {
        let base = self.at_base(proc, dirfd)?;
        self.timing.record(SyscallClass::Unlink, || {
            if rmdir {
                self.rmdir_at(proc, Some(&base.path), path)
            } else {
                self.unlink_at(proc, Some(&base.path), path)
            }
        })
    }

    fn unlink_at(&self, proc: &Process, start: Option<&PathRef>, path: &str) -> FsResult<()> {
        let pr = self.resolve_parent(proc, start, path)?;
        if pr.require_dir {
            return Err(FsError::IsDir); // "unlink x/" — directory form
        }
        let cred = proc.cred();
        self.check_dir_mutable(&cred, &pr.parent, None)?;
        let parent_d = pr.parent.dentry.clone();
        let mount = pr.parent.mount.clone();
        let _g = parent_d.dir_lock().lock();
        let target = self.lookup_one_locked(&mount, &parent_d, &pr.name)?;
        let inode = target.inode().ok_or(FsError::NoEnt)?;
        if inode.is_dir() {
            return Err(FsError::IsDir);
        }
        let parent_attr = pr.parent.require_inode()?.attr();
        if !Self::sticky_ok(&cred, &parent_attr, &inode.attr()) {
            return Err(FsError::Perm);
        }
        mount.sb.fs.unlink(parent_attr.ino, &pr.name)?;
        super::refresh_dir(&parent_d);
        let gone = inode.attr().nlink <= 1;
        if gone {
            self.icache.forget(mount.sb.id, inode.ino);
        } else if let Ok(attr) = mount.sb.fs.getattr(inode.ino) {
            // The object survives through other hard links; refresh the
            // cached attributes (nlink, ctime).
            inode.store_attr(attr);
        }
        // §5.2, "Renaming and Deletion": the optimized cache keeps a
        // negative dentry even for in-use files; the baseline converts
        // only unused dentries (Linux `d_delete`) and unhashes the rest.
        let unused = Arc::strong_count(&target) <= 2; // parent map + ours
        if self.negatives_allowed(&mount.sb.fs) && (self.dcache.config.neg_on_unlink || unused) {
            self.dcache.make_negative(&target, NegKind::Enoent);
        } else {
            self.dcache.unhash_subtree(&target);
        }
        Ok(())
    }

    /// `rename(2)` — the paper's §3.2 protocol: advance the global
    /// invalidation counter, shoot down both subtrees (version bumps +
    /// DLHT evictions + hash-state clears), perform the change under the
    /// global rename seqlock, then move the dentry.
    pub fn rename(&self, proc: &Process, old: &str, new: &str) -> FsResult<()> {
        self.timing.record(SyscallClass::OtherMeta, || {
            self.rename_internal(proc, old, new)
        })
    }

    fn rename_internal(&self, proc: &Process, old: &str, new: &str) -> FsResult<()> {
        let ns = proc.namespace();
        let cred = proc.cred();
        let pro = self.resolve_parent(proc, None, old)?;
        let prn = self.resolve_parent(proc, None, new)?;
        if pro.parent.mount.id != prn.parent.mount.id {
            return Err(FsError::XDev);
        }
        let mount = pro.parent.mount.clone();
        self.check_dir_mutable(&cred, &pro.parent, None)?;
        self.check_dir_mutable(&cred, &prn.parent, None)?;

        // The write side of the global rename seqlock: fails concurrent
        // optimistic walks and excludes other structural changes.
        let _rl = self.dcache.rename_lock.write();
        let op = pro.parent.dentry.clone();
        let np = prn.parent.dentry.clone();
        // Both parents' dir locks, in id order (a no-op pair when equal).
        let (_g1, _g2);
        if op.id() < np.id() {
            _g1 = Some(op.dir_lock().lock());
            _g2 = Some(np.dir_lock().lock());
        } else if op.id() > np.id() {
            _g1 = Some(np.dir_lock().lock());
            _g2 = Some(op.dir_lock().lock());
        } else {
            _g1 = Some(op.dir_lock().lock());
            _g2 = None;
        }

        let src = self.lookup_one_locked(&mount, &op, &pro.name)?;
        let src_inode = src.inode().ok_or(FsError::NoEnt)?;
        let parent_attr = pro.parent.require_inode()?.attr();
        if !Self::sticky_ok(&cred, &parent_attr, &src_inode.attr()) {
            return Err(FsError::Perm);
        }
        if ns.is_mountpoint(src.id()) {
            return Err(FsError::Busy);
        }
        // Moving a directory into its own subtree is forbidden.
        if src_inode.is_dir() {
            let mut a: Option<Arc<Dentry>> = Some(np.clone());
            while let Some(d) = a {
                if d.id() == src.id() {
                    return Err(FsError::Inval);
                }
                a = d.parent();
            }
        }
        let dst = match self.lookup_one_locked(&mount, &np, &prn.name) {
            Ok(d) => Some(d),
            Err(FsError::NoEnt) => None,
            Err(e) => return Err(e),
        };
        if let Some(d) = &dst {
            if let Some(dst_inode) = d.inode() {
                if d.id() == src.id() || dst_inode.ino == src_inode.ino {
                    return Ok(()); // same object: POSIX no-op
                }
                if ns.is_mountpoint(d.id()) {
                    return Err(FsError::Busy);
                }
                if !Self::sticky_ok(
                    &cred,
                    &prn.parent.require_inode()?.attr(),
                    &dst_inode.attr(),
                ) {
                    return Err(FsError::Perm);
                }
            }
        }
        if pro.parent.dentry.id() == prn.parent.dentry.id() && pro.name == prn.name {
            return Ok(());
        }

        // §3.2: counter first, then the shootdowns, then the mutation.
        // The recursive invalidation only exists to keep the fastpath
        // caches coherent; the unmodified kernel keeps rename
        // constant-time (Figure 7's comparison).
        if self.dcache.config.fastpath {
            self.dcache.bump_invalidation();
            self.shoot_subtree(&src, true);
            if let Some(d) = &dst {
                self.shoot_subtree(d, true);
            }
        }

        let old_dir_ino = parent_attr.ino;
        let new_dir_ino = prn.parent.require_inode()?.ino;
        mount
            .sb
            .fs
            .rename(old_dir_ino, &pro.name, new_dir_ino, &prn.name)?;
        super::refresh_dir(&op);
        super::refresh_dir(&np);

        // Cache updates: drop whatever was at the destination, move the
        // source dentry, leave a negative at the origin (§5.2).
        if let Some(d) = dst {
            if let Some(i) = d.inode() {
                if i.attr().nlink <= 1 {
                    self.icache.forget(mount.sb.id, i.ino);
                }
            }
            // A replaced directory may still be someone's cwd or root:
            // what they list in it is the file system's answer now.
            d.clear_flag(FLAG_DIR_COMPLETE);
            self.dcache.unhash_subtree(&d);
        }
        self.dcache.d_move(&src, &np, &prn.name);
        if self.dcache.config.neg_on_unlink && self.negatives_allowed(&mount.sb.fs) {
            let _g = op.dir_lock(); // already held above
            if self.dcache.d_lookup(&op, &pro.name).is_none() {
                self.dcache
                    .d_alloc(&op, &pro.name, DentryState::Negative(NegKind::Enoent));
            }
        }
        Ok(())
    }

    /// `link(2)` — hard links.
    pub fn link(&self, proc: &Process, oldpath: &str, newpath: &str) -> FsResult<()> {
        self.timing.record(SyscallClass::OtherMeta, || {
            let old = self.resolve(proc, oldpath, false)?;
            let old_inode = old.require_inode()?.clone();
            if old_inode.is_dir() {
                return Err(FsError::Perm);
            }
            let pr = self.resolve_parent(proc, None, newpath)?;
            if pr.parent.mount.id != old.mount.id {
                return Err(FsError::XDev);
            }
            let cred = proc.cred();
            self.check_dir_mutable(&cred, &pr.parent, None)?;
            let parent_d = pr.parent.dentry.clone();
            let mount = pr.parent.mount.clone();
            let _g = parent_d.dir_lock().lock();
            let existing = self.lookup_free_locked(&mount, &parent_d, &pr.name)?;
            let dir_ino = pr.parent.require_inode()?.ino;
            let attr = mount.sb.fs.link(dir_ino, &pr.name, old_inode.ino)?;
            old_inode.store_attr(attr);
            self.instantiate_created(&parent_d, existing, &pr.name, old_inode);
            Ok(())
        })
    }

    /// `symlink(2)`.
    pub fn symlink(&self, proc: &Process, target: &str, linkpath: &str) -> FsResult<()> {
        self.timing.record(SyscallClass::OtherMeta, || {
            if target.is_empty() {
                return Err(FsError::NoEnt);
            }
            let pr = self.resolve_parent(proc, None, linkpath)?;
            let cred = proc.cred();
            self.check_dir_mutable(&cred, &pr.parent, None)?;
            let parent_d = pr.parent.dentry.clone();
            let mount = pr.parent.mount.clone();
            let _g = parent_d.dir_lock().lock();
            let existing = self.lookup_free_locked(&mount, &parent_d, &pr.name)?;
            let dir_ino = pr.parent.require_inode()?.ino;
            let attr = mount
                .sb
                .fs
                .symlink(dir_ino, &pr.name, target, cred.uid, cred.gid)?;
            let inode = self.icache.get_or_create(mount.sb.id, &mount.sb.fs, attr);
            self.instantiate_created(&parent_d, existing, &pr.name, inode);
            Ok(())
        })
    }
}
